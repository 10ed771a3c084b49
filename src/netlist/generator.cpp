#include "netlist/generator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace sma::netlist {

namespace {

using tech::Function;

/// Fan-in count distribution loosely matching technology-mapped benchmark
/// netlists: dominated by 2-input gates with a tail of 3/4-input gates and
/// a healthy inverter/buffer share.
int sample_fanin(util::Pcg32& rng) {
  static const std::vector<double> kWeights = {0.22, 0.52, 0.17, 0.09};
  return static_cast<int>(rng.next_weighted(kWeights)) + 1;
}

/// Pick a combinational function compatible with `fanin` inputs.
Function sample_function(util::Pcg32& rng, int fanin) {
  switch (fanin) {
    case 1:
      return rng.next_bool(0.7) ? Function::kInv : Function::kBuf;
    case 2: {
      static const std::vector<double> kW = {0.30, 0.22, 0.12, 0.12,
                                             0.12, 0.12};
      static const Function kF[] = {Function::kNand, Function::kNor,
                                    Function::kAnd,  Function::kOr,
                                    Function::kXor,  Function::kXnor};
      return kF[rng.next_weighted(kW)];
    }
    case 3: {
      static const std::vector<double> kW = {0.35, 0.25, 0.15, 0.15, 0.10};
      static const Function kF[] = {Function::kNand, Function::kNor,
                                    Function::kAoi21, Function::kOai21,
                                    Function::kMux2};
      return kF[rng.next_weighted(kW)];
    }
    case 4: {
      return rng.next_bool(0.6) ? Function::kNand : Function::kNor;
    }
    default:
      throw std::logic_error("unsupported fan-in");
  }
}

}  // namespace

Netlist generate_netlist(const GeneratorConfig& config,
                         const std::string& design_name,
                         const tech::CellLibrary* library) {
  if (config.num_inputs < 1 || config.num_gates < 1) {
    throw std::invalid_argument("generator needs >= 1 input and gate");
  }
  Netlist nl(design_name, library);
  util::Pcg32 rng(config.seed, 0x5e41);

  // Signals available as fan-in, in creation order (index = age).
  std::vector<NetId> pool;
  // Fan-out count per pool entry, to track unused signals.
  std::vector<int> fanout;
  std::vector<std::size_t> unused;  // indices into pool with fanout == 0

  auto add_signal = [&](NetId net) {
    pool.push_back(net);
    fanout.push_back(0);
    unused.push_back(pool.size() - 1);
  };

  for (int i = 0; i < config.num_inputs; ++i) {
    std::string name = "pi" + std::to_string(i);
    PortId port = nl.add_port(name, PortDirection::kInput);
    NetId net = nl.add_net(name);
    nl.connect(net, PinRef::port(port));
    add_signal(net);
  }

  // Draws a pool index for one fan-in, avoiding duplicates within
  // `chosen`. Fan-out accounting is the caller's job so that abandoned
  // gate attempts do not leak phantom fan-out.
  auto draw_fanin = [&](const std::vector<std::size_t>& chosen)
      -> std::optional<std::size_t> {
    // Retire stale entries of the unused list lazily.
    while (!unused.empty() && fanout[unused.back()] > 0) unused.pop_back();

    std::size_t index;
    if (!unused.empty() && rng.next_bool(config.reuse_pressure)) {
      // Recency-biased draw over the unused signals: real logic reuses
      // signals created nearby, which is what gives circuits the spatial
      // locality (low Rent exponent) a placer can exploit.
      std::size_t back_off = 0;
      while (rng.next_bool(1.0 - 2.0 * config.locality) &&
             back_off + 1 < unused.size()) {
        ++back_off;
      }
      index = unused[unused.size() - 1 - back_off];
      if (fanout[index] > 0) index = unused.back();  // stale; fall back
    } else {
      // Recency-biased geometric draw over the pool.
      std::size_t back_off = 0;
      while (rng.next_bool(1.0 - config.locality) &&
             back_off + 1 < pool.size()) {
        ++back_off;
        if (back_off > pool.size() / 2 && rng.next_bool(0.5)) break;
      }
      index = pool.size() - 1 - back_off;
    }
    auto taken = [&](std::size_t i) {
      return std::find(chosen.begin(), chosen.end(), i) != chosen.end();
    };
    if (taken(index)) {
      // Duplicate; do a cheap uniform retry.
      index = rng.next_below(static_cast<std::uint32_t>(pool.size()));
      if (taken(index)) return std::nullopt;
    }
    return index;
  };

  int made = 0;
  int attempts = 0;
  while (made < config.num_gates && attempts < config.num_gates * 20) {
    ++attempts;
    bool sequential = rng.next_bool(config.seq_fraction);
    int k = sequential ? 1 : sample_fanin(rng);
    k = std::min<int>(k, static_cast<int>(pool.size()));
    Function fn = sequential ? Function::kDff : sample_function(rng, k);

    auto lib_index = library->pick(fn, k);
    if (!lib_index) continue;

    std::vector<std::size_t> fanin_indices;
    fanin_indices.reserve(k);
    for (int i = 0; i < k; ++i) {
      auto index = draw_fanin(fanin_indices);
      if (!index) break;
      fanin_indices.push_back(*index);
    }
    if (static_cast<int>(fanin_indices.size()) < k) continue;
    for (std::size_t index : fanin_indices) ++fanout[index];

    const tech::LibCell& lib = library->cell(*lib_index);
    const std::string number = std::to_string(made);
    std::string cell_name = "g";
    cell_name += number;
    cell_name += '_';
    cell_name += lib.name;
    CellId cell = nl.add_cell(cell_name, *lib_index);
    const auto input_pins = lib.input_pins();
    for (int i = 0; i < k; ++i) {
      nl.connect(pool[fanin_indices[i]],
                 PinRef::cell_pin(cell, input_pins[i]));
    }
    std::string net_name = "n";
    net_name += number;
    NetId out = nl.add_net(net_name);
    nl.connect(out, PinRef::cell_pin(cell, lib.output_pin()));
    add_signal(out);
    ++made;
  }
  if (made < config.num_gates) {
    throw std::runtime_error("generator failed to reach requested gate count");
  }

  // Every dangling signal becomes a primary output; then tap extra internal
  // signals until the requested output count is reached.
  int outputs_made = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (fanout[i] == 0) {
      PortId port =
          nl.add_port("po" + std::to_string(outputs_made), PortDirection::kOutput);
      nl.connect(pool[i], PinRef::port(port));
      ++fanout[i];
      ++outputs_made;
    }
  }
  while (outputs_made < config.num_outputs) {
    std::size_t index = rng.next_below(static_cast<std::uint32_t>(pool.size()));
    // Skip signals that already feed an output port (cheap check: allow
    // duplicates only via distinct nets).
    PortId port =
        nl.add_port("po" + std::to_string(outputs_made), PortDirection::kOutput);
    nl.connect(pool[index], PinRef::port(port));
    ++outputs_made;
  }
  return nl;
}

}  // namespace sma::netlist
