#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

namespace sma::netlist {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line_no) + ": " + what);
}

/// An INPUT or OUTPUT declaration.
struct PortSpec {
  std::string name;
  int line_no = 0;
};

struct GateSpec {
  std::string output;
  tech::Function func{};
  std::vector<std::string> inputs;
  int line_no = 0;
};

/// Runs the Netlist edits for the statement on `line_no`, turning what they
/// throw into the parser's own error: the std::runtime_error of a gate the
/// library cannot build, and any std::logic_error of a Netlist invariant.
template <typename Edit>
void netlist_edit(int line_no, Edit&& edit) {
  try {
    edit();
  } catch (const std::logic_error& e) {
    fail(line_no, e.what());
  } catch (const std::runtime_error& e) {
    fail(line_no, e.what());
  }
}

/// Incremental builder that owns gate decomposition. `defined` holds every
/// signal the file defines; decomposition temporaries never take one of
/// those names.
class BenchBuilder {
 public:
  BenchBuilder(Netlist& nl, const std::map<std::string, int>& defined)
      : nl_(nl), defined_(defined) {}

  NetId net_for(const std::string& signal) {
    if (auto id = nl_.find_net(signal)) return *id;
    return nl_.add_net(signal);
  }

  /// Instantiate one library cell driving `out_net`.
  void instantiate(tech::Function fn, const std::vector<NetId>& fanin,
                   NetId out_net) {
    auto lib_index = nl_.library().pick(fn, static_cast<int>(fanin.size()));
    if (!lib_index) {
      throw std::runtime_error("no library cell for function with " +
                               std::to_string(fanin.size()) + " inputs");
    }
    const tech::LibCell& lib = nl_.library().cell(*lib_index);
    CellId cell = nl_.add_cell(unique_cell_name(lib.name), *lib_index);
    const auto inputs = lib.input_pins();
    for (std::size_t i = 0; i < fanin.size(); ++i) {
      nl_.connect(fanin[i], PinRef::cell_pin(cell, inputs[i]));
    }
    nl_.connect(out_net, PinRef::cell_pin(cell, lib.output_pin()));
  }

  /// Build a (possibly decomposed) gate computing `fn` over `fanin`,
  /// driving `out_net`.
  void build_gate(tech::Function fn, std::vector<NetId> fanin, NetId out_net) {
    using tech::Function;
    const int k = static_cast<int>(fanin.size());
    if (k == 0) throw std::runtime_error("gate with no inputs");

    // Degenerate single-input gates collapse to a buffer or inverter.
    if (k == 1 && !nl_.library().pick(fn, 1)) {
      bool inverting = fn == Function::kNand || fn == Function::kNor;
      instantiate(inverting ? Function::kInv : Function::kBuf, fanin, out_net);
      return;
    }

    // Directly representable?
    if (nl_.library().pick(fn, k)) {
      instantiate(fn, fanin, out_net);
      return;
    }

    switch (fn) {
      case Function::kAnd:
      case Function::kOr:
        build_tree(fn, std::move(fanin), out_net);
        return;
      case Function::kNand:
      case Function::kNor: {
        // Reduce with the non-inverting tree, finish with a wide-as-possible
        // inverting stage: NAND(k) = NAND(and-groups), etc.
        Function reduce = fn == Function::kNand ? Function::kAnd : Function::kOr;
        std::vector<NetId> groups = reduce_groups(reduce, std::move(fanin));
        instantiate(fn, groups, out_net);
        return;
      }
      case Function::kXor:
      case Function::kXnor: {
        // Parity chain; last stage carries the (possibly inverted) polarity.
        NetId acc = fanin[0];
        for (int i = 1; i < k - 1; ++i) {
          NetId t = temp_net();
          instantiate(Function::kXor, {acc, fanin[i]}, t);
          acc = t;
        }
        instantiate(fn, {acc, fanin[k - 1]}, out_net);
        return;
      }
      default:
        throw std::runtime_error("cannot decompose function");
    }
  }

 private:
  /// Balanced reduction tree for AND/OR with arbitrary width.
  void build_tree(tech::Function fn, std::vector<NetId> fanin, NetId out_net) {
    std::vector<NetId> groups = reduce_groups(fn, std::move(fanin));
    if (groups.size() == 1) {
      // A single group already computed the function into a temp; buffer it
      // onto the requested net. reduce_groups only returns one group when
      // it reduced >4 inputs, so a buffer is rare but correct.
      instantiate(tech::Function::kBuf, groups, out_net);
      return;
    }
    instantiate(fn, groups, out_net);
  }

  /// Repeatedly collapse runs of up to 4 signals with `fn` until at most 4
  /// remain; returns the survivors (>= 2 of them unless input had 1).
  std::vector<NetId> reduce_groups(tech::Function fn,
                                   std::vector<NetId> fanin) {
    while (fanin.size() > 4) {
      std::vector<NetId> next;
      for (std::size_t i = 0; i < fanin.size(); i += 4) {
        std::size_t n = std::min<std::size_t>(4, fanin.size() - i);
        if (n == 1) {
          next.push_back(fanin[i]);
          continue;
        }
        NetId t = temp_net();
        instantiate(fn, {fanin.begin() + i, fanin.begin() + i + n}, t);
        next.push_back(t);
      }
      fanin = std::move(next);
    }
    return fanin;
  }

  NetId temp_net() {
    std::string name;
    do {
      name = "_dec" + std::to_string(temp_counter_++);
    } while (defined_.count(name) != 0);
    return nl_.add_net(name);
  }

  std::string unique_cell_name(const std::string& lib_name) {
    return "U" + std::to_string(cell_counter_++) + "_" + lib_name;
  }

  Netlist& nl_;
  const std::map<std::string, int>& defined_;
  int temp_counter_ = 0;
  int cell_counter_ = 0;
};

tech::Function function_from_bench(const std::string& token, int line_no) {
  static const std::map<std::string, tech::Function> kMap = {
      {"NOT", tech::Function::kInv},   {"INV", tech::Function::kInv},
      {"BUF", tech::Function::kBuf},   {"BUFF", tech::Function::kBuf},
      {"AND", tech::Function::kAnd},   {"NAND", tech::Function::kNand},
      {"OR", tech::Function::kOr},     {"NOR", tech::Function::kNor},
      {"XOR", tech::Function::kXor},   {"XNOR", tech::Function::kXnor},
      {"DFF", tech::Function::kDff},
  };
  auto it = kMap.find(token);
  if (it == kMap.end()) fail(line_no, "unknown bench gate '" + token + "'");
  return it->second;
}

}  // namespace

Netlist parse_bench(std::istream& in, const std::string& design_name,
                    const tech::CellLibrary* library) {
  Netlist nl(design_name, library);

  std::vector<PortSpec> inputs;
  std::vector<PortSpec> outputs;
  std::vector<GateSpec> gates;
  // Every signal an INPUT or a gate defines, with its line: a signal is
  // defined once, and a gate may read only defined signals.
  std::map<std::string, int> defined;
  // Every signal an OUTPUT declares, with its line: declared once.
  std::map<std::string, int> declared_outputs;

  std::string line;
  int line_no = 0;
  const auto define = [&](const std::string& name) {
    if (name.empty()) fail(line_no, "empty signal name");
    const auto [it, fresh] = defined.emplace(name, line_no);
    if (!fresh) {
      fail(line_no, "signal '" + name + "' already defined on line " +
                        std::to_string(it->second));
    }
  };
  while (std::getline(in, line)) {
    ++line_no;
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;

    auto paren = line.find('(');
    auto equals = line.find('=');
    if (equals == std::string::npos) {
      // INPUT(x) or OUTPUT(x)
      auto close = line.rfind(')');
      if (paren == std::string::npos || close == std::string::npos ||
          close < paren) {
        fail(line_no, "malformed declaration");
      }
      std::string kind = upper(trim(line.substr(0, paren)));
      std::string name = trim(line.substr(paren + 1, close - paren - 1));
      if (kind == "INPUT") {
        define(name);
        inputs.push_back({name, line_no});
      } else if (kind == "OUTPUT") {
        if (name.empty()) fail(line_no, "empty signal name");
        const auto [it, fresh] = declared_outputs.emplace(name, line_no);
        if (!fresh) {
          fail(line_no, "signal '" + name + "' already an OUTPUT on line " +
                            std::to_string(it->second));
        }
        outputs.push_back({name, line_no});
      } else {
        fail(line_no, "unknown declaration '" + kind + "'");
      }
      continue;
    }

    // name = FUNC(a, b, ...)
    GateSpec gate;
    gate.output = trim(line.substr(0, equals));
    gate.line_no = line_no;
    auto close = line.rfind(')');
    paren = line.find('(', equals);
    if (paren == std::string::npos || close == std::string::npos ||
        close < paren) {
      fail(line_no, "malformed gate");
    }
    gate.func = function_from_bench(
        upper(trim(line.substr(equals + 1, paren - equals - 1))), line_no);
    std::string args = trim(line.substr(paren + 1, close - paren - 1));
    if (args.empty()) fail(line_no, "gate with no inputs");
    std::stringstream ss(args + ',');
    std::string arg;
    while (std::getline(ss, arg, ',')) {
      arg = trim(arg);
      if (arg.empty()) fail(line_no, "empty signal name");
      gate.inputs.push_back(arg);
    }
    define(gate.output);
    gates.push_back(std::move(gate));
  }

  BenchBuilder builder(nl, defined);
  for (const PortSpec& input : inputs) {
    netlist_edit(input.line_no, [&] {
      PortId port = nl.add_port(input.name, PortDirection::kInput);
      nl.connect(builder.net_for(input.name), PinRef::port(port));
    });
  }
  for (const GateSpec& gate : gates) {
    for (const std::string& in_name : gate.inputs) {
      if (defined.count(in_name) == 0) {
        fail(gate.line_no, "undefined signal '" + in_name + "'");
      }
    }
    netlist_edit(gate.line_no, [&] {
      std::vector<NetId> fanin;
      fanin.reserve(gate.inputs.size());
      for (const std::string& in_name : gate.inputs) {
        fanin.push_back(builder.net_for(in_name));
      }
      builder.build_gate(gate.func, std::move(fanin),
                         builder.net_for(gate.output));
    });
  }
  for (const PortSpec& output : outputs) {
    if (defined.count(output.name) == 0) {
      fail(output.line_no,
           "OUTPUT of undefined signal '" + output.name + "'");
    }
    netlist_edit(output.line_no, [&] {
      // The port is `<signal>_po`, or `<signal>_po<N>` for the first N that
      // no port (an INPUT of that name) already uses.
      const std::string base = output.name + "_po";
      std::string port_name = base;
      for (int n = 1; nl.find_port(port_name).has_value(); ++n) {
        port_name = base + std::to_string(n);
      }
      PortId port = nl.add_port(port_name, PortDirection::kOutput);
      nl.connect(*nl.find_net(output.name), PinRef::port(port));
    });
  }
  return nl;
}

Netlist parse_bench_string(const std::string& text,
                           const std::string& design_name,
                           const tech::CellLibrary* library) {
  std::istringstream in(text);
  return parse_bench(in, design_name, library);
}

std::string to_bench(const Netlist& nl) {
  std::ostringstream os;
  os << "# " << nl.name() << "\n";
  for (PortId i = 0; i < nl.num_ports(); ++i) {
    const Port& port = nl.port(i);
    if (port.direction == PortDirection::kInput) {
      os << "INPUT(" << nl.net(port.net).name << ")\n";
    }
  }
  for (PortId i = 0; i < nl.num_ports(); ++i) {
    const Port& port = nl.port(i);
    if (port.direction == PortDirection::kOutput) {
      os << "OUTPUT(" << nl.net(port.net).name << ")\n";
    }
  }
  for (CellId i = 0; i < nl.num_cells(); ++i) {
    const Cell& cell = nl.cell(i);
    const tech::LibCell& lib = nl.library().cell(cell.lib_cell);
    const char* fn = nullptr;
    switch (lib.function) {
      case tech::Function::kInv: fn = "NOT"; break;
      case tech::Function::kBuf: fn = "BUFF"; break;
      case tech::Function::kAnd: fn = "AND"; break;
      case tech::Function::kNand: fn = "NAND"; break;
      case tech::Function::kOr: fn = "OR"; break;
      case tech::Function::kNor: fn = "NOR"; break;
      case tech::Function::kXor: fn = "XOR"; break;
      case tech::Function::kXnor: fn = "XNOR"; break;
      case tech::Function::kDff: fn = "DFF"; break;
      default:
        throw std::runtime_error("cell not expressible in bench: " +
                                 cell.name);
    }
    os << nl.net(cell.pin_nets.at(lib.output_pin())).name << " = " << fn
       << "(";
    const auto inputs = lib.input_pins();
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      if (p > 0) os << ", ";
      os << nl.net(cell.pin_nets.at(inputs[p])).name;
    }
    os << ")\n";
  }
  return os.str();
}

}  // namespace sma::netlist
