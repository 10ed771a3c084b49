#include "netlist_support.hpp"

#include <sstream>
#include <stdexcept>

namespace sma::test {

using netlist::Cell;
using netlist::Port;
using netlist::PortDirection;

Simulator::Simulator(const Netlist* netlist)
    : netlist_(netlist), levelization_(levelize(*netlist)) {
  if (netlist_ == nullptr) throw std::invalid_argument("null netlist");
  if (levelization_.has_combinational_loop) {
    throw std::invalid_argument("cannot simulate a combinational loop");
  }
  for (PortId p = 0; p < netlist_->num_ports(); ++p) {
    if (netlist_->port(p).direction == PortDirection::kInput) {
      input_ports_.push_back(p);
    } else {
      output_ports_.push_back(p);
    }
  }
  for (CellId c = 0; c < netlist_->num_cells(); ++c) {
    if (tech::is_sequential(netlist_->lib_cell_of(c).function)) {
      dffs_.push_back(c);
    }
  }
  values_.assign(netlist_->num_nets(), false);
  dff_state_.assign(dffs_.size(), false);
}

bool Simulator::eval_cell(CellId cell_id) const {
  const Cell& cell = netlist_->cell(cell_id);
  const tech::LibCell& lib = netlist_->lib_cell_of(cell_id);
  std::vector<bool> in;
  for (int pin : lib.input_pins()) {
    in.push_back(values_.at(cell.pin_nets.at(pin)));
  }
  using tech::Function;
  switch (lib.function) {
    case Function::kInv: return !in[0];
    case Function::kBuf: return in[0];
    case Function::kNand: {
      bool all = true;
      for (bool v : in) all = all && v;
      return !all;
    }
    case Function::kAnd: {
      bool all = true;
      for (bool v : in) all = all && v;
      return all;
    }
    case Function::kNor: {
      bool any = false;
      for (bool v : in) any = any || v;
      return !any;
    }
    case Function::kOr: {
      bool any = false;
      for (bool v : in) any = any || v;
      return any;
    }
    case Function::kXor: {
      bool acc = false;
      for (bool v : in) acc = acc != v;
      return acc;
    }
    case Function::kXnor: {
      bool acc = false;
      for (bool v : in) acc = acc != v;
      return !acc;
    }
    case Function::kAoi21: return !((in[0] && in[1]) || in[2]);
    case Function::kOai21: return !((in[0] || in[1]) && in[2]);
    case Function::kMux2: return in[2] ? in[1] : in[0];
    case Function::kDff:
      throw std::logic_error("DFF evaluated combinationally");
  }
  return false;
}

std::vector<bool> Simulator::evaluate(const std::vector<bool>& inputs) {
  if (inputs.size() != input_ports_.size()) {
    throw std::invalid_argument("wrong input vector width");
  }
  for (std::size_t i = 0; i < input_ports_.size(); ++i) {
    values_.at(netlist_->port(input_ports_[i]).net) = inputs[i];
  }
  // DFF outputs present state before any combinational evaluation.
  for (std::size_t d = 0; d < dffs_.size(); ++d) {
    const Cell& cell = netlist_->cell(dffs_[d]);
    const tech::LibCell& lib = netlist_->lib_cell_of(dffs_[d]);
    values_.at(cell.pin_nets.at(lib.output_pin())) = dff_state_[d];
  }
  for (CellId c : levelization_.topo_order) {
    const tech::LibCell& lib = netlist_->lib_cell_of(c);
    if (tech::is_sequential(lib.function)) continue;
    const Cell& cell = netlist_->cell(c);
    values_.at(cell.pin_nets.at(lib.output_pin())) = eval_cell(c);
  }
  std::vector<bool> outputs;
  outputs.reserve(output_ports_.size());
  for (PortId p : output_ports_) {
    outputs.push_back(values_.at(netlist_->port(p).net));
  }
  return outputs;
}

std::vector<bool> Simulator::step(const std::vector<bool>& inputs) {
  std::vector<bool> outputs = evaluate(inputs);
  for (std::size_t d = 0; d < dffs_.size(); ++d) {
    const Cell& cell = netlist_->cell(dffs_[d]);
    const tech::LibCell& lib = netlist_->lib_cell_of(dffs_[d]);
    dff_state_[d] = values_.at(cell.pin_nets.at(lib.input_pins()[0]));
  }
  return outputs;
}

void Simulator::reset() {
  dff_state_.assign(dffs_.size(), false);
}

bool random_equivalence(const Netlist& a, const Netlist& b, int vectors,
                        util::Pcg32& rng, int sequence_length) {
  Simulator sim_a(&a);
  Simulator sim_b(&b);
  if (sim_a.num_inputs() != sim_b.num_inputs() ||
      sim_a.num_outputs() != sim_b.num_outputs()) {
    return false;
  }
  for (int v = 0; v < vectors; ++v) {
    sim_a.reset();
    sim_b.reset();
    for (int t = 0; t < sequence_length; ++t) {
      std::vector<bool> in(sim_a.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool(0.5);
      if (sim_a.step(in) != sim_b.step(in)) return false;
    }
  }
  return true;
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

}  // namespace sma::test
