// Test-only netlist support: cycle-free logic simulation and a .bench
// writer.
//
// The attack itself never simulates — it is purely structural — but
// simulation is the ground truth for substrate correctness: generated
// netlists must be evaluable, .bench round trips and DEF-lite round trips
// must preserve function, and a reconnected netlist equals the original
// exactly when every sink was restored. Evaluates a netlist on Boolean
// input vectors (DFFs hold explicit state and advance per `step`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"
#include "util/rng.hpp"

namespace sma::test {

using netlist::CellId;
using netlist::Levelization;
using netlist::NetId;
using netlist::Netlist;
using netlist::PortId;

/// Simulator over one netlist; holds per-net values and DFF state.
class Simulator {
 public:
  explicit Simulator(const Netlist* netlist);

  /// Number of primary inputs / outputs.
  int num_inputs() const { return static_cast<int>(input_ports_.size()); }
  int num_outputs() const { return static_cast<int>(output_ports_.size()); }

  /// Evaluate combinationally with the given input values (index-aligned
  /// with the netlist's input ports in id order). DFF outputs present
  /// their current state. Returns output port values in id order.
  std::vector<bool> evaluate(const std::vector<bool>& inputs);

  /// `evaluate`, then clock every DFF (state <- D input value).
  std::vector<bool> step(const std::vector<bool>& inputs);

  /// Reset all DFF state to 0.
  void reset();

  /// Value of an arbitrary net after the last evaluate/step.
  bool net_value(NetId net) const { return values_.at(net); }

 private:
  bool eval_cell(CellId cell) const;

  const Netlist* netlist_;
  Levelization levelization_;
  std::vector<PortId> input_ports_;
  std::vector<PortId> output_ports_;
  std::vector<CellId> dffs_;
  std::vector<bool> values_;     ///< per net
  std::vector<bool> dff_state_;  ///< per entry of dffs_
};

/// Structural equivalence check by random simulation: run `vectors`
/// random input vectors (and `sequence_length` clock steps each for
/// sequential designs) through both netlists and compare outputs. The
/// netlists must have identical port counts in id order. Returns true if
/// no mismatch was observed.
bool random_equivalence(const Netlist& a, const Netlist& b, int vectors,
                        util::Pcg32& rng, int sequence_length = 4);

/// Serialize to .bench. Only netlists whose cells all have bench-expressible
/// functions (INV/BUF/NAND/NOR/AND/OR/XOR/XNOR/DFF) can be written; throws
/// std::runtime_error otherwise.
std::string to_bench(const Netlist& netlist);

}  // namespace sma::test
