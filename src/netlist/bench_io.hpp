// Reader/writer for the ISCAS-85/89 ".bench" netlist format.
//
//   INPUT(G1)
//   OUTPUT(G22)
//   G10 = NAND(G1, G3)
//
// The reader technology-maps each bench gate onto the cell library: gates
// wider than the widest library cell are decomposed into balanced trees
// (e.g. a 9-input NAND becomes AND4/AND3 stages feeding a final NAND), and
// XOR/XNOR chains are built for multi-input parity gates. DFFs map to the
// library flip-flop; the clock network is abstracted away, as it plays no
// role in the split-manufacturing attack.
#pragma once

#include <istream>
#include <string>

#include "netlist/netlist.hpp"

namespace sma::netlist {

/// Parse a .bench stream into a netlist named `design_name`. An OUTPUT's
/// port is named `<signal>_po` (`<signal>_po<N>` when an INPUT already
/// uses that name). Throws std::runtime_error with a line number on
/// malformed input: bad syntax, an empty signal name, a signal that
/// INPUTs and gates define more than once, a repeated OUTPUT, or a gate
/// input or OUTPUT that none defines.
Netlist parse_bench(std::istream& in, const std::string& design_name,
                    const tech::CellLibrary* library);

/// Convenience overload for in-memory text.
Netlist parse_bench_string(const std::string& text,
                           const std::string& design_name,
                           const tech::CellLibrary* library);

}  // namespace sma::netlist
