// DEF-lite: a compact text interchange format for routed designs.
//
// Mirrors the paper's use of the Design Exchange Format as the hand-off
// between the physical-design tool and the attack: a `Design` can be
// exported after routing and re-imported later (e.g. by an attack running
// in a different process) with identical connectivity, placement and
// routed geometry. This is a reduced dialect, not IEEE 1481 DEF.
#pragma once

#include <iosfwd>
#include <string>

#include "layout/design.hpp"

namespace sma::layout {

/// Serialize a routed design.
void write_def(const Design& design, std::ostream& out);
std::string to_def_string(const Design& design);

/// Reconstruct a design from DEF-lite text. The cell `library` must contain
/// every master referenced by the file. Routed geometry is restored;
/// router-internal grid-edge lists are not (all consumers work from
/// geometry). Throws std::runtime_error on malformed or hostile input,
/// among others on a duplicate name or a pin connected twice, a DIEAREA, GCELL or ROWS size beyond 2^40 DBU, a
/// component, segment or via coordinate outside the routing grid's area
/// (DIEAREA rounded up to whole gcells), a segment layer outside
/// 1..num_layers, a via cut outside 1..num_layers-1, or a total
/// wirelength that overflows.
Design read_def(std::istream& in, const tech::CellLibrary* library);
Design read_def_string(const std::string& text,
                       const tech::CellLibrary* library);

}  // namespace sma::layout
