#include "layout/def_io.hpp"

#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sma::layout {

namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinRef;
using netlist::PortId;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("def-lite: " + what);
}

std::string expect_token(std::istream& in, const char* context) {
  std::string token;
  if (!(in >> token)) fail(std::string("unexpected end of file in ") + context);
  return token;
}

std::int64_t expect_int(std::istream& in, const char* context) {
  std::int64_t value;
  if (!(in >> value)) fail(std::string("expected integer in ") + context);
  return value;
}

/// A section's entry count. The parser appends entries as they parse and
/// never pre-sizes from a count, so a count that overstates the file ends
/// in "unexpected end of file" rather than in a huge allocation.
int expect_count(std::istream& in, const char* context) {
  const std::int64_t value = expect_int(in, context);
  if (value < 0 || value > std::numeric_limits<int>::max()) {
    fail(std::string("count out of range in ") + context + ": " +
         std::to_string(value));
  }
  return static_cast<int>(value);
}

/// Largest coordinate magnitude a file may give DIEAREA, GCELL and the
/// ROWS sizes: 2^40 DBU, about 550 m at 2,000 DBU per micron. Every
/// placed or routed coordinate must then lie in the routing grid's area
/// (DIEAREA rounded up to whole gcells), within +-2^41, where the sums and
/// differences the flow takes of a few coordinates cannot overflow.
constexpr std::int64_t kMaxCoordinate = std::int64_t{1} << 40;

std::int64_t expect_int_in(std::istream& in, const char* context,
                           std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = expect_int(in, context);
  if (value < lo || value > hi) {
    fail(std::string("value out of range in ") + context + ": " +
         std::to_string(value));
  }
  return value;
}

/// A point that must lie in `area` (inclusive).
util::Point expect_point(std::istream& in, const char* context,
                         const util::Rect& area) {
  util::Point p;
  p.x = expect_int(in, context);
  p.y = expect_int(in, context);
  if (!area.contains(p)) {
    fail(std::string(context) + " at (" + std::to_string(p.x) + ", " +
         std::to_string(p.y) + ") lies outside the routing grid");
  }
  return p;
}

void expect_keyword(std::istream& in, const std::string& keyword) {
  std::string token = expect_token(in, keyword.c_str());
  if (token != keyword) fail("expected '" + keyword + "', got '" + token + "'");
}

/// Runs a Netlist mutation, turning the std::logic_error it throws on a
/// duplicate name or a pin connected twice into the parser's own error.
template <typename Mutation>
auto netlist_edit(Mutation&& mutation) -> decltype(mutation()) {
  try {
    return mutation();
  } catch (const std::logic_error& e) {
    fail(e.what());
  }
}

}  // namespace

void write_def(const Design& design, std::ostream& out) {
  const netlist::Netlist& nl = *design.netlist;
  const place::Placement& pl = *design.placement;
  const place::Floorplan& fp = pl.floorplan();

  out << "DESIGN " << nl.name() << "\n";
  out << "DIEAREA " << fp.die.lo.x << ' ' << fp.die.lo.y << ' ' << fp.die.hi.x
      << ' ' << fp.die.hi.y << "\n";
  out << "ROWS " << fp.num_rows << ' ' << fp.num_sites << ' ' << fp.row_height
      << ' ' << fp.site_width << "\n";
  out << "GCELL " << design.grid->gcell_size() << "\n";

  out << "COMPONENTS " << nl.num_cells() << "\n";
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    const util::Point& p = pl.cell_origin(c);
    out << "  " << nl.cell(c).name << ' ' << nl.lib_cell_of(c).name << ' '
        << p.x << ' ' << p.y << "\n";
  }

  out << "PINS " << nl.num_ports() << "\n";
  for (PortId p = 0; p < nl.num_ports(); ++p) {
    const netlist::Port& port = nl.port(p);
    const util::Point& loc = pl.port_location(p);
    out << "  " << port.name << ' '
        << (port.direction == netlist::PortDirection::kInput ? "IN" : "OUT")
        << ' ' << loc.x << ' ' << loc.y << "\n";
  }

  out << "NETS " << nl.num_nets() << "\n";
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    const route::NetRoute& route = design.route_of(n);
    out << "  NET " << net.name << "\n";
    auto emit_pin = [&](const PinRef& pin) {
      if (pin.is_port()) {
        out << "    PORT " << nl.port(pin.id).name << "\n";
      } else {
        const tech::LibCell& lib = nl.lib_cell_of(pin.id);
        out << "    PIN " << nl.cell(pin.id).name << ' '
            << lib.pins.at(pin.lib_pin).name << "\n";
      }
    };
    if (net.has_driver()) emit_pin(net.driver);
    for (const PinRef& sink : net.sinks) emit_pin(sink);
    out << "    SEGMENTS " << route.segments.size() << "\n";
    for (const route::RouteSegment& s : route.segments) {
      out << "      " << s.layer << ' ' << s.a.x << ' ' << s.a.y << ' '
          << s.b.x << ' ' << s.b.y << "\n";
    }
    out << "    VIAS " << route.vias.size() << "\n";
    for (const route::RouteVia& v : route.vias) {
      out << "      " << v.cut << ' ' << v.at.x << ' ' << v.at.y << "\n";
    }
  }
  out << "END\n";
}

std::string to_def_string(const Design& design) {
  std::ostringstream os;
  write_def(design, os);
  return os.str();
}

Design read_def(std::istream& in, const tech::CellLibrary* library) {
  if (library == nullptr) fail("null library");

  expect_keyword(in, "DESIGN");
  std::string design_name = expect_token(in, "DESIGN");

  expect_keyword(in, "DIEAREA");
  util::Rect die;
  die.lo.x = expect_int_in(in, "DIEAREA", -kMaxCoordinate, kMaxCoordinate);
  die.lo.y = expect_int_in(in, "DIEAREA", -kMaxCoordinate, kMaxCoordinate);
  die.hi.x = expect_int_in(in, "DIEAREA", -kMaxCoordinate, kMaxCoordinate);
  die.hi.y = expect_int_in(in, "DIEAREA", -kMaxCoordinate, kMaxCoordinate);

  expect_keyword(in, "ROWS");
  place::Floorplan fp;
  fp.die = die;
  fp.num_rows = expect_count(in, "ROWS");
  fp.num_sites = expect_count(in, "ROWS");
  fp.row_height = expect_int_in(in, "ROWS", 1, kMaxCoordinate);
  fp.site_width = expect_int_in(in, "ROWS", 1, kMaxCoordinate);

  expect_keyword(in, "GCELL");
  std::int64_t gcell = expect_int_in(in, "GCELL", -kMaxCoordinate,
                                     kMaxCoordinate);

  Design design;
  design.netlist = std::make_unique<netlist::Netlist>(design_name, library);
  design.stack =
      std::make_unique<tech::LayerStack>(tech::LayerStack::nangate45_like());
  netlist::Netlist& nl = *design.netlist;

  // The grid goes up before any section parses, so a hostile DIEAREA or
  // GCELL fails fast; RoutingGrid rejects an empty die, a non-positive
  // gcell and any grid larger than the router can address.
  route::RoutingGrid::Config grid_config;
  grid_config.gcell_size = gcell;
  try {
    design.grid = std::make_unique<route::RoutingGrid>(design.stack.get(), die,
                                                       grid_config);
  } catch (const std::invalid_argument& e) {
    fail(std::string("bad DIEAREA/GCELL: ") + e.what());
  }
  // Routed centre lines may sit past DIEAREA's high edge (the last gcell
  // runs over it), so coordinates are checked against the grid's area.
  const route::RoutingGrid& grid = *design.grid;
  const util::Rect area{die.lo, {die.lo.x + grid.nx() * gcell,
                                 die.lo.y + grid.ny() * gcell}};
  const int num_layers = design.stack->num_layers();

  expect_keyword(in, "COMPONENTS");
  const int num_components = expect_count(in, "COMPONENTS");
  std::vector<util::Point> cell_positions;  // indexed by CellId
  for (int i = 0; i < num_components; ++i) {
    std::string cell_name = expect_token(in, "component");
    std::string master = expect_token(in, "component");
    auto lib_index = library->find(master);
    if (!lib_index) fail("unknown master: " + master);
    netlist_edit([&] { return nl.add_cell(cell_name, *lib_index); });
    cell_positions.push_back(expect_point(in, "component", area));
  }

  expect_keyword(in, "PINS");
  const int num_pins = expect_count(in, "PINS");
  for (int i = 0; i < num_pins; ++i) {
    std::string port_name = expect_token(in, "pin");
    std::string direction = expect_token(in, "pin");
    expect_int(in, "pin");  // x: re-derived by Placement's perimeter rule
    expect_int(in, "pin");  // y
    netlist_edit([&] {
      return nl.add_port(port_name, direction == "IN"
                                        ? netlist::PortDirection::kInput
                                        : netlist::PortDirection::kOutput);
    });
  }

  expect_keyword(in, "NETS");
  const int num_nets = expect_count(in, "NETS");
  std::vector<route::NetRoute> routes;  // indexed by NetId
  // Summed as segments parse, so no net's or design's total can overflow.
  std::int64_t total_wirelength = 0;
  for (int i = 0; i < num_nets; ++i) {
    expect_keyword(in, "NET");
    std::string net_name = expect_token(in, "net");
    NetId net = netlist_edit([&] { return nl.add_net(net_name); });
    route::NetRoute& net_route = routes.emplace_back();
    net_route.net = net;

    for (;;) {
      std::string token = expect_token(in, "net body");
      if (token == "PORT") {
        std::string port_name = expect_token(in, "PORT");
        auto port = nl.find_port(port_name);
        if (!port) fail("unknown port: " + port_name);
        netlist_edit([&] { nl.connect(net, PinRef::port(*port)); });
      } else if (token == "PIN") {
        std::string cell_name = expect_token(in, "PIN");
        std::string pin_name = expect_token(in, "PIN");
        auto cell = nl.find_cell(cell_name);
        if (!cell) fail("unknown cell: " + cell_name);
        const tech::LibCell& lib = nl.lib_cell_of(*cell);
        int lib_pin = -1;
        for (std::size_t p = 0; p < lib.pins.size(); ++p) {
          if (lib.pins[p].name == pin_name) {
            lib_pin = static_cast<int>(p);
            break;
          }
        }
        if (lib_pin < 0) fail("unknown pin " + pin_name + " on " + cell_name);
        netlist_edit(
            [&] { nl.connect(net, PinRef::cell_pin(*cell, lib_pin)); });
      } else if (token == "SEGMENTS") {
        const int count = expect_count(in, "SEGMENTS");
        for (int s = 0; s < count; ++s) {
          route::RouteSegment seg;
          seg.layer =
              static_cast<int>(expect_int_in(in, "segment", 1, num_layers));
          seg.a = expect_point(in, "segment", area);
          seg.b = expect_point(in, "segment", area);
          if (seg.length() >
              std::numeric_limits<std::int64_t>::max() - total_wirelength) {
            fail("total wirelength overflows");
          }
          total_wirelength += seg.length();
          net_route.segments.push_back(seg);
        }
      } else if (token == "VIAS") {
        const int count = expect_count(in, "VIAS");
        for (int v = 0; v < count; ++v) {
          route::RouteVia via;
          via.cut =
              static_cast<int>(expect_int_in(in, "via", 1, num_layers - 1));
          via.at = expect_point(in, "via", area);
          net_route.vias.push_back(via);
        }
        break;  // VIAS is the last section of a net
      } else {
        fail("unexpected token in net body: " + token);
      }
    }
  }
  expect_keyword(in, "END");

  design.placement = std::make_unique<place::Placement>(&nl, fp);
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    design.placement->set_cell_origin(c, cell_positions[c]);
  }

  design.routing.routes = std::move(routes);
  design.routing.total_wirelength = total_wirelength;
  for (const route::NetRoute& route : design.routing.routes) {
    design.routing.total_vias += static_cast<int>(route.vias.size());
  }
  return design;
}

Design read_def_string(const std::string& text,
                       const tech::CellLibrary* library) {
  std::istringstream in(text);
  return read_def(in, library);
}

}  // namespace sma::layout
