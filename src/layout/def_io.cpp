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

void expect_keyword(std::istream& in, const std::string& keyword) {
  std::string token = expect_token(in, keyword.c_str());
  if (token != keyword) fail("expected '" + keyword + "', got '" + token + "'");
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
  die.lo.x = expect_int(in, "DIEAREA");
  die.lo.y = expect_int(in, "DIEAREA");
  die.hi.x = expect_int(in, "DIEAREA");
  die.hi.y = expect_int(in, "DIEAREA");

  expect_keyword(in, "ROWS");
  place::Floorplan fp;
  fp.die = die;
  fp.num_rows = static_cast<int>(expect_int(in, "ROWS"));
  fp.num_sites = static_cast<int>(expect_int(in, "ROWS"));
  fp.row_height = expect_int(in, "ROWS");
  fp.site_width = expect_int(in, "ROWS");

  expect_keyword(in, "GCELL");
  std::int64_t gcell = expect_int(in, "GCELL");

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

  expect_keyword(in, "COMPONENTS");
  const int num_components = expect_count(in, "COMPONENTS");
  std::vector<util::Point> cell_positions;  // indexed by CellId
  for (int i = 0; i < num_components; ++i) {
    std::string cell_name = expect_token(in, "component");
    std::string master = expect_token(in, "component");
    auto lib_index = library->find(master);
    if (!lib_index) fail("unknown master: " + master);
    nl.add_cell(cell_name, *lib_index);
    util::Point& position = cell_positions.emplace_back();
    position.x = expect_int(in, "component");
    position.y = expect_int(in, "component");
  }

  expect_keyword(in, "PINS");
  const int num_pins = expect_count(in, "PINS");
  for (int i = 0; i < num_pins; ++i) {
    std::string port_name = expect_token(in, "pin");
    std::string direction = expect_token(in, "pin");
    expect_int(in, "pin");  // x: re-derived by Placement's perimeter rule
    expect_int(in, "pin");  // y
    nl.add_port(port_name, direction == "IN"
                               ? netlist::PortDirection::kInput
                               : netlist::PortDirection::kOutput);
  }

  expect_keyword(in, "NETS");
  const int num_nets = expect_count(in, "NETS");
  std::vector<route::NetRoute> routes;  // indexed by NetId
  for (int i = 0; i < num_nets; ++i) {
    expect_keyword(in, "NET");
    std::string net_name = expect_token(in, "net");
    NetId net = nl.add_net(net_name);
    route::NetRoute& net_route = routes.emplace_back();
    net_route.net = net;

    for (;;) {
      std::string token = expect_token(in, "net body");
      if (token == "PORT") {
        std::string port_name = expect_token(in, "PORT");
        auto port = nl.find_port(port_name);
        if (!port) fail("unknown port: " + port_name);
        nl.connect(net, PinRef::port(*port));
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
        nl.connect(net, PinRef::cell_pin(*cell, lib_pin));
      } else if (token == "SEGMENTS") {
        const int count = expect_count(in, "SEGMENTS");
        for (int s = 0; s < count; ++s) {
          route::RouteSegment seg;
          seg.layer = static_cast<int>(expect_int(in, "segment"));
          seg.a.x = expect_int(in, "segment");
          seg.a.y = expect_int(in, "segment");
          seg.b.x = expect_int(in, "segment");
          seg.b.y = expect_int(in, "segment");
          net_route.segments.push_back(seg);
        }
      } else if (token == "VIAS") {
        const int count = expect_count(in, "VIAS");
        for (int v = 0; v < count; ++v) {
          route::RouteVia via;
          via.cut = static_cast<int>(expect_int(in, "via"));
          via.at.x = expect_int(in, "via");
          via.at.y = expect_int(in, "via");
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
  for (route::NetRoute& route : design.routing.routes) {
    design.routing.total_wirelength += route.total_wirelength();
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
