#include "tech/cell_library.hpp"

#include <algorithm>
#include <stdexcept>

namespace sma::tech {

bool is_sequential(Function f) { return f == Function::kDff; }

int LibCell::output_pin() const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].direction == PinDirection::kOutput) {
      return static_cast<int>(i);
    }
  }
  throw std::logic_error("library cell without output pin: " + name);
}

std::vector<int> LibCell::input_pins() const {
  std::vector<int> result;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].direction == PinDirection::kInput) {
      result.push_back(static_cast<int>(i));
    }
  }
  return result;
}

int LibCell::num_inputs() const {
  return static_cast<int>(input_pins().size());
}

double LibCell::input_cap_sum() const {
  double total = 0.0;
  for (const auto& pin : pins) {
    if (pin.direction == PinDirection::kInput) total += pin.capacitance;
  }
  return total;
}

namespace {

constexpr std::int64_t kSite = 190;    // DBU (0.19 um, NanGate site width)
constexpr std::int64_t kRow = 1400;    // DBU (1.4 um row height)

/// Assembles a LibCell with evenly spread pin offsets: inputs on the left
/// half of the cell at staggered heights, output on the right edge. The
/// exact shapes do not matter; only that pins of one cell have distinct,
/// deterministic locations for routing and feature extraction.
LibCell make_cell(std::string name, Function fn, int drive, int inputs,
                  std::int64_t width_sites, double in_cap, double max_load,
                  double res, double delay) {
  LibCell cell;
  cell.name = std::move(name);
  cell.function = fn;
  cell.drive_strength = drive;
  cell.width = width_sites * kSite;
  cell.max_load_cap = max_load;
  cell.drive_resistance = res;
  cell.intrinsic_delay = delay;

  static const char* kInputNames[] = {"A", "B", "C", "D"};
  for (int i = 0; i < inputs; ++i) {
    LibPin pin;
    pin.name = fn == Function::kDff && i == 0 ? "D" : kInputNames[i];
    pin.direction = PinDirection::kInput;
    pin.offset = {kSite / 2 + (i % 2) * kSite / 2,
                  kRow / 4 + (i * kRow) / (2 * std::max(inputs, 1))};
    pin.capacitance = in_cap;
    cell.pins.push_back(pin);
  }
  LibPin out;
  out.name.assign(1, fn == Function::kDff ? 'Q' : 'Z');
  out.direction = PinDirection::kOutput;
  out.offset = {cell.width - kSite / 2, kRow / 2};
  out.capacitance = 0.0;
  cell.pins.push_back(out);
  return cell;
}

}  // namespace

CellLibrary CellLibrary::nangate45_like() {
  std::vector<LibCell> cells;
  // name, fn, drive, #in, width(sites), in-cap fF, max load fF, R ohm, d ps
  cells.push_back(make_cell("INV_X1", Function::kInv, 1, 1, 2, 1.6, 60.0, 7000, 10));
  cells.push_back(make_cell("INV_X2", Function::kInv, 2, 1, 3, 3.2, 120.0, 3500, 9));
  cells.push_back(make_cell("INV_X4", Function::kInv, 4, 1, 4, 6.4, 240.0, 1750, 8));
  cells.push_back(make_cell("BUF_X1", Function::kBuf, 1, 1, 3, 1.5, 60.0, 7000, 22));
  cells.push_back(make_cell("BUF_X2", Function::kBuf, 2, 1, 4, 3.0, 120.0, 3500, 20));
  cells.push_back(make_cell("NAND2_X1", Function::kNand, 1, 2, 3, 1.6, 55.0, 7400, 14));
  cells.push_back(make_cell("NAND3_X1", Function::kNand, 1, 3, 4, 1.7, 50.0, 7800, 18));
  cells.push_back(make_cell("NAND4_X1", Function::kNand, 1, 4, 5, 1.8, 45.0, 8200, 22));
  cells.push_back(make_cell("NOR2_X1", Function::kNor, 1, 2, 3, 1.7, 55.0, 7600, 15));
  cells.push_back(make_cell("NOR3_X1", Function::kNor, 1, 3, 4, 1.8, 50.0, 8000, 20));
  cells.push_back(make_cell("NOR4_X1", Function::kNor, 1, 4, 5, 1.9, 45.0, 8400, 25));
  cells.push_back(make_cell("AND2_X1", Function::kAnd, 1, 2, 4, 1.5, 60.0, 7200, 24));
  cells.push_back(make_cell("AND3_X1", Function::kAnd, 1, 3, 5, 1.6, 55.0, 7400, 28));
  cells.push_back(make_cell("AND4_X1", Function::kAnd, 1, 4, 6, 1.7, 50.0, 7600, 32));
  cells.push_back(make_cell("OR2_X1", Function::kOr, 1, 2, 4, 1.5, 60.0, 7200, 25));
  cells.push_back(make_cell("OR3_X1", Function::kOr, 1, 3, 5, 1.6, 55.0, 7400, 29));
  cells.push_back(make_cell("OR4_X1", Function::kOr, 1, 4, 6, 1.7, 50.0, 7600, 33));
  cells.push_back(make_cell("XOR2_X1", Function::kXor, 1, 2, 5, 2.0, 50.0, 7600, 30));
  cells.push_back(make_cell("XNOR2_X1", Function::kXnor, 1, 2, 5, 2.0, 50.0, 7600, 30));
  cells.push_back(make_cell("AOI21_X1", Function::kAoi21, 1, 3, 4, 1.7, 50.0, 7800, 18));
  cells.push_back(make_cell("OAI21_X1", Function::kOai21, 1, 3, 4, 1.7, 50.0, 7800, 18));
  cells.push_back(make_cell("MUX2_X1", Function::kMux2, 1, 3, 6, 1.8, 55.0, 7400, 32));
  cells.push_back(make_cell("DFF_X1", Function::kDff, 1, 1, 9, 1.6, 60.0, 7000, 90));
  return CellLibrary(std::move(cells), kSite, kRow);
}

CellLibrary::CellLibrary(std::vector<LibCell> cells, std::int64_t site_width,
                         std::int64_t row_height)
    : cells_(std::move(cells)),
      site_width_(site_width),
      row_height_(row_height) {
  if (cells_.empty()) throw std::invalid_argument("empty cell library");
}

std::optional<int> CellLibrary::find(const std::string& name) const {
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].name == name) return static_cast<int>(i);
  }
  return std::nullopt;
}

std::vector<int> CellLibrary::cells_with_function(Function f) const {
  std::vector<int> result;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].function == f) result.push_back(static_cast<int>(i));
  }
  std::sort(result.begin(), result.end(), [this](int a, int b) {
    return cells_[a].drive_strength < cells_[b].drive_strength;
  });
  return result;
}

std::optional<int> CellLibrary::pick(Function f, int num_inputs) const {
  for (int index : cells_with_function(f)) {
    if (cells_[index].num_inputs() == num_inputs) return index;
  }
  return std::nullopt;
}

}  // namespace sma::tech
