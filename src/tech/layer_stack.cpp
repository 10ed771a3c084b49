#include "tech/layer_stack.hpp"

#include <stdexcept>

namespace sma::tech {

LayerStack LayerStack::nangate45_like() {
  using util::Axis;
  // Capacitance ~0.2 fF/um and resistance ~2 ohm/um on thin metals; upper
  // metals are wider/thicker, so lower R and slightly lower C. A uniform
  // thin pitch is used on all six layers (the real stack widens above M3
  // but also has more layers; uniform capacity keeps the six-layer model's
  // per-direction routing supply realistic).
  std::vector<LayerInfo> layers;
  layers.push_back({"M1", Axis::kHorizontal, 140, 0.00020, 0.0020});
  layers.push_back({"M2", Axis::kVertical, 140, 0.00020, 0.0020});
  layers.push_back({"M3", Axis::kHorizontal, 140, 0.00020, 0.0020});
  layers.push_back({"M4", Axis::kVertical, 140, 0.00017, 0.0010});
  layers.push_back({"M5", Axis::kHorizontal, 140, 0.00017, 0.0010});
  layers.push_back({"M6", Axis::kVertical, 140, 0.00017, 0.0010});
  return LayerStack(std::move(layers));
}

LayerStack::LayerStack(std::vector<LayerInfo> layers)
    : layers_(std::move(layers)) {
  if (layers_.size() < 2) {
    throw std::invalid_argument("layer stack needs at least two metals");
  }
}

std::string LayerStack::cut_name(int cut) const {
  if (cut < 1 || cut > num_cut_layers()) {
    throw std::out_of_range("cut layer out of range");
  }
  std::string name = "V";
  name += std::to_string(cut);
  name += std::to_string(cut + 1);
  return name;
}

}  // namespace sma::tech
