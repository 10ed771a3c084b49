// Global placement: quadratic relaxation + order-preserving spreading.
//
// Phase 1 iterates the quadratic-placement fixed point (every cell moves
// toward the weighted centroid of its nets; ports anchor the boundary).
// Phase 2 spreads the clustered solution to uniform density with a
// monotone rank transform (x-bands, then y within each band), preserving
// neighbourhoods. Phase 3 re-relaxes gently. The result has the
// "connected things sit near each other" structure of commercial
// placements that the proximity attack relies on.
#pragma once

#include <cstdint>

#include "place/placement.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace sma::place {

struct GlobalPlacerConfig {
  /// Relax/spread rounds (Kraftwerk-like alternation).
  int rounds = 8;
  /// Quadratic-relaxation iterations in the first round (later rounds
  /// anneal down).
  int iterations_per_round = 16;
  /// Step fraction toward the connectivity centroid per iteration.
  double pull = 0.8;
  /// Gentle post-spreading refinement.
  int refine_iterations = 4;
  double refine_pull = 0.2;
  std::uint64_t seed = 7;
};

/// Runs global placement in-place; positions are continuous (not yet
/// legalized) but inside the die. The centroid relaxation accumulates its
/// nets in a fixed number of lanes, private per-cell arrays reduced in
/// lane order (the gradient-lane pattern). A non-null `pool` runs the
/// lanes and the spreading's per-band sorts concurrently; the result is
/// bit-identical at any thread count.
void run_global_placement(Placement& placement,
                          const GlobalPlacerConfig& config = {},
                          runtime::ThreadPool* pool = nullptr);

}  // namespace sma::place
