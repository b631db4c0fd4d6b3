// Rectilinear Steiner minimum tree heuristic: iterated 1-Steiner
// (Kahng-Robins). Repeatedly adds the Hanan-grid point that most reduces
// the MST length until no candidate helps. Produces trees within a few
// percent of optimal for the small-degree nets that dominate real netlists.
#pragma once

#include <span>

#include "rsmt/tree.h"

namespace rlcr::rsmt {

struct SteinerOptions {
  /// Nets with more pins than this skip the 1-Steiner iteration and return
  /// the plain RMST (each round scores O(n^2) candidates at O(n) each).
  std::size_t max_pins_exact = 16;
  /// Upper bound on Steiner points added (defensive; rarely reached).
  std::size_t max_steiner_points = 32;
};

/// Heuristic RSMT over `pins`.
Tree rsmt(std::span<const geom::Point> pins, const SteinerOptions& options = {});

/// Length-only convenience used by the router's f(WL) normalization.
std::int64_t rsmt_length(std::span<const geom::Point> pins,
                         const SteinerOptions& options = {});

}  // namespace rlcr::rsmt
