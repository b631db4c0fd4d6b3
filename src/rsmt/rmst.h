// Rectilinear minimum spanning tree (Prim's algorithm under the L1 metric).
#pragma once

#include <span>
#include <vector>

#include "rsmt/tree.h"

namespace rlcr::rsmt {

/// Build the rectilinear MST over `pins`. Duplicate points are allowed
/// (they connect at zero cost). O(n^2), adequate for net degrees <= ~100.
/// Edges are listed in Prim order as (parent, child): every node's edge to
/// its parent precedes the edges to its children.
Tree rmst(std::span<const geom::Point> pins);

/// MST length without materializing the tree.
std::int64_t rmst_length(std::span<const geom::Point> pins);

/// The MST of a point set, prepared for O(n) vertex-insertion queries
/// (Chin & Houck, JCSS 1978): length_with(c) is the MST length of the set
/// plus one more point c, exactly, without rebuilding the tree. The MST of
/// the larger set lives in the old tree's edges plus the star from c, so
/// one children-first pass over the tree drops, per tree edge, the heaviest
/// edge of the one cycle that edge closes.
class MstInsertion {
 public:
  explicit MstInsertion(std::span<const geom::Point> pts);

  /// MST length of the point set itself.
  std::int64_t length() const { return length_; }

  /// MST length of the point set plus `c`.
  std::int64_t length_with(geom::Point c);

 private:
  std::vector<geom::Point> nodes_;
  std::vector<std::pair<std::int32_t, std::int32_t>> edges_;  ///< Prim order
  std::vector<std::int64_t> weight_;  ///< length of edges_[i]
  std::vector<std::int64_t> link_;    ///< per-node scratch of length_with
  std::int64_t length_ = 0;
};

}  // namespace rlcr::rsmt
