// Per-region track accounting and the routing-area model.
//
// Track utilization follows the paper's Eq. (2) terminology:
//   HU(R) = Nns + Nss   (net segments + shields on horizontal tracks)
//   HD(R) = HU(R) / HC(R)
//   HOFR(R) = max(0, HU - HC) / HC   (relative overflow)
// and symmetrically for vertical tracks.
//
// Routing area (the paper's Table 3 metric, "product of the maximum row and
// column lengths") is modeled by letting each region expand when its track
// requirement exceeds capacity: extra vertical tracks widen a region, extra
// horizontal tracks make it taller. The chip's routing width is the longest
// row of (possibly widened) regions; its height the tallest column.
#pragma once

#include <cstddef>

#include "grid/region_grid.h"
#include "grid/tiled.h"

namespace rlcr::grid {

/// Mutable track-usage state layered over an immutable RegionGrid.
/// Segment and shield counts are doubles so the router can work with the
/// fractional shield *estimates* of Eq. (3) before any SINO solution exists.
///
/// Storage is per-region tiled (grid/tiled.h): ISPD98-size grids allocate
/// only the tiles traffic touches, and the whole-grid aggregates below skip
/// unallocated tiles — with results bit-identical to a full index-order
/// scan (skipped regions contribute exactly zero).
class CongestionMap {
 public:
  explicit CongestionMap(const RegionGrid& grid);

  const RegionGrid& grid() const { return *grid_; }

  double segments(std::size_t region, Dir d) const {
    return seg_[static_cast<std::size_t>(d)][region];
  }
  double shields(std::size_t region, Dir d) const {
    return shield_[static_cast<std::size_t>(d)][region];
  }
  void set_segments(std::size_t region, Dir d, double v) {
    seg_[static_cast<std::size_t>(d)].ref(region) = v;
  }
  void set_shields(std::size_t region, Dir d, double v) {
    shield_[static_cast<std::size_t>(d)].ref(region) = v;
  }
  void add_segments(std::size_t region, Dir d, double delta) {
    seg_[static_cast<std::size_t>(d)].ref(region) += delta;
  }
  void add_shields(std::size_t region, Dir d, double delta) {
    shield_[static_cast<std::size_t>(d)].ref(region) += delta;
  }

  /// HU / VU: segments + shields.
  double utilization(std::size_t region, Dir d) const {
    return segments(region, d) + shields(region, d);
  }
  /// HD / VD: utilization over capacity.
  double density(std::size_t region, Dir d) const {
    return utilization(region, d) / grid_->capacity(d);
  }
  /// HOFR / VOFR: relative overflow (0 when under capacity).
  double relative_overflow(std::size_t region, Dir d) const {
    const double over = utilization(region, d) - grid_->capacity(d);
    return over > 0.0 ? over / grid_->capacity(d) : 0.0;
  }

  void clear();

  /// Maximum density over all regions and directions.
  double max_density() const;
  /// Sum of absolute overflow (tracks beyond capacity) over all regions.
  double total_overflow() const;
  /// Total shield count over all regions.
  double total_shields() const;

  /// Heap bytes held by the four per-region stores (recorded by
  /// bench_ispd98).
  std::size_t storage_bytes() const;

 private:
  const RegionGrid* grid_;
  TiledVec<double> seg_[2];
  TiledVec<double> shield_[2];
};

/// Routing-area result (Table 3 metric).
struct RoutingArea {
  double width_um = 0.0;   ///< maximum row length
  double height_um = 0.0;  ///< maximum column length
  double area_um2() const { return width_um * height_um; }
};

/// Expansion-based routing area: regions over capacity grow proportionally.
RoutingArea compute_routing_area(const CongestionMap& cmap);

}  // namespace rlcr::grid
