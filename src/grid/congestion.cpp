#include "grid/congestion.h"

#include <algorithm>

namespace rlcr::grid {

CongestionMap::CongestionMap(const RegionGrid& grid) : grid_(&grid) {
  for (auto& v : seg_) v.reset(grid.region_count());
  for (auto& v : shield_) v.reset(grid.region_count());
}

void CongestionMap::clear() {
  for (auto& v : seg_) v.clear();
  for (auto& v : shield_) v.clear();
}

namespace {

/// Visit every region held by at least one allocated tile of the four
/// stores, in ascending region order, calling f(region). Tiles skipped
/// here hold exactly-zero utilization and shields in every direction, so
/// aggregates over the visited set match a full index-order scan bit for
/// bit (the four stores share one tiling: same size).
template <typename F>
void for_each_live_region(const TiledVec<double> (&seg)[2],
                          const TiledVec<double> (&shield)[2], F&& f) {
  const std::size_t tiles = seg[0].tile_count();
  for (std::size_t t = 0; t < tiles; ++t) {
    if (!seg[0].tile_allocated(t) && !seg[1].tile_allocated(t) &&
        !shield[0].tile_allocated(t) && !shield[1].tile_allocated(t)) {
      continue;
    }
    const std::size_t end = seg[0].tile_end(t);
    for (std::size_t r = seg[0].tile_begin(t); r < end; ++r) f(r);
  }
}

}  // namespace

double CongestionMap::max_density() const {
  double best = 0.0;
  for_each_live_region(seg_, shield_, [&](std::size_t r) {
    for (Dir d : kBothDirs) best = std::max(best, density(r, d));
  });
  return best;
}

double CongestionMap::total_overflow() const {
  double acc = 0.0;
  for_each_live_region(seg_, shield_, [&](std::size_t r) {
    for (Dir d : kBothDirs) {
      const double over = utilization(r, d) - grid_->capacity(d);
      if (over > 0.0) acc += over;
    }
  });
  return acc;
}

double CongestionMap::total_shields() const {
  double acc = 0.0;
  for_each_live_region(seg_, shield_, [&](std::size_t r) {
    for (Dir d : kBothDirs) {
      const double s = shields(r, d);
      if (s != 0.0) acc += s;
    }
  });
  return acc;
}

std::size_t CongestionMap::storage_bytes() const {
  std::size_t bytes = 0;
  for (const auto& v : seg_) bytes += v.storage_bytes();
  for (const auto& v : shield_) bytes += v.storage_bytes();
  return bytes;
}

RoutingArea compute_routing_area(const CongestionMap& cmap) {
  const RegionGrid& g = cmap.grid();
  RoutingArea out;

  // A region needing more vertical tracks than VC widens by the ratio;
  // more horizontal tracks than HC make it taller.
  for (std::int32_t row = 0; row < g.rows(); ++row) {
    double row_len = 0.0;
    for (std::int32_t col = 0; col < g.cols(); ++col) {
      const std::size_t r = g.index({col, row});
      const double need = cmap.utilization(r, Dir::kVertical);
      const double ratio = std::max(1.0, need / g.capacity(Dir::kVertical));
      row_len += g.region_w_um() * ratio;
    }
    out.width_um = std::max(out.width_um, row_len);
  }
  for (std::int32_t col = 0; col < g.cols(); ++col) {
    double col_len = 0.0;
    for (std::int32_t row = 0; row < g.rows(); ++row) {
      const std::size_t r = g.index({col, row});
      const double need = cmap.utilization(r, Dir::kHorizontal);
      const double ratio = std::max(1.0, need / g.capacity(Dir::kHorizontal));
      col_len += g.region_h_um() * ratio;
    }
    out.height_um = std::max(out.height_um, col_len);
  }
  return out;
}

}  // namespace rlcr::grid
