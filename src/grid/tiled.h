// Tiled per-region storage: the one layout of every per-(region, dir)
// container in the flow.
//
// CongestionMap's segment/shield counts, the ID router's fused region
// records (presence statistics plus the density derived from them, one
// record per region * 2 + dir), and the occupancy index all keep a flat
// index space over the whole grid, but an ISPD98-class instance puts tens of
// thousands of regions under a netlist whose traffic touches only the
// placed core. TiledVec<T> backs the flat index space with fixed-size
// tiles allocated on first *write*:
//   - reads of an unallocated tile return a value-initialized T (exactly
//     the value a freshly assigned slot holds) without allocating, so read
//     paths — including the router's lock-free parallel heap-key pass —
//     never mutate shared state;
//   - writes go through ref(), which materializes the tile;
//   - aggregate loops skip whole unallocated tiles via tile_allocated()
//     while visiting allocated entries in ascending index order, so sums
//     see the same floating-point op order as a full index-order scan minus
//     terms that are exactly zero — bit-identical results.
//
// Why tiles only: a flat whole-grid layout was kept as a build option
// until it was measured end to end on full-size ibm01 (perfbench, 4-vCPU
// x86 box). It was not faster — cold-flow median op time 4.80-5.43 s tiled
// against 5.22-5.67 s flat, the other workloads within noise — and saved
// no memory: with glibc's mmap threshold pinned
// (GLIBC_TUNABLES=glibc.malloc.mmap_threshold=131072) the cold flow peaks
// at 170.3 MiB flat and 170.6 MiB tiled. Unpinned, the cold-flow peak
// lands at either ~171 or ~183 MiB depending on allocation sizes alone,
// for either layout. Tiles still keep sparse-traffic grids small (66
// against 80 MiB peak on a 349-net slice of the ibm06 fabric), so the flat
// layout was deleted.
#pragma once

#include <cstddef>
#include <vector>

namespace rlcr::grid {

/// Flat vector of T over [0, size) backed by first-touch tiles. T must be
/// value-initializable to its "empty" state.
template <typename T>
class TiledVec {
 public:
  // 128 entries per tile: small enough that a tile covers a fraction of
  // one grid row even on the widest ISPD98-class fabrics (region indices
  // are row-major, so a flat tile is a row segment — fine-grained tiles
  // are what let row-sparse traffic leave gaps unallocated), large
  // enough that the per-tile bookkeeping stays negligible.
  static constexpr std::size_t kTileBits = 7;
  static constexpr std::size_t kTileSize = std::size_t{1} << kTileBits;

  TiledVec() = default;
  explicit TiledVec(std::size_t size) { reset(size); }

  void reset(std::size_t size) {
    size_ = size;
    tiles_.clear();
    tiles_.resize((size + kTileSize - 1) >> kTileBits);
  }

  std::size_t size() const { return size_; }

  /// Read without allocating; an untouched slot is value-initialized.
  const T& operator[](std::size_t i) const {
    const std::vector<T>& tile = tiles_[i >> kTileBits];
    return tile.empty() ? zero_ : tile[i & (kTileSize - 1)];
  }

  /// Mutable access; materializes the enclosing tile on first touch.
  T& ref(std::size_t i) {
    std::vector<T>& tile = tiles_[i >> kTileBits];
    if (tile.empty()) tile.assign(kTileSize, T{});
    return tile[i & (kTileSize - 1)];
  }

  /// Number of tile slots covering the index space.
  std::size_t tile_count() const { return tiles_.size(); }
  /// First index covered by tile t.
  std::size_t tile_begin(std::size_t t) const { return t << kTileBits; }
  /// One past the last index covered by tile t.
  std::size_t tile_end(std::size_t t) const {
    const std::size_t end = (t + 1) << kTileBits;
    return end < size_ ? end : size_;
  }
  /// True when tile t holds materialized values.
  bool tile_allocated(std::size_t t) const { return !tiles_[t].empty(); }

  std::size_t allocated_tiles() const {
    std::size_t n = 0;
    for (const auto& tile : tiles_) n += !tile.empty();
    return n;
  }

  /// Heap bytes held by the allocated tiles (excludes the tile-pointer
  /// table).
  std::size_t storage_bytes() const {
    return allocated_tiles() * kTileSize * sizeof(T);
  }

  /// Drop every value back to the value-initialized state, releasing the
  /// tiles (matching a fresh container).
  void clear() {
    for (auto& tile : tiles_) {
      tile.clear();
      tile.shrink_to_fit();
    }
  }

 private:
  inline static const T zero_{};
  std::size_t size_ = 0;
  std::vector<std::vector<T>> tiles_;  ///< empty vector = unallocated tile
};

}  // namespace rlcr::grid
