#include "core/paths.h"

#include <algorithm>
#include <cstdint>

namespace rlcr::gsino {

namespace {

/// Reusable per-net working arrays of critical_path. Route points are
/// numbered inside the route's bounding box; epoch stamps mark the cells
/// the current net touched, so one scratch serves every net of
/// critical_paths without clearing. The tree itself is a CSR adjacency
/// over those local vertex ids.
struct PathScratch {
  std::vector<std::uint32_t> stamp;  ///< bbox cell -> epoch of last touch
  std::vector<std::int32_t> local;   ///< bbox cell -> local vertex id
  std::uint32_t epoch = 0;
  std::int32_t x0 = 0, y0 = 0, w = 0, h = 0;  ///< current bounding box

  std::vector<std::int32_t> end_a, end_b;  ///< edge -> local endpoints
  std::vector<std::int32_t> adj_begin;     ///< CSR offsets, vertex count + 1
  std::vector<std::int32_t> adj;           ///< incident edge ids
  std::vector<double> dist;                ///< um from the source, -1 unseen
  std::vector<std::int32_t> parent;        ///< edge toward the source
  std::vector<std::int32_t> queue;
  std::vector<std::uint64_t> keys;  ///< region * 2 + dir per path incidence

  /// Start a net whose route spans the box [bx0, bx1] x [by0, by1].
  void begin(std::int32_t bx0, std::int32_t by0, std::int32_t bx1,
             std::int32_t by1) {
    x0 = bx0;
    y0 = by0;
    w = bx1 - bx0 + 1;
    h = by1 - by0 + 1;
    const std::size_t cells =
        static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    if (stamp.size() < cells) {
      stamp.resize(cells, 0);
      local.resize(cells);
    }
    if (++epoch == 0) {  // wrapped: old stamps could alias the new epoch
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }

  /// Local vertex id of a route point, or -1 when the route does not touch
  /// it.
  std::int32_t find(geom::Point p) const {
    if (p.x < x0 || p.y < y0 || p.x >= x0 + w || p.y >= y0 + h) return -1;
    const std::size_t c = cell(p);
    return stamp[c] == epoch ? local[c] : -1;
  }

  /// Local vertex id of a route point, numbering it on first sight.
  std::int32_t intern(geom::Point p, std::int32_t& count) {
    const std::size_t c = cell(p);
    if (stamp[c] != epoch) {
      stamp[c] = epoch;
      local[c] = count++;
    }
    return local[c];
  }

 private:
  std::size_t cell(geom::Point p) const {
    return static_cast<std::size_t>(p.y - y0) * static_cast<std::size_t>(w) +
           static_cast<std::size_t>(p.x - x0);
  }
};

CriticalPath critical_path(const grid::RegionGrid& grid,
                           const router::RouterNet& net,
                           const router::NetRoute& route, PathScratch& s) {
  CriticalPath out;
  if (net.pins.size() < 2 || route.edges.empty()) return out;
  const std::vector<router::GridEdge>& edges = route.edges;
  const auto edge_count = static_cast<std::int32_t>(edges.size());

  // Number the tree's points inside its bounding box.
  std::int32_t bx0 = edges[0].a.x, by0 = edges[0].a.y;
  std::int32_t bx1 = bx0, by1 = by0;
  for (const router::GridEdge& e : edges) {
    for (const geom::Point p : {e.a, e.b}) {
      bx0 = std::min(bx0, p.x);
      by0 = std::min(by0, p.y);
      bx1 = std::max(bx1, p.x);
      by1 = std::max(by1, p.y);
    }
  }
  s.begin(bx0, by0, bx1, by1);
  std::int32_t vertices = 0;
  s.end_a.resize(edges.size());
  s.end_b.resize(edges.size());
  for (std::int32_t e = 0; e < edge_count; ++e) {
    s.end_a[e] = s.intern(edges[e].a, vertices);
    s.end_b[e] = s.intern(edges[e].b, vertices);
  }
  const std::int32_t src = s.find(net.pins.front());
  if (src < 0) return out;  // the source is not on the route

  // CSR adjacency, filled in edge order: each vertex lists its incident
  // edges ascending (a self-loop twice), the order the BFS visits them.
  s.adj_begin.assign(static_cast<std::size_t>(vertices) + 1, 0);
  for (std::int32_t e = 0; e < edge_count; ++e) {
    ++s.adj_begin[s.end_a[e] + 1];
    ++s.adj_begin[s.end_b[e] + 1];
  }
  for (std::int32_t v = 0; v < vertices; ++v) {
    s.adj_begin[v + 1] += s.adj_begin[v];
  }
  s.adj.resize(static_cast<std::size_t>(s.adj_begin[vertices]));
  s.queue.assign(s.adj_begin.begin(), s.adj_begin.end() - 1);  // fill cursors
  for (std::int32_t e = 0; e < edge_count; ++e) {
    s.adj[s.queue[s.end_a[e]]++] = e;
    s.adj[s.queue[s.end_b[e]]++] = e;
  }

  // BFS from the source, accumulating um distance; parent edge per point.
  s.dist.assign(static_cast<std::size_t>(vertices), -1.0);
  s.parent.resize(static_cast<std::size_t>(vertices));
  s.queue.assign(1, src);
  s.dist[src] = 0.0;
  for (std::size_t head = 0; head < s.queue.size(); ++head) {
    const std::int32_t v = s.queue[head];
    for (std::int32_t k = s.adj_begin[v]; k < s.adj_begin[v + 1]; ++k) {
      const std::int32_t ei = s.adj[k];
      const std::int32_t other = s.end_a[ei] == v ? s.end_b[ei] : s.end_a[ei];
      if (s.dist[other] >= 0.0) continue;
      s.dist[other] = s.dist[v] + grid.span_um(edges[ei].dir());
      s.parent[other] = ei;
      s.queue.push_back(other);
    }
  }

  // Critical sink: the reachable sink with the largest path distance
  // (unreached points read -1, which never beats the initial -1).
  std::int32_t best_sink = src;
  double best_dist = -1.0;
  for (std::size_t p = 1; p < net.pins.size(); ++p) {
    const std::int32_t v = s.find(net.pins[p]);
    if (v >= 0 && s.dist[v] > best_dist) {
      best_dist = s.dist[v];
      best_sink = v;
    }
  }
  if (best_dist <= 0.0) return out;
  out.length_um = best_dist;

  // Walk back to the source collecting one (region, dir) key per incident
  // edge end, then run-length the sorted keys into half-span lengths
  // exactly like the occupancy does for whole trees.
  s.keys.clear();
  for (std::int32_t v = best_sink; v != src;) {
    const std::int32_t ei = s.parent[v];
    const router::GridEdge& e = edges[ei];
    const auto d = static_cast<std::uint64_t>(e.dir());
    s.keys.push_back(grid.index(e.a) * 2 + d);
    s.keys.push_back(grid.index(e.b) * 2 + d);
    v = s.end_a[ei] == v ? s.end_b[ei] : s.end_a[ei];
  }
  std::sort(s.keys.begin(), s.keys.end());
  for (std::size_t i = 0; i < s.keys.size();) {
    std::size_t j = i + 1;
    while (j < s.keys.size() && s.keys[j] == s.keys[i]) ++j;
    const std::size_t region = s.keys[i] / 2;
    const auto d = static_cast<grid::Dir>(s.keys[i] % 2);
    const int count = static_cast<int>(j - i);
    out.refs.push_back(router::NetRegionRef{
        region, d, 0.5 * grid.span_um(d) * count});
    i = j;
  }
  return out;
}

}  // namespace

CriticalPath critical_path(const grid::RegionGrid& grid,
                           const router::RouterNet& net,
                           const router::NetRoute& route) {
  PathScratch scratch;
  return critical_path(grid, net, route, scratch);
}

std::vector<CriticalPath> critical_paths(
    const grid::RegionGrid& grid, const std::vector<router::RouterNet>& nets,
    const std::vector<router::NetRoute>& routes) {
  std::vector<CriticalPath> out(nets.size());
  PathScratch scratch;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    out[n] = critical_path(grid, nets[n], routes[n], scratch);
  }
  return out;
}

}  // namespace rlcr::gsino
