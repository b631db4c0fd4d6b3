#include "rsmt/steiner.h"

#include <algorithm>
#include <vector>

#include "rsmt/rmst.h"

namespace rlcr::rsmt {

Tree rsmt(std::span<const geom::Point> pins, const SteinerOptions& options) {
  if (pins.size() <= 2 || pins.size() > options.max_pins_exact) {
    return rmst(pins);
  }

  std::vector<geom::Point> pts(pins.begin(), pins.end());
  const std::size_t pin_count = pts.size();

  for (std::size_t round = 0; round < options.max_steiner_points; ++round) {
    // Hanan candidates: cross products of existing x and y coordinates.
    std::vector<std::int32_t> xs, ys;
    xs.reserve(pts.size());
    ys.reserve(pts.size());
    for (const auto& p : pts) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    std::sort(xs.begin(), xs.end());
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    std::sort(ys.begin(), ys.end());
    ys.erase(std::unique(ys.begin(), ys.end()), ys.end());

    // One MST per round; each candidate's MST length is an O(n) vertex
    // insertion into it instead of a full O(n^2) Prim run. Lengths are
    // exact, so the candidate order and strict `<` pick the same points.
    MstInsertion mst(pts);
    std::int64_t best_len = mst.length();
    geom::Point best_pt{};
    bool found = false;

    for (std::int32_t x : xs) {
      for (std::int32_t y : ys) {
        const geom::Point cand{x, y};
        if (std::find(pts.begin(), pts.end(), cand) != pts.end()) continue;
        const std::int64_t len = mst.length_with(cand);
        if (len < best_len) {
          best_len = len;
          best_pt = cand;
          found = true;
        }
      }
    }
    if (!found) break;
    pts.push_back(best_pt);
  }

  // Materialize the MST over pins + chosen Steiner points, then prune
  // Steiner leaves (they only add length).
  Tree t = rmst(pts);
  t.pin_count = pin_count;

  bool pruned = true;
  while (pruned) {
    pruned = false;
    std::vector<int> degree(t.nodes.size(), 0);
    for (const auto& [a, b] : t.edges) {
      ++degree[static_cast<std::size_t>(a)];
      ++degree[static_cast<std::size_t>(b)];
    }
    for (std::size_t v = pin_count; v < t.nodes.size(); ++v) {
      if (degree[v] == 1) {
        // Remove the single incident edge; the node stays but is harmless.
        auto it = std::find_if(t.edges.begin(), t.edges.end(), [&](const auto& e) {
          return static_cast<std::size_t>(e.first) == v ||
                 static_cast<std::size_t>(e.second) == v;
        });
        if (it != t.edges.end()) {
          t.edges.erase(it);
          pruned = true;
        }
      }
    }
  }

  // Drop now-isolated Steiner nodes and reindex.
  std::vector<int> degree(t.nodes.size(), 0);
  for (const auto& [a, b] : t.edges) {
    ++degree[static_cast<std::size_t>(a)];
    ++degree[static_cast<std::size_t>(b)];
  }
  std::vector<std::int32_t> remap(t.nodes.size(), -1);
  Tree out;
  out.pin_count = pin_count;
  for (std::size_t v = 0; v < t.nodes.size(); ++v) {
    if (v < pin_count || degree[v] > 0) {
      remap[v] = static_cast<std::int32_t>(out.nodes.size());
      out.nodes.push_back(t.nodes[v]);
    }
  }
  for (const auto& [a, b] : t.edges) {
    out.edges.emplace_back(remap[static_cast<std::size_t>(a)],
                           remap[static_cast<std::size_t>(b)]);
  }
  return out;
}

std::int64_t rsmt_length(std::span<const geom::Point> pins,
                         const SteinerOptions& options) {
  return rsmt(pins, options).length();
}

}  // namespace rlcr::rsmt
