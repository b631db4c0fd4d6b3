#include "rsmt/rmst.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

namespace rlcr::rsmt {

Tree rmst(std::span<const geom::Point> pins) {
  Tree t;
  t.nodes.assign(pins.begin(), pins.end());
  t.pin_count = pins.size();
  const std::size_t n = pins.size();
  if (n < 2) return t;

  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> best(n, kInf);
  std::vector<std::int32_t> parent(n, -1);
  std::vector<char> in_tree(n, 0);

  best[0] = 0;
  for (std::size_t iter = 0; iter < n; ++iter) {
    // Pick the cheapest unattached node.
    std::size_t u = n;
    std::int64_t u_cost = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_tree[i] && best[i] < u_cost) {
        u = i;
        u_cost = best[i];
      }
    }
    in_tree[u] = 1;
    if (parent[u] >= 0) {
      t.edges.emplace_back(parent[u], static_cast<std::int32_t>(u));
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const std::int64_t d = geom::manhattan(t.nodes[u], t.nodes[v]);
      if (d < best[v]) {
        best[v] = d;
        parent[v] = static_cast<std::int32_t>(u);
      }
    }
  }
  return t;
}

std::int64_t rmst_length(std::span<const geom::Point> pins) {
  return rmst(pins).length();
}

MstInsertion::MstInsertion(std::span<const geom::Point> pts) {
  Tree t = rmst(pts);
  nodes_ = std::move(t.nodes);
  edges_ = std::move(t.edges);
  weight_.reserve(edges_.size());
  for (const auto& [p, v] : edges_) {
    weight_.push_back(geom::manhattan(nodes_[static_cast<std::size_t>(p)],
                                      nodes_[static_cast<std::size_t>(v)]));
    length_ += weight_.back();
  }
  link_.resize(nodes_.size());
}

std::int64_t MstInsertion::length_with(geom::Point c) {
  // link_[v]: the heaviest edge still droppable on v's one path to c
  // through its processed subtree; a leaf's path is its star edge.
  std::int64_t star = 0;
  for (std::size_t v = 0; v < nodes_.size(); ++v) {
    link_[v] = geom::manhattan(c, nodes_[v]);
    star += link_[v];
  }
  // Reversed Prim order is children-first, so link_[v] is final when v's
  // parent edge comes up. The edge closes the cycle p -> v -> ... -> c ->
  // p: drop its heaviest edge, p's own link or the v-side maximum k, and
  // keep the lighter one as p's link.
  std::int64_t dropped = 0;
  for (std::size_t i = edges_.size(); i-- > 0;) {
    const auto p = static_cast<std::size_t>(edges_[i].first);
    const auto v = static_cast<std::size_t>(edges_[i].second);
    const std::int64_t k = std::max(link_[v], weight_[i]);
    if (k < link_[p]) {
      dropped += link_[p];
      link_[p] = k;
    } else {
      dropped += k;
    }
  }
  return length_ + star - dropped;
}

}  // namespace rlcr::rsmt
