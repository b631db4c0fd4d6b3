#include "steiner/tree_builder.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "rsmt/rmst.h"
#include "steiner/tree_cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rlcr::steiner {
namespace {

using geom::Point;
using rsmt::Tree;

std::int64_t dist(const Point& a, const Point& b) {
  return geom::manhattan(a, b);
}

// ------------------------------------------------ local-search scratch

/// Mutable adjacency-list view of a tree. Pins (ids 0..pin_count) are never
/// removed; Steiner nodes may end with degree 0 and are dropped when the
/// mesh is converted back to a Tree. Every sweep iterates ids ascending and
/// neighbor lists in insertion order, so the whole search is deterministic.
struct Mesh {
  std::vector<Point> nodes;
  std::vector<std::vector<std::int32_t>> adj;
  std::size_t pin_count = 0;

  explicit Mesh(const Tree& t)
      : nodes(t.nodes), adj(t.nodes.size()), pin_count(t.pin_count) {
    for (const auto& [a, b] : t.edges) {
      adj[static_cast<std::size_t>(a)].push_back(b);
      adj[static_cast<std::size_t>(b)].push_back(a);
    }
  }

  std::int64_t d(std::int32_t a, std::int32_t b) const {
    return dist(nodes[static_cast<std::size_t>(a)],
                nodes[static_cast<std::size_t>(b)]);
  }

  void drop_half(std::int32_t from, std::int32_t to) {
    auto& list = adj[static_cast<std::size_t>(from)];
    list.erase(std::find(list.begin(), list.end(), to));
  }
  void unlink(std::int32_t a, std::int32_t b) {
    drop_half(a, b);
    drop_half(b, a);
  }
  void link(std::int32_t a, std::int32_t b) {
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  std::int32_t add_node(const Point& p) {
    nodes.push_back(p);
    adj.emplace_back();
    return static_cast<std::int32_t>(nodes.size() - 1);
  }
};

/// Convert the mesh back to a Tree: pins keep ids 0..pin_count in order,
/// surviving Steiner nodes are renumbered ascending, and the edge list is
/// emitted sorted by (a, b) — a canonical order independent of the move
/// sequence that produced the mesh.
Tree finalize(const Mesh& m) {
  Tree t;
  t.pin_count = m.pin_count;
  std::vector<std::int32_t> remap(m.nodes.size(), -1);
  for (std::size_t v = 0; v < m.nodes.size(); ++v) {
    if (v < m.pin_count || !m.adj[v].empty()) {
      remap[v] = static_cast<std::int32_t>(t.nodes.size());
      t.nodes.push_back(m.nodes[v]);
    }
  }
  for (std::size_t v = 0; v < m.nodes.size(); ++v) {
    for (const std::int32_t w : m.adj[v]) {
      const std::int32_t a = remap[v];
      const std::int32_t b = remap[static_cast<std::size_t>(w)];
      if (a < b) t.edges.emplace_back(a, b);
    }
  }
  std::sort(t.edges.begin(), t.edges.end());
  return t;
}

/// The L1 Fermat point of three points is their componentwise median;
/// connecting all three through it never costs more than any two direct
/// edges, and strictly less whenever their bounding boxes overlap.
Point median3(const Point& a, const Point& b, const Point& c) {
  const auto med = [](std::int32_t x, std::int32_t y, std::int32_t z) {
    return std::max(std::min(x, y), std::min(std::max(x, y), z));
  };
  return Point{med(a.x, b.x, c.x), med(a.y, b.y, c.y)};
}

/// Edge-overlap merging: for each vertex, find the neighbor pair whose
/// shared trunk toward the vertex is longest (the median Steiner point with
/// the best strict gain) and reroute both edges through it. One move per
/// vertex per sweep; nodes added this sweep are not rescanned until the
/// next one.
bool steinerize_sweep(Mesh& m) {
  bool improved = false;
  const std::size_t scan = m.nodes.size();
  for (std::size_t v = 0; v < scan; ++v) {
    const auto& nb = m.adj[v];
    if (nb.size() < 2) continue;
    std::int64_t best_gain = 0;
    std::int32_t best_a = -1;
    std::int32_t best_b = -1;
    Point best_s{};
    const std::int32_t vi = static_cast<std::int32_t>(v);
    for (std::size_t i = 0; i + 1 < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        const std::int32_t a = nb[i];
        const std::int32_t b = nb[j];
        const Point s = median3(m.nodes[v], m.nodes[static_cast<std::size_t>(a)],
                                m.nodes[static_cast<std::size_t>(b)]);
        const std::int64_t gain =
            m.d(vi, a) + m.d(vi, b) -
            (dist(m.nodes[v], s) + dist(s, m.nodes[static_cast<std::size_t>(a)]) +
             dist(s, m.nodes[static_cast<std::size_t>(b)]));
        if (gain > best_gain) {
          best_gain = gain;
          best_a = a;
          best_b = b;
          best_s = s;
        }
      }
    }
    if (best_gain <= 0) continue;
    // gain > 0 rules out s == nodes[v]; s coinciding with a neighbor means
    // "reroute the other edge through that neighbor" without a new node.
    if (best_s == m.nodes[static_cast<std::size_t>(best_a)]) {
      m.unlink(vi, best_b);
      m.link(best_a, best_b);
    } else if (best_s == m.nodes[static_cast<std::size_t>(best_b)]) {
      m.unlink(vi, best_a);
      m.link(best_b, best_a);
    } else {
      const std::int32_t s_id = m.add_node(best_s);
      m.unlink(vi, best_a);
      m.unlink(vi, best_b);
      m.link(vi, s_id);
      m.link(s_id, best_a);
      m.link(s_id, best_b);
    }
    improved = true;
  }
  return improved;
}

/// Ascend-and-prune cleanup: strip degree-1 Steiner leaves until none are
/// exposed, then splice out degree-2 Steiner pass-throughs (the direct edge
/// never costs more under L1). Both moves are length-non-increasing.
bool prune_splice_sweep(Mesh& m) {
  bool changed = false;
  bool stripping = true;
  while (stripping) {
    stripping = false;
    for (std::size_t v = m.pin_count; v < m.nodes.size(); ++v) {
      if (m.adj[v].size() == 1) {
        m.unlink(static_cast<std::int32_t>(v), m.adj[v][0]);
        changed = stripping = true;
      }
    }
  }
  for (std::size_t v = m.pin_count; v < m.nodes.size(); ++v) {
    if (m.adj[v].size() == 2) {
      const std::int32_t a = m.adj[v][0];
      const std::int32_t b = m.adj[v][1];
      m.unlink(static_cast<std::int32_t>(v), a);
      m.unlink(static_cast<std::int32_t>(v), b);
      m.link(a, b);
      changed = true;
    }
  }
  return changed;
}

/// Bounded alternation of the two sweeps. Total length is monotone
/// non-increasing and every steinerize move shaves at least one unit, so
/// the loop terminates even without the pass cap.
void local_search(Mesh& m, std::size_t max_passes) {
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    bool any = steinerize_sweep(m);
    any = prune_splice_sweep(m) || any;
    if (!any) break;
  }
}

// ---------------------------------------------------------- the profiles

Tree balanced_tree(std::span<const Point> pins,
                   const TreeBuilderOptions& options) {
  Tree t = rsmt::rsmt(pins, options.steiner);
  if (pins.size() <= 2) return t;
  Mesh m(t);
  local_search(m, options.local_passes);
  return finalize(m);
}

/// Randomized Prim over the pins with symmetric multiplicative jitter (up
/// to ~25% per edge), then the same local search. Different salts explore
/// different topology basins; everything downstream of `seed` is pure.
Tree perturbed_tree(std::span<const Point> pins, std::uint64_t seed,
                    const TreeBuilderOptions& options) {
  const std::size_t n = pins.size();
  std::vector<std::uint64_t> salt(n);
  util::Xoshiro256 rng(seed);
  for (auto& s : salt) s = rng();
  const auto weight = [&](std::size_t a, std::size_t b) {
    const std::int64_t base = dist(pins[a], pins[b]);
    const std::int64_t jitter = static_cast<std::int64_t>(
        util::SplitMix64::mix(salt[a] ^ salt[b]) & 63);
    return base * (256 + jitter);
  };

  Tree t;
  t.nodes.assign(pins.begin(), pins.end());
  t.pin_count = n;
  std::vector<char> in(n, 0);
  std::vector<std::int64_t> best(n, std::numeric_limits<std::int64_t>::max());
  std::vector<std::int32_t> parent(n, 0);
  in[0] = 1;
  for (std::size_t j = 1; j < n; ++j) best[j] = weight(0, j);
  for (std::size_t step = 1; step < n; ++step) {
    std::size_t u = 0;
    std::int64_t u_cost = std::numeric_limits<std::int64_t>::max();
    for (std::size_t j = 1; j < n; ++j) {
      if (!in[j] && best[j] < u_cost) {
        u_cost = best[j];
        u = j;
      }
    }
    in[u] = 1;
    t.edges.emplace_back(parent[u], static_cast<std::int32_t>(u));
    for (std::size_t j = 1; j < n; ++j) {
      if (!in[j]) {
        const std::int64_t w = weight(u, j);
        if (w < best[j]) {
          best[j] = w;
          parent[j] = static_cast<std::int32_t>(u);
        }
      }
    }
  }
  Mesh m(t);
  local_search(m, options.local_passes);
  return finalize(m);
}

struct Dsu {
  std::vector<std::int32_t> parent;
  explicit Dsu(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent[i] = static_cast<std::int32_t>(i);
    }
  }
  std::int32_t find(std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
    }
    return x;
  }
  bool unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    parent[static_cast<std::size_t>(b)] = a;
    return true;
  }
};

/// Solution recombination: union the candidates' edge sets over the union
/// of their node sets, re-solve with Kruskal restricted to that graph, then
/// prune and polish. Each candidate spans the pins, so the union graph is
/// connected and the restricted MST exists.
Tree recombine(std::span<const Point> pins, const std::vector<Tree>& cands,
               std::size_t local_passes) {
  const std::size_t np = pins.size();
  std::vector<Point> nodes(pins.begin(), pins.end());
  std::vector<std::pair<Point, std::int32_t>> by_coord;
  by_coord.reserve(np);
  for (std::size_t i = 0; i < np; ++i) {
    by_coord.emplace_back(pins[i], static_cast<std::int32_t>(i));
  }
  std::sort(by_coord.begin(), by_coord.end());
  // First id wins for duplicate coordinates (pins before Steiner points).
  const auto coord_id = [&](const Point& p) -> std::int32_t {
    const auto it = std::lower_bound(
        by_coord.begin(), by_coord.end(), std::make_pair(p, std::int32_t{-1}),
        [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
    if (it != by_coord.end() && it->first == p) return it->second;
    return -1;
  };
  std::vector<Point> extras;
  for (const Tree& c : cands) {
    for (std::size_t v = c.pin_count; v < c.nodes.size(); ++v) {
      extras.push_back(c.nodes[v]);
    }
  }
  std::sort(extras.begin(), extras.end());
  extras.erase(std::unique(extras.begin(), extras.end()), extras.end());
  {
    std::vector<std::pair<Point, std::int32_t>> merged = by_coord;
    for (const Point& p : extras) {
      if (coord_id(p) >= 0) continue;  // coincides with a pin
      merged.emplace_back(p, static_cast<std::int32_t>(nodes.size()));
      nodes.push_back(p);
    }
    std::sort(merged.begin(), merged.end());
    by_coord = std::move(merged);
  }

  std::vector<std::tuple<std::int64_t, std::int32_t, std::int32_t>> pool;
  for (const Tree& c : cands) {
    for (const auto& [a, b] : c.edges) {
      const auto merged_of = [&](std::int32_t v) {
        return v < static_cast<std::int32_t>(c.pin_count)
                   ? v
                   : coord_id(c.nodes[static_cast<std::size_t>(v)]);
      };
      std::int32_t ma = merged_of(a);
      std::int32_t mb = merged_of(b);
      if (ma == mb) continue;  // collapsed onto one merged node
      if (ma > mb) std::swap(ma, mb);
      pool.emplace_back(dist(nodes[static_cast<std::size_t>(ma)],
                             nodes[static_cast<std::size_t>(mb)]),
                        ma, mb);
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  Tree merged;
  merged.nodes = nodes;
  merged.pin_count = np;
  Dsu dsu(nodes.size());
  for (const auto& [len, a, b] : pool) {
    if (dsu.unite(a, b)) merged.edges.emplace_back(a, b);
  }
  Mesh m(merged);
  prune_splice_sweep(m);
  local_search(m, local_passes);
  return finalize(m);
}

Tree best_tree(std::span<const Point> pins, const TreeBuilderOptions& options) {
  std::vector<Tree> cands;
  cands.push_back(balanced_tree(pins, options));
  if (pins.size() <= 2 || options.best_candidates <= 1) {
    return std::move(cands.front());
  }
  // The stream salt is the canonical (translated) pin fingerprint, so the
  // randomness is a function of net shape — not net id, grid position, or
  // build order — and the tree cache stays transparent under kBest.
  const std::uint64_t stream =
      util::SplitMix64::mix2(options.seed, canonicalize(pins).fingerprint);
  for (std::size_t i = 1; i < options.best_candidates; ++i) {
    cands.push_back(
        perturbed_tree(pins, util::SplitMix64::mix2(stream, i), options));
  }
  cands.push_back(recombine(pins, cands, options.local_passes));
  std::size_t best_i = 0;
  std::int64_t best_len = cands[0].length();
  for (std::size_t i = 1; i < cands.size(); ++i) {
    const std::int64_t len = cands[i].length();
    if (len < best_len) {
      best_len = len;
      best_i = i;
    }
  }
  return std::move(cands[best_i]);
}

std::uint64_t options_key(const TreeBuilderOptions& o, TreeProfile profile) {
  util::Fnv1a64 h;
  h.u8(static_cast<std::uint8_t>(profile))
      .u64(o.steiner.max_pins_exact)
      .u64(o.steiner.max_steiner_points)
      .u64(o.seed)
      .u64(o.best_candidates)
      .u64(o.local_passes);
  return h.value();
}

}  // namespace

const char* profile_name(TreeProfile profile) {
  switch (profile) {
    case TreeProfile::kFast:
      return "fast";
    case TreeProfile::kBalanced:
      return "balanced";
    case TreeProfile::kBest:
      return "best";
  }
  return "?";
}

Tree build_tree(std::span<const Point> pins, TreeProfile profile,
                const TreeBuilderOptions& options) {
  switch (profile) {
    case TreeProfile::kFast:
      return rsmt::rsmt(pins, options.steiner);
    case TreeProfile::kBalanced:
      return balanced_tree(pins, options);
    case TreeProfile::kBest:
      return best_tree(pins, options);
  }
  return rsmt::rsmt(pins, options.steiner);
}

std::shared_ptr<const Tree> TreeBuilder::cached(const CanonicalPins& canon,
                                                TreeProfile profile) const {
  const std::uint64_t key =
      util::SplitMix64::mix2(canon.fingerprint, options_key(options_, profile));
  std::shared_ptr<const Tree> canonical = cache_->find(key);
  if (canonical == nullptr) {
    canonical =
        std::make_shared<const Tree>(build_tree(canon.pins, profile, options_));
    cache_->insert(key, canonical);
  }
  return canonical;
}

std::shared_ptr<const Tree> TreeBuilder::build(std::span<const Point> pins,
                                               TreeProfile profile) const {
  if (cache_ == nullptr) {
    return std::make_shared<const Tree>(build_tree(pins, profile, options_));
  }
  const CanonicalPins canon = canonicalize(pins);
  std::shared_ptr<const Tree> canonical = cached(canon, profile);
  if (canon.dx == 0 && canon.dy == 0) return canonical;
  auto out = std::make_shared<Tree>(*canonical);
  for (Point& p : out->nodes) {
    p.x += canon.dx;
    p.y += canon.dy;
  }
  return out;
}

std::int64_t TreeBuilder::length(std::span<const Point> pins,
                                 TreeProfile profile) const {
  if (cache_ == nullptr) return build_tree(pins, profile, options_).length();
  // Length is translation-invariant: read it off the canonical tree
  // instead of copying and translating it.
  return cached(canonicalize(pins), profile)->length();
}

}  // namespace rlcr::steiner
