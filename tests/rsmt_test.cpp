#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "rsmt/rmst.h"
#include "rsmt/steiner.h"
#include "util/rng.h"

namespace rlcr::rsmt {
namespace {

using geom::Point;

TEST(Tree, LengthAndConnectivity) {
  Tree t;
  t.nodes = {{0, 0}, {3, 0}, {3, 4}};
  t.edges = {{0, 1}, {1, 2}};
  t.pin_count = 3;
  EXPECT_EQ(t.length(), 7);
  EXPECT_TRUE(t.connected());
  EXPECT_TRUE(t.is_tree());
  t.edges.pop_back();
  EXPECT_FALSE(t.connected());
  EXPECT_FALSE(t.is_tree());
}

TEST(Rmst, TrivialCases) {
  EXPECT_EQ(rmst_length(std::vector<Point>{}), 0);
  EXPECT_EQ(rmst_length(std::vector<Point>{{5, 5}}), 0);
  EXPECT_EQ(rmst_length(std::vector<Point>{{0, 0}, {2, 3}}), 5);
}

TEST(Rmst, CollinearPoints) {
  const std::vector<Point> pins{{0, 0}, {10, 0}, {4, 0}, {7, 0}};
  EXPECT_EQ(rmst_length(pins), 10);
}

TEST(Rmst, DuplicatesAreFree) {
  const std::vector<Point> pins{{1, 1}, {1, 1}, {4, 1}};
  EXPECT_EQ(rmst_length(pins), 3);
}

TEST(Rmst, SquareUsesThreeSides) {
  const std::vector<Point> pins{{0, 0}, {0, 2}, {2, 0}, {2, 2}};
  EXPECT_EQ(rmst_length(pins), 6);
  const Tree t = rmst(pins);
  EXPECT_TRUE(t.is_tree());
  EXPECT_EQ(t.edges.size(), 3u);
}

TEST(Steiner, CrossNetGainsFromSteinerPoint) {
  // Plus-shape: RMST needs 4 arms = cost 8 via centre-less detours (RMST 8);
  // with the centre Steiner point the tree is exactly 8... use asymmetric
  // "T" instead where the gain is strict:
  const std::vector<Point> pins{{0, 0}, {4, 0}, {2, 3}};
  const std::int64_t mst = rmst_length(pins);
  const std::int64_t steiner = rsmt_length(pins);
  EXPECT_EQ(mst, 9);      // 4 + 5 (diagonal leg via L)
  EXPECT_EQ(steiner, 7);  // meet at (2, 0)
}

TEST(Steiner, NeverWorseThanRmst) {
  util::Xoshiro256 rng(42);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Point> pins;
    const int n = 3 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      pins.push_back(Point{static_cast<std::int32_t>(rng.below(20)),
                           static_cast<std::int32_t>(rng.below(20))});
    }
    EXPECT_LE(rsmt_length(pins), rmst_length(pins));
  }
}

TEST(Steiner, SteinerRatioBound) {
  // RSMT >= RMST * 2/3 (Hwang); so RMST <= 1.5 * our heuristic length.
  util::Xoshiro256 rng(7);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<Point> pins;
    for (int i = 0; i < 6; ++i) {
      pins.push_back(Point{static_cast<std::int32_t>(rng.below(30)),
                           static_cast<std::int32_t>(rng.below(30))});
    }
    const auto heuristic = rsmt_length(pins);
    const auto mst = rmst_length(pins);
    EXPECT_LE(mst, (heuristic * 3 + 1) / 2 + 1);
  }
}

TEST(Steiner, ResultIsAlwaysATreeOverPins) {
  util::Xoshiro256 rng(11);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<Point> pins;
    const int n = 2 + static_cast<int>(rng.below(10));
    for (int i = 0; i < n; ++i) {
      pins.push_back(Point{static_cast<std::int32_t>(rng.below(16)),
                           static_cast<std::int32_t>(rng.below(16))});
    }
    const Tree t = rsmt(pins);
    EXPECT_TRUE(t.connected()) << "iter " << iter;
    EXPECT_EQ(t.edges.size() + 1, t.nodes.size());
    // Pins are preserved in order at the front.
    ASSERT_GE(t.nodes.size(), pins.size());
    for (std::size_t i = 0; i < pins.size(); ++i) EXPECT_EQ(t.nodes[i], pins[i]);
  }
}

TEST(Steiner, LargeNetsFallBackToRmst) {
  SteinerOptions opts;
  opts.max_pins_exact = 4;
  std::vector<Point> pins;
  for (int i = 0; i < 8; ++i) pins.push_back(Point{i, i * i % 7});
  const Tree t = rsmt(pins, opts);
  EXPECT_EQ(t.nodes.size(), pins.size());  // no Steiner points added
  EXPECT_TRUE(t.is_tree());
}

TEST(Steiner, NoDanglingSteinerLeaves) {
  util::Xoshiro256 rng(23);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<Point> pins;
    for (int i = 0; i < 7; ++i) {
      pins.push_back(Point{static_cast<std::int32_t>(rng.below(12)),
                           static_cast<std::int32_t>(rng.below(12))});
    }
    const Tree t = rsmt(pins);
    std::vector<int> degree(t.nodes.size(), 0);
    for (const auto& [a, b] : t.edges) {
      ++degree[static_cast<std::size_t>(a)];
      ++degree[static_cast<std::size_t>(b)];
    }
    for (std::size_t v = t.pin_count; v < t.nodes.size(); ++v) {
      EXPECT_GE(degree[v], 2) << "dangling Steiner node in iter " << iter;
    }
  }
}

class SteinerDegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SteinerDegreeSweep, ValidTreesAtEveryDegree) {
  const int degree = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(degree) * 1009);
  std::vector<Point> pins;
  for (int i = 0; i < degree; ++i) {
    pins.push_back(Point{static_cast<std::int32_t>(rng.below(40)),
                         static_cast<std::int32_t>(rng.below(40))});
  }
  const Tree t = rsmt(pins);
  EXPECT_TRUE(t.connected());
  EXPECT_LE(t.length(), rmst_length(pins));
}

INSTANTIATE_TEST_SUITE_P(Degrees, SteinerDegreeSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 12, 16, 24, 40));

// ------------------------------------------------ vertex-insertion oracle
//
// The 1-Steiner loop evaluates each Hanan candidate by MST vertex insertion.
// The oracle below is the per-candidate Prim loop it replaced, kept here
// verbatim in behaviour: one full O(n^2) Prim run per candidate, the same
// candidate order and strict `<`, then the same RMST, leaf pruning and
// reindexing. rsmt() must reproduce its nodes and edges exactly.

std::int64_t prim_length(const std::vector<Point>& pts) {
  const std::size_t n = pts.size();
  if (n < 2) return 0;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> best(n, kInf);
  std::vector<char> used(n, 0);
  best[0] = 0;
  std::int64_t total = 0;
  for (std::size_t iter = 0; iter < n; ++iter) {
    std::size_t u = n;
    std::int64_t u_cost = kInf;
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i] && best[i] < u_cost) {
        u = i;
        u_cost = best[i];
      }
    }
    used[u] = 1;
    total += (u_cost == kInf ? 0 : u_cost);
    for (std::size_t v = 0; v < n; ++v) {
      if (used[v]) continue;
      best[v] = std::min(best[v], geom::manhattan(pts[u], pts[v]));
    }
  }
  return total;
}

std::vector<std::int32_t> sorted_unique(std::vector<std::int32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

Tree prim_per_candidate_rsmt(const std::vector<Point>& pins,
                             const SteinerOptions& options = {}) {
  if (pins.size() <= 2 || pins.size() > options.max_pins_exact) {
    return rmst(pins);
  }
  std::vector<Point> pts = pins;
  const std::size_t pin_count = pts.size();
  std::int64_t current = prim_length(pts);
  for (std::size_t round = 0; round < options.max_steiner_points; ++round) {
    std::vector<std::int32_t> xs, ys;
    for (const auto& p : pts) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    xs = sorted_unique(std::move(xs));
    ys = sorted_unique(std::move(ys));
    std::int64_t best_len = current;
    Point best_pt{};
    bool found = false;
    std::vector<Point> trial = pts;
    trial.push_back({});
    for (std::int32_t x : xs) {
      for (std::int32_t y : ys) {
        const Point cand{x, y};
        if (std::find(pts.begin(), pts.end(), cand) != pts.end()) continue;
        trial.back() = cand;
        const std::int64_t len = prim_length(trial);
        if (len < best_len) {
          best_len = len;
          best_pt = cand;
          found = true;
        }
      }
    }
    if (!found) break;
    pts.push_back(best_pt);
    current = best_len;
  }

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

/// Seeded pin set of 3-16 pins from one of six shapes: a small box (many
/// duplicate coordinates), ibm06-range coordinates (320 x 224 regions), a
/// horizontal or vertical line, a 1- or 2-wide column, and a cluster with
/// an exact duplicate pin.
std::vector<Point> differential_pins(util::Xoshiro256& rng, int shape) {
  const auto n = static_cast<int>(3 + rng.below(14));
  auto coord = [&](std::uint64_t span) {
    return static_cast<std::int32_t>(rng.below(span));
  };
  const std::int32_t ox = coord(300), oy = coord(200);
  std::vector<Point> pins;
  for (int i = 0; i < n; ++i) {
    switch (shape) {
      case 0: pins.push_back({coord(5), coord(5)}); break;
      case 1: pins.push_back({coord(320), coord(224)}); break;
      case 2: pins.push_back({ox + coord(20), oy}); break;
      case 3: pins.push_back({ox, oy + coord(24)}); break;
      case 4: pins.push_back({ox + coord(2), oy + coord(24)}); break;
      default: pins.push_back({ox + coord(12), oy + coord(12)}); break;
    }
  }
  if (shape == 5) pins.back() = pins[rng.below(pins.size() - 1)];
  return pins;
}

TEST(SteinerDifferential, MatchesPrimPerCandidateLoop) {
  util::Xoshiro256 rng(0x5eed1);
  for (int iter = 0; iter < 2400; ++iter) {
    const std::vector<Point> pins = differential_pins(rng, iter % 6);
    const Tree want = prim_per_candidate_rsmt(pins);
    const Tree got = rsmt(pins);
    ASSERT_EQ(got.pin_count, want.pin_count) << "iter " << iter;
    ASSERT_EQ(got.nodes, want.nodes) << "iter " << iter;
    ASSERT_EQ(got.edges, want.edges) << "iter " << iter;
  }
}

TEST(MstInsertion, EqualsPrimOnEveryHananCandidate) {
  util::Xoshiro256 rng(0x1a5e7);
  for (int iter = 0; iter < 300; ++iter) {
    const std::vector<Point> pts = differential_pins(rng, iter % 6);
    MstInsertion mst(pts);
    ASSERT_EQ(mst.length(), prim_length(pts)) << "iter " << iter;
    std::vector<std::int32_t> xs, ys;
    for (const Point& p : pts) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    // Every candidate, existing points included (they insert at 0 cost).
    for (std::int32_t x : sorted_unique(xs)) {
      for (std::int32_t y : sorted_unique(ys)) {
        std::vector<Point> with = pts;
        with.push_back({x, y});
        ASSERT_EQ(mst.length_with({x, y}), prim_length(with))
            << "iter " << iter << " candidate (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(MstInsertion, DegenerateSets) {
  EXPECT_EQ(MstInsertion(std::vector<Point>{}).length(), 0);
  MstInsertion one(std::vector<Point>{{2, 3}});
  EXPECT_EQ(one.length(), 0);
  EXPECT_EQ(one.length_with({5, 7}), 7);
  MstInsertion line(std::vector<Point>{{0, 0}, {4, 0}});
  EXPECT_EQ(line.length_with({2, 0}), 4);  // splits the edge: no gain
  EXPECT_EQ(line.length_with({4, 3}), 7);  // hangs off one end
}

}  // namespace
}  // namespace rlcr::rsmt
