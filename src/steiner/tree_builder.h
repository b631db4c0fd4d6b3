// Quality-tiered Steiner-tree construction behind one TreeBuilder facade.
//
// Three deterministic profiles trade construction time for topology quality:
//
//   kFast      — the historical path: delegate to rsmt::rsmt() unchanged, so
//                every existing route-hash golden holds bit-for-bit.
//   kBalanced  — start from the kFast tree and apply only length-non-
//                increasing local moves (edge-overlap steinerization plus an
//                ascend-and-prune cleanup of Steiner chains), bounded passes.
//   kBest      — iterated perturb-and-reconstruct with recombination: build k
//                randomized candidates, merge their edge sets, re-solve the
//                problem restricted to that union, keep the shortest tree.
//
// Every profile is a pure function of (pins, options): no global state, no
// wall-clock, no thread-id — which is what makes the parallel fan-out in the
// router and the content-addressed TreeCache transparent by construction.
// kBest randomness is split per pin set from options.seed via the SplitMix64
// stream-seed discipline, so results are seed-deterministic and invariant to
// thread count and net enumeration order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/point.h"
#include "rsmt/steiner.h"
#include "rsmt/tree.h"

namespace rlcr::steiner {

class TreeCache;
struct CanonicalPins;

/// Quality tier for tree construction. Wire/profile stable: the numeric
/// values travel through the artifact store and the service protocol.
enum class TreeProfile : std::uint8_t {
  kFast = 0,
  kBalanced = 1,
  kBest = 2,
};

inline constexpr std::uint8_t kTreeProfileCount = 3;

const char* profile_name(TreeProfile profile);

struct TreeBuilderOptions {
  /// Base 1-Steiner knobs (kFast fidelity requires the defaults).
  rsmt::SteinerOptions steiner;
  /// Master seed for kBest perturbation streams. Mixed with a content hash
  /// of the pin set, never with a net id, so identical pin sets always get
  /// identical trees regardless of which net (or thread) asks first.
  std::uint64_t seed = 1;
  /// Candidate trees built per net under kBest (the first is the kBalanced
  /// tree, so kBest can never be longer than kBalanced).
  std::size_t best_candidates = 4;
  /// Upper bound on steinerize/prune sweeps per local-search invocation.
  std::size_t local_passes = 4;
};

/// Builds one tree at an explicit profile. Pure function; the returned tree
/// keeps the rsmt::Tree contract (nodes[0..pins.size()) are the pins in
/// input order, Steiner points follow).
rsmt::Tree build_tree(std::span<const geom::Point> pins,
                      TreeProfile profile, const TreeBuilderOptions& options);

/// Facade bundling options with an optional shared cache. Copies of the
/// returned trees are immutable and safe to share across threads.
class TreeBuilder {
 public:
  explicit TreeBuilder(TreeBuilderOptions options = {},
                       TreeCache* cache = nullptr)
      : options_(options), cache_(cache) {}

  /// Build (or fetch from the cache) the tree for `pins` at `profile`.
  std::shared_ptr<const rsmt::Tree> build(std::span<const geom::Point> pins,
                                          TreeProfile profile) const;

  /// Tree length at `profile` (one cached build serves later calls that
  /// need the full topology for the same pin set). With a cache, the
  /// cached canonical tree's length: a tree's length does not change when
  /// it is translated back to the pins.
  std::int64_t length(std::span<const geom::Point> pins,
                      TreeProfile profile) const;

  const TreeBuilderOptions& options() const { return options_; }

 private:
  /// The canonical (translated-to-origin) tree for `canon`, from the cache
  /// or built and inserted. Requires a cache.
  std::shared_ptr<const rsmt::Tree> cached(const CanonicalPins& canon,
                                           TreeProfile profile) const;

  TreeBuilderOptions options_;
  TreeCache* cache_ = nullptr;
};

}  // namespace rlcr::steiner
