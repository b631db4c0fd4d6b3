// Steiner-tree construction behind one TreeBuilder facade.
//
// Every net topology the routers build is rsmt::rsmt() (iterated
// 1-Steiner, plain RMST above SteinerOptions::max_pins_exact). The facade
// exists for the optional content-addressed TreeCache: it canonicalizes
// the pin set, looks the canonical tree up (or builds and inserts it), and
// translates the result back, so callers never see the cache's coordinate
// frame. rsmt::rsmt() is a pure function of (pins, options) — no global
// state, no wall clock, no thread id — which is what makes the parallel
// fan-out in the router and the shared cache transparent by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "geom/point.h"
#include "rsmt/steiner.h"
#include "rsmt/tree.h"

namespace rlcr::steiner {

class TreeCache;
struct CanonicalPins;

struct TreeBuilderOptions {
  /// The 1-Steiner knobs; the defaults reproduce every route-hash golden.
  rsmt::SteinerOptions steiner;
};

/// Facade bundling options with an optional shared cache. Copies of the
/// returned trees are immutable and safe to share across threads; every
/// tree keeps the rsmt::Tree contract (nodes[0..pins.size()) are the pins
/// in input order, Steiner points follow).
class TreeBuilder {
 public:
  explicit TreeBuilder(TreeBuilderOptions options = {},
                       TreeCache* cache = nullptr)
      : options_(options), cache_(cache) {}

  /// Build (or fetch from the cache) the tree for `pins`: bit-identical to
  /// rsmt::rsmt(pins, options().steiner).
  std::shared_ptr<const rsmt::Tree> build(std::span<const geom::Point> pins) const;

  /// Tree length (one cached build serves later calls that need the full
  /// topology for the same pin set). With a cache, the cached canonical
  /// tree's length: a tree's length does not change when it is translated
  /// back to the pins.
  std::int64_t length(std::span<const geom::Point> pins) const;

  const TreeBuilderOptions& options() const { return options_; }

 private:
  /// The canonical (translated-to-origin) tree for `canon`, from the cache
  /// or built and inserted. Requires a cache.
  std::shared_ptr<const rsmt::Tree> cached(const CanonicalPins& canon) const;

  TreeBuilderOptions options_;
  TreeCache* cache_ = nullptr;
};

}  // namespace rlcr::steiner
