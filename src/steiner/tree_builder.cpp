#include "steiner/tree_builder.h"

#include "steiner/tree_cache.h"
#include "util/hash.h"
#include "util/rng.h"

namespace rlcr::steiner {
namespace {

using geom::Point;
using rsmt::Tree;

std::uint64_t options_key(const TreeBuilderOptions& o) {
  util::Fnv1a64 h;
  h.u64(o.steiner.max_pins_exact).u64(o.steiner.max_steiner_points);
  return h.value();
}

}  // namespace

std::shared_ptr<const Tree> TreeBuilder::cached(
    const CanonicalPins& canon) const {
  const std::uint64_t key =
      util::SplitMix64::mix2(canon.fingerprint, options_key(options_));
  std::shared_ptr<const Tree> canonical = cache_->find(key);
  if (canonical == nullptr) {
    canonical =
        std::make_shared<const Tree>(rsmt::rsmt(canon.pins, options_.steiner));
    cache_->insert(key, canonical);
  }
  return canonical;
}

std::shared_ptr<const Tree> TreeBuilder::build(
    std::span<const Point> pins) const {
  if (cache_ == nullptr) {
    return std::make_shared<const Tree>(rsmt::rsmt(pins, options_.steiner));
  }
  const CanonicalPins canon = canonicalize(pins);
  std::shared_ptr<const Tree> canonical = cached(canon);
  if (canon.dx == 0 && canon.dy == 0) return canonical;
  auto out = std::make_shared<Tree>(*canonical);
  for (Point& p : out->nodes) {
    p.x += canon.dx;
    p.y += canon.dy;
  }
  return out;
}

std::int64_t TreeBuilder::length(std::span<const Point> pins) const {
  if (cache_ == nullptr) return rsmt::rsmt(pins, options_.steiner).length();
  // Length is translation-invariant: read it off the canonical tree
  // instead of copying and translating it.
  return cached(canonicalize(pins))->length();
}

}  // namespace rlcr::steiner
