// Keff model: formula-based inductive-coupling estimation between signal
// nets sharing a routing region (after [4]'s Keff model, Section 2.2).
//
// A routing region's tracks are a slot vector: each slot holds a signal net,
// a shield, or nothing. The model assigns a coupling coefficient K(i, j) to
// every victim/aggressor slot pair and defines the total coupling of net i,
//   Ki = sum over slots j holding nets sensitive to i of K(i, j).
// Ki is the quantity SINO bounds with Kth and the per-region factor of the
// LSK sum (Eq. 1).
//
// The paper takes the K formula from [4]/[8] without reprinting it; this
// implementation calibrates K(i, j) against the library's own MNA bus
// simulator: sweeping one aggressor across track distances (with quiet
// signal wires in between, the common case inside a routed region) shows
// the victim's peak noise decays as a power law ~ d^-0.52 — much faster
// than the bare-pair partial-mutual-inductance formula, because intervening
// quiet wires carry induced return currents that screen the coupling.
// A shield does the same but better (it is tied to the P/G network at both
// ends): measured attenuation is ~0.38x per shield relative to the quiet
// signal it replaces. The bench `bench_lsk_fidelity` re-derives both
// numbers and verifies the fidelity property the paper relies on: higher Ki
// means higher simulated noise at fixed length.
//
// Both factors of a pair's K are table lookups. The attenuation table holds
// shield_attenuation^k for k = 0..max_separation, each entry produced by the
// same std::pow(attenuation, k) call that would otherwise run per pair, so
// every product, and hence every Ki, is bit-identical to evaluating the pow
// in place. Counts past the table (possible only when a pair is more than
// max_separation + 1 tracks apart) fall back to that std::pow call.
//
// The model also records, once from its own tables, whether K(i, j) can
// only shrink as a pair moves apart or gains shields between it: the
// profile is >= 0 and non-increasing, and shield_attenuation^k lies in
// [0, 1] and is non-increasing over the table. coupling_monotone() reports
// it; the SINO evaluator's incremental feasibility checks rely on it and
// fall back to full checks when it does not hold (see sino/evaluator.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "circuit/extract.h"

namespace rlcr::ktable {

/// Slot occupancy for one routing region's track set. Values >= 0 identify
/// a signal net (indices are caller-defined); negative values are special.
using Slot = std::int32_t;
inline constexpr Slot kShieldSlot = -1;
inline constexpr Slot kEmptySlot = -2;
using SlotVec = std::vector<Slot>;

struct KeffParams {
  /// Power-law decay of coupling with track distance, K ~ d^-decay;
  /// calibrated against the MNA simulator (quiet wires in between).
  double decay_exponent = 0.52;
  /// Multiplicative attenuation per shield strictly between the pair
  /// (simulator-calibrated).
  double shield_attenuation = 0.38;
  /// Largest track separation the profile is tabulated for; pairs farther
  /// apart are clamped to the profile tail.
  int max_separation = 128;
  /// Overall scale of K (1.0 = adjacent pair -> K = 1).
  double scale = 1.0;
};

class KeffModel {
 public:
  /// `tech` is accepted for interface stability (the profile used to be
  /// derived from the extractor's bare-pair formula; it is now calibrated
  /// directly against simulation and depends only on `params`).
  explicit KeffModel(const KeffParams& params = {},
                     const circuit::Technology& tech = {});

  const KeffParams& params() const { return params_; }

  /// Distance profile: coupling of a bare pair at `separation` tracks,
  /// normalized so separation 1 gives params.scale.
  double profile(int separation) const {
    if (separation <= 0) return 0.0;
    return profile_[static_cast<std::size_t>(
        std::min(separation, params_.max_separation))];
  }

  /// shield_attenuation^shields: the table entry, or std::pow past it.
  double shield_factor(int shields) const {
    const auto k = static_cast<std::size_t>(shields);
    return k < shield_pow_.size() ? shield_pow_[k]
                                  : std::pow(params_.shield_attenuation, shields);
  }

  /// True when every pair K in a slot vector of `slot_count` slots is
  /// non-increasing in the pair's distance and in the shields between it,
  /// and >= 0. Holds when the model's tables are monotone (checked once at
  /// construction) and no pair can have more shields between it than the
  /// attenuation table covers (the std::pow tail is not checked).
  bool coupling_monotone(std::size_t slot_count) const {
    return monotone_ && slot_count <= shield_pow_.size() + 1;
  }

  /// Coupling coefficient between slots i and j of `slots`, accounting for
  /// shields strictly between them. Zero for i == j or non-signal slots.
  double pair_coupling(const SlotVec& slots, std::size_t i, std::size_t j) const;

  /// Total inductive coupling Ki of the signal in slot `victim`:
  /// sum of pair_coupling over all slots holding aggressors, where
  /// `is_aggressor(net_value)` says whether a slot's net attacks the victim.
  template <typename AggressorPred>
  double total_coupling(const SlotVec& slots, std::size_t victim,
                        AggressorPred&& is_aggressor) const {
    if (victim >= slots.size() || slots[victim] < 0) return 0.0;
    const auto shields_left = static_cast<int>(
        std::count(slots.begin(),
                   slots.begin() + static_cast<std::ptrdiff_t>(victim),
                   kShieldSlot));
    return coupling_sum(slots, victim, shields_left, is_aggressor);
  }

  /// The Ki kernel behind total_coupling, for callers that sweep victims in
  /// slot order and carry `shields_left`, the number of shields in
  /// slots[0, victim). The victim slot must hold a signal. Sums
  /// profile(|victim - j|) * shield_factor(shields strictly between) over
  /// aggressor slots j in ascending order. The order fixes Ki's rounding,
  /// which the golden route/state hashes pin, so keep it. O(n).
  template <typename AggressorPred>
  double coupling_sum(const SlotVec& slots, std::size_t victim,
                      int shields_left, AggressorPred&& is_aggressor) const {
    double acc = 0.0;
    // Left of the victim: `between` counts shields in [j, victim), which is
    // the count strictly between whenever slot j holds a net.
    int between = shields_left;
    for (std::size_t j = 0; j < victim; ++j) {
      const Slot s = slots[j];
      if (s < 0) {
        if (s == kShieldSlot) --between;
        continue;
      }
      if (!is_aggressor(s)) continue;
      acc += profile(static_cast<int>(victim - j)) * shield_factor(between);
    }
    // Right of the victim: `between` counts shields in (victim, j).
    between = 0;
    for (std::size_t j = victim + 1; j < slots.size(); ++j) {
      const Slot s = slots[j];
      if (s < 0) {
        if (s == kShieldSlot) ++between;
        continue;
      }
      if (!is_aggressor(s)) continue;
      acc += profile(static_cast<int>(j - victim)) * shield_factor(between);
    }
    return acc;
  }

 private:
  KeffParams params_;
  std::vector<double> profile_;     // [separation] -> normalized coupling
  std::vector<double> shield_pow_;  // [shields] -> shield_attenuation^shields
  bool monotone_ = false;  // both tables monotone, see coupling_monotone
};

}  // namespace rlcr::ktable
