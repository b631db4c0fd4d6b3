#include "ktable/keff.h"

#include <algorithm>
#include <cmath>

namespace rlcr::ktable {

KeffModel::KeffModel(const KeffParams& params, const circuit::Technology& tech)
    : params_(params) {
  (void)tech;  // see header: the profile is simulation-calibrated
  const int maxsep = std::max(1, params_.max_separation);
  profile_.assign(static_cast<std::size_t>(maxsep) + 1, 0.0);
  for (int d = 1; d <= maxsep; ++d) {
    profile_[static_cast<std::size_t>(d)] =
        params_.scale * std::pow(static_cast<double>(d), -params_.decay_exponent);
  }
  const int max_shields = std::max(0, params_.max_separation);
  shield_pow_.resize(static_cast<std::size_t>(max_shields) + 1);
  for (int k = 0; k <= max_shields; ++k) {
    shield_pow_[static_cast<std::size_t>(k)] =
        std::pow(params_.shield_attenuation, k);
  }
  // Each test is phrased so that a NaN fails it and clears the flag.
  const double a = params_.shield_attenuation;
  monotone_ = a >= 0.0 && a <= 1.0;
  for (std::size_t d = 1; d < profile_.size(); ++d) {
    if (!(profile_[d] >= 0.0) || (d > 1 && !(profile_[d] <= profile_[d - 1]))) {
      monotone_ = false;
    }
  }
  for (std::size_t k = 0; k < shield_pow_.size(); ++k) {
    const double f = shield_pow_[k];
    if (!(f >= 0.0 && f <= 1.0) || (k > 0 && !(f <= shield_pow_[k - 1]))) {
      monotone_ = false;
    }
  }
}

double KeffModel::pair_coupling(const SlotVec& slots, std::size_t i,
                                std::size_t j) const {
  if (i == j || i >= slots.size() || j >= slots.size()) return 0.0;
  if (slots[i] < 0 || slots[j] < 0) return 0.0;
  const std::size_t lo = std::min(i, j);
  const std::size_t hi = std::max(i, j);
  int shields_between = 0;
  for (std::size_t k = lo + 1; k < hi; ++k) {
    if (slots[k] == kShieldSlot) ++shields_between;
  }
  return profile(static_cast<int>(hi - lo)) * shield_factor(shields_between);
}

}  // namespace rlcr::ktable
