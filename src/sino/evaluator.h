// Feasibility and cost evaluation of SINO solutions.
//
// A solution is a slot vector (ktable::SlotVec) whose non-negative entries
// are indices into the instance's net list. The evaluator answers the two
// constraint questions of [4] — capacitive freeness and inductive bounds —
// plus the area and violation measures the solvers optimize.
//
// Every Ki comes from one kernel, ktable::KeffModel::coupling_sum. check,
// all_ki and constraints_hold sweep the victims in slot order carrying the
// running count of shields to their left, so one call costs O(n^2) table
// lookups for n slots and allocates nothing for Ki. The greedy solver asks
// only "do both constraints hold?" for each trial insertion, so
// constraints_hold answers that with early exit: the O(n) capacitive scan
// first, then Ki against Kth net by net, stopping at the first violation.
#pragma once

#include <vector>

#include "ktable/keff.h"
#include "sino/instance.h"

namespace rlcr::sino {

using ktable::kEmptySlot;
using ktable::kShieldSlot;
using ktable::SlotVec;

/// Violation summary of one solution.
struct SinoCheck {
  int capacitive_violations = 0;  ///< sensitive pairs on adjacent tracks
  double inductive_excess = 0.0;  ///< sum of max(0, Ki - Kth) over nets
  int inductive_violations = 0;   ///< nets with Ki > Kth
  bool placed_all = false;        ///< every net appears exactly once

  bool feasible() const {
    return placed_all && capacitive_violations == 0 && inductive_violations == 0;
  }
};

class SinoEvaluator {
 public:
  SinoEvaluator(const SinoInstance& instance, const ktable::KeffModel& keff)
      : instance_(&instance), keff_(&keff) {}

  const SinoInstance& instance() const { return *instance_; }
  const ktable::KeffModel& keff() const { return *keff_; }

  /// Total inductive coupling Ki of the net in slot `slot_index`, counting
  /// only aggressors the instance marks as sensitive to it.
  double ki(const SlotVec& slots, std::size_t slot_index) const;

  /// Ki for every net, indexed by net index (not slot).
  std::vector<double> all_ki(const SlotVec& slots) const;

  SinoCheck check(const SlotVec& slots) const;

  /// Both SINO constraints hold: no capacitive and no inductive violation.
  /// Equals `check(slots)` reporting zero of each, without counting them;
  /// placement completeness is not checked, so it suits partial solutions.
  bool constraints_hold(const SlotVec& slots) const;

  /// Occupied tracks (nets + shields); the SINO area objective.
  static int area(const SlotVec& slots);
  static int shield_count(const SlotVec& slots);

  /// Scalar objective for the annealer: area + penalty * violations.
  double cost(const SlotVec& slots, double violation_penalty = 50.0) const;

 private:
  const SinoInstance* instance_;
  const ktable::KeffModel* keff_;
};

}  // namespace rlcr::sino
