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
//
// Incremental feasibility. Suppose a slot vector satisfies both constraints
// and net x is inserted at `pos` (alone, or after shields inserted
// anywhere). Then:
//   - only x's new occupied neighbours can form a capacitive violation
//     (x separates the pair it lands between; a shield only separates);
//   - only x and the nets sensitive to x gain a term in their Ki;
//   - every other victim keeps the same aggressors in the same ascending-j
//     order, and each of its terms has an equal or larger distance and an
//     equal or larger shield count between the pair. When K is
//     non-increasing in both and >= 0, each term can only shrink, and
//     since FP products and sums of non-negative values round
//     monotonically, Ki' <= Ki <= Kth holds bit for bit.
// insertion_holds checks exactly what the lemma leaves open, so on such a
// vector it equals constraints_hold. Dually, removing a shield only grows
// Ki terms and only merges adjacencies, so a removal that fails keeps
// failing after further removals; the greedy's compaction relies on that.
// The guard is KeffModel::coupling_monotone (a property of the model's
// tables); where it does not hold, insertion_holds runs the full check.
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

  /// Full violation summary. When `ki` is non-null it receives all_ki(slots)
  /// from the same pass.
  SinoCheck check(const SlotVec& slots, std::vector<double>* ki = nullptr) const;

  /// Both SINO constraints hold: no capacitive and no inductive violation.
  /// Equals `check(slots)` reporting zero of each, without counting them;
  /// placement completeness is not checked, so it suits partial solutions.
  bool constraints_hold(const SlotVec& slots) const;

  /// constraints_hold(slots) for a vector made by inserting the net now at
  /// `pos` (and possibly shields) into a vector on which constraints_hold
  /// was true. Checks only x's two new adjacencies, x's Ki and the Ki of
  /// the nets sensitive to x (see the lemma above), stopping at the first
  /// violation. Runs the full check when the Keff model is not monotone.
  /// The precondition is the caller's: on other vectors the answer may
  /// differ from constraints_hold.
  bool insertion_holds(const SlotVec& slots, std::size_t pos) const;

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
