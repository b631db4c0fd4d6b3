// Phase III: two-pass iterative local refinement (the paper's Fig. 2),
// operating on a FlowState (the mutable working state a FlowSession builds
// over a RegionSolveArtifact).
//
// Pass 1 (eliminate crosstalk violations): Phase I budgeted with Manhattan
// distances, so detoured nets can exceed their noise bound. For the net
// with the worst violation, tighten its Kth in the least congested region
// it crosses (letting that region absorb one more shield) and re-run SINO
// there; repeat until the net meets its bound, then move to the next
// violating net.
//
// Pass 2 (reduce routing congestion): in the most congested region, give
// nets with slack (noise headroom) looser Kth in proportion to that slack
// and re-run SINO; accept the new solution only if it removes at least one
// shield and causes no new violations. The region comes off a
// CongestedCells heap, O(log N) per iteration over the N (region, dir)
// cells, in the same order a full density scan picks (lowest index on
// ties): density is a per-cell function of the congestion map, segments
// are fixed during refinement, and an iteration changes only the shields
// of the cell it picked. A rejected cell never comes back; an accepted
// one stays eligible while it keeps a shield. The loop ends when no
// eligible cell is left or after lr_max_outer_pass2 iterations
// (RefineStats::pass2_cap_hit); full-size ibm01 hits the 4000-iteration
// cap on every perfbench workload.
//
// Batched pass 2 (RefineOptions::batch_pass2): instead of one region per
// step, each sweep picks a maximal net-disjoint set of eligible congested
// regions (descending density), loosens them all, re-solves them in one
// sino::solve_batch call across the pool, and then accepts/rejects each
// individually. Net-disjointness makes the per-region accept checks
// independent, so the sweep's outcome is deterministic and bit-identical
// at any thread count; it visits regions in a different order than the
// serial pass, so batched results differ from batch_pass2=false (the
// goldens pin the serial pass).
//
// Pass 1 is one serial loop: each outer step's worst-violator pick and
// fix attempt read the state every earlier attempt committed. (A variant
// that evaluated the k worst violators' attempts ahead of time across the
// pool was removed: on the ISPD98 classes Phase II leaves pass 1 with 0-12
// violating nets, so there was nothing to overlap.)
#pragma once

#include "core/session.h"
#include "util/indexed_heap.h"

namespace rlcr::gsino {

/// Pass 2's pick order over the solution cells of a FlowState: the
/// eligible cells (non-empty solution, >= 1 shield, density > 0) by
/// density, lowest index first among equal densities. Exposed for tests.
class CongestedCells {
 public:
  explicit CongestedCells(const FlowState& fs);

  bool empty() const { return heap_.empty(); }
  /// The densest eligible cell. Requires !empty().
  std::size_t top() const;
  /// Re-key `si` after its shields changed; drops it once ineligible.
  void refresh(const FlowState& fs, std::size_t si);
  /// Remove `si` for good (a rejected re-solve).
  void retire(std::size_t si);

 private:
  // The heap breaks (key, id) ties toward the larger id, so ids run
  // backwards from the solution index to make the lowest index win.
  std::int32_t id_of(std::size_t si) const {
    return static_cast<std::int32_t>(cells_ - 1 - si);
  }

  std::size_t cells_;
  util::IndexedMaxHeap heap_;
};

class LocalRefiner {
 public:
  explicit LocalRefiner(const RoutingProblem& problem) : problem_(&problem) {}

  /// Run pass 1 then pass 2 on a flow state produced by Phase II.
  RefineStats refine(FlowState& fs, const RefineOptions& options = {}) const;

  /// Individual passes (exposed for tests and the ablation bench).
  void eliminate_violations(FlowState& fs, RefineStats& stats) const;
  void reduce_congestion(FlowState& fs, RefineStats& stats) const;
  void reduce_congestion_batched(FlowState& fs, RefineStats& stats,
                                 const RefineOptions& options) const;

 private:
  const RoutingProblem* problem_;
};

}  // namespace rlcr::gsino
