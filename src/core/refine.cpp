#include "core/refine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"

namespace rlcr::gsino {

namespace {

/// Instance-net position of a global net inside a region solution, or -1.
std::ptrdiff_t find_member(const RegionSolution& sol, std::size_t net) {
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    if (sol.net_index[i] == net) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

/// Snapshot of one region's state, for accept/reject reverts. It holds the
/// region's solution object itself: holding it makes the next write clone
/// the slot, and a revert re-installs the untouched original.
struct RegionBackup {
  std::size_t sol_index = 0;
  RegionSolutions::Slot solution;
  std::vector<double> lsk, noise;  ///< per member net
  double shields_before = 0.0;
};

RegionBackup snapshot(const FlowState& fs, std::size_t si) {
  RegionBackup b;
  b.sol_index = si;
  b.solution = fs.solutions.slot(si);
  const std::vector<std::size_t>& members = fs.solutions[si].net_index;
  b.lsk.reserve(members.size());
  b.noise.reserve(members.size());
  for (std::size_t n : members) {
    b.lsk.push_back(fs.net_lsk[n]);
    b.noise.push_back(fs.net_noise[n]);
  }
  b.shields_before = fs.congestion->shields(sol_region(si), sol_dir(si));
  return b;
}

void restore(FlowState& fs, const RegionBackup& b) {
  fs.solutions.reset(b.sol_index, b.solution);
  const RegionSolution& sol = fs.solutions[b.sol_index];
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    fs.net_lsk[sol.net_index[i]] = b.lsk[i];
    fs.net_noise[sol.net_index[i]] = b.noise[i];
  }
  fs.congestion->set_shields(sol_region(b.sol_index), sol_dir(b.sol_index),
                             b.shields_before);
}

/// Pass 2's Kth loosening: convert each member net's noise slack into a
/// per-mm coupling allowance (Fig. 2 pass 2 inner loop). A net whose
/// critical path does not run through this region tolerates any coupling
/// here; give it generous headroom.
void loosen_kth(FlowState& fs, std::size_t si, double lsk_budget) {
  RegionSolution& sol = fs.solutions.mut(si);
  for (std::size_t i = 0; i < sol.net_index.size(); ++i) {
    const std::size_t n = sol.net_index[i];
    sino::SinoNet& snet = sol.instance.net(i);
    const double ki_now = i < sol.ki.size() ? sol.ki[i] : 0.0;
    if (sol.path_len_mm[i] <= 0.0) {
      snet.kth = std::max(snet.kth, 3.0 * (ki_now + 1.0));
      continue;
    }
    const double slack_lsk = lsk_budget - fs.net_lsk[n];
    if (slack_lsk <= 0.0) continue;
    const double dk = 0.9 * slack_lsk / sol.path_len_mm[i];
    snet.kth = std::max(snet.kth, ki_now + dk);
  }
}

/// Pass 2's pick key for cell `si`: its density, or nullopt when pass 2
/// may not pick it. The density test is the historical scan's strict
/// `> 0.0`, which also keeps NaN out of the heap.
std::optional<double> pass2_key(const FlowState& fs, std::size_t si) {
  if (fs.solutions[si].empty()) return std::nullopt;
  if (fs.congestion->shields(sol_region(si), sol_dir(si)) < 1.0) {
    return std::nullopt;
  }
  const double density = fs.solution_density(si);
  if (!(density > 0.0)) return std::nullopt;
  return density;
}

/// Accept iff the re-solve removed at least one shield and no member net
/// violates the bound.
bool accepted(const FlowState& fs, const RegionBackup& b) {
  const double shields_after =
      fs.congestion->shields(sol_region(b.sol_index), sol_dir(b.sol_index));
  if (shields_after >= b.shields_before) return false;
  for (std::size_t n : fs.solutions[b.sol_index].net_index) {
    if (fs.net_noise[n] > fs.bound_v + 1e-9) return false;
  }
  return true;
}

}  // namespace

CongestedCells::CongestedCells(const FlowState& fs)
    : cells_(fs.solutions.size()), heap_(fs.solutions.size()) {
  // Pop order depends only on the (key, id) pairs, so a bulk build pops
  // exactly what one push per cell would.
  std::vector<util::IndexedMaxHeap::Entry> entries;
  for (std::size_t si = 0; si < cells_; ++si) {
    if (const auto key = pass2_key(fs, si)) {
      entries.push_back(util::IndexedMaxHeap::Entry{*key, id_of(si)});
    }
  }
  heap_.build(std::move(entries));
}

std::size_t CongestedCells::top() const {
  return cells_ - 1 - static_cast<std::size_t>(heap_.top().first);
}

void CongestedCells::refresh(const FlowState& fs, std::size_t si) {
  if (const auto key = pass2_key(fs, si)) {
    heap_.update(id_of(si), *key);
  } else {
    heap_.erase(id_of(si));
  }
}

void CongestedCells::retire(std::size_t si) { heap_.erase(id_of(si)); }

RefineStats LocalRefiner::refine(FlowState& fs,
                                 const RefineOptions& options) const {
  RefineStats stats;
  eliminate_violations(fs, stats);
  if (options.batch_pass2) {
    reduce_congestion_batched(fs, stats, options);
  } else {
    reduce_congestion(fs, stats);
  }
  fs.refresh_noise();
  return stats;
}

void LocalRefiner::eliminate_violations(FlowState& fs,
                                        RefineStats& stats) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass1", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  std::unordered_set<std::size_t> gave_up;

  for (int outer = 0; outer < params.lr_max_outer_pass1; ++outer) {
    // Net with the most severe violation (strict >, so the lowest index
    // wins ties).
    double worst_noise = fs.bound_v + 1e-9;
    std::size_t worst = 0;
    bool found = false;
    for (std::size_t n = 0; n < fs.net_noise.size(); ++n) {
      if (gave_up.count(n)) continue;
      if (fs.net_noise[n] > worst_noise) {
        worst_noise = fs.net_noise[n];
        worst = n;
        found = true;
      }
    }
    if (!found) break;

    bool fixed = false;
    for (int inner = 0; inner < params.lr_max_inner_pass1; ++inner) {
      // Least congested (region, dir) the net crosses where it still has
      // coupling worth removing.
      double best_density = std::numeric_limits<double>::infinity();
      std::size_t best_sol = 0;
      std::size_t best_member = 0;
      double best_len = 0.0;
      bool have = false;
      for (const router::NetRegionRef& ref : fs.occupancy().net_refs(worst)) {
        const std::size_t si = fs.sol_index(ref.region, ref.dir);
        const RegionSolution& cand = fs.solutions[si];
        if (cand.empty()) continue;
        const std::ptrdiff_t m = find_member(cand, worst);
        if (m < 0) continue;
        const auto cmi = static_cast<std::size_t>(m);
        // Skip regions off the net's critical path, with negligible
        // contribution, or whose bound has bottomed out.
        const double contribution = cand.path_len_mm[cmi] * cand.ki[cmi];
        if (contribution < 1e-6 || cand.instance.net(cmi).kth <= 2e-6) {
          continue;
        }
        const double dens = fs.solution_density(si);
        if (dens < best_density) {
          best_density = dens;
          best_sol = si;
          best_member = cmi;
          best_len = cand.path_len_mm[cmi];
          have = true;
        }
      }
      if (!have) break;

      RegionSolution& sol = fs.solutions.mut(best_sol);
      const auto mi = best_member;

      // Tighten the bound so the re-solve must add shielding (Fig. 2:
      // "decrease Kth ... by allowing one more shield"). The target removes
      // the whole remaining excess from this region when it can, otherwise
      // drives this region's contribution to (almost) nothing and the next
      // iteration moves on to another region.
      const double excess = fs.net_lsk[worst] - lsk_budget;
      const double contribution = sol.path_len_mm[mi] * sol.ki[mi];
      const double target_contribution = contribution - 1.1 * excess;
      sino::SinoNet& snet = sol.instance.net(mi);
      const double targeted =
          best_len > 0.0 ? target_contribution / best_len : 0.0;
      snet.kth = std::clamp(
          std::min(targeted, snet.kth * params.lr_kth_shrink), 1e-6, snet.kth);

      fs.resolve_region(best_sol, /*allow_anneal=*/true);
      ++stats.pass1_resolves;

      if (fs.net_noise[worst] <= fs.bound_v + 1e-9) {
        fixed = true;
        break;
      }
    }
    if (fixed) {
      ++stats.pass1_nets_fixed;
    } else {
      gave_up.insert(worst);
      ++stats.pass1_gave_up;
    }
  }
  fs.unfixable = gave_up.size();
  fs.refresh_noise();
}

void LocalRefiner::reduce_congestion(FlowState& fs, RefineStats& stats) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass2", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  CongestedCells cells(fs);

  for (int outer = 0; outer < params.lr_max_outer_pass2 && !cells.empty();
       ++outer) {
    // Most congested solution with at least one shield.
    const std::size_t pick = cells.top();
    const RegionBackup backup = snapshot(fs, pick);
    loosen_kth(fs, pick, lsk_budget);
    fs.resolve_region(pick, /*allow_anneal=*/false);

    if (accepted(fs, backup)) {
      const double shields_after =
          fs.congestion->shields(sol_region(pick), sol_dir(pick));
      stats.pass2_shields_removed +=
          static_cast<int>(backup.shields_before - shields_after);
      ++stats.pass2_accepted;
      // Stay eligible: more slack may be harvestable here. Termination is
      // still guaranteed because every acceptance removes at least one
      // shield and the total shield count is finite.
      cells.refresh(fs, pick);
    } else {
      restore(fs, backup);
      ++stats.pass2_rejected;
      cells.retire(pick);
    }
  }
  stats.pass2_cap_hit = !cells.empty();
}

void LocalRefiner::reduce_congestion_batched(FlowState& fs, RefineStats& stats,
                                             const RefineOptions& options) const {
  RLCR_TRACE_SPAN(pass_span, "refine.pass2_batched", "refine");
  const RoutingProblem& p = *problem_;
  const auto& params = p.params();
  const double lsk_budget = p.lsk_table().lsk_budget(fs.bound_v);
  std::unordered_set<std::size_t> done;
  std::vector<char> net_claimed(p.net_count(), 0);

  int regions_processed = 0;
  for (;;) {
    // Eligible regions by descending density (index ascending on ties —
    // selection is a pure function of the current state).
    std::vector<std::size_t> eligible;
    for (std::size_t si = 0; si < fs.solutions.size(); ++si) {
      if (!done.count(si) && pass2_key(fs, si)) eligible.push_back(si);
    }
    if (eligible.empty()) break;
    if (regions_processed >= params.lr_max_outer_pass2) {
      stats.pass2_cap_hit = true;
      break;
    }
    std::stable_sort(eligible.begin(), eligible.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fs.solution_density(a) > fs.solution_density(b);
                     });

    // Greedy maximal net-disjoint subset: regions sharing no net, so each
    // accept/reject decision is independent of the others in the sweep.
    std::fill(net_claimed.begin(), net_claimed.end(), 0);
    std::vector<std::size_t> picked;
    for (std::size_t si : eligible) {
      if (regions_processed + static_cast<int>(picked.size()) >=
          params.lr_max_outer_pass2) {
        break;
      }
      const RegionSolution& sol = fs.solutions[si];
      bool disjoint = true;
      for (std::size_t n : sol.net_index) {
        if (net_claimed[n]) {
          disjoint = false;
          break;
        }
      }
      if (!disjoint) continue;
      for (std::size_t n : sol.net_index) net_claimed[n] = 1;
      picked.push_back(si);
    }

    std::vector<RegionBackup> backups;
    backups.reserve(picked.size());
    for (std::size_t si : picked) {
      backups.push_back(snapshot(fs, si));
      loosen_kth(fs, si, lsk_budget);
    }

    // One batch re-solve across the pool; bit-identical to resolving the
    // picked regions one at a time in this order.
    RLCR_TRACE_SPAN(sweep_span, "refine.batch_sweep", "refine");
    sweep_span.arg("regions", static_cast<double>(picked.size()));
    fs.resolve_regions(picked, /*allow_anneal=*/false, options.threads);
    ++stats.batch_sweeps;
    stats.batch_regions_resolved += static_cast<int>(picked.size());
    regions_processed += static_cast<int>(picked.size());

    for (const RegionBackup& b : backups) {
      if (accepted(fs, b)) {
        const double shields_after =
            fs.congestion->shields(sol_region(b.sol_index), sol_dir(b.sol_index));
        stats.pass2_shields_removed +=
            static_cast<int>(b.shields_before - shields_after);
        ++stats.pass2_accepted;
      } else {
        restore(fs, b);
        ++stats.pass2_rejected;
        done.insert(b.sol_index);
      }
    }
  }
}

}  // namespace rlcr::gsino
