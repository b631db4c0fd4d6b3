// Focused tests of the Phase III local refiner (the paper's Fig. 2),
// driven through the staged session API: the refiner operates on the
// mutable FlowState a FlowSession builds over a Phase II solve artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "core/refine.h"
#include "core/session.h"
#include "util/hash.h"

namespace rlcr::gsino {
namespace {

/// A congested little problem that reliably leaves Phase II with work for
/// the refiner: high sensitivity, long-ish nets, modest capacity.
struct Fixture {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  Fixture() : spec(netlist::tiny_spec(500, 77)) {
    spec.grid_cols = 14;
    spec.grid_rows = 14;
    spec.chip_w_um = 700.0;
    spec.chip_h_um = 700.0;
    spec.h_capacity = 12;
    spec.v_capacity = 12;
    spec.local_sigma_regions = 2.5;
    design = netlist::generate(spec);
    params.sensitivity_rate = 0.5;
  }

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

/// GSINO through Phase II only (the refiner's input state).
FlowState phase12_state(FlowSession& session) {
  return session.state(FlowKind::kGsino);
}

TEST(Refiner, Pass1EliminatesViolations) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  const std::size_t before = fs.violating;

  LocalRefiner refiner(problem);
  RefineStats stats;
  refiner.eliminate_violations(fs, stats);
  fs.refresh_noise();

  EXPECT_LE(fs.violating, before);
  EXPECT_EQ(fs.violating, fs.unfixable);  // anything left was given up on
  if (before > 0) {
    EXPECT_GT(stats.pass1_resolves, 0);
  }
}

TEST(Refiner, Pass2NeverCreatesViolations) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  LocalRefiner refiner(problem);
  RefineStats stats;
  refiner.eliminate_violations(fs, stats);
  fs.refresh_noise();
  const std::size_t viol_before = fs.violating;
  const double shields_before = fs.congestion->total_shields();

  refiner.reduce_congestion(fs, stats);
  fs.refresh_noise();

  EXPECT_LE(fs.violating, viol_before);
  // Pass 2 only ever removes shields.
  EXPECT_LE(fs.congestion->total_shields(), shields_before);
  EXPECT_EQ(stats.pass2_shields_removed >= 0, true);
}

TEST(Refiner, StatsAreInternallyConsistent) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  const RefineStats stats = LocalRefiner(problem).refine(fs);
  EXPECT_GE(stats.pass1_nets_fixed, 0);
  EXPECT_GE(stats.pass1_resolves, stats.pass1_nets_fixed);
  EXPECT_EQ(fs.unfixable, static_cast<std::size_t>(stats.pass1_gave_up));
  EXPECT_GE(stats.pass2_accepted + stats.pass2_rejected, stats.pass2_accepted);
}

TEST(Refiner, RefineIsIdempotentOnCleanState) {
  // Refining an already-refined state changes nothing structural: no
  // violations appear and shields only go down (pass 2 may still harvest).
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  const LocalRefiner refiner(problem);
  refiner.refine(fs);
  ASSERT_EQ(fs.violating, 0u);
  const double shields1 = fs.congestion->total_shields();
  refiner.refine(fs);
  fs.refresh_noise();
  EXPECT_EQ(fs.violating, 0u);
  EXPECT_LE(fs.congestion->total_shields(), shields1);
}

TEST(Refiner, SolutionsStayFeasibleAfterRefinement) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  const FlowResult fr = session.run(FlowKind::kGsino);
  for (const RegionSolution& sol : fr.solutions()) {
    if (sol.empty()) continue;
    const sino::SinoEvaluator eval(sol.instance, problem.keff());
    const sino::SinoCheck c = eval.check(sol.slots);
    EXPECT_TRUE(c.placed_all);
    EXPECT_EQ(c.capacitive_violations, 0);
  }
}

// Phase III shares every slot it does not commit. Pass 1 always commits
// its re-solves; a pass-2 cell ends up re-solved iff one of its picks was
// accepted, and every acceptance removes a shield while a rejection
// restores the original object, so a cell only pass 2 picked is shared
// exactly when its shield count is back where the solve left it.
TEST(Refiner, SharesEverySlotItDidNotCommit) {
  const Fixture fx;
  const RoutingProblem p = fx.problem();
  FlowSession session(p);
  const FlowResult serial = session.run(FlowKind::kGsino);
  const std::shared_ptr<const RegionSolveArtifact> solve = serial.phase2;
  const RegionSolutions& base = *solve->solutions;
  FlowState fs = session.state(*solve);

  std::set<std::size_t> pass1, pass2;
  std::set<std::size_t>* sink = &pass1;
  fs.observer = [&](const StageEvent& e) { sink->insert(e.region); };
  const LocalRefiner refiner(p);
  RefineStats stats;
  refiner.eliminate_violations(fs, stats);
  sink = &pass2;
  refiner.reduce_congestion(fs, stats);
  fs.refresh_noise();
  ASSERT_GT(stats.pass1_resolves, 0);
  ASSERT_GT(stats.pass2_accepted, 0);
  ASSERT_GT(stats.pass2_rejected, 0);

  const std::shared_ptr<const RefineArtifact> refined = serial.phase3;
  std::size_t shared = 0, rejected_only = 0;
  for (std::size_t si = 0; si < base.size(); ++si) {
    const bool is_shared = fs.solutions.slot(si) == base.slot(si);
    EXPECT_EQ(refined->solutions->slot(si) == base.slot(si), is_shared)
        << "slot " << si;
    if (pass1.count(si)) {
      EXPECT_FALSE(is_shared) << "pass-1 slot " << si;
    } else if (pass2.count(si)) {
      const std::size_t r = sol_region(si);
      const double before = solve->congestion->shields(r, sol_dir(si));
      const double after = fs.congestion->shields(r, sol_dir(si));
      EXPECT_EQ(is_shared, after == before) << "pass-2 slot " << si;
      rejected_only += is_shared ? 1 : 0;
    } else {
      EXPECT_TRUE(is_shared) << "untouched slot " << si;
    }
    shared += is_shared ? 1 : 0;
  }
  EXPECT_GT(rejected_only, 0u);
  EXPECT_GT(shared, base.size() / 2);
}

// ------------------------------------------------- batched pass 2 (Phase
// III region re-solves through sino::solve_batch)

TEST(Refiner, BatchedPass2MeetsTheBound) {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = phase12_state(session);
  RefineOptions opt;
  opt.batch_pass2 = true;
  const RefineStats stats = LocalRefiner(problem).refine(fs, opt);
  EXPECT_EQ(fs.violating, 0u);
  if (stats.pass2_accepted + stats.pass2_rejected > 0) {
    EXPECT_GT(stats.batch_sweeps, 0);
    EXPECT_GE(stats.batch_regions_resolved,
              stats.pass2_accepted + stats.pass2_rejected);
  }
}

TEST(Refiner, BatchedPass2BitIdenticalAcrossThreadCounts) {
  // The determinism oracle of the batched sweep: threads=1 is the exact
  // serial path, so any thread count must reproduce it bit for bit.
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState a = phase12_state(session);
  FlowState b = phase12_state(session);
  RefineOptions opt1;
  opt1.batch_pass2 = true;
  opt1.threads = 1;
  RefineOptions opt8 = opt1;
  opt8.threads = 8;
  const RefineStats sa = LocalRefiner(problem).refine(a, opt1);
  const RefineStats sb = LocalRefiner(problem).refine(b, opt8);

  EXPECT_EQ(sa.pass2_accepted, sb.pass2_accepted);
  EXPECT_EQ(sa.pass2_rejected, sb.pass2_rejected);
  EXPECT_EQ(sa.pass2_shields_removed, sb.pass2_shields_removed);
  EXPECT_EQ(a.violating, b.violating);
  EXPECT_DOUBLE_EQ(a.congestion->total_shields(),
                   b.congestion->total_shields());
  ASSERT_EQ(a.net_lsk.size(), b.net_lsk.size());
  for (std::size_t n = 0; n < a.net_lsk.size(); ++n) {
    EXPECT_EQ(a.net_lsk[n], b.net_lsk[n]) << "net " << n;
  }
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t si = 0; si < a.solutions.size(); ++si) {
    EXPECT_EQ(a.solutions[si].slots, b.solutions[si].slots) << "sol " << si;
  }
}

// ------------------------------------------- pass-2 pick order (Fig. 2)
//
// Pass 2 picks the densest eligible cell from a heap. The oracle is the
// full density scan it replaced (strict `>` from 0.0, so the lowest index
// wins ties, skipping rejected cells, empty solutions and cells with no
// shield): brute_force_pick below, and the pick sequences that scan
// produced on the seeded fixtures, pinned in kPass2Goldens.

/// The historical pass-2 scan over the current state.
bool brute_force_pick(const FlowState& fs, const std::set<std::size_t>& done,
                      std::size_t& pick) {
  double worst_density = 0.0;
  bool found = false;
  for (std::size_t si = 0; si < fs.solutions.size(); ++si) {
    if (done.count(si) || fs.solutions[si].empty()) continue;
    if (fs.congestion->shields(sol_region(si), sol_dir(si)) < 1.0) continue;
    const double dens = fs.solution_density(si);
    if (dens > worst_density) {
      worst_density = dens;
      pick = si;
      found = true;
    }
  }
  return found;
}

struct Pass2Case {
  const char* name;
  std::size_t nets;
  std::uint64_t seed;
  int grid;  ///< regions per side
  double chip_um;
  int h_cap, v_cap;
  double sigma;  ///< local pin spread, in regions
  double rate;   ///< sensitivity rate
  int max_outer_pass2;
};

/// What pass 2 did on one fixture: the picked cells in order (one
/// observer region event per re-solve), and the shields each pick was
/// left with right after its re-solve.
struct Pass2Trace {
  std::vector<std::size_t> picks;
  std::vector<double> shields_after;
  RefineStats stats;
  std::size_t eligible_ties = 0;  ///< equal-density eligible pairs at start
};

Pass2Trace run_pass2(const Pass2Case& c) {
  netlist::SyntheticSpec spec = netlist::tiny_spec(c.nets, c.seed);
  spec.grid_cols = c.grid;
  spec.grid_rows = c.grid;
  spec.chip_w_um = c.chip_um;
  spec.chip_h_um = c.chip_um;
  spec.h_capacity = c.h_cap;
  spec.v_capacity = c.v_cap;
  spec.local_sigma_regions = c.sigma;
  const netlist::Netlist design = netlist::generate(spec);
  GsinoParams params;
  params.sensitivity_rate = c.rate;
  params.lr_max_outer_pass2 = c.max_outer_pass2;
  const RoutingProblem problem = make_problem(design, spec, params);
  FlowSession session(problem);
  FlowState fs = session.state(FlowKind::kGsino);
  const LocalRefiner refiner(problem);
  Pass2Trace t;
  refiner.eliminate_violations(fs, t.stats);

  std::vector<double> densities;
  for (std::size_t si = 0; si < fs.solutions.size(); ++si) {
    if (fs.solutions[si].empty()) continue;
    if (fs.congestion->shields(sol_region(si), sol_dir(si)) < 1.0) continue;
    densities.push_back(fs.solution_density(si));
  }
  std::sort(densities.begin(), densities.end());
  for (std::size_t i = 1; i < densities.size(); ++i) {
    t.eligible_ties += densities[i] == densities[i - 1] ? 1 : 0;
  }

  fs.observer = [&](const StageEvent& e) {
    t.picks.push_back(e.region);
    t.shields_after.push_back(
        fs.congestion->shields(sol_region(e.region), sol_dir(e.region)));
  };
  refiner.reduce_congestion(fs, t.stats);
  return t;
}

std::uint64_t sequence_hash(const std::vector<std::size_t>& picks) {
  util::Fnv1a64 h;
  for (const std::size_t si : picks) h.u64(si);
  return h.value();
}

struct Pass2Golden {
  Pass2Case fixture;
  std::size_t picks;
  std::uint64_t pick_hash;  ///< sequence_hash of the pick sequence
  std::vector<std::size_t> first_picks;
  int accepted, rejected, shields_removed, cap_hit;
};

// Recorded from the full-scan pass 2 before the heap replaced it (which
// had no cap_hit; "capped" stops at a 40-iteration cap with eligible cells
// left, the others run out of cells). Every fixture has many equal-density
// eligible cells (integer track counts over a few capacities); "ties6" is
// the dedicated one (uniform capacity, 6x6 grid).
const Pass2Golden kPass2Goldens[] = {
    {{"congested14", 500, 77, 14, 700.0, 12, 12, 2.5, 0.5, 4000},
     440, 0x34607d040b2a6189ULL, {136, 16, 136, 268, 18, 79, 14, 18},
     74, 366, 152, 0},
    {{"tiny8", 300, 5, 8, 400.0, 10, 10, 1.2, 0.3, 4000},
     95, 0x5fefb31c06574267ULL, {103, 89, 102, 105, 49, 71, 72, 101},
     3, 92, 5, 0},
    {{"ties6", 200, 11, 6, 300.0, 8, 8, 1.2, 0.5, 4000},
     74, 0x3a4037a7ed6662d4ULL, {40, 42, 29, 38, 17, 18, 18, 31},
     3, 71, 5, 0},
    {{"capped", 500, 77, 14, 700.0, 12, 12, 2.5, 0.5, 40},
     40, 0x12abfe1563123837ULL, {136, 16, 136, 268, 18, 79, 14, 18},
     15, 25, 48, 1},
    {{"mixedcap16", 600, 3, 16, 800.0, 14, 12, 2.0, 0.4, 4000},
     545, 0x6e58f485c4308a2eULL, {129, 129, 97, 8, 161, 10, 97, 161},
     102, 443, 202, 0},
};

TEST(RefinerPass2Order, MatchesThePinnedFullScanSequences) {
  std::size_t dropped = 0;
  for (const Pass2Golden& g : kPass2Goldens) {
    SCOPED_TRACE(g.fixture.name);
    const Pass2Trace t = run_pass2(g.fixture);
    EXPECT_GT(t.eligible_ties, 0u);
    ASSERT_EQ(t.picks.size(), g.picks);
    const std::vector<std::size_t> head(
        t.picks.begin(),
        t.picks.begin() + static_cast<std::ptrdiff_t>(g.first_picks.size()));
    EXPECT_EQ(head, g.first_picks);
    EXPECT_EQ(sequence_hash(t.picks), g.pick_hash);
    EXPECT_EQ(t.stats.pass2_accepted, g.accepted);
    EXPECT_EQ(t.stats.pass2_rejected, g.rejected);
    EXPECT_EQ(t.stats.pass2_shields_removed, g.shields_removed);
    EXPECT_EQ(t.stats.pass2_cap_hit, g.cap_hit);

    // A pick left with no shield is out for good: accepted, it is no
    // longer eligible; rejected, it is retired.
    for (std::size_t i = 0; i < t.picks.size(); ++i) {
      if (t.shields_after[i] >= 1.0) continue;
      ++dropped;
      EXPECT_EQ(std::count(t.picks.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                           t.picks.end(), t.picks[i]),
                0)
          << "cell " << t.picks[i] << " re-picked after step " << i;
    }
  }
  EXPECT_GT(dropped, 0u);  // the fixtures do exercise the case
}

/// A Phase II state of the congested fixture with every cell's shields
/// cleared (nothing eligible), plus its non-empty cells of one direction.
struct BareCells {
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session{problem};
  FlowState fs = session.state(FlowKind::kGsino);
  std::vector<std::size_t> h_cells;

  BareCells() {
    for (std::size_t si = 0; si < fs.solutions.size(); ++si) {
      fs.congestion->set_shields(sol_region(si), sol_dir(si), 0.0);
      if (!fs.solutions[si].empty() && sol_dir(si) == grid::Dir::kHorizontal) {
        h_cells.push_back(si);
      }
    }
  }

  void set(std::size_t si, double segments, double shields) {
    fs.congestion->set_segments(sol_region(si), sol_dir(si), segments);
    fs.congestion->set_shields(sol_region(si), sol_dir(si), shields);
  }
};

TEST(RefinerPass2Order, LowestIndexWinsAmongEqualDensities) {
  BareCells b;
  ASSERT_GE(b.h_cells.size(), 4u);
  const std::size_t a = b.h_cells[1], c = b.h_cells[2], d = b.h_cells[3];
  for (const std::size_t si : {d, a, c}) b.set(si, 5.0, 2.0);

  CongestedCells cells(b.fs);
  ASSERT_FALSE(cells.empty());
  EXPECT_EQ(cells.top(), a);
  cells.retire(a);
  EXPECT_EQ(cells.top(), c);

  // Lowering the winner to the others' density hands the pick back to the
  // lowest index of the tie; raising one alone makes it the pick.
  b.set(d, 6.0, 2.0);
  cells.refresh(b.fs, d);
  EXPECT_EQ(cells.top(), d);
  b.set(d, 5.0, 2.0);
  cells.refresh(b.fs, d);
  EXPECT_EQ(cells.top(), c);
}

TEST(RefinerPass2Order, CellLosingItsLastShieldDropsOut) {
  BareCells b;
  ASSERT_GE(b.h_cells.size(), 3u);
  const std::size_t a = b.h_cells[0], c = b.h_cells[1], d = b.h_cells[2];
  b.set(a, 9.0, 3.0);
  b.set(c, 6.0, 1.0);
  b.set(d, 4.0, 1.0);

  CongestedCells cells(b.fs);
  EXPECT_EQ(cells.top(), a);
  // An accept that removes a's last shield: a stays denser than the rest,
  // but with no shield it is no longer eligible.
  b.set(a, 9.0, 0.0);
  cells.refresh(b.fs, a);
  std::vector<std::size_t> order;
  while (!cells.empty()) {
    order.push_back(cells.top());
    cells.retire(cells.top());
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{c, d}));
}

TEST(RefinerPass2Order, HeapMatchesBruteForceScanUnderRandomShieldChanges) {
  // Drive CongestedCells the way pass 2 does — change the top cell's
  // shields and refresh it, or retire it — and check every pick against
  // the full scan over the same state.
  const Fixture fx;
  const RoutingProblem problem = fx.problem();
  FlowSession session(problem);
  FlowState fs = session.state(FlowKind::kGsino);
  std::mt19937_64 rng(12);
  std::uniform_int_distribution<int> coin(0, 3);

  CongestedCells cells(fs);
  std::set<std::size_t> done;
  std::size_t steps = 0;
  for (;;) {
    std::size_t want = 0;
    const bool found = brute_force_pick(fs, done, want);
    ASSERT_EQ(!cells.empty(), found) << "step " << steps;
    if (!found) break;
    const std::size_t pick = cells.top();
    ASSERT_EQ(pick, want) << "step " << steps;
    const double shields =
        fs.congestion->shields(sol_region(pick), sol_dir(pick));
    if (coin(rng) == 0) {
      done.insert(pick);
      cells.retire(pick);
    } else {
      fs.congestion->set_shields(sol_region(pick), sol_dir(pick),
                                 std::max(0.0, shields - 1.0));
      cells.refresh(fs, pick);
    }
    ++steps;
  }
  EXPECT_GT(steps, 100u);
}

}  // namespace
}  // namespace rlcr::gsino
