// The staged, re-entrant FlowSession API: artifact caching and
// invalidation, what-if re-solves that skip Phase I (proven by stage
// counters and bit-identical to from-scratch runs), cross-flow routing
// artifact sharing that reproduces the experiment goldens, the batched
// Phase III region re-solve path, copy-on-write region solutions (no
// state(), refine, delta or concurrent refine writes into an artifact's),
// and the stage observer.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/refine.h"
#include "core/session.h"
#include "scenario/delta.h"
#include "util/hash.h"

#include "golden_util.h"

namespace rlcr::gsino {
namespace {

/// Same configuration as integration_test's Pipeline, whose golden values
/// (IntegrationGolden.ThreeFlowsPinnedAtRateHalf) this file re-pins for
/// the shared-routing-artifact path.
struct Pipeline {
  netlist::SyntheticSpec spec;
  netlist::Netlist design;
  GsinoParams params;

  explicit Pipeline(double rate, std::size_t nets = 400, std::uint64_t seed = 12)
      : spec(netlist::tiny_spec(nets, seed)) {
    spec.grid_cols = 12;
    spec.grid_rows = 12;
    spec.chip_w_um = 600.0;
    spec.chip_h_um = 600.0;
    spec.h_capacity = 12;
    spec.v_capacity = 12;
    spec.local_sigma_regions = 2.0;
    design = netlist::generate(spec);
    params.sensitivity_rate = rate;
  }

  RoutingProblem problem() const { return make_problem(design, spec, params); }
};

// ---------------------------------------------------------- what-if reuse

TEST(Session, BoundResolveSkipsPhaseIAndIsBitIdentical) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);

  // GSINO at the params bound (0.15), then a what-if re-solve at 0.20.
  const FlowResult at15 = session.run(FlowKind::kGsino);
  ASSERT_EQ(session.counters().route_executed, 1u);

  Scenario looser;
  looser.bound_v = 0.20;
  const FlowResult at20 = session.run(FlowKind::kGsino, looser);

  // Phase I was requested again but not re-executed (the stage counters
  // are the proof the artifact was reused)...
  EXPECT_EQ(session.counters().route_requests, 2u);
  EXPECT_EQ(session.counters().route_executed, 1u);
  // ...while budgeting and Phase II ran for the new bound.
  EXPECT_EQ(session.counters().budget_executed, 2u);
  EXPECT_EQ(session.counters().solve_executed, 2u);
  EXPECT_EQ(at20.phase1.get(), at15.phase1.get());
  EXPECT_DOUBLE_EQ(at20.bound_v, 0.20);

  // Bit-identical to a from-scratch run whose params carry bound 0.20.
  Pipeline scratch(0.5);
  scratch.params.crosstalk_bound_v = 0.20;
  const RoutingProblem p20 = scratch.problem();
  FlowSession fresh(p20);
  const FlowResult ref = fresh.run(FlowKind::kGsino);

  EXPECT_EQ(router::route_hash(at20.routing()),
            router::route_hash(ref.routing()));
  EXPECT_DOUBLE_EQ(at20.total_wirelength_um, ref.total_wirelength_um);
  EXPECT_DOUBLE_EQ(at20.total_shields, ref.total_shields);
  EXPECT_EQ(at20.violating, ref.violating);
  EXPECT_EQ(at20.unfixable, ref.unfixable);
  EXPECT_DOUBLE_EQ(at20.area.width_um, ref.area.width_um);
  EXPECT_DOUBLE_EQ(at20.area.height_um, ref.area.height_um);
  ASSERT_EQ(at20.net_lsk().size(), ref.net_lsk().size());
  for (std::size_t n = 0; n < at20.net_lsk().size(); ++n) {
    EXPECT_EQ(at20.net_lsk()[n], ref.net_lsk()[n]) << "net " << n;
    EXPECT_EQ(at20.net_noise()[n], ref.net_noise()[n]) << "net " << n;
  }
}

TEST(Session, BudgetMarginResolveAlsoReusesRouting) {
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  (void)session.run(FlowKind::kGsino);
  Scenario tighter;
  tighter.budget_margin = 0.9;
  const FlowResult fr = session.run(FlowKind::kGsino, tighter);
  EXPECT_EQ(session.counters().route_executed, 1u);
  EXPECT_EQ(fr.budget->margin, 0.9);
  EXPECT_EQ(fr.violating, 0u);
}

TEST(Session, RepeatedRunIsFullyCached) {
  // Every stage — including Phase III, whose output is deterministic —
  // cache-hits when the same scenario is requested twice.
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const FlowResult a = session.run(FlowKind::kGsino);
  const StageCounters first = session.counters();
  const FlowResult b = session.run(FlowKind::kGsino);
  EXPECT_EQ(session.counters().route_executed, first.route_executed);
  EXPECT_EQ(session.counters().budget_executed, first.budget_executed);
  EXPECT_EQ(session.counters().solve_executed, first.solve_executed);
  EXPECT_EQ(session.counters().refine_executed, first.refine_executed);
  EXPECT_EQ(session.counters().refine_requests, first.refine_requests + 1);
  EXPECT_EQ(a.phase3.get(), b.phase3.get());  // same refine artifact
}

TEST(Session, MarginIsNormalizedOutForNonMarginRules) {
  // Only GSINO's budget rule applies the margin; a margin-only what-if on
  // iSINO must be a full cache hit (no budget or Phase II re-run).
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  (void)session.run(FlowKind::kIsino);
  const std::size_t budgets = session.counters().budget_executed;
  const std::size_t solves = session.counters().solve_executed;
  Scenario tighter;
  tighter.budget_margin = 0.9;
  (void)session.run(FlowKind::kIsino, tighter);
  EXPECT_EQ(session.counters().budget_executed, budgets);
  EXPECT_EQ(session.counters().solve_executed, solves);
}

// ------------------------------------------------- cross-flow artifact use

TEST(Session, ThreeFlowsShareOneBaselineRoutingArtifact) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);

  const FlowResult idno = session.run(FlowKind::kIdNo);
  const FlowResult isino = session.run(FlowKind::kIsino);
  const FlowResult gsino_r = session.run(FlowKind::kGsino);

  // ID+NO and iSINO route with the identical profile and share the
  // artifact; GSINO's shield-reserving profile routes once more. Two
  // Phase I executions for three flows.
  EXPECT_EQ(idno.phase1.get(), isino.phase1.get());
  EXPECT_NE(gsino_r.phase1.get(), idno.phase1.get());
  EXPECT_EQ(session.counters().route_requests, 3u);
  EXPECT_EQ(session.counters().route_executed, 2u);

  // The shared-artifact path reproduces the experiment goldens pinned by
  // IntegrationGolden.ThreeFlowsPinnedAtRateHalf.
  EXPECT_DOUBLE_EQ(idno.total_wirelength_um, 132650.0);
  EXPECT_EQ(idno.violating, 86u);
  EXPECT_DOUBLE_EQ(idno.total_shields, 0.0);
  EXPECT_EQ(router::route_hash(idno.routing()), 13497901764394341437ULL);

  EXPECT_DOUBLE_EQ(isino.total_wirelength_um, 132650.0);
  EXPECT_EQ(isino.violating, 0u);
  EXPECT_DOUBLE_EQ(isino.total_shields, 1002.0);
  EXPECT_EQ(router::route_hash(isino.routing()), 13497901764394341437ULL);

  EXPECT_DOUBLE_EQ(gsino_r.total_wirelength_um, 134150.0);
  EXPECT_EQ(gsino_r.violating, 0u);
  EXPECT_DOUBLE_EQ(gsino_r.total_shields, 931.0);
  EXPECT_EQ(router::route_hash(gsino_r.routing()), 12686260652761461465ULL);
}

TEST(Session, ExperimentRunnerSharesRoutingPerCell) {
  // run_one drives one session per (circuit, rate) cell; its summaries
  // must match three independent from-scratch flows.
  netlist::SyntheticSpec spec = netlist::tiny_spec(180, 7);
  GsinoParams params;
  params.lr_max_outer_pass1 = 500;
  params.lr_max_outer_pass2 = 500;
  const CircuitRun cell = ExperimentRunner::run_one(spec, 0.5, params);

  GsinoParams p = params;
  p.sensitivity_rate = 0.5;
  const netlist::Netlist design = netlist::generate(spec);
  const RoutingProblem problem = make_problem(design, spec, p);
  const FlowSummary idno =
      summarize(FlowSession(problem).run(FlowKind::kIdNo), problem);
  const FlowSummary isino =
      summarize(FlowSession(problem).run(FlowKind::kIsino), problem);
  const FlowSummary gsino_s =
      summarize(FlowSession(problem).run(FlowKind::kGsino), problem);

  EXPECT_EQ(cell.idno.violating, idno.violating);
  EXPECT_DOUBLE_EQ(cell.idno.total_wirelength_um, idno.total_wirelength_um);
  EXPECT_DOUBLE_EQ(cell.isino.total_shields, isino.total_shields);
  EXPECT_DOUBLE_EQ(cell.isino.total_wirelength_um, isino.total_wirelength_um);
  EXPECT_DOUBLE_EQ(cell.gsino.total_shields, gsino_s.total_shields);
  EXPECT_EQ(cell.gsino.violating, gsino_s.violating);
}

// ----------------------------------------------------- staged invalidation

TEST(Session, ExplicitProfileChangeInvalidatesRouting) {
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  auto base = session.route(FlowKind::kIdNo);

  // Same profile -> cache hit (thread count is not part of the identity).
  router::IdRouterOptions same = session.router_profile(FlowKind::kIdNo);
  same.threads = 7;
  EXPECT_EQ(session.route(same, FlowKind::kIdNo).get(), base.get());
  EXPECT_EQ(session.counters().route_executed, 1u);

  // Different weights -> different artifact.
  router::IdRouterOptions heavier = session.router_profile(FlowKind::kIdNo);
  heavier.weights.gamma = 80.0;
  EXPECT_NE(session.route(heavier, FlowKind::kIdNo).get(), base.get());
  EXPECT_EQ(session.counters().route_executed, 2u);
}

TEST(Session, BudgetRulePerFlow) {
  EXPECT_EQ(budget_rule(FlowKind::kIdNo), BudgetRule::kManhattan);
  EXPECT_EQ(budget_rule(FlowKind::kIsino), BudgetRule::kRoutedLength);
  EXPECT_EQ(budget_rule(FlowKind::kGsino), BudgetRule::kManhattanMargin);
}

TEST(Session, StageNames) {
  EXPECT_STREQ(stage_name(Stage::kRoute), "route");
  EXPECT_STREQ(stage_name(Stage::kBudget), "budget");
  EXPECT_STREQ(stage_name(Stage::kSolveRegions), "solve_regions");
  EXPECT_STREQ(stage_name(Stage::kRefine), "refine");
}

// ------------------------------------------------------- batched re-solves

TEST(Session, BatchResolveBitIdenticalToSerialLoop) {
  // FlowState::resolve_regions through sino::solve_batch must reproduce
  // the one-at-a-time resolve_region loop bit for bit, at any thread
  // count (the golden for the Phase III batching satellite).
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);

  for (const int threads : {1, 4}) {
    FlowState serial = session.state(FlowKind::kGsino);
    FlowState batched = session.state(FlowKind::kGsino);

    std::vector<std::size_t> targets;
    for (std::size_t si = 0; si < serial.solutions.size(); ++si) {
      if (!serial.solutions[si].empty()) targets.push_back(si);
    }
    ASSERT_FALSE(targets.empty());

    for (std::size_t si : targets) {
      serial.resolve_region(si, /*allow_anneal=*/true);
    }
    batched.resolve_regions(targets, /*allow_anneal=*/true, threads);

    for (std::size_t si : targets) {
      EXPECT_EQ(serial.solutions[si].slots, batched.solutions[si].slots)
          << "threads " << threads << " sol " << si;
      EXPECT_EQ(serial.solutions[si].ki, batched.solutions[si].ki)
          << "threads " << threads << " sol " << si;
    }
    ASSERT_EQ(serial.net_lsk.size(), batched.net_lsk.size());
    for (std::size_t n = 0; n < serial.net_lsk.size(); ++n) {
      EXPECT_EQ(serial.net_lsk[n], batched.net_lsk[n])
          << "threads " << threads << " net " << n;
      EXPECT_EQ(serial.net_noise[n], batched.net_noise[n])
          << "threads " << threads << " net " << n;
    }
    for (std::size_t si : targets) {
      EXPECT_DOUBLE_EQ(serial.congestion->shields(
                           si / 2, static_cast<grid::Dir>(si % 2)),
                       batched.congestion->shields(
                           si / 2, static_cast<grid::Dir>(si % 2)));
    }
  }
}

TEST(Session, BatchedRefineThroughScenario) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  Scenario sc;
  sc.refine.batch_pass2 = true;
  sc.refine.threads = 4;
  const FlowResult fr = session.run(FlowKind::kGsino, sc);
  EXPECT_EQ(fr.violating, 0u);
  ASSERT_NE(fr.phase3, nullptr);
  EXPECT_GE(fr.phase3->stats.batch_sweeps, 0);
}

// ------------------------------------------ copy-on-write region solutions

/// A solution whose only payload is one net with the given Kth.
RegionSolution one_net(double kth) {
  RegionSolution sol;
  sino::SinoNet net;
  net.net_id = 0;
  net.kth = kth;
  sol.instance = sino::SinoInstance({net});
  sol.net_index = {0};
  sol.len_mm = {1.0};
  sol.path_len_mm = {1.0};
  sol.slots = {0};
  sol.ki = {0.0};
  return sol;
}

TEST(RegionSolutions, CopySharesEverySlot) {
  RegionSolutions a(4);
  a.set(0, one_net(1.0));
  a.set(2, one_net(2.0));
  const RegionSolutions b = a;
  ASSERT_EQ(b.size(), 4u);
  for (std::size_t si = 0; si < a.size(); ++si) {
    EXPECT_EQ(a.slot(si), b.slot(si)) << "slot " << si;
  }
  EXPECT_EQ(b.slot(1), nullptr);  // empty slots hold no object
  EXPECT_TRUE(b[1].empty());
  EXPECT_DOUBLE_EQ(b[2].instance.net(0).kth, 2.0);
}

TEST(RegionSolutions, MutClonesOnlyASharedSlot) {
  RegionSolutions a(3);
  a.set(0, one_net(1.0));
  a.set(1, one_net(2.0));
  RegionSolutions b = a;
  b.mut(1).instance.net(0).kth = 5.0;
  EXPECT_NE(a.slot(1), b.slot(1));
  EXPECT_DOUBLE_EQ(a[1].instance.net(0).kth, 2.0);  // the original is intact
  EXPECT_DOUBLE_EQ(b[1].instance.net(0).kth, 5.0);
  EXPECT_EQ(a.slot(0), b.slot(0));  // untouched slots stay shared
}

TEST(RegionSolutions, MutOnAnExclusiveSlotWritesInPlace) {
  RegionSolutions a(2);
  a.set(0, one_net(1.0));
  const RegionSolution* before = a.slot(0).get();
  a.mut(0).ki[0] = 0.25;
  EXPECT_EQ(a.slot(0).get(), before);
  EXPECT_DOUBLE_EQ(a[0].ki[0], 0.25);

  // Once a copy lets go, the survivor is exclusive again.
  RegionSolutions b = a;
  b = RegionSolutions();
  a.mut(0).ki[0] = 0.5;
  EXPECT_EQ(a.slot(0).get(), before);

  // An empty slot gets a fresh object; set() of an empty solution clears.
  a.mut(1).net_index = {3};
  EXPECT_FALSE(a[1].empty());
  a.set(1, RegionSolution{});
  EXPECT_EQ(a.slot(1), nullptr);
}

TEST(RegionSolutions, ResetReinstallsAHeldSlot) {
  RegionSolutions a(1);
  a.set(0, one_net(1.0));
  const RegionSolutions::Slot held = a.slot(0);
  a.mut(0).instance.net(0).kth = 9.0;  // held -> clones
  EXPECT_NE(a.slot(0), held);
  a.reset(0, held);
  EXPECT_EQ(a.slot(0), held);
  EXPECT_DOUBLE_EQ(a[0].instance.net(0).kth, 1.0);
}

TEST(RegionSolutions, ConstIterationVisitsEverySlotInOrder) {
  RegionSolutions a(3);
  a.set(1, one_net(7.0));
  std::vector<bool> empties;
  for (const RegionSolution& sol : a) empties.push_back(sol.empty());
  EXPECT_EQ(empties, (std::vector<bool>{true, false, true}));
  auto it = a.begin();
  ++it;
  EXPECT_DOUBLE_EQ(it->instance.net(0).kth, 7.0);
  EXPECT_EQ(std::distance(a.begin(), a.end()), 3);
}

/// FNV over every slot's track assignment, Ki and member Kth: moves iff
/// any solution's content moved.
std::uint64_t solutions_hash(const RegionSolutions& sols) {
  util::Fnv1a64 h;
  for (const RegionSolution& sol : sols) {
    h.u64(sol.slots.size());
    for (const ktable::Slot s : sol.slots) h.i32(s);
    for (const double k : sol.ki) h.f64(k);
    for (std::size_t i = 0; i < sol.instance.net_count(); ++i) {
      h.f64(sol.instance.net(i).kth);
    }
  }
  return h.value();
}

// No path through the session writes into an artifact's solutions: a
// FlowState mutated directly, refine, and an ECO delta that patches the
// solve artifact all leave its content hash where it was.
TEST(Session, ArtifactSolutionsSurviveStateRefineAndDelta) {
  const Pipeline pipe(0.5, 300);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const auto phase1 = session.route(FlowKind::kGsino);
  const auto budget =
      session.budget(FlowKind::kGsino, phase1, p.params().crosstalk_bound_v,
                     p.params().budget_margin);
  const std::shared_ptr<const RegionSolveArtifact> solve =
      session.solve_regions(FlowKind::kGsino, phase1, budget,
                            p.params().anneal_phase2);
  const std::uint64_t h0 = solutions_hash(*solve->solutions);

  FlowState st = session.state(*solve);
  std::size_t touched = 0;
  for (std::size_t si = 0; si < st.solutions.size() && touched < 20; ++si) {
    if (st.solutions[si].empty()) continue;
    st.solutions.mut(si).instance.net(0).kth *= 0.5;
    st.resolve_region(si, /*allow_anneal=*/true);
    ++touched;
  }
  ASSERT_EQ(touched, 20u);
  EXPECT_NE(solutions_hash(st.solutions), h0);
  EXPECT_EQ(solutions_hash(*solve->solutions), h0);

  (void)session.refine(solve);
  ASSERT_EQ(session.counters().refine_executed, 1u);
  EXPECT_EQ(solutions_hash(*solve->solutions), h0);

  const scenario::DeltaReport report =
      session.apply_delta(scenario::random_delta(p, 5, 4));
  EXPECT_EQ(solutions_hash(*solve->solutions), h0);

  // The patched artifact (a cache hit now) shares exactly its clean
  // non-empty slots.
  const std::shared_ptr<const RegionSolveArtifact> patched =
      session.run(FlowKind::kGsino).phase2;
  ASSERT_EQ(session.counters().solve_executed, 1u);
  ASSERT_NE(patched, solve);
  std::size_t shared = 0;
  for (std::size_t si = 0; si < patched->solutions->size(); ++si) {
    if (!(*patched->solutions)[si].empty() &&
        patched->solutions->slot(si) == solve->solutions->slot(si)) {
      ++shared;
    }
  }
  EXPECT_GT(report.regions_reused, 0u);
  EXPECT_EQ(shared, report.regions_reused);
}

// Two threads refining from one solve artifact share its slots while each
// clones what it writes; both must land on the serial result. The
// sanitizer job runs this under TSan.
TEST(Session, ConcurrentRefinesOfOneArtifactMatchSerial) {
  const Pipeline pipe(0.5);
  const RoutingProblem p = pipe.problem();
  FlowSession session(p);
  const FlowResult serial = session.run(FlowKind::kGsino);
  const std::shared_ptr<const RegionSolveArtifact> solve = serial.phase2;

  std::vector<FlowState> states;
  states.push_back(session.state(*solve));
  states.push_back(session.state(*solve));
  std::vector<std::thread> workers;
  for (FlowState& st : states) {
    workers.emplace_back([&p, &st] { LocalRefiner(p).refine(st); });
  }
  for (std::thread& t : workers) t.join();

  const RefineArtifact& want = *serial.phase3;
  for (const FlowState& st : states) {
    EXPECT_EQ(st.violating, want.violating);
    EXPECT_EQ(st.net_lsk, *want.net_lsk);
    EXPECT_EQ(st.net_noise, *want.net_noise);
    EXPECT_EQ(solutions_hash(st.solutions), solutions_hash(*want.solutions));
    EXPECT_EQ(st.congestion->total_shields(), want.congestion->total_shields());
  }
}

// --------------------------------------------------------------- observer

TEST(Session, ObserverSeesStagesAndReuse) {
  const Pipeline pipe(0.3);
  const RoutingProblem p = pipe.problem();
  std::vector<StageEvent> events;
  SessionOptions opt;
  opt.observer = [&](const StageEvent& ev) {
    if (ev.region == kNoRegion) events.push_back(ev);
  };
  FlowSession session(p, opt);

  (void)session.run(FlowKind::kGsino);
  ASSERT_EQ(events.size(), 4u);  // route, budget, solve_regions, refine
  EXPECT_EQ(events[0].stage, Stage::kRoute);
  EXPECT_EQ(events[1].stage, Stage::kBudget);
  EXPECT_EQ(events[2].stage, Stage::kSolveRegions);
  EXPECT_EQ(events[3].stage, Stage::kRefine);
  for (const StageEvent& ev : events) EXPECT_FALSE(ev.reused);

  events.clear();
  Scenario sc;
  sc.bound_v = 0.20;
  (void)session.run(FlowKind::kGsino, sc);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_TRUE(events[0].reused);    // Phase I artifact served from cache
  EXPECT_FALSE(events[1].reused);   // new bound -> new budget
  EXPECT_FALSE(events[2].reused);
}

}  // namespace
}  // namespace rlcr::gsino
