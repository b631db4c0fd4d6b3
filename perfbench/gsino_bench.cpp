// GSINO benchmark program: one closed-loop workload on the full-size ibm01
// ISPD98 class, driven through the public FlowSession API.
//
//   gsino_bench --mode cold|whatif|eco --threads N --trace 0|1
//               [--setup-reps K]
//               [--ops M]                   (cold: the op count)
//               [--bounds b1,b2,...]        (whatif: one op per bound)
//               [--delta-seeds s1,s2,...]   (eco: one op per delta)
//
// The op count is fixed by the arguments, never by the clock, so every run
// of a workload does the same work (peak RSS and the slowest op compare
// like with like).
//
// The inputs (bound permutation, delta seeds) are generated by run.py from
// the workload seed; this program only executes them. It prints one JSON
// report line on stdout: set-up samples, one record per op (wall and CPU
// seconds, and with --trace 1 the per-layer span metrics), the quality of
// the final state, and the differential check of the last op. run.py turns
// the report into the benchmark's metrics.
//
// Modes (one client, no think time; every layer at --threads):
//   cold    op = a fresh session: GSINO route -> budget -> solve_regions ->
//           refine at 0.15 V; the set-up repetitions run before every op
//   whatif  set-up runs GSINO at 0.15 V, routing serially; op = the same
//           stages at one bound of the permutation (route is a cache hit)
//   eco     set-up as whatif; op = apply_delta(random_delta) then the GSINO
//           stages on the mutated session
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.h"
#include "core/session.h"
#include "netlist/ispd98_synth.h"
#include "router/route_types.h"
#include "scenario/delta.h"
#include "span_trace.h"

using namespace rlcr;
using gsino::FlowKind;
using gsino::FlowResult;
using gsino::FlowSession;
using gsino::RoutingProblem;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

constexpr double kBaseBound = 0.15;  // the paper's bound; set-up flow
constexpr std::size_t kDeltaChanges = 6;

struct Args {
  std::string mode;
  int threads = 1;
  bool trace = false;
  int setup_reps = 3;
  int ops = 1;
  std::vector<double> bounds;
  std::vector<std::uint64_t> delta_seeds;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "gsino_bench: %s\n", msg);
  std::exit(2);
}

template <typename T, typename Parse>
std::vector<T> parse_list(const char* s, Parse parse) {
  std::vector<T> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      out.push_back(parse(item));
    } catch (const std::exception&) {
      usage("malformed list value");
    }
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--mode")) {
      a.mode = next();
    } else if (!std::strcmp(argv[i], "--threads")) {
      a.threads = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--trace")) {
      a.trace = std::atoi(next()) != 0;
    } else if (!std::strcmp(argv[i], "--setup-reps")) {
      a.setup_reps = std::max(1, std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--ops")) {
      a.ops = std::max(1, std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--bounds")) {
      a.bounds = parse_list<double>(
          next(), [](const std::string& s) { return std::stod(s); });
    } else if (!std::strcmp(argv[i], "--delta-seeds")) {
      a.delta_seeds = parse_list<std::uint64_t>(
          next(), [](const std::string& s) { return std::stoull(s); });
    } else {
      usage("unknown argument");
    }
  }
  if (a.mode != "cold" && a.mode != "whatif" && a.mode != "eco") {
    usage("unknown --mode");
  }
  if (a.threads < 1) usage("--threads must be >= 1");
  if (a.mode == "whatif" && a.bounds.empty()) usage("--bounds needed");
  if (a.mode == "eco" && a.delta_seeds.empty()) usage("--delta-seeds needed");
  return a;
}

/// Flat name -> value record, printed as a JSON object.
using Record = std::map<std::string, double>;

std::string json(const Record& r) {
  std::string out = "{";
  char buf[64];
  for (const auto& [k, v] : r) {
    if (out.size() > 1) out += ',';
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += '"' + k + "\":" + buf;
  }
  return out + "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ set-up

struct Instance {
  netlist::Netlist design;
  grid::RegionGridSpec gspec;
  std::string source;
};

gsino::GsinoParams params_at(int threads) {
  gsino::GsinoParams p;
  p.crosstalk_bound_v = kBaseBound;
  p.threads = threads;
  p.router.threads = threads;
  return p;
}

gsino::RefineOptions refine_at(int threads) {
  gsino::RefineOptions r;
  r.threads = threads;
  return r;
}

/// Build the ibm01 instance and assemble its RoutingProblem, timing both
/// (the cheap, repeatable half of set-up).
std::unique_ptr<RoutingProblem> build_problem(int threads, SpanRecorder& rec,
                                              Record& sample, Instance& inst) {
  const double t0 = perfbench::wall_now();
  int netlist_span = -1;
  {
    ScopedSpan sp(rec, "netlist", -1);
    netlist_span = sp.id();
    const auto classes = netlist::ispd98_classes(1.0);
    const netlist::Ispd98ClassSpec* spec =
        netlist::find_ispd98_class(classes, "ibm01");
    netlist::Ispd98Instance built = netlist::make_ispd98_instance(*spec);
    inst.design = std::move(built.design);
    inst.gspec = built.gspec;
    inst.source = built.source;
  }
  const double t1 = perfbench::wall_now();
  std::unique_ptr<RoutingProblem> problem;
  int problem_span = -1;
  {
    ScopedSpan sp(rec, "core.problem", -1);
    problem_span = sp.id();
    problem = std::make_unique<RoutingProblem>(inst.design, inst.gspec,
                                               params_at(threads));
  }
  const double t2 = perfbench::wall_now();
  sample["netlist.build_s"] = t1 - t0;
  sample["core.problem_s"] = t2 - t1;
  sample["build_s"] = t2 - t0;
  if (problem_span >= 0) {
    const auto& s = rec.spans()[static_cast<std::size_t>(problem_span)];
    sample["core.problem_rss_mib"] = s.rss_peak_mib - s.rss_start_mib;
    sample["netlist.self_s"] = rec.self_s(netlist_span);
    sample["core.problem.self_s"] = rec.self_s(problem_span);
  }
  return problem;
}

// --------------------------------------------------------------- quality

Record quality_of(const FlowResult& fr) {
  Record q;
  q["violations"] = static_cast<double>(fr.violating);
  q["shields"] = fr.total_shields;
  q["wirelength_um"] = fr.total_wirelength_um;
  q["overflow"] = fr.congestion->total_overflow();
  double worst = 0.0;
  for (const double v : fr.net_noise()) worst = std::max(worst, v);
  q["noise_peak"] = worst / fr.bound_v;
  return q;
}

// ------------------------------------------------------------- GSINO op

/// One layer call: wall/CPU/RSS from its span (traced runs only).
void layer_times(const SpanRecorder& rec, int id, const std::string& layer,
                 int threads, bool idle, Record& out) {
  if (id < 0) return;
  const perfbench::Span& s = rec.spans()[static_cast<std::size_t>(id)];
  out[layer + ".wall_s"] = s.wall_s();
  out[layer + ".self_s"] = rec.self_s(id);
  out[layer + ".cpu_s"] = s.cpu_s();
  out[layer + ".rss_peak_mib"] = s.rss_peak_mib;
  if (idle) out[layer + ".idle_core_s"] = threads * s.wall_s() - s.cpu_s();
}

/// route -> budget -> solve_regions -> refine at `bound`, each call under
/// its layer span; returns the assembled result (a cache-hit run() after
/// the stages, outside the layer spans).
FlowResult gsino_stages(FlowSession& session, double bound, int threads,
                        SpanRecorder& rec, int op, Record& out) {
  const gsino::GsinoParams& params = session.problem().params();
  const gsino::RefineOptions ropt = refine_at(threads);
  const gsino::StageCounters c0 = session.counters();

  std::shared_ptr<const gsino::RoutingArtifact> routed;
  int id = -1;
  {
    ScopedSpan sp(rec, "router", op);
    id = sp.id();
    routed = session.route(FlowKind::kGsino);
  }
  const gsino::StageCounters c1 = session.counters();
  layer_times(rec, id, "router", threads, true, out);
  const bool routed_here = c1.route_executed > c0.route_executed;
  const router::RoutingStats& rs = routed->routing->stats;
  const double spec_att =
      static_cast<double>(c1.route_spec_attempted - c0.route_spec_attempted);
  out["router.edges_deleted"] = routed_here ? rs.edges_deleted : 0.0;
  out["router.rsmt_fallback_nets"] = routed_here ? rs.rsmt_fallback_nets : 0.0;
  out["router.spec_attempted"] = spec_att;
  out["router.spec_commit_rate"] = ratio(
      static_cast<double>(c1.route_spec_committed - c0.route_spec_committed),
      spec_att);
  out["router.cache_hit_rate"] =
      routed_here ? 0.0 : 1.0;  // one route request per op

  std::shared_ptr<const gsino::BudgetArtifact> budget;
  {
    ScopedSpan sp(rec, "core.budget", op);
    id = sp.id();
    budget = session.budget(FlowKind::kGsino, routed, bound,
                            params.budget_margin);
  }
  if (id >= 0) {
    out["core.budget_s"] = rec.spans()[static_cast<std::size_t>(id)].wall_s();
    out["core.budget.self_s"] = rec.self_s(id);
  }

  std::shared_ptr<const gsino::RegionSolveArtifact> solved;
  {
    ScopedSpan sp(rec, "sino", op);
    id = sp.id();
    solved = session.solve_regions(FlowKind::kGsino, routed, budget,
                                   params.anneal_phase2);
  }
  const gsino::StageCounters c2 = session.counters();
  layer_times(rec, id, "sino", threads, true, out);
  double instances = 0.0;
  if (c2.solve_executed > c1.solve_executed) {
    for (const auto& sol : *solved->solutions) instances += sol.empty() ? 0 : 1;
  }
  out["sino.instances"] = instances;

  std::shared_ptr<const gsino::RefineArtifact> refined;
  {
    ScopedSpan sp(rec, "core.refine", op);
    id = sp.id();
    refined = session.refine(solved, ropt);
  }
  layer_times(rec, id, "core.refine", threads, false, out);
  const gsino::RefineStats& st = refined->stats;
  const double pass2 = st.pass2_accepted + st.pass2_rejected;
  out["core.refine.pass1_resolves"] = st.pass1_resolves;
  out["core.refine.pass1_gave_up"] = st.pass1_gave_up;
  out["core.refine.pass2_iters"] = pass2;
  out["core.refine.pass2_accept_rate"] = ratio(st.pass2_accepted, pass2);
  out["core.refine.pass2_cap_hit"] = pass2 >= params.lr_max_outer_pass2 ? 1 : 0;

  gsino::Scenario sc;
  sc.bound_v = bound;
  sc.refine = ropt;
  return session.run(FlowKind::kGsino, sc);
}

// ------------------------------------------------------------- workloads

/// What the check and the quality figures need from one finished op. The
/// op's artifacts are released as soon as this is taken, so no op runs
/// while the previous one's are still alive.
struct OpResult {
  Record quality;
  std::uint64_t route_hash = 0;
  std::uint64_t state = 0;
  double bound = kBaseBound;
};

OpResult summarize(const FlowResult& fr) {
  OpResult r;
  r.quality = quality_of(fr);
  r.route_hash = router::route_hash(fr.routing());
  r.state = gsino::state_fingerprint(fr);
  r.bound = fr.bound_v;
  return r;
}

struct Outcome {
  std::vector<Record> setup;  ///< one sample per set-up repetition
  std::vector<Record> ops;    ///< one record per op
  double first_flow_s = 0.0;  ///< whatif / eco: the cache-filling flow
  Record quality;             ///< final state (whatif: mean over the pass)
  bool check_ok = false;
  std::string check_detail;
  double peak_rss_mib = 0.0;  ///< process peak over set-up and ops
  std::string source;
  std::string spans;  ///< JSON array of every recorded span (traced runs)
};

/// The recorder's spans as a JSON array, times relative to the first span.
std::string spans_json(const SpanRecorder& rec) {
  std::string out = "[";
  const double t0 = rec.spans().empty() ? 0.0 : rec.spans().front().start_s;
  for (const perfbench::Span& sp : rec.spans()) {
    if (out.size() > 1) out += ',';
    out += "{\"name\":\"" + sp.name + "\"," +
           json({{"parent", sp.parent},
                 {"op", sp.op},
                 {"start_s", sp.start_s - t0},
                 {"end_s", sp.end_s - t0},
                 {"cpu_s", sp.cpu_s()},
                 {"rss_peak_mib", sp.rss_peak_mib}})
               .substr(1);
  }
  return out + "]";
}

/// A from-scratch reference over `problem`: a fresh session, Phase I at
/// `route_threads`, then GSINO with Phase II/III at the problem's threads.
/// Thread counts never change output, so the checks run Phase I serially
/// (faster than the speculative path) and the rest at nproc.
FlowResult from_scratch(const RoutingProblem& problem, double bound,
                        int route_threads) {
  FlowSession fresh(problem);
  router::IdRouterOptions ropt = fresh.router_profile(FlowKind::kGsino);
  ropt.threads = route_threads;
  fresh.route(ropt, FlowKind::kGsino);
  gsino::Scenario sc;
  sc.bound_v = bound;
  sc.refine = refine_at(problem.params().threads);
  return fresh.run(FlowKind::kGsino, sc);
}

class Runner {
 public:
  explicit Runner(const Args& a) : args_(a), rec_(a.trace) {}

  Outcome run() {
    if (args_.mode == "cold") {
      cold_flow();
    } else {
      const std::unique_ptr<RoutingProblem> problem = setup();
      // Set-up's second half: the session and its cache-filling first flow.
      // The what-if session caches two entries per stage, so every query
      // recomputes budget / solve / refine while the one routing artifact
      // stays hot. Phase I routes serially: its output is the same at any
      // thread count, and the serial router has none of the speculative
      // router's run-to-run tail, which one set-up sample would carry whole.
      gsino::SessionOptions so;
      if (args_.mode == "whatif") so.cache_entries = 2;
      FlowSession session(*problem, so);
      const double t0 = perfbench::wall_now();
      router::IdRouterOptions ropt = session.router_profile(FlowKind::kGsino);
      ropt.threads = 1;
      session.route(ropt, FlowKind::kGsino);
      Record ignored;
      gsino_stages(session, kBaseBound, args_.threads, rec_, -1, ignored);
      out_.first_flow_s = perfbench::wall_now() - t0;
      if (args_.mode == "whatif") {
        whatif(session);
      } else {
        eco(session);
      }
    }
    std::fprintf(stderr, "gsino_bench: done at %.2f s\n", elapsed());
    out_.spans = spans_json(rec_);
    return std::move(out_);
  }

 private:
  /// Time one op: wall + CPU always, the layer spans when tracing. `body`
  /// returns the op's result; a throw counts the op as failed. A
  /// successful op becomes last_.
  template <typename Body>
  bool timed_op(Body body) {
    const int op = static_cast<int>(out_.ops.size());
    Record r;
    const double o0 = rec_.overhead_s();
    const double c0 = perfbench::cpu_now();
    const double t0 = perfbench::wall_now();
    std::optional<FlowResult> result;
    int root = -1;
    try {
      ScopedSpan sp(rec_, "op", op);
      root = sp.id();
      result = body(op, r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %d failed: %s\n", op, e.what());
    }
    r["op.wall_s"] = perfbench::wall_now() - t0;
    r["op.cpu_s"] = perfbench::cpu_now() - c0;
    r["op.ok"] = result ? 1 : 0;
    if (root >= 0) {
      r["op.span_s"] = rec_.spans()[static_cast<std::size_t>(root)].wall_s();
      r["bench.self_s"] = rec_.self_s(root);
      r["trace.overhead_s"] = rec_.overhead_s() - o0;
    }
    out_.ops.push_back(std::move(r));
    if (result) last_ = summarize(*result);
    return result.has_value();
  }

  double elapsed() const { return perfbench::wall_now() - start_; }

  /// --setup-reps timed builds of the instance and its problem, each one a
  /// set-up sample; returns the last problem.
  std::unique_ptr<RoutingProblem> setup() {
    std::unique_ptr<RoutingProblem> problem;
    for (int i = 0; i < args_.setup_reps; ++i) {
      Record sample;
      problem = build_problem(args_.threads, rec_, sample, inst_);
      out_.setup.push_back(std::move(sample));
    }
    out_.source = inst_.source;
    return problem;
  }

  /// The instance's problem with every layer at nproc: the checks' base.
  RoutingProblem wide_problem() const {
    const int nproc =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    return RoutingProblem(inst_.design, inst_.gspec, params_at(nproc));
  }

  /// Close the timed part: record the process peak and the last successful
  /// op's quality. False when no op succeeded (nothing to check).
  bool finish() {
    std::fprintf(stderr, "gsino_bench: %zu ops in %.2f s\n", out_.ops.size(),
                 elapsed());
    out_.peak_rss_mib = perfbench::peak_rss_mib();
    if (!last_) {
      out_.check_detail = "no op succeeded";
      return false;
    }
    out_.quality = last_->quality;
    return true;
  }

  /// The differential check of the last successful op against `want`.
  void check(const FlowResult& want) {
    const std::uint64_t route = router::route_hash(want.routing());
    const std::uint64_t state = gsino::state_fingerprint(want);
    char buf[160];
    std::snprintf(buf, sizeof buf, "route %016llx/%016llx state %016llx/%016llx",
                  static_cast<unsigned long long>(last_->route_hash),
                  static_cast<unsigned long long>(route),
                  static_cast<unsigned long long>(last_->state),
                  static_cast<unsigned long long>(state));
    out_.check_detail = buf;
    out_.check_ok = last_->route_hash == route && last_->state == state;
  }

  /// Each op runs on a problem built just before it, outside the op: the
  /// set-up samples are spread over the run instead of taken in one burst.
  void cold_flow() {
    start_ = perfbench::wall_now();
    for (int i = 0; i < args_.ops; ++i) {
      const std::unique_ptr<RoutingProblem> problem = setup();
      timed_op([&](int op, Record& r) {
        FlowSession session(*problem);
        return gsino_stages(session, kBaseBound, args_.threads, rec_, op, r);
      });
    }
    if (!finish()) return;
    // Thread-count bit-identity: a fresh session with every layer at nproc.
    const RoutingProblem wide = wide_problem();
    check(from_scratch(wide, kBaseBound, wide.params().router.threads));
  }

  void whatif(FlowSession& session) {
    std::vector<Record> pass_quality;
    start_ = perfbench::wall_now();
    for (const double bound : args_.bounds) {
      const bool ok = timed_op([&](int op, Record& r) {
        return gsino_stages(session, bound, args_.threads, rec_, op, r);
      });
      if (ok) pass_quality.push_back(last_->quality);
    }
    if (!finish()) return;
    // Quality over the whole pass of the ladder: the mean of each figure
    // (the peak for noise), so it does not depend on the order.
    Record q;
    for (const Record& pq : pass_quality) {
      for (const auto& [k, v] : pq) {
        if (k == "noise_peak") {
          q[k] = std::max(q[k], v);
        } else {
          q[k] += v / static_cast<double>(pass_quality.size());
        }
      }
    }
    out_.quality = q;
    check(from_scratch(wide_problem(), last_->bound, 1));
  }

  void eco(FlowSession& session) {
    std::vector<scenario::NetlistDelta> chain;
    start_ = perfbench::wall_now();
    for (const std::uint64_t seed : args_.delta_seeds) {
      const scenario::NetlistDelta delta =
          scenario::random_delta(session.problem(), seed, kDeltaChanges);
      timed_op([&](int op, Record& r) {
        scenario::DeltaReport rep;
        int id = -1;
        {
          ScopedSpan sp(rec_, "scenario", op);
          id = sp.id();
          rep = session.apply_delta(delta);
        }
        chain.push_back(delta);
        layer_times(rec_, id, "scenario", args_.threads, false, r);
        const double nets =
            static_cast<double>(rep.nets_rerouted + rep.nets_reused);
        const double regions =
            static_cast<double>(rep.regions_solved + rep.regions_reused);
        r["scenario.nets_rerouted"] = static_cast<double>(rep.nets_rerouted);
        r["scenario.splice_rate"] =
            ratio(static_cast<double>(rep.nets_reused), nets);
        r["scenario.regions_solved"] = static_cast<double>(rep.regions_solved);
        r["scenario.region_reuse_rate"] =
            ratio(static_cast<double>(rep.regions_reused), regions);
        return gsino_stages(session, kBaseBound, args_.threads, rec_, op, r);
      });
    }
    if (!finish()) return;
    // Incremental == from scratch: replay the chain on the original problem.
    RoutingProblem scratch = wide_problem();
    for (const scenario::NetlistDelta& d : chain) {
      scratch = scenario::apply_delta(scratch, d);
    }
    check(from_scratch(scratch, kBaseBound, 1));
  }

  const Args& args_;
  SpanRecorder rec_;
  Instance inst_;
  Outcome out_;
  std::optional<OpResult> last_;  ///< the last successful op
  double start_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Outcome out;
  try {
    out = Runner(args).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gsino_bench: %s\n", e.what());
    return 1;
  }

  std::string setup = "[", ops = "[";
  for (const Record& s : out.setup) setup += (setup.size() > 1 ? "," : "") + json(s);
  for (const Record& o : out.ops) ops += (ops.size() > 1 ? "," : "") + json(o);
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::printf(
      "{\"mode\":\"%s\",\"threads\":%d,\"build_type\":\"%s\","
      "\"source\":\"%s\",\"setup\":%s],\"ops\":%s],\"quality\":%s,"
      "\"first_flow_s\":%.17g,\"check_ok\":%s,\"check_detail\":\"%s\","
      "\"peak_rss_mib\":%.17g,\"spans\":%s}\n",
      args.mode.c_str(), args.threads, build_type,
      json_escape(out.source).c_str(), setup.c_str(), ops.c_str(),
      json(out.quality).c_str(), out.first_flow_s,
      out.check_ok ? "true" : "false", json_escape(out.check_detail).c_str(),
      out.peak_rss_mib, out.spans.c_str());
  return 0;
}
