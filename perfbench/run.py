#!/usr/bin/env python3
"""GSINO benchmark: cold flow, what-if bound queries and ECO deltas on the
full-size ibm01 ISPD98 class, timed end to end and (with --trace 1) per layer.

Run from the repository root:

    python3 perfbench/run.py --workload cold_flow_t1 --seed 1 --seconds 25 --trace 0

The first run builds the library and gsino_bench (perfbench/CMakeLists.txt)
into .bench_build/perfbench; later runs rebuild only what changed. The seed
is the only workload input: it is turned here into the bound permutation
(whatif_bounds) and the random_delta seed chain (eco_deltas_t1), and
gsino_bench executes exactly those. A run makes a fixed number of ops per
workload, whatever --seconds says (BENCHMARK.json's run_seconds is about
what they take), so every run does the same work. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; the lines before it record provenance and the run's raw quality
counts. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "gsino_bench")

# The what-if bound ladder (volts). 0.15 V is the set-up flow's bound, so it
# is left out: every query is a cache miss below the shared routing.
LADDER = [0.10, 0.125, 0.20]


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# name: (gsino_bench mode, threads, ops per run, set-up repetitions; cold
# repeats them before every op). whatif makes one op per rung of the
# ladder. op_p50_s is the ops' median; setup_s is the median of the
# instance + problem builds, plus the one cache-filling first flow of
# whatif / eco.
WORKLOADS = {
    "cold_flow_t1": ("cold", 1, 3, 8),
    "whatif_bounds": ("whatif", nproc(), len(LADDER), 3),
    "eco_deltas_t1": ("eco", 1, 3, 3),
}
# A run must end within 180 s; this caps the measured process.
PROGRAM_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mib": "MiB",
    "noise_peak": "ratio",
    "shields": "count",
    "wirelength_um": "um",
    "overflow": "tracks",
}

PER_LAYER = {
    "netlist.build_s": "s",
    "netlist.self_s": "s",
    "core.problem_s": "s",
    "core.problem_rss_mib": "MiB",
    "core.problem.self_s": "s",
    "router.wall_s": "s",
    "router.cpu_s": "s",
    "router.idle_core_s": "s",
    "router.rss_peak_mib": "MiB",
    "router.edges_deleted": "count",
    "router.spec_attempted": "count",
    "router.spec_commit_rate": "ratio",
    "router.rsmt_fallback_nets": "count",
    "router.cache_hit_rate": "ratio",
    "router.self_s": "s",
    "core.budget_s": "s",
    "core.budget.self_s": "s",
    "sino.wall_s": "s",
    "sino.cpu_s": "s",
    "sino.idle_core_s": "s",
    "sino.rss_peak_mib": "MiB",
    "sino.instances": "count",
    "sino.self_s": "s",
    "core.refine.wall_s": "s",
    "core.refine.cpu_s": "s",
    "core.refine.rss_peak_mib": "MiB",
    "core.refine.pass1_resolves": "count",
    "core.refine.pass1_gave_up": "count",
    "core.refine.pass2_iters": "count",
    "core.refine.pass2_accept_rate": "ratio",
    "core.refine.pass2_cap_hit": "count",
    "core.refine.self_s": "s",
    "scenario.wall_s": "s",
    "scenario.cpu_s": "s",
    "scenario.nets_rerouted": "count",
    "scenario.splice_rate": "ratio",
    "scenario.regions_solved": "count",
    "scenario.region_reuse_rate": "ratio",
    "scenario.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead": "ratio",
}

# The layer spans an op span may have as direct children, and the metric
# holding each one's wall time.
OP_LAYERS = {"router": "router.wall_s", "core.budget": "core.budget_s",
             "sino": "sino.wall_s", "core.refine": "core.refine.wall_s",
             "scenario": "scenario.wall_s"}
# Largest share of an op its layer spans may leave uncovered (the op's own
# bookkeeping: session construction and teardown, result assembly); about
# 0.05% today.
MAX_BENCH_SELF_SHARE = 0.01
SETUP_LAYERS = {"netlist.build_s", "netlist.self_s", "core.problem_s",
                "core.problem_rss_mib", "core.problem.self_s"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no rlcr sources next to perfbench/ (CMakeLists.txt, src/)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "gsino_bench",
           "-j", str(nproc())]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")


def workload_inputs(workload, seed):
    """The generated inputs of one run: everything derives from the seed."""
    mode = WORKLOADS[workload][0]
    rng = random.Random(f"{mode}:{seed}")
    if mode == "whatif":
        perm = rng.sample(LADDER, len(LADDER))
        return ["--bounds", ",".join(repr(b) for b in perm)]
    if mode == "eco":
        seeds = [rng.getrandbits(63) for _ in range(WORKLOADS[workload][2])]
        return ["--delta-seeds", ",".join(str(s) for s in seeds)]
    return []


def source_digest():
    """sha256 over the library and benchmark sources (a source tree outside
    git has no commit to report)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_program(args):
    mode, threads, ops, setup_reps = WORKLOADS[args.workload]
    cmd = [PROGRAM, "--mode", mode, "--threads", str(threads),
           "--trace", str(args.trace), "--ops", str(ops),
           "--setup-reps", str(setup_reps)]
    cmd += workload_inputs(args.workload, args.seed)
    env = {k: v for k, v in os.environ.items()
           if k not in ("RLCR_ISPD98_DIR", "RLCR_THREADS", "RLCR_TRACE")}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("gsino_bench timed out")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"gsino_bench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(records, key):
    return statistics.median(r.get(key, 0.0) for r in records)


def end_to_end(report):
    ops = report["ops"]
    walls = [o["op.wall_s"] for o in ops]
    q = report["quality"]
    values = {
        "setup_s": median_of(report["setup"], "build_s")
                   + report["first_flow_s"],
        "op_p50_s": statistics.median(walls),
        "op_max_s": max(walls),
        "cpu_per_op_s": sum(o["op.cpu_s"] for o in ops) / len(ops),
        "peak_rss_mib": report["peak_rss_mib"],
        "noise_peak": q["noise_peak"],
        "shields": q["shields"],
        "wirelength_um": q["wirelength_um"],
        "overflow": q["overflow"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(report):
    ops = report["ops"]
    values = {}
    for name in PER_LAYER:
        if name in SETUP_LAYERS:
            values[name] = median_of(report["setup"], name)
        elif name == "trace.overhead":
            values[name] = statistics.median(
                o["trace.overhead_s"] / (o["op.span_s"] - o["trace.overhead_s"])
                for o in ops)
        else:
            values[name] = median_of(ops, name)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def layers_cover_ops(report):
    """Per traced op that succeeded: every direct child span of the op is a
    layer of OP_LAYERS, the layer wall times plus bench.self_s equal the op's
    wall time as clocked outside its span (to 1%), and bench.self_s stays
    under MAX_BENCH_SELF_SHARE of the op."""
    spans = report["spans"]
    for i, sp in enumerate(spans):
        if sp["name"] != "op":
            continue
        o = report["ops"][int(sp["op"])]
        if o["op.ok"] != 1:
            continue
        children = {c["name"] for c in spans if c["parent"] == i}
        if not children <= OP_LAYERS.keys():
            print(f"perfbench: op {int(sp['op'])} has spans outside the "
                  f"layers: {sorted(children - OP_LAYERS.keys())}",
                  file=sys.stderr)
            return False
        total = sum(o.get(k, 0.0) for k in OP_LAYERS.values())
        total += o["bench.self_s"]
        wall = o["op.wall_s"]
        if (abs(total - wall) > 0.01 * wall
                or o["bench.self_s"] > MAX_BENCH_SELF_SHARE * wall):
            print(f"perfbench: op {int(sp['op'])}: layers + bench.self_s = "
                  f"{total:.4f} s, bench.self_s = {o['bench.self_s']:.4f} s, "
                  f"op wall = {wall:.4f} s", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="the benchmark interface's run length; the op "
                         "count per workload is fixed and does not follow it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    report = run_program(args)
    if report["build_type"] != "release":
        fail("refusing to record from a build without NDEBUG "
             f"({report['build_type']}); rebuild with CMAKE_BUILD_TYPE=Release")
    if not report["quality"]:
        fail(f"no op succeeded ({report['check_detail']})")

    ops = report["ops"]
    failed = sum(1 for o in ops if o["op.ok"] != 1)
    if not report["check_ok"]:
        failed += 1  # the last op failed its differential check
    failed = min(failed, len(ops))
    correct = failed == 0 and (not args.trace or layers_cover_ops(report))

    provenance = {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": nproc(),
        "threads": WORKLOADS[args.workload][1],
        "cpu_model": cpu_model(),
        "build_type": report["build_type"],
        "instance": f"ibm01 ({report['source']})",
        "workload": args.workload,
        "seed": args.seed,
        "inputs": workload_inputs(args.workload, args.seed)[1:],
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    q = report["quality"]
    print(f"{args.workload}: ops {len(ops)} failed {failed} "
          f"fail_rate {failed / len(ops):g} "
          f"violations {q.get('violations', float('nan')):g} "
          f"check {'ok' if report['check_ok'] else 'MISMATCH'} "
          f"({report['check_detail']})")
    if args.trace:
        path = os.path.join(BUILD_DIR, f"spans_{args.workload}_{args.seed}.json")
        with open(path, "w") as f:
            json.dump(report["spans"], f)
        print(f"spans: {os.path.relpath(path, ROOT)}")
    metrics = per_layer(report) if args.trace else end_to_end(report)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
