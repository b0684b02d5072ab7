#!/usr/bin/env python3
"""Translation benchmark: the op x direction matrix through Xpiler.transcompile.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload untuned-matrix --seed 1 --seconds 30 --trace 0

It builds perfbench/xbench.exe from source (dune, build directory
.bench_build), then runs matrix passes, each a fresh process:

  --trace 0  untraced passes: at least MIN_PASSES, and as many as bring the
             translation time measured nearest to --seconds. Pass 0
             translates with --seed, later passes with seeds derived from
             it. Timings pool every pass; the outcome metrics pool the
             first MIN_PASSES, so they are exact functions of the seed.
             Prints every end-to-end metric.
  --trace 1  one untraced pass and one traced pass, both with --seed; the
             two must agree on every deterministic field. Prints every
             per-layer metric.

Every pass checks its accepted outputs against the operators' serial kernels
on the tree-walking reference engine, on inputs drawn from --seed.

Set-up time (--trace 0) is measured on separate --setup-only processes as
well as on the passes. Each metric is printed by name with its unit and sample count; the
last stdout line is one JSON object {correct, attempted, failed, metrics}.
Workloads and the layer -> end-to-end map are documented in
perfbench/WORKLOADS.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "xbench.exe")

WORKLOADS = ["untuned-matrix", "tuned-matrix", "faulty-matrix"]
# a seconds-long cut of the same machinery, used by the self-tests only
HIDDEN_WORKLOADS = ["smoke"]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("accepted_share", "ratio", "higher", 0.05),
    ("success_share", "ratio", "higher", 0.05),
    ("kernel_modelled_us_geomean", "us", "lower", 0.1),
    ("modelled_compile_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

VCLOCK_STAGES = [
    "annotation", "llm-transform", "static-analysis", "unit-test",
    "bug-localization", "smt-solving", "symbolic-fallback", "auto-tuning",
]

# (name, unit, better); the traced pass measures them, see WORKLOADS.md
PER_LAYER = [
    ("unit_test.runs", "count", "lower"),
    ("unit_test.wall_s", "s", "lower"),
    ("unit_test.share", "ratio", "lower"),
    ("interp.runs", "count", "lower"),
    ("interp.steps", "count", "lower"),
    ("interp.ns_per_step", "ns", "lower"),
    ("interp.alloc_words_per_step", "words", "lower"),
    ("compile_cache.hit_ratio", "ratio", "higher"),
    ("compile_cache.lookups", "count", "lower"),
    ("compile_cache.resets", "count", "lower"),
    ("llm.attempts", "count", "lower"),
    ("llm.wall_s", "s", "lower"),
    ("annotate.wall_s", "s", "lower"),
    ("analyzer.calls", "count", "lower"),
    ("analyzer.rejects", "count", "lower"),
    ("analyzer.wall_s", "s", "lower"),
    ("repair.calls", "count", "lower"),
    ("repair.success_ratio", "ratio", "higher"),
    ("repair.wall_s", "s", "lower"),
    ("repair.tests_run", "count", "lower"),
    ("repair.candidates", "count", "lower"),
    ("smt.queries", "count", "lower"),
    ("smt.steps", "count", "lower"),
    ("smt.memo_hit_ratio", "ratio", "higher"),
    ("ladder.reprompt", "count", "lower"),
    ("ladder.smt", "count", "lower"),
    ("ladder.symbolic", "count", "lower"),
    ("ladder.skip", "count", "lower"),
    ("mcts.wall_s", "s", "lower"),
    ("mcts.simulations", "count", "lower"),
    ("mcts.expansions", "count", "lower"),
    ("intra.variants", "count", "lower"),
    ("intra.pruned", "count", "higher"),
    ("costmodel.evals", "count", "lower"),
    ("costmodel.wall_s", "s", "lower"),
    ("transposition.hit_ratio", "ratio", "higher"),
    ("transposition.entries", "count", "lower"),
    ("transposition.evictions", "count", "lower"),
    ("schedule_db.hit_ratio", "ratio", "higher"),
    ("heap.top_mb", "MB", "lower"),
    ("checker.wall_s", "s", "lower"),
    ("codegen.wall_s", "s", "lower"),
    ("idiom.wall_s", "s", "lower"),
    ("self_attention.share", "ratio", "lower"),
] + [("vclock.%s_s" % s, "s", "lower") for s in VCLOCK_STAGES] + [
    ("explained_share", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# ledger rung names as Ledger.rung_name prints them
LADDER_RUNGS = {"ladder.reprompt": "reprompt", "ladder.smt": "smt-repair",
                "ladder.symbolic": "symbolic", "ladder.skip": "skip"}

# Counters allowed to differ between the untraced and the traced pass of one
# seed. The repairer's verdict memo bypasses itself while tracing is on
# (Repairer.reset_verdict_memo docs), so its lookups differ, and each
# bypassed verdict re-runs a kernel, which is one more compile-cache lookup.
TRACING_DEPENDENT = {
    "xpiler_repair_verdict_memo_lookups_total{result=hit}",
    "xpiler_repair_verdict_memo_lookups_total{result=miss}",
    "xpiler_compile_cache_lookups_total{result=hit}",
    "xpiler_compile_cache_lookups_total{result=miss}",
}

# the per-cell fields a pass must reproduce exactly, whatever the tracing
DETERMINISTIC_CELL_FIELDS = [
    "status", "digest", "vclock_s", "vclock", "kernel_us",
    "repairs_attempted", "repairs_succeeded", "llm_attempts",
]

ENV_VARS = ["XPILER_NATIVE", "XPILER_STORE_DIR", "XPILER_JOBS",
            "XPILER_MAX_DOMAINS", "XPILER_SOLVER", "XPILER_CACHE_DIR"]

SETUP_PROBES = 15
# every untraced run makes at least this many passes, and the outcome
# metrics (shares, modelled numbers) pool exactly the first this many, so
# that they are exact functions of the seed
MIN_PASSES = 3
# no pass starts that would be expected to end later than this into a run
RUN_BUDGET_S = 90
# every process is killed this long after the build, so a run ends in time
RUN_LIMIT_S = 170
deadline = math.inf


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The environment of every measured process: no XPILER_* overrides, and
    no cache or home directory outside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("XPILER_")}
    scratch = os.path.join(ROOT, BUILD_DIR, "home")
    env["HOME"] = scratch
    env["XDG_CACHE_HOME"] = os.path.join(scratch, ".cache")
    return env


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled",
           "./perfbench/xbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError("build failed to run: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        raise BenchError("build failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-4000:]))


def run_xbench(args, stdin=""):
    """Runs one xbench process; returns (spawn time, parsed last line)."""
    t_spawn = time.time()
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, env=child_env(), input=stdin,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError("xbench %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("xbench %s exited %d:\n%s"
                         % (" ".join(args), proc.returncode, proc.stderr[-4000:]))
    return t_spawn, json.loads(lines[-1])


def percentile(values, q):
    """Nearest rank."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def timing_metrics(passes):
    """Pooled over every pass of the run: each pass draws other faults, so a
    run averages over several draws of the heavy cells' repair work."""
    lat_ms = [c["latency_s"] * 1e3 for p in passes for c in p["cells"]]
    return {
        "cells_per_s": len(lat_ms) * 1e3 / sum(lat_ms),
        "latency_p50_ms": percentile(lat_ms, 0.50),
        "latency_p90_ms": percentile(lat_ms, 0.90),
        "peak_rss_mb": statistics.fmean(p["peak_rss_mb"] for p in passes),
    }


OUTCOME_METRICS = ["accepted_share", "success_share", "kernel_modelled_us_geomean",
                   "modelled_compile_s"]


def outcome_metrics(passes):
    """Deterministic for a seed: statuses, verdicts and modelled numbers."""
    cells = [c for p in passes for c in p["cells"]]
    accepted = [c for c in cells if c["status"] in ("success", "degraded")]
    timed = [c for c in cells if "vclock_s" in c]
    return {
        "accepted_share": sum(1 for c in accepted if c.get("verified", True)) / len(cells),
        "success_share": sum(1 for c in cells if c["status"] == "success") / len(cells),
        "kernel_modelled_us_geomean":
            statistics.geometric_mean(c["kernel_us"] for c in accepted) if accepted else 0.0,
        "modelled_compile_s": statistics.fmean(c["vclock_s"] for c in timed) if timed else 0.0,
    }


def compare_passes(ref, other, label):
    """Deterministic fields of two passes of one seed; returns differences."""
    diffs = []
    for a, b in zip(ref["cells"], other["cells"]):
        for f in DETERMINISTIC_CELL_FIELDS:
            if a.get(f) != b.get(f):
                diffs.append("%s %s: %r vs %r" % (a["case_id"], f, a.get(f), b.get(f)))
    if len(ref["cells"]) != len(other["cells"]):
        diffs.append("cell count %d vs %d" % (len(ref["cells"]), len(other["cells"])))
    if ref["rungs"] != other["rungs"]:
        diffs.append("ledger rungs %r vs %r" % (ref["rungs"], other["rungs"]))
    for k in sorted((set(ref["meters"]) | set(other["meters"])) - TRACING_DEPENDENT):
        if ref["meters"].get(k) != other["meters"].get(k):
            diffs.append("meter %s: %r vs %r" % (k, ref["meters"].get(k), other["meters"].get(k)))
    return ["%s: %s" % (label, d) for d in diffs]


def output_failures(p):
    """Cells that raised or whose accepted output failed the reference check."""
    bad = []
    for c in p["cells"]:
        if c["status"] == "raised":
            bad.append("%s raised %s" % (c["case_id"], c["error"]))
        elif c.get("verified") is False:
            bad.append("%s wrong output: %s" % (c["case_id"], c["verify_error"]))
    return bad


def setup_samples(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        t_spawn, out = run_xbench(["--workload", workload, "--seed", str(seed), "--setup-only"])
        samples.append(out["first_cell_at"] - t_spawn)
    return samples


def pass_seed(seed, i):
    """Pass 0 translates with the run's seed; later passes with seeds derived
    from it, so a run averages over several draws of the simulated LLM."""
    return seed if i == 0 else seed * 1000 + i


def run_pass(workload, seed, i, known, extra=()):
    """One untraced pass; its accepted outputs are checked on inputs from the
    run's seed, skipping (op, digest) pairs an earlier pass already checked."""
    args = ["--workload", workload, "--seed", str(pass_seed(seed, i)),
            "--verify", str(seed)] + list(extra)
    t_spawn, p = run_xbench(args, stdin="".join("%s %s\n" % k for k in sorted(known)))
    for c in p["cells"]:
        if c.get("verified"):
            known.add((c["op"], c["digest"]))
    return p["first_cell_at"] - t_spawn, p


def measure_untraced(workload, seed, seconds, corrupt):
    """At least MIN_PASSES passes; then more while that brings the measured
    translation time nearer to `seconds`, within the run's time budget."""
    passes, setups, known = [], [], set()
    started = time.time()
    while True:
        measured = sum(p["loop_wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES:
            mean = measured / len(passes)
            if measured + mean / 2 >= seconds or time.time() - started + mean > RUN_BUDGET_S:
                return passes, setups
        extra = ["--corrupt"] if corrupt and not passes else []
        setup, p = run_pass(workload, seed, len(passes), known, extra)
        setups.append(setup)
        passes.append(p)


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + HIDDEN_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt the first accepted output before the check")
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    print("perfbench: workload=%s seed=%d seconds=%g trace=%d"
          % (a.workload, a.seed, a.seconds, a.trace))
    for v in ENV_VARS:
        print("  env %s=%s (cleared for the measured processes)"
              % (v, os.environ.get(v, "<unset>")))
    print("  config: jobs=1, native backend off, store_dir=None, trace/profile off "
          "except in the traced pass; one closed-loop client, fresh process per pass")

    build()
    global deadline
    deadline = time.time() + RUN_LIMIT_S
    problems = []
    if a.trace == 0:
        setups = setup_samples(a.workload, a.seed)
        passes, pass_setups = measure_untraced(a.workload, a.seed, a.seconds, a.corrupt)
    else:
        passes = [run_pass(a.workload, a.seed, 0, set(), ["--corrupt"] if a.corrupt else [])[1]]
    ref = passes[0]
    failures = [f for p in passes for f in output_failures(p)]
    if ref["corrupted"]:
        print("  corrupted output on purpose: %s" % ref["corrupted"])
    attempted = sum(len(p["cells"]) for p in passes)
    n_cells = len(ref["cells"])

    if a.trace == 0:
        values = timing_metrics(passes)
        values.update(outcome_metrics(passes[:MIN_PASSES]))
        values["setup_s"] = statistics.median(setups + pass_setups)
        pooled = "%d cells x %d passes" % (n_cells, len(passes))
        counts = {k: pooled for k in values}
        for k in OUTCOME_METRICS:
            counts[k] = "%d cells x %d passes" % (n_cells, min(len(passes), MIN_PASSES))
        counts["setup_s"] = "%d process starts" % (len(setups) + len(pass_setups))
        counts["peak_rss_mb"] = "%d passes, mean" % len(passes)
        table = [(name, unit) for name, unit, _, _ in END_TO_END]
    else:
        tp = run_xbench(["--workload", a.workload, "--seed", str(a.seed), "--trace"])[1]
        attempted += len(tp["cells"])
        failures += ["traced pass: %s" % f for f in output_failures(tp)]
        problems += compare_passes(ref, tp, "untraced vs traced")
        values = dict(tp["layers"])
        for name, rung in LADDER_RUNGS.items():
            values[name] = tp["rungs"][rung]
        timed = [c for c in tp["cells"] if "vclock" in c]
        for s in VCLOCK_STAGES:
            stage = [c["vclock"][s] for c in timed]
            values["vclock.%s_s" % s] = statistics.fmean(stage) if stage else 0.0
        values["trace.overhead_ratio"] = tp["loop_wall_s"] / ref["loop_wall_s"]
        counts = {k: "%d cells, traced pass" % n_cells for k in values}
        table = [(name, unit) for name, unit, _ in PER_LAYER]

    for f in failures:
        print("FAILED CELL %s" % f)
    for d in problems:
        print("DETERMINISM FAILURE %s" % d)
        log("DETERMINISM FAILURE %s" % d)
    metrics = {}
    for name, unit in table:
        metrics[name] = {"value": values[name], "unit": unit}
        print("%-32s %14s %-6s (n = %s)" % (name, fmt(values[name]), unit, counts[name]))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
