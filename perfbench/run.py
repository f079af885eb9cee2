#!/usr/bin/env python3
"""Repository benchmark: host wall-clock and successful placements per
second of the full Quasar stack on three workloads, with simulated-
outcome guards and a traced per-layer breakdown.

    python3 perfbench/run.py [--workload churn-14k|replay-azure|crowd-1.6k|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each call first builds perfbench/ (the
quasar library from src/ plus the harness) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

A run of a workload simulates a fixed set of streams: the --seed
stream plus K-1 more whose seeds are derived from it (K per workload
below), one fresh harness process each, and repeats that set while another
whole repetition fits in --seconds. Host metrics are medians over all
instances; simulated metrics pool the K streams and must repeat
exactly. With --trace 1 the run instead spends half the budget on
untraced instances of the --seed stream and then replays it once
traced, which gives the per-layer numbers and the tracing overhead.
The last line of stdout is one JSON object: the end-to-end metrics
with --trace 0, the per-layer ones with --trace 1. A failed check is
printed and makes the exit code non-zero. README.md describes the
workloads and every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (committed stream seed, streams per run). The committed seed
# is the default --seed; README.md names the held-out seed for claims.
WORKLOADS = {
    "churn-14k": (20260806, 6),
    "replay-azure": (20260806, 14),
    "crowd-1.6k": (20260808, 12),
}
# Stream i of a run uses seed + i * SEED_STRIDE.
SEED_STRIDE = 1000003
# No single harness process may run longer than this.
INSTANCE_TIMEOUT_S = 170

# (name, unit) of every end-to-end metric, all printed.
END_TO_END = [
    ("wall_s", "s"), ("placements_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("qos_violation_rate", "fraction"),
    ("cpu_utilization", "fraction"), ("batch_norm_perf", "ratio"),
    ("wait_p50_s", "sim_s"), ("wait_p95_s", "sim_s"),
    ("unplaced_fraction", "fraction"),
]
# The ones in the JSON result (and BENCHMARK.json). wait_p50_s and
# wait_p95_s read 0 or near 0 on the shallow-queue workloads, so no
# relative bound applies to them. placements_per_s is the headline but
# adds nothing to a gate on wall_s: for one seed the placement count is
# fixed, so it moves exactly inversely to wall_s, while the count's
# seed-to-seed variation widens its spread. All three are printed.
GATED = ["wall_s", "setup_s", "peak_rss_mb", "qos_violation_rate",
         "cpu_utilization", "batch_norm_perf", "unplaced_fraction"]

# Per-layer metrics of the traced run: (name, unit).
PER_LAYER = [
    ("manager.submit.n", "count"), ("manager.submit.s", "s"),
    ("manager.submit.p50_us", "us"), ("manager.submit.p99_us", "us"),
    ("manager.tick.n", "count"), ("manager.tick.s", "s"),
    ("manager.tick.p50_ms", "ms"), ("manager.tick.max_ms", "ms"),
    ("manager.completion.n", "count"), ("manager.completion.s", "s"),
    ("manager.completion.p50_us", "us"),
    ("manager.completion.p99_us", "us"),
    ("manager.fault.n", "count"), ("manager.fault.s", "s"),
    ("driver.self_s", "s"), ("driver.ticks", "count"),
    ("driver.events", "count"),
    ("classify.n", "count"), ("classify.s", "s"),
    ("profile.n", "count"), ("profile.s", "s"),
    ("schedule.n", "count"), ("schedule.s", "s"),
    ("schedule.ok_ratio_min", "ratio"), ("schedule.ok_ratio_max", "ratio"),
    ("scheduler.rank_s", "s"), ("scheduler.place_s", "s"),
    ("admission.depth_mean", "count"), ("admission.depth_max", "count"),
    ("admission.queued", "count"),
    ("adapt.n", "count"), ("adapt.s", "s"),
    ("adapt.scale_up", "count"), ("adapt.scale_out", "count"),
    ("adapt.shrinks", "count"), ("adapt.rescheduled", "count"),
    ("manager.evictions", "count"),
    ("overload.deferred", "count"), ("overload.shed", "count"),
    ("overload.brownouts", "count"),
    ("overload.autoscale_updates", "count"),
    ("overload.frac_overloaded", "fraction"),
    ("setup.cluster_s", "s"), ("setup.seed_offline_s", "s"),
    ("setup.stream_s", "s"),
    ("bench.check_s", "s"),
    ("traced.wall_s", "s"), ("tracing_overhead_s", "s"),
    ("arrivals", "count"), ("placements_ok", "count"),
    ("servers", "count"), ("wait.samples", "count"),
]

# Percentile -> the count of samples it rests on.
SAMPLE_COUNTS = {
    "wait_p50_s": "wait_samples", "wait_p95_s": "wait_samples",
    "manager.submit.p50_us": "manager.submit.n",
    "manager.submit.p99_us": "manager.submit.n",
    "manager.tick.p50_ms": "manager.tick.n",
    "manager.completion.p50_us": "manager.completion.n",
    "manager.completion.p99_us": "manager.completion.n",
}

# Harness outputs that must repeat bit-exactly for one stream seed,
# traced or not: the simulated behaviour.
DETERMINISTIC = [
    "arrivals", "completed", "departed", "shed", "active", "unplaced",
    "placements_ok", "placement_hash", "decision_hash",
    "qos_violation_rate", "cpu_utilization", "batch_norm_perf",
    "wait_p50_s", "wait_p95_s", "wait_samples", "unplaced_fraction",
    "schedule.n", "submitted", "registry_active",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure once, then (re)build; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no program sources under {ROOT / 'src'}")
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out / "quasar_bench"


def run_instance(binary, workload, seed, traced=False, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=INSTANCE_TIMEOUT_S, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"harness exited {res.returncode}: "
                           + " ".join(cmd))
    return json.loads(res.stdout.strip().splitlines()[-1])


# The outcome split of the planned arrivals, each part against a count
# the split does not produce: (split field, independent count, source).
CROSS_CHECKS = [
    ("arrivals", "submitted", "onSubmit calls the driver made"),
    ("shed", "overload.shed", "QuasarStats::shed"),
    ("active", "registry_active", "WorkloadRegistry::active()"),
]


def mismatches(r):
    """Arrivals the outcome split and the program disagree on."""
    return sum(abs(r[a] - r[b]) for a, b, _ in CROSS_CHECKS)


def check_instance(r, failures):
    """Checks every instance must pass on its own."""
    tag = f"{r['workload']} seed {r['seed']} ({r['mode']})"
    for split, count, source in CROSS_CHECKS:
        if r[split] != r[count]:
            failures.append(f"{tag}: {split} {r[split]} != {source} "
                            f"{r[count]}")
    if r["arrivals"] < 1 or r["placements_ok"] < 1:
        failures.append(f"{tag}: no arrivals or no successful placement")
    # p95 needs at least 10 samples beyond it.
    if r["wait_samples"] * 0.05 < 10:
        failures.append(f"{tag}: wait_p95_s rests on only "
                        f"{r['wait_samples']} samples (< 200)")


def check_same(first, other, what, failures):
    for key in DETERMINISTIC:
        if other[key] != first[key]:
            failures.append(f"{first['workload']} seed {first['seed']}: "
                            f"{key} differs {what} ({first[key]} vs "
                            f"{other[key]})")


def measure(binary, workload, seed, seconds, traced, failures):
    """Run whole cycles over the run's streams within the budget.

    Returns ({stream seed: [untraced instances]}, traced instance).
    """
    streams = WORKLOADS[workload][1]
    seeds = [seed] if traced else [seed + i * SEED_STRIDE
                                   for i in range(streams)]
    budget = seconds / 2.0 if traced else float(seconds)
    runs = {s: [] for s in seeds}
    cycles = 0
    start = time.monotonic()
    # Whole cycles only, and another one only if it fits the budget:
    # every stream is weighted alike, and a run takes a fixed amount
    # of work until the program gets twice as fast.
    while (not runs[seeds[-1]]
           or (time.monotonic() - start) * (cycles + 1) / cycles
           <= budget):
        cycles += 1
        for s in seeds:
            r = run_instance(binary, workload, s)
            check_instance(r, failures)
            if runs[s]:
                check_same(runs[s][0], r, "between repeats", failures)
            runs[s].append(r)
    traced_run = None
    if traced:
        spans = binary.parent / f"spans-{workload}-seed{seed}.tsv"
        traced_run = run_instance(binary, workload, seed, True, spans)
        check_instance(traced_run, failures)
        check_same(runs[seed][0], traced_run, "with tracing on",
                   failures)
        log(f"spans: {spans}")
    return runs, traced_run


def end_to_end(runs):
    """Host metrics: medians over every instance. Simulated metrics:
    the streams pooled (each stream once; repeats are identical)."""
    every = [r for rs in runs.values() for r in rs]
    firsts = [rs[0] for rs in runs.values()]
    mean = statistics.fmean
    median = statistics.median
    arrivals = sum(r["arrivals"] for r in firsts)
    return {
        "wall_s": median(r["wall_s"] for r in every),
        "placements_per_s": median(r["placements_ok"] / r["wall_s"]
                                   for r in every),
        "setup_s": statistics.median(r["setup_s"] for r in every),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in every),
        "qos_violation_rate": mean(r["qos_violation_rate"]
                                   for r in firsts),
        "cpu_utilization": mean(r["cpu_utilization"] for r in firsts),
        "batch_norm_perf": mean(r["batch_norm_perf"] for r in firsts),
        "wait_p50_s": mean(r["wait_p50_s"] for r in firsts),
        "wait_p95_s": mean(r["wait_p95_s"] for r in firsts),
        "unplaced_fraction": sum(r["unplaced"] for r in firsts) / arrivals,
        # Context: the bases of the ratios above.
        "arrivals": arrivals,
        "placements_ok": sum(r["placements_ok"] for r in firsts),
        "wait_samples": sum(r["wait_samples"] for r in firsts),
    }


def per_layer(untraced, t, failures):
    vals = {name: t[name] for name, _ in PER_LAYER if name in t}
    # placements_ok also counts successful re-placements after a
    # reclassify, which schedule.n does not count; at most
    # adapt.rescheduled of them succeed, so the ratio is bracketed.
    n = t["schedule.n"] or 1
    vals["schedule.ok_ratio_max"] = t["placements_ok"] / n
    vals["schedule.ok_ratio_min"] = max(
        0, t["placements_ok"] - t["adapt.rescheduled"]) / n
    vals["traced.wall_s"] = t["wall_s"]
    vals["tracing_overhead_s"] = (
        t["wall_s"] - statistics.median(r["wall_s"] for r in untraced))
    vals["wait.samples"] = t["wait_samples"]
    hooks = sum(t[f"manager.{h}.s"]
                for h in ("submit", "tick", "completion", "fault"))
    accounted = hooks + t["driver.self_s"] + t["bench.check_s"]
    if t["driver.self_s"] < 0 or abs(accounted - t["wall_s"]) > 1e-6:
        failures.append(
            f"traced accounting: hooks {hooks:.6f} + driver "
            f"{t['driver.self_s']:.6f} + check {t['bench.check_s']:.6f}"
            f" != traced wall {t['wall_s']:.6f}")
    return vals


def line(name, value, unit, count=None, note=""):
    text = f"     {name:<28} {value:.6g} {unit}"
    if count is not None:
        text += f"  (n={count})"
    print(text + note)


def report(workload, runs, traced_run, failures):
    """Print every metric by name and unit; return the JSON result."""
    first = next(iter(runs.values()))[0]
    n_inst = sum(len(rs) for rs in runs.values())
    e2e = end_to_end(runs)
    print(f"== {workload}: {len(runs)} stream(s), {n_inst} untraced "
          f"instance(s), servers {first['servers']}, arrivals "
          f"{e2e['arrivals']}, placements_ok {e2e['placements_ok']}")
    for s, rs in runs.items():
        r = rs[0]
        print(f"   stream seed {s}: arrivals {r['arrivals']}  "
              f"placements_ok {r['placements_ok']}  completed "
              f"{r['completed']} departed {r['departed']} shed "
              f"{r['shed']} active {r['active']} unplaced "
              f"{r['unplaced']}  placement_hash {r['placement_hash']}  "
              f"decision_hash {r['decision_hash']}  wall_s "
              + " ".join(f"{x['wall_s']:.4f}" for x in rs))
    print("   end-to-end (host: median over instances; sim: pooled "
          "streams, exact)")
    for name, unit in END_TO_END:
        count = e2e[SAMPLE_COUNTS[name]] if name in SAMPLE_COUNTS else None
        note = "" if name in GATED else "   [printed, not gated]"
        line(name, e2e[name], unit, count, note)
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END if name in GATED}
    if traced_run is not None:
        layers = per_layer(next(iter(runs.values())), traced_run,
                           failures)
        print(f"   traced run, stream seed {traced_run['seed']}: "
              f"placement_hash {traced_run['placement_hash']}  "
              f"decision_hash {traced_run['decision_hash']}  spans "
              f"{traced_run['spans']}")
        print("   per-layer (program timers are inclusive and overlap: "
              "never sum them)")
        for name, unit in PER_LAYER:
            count = (layers[SAMPLE_COUNTS[name]]
                     if name in SAMPLE_COUNTS else None)
            line(name, layers[name], unit, count)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    every = [r for rs in runs.values() for r in rs]
    if traced_run is not None:
        every.append(traced_run)
    # An arrival fails when the outcome split and the program's own
    # counts disagree on it; shed and still-queued arrivals are
    # outcomes, counted by unplaced_fraction.
    return {"correct": not failures,
            "attempted": sum(r["arrivals"] for r in every),
            "failed": sum(mismatches(r) for r in every),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="stream seed (default: the committed one)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="host seconds to keep repeating the streams")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except RuntimeError as err:
        log(f"perfbench: {err}")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        seed = WORKLOADS[name][0] if args.seed is None else args.seed
        failures = []
        try:
            runs, traced_run = measure(binary, name, seed, args.seconds,
                                       args.trace == 1, failures)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as err:
            log(f"perfbench: {name}: {err}")
            return 1
        result = report(name, runs, traced_run, failures)
        for f in failures:
            print(f"CHECK FAILED: {f}")
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
