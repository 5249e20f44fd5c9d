#!/usr/bin/env python3
"""Closed-loop IFI benchmark: build, run one workload, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the benchmark (perfbench/CMakeLists.txt, from the sources under src/)
into $CARGO_TARGET_DIR or .bench_build, runs one workload and prints every
metric by name with its unit. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the run's spans
to <build>/traces/). --seconds defaults to run_seconds in BENCHMARK.json.

    python3 perfbench/run.py --steadiness K [--seed N] [--seconds S]

runs every workload of BENCHMARK.json K times (seeds seed..seed+K-1,
workload order alternating) and prints each end-to-end metric's median,
quartiles and quartile spread / median against its bound from
BENCHMARK.json. Metrics whose spread exceeds the bound are flagged
"unresolved". It then repeats
the first seed of each workload and checks that the simulated metrics
repeat exactly. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Simulated quantities: identical whenever the seed is.
SIM_METRICS = ["bytes_per_peer", "rounds_per_query", "exact_rate"]
# One invocation must finish within this many seconds (the build excepted).
RUN_LIMIT_S = 175


def fail(msg, code=1):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds both benchmark binaries; returns the dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "netfilter.h")):
        fail("library sources (src/) not found next to perfbench/", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                # Drop the half-written cache so the next run configures anew.
                cache = os.path.join(out, "CMakeCache.txt")
                if os.path.isfile(cache):
                    os.remove(cache)
                fail("cmake configure failed; see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "-j", jobs]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("build failed; see " + log_path)
    return out


def run_binary(out, workload, seed, seconds, trace, deadline):
    """Runs one workload; returns (result, diag, text lines before them)."""
    exe = os.path.join(out, "ifi_bench_traced" if trace else "ifi_bench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans",
                os.path.join(traces, "%s_seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % workload)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("diag "):
        fail("malformed benchmark output:\n" + proc.stdout)
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2][len("diag "):])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    return result, diag, lines[:-2]


def print_run(result, diag):
    width = max(len(k) for k in result["metrics"])
    for name, m in result["metrics"].items():
        print("%-*s %16.6g %s" % (width, name, m["value"], m["unit"]))
    for name, why in diag.pop("unmeasured", {}).items():
        print("note: %s: %s" % (name, why))
    print("diag " + json.dumps(diag))
    print(json.dumps(result))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root", 2)
    with open(path) as f:
        return json.load(f)


def steadiness(args, spec, seconds):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out = build()
    values = {w: {} for w in workloads}
    first = {}
    gauges = {w: [] for w in workloads}
    failures = []
    for r in range(args.steadiness):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + r
            res, diag, _ = run_binary(out, w, seed, seconds, False,
                                      time.monotonic() + RUN_LIMIT_S)
            if not res["correct"] or res["failed"]:
                failures.append("%s seed %d: correct=%s failed=%d" %
                                (w, seed, res["correct"], res["failed"]))
            if r == 0:
                first[w] = res
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            gauges[w].append(diag["host.gauge_ms_p50"])
            print("# %s seed %d done: %s" % (w, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in res["metrics"].items()})),
                flush=True)

    unresolved = []
    for w in workloads:
        print("\n== %s (%d runs, %gs each; host.gauge_ms_p50 per run: %s)" % (
            w, args.steadiness, seconds,
            " ".join("%.1f" % g for g in gauges[w])))
        print("%-18s %14s %14s %14s %9s %7s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            if spread > bound:
                verdict = "UNRESOLVED"
                unresolved.append("%s/%s" % (w, name))
            elif spread > bound / 3:
                verdict = "within bound, above bound/3"
            else:
                verdict = "steady"
            print("%-18s %14.6g %14.6g %14.6g %9.4f %7.3f  %s" % (
                name, q1, med, q3, spread, bound, verdict))

    # Determinism across runs: the first seed once more, simulated metrics
    # must repeat exactly.
    mismatches = []
    for w in workloads:
        res, _, _ = run_binary(out, w, args.seed, seconds, False,
                               time.monotonic() + RUN_LIMIT_S)
        for name in SIM_METRICS:
            a = first[w]["metrics"][name]["value"]
            b = res["metrics"][name]["value"]
            if a != b:
                mismatches.append("%s/%s: %r != %r" % (w, name, a, b))
    print("\nsimulated metrics repeat exactly across runs: %s" %
          ("yes" if not mismatches else "NO " + "; ".join(mismatches)))
    print("answer failures: %s" % ("none" if not failures else
                                   "; ".join(failures)))
    print("unresolved metrics (spread > bound): %s" %
          (", ".join(unresolved) if unresolved else "none"))
    return 0 if not (mismatches or failures) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", type=int, metavar="K",
                   help="run every workload K times and report the spread")
    args = p.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.steadiness:
        return steadiness(args, spec, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error("--workload must be one of: " + ", ".join(names))
    out = build()
    # A run that had to compile gets its own full time limit.
    deadline = max(deadline, time.monotonic() + 120)
    res, diag, text = run_binary(out, args.workload, args.seed, seconds,
                                 args.trace == 1, deadline)
    for line in text:
        print(line)
    print_run(res, diag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
