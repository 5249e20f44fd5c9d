#!/usr/bin/env python3
"""Assembles and checks rows of the performance trajectory (BENCH_perf.json).

Each row compares one change against its parent commit on every workload of
BENCHMARK.json, from the result lines of perfbench/run.py.

Build a row from saved run.py outputs and append it:

    perf_row.py --runs DIR --change TEXT --parent-commit SHA --seconds S \\
                [--held-out SEED ...] [--traced-seconds S] [--order TEXT] \\
                [--append BENCH_perf.json]

Without --append the row is printed. DIR holds the full stdout of one
run.py invocation per file (traced pairs of lossy_multiquery, seed 1, run
--traced-seconds long):

    DIR/{parent,change}/<workload>/<seed>.txt       --trace 0 runs
    DIR/traced/<n>_{parent,change}_first/{parent,change}.txt
                                                    optional --trace 1 pairs

Every workload needs the same seeds on both sides. --held-out marks seeds
not used while the change was written; they count in the spread like the
others.

Validate every row of a trajectory file:

    perf_row.py --check BENCH_perf.json

Exit: 0 ok, 1 invalid input or rows, 2 usage.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --trace 0"
# Per-layer metrics copied from traced runs; the rest stay in the run output.
TRACED_KEYS = [
    "net.engine.loop_ms",
    "net.engine.self_ms_approx",
    "net.engine.steady_allocs",
    "core.query_allocs",
    "core.filter_ms",
    "core.verify_ms",
    "core.local_aggregates_ns_per_item",
    "core.materialize_ns_per_item",
    "net.codec.pairs_ns_per_pair",
    "net.codec.aggregates_ns_per_value",
]


def fail(msg):
    print("perf_row.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(path):
    """(result, diag) from one run.py stdout: the last two lines."""
    with open(path) as f:
        lines = f.read().strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("diag "):
        fail("%s: not a perfbench/run.py output" % path)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: malformed result line" % path)
    return result, json.loads(lines[-2][len("diag "):])


def spread(per_seed):
    """Median and inclusive quartiles over the per-seed values."""
    vals = sorted(per_seed.values())
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "per_seed": {k: round(per_seed[k], 4)
                         for k in sorted(per_seed, key=int)}}


def side_summary(runs, names):
    """runs: {seed: (result, diag)} of one side of one workload."""
    per_metric = {n: {} for n in names}
    for seed, (result, _) in runs.items():
        for n in names:
            if n not in result["metrics"]:
                fail("seed %d: metric %s missing" % (seed, n))
            per_metric[n][str(seed)] = result["metrics"][n]["value"]
    return {
        "attempted": sum(r["attempted"] for r, _ in runs.values()),
        "failed": sum(r["failed"] for r, _ in runs.values()),
        "correct": all(r["correct"] for r, _ in runs.values()),
        "host_gauge_ms_p50_median": round(statistics.median(
            d["host.gauge_ms_p50"] for _, d in runs.values()), 4),
        "metrics": {n: spread(v) for n, v in per_metric.items()},
    }


def host():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if m:
                cpu = m.group(1).strip()
    except OSError:
        pass
    compiler = "unknown"
    try:
        # `c++ -v` ends with "gcc version X ..." or "clang version X ...".
        err = subprocess.run(["c++", "-v"], stderr=subprocess.PIPE,
                             text=True).stderr
        m = re.search(r"^(gcc|clang) version (\S+)", err, re.M)
        if m:
            name = "g++" if m.group(1) == "gcc" else "clang++"
            compiler = "%s %s" % (name, m.group(2))
    except OSError:
        pass
    return {"cpu": cpu, "vcpus": os.cpu_count(), "compiler": compiler,
            "build": "Release (perfbench/CMakeLists.txt)"}


def traced_pairs(dirpath):
    runs = []
    if not os.path.isdir(dirpath):
        return runs
    names = sorted(os.listdir(dirpath), key=lambda s: int(s.split("_")[0]))
    for name in names:
        m = re.fullmatch(r"\d+_(parent|change)_first", name)
        if not m:
            fail("traced/%s: expected <n>_{parent,change}_first" % name)
        pair = {"order": "%s first" % m.group(1)}
        for side in SIDES:
            result, _ = parse_run(os.path.join(dirpath, name, side + ".txt"))
            pair[side] = {k: round(result["metrics"][k]["value"], 4)
                          for k in TRACED_KEYS if k in result["metrics"]}
        runs.append(pair)
    return runs


def build_row(args):
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    held_out = set(args.held_out)
    row = {
        "change": args.change,
        "parent_commit": args.parent_commit,
        "commit": "the child of parent_commit that adds this row",
        "command": COMMAND,
        "run_seconds": whole(args.seconds),
        "method": args.order,
        "host": host(),
        "spread": "median and inclusive quartiles over the per-seed result "
                  "lines (held-out seeds included)",
        "workloads": {},
    }
    for w in (x["name"] for x in spec["workloads"]):
        sides = {}
        for side in SIDES:
            d = os.path.join(args.runs, side, w)
            if not os.path.isdir(d):
                fail("missing %s" % d)
            sides[side] = {int(f[:-4]): parse_run(os.path.join(d, f))
                           for f in os.listdir(d) if f.endswith(".txt")}
        if set(sides["parent"]) != set(sides["change"]) or not sides["parent"]:
            fail("%s: parent and change ran different seeds" % w)
        seeds = sorted(sides["parent"])
        row["workloads"][w] = {
            "seeds": [s for s in seeds if s not in held_out],
            "held_out_seeds": [s for s in seeds if s in held_out],
            "parent": side_summary(sides["parent"], names),
            "change": side_summary(sides["change"], names),
        }
    traced = traced_pairs(os.path.join(args.runs, "traced"))
    if traced:
        row["per_layer_traced"] = {
            "command": "python3 perfbench/run.py --workload lossy_multiquery "
                       "--seed 1 --seconds %g --trace 1" %
                       (args.traced_seconds or args.seconds),
            "note": "per-layer numbers are raw, not gauge-normalized",
            "runs": traced,
        }
    errors = check_row(row, spec, 0)
    if errors:
        fail("assembled row is invalid:\n  " + "\n  ".join(errors))
    return row


def whole(x):
    return int(x) if float(x).is_integer() else x


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_row(row, spec, i):
    errs = []
    where = "row %d" % i

    def need(obj, key, kind, ctx):
        if not isinstance(obj, dict) or key not in obj:
            errs.append("%s: %s missing" % (ctx, key))
            return None
        if not kind(obj[key]):
            errs.append("%s: %s has the wrong type" % (ctx, key))
            return None
        return obj[key]

    for key in ("change", "parent_commit", "commit", "command", "method",
                "spread"):
        need(row, key, lambda v: isinstance(v, str) and v, where)
    need(row, "run_seconds", is_num, where)
    h = need(row, "host", lambda v: isinstance(v, dict), where)
    if h is not None:
        for key in ("cpu", "compiler", "build"):
            need(h, key, lambda v: isinstance(v, str), where + "/host")
        need(h, "vcpus", lambda v: isinstance(v, int), where + "/host")
    names = [m["name"] for m in spec["end_to_end"]]
    wls = need(row, "workloads", lambda v: isinstance(v, dict), where) or {}
    for w in (x["name"] for x in spec["workloads"]):
        ctx = "%s/%s" % (where, w)
        wl = need(wls, w, lambda v: isinstance(v, dict), where)
        if wl is None:
            continue
        seeds = need(wl, "seeds", lambda v: isinstance(v, list) and v, ctx)
        held = need(wl, "held_out_seeds", lambda v: isinstance(v, list), ctx)
        if seeds is None or held is None:
            continue
        keys = {str(s) for s in seeds + held}
        for side in SIDES:
            sctx = "%s/%s" % (ctx, side)
            s = need(wl, side, lambda v: isinstance(v, dict), ctx)
            if s is None:
                continue
            need(s, "attempted", lambda v: isinstance(v, int) and v > 0, sctx)
            need(s, "failed", lambda v: isinstance(v, int) and v >= 0, sctx)
            need(s, "correct", lambda v: isinstance(v, bool), sctx)
            need(s, "host_gauge_ms_p50_median", is_num, sctx)
            ms = need(s, "metrics", lambda v: isinstance(v, dict), sctx) or {}
            for n in names:
                m = need(ms, n, lambda v: isinstance(v, dict), sctx)
                if m is None:
                    continue
                mctx = "%s/%s" % (sctx, n)
                q = [need(m, k, is_num, mctx) for k in ("q1", "median", "q3")]
                if None not in q and not q[0] <= q[1] <= q[2]:
                    errs.append("%s: quartiles out of order" % mctx)
                per = need(m, "per_seed", lambda v: isinstance(v, dict), mctx)
                if per is not None:
                    if set(per) != keys:
                        errs.append("%s: per_seed keys differ from the seeds"
                                    % mctx)
                    elif not all(is_num(v) for v in per.values()):
                        errs.append("%s: non-numeric per_seed value" % mctx)
    if "per_layer_traced" in row:
        ctx = where + "/per_layer_traced"
        t = row["per_layer_traced"]
        need(t, "command", lambda v: isinstance(v, str), ctx)
        runs = need(t, "runs", lambda v: isinstance(v, list) and v, ctx) or []
        for j, r in enumerate(runs):
            rctx = "%s/runs[%d]" % (ctx, j)
            need(r, "order", lambda v: v in ("parent first", "change first"),
                 rctx)
            for side in SIDES:
                need(r, side, lambda v: isinstance(v, dict) and v and
                     all(is_num(x) for x in v.values()), rctx)
    return errs


def check_file(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if not isinstance(rows, list) or not rows:
        fail("%s: no rows" % path)
    spec = load_spec()
    errs = []
    for i, row in enumerate(rows):
        errs += check_row(row, spec, i)
    if errs:
        fail("%s:\n  %s" % (path, "\n  ".join(errs)))
    print("%s: %d rows ok" % (path, len(rows)))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--check", metavar="FILE")
    p.add_argument("--runs", metavar="DIR")
    p.add_argument("--change")
    p.add_argument("--parent-commit")
    p.add_argument("--seconds", type=float)
    p.add_argument("--held-out", type=int, nargs="*", default=[])
    p.add_argument("--traced-seconds", type=float,
                   help="run length of the traced pairs (default --seconds)")
    p.add_argument("--order", default="one run per (workload, seed) and "
                   "side; parent and change alternate which runs first")
    p.add_argument("--append", metavar="FILE")
    args = p.parse_args()
    if args.check:
        check_file(args.check)
        return 0
    if not (args.runs and args.change and args.parent_commit and
            args.seconds):
        p.error("--runs, --change, --parent-commit and --seconds are "
                "required to build a row")
    row = build_row(args)
    if not args.append:
        print(json.dumps(row, indent=1))
        return 0
    with open(args.append) as f:
        doc = json.load(f)
    doc["rows"].append(row)
    with open(args.append, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("%s: appended row %d" % (args.append, len(doc["rows"]) - 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
