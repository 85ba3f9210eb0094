#!/usr/bin/env python3
"""Collect runs of the end-to-end benchmark and compare two sets of them.

    python3 e2ebench/compare.py collect OUT_DIR --workload desk [--seeds 1-10]
                                        [--trace 0|1]
    python3 e2ebench/compare.py compare PARENT_DIR CHANGE_DIR [--all]

`collect` runs the command from BENCHMARK.json once per seed, for the
benchmark's own run_seconds, from the root of the checkout it is started
in, and keeps each run's standard output as
OUT_DIR/<workload>-t<trace>-s<seed>.out. Collect the parent commit and the
change from two checkouts, alternating which side runs first.

`compare` reads every *.out file of both directories. A run counts as
failed when it printed no result line (it exited non-zero) or its result
says `correct: false` or `failed > 0`; a seed one side ran and the other
did not counts as failed on the side that lacks it. Per workload it prints
both sides' failed runs and failed ops. When the change has more failed
runs than the parent, every metric of that workload is *regressed*: a gain
measured on the remaining runs does not count. Otherwise, for each
(workload, metric) it prints both sides' median and quartiles over the
runs that passed, the share of seed-matched pairs the change wins (ties
count for neither), and a verdict under the benchmark's own bounds:

* unresolved - either side's spread (quartile distance / median) is wider
  than the bound, and not every change run beats every parent run;
* regressed  - the change's median is worse than the parent's by more than
  the bound;
* improved   - the change wins at least 9 in 10 pairs and the medians differ
  by more than the parent's own quartile distance;
* unchanged  - otherwise.

End-to-end metrics use their BENCHMARK.json bounds. With --all, every
metric of the report line is compared too, under REPORT_BOUND.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Bound for report-only metrics: the largest bound the benchmark allows.
REPORT_BOUND = 0.25
# Report-only metrics where a higher value is better (all others: lower).
HIGHER = {"remote_max_rps", "fed_max_rps"}


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def seeds_arg(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = load_benchmark()
    os.makedirs(args.out, exist_ok=True)
    for seed in seeds_arg(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        name = f"{args.workload}-t{args.trace}-s{seed}.out"
        with open(os.path.join(args.out, name), "w") as f:
            f.write(run.stdout)
        status = "ok" if run.returncode == 0 else f"exit {run.returncode}"
        print(f"{name}: {status}", file=sys.stderr)
        if run.returncode != 0:
            sys.stderr.write(run.stderr[-2000:])


RUN_FILE = re.compile(r"^(.+)-t([01])-s(\d+)\.out$")


def read_runs(directory):
    """({(workload, trace): {seed: {metric: value}}} of the runs that passed,
    {(workload, trace): {seed: failed ops or None}} of the runs that did
    not) from the *.out files `collect` wrote."""
    runs, failures = {}, {}
    for name in sorted(os.listdir(directory)):
        m = RUN_FILE.match(name)
        if not m:
            continue
        key, seed = (m.group(1), m.group(2) == "1"), int(m.group(3))
        with open(os.path.join(directory, name)) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        try:
            result = json.loads(lines[-1])
            report = json.loads(lines[-2]) if len(lines) > 1 else {}
        except (IndexError, ValueError):
            failures.setdefault(key, {})[seed] = None
            continue
        if not result.get("correct", False) or result.get("failed", 0) > 0:
            failures.setdefault(key, {})[seed] = result.get("failed")
            continue
        metrics = {k: v["value"] for k, v in report.get("report", {}).items()}
        metrics.update({k: v["value"] for k, v in result["metrics"].items()})
        runs.setdefault(key, {})[seed] = metrics
    return runs, failures


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def verdict(pairs, bound, higher):
    """Verdict on seed-matched (parent, change) pairs, per the rules in this
    file's docstring."""
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    p1, pm, p3 = summary([p for p, _ in pairs])
    c1, cm, c3 = summary([c for _, c in pairs])
    wins = sum(1 for p, c in pairs if better(c, p)) / len(pairs)
    spread = max(abs(p3 - p1) / abs(pm) if pm else 0.0, abs(c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(better(c, p) for _, c in pairs for p, _ in pairs)
    worse_by = ((pm - cm) if higher else (cm - pm)) / abs(pm) if pm else 0.0
    if spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "regressed"
    elif (wins >= 0.9 and abs(cm - pm) > abs(p3 - p1)) or all_better:
        v = "improved"
    else:
        v = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), wins, v


def compare(args):
    bench = load_benchmark()
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    (parent, p_fail), (change, c_fail) = read_runs(args.parent), read_runs(args.change)
    rows = []
    for key in sorted(set(parent) | set(change) | set(p_fail) | set(c_fail)):
        p_runs, c_runs = parent.get(key, {}), change.get(key, {})
        p_bad, c_bad = dict(p_fail.get(key, {})), dict(c_fail.get(key, {}))
        every = set(p_runs) | set(c_runs) | set(p_bad) | set(c_bad)
        for runs, bad in ((p_runs, p_bad), (c_runs, c_bad)):
            for seed in every - set(runs) - set(bad):
                bad[seed] = None
        failed_more = len(c_bad) > len(p_bad)
        workload = key[0] + (" traced" if key[1] else "")
        ops = lambda bad: sum(v or 0 for v in bad.values())
        rows.append((workload, "failed_runs", len(every),
                     f"{len(p_bad)} ({ops(p_bad)} ops)", f"{len(c_bad)} ({ops(c_bad)} ops)",
                     "", "0", "regressed" if failed_more else "unchanged"))
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        names = sorted(set().union(*(p_runs[s].keys() for s in seeds)))
        for name in names:
            spec = declared.get(name)
            if not args.all and (spec is None or "bound" not in spec):
                continue
            pairs = [(p_runs[s].get(name), c_runs[s].get(name)) for s in seeds]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            bound = spec.get("bound", REPORT_BOUND) if spec else REPORT_BOUND
            higher = spec["better"] == "higher" if spec else name in HIGHER
            (p1, pm, p3), (c1, cm, c3), wins, v = verdict(pairs, bound, higher)
            if failed_more:
                v = "regressed"
            rows.append((workload, name, len(pairs),
                         f"{pm:.4g} [{p1:.4g}, {p3:.4g}]", f"{cm:.4g} [{c1:.4g}, {c3:.4g}]",
                         f"{wins:.2f}", f"{bound:g}", v))
    header = ("workload", "metric", "seeds", "parent median [q1, q3]",
              "change median [q1, q3]", "win share", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    if not rows:
        print("no (workload, metric) pairs in common", file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m = sub.add_parser("compare")
    m.add_argument("parent")
    m.add_argument("change")
    m.add_argument("--all", action="store_true")
    args = ap.parse_args()
    if args.mode == "collect":
        collect(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
