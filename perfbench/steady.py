#!/usr/bin/env python3
"""Steadiness report: run one workload K times and show each metric's spread.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--save runs.json]
    python3 perfbench/steady.py --compare first.json second.json

Each run uses the next seed. For every metric the report prints the
median, the quartiles (statistics.quantiles(values, n=4)), and the
spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. --compare checks that the second set's median of every
metric is not worse than the first's by more than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worsening(first, second, better):
    """Share by which `second` is worse than `first` (<= 0: not worse)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"run failed: seed {seed} (exit {out.returncode})")
    return json.loads(out.stdout.strip().split("\n")[-1])


def report(workload, runs, bounds):
    print(f"{workload}: {len(runs)} runs, "
          f"correct={all(r['correct'] for r in runs)}, "
          f"failed={sum(r['failed'] for r in runs)}")
    print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, s = spread(values)
        bound = bounds.get(name)
        flag = "" if bound is None or s <= bound / 3 else \
            ("  > bound/3" if s <= bound else "  > BOUND")
        print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>9.4f}"
              f"{'' if bound is None else format(bound, '>7')}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = spec()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    bounds = {n: m["bound"] for n, m in metrics.items()}

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        ok = True
        for name, m in metrics.items():
            a, b = (statistics.median(r["metrics"][name]["value"]
                                      for r in s["runs"]) for s in sets)
            w = worsening(a, b, m["better"])
            bad = w > m["bound"]
            ok &= not bad
            print(f"  {name:<22}{a:>14.6g}{b:>14.6g}{w:>+9.4f} "
                  f"(bound {m['bound']}){'  WORSE' if bad else ''}")
        sys.exit(0 if ok else 1)

    if not args.workload:
        ap.error("--workload is required")
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, bench["run_seconds"],
                             args.trace))
        print(f"  seed {seed}: done", file=sys.stderr)
    report(args.workload, runs, bounds)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f)


if __name__ == "__main__":
    main()
