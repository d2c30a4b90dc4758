#!/usr/bin/env python3
"""Run-to-run spread and drift of the benchmark's end-to-end metrics.

    python3 hostperf/spread.py --workload fig9_warm --runs 10 --sets 2

runs hostperf/run.py `--runs` times per set, `--sets` sets back to
back. By default every run uses the default seed (12345), so the spread
is the run-to-run noise of one input; `--vary-seed` gives every run its
own seed instead (1, 2, 3, ... across all sets), which also mixes in the
input's variation.

For each set and metric it prints the median of the runs and the
distance between their first and third quartiles as a share of that
median (Python's statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. For every set after the first it
prints how much worse its median is than the first set's, as a share of
the first. A spread above a third of the bound means a run is not steady
enough to judge a change by that bound. Exit status 1 when a spread
(setup_s excepted) or a drift is above its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 12345


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = out.stdout.splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    if out.returncode != 0 or not res or not res["correct"]:
        sys.exit("seed %d failed (exit %d)" % (seed, out.returncode))
    return {name: m["value"] for name, m in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--vary-seed", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    medians = []
    over = False
    for s in range(args.sets):
        values = {}
        for i in range(args.runs):
            seed = (1 + s * args.runs + i) if args.vary_seed else DEFAULT_SEED
            got = run_once(args.workload, seed, seconds)
            for name, v in got.items():
                values.setdefault(name, []).append(v)
            print("set %d run %d seed %d: %s" % (
                s + 1, i + 1, seed,
                " ".join("%s=%.4g" % kv for kv in got.items())), flush=True)
        medians.append({n: statistics.median(v) for n, v in values.items()})
        for name, v in values.items():
            med = medians[-1][name]
            bound = metrics[name]["bound"]
            line = "set %d %-16s median %-11.6g" % (s + 1, name, med)
            if len(v) >= 2 and med:
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                line += " spread %.4f" % spread
                if name != "setup_s" and spread > bound:
                    over = True
            if s > 0:
                base = medians[0][name]
                worse = (med - base) if metrics[name]["better"] == "lower" \
                    else (base - med)
                drift = worse / base if base else 0.0
                line += " drift %+.4f" % drift
                over = over or drift > bound
            print(line + " bound %s" % bound, flush=True)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
