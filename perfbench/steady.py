#!/usr/bin/env python3
"""Steadiness check: run each workload several times, one seed per run, and
print for every end-to-end metric the median, the quartiles and the spread
(third quartile minus first, as a share of the median).

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--sets 1] [--seconds S]

`--seconds` defaults to `run_seconds` in BENCHMARK.json. With `--sets 2` or
more, set i takes the next `--runs` seeds after set i-1, and each later set's
median is compared with the first set's: `worse` is the share by which it is
worse, in the metric's own direction (negative when it is better).

The bounds in BENCHMARK.json were set from this output; perfbench/README.md
gives the figures and how each bound follows from them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def run_set(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if p.returncode != 0:
            print(f"{workload} seed={seed}: exit code {p.returncode}", file=sys.stderr)
            sys.stdout.write(p.stdout)
            sys.exit(1)
        r = json.loads(p.stdout.strip().split("\n")[-1])
        runs.append(r)
        print(f"{workload} seed={seed} failed={r['failed']}/{r['attempted']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in spec["workloads"]]

    results = {}
    for s in range(a.sets):
        for w in workloads:
            first = a.first_seed + s * a.runs
            results[(s, w)] = run_set(w, range(first, first + a.runs), seconds)

    print()
    print(f"{'set':>3} {'workload':20} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'worse':>8}")
    for w in workloads:
        for s in range(a.sets):
            runs = results[(s, w)]
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            print(f"{s + 1:>3} {w:20} {'failed share':16} {', '.join(f'{x:.6g}' for x in shares)}")
            for m in runs[0]["metrics"]:
                med, q1, q3, sp = spread([r["metrics"][m]["value"] for r in runs])
                worse = ""
                if s > 0:
                    base = statistics.median(r["metrics"][m]["value"] for r in results[(0, w)])
                    sign = 1 if better.get(m) == "lower" else -1
                    worse = f"{sign * (med - base) / base:8.3f}" if base else "nan"
                print(f"{s + 1:>3} {w:20} {m:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} {worse:>8}")


if __name__ == "__main__":
    main()
