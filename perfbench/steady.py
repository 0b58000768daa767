#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload repeatedly, one seed per repetition, rotating the
workload order between repetitions so no workload always runs first. For
each end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the interquartile
spread as a share of the median. With --sets 2 it repeats the whole
schedule and also prints how far the second set's median moved from the
first's. Bounds in BENCHMARK.json are set from this output.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2 --seconds 20
    python3 perfbench/steady.py --runs 5 --workloads sampled-sweep
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["sampled-sweep", "served-jobs", "fleet-cells"]


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_set(workloads, runs, seed0, seconds):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            res = run_once(w, seed0 + i, seconds)
            results[w].append(res)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(res["metrics"].items()))
            print(f"  run {i + 1}/{runs} {w} seed {seed0 + i}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} {values}", file=sys.stderr, flush=True)
    return results


def summarize(results):
    out = {}
    for w, runs in results.items():
        metrics = {}
        for name in sorted(runs[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(values)}
        shares = {r["failed"] / r["attempted"] for r in runs}
        out[w] = {"metrics": metrics, "failed_shares": sorted(shares),
                  "all_correct": all(r["correct"] for r in runs)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="repetitions per set (one seed each)")
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first repetition")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}/{args.sets}", file=sys.stderr, flush=True)
        sets.append(summarize(run_set(workloads, args.runs, args.seed0, args.seconds)))

    for w in workloads:
        first = sets[0][w]
        print(f"{w}: all correct={first['all_correct']} failed shares={first['failed_shares']}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
              + (f" {'spread2':>8} {'shift':>8}" if len(sets) == 2 else ""))
        for name, m in first["metrics"].items():
            line = f"  {name:<22} {m['median']:>12.4f} {m['q1']:>12.4f} {m['q3']:>12.4f} {m['spread']:>8.2%}"
            if len(sets) == 2:
                m2 = sets[1][w]["metrics"][name]
                line += f" {m2['spread']:>8.2%} {(m2['median'] - m['median']) / m['median']:>+8.2%}"
            print(line)


if __name__ == "__main__":
    main()
