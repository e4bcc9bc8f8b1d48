#!/usr/bin/env python3
"""Steadiness command for the GreenFPGA service benchmark.

Runs each workload repeatedly, in two sets taken apart in time, and
prints, for every metric, the median, quartiles and spread (the
interquartile range as a share of the median) within each set, and the
shift of the second set's median against the first's. Each run uses
another seed. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workloads mc-study --runs 5 --sets 1

A metric whose spread exceeds a third of its BENCHMARK.json bound, or
whose median shifts by more than the bound between the sets, is
flagged; so is a failed-operation share that differs between the sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=0, help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--gap", type=float, default=0, help="seconds to wait between the two sets")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    sets = []
    for s in range(args.sets):
        if s and args.gap:
            time.sleep(args.gap)
        runs = {}
        for w in workloads:
            runs[w] = []
            for i in range(args.runs):
                seed = args.first_seed + s * 1000 + i
                t0 = time.time()
                rep = run_once(w, seed, seconds, args.trace)
                rep["wall_s"] = time.time() - t0
                runs[w].append(rep)
                print(f"set {s + 1} {w} seed {seed}: {rep['attempted']} ops, {rep['failed']} failed, "
                      f"{rep['wall_s']:.1f}s wall", file=sys.stderr, flush=True)
        sets.append(runs)

    flagged = 0
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        shares = []
        for s, runs in enumerate(sets):
            reps = runs[w]
            shares.append(sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps))
            print(f"{'(wall s)':28} {s + 1:>3} {statistics.median(r['wall_s'] for r in reps):12.2f}")
        for m in metrics:
            name = m["name"]
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs[w]]
                med, q1, q3, spread = summarize(vals)
                meds.append(med)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound / 3:
                    flag, flagged = " SPREAD", flagged + 1
                print(f"{name:28} {s + 1:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                      f"{bound if bound is not None else '-':>6}{flag}")
            if len(meds) == 2 and bounds.get(name) is not None:
                better = m["better"]
                worse = (meds[1] - meds[0]) / meds[0] if better == "lower" else (meds[0] - meds[1]) / meds[0]
                flag = ""
                if worse > bounds[name]:
                    flag, flagged = " SHIFT", flagged + 1
                print(f"{name:28} {'2v1':>3} {'worse by':>12} {worse:12.4f}{flag}")
        print(f"failed share per set: {shares}" + (" DIFFERS" if len(set(shares)) > 1 else ""))
        if len(set(shares)) > 1:
            flagged += 1
    print(f"\n{flagged} flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
