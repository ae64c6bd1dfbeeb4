#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and set-to-set agreement.

Run from the repository root:

    python3 texbench/steady.py --runs 10 --sets 2 --out texbench/baseline/steadiness.json

It makes --sets sets of untraced runs, one after the other, each of
--runs runs per workload (all workloads, or those named with
--workloads) with its own seeds: set k uses seeds k*runs+1 to
(k+1)*runs. For each set, workload and end-to-end metric it reports the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median. It then
compares every later set's median with the first set's.

Two flags are recorded per metric, and neither has exceptions:
  within_bound          spread under the metric's bound in BENCHMARK.json;
  within_third_of_bound spread under a third of it, the steadiness target.
Per later set it records `worse_by`, how much worse than the first set's
median the set's median is (as a share, in the metric's bad direction),
and `agrees`, whether that stays within the bound.

The exit status is 0 when every run passed its output check, every
spread but setup_s's is within its bound, and every set agrees with the
first on every metric; setup_s's spread is not held to its bound, as the
benchmark's contract allows. With --traced it also makes one traced run
per workload on the committed seed and records its per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True).stdout
    lines = out.strip().splitlines()
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
    return json.loads(lines[-1]), fingerprint


def stats(vs, bound):
    q1, _, q3 = statistics.quantiles(vs, n=4)
    med = statistics.median(vs)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_bound": spread < bound, "within_third_of_bound": spread < bound / 3,
            "values": vs}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    record = {"runs": args.runs, "sets": [], "seconds": args.seconds, "workloads": workloads}
    ok = True
    for k in range(args.sets):
        seeds = list(range(k * args.runs + 1, (k + 1) * args.runs + 1))
        st = {"seeds": seeds, "workloads": {}}
        for w in workloads:
            values = {m: [] for m in metrics}
            correct = True
            for seed in seeds:
                res, fp = run(w, seed, args.seconds, 0)
                record["fingerprint"] = fp
                correct = correct and res["correct"] and res["failed"] == 0
                for m in metrics:
                    values[m].append(res["metrics"][m]["value"])
            rec = {"correct": correct, "metrics": {}}
            ok = ok and correct
            for m, vs in values.items():
                s = stats(vs, metrics[m]["bound"])
                ok = ok and (m == "setup_s" or s["within_bound"])
                rec["metrics"][m] = s
                print(f"set {k + 1} {w:14s} {m:12s} median {s['median']:12.6g} "
                      f"spread {s['spread']:7.4f} bound {s['bound']:.2f} "
                      f"{'ok' if s['within_third_of_bound'] else 'WIDE'}", flush=True)
            st["workloads"][w] = rec
        record["sets"].append(st)
    first = record["sets"][0]["workloads"]
    for k, st in enumerate(record["sets"][1:], start=2):
        for w, rec in st["workloads"].items():
            for m, s in rec["metrics"].items():
                base = first[w]["metrics"][m]["median"]
                change = s["median"] / base - 1
                worse_by = change if metrics[m]["better"] == "lower" else -change
                s["worse_by"] = worse_by
                s["agrees"] = worse_by <= metrics[m]["bound"]
                ok = ok and s["agrees"]
                print(f"set {k} vs 1 {w:14s} {m:12s} median x{s['median'] / base:.4f} "
                      f"worse by {worse_by:+.4f} bound {metrics[m]['bound']:.2f} "
                      f"{'agrees' if s['agrees'] else 'DISAGREES'}", flush=True)
    if args.traced:
        record["per_layer_seed1"] = {}
        for w in workloads:
            res, _ = run(w, 1, args.seconds, 1)
            record["per_layer_seed1"][w] = {
                "correct": res["correct"],
                "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
