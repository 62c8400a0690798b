#!/usr/bin/env python3
"""Steadiness check: repeat each workload with different seeds and
print, per end-to-end metric, the median and the spread between the
quartiles (as a share of the median) next to the metric's bound from
BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload W ...] [--trace 0|1]
                                [--json FILE]

Run from the root of a checkout.  Each run goes through
perfbench/run.py exactly as a single invocation would.  --json writes
every run's result and the summary to FILE.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    wall = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1]), wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {}
    ok = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r, wall = run_once(w, seed, bench["run_seconds"], args.trace)
            r["wall_s"] = wall
            results.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"wall={wall:.1f}s", flush=True)
        print(f"\n{w}: {args.runs} runs")
        print(f"  {'metric':32} {'median':>12} {'IQR/median':>11} {'bound':>7}")
        rows = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            if len(vals) > 1 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and not spread < bound:
                flag = "  OVER BOUND"
                ok = False
            elif bound is not None and not spread < bound / 3:
                flag = "  over a third of the bound"
            btxt = f"{bound:7.3f}" if bound is not None else "      -"
            print(f"  {m['name']:32} {med:12.6g} {spread:11.4f} {btxt}{flag}")
            rows[m["name"]] = {"median": med, "spread": spread, "bound": bound}
        fails = {(r["failed"], r["attempted"]) for r in results}
        shares = {f / a for f, a in fails}
        print(f"  failed share per run: {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in results)}; "
              f"mean wall time {statistics.mean(r['wall_s'] for r in results):.1f} s\n")
        ok = ok and all(r["correct"] for r in results)
        report[w] = {"runs": results, "summary": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
