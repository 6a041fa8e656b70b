#!/usr/bin/env python3
"""Stability report for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run with another seed, and prints for every metric its unit, median,
quartiles and sample count. The first run of a set uses the command's
default seed (LOAD_SEED, the seed the pinned digests are taken at), the
others seeds --seed-base, --seed-base + 1, ... It flags:

* an end-to-end metric, setup_s included, whose quartile spread, as a
  share of its median, exceeds its bound from BENCHMARK.json;
* with --sets 2, a metric whose second-set median is worse than the first
  by more than its bound;
* a per-layer count (unit count, bytes, ratio or KB) that differs between
  two traced runs at LOAD_SEED.

Run from the repository root:

    python3 perfbench/stability.py --runs 10
    python3 perfbench/stability.py --runs 5 --workloads paper-grid --no-trace

Exits 1 if anything is flagged or any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT_UNITS = {"count", "bytes", "ratio", "KB"}

# dlb_bench::LOAD_SEED, the benchmark's default --seed.
LOAD_SEED = 0x1996_0802


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--no-trace", action="store_true", help="skip the per-layer repeat check")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [w for w in names if w in args.workloads.split(",")]

    flagged = []
    for w in names:
        sets = []
        for s in range(args.sets):
            values = {m: [] for m in bounds}
            seeds = [LOAD_SEED] + [args.seed_base + i for i in range(args.runs - 1)]
            for seed in seeds:
                res, wall = run(cmd, w, seed, seconds, 0)
                for m, v in res["metrics"].items():
                    values[m].append(v["value"])
                print(f"  {w} set {s + 1} seed {seed}: {wall:.1f} s wall, "
                      + ", ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      flush=True)
            sets.append(values)
        print(f"\n{w}: {args.runs} runs per set, {seconds} s each")
        print(f"  {'metric':<14} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'n':>3} {'spread':>8} {'bound':>6}")
        for m, spec in bounds.items():
            for s, values in enumerate(sets):
                med, q1, q3, sp = spread(values[m])
                flag = ""
                if sp > spec["bound"]:
                    flag = "  SPREAD > BOUND"
                elif sp > spec["bound"] / 3:
                    flag = "  (spread > bound/3)"
                print(f"  {m:<14} {spec['unit']:<5} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{len(values[m]):>3} {sp:>8.4f} {spec['bound']:>6}{flag}")
                if "BOUND" in flag:
                    flagged.append(f"{w} {m} spread {sp:.4f} > {spec['bound']}")
            if len(sets) == 2:
                a = statistics.median(sets[0][m])
                b = statistics.median(sets[1][m])
                worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                print(f"  {'':<14} second set worse by {worse:+.4f} of the first median")
                if worse > spec["bound"]:
                    flagged.append(f"{w} {m} second median worse by {worse:.4f}")

        if not args.no_trace:
            seed = LOAD_SEED
            a, _ = run(cmd, w, seed, seconds, 1)
            b, _ = run(cmd, w, seed, seconds, 1)
            exact = [m for m, v in a["metrics"].items() if v["unit"] in EXACT_UNITS]
            diff = [m for m in exact if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
            print(f"  per-layer: {len(exact)} count metrics compared across two traced runs "
                  f"at seed {seed}: {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
            flagged += [f"{w} per-layer {m} differs between runs" for m in diff]
        print()

    if flagged:
        print("FLAGGED:\n  " + "\n  ".join(flagged))
        sys.exit(1)
    print("stable: every spread within its bound")


if __name__ == "__main__":
    main()
