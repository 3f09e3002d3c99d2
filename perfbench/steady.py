#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs every workload (or the ones named with --workloads) repeatedly as
two interleaved sets, A and B, each run with its own seed, and prints
for every end-to-end metric the median and quartiles of each set and
the spread (third minus first quartile, as a share of the median).

A metric is flagged when its spread exceeds the metric's bound, in
either set or over all runs, or when the two sets' medians differ by
more than the bound, in either direction. A run that fails its output
check, or whose result line lacks a metric, is flagged too. The exit
code is 1 when anything is flagged.

Run from the repository root:

    python3 perfbench/steady.py --runs 5            # 2 x 5 runs per workload
    python3 perfbench/steady.py --workloads serve-mixed --runs 3
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, elapsed, f"exit code {proc.returncode}"
    try:
        return json.loads(lines[-1]), elapsed, None
    except json.JSONDecodeError as err:
        return None, elapsed, f"last line is not JSON: {err}"


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated subset of the workloads")
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    metrics = spec["end_to_end"]
    wanted = {m["name"] for m in metrics}

    flags = []
    results = {(w, s): [] for w in names for s in "AB"}
    seed = 1
    for i in range(args.runs):
        for set_name in "AB":
            for workload in names:
                result, elapsed, error = run_once(spec, workload, seed)
                print(f"run {i + 1}/{args.runs} set {set_name} {workload} seed {seed}: "
                      f"{elapsed:.1f} s{'' if error is None else ' ' + error}", flush=True)
                if result is None:
                    flags.append(f"{workload} seed {seed}: {error}")
                else:
                    if not result["correct"] or result["failed"]:
                        flags.append(f"{workload} seed {seed}: {result['failed']} of "
                                     f"{result['attempted']} operations failed")
                    got = set(result["metrics"])
                    if got != wanted:
                        flags.append(f"{workload} seed {seed}: metrics {sorted(got ^ wanted)} "
                                     "differ from BENCHMARK.json")
                    results[(workload, set_name)].append(result["metrics"])
                    print("    " + "  ".join(f"{k}={v['value']:.5g}"
                                             for k, v in result["metrics"].items()), flush=True)
            seed += 1

    for workload in names:
        print(f"\n{workload}")
        print(f"  {'metric':<14} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}"
              f"  {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = {}
            for set_name in "AB":
                values = [r[name]["value"] for r in results[(workload, set_name)] if name in r]
                if len(values) < 2:
                    continue
                q1, med, q3, rel = spread(values)
                medians[set_name] = med
                mark = ""
                if rel > bound:
                    mark = "  SPREAD"
                    flags.append(f"{workload} {name} set {set_name}: spread {rel:.3f} > {bound}")
                print(f"  {name:<14} {set_name:<3} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
                      f"{rel:>8.3f}  {bound:>6}{mark}")
            values = [r[name]["value"] for s in "AB" for r in results[(workload, s)] if name in r]
            if len(values) >= 2:
                q1, med, q3, rel = spread(values)
                mark = "  SPREAD" if rel > bound else ""
                if mark:
                    flags.append(f"{workload} {name} all runs: spread {rel:.3f} > {bound}")
                print(f"  {name:<14} all {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
                      f"{rel:>8.3f}  {bound:>6}{mark}")
            if len(medians) == 2:
                a, b = medians["A"], medians["B"]
                shift = (b - a) / a
                mark = "  DRIFT" if abs(shift) > bound else ""
                if mark:
                    flags.append(f"{workload} {name}: set B's median is {shift:+.3f} "
                                 "off set A's")
                print(f"  {name:<14} B vs A {shift:+.3f}{mark}")

    print()
    for flag in flags:
        print(f"FLAG {flag}")
    print("steady" if not flags else f"{len(flags)} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
