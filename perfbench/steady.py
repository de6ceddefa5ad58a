#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and prints, for
every metric, the median and the spread: the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median.
Gated end-to-end metrics are compared with their bound (setup_s is exempt
from the spread test); ungated detail metrics are printed for reference.

    python3 perfbench/steady.py --seeds 1-10 [--workloads review,batch]
    python3 perfbench/steady.py --seeds 1-5 --workloads batch --trace 1

Run it from the repository root. Exits 1 when a gated spread exceeds a
third of its bound, or a run fails its own checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values, details, walls = {}, {}, []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            start = time.monotonic()
            run = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect\n{run.stderr[-2000:]}")
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            report = f"perfbench/out/report-{workload}-seed{seed}-trace{args.trace}.json"
            if os.path.exists(report):
                with open(report) as f:
                    for name, metric in json.load(f)["detail"].items():
                        details.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        for kind, table in (("gated", values), ("detail", details)):
            for name, series in table.items():
                if len(series) < 2:
                    continue
                s = spread(series)
                bound = bounds.get(name) if kind == "gated" and args.trace == "0" else None
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = "ok" if s <= bound / 3 else "TOO NOISY"
                    ok &= s <= bound / 3
                print(f"  {kind:6} {name:34} median {statistics.median(series):14.6g} "
                      f"spread {s:7.2%} {'bound ' + format(bound, '.0%') if bound else ''} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
