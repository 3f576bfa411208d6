#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every (workload, metric) it prints the median of the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound from BENCHMARK.json, plus the printed unnormalized unit
time (printed.unit_raw) and host slowdown (printed.host). Each run's line
shows its sim_digest, so two sets can be compared line by line.
Workloads are interleaved seed by seed, so slow drift of the machine
spreads over all of them.

Run from the repository root:

    python3 wsnbench/spread.py [--seeds 10] [--trace 0] [--workloads a,b]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    key = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    values = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {lines[-1]}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            # The unnormalized unit time and the host slowdown, as printed.
            digest = ""
            for line in lines[:-1]:
                words = line.split()
                if words[:2] in (["unit_raw", "median"], ["host", "slowdown"]):
                    values[w].setdefault("printed." + words[0], []).append(float(words[2]))
                if words[:1] == ["sim_digest"]:
                    digest = words[1]
            print(f"seed {seed} {w}: sim_digest={digest} " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if n in ("setup_s", "unit_ms", "peak_heap_mib", "trace.coverage", "trace.overhead_ratio")
            ), flush=True)

    print(f"\n{'workload':<14} {'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, xs in values[w].items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{w:<14} {name:<32} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
