#!/usr/bin/env python3
"""Run the benchmark several times per workload, one seed per run, and
report each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median) against its bound.

Run from the repository root:

    python3 perfbench/steady.py --workloads pta_feed adhoc_mixed pool_feed --runs 10

The benchmark is built once up front (`cargo build --release`), so the
runs time only the benchmark itself. Results go to standard output and, with
`--out FILE`, as JSON to FILE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(cmd, workload, seed, seconds, trace, logs):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if logs:
        os.makedirs(logs, exist_ok=True)
        with open(os.path.join(logs, f"{workload}-{seed}-{trace}.log"), "w") as f:
            f.write(p.stdout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--logs", help="directory to keep each run's output in")
    a = ap.parse_args()

    subprocess.run(spec["command"][:1] + ["build", "--release", "--quiet",
                   "--manifest-path", "perfbench/Cargo.toml"], check=True)
    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    report = {"nproc": os.cpu_count(), "runs": a.runs,
              "seconds": a.seconds, "workloads": {}}
    for w in a.workloads:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for i in range(a.runs):
            seed = a.first_seed + i
            result, wall = run_once(spec["command"], w, seed, a.seconds,
                                    a.trace, a.logs)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        rows = {}
        print(f"\n{w}: {a.runs} runs, median run {statistics.median(walls):.1f} s")
        print(f"{'metric':<28}{'q1':>14}{'median':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) >= 2:
                q1, med, q3 = statistics.quantiles(v, n=4)
            else:
                q1 = med = q3 = v[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = " ok" if spread < bound / 3 else " WIDE"
            print(f"{m['name']:<28}{q1:>14.4g}{med:>14.4g}{q3:>14.4g}"
                  f"{spread:>9.3f}{bound if bound is not None else '':>7}{flag}")
            rows[m["name"]] = {"q1": q1, "median": med, "q3": q3,
                               "spread": spread}
        report["workloads"][w] = {"metrics": rows,
                                  "median_run_s": statistics.median(walls)}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
