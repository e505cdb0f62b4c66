#!/usr/bin/env python3
"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload batch_10k --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --workload batch_10k --seeds 1 2 3 --write

The spread of a metric is the distance between the first and third
quartiles of its per-run values (``statistics.quantiles(values, n=4)``) as a
share of their median; BENCHMARK.json's bound of each end-to-end metric must
stay above it.  ``--write`` stores the runs, medians, spreads and host facts
under the workload's name in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = run.benchmark_spec()
    bounds = {item["name"]: item.get("bound") for item in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    walls = []
    for seed in args.seeds:
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(run.ROOT),
        )
        walls.append(time.perf_counter() - began)
        result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else {}
        if done.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {done.returncode})\n{done.stderr}")
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s", flush=True)

    summary = {}
    for name, series in values.items():
        median = statistics.median(series)
        quartiles = statistics.quantiles(series, n=4)
        spread = (quartiles[2] - quartiles[0]) / median if median else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None or spread < bound / 3 else (
            "  above bound/3" if spread < bound else "  ABOVE BOUND")
        print(f"{name:40s} median {median:12.6g}  spread {spread:6.3f}  bound {bound}{mark}")
        summary[name] = {"median": median, "spread": spread, "runs": series}
    print(f"wall per run: max {max(walls):.1f} s, median {statistics.median(walls):.1f} s")

    if args.write:
        path = run.HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        baseline[args.workload] = {
            "host": run.host_facts(),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "wall_s_max": max(walls),
            "metrics": summary,
        }
        path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
