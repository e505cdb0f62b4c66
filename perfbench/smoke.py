#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about three minutes).

    python3 perfbench/smoke.py

1. Every workload runs untraced and traced at 200 entities with one service
   cycle; each prints every metric of BENCHMARK.json with its unit, and its
   output checks pass.
2. A perturbed output fails the checks: one entity dropped from a batch
   result, one candidate dropped from a service answer.
3. Without the program (only BENCHMARK.json and perfbench/), the benchmark
   exits non-zero and prints no result line.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run

SEED = 1


def fail(message: str) -> None:
    print(f"perfbench smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run_benchmark(root, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=str(root), timeout=600,
    )


def check_metrics_printed() -> None:
    spec = run.benchmark_spec()
    for workload in run.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run_benchmark(run.ROOT, workload, trace)
            if done.returncode != 0:
                fail(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: {lines[-1]}")
            for item in listed:
                metric = result["metrics"].get(item["name"])
                if metric is None or metric["unit"] != item["unit"]:
                    fail(f"{workload}: {item['name']} missing or without unit {item['unit']}")
                if not any(line.split()[:1] == [item["name"]] and item["unit"] in line
                           for line in lines[:-1]):
                    fail(f"{workload}: {item['name']} not in the printed table")
            print(f"ok  {workload} trace={trace}: {len(listed)} metrics", flush=True)


def check_perturbations() -> None:
    from repro.core.sparker import SparkER
    from repro.data.synthetic import generate_scalability_products
    from repro.pipeline.runner import Pipeline

    import batch_sample
    import service_load as load

    sizes = run.TINY
    dataset = generate_scalability_products(sizes.batch_entities, seed=SEED)
    result = Pipeline.from_spec(SparkER.canonical_spec()).run(
        dataset.profiles, dataset.ground_truth
    )
    reference = run.load_expected()["recorded"][f"{sizes.batch_entities}:{SEED}"]
    report = result.report

    def sample(entities):
        return {
            "checksum": batch_sample.entity_checksum(entities),
            "entities": len(entities),
            "blocking_recall": report.get("meta_blocking").metrics["recall"],
            "match_f1": report.get("matching").metrics["f1"],
        }

    run.check_batch_outputs([sample(result.entities)], reference, {})
    try:
        run.check_batch_outputs([sample(result.entities[1:])], reference, {})
    except run.CheckFailed as failure:
        print(f"ok  dropped entity detected: {failure}")
    else:
        fail("a batch result with one entity dropped passed the output check")

    plan = load.TenantPlan("t1", load.tenant_payloads(sizes.service_entities, SEED), SEED)
    acked = plan.cycles[:1]
    ids = load.probe_ids(plan, acked)
    twin = load.twin_answers(plan, acked, ids)
    run.check_probe_answers("t1", load.twin_answers(plan, acked, ids), twin)
    served = copy.deepcopy(twin)
    victim = next(pid for pid in ids if twin[pid]["candidates"])
    served[victim]["candidates"] = twin[victim]["candidates"][1:]
    try:
        run.check_probe_answers("t1", served, twin)
    except run.CheckFailed as failure:
        print(f"ok  dropped candidate detected: {failure}")
    else:
        fail("a service answer with one candidate dropped passed the output check")


def check_without_program() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(bare, "batch_10k", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail(f"without the program: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"ok  without the program: exit {done.returncode}, no result line")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    check_metrics_printed()
    check_perturbations()
    check_without_program()
    print("perfbench smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
