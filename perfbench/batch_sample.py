"""One batch-pipeline sample, run in a fresh interpreter by ``run.py``.

The parent starts this script and takes the clock on ``Popen``; the script
prints the monotonic time at which imports and pipeline construction ended
(``ready``), so set-up time covers interpreter start, imports and
``Pipeline.from_spec``.  It then generates the input from the seed (not
timed), runs ``Pipeline.run`` once (timed) and prints one JSON object:
timings, peak RSS, the output checksum and the quality figures the output
checks compare.

Usage: PYTHONPATH=src python3 perfbench/batch_sample.py --seed S --entities N
           [--executor process:2] [--trace SPANS.jsonl] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time


def entity_checksum(entities) -> str:
    """SHA-256 of the resolved entities in a canonical order and encoding."""
    canonical = sorted(
        json.dumps(entity, sort_keys=True, separators=(",", ":")) for entity in entities
    )
    digest = hashlib.sha256()
    for line in canonical:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _layers(tracer, result, batch_s: float, engine_summary: dict) -> dict:
    """Per-layer figures of one traced sample, named ``<module>.<what>``."""
    self_s = tracer.self_seconds()
    counters = tracer.counters
    report = result.report
    filtered = report.get("block_filtering").metrics
    edges = counters.get("metablocking.edges", 0)
    compared = counters.get("matching.pairs_compared", 0)
    layers = {
        "looseschema.partition_s": self_s.get("looseschema.partition", 0.0),
        "looseschema.entropy_s": self_s.get("looseschema.entropy", 0.0),
        "blocking.token_blocking_s": self_s.get("blocking.token_blocking", 0.0),
        "blocking.purge_s": self_s.get("blocking.purge", 0.0),
        "blocking.filter_s": self_s.get("blocking.filter", 0.0),
        "blocking.blocks": filtered["blocks"],
        "blocking.comparisons": filtered["total_comparisons"],
        "blocking.stats_s": self_s.get("blocking.stats", 0.0),
        "blocking.stats_pairs": counters.get("blocking.stats_pairs", 0),
        "metablocking.run_s": self_s.get("metablocking.run", 0.0),
        "metablocking.edges": edges,
        "metablocking.retained": counters.get("metablocking.retained", 0),
        "metablocking.retained_ratio": (
            counters.get("metablocking.retained", 0) / edges if edges else 0.0
        ),
        "matching.match_s": self_s.get("matching.match", 0.0),
        "matching.pairs_compared": compared,
        "matching.match_ratio": (
            counters.get("matching.matched", 0) / compared if compared else 0.0
        ),
        "clustering.cluster_s": self_s.get("clustering.cluster", 0.0),
        "clustering.entities_s": self_s.get("clustering.entities", 0.0),
        "utils.tokenize_calls": counters.get("utils.tokenize_calls", 0),
        "utils.tokenize_s": counters.get("utils.tokenize_s", 0.0),
        "pipeline.overhead_s": batch_s - sum(_stage_seconds(tracer).values()),
        "engine.tasks": engine_summary.get("tasks", 0),
        "engine.task_failures": engine_summary.get("task_failures", 0),
        "engine.shuffle_records": engine_summary.get("shuffle_records", 0),
        "engine.shuffle_bytes": engine_summary.get("shuffle_bytes", 0),
        "engine.relay_bytes": engine_summary.get("shuffle_relay_bytes", 0),
        "engine.worker_rss_mb": engine_summary.get("max_rss_bytes", 0) / 2**20,
    }
    for name, value in counters.items():
        if name.startswith("pipeline.") and name.endswith(".rss_hwm_mb"):
            layers[name] = value
    return layers


def _stage_seconds(tracer) -> dict[str, float]:
    return {
        name: tracer.total_seconds(name)
        for name in {span[1] for span in tracer.spans}
        if name.startswith("stage.")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--entities", type=int, required=True)
    parser.add_argument("--executor", default=None)
    parser.add_argument("--trace", default=None, help="write spans to this JSONL file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.core.sparker import SparkER
    from repro.data.synthetic import generate_scalability_products
    from repro.pipeline.runner import Pipeline

    spec = SparkER.canonical_spec(
        use_engine=args.executor is not None, executor=args.executor
    )
    pipeline = Pipeline.from_spec(spec)
    ready = time.monotonic()
    if args.setup_only:
        pipeline.shutdown()
        print(json.dumps({"ready": ready}))
        return 0

    dataset = generate_scalability_products(args.entities, seed=args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer, install_batch

        tracer = Tracer(run_id=f"batch-{args.seed}-{args.executor or 'driver'}")
        install_batch(tracer)
    try:
        started = time.perf_counter()
        result = pipeline.run(dataset.profiles, dataset.ground_truth)
        batch_s = time.perf_counter() - started
        engine_summary = pipeline.engine.metrics_summary() if pipeline.engine else {}
    finally:
        pipeline.shutdown()
    if tracer is not None:
        tracer.restore()
        tracer.write_jsonl(args.trace)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = result.report
    sample = {
        "ready": ready,
        "batch_s": batch_s,
        # The driver's high-water mark plus the largest worker's (RUSAGE_
        # CHILDREN keeps the maximum over reaped children, not their sum).
        "peak_rss_mb": (own + workers) / 1024.0,
        "profiles": len(dataset.profiles),
        "entities": len(result.entities),
        "checksum": entity_checksum(result.entities),
        "blocking_recall": report.get("meta_blocking").metrics["recall"],
        "match_f1": report.get("matching").metrics["f1"],
    }
    if tracer is not None:
        sample["layers"] = _layers(tracer, result, batch_s, engine_summary)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
