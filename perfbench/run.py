#!/usr/bin/env python3
"""SparkER benchmark: the batch pipeline and the live ER service, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (their reasons are in BENCHMARK.json):

* ``batch_10k`` -- ``Pipeline.from_spec(SparkER.canonical_spec()).run`` on
  ``generate_scalability_products(10_000, seed)``, driver path, no engine;
* ``batch_10k_process2`` -- the same with ``executor="process:2"``;
* ``service_mixed`` -- ``repro.cli serve`` with a WAL, two tenants, each one
  closed-loop client (see ``service_load.py``).

Every workload reports every end-to-end metric of BENCHMARK.json; how each is
measured per workload is in ``perfbench/README.md``.  ``--trace 1`` runs the
same workload with spans around each layer's public entry points and reports
the per-layer metrics instead.  The outputs are checked in both modes: a
failed check prints ``"correct": false`` and exits 1.  ``--workload all``
runs every workload untraced and traced and prints the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Tail percentile per request type.  At the minimum cycle count there are
# 2 tenants x Sizes.min_cycles = 40 requests of each kind, and p75 is the
# highest of 50/75/90/95/99 with ten samples beyond it; warm matches are 8
# times as many, and p90 leaves 32 beyond it (p95 measured no steadier).
TAIL_PERCENTILE = {"ingest": 75, "candidates": 75, "cold_match": 75, "warm_match": 90}


@dataclass(frozen=True)
class Sizes:
    batch_entities: int = 10_000
    service_entities: int = 2_000
    library_entities: int = 1_000
    min_batch_samples: int = 2
    setup_samples: int = 5
    server_starts: int = 5
    min_cycles: int = 20
    library_step_s: float = 1.5
    service_chunk: int = 4


# A run small enough for the smoke test: every code path, one service cycle.
TINY = Sizes(batch_entities=200, service_entities=200, library_entities=200,
             min_batch_samples=1,
             setup_samples=2, server_starts=2, min_cycles=1, library_step_s=0.0,
             service_chunk=1)

# End-to-end figures compared between a traced and an untraced run.
OVERHEAD_METRICS = ("batch_s", "ingest_p50_ms", "candidates_p50_ms", "cold_match_p50_ms",
                    "warm_match_p50_ms")

# Set-up-only interpreter starts after each batch sample; library cycles
# run in the gaps, so they too spread over the whole run.
SETUP_SPAWNS = 3

BATCH_EXECUTORS = {"batch_10k": None, "batch_10k_process2": "process:2"}
WORKLOADS = (*BATCH_EXECUTORS, "service_mixed")


class CheckFailed(Exception):
    """An output of the program differs from what the check expects."""


# ----------------------------------------------------------------- helpers
def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile; ``inf`` entries are failed requests."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def subprocess_env() -> dict:
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_TMPDIR=str(tmp),
                TMPDIR=str(tmp))


def batch_sample(seed: int, entities: int, executor, *, trace: "Path | None" = None,
                 setup_only: bool = False) -> dict:
    """Run ``batch_sample.py`` in a fresh interpreter; adds ``setup_s``."""
    command = [sys.executable, str(HERE / "batch_sample.py"), "--seed", str(seed),
               "--entities", str(entities)]
    if executor:
        command += ["--executor", executor]
    if trace is not None:
        command += ["--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    spawned = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, env=subprocess_env(),
                          cwd=str(ROOT), timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"batch sample failed ({done.returncode}):\n{done.stderr}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    sample["setup_s"] = sample["ready"] - spawned
    return sample


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text(encoding="utf-8"))


def check_batch_outputs(samples: list[dict], reference: "dict | None", floors: dict) -> None:
    """Every sample reproduces one result, equal to the reference if known."""
    fields = ("checksum", "entities", "blocking_recall", "match_f1")
    first = samples[0]
    for sample in samples[1:]:
        for field in fields:
            if sample[field] != first[field]:
                raise CheckFailed(f"samples disagree on {field}: {sample[field]!r} "
                                  f"!= {first[field]!r}")
    if reference is not None:
        for field in fields:
            if first[field] != reference[field]:
                raise CheckFailed(f"{field} {first[field]!r} differs from the "
                                  f"reference {reference[field]!r}")
    if not floors:
        return
    if first["blocking_recall"] < floors["blocking_recall"]:
        raise CheckFailed(f"blocking recall {first['blocking_recall']} below "
                          f"{floors['blocking_recall']}")
    if first["match_f1"] < floors["match_f1"]:
        raise CheckFailed(f"match F1 {first['match_f1']} below {floors['match_f1']}")


def check_probe_answers(tenant: str, served: dict, twin: dict) -> None:
    """The server's final answers equal those of the library twin."""
    for profile_id, expected in twin.items():
        if served.get(profile_id) != expected:
            raise CheckFailed(f"tenant {tenant}: answers for profile {profile_id} "
                              "differ from the library twin's")


def latency_metrics(record, metrics: dict, counts: dict) -> None:
    for op, percent in TAIL_PERCENTILE.items():
        values = record.latencies[op]
        metrics[f"{op}_p50_ms"] = percentile(values, 50) * 1e3
        metrics[f"{op}_tail_ms"] = percentile(values, percent) * 1e3
        counts[f"{op}_p50_ms"] = f"n={len(values)}, p50"
        counts[f"{op}_tail_ms"] = f"n={len(values)}, p{percent}"


# ---------------------------------------------------------------- workloads
def run_batch(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
              run_dir: Path):
    """Batch samples, set-up samples and library cycles, interleaved.

    The host's speed drifts by a fifth over some seconds, so every metric
    takes its samples across the whole run instead of in one block: the
    library cycles start a new pass whenever they run out, and the run
    ends about ``seconds`` after its start, once every minimum is met and
    the library's current pass has run to its end.
    """
    import service_load as load

    executor = BATCH_EXECUTORS[workload]
    expected = load_expected()
    reference = expected["recorded"].get(f"{sizes.batch_entities}:{seed}")
    tracer = None
    if trace:
        from tracing import Tracer, install_service

        tracer = Tracer(run_id=f"{workload}-{seed}-library")
        install_service(tracer)
    plans = [load.TenantPlan(f"t{k}", load.tenant_payloads(sizes.library_entities, seed + k),
                             seed + k) for k in (1, 2)]
    record = load.LoadRecord()
    library = load.LibraryPasses(plans, record)
    samples: list[dict] = []
    sample_walls: list[float] = []
    setups: list[float] = []

    def minimums_met() -> bool:
        return (len(samples) >= sizes.min_batch_samples and len(setups) >= sizes.setup_samples
                and library.cycles >= sizes.min_cycles)

    def batch_step() -> None:
        # A batch sample that would end after the deadline is left out
        # once there are enough, so that every run lasts about ``seconds``.
        if (len(samples) >= sizes.min_batch_samples
                and time.perf_counter() + statistics.median(sample_walls) > deadline):
            return
        spans = run_dir / f"spans-{len(samples)}.jsonl" if trace else None
        began = time.perf_counter()
        sample = batch_sample(seed, sizes.batch_entities, executor, trace=spans)
        sample_walls.append(time.perf_counter() - began)
        samples.append(sample)
        setups.append(sample["setup_s"])

    def setup_step() -> None:
        setups.append(batch_sample(seed, sizes.batch_entities, executor,
                                   setup_only=True)["setup_s"])

    def library_step() -> None:
        # Likewise a new pass that would end after the deadline.
        if (library.pass_done and library.cycles >= sizes.min_cycles
                and time.perf_counter() + library.pass_seconds() > deadline):
            return
        library.run_for(sizes.library_step_s)

    # One round: a batch sample, then set-up-only starts with library
    # cycles around them.
    steps = [batch_step, library_step, *[setup_step, library_step] * SETUP_SPAWNS]
    try:
        # Untimed: the first interpreter start after a pause reads the
        # modules from disk, which no later start in a run does.  When the
        # seed has no recorded result, process:2 needs a driver-path one to
        # compare with, and that run serves as this start.
        if reference is None and executor is not None:
            reference = batch_sample(seed, sizes.batch_entities, None)
        else:
            batch_sample(seed, sizes.batch_entities, executor, setup_only=True)
        started = time.perf_counter()
        deadline = started + seconds
        position = 0
        # The current library pass is run to its end after the loop, so the
        # loop leaves it the time it is expected to take.
        while not (minimums_met()
                   and time.perf_counter() + library.seconds_to_pass_end() >= deadline):
            steps[position % len(steps)]()
            position += 1
        library.finish_pass()
    finally:
        if tracer is not None:
            tracer.restore()
        library.close()
    stats = library.stats

    check_batch_outputs(samples, reference,
                        expected["floors"].get(str(sizes.batch_entities), {}))

    batch_s = statistics.median(sample["batch_s"] for sample in samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "batch_s": batch_s,
        "peak_rss_mb": statistics.median(sample["peak_rss_mb"] for sample in samples),
        "preload_profiles_per_s": samples[0]["profiles"] / batch_s,
        "service_ops_per_s": record.attempted / library.cycle_s,
    }
    counts = {"setup_s": f"n={len(setups)}", "batch_s": f"n={len(samples)}",
              "peak_rss_mb": f"n={len(samples)}", "preload_profiles_per_s": f"n={len(samples)}",
              "service_ops_per_s": f"n={record.attempted}"}
    latency_metrics(record, metrics, counts)
    layers = {}
    if trace:
        layers = {name: statistics.median(sample["layers"][name] for sample in samples)
                  for name in samples[0]["layers"]}
        layers.update(service_layers(tracer.self_seconds(), tracer.counters, stats, None))
        tracer.write_jsonl(str(run_dir / "spans-library.jsonl"))
        layers["failed_ops_ratio"] = record.failed / record.attempted
    return {
        "metrics": metrics,
        "counts": counts,
        "layers": layers,
        "attempted": len(samples) + record.attempted,
        "failed": record.failed,
    }


def service_layers(self_s: dict, counters: dict, stats: list[dict],
                   server_metrics: "dict | None") -> dict:
    """Per-layer service figures from spans, collection stats and /metrics."""
    refreshes = sum(s["delta"]["refreshes"] for s in stats)
    layers = {
        "metablocking.index_append_s": self_s.get("metablocking.index_append", 0.0),
        "metablocking.compact_s": self_s.get("metablocking.compact", 0.0),
        "metablocking.compactions": sum(s["compactions"] for s in stats),
        "metablocking.progressive_sweep_s": self_s.get("service.matches", 0.0),
        "service.ingest_s": self_s.get("service.ingest", 0.0),
        "service.candidates_s": self_s.get("service.candidates", 0.0),
        "service.wal_append_s": self_s.get("service.wal_append", 0.0),
        "service.wal_bytes": sum((s["wal"] or {}).get("size_bytes", 0) for s in stats),
        "service.delta_refresh_s": self_s.get("service.delta_refresh", 0.0),
        "service.delta_affected_nodes": counters.get("service.delta_affected_nodes", 0),
        "service.delta_reweighed_nodes": counters.get("service.delta_reweighed_nodes", 0),
        "service.delta_local_ratio": (
            sum(s["delta"]["local_refreshes"] for s in stats) / refreshes if refreshes else 0.0
        ),
    }
    if server_metrics is not None:
        collection_call_s = sum(
            self_s.get(name, 0.0)
            for name in ("service.ingest", "service.matches", "service.candidates",
                         "service.wal_append", "service.delta_refresh",
                         "metablocking.index_append", "metablocking.compact")
        )
        handled_s = sum(
            summary["count"] * summary["mean"]
            for label, summary in server_metrics["endpoints"].items()
            if label.startswith(("POST /collections/{name}/profiles",
                                 "GET /collections/{name}/"))
        )
        wait = server_metrics["offload"]["wait"]
        offload_wait_s = wait["count"] * wait["mean"]
        counters_ = server_metrics["counters"]
        layers.update({
            "service.http_self_s": handled_s - collection_call_s - offload_wait_s,
            "service.offload_wait_s": offload_wait_s,
            "service.shed_429": counters_.get("responses_429", 0),
            "service.expired_503": counters_.get("responses_503", 0),
        })
    return layers


def run_service(seed: int, seconds: float, trace: bool, sizes: Sizes, run_dir: Path):
    """Cycles on one loaded server, interleaved with start-and-load samples.

    Between chunks of cycles a second server is started, bulk-loaded and
    stopped, so the set-up and bulk-load samples spread over the whole run
    like the request samples do (the host's speed drifts over seconds).
    """
    import service_load as load

    plans = [load.TenantPlan(f"t{k}", load.tenant_payloads(sizes.service_entities, seed + k),
                             seed + k) for k in (1, 2)]
    names = [plan.name for plan in plans]
    setups, batch_runs, preload_rates = [], [], []
    warmup = load.LoadRecord()

    def start_and_load(server) -> dict:
        """Start ``server`` and bulk-load every tenant, one after the other."""
        setups.append(server.start())
        clients = {name: load.HttpTenant(server.port, name) for name in names}
        began = time.perf_counter()
        loading_s = sum(plan.load(clients[plan.name], warmup) for plan in plans)
        batch_runs.append(time.perf_counter() - began)
        preloaded = sum(len(b["profiles"]) for plan in plans for b in plan.preload)
        preload_rates.append(preloaded / loading_s)
        return clients

    spans = run_dir / "spans-server.jsonl" if trace else None
    server = load.Server(ROOT, run_dir / "server", names, spans)
    record = load.LoadRecord()
    cycle_s = 0.0
    try:
        clients = start_and_load(server)
        loops = [load.TenantLoop(clients[plan.name], plan, record) for plan in plans]
        started = time.perf_counter()
        while (loops[0].done < sizes.min_cycles or len(setups) < sizes.server_starts
               or time.perf_counter() - started < seconds):
            cycles = min(sizes.service_chunk, *(loop.remaining for loop in loops))
            if cycles == 0:
                break
            began = time.perf_counter()
            load.lockstep(loops, cycles)
            cycle_s += time.perf_counter() - began
            side = load.Server(ROOT, run_dir / f"side-{len(setups)}", names, None)
            try:
                start_and_load(side)
            finally:
                side.stop()
        for loop in loops:
            ids = load.probe_ids(loop.plan, loop.acked)
            check_probe_answers(loop.plan.name, load.answers(loop.client, ids),
                                load.twin_answers(loop.plan, loop.acked, ids))
        # After the probes, so that the handled time in /metrics covers the
        # same requests as the server's spans.
        _ok, server_metrics = clients[names[0]].call("GET", "/metrics")
    finally:
        peak_rss_mb = server.stop()

    metrics = {
        "setup_s": statistics.median(setups),
        "batch_s": statistics.median(batch_runs),
        "peak_rss_mb": peak_rss_mb,
        "preload_profiles_per_s": statistics.median(preload_rates),
        "service_ops_per_s": record.attempted / cycle_s,
    }
    counts = {"setup_s": f"n={len(setups)}", "batch_s": f"n={len(batch_runs)}",
              "peak_rss_mb": "n=1", "preload_profiles_per_s": f"n={len(preload_rates)}",
              "service_ops_per_s": f"n={record.attempted}"}
    latency_metrics(record, metrics, counts)
    layers = {}
    if trace:
        summary = json.loads(Path(f"{spans}.summary.json").read_text(encoding="utf-8"))
        stats = [server_metrics["collections"][name] for name in names]
        layers = service_layers(summary["self_seconds"], summary["counters"], stats,
                                server_metrics)
        layers["utils.tokenize_calls"] = summary["counters"].get("utils.tokenize_calls", 0)
        layers["utils.tokenize_s"] = summary["counters"].get("utils.tokenize_s", 0.0)
        layers["failed_ops_ratio"] = record.failed / record.attempted
    return {
        "metrics": metrics,
        "counts": counts,
        "layers": layers,
        "attempted": warmup.attempted + record.attempted,
        "failed": warmup.failed + record.failed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes) -> dict:
    """One run: the measured figures plus the object of the result line."""
    spec = benchmark_spec()
    run_dir = WORK / f"{workload}-{seed}-{'traced' if trace else 'plain'}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    correct = True
    try:
        if workload in BATCH_EXECUTORS:
            outcome = run_batch(workload, seed, seconds, trace, sizes, run_dir)
        else:
            outcome = run_service(seed, seconds, trace, sizes, run_dir)
    except CheckFailed as failure:
        print(f"output check FAILED: {failure}", file=sys.stderr)
        correct = False
        outcome = {"metrics": {}, "counts": {}, "layers": {}, "attempted": 1, "failed": 1}
    finally:
        keep = [path for path in run_dir.glob("spans-*") if path.is_file()]
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        for path in keep:
            path.replace(traces / f"{run_dir.name}-{path.name}")
        shutil.rmtree(run_dir, ignore_errors=True)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = outcome["layers"] if trace else outcome["metrics"]
    metrics = {}
    for item in listed:
        value = source.get(item["name"], 0)
        # A latency with failed requests is infinite, which JSON cannot carry.
        metrics[item["name"]] = {"value": value if math.isfinite(value) else sys.float_info.max,
                                 "unit": item["unit"]}
    return {
        "workload": workload,
        "seed": seed,
        "measured": outcome["metrics"],
        "trace": trace,
        "host": host_facts(),
        "counts": outcome["counts"],
        "result": {
            "correct": correct and outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": metrics,
        },
    }


def print_table(run: dict) -> None:
    host = run["host"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
          f"nproc {host['nproc']}  python {host['python']}  numpy {host['numpy']}")
    for name, metric in run["result"]["metrics"].items():
        samples = run["counts"].get(name, "")
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']:<12s} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sizes = TINY if args.tiny else Sizes()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.environ.update({key: value for key, value in subprocess_env().items()
                       if key in ("REPRO_TMPDIR", "TMPDIR")})

    if args.workload != "all":
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
        print_table(run)
        print(json.dumps(run["result"]))
        return 0 if run["result"]["correct"] else 1

    summary = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, False, sizes)
        traced = run_workload(workload, args.seed, args.seconds, True, sizes)
        print_table(plain)
        print_table(traced)
        overhead = {
            name: traced["measured"][name] - plain["measured"][name]
            for name in OVERHEAD_METRICS
            if name in traced["measured"] and name in plain["measured"]
        }
        print(f"  tracing overhead (traced - untraced): {json.dumps(overhead)}")
        summary[workload] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "untraced": plain["result"],
            "traced": traced["result"],
            "trace_overhead": overhead,
        }
    correct = all(entry["correct"] for entry in summary.values())
    print(json.dumps({"correct": correct, "workloads": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash must not look like a result: no JSON line
        traceback.print_exc()
        sys.exit(1)
