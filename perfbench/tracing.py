"""In-memory span tracer installed around the program's public entry points.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces a class
attribute or a module binding with a wrapper that records one span per call
(name, start, end, parent span, run id).  Spans stay in memory and are
written as JSON lines when the run ends.  A layer's self time is its span's
duration minus the part of that interval covered by its child spans.

``tokenize`` runs hundreds of thousands of times per batch run, so it gets a
call counter with a cumulative clock instead of one span per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # (span id, name, start, end, parent id or None)
        self.spans: list[tuple[int, str, float, float, "int | None"]] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, function, *args, **kwargs):
        """Call ``function`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    # -------------------------------------------------------------- patching
    def _patch(self, owner: object, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(tracer, args, result)`` runs once the call returned, outside
        the span, to record counts taken from the arguments or the result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        self._patch(owner, attr, traced)

    def count_calls(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and their cumulative seconds."""
        original = getattr(owner, attr)
        counts = self.counters
        clock = time.perf_counter

        @functools.wraps(original)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                # The service's worker threads tokenize concurrently, and a
                # read-modify-write of a dict item can lose an update there.
                with self._lock:
                    counts[name + "_calls"] = counts.get(name + "_calls", 0) + 1
                    counts[name + "_s"] = counts.get(name + "_s", 0.0) + clock() - start

        self._patch(owner, attr, counted)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- summary
    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name (span minus its children's cover)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _id, _name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, name, start, end, _parent in self.spans:
            covered = 0.0
            reach = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def total_seconds(self, name: str) -> float:
        """Inclusive seconds of the outermost spans named ``name``."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for _id, span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            ancestor = parent
            while ancestor is not None and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][4]
            if ancestor is None:
                total += end - start
        return total

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


def rss_hwm_mb() -> float:
    """This process's resident-set high-water mark so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_tokenize(tracer: Tracer) -> None:
    import repro.data.profile
    import repro.looseschema.entropy
    import repro.looseschema.lsh

    for module in (repro.looseschema.lsh, repro.looseschema.entropy, repro.data.profile):
        tracer.count_calls(module, "tokenize", "utils.tokenize")


def install_batch(tracer: Tracer) -> None:
    """Spans around every layer the canonical batch pipeline calls."""
    from repro.blocking.filtering import BlockFiltering
    from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
    from repro.blocking.purging import BlockPurging
    from repro.blocking.token_blocking import TokenBlocking
    from repro.core.entity_clusterer import EntityClusterer
    from repro.core.entity_matcher import EntityMatcher
    from repro.looseschema.attribute_partitioning import AttributePartitioner
    from repro.looseschema.entropy import EntropyExtractor
    from repro.pipeline import stages
    from repro.pipeline.stage import Stage

    def stage_rss(kind: str):
        def after(t, _args, _result):
            t.counters[f"pipeline.{kind}.rss_hwm_mb"] = rss_hwm_mb()

        return after

    for stage_class in vars(stages).values():
        if (
            isinstance(stage_class, type)
            and issubclass(stage_class, Stage)
            and stage_class is not Stage
            and "run" in vars(stage_class)
        ):
            kind = stage_class.kind
            tracer.wrap(stage_class, "run", f"stage.{kind}", after=stage_rss(kind))

    tracer.wrap(AttributePartitioner, "partition", "looseschema.partition")
    tracer.wrap(EntropyExtractor, "extract", "looseschema.entropy")
    tracer.wrap(TokenBlocking, "block", "blocking.token_blocking")
    tracer.wrap(LooseSchemaTokenBlocking, "block", "blocking.token_blocking")
    tracer.wrap(BlockPurging, "purge", "blocking.purge")
    tracer.wrap(BlockFiltering, "filter", "blocking.filter")

    def block_stats_pairs(t, _args, result):
        t.add("blocking.stats_pairs", int(result.get("candidate_pairs", 0)))

    def candidate_stats_pairs(t, args, _result):
        t.add("blocking.stats_pairs", len(args[0]))

    tracer.wrap(stages, "block_stage_metrics", "blocking.stats", after=block_stats_pairs)
    tracer.wrap(stages, "candidate_pair_stats", "blocking.stats", after=candidate_stats_pairs)

    def metablocking_counts(t, _args, result):
        summary = result.as_dict()
        t.add("metablocking.edges", summary["graph_edges"])
        t.add("metablocking.retained", summary["candidate_pairs"])

    make_meta_blocker = stages.make_meta_blocker

    def traced_make_meta_blocker(*args, **kwargs):
        blocker = make_meta_blocker(*args, **kwargs)
        run = blocker.run

        def traced_run(*run_args, **run_kwargs):
            result = tracer.call("metablocking.run", run, *run_args, **run_kwargs)
            metablocking_counts(tracer, run_args, result)
            return result

        blocker.run = traced_run
        return blocker

    tracer._patch(stages, "make_meta_blocker", traced_make_meta_blocker)

    def matching_counts(t, args, result):
        t.add("matching.pairs_compared", len(args[2]))
        t.add("matching.matched", len(result))

    tracer.wrap(EntityMatcher, "match", "matching.match", after=matching_counts)
    tracer.wrap(EntityClusterer, "cluster", "clustering.cluster")
    tracer.wrap(EntityClusterer, "generate_entities", "clustering.entities")
    _count_tokenize(tracer)


def install_service(tracer: Tracer) -> None:
    """Spans around the service's collection, index, delta and WAL calls."""
    from repro.metablocking.index import IncrementalBlockIndex
    from repro.service.collection import ServiceCollection
    from repro.service.delta import DeltaMetaBlocker
    from repro.service.wal import WriteAheadLog

    tracer.wrap(ServiceCollection, "ingest", "service.ingest")
    tracer.wrap(ServiceCollection, "matches", "service.matches")
    tracer.wrap(ServiceCollection, "candidates", "service.candidates")
    tracer.wrap(IncrementalBlockIndex, "append_profiles", "metablocking.index_append")
    tracer.wrap(IncrementalBlockIndex, "compact", "metablocking.compact")
    tracer.wrap(WriteAheadLog, "append", "service.wal_append")

    def delta_counts(t, args, _result):
        stats = args[0].stats()
        t.add("service.delta_affected_nodes", stats["last_affected_nodes"])
        t.add("service.delta_reweighed_nodes", stats["last_reweighed_nodes"])
        t.add("service.delta_refreshes", 1)
        t.add("service.delta_local_refreshes", int(stats["last_mode"] == "local"))

    tracer.wrap(DeltaMetaBlocker, "refresh", "service.delta_refresh", after=delta_counts)
    _count_tokenize(tracer)
