"""Old-vs-new meta-blocking kernel benchmark (perf trajectory entry #1).

Times the hot paths of the meta-blocking kernel, across graph sizes:

* **legacy vs interpreted CSR sweep** (``entries``) — the pre-CSR path
  materialises each neighbour's *full* neighbourhood again per edge to read
  its degree (O(Σ deg²) dict-of-tuples traversals) and emits every edge
  twice; the CSR sweep materialises each node's neighbourhood exactly once
  into reusable scratch buffers, reads degrees from the cached degree vector
  and emits each edge from its lower endpoint only.  Likewise WNP / CNP
  voting: full edge scan per node vs the incident-edge adjacency index.
* **interpreted reference vs vectorised kernel** (``numpy_entries``) — the
  interpreted CSR sweep against
  :class:`~repro.metablocking.backends.NumpyKernel` on the same three paths:
  neighbourhood weighing (kernel sweep → weight table), WNP and CNP
  retention.  Output equality is asserted *bit-for-bit* — identical dicts,
  identical floats — before any timing is recorded; the guard enforces the
  ≥3× combined-speedup floor at the largest committed size.

Both interpreted baselines (:class:`CompactBlockIndex` and
:class:`InterpretedSweep`) live only here: the library runs the vectorised
kernel alone, and these are the denominators its speedups are measured
against.  Every comparison must produce identical results; the benchmark
asserts it, then writes ``BENCH_metablocking.json`` next to the repo root as
the committed baseline that ``scripts/bench_guard.py`` checks regressions
against.

Run directly::

    PYTHONPATH=src python benchmarks/bench_metablocking_kernel.py
    PYTHONPATH=src python benchmarks/bench_metablocking_kernel.py --sizes 100 --dry-run
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.blocking.block import BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine.context import EngineContext
from repro.metablocking.backends import prune_edge_weights
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import (
    ParallelMetaBlocker,
    _CardinalityNodeVotes,
    _sum_votes,
    _WeightedNodeVotes,
    edge_id_incidence,
)
from repro.metablocking.pruning import (
    CardinalityNodePruning,
    WeightedNodePruning,
    default_cnp_k,
)
from repro.metablocking.weights import WeightingScheme

DEFAULT_SIZES = (100, 200, 400)
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_metablocking.json"


def prepare_blocks(num_entities: int):
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=num_entities, seed=42))
    raw = TokenBlocking().block(dataset.profiles)
    blocks = BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))
    return dataset, blocks


# ------------------------------------------------------- interpreted baselines
@dataclass
class EdgeInfo:
    """Aggregate co-occurrence information of one blocking-graph edge."""

    common_blocks: int = 0
    arcs: float = 0.0
    entropy_sum: float = 0.0


def compute_edge_weight(
    scheme: WeightingScheme,
    info: EdgeInfo,
    *,
    blocks_a: int,
    blocks_b: int,
    total_blocks: int,
    degree_a: int = 0,
    degree_b: int = 0,
    total_edges: int = 0,
) -> float:
    """The scalar per-edge weight formula of the interpreted paths."""
    cbs = float(info.common_blocks)
    if scheme is WeightingScheme.CBS:
        return cbs
    if scheme is WeightingScheme.ARCS:
        return info.arcs
    if scheme is WeightingScheme.JS:
        denominator = blocks_a + blocks_b - cbs
        return cbs / denominator if denominator > 0 else 0.0
    if scheme is WeightingScheme.ECBS:
        if blocks_a == 0 or blocks_b == 0 or total_blocks == 0:
            return 0.0
        return (
            cbs
            * math.log10(max(total_blocks / blocks_a, 1.0) + 1e-12)
            * math.log10(max(total_blocks / blocks_b, 1.0) + 1e-12)
        )
    denominator = blocks_a + blocks_b - cbs
    js = cbs / denominator if denominator > 0 else 0.0
    if degree_a == 0 or degree_b == 0 or total_edges == 0:
        return js
    return (
        js
        * math.log10(max(total_edges / degree_a, 1.0) + 1e-12)
        * math.log10(max(total_edges / degree_b, 1.0) + 1e-12)
    )


@dataclass
class CompactBlockIndex:
    """The dict-of-tuples view of a block collection (the pre-CSR index).

    ``profile_blocks`` maps each profile id to the ids of the blocks that
    contain it; ``block_members`` maps each block id to its two member-id
    tuples (source 0, source 1); ``block_cardinality`` and ``block_entropy``
    carry the per-block comparison count and entropy; ``profile_source``
    records each profile's source side once, so neighbourhood materialisation
    never scans a member tuple for the profile.
    """

    profile_blocks: dict[int, list[int]] = field(default_factory=dict)
    block_members: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=dict
    )
    block_cardinality: dict[int, int] = field(default_factory=dict)
    block_entropy: dict[int, float] = field(default_factory=dict)
    profile_source: dict[int, int] = field(default_factory=dict)
    clean_clean: bool = False

    @classmethod
    def from_blocks(cls, blocks: BlockCollection) -> "CompactBlockIndex":
        """Build the index from a block collection."""
        index = cls(clean_clean=blocks.clean_clean)
        for block_id, block in enumerate(blocks):
            cardinality = block.num_comparisons()
            if cardinality == 0:
                continue
            index.block_members[block_id] = (
                tuple(sorted(block.profiles_source0)),
                tuple(sorted(block.profiles_source1)),
            )
            index.block_cardinality[block_id] = cardinality
            index.block_entropy[block_id] = block.entropy
            for profile_id in block.profiles_source0:
                index.profile_source[profile_id] = 0
            for profile_id in block.profiles_source1:
                index.profile_source.setdefault(profile_id, 1)
            for profile_id in block.all_profiles():
                index.profile_blocks.setdefault(profile_id, []).append(block_id)
        return index

    @property
    def num_blocks(self) -> int:
        return len(self.block_members)

    def blocks_of(self, profile_id: int) -> list[int]:
        """Block ids containing ``profile_id``."""
        return self.profile_blocks.get(profile_id, [])

    def neighbourhood(self, profile_id: int) -> dict[int, EdgeInfo]:
        """Materialise the blocking-graph neighbourhood of one node.

        For clean-clean collections only cross-source neighbours are produced;
        for dirty collections every co-occurring profile is a neighbour.
        """
        source0_here = self.profile_source.get(profile_id, 0) == 0
        neighbours: dict[int, EdgeInfo] = {}
        for block_id in self.blocks_of(profile_id):
            members0, members1 = self.block_members[block_id]
            cardinality = self.block_cardinality[block_id]
            entropy = self.block_entropy[block_id]
            if self.clean_clean:
                others = members1 if source0_here else members0
            else:
                others = tuple(m for m in members0 + members1 if m != profile_id)
            for other in others:
                if other == profile_id:
                    continue
                info = neighbours.get(other)
                if info is None:
                    info = EdgeInfo()
                    neighbours[other] = info
                info.common_blocks += 1
                info.arcs += 1.0 / cardinality
                info.entropy_sum += entropy
        return neighbours


class InterpretedSweep:
    """One node neighbourhood at a time over the CSR buffers, in pure python.

    After :meth:`neighbours` returns, the per-neighbour aggregates sit in
    ``common_blocks`` / ``arcs`` / ``entropy_sum`` indexed by dense node id;
    they stay valid until the next call, which resets only the previously
    touched entries.  Neighbours come in first-touch order (ascending block
    id, member order within a block) — the vectorised kernel's order.
    """

    def __init__(self, index: CSRBlockIndex) -> None:
        n = index.num_nodes
        self._index = index
        self.common_blocks = [0] * n
        self.arcs = [0.0] * n
        self.entropy_sum = [0.0] * n
        self._touched: list[int] = []

    def neighbours(self, node: int) -> list[int]:
        """Fill the scratch buffers for ``node``; return its neighbour list."""
        index = self._index
        common, arcs, entropy = self.common_blocks, self.arcs, self.entropy_sum
        touched = self._touched
        for previous in touched:
            common[previous] = 0
            arcs[previous] = 0.0
            entropy[previous] = 0.0
        del touched[:]

        entries = index.node_block_entries
        block_offsets = index.block_offsets
        block_nodes = index.block_nodes
        block_split = index.block_split
        inv_cardinality = index.block_inv_cardinality
        block_entropy = index.block_entropy
        start = index.node_block_offsets[node]
        end = index.node_block_offsets[node + 1]
        for position in range(start, end):
            entry = entries[position]
            block = entry >> 1
            split = block_split[block]
            lo = block_offsets[block]
            hi = block_offsets[block + 1]
            if split >= 0:
                # Clean-clean block: neighbours are the members of the other
                # source; the entry's low bit says which side this node is on.
                if entry & 1:
                    hi = lo + split
                else:
                    lo = lo + split
            inv = inv_cardinality[block]
            block_ent = block_entropy[block]
            for other in block_nodes[lo:hi]:
                if other == node:
                    continue
                if common[other] == 0:
                    touched.append(other)
                common[other] += 1
                arcs[other] += inv
                entropy[other] += block_ent
        return touched


def incident_edge_index(
    weights: dict[tuple[int, int], float]
) -> dict[int, list[tuple[tuple[int, int], float]]]:
    """Group the weighted edges by incident node, in weight-map order."""
    incidence: dict[int, list[tuple[tuple[int, int], float]]] = {}
    for pair, weight in weights.items():
        a, b = pair
        incidence.setdefault(a, []).append((pair, weight))
        incidence.setdefault(b, []).append((pair, weight))
    return incidence


# --------------------------------------------------------------------- legacy
def legacy_edge_weights(index: CompactBlockIndex) -> dict[tuple[int, int], float]:
    """The pre-CSR weighing loop: re-materialises each neighbour per edge."""
    scheme = WeightingScheme.CBS
    weights: dict[tuple[int, int], float] = {}
    for node in sorted(index.profile_blocks):
        neighbourhood = index.neighbourhood(node)
        blocks_node = len(index.blocks_of(node))
        degree_node = len(neighbourhood)
        for other, info in neighbourhood.items():
            weight = compute_edge_weight(
                scheme,
                info,
                blocks_a=blocks_node,
                blocks_b=len(index.blocks_of(other)),
                total_blocks=index.num_blocks,
                degree_a=degree_node,
                degree_b=len(index.neighbourhood(other)),
                total_edges=0,
            )
            pair = (node, other) if node <= other else (other, node)
            # Every edge arrives twice (once per endpoint); first write wins,
            # like the old reduceByKey(lambda a, _b: a).
            weights.setdefault(pair, weight)
    return weights


def legacy_wnp(
    weights: dict[tuple[int, int], float], nodes: list[int]
) -> dict[tuple[int, int], float]:
    """The pre-adjacency WNP voting loop: full edge scan per node."""
    votes: dict[tuple[int, int], int] = {}
    for node in nodes:
        incident = [(pair, w) for pair, w in weights.items() if node in pair]
        if not incident:
            continue
        threshold = sum(w for _p, w in incident) / len(incident)
        for pair, w in incident:
            if w >= threshold:
                votes[pair] = votes.get(pair, 0) + 1
    return {pair: weights[pair] for pair, count in votes.items() if count >= 1}


def legacy_cnp(
    weights: dict[tuple[int, int], float], nodes: list[int], k: int
) -> dict[tuple[int, int], float]:
    """The pre-adjacency CNP voting loop: full edge scan per node."""
    votes: dict[tuple[int, int], int] = {}
    for node in nodes:
        incident = [(pair, w) for pair, w in weights.items() if node in pair]
        ranked = sorted(incident, key=lambda item: (-item[1], item[0]))
        for pair, _w in ranked[:k]:
            votes[pair] = votes.get(pair, 0) + 1
    return {pair: weights[pair] for pair, count in votes.items() if count >= 1}


# --------------------------------------------------------------------- kernel
def kernel_edge_weights(index: CSRBlockIndex) -> dict[tuple[int, int], float]:
    """The interpreted CSR path: one materialisation per node, one emission
    per edge (EdgeInfo + compute_edge_weight per emitted edge)."""
    scheme = WeightingScheme.CBS
    kernel = InterpretedSweep(index)
    node_ids = index.node_ids
    block_counts = index.node_block_count
    total_blocks = index.total_blocks
    weights: dict[tuple[int, int], float] = {}
    for node in range(index.num_nodes):
        touched = kernel.neighbours(node)
        common, arcs, entropy = kernel.common_blocks, kernel.arcs, kernel.entropy_sum
        blocks_node = block_counts[node]
        profile_id = node_ids[node]
        for other in touched:
            if other <= node:
                continue
            info = EdgeInfo(
                common_blocks=common[other],
                arcs=arcs[other],
                entropy_sum=entropy[other],
            )
            weights[(profile_id, node_ids[other])] = compute_edge_weight(
                scheme,
                info,
                blocks_a=blocks_node,
                blocks_b=block_counts[other],
                total_blocks=total_blocks,
            )
    return weights


def kernel_wnp(
    weights: dict[tuple[int, int], float], nodes: list[int]
) -> dict[tuple[int, int], float]:
    """WNP voting over the incident-edge adjacency index (built once)."""
    incidence = incident_edge_index(weights)
    votes: dict[tuple[int, int], int] = {}
    for node in nodes:
        incident = incidence.get(node)
        if not incident:
            continue
        threshold = sum(w for _p, w in incident) / len(incident)
        for pair, w in incident:
            if w >= threshold:
                votes[pair] = votes.get(pair, 0) + 1
    return {pair: weights[pair] for pair, count in votes.items() if count >= 1}


def kernel_cnp(
    weights: dict[tuple[int, int], float], nodes: list[int], k: int
) -> dict[tuple[int, int], float]:
    """CNP voting over the incident-edge adjacency index (built once)."""
    incidence = incident_edge_index(weights)
    votes: dict[tuple[int, int], int] = {}
    for node in nodes:
        incident = incidence.get(node)
        if not incident:
            continue
        ranked = sorted(incident, key=lambda item: (-item[1], item[0]))
        for pair, _w in ranked[:k]:
            votes[pair] = votes.get(pair, 0) + 1
    return {pair: weights[pair] for pair, count in votes.items() if count >= 1}


# ------------------------------------------------------------------ harness
def _timed(func, *args, repeats: int = 3):
    """Run ``func`` ``repeats`` times; keep the result and the *best* time.

    Best-of-N damps scheduler jitter, which dominates the kernel-side
    millisecond timings and would otherwise make the regression guard flaky.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func(*args)
        best = min(best, time.perf_counter() - start)
    return result, best


def run_benchmark(sizes=DEFAULT_SIZES) -> list[dict]:
    entries = []
    for num_entities in sizes:
        dataset, blocks = prepare_blocks(num_entities)
        legacy_index = CompactBlockIndex.from_blocks(blocks)
        # These entries measure the interpreted CSR sweep against the legacy
        # dict path; the vectorised kernel has its own comparison pass
        # (run_numpy_benchmark).
        csr_index = CSRBlockIndex.from_blocks(blocks)
        csr_index.degree_vector()

        legacy_weights, legacy_neigh_s = _timed(legacy_edge_weights, legacy_index)
        kernel_weights, kernel_neigh_s = _timed(kernel_edge_weights, csr_index)
        assert kernel_weights == legacy_weights, "edge weights diverged"

        nodes = sorted(legacy_index.profile_blocks)
        k = default_cnp_k(sum(csr_index.node_block_count), csr_index.num_nodes)

        legacy_wnp_result, legacy_wnp_s = _timed(legacy_wnp, kernel_weights, nodes)
        kernel_wnp_result, kernel_wnp_s = _timed(kernel_wnp, kernel_weights, nodes)
        assert kernel_wnp_result == legacy_wnp_result, "WNP output diverged"

        legacy_cnp_result, legacy_cnp_s = _timed(legacy_cnp, kernel_weights, nodes, k)
        kernel_cnp_result, kernel_cnp_s = _timed(kernel_cnp, kernel_weights, nodes, k)
        assert kernel_cnp_result == legacy_cnp_result, "CNP output diverged"

        entry = {
            "num_entities": num_entities,
            "profiles": len(dataset.profiles),
            "nodes": csr_index.num_nodes,
            "edges": csr_index.num_edges(),
            "neighbourhood": _ratio_entry(legacy_neigh_s, kernel_neigh_s),
            "wnp": _ratio_entry(legacy_wnp_s, kernel_wnp_s),
            "cnp": _ratio_entry(legacy_cnp_s, kernel_cnp_s),
        }
        entries.append(entry)
        print(
            f"[{num_entities:>4} entities] edges={entry['edges']:>7} | "
            f"neighbourhood {legacy_neigh_s:.3f}s -> {kernel_neigh_s:.3f}s "
            f"({entry['neighbourhood']['speedup']:.1f}x) | "
            f"wnp {legacy_wnp_s:.3f}s -> {kernel_wnp_s:.3f}s "
            f"({entry['wnp']['speedup']:.1f}x) | "
            f"cnp {legacy_cnp_s:.3f}s -> {kernel_cnp_s:.3f}s "
            f"({entry['cnp']['speedup']:.1f}x)"
        )
    return entries


def _ratio_entry(legacy_s: float, kernel_s: float) -> dict:
    return {
        "legacy_s": round(legacy_s, 6),
        "kernel_s": round(kernel_s, 6),
        "speedup": round(legacy_s / kernel_s, 2) if kernel_s > 0 else float("inf"),
    }


# ------------------------------------------------------- vote wire format
# The pre-edge-id vote tasks, kept here as the reference point of the shuffle
# wire-format benchmark: each vote crossed the shuffle as a full
# ((a, b), (weight, count)) tuple instead of a compact (edge id, count) pair.


class _LegacyTupleWnpVotes:
    __slots__ = ("incidence_broadcast",)

    def __init__(self, incidence_broadcast) -> None:
        self.incidence_broadcast = incidence_broadcast

    def __call__(self, node):
        incident = self.incidence_broadcast.value.get(node)
        if not incident:
            return []
        threshold = sum(w for _p, w in incident) / len(incident)
        return [(pair, (w, 1)) for pair, w in incident if w >= threshold]


class _LegacyTupleCnpVotes:
    __slots__ = ("incidence_broadcast", "k")

    def __init__(self, incidence_broadcast, k) -> None:
        self.incidence_broadcast = incidence_broadcast
        self.k = k

    def __call__(self, node):
        incident = self.incidence_broadcast.value.get(node)
        if not incident:
            return []
        ranked = sorted(incident, key=lambda item: (-item[1], item[0]))
        return [(pair, (w, 1)) for pair, w in ranked[: self.k]]


def _legacy_merge_votes(a, b):
    return (a[0], a[1] + b[1])


def _vote_shuffle_volume(node_ids, vote_task, reducer, name):
    """Run one vote job on a fresh serial context; return its shuffle volume.

    The measured quantity is the vote-stage map output — the records and
    pickled bytes that cross the shuffle (and, under a process executor, the
    IPC boundary).  It is deterministic: no timing involved.
    """
    context = EngineContext(4, executor="serial")
    rdd = context.parallelize(node_ids).flatMap(vote_task, name=name)
    rdd.reduceByKey(reducer).collectAsMap()
    map_rows = [
        row
        for row in context.scheduler.stage_table()
        if str(row["description"]).startswith(f"{name}.reduceByKey.shuffle.map")
    ]
    assert map_rows, "vote map stage missing from the stage table"
    return (
        sum(row["shuffle_write"] for row in map_rows),
        sum(row["shuffle_write_bytes"] for row in map_rows),
    )


def run_shuffle_benchmark(sizes=DEFAULT_SIZES) -> list[dict]:
    """Vote-stage shuffle volume: legacy tuple format vs compact edge ids.

    Both formats run the same WNP / CNP vote jobs over the same weights and
    broadcast incidence; only the wire records differ.  Writes the
    ``shuffle_entries`` baseline section guarded by ``scripts/bench_guard.py``.
    """
    entries = []
    for num_entities in sizes:
        _dataset, blocks = prepare_blocks(num_entities)
        csr_index = CSRBlockIndex.from_blocks(blocks)
        weights = kernel_edge_weights(csr_index)
        node_ids = list(csr_index.node_ids)
        k = default_cnp_k(sum(csr_index.node_block_count), csr_index.num_nodes)

        # One throwaway context per job keeps the stage tables separable;
        # broadcasts are re-created because they are context-owned.
        legacy_context = EngineContext(4, executor="serial")
        legacy_incidence = legacy_context.broadcast(incident_edge_index(weights))
        compact_context = EngineContext(4, executor="serial")
        _edge_list, incidence = edge_id_incidence(weights)
        compact_incidence = compact_context.broadcast(incidence)

        entry = {"num_entities": num_entities, "edges": len(weights)}
        for job, legacy_task, compact_task in (
            (
                "wnp",
                _LegacyTupleWnpVotes(legacy_incidence),
                _WeightedNodeVotes(compact_incidence),
            ),
            (
                "cnp",
                _LegacyTupleCnpVotes(legacy_incidence, k),
                _CardinalityNodeVotes(compact_incidence, k),
            ),
        ):
            tuple_records, tuple_bytes = _vote_shuffle_volume(
                node_ids, legacy_task, _legacy_merge_votes, f"legacy.{job}.votes"
            )
            edge_records, edge_bytes = _vote_shuffle_volume(
                node_ids, compact_task, _sum_votes, f"{job}.votes"
            )
            entry[job] = {
                "tuple_records": tuple_records,
                "tuple_bytes": tuple_bytes,
                "edge_id_records": edge_records,
                "edge_id_bytes": edge_bytes,
                "bytes_reduction": round(1.0 - edge_bytes / tuple_bytes, 4),
            }
        entries.append(entry)
        print(
            f"[{num_entities:>4} entities] vote shuffle | "
            f"wnp {entry['wnp']['tuple_bytes']:>9}B -> {entry['wnp']['edge_id_bytes']:>8}B "
            f"(-{entry['wnp']['bytes_reduction']:.0%}) | "
            f"cnp {entry['cnp']['tuple_bytes']:>9}B -> {entry['cnp']['edge_id_bytes']:>8}B "
            f"(-{entry['cnp']['bytes_reduction']:.0%})"
        )
    return entries


# ------------------------------------------------------- block store pass
def _vote_blockstore_volume(node_ids, weights, store, workers):
    """Run the WNP vote job under ``process:N`` with the given block store.

    Returns the collected vote map plus the map-stage shuffle volumes split
    by route: ``payload_bytes`` (total pickled bucket payload — identical
    across stores), ``relay_bytes`` (what crossed the driver) and
    ``peer_bytes`` (what moved worker-to-worker through segments / spill
    files).  Deterministic: no timing involved.
    """
    context = EngineContext(4, executor=f"process:{workers}", block_store=store)
    try:
        _edge_list, incidence = edge_id_incidence(weights)
        task = _WeightedNodeVotes(context.broadcast(incidence))
        votes = (
            context.parallelize(node_ids)
            .flatMap(task, name="wnp.votes")
            .reduceByKey(_sum_votes)
            .collectAsMap()
        )
        map_rows = [
            row
            for row in context.scheduler.stage_table()
            if str(row["description"]).startswith("wnp.votes.reduceByKey.shuffle.map")
        ]
        assert map_rows, "vote map stage missing from the stage table"
        volumes = {
            "payload_bytes": sum(row["shuffle_write_bytes"] for row in map_rows),
            "relay_bytes": sum(row["shuffle_relay_bytes"] for row in map_rows),
            "peer_bytes": sum(row["shuffle_peer_bytes"] for row in map_rows),
        }
        return votes, volumes
    finally:
        context.stop()


def run_blockstore_benchmark(sizes=DEFAULT_SIZES, workers=2) -> list[dict]:
    """Driver-relayed shuffle bytes: driver block store vs shared memory.

    Runs the same WNP vote job (the ``shuffle_entries`` scenario) under a
    ``process:N`` executor twice — once relaying every bucket payload through
    the driver, once publishing buckets as named shared-memory segments with
    the driver brokering only block refs.  The vote maps must be identical;
    the guarded quantity is ``relay_reduction`` — the fraction of
    driver-crossed bytes eliminated by the peer-to-peer store.  Writes the
    ``blockstore_entries`` baseline section checked by
    ``scripts/bench_guard.py``.
    """
    entries = []
    for num_entities in sizes:
        _dataset, blocks = prepare_blocks(num_entities)
        csr_index = CSRBlockIndex.from_blocks(blocks)
        weights = kernel_edge_weights(csr_index)
        node_ids = list(csr_index.node_ids)

        driver_votes, driver_volumes = _vote_blockstore_volume(
            node_ids, weights, "driver", workers
        )
        shm_votes, shm_volumes = _vote_blockstore_volume(
            node_ids, weights, "shared-memory", workers
        )
        assert shm_votes == driver_votes, "block stores diverged on the vote map"
        assert shm_volumes["payload_bytes"] == driver_volumes["payload_bytes"], (
            "bucket payload bytes diverged between block stores"
        )

        entry = {
            "num_entities": num_entities,
            "edges": len(weights),
            "workers": workers,
            "driver": driver_volumes,
            "shared_memory": shm_volumes,
            "relay_reduction": round(
                1.0 - shm_volumes["relay_bytes"] / driver_volumes["relay_bytes"], 4
            ),
        }
        entries.append(entry)
        print(
            f"[{num_entities:>4} entities] wnp vote relay under process:{workers} | "
            f"driver {driver_volumes['relay_bytes']:>9}B -> "
            f"shared-memory {shm_volumes['relay_bytes']:>6}B "
            f"(-{entry['relay_reduction']:.1%})"
        )
    return entries


# ------------------------------------------------------ vectorised kernel pass
def _numpy_weight_table(index):
    """One full vectorised weighting job: fresh kernel sweep → weight table.

    The cached kernel (and its whole-graph sweep) is dropped first so every
    repeat measures the complete job, not a cache hit.
    """
    index._kernel = None
    plan = index.weight_plan(WeightingScheme.CBS, False)
    return index.kernel().weight_table(plan)


def _numpy_wnp(table):
    return prune_edge_weights(WeightedNodePruning(), table, None)


def _numpy_cnp(table, k):
    table._canonical_rank = None  # measure the full job, not the rank cache
    return prune_edge_weights(CardinalityNodePruning(k=k), table, None)


def run_numpy_benchmark(sizes=DEFAULT_SIZES) -> list[dict]:
    """Interpreted reference vs vectorised kernel on neighbourhood + WNP + CNP.

    Both sides run the same jobs over the same blocks; the outputs are
    asserted equal — bit-for-bit, float weights included — before any timing
    counts.  The ``python_*`` fields hold the interpreted reference.
    """
    entries = []
    for num_entities in sizes:
        _dataset, blocks = prepare_blocks(num_entities)
        python_index = CSRBlockIndex.from_blocks(blocks)
        numpy_index = CSRBlockIndex.from_blocks(blocks)

        python_weights, python_neigh_s = _timed(kernel_edge_weights, python_index)
        table, numpy_neigh_s = _timed(_numpy_weight_table, numpy_index)
        assert table.mapping == python_weights, "kernel edge weights diverged"
        assert list(table.mapping) == list(python_weights), (
            "kernel edge emission order diverged"
        )

        nodes = list(python_index.node_ids)
        k = default_cnp_k(
            sum(python_index.node_block_count), python_index.num_nodes
        )

        python_wnp, python_wnp_s = _timed(kernel_wnp, python_weights, nodes)
        numpy_wnp, numpy_wnp_s = _timed(_numpy_wnp, table)
        assert numpy_wnp == python_wnp, "kernel WNP output diverged"

        python_cnp, python_cnp_s = _timed(kernel_cnp, python_weights, nodes, k)
        numpy_cnp, numpy_cnp_s = _timed(_numpy_cnp, table, k)
        assert numpy_cnp == python_cnp, "kernel CNP output diverged"

        python_total = python_neigh_s + python_wnp_s + python_cnp_s
        numpy_total = numpy_neigh_s + numpy_wnp_s + numpy_cnp_s
        entry = {
            "num_entities": num_entities,
            "edges": len(python_weights),
            "neighbourhood": _backend_ratio(python_neigh_s, numpy_neigh_s),
            "wnp": _backend_ratio(python_wnp_s, numpy_wnp_s),
            "cnp": _backend_ratio(python_cnp_s, numpy_cnp_s),
            "combined": _backend_ratio(python_total, numpy_total),
        }
        entries.append(entry)
        print(
            f"[{num_entities:>4} entities] interpreted vs vectorised kernel | "
            f"neighbourhood {python_neigh_s:.3f}s -> {numpy_neigh_s:.3f}s "
            f"({entry['neighbourhood']['speedup']:.1f}x) | "
            f"wnp {python_wnp_s:.3f}s -> {numpy_wnp_s:.3f}s "
            f"({entry['wnp']['speedup']:.1f}x) | "
            f"cnp {python_cnp_s:.3f}s -> {numpy_cnp_s:.3f}s "
            f"({entry['cnp']['speedup']:.1f}x) | "
            f"combined {entry['combined']['speedup']:.1f}x"
        )
    return entries


def _backend_ratio(python_s: float, numpy_s: float) -> dict:
    return {
        "python_s": round(python_s, 6),
        "numpy_s": round(numpy_s, 6),
        "speedup": round(python_s / numpy_s, 2) if numpy_s > 0 else float("inf"),
    }


# --------------------------------------------------------------- end-to-end
def _sequential_metablocking(blocks):
    return MetaBlocker("cbs", "wnp").run(blocks)


def _engine_metablocking(blocks):
    # Pin the serial executor: the committed overhead baseline was recorded
    # with it, and an inherited REPRO_ENGINE_EXECUTOR must not change what
    # the guard measures (or leak an owned worker pool).
    with EngineContext(4, executor="serial") as context:
        return ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)


def run_e2e_benchmark(sizes=DEFAULT_SIZES) -> list[dict]:
    """Wall-clock of the full ``ParallelMetaBlocker`` vs the sequential path.

    The guarded quantity is the *overhead ratio* (engine wall-clock over
    sequential wall-clock on the same blocks, same machine, same moment) —
    machine speed cancels out, so the committed baseline travels across
    hosts.  A regression here means the engine plumbing (stage fusion,
    executor dispatch, broadcast shipping) got more expensive relative to
    the algorithmic work, which no kernel micro-benchmark would notice.
    """
    entries = []
    for num_entities in sizes:
        dataset, blocks = prepare_blocks(num_entities)
        sequential, sequential_s = _timed(_sequential_metablocking, blocks)
        parallel, parallel_s = _timed(_engine_metablocking, blocks)
        assert parallel.retained_edges == sequential.retained_edges, (
            "engine meta-blocking diverged from the sequential path"
        )
        entry = {
            "num_entities": num_entities,
            "profiles": len(dataset.profiles),
            "sequential_s": round(sequential_s, 6),
            "parallel_s": round(parallel_s, 6),
            "overhead": round(parallel_s / sequential_s, 3),
        }
        entries.append(entry)
        print(
            f"[{num_entities:>4} entities] e2e sequential {sequential_s:.3f}s | "
            f"engine {parallel_s:.3f}s | overhead {entry['overhead']:.2f}x"
        )
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES))
    parser.add_argument("--output", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--dry-run", action="store_true", help="run without writing the baseline file"
    )
    parser.add_argument(
        "--skip-kernel", action="store_true",
        help="keep the committed kernel entries; only refresh the e2e section",
    )
    parser.add_argument(
        "--skip-e2e", action="store_true",
        help="keep the committed e2e entries; only refresh the kernel section",
    )
    parser.add_argument(
        "--skip-shuffle", action="store_true",
        help="keep the committed shuffle entries; skip the wire-format section",
    )
    parser.add_argument(
        "--skip-numpy", action="store_true",
        help="keep the committed vectorised-kernel entries; skip that comparison",
    )
    parser.add_argument(
        "--skip-blockstore", action="store_true",
        help="keep the committed block-store entries; skip the relay comparison",
    )
    args = parser.parse_args(argv)

    any_skip = (
        args.skip_kernel
        or args.skip_e2e
        or args.skip_shuffle
        or args.skip_numpy
        or args.skip_blockstore
    )
    existing = {}
    if any_skip and args.output.exists():
        existing = json.loads(args.output.read_text())
    entries = (
        existing.get("entries", []) if args.skip_kernel else run_benchmark(args.sizes)
    )
    e2e_entries = (
        existing.get("e2e_entries", [])
        if args.skip_e2e
        else run_e2e_benchmark(args.sizes)
    )
    shuffle_entries = (
        existing.get("shuffle_entries", [])
        if args.skip_shuffle
        else run_shuffle_benchmark(args.sizes)
    )
    numpy_entries = (
        existing.get("numpy_entries", [])
        if args.skip_numpy
        else run_numpy_benchmark(args.sizes)
    )
    blockstore_entries = (
        existing.get("blockstore_entries", [])
        if args.skip_blockstore
        else run_blockstore_benchmark(args.sizes)
    )
    if not args.dry_run:
        payload = {
            "benchmark": "metablocking_kernel",
            "entries": entries,
            "e2e_entries": e2e_entries,
            "shuffle_entries": shuffle_entries,
            "numpy_entries": numpy_entries,
            "blockstore_entries": blockstore_entries,
        }
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
