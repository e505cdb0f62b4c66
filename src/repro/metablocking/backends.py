"""The vectorised meta-blocking kernel over the CSR index buffers.

The CSR index (:class:`~repro.metablocking.index.CSRBlockIndex`) stores its
offset/entry/cardinality/entropy buffers as contiguous numeric vectors.
:class:`NumpyKernel` wraps them zero-copy via ``np.frombuffer`` and
materialises node neighbourhoods and edge weights with gather /
``np.bincount`` / ufunc expressions; the WEP/WNP/CEP/CNP retention rules run
as array expressions over the resulting :class:`EdgeWeights` table.

**A fixed evaluation order is the contract.**  Every route — sequential,
streamed, parallel, progressive, delta — reads the same kernel, and the
kernel pins the order of every float operation, so all routes agree
bit-for-bit with each other and with the brute-force reference the test
suite derives from the paper's definitions:

* edges are emitted node-major, neighbours in first-touch order (ascending
  block id, sorted members within a block), each edge from its lower
  endpoint;
* arcs / entropy sums accumulate through ``np.bincount(group, weights=...)``
  whose C loop adds occurrences strictly left-to-right in ascending block
  order (a stable key sort never reorders the occurrences *within* one
  (node, neighbour) group);
* per-edge weight expressions use only ``* / + max`` ufuncs; the ``log10``
  factors of ECBS / EJS depend only on one endpoint, so they are
  precomputed per *node* with ``math.log10`` and merely gathered per edge —
  no vectorised transcendental ever enters the weight;
* the WEP / WNP threshold sums run through single-target ``np.bincount``
  accumulation in emission order (a plain left-to-right sum); CEP / CNP
  top-k selection sorts by ``(-weight, canonical edge rank)`` — pure
  comparisons, no float arithmetic at all.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from itertools import compress
from typing import Any

import numpy as np

from repro.exceptions import MetaBlockingError

# ------------------------------------------------------------ buffer backends
BUFFER_ENV_VAR = "REPRO_BUFFER_BACKEND"
BUFFER_CHOICES = ("ram", "memmap")


def resolve_buffer_backend(spec: "str | None" = None) -> str:
    """Resolve a CSR buffer-backend spec to ``"ram"`` or ``"memmap"``.

    ``None``/empty consults ``REPRO_BUFFER_BACKEND`` and defaults to
    ``ram``.  ``memmap`` backs the index's offset/entry vectors with a
    file-backed :class:`numpy.memmap` buffer (see
    :meth:`~repro.metablocking.index.CSRBlockIndex.from_blocks`).
    """
    if spec is None or spec == "":
        spec = os.environ.get(BUFFER_ENV_VAR, "").strip() or "ram"
    if not isinstance(spec, str):
        raise MetaBlockingError(
            f"buffer backend spec must be a string, got {spec!r}"
        )
    name = spec.strip().lower()
    if name in BUFFER_CHOICES:
        return name
    valid = ", ".join(BUFFER_CHOICES)
    raise MetaBlockingError(
        f"unknown buffer backend {spec!r}; valid backends: {valid}"
    )


def drop_legacy_kernel_backend(section: dict, where: str, error: type) -> None:
    """Remove the retired ``kernel_backend`` key from a config mapping.

    Specs and configs written while a kernel could be selected may still
    carry it.  ``null``, ``"auto"`` and ``"numpy"`` all named the kernel
    that now always runs and are dropped silently; any other value (the
    removed ``"python"`` kernel) raises ``error``.
    """
    value = section.pop("kernel_backend", None)
    if value is None or (
        isinstance(value, str) and value.strip().lower() in ("auto", "numpy")
    ):
        return
    raise error(
        f"{where}kernel_backend={value!r} is no longer supported: the "
        "interpreted 'python' kernel was removed and meta-blocking always runs "
        "the numpy kernel; drop the key"
    )


# --------------------------------------------------------------- weight plans
@dataclass
class WeightPlan:
    """Everything one weighting job needs beyond the neighbourhood aggregates.

    Built once per (index, scheme, use_entropy) via
    :meth:`~repro.metablocking.index.CSRBlockIndex.weight_plan` and cached on
    the index, driver- and worker-side alike.  ``log_blocks`` / ``log_degrees``
    are the per-*node* ECBS / EJS factors ``log10(max(B / B_i, 1) + 1e-12)``
    and ``log10(max(E / degree_i, 1) + 1e-12)``, precomputed with
    ``math.log10`` so the vectorised per-edge expression never calls a
    (potentially SIMD-drifting) vectorised transcendental.
    """

    scheme: Any  # WeightingScheme; typed loosely to avoid an import cycle
    use_entropy: bool
    log_blocks: Any = None  # ndarray, ECBS only
    log_degrees: Any = None  # ndarray, EJS only


def _log_factors(counts, total: int, n: int):
    """Per node ``log10(max(total / count, 1) + 1e-12)`` (0 where count is 0)."""
    factors = np.zeros(n, dtype=np.float64)
    if total > 0:
        for node in range(n):
            count = counts[node]
            if count:
                factors[node] = math.log10(max(total / count, 1.0) + 1e-12)
    return factors


def make_weight_plan(index, scheme, use_entropy: bool) -> WeightPlan:
    """Precompute the per-node vectors of one weighting job."""
    from repro.metablocking.weights import WeightingScheme  # import-cycle guard

    scheme = WeightingScheme.parse(scheme)
    plan = WeightPlan(scheme=scheme, use_entropy=use_entropy)
    n = index.num_nodes
    if scheme is WeightingScheme.ECBS:
        plan.log_blocks = _log_factors(index.node_block_count, index.total_blocks, n)
    elif scheme is WeightingScheme.EJS:
        plan.log_degrees = _log_factors(index.degree_vector(), index.num_edges(), n)
    return plan


# --------------------------------------------------------------- the kernel
@dataclass
class _Sweep:
    """One vectorised neighbourhood sweep over a set of owner nodes.

    Edges are grouped per owner (owner-major, first-touch order within each
    owner), *including* the lower-endpoint direction; consumers filter
    ``other > owner`` when they emit each edge once.  ``arcs`` /
    ``entropies`` are ``None`` when the sweep was computed for a job that
    does not read them (e.g. a CBS weight table) — :meth:`NumpyKernel.sweep`
    recomputes on demand.
    """

    owners: Any  # int64[m] dense owner per edge, non-decreasing
    others: Any  # int64[m] dense neighbour per edge
    common: Any  # int64[m]
    arcs: Any  # float64[m] or None
    entropies: Any  # float64[m] or None
    offsets: Any = None  # int64[k+1] segment bounds per swept node

    def segment(self, position: int) -> tuple[int, int]:
        return int(self.offsets[position]), int(self.offsets[position + 1])

    def has(self, *, need_arcs: bool, need_entropies: bool) -> bool:
        return (self.arcs is not None or not need_arcs) and (
            self.entropies is not None or not need_entropies
        )


def _as_view(buffer, dtype):
    """Zero-copy ndarray view over a stdlib array (or a ready ndarray)."""
    if isinstance(buffer, np.ndarray):
        return buffer
    if len(buffer) == 0:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(buffer, dtype=dtype)


def _expand_ranges(starts, counts):
    """Concatenated ``arange(start, start + count)`` for every range."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    firsts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(firsts, counts)
        + np.repeat(starts, counts)
    )


class NumpyKernel:
    """Vectorised neighbourhood materialisation over zero-copy buffer views.

    Neighbourhoods are materialised by a gather of the owner's block member
    ranges, grouped per ``(owner, neighbour)`` key with one stable integer
    sort, and aggregated with ``np.bincount`` — see the module docstring for
    the evaluation order this fixes.
    """

    def __init__(self, index) -> None:
        self._index = index
        self.node_block_offsets = _as_view(index.node_block_offsets, np.int64)
        self.node_block_entries = _as_view(index.node_block_entries, np.int64)
        self.node_block_count = _as_view(index.node_block_count, np.int64)
        self.block_offsets = _as_view(index.block_offsets, np.int64)
        self.block_nodes = _as_view(index.block_nodes, np.int64)
        self.block_split = _as_view(index.block_split, np.int64)
        self.block_inv_cardinality = _as_view(index.block_inv_cardinality, np.float64)
        self.block_entropy = _as_view(index.block_entropy, np.float64)
        self.node_ids = np.asarray(index.node_ids, dtype=np.int64)
        self._full_sweep: _Sweep | None = None

    # ------------------------------------------------------------- the sweep
    def sweep(self, nodes=None, *, need_arcs: bool = True, need_entropies: bool = True) -> _Sweep:
        """Materialise the neighbourhoods of ``nodes`` (all nodes if None).

        The whole-graph sweep is computed once and cached; partition sweeps
        (worker tasks) compute only their own nodes, preserving the parallel
        path's work partitioning.  ``need_arcs`` / ``need_entropies`` let
        weight jobs skip the float aggregates their scheme never reads; a
        cached sweep missing a later-needed aggregate is recomputed.
        """
        if nodes is None:
            cached = self._full_sweep
            if cached is not None:
                if cached.has(need_arcs=need_arcs, need_entropies=need_entropies):
                    return cached
                # Upgrade: keep whatever the cached sweep already carries.
                need_arcs = need_arcs or cached.arcs is not None
                need_entropies = need_entropies or cached.entropies is not None
            self._full_sweep = self._sweep(
                np.arange(self._index.num_nodes),
                need_arcs=need_arcs,
                need_entropies=need_entropies,
            )
            return self._full_sweep
        return self._sweep(
            np.asarray(nodes, dtype=np.int64),
            need_arcs=need_arcs,
            need_entropies=need_entropies,
        )

    def _sweep(self, nodes, *, need_arcs: bool, need_entropies: bool) -> _Sweep:
        n = self._index.num_nodes
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        if len(nodes) == 0:
            return _Sweep(empty_i, empty_i, empty_i, empty_f, empty_f, np.zeros(1, np.int64))

        # 1. Every (node, block entry) of the swept nodes, node-major.
        entry_counts = self.node_block_offsets[nodes + 1] - self.node_block_offsets[nodes]
        entries = self.node_block_entries[
            _expand_ranges(self.node_block_offsets[nodes], entry_counts)
        ]
        owner_per_entry = np.repeat(nodes, entry_counts)

        # 2. Member ranges per entry, side-filtered for clean-clean blocks.
        blocks = entries >> 1
        side = entries & 1
        lo = self.block_offsets[blocks]
        hi = self.block_offsets[blocks + 1]
        split = self.block_split[blocks]
        clean = split >= 0
        hi = np.where(clean & (side == 1), lo + split, hi)
        lo = np.where(clean & (side == 0), lo + split, lo)
        counts = hi - lo

        # 3. Occurrence expansion: one row per (owner, co-member) incidence,
        # owner-major, ascending block, member order within a block.
        others = self.block_nodes[_expand_ranges(lo, counts)]
        owners = np.repeat(owner_per_entry, counts)
        occ_inv = (
            np.repeat(self.block_inv_cardinality[blocks], counts) if need_arcs else None
        )
        occ_ent = (
            np.repeat(self.block_entropy[blocks], counts) if need_entropies else None
        )
        self_mask = others != owners
        if not self_mask.all():
            others = others[self_mask]
            owners = owners[self_mask]
            if occ_inv is not None:
                occ_inv = occ_inv[self_mask]
            if occ_ent is not None:
                occ_ent = occ_ent[self_mask]

        # 4. Group by (owner, other).  The stable sort keeps each group's
        # occurrences in original relative order, so accumulating the sorted
        # stream adds the floats in ascending block order.
        keys = owners * n + others
        if n and n * n <= np.iinfo(np.int32).max:
            keys = keys.astype(np.int32)  # narrower radix sort, same order
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        total = len(sorted_keys)
        if total == 0:
            offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
            return _Sweep(empty_i, empty_i, empty_i, empty_f, empty_f, offsets)
        new_group = np.empty(total, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        boundaries = np.flatnonzero(new_group)
        first_occurrence = order[new_group]
        num_groups = len(boundaries)
        common = np.diff(np.concatenate((boundaries, [total])))
        arcs = entropies = None
        if need_arcs or need_entropies:
            group_of_sorted = np.cumsum(new_group) - 1
            if need_arcs:
                arcs = np.bincount(
                    group_of_sorted, weights=occ_inv[order], minlength=num_groups
                )
            if need_entropies:
                entropies = np.bincount(
                    group_of_sorted, weights=occ_ent[order], minlength=num_groups
                )

        # 5. Reorder the groups into owner-major first-touch order (ascending
        # first-occurrence position).
        emit_order = np.argsort(first_occurrence, kind="stable")
        first_ordered = first_occurrence[emit_order]
        edge_owners = owners[first_ordered]
        edge_others = others[first_ordered]
        offsets = np.searchsorted(edge_owners, nodes, side="left")
        offsets = np.concatenate((offsets, [len(edge_owners)]))
        return _Sweep(
            owners=edge_owners,
            others=edge_others,
            common=common[emit_order],
            arcs=arcs[emit_order] if arcs is not None else None,
            entropies=entropies[emit_order] if entropies is not None else None,
            offsets=offsets,
        )

    # ------------------------------------------------------------ weights
    def _edge_weights(self, sweep: _Sweep, keep, plan: WeightPlan):
        """The weight vector of ``sweep``'s edges selected by ``keep``.

        A whole-neighbourhood ufunc expression per scheme (see the module
        docstring for the operand order it fixes).
        """
        from repro.metablocking.weights import WeightingScheme

        scheme = plan.scheme
        owners = sweep.owners[keep]
        others = sweep.others[keep]
        cbs = sweep.common[keep].astype(np.float64)
        if scheme is WeightingScheme.CBS:
            weights = cbs
        elif scheme is WeightingScheme.ARCS:
            weights = sweep.arcs[keep]
        elif scheme is WeightingScheme.JS:
            weights = self._jaccard(owners, others, cbs)
        elif scheme is WeightingScheme.ECBS:
            weights = cbs * plan.log_blocks[owners] * plan.log_blocks[others]
        elif scheme is WeightingScheme.EJS:
            js = self._jaccard(owners, others, cbs)
            weights = js * plan.log_degrees[owners] * plan.log_degrees[others]
        else:  # pragma: no cover - the enum is closed
            raise MetaBlockingError(f"unsupported weighting scheme: {scheme}")
        if plan.use_entropy:
            # BLAST: base weight times the mean entropy of the shared blocks.
            weights = weights * (sweep.entropies[keep] / cbs)
        return weights

    def _jaccard(self, owners, others, cbs):
        """``CBS / (B_a + B_b - CBS)``, 0 where the denominator is not positive."""
        blocks_sum = (
            self.node_block_count[owners] + self.node_block_count[others]
        ).astype(np.float64)
        denominator = blocks_sum - cbs
        return np.divide(
            cbs,
            denominator,
            out=np.zeros(len(cbs), dtype=np.float64),
            where=denominator > 0,
        )

    def _plan_sweep(self, plan: WeightPlan, nodes=None) -> _Sweep:
        """The sweep for one weight plan, skipping aggregates it never reads."""
        from repro.metablocking.weights import WeightingScheme

        return self.sweep(
            nodes,
            need_arcs=plan.scheme is WeightingScheme.ARCS,
            need_entropies=plan.use_entropy,
        )

    # ----------------------------------------------------------- public API
    def neighbours(self, node: int) -> list[int]:
        """All neighbours of ``node`` in first-touch order (python ints)."""
        sweep = self.sweep(need_arcs=False, need_entropies=False)
        start, end = sweep.segment(node)
        return sweep.others[start:end].tolist()

    def weighted_edges_by_node(self, plan: WeightPlan) -> list[list[tuple]]:
        """Per dense node, its weighted upper edges as ``((a, b), w)`` pairs."""
        sweep = self._plan_sweep(plan)
        keep = sweep.others > sweep.owners
        pairs, weights = self._pair_records(sweep, keep, plan)
        edges = list(zip(pairs, weights.tolist()))
        offsets = np.cumsum(
            np.concatenate(
                ([0], np.bincount(sweep.owners[keep], minlength=self._index.num_nodes))
            )
        ).tolist()
        return [
            edges[offsets[node] : offsets[node + 1]]
            for node in range(self._index.num_nodes)
        ]

    def _pair_records(self, sweep: _Sweep, keep, plan: WeightPlan):
        """Profile-id pair tuples (python ints) and the weight vector."""
        weights = self._edge_weights(sweep, keep, plan)
        pairs = list(
            zip(
                self.node_ids[sweep.owners[keep]].tolist(),
                self.node_ids[sweep.others[keep]].tolist(),
            )
        )
        return pairs, weights

    def partition_weighted_edges(self, profile_ids, plan: WeightPlan):
        """All ``((a, b), weight)`` records of one node partition, in order.

        One vectorised sweep over the partition's nodes — the worker-side
        task of the parallel edge weighing job.  The record stream is
        identical (content and order) to the matching slice of the
        whole-graph emission.
        """
        if not profile_ids:
            return []
        dense = np.searchsorted(self.node_ids, np.asarray(profile_ids, dtype=np.int64))
        sweep = self._plan_sweep(plan, dense)
        keep = sweep.others > sweep.owners
        pairs, weights = self._pair_records(sweep, keep, plan)
        return list(zip(pairs, weights.tolist()))

    def weighted_neighbourhoods(self, nodes, plan: WeightPlan) -> list[list[tuple[int, float]]]:
        """Per requested dense node, ``[(other_dense, weight)]`` over *all*
        its neighbours (both directions), in first-touch order.

        The neighbourhood-local re-weighting entry point: the lower direction
        is included, so a caller can refresh every edge incident to a node
        set without sweeping the rest of the graph.  ``nodes`` must be
        ascending (the partial-sweep offsets come from a ``searchsorted``).
        For the endpoint-symmetric schemes (CBS, JS, ARCS, with or without
        the entropy factor) the weight of an edge seen from either endpoint
        is bit-for-bit the canonical emission value: the aggregates
        accumulate over the same shared blocks in the same ascending-block
        order from both sides, and the remaining arithmetic is
        commutative-exact.  ECBS / EJS multiply per-endpoint factors in
        endpoint order, so their lower-direction values may differ in the
        last ulp — callers needing exactness there must re-emit canonically.
        """
        dense = np.asarray(list(nodes), dtype=np.int64)
        if len(dense) == 0:
            return []
        sweep = self._plan_sweep(plan, dense)
        keep = np.ones(len(sweep.others), dtype=bool)
        weights = self._edge_weights(sweep, keep, plan)
        others = sweep.others.tolist()
        weight_list = weights.tolist()
        per_node: list[list[tuple[int, float]]] = []
        for position in range(len(dense)):
            start, end = sweep.segment(position)
            per_node.append(list(zip(others[start:end], weight_list[start:end])))
        return per_node

    def weight_arrays(self, plan: WeightPlan) -> "EdgeWeights":
        """Every edge weight of the graph as aligned dense arrays — no dict.

        The dict-free variant of :meth:`weight_table`: ``mapping`` is
        ``None`` and ``node_ids`` carries the dense→profile-id vector, so
        pair tuples can be materialised lazily per chunk.  This is the
        streaming entry point — the O(E) footprint is three numeric arrays
        (~16 bytes/edge) instead of a dict of tuples (~200 bytes/edge).
        """
        sweep = self._plan_sweep(plan)
        keep = sweep.others > sweep.owners
        weights = self._edge_weights(sweep, keep, plan)
        return EdgeWeights(
            mapping=None,
            a=sweep.owners[keep],
            b=sweep.others[keep],
            w=weights,
            num_nodes=self._index.num_nodes,
            node_ids=self.node_ids,
        )

    def weight_table(self, plan: WeightPlan) -> "EdgeWeights":
        """Every edge weight of the graph, as aligned arrays plus the dict."""
        table = self.weight_arrays(plan)
        # The pair tuples are built lazily inside the zip-of-zips: one pass
        # feeds the dict directly, no intermediate pair list.
        table.mapping = dict(
            zip(
                zip(
                    self.node_ids[table.a].tolist(),
                    self.node_ids[table.b].tolist(),
                ),
                table.w.tolist(),
            )
        )
        return table

    def degrees(self) -> array:
        """Blocking-graph degree of every node, from the (cached) full sweep.

        Only the edge structure is needed, so a cold cache computes the
        cheap aggregate-free sweep.
        """
        sweep = self.sweep(need_arcs=False, need_entropies=False)
        counts = np.bincount(sweep.owners, minlength=self._index.num_nodes)
        return array("q", counts.tolist())


# ------------------------------------------------------- vectorised pruning
@dataclass
class EdgeWeights:
    """An edge-weight mapping plus the aligned dense arrays it was built from.

    ``mapping`` is the plain ``(a, b) → weight`` dict every existing consumer
    understands (node-major first-touch insertion order); ``a`` / ``b`` / ``w``
    are aligned ndarrays over *dense* node ids so pruning skips the dict →
    array conversion entirely.

    A *streaming* table (built by :meth:`NumpyKernel.weight_arrays`) has
    ``mapping=None`` and carries the dense→profile-id ``node_ids`` vector
    instead; consumers materialise python pair tuples chunk by chunk via
    :func:`iter_retained_chunks`, never all at once.
    """

    mapping: "dict | None"
    a: Any
    b: Any
    w: Any
    num_nodes: int
    node_ids: Any = None
    _pairs: "list | None" = field(default=None, repr=False)
    _canonical_rank: Any = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.mapping) if self.mapping is not None else len(self.a)

    @property
    def pairs(self) -> list:
        """The pair tuples aligned with ``w`` (the mapping's key order)."""
        if self._pairs is None:
            if self.mapping is not None:
                self._pairs = list(self.mapping)
            else:
                self._pairs = list(
                    zip(self.node_ids[self.a].tolist(), self.node_ids[self.b].tolist())
                )
        return self._pairs

    def canonical_rank(self):
        """Position of each edge in canonical (sorted-pair) order.

        Ordering by ``(-weight, rank)`` therefore equals the ``(-weight,
        pair)`` tie-break.  Cached: CEP, CNP and the vote-stage edge ids all
        consume it.
        """
        if self._canonical_rank is None:
            order = np.lexsort((self.b, self.a))
            rank = np.empty(len(self.a), dtype=np.int64)
            rank[order] = np.arange(len(self.a), dtype=np.int64)
            self._canonical_rank = rank
        return self._canonical_rank


def _sequential_sum(values):
    """Left-to-right float sum (``np.sum`` would sum pairwise instead).

    A single-bin weighted ``np.bincount`` accumulates strictly in order.
    """
    if len(values) == 0:
        return 0.0
    return float(
        np.bincount(np.zeros(len(values), dtype=np.int64), weights=values, minlength=1)[0]
    )


def _wep_mask(table: EdgeWeights):
    """WEP's boolean retention mask: at or above the global mean weight."""
    threshold = _sequential_sum(table.w) / len(table)
    return table.w >= threshold


def _cep_order(table: EdgeWeights, k: int):
    """CEP's retained edge positions, in ranked ``(-weight, pair)`` order."""
    return np.lexsort((table.canonical_rank(), -table.w))[:k]


def _interleaved_incidence(table: EdgeWeights):
    """The per-node incidence stream in emission order.

    Scanning the edges in emission order and appending each to its two
    endpoints' lists yields, per node, the subsequence of the interleaved
    ``a0, b0, a1, b1, …`` stream — the order every per-node float sum runs
    in.
    """
    nodes = np.empty(2 * len(table), dtype=np.int64)
    nodes[0::2] = table.a
    nodes[1::2] = table.b
    return nodes


def _wnp_mask(table: EdgeWeights, required: int):
    """WNP's boolean retention mask (per-node mean threshold votes)."""
    nodes = _interleaved_incidence(table)
    occurrence_w = np.repeat(table.w, 2)
    sums = np.bincount(nodes, weights=occurrence_w, minlength=table.num_nodes)
    counts = np.bincount(nodes, minlength=table.num_nodes)
    thresholds = sums / np.maximum(counts, 1)
    votes = (table.w >= thresholds[table.a]).astype(np.int64)
    votes += table.w >= thresholds[table.b]
    return votes >= required


def _cnp_mask(table: EdgeWeights, k: int, required: int):
    """CNP's boolean retention mask (per-node top-``k`` votes)."""
    m = len(table)
    # Rank the edges once by (-weight, canonical pair order), then sort the
    # interleaved incidence stream by a single (node, edge position) integer
    # key — stable radix sort, no float arithmetic, exact tie-breaks.
    edge_order = np.lexsort((table.canonical_rank(), -table.w))
    edge_position = np.empty(m, dtype=np.int64)
    edge_position[edge_order] = np.arange(m, dtype=np.int64)
    nodes = _interleaved_incidence(table)
    occurrence_edge = np.repeat(np.arange(m, dtype=np.int64), 2)
    composite = nodes * m + edge_position[occurrence_edge]
    order = np.argsort(composite, kind="stable")
    sorted_nodes = nodes[order]
    segment_starts = np.searchsorted(sorted_nodes, np.arange(table.num_nodes))
    position_in_node = np.arange(2 * m, dtype=np.int64) - segment_starts[sorted_nodes]
    kept = position_in_node < k
    votes = np.bincount(occurrence_edge[order][kept], minlength=m)
    return votes >= required


def _selection(strategy, table: EdgeWeights, index):
    """The retention of one stock strategy over a non-empty table.

    A boolean keep-mask in emission order for WEP / WNP / CNP, or the ranked
    positions for CEP.  Default ``k`` derivations delegate to the shared
    :func:`~repro.metablocking.pruning.default_cep_k` /
    :func:`~repro.metablocking.pruning.default_cnp_k` formulas.
    """
    from repro.metablocking.pruning import (  # import-cycle guard
        CardinalityEdgePruning,
        CardinalityNodePruning,
        WeightedEdgePruning,
        default_cep_k,
        default_cnp_k,
    )

    if isinstance(strategy, WeightedEdgePruning):
        return _wep_mask(table)
    if isinstance(strategy, CardinalityEdgePruning):
        k = strategy.k
        if k is None:
            k = default_cep_k(int(sum(index.node_block_count)))
        return _cep_order(table, k)
    required = 2 if strategy.reciprocal else 1
    if isinstance(strategy, CardinalityNodePruning):
        k = strategy.k
        if k is None:
            k = default_cnp_k(int(sum(index.node_block_count)), index.num_nodes)
        return _cnp_mask(table, k, required)
    return _wnp_mask(table, required)


def prune_edge_weights(strategy, table: EdgeWeights, index) -> dict:
    """The retained-edge dict of ``strategy`` over a mapped weight table.

    Insertion order is the emission order for WEP / WNP / CNP and the ranked
    ``(-weight, pair)`` order for CEP.
    """
    if not len(table):
        return {}
    selection = _selection(strategy, table, index)
    if selection.dtype == bool:
        return dict(compress(table.mapping.items(), selection.tolist()))
    pairs, weights = table.pairs, table.w.tolist()
    return {pairs[i]: weights[i] for i in selection.tolist()}


# ----------------------------------------------------------- streamed pruning
DEFAULT_CHUNK_EDGES = 65536


def retained_positions(strategy, table: EdgeWeights, index):
    """Retained edge positions of ``table``, in retention order.

    The streaming counterpart of :func:`prune_edge_weights`: instead of a
    retained-edge dict it returns the *positions* (indices into
    ``table.a/b/w``) of the retained edges, in the exact order the dict
    variant inserts them.  Both share :func:`_selection`, so chunked
    emission is bit-for-bit the dict's ``items()`` stream.
    """
    if not len(table):
        return np.empty(0, dtype=np.int64)
    selection = _selection(strategy, table, index)
    if selection.dtype == bool:
        return np.flatnonzero(selection)
    return selection


def iter_retained_chunks(
    table: EdgeWeights, positions, chunk_edges: int = DEFAULT_CHUNK_EDGES
):
    """Yield the retained edges as bounded lists of ``((a, b), weight)``.

    ``positions`` is a :func:`retained_positions` result; each yielded chunk
    materialises at most ``chunk_edges`` python records (profile-id pair
    tuples and float weights — identical objects to the retained dict's
    ``items()``), so the peak python-object footprint of a consumer that
    processes chunks as they arrive is O(chunk), not O(retained).
    """
    if chunk_edges <= 0:
        raise MetaBlockingError("chunk_edges must be positive")
    node_ids = table.node_ids
    for start in range(0, len(positions), chunk_edges):
        chunk = positions[start : start + chunk_edges]
        yield list(
            zip(
                zip(
                    node_ids[table.a[chunk]].tolist(),
                    node_ids[table.b[chunk]].tolist(),
                ),
                table.w[chunk].tolist(),
            )
        )
