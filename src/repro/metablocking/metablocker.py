"""The sequential meta-blocker: weight the graph, (optionally) re-weight by
entropy, prune, return candidate pairs.

:class:`repro.metablocking.parallel.ParallelMetaBlocker` produces exactly the
same output using the broadcast-join structure SparkER runs on Spark.

One vectorised kernel sweep over the CSR index
(:mod:`repro.metablocking.backends`) produces the edge-weight table, and the
WEP/WNP/CEP/CNP retention runs as array expressions over it — the blocking
graph is never materialised as a dict of edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.block import BlockCollection
from repro.metablocking import backends as _backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import PruningStrategy, make_pruning_strategy
from repro.metablocking.weights import WeightingScheme


@dataclass
class MetaBlockingResult:
    """Output of a meta-blocking run."""

    candidate_pairs: set[tuple[int, int]] = field(default_factory=set)
    retained_edges: dict[tuple[int, int], float] = field(default_factory=dict)
    graph_edges: int = 0
    graph_nodes: int = 0

    @property
    def num_candidates(self) -> int:
        return len(self.candidate_pairs)

    def as_dict(self) -> dict[str, int]:
        """Flat summary used by reports and benchmarks."""
        return {
            "graph_nodes": self.graph_nodes,
            "graph_edges": self.graph_edges,
            "candidate_pairs": self.num_candidates,
        }


class MetaBlocker:
    """Sequential (driver-side) meta-blocking.

    Parameters
    ----------
    weighting:
        Edge weighting scheme (default CBS, the scheme of the paper's toy
        example).
    pruning:
        Pruning strategy or its short name (default WEP: keep edges above the
        average weight, again the paper's toy example).
    use_entropy:
        When True the edge weights are multiplied by the mean entropy of the
        generating blocks before pruning (BLAST).  Has no effect if every
        block carries the default entropy of 1.0.
    buffer_backend:
        Where the CSR index buffers live (``"ram"`` / ``"memmap"``; ``None``
        consults ``REPRO_BUFFER_BACKEND``).  ``memmap`` backs them with a
        file under ``tmp_dir`` so the OS can page the index.
    tmp_dir:
        Root for the memmap buffer file (``None`` consults ``REPRO_TMPDIR``).
    """

    def __init__(
        self,
        weighting: str | WeightingScheme = WeightingScheme.CBS,
        pruning: str | PruningStrategy = "wep",
        *,
        use_entropy: bool = False,
        buffer_backend: str | None = None,
        tmp_dir: str | None = None,
    ) -> None:
        self.weighting = WeightingScheme.parse(weighting)
        self.pruning = make_pruning_strategy(pruning)
        self.use_entropy = use_entropy
        self.buffer_backend = buffer_backend
        self.tmp_dir = tmp_dir

    def _build_index(self, blocks: BlockCollection) -> CSRBlockIndex:
        return CSRBlockIndex.from_blocks(
            blocks, buffer_backend=self.buffer_backend, tmp_dir=self.tmp_dir
        )

    def run(self, blocks: BlockCollection) -> MetaBlockingResult:
        """Run meta-blocking over ``blocks`` and return the candidate pairs."""
        index = self._build_index(blocks)
        try:
            if index.num_nodes == 0:
                return MetaBlockingResult()
            plan = index.weight_plan(self.weighting, self.use_entropy)
            table = index.kernel().weight_table(plan)
            retained = _backends.prune_edge_weights(self.pruning, table, index)
            return MetaBlockingResult(
                candidate_pairs=set(retained),
                retained_edges=retained,
                graph_edges=index.num_edges(),
                graph_nodes=index.num_nodes,
            )
        finally:
            index.close()

    def stream_retained(
        self,
        blocks: BlockCollection,
        chunk_edges: int = _backends.DEFAULT_CHUNK_EDGES,
    ):
        """Yield the retained edges in bounded chunks of ``((a, b), weight)``.

        The streaming counterpart of :meth:`run`: the concatenation of the
        yielded chunks is exactly ``run(blocks).retained_edges.items()`` —
        same edges, same floats, same order.  No retained-edge dict is ever
        built: the O(E) residual is three dense numeric arrays (and, under
        the ``memmap`` buffer backend, the index pages from disk), so the
        peak python-object footprint is O(chunk).
        """
        index = self._build_index(blocks)
        try:
            if index.num_nodes == 0:
                return
            plan = index.weight_plan(self.weighting, self.use_entropy)
            table = index.kernel().weight_arrays(plan)
            positions = _backends.retained_positions(self.pruning, table, index)
            yield from _backends.iter_retained_chunks(table, positions, chunk_edges)
        finally:
            index.close()

    def __call__(self, blocks: BlockCollection) -> MetaBlockingResult:
        return self.run(blocks)
