"""Pruning strategies for meta-blocking.

Given the weighted blocking graph, a pruning strategy decides which edges
(candidate comparisons) to retain:

* **WEP** — Weighted Edge Pruning: keep edges whose weight is at least the
  global average edge weight (this is the rule of the paper's Figure 1(c)).
* **CEP** — Cardinality Edge Pruning: keep the globally top-K edges, with
  ``K = sum_p |blocks(p)| / 2`` by default.
* **WNP** — Weighted Node Pruning: for every node keep the incident edges
  whose weight is at least that node's local average; an edge survives if it
  is retained by *either* endpoint (OR semantics).
* **Reciprocal WNP** — as WNP but an edge survives only if *both* endpoints
  retain it (AND semantics) — BLAST's pruning rule.
* **CNP** — Cardinality Node Pruning: every node keeps its top-k incident
  edges, ``k = B/|P| - 1`` blocks-per-profile based by default; OR semantics.

Ties in every ranking break by ascending canonical pair.  The strategy
classes only hold their parameters (``k``, ``reciprocal``); the retention
itself runs vectorised over the kernel's edge-weight table
(:func:`repro.metablocking.backends.prune_edge_weights`).
"""

from __future__ import annotations

import math

from repro.exceptions import MetaBlockingError


def default_cep_k(total_assignments: int) -> int:
    """CEP's default K: half the total block assignments (Papadakis et al.).

    The single definition shared by the sequential, parallel and delta
    paths — they must retain the same edge set, so the formula must not fork.
    """
    return max(1, total_assignments // 2)


def default_cnp_k(total_assignments: int, num_profiles: int) -> int:
    """CNP's default per-node k: blocks-per-profile minus one (same sharing)."""
    return max(1, math.floor(total_assignments / max(1, num_profiles)) - 1)


def _check_k(k: "int | None") -> None:
    if k is not None and k <= 0:
        raise MetaBlockingError("k must be positive when given")


class PruningStrategy:
    """Base class of the stock pruning strategies."""


class WeightedEdgePruning(PruningStrategy):
    """WEP: keep edges with weight >= the global mean edge weight."""


class CardinalityEdgePruning(PruningStrategy):
    """CEP: keep the globally top-K edges.

    Parameters
    ----------
    k:
        Number of edges to keep; when ``None`` it defaults to half the total
        block assignments (sum of blocks per profile / 2), following
        Papadakis et al.
    """

    def __init__(self, k: int | None = None) -> None:
        _check_k(k)
        self.k = k


class WeightedNodePruning(PruningStrategy):
    """WNP: per-node average threshold, edge retained if either endpoint keeps it."""

    def __init__(self, *, reciprocal: bool = False) -> None:
        self.reciprocal = reciprocal


class ReciprocalWeightedNodePruning(WeightedNodePruning):
    """Reciprocal WNP (BLAST): both endpoints must retain the edge."""

    def __init__(self) -> None:
        super().__init__(reciprocal=True)


class CardinalityNodePruning(PruningStrategy):
    """CNP: every node keeps its top-k incident edges (OR semantics).

    Parameters
    ----------
    k:
        Edges each node retains; ``None`` uses ``max(1, B/|P| - 1)`` where B is
        the total number of block assignments and |P| the number of profiles.
    reciprocal:
        When True an edge must be in the top-k of both endpoints (AND).
    """

    def __init__(self, k: int | None = None, *, reciprocal: bool = False) -> None:
        _check_k(k)
        self.k = k
        self.reciprocal = reciprocal


_PRUNING_ALIASES = {
    "wep": WeightedEdgePruning,
    "cep": CardinalityEdgePruning,
    "wnp": WeightedNodePruning,
    "rwnp": ReciprocalWeightedNodePruning,
    "reciprocal_wnp": ReciprocalWeightedNodePruning,
    "cnp": CardinalityNodePruning,
}

_STOCK_STRATEGIES = frozenset(_PRUNING_ALIASES.values())


def make_pruning_strategy(name: "str | PruningStrategy") -> PruningStrategy:
    """Build a pruning strategy from its short name (wep, cep, wnp, rwnp, cnp).

    A stock strategy instance passes through; any other type — custom
    subclasses included — is rejected.
    """
    if type(name) in _STOCK_STRATEGIES:
        return name  # type: ignore[return-value]
    if not isinstance(name, str):
        raise MetaBlockingError(
            f"unsupported pruning strategy {type(name).__name__}; use one of "
            "the stock strategies (WEP, CEP, WNP, reciprocal WNP, CNP)"
        )
    try:
        return _PRUNING_ALIASES[name.lower()]()
    except KeyError as exc:
        valid = ", ".join(sorted(_PRUNING_ALIASES))
        raise MetaBlockingError(
            f"unknown pruning strategy {name!r}; valid strategies: {valid}"
        ) from exc
