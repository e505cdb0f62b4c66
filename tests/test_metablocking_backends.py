"""Unit tests of the vectorised pruning layer and the backend config rules.

The vectorised WEP / CEP / WNP / CNP retention is checked against the
brute-force reference on adversarial weight maps (duplicate weights, zeros,
tie-heavy) that block collections rarely produce; the full routes are
checked in ``test_metablocking_oracle.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, MetaBlockingError
from repro.metablocking import backends
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)

from tests import metablocking_oracle as oracle


def _random_weights(seed: int, num_nodes: int = 60, num_edges: int = 400):
    """A weight map with heavy ties: duplicate weights, zeros, dense pairs."""
    rng = random.Random(seed)
    weights: dict[tuple[int, int], float] = {}
    while len(weights) < num_edges:
        a, b = rng.sample(range(num_nodes), 2)
        pair = (a, b) if a < b else (b, a)
        # Few distinct weight values on purpose: the tie-breaks must match.
        weights.setdefault(pair, float(rng.choice([0.0, 1.0, 2.0, 2.0, 3.5])))
    return weights


def _table_from(weights):
    pairs = list(weights)
    return backends.EdgeWeights(
        mapping=dict(weights),
        a=np.asarray([a for a, _b in pairs], dtype=np.int64),
        b=np.asarray([b for _a, b in pairs], dtype=np.int64),
        w=np.asarray(list(weights.values()), dtype=np.float64),
        num_nodes=max(x for p in pairs for x in p) + 1,
    )


def _prune(strategy, weights):
    # Explicit k everywhere, so the index (default-k source) is never read.
    return backends.prune_edge_weights(strategy, _table_from(weights), None)


def _reference(weights, pruning, k=None):
    return oracle.prune(weights, pruning, k, assignments=0, nodes=0)


class TestVectorisedPruningFastPaths:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wep_matches_oracle(self, seed):
        weights = _random_weights(seed)
        assert _prune(WeightedEdgePruning(), weights) == _reference(weights, "wep")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 7, 10_000])
    def test_cep_matches_oracle(self, seed, k):
        weights = _random_weights(seed)
        vectorised = _prune(CardinalityEdgePruning(k=k), weights)
        # The retained dict is in ranked order, like the reference's.
        assert list(vectorised.items()) == list(_reference(weights, "cep", k).items())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("required", [1, 2])
    def test_wnp_matches_oracle(self, seed, required):
        weights = _random_weights(seed)
        strategy = (
            ReciprocalWeightedNodePruning() if required == 2 else WeightedNodePruning()
        )
        expected = _reference(weights, "rwnp" if required == 2 else "wnp")
        assert _prune(strategy, weights) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("required", [1, 2])
    @pytest.mark.parametrize("k", [1, 4])
    def test_cnp_matches_oracle(self, seed, required, k):
        weights = _random_weights(seed)
        strategy = CardinalityNodePruning(k=k, reciprocal=required == 2)
        expected = _reference(weights, "rcnp" if required == 2 else "cnp", k)
        assert _prune(strategy, weights) == expected

    def test_empty_table_retains_nothing(self):
        empty = _table_from({(0, 1): 1.0})
        empty.mapping = {}
        for strategy in (
            WeightedEdgePruning(),
            CardinalityEdgePruning(k=3),
            WeightedNodePruning(),
            CardinalityNodePruning(k=3),
        ):
            assert backends.prune_edge_weights(strategy, empty, None) == {}
            assert len(backends.retained_positions(strategy, empty, None)) == 0


class TestBackendConfig:
    def test_buffer_backend_resolution(self, monkeypatch):
        monkeypatch.delenv(backends.BUFFER_ENV_VAR, raising=False)
        assert backends.resolve_buffer_backend(None) == "ram"
        assert backends.resolve_buffer_backend(" MemMap ") == "memmap"
        monkeypatch.setenv(backends.BUFFER_ENV_VAR, "memmap")
        assert backends.resolve_buffer_backend("") == "memmap"
        with pytest.raises(MetaBlockingError, match="unknown buffer backend"):
            backends.resolve_buffer_backend("tape")

    @pytest.mark.parametrize("value", [None, "auto", "numpy", " NumPy "])
    def test_legacy_kernel_backend_key_is_dropped(self, value):
        section = {"kernel_backend": value, "executor": "serial"}
        backends.drop_legacy_kernel_backend(section, "engine.", ConfigurationError)
        assert section == {"executor": "serial"}

    def test_legacy_python_kernel_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'python' kernel was removed"):
            backends.drop_legacy_kernel_backend(
                {"kernel_backend": "python"}, "engine.", ConfigurationError
            )
