"""Tests of the pruning strategies (run through the meta-blocker)."""

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.exceptions import MetaBlockingError
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
    default_cep_k,
    default_cnp_k,
    make_pruning_strategy,
)

from tests import metablocking_oracle as oracle

STAR_WEIGHTS = {(0, 1): 3.0, (0, 2): 1.0, (0, 3): 1.0, (2, 3): 2.0, (4, 5): 5.0}


def _dirty(member_sets) -> BlockCollection:
    return BlockCollection(
        [Block(key=f"b{i}", profiles_source0=set(m)) for i, m in enumerate(member_sets)]
    )


def _star_blocks() -> BlockCollection:
    """A star around node 0 plus an isolated pair; CBS weights STAR_WEIGHTS."""
    return _dirty(
        [pair for pair, weight in STAR_WEIGHTS.items() for _ in range(int(weight))]
    )


def _uniform_blocks() -> BlockCollection:
    """Three blocks over the same four profiles: every edge has CBS 3."""
    return _dirty([{0, 1, 2, 3}] * 3)


def retained(blocks, strategy) -> dict:
    return MetaBlocker("cbs", strategy).run(blocks).retained_edges


class TestWeightedEdgePruning:
    def test_keeps_above_average(self):
        kept = retained(_star_blocks(), WeightedEdgePruning())
        mean = sum(STAR_WEIGHTS.values()) / len(STAR_WEIGHTS)
        assert all(w >= mean for w in kept.values())
        assert (4, 5) in kept
        assert (0, 2) not in kept

    def test_empty_weights(self):
        assert retained(BlockCollection(), WeightedEdgePruning()) == {}

    def test_uniform_weights_keep_all(self):
        kept = retained(_uniform_blocks(), WeightedEdgePruning())
        assert kept == {pair: 3.0 for pair in _uniform_blocks().distinct_comparisons()}


class TestCardinalityEdgePruning:
    def test_explicit_k(self):
        kept = retained(_star_blocks(), CardinalityEdgePruning(k=2))
        assert kept == {(4, 5): 5.0, (0, 1): 3.0}

    def test_default_k_from_block_assignments(self):
        # One 6-member block: 6 assignments, so K = 6 // 2 = 3 of 15 edges.
        assert default_cep_k(6) == 3
        kept = retained(_dirty([set(range(6))]), CardinalityEdgePruning())
        assert len(kept) == 3

    def test_invalid_k(self):
        with pytest.raises(MetaBlockingError):
            CardinalityEdgePruning(k=0)

    def test_deterministic_tie_breaking(self):
        # All weights tie, so the (-weight, pair) rank keeps the lowest pairs
        # and the retained dict lists them in rank order.
        kept = retained(_uniform_blocks(), CardinalityEdgePruning(k=3))
        assert list(kept) == [(0, 1), (0, 2), (0, 3)]


class TestWeightedNodePruning:
    def test_or_semantics_keeps_more_than_reciprocal(self):
        wnp = retained(_star_blocks(), WeightedNodePruning())
        rwnp = retained(_star_blocks(), ReciprocalWeightedNodePruning())
        assert set(rwnp) <= set(wnp)

    def test_strong_edge_always_kept(self):
        kept = retained(_star_blocks(), WeightedNodePruning())
        assert (0, 1) in kept
        assert (4, 5) in kept

    def test_node_thresholds(self):
        # Node 0's mean incident weight is (3 + 1 + 1) / 3, nodes 2 and 3 have
        # (1 + 2) / 2: the weight-1 edges fall below both endpoints' means.
        expected = {(0, 1): 3.0, (2, 3): 2.0, (4, 5): 5.0}
        assert retained(_star_blocks(), WeightedNodePruning()) == expected
        assert retained(_star_blocks(), ReciprocalWeightedNodePruning()) == expected

    def test_empty(self):
        assert retained(BlockCollection(), WeightedNodePruning()) == {}


class TestCardinalityNodePruning:
    def test_top_k_per_node(self):
        kept = retained(_star_blocks(), CardinalityNodePruning(k=1))
        # Node 0's best edge and the isolated pair must survive.
        assert (0, 1) in kept
        assert (4, 5) in kept

    def test_reciprocal_stricter(self):
        or_variant = retained(_star_blocks(), CardinalityNodePruning(k=1))
        and_variant = retained(
            _star_blocks(), CardinalityNodePruning(k=1, reciprocal=True)
        )
        assert set(and_variant) <= set(or_variant)

    def test_default_k_and_tie_break(self):
        # 12 assignments over 4 profiles: k = 12 / 4 - 1 = 2.  Every weight
        # ties, so each node keeps its two lowest pairs; (2, 3) is nobody's.
        assert default_cnp_k(12, 4) == 2
        kept = retained(_uniform_blocks(), CardinalityNodePruning())
        assert set(kept) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
        assert kept == oracle.retained_edges(_uniform_blocks(), "cbs", "cnp")

    def test_invalid_k(self):
        with pytest.raises(MetaBlockingError):
            CardinalityNodePruning(k=-1)


class TestMakePruningStrategy:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("wep", WeightedEdgePruning),
            ("cep", CardinalityEdgePruning),
            ("wnp", WeightedNodePruning),
            ("rwnp", ReciprocalWeightedNodePruning),
            ("cnp", CardinalityNodePruning),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_pruning_strategy(name), cls)

    def test_instance_passthrough(self):
        strategy = WeightedEdgePruning()
        assert make_pruning_strategy(strategy) is strategy

    def test_unknown_name(self):
        with pytest.raises(MetaBlockingError):
            make_pruning_strategy("nope")

    def test_custom_strategy_types_rejected(self):
        class Custom(WeightedNodePruning):
            pass

        with pytest.raises(MetaBlockingError, match="unsupported pruning strategy"):
            make_pruning_strategy(Custom())
        with pytest.raises(MetaBlockingError, match="unsupported pruning strategy"):
            MetaBlocker("cbs", object())  # type: ignore[arg-type]
