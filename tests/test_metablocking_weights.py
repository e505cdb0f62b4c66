"""Tests of the edge weighting schemes."""

import math

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.exceptions import MetaBlockingError
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import CardinalityEdgePruning
from repro.metablocking.weights import WeightingScheme

from tests import metablocking_oracle as oracle


def all_weights(blocks, scheme) -> dict:
    """Every edge weight, through the meta-blocker (CEP with k above |E|)."""
    return MetaBlocker(scheme, CardinalityEdgePruning(k=10**9)).run(blocks).retained_edges


def _dirty(*member_sets) -> BlockCollection:
    return BlockCollection(
        [Block(key=f"b{i}", profiles_source0=set(m)) for i, m in enumerate(member_sets)]
    )


def _collection():
    return BlockCollection(
        [
            Block(key="a", profiles_source0={0, 1}, profiles_source1={5}, clean_clean=True),
            Block(key="b", profiles_source0={0}, profiles_source1={5}, clean_clean=True),
            Block(key="c", profiles_source0={0}, profiles_source1={5, 6}, clean_clean=True),
        ],
        clean_clean=True,
    )


class TestWeightingSchemeParse:
    def test_parse_names(self):
        assert WeightingScheme.parse("CBS") is WeightingScheme.CBS
        assert WeightingScheme.parse("js") is WeightingScheme.JS

    def test_parse_instance_passthrough(self):
        assert WeightingScheme.parse(WeightingScheme.ARCS) is WeightingScheme.ARCS

    def test_unknown_scheme(self):
        with pytest.raises(MetaBlockingError):
            WeightingScheme.parse("unknown")


class TestComputeEdgeWeight:
    def test_cbs(self):
        blocks = _dirty({0, 1}, {0, 1, 2}, {0, 1, 3})
        assert all_weights(blocks, "cbs")[(0, 1)] == 3.0

    def test_arcs(self):
        # ||b|| counts comparisons: a 2-member and a 3-member block
        # contribute 1/1 and 1/3.
        blocks = _dirty({0, 1}, {0, 1, 2})
        assert all_weights(blocks, "arcs")[(0, 1)] == 1 / 1 + 1 / 3

    def test_js(self):
        # Profile 0 sits in 4 blocks, profile 1 in 3; they share 2.
        blocks = _dirty({0, 1}, {0, 1}, {0, 2}, {0, 3}, {1, 4})
        assert all_weights(blocks, "js")[(0, 1)] == 2 / (4 + 3 - 2)

    def test_js_zero_denominator(self):
        # A profile on both sides of a clean-clean block meets its neighbour
        # twice in one block: CBS 2 against one block each, so the JS
        # denominator is 1 + 1 - 2 = 0 and the weight is defined as 0.
        blocks = BlockCollection(
            [Block(key="x", profiles_source0={0, 5}, profiles_source1={0, 5},
                   clean_clean=True)],
            clean_clean=True,
        )
        assert all_weights(blocks, "cbs") == {(0, 5): 2.0}
        assert all_weights(blocks, "js") == {(0, 5): 0.0}
        assert oracle.edge_weights(blocks, "js") == {(0, 5): 0.0}

    def test_ecbs_rarity_boost(self):
        # Both pairs share 2 blocks; 2 and 3 also sit in many other blocks,
        # so the rarer pair (0, 1) gets the larger ECBS weight.
        fillers = [{2, 10 + i} for i in range(6)] + [{3, 20 + i} for i in range(6)]
        blocks = _dirty({0, 1}, {0, 1}, {2, 3}, {2, 3}, *fillers)
        cbs = all_weights(blocks, "cbs")
        ecbs = all_weights(blocks, "ecbs")
        assert cbs[(0, 1)] == cbs[(2, 3)] == 2.0
        assert ecbs[(0, 1)] > ecbs[(2, 3)]

    def test_ejs_scales_js_by_degree_rarity(self):
        blocks = _dirty({0, 1}, {0, 1, 2}, {2, 3}, {3, 4})
        js = all_weights(blocks, "js")
        ejs = all_weights(blocks, "ejs")
        degree = {0: 2, 1: 2, 2: 3, 3: 2, 4: 1}
        edges = len(js)

        def rarity(node):
            return math.log10(max(edges / degree[node], 1.0) + 1e-12)

        for (a, b), weight in ejs.items():
            assert weight == js[(a, b)] * rarity(a) * rarity(b)


class TestWeightAllEdges:
    @pytest.mark.parametrize("scheme", list(WeightingScheme))
    def test_every_edge_weighted(self, scheme):
        blocks = _collection()
        weights = all_weights(blocks, scheme)
        assert set(weights) == blocks.distinct_comparisons()
        assert all(w >= 0.0 for w in weights.values())

    def test_cbs_values(self):
        weights = all_weights(_collection(), "cbs")
        assert weights[(0, 5)] == 3.0
        assert weights[(1, 5)] == 1.0
        assert weights[(0, 6)] == 1.0

    def test_more_shared_blocks_heavier_edge(self, abt_buy_small):
        from repro.blocking.token_blocking import TokenBlocking

        weights = all_weights(TokenBlocking().block(abt_buy_small.profiles), "cbs")
        truth = abt_buy_small.ground_truth.pairs()
        matching = [w for pair, w in weights.items() if pair in truth]
        non_matching = [w for pair, w in weights.items() if pair not in truth]
        assert sum(matching) / len(matching) > sum(non_matching) / len(non_matching)
