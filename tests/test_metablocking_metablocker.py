"""Tests of the sequential meta-blocker and the entropy re-weighting."""

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import CardinalityEdgePruning


def all_weights(blocks, scheme="cbs", use_entropy=False) -> dict:
    """Every edge weight, through the meta-blocker (CEP with k above |E|)."""
    keep_all = CardinalityEdgePruning(k=10**9)
    return MetaBlocker(scheme, keep_all, use_entropy=use_entropy).run(blocks).retained_edges


class TestMetaBlockerToy:
    def test_figure1_pruning_keeps_heaviest_edges(self, toy_dataset):
        # Figure 1(c): edges weighted by common blocks (CBS), retained when the
        # weight is at least the average.
        blocks = TokenBlocking(remove_stopwords=True).block(toy_dataset.profiles)
        result = MetaBlocker("cbs", "wep").run(blocks)
        # The heaviest edge connects p1 (Blast) with p4 (Blast chapter) — a true match.
        assert (0, 3) in result.candidate_pairs
        # Both ground-truth pairs survive the pruning.
        for pair in toy_dataset.ground_truth:
            assert pair in result.candidate_pairs

    def test_prunes_something_on_synthetic(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        result = MetaBlocker("cbs", "wep").run(blocks)
        assert 0 < result.num_candidates < result.graph_edges

    def test_result_as_dict(self, toy_dataset):
        blocks = TokenBlocking().block(toy_dataset.profiles)
        summary = MetaBlocker().run(blocks).as_dict()
        assert {"graph_nodes", "graph_edges", "candidate_pairs"} <= set(summary)

    def test_retained_edges_subset_of_graph(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        result = MetaBlocker("js", "wnp").run(blocks)
        assert set(result.retained_edges) <= blocks.distinct_comparisons()
        assert result.graph_edges == len(blocks.distinct_comparisons())

    def test_recall_mostly_preserved(self, abt_buy_small):
        blocks = BlockFiltering().filter(
            BlockPurging().purge(
                TokenBlocking().block(abt_buy_small.profiles), len(abt_buy_small.profiles)
            )
        )
        result = MetaBlocker("cbs", "wnp").run(blocks)
        truth = abt_buy_small.ground_truth.pairs()
        before = blocks.distinct_comparisons() & truth
        after = result.candidate_pairs & truth
        assert len(after) >= 0.85 * len(before)

    def test_empty_blocks(self):
        result = MetaBlocker().run(BlockCollection(clean_clean=True))
        assert result.num_candidates == 0


class TestEntropyWeighting:
    def _entropy_blocks(self) -> BlockCollection:
        return BlockCollection(
            [
                Block(key="high_1", profiles_source0={0}, profiles_source1={5},
                      entropy=1.0, clean_clean=True),
                Block(key="low_1", profiles_source0={1}, profiles_source1={5},
                      entropy=0.1, clean_clean=True),
            ],
            clean_clean=True,
        )

    def test_low_entropy_edges_damped(self):
        reweighted = all_weights(self._entropy_blocks(), use_entropy=True)
        assert reweighted[(0, 5)] == 1.0
        assert abs(reweighted[(1, 5)] - 0.1) < 1e-12

    def test_default_entropy_is_noop(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        assert all_weights(blocks, use_entropy=True) == all_weights(blocks)

    def test_entropy_changes_pruning_outcome(self):
        # With entropy, the low-entropy edge drops below the WEP threshold.
        blocks = self._entropy_blocks()
        without = MetaBlocker("cbs", "wep", use_entropy=False).run(blocks)
        with_entropy = MetaBlocker("cbs", "wep", use_entropy=True).run(blocks)
        assert (1, 5) in without.candidate_pairs
        assert (1, 5) not in with_entropy.candidate_pairs
        assert (0, 5) in with_entropy.candidate_pairs

    def test_factor_is_mean_entropy_of_shared_blocks(self):
        blocks = BlockCollection(
            [
                Block(key=f"k{i}", profiles_source0={0}, profiles_source1={5},
                      entropy=entropy, clean_clean=True)
                for i, entropy in enumerate((0.5, 1.5))
            ],
            clean_clean=True,
        )
        # CBS 2 times the mean entropy (0.5 + 1.5) / 2 = 1.
        assert all_weights(blocks, use_entropy=True) == {(0, 5): 2.0}
