"""Tests of the blocking graph as the CSR index and its kernel materialise it."""

from repro.blocking.block import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker


def _collection() -> BlockCollection:
    return BlockCollection(
        [
            Block(key="a", profiles_source0={0, 1}, profiles_source1={5}, clean_clean=True),
            Block(key="b", profiles_source0={0}, profiles_source1={5}, clean_clean=True,
                  entropy=0.5),
        ],
        clean_clean=True,
    )


def edge_weights(blocks, scheme="cbs", use_entropy=False) -> dict:
    """Every graph edge with its weight, straight from the kernel."""
    index = CSRBlockIndex.from_blocks(blocks)
    plan = index.weight_plan(scheme, use_entropy)
    return index.kernel().weight_table(plan).mapping


def neighbours(blocks, profile_id) -> list[int]:
    index = CSRBlockIndex.from_blocks(blocks)
    dense = index.kernel().neighbours(index.node_of[profile_id])
    return [index.node_ids[node] for node in dense]


class TestBuildBlockingGraph:
    def test_edges_from_co_occurrence(self):
        weights = edge_weights(_collection())
        assert list(weights) == [(0, 5), (1, 5)]
        assert MetaBlocker().run(_collection()).graph_edges == 2

    def test_common_blocks_counted(self):
        weights = edge_weights(_collection(), "cbs")
        assert weights[(0, 5)] == 2.0
        assert weights[(1, 5)] == 1.0

    def test_arcs_accumulates_reciprocals(self):
        weights = edge_weights(_collection(), "arcs")
        # block "a" has 2 comparisons, block "b" has 1.
        assert weights[(0, 5)] == 1 / 2 + 1 / 1
        assert weights[(1, 5)] == 1 / 2

    def test_entropy_sum_and_mean(self):
        # BLAST scales CBS by the mean entropy of the shared blocks:
        # (1.0 + 0.5) / 2 for the edge generated by both blocks.
        weights = edge_weights(_collection(), "cbs", use_entropy=True)
        assert weights[(0, 5)] == 2.0 * 0.75
        assert weights[(1, 5)] == 1.0

    def test_blocks_per_profile(self):
        index = CSRBlockIndex.from_blocks(_collection())
        counts = {pid: index.node_block_count[index.node_of[pid]] for pid in (0, 1, 5)}
        assert counts == {0: 2, 1: 1, 5: 2}

    def test_num_nodes(self):
        assert CSRBlockIndex.from_blocks(_collection()).num_nodes == 3
        assert MetaBlocker().run(_collection()).graph_nodes == 3

    def test_neighbors(self):
        assert set(neighbours(_collection(), 5)) == {0, 1}
        assert neighbours(_collection(), 0) == [5]

    def test_edges_are_canonical_pairs(self):
        assert all(a < b for a, b in edge_weights(_collection()))

    def test_adjacency_symmetric(self):
        index = CSRBlockIndex.from_blocks(_collection())
        degrees = index.degree_vector()
        assert degrees[index.node_of[5]] == 2
        assert degrees[index.node_of[0]] == 1
        assert index.num_edges() == 2

    def test_invalid_blocks_ignored(self):
        collection = BlockCollection(
            [Block(key="solo", profiles_source0={7}, clean_clean=True)], clean_clean=True
        )
        result = MetaBlocker().run(collection)
        assert result.graph_edges == 0
        assert result.graph_nodes == 0
        assert CSRBlockIndex.from_blocks(collection).num_nodes == 0

    def test_edges_match_distinct_comparisons(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        assert set(edge_weights(blocks)) == blocks.distinct_comparisons()
