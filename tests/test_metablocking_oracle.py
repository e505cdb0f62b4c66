"""Every meta-blocking route against the brute-force reference.

:mod:`tests.metablocking_oracle` computes meta-blocking straight from the
paper's definitions.  Hypothesis generates dirty and clean-clean block
collections (skewed sizes, random entropies, invalid blocks mixed in) and
every weighting × pruning × entropy configuration; each route must return
exactly the oracle's retained edges — same pairs, same float weights — and,
where the route promises it, in the same order:

* the sequential :class:`MetaBlocker` (``run`` and ``stream_retained``, ram
  and memmap buffers);
* the broadcast-join :class:`ParallelMetaBlocker` on the serial executor, and
  on a process pool for a fixed subset;
* both progressive rankings;
* the :class:`DeltaMetaBlocker` over random append sequences.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.blocking.block import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.data.profile import EntityProfile
from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.metablocking.pruning import (
    CardinalityEdgePruning,
    CardinalityNodePruning,
    ReciprocalWeightedNodePruning,
    WeightedEdgePruning,
    WeightedNodePruning,
)
from repro.service.delta import DeltaMetaBlocker

from tests import metablocking_oracle as oracle

SCHEMES = ("cbs", "js", "arcs", "ecbs", "ejs")
ENTROPIES = st.sampled_from([1.0, 0.5, 2.25]) | st.floats(0.05, 2.5)


def examples(count: int):
    """Hypothesis settings: ``count`` examples, no per-example deadline."""
    return settings(
        max_examples=count, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )


def make_strategy(pruning: str, k):
    """The stock strategy object for an oracle pruning name."""
    if pruning == "wep":
        return WeightedEdgePruning()
    if pruning == "cep":
        return CardinalityEdgePruning(k)
    if pruning == "wnp":
        return WeightedNodePruning()
    if pruning == "rwnp":
        return ReciprocalWeightedNodePruning()
    return CardinalityNodePruning(k, reciprocal=pruning == "rcnp")


@st.composite
def collections(draw):
    """A dirty or clean-clean collection; disjoint source id ranges."""
    clean = draw(st.booleans())
    ids = st.integers(0, draw(st.integers(1, 14)))
    members = st.sets(ids, max_size=draw(st.integers(1, 7)))
    collection = BlockCollection(clean_clean=clean)
    for key in range(draw(st.integers(0, 12))):
        collection.add(
            Block(
                key=f"b{key}",
                profiles_source0=draw(members),
                profiles_source1={1000 + i for i in draw(members)} if clean else set(),
                entropy=draw(ENTROPIES),
                clean_clean=clean,
            )
        )
    return collection


configs = st.tuples(
    st.sampled_from(SCHEMES),
    st.sampled_from(oracle.PRUNINGS),
    st.none() | st.integers(1, 4),
    st.booleans(),
)


def _expected(blocks, config):
    scheme, pruning, k, use_entropy = config
    return oracle.retained_edges(blocks, scheme, pruning, k, use_entropy)


def _sequential(config, **kwargs):
    scheme, pruning, k, use_entropy = config
    return MetaBlocker(scheme, make_strategy(pruning, k), use_entropy=use_entropy, **kwargs)


@examples(150)
@given(collections(), configs, st.sampled_from(["ram", "memmap"]))
def test_sequential_run_matches_oracle(blocks, config, buffer_backend):
    result = _sequential(config, buffer_backend=buffer_backend).run(blocks)
    expected = _expected(blocks, config)
    assert list(result.retained_edges.items()) == list(expected.items())
    assert result.candidate_pairs == set(expected)
    assert result.graph_edges == len(oracle.edge_weights(blocks, "cbs"))
    assert result.graph_nodes == len(oracle.graph_nodes(blocks))


@examples(150)
@given(collections(), configs, st.integers(1, 5))
def test_streamed_chunks_match_oracle(blocks, config, chunk_edges):
    chunks = list(_sequential(config).stream_retained(blocks, chunk_edges=chunk_edges))
    assert all(0 < len(chunk) <= chunk_edges for chunk in chunks)
    streamed = [edge for chunk in chunks for edge in chunk]
    assert streamed == list(_expected(blocks, config).items())


@examples(60)
@given(collections(), configs, st.integers(1, 5))
def test_parallel_serial_matches_oracle(blocks, config, partitions):
    scheme, pruning, k, use_entropy = config
    result = ParallelMetaBlocker(
        EngineContext(partitions),
        scheme,
        make_strategy(pruning, k),
        use_entropy=use_entropy,
    ).run(blocks)
    assert result.retained_edges == _expected(blocks, config)
    assert result.graph_edges == len(oracle.edge_weights(blocks, "cbs"))


@examples(60)
@given(collections(), st.sampled_from(SCHEMES))
def test_progressive_rankings_match_oracle(blocks, scheme):
    assert ProgressiveSortedComparisons(scheme).rank(blocks) == oracle.global_ranking(
        blocks, scheme
    )
    assert ProgressiveNodeScheduling(scheme).rank(blocks) == oracle.node_ranking(
        blocks, scheme
    )


# ------------------------------------------------------------- process pool
def _seeded_collection(seed: int, clean: bool) -> BlockCollection:
    rng = random.Random(seed)
    collection = BlockCollection(clean_clean=clean)
    for key in range(40):
        members = {rng.randrange(30) for _ in range(rng.randint(0, 6))}
        others = {1000 + rng.randrange(30) for _ in range(rng.randint(0, 6))}
        collection.add(
            Block(
                key=f"b{key}",
                profiles_source0=members,
                profiles_source1=others if clean else set(),
                entropy=rng.uniform(0.05, 2.5),
                clean_clean=clean,
            )
        )
    return collection


@pytest.fixture(scope="module")
def process_executor():
    executor = MultiprocessingExecutor(max_workers=2, on_unpicklable="raise")
    yield executor
    executor.close()


@pytest.mark.parametrize(
    "config",
    [
        ("ejs", "rwnp", None, True),
        ("arcs", "cnp", None, False),
        ("ecbs", "cep", 7, True),
        ("js", "wnp", None, True),
        ("cbs", "wep", None, False),
        ("cbs", "rcnp", 2, True),
    ],
    ids=lambda config: f"{config[0]}-{config[1]}",
)
@pytest.mark.parametrize("clean", [False, True], ids=["dirty", "clean"])
def test_parallel_process_matches_oracle(process_executor, config, clean):
    scheme, pruning, k, use_entropy = config
    blocks = _seeded_collection(17, clean)
    result = ParallelMetaBlocker(
        EngineContext(4, executor=process_executor),
        scheme,
        make_strategy(pruning, k),
        use_entropy=use_entropy,
    ).run(blocks)
    assert result.retained_edges == _expected(blocks, config)


# ------------------------------------------------------------------- delta
_WORDS = ("ada", "bob", "cy", "dee", "eve", "fay", "gus", "hal", "ivy")


@st.composite
def append_sequences(draw):
    """Profiles (ids ascending) split into 1-4 append batches."""
    clean = draw(st.booleans())
    count = draw(st.integers(3, 30))
    profiles = []
    for profile_id in range(count):
        if not clean:
            source = 0
        elif profile_id < 2:
            source = profile_id  # pins both sources: every prefix is clean-clean
        else:
            source = draw(st.integers(0, 1))
        profile = EntityProfile(profile_id, f"p{profile_id}", source)
        words = draw(st.lists(st.sampled_from(_WORDS), max_size=4))
        if words:
            profile.add("name", " ".join(words))
        profiles.append(profile)
    cuts = sorted(draw(st.sets(st.integers(2, count - 1), max_size=3)))
    bounds = [0, *cuts, count]
    return clean, [profiles[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


@examples(60)
@given(append_sequences(), configs)
def test_delta_refresh_matches_oracle_after_every_append(sequence, config):
    clean, batches = sequence
    scheme, pruning, k, use_entropy = config
    incremental = IncrementalBlockIndex(clean_clean=clean)
    delta = DeltaMetaBlocker(scheme, make_strategy(pruning, k), use_entropy=use_entropy)
    ingested: list = []
    try:
        for position, batch in enumerate(batches):
            touched = incremental.append_profiles(batch).touched_profile_ids
            ingested.extend(batch)
            delta.refresh(incremental.materialise(), None if position == 0 else touched)
            blocks = TokenBlocking().block(ProfileCollection(ingested))
            assert delta.retained == _expected(blocks, config)
    finally:
        incremental.close()
