"""Brute-force meta-blocking reference, written from the paper's definitions.

No CSR index, no kernel, no numpy: every co-occurring pair of every valid
block is enumerated, the five weighting schemes and four pruning rules are
applied as defined by Papadakis et al. (and BLAST's entropy factor), and the
result is the retained ``(a, b) -> weight`` dict.  The differential tests
compare every meta-blocking route against it with exact dict equality.

Exact equality needs one canonical evaluation order, which this module fixes:

* nodes ascend by profile id; a node's neighbours appear in first-touch
  order (ascending block, sorted members within a block); each edge is
  emitted once, from its lower endpoint;
* every float sum adds its terms left to right in that order;
* ``total_blocks`` (ECBS) counts the invalid blocks too.
"""

from __future__ import annotations

import math

PRUNINGS = ("wep", "cep", "wnp", "rwnp", "cnp", "rcnp")


def valid_blocks(blocks) -> list:
    """The blocks that induce at least one comparison (the graph's blocks)."""
    return [block for block in blocks if block.num_comparisons() > 0]


def graph_nodes(blocks) -> set:
    """Every profile of a valid block."""
    return {node for block in valid_blocks(blocks) for node in block.all_profiles()}


def neighbourhoods(blocks):
    """Per profile: ``{neighbour: [common blocks, arcs, entropy sum]}``."""
    hood: dict[int, dict[int, list]] = {}
    for block in valid_blocks(blocks):
        inverse = 1.0 / block.num_comparisons()
        side0, side1 = sorted(block.profiles_source0), sorted(block.profiles_source1)
        sides = [(side0, side1), (side1, side0)] if block.is_clean_clean else [(side0, side0)]
        for members, others in sides:
            for node in members:
                mine = hood.setdefault(node, {})
                for other in others:
                    if other != node:
                        entry = mine.setdefault(other, [0, 0.0, 0.0])
                        entry[0] += 1
                        entry[1] += inverse
                        entry[2] += block.entropy
    return dict(sorted(hood.items()))


def _rarity(total, count):
    return math.log10(max(total / count, 1.0) + 1e-12)


def edge_weights(blocks, scheme: str, use_entropy: bool = False) -> dict:
    """Every blocking-graph edge ``(a, b), a < b`` with its weight, in order."""
    hood = neighbourhoods(blocks)
    blocks_of = {
        node: sum(1 for b in valid_blocks(blocks) if node in b.all_profiles())
        for node in hood
    }
    total_blocks = len(blocks)
    degree = {node: len(others) for node, others in hood.items()}
    total_edges = sum(degree.values()) // 2
    weights = {}
    for a, others in hood.items():
        for b, (cbs, arcs, entropy_sum) in others.items():
            if b < a:
                continue
            denominator = blocks_of[a] + blocks_of[b] - float(cbs)
            js = cbs / denominator if denominator > 0 else 0.0
            if scheme == "ecbs":
                weight = cbs * _rarity(total_blocks, blocks_of[a]) * _rarity(
                    total_blocks, blocks_of[b]
                )
            elif scheme == "ejs":
                weight = js * _rarity(total_edges, degree[a]) * _rarity(total_edges, degree[b])
            else:
                weight = {"cbs": float(cbs), "arcs": arcs, "js": js}[scheme]
            if use_entropy:
                weight = weight * (entropy_sum / cbs)
            weights[(a, b)] = weight
    return weights


def _mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _rank(item):
    return (-item[1], item[0])


def prune(weights: dict, pruning: str, k=None, *, assignments: int, nodes: int) -> dict:
    """Apply one pruning rule; ``assignments`` = sum of blocks per profile."""
    if not weights:
        return {}
    if pruning == "wep":
        threshold = _mean(list(weights.values()))
        return {pair: w for pair, w in weights.items() if w >= threshold}
    if pruning == "cep":
        k = k or max(1, assignments // 2)
        return dict(sorted(weights.items(), key=_rank)[:k])
    incidence: dict[int, list] = {}
    for pair, w in weights.items():
        for node in pair:
            incidence.setdefault(node, []).append((pair, w))
    if pruning in ("wnp", "rwnp"):
        kept = {}
        for node, edges in incidence.items():
            mean = _mean([w for _p, w in edges])
            kept[node] = {p for p, w in edges if w >= mean}
    else:
        k = k or max(1, math.floor(assignments / max(1, nodes)) - 1)
        kept = {
            node: {p for p, _w in sorted(edges, key=_rank)[:k]}
            for node, edges in incidence.items()
        }
    required = 2 if pruning in ("rwnp", "rcnp") else 1
    return {
        pair: w
        for pair, w in weights.items()
        if (pair in kept[pair[0]]) + (pair in kept[pair[1]]) >= required
    }


def retained_edges(blocks, scheme: str, pruning: str, k=None, use_entropy=False) -> dict:
    """The retained-edge dict of a full meta-blocking run."""
    assignments = sum(len(block.all_profiles()) for block in valid_blocks(blocks))
    weights = edge_weights(blocks, scheme, use_entropy)
    return prune(
        weights, pruning, k, assignments=assignments, nodes=len(graph_nodes(blocks))
    )


def global_ranking(blocks, scheme: str) -> list:
    """Progressive global sorting: every edge, best ``(-weight, pair)`` first."""
    return [pair for pair, _w in sorted(edge_weights(blocks, scheme).items(), key=_rank)]


def node_ranking(blocks, scheme: str) -> list:
    """Progressive node scheduling: nodes by mean incident weight (ties by
    id), each emitting its unseen incident edges best first."""
    incidence: dict[int, list] = {}
    for pair, w in edge_weights(blocks, scheme).items():
        for node in pair:
            incidence.setdefault(node, []).append((pair, w))
    priority = {node: _mean([w for _p, w in edges]) for node, edges in incidence.items()}
    ranking, seen = [], set()
    for node in sorted(priority, key=lambda n: (-priority[n], n)):
        for pair, _w in sorted(incidence[node], key=_rank):
            if pair not in seen:
                seen.add(pair)
                ranking.append(pair)
    return ranking
