"""Two-stage seed-centered subgraph sampling.

Stage 1 is a temporally-causal BFS (neighbors must strictly predate the
seed time) up to ``max_hop`` hops under a node budget. Stage 2 keeps the
seed and every 1-hop node unconditionally and ranks 2-hop nodes by
dot-product similarity to the seed embedding, retaining the best until the
total node budget is met. All orderings and tie-breaks are by ascending
global node id so sampling is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .relstore import RelGraph, sorted_unique


@dataclass
class SamplingConfig:
    max_hop: int = 2
    stage1_budget: int = 300
    stage2_keep: int = 200

    def __post_init__(self):
        if self.max_hop < 1:
            raise ValueError("max_hop must be >= 1")
        if self.stage1_budget < 1:
            raise ValueError("stage1_budget must be >= 1 (the seed counts against it)")
        if self.stage2_keep < 1:
            raise ValueError("stage2_keep must be >= 1")
        if self.stage2_keep > self.stage1_budget:
            raise ValueError("stage2_keep must not exceed stage1_budget")


@dataclass
class SampledSubgraph:
    nodes: np.ndarray            # global node ids, seed first
    hop: np.ndarray              # hop distance per node
    delta_t: np.ndarray          # seed_time - tau, seconds (0 for the seed)
    edges: np.ndarray            # (2, m) local (i, j) pairs, each edge both ways
    seed_time: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def structural_sample(graph: RelGraph, seed: int, seed_time: float,
                      config: SamplingConfig, budget: int | None = None,
                      ) -> np.ndarray:
    """BFS candidates as (k, 2) rows of (node, hop), in (hop, id) order.

    The seed comes first and counts against the budget, which is
    ``config.stage1_budget`` unless given. Each level takes the not yet
    visited neighbours of the frontier that strictly predate ``seed_time``,
    in ascending id order, until the budget.
    """
    if budget is None:
        budget = config.stage1_budget
    adj = graph.merged_adjacency
    visited = np.zeros(graph.n_nodes, dtype=bool)
    visited[seed] = True
    levels = [np.array([seed], dtype=np.int64)]
    taken = 1
    nbrs = adj[seed]  # a CSR row is already sorted and unique
    for hop in range(1, config.max_hop + 1):
        if taken >= budget:
            break
        level = nbrs[(graph.node_time[nbrs] < seed_time) & ~visited[nbrs]][:budget - taken]
        if not len(level):
            break
        visited[level] = True
        levels.append(level)
        taken += len(level)
        if hop < config.max_hop:
            nbrs = sorted_unique(adj.gather(level)[0])
    hops = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
    return np.stack([np.concatenate(levels), hops], axis=1)


def refinement_query(candidates: np.ndarray, config: SamplingConfig) -> np.ndarray:
    """The nodes ``semantic_refine`` embeds for ``candidates``, seed first:
    the seed and every deep (2+ hop) candidate, or none when there is no
    deep candidate or the seed and its 1-hop nodes already fill
    ``stage2_keep``."""
    deep = candidates[:, 1] > 1
    if not deep.any() or len(candidates) - np.count_nonzero(deep) >= config.stage2_keep:
        return candidates[:0, 0]
    return np.concatenate([candidates[:1, 0], candidates[deep, 0]])


def semantic_refine(graph: RelGraph, seed_time: float, candidates: np.ndarray,
                    embeddings: np.ndarray, config: SamplingConfig) -> SampledSubgraph:
    """Top-k refinement of 2-hop (and deeper) candidates; 1-hop always kept.

    ``candidates`` are stage 1's rows, the seed first. ``embeddings`` holds
    the (k, d) embeddings of the nodes of ``refinement_query``, row for row.
    """
    keep = candidates[:, 1] <= 1
    query = refinement_query(candidates, config)
    if len(embeddings) != len(query):
        raise ValueError(f"{len(embeddings)} embeddings for the {len(query)} nodes "
                         f"refinement ranks")
    if len(query):
        sims = embeddings[1:] @ embeddings[0]
        order = np.lexsort((query[1:], -sims))  # similarity descending, then id
        room = config.stage2_keep - np.count_nonzero(keep)
        keep[np.flatnonzero(~keep)[order[:room]]] = True
    return _finalize(graph, seed_time, candidates[keep])


def _finalize(graph: RelGraph, seed_time: float,
              rows: np.ndarray) -> SampledSubgraph:
    nodes, hops = rows.T.copy()
    delta = seed_time - graph.node_time[nodes]
    delta[0] = 0.0
    # induced edges: each node's graph neighbours found in the sorted node set
    k = len(nodes)
    by_id = np.argsort(nodes)
    ids = nodes[by_id]
    nbrs, counts = graph.merged_adjacency.gather(nodes)
    pos = np.minimum(ids.searchsorted(nbrs), k - 1)
    found = ids[pos] == nbrs
    edges = np.stack([np.repeat(np.arange(k), counts)[found], by_id[pos[found]]])
    return SampledSubgraph(nodes=nodes, hop=hops, delta_t=delta,
                           edges=edges, seed_time=float(seed_time))


def stage1(graph: RelGraph, seed: int, seed_time: float, config: SamplingConfig,
           rng: np.random.Generator | None = None) -> np.ndarray:
    """Stage 1's candidate rows of ``seed``: ``structural_sample``, or with
    ``rng`` (the no-structural-sampling ablation) a uniform draw of the
    same budget from the full temporally valid <= max_hop neighbourhood,
    kept in (hop, id) order."""
    if rng is None:
        return structural_sample(graph, seed, seed_time, config)
    candidates = structural_sample(graph, seed, seed_time, config, budget=graph.n_nodes)
    others = candidates[1:]
    take = min(config.stage1_budget - 1, len(others))
    if take < len(others):
        idx = rng.choice(len(others), size=take, replace=False)
        candidates = np.concatenate([candidates[:1], others[np.sort(idx)]])
    return candidates


def sample(graph: RelGraph, seed_time: float, candidates: np.ndarray,
           embeddings: np.ndarray | None, config: SamplingConfig, *,
           skip_refinement: bool = False) -> SampledSubgraph:
    """The subgraph of stage 1's ``candidates``: refined by ``embeddings``,
    the rows of their ``refinement_query``, or with ``skip_refinement`` the
    whole candidate set (``embeddings`` unread)."""
    if skip_refinement:
        return _finalize(graph, seed_time, candidates)
    return semantic_refine(graph, seed_time, candidates, embeddings, config)


def subgraph_to_dict(sub: SampledSubgraph) -> dict:
    """JSON-friendly view used by the CLI inspection command."""
    upper = sub.edges[:, sub.edges[0] < sub.edges[1]]
    edges = upper[:, np.lexsort(upper[::-1])].T.tolist()  # by i, then j
    return {
        "nodes": [int(n) for n in sub.nodes],
        "hops": [int(h) for h in sub.hop],
        "delta_t": [float(d) for d in sub.delta_t],
        "edges": edges,
        "seed_time": sub.seed_time,
    }
