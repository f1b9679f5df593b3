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

from .relstore import RelGraph


@dataclass
class SamplingConfig:
    max_hop: int = 2
    stage1_budget: int = 300
    stage2_keep: int = 200

    def __post_init__(self):
        if self.max_hop < 1:
            raise ValueError("max_hop must be >= 1")
        if self.stage2_keep > self.stage1_budget:
            raise ValueError("stage2_keep must not exceed stage1_budget")


@dataclass
class SampledSubgraph:
    nodes: np.ndarray            # global node ids, seed first
    hop: np.ndarray              # hop distance per node
    delta_t: np.ndarray          # seed_time - tau, seconds (0 for the seed)
    local_adjacency: list[list[int]]
    seed_time: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def structural_sample(graph: RelGraph, seed: int, seed_time: float,
                      config: SamplingConfig, budget: int | None = ...,
                      ) -> list[tuple[int, int]]:
    """BFS candidates as (node, hop) pairs; seed counts against the budget."""
    if budget is ...:
        budget = config.stage1_budget
    visited = {seed}
    out = [(seed, 0)]
    frontier = [seed]
    for hop in range(1, config.max_hop + 1):
        if not frontier or (budget is not None and len(out) >= budget):
            break
        level: set[int] = set()
        for u in frontier:
            for v in graph.merged_adjacency[u]:
                if v not in visited and v not in level and graph.node_time[v] < seed_time:
                    level.add(v)
        added = []
        for v in sorted(level):
            if budget is not None and len(out) >= budget:
                break
            visited.add(v)
            out.append((v, hop))
            added.append(v)
        frontier = added
    return out


def semantic_refine(graph: RelGraph, seed: int, seed_time: float,
                    candidates: list[tuple[int, int]], embeddings,
                    config: SamplingConfig) -> SampledSubgraph:
    """Top-k refinement of 2-hop (and deeper) candidates; 1-hop always kept.

    ``embeddings`` maps an int array of nodes to their (k, d) embeddings;
    the seed and every deep candidate are embedded in one call.
    """
    kept = [(n, h) for n, h in candidates if h <= 1]
    deep = [(n, h) for n, h in candidates if h > 1]
    room = config.stage2_keep - len(kept)
    if deep and room > 0:
        ids = np.array([n for n, _ in deep], dtype=np.int64)
        E = embeddings(np.concatenate([[seed], ids]))
        sims = E[1:] @ E[0]
        order = np.lexsort((ids, -sims))  # similarity descending, then id
        kept.extend(deep[i] for i in order[:room])
    return _finalize(graph, seed, seed_time, kept)


def _finalize(graph: RelGraph, seed: int, seed_time: float,
              kept: list[tuple[int, int]]) -> SampledSubgraph:
    ordered = [(seed, 0)] + sorted((nh for nh in kept if nh[0] != seed),
                                   key=lambda nh: (nh[1], nh[0]))
    nodes = np.array([n for n, _ in ordered], dtype=np.int64)
    hops = np.array([h for _, h in ordered], dtype=np.int64)
    delta = seed_time - graph.node_time[nodes]
    delta[0] = 0.0
    local_index = {n: i for i, n in enumerate(nodes)}
    adj: list[list[int]] = []
    for n in nodes:
        adj.append(sorted(local_index[v] for v in graph.merged_adjacency[n]
                          if v in local_index))
    return SampledSubgraph(nodes=nodes, hop=hops, delta_t=delta,
                           local_adjacency=adj, seed_time=float(seed_time))


def sample(graph: RelGraph, seed: int, seed_time: float, embeddings,
           config: SamplingConfig, *, skip_refinement: bool = False,
           random_stage1_rng: np.random.Generator | None = None,
           ) -> SampledSubgraph:
    """Both sampling stages composed, with ablation switches.

    ``skip_refinement`` keeps the whole stage-1 candidate set.
    ``random_stage1_rng`` replaces BFS truncation with a uniform draw from
    the full temporally-valid <=max_hop neighborhood (budget unchanged).
    """
    if random_stage1_rng is not None:
        full = structural_sample(graph, seed, seed_time, config, budget=None)
        others = full[1:]
        take = min(config.stage1_budget - 1, len(others))
        if take < len(others):
            idx = random_stage1_rng.choice(len(others), size=take, replace=False)
            others = [others[i] for i in sorted(idx)]
        candidates = [full[0]] + others
    else:
        candidates = structural_sample(graph, seed, seed_time, config)
    if skip_refinement:
        return _finalize(graph, seed, seed_time, candidates)
    return semantic_refine(graph, seed, seed_time, candidates, embeddings, config)


def subgraph_to_dict(sub: SampledSubgraph) -> dict:
    """JSON-friendly view used by the CLI inspection command."""
    edges = [[i, j] for i, nbrs in enumerate(sub.local_adjacency) for j in nbrs if i < j]
    return {
        "nodes": [int(n) for n in sub.nodes],
        "hops": [int(h) for h in sub.hop],
        "delta_t": [float(d) for d in sub.delta_t],
        "edges": edges,
        "seed_time": sub.seed_time,
    }
