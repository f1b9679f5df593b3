import functools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generate_db, sample_seed
from relgauss.model import batch_subgraphs
from relgauss.relstore import CsrAdjacency, RelGraph, build_graph
from relgauss.sampler import (SamplingConfig, refinement_query, semantic_refine,
                              structural_sample, subgraph_to_dict)
from relgauss.synthgen import SynthConfig


def make_graph(n, edges, times):
    """Tiny single-type graph helper; edges are undirected pairs."""
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    adj = CsrAdjacency.from_pairs(np.r_[u, v], np.r_[v, u], n)
    return RelGraph(n_nodes=n, node_type=np.zeros(n, dtype=np.int64),
                    node_time=np.asarray(times, dtype=np.float64),
                    node_table=["t"], node_row=np.arange(n),
                    node_offset={"t": 0}, adjacency={"e": adj, "e_rev": adj},
                    merged_adjacency=adj)


ZERO_EMB = np.zeros((9, 1)).__getitem__


def neighbour_lists(sub):
    """Each local node's local neighbours, ascending, from the edge pairs."""
    i, j = sub.edges
    return [sorted(j[i == k].tolist()) for k in range(sub.n_nodes)]


@pytest.fixture
def star_graph():
    # 0 is the seed; 1-4 are 1-hop; 5-8 hang off 1 and 2 at 2 hops
    edges = [(0, 1), (0, 2), (0, 3), (0, 4),
             (1, 5), (1, 6), (2, 7), (2, 8)]
    times = [100, 10, 20, 30, 200, 1, 2, 3, 4]  # node 4 is in the future
    return make_graph(9, edges, times)


def test_structural_sample_respects_temporal_causality(star_graph):
    out = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    nodes = out[:, 0]
    assert 4 not in nodes  # timestamp 200 >= seed time
    assert nodes[0] == 0
    assert np.all(star_graph.node_time[nodes[1:]] < 100.0)


def test_structural_sample_hops_and_order(star_graph):
    out = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    assert out.dtype == np.int64
    assert out.tolist() == [[0, 0], [1, 1], [2, 1], [3, 1],
                            [5, 2], [6, 2], [7, 2], [8, 2]]


def test_structural_sample_budget_truncates_in_ascending_id_order(star_graph):
    out = structural_sample(star_graph, 0, 100.0,
                            SamplingConfig(stage1_budget=3, stage2_keep=2))
    assert out.tolist() == [[0, 0], [1, 1], [2, 1]]  # seed counts against the budget


def test_structural_sample_stops_expanding_at_budget(star_graph):
    # budget consumed by hop-1 nodes: no hop-2 expansion happens
    out = structural_sample(star_graph, 0, 100.0,
                            SamplingConfig(stage1_budget=4, stage2_keep=4))
    assert np.all(out[:, 1] <= 1)


def test_structural_sample_unlimited_budget(star_graph):
    # a given budget overrides the config's; the node count never cuts
    out = structural_sample(star_graph, 0, 100.0,
                            SamplingConfig(stage1_budget=3, stage2_keep=2),
                            budget=star_graph.n_nodes)
    assert len(out) == 8


def test_max_hop_limits_depth():
    # path 0-1-2-3
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], [100, 1, 2, 3])
    out = structural_sample(g, 0, 100.0, SamplingConfig(max_hop=2))
    assert out[:, 0].tolist() == [0, 1, 2]


def test_seed_with_invalid_neighbor_times():
    g = make_graph(3, [(0, 1), (0, 2)], [100, -np.inf, 150])
    out = structural_sample(g, 0, 100.0, SamplingConfig())
    # -inf counts as "in the past", 150 is future
    assert out[:, 0].tolist() == [0, 1]


def test_semantic_refine_keeps_seed_and_all_one_hop(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    emb = np.arange(9.0)[:, None]
    cfg = SamplingConfig(stage1_budget=300, stage2_keep=5)
    sub = semantic_refine(star_graph, 100.0, candidates,
                          emb[refinement_query(candidates, cfg)], cfg)
    kept = set(sub.nodes.tolist())
    assert {0, 1, 2, 3} <= kept
    assert sub.n_nodes == 5


def test_semantic_refine_ranks_two_hop_by_similarity_desc(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    # seed embedding [1]; similarity of node n is 1+n, so 8 then 7 win
    emb = 1.0 + np.arange(9.0)[:, None]
    cfg = SamplingConfig(stage1_budget=300, stage2_keep=6)
    sub = semantic_refine(star_graph, 100.0, candidates,
                          emb[refinement_query(candidates, cfg)], cfg)
    two_hop = sorted(sub.nodes[sub.hop == 2].tolist())
    assert two_hop == [7, 8]


def test_semantic_refine_tie_breaks_by_ascending_id(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    emb = np.ones((9, 1))  # all equally similar
    cfg = SamplingConfig(stage1_budget=300, stage2_keep=6)
    sub = semantic_refine(star_graph, 100.0, candidates,
                          emb[refinement_query(candidates, cfg)], cfg)
    assert sorted(sub.nodes[sub.hop == 2].tolist()) == [5, 6]


def test_refine_takes_the_rows_of_refinement_query(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    cfg = SamplingConfig(stage2_keep=6)
    query = refinement_query(candidates, cfg)
    sub = semantic_refine(star_graph, 100.0, candidates, 1.0 + query[:, None], cfg)
    assert sorted(sub.nodes[sub.hop == 2].tolist()) == [7, 8]
    # a row per graph node is not a row per ranked node
    with pytest.raises(ValueError, match=f"9 embeddings for the {len(query)} nodes"):
        semantic_refine(star_graph, 100.0, candidates, 1.0 + np.arange(9.0)[:, None], cfg)


def test_subgraph_layout_and_delta_t(star_graph):
    sub = sample_seed(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    assert sub.nodes[0] == 0 and sub.hop[0] == 0
    assert sub.delta_t[0] == 0.0
    # nodes ordered by (hop, id) after the seed
    order = list(zip(sub.hop.tolist(), sub.nodes.tolist()))[1:]
    assert order == sorted(order)
    for i in range(1, sub.n_nodes):
        assert sub.delta_t[i] == 100.0 - star_graph.node_time[sub.nodes[i]]


def test_local_adjacency_is_induced_subgraph(star_graph):
    sub = sample_seed(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    assert sub.edges.shape == (2, 14)  # the 7 edges among the 8 nodes, both ways
    index = {n: i for i, n in enumerate(sub.nodes.tolist())}
    for n, local in zip(sub.nodes.tolist(), neighbour_lists(sub)):
        expect = sorted(index[v] for v in star_graph.merged_adjacency[n].tolist()
                        if v in index)
        assert local == expect


def test_agg_matrices(star_graph):
    sub = sample_seed(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    batch = batch_subgraphs([sub])
    A = batch.adjacency[0]
    assert np.array_equal(A, A.T)
    rowsum = batch.mean_adjacency[0].sum(axis=1)
    for i, nbrs in enumerate(neighbour_lists(sub)):
        assert rowsum[i] == pytest.approx(1.0 if nbrs else 0.0)


def test_skip_refinement_keeps_all_candidates(star_graph):
    sub = sample_seed(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig(stage2_keep=5),
                      skip_refinement=True)
    assert sub.n_nodes == 8  # full stage-1 set, ignoring stage2_keep


def test_random_stage1_draws_from_valid_set(star_graph):
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(30):
        sub = sample_seed(star_graph, 0, 100.0, ZERO_EMB,
                          SamplingConfig(stage1_budget=4, stage2_keep=4), rng=rng)
        assert sub.nodes[0] == 0 and sub.n_nodes == 4
        for n in sub.nodes[1:]:
            assert star_graph.node_time[n] < 100.0
        seen.update(sub.nodes.tolist())
    # over many draws the random variant reaches 2-hop nodes BFS would
    # have truncated away
    assert seen - {0, 1, 2, 3} != set()


def test_deterministic_given_same_inputs(star_graph):
    emb = (np.arange(9.0) % 3)[:, None].__getitem__
    a = sample_seed(star_graph, 0, 100.0, emb, SamplingConfig(stage2_keep=6))
    b = sample_seed(star_graph, 0, 100.0, emb, SamplingConfig(stage2_keep=6))
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.delta_t, b.delta_t)
    np.testing.assert_array_equal(a.edges, b.edges)


def test_subgraph_to_dict_roundtrip(star_graph):
    sub = sample_seed(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    d = subgraph_to_dict(sub)
    assert d["nodes"][0] == 0 and d["seed_time"] == 100.0
    assert d["edges"]
    for i, j in d["edges"]:
        assert type(i) is int and type(j) is int
        assert i < j
        assert j in neighbour_lists(sub)[i]
    assert json.loads(json.dumps(d)) == d


def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(max_hop=0)
    with pytest.raises(ValueError):
        SamplingConfig(stage1_budget=10, stage2_keep=20)
    for keep in (0, -3):
        with pytest.raises(ValueError, match="stage2_keep"):
            SamplingConfig(stage2_keep=keep)


# -- equivalence with set-based sampling ------------------------------------


def reference_bfs(lists, node_time, seed, seed_time, max_hop, budget):
    """Stage 1 on plain neighbour lists, one set insertion per edge."""
    visited = {seed}
    out = [(seed, 0)]
    frontier = [seed]
    for hop in range(1, max_hop + 1):
        if not frontier or (budget is not None and len(out) >= budget):
            break
        level = set()
        for u in frontier:
            for v in lists[u]:
                if v not in visited and v not in level and node_time[v] < seed_time:
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


def reference_refine(candidates, E, seed, keep):
    """Stage 2: 1-hop nodes, then deeper ones by (-similarity, id)."""
    kept = [(n, h) for n, h in candidates if h <= 1]
    deep = [(n, h) for n, h in candidates if h > 1]
    sims = E[[n for n, _ in deep]] @ E[seed]
    ranked = sorted(range(len(deep)), key=lambda i: (-sims[i], deep[i][0]))
    return kept + [deep[i] for i in ranked[:max(keep - len(kept), 0)]]


def reference_finalize(lists, node_time, seed, seed_time, kept):
    """Induced subgraph through a dict from global to local ids."""
    ordered = [(seed, 0)] + sorted((nh for nh in kept if nh[0] != seed),
                                   key=lambda nh: (nh[1], nh[0]))
    nodes = [n for n, _ in ordered]
    local_index = {n: i for i, n in enumerate(nodes)}
    delta = seed_time - node_time[nodes]
    delta[0] = 0.0
    adj = [sorted(local_index[v] for v in lists[n] if v in local_index) for n in nodes]
    return nodes, [h for _, h in ordered], delta, adj


@pytest.fixture(scope="module")
def synth_graph(tmp_path_factory):
    schema, tables = generate_db(SynthConfig(n_entities=60, rng_seed=2),
                                 str(tmp_path_factory.mktemp("sampdb")))
    graph = build_graph(schema, tables)
    task = schema.task
    seeds = [(graph.node_id(task.target_table, r), float(t)) for r, t in
             enumerate(tables.tables[task.target_table].timestamps[task.seed_time_column])]
    return graph, seeds


@pytest.mark.parametrize("max_hop", [2, 3])
@pytest.mark.parametrize("budget", [32, 300, None])
def test_sampling_matches_set_based_reference(synth_graph, max_hop, budget):
    graph, seeds = synth_graph
    lists = [a.tolist() for a in graph.merged_adjacency]
    E = np.random.default_rng(7).normal(size=(graph.n_nodes, 4))
    # budget None: a stage-1 budget above the node count never truncates
    cfg = SamplingConfig(max_hop=max_hop, stage1_budget=budget or graph.n_nodes + 1,
                         stage2_keep=20 if budget == 32 else 64)
    truncated = 0
    for seed, t in seeds:
        full = reference_bfs(lists, graph.node_time, seed, t, max_hop, None)
        cands = reference_bfs(lists, graph.node_time, seed, t, max_hop, budget)
        assert structural_sample(graph, seed, t, cfg, budget=budget).tolist() == \
            [list(c) for c in cands]
        truncated += len(cands) < len(full)

        others = full[1:]
        draw = np.random.default_rng(seed)
        take = min(cfg.stage1_budget - 1, len(others))
        if take < len(others):
            others = [others[i] for i in sorted(draw.choice(len(others), size=take,
                                                            replace=False))]
        random_cands = [full[0]] + others
        paths = [
            (dict(), reference_refine(cands, E, seed, cfg.stage2_keep)),
            (dict(skip_refinement=True), cands),
            (dict(rng=np.random.default_rng(seed)),
             reference_refine(random_cands, E, seed, cfg.stage2_keep)),
        ]
        for kwargs, kept in paths:
            sub = sample_seed(graph, seed, t, E.__getitem__, cfg, **kwargs)
            nodes, hops, delta, adj = reference_finalize(lists, graph.node_time, seed, t, kept)
            assert sub.nodes.tolist() == nodes
            assert sub.hop.tolist() == hops
            np.testing.assert_array_equal(sub.delta_t, delta)
            assert neighbour_lists(sub) == adj
            assert sub.edges.shape[1] == sum(map(len, adj))  # no repeated pair
    if budget == 32:
        assert truncated > 0  # the budget cut itself is compared


@functools.cache
def synth_seeds(db_seed: int):
    """The graph of a small generated DB and each target row's (seed node,
    seed time), built once per ``db_seed``."""
    with tempfile.TemporaryDirectory() as out:
        schema, tables = generate_db(SynthConfig(n_entities=60, rng_seed=db_seed), out)
    graph = build_graph(schema, tables)
    task = schema.task
    times = tables.tables[task.target_table].timestamps[task.seed_time_column]
    return graph, [(graph.node_id(task.target_table, r), float(t)) for r, t in enumerate(times)]


@settings(max_examples=80, deadline=None)
@given(db_seed=st.integers(0, 3), pick=st.integers(0, 10**6),
       switch=st.sampled_from(["full", "no-structural-sampling", "no-semantic-refinement"]),
       budget=st.integers(1, 150), keep=st.integers(1, 150))
def test_rows_come_in_hop_order_and_edges_join_adjacent_hops(db_seed, pick, switch, budget,
                                                             keep):
    """What the last block's GraphSAGE cut rests on: the rows within h hops
    of the seed lead its subgraph, and they hold every neighbour of the
    rows within h - 1 hops."""
    graph, seeds = synth_seeds(db_seed)
    seed, t = seeds[pick % len(seeds)]
    cfg = SamplingConfig(max_hop=3, stage1_budget=budget, stage2_keep=min(keep, budget))
    embeddings = np.random.default_rng(pick).normal(size=(graph.n_nodes, 4))
    kwargs = {"full": {}, "no-structural-sampling": {"rng": np.random.default_rng(pick)},
              "no-semantic-refinement": {"skip_refinement": True}}[switch]
    sub = sample_seed(graph, seed, t, embeddings.__getitem__, cfg, **kwargs)
    assert sub.hop[0] == 0 and np.all(np.diff(sub.hop) >= 0)
    i, j = sub.edges
    assert np.all(np.abs(sub.hop[i] - sub.hop[j]) <= 1)
