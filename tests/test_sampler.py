import numpy as np
import pytest

from relgauss.model import batch_subgraphs
from relgauss.relstore import RelGraph
from relgauss.sampler import (SamplingConfig, sample, semantic_refine,
                              structural_sample, subgraph_to_dict)


def make_graph(n, edges, times):
    """Tiny single-type graph helper; edges are undirected pairs."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(set(x)) for x in adj]
    return RelGraph(n_nodes=n, node_type=np.zeros(n, dtype=np.int64),
                    node_time=np.asarray(times, dtype=np.float64),
                    node_table=["t"], node_row=np.arange(n),
                    node_offset={"t": 0}, edge_types=["e", "e_rev"],
                    adjacency={"e": adj, "e_rev": adj}, merged_adjacency=adj)


ZERO_EMB = np.zeros((9, 1)).__getitem__


@pytest.fixture
def star_graph():
    # 0 is the seed; 1-4 are 1-hop; 5-8 hang off 1 and 2 at 2 hops
    edges = [(0, 1), (0, 2), (0, 3), (0, 4),
             (1, 5), (1, 6), (2, 7), (2, 8)]
    times = [100, 10, 20, 30, 200, 1, 2, 3, 4]  # node 4 is in the future
    return make_graph(9, edges, times)


def test_structural_sample_respects_temporal_causality(star_graph):
    out = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    nodes = [n for n, _ in out]
    assert 4 not in nodes  # timestamp 200 >= seed time
    assert nodes[0] == 0
    for n, h in out[1:]:
        assert star_graph.node_time[n] < 100.0


def test_structural_sample_hops_and_order(star_graph):
    out = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    assert out == [(0, 0), (1, 1), (2, 1), (3, 1),
                   (5, 2), (6, 2), (7, 2), (8, 2)]


def test_structural_sample_budget_truncates_in_ascending_id_order(star_graph):
    out = structural_sample(star_graph, 0, 100.0,
                            SamplingConfig(stage1_budget=3, stage2_keep=2))
    assert out == [(0, 0), (1, 1), (2, 1)]  # seed counts against the budget


def test_structural_sample_stops_expanding_at_budget(star_graph):
    # budget consumed by hop-1 nodes: no hop-2 expansion happens
    out = structural_sample(star_graph, 0, 100.0,
                            SamplingConfig(stage1_budget=4, stage2_keep=4))
    assert all(h <= 1 for _, h in out)


def test_structural_sample_unlimited_budget(star_graph):
    out = structural_sample(star_graph, 0, 100.0, SamplingConfig(), budget=None)
    assert len(out) == 8


def test_max_hop_limits_depth():
    # path 0-1-2-3
    g = make_graph(4, [(0, 1), (1, 2), (2, 3)], [100, 1, 2, 3])
    out = structural_sample(g, 0, 100.0, SamplingConfig(max_hop=2))
    assert [n for n, _ in out] == [0, 1, 2]


def test_seed_with_invalid_neighbor_times():
    g = make_graph(3, [(0, 1), (0, 2)], [100, -np.inf, 150])
    out = structural_sample(g, 0, 100.0, SamplingConfig())
    # -inf counts as "in the past", 150 is future
    assert [n for n, _ in out] == [0, 1]


def test_semantic_refine_keeps_seed_and_all_one_hop(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    emb = np.arange(9.0)[:, None]
    cfg = SamplingConfig(stage1_budget=300, stage2_keep=5)
    sub = semantic_refine(star_graph, 0, 100.0, candidates, emb.__getitem__, cfg)
    kept = set(sub.nodes.tolist())
    assert {0, 1, 2, 3} <= kept
    assert sub.n_nodes == 5


def test_semantic_refine_ranks_two_hop_by_similarity_desc(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    # seed embedding [1]; similarity of node n is 1+n, so 8 then 7 win
    emb = 1.0 + np.arange(9.0)[:, None]
    cfg = SamplingConfig(stage1_budget=300, stage2_keep=6)
    sub = semantic_refine(star_graph, 0, 100.0, candidates, emb.__getitem__, cfg)
    two_hop = sorted(sub.nodes[sub.hop == 2].tolist())
    assert two_hop == [7, 8]


def test_semantic_refine_tie_breaks_by_ascending_id(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    emb = np.ones((9, 1))  # all equally similar
    cfg = SamplingConfig(stage1_budget=300, stage2_keep=6)
    sub = semantic_refine(star_graph, 0, 100.0, candidates, emb.__getitem__, cfg)
    assert sorted(sub.nodes[sub.hop == 2].tolist()) == [5, 6]


def test_refine_accepts_callable_embeddings(star_graph):
    candidates = structural_sample(star_graph, 0, 100.0, SamplingConfig())
    cfg = SamplingConfig(stage2_keep=6)
    sub = semantic_refine(star_graph, 0, 100.0, candidates,
                          lambda nodes: 1.0 + nodes[:, None], cfg)
    assert sorted(sub.nodes[sub.hop == 2].tolist()) == [7, 8]


def test_subgraph_layout_and_delta_t(star_graph):
    sub = sample(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    assert sub.nodes[0] == 0 and sub.hop[0] == 0
    assert sub.delta_t[0] == 0.0
    # nodes ordered by (hop, id) after the seed
    order = list(zip(sub.hop.tolist(), sub.nodes.tolist()))[1:]
    assert order == sorted(order)
    for i in range(1, sub.n_nodes):
        assert sub.delta_t[i] == 100.0 - star_graph.node_time[sub.nodes[i]]


def test_local_adjacency_is_induced_subgraph(star_graph):
    sub = sample(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    index = {n: i for i, n in enumerate(sub.nodes.tolist())}
    for n, local in zip(sub.nodes.tolist(), sub.local_adjacency):
        expect = sorted(index[v] for v in star_graph.merged_adjacency[n]
                        if v in index)
        assert local == expect


def test_agg_matrices(star_graph):
    sub = sample(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    batch = batch_subgraphs([sub])
    assert np.array_equal(batch.sum_agg, batch.sum_agg.T)
    rowsum = batch.mean_agg.sum(axis=1)
    for i, nbrs in enumerate(sub.local_adjacency):
        assert rowsum[i] == pytest.approx(1.0 if nbrs else 0.0)


def test_skip_refinement_keeps_all_candidates(star_graph):
    sub = sample(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig(stage2_keep=5),
                 skip_refinement=True)
    assert sub.n_nodes == 8  # full stage-1 set, ignoring stage2_keep


def test_random_stage1_draws_from_valid_set(star_graph):
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(30):
        sub = sample(star_graph, 0, 100.0, ZERO_EMB,
                     SamplingConfig(stage1_budget=4, stage2_keep=4),
                     random_stage1_rng=rng)
        assert sub.nodes[0] == 0 and sub.n_nodes == 4
        for n in sub.nodes[1:]:
            assert star_graph.node_time[n] < 100.0
        seen.update(sub.nodes.tolist())
    # over many draws the random variant reaches 2-hop nodes BFS would
    # have truncated away
    assert seen - {0, 1, 2, 3} != set()


def test_deterministic_given_same_inputs(star_graph):
    emb = (np.arange(9.0) % 3)[:, None].__getitem__
    a = sample(star_graph, 0, 100.0, emb, SamplingConfig(stage2_keep=6))
    b = sample(star_graph, 0, 100.0, emb, SamplingConfig(stage2_keep=6))
    np.testing.assert_array_equal(a.nodes, b.nodes)
    np.testing.assert_array_equal(a.delta_t, b.delta_t)
    assert a.local_adjacency == b.local_adjacency


def test_subgraph_to_dict_roundtrip(star_graph):
    sub = sample(star_graph, 0, 100.0, ZERO_EMB, SamplingConfig())
    d = subgraph_to_dict(sub)
    assert d["nodes"][0] == 0 and d["seed_time"] == 100.0
    for i, j in d["edges"]:
        assert i < j
        assert j in sub.local_adjacency[i]


def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(max_hop=0)
    with pytest.raises(ValueError):
        SamplingConfig(stage1_budget=10, stage2_keep=20)
