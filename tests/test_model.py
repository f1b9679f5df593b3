import json
import math

import numpy as np
import pytest

from relgauss import numcore as nc
from relgauss.attention import PAD
from relgauss.model import (AblationFlags, GelModel, ModelConfig,
                            batch_subgraphs, fuse, loss)
from relgauss.numcore import Tensor
from relgauss.relstore import build_graph, load_schema, load_tables
from relgauss.sampler import SamplingConfig, sample


@pytest.fixture(scope="module")
def tiny_db(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("mdl")
    schema_raw = {
        "tables": [
            {"name": "users", "columns": [
                {"name": "user_id", "kind": "primary_key"},
                {"name": "score", "kind": "numerical"},
                {"name": "joined", "kind": "timestamp"},
                {"name": "label", "kind": "numerical"},
            ]},
            {"name": "orders", "columns": [
                {"name": "order_id", "kind": "primary_key"},
                {"name": "user_id", "kind": "foreign_key",
                 "target_table": "users"},
                {"name": "placed", "kind": "timestamp"},
                {"name": "amount", "kind": "numerical"},
            ]},
        ],
        "task": {"target_table": "users", "target_column": "label",
                 "kind": "binary_classification", "seed_time_column": "joined"},
    }
    (tmp_path / "schema.json").write_text(json.dumps(schema_raw))
    (tmp_path / "users.csv").write_text(
        "user_id,score,joined,label\n"
        "u1,4.0,1000000,1\nu2,1.0,2000000,0\nu3,2.5,3000000,1\n")
    (tmp_path / "orders.csv").write_text(
        "order_id,user_id,placed,amount\n"
        "o1,u1,500,10.0\no2,u1,600,2.0\no3,u2,700,6.0\no4,u3,800,1.0\n")
    schema = load_schema(str(tmp_path / "schema.json"))
    tables = load_tables(schema, str(tmp_path))
    return schema, tables, build_graph(schema, tables)


CFG = dict(d=16, n_layers=2, n_heads=2, pe_dim=4, dropout=0.0)


def make_model(tiny_db, **over):
    schema, tables, graph = tiny_db
    return GelModel(ModelConfig(**{**CFG, **over}), schema, tables)


def subgraphs_for(tiny_db, model):
    schema, tables, graph = tiny_db
    emb = model.encoders.node_embedding(np.arange(graph.n_nodes), graph, tables)
    return [sample(graph, s, float(graph.node_time[s]), emb.__getitem__,
                   SamplingConfig())
            for s in range(3)]


@pytest.mark.parametrize("bad", [dict(d=30, n_heads=4), dict(d=15, n_heads=1),
                                 dict(pe_dim=32, d=16), dict(n_layers=0),
                                 dict(n_heads=0), dict(dropout=1.0),
                                 dict(dropout=-0.1)])
def test_model_config_validation(bad):
    with pytest.raises(ValueError):
        ModelConfig(**{**CFG, **bad})


def test_fuse_convex_combination():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.zeros((2, 3)))
    np.testing.assert_allclose(fuse(a, b, Tensor(np.array(0.25))).data, 0.25)
    with pytest.raises(ValueError, match="shape mismatch"):
        fuse(a, Tensor(np.zeros((2, 2))), Tensor(np.array(0.5)))


def test_eta_initializes_to_half(tiny_db):
    model = make_model(tiny_db)
    assert model.eta_value() == pytest.approx(0.5)
    assert float(model.eta().data) == pytest.approx(0.5)


def test_loss_binary_formula():
    s = Tensor(np.array(0.7))
    val = float(loss(s, 1.0, "binary_classification").data)
    assert val == pytest.approx(-math.log(1.0 / (1.0 + math.exp(-0.7))))
    val0 = float(loss(s, 0.0, "binary_classification").data)
    assert val0 == pytest.approx(-math.log(1.0 - 1.0 / (1.0 + math.exp(-0.7))))


def test_loss_vector_and_regression():
    s = Tensor(np.array([1.0, -2.0]))
    out = loss(s, np.array([3.0, -1.0]), "regression")
    np.testing.assert_allclose(out.data, [2.0, 1.0])
    with pytest.raises(ValueError, match="invalid task kind"):
        loss(s, 0.0, "ranking")


def test_forward_scalar_and_deterministic(tiny_db):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db)
    sub = subgraphs_for(tiny_db, model)[0]
    with nc.no_grad():
        s1 = model.forward(sub, graph, tables, run_seed=0)
        s2 = model.forward(sub, graph, tables, run_seed=0)
    assert s1.shape == ()
    assert float(s1.data) == float(s2.data)


def test_unique_parameter_names(tiny_db):
    model = make_model(tiny_db)
    params = model.parameters()
    assert "fusion.eta_raw" in params
    assert any(name.endswith(".bias.mu") for name in params)


def test_bias_snapshot_layout(tiny_db):
    model = make_model(tiny_db)
    mus, sigmas = model.bias_snapshot()
    assert len(mus) == len(sigmas) == CFG["n_layers"] * CFG["n_heads"]
    np.testing.assert_allclose(mus, 0.0)
    np.testing.assert_allclose(sigmas, 10.0, rtol=1e-12)


def test_batch_subgraphs_layout(tiny_db):
    model = make_model(tiny_db)
    subs = subgraphs_for(tiny_db, model)
    batch = batch_subgraphs(subs)
    sizes = [s.n_nodes for s in subs]
    assert batch.nodes.shape[0] == sum(sizes)
    np.testing.assert_array_equal(batch.seed_positions,
                                  np.cumsum([0] + sizes[:-1]))
    # each subgraph's index row lists exactly its own rows, then padding,
    # so attention never crosses subgraphs
    assert batch.index.shape == (len(sizes), max(sizes))
    off = 0
    for row, n in zip(batch.index, sizes):
        np.testing.assert_array_equal(row[:n], np.arange(off, off + n))
        assert np.all(row[n:] == PAD)
        off += n
    # block-diagonal mean aggregation rows sum to 1 (or 0 if isolated)
    rowsum = batch.mean_agg.sum(axis=1)
    assert np.all((np.abs(rowsum - 1.0) < 1e-12) | (rowsum == 0.0))


def test_forward_batch_matches_per_example(tiny_db):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db)
    subs = subgraphs_for(tiny_db, model)
    batch = batch_subgraphs(subs)
    with nc.no_grad():
        joint = model.forward_batch(batch, tables, graph, run_seed=0).data
        solo = np.array([float(model.forward(s, graph, tables, run_seed=0).data)
                         for s in subs])
    np.testing.assert_allclose(joint, solo, atol=1e-10)


def test_forward_batch_gradients_match_per_example(tiny_db):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db)
    subs = subgraphs_for(tiny_db, model)
    # sizes differ, so the batch carries padding
    assert len({s.n_nodes for s in subs}) > 1
    targets = np.array([1.0, 0.0, 1.0])
    params = model.parameters()

    nc.zero_grad(params.values())
    scores = model.forward_batch(batch_subgraphs(subs), tables, graph, run_seed=0)
    nc.backward(loss(scores, targets, "binary_classification").sum())
    joint = {name: p.grad.copy() for name, p in params.items()}

    nc.zero_grad(params.values())
    for sub, y in zip(subs, targets):
        score = model.forward(sub, graph, tables, run_seed=0)
        nc.backward(loss(score, y, "binary_classification"))
    for name, p in params.items():
        # some encoder gradients reach 1e5 here, so the bound is relative
        # to each parameter's largest gradient entry
        err = np.abs(joint[name] - p.grad).max()
        assert err <= 1e-10 * max(1.0, np.abs(p.grad).max()), (name, err)
    assert np.abs(joint["layer0.attn.bias.mu"]).max() > 0


def test_no_gaussian_bias_flag_changes_output(tiny_db):
    schema, tables, graph = tiny_db
    base = make_model(tiny_db)
    nobias = make_model(tiny_db, no_gaussian_bias=True)
    sub = subgraphs_for(tiny_db, base)[0]
    # perturb mu so the bias is not trivially flat across pairs
    for m in (base, nobias):
        for a in m.attn_layers:
            a.bias.mu.data[:] = 3.0
            a.bias.rho.data[:] = 0.0
    with nc.no_grad():
        s_b = float(base.forward(sub, graph, tables, run_seed=0).data)
        s_n = float(nobias.forward(sub, graph, tables, run_seed=0).data)
    assert s_b != s_n


def test_no_gnn_branch_flag(tiny_db):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db, no_gnn_branch=True)
    sub = subgraphs_for(tiny_db, model)[0]
    # eta must not influence the attention-only path
    with nc.no_grad():
        s1 = float(model.forward(sub, graph, tables, run_seed=0).data)
        model.eta_raw.data = np.array(5.0)
        s2 = float(model.forward(sub, graph, tables, run_seed=0).data)
    assert s1 == s2


def test_gradients_reach_all_blocks(tiny_db):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db)
    sub = subgraphs_for(tiny_db, model)[0]
    params = model.parameters()
    nc.zero_grad(params.values())
    score = model.forward(sub, graph, tables, run_seed=0)
    nc.backward(loss(score, 1.0, "binary_classification"))
    assert np.abs(params["fusion.eta_raw"].grad).max() >= 0
    for probe in ("head.a2.W", "layer0.attn.W_Q", "layer0.gnn.sage0.W_self",
                  "layer1.attn.bias.mu"):
        assert np.abs(params[probe].grad).max() > 0, probe


def test_ablation_flags_defaults():
    flags = AblationFlags()
    assert not any((flags.no_structural_sampling, flags.no_semantic_refinement,
                    flags.no_gaussian_bias, flags.no_gnn_branch))
