import math

import numpy as np
import pytest

from conftest import sample_seed
from relgauss import numcore as nc
from relgauss.attention import pairwise_delta_days
from relgauss.encoders import positional_init
from relgauss.model import (PAD, AblationFlags, GelModel, ModelConfig,
                            batch_subgraphs, fuse, loss)
from relgauss.numcore import Tensor
from relgauss.sampler import SamplingConfig
from relgauss.trainer import TrainConfig, score_test


CFG = dict(d=16, n_layers=2, n_heads=2, pe_dim=4, dropout=0.0)


def make_model(tiny_db, **over):
    schema, tables, graph = tiny_db
    return GelModel(ModelConfig(**{**CFG, **over}), schema, tables)


def score_one(model, sub, tiny_db, ablation=AblationFlags()):
    """The (1,) score of one subgraph: forward_batch on a batch of one."""
    schema, tables, graph = tiny_db
    return model.forward_batch(batch_subgraphs([sub]), tables, graph, run_seed=0,
                               ablation=ablation)


def subgraphs_for(tiny_db, model):
    schema, tables, graph = tiny_db
    emb = model.encoders.node_embedding(np.arange(graph.n_nodes), graph, tables)
    return [sample_seed(graph, s, float(graph.node_time[s]), emb.__getitem__,
                        SamplingConfig())
            for s in range(3)]


@pytest.mark.parametrize("bad", [dict(d=30, n_heads=4), dict(d=15, n_heads=1),
                                 dict(pe_dim=32, d=16), dict(n_layers=0),
                                 dict(n_heads=0), dict(dropout=1.0),
                                 dict(dropout=-0.1), dict(gin_layers=-2)])
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


def test_eta_value_is_the_forward_gate_at_any_raw_value(tiny_db):
    model = make_model(tiny_db)
    for raw in (-1000.0, -3.7, 0.0, 2.9, 1000.0):
        model.eta_raw.data = np.array(raw)
        assert model.eta_value() == float(model.eta().data)
    model.eta_raw.data = np.array(-1000.0)
    assert model.eta_value() == 0.0


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
    model = make_model(tiny_db)
    sub = subgraphs_for(tiny_db, model)[0]
    with nc.no_grad():
        s1 = score_one(model, sub, tiny_db)
        s2 = score_one(model, sub, tiny_db)
    assert s1.shape == (1,)
    assert s1.data[0] == s2.data[0]


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
    np.testing.assert_array_equal(batch.slot, np.flatnonzero(batch.index != PAD))
    # each subgraph's local adjacency fills the top-left of its slice of the
    # stack; padded rows and columns stay empty
    assert batch.adjacency.shape == (len(sizes), max(sizes), max(sizes))
    for A, sub in zip(batch.adjacency, subs):
        dense = np.zeros_like(A)
        dense[tuple(sub.edges)] = 1.0
        np.testing.assert_array_equal(A, dense)
    # mean aggregation rows sum to 1 (or 0 if isolated or padded)
    rowsum = batch.mean_adjacency.sum(axis=-1)
    assert np.all((np.abs(rowsum - 1.0) < 1e-12) | (rowsum == 0.0))
    # the padded-slot mask, and each subgraph's pairwise deltas in the
    # top-left of its slice of the Δt stack
    np.testing.assert_array_equal(batch.padded, batch.index == PAD)
    for D, sub in zip(batch.delta_days, subs):
        n = sub.n_nodes
        np.testing.assert_array_equal(D[:n, :n], pairwise_delta_days(sub.delta_t))


def test_dropout_inverted_scaling_and_eval_identity(make_batch):
    shapes = [(100, 10), (1, 2, 100, 100)]  # stacked rows, padded pairs
    training = make_batch(delta_ts=[np.zeros(100)], rngs=[np.random.default_rng(8)])
    for shape in shapes:
        mask = training.dropout_mask(shape, 0.4)
        assert mask.shape == shape
        kept = mask[mask != 0]
        assert 0 < kept.size < mask.size
        np.testing.assert_allclose(kept, 1.0 / 0.6)
    evaluating = make_batch(delta_ts=[np.zeros(100)])
    for shape in shapes:
        assert evaluating.dropout_mask(shape, 0.4) is None
        assert training.dropout_mask(shape, 0.0) is None


def test_a_subgraphs_masks_do_not_depend_on_its_batch(make_batch):
    """A 3-node subgraph's masks, drawn by two layers in turn, are bitwise the
    same alone, among other subgraphs and padded to a larger n_max."""
    d, heads = 6, 2

    def masks(sizes, at):
        rngs = [np.random.default_rng([42 if b == at else 100 + b, 1])
                for b in range(len(sizes))]
        batch = make_batch(delta_ts=[np.zeros(n) for n in sizes], rngs=rngs)
        rows = slice(batch.seed_positions[at], batch.seed_positions[at] + 3)
        n_max = max(sizes)
        out = []
        for _ in range(2):
            pairs = batch.dropout_mask((len(sizes), heads, n_max, n_max), 0.5)
            # a padded cell of the subgraph is zeroed
            assert not pairs[at, :, 3:].any() and not pairs[at, ..., 3:].any()
            out.append(pairs[at, :, :3, :3])
            out.append(batch.dropout_mask((sum(sizes), d), 0.5)[rows])
        return out

    alone = masks([3], 0)
    cells = np.concatenate([m.ravel() for m in alone])
    assert 0 < np.count_nonzero(cells) < cells.size
    for sizes, at in (([2, 3, 1], 1), ([5, 3], 1)):
        for a, b in zip(alone, masks(sizes, at), strict=True):
            np.testing.assert_array_equal(a, b)


def test_forward_batch_matches_per_example(tiny_db):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db)
    subs = subgraphs_for(tiny_db, model)
    batch = batch_subgraphs(subs)
    with nc.no_grad():
        joint = model.forward_batch(batch, tables, graph, run_seed=0).data
        solo = np.concatenate([score_one(model, s, tiny_db).data for s in subs])
    np.testing.assert_allclose(joint, solo, atol=1e-10)


def test_eval_forward_builds_no_generator(tiny_db, monkeypatch):
    schema, tables, graph = tiny_db
    model = make_model(tiny_db)
    batch = batch_subgraphs(subgraphs_for(tiny_db, model))

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    positional_init(987_654_321, batch.nodes, CFG["pe_dim"])
    with nc.no_grad():
        model.forward_batch(batch, tables, graph, run_seed=987_654_321)
    # nor does scoring test rows end to end, sampling included
    score_test(model, graph, schema, tables, [0, 1, 2], TrainConfig(micro_batch=2),
               SamplingConfig(), AblationFlags())


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
        nc.backward(loss(score_one(model, sub, tiny_db), y, "binary_classification"))
    for name, p in params.items():
        # some encoder gradients reach 1e5 here, so the bound is relative
        # to each parameter's largest gradient entry
        err = np.abs(joint[name] - p.grad).max()
        assert err <= 1e-10 * max(1.0, np.abs(p.grad).max()), (name, err)
    assert np.abs(joint["layer0.attn.bias.mu"]).max() > 0


def test_no_gaussian_bias_flag_changes_output(tiny_db):
    model = make_model(tiny_db)
    sub = subgraphs_for(tiny_db, model)[0]
    # perturb mu so the bias is not trivially flat across pairs
    for a in model.attn_layers:
        a.bias.mu.data[:] = 3.0
        a.bias.rho.data[:] = 0.0
    with nc.no_grad():
        s_b = score_one(model, sub, tiny_db).data[0]
        s_n = score_one(model, sub, tiny_db, AblationFlags(no_gaussian_bias=True)).data[0]
    assert s_b != s_n


def test_no_gnn_branch_flag(tiny_db):
    model = make_model(tiny_db)
    sub = subgraphs_for(tiny_db, model)[0]
    no_gnn = AblationFlags(no_gnn_branch=True)
    # eta must not influence the attention-only path
    with nc.no_grad():
        s1 = score_one(model, sub, tiny_db, no_gnn).data[0]
        model.eta_raw.data = np.array(5.0)
        s2 = score_one(model, sub, tiny_db, no_gnn).data[0]
        s3 = score_one(model, sub, tiny_db).data[0]
    assert s1 == s2 != s3


def test_gradients_reach_all_blocks(tiny_db):
    model = make_model(tiny_db)
    sub = subgraphs_for(tiny_db, model)[0]
    params = model.parameters()
    nc.zero_grad(params.values())
    nc.backward(loss(score_one(model, sub, tiny_db), 1.0, "binary_classification"))
    assert np.abs(params["fusion.eta_raw"].grad).max() >= 0
    for probe in ("head.a2.W", "layer0.attn.W_Q", "layer0.gnn.sage0.W_self",
                  "layer1.attn.bias.mu"):
        assert np.abs(params[probe].grad).max() > 0, probe


def test_ablation_flags_defaults():
    flags = AblationFlags()
    assert not any((flags.no_structural_sampling, flags.no_semantic_refinement,
                    flags.no_gaussian_bias, flags.no_gnn_branch))


def test_ablation_flag_names():
    assert AblationFlags().name == "full"
    assert AblationFlags(no_gaussian_bias=True).name == "no-gaussian-bias"
    assert AblationFlags(no_structural_sampling=True,
                         no_gnn_branch=True).name == "no-structural-sampling+no-gnn-branch"
