import json
import warnings

import numpy as np
import pytest

from conftest import sample_seed
from relgauss import numcore as nc
from relgauss.encoders import (Affine, Embedding, EncoderSuite, PositionalEncoder,
                               TabularEncoder, TimeEncoder, positional_init)
from relgauss.model import ModelConfig, batch_subgraphs
from relgauss.numcore import Tensor
from relgauss.relstore import build_graph, load_schema, load_tables
from relgauss.sampler import SamplingConfig

CFG = ModelConfig(d=16, max_hop=2, pe_dim=4, gin_layers=2)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def tiny_db(tmp_path):
    schema_raw = {
        "tables": [
            {"name": "users", "columns": [
                {"name": "user_id", "kind": "primary_key"},
                {"name": "tier", "kind": "categorical"},
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
        "user_id,tier,score,joined,label\n"
        "u1,gold,4.0,1000000,1\nu2,silver,,2000000,0\n")
    (tmp_path / "orders.csv").write_text(
        "order_id,user_id,placed,amount\n"
        "o1,u1,500,10.0\no2,u1,600,2.0\no3,u2,700,6.0\n")
    schema = load_schema(str(tmp_path / "schema.json"))
    tables = load_tables(schema, str(tmp_path))
    return schema, tables, build_graph(schema, tables)


def test_type_encoder_lookup_and_range(rng):
    enc = Embedding("type", 2, CFG.d, rng)
    assert enc.table.name == "type.table"
    out = enc(np.array([0, 1, 0]))
    np.testing.assert_array_equal(out.data[0], out.data[2])
    assert out.shape == (3, 16)
    with pytest.raises(IndexError):
        enc(np.array([2]))
    with pytest.raises(IndexError):
        enc(np.array([-1]))


def test_hop_encoder_range(rng):
    enc = Embedding("hop", CFG.max_hop + 1, CFG.d, rng)
    assert enc(np.array([0, 1, 2])).shape == (3, 16)
    with pytest.raises(IndexError, match=r"hop id out of range \[0, 3\)"):
        enc(np.array([3]))


def test_time_encoder_frequencies_strictly_decreasing(rng):
    enc = TimeEncoder(CFG.d, rng)
    assert np.all(np.diff(enc.frequencies) < 0)
    assert enc.frequencies[0] == 1.0


def test_time_encoder_sinusoid_features_in_days(rng):
    enc = TimeEncoder(CFG.d, rng)
    feats = enc.sinusoid_features(np.array([0.0, 86400.0]))
    k = CFG.d // 2
    np.testing.assert_allclose(feats[0, :k], 0.0)  # sin(0)
    np.testing.assert_allclose(feats[0, k:], 1.0)  # cos(0)
    assert feats[1, 0] == pytest.approx(np.sin(1.0))  # one day at freq 1


def test_time_encoder_invalid_deltas_use_mask_vector(rng):
    enc = TimeEncoder(CFG.d, rng)
    out = enc(np.array([86400.0, -5.0, np.inf, np.nan]))
    np.testing.assert_array_equal(out.data[1], enc.mask_vector.data)
    np.testing.assert_array_equal(out.data[2], enc.mask_vector.data)
    np.testing.assert_array_equal(out.data[3], enc.mask_vector.data)
    assert not np.array_equal(out.data[0], enc.mask_vector.data)
    assert np.all(np.isfinite(out.data))


def test_tabular_encoder_standardizes_and_excludes_label(tiny_db, rng):
    schema, tables, graph = tiny_db
    enc = TabularEncoder(CFG.d, schema, tables, rng)
    # label column never becomes a feature
    assert ("users", "label") not in enc.num_params
    names = [n for n, _, _ in enc.num_cols["users"]]
    assert names == ["score"]
    # standardization stats come from the finite entries only
    (_, mean, std), = enc.num_cols["users"]
    assert mean == pytest.approx(4.0) and std == pytest.approx(1.0)
    # orders.amount: mean of 10, 2, 6
    (_, mean_o, std_o), = enc.num_cols["orders"]
    assert mean_o == pytest.approx(6.0)
    assert std_o == pytest.approx(np.std([10.0, 2.0, 6.0]))


def test_tabular_missing_numerical_imputes_to_zero(tiny_db, rng):
    schema, tables, graph = tiny_db
    enc = TabularEncoder(CFG.d, schema, tables, rng)
    # row u2 has a missing score; its numerical contribution must equal the
    # bias-only contribution (z = 0)
    w, b = enc.num_params[("users", "score")]
    out = enc.encode_rows("users", np.array([1]), tables)
    emb = enc.cat_params[("users", "tier")]
    pooled = b.data + emb.data[tables.tables["users"].categorical["tier"][1]]
    h = Tensor(pooled[None, :])
    for block in enc.blocks:
        h = h + block.a2(nc.gelu(block.norm(block.a1(h))))
    np.testing.assert_allclose(out.data, h.data)


def test_tabular_unknown_table_rejected(tiny_db, rng):
    schema, tables, graph = tiny_db
    enc = TabularEncoder(CFG.d, schema, tables, rng)
    with pytest.raises(KeyError):
        enc.encode_rows("ghost", np.array([0]), tables)


def test_positional_features_keyed_by_global_id():
    a = positional_init(7, np.array([3, 9]), 4)
    b = positional_init(7, np.array([9, 3]), 4)
    np.testing.assert_array_equal(a[0], b[1])
    np.testing.assert_array_equal(a[1], b[0])
    c = positional_init(8, np.array([3]), 4)
    assert not np.array_equal(a[0], c[0])


def test_positional_features_are_standard_normal_and_distinct():
    feats = positional_init(5, np.arange(100_000), 16)
    assert np.isfinite(feats).all()
    assert abs(feats.mean()) < 0.01 and abs(feats.std() - 1.0) < 0.01
    rows = np.concatenate([positional_init(seed, np.arange(10_000), 16)
                           for seed in (0, 1, 2, 2**40)])
    assert len(np.unique(rows, axis=0)) == len(rows)


def test_node_zeros_features_are_not_the_shuffle_stream():
    # numpy's SeedSequence drops trailing zeros, so a key (seed, 0) would be
    # the generator default_rng(seed) that shuffles the training rows
    assert not np.array_equal(positional_init(3, np.array([0]), 16)[0],
                              np.random.default_rng(3).standard_normal(16))


def test_positional_features_golden_values():
    feats = positional_init(0, np.array([0, 1, 2**40]), 4)
    assert [v.hex() for v in feats.ravel()] == [
        "0x1.91588c88ea01ap-2", "0x1.0e47948215bb7p-1",
        "-0x1.25b4c7f001116p-2", "0x1.9c5c166e8e903p-2",
        "-0x1.efdfb7147f1dcp-1", "0x1.15e7943082f3ap+1",
        "-0x1.3a5b0a3b8f7c2p-2", "-0x1.616c6ff7fc6bdp-3",
        "0x1.948f7556f080bp-1", "-0x1.fcf07f5d0cd06p-3",
        "-0x1.b27c3ab750efcp+0", "0x1.17fd86d3e7967p-4"]


def test_positional_features_raise_no_warning():
    # the hash wraps mod 2**64 on every step: numpy warns on scalar
    # overflow but not on array overflow, so every step must stay an array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        feats = positional_init(2**64 - 1, np.array([0, 2**62, 2**63 - 1]), 16)
    assert np.isfinite(feats).all()


def test_positional_encoder_equivariant_under_relabeling(rng, make_batch):
    enc = PositionalEncoder(CFG.pe_dim, CFG.gin_layers, rng)
    # path graph 0-1-2 and its reversal 2-1-0
    adj = [[1], [0, 2], [1]]
    adj_rev = [[1], [0, 2], [1]]
    feats = positional_init(0, np.array([10, 11, 12]), 4)
    out = enc(make_batch([adj]), feats).data
    out_rev = enc(make_batch([adj_rev]), feats[::-1]).data
    np.testing.assert_allclose(out, out_rev[::-1], atol=1e-12)


def test_affine_shapes(rng):
    aff = Affine("t", 4, 3, rng)
    out = aff(Tensor(np.ones((2, 4))))
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out.data, np.ones((2, 4)) @ aff.W.data.T)


def test_encoder_suite_shapes_and_determinism(tiny_db):
    schema, tables, graph = tiny_db
    suite = EncoderSuite(CFG, schema, tables, np.random.default_rng(1))
    emb = suite.node_embedding(np.arange(graph.n_nodes), graph, tables)
    sub = sample_seed(graph, 0, float(graph.node_time[0]), emb.__getitem__, SamplingConfig())
    batch = batch_subgraphs([sub])
    H1 = suite.encode_subgraph(batch, graph, tables, run_seed=0)
    H2 = suite.encode_subgraph(batch, graph, tables, run_seed=0)
    assert H1.shape == (sub.n_nodes, 16)
    np.testing.assert_array_equal(H1.data, H2.data)
    assert np.all(np.isfinite(H1.data))


def test_encoder_suite_gradients_flow(tiny_db):
    schema, tables, graph = tiny_db
    suite = EncoderSuite(CFG, schema, tables, np.random.default_rng(2))
    emb = suite.node_embedding(np.arange(graph.n_nodes), graph, tables)
    sub = sample_seed(graph, 0, float(graph.node_time[0]), emb.__getitem__, SamplingConfig())
    params = suite.parameters()
    nc.zero_grad(params)
    H = suite.encode_subgraph(batch_subgraphs([sub]), graph, tables, run_seed=0)
    nc.backward((H * H).sum())
    touched = sum(1 for p in params if np.abs(p.grad).max() > 0)
    assert touched > len(params) * 0.5


def test_node_embedding_no_grad(tiny_db):
    schema, tables, graph = tiny_db
    suite = EncoderSuite(CFG, schema, tables, np.random.default_rng(3))
    v = suite.node_embedding(np.array([0, 3]), graph, tables)
    assert v.shape == (2, 16)
    assert np.all(np.isfinite(v))
