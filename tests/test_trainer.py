import copy
import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_seed
from relgauss import numcore as nc
from relgauss import trainer
from relgauss.model import (AblationFlags, BatchedSubgraphs, GelModel, ModelConfig,
                            batch_subgraphs, fuse)
from relgauss.model import loss as loss_fn
from relgauss.numcore import Parameter
from relgauss.relstore import build_graph, load_schema, load_tables
from relgauss.sampler import SamplingConfig, sample, stage1, structural_sample
from relgauss.synthgen import SynthConfig, temporal_split, write_db
from relgauss.trainer import (AdamState, EmbeddingCache, NumericAbort,
                              TrainConfig, adam_step, auc, mae, predict_rows,
                              train, write_metrics_jsonl)

# -- metrics ----------------------------------------------------------------


def test_auc_hand_cases():
    assert auc([0.1, 0.9], [0, 1]) == 1.0
    assert auc([0.9, 0.1], [0, 1]) == 0.0
    assert auc([0.3, 0.3], [0, 1]) == 0.5  # tie counts half
    assert auc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
    assert auc([1, 3, 2, 4], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])


def test_auc_invariant_to_monotone_transform():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    assert auc(scores, labels) == pytest.approx(auc(np.exp(scores), labels))


def rankdata_auc(scores, labels):
    """The Mann-Whitney AUC through scipy's average ranks, the reference."""
    from scipy.stats import rankdata
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    return float((rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.normal(size=n),                              # untied
    lambda rng, n: rng.integers(0, 4, size=n).astype(float),        # many ties
    lambda rng, n: np.round(rng.normal(size=n), 1),                 # some ties
    lambda rng, n: rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.5, np.inf], size=n),
], ids=["untied", "many-ties", "some-ties", "inf"])
def test_auc_is_bitwise_the_rankdata_formula(draw):
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = 0, 1
        scores = draw(rng, n)
        assert auc(scores, labels).hex() == rankdata_auc(scores, labels).hex()


def test_auc_of_a_nan_score_is_nan():
    assert np.isnan(auc([0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0]))
    assert np.isnan(auc([np.nan, np.nan], [0, 1]))


def test_mae():
    assert mae([1.0, 2.0], [0.0, 4.0]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        mae([], [])
    with pytest.raises(ValueError):
        mae([1.0], [1.0, 2.0])


# -- optimizer --------------------------------------------------------------


def reference_adam(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straightforward scalar Adam, stepped once per gradient."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def test_adam_step_matches_reference():
    p = Parameter(np.array(1.0), "p")
    state = AdamState()
    grads = [0.5, -0.2, 0.9, 0.1]
    for g in grads:
        p.grad = np.array(g)
        adam_step({"p": p}, state, lr=0.01)
    assert float(p.data) == pytest.approx(reference_adam(1.0, grads, 0.01),
                                          rel=1e-12)


def test_adam_weight_decay_is_decoupled():
    p = Parameter(np.array(2.0), "p")
    state = AdamState()
    p.grad = np.array(0.0)
    adam_step({"p": p}, state, lr=0.1, weight_decay=0.5)
    # zero gradient: only the decay term moves the weight
    assert float(p.data) == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_adam_lr_multiplier_scales_update_not_decay():
    a = Parameter(np.array(1.0), "a")
    b = Parameter(np.array(1.0), "b")
    state = AdamState()
    a.grad = np.array(1.0)
    b.grad = np.array(1.0)
    adam_step({"a": a, "b": b}, state, lr=0.01, lr_multipliers={"b": 10.0})
    da = 1.0 - float(a.data)
    db = 1.0 - float(b.data)
    assert db == pytest.approx(10.0 * da, rel=1e-9)


def test_adam_rejects_shape_mismatch():
    p = Parameter(np.zeros(3), "p")
    p.grad = np.zeros(2)
    with pytest.raises(ValueError, match="shape mismatch"):
        adam_step({"p": p}, AdamState(), lr=0.1)


# -- end-to-end training on a small planted database ------------------------


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("traindb"))
    write_db(SynthConfig(n_entities=60, rng_seed=7), out)
    schema = load_schema(out + "/schema.json")
    tables = load_tables(schema, out)
    graph = build_graph(schema, tables)
    splits = temporal_split(schema, tables, (0.6, 0.2, 0.2))
    return schema, tables, graph, splits


MCFG = ModelConfig(d=16, n_layers=1, n_heads=2, pe_dim=4, dropout=0.1)
SCFG = SamplingConfig(stage1_budget=12, stage2_keep=8)
TCFG = TrainConfig(lr=1e-3, epochs=2, batch_size=16, rng_seed=0, micro_batch=4)


def run_once(small_setup, **over):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    cfg = TrainConfig(**{**TCFG.__dict__, **over})
    return train(model, graph, schema, tables, splits, cfg, SCFG)


def test_train_produces_one_record_per_epoch(small_setup):
    res = run_once(small_setup)
    assert len(res.records) == TCFG.epochs
    for i, rec in enumerate(res.records, start=1):
        assert rec["epoch"] == i
        assert np.isfinite(rec["train_loss"])
        assert 0.0 <= rec["val_metric"] <= 1.0
        assert len(rec["mu_per_head"]) == MCFG.n_layers * MCFG.n_heads
    assert res.test_metric is not None
    assert res.best_metric == max(r["val_metric"] for r in res.records)


def test_train_is_deterministic(small_setup):
    a = run_once(small_setup)
    b = run_once(small_setup)
    assert a.records == b.records
    np.testing.assert_array_equal(a.test_scores, b.test_scores)


def test_train_seed_changes_results(small_setup):
    a = run_once(small_setup)
    b = run_once(small_setup, rng_seed=1)
    assert a.records != b.records


def test_best_snapshot_restored_for_test_scoring(small_setup, monkeypatch):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    scored = []
    predict = trainer.predict_rows

    def recording(*args, **kwargs):
        scored.append(predict(*args, **kwargs))
        return scored[-1]

    monkeypatch.setattr(trainer, "predict_rows", recording)
    res = train(model, graph, schema, tables, splits, TCFG, SCFG)
    monkeypatch.undo()
    val_scores = scored[:len(res.records)]
    best = [r["val_metric"] for r in res.records].index(res.best_metric)
    assert not np.array_equal(val_scores[best], val_scores[-1])  # the restore matters
    # the best epoch scored its strided val rows from an emptied cache, as
    # a fresh one is: the restored weights give its scores bit for bit
    val_sub = list(splits[1])[::TCFG.val_stride]
    rescored = predict_rows(model, graph, schema, tables, val_sub,
                            EmbeddingCache(model, graph, tables), SCFG, AblationFlags(),
                            TCFG.rng_seed, micro_batch=TCFG.micro_batch)
    np.testing.assert_array_equal(rescored, val_scores[best])
    assert trainer.task_metric(schema, tables, val_sub, rescored)[1] == res.best_metric


@pytest.mark.filterwarnings("error")  # the abort comes before any numpy warning
def test_non_finite_loss_raises_numeric_abort(small_setup):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    model.head_a2.W.data[:] = np.nan
    with pytest.raises(NumericAbort):
        train(model, graph, schema, tables, splits, TCFG, SCFG)


def test_predict_rows_matches_test_scores(small_setup):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    res = train(model, graph, schema, tables, splits, TCFG, SCFG)
    embed = EmbeddingCache(model, graph, tables)
    rescored = predict_rows(model, graph, schema, tables, splits[2], embed,
                            SCFG, AblationFlags(), TCFG.rng_seed,
                            micro_batch=TCFG.micro_batch)
    np.testing.assert_array_equal(rescored, res.test_scores)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in backward
def test_non_finite_gradient_raises_numeric_abort(small_setup, monkeypatch):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    gelu = nc.gelu

    def gelu_with_inf_backward(x):
        out = gelu(x)
        backward = out._backward
        if backward is not None:
            out._backward = lambda g: backward(np.full_like(g, np.inf))
        return out

    monkeypatch.setattr(nc, "gelu", gelu_with_inf_backward)
    with pytest.raises(NumericAbort, match="gradient"):
        train(model, graph, schema, tables, splits, TCFG, SCFG)


def test_huge_step_aborts_on_the_first_non_finite_parameter(small_setup):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    # finite, but the first update of the bias scalars overflows
    cfg = TrainConfig(lr=1e308, epochs=1, max_steps_per_epoch=1, batch_size=16,
                      micro_batch=4)
    with pytest.raises(NumericAbort, match=r"non-finite parameter \S+\.bias\.\w+ .* step 0"):
        train(model, graph, schema, tables, splits, cfg, SCFG)


def test_per_chunk_backward_matches_one_backward_of_the_summed_loss(small_setup):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)  # dropout on
    params = model.parameters()
    embed = EmbeddingCache(model, graph, tables)
    targets = trainer._target_values(schema, tables)
    rows = [int(r) for r in splits[0][:9]]
    chunks = [rows[:4], rows[4:6], rows[6:]]  # unequal sizes
    subs = [trainer.sample_rows(graph, schema, tables, chunk, embed, SCFG, AblationFlags(),
                                (TCFG.rng_seed, 1))
            for chunk in chunks]

    def chunk_losses(seed):
        for chunk, chunk_subs in zip(chunks, subs):
            rngs = [np.random.default_rng([seed, r, 1]) for r in chunk]
            scores = model.forward_batch(batch_subgraphs(chunk_subs, rngs), tables,
                                         graph, run_seed=0)
            yield loss_fn(scores, targets[chunk], schema.task.kind).sum()

    nc.zero_grad(params.values())
    for item in chunk_losses(5):
        nc.backward(item * (1.0 / len(rows)))
    per_chunk = {n: p.grad.copy() for n, p in params.items()}

    nc.zero_grad(params.values())
    items = list(chunk_losses(5))
    total = items[0]
    for item in items[1:]:
        total = total + item
    nc.backward(total * (1.0 / len(rows)))
    assert any(np.any(g != 0) for g in per_chunk.values())
    for name, p in params.items():
        assert np.array_equal(p.grad, per_chunk[name]), name


def tape_nodes(loss) -> int:
    """The interior nodes of the tape under ``loss``, each counted once."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen and not node.is_leaf:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_a_train_bench_micro_batch_builds_at_most_79_tape_nodes(small_setup):
    """The perfbench train-bench model and sampling configs, 8 examples."""
    schema, tables, graph, splits = small_setup
    model = GelModel(ModelConfig(d=64, n_layers=2, n_heads=4, pe_dim=16), schema, tables)
    samp = SamplingConfig(stage1_budget=32, stage2_keep=20)
    embed = EmbeddingCache(model, graph, tables)
    rows = [int(r) for r in splits[0][:8]]
    subs = trainer.sample_rows(graph, schema, tables, rows, embed, samp, AblationFlags(),
                               (0, 1))
    rngs = [np.random.default_rng([0, 1, r, 1]) for r in rows]
    scores = model.forward_batch(batch_subgraphs(subs, rngs), tables, graph)
    loss = loss_fn(scores, trainer._target_values(schema, tables)[rows],
                   schema.task.kind).sum()
    assert tape_nodes(loss) <= 79


def test_micro_batch_changes_speed_only(small_setup):
    """Each example draws its dropout masks from its own generator, so the
    records and the test metric do not follow the micro-batch layout."""
    runs = {m: run_once(small_setup, micro_batch=m) for m in (1, 4, 8)}
    ref = runs[1]
    for m in (4, 8):
        assert runs[m].test_metric == ref.test_metric, m
        assert len(runs[m].records) == len(ref.records)
        for a, b in zip(ref.records, runs[m].records):
            for key in ("train_loss", "val_metric", "eta", "mu_per_head", "sigma_per_head"):
                x, y = np.asarray(a[key]), np.asarray(b[key])
                assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(1.0, np.abs(x))), (m, key)


NO_STRUCTURAL = AblationFlags(no_structural_sampling=True)


def spy_on_stage1_streams(monkeypatch, graph):
    """Record, per call of ``trainer.stage1``, the seed's target-table row
    and an untouched copy of the generator it was handed."""
    streams = []

    def spy(graph_, seed, seed_time, config, rng=None):
        streams.append((int(graph.node_row[seed]), copy.deepcopy(rng)))
        return stage1(graph_, seed, seed_time, config, rng)

    monkeypatch.setattr(trainer, "stage1", spy)
    return streams


def test_stage1_stream_is_keyed_by_seed_epoch_and_row(small_setup, monkeypatch):
    """A training example's stage-1 generator is its own keyed stream, and
    not the dropout stream of the same example."""
    schema, tables, graph, splits = small_setup
    streams = spy_on_stage1_streams(monkeypatch, graph)
    cfg = TrainConfig(**{**TCFG.__dict__, "epochs": 1, "max_steps_per_epoch": 1,
                         "rng_seed": 5})
    train(GelModel(MCFG, schema, tables), graph, schema, tables, splits, cfg, SCFG,
          NO_STRUCTURAL)
    row, rng = streams[0]
    assert row in splits[0]
    drawn = rng.random(8)
    np.testing.assert_array_equal(drawn, np.random.default_rng([5, 1, row, 3]).random(8))
    assert not np.array_equal(drawn, np.random.default_rng([5, 1, row, 1]).random(8))


def test_predict_rows_hands_the_ablation_a_generator(small_setup, monkeypatch):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    streams = spy_on_stage1_streams(monkeypatch, graph)
    rows = list(splits[2][:3])
    predict_rows(model, graph, schema, tables, rows, EmbeddingCache(model, graph, tables),
                 SCFG, NO_STRUCTURAL, 0, micro_batch=2)
    assert [row for row, _ in streams] == rows
    # eval draws from epoch 0, which no training epoch is
    for row, rng in streams:
        assert rng is not None
        np.testing.assert_array_equal(rng.random(4),
                                      np.random.default_rng([0, 0, row, 3]).random(4))


def test_ablated_scores_do_not_depend_on_row_order(small_setup):
    """Each row draws its random stage-1 subgraph from its own generator,
    so no row's score follows the rows scored before it."""
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    rows = [int(r) for r in splits[2]]

    def scores(order, micro_batch, ablation=NO_STRUCTURAL):
        embed = EmbeddingCache(model, graph, tables)
        out = predict_rows(model, graph, schema, tables, order, embed, SCFG, ablation,
                           0, micro_batch=micro_batch)
        return dict(zip(order, out))

    ref = scores(rows, TCFG.micro_batch)
    reverse = scores(rows[::-1], TCFG.micro_batch)
    alone = {}
    for r in rows:
        alone.update(scores([r], 1))
    for other in (reverse, alone):
        for r in rows:
            assert abs(other[r] - ref[r]) <= 1e-12, r
    # the draw is not the BFS cut
    full = scores(rows, TCFG.micro_batch, AblationFlags())
    assert any(abs(full[r] - ref[r]) > 1e-6 for r in rows)


def test_training_step_holds_one_micro_batch_tape(small_setup):
    schema, tables, graph, splits = small_setup
    peaks = {}
    for n_chunks in (1, 8):
        model = GelModel(MCFG, schema, tables)
        cfg = TrainConfig(lr=1e-3, epochs=1, max_steps_per_epoch=1,
                          batch_size=4 * n_chunks, micro_batch=4)
        tracemalloc.start()
        try:
            train(model, graph, schema, tables, splits, cfg, SCFG)
            peaks[n_chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # holding all eight micro-batches' tapes until one backward took 4.8
    # times the peak of one
    assert peaks[8] <= 1.5 * peaks[1], peaks


def test_embedding_cache_memoizes_and_refreshes(small_setup, monkeypatch):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    cache = EmbeddingCache(model, graph, tables)
    node_embedding = model.encoders.node_embedding
    calls = []

    def counted(nodes, *args):
        calls.append(nodes.tolist())
        return node_embedding(nodes, *args)

    monkeypatch.setattr(model.encoders, "node_embedding", counted)
    v1 = cache(np.array([3, 0]))
    assert v1.shape == (2, MCFG.d) and calls == [[0, 3]]
    hit = cache(np.array([0, 3, 0]))
    assert len(calls) == 1  # a hit encodes nothing
    np.testing.assert_array_equal(hit, v1[[1, 0, 1]])
    cache(np.array([0, 5, 5]))
    assert calls[-1] == [5]  # only the miss is encoded, once
    # after refresh() the values come from the current weights
    model.encoders.tab_enc.blocks[0].a2.b.data += 1.0
    cache.refresh()
    v2 = cache(np.array([3, 0]))
    assert calls[-1] == [0, 3]
    np.testing.assert_array_equal(v2, node_embedding(np.array([3, 0]), graph, tables))
    assert not np.array_equal(v2, v1)


# few distinct nodes, so that calls repeat nodes of earlier calls
CACHE_OPS = st.lists(st.one_of(st.just("refresh"),
                                st.lists(st.integers(0, 15), min_size=1, max_size=12)),
                      min_size=1, max_size=10)


@settings(max_examples=40, deadline=None)
@given(ops=CACHE_OPS)
def test_embedding_cache_rows_are_stable_until_refresh(small_setup, ops):
    """Node arrays with repeats over several calls and refreshes: a node's
    row stays the same until refresh(), and is node_embedding's own row."""
    schema, tables, graph, _ = small_setup
    model = GelModel(MCFG, schema, tables)
    bias = model.encoders.tab_enc.blocks[0].a2.b
    cache = EmbeddingCache(model, graph, tables)
    seen = {}
    for op in ops:
        if op == "refresh":
            bias.data = bias.data + 0.5  # later rows come from other weights
            cache.refresh()
            seen.clear()
            continue
        nodes = np.array(op)
        rows = cache(nodes)
        assert rows.shape == (len(nodes), MCFG.d)
        for n, row in zip(op, rows):
            if n in seen:
                np.testing.assert_array_equal(row, seen[n])
            seen[n] = row.copy()
            alone = model.encoders.node_embedding(np.array([n]), graph, tables)[0]
            np.testing.assert_allclose(row, alone, rtol=0, atol=1e-12)
        assert len(cache) == len(seen)  # one row per distinct node, packed


# 3 hops, so that most rows have deep candidates for refinement to rank
DEEP = SamplingConfig(max_hop=3, stage1_budget=100, stage2_keep=40)
DEEP_MODEL = ModelConfig(d=16, n_layers=1, n_heads=2, pe_dim=4, max_hop=3)


def test_a_predict_rows_request_fills_the_cache_once(small_setup, monkeypatch):
    """One request of 8 rows: one node_embedding call for everything
    refinement ranks and one for the kept nodes it did not rank; the
    forward pass encodes no tabular row of its own."""
    schema, tables, graph, splits = small_setup
    model = GelModel(DEEP_MODEL, schema, tables)
    encoders = model.encoders
    calls = {"node_embedding": 0, "_encode_tabular": 0}

    def counted(name):
        fn = getattr(encoders, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(encoders, name, counted(name))
    rows = [int(r) for r in splits[2][:8]]
    predict_rows(model, graph, schema, tables, rows, EmbeddingCache(model, graph, tables),
                 DEEP, AblationFlags(), 0, micro_batch=8)
    assert 1 <= calls["node_embedding"] <= 2
    assert calls["_encode_tabular"] == calls["node_embedding"]


def test_sample_rows_reads_the_cache_once(small_setup, monkeypatch):
    """Each row refines from its slice of the one fill's rows and gathers
    nothing from the cache again."""
    schema, tables, graph, splits = small_setup
    model = GelModel(DEEP_MODEL, schema, tables)
    embed = EmbeddingCache(model, graph, tables)
    calls = []
    fill = EmbeddingCache.__call__

    def counted(self, nodes):
        calls.append(len(nodes))
        return fill(self, nodes)

    monkeypatch.setattr(EmbeddingCache, "__call__", counted)
    rows = [int(r) for r in splits[2][:8]]
    subs = trainer.sample_rows(graph, schema, tables, rows, embed, DEEP, AblationFlags(),
                               (0, 0))
    assert len(calls) == 1 and calls[0] > len(rows)
    monkeypatch.undo()
    alone = [trainer.sample_rows(graph, schema, tables, [r], embed, DEEP, AblationFlags(),
                                 (0, 0))[0] for r in rows]
    assert [s.nodes.tolist() for s in subs] == [s.nodes.tolist() for s in alone]


ABLATIONS = [AblationFlags(), AblationFlags(no_structural_sampling=True),
             AblationFlags(no_semantic_refinement=True),
             AblationFlags(no_gaussian_bias=True), AblationFlags(no_gnn_branch=True)]


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: a.name)
def test_eval_scores_from_the_cached_channel_match_the_encoded_one(small_setup,
                                                                   monkeypatch, ablation):
    """predict_rows, which samples each request's rows together and reads
    the tabular channel from the cache, against each row sampled on its own
    and its channel encoded in the forward pass."""
    schema, tables, graph, splits = small_setup
    model = GelModel(DEEP_MODEL, schema, tables)
    rows = [int(r) for r in splits[2]]
    sampled = []

    def recording_sample(*args, **kwargs):
        sub = sample(*args, **kwargs)
        sampled.append(sub.nodes.tolist())
        return sub

    monkeypatch.setattr(trainer, "sample", recording_sample)
    scores = predict_rows(model, graph, schema, tables, rows,
                          EmbeddingCache(model, graph, tables), DEEP, ablation, 0,
                          micro_batch=4)
    monkeypatch.undo()

    task = schema.task
    times = tables.tables[task.target_table].timestamps[task.seed_time_column]
    alone = []
    with nc.no_grad():
        for row in rows:
            rng = (np.random.default_rng([0, 0, row, 3])
                   if ablation.no_structural_sampling else None)
            sub = sample_seed(graph, graph.node_id(task.target_table, row),
                              float(times[row]), EmbeddingCache(model, graph, tables), DEEP,
                              rng=rng, skip_refinement=ablation.no_semantic_refinement)
            assert sub.nodes.tolist() == sampled[len(alone)], row
            alone.append(model.forward_batch(batch_subgraphs([sub]), tables, graph,
                                             ablation=ablation).data[0])
    np.testing.assert_allclose(scores, alone, rtol=0, atol=1e-12)


SEED_MODEL = ModelConfig(d=16, n_layers=2, n_heads=2, pe_dim=4)
BENCH_SAMPLING = SamplingConfig(stage1_budget=32, stage2_keep=20)  # train-bench's


def scores_at_every_row(model, batch, tables, graph, *, ablation, cache=None):
    """The scores of ``batch`` with every block computed at every row
    (``attend`` and ``GnnBranch`` at their defaults) and the seeds' rows
    taken for the head: what the last block's seed-only rows must give."""
    H = model.encoders.encode_subgraph(batch, graph, tables, 0, cache=cache)
    eta = model.eta()
    for attn, gnn in zip(model.attn_layers, model.gnn_layers):
        H_attn = attn.attend(H, batch, use_bias=not ablation.no_gaussian_bias)
        H = H_attn if ablation.no_gnn_branch else fuse(H_attn, gnn(H, batch), eta)
    seeds = nc.rows(H, batch.seed_positions)
    return model.head_a2(nc.gelu(model.head_a1(seeds))).reshape(-1)


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: a.name)
def test_eval_scores_of_the_seed_only_last_block_match_every_row(small_setup, ablation):
    schema, tables, graph, splits = small_setup
    model = GelModel(SEED_MODEL, schema, tables)
    for attn in model.attn_layers:  # a bias that varies over the deltas
        attn.bias.mu.data[:] = [3.0, 40.0]
    rows = [int(r) for r in splits[0][:16]]
    embed = EmbeddingCache(model, graph, tables)
    scores = predict_rows(model, graph, schema, tables, rows, embed, BENCH_SAMPLING,
                          ablation, 0, micro_batch=8)
    want = []
    with nc.no_grad():
        for lo in (0, 8):
            subs = trainer.sample_rows(graph, schema, tables, rows[lo:lo + 8], embed,
                                       BENCH_SAMPLING, ablation, (0, 0))
            assert len({s.n_nodes for s in subs}) > 1  # the batch is padded
            want.append(scores_at_every_row(model, batch_subgraphs(subs), tables, graph,
                                            ablation=ablation, cache=embed).data)
    np.testing.assert_allclose(scores, np.concatenate(want), rtol=0, atol=1e-12)


SEED_MODEL_3 = dataclasses.replace(SEED_MODEL, max_hop=3)
# keeps 60, so that the 8-row batches of the first 16 training rows are padded
DEEP_PADDED = dataclasses.replace(DEEP, stage2_keep=60)


@pytest.mark.parametrize("ablation", ABLATIONS, ids=lambda a: a.name)
def test_eval_scores_of_the_seed_only_last_block_match_every_row_at_three_hops(
        small_setup, ablation):
    """At 3 hops the last block's first two GraphSAGE layers skip the rows
    past 2 and 1 hops, and a batch holds such rows."""
    schema, tables, graph, splits = small_setup
    model = GelModel(SEED_MODEL_3, schema, tables)
    for attn in model.attn_layers:  # a bias that varies over the deltas
        attn.bias.mu.data[:] = [3.0, 40.0]
    rows = [int(r) for r in splits[0][:16]]
    embed = EmbeddingCache(model, graph, tables)
    scores = predict_rows(model, graph, schema, tables, rows, embed, DEEP_PADDED, ablation, 0,
                          micro_batch=8)
    want = []
    with nc.no_grad():
        for lo in (0, 8):
            batch = batch_subgraphs(trainer.sample_rows(
                graph, schema, tables, rows[lo:lo + 8], embed, DEEP_PADDED, ablation, (0, 0)))
            assert len(set(batch.sizes)) > 1 and (batch.hop == 3).any()
            want.append(scores_at_every_row(model, batch, tables, graph,
                                            ablation=ablation, cache=embed).data)
    np.testing.assert_allclose(scores, np.concatenate(want), rtol=0, atol=1e-12)


def test_training_gradients_of_the_seed_only_last_block_match_every_row(small_setup,
                                                                        monkeypatch):
    """One 3-hop micro-batch with dropout. The last block draws masks for
    the cells it computes alone; the every-row forward gets those masks on
    the same cells and ones elsewhere, on cells that reach no seed."""
    schema, tables, graph, splits = small_setup
    model = GelModel(SEED_MODEL_3, schema, tables)
    rows = [int(r) for r in splits[0][:8]]
    embed = EmbeddingCache(model, graph, tables)
    subs = trainer.sample_rows(graph, schema, tables, rows, embed, DEEP_PADDED, AblationFlags(),
                               (0, 1))
    targets = trainer._target_values(schema, tables)[rows]
    params = model.parameters()
    draw = BatchedSubgraphs.dropout_mask
    drawn = []

    def recording(batch, shape, rate, counts=None):
        mask = draw(batch, shape, rate, counts)
        if mask is not None:  # a row mask covers each subgraph's first counts[b] rows
            leading = np.arange(batch.index.shape[1]) < (batch.sizes if counts is None
                                                         else counts)[:, None]
            drawn.append((mask, batch.index[leading]))
        return mask

    def replaying(batch, shape, rate, counts=None):
        mask, at = drawn.pop(0)
        if mask.shape != shape:
            full = np.ones(shape)
            if mask.ndim == 4:
                full[:, :, :mask.shape[2]] = mask
            else:
                full[at] = mask
            mask = full
        return mask

    grads, scores = [], []
    for forward, masks in ((model.forward_batch, recording),
                           (functools.partial(scores_at_every_row, model), replaying)):
        monkeypatch.setattr(BatchedSubgraphs, "dropout_mask", masks)
        nc.zero_grad(params.values())
        rngs = [np.random.default_rng([0, 1, r, 1]) for r in rows]
        batch = batch_subgraphs(subs, rngs)
        out = forward(batch, tables, graph, ablation=AblationFlags())
        nc.backward(loss_fn(out, targets, schema.task.kind).sum())
        grads.append({name: p.grad.copy() for name, p in params.items()})
        scores.append(out.data)
    assert not drawn and len(set(batch.sizes)) > 1 and (batch.hop == 3).any()
    np.testing.assert_allclose(scores[0], scores[1], rtol=0, atol=1e-12)
    monkeypatch.undo()
    with nc.no_grad():  # dropout ran in training
        assert not np.allclose(model.forward_batch(batch_subgraphs(subs), tables, graph).data,
                               scores[0])
    for name, p in params.items():
        got, want = grads[0][name], grads[1][name]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name
    assert np.abs(grads[0]["layer1.gnn.sage2.W_self"]).max() > 0


def test_the_last_blocks_bias_is_taken_at_the_seeds_only(small_setup, monkeypatch):
    schema, tables, graph, splits = small_setup
    model = GelModel(SEED_MODEL, schema, tables)
    rows = [int(r) for r in splits[0][:8]]
    batch = batch_subgraphs(trainer.sample_rows(
        graph, schema, tables, rows, EmbeddingCache(model, graph, tables), BENCH_SAMPLING,
        AblationFlags(), (0, 1)))
    shapes = []
    gaussian_bias = nc.gaussian_bias

    def recording(*args, **kwargs):
        out = gaussian_bias(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(nc, "gaussian_bias", recording)
    with nc.no_grad():
        model.forward_batch(batch, tables, graph)
    B, n_max = batch.index.shape
    assert shapes == [(B, 2, n_max, n_max), (B, 2, 1, n_max)]


def test_a_cache_with_gradients_on_raises(small_setup):
    """Read from a cache the tabular channel would get no gradient."""
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    embed = EmbeddingCache(model, graph, tables)
    rows = [int(r) for r in splits[0][:2]]
    batch = batch_subgraphs(trainer.sample_rows(graph, schema, tables, rows, embed, SCFG,
                                                AblationFlags(), (0, 1)))
    with pytest.raises(ValueError, match="no_grad"):
        model.forward_batch(batch, tables, graph, cache=embed)
    with pytest.raises(ValueError, match="no_grad"):
        model.encoders.encode_subgraph(batch, graph, tables, 0, cache=embed)
    with nc.no_grad():
        model.forward_batch(batch, tables, graph, cache=embed)


def test_eval_scores_do_not_depend_on_micro_batch(small_setup, monkeypatch):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    embed = EmbeddingCache(model, graph, tables)
    sampled = []

    def recording_sample(*args, **kwargs):
        sub = sample(*args, **kwargs)
        sampled[-1].append(sub.nodes.tolist())
        return sub

    monkeypatch.setattr(trainer, "sample", recording_sample)
    scores = []
    for mb in (1, 3, 8):
        embed.refresh()
        sampled.append([])
        scores.append(predict_rows(model, graph, schema, tables, splits[2], embed,
                                   SCFG, AblationFlags(), 0, micro_batch=mb))
    for other, nodes in zip(scores[1:], sampled[1:]):
        np.testing.assert_allclose(other, scores[0], rtol=0, atol=1e-12)
        assert nodes == sampled[0]


def test_batched_refinement_matches_scalar_definition(small_setup):
    schema, tables, graph, splits = small_setup
    model = GelModel(MCFG, schema, tables)
    embed = EmbeddingCache(model, graph, tables)
    # 3 hops so that most rows have more deep candidates than room for them
    cfg = SamplingConfig(max_hop=3, stage1_budget=100, stage2_keep=40)

    def scalar_embedding(node):
        with nc.no_grad():
            return model.encoders.tab_enc.encode_rows(
                graph.node_table[graph.node_type[node]],
                np.array([graph.node_row[node]]), tables).data[0]

    target = tables.tables[schema.task.target_table]
    cut = 0
    for row in range(target.n_rows):
        node = graph.node_id(schema.task.target_table, row)
        seed_time = float(target.timestamps[schema.task.seed_time_column][row])
        candidates = structural_sample(graph, node, seed_time, cfg)
        near = set(candidates[candidates[:, 1] <= 1, 0].tolist())
        deep = candidates[candidates[:, 1] > 1, 0].tolist()
        h_seed = scalar_embedding(node)
        ranked = sorted(deep, key=lambda u: (-float(h_seed @ scalar_embedding(u)), u))
        room = max(cfg.stage2_keep - len(near), 0)
        sub = sample_seed(graph, node, seed_time, embed, cfg)
        assert set(sub.nodes.tolist()) == near | set(ranked[:room])
        cut += 0 < room < len(deep)
    assert cut > target.n_rows // 2  # the ranking decided most subgraphs


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="micro_batch"):
        TrainConfig(micro_batch=0)
    with pytest.raises(ValueError, match="weight_decay"):
        TrainConfig(weight_decay=-1)
    for multiplier in (0, -2.0):
        with pytest.raises(ValueError, match="bias_lr_multiplier"):
            TrainConfig(bias_lr_multiplier=multiplier)
    TrainConfig(weight_decay=0.0)  # zero decay is allowed


def test_write_metrics_jsonl(tmp_path):
    path = str(tmp_path / "metrics.jsonl")
    write_metrics_jsonl([{"epoch": 1, "val_metric": 0.5}], path)
    import json
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    assert json.loads(lines[0])["epoch"] == 1
