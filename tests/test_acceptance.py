"""End-to-end acceptance tests with pinned tolerances.

These exercise the verification oracles at full trial counts, the
sampling invariants at scale, whole-model gradient correctness, the
multi-seed ablation benchmark (the expensive part, shared via a session
fixture), temporal-center recovery, and bit-level reproducibility.
"""

import hashlib
import json
import os
import re
import time

import numpy as np
import pytest

from conftest import sample_seed
from relgauss import numcore as nc
from relgauss.attention import AttentionLayer
from relgauss.cli import main as cli_main
from relgauss.model import (AblationFlags, GelModel, ModelConfig, batch_subgraphs,
                            loss)
from relgauss.numcore import Tensor
from relgauss.oracles import (KatzParams, snr, structural_loss_ratio,
                              verify_euler_ratio, verify_katz_consistency,
                              verify_mu_gradient, verify_snr_refinement,
                              verify_structural_bound)
from relgauss.relstore import build_graph, load_schema, load_tables
from relgauss.sampler import SamplingConfig, structural_sample
from relgauss.synthgen import SynthConfig, temporal_split, write_db
from relgauss.trainer import (EmbeddingCache, TrainConfig, ablation_summary,
                              run_ablation_sweep)

SECONDS_PER_DAY = 86400.0

# ---------------------------------------------------------------------------
# benchmark dataset and the shared multi-seed ablation sweep
# ---------------------------------------------------------------------------

BENCH_SYNTH = dict(n_entities=2000, rng_seed=0, noise_event_fraction=0.65)
BENCH_SAMPLING = dict(stage1_budget=32, stage2_keep=20)
BENCH_MODEL = dict(d=64, n_layers=2, n_heads=4, pe_dim=16)
BENCH_TRAIN = dict(lr=1e-4, epochs=7, max_steps_per_epoch=14,
                   bias_lr_multiplier=4000.0, val_stride=2)
N_SEEDS = 5


@pytest.fixture(scope="session")
def bench_db(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench") / "db")
    cfg = SynthConfig(**BENCH_SYNTH)
    write_db(cfg, out)
    schema = load_schema(out + "/schema.json")
    tables = load_tables(schema, out)
    graph = build_graph(schema, tables)
    splits = temporal_split(schema, tables, (0.6, 0.2, 0.2))
    return cfg, schema, tables, graph, splits


@pytest.fixture(scope="session")
def ablation_sweep(bench_db):
    """Full / no-gaussian-bias / no-semantic-refinement over N_SEEDS seeds:
    the same runs as those variants of ``relgauss ablate --seed 0 --seeds 5``
    at these configs (README, "Synthetic benchmark")."""
    cfg, schema, tables, graph, splits = bench_db
    variants = [AblationFlags(), AblationFlags(no_gaussian_bias=True),
                AblationFlags(no_semantic_refinement=True)]
    t0 = time.monotonic()
    runs = run_ablation_sweep(graph, schema, tables, splits,
                              ModelConfig(**BENCH_MODEL, init_seed=0),
                              TrainConfig(**BENCH_TRAIN),
                              SamplingConfig(**BENCH_SAMPLING), variants,
                              range(N_SEEDS))
    wall = time.monotonic() - t0
    return {"summary": ablation_summary(runs),
            "records": {seed: runs[seed]["full"].records for seed in runs},
            "wall_seconds": wall}


# ---------------------------------------------------------------------------
# structural sampling bound (Katz tail)
# ---------------------------------------------------------------------------


def test_two_hop_truncation_bound_on_random_graphs():
    # 50 Erdos-Renyi graphs (n=100, p=0.05) at c=0.1: the Katz tail past 2
    # hops is at most c^2 of the whole
    t0 = time.monotonic()
    report = verify_structural_bound(50, np.random.default_rng(1234))
    assert report["trials"] == 50 and report["passed"]
    assert report["worst_margin"] <= 0.01 + 1e-12
    assert time.monotonic() - t0 < 30.0


def test_two_path_truncation_ratio_exact():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    ratio = structural_loss_ratio(A, KatzParams(lam=0.1))
    assert abs(ratio - 0.01) <= 1e-12


def test_katz_series_agrees_with_linear_solve():
    report = verify_katz_consistency(50, np.random.default_rng(5678))
    assert report["trials"] == 50 and report["passed"]
    assert report["worst_margin"] <= 1e-9


# ---------------------------------------------------------------------------
# aggregation SNR refinement
# ---------------------------------------------------------------------------


def test_snr_refinement_improves_on_random_neighborhoods():
    t0 = time.monotonic()
    report = verify_snr_refinement(trials=100)
    assert report["trials"] == 100 and report["passed"]
    assert time.monotonic() - t0 < 5.0


def test_snr_canonical_example_doubles():
    # four equal-weight neighbors, two relevant at 0.9: SNR 0.81 -> 1.62
    before = snr([1.0] * 4, [0.9, 0.9, 0.0, 0.0], 1.0, 1.0)
    after = snr([1.0, 1.0], [0.9, 0.9], 1.0, 1.0)
    assert before == pytest.approx(0.81, abs=1e-15)
    assert after == pytest.approx(1.62, abs=1e-15)


# ---------------------------------------------------------------------------
# temporal-bias gradient
# ---------------------------------------------------------------------------


def test_kernel_gradient_three_way_agreement_and_recovery():
    # tape, closed form and central differences agree; 20 ascents from 5
    # sigma below an event each end within sigma/10 of it after 200 steps
    t0 = time.monotonic()
    report = verify_mu_gradient(samples=1000, rng=np.random.default_rng(99))
    assert report["trials"] == 1000 and report["passed"]
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# Euler attention ratio
# ---------------------------------------------------------------------------


def test_unit_kernel_gap_multiplies_attention_odds_by_e():
    # content logit 0, then 50 drawn from [-8, 8): the odds are e whatever
    # the shift, the padded key gets nothing, and zero bias gives odds 1
    report = verify_euler_ratio(51, np.random.default_rng(11))
    assert report["trials"] == 51 and report["passed"]
    assert report["worst_margin"] <= 1e-6


# ---------------------------------------------------------------------------
# softmax normalization and the zero-bias equivalence
# ---------------------------------------------------------------------------


def test_attention_rows_normalized_over_many_passes(make_batch):
    rng = np.random.default_rng(21)
    layer = AttentionLayer("L", d=16, n_heads=2, rng=rng, dropout_rate=0.0)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        H = Tensor(rng.normal(size=(n, 16)) * 3)
        dt = rng.uniform(0, 40 * SECONDS_PER_DAY, size=n)
        with nc.no_grad():
            _, weights = layer.attend(H, make_batch(delta_ts=[dt]), return_weights=True)
        for alpha in weights:
            assert np.max(np.abs(alpha.sum(axis=-1) - 1.0)) <= 1e-9


def test_zero_bias_projection_is_bitwise_vanilla(make_batch):
    rng = np.random.default_rng(22)
    layer = AttentionLayer("L", d=16, n_heads=2, rng=rng, dropout_rate=0.0)
    layer.bias.proj_scale.data[:] = 0.0
    layer.bias.proj_shift.data[:] = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        H = Tensor(rng.normal(size=(n, 16)))
        dt = rng.uniform(0, 10 * SECONDS_PER_DAY, size=n)
        with nc.no_grad():
            biased = layer.attend(H, make_batch(delta_ts=[dt]), use_bias=True)
            vanilla = layer.attend(H, make_batch(delta_ts=[dt]), use_bias=False)
        assert np.array_equal(biased.data, vanilla.data)


# ---------------------------------------------------------------------------
# sampling invariants at scale
# ---------------------------------------------------------------------------


def test_sampling_causality_and_one_hop_retention_at_scale(bench_db):
    cfg, schema, tables, graph, splits = bench_db
    samp_cfg = SamplingConfig(**BENCH_SAMPLING)
    model = GelModel(ModelConfig(d=32, n_layers=1, pe_dim=8), schema, tables)
    embed = EmbeddingCache(model, graph, tables)
    tc = tables.tables[schema.task.target_table]
    seed_times = tc.timestamps[schema.task.seed_time_column]
    n_rows = tc.n_rows
    violations = 0
    total = 0
    for rep in range(5):  # 5 x 2000 entities = 10^4 subgraphs
        if rep == 1:
            embed.refresh()  # vary embeddings across repetitions
        for row in range(n_rows):
            node = graph.node_id(schema.task.target_table, row)
            st = float(seed_times[row])
            candidates = structural_sample(graph, node, st, samp_cfg)
            sub = sample_seed(graph, node, st, embed, samp_cfg)
            total += 1
            # causality: every non-seed node strictly precedes the seed
            times = graph.node_time[sub.nodes[1:]]
            if np.any(times >= st):
                violations += 1
            # every 1-hop stage-1 candidate survives refinement
            one_hop = candidates[candidates[:, 1] == 1, 0]
            if not np.isin(one_hop, sub.nodes).all():
                violations += 1
    assert total == 10_000
    assert violations == 0


# ---------------------------------------------------------------------------
# checkpoint layout
# ---------------------------------------------------------------------------

# sha256 of the JSON [[name, shape], ...] list of GelModel.parameters(),
# recorded when each layer still listed its parameters by hand. Checkpoints
# are read by name and shape, so a change here makes older ones unreadable.
PINNED_LAYOUTS = {
    "tiny": (98, "b96e7b230872f34f8a55777fd219a7559f32f9eda1050cb7e20117bb946e28e5"),
    "bench": (103, "61ce260c327cd9f0c6f7a18c0b4f7e25e8f16d7926b219cf2f8adda412fb9491"),
}


def test_checkpoint_layout_is_pinned(tiny_db, bench_db):
    tiny_schema, tiny_tables, _ = tiny_db
    _, schema, tables, _, _ = bench_db
    models = {
        "tiny": GelModel(ModelConfig(d=16, n_layers=2, n_heads=2, pe_dim=4, dropout=0.0),
                         tiny_schema, tiny_tables),
        "bench": GelModel(ModelConfig(**BENCH_MODEL, init_seed=0), schema, tables),
    }
    for name, model in models.items():
        layout = [[n, list(p.shape)] for n, p in model.parameters().items()]
        digest = hashlib.sha256(json.dumps(layout).encode()).hexdigest()
        assert (len(layout), digest) == PINNED_LAYOUTS[name], name


# ---------------------------------------------------------------------------
# end-to-end gradient check
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def four_node_setup(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("grad")
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
        "user_id,score,joined,label\nu1,2.0,1000000,1\nu2,1.0,900000,0\n")
    (tmp_path / "orders.csv").write_text(
        "order_id,user_id,placed,amount\n"
        "o1,u1,100000,3.0\no2,u1,400000,1.5\no3,u1,700000,2.5\n")
    schema = load_schema(str(tmp_path / "schema.json"))
    tables = load_tables(schema, str(tmp_path))
    graph = build_graph(schema, tables)
    return schema, tables, graph


def test_whole_model_gradient_matches_finite_differences(four_node_setup):
    t0 = time.monotonic()
    schema, tables, graph = four_node_setup
    model = GelModel(ModelConfig(d=16, n_layers=1, n_heads=2, pe_dim=4,
                                 dropout=0.0), schema, tables)
    embed = model.encoders.node_embedding(np.arange(graph.n_nodes), graph, tables)
    sub = sample_seed(graph, 0, float(graph.node_time[0]), embed.__getitem__,
                      SamplingConfig())
    assert sub.n_nodes == 4  # seed + its three events
    batch = batch_subgraphs([sub])

    def loss_value() -> float:
        with nc.no_grad():
            s = model.forward_batch(batch, tables, graph, run_seed=0).reshape(())
        return float(nc.softplus(s).data - 1.0 * s.data)

    params = model.parameters()
    nc.zero_grad(params.values())
    score = model.forward_batch(batch, tables, graph, run_seed=0)
    nc.backward(loss(score, 1.0, "binary_classification"))

    for name, p in params.items():
        analytic = np.atleast_1d(p.grad).ravel()
        flat = np.atleast_1d(p.data).ravel()
        numeric = np.empty_like(flat)
        h = 1e-6
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            numeric[i] = (up - down) / (2 * h)
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
        rel = np.abs(analytic - numeric).max() / scale
        assert rel < 1e-4, f"{name}: rel err {rel:.2e}"
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# planted-signal benchmark: ablation margins, mu recovery, reproducibility
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_ablation_margins_and_absolute_performance(ablation_sweep):
    summary = ablation_sweep["summary"]
    assert summary["mean"]["full"] > 0.80
    assert summary["margin"]["no-gaussian-bias"] >= 0.03
    assert summary["margin"]["no-semantic-refinement"] >= 0.01


def test_readme_study_runs_at_the_gates_database_and_configs():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    gen = re.search(r"echo '(.*)' > gen.json\nrelgauss gen --config gen.json "
                    r"--out bench/ --seed (\d+)\n", text)
    assert {**json.loads(gen[1]), "rng_seed": int(gen[2])} == BENCH_SYNTH
    study = re.search(r"cat > study.json <<'EOF'\n(.*?)\nEOF\nrelgauss ablate "
                      r"--data bench/ --config study.json --out study/ "
                      r"--seed 0 --seeds (\d+)\n", text, re.S)
    assert json.loads(study[1]) == {"model": BENCH_MODEL, "train": BENCH_TRAIN,
                                    "sampling": BENCH_SAMPLING}
    assert int(study[2]) == N_SEEDS


@pytest.mark.slow
def test_ablation_sweep_fits_runtime_budget(ablation_sweep):
    wall = ablation_sweep["wall_seconds"]
    assert wall < 600.0, f"ablation sweep took {wall:.1f} s, budget 600 s"


@pytest.mark.slow
def test_temporal_center_recovered(bench_db, ablation_sweep):
    cfg = bench_db[0]
    w_days = cfg.w / SECONDS_PER_DAY
    # true seed-relative window center: lead plus mean seed jitter
    jitter_mean = max(1, cfg.w // 4) / 2.0
    center = (cfg.seed_lead_seconds + jitter_mean) / SECONDS_PER_DAY
    for seed, records in ablation_sweep["records"].items():
        final_mu = records[-1]["mu_per_head"]
        best = min(abs(m - center) for m in final_mu)
        assert best <= w_days, f"seed {seed}: nearest mu {best:.2f}d off"


@pytest.mark.slow
def test_temporal_center_convergence_is_monotone(bench_db, ablation_sweep):
    cfg = bench_db[0]
    w_days = cfg.w / SECONDS_PER_DAY
    jitter_mean = max(1, cfg.w // 4) / 2.0
    center = (cfg.seed_lead_seconds + jitter_mean) / SECONDS_PER_DAY

    def converges(trace, head):
        # distance-to-final non-increasing over the epochs after epoch 3
        # (record index e-1 holds epoch e)
        d = [abs(t[head] - trace[-1][head]) for t in trace]
        return all(d[i + 1] <= d[i] + 1e-9 for i in range(3, len(d) - 1))

    ok = 0
    for seed, records in ablation_sweep["records"].items():
        mu_trace = [r["mu_per_head"] for r in records]
        sigma_trace = [r["sigma_per_head"] for r in records]
        final = mu_trace[-1]
        # some head that localized the planted center must converge
        # monotonically in both mu and sigma
        ok += any(converges(mu_trace, h) and converges(sigma_trace, h)
                  for h in range(len(final)) if abs(final[h] - center) <= w_days)
    assert ok >= 4, f"monotone convergence in only {ok}/{N_SEEDS} seeds"


def test_training_is_bit_reproducible(tmp_path):
    db = tmp_path / "db"
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n_entities": 200}))
    assert cli_main(["gen", "--config", str(gen_cfg), "--out", str(db),
                     "--seed", "0"]) == 0
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "model": {"d": 32, "n_layers": 1, "n_heads": 2, "pe_dim": 8},
        "train": {"epochs": 2, "batch_size": 32, "lr": 3e-4,
                  "micro_batch": 4},
        "sampling": {"stage1_budget": 16, "stage2_keep": 12},
    }))
    for name in ("r1", "r2"):
        assert cli_main(["train", "--data", str(db), "--config", str(run_cfg),
                         "--out", str(tmp_path / name), "--seed", "0",
                         "--quiet"]) == 0
    a = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    b = (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    assert a == b
