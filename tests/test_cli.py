import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from relgauss import cli, trainer
from relgauss import numcore as nc
from relgauss.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                          EXIT_VERIFY_FAIL, main)
from relgauss.model import AblationFlags, ModelConfig, batch_subgraphs
from relgauss.relstore import load_schema, load_tables
from relgauss.sampler import SamplingConfig
from relgauss.trainer import TrainConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clidb")
    cfg = out / "gen.json"
    cfg.write_text(json.dumps({"n_entities": 50}))
    code = main(["gen", "--config", str(cfg), "--out", str(out / "db"),
                 "--seed", "3"])
    assert code == EXIT_OK
    return out / "db"


def test_gen_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_entities": 30}))
    for sub in ("a", "b"):
        code, out, _ = run(capsys, "gen", "--config", str(cfg),
                           "--out", str(tmp_path / sub), "--seed", "9")
        assert code == EXIT_OK
        assert json.loads(out)["rng_seed"] == 9
    assert (tmp_path / "a" / "events.csv").read_bytes() == \
        (tmp_path / "b" / "events.csv").read_bytes()


def test_gen_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_entities": 30, "bogus": 1}))
    code, _, err = run(capsys, "gen", "--config", str(cfg),
                       "--out", str(tmp_path / "db"))
    assert code == EXIT_CONFIG
    assert "bogus" in err


def test_gen_rejects_invalid_value(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    for raw, field in (({"noise_event_fraction": 2.0}, "noise_event_fraction"),
                       ({"n_events_per_entity": -1.0}, "n_events_per_entity"),
                       ({"n_entities": 0}, "n_entities"),
                       ({"n_entities": -3}, "n_entities")):
        cfg.write_text(json.dumps(raw))
        code, _, err = run(capsys, "gen", "--config", str(cfg),
                           "--out", str(tmp_path / "db"))
        assert code == EXIT_CONFIG
        assert_one_error_line(err)
        assert field in err
    assert not (tmp_path / "db").exists()


@pytest.mark.parametrize("raw, message", [
    # numpy drew past int64, or ingest refused the database gen wrote
    ({"t_star": 10**20}, "beyond ±2**53 s"),
    ({"w": 10**19}, "beyond ±2**53 s"),
    ({"t_star": -9 * 10**18}, "beyond ±2**53 s"),
    ({"n_events_per_entity": 1e300}, "Poisson limit"),
], ids=["t_star-high", "w", "t_star-low", "n_events_per_entity"])
def test_gen_config_past_what_can_be_drawn_or_read_exits_2(tmp_path, capsys, raw, message):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_entities": 30, **raw}))
    code, _, err = run(capsys, "gen", "--config", str(cfg), "--out", str(tmp_path / "db"))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert message in err
    assert not (tmp_path / "db").exists()


def test_gen_at_the_timestamp_bound_writes_what_ingest_reads(tmp_path, capsys):
    # a config whose timestamps reach up to 2**53 s: gen takes it, and ingest
    # reads what it writes
    w = 3 * 86400
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_entities": 30, "w": w,
                               "t_star": 2**53 - 6 * w - w // 4}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "db")]) == EXIT_OK
    code, _, err = run(capsys, "ingest", "--data", str(tmp_path / "db"))
    assert code == EXIT_OK, err


def test_train_on_too_few_rows_to_split_exits_2(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n_entities": 2}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "db")]) == EXIT_OK
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "db"),
                       "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "empty split" in err and "the 2 rows of 'entities'" in err


def test_gen_unreadable_config(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "db"))
    assert code == EXIT_CONFIG


def test_ingest_reports_graph(gen_dir, capsys):
    code, out, _ = run(capsys, "ingest", "--data", str(gen_dir))
    assert code == EXIT_OK
    info = json.loads(out)
    assert info["tables"]["entities"] == 50
    assert info["n_nodes"] == info["tables"]["entities"] + info["tables"]["events"]
    assert info["dangling_foreign_keys"] == 0
    with open(gen_dir / "events.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fk_cells = sum(bool(r[c]) for r in rows for c in ("entity_id", "partner_id"))
    assert info["n_edges"] == fk_cells > 0


def test_ingest_missing_dir(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--data", str(tmp_path / "nope"))
    assert code == EXIT_CONFIG


def _without_seed_time_column(raw):
    del raw["task"]["seed_time_column"]
    return raw


@pytest.mark.parametrize("damage, message", [
    (lambda raw: [raw], "schema must be a JSON object, not list"),
    (lambda raw: {"tables": raw["tables"]}, "schema has no 'task'"),
    (lambda raw: dict(raw, tables=[{"name": "entities"}]),
     "table 'entities' has no 'columns'"),
    (_without_seed_time_column, "task has no 'seed_time_column'"),
])
def test_ingest_malformed_schema_exits_2(gen_dir, tmp_path, capsys, damage, message):
    db = tmp_path / "db"
    shutil.copytree(gen_dir, db)
    raw = json.loads((db / "schema.json").read_text())
    (db / "schema.json").write_text(json.dumps(damage(raw)))
    code, _, err = run(capsys, "ingest", "--data", str(db))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert message in err


def test_sample_outputs_subgraph_json(gen_dir, capsys):
    code, out, _ = run(capsys, "sample", "--data", str(gen_dir), "--row", "0")
    assert code == EXIT_OK
    sub = json.loads(out)
    assert sub["hops"][0] == 0
    assert len(sub["nodes"]) == len(sub["hops"]) == len(sub["delta_t"])
    assert all(d >= 0 for d in sub["delta_t"])
    n = len(sub["nodes"])
    assert sub["edges"]
    for i, j in sub["edges"]:
        assert 0 <= i < j < n
    # each edge once, ordered by i then j
    pairs = [tuple(e) for e in sub["edges"]]
    assert pairs == sorted(set(pairs))
    assert json.loads(json.dumps(sub)) == sub


def test_sample_row_out_of_range(gen_dir, capsys):
    code, _, err = run(capsys, "sample", "--data", str(gen_dir),
                       "--row", "999")
    assert code == EXIT_CONFIG
    assert "out of range" in err


def test_verify_all_checks_pass(capsys, tmp_path):
    out_path = tmp_path / "verify.json"
    code, out, _ = run(capsys, "verify", "--out", str(out_path))
    assert code == EXIT_OK
    reports = json.loads(out_path.read_text())
    assert {r["check"] for r in reports} == {
        "katz_consistency", "structural_bound", "snr_refinement",
        "mu_gradient", "euler_ratio"}
    assert all(r["passed"] for r in reports)


def test_verify_only_filter(capsys):
    code, out, _ = run(capsys, "verify", "--only", "euler", "--only", "snr")
    assert code == EXIT_OK
    assert [r["check"] for r in json.loads(out)] == ["euler_ratio",
                                                     "snr_refinement"]


def test_verify_failure_exit_code(capsys, monkeypatch):
    import relgauss.oracles as oracles

    def failing():
        return {"check": "euler_ratio", "trials": 1, "passed": False,
                "worst_margin": 1.0}

    monkeypatch.setitem(oracles.ALL_CHECKS, "euler", failing)
    code, _, err = run(capsys, "verify", "--only", "euler")
    assert code == EXIT_VERIFY_FAIL
    assert "euler_ratio" in err


TRAIN_CONFIG = {
    "model": {"d": 16, "n_layers": 1, "n_heads": 2, "pe_dim": 4},
    "train": {"epochs": 2, "batch_size": 16, "lr": 1e-3, "micro_batch": 4},
    "sampling": {"stage1_budget": 10, "stage2_keep": 8},
}


@pytest.fixture(scope="module")
def trained(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code = main(["train", "--data", str(gen_dir), "--config", str(cfg),
                 "--out", str(out / "r1"), "--seed", "0", "--quiet"])
    assert code == EXIT_OK
    return out, cfg


def test_train_writes_metrics_and_checkpoint(trained, capsys):
    out, cfg = trained
    lines = (out / "r1" / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == TRAIN_CONFIG["train"]["epochs"]
    rec = json.loads(lines[0])
    assert rec["epoch"] == 1 and rec["ablation"] == "full"
    # the checkpoint carries every field of the run it was trained with
    assert nc.checkpoint_run(str(out / "r1" / "checkpoint")) == {
        "model": dataclasses.asdict(ModelConfig(**TRAIN_CONFIG["model"])),
        "train": dataclasses.asdict(TrainConfig(**TRAIN_CONFIG["train"])),
        "sampling": dataclasses.asdict(SamplingConfig(**TRAIN_CONFIG["sampling"])),
        "ablation": dataclasses.asdict(AblationFlags()),
    }


def test_train_rerun_is_byte_identical(trained, gen_dir, capsys):
    out, cfg = trained
    code, _, _ = run(capsys, "train", "--data", str(gen_dir), "--config",
                     str(cfg), "--out", str(out / "r2"), "--seed", "0",
                     "--quiet")
    assert code == EXIT_OK
    assert (out / "r1" / "metrics.jsonl").read_bytes() == \
        (out / "r2" / "metrics.jsonl").read_bytes()


def test_train_ablation_flag_named_in_metrics(trained, gen_dir, capsys):
    out, cfg = trained
    code, _, _ = run(capsys, "train", "--data", str(gen_dir), "--config",
                     str(cfg), "--out", str(out / "rb"), "--seed", "0",
                     "--quiet", "--no-gaussian-bias")
    assert code == EXIT_OK
    rec = json.loads((out / "rb" / "metrics.jsonl").read_text().split("\n")[0])
    assert rec["ablation"] == "no-gaussian-bias"


def test_train_unknown_config_section_field(gen_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                       str(cfg), "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    assert "learning_rate" in err


@pytest.mark.parametrize("raw, field", [
    ({"train": {"micro_batch": 0}}, "micro_batch"),
    ({"model": {"d": 30, "n_heads": 4}}, "n_heads"),
    # ablation switches are CLI flags only; as config fields they are unknown
    ({"model": {"no_gaussian_bias": True}}, "no_gaussian_bias"),
    ({"model": {"no_gnn_branch": True}}, "no_gnn_branch"),
    ({"train": {"epochs": 1.5}}, "epochs"),
    ({"train": {"epochs": True}}, "epochs"),
    ({"model": {"dropout": False}}, "dropout"),
    ({"model": None}, "ModelConfig"),
    ({"sampling": [1]}, "SamplingConfig"),
    ([1], "JSON object"),
    ({"modle": {}}, "modle"),
    ({"sampling": {"stage1_budget": 0, "stage2_keep": 0}}, "stage1_budget"),
    # the task kind comes from the schema; a config field for it is unknown
    ({"model": {"task_kind": "regression"}}, "task_kind"),
    ({"train": {"weight_decay": -1}}, "weight_decay"),
])
def test_train_invalid_config_value_exits_2(gen_dir, tmp_path, capsys, raw, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                       str(cfg), "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]


@pytest.mark.parametrize("command, seed, config", [
    ("gen", -1, "SynthConfig"),
    # positional features key on the seed mod 2**64, every numpy stream on all of it
    ("train", 2**64, "TrainConfig"),
])
def test_a_seed_out_of_range_exits_2(gen_dir, tmp_path, capsys, command, seed, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG if command == "train" else {"n_entities": 30}))
    args = ["--data", str(gen_dir), "--quiet"] if command == "train" else []
    code, _, err = run(capsys, command, *args, "--config", str(cfg),
                       "--out", str(tmp_path / "out"), "--seed", str(seed))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert f"invalid {config}: rng_seed" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, raw, field", [
    ("train", {"train": {"lr": float("nan")}}, "lr"),
    ("train", {"train": {"bias_lr_multiplier": float("inf")}}, "bias_lr_multiplier"),
    ("train", {"train": {"weight_decay": float("nan")}}, "weight_decay"),
    ("train", {"model": {"dropout": float("-inf")}}, "dropout"),
    ("gen", {"n_events_per_entity": float("nan")}, "n_events_per_entity"),
    ("gen", {"noise_feature_dim_shift": float("inf")}, "noise_feature_dim_shift"),
])
def test_non_finite_config_value_exits_2(gen_dir, tmp_path, capsys, command, raw, field):
    # Python's json writes and reads NaN and Infinity
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    args = ["--data", str(gen_dir), "--quiet"] if command == "train" else []
    code, _, err = run(capsys, command, *args, "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert f"{field}=" in err and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_non_finite_value_in_a_checkpoint_run_exits_2(trained, gen_dir, tmp_path, capsys):
    out, _ = trained
    path = edited_checkpoint(out / "r1", tmp_path, with_run("train", lr=float("nan")))
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "lr=nan" in err


@pytest.mark.parametrize("command, field", [
    ("gen", "n_events_per_entity"),
    ("gen", "noise_feature_dim_shift"),
    ("train", "lr"),
    ("eval", "lr"),
    # an int field too: numpy sizes no array by such an int, and the model's
    # first weight used to raise a traceback
    ("train", "d"),
    ("eval", "d"),
])
def test_an_int_too_large_for_a_float_field_exits_2(trained, gen_dir, tmp_path, capsys,
                                                    command, field):
    # json reads an int of any size, and float64 holds none past about 1.8e308
    huge = 10**400
    section = "model" if field == "d" else "train"
    if command == "eval":
        path = edited_checkpoint(trained[0] / "r1", tmp_path,
                                 with_run(section, **{field: huge}))
        argv = ["--data", str(gen_dir), "--checkpoint", path]
    else:
        cfg = tmp_path / "cfg.json"
        raw = {field: huge} if command == "gen" else {section: {field: huge}}
        cfg.write_text(json.dumps(raw))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        if command == "train":
            argv += ["--data", str(gen_dir), "--quiet"]
    code, _, err = run(capsys, command, *argv)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert f"{field} is an int of 401 digits, too large for a float" in err
    assert not (tmp_path / "out").exists()


def test_train_huge_lr_exits_3_naming_the_parameter(gen_dir, tmp_path, capsys):
    # a finite lr whose first update overflows the bias scalars
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TRAIN_CONFIG, "train": {
        **TRAIN_CONFIG["train"], "lr": 1e308, "epochs": 1, "max_steps_per_epoch": 1}}))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_NUMERIC
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric abort: non-finite parameter")
    assert ".bias." in lines[0]


def test_train_non_finite_validation_metric_exits_3(gen_dir, tmp_path, capsys):
    # one update leaves every parameter finite, but so large that the eval
    # forward gives NaN scores
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TRAIN_CONFIG, "train": {
        **TRAIN_CONFIG["train"], "lr": 1e200, "bias_lr_multiplier": 1.0,
        "epochs": 1, "max_steps_per_epoch": 1}}))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_NUMERIC
    assert err.strip().splitlines() == [
        "numeric abort: non-finite validation metric at epoch 1"]


def test_numeric_abort_prints_one_line(gen_dir, tmp_path):
    # in a child process, where numpy's overflow warnings would reach stderr
    # as they do in a shell; pytest captures them in its own process
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TRAIN_CONFIG["model"], "train": {
        "lr": 1e200, "bias_lr_multiplier": 1.0, "epochs": 1, "max_steps_per_epoch": 1,
        "batch_size": 8}}))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), PYTHONWARNINGS="default")
    proc = subprocess.run([sys.executable, "-m", "relgauss.cli", "train", "--data",
                           str(gen_dir), "--config", str(cfg), "--out", str(tmp_path / "r"),
                           "--quiet"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stderr.splitlines() == [
        "numeric abort: non-finite validation metric at epoch 1"]


# run in a child process so that the BLAS thread count takes effect
BLAS_DRIVER = """
import hashlib, sys
from relgauss import cli
train = cli.train

def recorded(*args, **kwargs):
    result = train(*args, **kwargs)
    print(hashlib.sha256(result.test_scores.tobytes()).hexdigest())
    return result

cli.train = recorded
sys.exit(cli.main(sys.argv[1:]))
"""


def test_training_is_bit_identical_across_blas_threads(gen_dir, tmp_path):
    # d=64 and 8-subgraph micro-batches make products big enough for
    # OpenBLAS to split them across threads; about 5 s on 2 vCPUs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"d": 64, "n_layers": 2, "n_heads": 4, "pe_dim": 8},
        "train": {"epochs": 2, "batch_size": 16, "max_steps_per_epoch": 2,
                  "micro_batch": 8, "lr": 1e-3},
        "sampling": {"stage1_budget": 32, "stage2_keep": 20}}))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", BLAS_DRIVER, "train", "--data",
                               str(gen_dir), "--config", str(cfg), "--out", str(out),
                               "--seed", "0", "--quiet"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        files = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("metrics.jsonl", "checkpoint.bin")]
        digests.append((proc.stdout.splitlines()[0], *files))
    assert digests[0] == digests[1]


def test_train_sampling_deeper_than_model_exits_2(gen_dir, tmp_path, capsys):
    # the hop encoder has rows for hops 0..model.max_hop only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TRAIN_CONFIG, sampling={"max_hop": 3})))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                       str(cfg), "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "max_hop" in err


def assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def edited_checkpoint(run_dir, dst, manifest=None, blob=None):
    """A copy of ``run_dir``'s checkpoint at ``dst``, its manifest and blob
    passed through the given edits."""
    data = json.loads((run_dir / "checkpoint.json").read_text())
    (dst / "checkpoint.json").write_text(json.dumps(manifest(data) if manifest else data))
    data = (run_dir / "checkpoint.bin").read_bytes()
    (dst / "checkpoint.bin").write_bytes(blob(data) if blob else data)
    return str(dst / "checkpoint")


def with_run(section, **fields):
    """A manifest edit that sets ``fields`` in one section of the run."""
    def edit(manifest):
        manifest["run"][section].update(fields)
        return manifest
    return edit


@pytest.mark.parametrize("flags", [
    [], ["--no-structural-sampling"], ["--no-gaussian-bias", "--no-gnn-branch"],
    ["--no-semantic-refinement"],
], ids=lambda flags: "+".join(f[2:] for f in flags) or "full")
def test_eval_prints_the_test_metric_train_printed(trained, gen_dir, tmp_path, capsys,
                                                   flags):
    _, cfg = trained
    code, out, err = run(capsys, "train", "--data", str(gen_dir), "--config", str(cfg),
                         "--out", str(tmp_path / "r"), "--seed", "3", "--quiet", *flags)
    assert code == EXIT_OK, err
    code, text, err = run(capsys, "eval", "--data", str(gen_dir),
                          "--checkpoint", str(tmp_path / "r" / "checkpoint"))
    assert code == EXIT_OK, err
    assert json.loads(text)["auc"] == json.loads(out)["test_metric"]


@pytest.mark.parametrize("option", [
    ["--config", "cfg.json"], ["--seed", "0"], ["--no-gaussian-bias"],
    ["--no-structural-sampling"], ["--no-semantic-refinement"], ["--no-gnn-branch"],
])
def test_eval_takes_no_run_options(trained, gen_dir, capsys, option):
    out, _ = trained
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", str(gen_dir),
              "--checkpoint", str(out / "r1" / "checkpoint"), *option])
    assert exc.value.code == EXIT_CONFIG


def test_eval_sampling_deeper_than_model_exits_2(trained, gen_dir, tmp_path, capsys):
    out, _ = trained
    path = edited_checkpoint(out / "r1", tmp_path, with_run("sampling", max_hop=3))
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "max_hop" in err


def without_run_field(section, field):
    def edit(manifest):
        del manifest["run"][section][field]
        return manifest
    return edit


@pytest.mark.parametrize("manifest, blob, message", [
    # format 1 was the bare parameter list, with no run
    (lambda m: m["params"], None, "retrain"),
    # format 2 was trained against other positional features
    pytest.param(lambda m: dict(m, format=2), None, "retrain", id="format-2"),
    # format 3 was trained with the erf form of GELU
    pytest.param(lambda m: dict(m, format=3), None, "retrain", id="format-3"),
    (with_run("model", d=30, n_heads=4), None, "n_heads"),
    (with_run("ablation", no_gnn_branch=1), None, "no_gnn_branch"),
    (with_run("ablation", no_dropout=True), None, "no_dropout"),
    (lambda m: dict(m, run={**m["run"], "ablation": None}), None, "AblationFlags"),
    (lambda m: dict(m, run={**m["run"], "bogus": {}}), None, "bogus"),
    # a field left out would silently take its default
    (lambda m: dict(m, run={k: v for k, v in m["run"].items() if k != "sampling"}),
     None, "every field"),
    (without_run_field("train", "rng_seed"), None, "every field"),
    (None, lambda b: b[:9] + bytes([b[9] ^ 1]) + b[10:], "sha256"),
    # an entry the model lacks used to be ignored
    pytest.param(lambda m: dict(m, params=m["params"] + [{"name": "extra", "shape": [1]}]),
                 lambda b: b + bytes(8), "'extra', which the model lacks", id="extra-entry"),
])
def test_eval_damaged_checkpoint_exits_2(trained, gen_dir, tmp_path, capsys,
                                         manifest, blob, message):
    out, _ = trained
    path = edited_checkpoint(out / "r1", tmp_path, manifest, blob)
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert message in err


def test_eval_from_checkpoint(trained, gen_dir, capsys):
    out, _ = trained
    code, text, _ = run(capsys, "eval", "--data", str(gen_dir),
                        "--checkpoint", str(out / "r1" / "checkpoint"))
    assert code == EXIT_OK
    info = json.loads(text)
    assert info["n_test"] > 0
    assert 0.0 <= info["auc"] <= 1.0


def test_eval_batches_follow_train_micro_batch(trained, gen_dir, tmp_path, capsys,
                                               monkeypatch):
    out, _ = trained
    sizes = []

    def counted(subs):
        sizes.append(len(subs))
        return batch_subgraphs(subs)

    monkeypatch.setattr(trainer, "batch_subgraphs", counted)
    path = edited_checkpoint(out / "r1", tmp_path, with_run("train", micro_batch=3))
    code, text, _ = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_OK
    assert sum(sizes) == json.loads(text)["n_test"] > 3
    assert max(sizes) == 3


def test_eval_checkpoint_of_another_width_exits_2(trained, gen_dir, tmp_path, capsys):
    out, _ = trained
    # the run says d=64, the parameters are those of the trained d=16 model
    path = edited_checkpoint(out / "r1", tmp_path, with_run("model", d=64))
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "shape" in err


@pytest.mark.parametrize("field, value", [
    ("n_layers", 3), ("gin_layers", 5), ("d", 32), ("pe_dim", 8), ("max_hop", 4)])
def test_eval_of_a_run_its_parameters_do_not_fit_exits_2(trained, gen_dir, tmp_path,
                                                         capsys, field, value):
    """The run's model fields that size its weights are compared with the
    manifest before any weight is made, so that an edited n_layers of 10**6
    cannot allocate until the process dies."""
    out, _ = trained
    path = edited_checkpoint(out / "r1", tmp_path, with_run("model", **{field: value}))
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert f"model.{field}={value}," in err


def test_eval_truncated_checkpoint_exits_2(trained, gen_dir, tmp_path, capsys):
    out, _ = trained
    path = edited_checkpoint(out / "r1", tmp_path, blob=lambda b: b[:-8])
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "blob" in err


def resigned(run_dir, index, value):
    """Manifest and blob edits for ``edited_checkpoint``: float ``index`` of
    ``run_dir``'s blob set to ``value``, and the manifest's sha256 re-signed."""
    weights = np.frombuffer((run_dir / "checkpoint.bin").read_bytes(), dtype="<f8").copy()
    weights[index] = value
    blob = weights.tobytes()
    digest = hashlib.sha256(blob).hexdigest()
    return (lambda m: dict(m, sha256=digest)), (lambda _: blob)


@pytest.mark.parametrize("index, value", [(-1, float("nan")), (slice(None), 1e308)],
                         ids=["nan-head-bias", "every-weight-1e308"])
def test_eval_of_weights_giving_a_non_finite_score_exits_3(trained, gen_dir, tmp_path,
                                                           capsys, index, value):
    run_dir = trained[0] / "r1"
    path = edited_checkpoint(run_dir, tmp_path, *resigned(run_dir, index, value))
    code, out, err = run(capsys, "eval", "--data", str(gen_dir), "--checkpoint", path)
    assert code == EXIT_NUMERIC and out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("numeric abort: non-finite test score at target row ")


def _leaf_paths(node, path=()):
    """The path of every leaf of a JSON tree, in document order."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _leaf_paths(value, (*path, key))]
    return [path]


def with_leaf(section, pick, value):
    """A manifest edit that sets leaf ``pick`` (modulo their count) of the
    manifest's ``section`` to ``value``."""
    def edit(manifest):
        leaves = _leaf_paths(manifest[section], (section,))
        *parents, key = leaves[pick % len(leaves)]
        node = manifest
        for step in parents:
            node = node[step]
        node[key] = value
        return manifest
    return edit


def _no_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


# a leaf's stand-in: small numbers, so that no accepted run builds a large
# model, and the values json reads that no float64 holds
JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 16), st.floats(),
    st.sampled_from([2**1024, -2**1024, 10**400]), st.text(max_size=4),
    st.lists(st.integers(-2, 16), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 16), max_size=1))
# (kind, where, value); an int ``where`` picks a leaf, float or byte modulo their count
CHECKPOINT_DAMAGE = st.one_of(
    st.tuples(st.just("leaf"), st.tuples(st.sampled_from(["format", "sha256", "params",
                                                          "run"]), st.integers(0, 10**6)),
              JSON_LEAF),
    st.tuples(st.just("float"), st.integers(0, 10**6), st.floats()),
    st.tuples(st.just("byte"), st.integers(0, 10**6), st.integers(0, 7)))


# 42 evals in about 0.35 s on 2 vCPUs, after the `trained` fixture
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=CHECKPOINT_DAMAGE)
@example(damage=("float", -1, float("nan")))  # the head's bias: every score NaN
@example(damage=("leaf", ("params", 1), float("inf")))  # the first shape's first entry
@example(damage=("leaf", ("params", 1), 8.5))
@example(damage=("leaf", ("params", 1), True))
def test_any_damaged_checkpoint_evals_or_exits_with_one_line(trained, gen_dir, damage):
    kind, where, value = damage
    run_dir = trained[0] / "r1"
    n_bytes = (run_dir / "checkpoint.bin").stat().st_size
    if kind == "leaf":
        edits = (with_leaf(*where, value), None)
    elif kind == "float":
        edits = resigned(run_dir, where % (n_bytes // 8), value)
    else:
        at = where % n_bytes
        edits = (None, lambda b: b[:at] + bytes([b[at] ^ 1 << value]) + b[at + 1:])
    with tempfile.TemporaryDirectory() as tmp:
        path = edited_checkpoint(run_dir, pathlib.Path(tmp), *edits)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["eval", "--data", str(gen_dir), "--checkpoint", path])
    if code == EXIT_OK:
        assert err.getvalue() == ""
        [line] = out.getvalue().splitlines()
        json.loads(line, parse_constant=_no_constant)
    else:
        assert code in (EXIT_CONFIG, EXIT_NUMERIC), code
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


TINY_RUN = {
    "model": {"d": 8, "n_layers": 1, "n_heads": 2, "pe_dim": 4, "gin_layers": 1},
    "train": {"epochs": 1, "max_steps_per_epoch": 1, "batch_size": 8, "micro_batch": 8},
    "sampling": {"stage1_budget": 8, "stage2_keep": 4},
}
def _mostly(common, rare):
    """Draws from ``common`` three times in four, else from ``rare``."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 0 else common)


# numbers from a small range only, so that every accepted config stays tiny;
# mostly objects of ints, so that many drawn configs are accepted and train
JSON_VALUE = st.one_of(st.none(), st.booleans(), st.floats(-2, 16),
                       st.text(max_size=3), st.lists(st.integers(-2, 16), max_size=2))
FIELD_VALUE = _mostly(st.integers(-2, 16), JSON_VALUE)


def _section(cls):
    keys = st.sampled_from([f.name for f in dataclasses.fields(cls)] + ["bogus"])
    return _mostly(st.dictionaries(keys, FIELD_VALUE, max_size=2), FIELD_VALUE)


RUN_CONFIG = _mostly(
    st.fixed_dictionaries({}, optional={"model": _section(ModelConfig),
                                        "train": _section(TrainConfig),
                                        "sampling": _section(SamplingConfig)}),
    st.one_of(FIELD_VALUE, st.fixed_dictionaries({"bogus": FIELD_VALUE})))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=RUN_CONFIG, flags=st.sets(st.sampled_from(
    ["--no-structural-sampling", "--no-semantic-refinement", "--no-gaussian-bias",
     "--no-gnn-branch"])))
def test_any_run_config_trains_or_exits_with_one_line(gen_dir, raw, flags):
    # each drawn section field overrides the tiny run's, which trains one step
    if isinstance(raw, dict):
        raw = {k: {**TINY_RUN[k], **v} if isinstance(v, dict) and k in TINY_RUN else v
               for k, v in {**TINY_RUN, **raw}.items()}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--data", str(gen_dir), "--config", cfg,
                         "--out", os.path.join(tmp, "r"), "--quiet", *sorted(flags)])
    if code == EXIT_OK:
        assert err.getvalue() == ""
    else:
        assert code in (EXIT_CONFIG, EXIT_NUMERIC), code
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()


def test_sample_reads_the_run_config(gen_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"

    def hops(stage2_keep):
        cfg.write_text(json.dumps(dict(TRAIN_CONFIG, sampling={
            "stage1_budget": 100, "stage2_keep": stage2_keep})))
        code, out, err = run(capsys, "sample", "--data", str(gen_dir), "--row", "0",
                             "--config", str(cfg))
        assert code == EXIT_OK, err
        return json.loads(out)["hops"]

    # stage 2 keeps the seed and its 1-hop candidates, then fills up to
    # stage2_keep nodes with deeper ones
    shallow = hops(1)
    assert max(shallow) == 1
    deep = hops(len(shallow) + 2)
    assert deep[:len(shallow)] == shallow and deep[len(shallow):] == [2, 2]


def test_ablate_runs_every_variant_like_train(gen_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code, _, err = run(capsys, "ablate", "--data", str(gen_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "ab"), "--seed", "0")
    assert code == EXIT_OK, err
    summary = json.loads((tmp_path / "ab" / "ablation_summary.json").read_text())
    names = ["full", "no-structural-sampling", "no-semantic-refinement",
             "no-gaussian-bias", "no-gnn-branch"]
    assert [s["ablation"] for s in summary["runs"]] == names
    for entry in summary["runs"]:
        name = entry["ablation"]
        assert entry["rng_seed"] == 0
        lines = (tmp_path / "ab" / f"metrics_{name}_seed0.jsonl").read_text().splitlines()
        assert len(lines) == TRAIN_CONFIG["train"]["epochs"]
        assert all(json.loads(line)["ablation"] == name for line in lines)
        flag = [] if name == "full" else [f"--{name}"]
        code, out, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                             str(cfg), "--out", str(tmp_path / name), "--seed", "0",
                             "--quiet", *flag)
        assert code == EXIT_OK, err
        assert json.loads(out) == {k: entry[k] for k in
                                   ("ablation", "best_val_metric", "test_metric")}, name
        assert summary["mean"][name] == entry["test_metric"]


def test_ablate_over_seeds_holds_the_init_seed_and_steps_the_training_seed(
        gen_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code, _, err = run(capsys, "ablate", "--data", str(gen_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "ab"), "--seed", "0", "--seeds", "2")
    assert code == EXIT_OK, err
    summary = json.loads((tmp_path / "ab" / "ablation_summary.json").read_text())
    assert sorted({e["rng_seed"] for e in summary["runs"]}) == [0, 1]
    assert sorted(os.listdir(tmp_path / "ab")) == sorted(
        ["ablation_summary.json"] + [f"metrics_{e['ablation']}_seed{e['rng_seed']}.jsonl"
                                     for e in summary["runs"]])
    test = {(e["rng_seed"], e["ablation"]): e["test_metric"] for e in summary["runs"]}
    for seed in (0, 1):
        run_cfg = tmp_path / f"run{seed}.json"
        run_cfg.write_text(json.dumps({**TRAIN_CONFIG,
                                       "model": {**TRAIN_CONFIG["model"], "init_seed": 0},
                                       "train": {**TRAIN_CONFIG["train"], "rng_seed": seed}}))
        for name in ("full", "no-gaussian-bias"):
            flag = [] if name == "full" else [f"--{name}"]
            code, out, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                                 str(run_cfg), "--out", str(tmp_path / f"{name}{seed}"),
                                 "--quiet", *flag)
            assert code == EXIT_OK, err
            assert json.loads(out)["test_metric"] == test[seed, name], (seed, name)
    # the means and margins are those of the entries
    by_name: dict = {}
    for e in summary["runs"]:
        by_name.setdefault(e["ablation"], []).append(e["test_metric"])
    mean = {name: sum(v) / len(v) for name, v in by_name.items()}
    assert summary["mean"] == mean
    assert summary["margin"] == {name: mean["full"] - m for name, m in mean.items()
                                 if name != "full"}


@pytest.mark.parametrize("seed, seeds", [(0, 0), (0, -2), (2**64 - 2, 3)])
def test_ablate_seeds_the_sweep_cannot_reach_exit_2(gen_dir, tmp_path, capsys, seed, seeds):
    # rng seeds seed .. seed+seeds-1 must be at least one, each in [0, 2**64)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code, _, err = run(capsys, "ablate", "--data", str(gen_dir), "--config", str(cfg),
                       "--out", str(tmp_path / "ab"), "--seed", str(seed),
                       "--seeds", str(seeds))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert f"--seeds {seeds}" in err
    assert not (tmp_path / "ab").exists()


def bad_events_db(gen_dir, tmp_path, row):
    db = tmp_path / "db"
    shutil.copytree(gen_dir, db)
    with open(db / "events.csv", "a") as fh:
        fh.write(row)
    with open(db / "events.csv") as fh:
        return db, sum(1 for _ in fh)


@pytest.mark.parametrize("row, column", [
    ("evX,e0,e1,5,0.5\n", "magnitude"),          # a cell short
    ("evX,e0,e1,5,0.5,0.1,7\n", "magnitude"),    # a cell over
    ("evX,e0,e1,5,abc,0.1\n", "intensity"),      # not a number
])
def test_train_on_a_bad_csv_row_exits_2(gen_dir, tmp_path, capsys, row, column):
    db, last_line = bad_events_db(gen_dir, tmp_path, row)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code, _, err = run(capsys, "train", "--data", str(db), "--config", str(cfg),
                       "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "events.csv" in err and f"line {last_line}" in err and repr(column) in err


@pytest.mark.parametrize("seconds", [2**53 + 1, 2**60 + 1, -(2**53 + 1),
                                     99999999999999999999])
def test_ingest_of_a_timestamp_beyond_2_to_the_53_exits_2(gen_dir, tmp_path, capsys,
                                                          seconds):
    """float64 holds every whole second up to 2**53 and no further, so a
    later or earlier time would be stored rounded."""
    db, last_line = bad_events_db(gen_dir, tmp_path, f"evX,e0,e1,{seconds},0.5,0.1\n")
    code, _, err = run(capsys, "ingest", "--data", str(db))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "events.csv" in err and f"line {last_line}" in err and "'event_time'" in err


def db_with_label(gen_dir, tmp_path, row, label, kind):
    """A copy of the database with one target cell replaced and the task's kind set."""
    db = tmp_path / "db"
    shutil.copytree(gen_dir, db)
    with open(db / "entities.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "label"
    rows[row + 1][-1] = label
    with open(db / "entities.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    schema = json.loads((db / "schema.json").read_text())
    schema["task"]["kind"] = kind
    (db / "schema.json").write_text(json.dumps(schema))
    return db


@pytest.mark.parametrize("kind, label, shown", [
    ("binary_classification", "2", "2.0"),
    ("binary_classification", "0.5", "0.5"),
    ("binary_classification", "", "nan"),    # a blank cell
    ("regression", "", "nan"),
    ("regression", "2.5", None),             # any finite value is a regression target
])
def test_train_on_a_bad_target_exits_2(gen_dir, tmp_path, capsys, kind, label, shown):
    db = db_with_label(gen_dir, tmp_path, 3, label, kind)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code, _, err = run(capsys, "train", "--data", str(db), "--config", str(cfg),
                       "--out", str(tmp_path / "r"), "--quiet")
    if shown is None:
        assert code == EXIT_OK, err
        return
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert ("'entities'" in err and "'label'" in err and "row 3:" in err
            and f"target {shown} " in err), err


@pytest.mark.parametrize("table, column, cell", [
    ("events", "intensity", "inf"), ("events", "intensity", "1e400"),
    ("events", "intensity", "-inf"), ("entities", "label", "inf")])
def test_an_infinite_numerical_cell_exits_2(gen_dir, tmp_path, capsys, table, column,
                                            cell):
    """float() reads these as +-inf; they used to load and be imputed as missing."""
    if table == "events":
        db, line = bad_events_db(gen_dir, tmp_path, f"evX,e0,e1,5,{cell},0.1\n")
    else:  # a regression target, which any finite value may be
        db, line = db_with_label(gen_dir, tmp_path, 3, cell, "regression"), 5
    code, _, err = run(capsys, "ingest", "--data", str(db))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert f"{table}.csv line {line} column {column!r}" in err and "not a finite" in err


def test_a_blank_numerical_cell_loads_as_missing(gen_dir, tmp_path, capsys):
    db, _ = bad_events_db(gen_dir, tmp_path, "evX,e0,e1,5,,0.1\n")
    code, _, _ = run(capsys, "ingest", "--data", str(db))
    assert code == EXIT_OK
    schema = load_schema(str(db / "schema.json"))
    assert np.isnan(load_tables(schema, str(db)).tables["events"].numerical["intensity"][-1])


@pytest.mark.parametrize("command", ["ingest", "sample", "train"])
def test_a_column_name_repeated_in_a_table_exits_2(gen_dir, tmp_path, capsys, command):
    """A second 'intensity' column used to overwrite the first one's values."""
    db = tmp_path / "db"
    shutil.copytree(gen_dir, db)
    schema = json.loads((db / "schema.json").read_text())
    for table in schema["tables"]:
        for column in table["columns"]:
            if column["name"] == "magnitude":
                column["name"] = "intensity"
    (db / "schema.json").write_text(json.dumps(schema))
    header, rest = (db / "events.csv").read_text().split("\n", 1)
    assert "intensity" in header.split(",")
    (db / "events.csv").write_text(header.replace("magnitude", "intensity") + "\n" + rest)
    args = {"ingest": [], "sample": ["--row", "0"],
            "train": ["--out", str(tmp_path / "r"), "--quiet"]}[command]
    code, _, err = run(capsys, command, "--data", str(db), *args)
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "duplicate column name 'intensity' in table 'events'" in err


def test_train_on_a_categorical_target_exits_2(gen_dir, tmp_path, capsys):
    db = tmp_path / "db"
    shutil.copytree(gen_dir, db)
    schema = json.loads((db / "schema.json").read_text())
    for table in schema["tables"]:
        for column in table["columns"]:
            if column["name"] == schema["task"]["target_column"]:
                column["kind"] = "categorical"
    (db / "schema.json").write_text(json.dumps(schema))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    code, _, err = run(capsys, "train", "--data", str(db), "--config", str(cfg),
                       "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "'label'" in err and "numerical" in err, err


@pytest.mark.parametrize("command, out", [
    ("gen", "file"),
    ("sample", "missing/sub.json"),
    ("sample", "file/sub.json"),
    ("train", "file"),
    ("verify", "missing/verify.json"),
    ("ablate", "file"),
])
def test_unwritable_out_exits_2_naming_the_path(gen_dir, tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    data = ["--data", str(gen_dir)]
    argv = {"gen": [],
            "sample": [*data, "--row", "0"],
            "train": [*data, "--config", str(cfg), "--quiet"],
            "verify": ["--only", "katz"],
            "ablate": [*data, "--config", str(cfg)]}[command]
    code, _, err = run(capsys, command, *argv, "--out", str(tmp_path / out))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert str(tmp_path / out) in err


@pytest.fixture(scope="module")
def headless_db(gen_dir, tmp_path_factory):
    """``gen_dir`` with ``entities.csv`` cut to its header: every event's
    foreign keys dangle, and there is no target row."""
    db = tmp_path_factory.mktemp("headless") / "db"
    shutil.copytree(gen_dir, db)
    header = (db / "entities.csv").read_text().splitlines()[0]
    (db / "entities.csv").write_text(header + "\n")
    return db


def run_child(*argv) -> subprocess.CompletedProcess:
    """``relgauss`` in a child process, whose stderr gets what logging
    prints where no handler is set up, as in a shell."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run([sys.executable, "-m", "relgauss.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command", ["sample", "train", "eval"])
def test_a_failing_command_prints_its_error_alone(headless_db, trained, tmp_path,
                                                  command):
    """The dangling-key warning of loading the database is held back when
    the command then exits 2."""
    out, _ = trained
    argv = {"sample": ["--row", "0"],
            "train": ["--out", str(tmp_path / "r"), "--quiet"],
            "eval": ["--checkpoint", str(out / "r1" / "checkpoint")]}[command]
    proc = run_child(command, "--data", str(headless_db), *argv)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert_one_error_line(proc.stderr)


def test_ingest_of_a_headless_table_still_warns(headless_db):
    proc = run_child("ingest", "--data", str(headless_db))
    assert proc.returncode == EXIT_OK, proc.stderr
    n = json.loads(proc.stdout)["dangling_foreign_keys"]
    assert n > 0
    assert proc.stderr.splitlines() == [f"dropped {n} dangling foreign-key edges"]


@pytest.mark.parametrize("command", ["sample", "train"])
def test_a_closed_stdout_exits_nonzero_with_at_most_one_line(gen_dir, tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAIN_CONFIG))
    argv = {"sample": ["--row", "0"],
            # not --quiet: the per-epoch records go to stdout
            "train": ["--config", str(cfg), "--out", str(tmp_path / "r")]}[command]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "relgauss.cli", command, "--data",
                             str(gen_dir), *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the reader leaves before the command writes a byte
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == cli.EXIT_PIPE, err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, err


def test_importing_the_cli_leaves_scipy_stats_out():
    # scipy.stats alone costs every relgauss process about 46 MB resident
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", "import sys, relgauss.cli; "
                           "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_demo_pipeline_commands_parse():
    with open(os.path.join(REPO, "scripts", "demo_pipeline.sh")) as fh:
        lines = fh.read().replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if "relgauss.cli" in line]
    assert [c[3] for c in commands] == ["gen", "ingest", "sample", "train", "eval",
                                        "verify"]
    for words in commands:
        cli.build_parser().parse_args(words[words.index("relgauss.cli") + 1:])
