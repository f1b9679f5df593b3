import csv
import json

import pytest

from relgauss import cli
from relgauss import numcore as nc
from relgauss.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK,
                          EXIT_VERIFY_FAIL, main)
from relgauss.model import GelModel, ModelConfig


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
    cfg.write_text(json.dumps({"noise_event_fraction": 2.0}))
    code, _, err = run(capsys, "gen", "--config", str(cfg),
                       "--out", str(tmp_path / "db"))
    assert code == EXIT_CONFIG


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
    assert (out / "r1" / "checkpoint.json").exists() or \
        (out / "r1" / "checkpoint").exists() or \
        any(p.name.startswith("checkpoint") for p in (out / "r1").iterdir())


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


@pytest.mark.parametrize("raw, field", [({"train": {"micro_batch": 0}}, "micro_batch"),
                                        ({"model": {"d": 30, "n_heads": 4}}, "n_heads")])
def test_train_invalid_config_value_exits_2(gen_dir, tmp_path, capsys, raw, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                       str(cfg), "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and field in lines[0]


def test_train_sampling_deeper_than_model_exits_2(gen_dir, tmp_path, capsys):
    # the hop encoder has rows for hops 0..model.max_hop only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TRAIN_CONFIG, sampling={"max_hop": 3})))
    code, _, err = run(capsys, "train", "--data", str(gen_dir), "--config",
                       str(cfg), "--out", str(tmp_path / "r"), "--quiet")
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "max_hop" in err


def test_eval_sampling_deeper_than_model_exits_2(trained, gen_dir, tmp_path, capsys):
    out, _ = trained
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TRAIN_CONFIG, sampling={"max_hop": 3})))
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--config", str(cfg),
                       "--checkpoint", str(out / "r1" / "checkpoint"))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "max_hop" in err


def test_eval_from_checkpoint(trained, gen_dir, capsys):
    out, cfg = trained
    code, text, _ = run(capsys, "eval", "--data", str(gen_dir), "--config",
                        str(cfg), "--checkpoint", str(out / "r1" / "checkpoint"),
                        "--seed", "0")
    assert code == EXIT_OK
    info = json.loads(text)
    assert info["n_test"] > 0
    assert 0.0 <= info["auc"] <= 1.0


def assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_eval_checkpoint_of_another_width_exits_2(gen_dir, tmp_path, capsys):
    schema, tables, _ = cli._load_dataset(str(gen_dir))
    small = dict(TRAIN_CONFIG["model"], d=32)
    model = GelModel(ModelConfig(**small), schema, tables)
    nc.save_checkpoint(model.parameters(), str(tmp_path / "d32"))
    cfg = tmp_path / "d64.json"
    cfg.write_text(json.dumps(dict(TRAIN_CONFIG, model=dict(small, d=64))))
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "d32"))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "shape" in err


def test_eval_truncated_checkpoint_exits_2(trained, gen_dir, tmp_path, capsys):
    out, cfg = trained
    for ext in (".json", ".bin"):
        data = (out / "r1" / f"checkpoint{ext}").read_bytes()
        (tmp_path / f"cut{ext}").write_bytes(data[:-8] if ext == ".bin" else data)
    code, _, err = run(capsys, "eval", "--data", str(gen_dir), "--config", str(cfg),
                       "--checkpoint", str(tmp_path / "cut"))
    assert code == EXIT_CONFIG
    assert_one_error_line(err)
    assert "blob" in err
