import importlib.util
import json
import os

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO, "scripts", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_ms.tail", "better": "lower"},
           {"name": "rows_per_s", "better": "higher"}]


def test_summary_of_fixed_pairs():
    parent = [{"op_ms.tail": t, "rows_per_s": r}
              for t, r in ((50.0, 200.0), (52.0, 210.0), (48.0, 190.0), (54.0, 205.0))]
    change = [{"op_ms.tail": t, "rows_per_s": r}
              for t, r in ((42.0, 200.0), (44.0, 220.0), (49.0, 180.0), (40.0, 215.0))]
    tail, rate = bench_pairs.summarize(parent, change, METRICS)
    # parent tails 48, 50, 52, 54: median 51, quartiles 49.5 and 52.5
    assert (tail["parent"], tail["q1"], tail["q3"]) == (51.0, 49.5, 52.5)
    assert tail["change"] == 43.0
    assert tail["pct"] == pytest.approx(-15.686, abs=1e-3)
    assert (tail["won"], tail["pairs"], tail["beyond_iqr"]) == (3, 4, True)
    # higher is better; the tie in pair 0 counts for neither side
    assert rate["parent"] == 202.5 and rate["change"] == 207.5
    assert rate["won"] == 2 and not rate["beyond_iqr"]
    json.dumps([tail, rate])  # --out writes the rows as they are
    text = bench_pairs.format_rows([tail, rate])
    assert "won 3/4" in text and "won 2/4" in text


def test_metrics_are_the_benchmarks_end_to_end_metrics():
    names = [m["name"] for m in bench_pairs.end_to_end_metrics()]
    assert "op_ms.tail" in names and "peak_rss_mb" in names


def test_numerics_comparison_of_fixed_files():
    floats = np.array([1.0, -2.0, 0.5]).astype("<f8").tobytes()
    nudged = np.array([1.0, -2.0 - 2e-6, 0.5]).astype("<f8").tobytes()
    records = b'[{"epoch": 1, "eta": 0.5, "mu": [0.25, null], "tag": "full", "ok": true}]'
    lines = b'{"epoch": 1, "loss": 0.7}\n{"epoch": 2, "loss": 0.6}\n'
    parent = {"scores.bin": floats, "records.json": records, "metrics.jsonl": lines}
    change = {"scores.bin": nudged, "records.json": records,
              "metrics.jsonl": b'{"epoch": 1, "loss": 0.7}\n'}
    scores, recs, metrics = bench_pairs.compare_numerics(parent, change)
    assert not scores["equal"] and scores["values"] == [3, 3]
    assert scores["max_abs"] == pytest.approx(2e-6, rel=1e-9)
    assert scores["max_rel"] == pytest.approx(1e-6, rel=1e-9)
    # numbers in order, null as NaN, equal to itself; strings and booleans skipped
    np.testing.assert_array_equal(bench_pairs.numbers("records.json", records),
                                  [1.0, 0.5, 0.25, np.nan])
    assert recs["equal"] and recs["parent_sha256"] == recs["change_sha256"]
    assert (recs["max_abs"], recs["max_rel"]) == (0.0, 0.0)
    assert not metrics["equal"] and metrics["values"] == [4, 2]
    assert metrics["max_abs"] is None
    json.dumps([scores, recs, metrics])  # --out writes the rows as they are
    text = bench_pairs.format_numerics([scores, recs, metrics])
    assert text.count("DIFFERS") == 2 and "4 against 2 values" in text


def test_numerics_pass_within_a_scaled_tolerance():
    """A scaled difference is |change - parent| / max(1, |parent|): a weight
    near 0 that moves by 2e-15 reads a relative difference of 1.5 and a
    scaled one of 2e-15."""
    parent = {"checkpoint.bin": np.array([1.3e-15, 4.0, -1e3, np.nan]).astype("<f8").tobytes(),
              "records.json": b'[{"eta": 0.5}]'}
    change = {"checkpoint.bin": np.array([3.3e-15, 4.0 + 8e-15, -1e3 - 5e-10,
                                          np.nan]).astype("<f8").tobytes(),
              "records.json": b'[{"eta": 0.5}]'}
    ckpt, recs = rows = bench_pairs.compare_numerics(parent, change)
    assert not ckpt["equal"] and recs["equal"]
    assert ckpt["max_rel"] == pytest.approx(1.538, abs=1e-3)
    assert ckpt["max_scaled"] == pytest.approx(5e-13, rel=1e-3)
    assert recs["max_scaled"] == 0.0
    assert "max scaled 5e-13" in bench_pairs.format_numerics(rows)
    assert not bench_pairs.numerics_pass(rows, None)
    assert bench_pairs.numerics_pass(rows, 1e-12)
    assert not bench_pairs.numerics_pass(rows, 1e-13)
    # a NaN against a number, or a different count, passes no tolerance
    for data in (np.array([1.3e-15, 4.0, -1e3, 0.0]), np.array([1.3e-15, 4.0, -1e3])):
        moved = bench_pairs.compare_numerics(
            parent, dict(change, **{"checkpoint.bin": data.astype("<f8").tobytes()}))
        assert not bench_pairs.numerics_pass(moved, 1.0)
