import importlib.util
import json
import os

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
