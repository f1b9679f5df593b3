#!/usr/bin/env python3
"""Paired perfbench runs of two checkouts, summarised per end-to-end metric.

    python3 scripts/bench_pairs.py --parent ../base --change . \\
        --workload score-deep --seed 1 --pairs 10

Runs ``perfbench/run.py`` in the two checkouts alternately, the parent first
in even pairs, each with the benchmark's default run length. Prints each
run's end-to-end metrics as it ends, then for each metric the parent's
median [Q1-Q3], the change's median, the change in %, the pairs the change
won (ties count for neither side) and whether the gap between the medians
exceeds the parent's quartile spread. The metrics and which way is better
come from ``BENCHMARK.json``. ``--out FILE`` also writes every run's result
object and the summary as JSON. Exits 1 if any run is not ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def end_to_end_metrics() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """The result object (last stdout line) of one perfbench run in ``checkout``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"correct": False, "metrics": {}}
    result["correct"] = result.get("correct") is True and proc.returncode == 0
    machine = [ln for ln in lines if ln.startswith("machine ")]
    if machine:
        result["machine"] = json.loads(machine[0][len("machine "):])
    return result


def summarize(parent: list[dict], change: list[dict], metrics: list[dict]) -> list[dict]:
    """Per metric: medians, the parent's quartiles, % change and pairs won.

    ``parent[i]`` and ``change[i]`` map metric names to values and form pair
    i; each entry of ``metrics`` has a ``name`` and ``better`` ("lower" or
    "higher").
    """
    rows = []
    for m in metrics:
        name = m["name"]
        p = np.array([run[name] for run in parent], dtype=np.float64)
        c = np.array([run[name] for run in change], dtype=np.float64)
        sign = 1.0 if m["better"] == "higher" else -1.0
        q1, med, q3 = np.percentile(p, [25, 50, 75])
        c_med = float(np.median(c))
        rows.append({"name": name, "parent": float(med), "q1": float(q1), "q3": float(q3),
                     "change": c_med, "pct": 100.0 * (c_med - med) / med,
                     "won": int(np.sum(sign * (c - p) > 0)), "pairs": len(p),
                     "beyond_iqr": bool(abs(c_med - med) > q3 - q1)})
    return rows


def format_rows(rows: list[dict]) -> str:
    return "\n".join(
        f"{r['name']:12s} parent {r['parent']:10.4g} [{r['q1']:.4g}-{r['q3']:.4g}]"
        f"  change {r['change']:10.4g}  {r['pct']:+6.1f} %  won {r['won']}/{r['pairs']}"
        f"  gap {'>' if r['beyond_iqr'] else '<='} parent IQR"
        for r in rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args()
    metrics = end_to_end_metrics()
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(getattr(args, side), args.workload, args.seed)
            values = {m["name"]: result["metrics"].get(m["name"], {}).get("value", np.nan)
                      for m in metrics}
            results[side].append(result)
            runs[side].append(values)
            print(f"pair {i} {side:6s} correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    rows = summarize(runs["parent"], runs["change"], metrics)
    print(format_rows(rows))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                       "protocol": "alternating pairs, the parent first in even pairs",
                       "summary": rows, **results}, fh, indent=1)
    correct = all(r["correct"] for side in results.values() for r in side)
    if not correct:
        print("bench_pairs: a run was not correct", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
