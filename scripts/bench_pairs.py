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

    python3 scripts/bench_pairs.py --parent ../base --change . --seed 1 --numerics

``--numerics`` compares the two checkouts' numbers instead of their speed.
In each checkout, with its own ``src`` and perfbench, a child process runs
one ``train-bench`` train call, one ``score-deep`` pass, and a CLI ``gen``
of a 200-entity database and ``train --seed 0`` at the ``train-bench``
configs. For the epoch records, the 400 scores, ``metrics.jsonl`` and
``checkpoint.bin`` it prints both sides' sha256 and the largest absolute,
relative and scaled differences of their numbers, where a scaled
difference is |change - parent| / max(1, |parent|). Exits 1 if a digest
differs, or with ``--tol T`` only if a file's numbers differ in count or
by more than T scaled: a relative difference cannot state a tolerance for
a number near 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

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


NUMERICS_FILES = ("records.json", "scores.bin", "metrics.jsonl", "checkpoint.bin")
CLI_ENTITIES = 200


def write_numerics(checkout: str, out: str, seed: int) -> None:
    """Write the ``NUMERICS_FILES`` of ``checkout`` under ``out``. Imports that
    checkout's relgauss and perfbench, so it runs in a process of its own."""
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "perfbench")]
    import run as perfbench_run
    import workloads
    from relgauss import cli

    package = os.path.join(checkout, "src", "relgauss")
    bench = workloads.TrainBench(*perfbench_run.ensure_db(workloads.TRAIN_ENTITIES, seed),
                                 package)
    bench.unit(bench.setup(1)[1])
    with open(os.path.join(out, "records.json"), "w") as fh:
        fh.write(bench.first_records)  # the records as JSON, keys sorted
    deep = workloads.ScoreDeep(*perfbench_run.ensure_db(workloads.SCORE_ENTITIES, seed),
                               package)
    deep.unit(deep.setup(1)[1])
    deep.first_scores.astype("<f8").tofile(os.path.join(out, "scores.bin"))

    configs = {"gen.json": {"n_entities": CLI_ENTITIES},
               "run.json": {"model": workloads.TRAIN_MODEL, "train": workloads.TRAIN_CONFIG,
                            "sampling": workloads.TRAIN_SAMPLING}}
    for name, raw in configs.items():
        with open(os.path.join(out, name), "w") as fh:
            json.dump(raw, fh)
    db, run_dir = os.path.join(out, "db"), os.path.join(out, "run")
    for argv in (["gen", "--config", os.path.join(out, "gen.json"), "--out", db,
                  "--seed", str(seed)],
                 ["train", "--data", db, "--config", os.path.join(out, "run.json"),
                  "--out", run_dir, "--seed", "0", "--quiet"]):
        if cli.main(argv) != 0:
            raise SystemExit(f"relgauss {argv[0]} failed in {checkout}")
    for name in ("metrics.jsonl", "checkpoint.bin"):
        shutil.copy(os.path.join(run_dir, name), os.path.join(out, name))


def numbers(name: str, data: bytes) -> np.ndarray:
    """The values of one numerics file as float64: a ``.bin`` file is raw LE
    float64, a JSON or JSON-lines file gives every number it holds, in
    order (null as NaN; strings and booleans are skipped)."""
    if name.endswith(".bin"):
        return np.frombuffer(data, dtype="<f8")
    values: list[float] = []

    def walk(x) -> None:
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        elif x is None or (isinstance(x, (int, float)) and not isinstance(x, bool)):
            values.append(np.nan if x is None else float(x))

    for line in data.decode().splitlines():
        if line.strip():
            walk(json.loads(line))
    return np.array(values, dtype=np.float64)


def compare_numerics(parent: dict[str, bytes], change: dict[str, bytes]) -> list[dict]:
    """Per file of ``parent`` (name -> bytes): both sides' sha256, whether
    they are equal, and the largest absolute, relative and scaled
    (|change - parent| / max(1, |parent|)) differences of the two sides'
    numbers (None when their counts differ)."""
    rows = []
    for name, p_data in parent.items():
        c_data = change[name]
        row = {"name": name, "parent_sha256": hashlib.sha256(p_data).hexdigest(),
               "change_sha256": hashlib.sha256(c_data).hexdigest(),
               "max_abs": None, "max_rel": None, "max_scaled": None}
        row["equal"] = row["parent_sha256"] == row["change_sha256"]
        a, b = numbers(name, p_data), numbers(name, c_data)
        row["values"] = [len(a), len(b)]
        if len(a) == len(b):
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            with np.errstate(divide="ignore", invalid="ignore"):
                diff = np.where(same, 0.0, np.abs(a - b))
                rel = np.where(same, 0.0, diff / np.abs(a))
                scaled = np.where(same, 0.0, diff / np.maximum(1.0, np.abs(a)))
            row["max_abs"] = float(diff.max(initial=0.0))
            row["max_rel"] = float(rel.max(initial=0.0))
            row["max_scaled"] = float(scaled.max(initial=0.0))
        rows.append(row)
    return rows


def format_numerics(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        gap = (f"max abs {r['max_abs']:.3g}  max rel {r['max_rel']:.3g}"
               f"  max scaled {r['max_scaled']:.3g}"
               if r["max_abs"] is not None
               else f"{r['values'][0]} against {r['values'][1]} values")
        lines.append(f"{r['name']:14s} {'equal  ' if r['equal'] else 'DIFFERS'}  {gap}\n"
                     f"  parent {r['parent_sha256']}\n  change {r['change_sha256']}")
    return "\n".join(lines)


def numerics_pass(rows: list[dict], tol: float | None) -> bool:
    """Whether every file is equal, or with ``tol`` holds as many numbers
    as the parent's, each within ``tol`` scaled of it (NaN only at NaN)."""
    return all(r["equal"] or (tol is not None and r["max_scaled"] is not None
                              and r["max_scaled"] <= tol)
               for r in rows)


def run_numerics(parent: str, change: str, seed: int) -> list[dict]:
    files = {}
    with tempfile.TemporaryDirectory(prefix="bench-numerics-") as tmp:
        for side, checkout in (("parent", parent), ("change", change)):
            out = os.path.join(tmp, side)
            os.makedirs(out)
            subprocess.run([sys.executable, os.path.abspath(__file__), "--numerics-child",
                            os.path.abspath(checkout), out, str(seed)],
                           cwd=checkout, check=True, stdout=subprocess.DEVNULL)
            files[side] = {}
            for name in NUMERICS_FILES:
                with open(os.path.join(out, name), "rb") as fh:
                    files[side][name] = fh.read()
    return compare_numerics(files["parent"], files["change"])


def main() -> int:
    if sys.argv[1:2] == ["--numerics-child"]:
        checkout, out, seed = sys.argv[2:]
        write_numerics(checkout, out, int(seed))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--numerics", action="store_true",
                    help="compare the checkouts' numbers, not their speed")
    ap.add_argument("--tol", type=float,
                    help="with --numerics, pass numbers within this scaled difference")
    ap.add_argument("--out", help="write every run and the summary to this JSON file")
    args = ap.parse_args()
    if args.numerics:
        rows = run_numerics(args.parent, args.change, args.seed)
        print(format_numerics(rows))
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"seed": args.seed, "numerics": rows}, fh, indent=1)
        return 0 if numerics_pass(rows, args.tol) else 1
    if args.tol is not None:
        ap.error("--tol goes with --numerics")
    if args.workload is None:
        ap.error("--workload is required without --numerics")
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
