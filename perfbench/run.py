"""relgauss benchmark: one command, three workloads, output checks included.

Run from the repository root:

    python3 perfbench/run.py --workload train-bench --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the workload once untraced and once traced, and reports per-layer metrics from the traced half plus
the tracing overhead against the untraced half.

Inputs are generated from ``--seed`` by a child process running
``synthgen.write_db`` and cached under ``.perfbench_cache/``; generation is
never timed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only if every operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
WORKLOAD_NAMES = ("train-bench", "score-deep", "ingest-large")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms.p50": "ms",
                    "op_ms.tail": "ms", "rows_per_s": "rows/s"}
GEN_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def ensure_db(n_entities: int, seed: int) -> tuple[str, dict]:
    """The cached database for (size, seed), generated on first use."""
    path = os.path.join(CACHE, f"db-{n_entities}-seed{seed}")
    meta_path = os.path.join(path, "meta.json")
    if not os.path.exists(meta_path):
        tmp = f"{path}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=SRC)
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "gen_db.py"), tmp,
                            str(n_entities), str(seed)],
                           check=True, env=env, timeout=GEN_TIMEOUT_S)
            os.replace(tmp, path)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    with open(meta_path) as fh:
        return path, json.load(fh)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_checks(checks) -> bool:
    seen: dict[tuple[str, str], bool] = {}
    for name, ok, detail in checks:
        seen[(name, "" if ok else detail)] = ok
    for (name, detail), ok in seen.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    return all(ok for _, ok, _ in checks)


def run_untraced(workload, seconds: float) -> tuple[dict, dict]:
    from workloads import SETUP_REPEATS, run_units, summarize, units_for

    setup_s, state = workload.setup(SETUP_REPEATS)
    units = run_units(workload, state, units_for(workload, seconds))
    s = summarize(setup_s, units)
    metrics = {"setup_s": s["setup_s"], "peak_rss_mb": peak_rss_mb(),
               "op_ms.p50": s["op_ms.p50"], "op_ms.tail": s["op_ms.tail"],
               "rows_per_s": s["rows_per_s"]}
    prefix, op = workload.report_prefix, workload.op_name
    report = [("setup_s", s["setup_s"], "s", ""), ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
              (f"{prefix}.{op}_ms.p50", s["op_ms.p50"], "ms", ""),
              (f"{prefix}.{op}_ms.tail", s["op_ms.tail"], "ms", s["tail_label"]),
              (f"{prefix}.rows_per_s", s["rows_per_s"], "rows/s", "")]
    report += [(k, v, "s" if k.endswith("_s") else "", "") for k, v in s["values"].items()]
    return metrics, {"summary": s, "report": report}


def run_traced(workload, seconds: float, meta: dict, out_path: str) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import run_units, summarize, units_for

    n_units = units_for(workload, seconds)
    t0 = perf_counter()
    _, state = workload.setup(1)
    units = run_units(workload, state, n_units)
    untraced_s = perf_counter() - t0
    del state
    gc.collect()

    tracer = Tracer()
    with tracer.installed():
        t0 = perf_counter()
        _, state = workload.setup(1)
        traced_units = run_units(workload, state, n_units, tracer=tracer)
        traced_s = perf_counter() - t0
    tracer.save(out_path)
    metrics = tracer.layer_metrics(traced_s)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    metrics["synthgen.write_db_s"] = meta["write_db_s"]
    # both halves must give identical records (checked), so one AUC serves
    s = summarize([], units + traced_units)
    metrics["trainer.test_auc"] = s["values"].get("train.test_auc", 0.0)
    report = [("trace.wall_s", traced_s, "s", ""), ("untraced.wall_s", untraced_s, "s", ""),
              ("trace.overhead_frac", metrics["trace.overhead_frac"], "", ""),
              ("trace.spans", metrics["trace.spans"], "",
               f"written to {os.path.relpath(out_path, ROOT)}")]
    return metrics, {"summary": s, "report": report}


def import_source() -> bool:
    """Import relgauss from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "relgauss", "__init__.py")):
        print(f"perfbench: no relgauss source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    import relgauss
    if not os.path.abspath(relgauss.__file__).startswith(SRC + os.sep):
        print(f"perfbench: relgauss imported from {relgauss.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def run_one(args) -> int:
    import machine
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    print("machine " + json.dumps(machine.describe(args.seed)), flush=True)
    db, meta = ensure_db(cls.entities, args.seed)
    print(f"input {os.path.relpath(db, ROOT)} rows {meta['rows']} "
          f"synthgen.write_db_s {meta['write_db_s']:.3f}", flush=True)
    workload = cls(db, meta, os.path.join(SRC, "relgauss"))
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        out_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.npz")
        metrics, detail = run_traced(workload, args.seconds, meta, out_path)
        unit_of = layer_unit
    else:
        metrics, detail = run_untraced(workload, args.seconds)
        unit_of = END_TO_END_UNITS.get
    s = detail["summary"]
    for name, value, unit, note in detail["report"]:
        print(f"{name:28s} {value:14.6g} {unit:7s} {note}".rstrip())
    print(f"{'ops_failed_frac':28s} {s['failed'] / max(1, s['attempted']):14.6g} "
          f"        ({s['failed']}/{s['attempted']}, one operation = one {workload.op_name})")
    correct = print_checks(s["checks"]) and s["failed"] == 0
    result = {"correct": correct, "attempted": s["attempted"], "failed": s["failed"],
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith((".calls", ".spans", ".ops", ".rows", ".edges")):
        return "count"
    if name.endswith(("_frac", "block_fill")):
        return "frac"
    if name.endswith("_mean"):
        return "nodes"
    return "auc"


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return code or (0 if merged["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_source():
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
