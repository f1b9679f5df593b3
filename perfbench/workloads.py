"""The three workloads, each a closed loop with one client in one process.

Each workload has a set-up (load the CSVs, build the graph, split it, build
the model) and a measured unit of work repeated for the run's time budget:

- ``train-bench``: one ``trainer.train`` call in the acceptance-sweep
  configuration, cut to 3 epochs. Operation = one training step.
- ``score-deep``: one eval-mode pass over the held-out test rows, 8 rows
  per ``trainer.predict_rows`` request, 3-hop sampling, fresh embedding
  cache per pass. Operation = one request.
- ``ingest-large``: ``load_schema`` + ``load_tables`` + ``build_graph`` on a
  20,000-entity database. Operation = one ingest pass; it is also the
  whole set-up.

Every unit checks its own outputs; a failed check or an exception fails the
unit's operations.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from relgauss import relstore, trainer
from relgauss.model import AblationFlags, GelModel, ModelConfig
from relgauss.sampler import SamplingConfig
from relgauss.synthgen import temporal_split

from tracing import StepClock

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)
SETUP_REPEATS = 7

# acceptance-sweep configuration (tests/test_acceptance.py) with 3 of its
# 7 epochs, so that one train call fits in one run
TRAIN_ENTITIES = 2000
TRAIN_MODEL = dict(d=64, n_layers=2, n_heads=4, pe_dim=16)
TRAIN_SAMPLING = dict(stage1_budget=32, stage2_keep=20)
TRAIN_CONFIG = dict(lr=1e-4, batch_size=64, epochs=3, max_steps_per_epoch=14,
                    micro_batch=8, bias_lr_multiplier=4000.0, val_stride=2, rng_seed=0)
# chance is 0.5; three epochs reach 0.64-0.75 on seeds 1-4
TEST_AUC_FLOOR = 0.55

SCORE_ENTITIES = 2000
SCORE_MODEL = dict(d=64, n_layers=2, n_heads=4, pe_dim=16, max_hop=3)
SCORE_SAMPLING = dict(max_hop=3, stage1_budget=300, stage2_keep=64)
SCORE_REQUEST_ROWS = 8

INGEST_ENTITIES = 20000


@dataclass
class Unit:
    """One measured unit of work and what it checked."""
    op_ms: list[float]
    rows: int
    wall_s: float
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed = len(self.op_ms)


def load_db(path: str):
    schema = relstore.load_schema(os.path.join(path, "schema.json"))
    tables = relstore.load_tables(schema, path)
    graph = relstore.build_graph(schema, tables)
    return schema, tables, graph


def model_setup(path: str, model_cfg: dict):
    schema, tables, graph = load_db(path)
    splits = temporal_split(schema, tables, SPLIT_FRACTIONS)
    model = GelModel(ModelConfig(**model_cfg), schema, tables)
    return schema, tables, graph, splits, model


def timed_setups(fn, repeats: int):
    times, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = fn()
        times.append(perf_counter() - t0)
    return times, state


def source_digest(src_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class TrainBench:
    name = "train-bench"
    report_prefix = "train"  # of its metric names in the readable report
    entities = TRAIN_ENTITIES
    op_name = "step"
    unit_s = 20.0  # one train call: about 21 s on a 2-vCPU x86 VM

    def __init__(self, db: str, meta: dict, src_dir: str):
        self.db = db
        self.records_path = os.path.join(
            db, f"records-{source_digest(src_dir)}-{self._config_digest()}.json")
        self.first_records = None

    @staticmethod
    def _config_digest() -> str:
        text = json.dumps([TRAIN_MODEL, TRAIN_SAMPLING, TRAIN_CONFIG], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    def setup(self, repeats: int):
        return timed_setups(lambda: model_setup(self.db, TRAIN_MODEL), repeats)

    def unit(self, state) -> Unit:
        schema, tables, graph, splits, _ = state
        model = GelModel(ModelConfig(**TRAIN_MODEL), schema, tables)
        cfg = trainer.TrainConfig(**TRAIN_CONFIG)
        planned = cfg.epochs * min(cfg.max_steps_per_epoch,
                                   len(splits[0]) // cfg.batch_size)
        clock = StepClock()
        t0 = perf_counter()
        with clock.installed():
            try:
                res = trainer.train(model, graph, schema, tables, splits, cfg,
                                    SamplingConfig(**TRAIN_SAMPLING))
            except trainer.NumericAbort as exc:
                res = exc
        train_s = perf_counter() - t0
        unit = Unit(op_ms=clock.step_ms, rows=0, wall_s=train_s)
        if isinstance(res, Exception):
            # the aborted call fails every planned step, run or not
            unit.op_ms = clock.step_ms + [float("nan")] * (planned - len(clock.step_ms))
            unit.check("loss finite at every step", False, str(res))
            return unit
        eval_rows = cfg.epochs * len(splits[1][::cfg.val_stride]) + len(splits[2])
        unit.rows = len(clock.step_ms) * cfg.batch_size + eval_rows
        unit.values = {"train_s": train_s, "train.test_auc": res.test_metric}
        unit.check("steps completed", len(clock.step_ms) == planned,
                   f"{len(clock.step_ms)}/{planned}")
        unit.check("loss finite at every step",
                   all(np.isfinite(r["train_loss"]) for r in res.records))
        unit.check(f"test AUC >= {TEST_AUC_FLOOR}", res.test_metric >= TEST_AUC_FLOOR,
                   f"{res.test_metric:.4f}")
        self._check_reproducible(unit, res.records)
        return unit

    def _check_reproducible(self, unit: Unit, records: list[dict]) -> None:
        text = json.dumps(records, sort_keys=True)
        if self.first_records is None:
            self.first_records = text
        unit.check("epoch records identical within the run", text == self.first_records)
        # the cache key is the relgauss source and the config, so a stored
        # file always comes from the same code and inputs
        if os.path.exists(self.records_path):
            with open(self.records_path) as fh:
                unit.check("epoch records identical to an earlier run", fh.read() == text)
        else:
            tmp = f"{self.records_path}.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, self.records_path)


class ScoreDeep:
    name = "score-deep"
    report_prefix = "score"  # of its metric names in the readable report
    entities = SCORE_ENTITIES
    op_name = "request"
    unit_s = 10.0  # one 400-row pass: 8-9 s on a 2-vCPU x86 VM

    def __init__(self, db: str, meta: dict, src_dir: str):
        self.db = db
        self.first_scores = None

    def setup(self, repeats: int):
        return timed_setups(lambda: model_setup(self.db, SCORE_MODEL), repeats)

    def unit(self, state) -> Unit:
        schema, tables, graph, splits, model = state
        rows = list(splits[2])
        samp_cfg = SamplingConfig(**SCORE_SAMPLING)
        embed = trainer.EmbeddingCache(model, graph, tables)
        scores = np.empty(len(rows))
        op_ms = []
        t_pass = perf_counter()
        for lo in range(0, len(rows), SCORE_REQUEST_ROWS):
            chunk = rows[lo:lo + SCORE_REQUEST_ROWS]
            t0 = perf_counter()
            scores[lo:lo + len(chunk)] = trainer.predict_rows(
                model, graph, schema, tables, chunk, embed, samp_cfg, AblationFlags(),
                run_seed=0, micro_batch=SCORE_REQUEST_ROWS)
            op_ms.append((perf_counter() - t0) * 1e3)
        unit = Unit(op_ms=op_ms, rows=len(rows), wall_s=perf_counter() - t_pass)
        bad = ~np.isfinite(scores)
        unit.failed = len({i // SCORE_REQUEST_ROWS for i in np.flatnonzero(bad)})
        unit.checks.append(("every score finite", not bad.any(), f"{int(bad.sum())} not finite"))
        if self.first_scores is None:
            self.first_scores = scores
        unit.check("scores identical across passes",
                   np.array_equal(scores, self.first_scores))
        return unit


class IngestLarge:
    name = "ingest-large"
    report_prefix = "ingest"  # of its metric names in the readable report
    entities = INGEST_ENTITIES
    op_name = "pass"
    unit_s = 6.0  # one pass: 5-6 s on a 2-vCPU x86 VM

    def __init__(self, db: str, meta: dict, src_dir: str):
        self.db = db
        self.meta = meta

    def setup(self, repeats: int):
        # the ingest pass is the whole workload; set-up time is its time
        return [], None

    def unit(self, state) -> Unit:
        t0 = perf_counter()
        _, tables, graph = load_db(self.db)
        elapsed = perf_counter() - t0
        expected_rows = sum(self.meta["rows"].values())
        unit = Unit(op_ms=[elapsed * 1e3], rows=expected_rows, wall_s=elapsed)
        edges = sum(len(nbrs) for adj in graph.adjacency.values() for nbrs in adj)
        unit.check("nodes = entities + events", graph.n_nodes == expected_rows,
                   f"{graph.n_nodes} vs {expected_rows}")
        unit.check("edges = 2 x foreign-key cells", edges == 2 * self.meta["fk_cells"],
                   f"{edges} vs {2 * self.meta['fk_cells']}")
        unit.check("no dangling foreign keys", graph.dangling_fk_count == 0,
                   str(graph.dangling_fk_count))
        return unit


WORKLOADS = {w.name: w for w in (TrainBench, ScoreDeep, IngestLarge)}


def units_for(workload, seconds: float) -> int:
    """How many units a run of ``seconds`` does.

    The count follows from the time budget and the unit's nominal length,
    never from the speed of the run in progress, so every run and every
    commit does the same work and percentiles keep the same rank.
    """
    return max(1, int(seconds // workload.unit_s))


def run_units(workload, state, n_units: int, tracer=None) -> list[Unit]:
    units: list[Unit] = []
    for _ in range(n_units):
        gc.collect()
        if tracer is not None and workload.op_name == "pass":
            tracer.begin_op("pass")
        try:
            units.append(workload.unit(state))
        except Exception:
            # an exception fails the operation and ends the run
            traceback.print_exc()
            units.append(Unit(op_ms=[float("nan")], rows=0, wall_s=0.0, failed=1,
                              checks=[("unit raised no exception", False, "see stderr")]))
            break
    return units


def tail(values: list[float]) -> tuple[float, str]:
    """Highest order statistic with at least ten samples beyond it.

    With ten or fewer samples no such percentile exists and the maximum is
    reported instead; the label says which it is.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], f"max, n={n}"
    k = n - 11
    return s[k], f"p{100 * (k + 1) / n:.0f}, n={n}"


def summarize(setup_s: list[float], units: list[Unit]) -> dict:
    op_ms = [ms for u in units for ms in u.op_ms]
    ok_ms = [ms for ms in op_ms if np.isfinite(ms)]
    wall_s = sum(u.wall_s for u in units)
    tail_ms, tail_label = tail(ok_ms) if ok_ms else (float("nan"), "n=0")
    if not setup_s:
        setup_s = [ms / 1e3 for ms in ok_ms]
    return {
        "setup_s": statistics.median(setup_s) if setup_s else float("nan"),
        "op_ms.p50": statistics.median(ok_ms) if ok_ms else float("nan"),
        "op_ms.tail": tail_ms,
        "tail_label": tail_label,
        "rows_per_s": sum(u.rows for u in units) / wall_s if wall_s else 0.0,
        "attempted": len(op_ms),
        "failed": sum(u.failed for u in units),
        "checks": [c for u in units for c in u.checks],
        "values": {k: statistics.median([u.values[k] for u in units])
                   for k in (units[0].values if units else {})},
    }
