"""Command-line surface: data generation, ingestion, sampling, training,
evaluation, theorem verification and the multi-seed ablation study.

``train`` saves with its checkpoint the run it trained: the model, train
and sampling configs and the ablation switches. ``eval`` takes only the
data and the checkpoint, rebuilds that run from it and scores the test
split as ``train`` did, so it prints the test metric ``train`` printed.

``ablate`` trains the full model and each switch on its own at ``--seeds``
consecutive training seeds, the model's init seed held fixed. It writes
each run's epoch records and the study's ``trainer.ablation_summary``:
every run's test metric, the means and the margins the acceptance gates
read.

Exit codes: 0 success, 1 verification failure, 2 configuration error
(also a bad schema, table, target value or checkpoint, an ``--out`` that
cannot be written, or scored rows that cannot give the task's metric),
3 numeric abort (a non-finite value during training, or a non-finite test
score in ``train``, ``eval`` or ``ablate``), 141 stdout closed by its
reader before the output was all written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging.handlers
import math
import os
import sys

import numpy as np

from . import numcore as nc
from . import relstore
from .model import AblationFlags, GelModel, ModelConfig
from .oracles import ALL_CHECKS, run_suite
from .relstore import (SchemaError, TableDataError, build_graph, load_schema,
                       load_tables)
from .sampler import SamplingConfig, subgraph_to_dict
from .synthgen import SynthConfig, temporal_split, write_db
from .trainer import (EmbeddingCache, MetricError, NumericAbort, TrainConfig,
                      ablation_summary, run_ablation_sweep, sample_rows, score_test,
                      train, write_metrics_jsonl)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell shows for a process SIGPIPE ends

SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


class ConfigError(ValueError):
    pass


def _load_json(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, "
                          f"not {type(raw).__name__}")
    return raw


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field annotated ``annotation`` (such as
    ``"int | None"``). An int fits a float field; a bool, only a bool field."""
    kinds = {k.strip() for k in annotation.split("|")}
    kind = "None" if value is None else type(value).__name__
    return kind in kinds or (kind == "int" and "float" in kinds)


def _finite_float(value: int) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _build_dataclass(cls, raw, overrides: dict | None = None):
    if not isinstance(raw, dict):
        raise ConfigError(f"{cls.__name__} section must be a JSON object, "
                          f"not {type(raw).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    merged = dict(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    bad = set(merged) - set(types)
    if bad:
        raise ConfigError(f"unknown {cls.__name__} fields: {sorted(bad)}")
    for name, value in merged.items():
        # Python's json reads NaN and ±Infinity; no field takes them
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"invalid {cls.__name__}: {name}={value!r} is not finite")
        if not _fits(value, types[name]):
            raise ConfigError(f"invalid {cls.__name__}: {name}={value!r} "
                              f"is not of type {types[name]}")
        # json reads an int of any size; each must have a finite float64
        # value (numpy sizes no array by a larger one), though a float field
        # keeps the int as given
        if type(value) is int and not _finite_float(value):
            raise ConfigError(f"invalid {cls.__name__}: {name} is an int of "
                              f"{len(str(abs(value)))} digits, too large for a float")
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


@contextlib.contextmanager
def _writing(out: str):
    """Report a failure to write under ``--out`` as a configuration error
    naming the path. Only file writes go inside: a closed stdout must stay
    a BrokenPipeError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or out}: "
                          f"{exc.strerror or exc}") from exc


def _load_dataset(data_dir: str):
    schema = load_schema(os.path.join(data_dir, "schema.json"))
    tables = load_tables(schema, data_dir)
    graph = build_graph(schema, tables)
    return schema, tables, graph


def _configs(raw: dict, seed: int | None):
    """The model, train and sampling configs of a run config; ``seed``, if
    given, sets both the model's init seed and the training seed."""
    unknown = set(raw) - {"model", "train", "sampling"}
    if unknown:
        raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
    model_cfg = _build_dataclass(ModelConfig, raw.get("model", {}), {"init_seed": seed})
    train_cfg = _build_dataclass(TrainConfig, raw.get("train", {}), {"rng_seed": seed})
    samp_cfg = _build_dataclass(SamplingConfig, raw.get("sampling", {}))
    if samp_cfg.max_hop > model_cfg.max_hop:
        raise ConfigError(f"sampling.max_hop={samp_cfg.max_hop} exceeds "
                          f"model.max_hop={model_cfg.max_hop}")
    return model_cfg, train_cfg, samp_cfg


def _run_fields(model_cfg: ModelConfig, train_cfg: TrainConfig,
                samp_cfg: SamplingConfig, ablation: AblationFlags) -> dict:
    """The run a checkpoint carries: every field of its configs and switches."""
    return {"model": dataclasses.asdict(model_cfg), "train": dataclasses.asdict(train_cfg),
            "sampling": dataclasses.asdict(samp_cfg),
            "ablation": dataclasses.asdict(ablation)}


def _record_run(result, ablation: AblationFlags, path: str) -> dict:
    """Write a run's epoch records, tagged with its variant; return its summary."""
    for rec in result.records:
        rec["ablation"] = ablation.name
    write_metrics_jsonl(result.records, path)
    return {"ablation": ablation.name, "best_val_metric": result.best_metric,
            "test_metric": result.test_metric}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    raw = _load_json(args.config)
    cfg = _build_dataclass(SynthConfig, raw, {"rng_seed": args.seed})
    with _writing(args.out):
        write_db(cfg, args.out)
    print(json.dumps({"out": args.out, "n_entities": cfg.n_entities,
                      "rng_seed": cfg.rng_seed}))
    return EXIT_OK


def cmd_ingest(args) -> int:
    schema, tables, graph = _load_dataset(args.data)
    n_edges = sum(len(adj.indices) for adj in graph.adjacency.values()) // 2
    print(json.dumps({
        "tables": {t: tables.tables[t].n_rows for t in schema.table_names()},
        "n_nodes": graph.n_nodes,
        "n_edges": n_edges,
        "edge_types": list(graph.adjacency),
        "dangling_foreign_keys": graph.dangling_fk_count,
    }))
    return EXIT_OK


def cmd_sample(args) -> int:
    schema, tables, graph = _load_dataset(args.data)
    model_cfg, train_cfg, samp_cfg = _configs(_load_json(args.config), args.seed)
    n_rows = tables.tables[schema.task.target_table].n_rows
    if not 0 <= args.row < n_rows:
        raise ConfigError(f"row {args.row} out of range [0, {n_rows})")
    # semantic refinement ranks by the tabular embeddings of this model
    embed = EmbeddingCache(GelModel(model_cfg, schema, tables), graph, tables)
    [sub] = sample_rows(graph, schema, tables, [args.row], embed, samp_cfg,
                        AblationFlags(no_semantic_refinement=args.no_semantic_refinement),
                        (train_cfg.rng_seed, 0))
    payload = json.dumps(subgraph_to_dict(sub))
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return EXIT_OK


def cmd_train(args) -> int:
    schema, tables, graph = _load_dataset(args.data)
    model_cfg, train_cfg, samp_cfg = _configs(_load_json(args.config), args.seed)
    ablation = AblationFlags(**{f.name: getattr(args, f.name)
                                for f in dataclasses.fields(AblationFlags)})
    model = GelModel(model_cfg, schema, tables)
    splits = temporal_split(schema, tables, SPLIT_FRACTIONS)
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    result = train(model, graph, schema, tables, splits, train_cfg, samp_cfg,
                   ablation, progress=not args.quiet)
    with _writing(args.out):
        summary = _record_run(result, ablation, os.path.join(args.out, "metrics.jsonl"))
        nc.save_checkpoint(model.parameters(), os.path.join(args.out, "checkpoint"),
                           _run_fields(model_cfg, train_cfg, samp_cfg, ablation))
    print(json.dumps(summary))
    return EXIT_OK


def cmd_eval(args) -> int:
    run = nc.checkpoint_run(args.checkpoint)
    ablation = _build_dataclass(AblationFlags, run.get("ablation"))
    configs = _configs({k: v for k, v in run.items() if k != "ablation"}, None)
    if _run_fields(*configs, ablation) != run:
        raise ConfigError(f"checkpoint {args.checkpoint}: its run does not give every "
                          f"field of the model, train and sampling configs and the "
                          f"ablation switches")
    model_cfg, train_cfg, samp_cfg = configs
    schema, tables, graph = _load_dataset(args.data)
    model = GelModel(model_cfg, schema, tables)
    nc.load_checkpoint(model.parameters(), args.checkpoint)
    test_rows = temporal_split(schema, tables, SPLIT_FRACTIONS)[2]
    _, name, value = score_test(model, graph, schema, tables, test_rows, train_cfg,
                                samp_cfg, ablation)
    print(json.dumps({"n_test": len(test_rows), name: value}))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        reports = run_suite(args.only or None)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    payload = json.dumps(reports, indent=1)
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    failing = [r["check"] for r in reports if not r["passed"]]
    if failing:
        print(f"FAILED checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_ablate(args) -> int:
    schema, tables, graph = _load_dataset(args.data)
    model_cfg, train_cfg, samp_cfg = _configs(_load_json(args.config), args.seed)
    # each seed trains every variant, so one the sweep cannot reach must stop
    # it before the first run, not after the earlier seeds have trained
    if args.seeds < 1:
        raise ConfigError(f"--seeds {args.seeds} is not at least 1")
    seeds = range(train_cfg.rng_seed, train_cfg.rng_seed + args.seeds)
    if seeds[-1] >= 2**64:
        raise ConfigError(f"--seeds {args.seeds} from rng_seed {train_cfg.rng_seed} "
                          f"reaches {seeds[-1]}, outside [0, 2**64)")
    splits = temporal_split(schema, tables, SPLIT_FRACTIONS)
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    # the full model, then each switch on its own
    variants = [AblationFlags()] + [AblationFlags(**{f.name: True})
                                    for f in dataclasses.fields(AblationFlags)]
    runs = run_ablation_sweep(graph, schema, tables, splits, model_cfg, train_cfg,
                              samp_cfg, variants, seeds)
    with _writing(args.out):
        for seed, by_name in runs.items():
            for v in variants:
                _record_run(by_name[v.name], v,
                            os.path.join(args.out, f"metrics_{v.name}_seed{seed}.jsonl"))
        payload = json.dumps(ablation_summary(runs), indent=1)
        with open(os.path.join(args.out, "ablation_summary.json"), "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relgauss")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic relational database")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("ingest", help="load CSVs and report the built graph")
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("sample", help="sample one seed-centered subgraph")
    p.add_argument("--data", required=True)
    p.add_argument("--row", type=int, required=True)
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-semantic-refinement", action="store_true")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--quiet", action="store_true")
    for f in dataclasses.fields(AblationFlags):
        p.add_argument("--" + f.name.replace("_", "-"), action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score the test split of a checkpoint's run")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run the analytical verification suite")
    p.add_argument("--only", action="append", choices=sorted(ALL_CHECKS))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ablate", help="train the full model and each ablation "
                                      "switch over training seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="train at the N seeds from rng_seed up (default 1)")
    p.set_defaults(fn=cmd_ablate)
    return parser


def _run(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    # relstore's warnings (dangling keys) are held until the command ends and
    # reach stderr only if it succeeds: a failing one prints its one line alone
    held = logging.handlers.BufferingHandler(capacity=math.inf)
    relstore.logger.addHandler(held)
    relstore.logger.propagate = False
    try:
        # non-finite values end in one NumericAbort line, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.fn(args)
    except (ConfigError, SchemaError, TableDataError, nc.CheckpointError,
            MetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    finally:
        relstore.logger.removeHandler(held)
        relstore.logger.propagate = True
    if code == EXIT_OK:
        for record in held.buffer:
            relstore.logger.handle(record)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        # a reader that closed stdout early fails this flush, which is caught
        # below, instead of the one at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout leads nowhere now, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(OSError):
            print("error: stdout closed before the output was all written",
                  file=sys.stderr)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
