#!/usr/bin/env python3
"""Multi-seed ablation study on the planted-signal benchmark.

Generates (or reuses) the benchmark database, trains the full model and
two ablations (no Gaussian temporal bias, no semantic refinement) across
several seeds, and reports mean test AUC per variant, the margins of the
full model over each ablation, and the per-epoch trajectory of the
temporal-bias center on the strongest head.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from relgauss.model import AblationFlags, ModelConfig
from relgauss.relstore import build_graph, load_schema, load_tables
from relgauss.sampler import SamplingConfig
from relgauss.synthgen import SynthConfig, temporal_split, write_db
from relgauss.trainer import TrainConfig, run_ablation_sweep

VARIANTS = [AblationFlags(), AblationFlags(no_gaussian_bias=True),
            AblationFlags(no_semantic_refinement=True)]
# the generator settings of a database the script makes; it records them in
# the database's synth_config.json and checks them there when it reuses one
SYNTH = {"n_entities": 2000, "noise_event_fraction": 0.65}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--db", required=True, help="database directory (generated if absent)")
    ap.add_argument("--n-entities", type=int,
                    help=f"entities of a generated database (default {SYNTH['n_entities']})")
    ap.add_argument("--noise-event-fraction", type=float,
                    help=f"of a generated database (default {SYNTH['noise_event_fraction']})")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=7)
    ap.add_argument("--lr", type=float, default=1e-4)
    ap.add_argument("--bias-lr-multiplier", type=float, default=4000.0)
    ap.add_argument("--out", default=None, help="optional JSON report path")
    args = ap.parse_args()

    given = {k: getattr(args, k) for k in SYNTH if getattr(args, k) is not None}
    record = os.path.join(args.db, "synth_config.json")
    if not os.path.exists(os.path.join(args.db, "schema.json")):
        synth = {**SYNTH, **given}
        write_db(SynthConfig(rng_seed=0, **synth), args.db)
        with open(record, "w") as fh:
            json.dump(synth, fh)
    elif given:
        try:
            with open(record) as fh:
                made = json.load(fh)
        except (OSError, ValueError):
            made = {}
        if any(made.get(k) != v for k, v in given.items()):
            print(f"error: {args.db} exists and was not generated with {given} "
                  f"(its {record}: {made or 'missing'})", file=sys.stderr)
            sys.exit(2)
    schema = load_schema(os.path.join(args.db, "schema.json"))
    tables = load_tables(schema, args.db)
    graph = build_graph(schema, tables)
    splits = temporal_split(schema, tables, (0.6, 0.2, 0.2))

    t0 = time.time()
    runs = run_ablation_sweep(
        graph, schema, tables, splits,
        ModelConfig(d=64, n_layers=2, n_heads=4, pe_dim=16, init_seed=0),
        TrainConfig(lr=args.lr, epochs=args.epochs, max_steps_per_epoch=14,
                    bias_lr_multiplier=args.bias_lr_multiplier, val_stride=2),
        SamplingConfig(stage1_budget=32, stage2_keep=20),
        VARIANTS, range(args.seeds))
    report: dict = {"variants": {}, "mu_traces": {},
                    "total_seconds": time.time() - t0}
    for seed, by_name in runs.items():
        for name, res in by_name.items():
            report["variants"].setdefault(name, []).append(res.test_metric)
            print(f"{name:24s} seed={seed} test_auc={res.test_metric:.4f}")
        report["mu_traces"][seed] = [r["mu_per_head"] for r in by_name["full"].records]

    means = {k: float(np.mean(v)) for k, v in report["variants"].items()}
    report["means"] = means
    report["margins"] = {
        k: means["full"] - means[k] for k in means if k != "full"}
    print(json.dumps({"means": means, "margins": report["margins"],
                      "total_seconds": report["total_seconds"]}, indent=1))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
