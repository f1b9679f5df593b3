"""Synthetic two-table relational databases with a planted temporal signal.

Star schema: ``entities`` (the prediction targets) and ``events`` owned by
entities. An entity is labeled positive iff at least ``k_min`` of its events
fall inside a window of half-width ``w`` around ``t_star`` AND carry the
signal feature pattern (intensity >= SIGNAL_THRESHOLD). Temporal noise
events look identical in feature space but sit outside the window, so a
model has to resolve the time axis to separate the classes.

Each event also references a uniformly random partner entity. Partners are
label-irrelevant, which gives every seed a population of noisy 2-hop
neighbors for the semantic-refinement stage to prune.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .relstore import MAX_EXACT_SECONDS, DatabaseSchema, TableData, TableDataError

SIGNAL_THRESHOLD = 0.5
# numpy's largest Poisson mean: INT64_MAX - 10 sqrt(INT64_MAX), as it computes it
POISSON_LAM_MAX = float(2**63 - 1) - 10 * math.sqrt(2**63 - 1)

SCHEMA_DICT = {
    "tables": [
        {"name": "entities", "columns": [
            {"name": "entity_id", "kind": "primary_key"},
            {"name": "segment", "kind": "categorical"},
            {"name": "base_value", "kind": "numerical"},
            {"name": "activity", "kind": "numerical"},
            {"name": "seed_time", "kind": "timestamp"},
            {"name": "label", "kind": "numerical"},
        ]},
        {"name": "events", "columns": [
            {"name": "event_id", "kind": "primary_key"},
            {"name": "entity_id", "kind": "foreign_key", "target_table": "entities"},
            {"name": "partner_id", "kind": "foreign_key", "target_table": "entities"},
            {"name": "event_time", "kind": "timestamp"},
            {"name": "intensity", "kind": "numerical"},
            {"name": "magnitude", "kind": "numerical"},
        ]},
    ],
    "task": {
        "target_table": "entities",
        "target_column": "label",
        "kind": "binary_classification",
        "seed_time_column": "seed_time",
    },
}


@dataclass
class SynthConfig:
    n_entities: int = 2000
    n_events_per_entity: float = 12.0
    t_star: int = 1_600_000_000           # window center, epoch seconds
    w: int = 3 * 86400                    # window half-width, seconds
    k_min: int = 2
    noise_event_fraction: float = 0.5
    noise_feature_dim_shift: float = 0.0
    rng_seed: int = 0
    # gap between t_star and every entity's seed time; this is the
    # seed-relative temporal center the attention bias should recover
    seed_lead_seconds: int | None = None

    def __post_init__(self):
        if self.n_entities < 1:
            raise ValueError("n_entities must be >= 1")
        if not 0 <= self.n_events_per_entity <= POISSON_LAM_MAX:
            raise ValueError(f"n_events_per_entity must be in [0, {POISSON_LAM_MAX!r}], "
                             f"numpy's Poisson limit")
        if self.w <= 0:
            raise ValueError("w must be positive")
        if not 0.0 <= self.noise_event_fraction <= 1.0:
            raise ValueError("noise_event_fraction must be in [0,1]")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.seed_lead_seconds is None:
            self.seed_lead_seconds = 6 * self.w
        # every generated timestamp lies in [lo, hi]: seed times up to a
        # jitter past t_star + lead, events back to 20 w before the earliest
        seed_lo = self.t_star + self.seed_lead_seconds
        lo = min(self.t_star, seed_lo) - 20 * self.w
        hi = seed_lo + max(1, self.w // 4)
        if lo < -MAX_EXACT_SECONDS or hi > MAX_EXACT_SECONDS:
            raise ValueError(f"t_star, w and seed_lead_seconds give timestamps in "
                             f"[{lo}, {hi}] s, beyond ±2**53 s")


def _round6(x: float) -> float:
    return float(f"{x:.6f}")


def _generate_rows(config: SynthConfig):
    rng = np.random.default_rng(config.rng_seed)
    cfg = config
    lead = cfg.seed_lead_seconds
    jitter_max = max(1, cfg.w // 4)

    entity_rows = []
    event_rows = []
    event_counter = 0
    for i in range(cfg.n_entities):
        seed_time = cfg.t_star + lead + int(rng.integers(0, jitter_max))
        segment = f"s{int(rng.integers(0, 5))}"
        base_value = _round6(rng.normal())
        activity = _round6(rng.normal())

        # The class signal is the conjunction (in-window AND intensity above
        # threshold): "signal" entities get supra-threshold in-window events,
        # "background" entities get sub-threshold ones, and out-of-window
        # intensities are drawn from a class-independent mixture. So the
        # event features alone carry no label information; only a precise
        # temporal gate separates the classes.
        signal = rng.random() < 0.5

        def signal_intensity():
            return SIGNAL_THRESHOLD + abs(rng.normal(0.5, 0.3))

        def background_intensity():
            return SIGNAL_THRESHOLD - abs(rng.normal(0.3, 0.2))

        events = []
        if signal:
            n_in_window = cfg.k_min + int(rng.poisson(1.0))
        else:
            # with no noise at all, background entities stay out of the
            # window entirely, so any in-window event implies a positive
            n_in_window = int(rng.poisson(cfg.noise_event_fraction * (cfg.k_min + 1)))
        window_lo = cfg.t_star - cfg.w
        window_hi = min(cfg.t_star + cfg.w, seed_time - 1)  # causality clamp
        placed_in_window = 0
        for _ in range(n_in_window):
            if window_hi < window_lo:
                break  # window entirely at/after the seed time: no valid slot
            tau = int(rng.integers(window_lo, window_hi + 1))
            intensity = signal_intensity() if signal else background_intensity()
            events.append((tau, intensity, rng.normal(0.0, 1.0)))
            placed_in_window += 1
        n_in_window = placed_in_window

        n_total = max(1, int(rng.poisson(cfg.n_events_per_entity)))
        horizon = min(cfg.t_star, seed_time) - 20 * cfg.w
        for _ in range(max(0, n_total - n_in_window)):
            # outside the window but before the seed time
            while True:
                tau = int(rng.integers(horizon, seed_time))
                if abs(tau - cfg.t_star) > cfg.w:
                    break
            if rng.random() < cfg.noise_event_fraction:
                # temporal noise: signal-looking features at the wrong time
                events.append((tau, signal_intensity(),
                               rng.normal(cfg.noise_feature_dim_shift, 1.0)))
            else:
                events.append((tau, background_intensity(), rng.normal(0.0, 1.0)))

        relevant = sum(1 for tau, inten, _ in events
                       if abs(tau - cfg.t_star) <= cfg.w
                       and _round6(inten) >= SIGNAL_THRESHOLD)
        label = 1 if relevant >= cfg.k_min else 0

        entity_rows.append([f"e{i}", segment, repr(base_value), repr(activity),
                            str(seed_time), str(label)])
        for tau, inten, mag in events:
            if cfg.n_entities > 1:
                partner = int(rng.integers(0, cfg.n_entities - 1))
                if partner >= i:
                    partner += 1
            else:
                partner = i
            event_rows.append([f"ev{event_counter}", f"e{i}", f"e{partner}",
                               str(tau), repr(_round6(inten)), repr(_round6(mag))])
            event_counter += 1
    return entity_rows, event_rows


def write_db(config: SynthConfig, out_dir: str) -> None:
    """Emit schema.json + entities.csv + events.csv (deterministic per seed)."""
    os.makedirs(out_dir, exist_ok=True)
    entity_rows, event_rows = _generate_rows(config)
    with open(os.path.join(out_dir, "schema.json"), "w") as fh:
        json.dump(SCHEMA_DICT, fh, indent=1)
        fh.write("\n")
    for table, rows in zip(SCHEMA_DICT["tables"], (entity_rows, event_rows), strict=True):
        with open(os.path.join(out_dir, f"{table['name']}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([c["name"] for c in table["columns"]])
            writer.writerows(rows)


def temporal_split(schema: DatabaseSchema, tables: TableData,
                   fractions: tuple[float, float, float],
                   ) -> tuple[list[int], list[int], list[int]]:
    """Partition target-table rows by ascending seed time (ties: row id)."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    task = schema.task
    tc = tables.tables[task.target_table]
    times = tc.timestamps[task.seed_time_column]
    order = sorted(range(tc.n_rows), key=lambda i: (times[i], i))
    n = len(order)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    train = order[:n_train]
    val = order[n_train:n_train + n_val]
    test = order[n_train + n_val:]
    if not train or not val or not test:
        raise TableDataError(f"empty split: the {n} rows of {task.target_table!r} give "
                             f"{len(train)}/{len(val)}/{len(test)} train/val/test rows")
    return train, val, test
