"""Generate one benchmark database with ``synthgen.write_db``.

Run as a child process by ``run.py`` so that generation stays outside the
timed region and out of the benchmark process's peak RSS:

    PYTHONPATH=src python3 perfbench/gen_db.py OUT_DIR N_ENTITIES SEED

Besides the CSVs and schema it writes ``meta.json`` with the generation
time and the row and foreign-key-cell counts read back from the CSVs, which
the ingest check compares the built graph against.
"""

import csv
import json
import os
import sys
import time

from relgauss.synthgen import SCHEMA_DICT, SynthConfig, write_db

# the acceptance benchmark's distractor level, used by every workload
NOISE_EVENT_FRACTION = 0.65


def count_rows(out_dir: str) -> dict:
    counts = {"rows": {}, "fk_cells": 0}
    for table in SCHEMA_DICT["tables"]:
        fk_cols = [i for i, c in enumerate(table["columns"])
                   if c["kind"] == "foreign_key"]
        n = 0
        with open(os.path.join(out_dir, f"{table['name']}.csv"), newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                n += 1
                counts["fk_cells"] += sum(1 for i in fk_cols if row[i].strip())
        counts["rows"][table["name"]] = n
    return counts


def main(out_dir: str, n_entities: int, seed: int) -> None:
    config = SynthConfig(n_entities=n_entities, rng_seed=seed,
                         noise_event_fraction=NOISE_EVENT_FRACTION)
    t0 = time.perf_counter()
    write_db(config, out_dir)
    elapsed = time.perf_counter() - t0
    meta = {"n_entities": n_entities, "seed": seed, "write_db_s": elapsed,
            **count_rows(out_dir)}
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
