#!/usr/bin/env bash
# End-to-end demo: generate a small synthetic database, inspect the graph,
# train briefly, evaluate from the checkpoint, and run the verification
# suite. Finishes in about a minute on one CPU.
set -euo pipefail

OUT="${1:-/tmp/relgauss-demo}"
mkdir -p "$OUT"

cat > "$OUT/gen.json" <<'EOF'
{"n_entities": 300}
EOF

cat > "$OUT/run.json" <<'EOF'
{
  "model": {"d": 32, "n_layers": 1, "n_heads": 2, "pe_dim": 8},
  "train": {"epochs": 3, "batch_size": 32, "lr": 3e-4,
            "bias_lr_multiplier": 3000},
  "sampling": {"stage1_budget": 24, "stage2_keep": 16}
}
EOF

python3 -m relgauss.cli gen --config "$OUT/gen.json" --out "$OUT/db" --seed 0
python3 -m relgauss.cli ingest --data "$OUT/db"
python3 -m relgauss.cli sample --data "$OUT/db" --row 0
python3 -m relgauss.cli train --data "$OUT/db" --config "$OUT/run.json" \
    --out "$OUT/run" --seed 0
python3 -m relgauss.cli eval --data "$OUT/db" --checkpoint "$OUT/run/checkpoint"
python3 -m relgauss.cli verify
