#!/bin/sh
# End-to-end pipeline through the command line, at toy scale.
# Everything lands under ./demo-out; safe to delete afterwards.
set -e

OUT=demo-out
rm -rf "$OUT"
mkdir -p "$OUT"

echo "== generate a corpus with a held-out-combination split"
spantree gen-data --out "$OUT/data" --count 300 --depth-min 1 --depth-max 3 \
    --alphabet 8 --val-frac 0.1 --seed 1

echo "== train (tiny: 400 steps, checkpoints every 200)"
spantree train --data "$OUT/data" --run-dir "$OUT/run" \
    --steps 400 --checkpoint-every 200 --batch-size 32 \
    --d-model 16 --heads 2 --enc-layers 2 --dec-layers 1 --d-ff 64 \
    --max-len 40 --eval-limit 40 --lr 0.001 --warmup 40 --seed 1

CKPT="$OUT/run/checkpoints/step-00400"

echo "== chart one sentence from the final checkpoint"
spantree chart --checkpoint "$CKPT" --threshold 1 \
    --sentence "reverse repeat A1 B1" --out "$OUT/chart.json"

echo "== project the validation file to trees, greedy vs exact"
spantree project --checkpoint "$CKPT" --input "$OUT/data/iid_val.tsv" \
    --mode greedy --threshold 1 --out-dir "$OUT/proj-greedy" --seed 1
spantree project --checkpoint "$CKPT" --input "$OUT/data/iid_val.tsv" \
    --mode exact --threshold 1 --out-dir "$OUT/proj-exact" --seed 1

echo "== how often do the two parsers agree?"
spantree eval-trees --pred "$OUT/proj-greedy/trees.sexpr" \
    --gold "$OUT/proj-exact/trees.sexpr"

echo "== per-checkpoint dynamics (accuracies at the --eval-limit train recorded)"
spantree dynamics --run-dir "$OUT/run" --data "$OUT/data" \
    --fixed-t 1 --eval-sentences 8 --samples-per-node 2 --seed 1

echo "done; see $OUT/"
