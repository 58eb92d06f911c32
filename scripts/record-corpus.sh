#!/usr/bin/env bash
# Re-records the replay corpus (`replay-corpus/*.rlog`).
#
#   scripts/record-corpus.sh
#
# First replays every committed log with `bench --replay` and prints its
# verdict, so the change that makes a re-record necessary shows what it
# moved: a change that only alters an exported digest replays with no
# divergence, no unconsumed decisions and that digest as its only
# artifact mismatch. Then records every log of the list below again, in
# place. Run it once the code change is final, from anywhere in the
# repository, and say in the change's notes what the verdicts showed.
set -euo pipefail

root=$(git rev-parse --show-toplevel 2>/dev/null || pwd)
cd "$root"

# One log per line: its file name, then its `bench --record` options.
logs=(
    "chaos-seed1234.rlog --scenario chaos --seed 1234 --rcalls 120"
    "chaos-seed7.rlog    --scenario chaos --seed 7    --rcalls 60"
    "fig2-null40.rlog    --scenario fig2              --rcalls 40"
    "batch-seed5.rlog    --scenario batch --seed 5    --rcalls 48"
    "site-seed3.rlog     --scenario site  --seed 3    --rcalls 48"
)

bench() {
    cargo run --release -q -p bench --bin bench -- "$@"
}

echo "== replaying the committed logs =="
for entry in "${logs[@]}"; do
    read -r file _ <<<"$entry"
    bench --replay "replay-corpus/$file"
done

echo "== recording =="
for entry in "${logs[@]}"; do
    read -r file opts <<<"$entry"
    # shellcheck disable=SC2086 # the options are meant to split
    bench --record "replay-corpus/$file" $opts
done
