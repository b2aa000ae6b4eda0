#!/usr/bin/env bash
# Runs one complete result set: every workload end to end at ten seeds,
# plus one traced run per workload, appended to the file given as $1.
# Two such sets of one commit, or one of each of two commits, are what
# `rapid-benchmark compare` judges.
#
#   benchmark/run_set.sh benchmark/out/set_a.jsonl [first_seed]
set -euo pipefail
out=${1:?usage: run_set.sh OUT.jsonl [first_seed]}
first=${2:-1}
here=$(cd "$(dirname "$0")" && pwd)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/rapid-benchmark
for workload in paper_trace scale_stream regional_rapid regional_rapid_shards2; do
    for ((seed = first; seed < first + 10; seed++)); do
        "$bin" run --workload "$workload" --seed "$seed" --out "$out" | tail -n 1
    done
    "$bin" trace --workload "$workload" --seed "$first" --out "$out" | tail -n 1 | cut -c1-120
done
