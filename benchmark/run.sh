#!/usr/bin/env bash
# Runs all four workloads and appends one JSON line per run to a file
# under benchmark/out/ (the input of `bm-benchmark compare A B`).
#
#   benchmark/run.sh [--pairs N] [--seed S] [--trace] [--out FILE]
#
# Repeat i (0-based) of N uses seed S+i on every workload, so two sets
# taken with the same arguments pair up run for run. A run's length is
# the benchmark's own (the binary's default), the same on every commit.
# With --trace each repeat also makes the traced run of every workload.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
pairs=1
seed=1
trace=0
out="$here/out/runs_$(date +%Y%m%d_%H%M%S).jsonl"
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    *) echo "usage: $0 [--pairs N] [--seed S] [--trace] [--out FILE]" >&2; exit 2 ;;
  esac
done

mkdir -p "$(dirname "$out")"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/bm-benchmark"

for ((i = 0; i < pairs; i++)); do
  for workload in chain_tiny chain_wmt seq2seq_wmt tree_bank; do
    "$bin" run --workload "$workload" --seed $((seed + i)) --out "$out"
    if [ "$trace" = 1 ]; then
      "$bin" run --workload "$workload" --seed $((seed + i)) --trace 1 --out "$out"
    fi
  done
done
echo "results appended to $out"
