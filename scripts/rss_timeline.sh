#!/usr/bin/env bash
# Samples the memory of one benchmark run over time.
#
#   scripts/rss_timeline.sh <bm-benchmark> <workload> <seed> <seconds>
#
# Starts `<bm-benchmark> run --workload <workload> --seed <seed>
# --seconds <seconds>` and, every 10 ms until it exits, reads its
# `VmHWM`, `VmRSS` and `Threads` from `/proc/<pid>/status`. Prints one
# CSV line per sample on stdout,
#
#   ms,vm_hwm_kb,vm_rss_kb,threads
#
# with `ms` counted from the start; the benchmark's own output goes to
# stderr. `peak_rss_mb` is `VmHWM` when the first round's server has
# served its phases, so the timeline shows which phase set it: the
# oracle runs first (its worker threads come and go), then the cold
# starts, then the rounds, each starting a server (thread count up) and
# shutting it down. It only reads: nothing under `benchmark/` changes.
#
# Build the binary first:
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   scripts/rss_timeline.sh benchmark/target/release/bm-benchmark seq2seq_wmt 501 30 > rss.csv
set -euo pipefail

if [ $# -ne 4 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
bin=$1
workload=$2
seed=$3
seconds=$4

"$bin" run --workload "$workload" --seed "$seed" --seconds "$seconds" >&2 &
pid=$!

start=${EPOCHREALTIME/./}
echo "ms,vm_hwm_kb,vm_rss_kb,threads"
while :; do
    hwm='' rss='' threads=''
    # A process that has exited but not been waited for still has a
    # status file, without the memory lines: stop there.
    while read -r key value _; do
        case $key in
            VmHWM:) hwm=$value ;;
            VmRSS:) rss=$value ;;
            Threads:) threads=$value ;;
        esac
    done < "/proc/$pid/status" 2>/dev/null || true
    [ -n "$rss" ] || break
    now=${EPOCHREALTIME/./}
    echo "$(( (now - start) / 1000 )),$hwm,$rss,$threads"
    sleep 0.01
done
wait "$pid"
