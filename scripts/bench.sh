#!/usr/bin/env bash
# Kernel micro-benchmark runner: times the blocked/parallel GEMM backend
# against the seed's naive kernels, measures serving throughput — direct
# batch ("serve"), the queued, coalescing front-end ("serve_queue"), and
# the supervised 4-shard router tier vs direct on the same producer
# threads ("route", with a bitwise routed == direct guard) —
# training throughput through the session's one training step ("train":
# windows/sec at 1 and N worker threads, weights asserted bitwise-equal
# across the two), plus the MIN_PAR_WORK calibration sweep ("par_gate",
# which measures pool dispatch overhead) and the label cost per
# detector plus the LSTM gate math vs libm ("detectors"), and appends one JSON
# record per run to BENCH_micro.json (repo root), so the perf trajectory
# accumulates PR over PR.
#
# Usage:
#   scripts/bench.sh                 # bench at the default thread count
#   KD_THREADS=1 scripts/bench.sh    # pin the worker count
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -p kdselector-bench --bin micro_kernels
