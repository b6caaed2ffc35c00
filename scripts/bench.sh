#!/usr/bin/env bash
# Kernel microbenchmark sweep plus observability overhead check.
#
# Writes at the repo root:
#   BENCH_kernels.json  GFLOPS + ns/pattern for every kernel x state-count x
#                       precision x dispatch path available on this host
#                       (scaled_partials: one 4-category scaled operation,
#                       partials then rescale tile by tile, with half the
#                       patterns outside the rescale window;
#                       scaled_op_checked: the same on data inside the
#                       window; scaled_op_skipped: the partials alone, as
#                       when bounds skip the check; the avx2 scaled rows
#                       transpose each child matrix once per operation, as
#                       the CPU instance does); every row is the
#                       median of 5 rounds with its IQR, and
#                       GFLOPS + us/matrix for the shared transition-matrix
#                       kernel (path row-blocked-k4; s = 4, 20, 61 x f64/f32)
#   BENCH_obs.json      instrumentation overhead (stats on vs off, bit-exact)
#                       and the benchmark_resources ranking of every
#                       registered implementation
#   BENCH_balance.json  adaptive load balancing on a skewed two-GPU mix
#                       (one device fault-throttled 4x): per-batch makespans,
#                       steady-state improvement over a static equal split
#                       (asserted >= 2x), rebalance count, bit-exact lnL
#   BENCH_pool.json     instance-pool scheduler: 8 concurrent session
#                       streams over a 4-worker simulated-GPU fleet vs one
#                       shared-mutex instance (modeled throughput asserted
#                       >= 3x), wall tail latencies, scheduler counters
#   BENCH_incremental.json  epoch-based incremental computation on a single-
#                       branch MCMC sweep: full-refresh vs incremental
#                       wall time (asserted >= 5x), bit-identical lnL trace,
#                       memo skip counters
#   BENCH_serve.json    likelihood-service protocol overhead: 8 concurrent
#                       clients over loopback TCP vs the same sessions
#                       through the in-process pool (bit-identical asserted),
#                       mean/tail wall latencies, overhead % of the wire
#
#   BENCH_QUICK=1 scripts/bench.sh   # ~100x less work per cell (CI smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p beagle-bench \
    --bin kernels --bin obs --bin balance --bin pool --bin incremental-mcmc \
    --bin serve
./target/release/kernels BENCH_kernels.json
./target/release/obs BENCH_obs.json
./target/release/balance BENCH_balance.json
./target/release/pool BENCH_pool.json
./target/release/incremental-mcmc BENCH_incremental.json
./target/release/serve BENCH_serve.json
