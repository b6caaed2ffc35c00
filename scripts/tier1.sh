#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean workspace.
#
# Test matrix covered by `cargo test --workspace`:
#   unit + doc tests ........ every crate (queue/leveling and the memo matrix
#                             store in core, CPU kernels + threading, perf
#                             model + faults in accel);
#                             the power-of-two rescale against its reference
#                             oracle on every kernel table, and
#                             rescale_subnormal_max_stays_finite (a subnormal
#                             pattern maximum leaves every lane finite and
#                             every pad lane zero, f32/f64 x s in {4,20,61});
#                             WIRE-v2 codec in core::wire (Submit round trips
#                             of narrow/gap/wide/empty tips bit for bit, exact
#                             deadline round trips, v1 frames -> BadVersion(1),
#                             every payload truncation of a narrowed frame
#                             typed, serve-nuc-shaped session <= 120,000 bytes)
#   property tests .......... cpu kernels, memo matrix store (random
#                             interleavings: queue over memo == plain eager
#                             bits; skipped + reused + computed == requested)
#   core tests/read_frame_alloc  a header claiming MAX_PAYLOAD then 10 bytes
#                             is Truncated with < 1 MiB peak allocation
#   tests/cross_backend ..... implementations x {single,double} x scaling vs oracle;
#                             one_scaled_operation_is_bit_identical_on_every_backend
#                             (11 implementations x f32/f64: same partials and
#                             log factors, partials x 2^E == unscaled bits)
#   tests/differential ...... implementations x {eager, queued} bit-for-bit,
#                             repeat proposals served by memo, site-lnL read-back,
#                             and the failover fixtures in BOTH queue modes
#                             (COMPUTATION_SYNCH and COMPUTATION_ASYNCH)
#   tests/failover .......... fault matrix: device loss, transient kernel/copy
#                             faults, corruption, creation fallback, rescue,
#                             rescue x checkpoint through one shared journal
#   tests/multi_device ...... partitioned instances across device sets
#   tests/balance ........... adaptive load balancing differentials: backend x
#                             precision x scaling bit-exactness vs a single
#                             instance at every intermediate weighting,
#                             adaptive rebalance under an injected slowdown,
#                             eviction re-split, checkpoint/restore of a
#                             rebalanced instance
#   tests/incremental ....... epoch-based memoization differentials: MCMC-
#                             style sweeps, backend x precision x scaling x
#                             queue mode bit-identical to always-recompute,
#                             through mid-run failover and checkpoint/restore;
#                             rejected moves and reassigned lengths served
#                             from the matrix store on the unqueued stack
#   tests/properties ........ proptest invariants (incl. balancer: range
#                             coverage, monotone shares, skew decrease;
#                             incremental: random interleavings never serve
#                             stale bits)
#   tests/obs* .............. observability: stats coverage, journal ordering
#                             across a queued failover run, instrumentation
#                             overhead guard, benchmark_resources determinism
#   tests/pool .............. instance-pool scheduler differentials: K pooled
#                             sessions bit-identical to serial pinned across
#                             backend x precision x queue mode, and through a
#                             mid-run worker eviction (device loss -> requeue
#                             -> rebuild, breaker opens)
#   tests/send_sync ......... compile-time Send + Sync audit of every backend,
#                             wrapper layer (memo, queue, journaled,
#                             partitioned), and the pool's public types
#   tests/serve ............. likelihood-service differentials: TCP and Unix
#                             loopback bit-identical to in-process across
#                             backend x precision, mid-session eviction,
#                             drain with work in flight, admission-control
#                             rejections audited, per-request deadlines
#                             reaching the watchdog, wire-decoder fuzzing,
#                             tip state 300 over TCP -> the in-process
#                             OutOfRange error (four-byte tip form)
#   tests/remote (mcmc) ..... MC3 over the wire bit-identical to local
#   tests/robustness ........ deadline watchdog cancelling hangs/stalls
#                             (bit-exact failover vs a fault-free survivor
#                             run), circuit breakers steering creation and
#                             benchmarking, durable checkpoint save/load/
#                             restore with corruption detection
#   stackbench (own workspace) stack benchmark unit + smoke tests: the
#                             quantile rule, the correctness checker, and a
#                             tiny run of every workload against the library
# Plus a short seeded soak (scripts/soak.sh): randomized hang/stall/loss
# plans under a watchdog, periodic checkpoint round-trips, zero lost
# operations required.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace
# The queue-mode differential matrix, the memo matrix-store properties, the
# fault matrix, the SIMD kernel parity suite, the allocation-free hot-path
# guard, and the observability suite, named explicitly so a regression in
# any is attributable at a glance.
cargo test -q --test differential
cargo test -q -p beagle-core --test matrix_proptests
cargo test -q --test failover
cargo test -q --test robustness
cargo test -q -p beagle-cpu --test simd_parity
cargo test -q -p beagle-cpu --test alloc_free
cargo test -q --test obs
cargo test -q --test obs_overhead
cargo test -q --test obs_env
cargo test -q --test balance
cargo test -q --test incremental
cargo test -q -p genomictest --test pool
cargo test -q -p beagle-server --test serve
cargo test -q -p beagle-mcmc --test remote
# Likelihood-service loopback smoke: start a server on an ephemeral port,
# round-trip sessions through a real socket, bit-compare against a local
# instance, then drain. Exercises the full WIRE-v2 stack end to end.
cargo run -q --release -p beagle-server --bin beagle-serve -- --self-test 3
# The stack benchmark is its own workspace, so `--workspace` does not build
# it; its tests catch library changes that would break the benchmark.
cargo test -q --offline --manifest-path stackbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
# Formatting gate for first-party crates only: the vendored stand-ins under
# vendor/ keep their upstream-ish style and are deliberately excluded.
cargo fmt --check -p beagle -p beagle-core -p beagle-cpu -p beagle-accel \
    -p beagle-phylo -p beagle-bench -p beagle-mcmc -p genomictest -p beagle-server
# The zero-cost claim has a compile-time arm: the workspace (and the obs
# test suite, whose assertions gate on the runtime probe) must also build
# with the recorder compiled out.
cargo build -q --release --no-default-features --features obs-disabled
# Short robustness soak: seeded fault storm, zero lost operations.
bash scripts/soak.sh "${TIER1_SOAK_SECONDS:-10}"
