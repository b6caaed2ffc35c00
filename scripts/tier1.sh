#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean workspace.
#
# Test matrix covered by `cargo test --workspace`:
#   unit + doc tests ........ every crate (the journal's recording rule:
#                             accepted and faulted calls recorded, rejected
#                             ones not; the memo matrix store, the
#                             manager accepting COMPUTATION_ASYNCH and
#                             selecting like SYNCH, and the ops::LevelPlan
#                             planner in core: its
#                             levels are checked sound on fixed and random
#                             lists, every RAW/WAR/WAW/scale-target pair in
#                             ascending levels; CPU kernels + threading, the
#                             AVX2 4-state kernels refusing state 5 and a
#                             15-element matrix; perf model + faults in
#                             accel);
#                             the power-of-two rescale against its reference
#                             oracle on every kernel table, and
#                             rescale_subnormal_max_stays_finite (a subnormal
#                             pattern maximum leaves every lane finite and
#                             every pad lane zero, f32/f64 x s in {4,20,61});
#                             simd_parity's
#                             rescale_factors_match_pow2_rescale_on_every_table
#                             (every table x f32/f64 rescale_factors ==
#                             Real::pow2_rescale bit for bit: signed zeros,
#                             NaN, infinities, subnormals, MAX, neighbours of
#                             powers of two, lengths 0-9);
#                             WIRE-v2 codec in core::wire (Submit round trips
#                             of narrow/gap/wide/empty tips bit for bit, exact
#                             deadline round trips, v1 frames -> BadVersion(1),
#                             every payload truncation of a narrowed frame
#                             typed, serve-nuc-shaped session <= 120,000 bytes)
#   core pool unit tests .... one FIFO per lane shared by all workers:
#                             with two workers one lane's jobs start in
#                             submission order, a freed worker takes a
#                             waiting interactive job before any batch job
#                             (either worker freed), dropping a Pool while a
#                             handle lives resolves every queued ticket Lost
#                             within a bounded wait; LatencyHistogram::mean
#                             exact for counts beyond u32
#   property tests .......... cpu kernels, memo matrix store (random
#                             interleavings: memo over a back-end == the
#                             plain back-end's bits; skipped + reused +
#                             computed == requested)
#   cpu tests/rescale_tiles . tiled_rescale_matches_whole_block_rescale_at_
#                             tile_boundaries: scaled traversals at
#                             RESCALE_TILE-1, RESCALE_TILE, RESCALE_TILE+1 and
#                             2*RESCALE_TILE+3 patterns on serial,
#                             thread-create, thread-pool and futures
#                             instances == rescale_patterns over whole blocks,
#                             bit for bit; Rescale books wall time;
#                             root_log_likelihood_bits_do_not_depend_on_
#                             threading (lnL and site lnL bits equal across
#                             the four threading models, per kernel table,
#                             f32/f64, s in {4,20})
#   cpu tests/simd_parity ... pp and sp kernels (row-major and transposed
#                             wide entries) == scalar bit for bit on every
#                             table, f32/f64, s in {2,4,20,61}, gaps
#   cpu tests/alloc_free .... warm scaled traversal allocates 0 bytes on
#                             CPU-SSE and a 2-thread pool, s = 4 and s = 61
#   core tests/read_frame_alloc  a header claiming MAX_PAYLOAD then 10 bytes
#                             is Truncated with < 1 MiB peak allocation
#   tests/rescale_bounds .... bound knowledge never changes bits (random trees,
#                             branch lengths 1e-8..10, f32/f64, four threading
#                             models, children re-uploaded
#                             before every operation; partials and lnL equal
#                             across the models of one table); checkpoint restore
#                             mid-chain; f64 underflow recovered by checked
#                             rescaling vs the oracle; stale factors cleared
#                             by a skipped check; window headroom
#   tests/cross_backend ..... implementations x {single,double} x scaling vs oracle;
#                             one_scaled_operation_is_bit_identical_on_every_backend
#                             (11 implementations x f32/f64: same partials and
#                             log factors, partials x 2^E == unscaled bits);
#                             wide_state_partials_are_bit_identical_across_
#                             back_ends (codon and amino acid, scaled or not,
#                             f32/f64: every internal partials buffer of all
#                             11 implementations == CPU-serial bit for bit)
#   tests/hazard_lists ...... operation lists with WAW+WAR rewrites, a WAR
#                             after an earlier call and one scale target
#                             written twice: all 11 implementations x
#                             f32/f64 leave CPU-serial's
#                             partials and the lnL of their table's in-order
#                             model, and a second pass (memo) the same bits
#   tests/differential ...... implementations x {SYNCH, ASYNCH} bit-for-bit
#                             (ASYNCH is accepted and runs eager) and vs the
#                             oracle, repeat proposals served by memo,
#                             site-lnL read-back, and the failover fixtures
#                             with children created in either mode
#   tests/failover .......... fault matrix: device loss, transient kernel/copy
#                             faults, corruption, creation fallback, rescue,
#                             rescue x checkpoint through one shared journal;
#                             a 2-child partitioned rescue == a single
#                             instance (lnL and site-lnL bits, one rescue
#                             event), and a second unscaled integration
#                             after a rescue returns the rescued bits
#   tests/rejected_calls .... a rejected call leaves no trace: every set_*
#                             kind, update_partials and the scale calls on
#                             a checkpointed CPU-serial instance keep the
#                             live lnL bits and restore bit-exactly; rescue
#                             after a rejected update_partials; a call only
#                             one of two children rejects keeps the lnL
#                             bits, rebalances and restores; an eviction
#                             after it is bit-exact to the survivor layout
#   tests/multi_device ...... partitioned instances across device sets; root
#                             and edge lnL over several splits == a single
#                             instance, bit for bit
#   tests/balance ........... adaptive load balancing differentials: backend x
#                             precision x scaling bit-exactness vs a single
#                             instance at every intermediate weighting,
#                             adaptive rebalance under an injected slowdown,
#                             eviction re-split, checkpoint/restore of a
#                             rebalanced instance
#   tests/incremental ....... epoch-based memoization differentials: MCMC-
#                             style sweeps, backend x precision x scaling
#                             bit-identical to always-recompute,
#                             through mid-run failover and checkpoint/restore;
#                             rejected moves and reassigned lengths served
#                             from the matrix store on the default stack
#   tests/properties ........ proptest invariants (incl. balancer: range
#                             coverage, monotone shares, skew decrease;
#                             incremental: random interleavings never serve
#                             stale bits)
#   tests/obs* .............. observability: stats coverage, journal ordering
#                             across a failover run, instrumentation
#                             overhead guard, benchmark_resources determinism
#   tests/pool .............. instance-pool scheduler differentials: K pooled
#                             sessions bit-identical to serial pinned across
#                             backend x precision, and through a
#                             mid-run worker eviction (device loss -> requeue
#                             -> rebuild, breaker opens)
#   tests/send_sync ......... compile-time Send + Sync audit of every backend,
#                             wrapper layer (memo, journaled,
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
#   mcmc engine unit tests .. memo is the only incremental mechanism: one MC3
#                             seed (branch, NNI and parameter moves) through
#                             memo-stacked BeagleEngines == through
#                             incremental(false) engines, every sample's
#                             tree and lnL bit for bit; memo skipped
#                             operations and matrices and reused stored ones
#   tests/robustness ........ deadline watchdog cancelling hangs/stalls
#                             (bit-exact failover vs a fault-free survivor
#                             run), circuit breakers steering creation and
#                             benchmarking, durable checkpoint save/load/
#                             restore with corruption detection (a
#                             partitioned snapshot keeps the rescue setting),
#                             an ASYNCH checkpoint restoring into the eager
#                             stack
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
# The computation-mode differential matrix, the hazard lists, the memo matrix-store
# properties, the fault matrix, the SIMD kernel parity suite, the
# cross-back-end partials bit-identity, the allocation-free hot-path
# guard, the rescale tile-boundary and bounds checks, and the observability suite,
# named explicitly so a regression in any is attributable at a glance.
cargo test -q --test differential
cargo test -q --test hazard_lists
cargo test -q -p beagle-core --test matrix_proptests
cargo test -q --test failover
cargo test -q --test rejected_calls
cargo test -q --test robustness
cargo test -q -p beagle-cpu --test simd_parity
cargo test -q --test cross_backend
cargo test -q -p beagle-cpu --test alloc_free
cargo test -q -p beagle-cpu --test rescale_tiles
cargo test -q --test rescale_bounds
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
