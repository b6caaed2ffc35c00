//! Differential tests for the instance pool: K independent likelihood
//! sessions scheduled over a pool must be *bit-identical* to the same
//! sessions evaluated serially on a pinned instance — across backend and
//! precision, and including a worker eviction mid-run.
//!
//! The bit-exactness contract every backend already honours (all in-tree
//! implementations produce identical f64 results for the same session) is
//! what makes the pool's dynamic placement safe: it cannot matter which
//! worker serves which session, or whether a session was requeued onto a
//! different implementation after its first worker died.

use std::sync::Arc;
use std::time::Duration;

use beagle_accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle_core::{
    BeagleError, BreakerConfig, BufferId, DeviceErrorKind, Flags, ImplementationManager,
    InstanceSpec, Lane, PoolBuilder, SessionRequest,
};
use genomictest::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};

const SESSIONS: usize = 6;
const RADEON: &str = "OpenCL-GPU (AMD Radeon R9 Nano (simulated))";

fn scenario(seed: u64) -> Scenario {
    Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 200,
        categories: 2,
        seed,
    }
}

/// Materialize one self-contained session from a scenario seed.
fn session(seed: u64) -> SessionRequest {
    let problem = Problem::generate(&scenario(seed));
    let eig = problem.model.eigen();
    SessionRequest {
        tip_states: (0..problem.tree.taxon_count())
            .map(|t| problem.patterns.tip_states(t))
            .collect(),
        pattern_weights: problem.patterns.weights().to_vec(),
        category_rates: problem.rates.rates.clone(),
        category_weights: problem.rates.weights.clone(),
        frequencies: problem.model.frequencies().to_vec(),
        eigen: Some((
            eig.vectors.as_slice().to_vec(),
            eig.inverse_vectors.as_slice().to_vec(),
            eig.values.clone(),
        )),
        matrices: problem.tree.branch_assignments(),
        operations: problem.operations(true),
        root: BufferId(problem.tree.root()),
        scaled: true,
        deadline: None,
    }
}

fn base_spec() -> InstanceSpec {
    InstanceSpec::with_config(Problem::generate(&scenario(0)).config())
}

/// Serial reference: all sessions through one pinned instance, in order.
fn serial_bits(manager: &Arc<ImplementationManager>, spec: &InstanceSpec) -> Vec<u64> {
    let mut inst = spec.instantiate(manager).expect("serial pinned instance");
    (0..SESSIONS as u64)
        .map(|seed| {
            session(seed)
                .evaluate(inst.as_mut())
                .expect("serial evaluation")
                .to_bits()
        })
        .collect()
}

/// Pooled run: same sessions over `workers` pool workers, mixed lanes.
fn pooled_bits(
    manager: &Arc<ImplementationManager>,
    spec: &InstanceSpec,
    pins: &[&str],
    workers: usize,
) -> (Vec<u64>, beagle_core::PoolStats) {
    let pool = PoolBuilder::from_spec(spec.clone())
        .workers(workers)
        .pin(pins.iter().copied())
        .build(manager)
        .expect("pool builds");
    let handle = pool.handle();
    let tickets: Vec<_> = (0..SESSIONS as u64)
        .map(|seed| {
            let lane = if seed % 2 == 0 {
                Lane::Interactive
            } else {
                Lane::Batch
            };
            handle
                .submit_session(lane, session(seed))
                .expect("pool accepts sessions")
        })
        .collect();
    let bits = tickets
        .into_iter()
        .map(|t| {
            t.wait()
                .expect("ticket resolves")
                .expect("session evaluates")
                .to_bits()
        })
        .collect();
    let (drained, _) = pool.shutdown_drain(None);
    assert!(drained, "nothing should be left after all tickets resolved");
    (bits, handle.stats())
}

#[test]
fn pooled_matches_serial_across_backends_and_precisions() {
    let manager = full_manager();
    let cases: &[(&str, Flags)] = &[
        ("CPU-serial", Flags::PRECISION_DOUBLE),
        ("CPU-serial", Flags::PRECISION_SINGLE),
        ("CPU-SSE", Flags::PRECISION_DOUBLE),
        (RADEON, Flags::PRECISION_DOUBLE),
        (RADEON, Flags::PRECISION_SINGLE),
    ];
    for &(name, precision) in cases {
        let spec = base_spec().named(name).require(precision);
        let serial = serial_bits(&manager, &spec);
        // Two workers of the same pinned implementation: whichever worker
        // is free takes the next session; results may not care.
        let unpinned = {
            let mut s = spec.clone();
            s.implementation = None;
            s
        };
        let (pooled, stats) = pooled_bits(&manager, &unpinned, &[name], 2);
        assert_eq!(
            pooled, serial,
            "pooled vs serial mismatch for {name} (precision {precision:?})"
        );
        assert_eq!(stats.completed, SESSIONS as u64);
        assert_eq!(stats.evictions, 0, "healthy fleet must not evict");
    }
}

#[test]
fn pooled_sessions_survive_mid_run_worker_eviction_bit_identically() {
    // The Radeon device dies permanently partway through a session: the
    // session fails with a permanent fault, the worker is evicted (breaker
    // trips), the session requeues onto another worker, and every ticket
    // still resolves to the bit-exact serial result.
    //
    // Placement must not decide whether the fault fires, so every worker
    // starts on Radeon (each instance has its own fault counter) and the
    // fault sits inside the first session any of them runs. Breakers stay
    // open for the whole test, so the final `Open` check cannot race the
    // cooldown and no rebuild lands back on the dead device.
    const FAULT_CALL: u64 = 18;
    let faults = FaultDirectory::new().with_plan(
        catalog::radeon_r9_nano().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(FAULT_CALL)),
    );
    // Why `FAULT_CALL`: a fresh Radeon worker, created the way the pool
    // creates one, reaches it within any single session.
    let probe = full_manager_with_faults(&faults);
    for seed in 0..SESSIONS as u64 {
        let mut inst = base_spec().named(RADEON).instantiate(&probe).unwrap();
        let err = session(seed).evaluate(inst.as_mut()).unwrap_err();
        assert!(
            matches!(
                err,
                BeagleError::Device {
                    kind: DeviceErrorKind::DeviceLost,
                    ..
                }
            ),
            "call {FAULT_CALL} must fall inside session {seed}: {err:?}"
        );
    }

    let reference = serial_bits(&full_manager(), &base_spec().named("CPU-serial"));

    let manager = full_manager_with_faults(&faults);
    manager.set_breaker_config(BreakerConfig {
        cooldown: Duration::from_secs(3600),
        ..BreakerConfig::default()
    });
    let (pooled, stats) = pooled_bits(&manager, &base_spec(), &[RADEON], 2);

    assert_eq!(pooled, reference, "eviction must not change any result");
    assert!(
        stats.evictions >= 1,
        "the dead device must evict its worker (stats: {})",
        stats.to_json()
    );
    assert!(
        stats.requeued >= 1,
        "the interrupted session must requeue (stats: {})",
        stats.to_json()
    );
    assert!(
        stats.rebuilds >= 1,
        "the evicted worker must be replaced (stats: {})",
        stats.to_json()
    );
    assert!(
        !manager.health().available(RADEON),
        "the dead implementation's breaker must be open"
    );
}
