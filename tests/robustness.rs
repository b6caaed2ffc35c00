//! Robustness end-to-end: deadline watchdogs cancelling hung devices,
//! per-resource circuit breakers steering creation and benchmarking, and
//! durable checkpoint/restore across manager lifetimes.
//!
//! The acceptance bar: a seeded device hang on one child of a partitioned
//! instance must complete the full workload bit-identically to a fault-free
//! run on the surviving layout, and a checkpoint written mid-run must
//! restore in a fresh manager to the identical likelihood.

use std::time::Duration;

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::core::{
    BeagleError, BeagleInstance, BreakerConfig, BreakerState, Checkpoint, EventKind, Flags,
    InstanceSpec, Outcome,
};
use beagle::harness::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};

fn problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    })
}

fn cuda_impl_name() -> String {
    format!("CUDA ({})", catalog::quadro_p5000().name)
}

/// A breaker configuration whose cooldown never elapses within a test, so
/// `Open` assertions cannot race the wall clock.
fn sticky_breakers() -> BreakerConfig {
    BreakerConfig {
        cooldown: Duration::from_secs(3600),
        ..BreakerConfig::default()
    }
}

/// Acceptance: the CUDA child wedges mid-traversal. The watchdog cancels
/// the call at the deadline, the timeout evicts the child, its breaker
/// opens, and the repartitioned run finishes bit-identical to a fault-free
/// run on the survivor layout.
#[test]
fn hung_device_is_cancelled_evicted_and_bit_exact() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::Hang, false, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    manager.set_breaker_config(sticky_breakers());
    let p = problem();
    let devices = [
        (Flags::INSTANCE_STATS, Flags::FRAMEWORK_CUDA),
        (
            Flags::INSTANCE_STATS,
            Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU,
        ),
        (Flags::INSTANCE_STATS, Flags::PROCESSOR_CPU),
    ];
    let spec = InstanceSpec::with_config(p.config()).with_deadline(Duration::from_millis(100));
    let mut multi = PartitionedInstance::create(
        &manager,
        &spec,
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0, 1.0],
    )
    .unwrap();
    assert_eq!(multi.device_count(), 3);

    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);

    assert_eq!(multi.eviction_count(), 1, "the hung child must be evicted");
    assert_eq!(
        multi.device_count(),
        2,
        "survivors absorb its pattern range"
    );

    // The watchdog cancellation was scored as a hard failure: the CUDA
    // resource's breaker is open and it is quarantined.
    let cuda = cuda_impl_name();
    assert_eq!(manager.health().state(cuda.as_str()), BreakerState::Open);
    assert!(!manager.health().available(cuda.as_str()));
    assert!(manager.health().counts(cuda.as_str()).timeouts >= 1);

    // The event journal narrates the rescue.
    let journal = multi.take_journal();
    assert!(
        journal.iter().any(|e| e.kind == EventKind::WatchdogTimeout),
        "watchdog cancellation must be journaled"
    );
    assert!(
        journal.iter().any(|e| e.kind == EventKind::BreakerOpen),
        "breaker transition must be journaled"
    );
    assert!(journal
        .iter()
        .any(|e| e.kind == EventKind::FailoverEviction));

    // Bit-exactness: a fault-free run on the survivor layout computes the
    // same partition ranges over the same deterministic kernels.
    let clean = full_manager();
    let survivors = [devices[1], devices[2]];
    let mut baseline = PartitionedInstance::create(
        &clean,
        &InstanceSpec::with_config(p.config()),
        &survivors.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut baseline);
    let expected = p.evaluate(&mut baseline, false);
    assert_eq!(
        lnl.to_bits(),
        expected.to_bits(),
        "failover result {lnl} must be bit-identical to fault-free {expected}"
    );
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs oracle {oracle}");
}

/// A stall shorter than the watchdog budget is not a fault: the call
/// completes late, nothing is retried or evicted, and the answer is right.
#[test]
fn stall_under_the_watchdog_budget_completes_late_but_correct() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(
            FaultKind::Stall(Duration::from_millis(1)),
            true,
            Schedule::AtCall(18),
        ),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);

    assert_eq!(
        multi.eviction_count(),
        0,
        "a survivable stall must not evict"
    );
    assert_eq!(
        multi.retry_counts()[0],
        0,
        "a survivable stall is not a fault"
    );
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs {oracle}");
}

/// The same stall against a tighter deadline is cancelled: the watchdog
/// turns it into a timeout, which goes straight to eviction (timeouts are
/// evictable but not retryable).
#[test]
fn stall_beyond_the_deadline_is_cancelled_and_evicted() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(
            FaultKind::Stall(Duration::from_millis(50)),
            true,
            Schedule::AtCall(18),
        ),
    );
    let manager = full_manager_with_faults(&faults);
    manager.set_breaker_config(sticky_breakers());
    let p = problem();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let spec = InstanceSpec::with_config(p.config()).with_deadline(Duration::from_millis(10));
    let mut multi = PartitionedInstance::create(
        &manager,
        &spec,
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);

    assert_eq!(
        multi.eviction_count(),
        1,
        "the cancelled child must be evicted"
    );
    assert_eq!(multi.device_count(), 1);
    assert_eq!(multi.retry_counts(), &[0], "timeouts are not retried");
    assert!(manager.health().counts(cuda_impl_name().as_str()).timeouts >= 1);
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs {oracle}");
}

/// A hang on a single pinned instance with no explicit deadline is still
/// cancelled by the driver-default watchdog budget and classified as a
/// non-retryable timeout naming the budget.
#[test]
fn watchdog_timeout_is_classified_and_not_retryable() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::Hang, false, Schedule::AtCall(16)),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();
    let mut inst = InstanceSpec::with_config(p.config())
        .named(cuda_impl_name())
        .without_rescue()
        .instantiate(&manager)
        .unwrap();
    p.load(inst.as_mut());
    let err = inst.update_partials(&p.operations(false)).unwrap_err();
    assert!(
        matches!(err, BeagleError::Timeout { .. }),
        "a watchdog cancellation must surface as Timeout, got {err:?}"
    );
    assert!(!err.is_retryable(), "timeouts must not be blindly retried");
    assert!(
        err.to_string().contains("watchdog"),
        "the message should name the budget: {err}"
    );
}

/// An open breaker steers ranked creation away from the quarantined
/// implementation; after the cooldown the benchmark workload is the
/// half-open probe that closes it; while open, benchmarking skips it.
#[test]
fn open_breaker_steers_ranked_creation_and_benchmark_reprobes() {
    let manager = full_manager();
    let p = problem();
    let cuda = cuda_impl_name();

    // Healthy baseline: ranked creation picks the CUDA implementation.
    let inst = InstanceSpec::with_config(p.config())
        .instantiate(&manager)
        .unwrap();
    assert!(
        inst.details().implementation_name.starts_with("CUDA"),
        "expected CUDA to rank first, got {}",
        inst.details().implementation_name
    );

    // A watchdog cancellation trips the breaker immediately.
    manager.set_breaker_config(sticky_breakers());
    manager.health().record(cuda.as_str(), Outcome::Timeout);
    assert_eq!(manager.health().state(cuda.as_str()), BreakerState::Open);

    // Ranked creation now skips the quarantined implementation...
    let inst = InstanceSpec::with_config(p.config())
        .instantiate(&manager)
        .unwrap();
    assert!(
        !inst.details().implementation_name.starts_with("CUDA"),
        "quarantined implementation must be skipped, got {}",
        inst.details().implementation_name
    );
    // ...and benchmarking reports it as quarantined instead of probing it.
    let results = manager.benchmark_resources(&p.config(), Flags::NONE);
    let entry = results.iter().find(|r| r.implementation == cuda).unwrap();
    assert!(
        entry.error.as_deref().unwrap_or("").contains("quarantined"),
        "open breaker must block the benchmark probe: {:?}",
        entry.error
    );

    // Cooldown elapses: the breaker settles to half-open and the benchmark
    // workload is the probe that closes it.
    manager.set_breaker_config(BreakerConfig {
        cooldown: Duration::ZERO,
        ..BreakerConfig::default()
    });
    assert_eq!(
        manager.health().state(cuda.as_str()),
        BreakerState::HalfOpen
    );
    let results = manager.benchmark_resources(&p.config(), Flags::NONE);
    let entry = results.iter().find(|r| r.implementation == cuda).unwrap();
    assert!(
        entry.error.is_none(),
        "half-open resource must be re-probed: {:?}",
        entry.error
    );
    assert_eq!(manager.health().state(cuda.as_str()), BreakerState::Closed);
}

/// Health consultation is fail-open: with every implementation quarantined,
/// creation ignores the registry rather than refuse the request.
#[test]
fn health_consultation_fails_open_when_everything_is_quarantined() {
    let manager = full_manager();
    let p = problem();
    manager.set_breaker_config(sticky_breakers());
    for entry in manager.benchmark_resources(&p.config(), Flags::NONE) {
        manager
            .health()
            .record(entry.implementation.as_str(), Outcome::Permanent);
    }
    let mut inst = InstanceSpec::with_config(p.config())
        .instantiate(&manager)
        .expect("a wrong health signal must degrade ranking, never availability");
    let (lnl, oracle) = beagle::harness::verify(&p, inst.as_mut(), false);
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs {oracle}");
}

/// Acceptance: a checkpoint written mid-run (after the uploads, before any
/// integration) survives save → load in a *fresh* manager and restores to
/// the bit-identical likelihood. Corrupting the file is detected, not
/// replayed.
#[test]
fn checkpoint_restores_bit_exactly_in_a_fresh_manager() {
    let p = problem();
    let manager = full_manager();
    let mut inst = InstanceSpec::with_config(p.config())
        .named(cuda_impl_name())
        .checkpointed()
        .with_stats()
        .instantiate(&manager)
        .unwrap();
    p.load(inst.as_mut());
    let ckpt = inst
        .checkpoint()
        .expect("a checkpointed spec must snapshot");
    let journal = inst.take_journal();
    assert!(journal.iter().any(|e| e.kind == EventKind::CheckpointSaved));

    let lnl = p.evaluate(inst.as_mut(), false);

    let path =
        std::env::temp_dir().join(format!("beagle-robustness-ckpt-{}.txt", std::process::id()));
    ckpt.save(&path).unwrap();

    // A fresh manager stands in for a fresh process: nothing is shared with
    // the instance that wrote the snapshot.
    let fresh = full_manager();
    let loaded = Checkpoint::load(&path).unwrap();
    let mut restored = loaded.restore(&fresh).unwrap();
    let journal = restored.take_journal();
    assert!(journal
        .iter()
        .any(|e| e.kind == EventKind::CheckpointRestored));
    let lnl_restored = p.evaluate(&mut restored, false);
    assert_eq!(
        lnl.to_bits(),
        lnl_restored.to_bits(),
        "restored likelihood {lnl_restored} must be bit-identical to {lnl}"
    );

    // Tamper with one byte of the body: the content hash catches it.
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("journal", "jOurnal", 1);
    assert_ne!(text, tampered, "fixture must actually change the file");
    std::fs::write(&path, tampered).unwrap();
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(
        matches!(err, BeagleError::CheckpointCorrupt(_)),
        "a tampered snapshot must be rejected, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// A checkpoint of an instance that prefers `COMPUTATION_ASYNCH` records
/// the flag in its provenance, and restores in a fresh manager into the
/// same eager stack an instance without the flag gets, with the same bits.
#[test]
fn asynch_checkpoint_records_the_flag_and_restores_eager() {
    fn depth(inst: &dyn BeagleInstance) -> usize {
        inst.wrapped().map_or(0, |inner| 1 + depth(inner))
    }
    let p = problem();
    let manager = full_manager();
    let spec = InstanceSpec::with_config(p.config())
        .named(cuda_impl_name())
        .checkpointed();
    let mut inst = spec
        .clone()
        .prefer(Flags::COMPUTATION_ASYNCH)
        .instantiate(&manager)
        .unwrap();
    let mut eager = spec.instantiate(&manager).unwrap();
    p.load(inst.as_mut());
    let ckpt = inst
        .checkpoint()
        .expect("a checkpointed spec must snapshot");
    assert!(ckpt
        .provenance
        .preferences
        .contains(Flags::COMPUTATION_ASYNCH));
    let lnl = p.evaluate(inst.as_mut(), false);
    p.load(eager.as_mut());
    assert_eq!(lnl.to_bits(), p.evaluate(eager.as_mut(), false).to_bits());

    let fresh = full_manager();
    let mut restored = ckpt.restore(&fresh).unwrap();
    assert_eq!(depth(&restored), depth(eager.as_ref()));
    assert!(restored.queue_stats().is_none());
    assert!(!restored
        .details()
        .flags
        .intersects(Flags::COMPUTATION_SYNCH | Flags::COMPUTATION_ASYNCH));
    let lnl_restored = p.evaluate(&mut restored, false);
    assert_eq!(
        lnl.to_bits(),
        lnl_restored.to_bits(),
        "{lnl} vs {lnl_restored}"
    );
}

/// A partitioned instance snapshots its replicated state journal; the
/// restored (re-ranked, possibly single-device) instance reproduces the
/// likelihood within summation-order tolerance.
#[test]
fn partitioned_checkpoint_restores_after_rerank() {
    let p = problem();
    let manager = full_manager();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);

    let ckpt = multi
        .checkpoint()
        .expect("partitioned instances snapshot their journal");
    let fresh = full_manager();
    let mut restored = ckpt.restore(&fresh).unwrap();
    let lnl_restored = p.evaluate(&mut restored, false);
    assert!(
        (lnl - lnl_restored).abs() < 1e-9,
        "restored {lnl_restored} must match partitioned {lnl} up to summation order"
    );
}
