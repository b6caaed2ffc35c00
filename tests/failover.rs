//! Fault-tolerance at the multi-device layer: a partitioned instance must
//! survive injected device faults (retrying transient ones, evicting dead
//! children and repartitioning on permanent ones) and still produce the
//! oracle's log-likelihood. Plus: automatic numerical rescue must recover
//! a deep-tree underflow to the same value explicit scaling gives.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::health::HealthCounts;
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::core::{
    BeagleError, BeagleInstance, BreakerState, BufferId, Event, EventKind, Flags,
    ImplementationManager, InstanceSpec, Operation, ScalingMode,
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

/// Three children; the CUDA child's device dies permanently mid-run.
/// Fault call 18 lands inside `update_partials` for this problem: creation
/// is call 1, the data upload is calls 2–14, the matrix kernel is 15, and
/// the seven partials launches are 16–22.
#[test]
fn partitioned_instance_survives_permanent_device_loss() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0, 1.0],
    )
    .unwrap();
    assert_eq!(multi.device_count(), 3);

    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);

    assert_eq!(multi.eviction_count(), 1, "the dead child must be evicted");
    assert_eq!(
        multi.device_count(),
        2,
        "survivors absorb its pattern range"
    );
    let oracle = p.oracle();
    assert!(
        (lnl - oracle).abs() < 1e-6,
        "failover result {lnl} must match oracle {oracle}"
    );
}

/// A transient fault clears on retry: no eviction, full device count, and
/// the retry counter records the recovery.
#[test]
fn transient_fault_is_retried_not_evicted() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::KernelLaunch, true, Schedule::AtCall(18)),
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

    assert_eq!(multi.eviction_count(), 0, "transient faults must not evict");
    assert_eq!(multi.device_count(), 2);
    assert!(multi.retry_counts()[0] >= 1, "the recovery must be counted");
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs {oracle}");
}

/// Every resource's breaker state and outcome counts.
fn health(manager: &ImplementationManager) -> Vec<(String, BreakerState, HealthCounts)> {
    manager
        .health()
        .snapshot()
        .into_iter()
        .map(|s| (s.id.0, s.state, s.counts))
        .collect()
}

/// A child's argument error is the caller's fault, not the device's: a
/// `set_*` call, `update_partials` and an integration each return the same
/// typed error a single instance of the child's implementation returns, and
/// no child is evicted or scored.
#[test]
fn child_argument_errors_reach_the_caller_without_eviction() {
    let manager = full_manager();
    let p = problem();
    let config = p.config();
    let devices = [
        ChildSelection::from_flags(Flags::NONE, Flags::FRAMEWORK_CUDA),
        ChildSelection::from_flags(Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(config),
        &devices,
        &[1.0, 1.0],
    )
    .unwrap();
    let mut single = InstanceSpec::with_config(config)
        .require(Flags::FRAMEWORK_CUDA)
        .instantiate(&manager)
        .unwrap();
    p.load(&mut multi);
    p.load(single.as_mut());
    let before = health(&manager);

    let bad = config.partials_buffer_count;
    let tip = p.patterns.tip_states(0);
    let ops = [Operation::new(bad, 0, 0, 1, 1)];
    let integrate = |inst: &mut dyn BeagleInstance| {
        inst.integrate_root(BufferId(bad), BufferId(0), BufferId(0), ScalingMode::None)
    };
    let cases: [(&str, BeagleError, BeagleError); 3] = [
        (
            "set_tip_states",
            multi.set_tip_states(bad, &tip).unwrap_err(),
            single.set_tip_states(bad, &tip).unwrap_err(),
        ),
        (
            "update_partials",
            multi.update_partials(&ops).unwrap_err(),
            single.update_partials(&ops).unwrap_err(),
        ),
        (
            "integrate_root",
            integrate(&mut multi).unwrap_err(),
            integrate(single.as_mut()).unwrap_err(),
        ),
    ];
    for (call, got, want) in cases {
        assert!(
            matches!(got, BeagleError::OutOfRange { .. }),
            "{call}: {got:?}"
        );
        assert_eq!(got, want, "{call}");
    }
    assert_eq!(multi.eviction_count(), 0);
    assert_eq!(multi.device_count(), 2);
    assert_eq!(multi.retry_counts(), [0, 0]);
    assert_eq!(health(&manager), before, "no breaker may move");
    let lnl = p.evaluate(&mut multi, false);
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs {oracle}");
}

/// A transient fault inside an integration is retried and scored
/// `Transient` against the child's resource, as in `update_partials` and
/// the `set_*` fan-out. Call 23 is the root integration for this problem
/// (see the call map above `partitioned_instance_survives_permanent_device_loss`).
#[test]
fn transient_integration_fault_is_retried_and_scored() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::KernelLaunch, true, Schedule::AtCall(23)),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();
    let devices = [
        ChildSelection::from_flags(Flags::NONE, Flags::FRAMEWORK_CUDA),
        ChildSelection::from_flags(Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices,
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut multi);
    multi.update_partials(&p.operations(false)).unwrap();
    assert_eq!(multi.retry_counts(), [0, 0], "the fault must land later");
    let cuda = multi.part(0).details().implementation_name.clone();
    let transients = manager.health().counts(cuda.as_str()).transients;

    let lnl = multi
        .integrate_root(
            BufferId(p.tree.root()),
            BufferId(0),
            BufferId(0),
            ScalingMode::None,
        )
        .unwrap();

    assert_eq!(multi.retry_counts(), [1, 0]);
    assert_eq!(multi.eviction_count(), 0);
    assert_eq!(
        manager.health().counts(cuda.as_str()).transients,
        transients + 1,
        "the integration retry must be scored Transient"
    );
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs {oracle}");
}

/// Even with every accelerator device dead at creation, the partitioned
/// instance degrades down the fallback chain and completes on the CPU.
#[test]
fn creation_falls_back_when_preferred_device_is_dead() {
    let mut faults = FaultDirectory::new();
    for spec in catalog::all() {
        faults.insert(
            spec.name,
            FaultPlan::new(1).with_fault(FaultKind::Allocation, false, Schedule::AtCall(1)),
        );
    }
    let manager = full_manager_with_faults(&faults);
    let p = problem();
    // No requirements: the manager tries GPU factories first, every one
    // fails at creation, and it lands on a CPU implementation.
    let mut inst = InstanceSpec::with_config(p.config())
        .instantiate(&manager)
        .expect("fallback chain must find a live implementation");
    assert!(
        !inst.details().implementation_name.starts_with("CUDA")
            && !inst.details().implementation_name.starts_with("OpenCL-GPU"),
        "accelerators are all dead, got {}",
        inst.details().implementation_name
    );
    let (lnl, oracle) = beagle::harness::verify(&p, inst.as_mut(), false);
    assert!((lnl - oracle).abs() < 1e-6);
}

/// A 120-taxon tree deep enough to underflow single-precision partials
/// without scaling.
fn deep_tree() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 120,
        patterns: 300,
        categories: 4,
        seed: 13,
    })
}

/// Deep-tree underflow in single precision: the unscaled integration hits
/// −∞, automatic rescue re-runs the traversal with per-pattern rescaling,
/// and the result matches an explicitly scaled evaluation.
#[test]
fn numerical_rescue_recovers_deep_tree_underflow() {
    let p = deep_tree();
    let manager = full_manager();
    let prefs = Flags::PRECISION_SINGLE;
    let reqs = Flags::PRECISION_SINGLE;

    // Prove the problem actually underflows: a bare (unwrapped) accelerator
    // instance without scaling cannot produce a finite likelihood.
    {
        use beagle::accel::CudaFactory;
        use beagle::core::manager::ImplementationFactory;
        let f = CudaFactory::new(catalog::quadro_p5000());
        let mut raw = f.create(&p.config(), prefs, reqs).unwrap();
        p.load(raw.as_mut());
        let ops = p.operations(false);
        raw.update_partials(&ops).unwrap();
        let unscaled = raw.integrate_root(
            BufferId(p.tree.root()),
            BufferId(0),
            BufferId(0),
            ScalingMode::None,
        );
        let underflowed = match &unscaled {
            Ok(v) => !v.is_finite(),
            Err(e) => matches!(e, beagle::core::BeagleError::NumericalFailure(_)),
        };
        assert!(
            underflowed,
            "the case must underflow without scaling: {unscaled:?}"
        );
    }

    // Managed instances are rescue-wrapped: the same unscaled evaluation
    // transparently recovers.
    let mut rescued_inst = InstanceSpec::with_config(p.config())
        .prefer(prefs)
        .require(reqs)
        .instantiate(&manager)
        .unwrap();
    p.load(rescued_inst.as_mut());
    let rescued = p.evaluate(rescued_inst.as_mut(), false);
    assert!(
        rescued.is_finite() && rescued < 0.0,
        "rescue must recover: {rescued}"
    );

    // And matches what a client doing manual scaling would have computed.
    let mut scaled_inst = InstanceSpec::with_config(p.config())
        .prefer(prefs)
        .require(reqs)
        .instantiate(&manager)
        .unwrap();
    p.load(scaled_inst.as_mut());
    let scaled = p.evaluate(scaled_inst.as_mut(), true);
    let rel = ((rescued - scaled) / scaled).abs();
    assert!(
        rel < 1e-5,
        "rescued {rescued} vs explicitly scaled {scaled}"
    );
}

/// Rescue and checkpoints share one journal: a checkpointed instance that
/// needs rescue to evaluate snapshots only the client's unscaled calls, and
/// the snapshot restores in a fresh manager to the bit-identical rescued
/// likelihood, rescuing again on the way.
#[test]
fn rescued_checkpoint_restores_bit_exactly_and_rescues_again() {
    let p = deep_tree();
    let spec = InstanceSpec::with_config(p.config())
        .prefer(Flags::PRECISION_SINGLE)
        .require(Flags::PRECISION_SINGLE)
        .checkpointed()
        .with_stats();
    let rescued =
        |journal: Vec<Event>| journal.iter().any(|e| e.kind == EventKind::RescueSucceeded);

    let mut inst = spec.instantiate(&full_manager()).unwrap();
    p.load(inst.as_mut());
    let lnl = p.evaluate(inst.as_mut(), false);
    assert!(lnl.is_finite(), "rescue must recover: {lnl}");
    assert!(rescued(inst.take_journal()), "the evaluation needed rescue");
    let ckpt = inst
        .checkpoint()
        .expect("a checkpointed spec must snapshot");
    assert!(
        ckpt.journal
            .operations()
            .iter()
            .all(|op| op.dest_scale_write.is_none()),
        "the snapshot holds the client's unscaled traversal, not the rescue re-run"
    );

    let mut restored = ckpt.restore(&full_manager()).unwrap();
    let lnl_restored = p.evaluate(&mut restored, false);
    assert_eq!(
        lnl.to_bits(),
        lnl_restored.to_bits(),
        "restored {lnl_restored} must be bit-identical to {lnl}"
    );
    assert!(
        rescued(restored.take_journal()),
        "the restored instance rescues too"
    );
}
