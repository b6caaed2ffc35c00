//! A rejected call leaves no trace: a journaling layer records a call only
//! once the layer below accepted it, so a bad argument changes neither the
//! live state nor anything rebuilt from the journal later — a checkpoint
//! restore, a numerical rescue, a rebalance or an eviction.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::core::{
    BeagleError, BeagleInstance, BufferId, Flags, InstanceSpec, Operation, ScalingMode,
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

type Rejected = fn(&Problem, &mut dyn BeagleInstance) -> beagle::core::Result<()>;

/// One rejected call of every mutating kind, each out of range or of the
/// wrong length for `problem()`.
fn rejected_calls() -> Vec<(&'static str, Rejected)> {
    vec![
        ("set_tip_states", |p, inst| {
            inst.set_tip_states(0, &vec![9; p.patterns.pattern_count()])
        }),
        ("set_tip_partials", |_, inst| {
            inst.set_tip_partials(0, &[0.25; 3])
        }),
        ("set_partials", |_, inst| {
            let c = *inst.config();
            inst.set_partials(c.partials_buffer_count, &vec![1.0; c.partials_len()])
        }),
        ("set_pattern_weights", |_, inst| {
            inst.set_pattern_weights(&[1.0; 3])
        }),
        ("set_state_frequencies", |_, inst| {
            inst.set_state_frequencies(99, &[0.25; 4])
        }),
        ("set_category_rates", |_, inst| {
            inst.set_category_rates(&[1.0])
        }),
        ("set_category_weights", |_, inst| {
            inst.set_category_weights(99, &[0.25; 4])
        }),
        ("set_eigen_decomposition", |_, inst| {
            inst.set_eigen_decomposition(99, &[0.0; 16], &[0.0; 16], &[0.0; 4])
        }),
        ("set_transition_matrix", |_, inst| {
            let c = *inst.config();
            inst.set_transition_matrix(c.matrix_buffer_count, &vec![0.25; c.matrix_len()])
        }),
        ("update_transition_matrices", |_, inst| {
            let matrices = inst.config().matrix_buffer_count;
            inst.update_transition_matrices(0, &[matrices], &[0.1])
        }),
        ("update_partials", |p, inst| {
            inst.update_partials(&[Operation::new(p.tree.root(), 10_000, 0, 1, 1)])
        }),
        ("reset_scale_factors", |_, inst| {
            inst.reset_scale_factors(10_000)
        }),
        ("accumulate_scale_factors", |_, inst| {
            inst.accumulate_scale_factors(&[10_000], 0)
        }),
    ]
}

/// On a checkpointed single instance, every kind of rejected call leaves
/// the live log-likelihood bits alone, and the checkpoint taken after it
/// restores to those bits.
#[test]
fn rejected_calls_leave_the_live_state_and_the_checkpoint_unchanged() {
    let p = problem();
    let manager = full_manager();
    let spec = InstanceSpec::with_config(p.config())
        .named("CPU-serial")
        .checkpointed();
    for (call, reject) in rejected_calls() {
        let mut inst = spec.instantiate(&manager).unwrap();
        p.load(inst.as_mut());
        let before = p.evaluate(inst.as_mut(), false);

        let err = reject(&p, inst.as_mut()).expect_err(call);
        assert!(err.fault().is_none(), "{call}: {err:?}");
        let live = p.evaluate(inst.as_mut(), false);
        assert_eq!(before.to_bits(), live.to_bits(), "{call}: live lnL moved");

        let ckpt = inst.checkpoint().expect("a checkpointed spec snapshots");
        let mut restored = ckpt
            .restore(&manager)
            .unwrap_or_else(|e| panic!("{call}: restore failed: {e}"));
        let lnl = p.evaluate(&mut restored, false);
        assert_eq!(before.to_bits(), lnl.to_bits(), "{call}: restored lnL");
    }
}

/// Rescue re-runs the journaled traversal, so it must not re-run a
/// rejected `update_partials`: after the client's unscaled traversal and a
/// rejected one, the unscaled integration of the f32 deep tree rescues to
/// the bits a fresh instance rescues to.
#[test]
fn rescue_after_a_rejected_traversal_still_rescues() {
    let p = deep_tree();
    let spec = InstanceSpec::with_config(p.config())
        .prefer(Flags::PRECISION_SINGLE)
        .require(Flags::PRECISION_SINGLE);
    let manager = full_manager();
    let mut fresh = spec.instantiate(&manager).unwrap();
    p.load(fresh.as_mut());
    let want = p.evaluate(fresh.as_mut(), false);
    assert!(want.is_finite(), "rescue must recover: {want}");

    let mut inst = spec.instantiate(&manager).unwrap();
    p.load(inst.as_mut());
    inst.update_partials(&p.operations(false)).unwrap();
    let bad = [Operation::new(p.tree.root(), 10_000, 0, 1, 1)];
    let err = inst.update_partials(&bad).unwrap_err();
    assert!(matches!(err, BeagleError::OutOfRange { .. }), "{err:?}");
    let got = inst
        .integrate_root(
            BufferId(p.tree.root()),
            BufferId(0),
            BufferId(0),
            ScalingMode::None,
        )
        .unwrap();
    assert_eq!(want.to_bits(), got.to_bits(), "rescued {got} vs {want}");
}

/// Tip states that change tip 0 (to state 0) before pattern `split` and
/// are out of range (9) from it on: a child left of `split` accepts the
/// call, a child right of it rejects it.
fn half_bad_tip_states(p: &Problem, split: usize) -> Vec<u32> {
    let mut states = vec![0; p.patterns.pattern_count()];
    states[split..].fill(9);
    states
}

/// Two CPU children; only the second rejects a `set_tip_states`. The
/// call leaves the logical state as it was: the same lnL bits, a
/// rebalance that rebuilds from the journal, and a checkpoint that
/// restores.
#[test]
fn a_call_one_child_rejects_leaves_the_partitioned_state_unchanged() {
    let p = problem();
    let manager = full_manager();
    let selections = [
        ChildSelection::named("CPU-serial", Flags::NONE, Flags::NONE),
        ChildSelection::named("CPU-serial", Flags::NONE, Flags::NONE),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &selections,
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut multi);
    let before = p.evaluate(&mut multi, false);

    let split = multi.range(1).0;
    let err = multi
        .set_tip_states(0, &half_bad_tip_states(&p, split))
        .unwrap_err();
    assert!(matches!(err, BeagleError::OutOfRange { .. }), "{err:?}");
    assert_eq!(multi.eviction_count(), 0);
    let after = p.evaluate(&mut multi, false);
    assert_eq!(before.to_bits(), after.to_bits(), "{after} vs {before}");

    assert_eq!(multi.rebalance_to(&[3.0, 1.0]), Ok(true));
    let rebalanced = p.evaluate(&mut multi, false);
    assert_eq!(before.to_bits(), rebalanced.to_bits());

    let ckpt = multi.checkpoint().expect("partitioned instances snapshot");
    let mut restored = ckpt.restore(&manager).expect("the checkpoint restores");
    let lnl = p.evaluate(&mut restored, false);
    assert!((lnl - before).abs() < 1e-9, "restored {lnl} vs {before}");
}

/// After a call only the last child rejects, a seeded device loss still
/// evicts one child and rebuilds the survivors from the journal, and the
/// run finishes bit-identical to a fault-free run on the survivor layout.
/// Fault call 30 lands in the CUDA child's `update_partials`: undoing the
/// rejected call rebuilt that child, whose creation and journal replay
/// (8 tips, 5 model inputs, 14 matrices) are calls 1–28.
#[test]
fn eviction_after_a_rejected_call_is_bit_exact() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(30)),
    );
    let p = problem();
    let cuda = format!("CUDA ({})", catalog::quadro_p5000().name);
    let selections = [
        ChildSelection::named(cuda, Flags::NONE, Flags::NONE),
        ChildSelection::named("OpenCL-x86", Flags::NONE, Flags::NONE),
        ChildSelection::named("OpenCL-x86", Flags::NONE, Flags::NONE),
    ];
    let mut multi = PartitionedInstance::create(
        &full_manager_with_faults(&faults),
        &InstanceSpec::with_config(p.config()),
        &selections,
        &[1.0, 1.0, 1.0],
    )
    .unwrap();
    p.load(&mut multi);
    let split = multi.range(2).0;
    assert!(multi
        .set_tip_states(0, &half_bad_tip_states(&p, split))
        .is_err());
    assert_eq!(multi.eviction_count(), 0, "the fault must land later");
    let lnl = p.evaluate(&mut multi, false);
    assert_eq!(multi.eviction_count(), 1, "the dead child must be evicted");
    assert_eq!(multi.device_count(), 2);

    let mut survivors = PartitionedInstance::create(
        &full_manager(),
        &InstanceSpec::with_config(p.config()),
        &selections[1..],
        &[1.0, 1.0],
    )
    .unwrap();
    p.load(&mut survivors);
    let want = p.evaluate(&mut survivors, false);
    assert_eq!(lnl.to_bits(), want.to_bits(), "{lnl} vs fault-free {want}");
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-6, "{lnl} vs oracle {oracle}");
}
