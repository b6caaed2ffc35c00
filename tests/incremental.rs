//! Differential harness for the epoch-based incremental layer.
//!
//! The memoization wrapper (`beagle_core::memo`) may skip a kernel call only
//! when the destination already holds the bits that call would produce, so
//! an incremental instance must be indistinguishable — bit for bit — from an
//! always-recompute instance on the same call sequence. These tests drive
//! both through an MCMC-like single-branch sweep on every backend ×
//! precision × scaling, and through the failure machinery
//! (mid-run device loss, checkpoint/restore) where stale epochs would be
//! silently wrong rather than loudly broken.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::harness::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};
use beagle::prelude::*;

fn problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 160,
        categories: 2,
        seed: 11,
    })
}

/// One MCMC-style sweep: each iteration perturbs a single branch, re-loads,
/// and re-evaluates. Returns the lnL bit trace.
fn sweep(p: &mut Problem, inst: &mut dyn BeagleInstance, scaled: bool, iters: usize) -> Vec<u64> {
    p.load(inst);
    let mut trace = vec![p.evaluate(inst, scaled).to_bits()];
    let n_branch = 2 * p.tree.taxon_count() - 2;
    for i in 0..iters {
        let node = (i * 5 + 1) % n_branch;
        p.tree.node_mut(node).branch_length *= 1.0 + 0.02 * ((i % 7) as f64 + 1.0);
        p.load(inst);
        trace.push(p.evaluate(inst, scaled).to_bits());
    }
    trace
}

fn instance(
    manager: &ImplementationManager,
    p: &Problem,
    name: &str,
    incremental: bool,
    single: bool,
) -> Option<Box<dyn BeagleInstance>> {
    let flags = if single {
        Flags::PRECISION_SINGLE
    } else {
        Flags::PRECISION_DOUBLE
    };
    InstanceSpec::with_config(p.config())
        .named(name)
        .require(flags)
        .incremental(incremental)
        .instantiate(manager)
        .ok()
}

/// The tentpole guarantee: on every backend, in both precisions, scaled and
/// unscaled, a memoized sweep produces the same bit trace
/// as an always-recompute sweep — while actually skipping work.
#[test]
fn incremental_sweep_is_bit_identical_on_every_backend() {
    let manager = full_manager();
    let mut compared = 0;
    for name in manager.implementation_names() {
        for single in [false, true] {
            for scaled in [false, true] {
                let Some(mut inc) = instance(&manager, &problem(), &name, true, single) else {
                    continue;
                };
                let mut base = instance(&manager, &problem(), &name, false, single)
                    .expect("disabling memoization must not change eligibility");
                assert!(
                    base.memo_stats().is_none(),
                    "{name}: .incremental(false) must not install the memo layer"
                );
                let inc_trace = sweep(&mut problem(), inc.as_mut(), scaled, 6);
                let base_trace = sweep(&mut problem(), base.as_mut(), scaled, 6);
                assert_eq!(
                    inc_trace, base_trace,
                    "{name} single={single} scaled={scaled}: \
                     incremental trace diverged"
                );
                let stats = inc
                    .memo_stats()
                    .expect("default spec installs the memo layer");
                assert!(
                    stats.total_skips() > 0,
                    "{name} single={single} scaled={scaled}: \
                     a single-branch sweep must skip clean work, got {stats:?}"
                );
                compared += 1;
            }
        }
    }
    assert!(
        compared >= 28,
        "expected most backends to run, got {compared}"
    );
}

/// The MCMC revert patterns on the default stack (memo + rescue,
/// the stack mcmc-nuc runs): a rejected branch move sends t -> t' -> t to
/// one matrix, and a topology move hands known branch lengths to other
/// matrices. Both must be served from memo's matrix store instead of the
/// back-end, with the same bits as an always-recompute instance.
#[test]
fn rejected_moves_and_reassigned_lengths_are_served_from_the_matrix_store() {
    let manager = full_manager();
    let mut p = problem();
    let spec = |incremental| {
        InstanceSpec::with_config(p.config())
            .named("CPU-SSE")
            .incremental(incremental)
    };
    let mut inst = spec(true).instantiate(&manager).unwrap();
    let mut base = spec(false).instantiate(&manager).unwrap();
    let mut evaluate = |p: &Problem, what: &str| {
        p.load(inst.as_mut());
        p.load(base.as_mut());
        let a = p.evaluate(inst.as_mut(), true);
        let b = p.evaluate(base.as_mut(), true);
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: memo changed lnL");
        inst.memo_stats().unwrap()
    };
    let start = evaluate(&p, "first evaluation");

    // A rejected branch move: t -> t' -> t on one matrix.
    let t = p.tree.node_mut(3).branch_length;
    p.tree.node_mut(3).branch_length = t * 1.3;
    let moved = evaluate(&p, "proposal");
    assert_eq!(moved.matrices_computed, start.matrices_computed + 1);
    p.tree.node_mut(3).branch_length = t;
    let rejected = evaluate(&p, "rejection");
    assert_eq!(
        rejected.matrices_computed, moved.matrices_computed,
        "the restored length must not be recomputed: {rejected:?}"
    );
    assert_eq!(rejected.matrices_reused, moved.matrices_reused + 1);

    // NNI-style relabelling: two known lengths trade matrices.
    let (a, b) = (1, 5);
    let (ta, tb) = (
        p.tree.node_mut(a).branch_length,
        p.tree.node_mut(b).branch_length,
    );
    assert_ne!(ta.to_bits(), tb.to_bits());
    p.tree.node_mut(a).branch_length = tb;
    p.tree.node_mut(b).branch_length = ta;
    let swapped = evaluate(&p, "reassigned lengths");
    assert_eq!(
        swapped.matrices_computed, rejected.matrices_computed,
        "reassigned lengths must not be recomputed: {swapped:?}"
    );
    assert_eq!(swapped.matrices_reused, rejected.matrices_reused + 2);
}

/// Mid-sweep device loss: failover replays the journal onto rebuilt children
/// whose buffers start empty, so their epochs must reset — a stale signature
/// here would skip the replay writes and freeze the dead device's partials.
#[test]
fn incremental_layer_survives_midrun_failover() {
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(40)),
    );
    let manager = full_manager_with_faults(&faults);
    let mut p = problem();
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &devices.map(|(prefs, reqs)| ChildSelection::from_flags(prefs, reqs)),
        &[1.0, 1.0],
    )
    .unwrap();
    assert!(
        multi.memo_stats().is_some(),
        "partitioned children are memoized by default"
    );
    p.load(&mut multi);
    p.evaluate(&mut multi, false);
    let n_branch = 2 * p.tree.taxon_count() - 2;
    for i in 0..8 {
        p.tree.node_mut((i * 5 + 1) % n_branch).branch_length *= 1.04;
        p.load(&mut multi);
        let lnl = p.evaluate(&mut multi, false);
        let oracle = p.oracle();
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "iteration {i}: post-failover incremental lnL {lnl} vs oracle {oracle}"
        );
    }
    assert_eq!(multi.eviction_count(), 1, "the dead child must be evicted");
    let stats = multi.memo_stats().unwrap();
    assert!(
        stats.total_skips() > 0,
        "the surviving sweep must still skip clean work: {stats:?}"
    );
}

/// Checkpoint/restore: the restored instance's backend buffers are rebuilt
/// from the journal, so its memo state must start over. The continuation of
/// the sweep must be bit-identical on the original, the restored copy, and
/// an always-recompute reference.
#[test]
fn incremental_layer_survives_checkpoint_restore() {
    let name = format!("CUDA ({})", catalog::quadro_p5000().name);
    let manager = full_manager();
    let mut p = problem();
    let mut inst = InstanceSpec::with_config(p.config())
        .named(&name)
        .checkpointed()
        .instantiate(&manager)
        .unwrap();
    let mut base = InstanceSpec::with_config(p.config())
        .named(&name)
        .incremental(false)
        .instantiate(&manager)
        .unwrap();

    // A few incremental iterations before the snapshot, so the checkpoint is
    // taken from a state the memo layer has already been skipping against.
    p.load(inst.as_mut());
    p.load(base.as_mut());
    p.evaluate(inst.as_mut(), false);
    p.evaluate(base.as_mut(), false);
    let n_branch = 2 * p.tree.taxon_count() - 2;
    for i in 0..3 {
        p.tree.node_mut((i * 5 + 1) % n_branch).branch_length *= 1.03;
        p.load(inst.as_mut());
        p.load(base.as_mut());
        let a = p.evaluate(inst.as_mut(), false);
        let b = p.evaluate(base.as_mut(), false);
        assert_eq!(a.to_bits(), b.to_bits(), "pre-snapshot iteration {i}");
    }

    let ckpt = inst.checkpoint().expect("checkpointed spec must snapshot");
    let fresh = full_manager();
    let mut restored = ckpt.restore(&fresh).unwrap();

    for i in 3..8 {
        p.tree.node_mut((i * 5 + 1) % n_branch).branch_length *= 1.03;
        p.load(inst.as_mut());
        p.load(&mut restored);
        p.load(base.as_mut());
        let a = p.evaluate(inst.as_mut(), false);
        let r = p.evaluate(&mut restored, false);
        let b = p.evaluate(base.as_mut(), false);
        assert_eq!(
            a.to_bits(),
            r.to_bits(),
            "iteration {i}: restored instance diverged from the original"
        );
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "iteration {i}: incremental diverged from always-recompute"
        );
    }
}
