//! Differential bit-exactness suite for the adaptive load balancer.
//!
//! The contract under test: splitting a problem across devices — at ANY
//! weighting the balancer might ever choose — must not change a single bit
//! of the log-likelihood relative to a single instance of the same
//! implementation. The partitioned layer guarantees this by recomputing the
//! total as one pattern-ordered f64 fold over the concatenated per-site
//! likelihoods (re-casting pattern weights through `f32` for
//! single-precision children), exactly as every back-end does internally.
//!
//! Covered here: backend × precision × scaling at a static skewed split,
//! the same matrix after explicit mid-run migrations (`rebalance_to`),
//! an *adaptive* rebalance triggered by an injected 4× device slowdown,
//! permanent-loss eviction with measured-throughput repartitioning over the
//! survivors, and checkpoint/restore of a rebalanced instance.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::core::{BalancerConfig, Checkpoint, Flags, InstanceSpec};
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

fn opencl_gpu_name(device: &beagle::accel::DeviceSpec) -> String {
    format!("OpenCL-GPU ({})", device.name)
}

/// Two children pinned to `name` at the given weights, same precision
/// requirement as the reference instance.
fn pinned_pair(
    manager: &std::sync::Arc<beagle::core::ImplementationManager>,
    p: &Problem,
    name: &str,
    require: Flags,
    weights: &[f64],
) -> PartitionedInstance {
    let selections: Vec<_> = (0..weights.len())
        .map(|_| ChildSelection::named(name, Flags::NONE, require))
        .collect();
    PartitionedInstance::create(
        manager,
        &InstanceSpec::with_config(p.config()).require(require),
        &selections,
        weights,
    )
    .unwrap()
}

/// The core matrix: backend × precision × scaling. At each combination the
/// partitioned total must be bit-identical to the pinned single instance —
/// first at the static 1:3 split, then again after two explicit migrations
/// (the balancer's migration path, driven deterministically).
#[test]
fn partitioned_is_bit_exact_with_single_instance_at_every_weighting() {
    let p = problem();
    let manager = full_manager();
    let backends = [
        cuda_impl_name(),
        "OpenCL-x86".to_string(),
        "CPU-SSE".to_string(),
    ];
    for name in &backends {
        for single_precision in [false, true] {
            for scaled in [false, true] {
                let require = if single_precision {
                    Flags::PRECISION_SINGLE
                } else {
                    Flags::PRECISION_DOUBLE
                };
                let mut reference = InstanceSpec::with_config(p.config())
                    .named(name.clone())
                    .require(require)
                    .instantiate(&manager)
                    .unwrap();
                p.load(reference.as_mut());
                let want = p.evaluate(reference.as_mut(), scaled);

                let mut multi = pinned_pair(&manager, &p, name, require, &[1.0, 3.0]);
                p.load(&mut multi);
                let got = p.evaluate(&mut multi, scaled);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "{name} single={single_precision} scaled={scaled}: \
                     static split {got} != single {want}"
                );

                // Migrate twice (fast-first, then slow-first) and re-check:
                // every intermediate weighting must stay bit-exact.
                for weights in [[5.0, 1.0], [1.0, 4.0]] {
                    assert!(
                        multi.rebalance_to(&weights).unwrap(),
                        "{weights:?} must migrate"
                    );
                    let after = p.evaluate(&mut multi, scaled);
                    assert_eq!(
                        want.to_bits(),
                        after.to_bits(),
                        "{name} single={single_precision} scaled={scaled} {weights:?}: \
                         rebalanced {after} != single {want}"
                    );
                }
                assert_eq!(multi.rebalance_count(), 2);
            }
        }
    }
}

/// An organic, measurement-driven rebalance: one of two same-implementation
/// GPU children is throttled 4× by an injected `Slowdown` fault. The EWMA
/// balancer must detect the skew, migrate patterns toward the healthy
/// device, and every batch before/during/after the migration must stay
/// bit-identical to an unpartitioned run.
#[test]
fn adaptive_rebalance_under_injected_slowdown_stays_bit_exact() {
    let slow = catalog::radeon_r9_nano();
    let fast = catalog::firepro_s9170();
    let faults = FaultDirectory::new().with_plan(
        slow.name,
        FaultPlan::new(7).with_fault(FaultKind::Slowdown(4.0), false, Schedule::EveryN(1)),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();

    let mut reference = InstanceSpec::with_config(p.config())
        .named(opencl_gpu_name(&fast))
        .instantiate(&manager)
        .unwrap();
    p.load(reference.as_mut());
    let want = p.evaluate(reference.as_mut(), false);

    let selections = vec![
        ChildSelection::named(opencl_gpu_name(&fast), Flags::NONE, Flags::NONE),
        ChildSelection::named(opencl_gpu_name(&slow), Flags::NONE, Flags::NONE),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &selections,
        &[1.0, 1.0],
    )
    .unwrap();
    multi.enable_balancing(BalancerConfig { min_batches: 1 });
    p.load(&mut multi);

    for batch in 0..4 {
        let got = p.evaluate(&mut multi, false);
        assert_eq!(
            want.to_bits(),
            got.to_bits(),
            "batch {batch}: partitioned {got} != single {want}"
        );
    }
    assert!(
        multi.rebalance_count() >= 1,
        "a 4x throttled child must trigger at least one rebalance"
    );
    // The healthy device ends up owning the larger share.
    let (f0, f1) = multi.range(0);
    let (s0, s1) = multi.range(1);
    assert!(
        f1 - f0 > s1 - s0,
        "fast child range {f0}..{f1} must exceed slow child range {s0}..{s1}"
    );
}

/// Permanent device loss composes with balancing: the dead child is
/// evicted, the survivors are re-split by their *measured* throughputs, and
/// the result is still bit-identical to a single instance of the surviving
/// implementation.
#[test]
fn eviction_rebalances_survivors_and_stays_bit_exact() {
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();

    let mut reference = InstanceSpec::with_config(p.config())
        .named("OpenCL-x86")
        .instantiate(&manager)
        .unwrap();
    p.load(reference.as_mut());
    let want = p.evaluate(reference.as_mut(), false);

    // CUDA child dies mid-run; the two OpenCL-x86 children absorb its range
    // at measured-throughput proportions.
    let selections = vec![
        ChildSelection::named(cuda_impl_name(), Flags::NONE, Flags::NONE),
        ChildSelection::named("OpenCL-x86", Flags::NONE, Flags::NONE),
        ChildSelection::named("OpenCL-x86", Flags::NONE, Flags::NONE),
    ];
    let mut multi = PartitionedInstance::create(
        &manager,
        &InstanceSpec::with_config(p.config()),
        &selections,
        &[1.0, 1.0, 1.0],
    )
    .unwrap();
    multi.enable_balancing(BalancerConfig { min_batches: 1 });
    p.load(&mut multi);
    let got = p.evaluate(&mut multi, false);

    assert_eq!(multi.eviction_count(), 1, "the dead child must be evicted");
    assert_eq!(multi.device_count(), 2);
    assert_eq!(
        want.to_bits(),
        got.to_bits(),
        "post-eviction {got} != single surviving implementation {want}"
    );

    // The survivors keep balancing: later batches stay exact too.
    let again = p.evaluate(&mut multi, false);
    assert_eq!(want.to_bits(), again.to_bits());
}

/// A checkpoint of a *rebalanced* instance restores bit-exactly: the
/// journal snapshot is layout-independent, so the weighting history the
/// balancer went through leaves no residue in the restored state.
#[test]
fn checkpoint_of_rebalanced_instance_restores_bit_exactly() {
    let p = problem();
    let manager = full_manager();
    // Both children pinned to the top-ranked implementation, so the
    // restore's fresh ranking lands on the same backend.
    let mut multi = pinned_pair(&manager, &p, &cuda_impl_name(), Flags::NONE, &[1.0, 1.0]);
    p.load(&mut multi);
    let _ = p.evaluate(&mut multi, false);
    assert!(multi.rebalance_to(&[3.0, 1.0]).unwrap());
    let lnl = p.evaluate(&mut multi, false);

    use beagle::core::BeagleInstance;
    let ckpt: Checkpoint = multi.checkpoint().expect("partitioned instances snapshot");
    let fresh = full_manager();
    let mut restored = ckpt.restore(&fresh).unwrap();
    assert!(
        restored.details().implementation_name.contains("CUDA"),
        "fresh ranking must pick the same backend the children were pinned to"
    );
    let lnl_restored = p.evaluate(&mut restored, false);
    assert_eq!(
        lnl.to_bits(),
        lnl_restored.to_bits(),
        "restored {lnl_restored} != rebalanced original {lnl}"
    );
}

/// The auto-partitioned front door: `InstanceSpec::auto_partitioned` seeds
/// children and weights from `benchmark_resources` and enables balancing.
/// Different backends may disagree in the last ulp, so this checks
/// structure plus oracle agreement rather than bits.
#[test]
fn auto_partitioned_spec_seeds_from_benchmarks() {
    let p = problem();
    let manager = full_manager();
    let mut multi = InstanceSpec::with_config(p.config())
        .auto_partitioned(2)
        .instantiate_partitioned(&manager)
        .unwrap();
    assert_eq!(multi.device_count(), 2);
    assert!(
        multi.balancer().is_some(),
        "auto-partitioned instances balance adaptively"
    );
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);
    let oracle = p.oracle();
    assert!((lnl - oracle).abs() < 1e-7, "{lnl} vs {oracle}");
}
