//! Workspace integration: the multi-device PartitionedInstance (the paper's
//! planned "dynamic load balancing across multiple devices from within a
//! single library instance") must agree with single-device evaluation.

use beagle::core::multi::{weighted_ranges, ChildSelection, PartitionedInstance};
use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

/// A partitioned instance over flag-selected `devices` at `weights`.
fn partitioned(
    manager: &std::sync::Arc<ImplementationManager>,
    p: &Problem,
    devices: &[(Flags, Flags)],
    weights: &[f64],
) -> PartitionedInstance {
    let selections: Vec<_> = devices
        .iter()
        .map(|&(prefs, reqs)| ChildSelection::from_flags(prefs, reqs))
        .collect();
    PartitionedInstance::create(
        manager,
        &InstanceSpec::with_config(p.config()),
        &selections,
        weights,
    )
    .unwrap()
}

fn problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    })
}

#[test]
fn partitioned_matches_single_device() {
    let p = problem();
    let oracle = p.oracle();
    let manager = full_manager();

    // Heterogeneous split: a simulated GPU plus two CPU implementations.
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU),
        (Flags::NONE, Flags::THREADING_THREAD_POOL),
    ];
    let weights = [8.0, 1.0, 1.0];
    let mut multi = partitioned(&manager, &p, &devices, &weights);
    assert_eq!(multi.device_count(), 3);
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);
    assert!((lnl - oracle).abs() < 1e-7, "{lnl} vs {oracle}");
}

#[test]
fn partitioned_site_likelihoods_concatenate_correctly() {
    let p = problem();
    let manager = full_manager();
    let devices = [(Flags::NONE, Flags::NONE), (Flags::NONE, Flags::NONE)];
    let mut multi = partitioned(&manager, &p, &devices, &[1.0, 1.0]);
    p.load(&mut multi);
    let total = p.evaluate(&mut multi, false);
    let sites = multi.get_site_log_likelihoods().unwrap();
    assert_eq!(sites.len(), p.patterns.pattern_count());
    let manual: f64 = sites
        .iter()
        .zip(p.patterns.weights())
        .map(|(l, w)| l * w)
        .sum();
    assert!((total - manual).abs() < 1e-8);

    // And they match a single-device run site by site.
    let mut single = InstanceSpec::with_config(p.config())
        .instantiate(&manager)
        .unwrap();
    p.load(single.as_mut());
    p.evaluate(single.as_mut(), false);
    let ref_sites = single.get_site_log_likelihoods().unwrap();
    for (a, b) in sites.iter().zip(&ref_sites) {
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn partitioned_scaling_and_single_precision() {
    let p = problem();
    let oracle = p.oracle();
    let manager = full_manager();
    let devices = [
        (Flags::PRECISION_SINGLE, Flags::PROCESSOR_GPU),
        (Flags::PRECISION_SINGLE, Flags::PROCESSOR_CPU),
    ];
    let mut multi = partitioned(&manager, &p, &devices, &[2.0, 1.0]);
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, true);
    assert!(((lnl - oracle) / oracle).abs() < 1e-4, "{lnl} vs {oracle}");
}

#[test]
fn partitioned_partials_roundtrip() {
    let p = problem();
    let manager = full_manager();
    let devices = [(Flags::NONE, Flags::NONE), (Flags::NONE, Flags::NONE)];
    let mut multi = partitioned(&manager, &p, &devices, &[1.0, 2.0]);
    let full = p.config().partials_len();
    let data: Vec<f64> = (0..full).map(|i| (i % 97) as f64 * 0.01).collect();
    multi.set_partials(9, &data).unwrap();
    let got = multi.get_partials(9).unwrap();
    assert_eq!(data, got, "split + reassembly must be the identity");
}

#[test]
fn partitioned_details_aggregate() {
    let p = problem();
    let manager = full_manager();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::THREADING_THREAD_POOL),
    ];
    let multi = partitioned(&manager, &p, &devices, &[1.0, 1.0]);
    let d = multi.details();
    assert!(d.implementation_name.starts_with("Partitioned["));
    assert!(d.implementation_name.contains("CUDA"));
    assert!(d.flags.contains(Flags::FRAMEWORK_CUDA));
    assert!(d.flags.contains(Flags::THREADING_THREAD_POOL));
}

#[test]
fn ranges_scale_with_device_speed() {
    // A device with 9x the throughput gets ~90% of the patterns; the split
    // point rounds to the SIMD pattern stride (900 -> 904).
    let r = weighted_ranges(1000, &[9.0, 1.0]).unwrap();
    assert_eq!(r[0], (0, 904));
    assert_eq!(r[1], (904, 1000));
}

#[test]
fn details_refresh_after_rebalance() {
    let p = problem();
    let manager = full_manager();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::THREADING_THREAD_POOL),
    ];
    let mut multi = partitioned(&manager, &p, &devices, &[1.0, 1.0]);
    p.load(&mut multi);
    p.evaluate(&mut multi, false);

    let before = multi.details();
    assert!(before.implementation_name.contains("CUDA"));

    // An explicit migration rebuilds the children at new ranges; the
    // aggregated details must be recomputed over the new parts.
    assert!(multi.rebalance_to(&[3.0, 1.0]).unwrap());
    let after = multi.details();
    assert!(after.implementation_name.starts_with("Partitioned["));
    assert!(after.implementation_name.contains("CUDA"));
    assert!(after.flags.contains(Flags::FRAMEWORK_CUDA));
    assert!(after.flags.contains(Flags::THREADING_THREAD_POOL));

    // And the rebalanced instance still evaluates correctly.
    let lnl = p.evaluate(&mut multi, false);
    assert!((lnl - p.oracle()).abs() < 1e-7);
}

/// Root and edge log-likelihoods of a partitioned instance over several
/// splits equal a single instance of the same implementation bit for bit:
/// the partitioned layer continues one running reduction over its
/// children's site values in pattern order.
#[test]
fn partitioned_root_and_edge_lnl_equal_the_single_instance_bits() {
    let p = problem();
    let manager = full_manager();
    let root = p.tree.root();
    let child = p.tree.node(root).children[0];
    let integrate = |inst: &mut dyn BeagleInstance, scaled: bool| {
        let root_lnl = p.evaluate(inst, scaled);
        let scaling = if scaled {
            ScalingMode::cumulative(inst.config().scale_buffer_count - 1)
        } else {
            ScalingMode::None
        };
        let edge = inst
            .integrate_edge(
                BufferId(root),
                BufferId(child),
                BufferId(child),
                BufferId(0),
                BufferId(0),
                scaling,
            )
            .unwrap();
        [root_lnl.to_bits(), edge.to_bits()]
    };
    let names = [
        "CPU-serial".to_string(),
        "CPU-SSE".to_string(),
        "OpenCL-x86".to_string(),
        format!("CUDA ({})", beagle::accel::catalog::quadro_p5000().name),
    ];
    for name in &names {
        for require in [Flags::PRECISION_DOUBLE, Flags::PRECISION_SINGLE] {
            for scaled in [false, true] {
                let spec = InstanceSpec::with_config(p.config()).require(require);
                let mut single = spec
                    .clone()
                    .named(name.clone())
                    .instantiate(&manager)
                    .unwrap();
                p.load(single.as_mut());
                let want = integrate(single.as_mut(), scaled);
                for weights in [&[1.0, 1.0][..], &[1.0, 3.0], &[3.0, 1.0, 2.0], &[1.0; 4]] {
                    let selections: Vec<_> = weights
                        .iter()
                        .map(|_| ChildSelection::named(name, Flags::NONE, require))
                        .collect();
                    let mut multi =
                        PartitionedInstance::create(&manager, &spec, &selections, weights).unwrap();
                    p.load(&mut multi);
                    assert_eq!(
                        integrate(&mut multi, scaled),
                        want,
                        "{name} {require:?} scaled={scaled} split {weights:?}: [root, edge] bits"
                    );
                }
            }
        }
    }
}
