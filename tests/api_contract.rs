//! Workspace integration: API-contract behaviour through trait objects —
//! validation errors, instance details, buffer roundtrips, clock semantics.

use beagle::harness::{full_manager, ModelKind, Problem, Scenario};
use beagle::prelude::*;

fn small_problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 5,
        patterns: 40,
        categories: 2,
        seed: 11,
    })
}

#[test]
fn out_of_range_indices_error_on_every_backend() {
    let problem = small_problem();
    let manager = full_manager();
    for name in manager.implementation_names() {
        let Ok(mut inst) = manager.create_instance_by_name(&name, &problem.config(), Flags::NONE)
        else {
            continue;
        };
        assert!(
            inst.set_tip_states(99, &[0; 40]).is_err(),
            "{name}: bad tip"
        );
        assert!(
            inst.set_pattern_weights(&[1.0; 3]).is_err(),
            "{name}: bad weights len"
        );
        assert!(
            inst.set_category_rates(&[1.0; 7]).is_err(),
            "{name}: bad rates len"
        );
        assert!(
            inst.get_transition_matrix(usize::MAX).is_err(),
            "{name}: bad matrix index"
        );
        // Reading a never-computed buffer fails.
        assert!(inst.get_partials(8).is_err(), "{name}: uncomputed partials");
        // Operations touching unwritten children fail.
        let bad_op = Operation::new(5, 3, 3, 4, 4);
        assert!(
            inst.update_partials(&[bad_op]).is_err(),
            "{name}: unwritten child"
        );
        // In-place operations are rejected.
        inst.set_tip_states(0, &[0u32; 40]).unwrap();
        let inplace = Operation::new(0, 0, 0, 1, 1);
        assert!(
            inst.update_partials(&[inplace]).is_err(),
            "{name}: in-place op"
        );
    }
}

#[test]
fn details_report_meaningful_metadata() {
    let problem = small_problem();
    let manager = full_manager();
    for name in manager.implementation_names() {
        let Ok(inst) = manager.create_instance_by_name(&name, &problem.config(), Flags::NONE)
        else {
            continue;
        };
        let d = inst.details();
        assert_eq!(d.implementation_name, name);
        assert!(!d.resource_name.is_empty());
        assert!(d.thread_count >= 1);
        assert!(
            d.flags
                .intersects(Flags::PRECISION_SINGLE | Flags::PRECISION_DOUBLE),
            "{name} must report a precision"
        );
    }
}

#[test]
fn transition_matrix_roundtrip() {
    let problem = small_problem();
    let manager = full_manager();
    let mut inst = manager
        .create_instance_by_name("CPU-serial", &problem.config(), Flags::PRECISION_DOUBLE)
        .unwrap();
    let len = problem.config().matrix_len();
    let m: Vec<f64> = (0..len).map(|i| (i % 10) as f64 * 0.1).collect();
    inst.set_transition_matrix(2, &m).unwrap();
    let got = inst.get_transition_matrix(2).unwrap();
    assert_eq!(m, got);
}

#[test]
fn set_partials_roundtrip_through_dyn_instance() {
    let problem = small_problem();
    let manager = full_manager();
    for name in ["CPU-threadpool", "OpenCL-x86"] {
        let mut inst = manager
            .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE)
            .unwrap();
        let len = problem.config().partials_len();
        let p: Vec<f64> = (0..len).map(|i| 1.0 / (1.0 + i as f64)).collect();
        inst.set_partials(6, &p).unwrap();
        let got = inst.get_partials(6).unwrap();
        for (a, b) in p.iter().zip(&got) {
            assert!((a - b).abs() < 1e-12, "{name}");
        }
    }
}

#[test]
fn simulated_clock_monotone_and_resettable() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 6,
        patterns: 400,
        categories: 2,
        seed: 12,
    });
    let manager = full_manager();
    let mut inst = manager
        .create_instance_by_name(
            "OpenCL-GPU (AMD FirePro S9170 (simulated))",
            &problem.config(),
            Flags::PRECISION_SINGLE,
        )
        .unwrap();
    // This test times two identical traversals; the incremental memo layer
    // would skip the repeat and stall the device clock.
    inst.set_incremental(false);
    problem.load(inst.as_mut());
    let t0 = inst.simulated_time().unwrap();
    problem.evaluate(inst.as_mut(), false);
    let t1 = inst.simulated_time().unwrap();
    assert!(t1 > t0, "evaluation must advance the device clock");
    problem.evaluate(inst.as_mut(), false);
    let t2 = inst.simulated_time().unwrap();
    assert!(t2 > t1);
    // A second traversal costs about the same as the first (same kernels).
    let first = (t1 - t0).as_secs_f64();
    let second = (t2 - t1).as_secs_f64();
    assert!((second / first - 1.0).abs() < 0.5, "{first} vs {second}");
    inst.reset_simulated_time();
    assert_eq!(inst.simulated_time().unwrap().as_nanos(), 0);
}

#[test]
fn invalid_configurations_rejected_everywhere() {
    let manager = full_manager();
    let mut cfg = InstanceConfig::for_tree(5, 40, 4, 2);
    cfg.pattern_count = 0;
    assert!(InstanceSpec::with_config(cfg)
        .instantiate(&manager)
        .is_err());
    let mut cfg = InstanceConfig::for_tree(5, 40, 4, 2);
    cfg.tip_count = 1;
    assert!(InstanceSpec::with_config(cfg)
        .instantiate(&manager)
        .is_err());
}

#[test]
fn wait_for_computation_is_safe_everywhere() {
    let problem = small_problem();
    let manager = full_manager();
    for name in manager.implementation_names() {
        if let Ok(mut inst) = manager.create_instance_by_name(&name, &problem.config(), Flags::NONE)
        {
            inst.wait_for_computation().unwrap();
        }
    }
}

/// One row of the control-plane reachability table: a stack shape built
/// through `InstanceSpec`, and which control answers it must give.
struct Shape {
    name: &'static str,
    memo: bool,
    checkpoint: bool,
    build: fn(&std::sync::Arc<ImplementationManager>, &Problem) -> Box<dyn BeagleInstance>,
}

fn cpu_spec(problem: &Problem) -> InstanceSpec {
    InstanceSpec::with_config(problem.config())
        .named("CPU-serial")
        .incremental(true)
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "raw back-end",
        memo: false,
        checkpoint: false,
        build: |m, p| {
            cpu_spec(p)
                .incremental(false)
                .without_rescue()
                .instantiate(m)
                .unwrap()
        },
    },
    Shape {
        name: "memo",
        memo: true,
        checkpoint: false,
        build: |m, p| cpu_spec(p).without_rescue().instantiate(m).unwrap(),
    },
    Shape {
        name: "memo+rescue",
        memo: true,
        checkpoint: false,
        build: |m, p| cpu_spec(p).instantiate(m).unwrap(),
    },
    Shape {
        name: "memo+rescue+checkpoint",
        memo: true,
        checkpoint: true,
        build: |m, p| cpu_spec(p).checkpointed().instantiate(m).unwrap(),
    },
    Shape {
        name: "partitioned, 2 children",
        memo: true,
        checkpoint: true,
        build: |m, p| {
            let child = beagle::core::ChildSelection::named("CPU-serial", Flags::NONE, Flags::NONE);
            Box::new(
                beagle::core::PartitionedInstance::create(
                    m,
                    &cpu_spec(p),
                    &[child.clone(), child],
                    &[1.0, 1.0],
                )
                .unwrap(),
            )
        },
    },
];

/// Operations the memo has seen (executed or skipped).
fn memo_ops_seen(inst: &dyn BeagleInstance) -> Option<u64> {
    inst.memo_stats().map(|s| s.ops_executed + s.ops_skipped)
}

/// Every control method answers from the layer that owns it, whatever sits
/// above: the top of each stack shape reaches memo and journal.
fn check_control_plane(shapes: &[Shape]) {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 6,
        patterns: 64,
        categories: 2,
        seed: 21,
    });
    let manager = full_manager();
    for shape in shapes {
        let name = shape.name;
        let mut inst = (shape.build)(&manager, &problem);
        assert_eq!(
            inst.memo_stats().is_some(),
            shape.memo,
            "{name}: memo_stats"
        );
        problem.load(inst.as_mut());
        let lnl = problem.evaluate(inst.as_mut(), false);

        // Reading the clock and waiting run no work.
        inst.update_partials(&problem.operations(false)).unwrap();
        let seen0 = memo_ops_seen(inst.as_ref());
        inst.peek_simulated_time();
        inst.wait_for_computation().unwrap();
        assert_eq!(
            memo_ops_seen(inst.as_ref()),
            seen0,
            "{name}: a clock read ran work"
        );

        // Disabling at the top stops memo skipping below.
        assert_eq!(
            problem.evaluate(inst.as_mut(), false).to_bits(),
            lnl.to_bits()
        );
        inst.set_incremental(false);
        let before = inst.memo_stats();
        assert_eq!(
            problem.evaluate(inst.as_mut(), false).to_bits(),
            lnl.to_bits()
        );
        if let (Some(b), Some(a)) = (before, inst.memo_stats()) {
            assert!(!a.enabled, "{name}: memo still enabled");
            assert_eq!(a.ops_skipped, b.ops_skipped, "{name}: memo skipped work");
            assert!(a.ops_executed > b.ops_executed, "{name}: nothing executed");
        }

        assert_eq!(
            inst.checkpoint().is_some(),
            shape.checkpoint,
            "{name}: checkpoint"
        );
    }
}

#[test]
fn control_plane_reaches_every_layer_of_single_instance_stacks() {
    check_control_plane(&SHAPES[..4]);
}

#[test]
fn control_plane_reaches_the_children_of_a_partitioned_instance() {
    check_control_plane(&SHAPES[4..]);
}
