//! Cross-backend differential harness for the two computation modes.
//!
//! `COMPUTATION_ASYNCH` is accepted and runs eager, so every
//! (implementation × precision × scaling) combination created with it must
//! produce the SAME bits as with `COMPUTATION_SYNCH`, and both must agree
//! with the oracle. The memo layer's matrix store must re-install the exact
//! bytes the back-end produced when it derived them. Post-failover
//! instances (the `failover.rs` fixtures) must also agree with the oracle,
//! with their children created in either mode.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::{ChildSelection, PartitionedInstance};
use beagle::harness::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};
use beagle::prelude::*;

const MODES: [Flags; 2] = [Flags::COMPUTATION_SYNCH, Flags::COMPUTATION_ASYNCH];

fn shared_fixtures() -> Vec<Problem> {
    vec![
        Problem::generate(&Scenario {
            model: ModelKind::Nucleotide,
            taxa: 9,
            patterns: 700,
            categories: 4,
            seed: 1,
        }),
        Problem::generate(&Scenario {
            model: ModelKind::AminoAcid,
            taxa: 7,
            patterns: 300,
            categories: 2,
            seed: 2,
        }),
        Problem::generate(&Scenario {
            model: ModelKind::Codon,
            taxa: 6,
            patterns: 150,
            categories: 1,
            seed: 3,
        }),
    ]
}

/// Evaluate `problem` on the named implementation in one computation mode
/// and return the log-likelihood. `None` if the factory refuses the config
/// (e.g. the SSE factory with a codon model).
fn run(
    manager: &ImplementationManager,
    problem: &Problem,
    name: &str,
    single: bool,
    asynch: bool,
    scaled: bool,
) -> Option<f64> {
    let mut flags = if single {
        Flags::PRECISION_SINGLE
    } else {
        Flags::PRECISION_DOUBLE
    };
    flags |= if asynch {
        Flags::COMPUTATION_ASYNCH
    } else {
        Flags::COMPUTATION_SYNCH
    };
    let mut inst = manager
        .create_instance_by_name(name, &problem.config(), flags)
        .ok()?;
    problem.load(inst.as_mut());
    Some(problem.evaluate(inst.as_mut(), scaled))
}

/// An instance created with `COMPUTATION_ASYNCH` ("queued" in the spec's
/// words) is bit-for-bit identical to an eager one on every back-end, in
/// both precisions, scaled and unscaled — and both stay within the
/// cross-backend tolerance of the oracle.
#[test]
fn queued_equals_eager_bit_for_bit_on_every_backend() {
    let manager = full_manager();
    for problem in shared_fixtures() {
        let oracle = problem.oracle();
        let mut compared = 0;
        for name in manager.implementation_names() {
            for single in [false, true] {
                for scaled in [false, true] {
                    let Some(eager) = run(&manager, &problem, &name, single, false, scaled) else {
                        continue;
                    };
                    let asynch = run(&manager, &problem, &name, single, true, scaled)
                        .expect("the computation mode must not change eligibility");
                    assert_eq!(
                        eager.to_bits(),
                        asynch.to_bits(),
                        "{name} single={single} scaled={scaled}: eager {eager} != asynch {asynch}"
                    );
                    let rel = ((asynch - oracle) / oracle).abs();
                    let tol = if single { 1e-4 } else { 1e-10 };
                    assert!(rel < tol, "{name} single={single}: {asynch} vs {oracle}");
                    compared += 1;
                }
            }
        }
        assert!(
            compared >= 14,
            "expected most backends to run, got {compared}"
        );
    }
}

/// Repeated proposals (the MCMC access pattern): re-loading the same model
/// and branch lengths must be served by the memo layer, and the served
/// evaluation must reproduce the first one exactly.
#[test]
fn repeated_proposals_are_served_by_memo_without_changing_results() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 9,
        patterns: 700,
        categories: 4,
        seed: 1,
    });
    let manager = full_manager();
    let mut inst = manager
        .create_instance_by_name(
            "CUDA (NVIDIA Quadro P5000 (simulated))",
            &problem.config(),
            Flags::PRECISION_DOUBLE,
        )
        .unwrap();
    problem.load(inst.as_mut());
    let first = problem.evaluate(inst.as_mut(), false);
    let after_first = inst.memo_stats().expect("default stack installs memo");
    assert!(
        after_first.matrices_computed > 0,
        "first pass computes matrices"
    );
    assert_eq!(
        after_first.matrices_skipped + after_first.matrices_reused,
        0,
        "nothing to serve yet"
    );

    // The "proposal" re-sends identical eigen data, rates, and branch
    // lengths — everything a derived matrix depends on.
    problem.load(inst.as_mut());
    let second = problem.evaluate(inst.as_mut(), false);
    let after_second = inst.memo_stats().unwrap();
    assert!(
        after_second.matrices_skipped + after_second.matrices_reused
            >= after_first.matrices_computed,
        "repeat proposal must be served by memo: {after_second:?}"
    );
    assert_eq!(
        after_second.matrices_computed,
        after_first.matrices_computed
    );
    assert_eq!(first.to_bits(), second.to_bits());
}

/// The `failover.rs` fault fixture: a partitioned instance with one child
/// per requirement in `devices`, every child created preferring `mode`, and
/// `fault` planned at call 18 of the simulated Quadro. Returns the
/// log-likelihood, the eviction count and the surviving child count.
fn failover_run(
    devices: &[Flags],
    fault: FaultKind,
    transient: bool,
    mode: Flags,
) -> (f64, u64, usize) {
    let p = failover_problem();
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(fault, transient, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    let devices: Vec<ChildSelection> = devices
        .iter()
        .map(|&req| ChildSelection::from_flags(mode, req))
        .collect();
    let weights = vec![1.0; devices.len()];
    let spec = InstanceSpec::with_config(p.config());
    let mut multi = PartitionedInstance::create(&manager, &spec, &devices, &weights).unwrap();
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);
    (lnl, multi.eviction_count(), multi.device_count())
}

fn failover_problem() -> Problem {
    Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    })
}

/// The permanent-device-loss fixture from `failover.rs`: eviction and
/// repartitioning happen with the children created in either mode, and
/// both modes match the oracle with the same bits.
#[test]
fn post_failover_instance_agrees_in_both_queue_modes() {
    let oracle = failover_problem().oracle();
    let devices = [
        Flags::FRAMEWORK_CUDA,
        Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU,
        Flags::PROCESSOR_CPU,
    ];
    let mut bits = Vec::new();
    for mode in MODES {
        let (lnl, evictions, _) = failover_run(&devices, FaultKind::DeviceLost, false, mode);
        assert_eq!(evictions, 1, "{mode:?}: the dead child must be evicted");
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "{mode:?}: post-failover {lnl} vs oracle {oracle}"
        );
        bits.push(lnl.to_bits());
    }
    assert_eq!(bits[0], bits[1]);
}

/// The transient-fault fixture: a retried kernel launch must be invisible
/// to the final likelihood in either mode.
#[test]
fn transient_fault_recovery_agrees_in_both_queue_modes() {
    let oracle = failover_problem().oracle();
    let devices = [Flags::FRAMEWORK_CUDA, Flags::PROCESSOR_CPU];
    let mut bits = Vec::new();
    for mode in MODES {
        let (lnl, _, _) = failover_run(&devices, FaultKind::KernelLaunch, true, mode);
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "{mode:?}: transient-fault result {lnl} vs oracle {oracle}"
        );
        bits.push(lnl.to_bits());
    }
    assert_eq!(bits[0], bits[1]);
}

/// Site log-likelihood read-back must also be bit-identical between modes.
#[test]
fn site_log_likelihoods_identical_between_modes() {
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 7,
        patterns: 200,
        categories: 2,
        seed: 4,
    });
    let manager = full_manager();
    for name in ["CPU-serial", "CPU-threadpool", "OpenCL-x86"] {
        let mut sites = Vec::new();
        for mode in MODES {
            let mut inst = manager
                .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE | mode)
                .unwrap();
            problem.load(inst.as_mut());
            problem.evaluate(inst.as_mut(), false);
            sites.push(inst.get_site_log_likelihoods().unwrap());
        }
        let (eager, asynch) = (&sites[0], &sites[1]);
        assert_eq!(eager.len(), asynch.len());
        for (a, b) in eager.iter().zip(asynch) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} != {b}");
        }
    }
}

/// Timeout-driven eviction: a hung CUDA child is watchdog-cancelled and
/// evicted, the replicated journal rebuilds the survivors, and the result
/// matches the oracle with the same bits in either mode.
#[test]
fn timeout_eviction_agrees_in_both_queue_modes() {
    let oracle = failover_problem().oracle();
    let devices = [
        Flags::FRAMEWORK_CUDA,
        Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU,
        Flags::PROCESSOR_CPU,
    ];
    let mut bits = Vec::new();
    for mode in MODES {
        let (lnl, evictions, survivors) = failover_run(&devices, FaultKind::Hang, false, mode);
        assert_eq!(evictions, 1, "{mode:?}: the hung child must be evicted");
        assert_eq!(survivors, 2);
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "{mode:?}: timeout-eviction result {lnl} vs oracle {oracle}"
        );
        bits.push(lnl.to_bits());
    }
    assert_eq!(bits[0], bits[1]);
}
