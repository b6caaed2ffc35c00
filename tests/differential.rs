//! Cross-backend differential harness for the deferred-execution layer.
//!
//! Every (implementation × precision × scaling) combination must produce the
//! SAME bits in queued mode (`COMPUTATION_ASYNCH`: operation queue +
//! dependency-level batching) as in eager mode: the queue reorders nothing
//! observable, level batching chooses the same chunk boundaries, and the
//! memo layer's matrix store re-installs the exact bytes the back-end
//! produced when it derived them. Post-failover instances (the `failover.rs`
//! fixtures) must also agree with the oracle in both modes.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::PartitionedInstance;
use beagle::core::QueuedInstance;
use beagle::harness::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};
use beagle::prelude::*;

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

/// Evaluate `problem` on the named implementation in one queue mode and
/// return the log-likelihood. `None` if the factory refuses the config
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

/// The tentpole guarantee: queued and eager execution are bit-for-bit
/// identical on every back-end, in both precisions, scaled and unscaled —
/// and both stay within the cross-backend tolerance of the oracle.
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
                    let queued = run(&manager, &problem, &name, single, true, scaled)
                        .expect("queued mode must not change eligibility");
                    assert_eq!(
                        eager.to_bits(),
                        queued.to_bits(),
                        "{name} single={single} scaled={scaled}: eager {eager} != queued {queued}"
                    );
                    let rel = ((queued - oracle) / oracle).abs();
                    let tol = if single { 1e-4 } else { 1e-10 };
                    assert!(rel < tol, "{name} single={single}: {queued} vs {oracle}");
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
/// and branch lengths into a queued instance must be served by the memo
/// layer below the queue, and the served evaluation must reproduce the
/// first one exactly.
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
            Flags::PRECISION_DOUBLE | Flags::COMPUTATION_ASYNCH,
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
    let queue = inst.queue_stats().expect("queued instance exposes stats");
    assert!(queue.flushes > 0 && queue.ops_submitted > 0);
}

/// The permanent-device-loss fixture from `failover.rs`, driven through the
/// operation queue: eviction and repartitioning must still happen under
/// deferred execution, and both queue modes must match the oracle.
#[test]
fn post_failover_instance_agrees_in_both_queue_modes() {
    let p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    });
    let oracle = p.oracle();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    for asynch in [false, true] {
        let faults = FaultDirectory::new().with_plan(
            catalog::quadro_p5000().name,
            FaultPlan::new(7).with_fault(FaultKind::DeviceLost, false, Schedule::AtCall(18)),
        );
        let manager = full_manager_with_faults(&faults);
        let multi =
            PartitionedInstance::create(&manager, &p.config(), &devices, &[1.0, 1.0, 1.0]).unwrap();
        let lnl = if asynch {
            let mut q = QueuedInstance::new(Box::new(multi));
            p.load(&mut q);
            let lnl = p.evaluate(&mut q, false);
            let stats = q.stats();
            assert!(stats.flushes > 0 && stats.ops_submitted > 0, "{stats:?}");
            lnl
        } else {
            let mut multi = multi;
            p.load(&mut multi);
            let lnl = p.evaluate(&mut multi, false);
            assert_eq!(multi.eviction_count(), 1, "the dead child must be evicted");
            lnl
        };
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "asynch={asynch}: post-failover {lnl} vs oracle {oracle}"
        );
    }
}

/// The transient-fault fixture: a retried kernel launch must be invisible
/// to the final likelihood in either queue mode.
#[test]
fn transient_fault_recovery_agrees_in_both_queue_modes() {
    let p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    });
    let oracle = p.oracle();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    for asynch in [false, true] {
        let faults = FaultDirectory::new().with_plan(
            catalog::quadro_p5000().name,
            FaultPlan::new(7).with_fault(FaultKind::KernelLaunch, true, Schedule::AtCall(18)),
        );
        let manager = full_manager_with_faults(&faults);
        let multi =
            PartitionedInstance::create(&manager, &p.config(), &devices, &[1.0, 1.0]).unwrap();
        let mut inst: Box<dyn BeagleInstance> = if asynch {
            Box::new(QueuedInstance::new(Box::new(multi)))
        } else {
            Box::new(multi)
        };
        p.load(inst.as_mut());
        let lnl = p.evaluate(inst.as_mut(), false);
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "asynch={asynch}: transient-fault result {lnl} vs oracle {oracle}"
        );
    }
}

/// Site log-likelihood read-back must also be bit-identical between modes
/// (reads force a flush; the flushed state must equal eager state).
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
        for asynch in [false, true] {
            let mode = if asynch {
                Flags::COMPUTATION_ASYNCH
            } else {
                Flags::COMPUTATION_SYNCH
            };
            let mut inst = manager
                .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE | mode)
                .unwrap();
            problem.load(inst.as_mut());
            problem.evaluate(inst.as_mut(), false);
            sites.push(inst.get_site_log_likelihoods().unwrap());
        }
        let (eager, queued) = (&sites[0], &sites[1]);
        assert_eq!(eager.len(), queued.len());
        for (a, b) in eager.iter().zip(queued) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} != {b}");
        }
    }
}

/// Timeout-driven eviction must also be invisible to the queue layer: a
/// hung CUDA child is watchdog-cancelled and evicted *inside* a flush, the
/// replicated journal rebuilds the survivors, and the queued result matches
/// the eager result and the oracle in both modes.
#[test]
fn timeout_eviction_agrees_in_both_queue_modes() {
    let p = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 8,
        patterns: 900,
        categories: 4,
        seed: 77,
    });
    let oracle = p.oracle();
    let devices = [
        (Flags::NONE, Flags::FRAMEWORK_CUDA),
        (Flags::NONE, Flags::FRAMEWORK_OPENCL | Flags::PROCESSOR_CPU),
        (Flags::NONE, Flags::PROCESSOR_CPU),
    ];
    let mut results = Vec::new();
    for asynch in [false, true] {
        let faults = FaultDirectory::new().with_plan(
            catalog::quadro_p5000().name,
            FaultPlan::new(7).with_fault(FaultKind::Hang, false, Schedule::AtCall(18)),
        );
        let manager = full_manager_with_faults(&faults);
        let multi =
            PartitionedInstance::create(&manager, &p.config(), &devices, &[1.0, 1.0, 1.0]).unwrap();
        if asynch {
            let mut q = QueuedInstance::new(Box::new(multi));
            p.load(&mut q);
            let lnl = p.evaluate(&mut q, false);
            let stats = q.stats();
            assert!(stats.flushes > 0 && stats.ops_submitted > 0);
            results.push(lnl);
        } else {
            let mut multi = multi;
            p.load(&mut multi);
            let lnl = p.evaluate(&mut multi, false);
            assert_eq!(multi.eviction_count(), 1, "the hung child must be evicted");
            assert_eq!(multi.device_count(), 2);
            results.push(lnl);
        }
    }
    for (i, lnl) in results.iter().enumerate() {
        assert!(
            (lnl - oracle).abs() < 1e-6,
            "mode {i}: timeout-eviction result {lnl} vs oracle {oracle}"
        );
    }
}
