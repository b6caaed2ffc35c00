//! Observability subsystem: kernel statistics coverage and journal-event
//! ordering across a queued, fault-injected multi-device run.
//!
//! Every test is a no-op when the core crate is compiled with the
//! `obs-disabled` feature (the recorder is a ZST that never enables), so
//! the same test binary passes in both configurations.

use beagle::accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle::core::multi::PartitionedInstance;
use beagle::core::obs::{Event, EventKind, KernelClass, Recorder};
use beagle::core::{BeagleInstance, Flags, InstanceSpec};
use beagle::harness::{full_manager, full_manager_with_faults, ModelKind, Problem, Scenario};

fn obs_compiled_in() -> bool {
    Recorder::new(true).is_enabled()
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

/// Statistics are strictly opt-in: without `INSTANCE_STATS` (or
/// `with_stats()`), `statistics()` is `None` and the journal stays empty.
#[test]
fn statistics_are_opt_in() {
    let p = problem();
    let mut inst = InstanceSpec::with_config(p.config())
        .prefer(Flags::PROCESSOR_CPU)
        .instantiate(&full_manager())
        .unwrap();
    p.load(inst.as_mut());
    p.evaluate(inst.as_mut(), true);
    assert!(inst.statistics().is_none());
    assert!(inst.take_journal().is_empty());
}

/// A scaled evaluation on an instrumented CPU instance populates the
/// kernel classes that run: partials, transition matrices, rescale, and
/// root integration.
#[test]
fn statistics_cover_the_kernel_classes_that_ran() {
    if !obs_compiled_in() {
        return;
    }
    let p = problem();
    let mut inst = InstanceSpec::with_config(p.config())
        .prefer(Flags::PROCESSOR_CPU)
        .named("CPU-serial")
        .with_stats()
        .instantiate(&full_manager())
        .unwrap();
    p.load(inst.as_mut());
    p.evaluate(inst.as_mut(), true);

    let stats = inst.statistics().expect("stats were requested");
    for class in [
        KernelClass::PartialsSS,
        KernelClass::PartialsSP,
        KernelClass::PartialsPP,
        KernelClass::TransitionMatrices,
        KernelClass::Rescale,
        KernelClass::RootIntegrate,
    ] {
        let c = stats.counter(class);
        assert!(c.calls > 0, "{class:?} never ran");
        assert!(c.wall_nanos > 0, "{class:?} ran but recorded no time");
    }
    assert!(stats.total_calls() > 0);
    assert!(stats.total_wall_nanos() > 0);

    // The journal saw the traversal too, and draining it is one-shot.
    let journal = inst.take_journal();
    assert!(journal.iter().any(|e| e.kind == EventKind::OperationBegin));
    assert!(inst.take_journal().is_empty(), "take_journal drains");
}

/// The rescale sweeps inside `update_partials` are booked under
/// `KernelClass::Rescale` (one call per scaled operation, with wall time),
/// not under the partials classes; an unscaled traversal books none. Both
/// the serial path and the pool's chunked batches are covered. The tips are
/// uploaded as partials of magnitude `2^-140`, so every cherry's pattern
/// maxima fall below the `f64` rescale window and its check really
/// rescales; the counters see every scaled operation as a check that ran
/// or was skipped.
#[test]
fn in_operation_rescale_is_booked_under_rescale() {
    if !obs_compiled_in() {
        return;
    }
    let p = problem();
    let (taxa, s) = (p.tree.taxon_count(), p.model.state_count());
    let tiny = 2f64.powi(-140);
    for name in ["CPU-SSE", "CPU-threadpool-SSE"] {
        for scaled in [true, false] {
            let mut inst = InstanceSpec::with_config(p.config())
                .named(name)
                .with_stats()
                .instantiate(&full_manager())
                .unwrap();
            p.load(inst.as_mut());
            for tip in 0..taxa {
                let mut partials = vec![0.0; p.patterns.pattern_count() * s];
                for (q, &state) in partials
                    .chunks_exact_mut(s)
                    .zip(&p.patterns.tip_states(tip))
                {
                    match q.get_mut(state as usize) {
                        Some(x) => *x = tiny,
                        None => q.fill(tiny),
                    }
                }
                inst.set_tip_partials(tip, &partials).unwrap();
            }
            let ops = p.operations(scaled);
            let before = inst.statistics().unwrap();
            inst.update_partials(&ops).unwrap();
            let stats = inst.statistics().unwrap();
            let (after, was) = (
                stats.counter(KernelClass::Rescale),
                before.counter(KernelClass::Rescale),
            );
            let calls = after.calls - was.calls;
            let wall = after.wall_nanos - was.wall_nanos;
            let checks = stats.rescale_checks_run - before.rescale_checks_run;
            let skipped = stats.rescale_checks_skipped - before.rescale_checks_skipped;
            let rescaled = stats.patterns_rescaled - before.patterns_rescaled;
            if scaled {
                assert_eq!(calls, ops.len() as u64, "{name}: one call per scaled op");
                assert!(wall > 0, "{name}: rescale booked no wall time");
                assert_eq!(checks + skipped, ops.len() as u64, "{name}: checks");
                assert!(rescaled > 0, "{name}: the cherries rescale");
            } else {
                assert_eq!((calls, wall), (0, 0), "{name}: unscaled traversal");
                assert_eq!((checks, skipped, rescaled), (0, 0, 0), "{name}: no checks");
            }
            assert!(
                stats.counter(KernelClass::PartialsPP).wall_nanos > 0,
                "{name}"
            );
        }
    }
}

/// Derivative updates are accounted like matrix updates on CPU and device
/// back-ends alike: one `TransitionMatrices` call, three matrices (P, dP/dt,
/// d²P/dt²) per branch.
#[test]
fn transition_derivatives_are_counted_on_every_backend() {
    if !obs_compiled_in() {
        return;
    }
    let p = problem();
    let cuda = format!("CUDA ({})", catalog::quadro_p5000().name);
    for name in ["CPU-serial", "CPU-SSE", cuda.as_str()] {
        let mut inst = InstanceSpec::with_config(p.config())
            .named(name)
            .with_stats()
            .instantiate(&full_manager())
            .unwrap();
        p.load(inst.as_mut());
        let before = *inst
            .statistics()
            .unwrap()
            .counter(KernelClass::TransitionMatrices);
        inst.update_transition_derivatives(0, &[0, 1], &[2, 3], &[4, 5], &[0.1, 0.2])
            .unwrap();
        let after = *inst
            .statistics()
            .unwrap()
            .counter(KernelClass::TransitionMatrices);
        assert_eq!(after.calls - before.calls, 1, "{name}");
        assert_eq!(after.items - before.items, 6, "{name}");
    }
}

/// The merged journal of a queued, fault-injected, multi-device run tells
/// the story in causal order: dispatch selection first, level batches
/// before the flush that submitted them, operation begin before end, and
/// the injected fault before the failover retry that recovered it.
#[test]
fn journal_orders_events_across_a_queued_failover_run() {
    if !obs_compiled_in() {
        return;
    }
    let faults = FaultDirectory::new().with_plan(
        catalog::quadro_p5000().name,
        FaultPlan::new(7).with_fault(FaultKind::KernelLaunch, true, Schedule::AtCall(18)),
    );
    let manager = full_manager_with_faults(&faults);
    let p = problem();
    let stats_async = Flags::INSTANCE_STATS | Flags::COMPUTATION_ASYNCH;
    let devices = [
        (stats_async, Flags::FRAMEWORK_CUDA),
        (stats_async, Flags::PROCESSOR_CPU),
    ];
    let mut multi =
        PartitionedInstance::create(&manager, &p.config(), &devices, &[1.0, 1.0]).unwrap();
    p.load(&mut multi);
    let lnl = p.evaluate(&mut multi, false);
    assert_eq!(multi.eviction_count(), 0, "transient faults must not evict");
    assert!(multi.retry_counts()[0] >= 1, "the recovery must be counted");
    assert!((lnl - p.oracle()).abs() < 1e-6);

    let journal: Vec<Event> = multi.take_journal();
    assert!(!journal.is_empty());

    // Sequence numbers are strictly increasing after the merge.
    for w in journal.windows(2) {
        assert!(
            w[0].seq < w[1].seq,
            "journal out of order: {:?} then {:?}",
            w[0],
            w[1]
        );
    }

    let pos = |kind: EventKind| journal.iter().position(|e| e.kind == kind);
    for kind in [
        EventKind::DispatchSelected,
        EventKind::OperationBegin,
        EventKind::OperationEnd,
        EventKind::LevelBatch,
        EventKind::QueueFlush,
        EventKind::FaultInjected,
        EventKind::FailoverRetry,
    ] {
        assert!(pos(kind).is_some(), "journal is missing {kind:?}");
    }

    // Dispatch paths are resolved at creation, before any work runs.
    assert_eq!(journal[0].kind, EventKind::DispatchSelected);
    assert!(pos(EventKind::DispatchSelected).unwrap() < pos(EventKind::OperationBegin).unwrap());

    // An operation can only end after it began, and a faulted launch ends
    // nothing — so at every prefix, ends never outnumber begins.
    let mut open = 0i64;
    for e in &journal {
        match e.kind {
            EventKind::OperationBegin => open += 1,
            EventKind::OperationEnd => {
                open -= 1;
                assert!(open >= 0, "OperationEnd without a begin at seq {}", e.seq);
            }
            _ => {}
        }
    }

    // Every level batch is submitted inside a flush: a QueueFlush record
    // must follow it.
    for (i, e) in journal.iter().enumerate() {
        if e.kind == EventKind::LevelBatch {
            assert!(
                journal[i + 1..]
                    .iter()
                    .any(|l| l.kind == EventKind::QueueFlush),
                "LevelBatch at seq {} has no subsequent QueueFlush",
                e.seq
            );
        }
    }

    // The fault fired before the failover machinery reacted to it.
    assert!(pos(EventKind::FaultInjected).unwrap() < pos(EventKind::FailoverRetry).unwrap());

    // Journal records serialize as JSON lines.
    for e in &journal {
        let line = e.to_json_line();
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad JSON line: {line}"
        );
    }

    // The drain is one-shot across the whole device tree.
    assert!(multi.take_journal().is_empty());
}
