//! Deferred execution — the queue only defers.
//!
//! The operation queue (DESIGN.md §6) holds mutating calls until a result
//! is demanded, then submits each run of partials calls with one
//! `update_partials`. It no longer levels or batches anything: the back-end
//! levels the list it gets itself, so a queued and an eager stack schedule
//! alike. This binary shows that on `CPU-threadpool`: the back-end's
//! `PoolDispatch` count per traversal, eager (`COMPUTATION_SYNCH`) vs.
//! queued (`COMPUTATION_ASYNCH`), across tree sizes, which should be equal.
//! Then it prints the memo layer's matrix counters (skipped, reused from
//! its matrix store, computed) under the MCMC access pattern: an identical
//! re-proposal, then a branch move and its rejection.
//!
//! Every figure is a **count** from the instances' statistics, not a time.

use beagle_bench::quick_mode;
use beagle_core::obs::KernelClass;
use beagle_core::{BeagleInstance, Flags};
use genomictest::{full_manager, ModelKind, Problem, Scenario};

/// `PoolDispatch` batches per traversal on `CPU-threadpool` in one queue
/// mode, averaged over `reps` traversals.
fn dispatches_per_pass(problem: &Problem, asynch: bool, reps: usize) -> f64 {
    let mode = if asynch {
        Flags::COMPUTATION_ASYNCH
    } else {
        Flags::COMPUTATION_SYNCH
    };
    let flags = Flags::PRECISION_DOUBLE | Flags::INSTANCE_STATS | mode;
    let mut inst = full_manager()
        .create_instance_by_name("CPU-threadpool", &problem.config(), flags)
        .expect("CPU-threadpool instance");
    // The passes repeat one traversal; don't let the memo layer skip it.
    inst.set_incremental(false);
    problem.load(inst.as_mut());
    let dispatches = |inst: &dyn BeagleInstance| {
        let stats = inst.statistics().expect("statistics were requested");
        stats.counter(KernelClass::PoolDispatch).calls
    };
    let before = dispatches(inst.as_ref());
    for _ in 0..reps {
        problem.evaluate(inst.as_mut(), false);
    }
    (dispatches(inst.as_ref()) - before) as f64 / reps as f64
}

fn main() {
    let reps = if quick_mode() { 3 } else { 10 };
    let taxa_sweep: &[usize] = if quick_mode() {
        &[16, 64]
    } else {
        &[16, 64, 128, 256]
    };

    println!("deferred execution: CPU-threadpool PoolDispatch batches per traversal");
    println!("(double precision, nucleotide, 1024 patterns, 4 rate categories)");
    println!();
    println!("{:>6} {:>10} {:>10}", "taxa", "eager", "queued");
    for &taxa in taxa_sweep {
        let problem = Problem::generate(&Scenario {
            model: ModelKind::Nucleotide,
            taxa,
            patterns: 1024,
            categories: 4,
            seed: 11,
        });
        let eager = dispatches_per_pass(&problem, false, reps);
        let queued = dispatches_per_pass(&problem, true, reps);
        println!("{taxa:>6} {eager:>10.1} {queued:>10.1}");
        assert_eq!(eager, queued, "the queue changed the back-end's schedule");
    }
    println!();
    println!("memo matrix counters under repeated proposals (MCMC access pattern)");
    let mut problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 64,
        patterns: 1024,
        categories: 4,
        seed: 11,
    });
    let mut inst = full_manager()
        .create_instance_by_name(
            "CUDA (NVIDIA Quadro P5000 (simulated))",
            &problem.config(),
            Flags::PRECISION_DOUBLE | Flags::COMPUTATION_ASYNCH,
        )
        .expect("CUDA instance");
    let original = problem.tree.node_mut(1).branch_length;
    let mut lnl_bits = Vec::new();
    // Pass 2 moves one branch; pass 3 rejects the move and puts it back.
    for (pass, factor) in [1.0, 1.0, 1.5, 1.0].into_iter().enumerate() {
        problem.tree.node_mut(1).branch_length = original * factor;
        problem.load(inst.as_mut());
        let lnl = problem.evaluate(inst.as_mut(), false);
        if factor == 1.0 {
            lnl_bits.push(lnl.to_bits());
        }
        let m = inst.memo_stats().expect("default stack installs memo");
        let q = inst.queue_stats().expect("queued instance exposes stats");
        println!(
            "  pass {pass}: lnL {lnl:.6}  skipped {:>4}  reused {:>4}  computed {:>4}  flushes {:>3}",
            m.matrices_skipped, m.matrices_reused, m.matrices_computed, q.flushes
        );
    }
    assert!(
        lnl_bits.windows(2).all(|w| w[0] == w[1]),
        "matrix reuse changed results"
    );
    println!("  every pass on the original tree bit-identical");
}
