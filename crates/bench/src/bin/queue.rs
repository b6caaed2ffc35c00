//! Deferred execution — eager vs. queued launch accounting.
//!
//! The operation queue batches each dependency level of the traversal into
//! one submission, so the modeled device pays its kernel-launch overhead
//! once per *level* instead of once per *operation* (DESIGN.md §6). This
//! binary quantifies that win on the simulated GPUs: per-traversal modeled
//! time in eager (`COMPUTATION_SYNCH`) vs. queued (`COMPUTATION_ASYNCH`)
//! mode across tree sizes, then the memo layer's matrix counters (skipped,
//! reused from its matrix store, computed) under the MCMC access pattern:
//! an identical re-proposal, then a branch move and its rejection.
//!
//! Timing provenance: all GPU rows are **modeled** device times (the
//! roofline perf model, DESIGN.md §1); the queue win is the launch-overhead
//! term, which the model charges per submission exactly as a real driver
//! would.

use beagle_bench::quick_mode;
use beagle_core::Flags;
use genomictest::{full_manager, ModelKind, Problem, Scenario};
use std::time::Duration;

const DEVICES: [&str; 2] = [
    "CUDA (NVIDIA Quadro P5000 (simulated))",
    "OpenCL-GPU (AMD Radeon R9 Nano (simulated))",
];

/// Modeled time for `reps` full traversals in one queue mode.
fn traversal_time(problem: &Problem, name: &str, asynch: bool, reps: usize) -> Option<Duration> {
    let mode = if asynch {
        Flags::COMPUTATION_ASYNCH
    } else {
        Flags::COMPUTATION_SYNCH
    };
    let mut inst = full_manager()
        .create_instance_by_name(name, &problem.config(), Flags::PRECISION_DOUBLE | mode)
        .ok()?;
    // The timed loop repeats identical traversals; don't let the memo layer
    // skip them.
    inst.set_incremental(false);
    problem.load(inst.as_mut());
    let ops = problem.operations(false);
    inst.update_partials(&ops).expect("warmup");
    inst.wait_for_computation().expect("warmup flush");
    inst.reset_simulated_time();
    for _ in 0..reps {
        inst.update_partials(&ops).expect("timed traversal");
    }
    inst.wait_for_computation().expect("flush");
    inst.simulated_time().map(|t| t / reps as u32)
}

fn main() {
    let reps = if quick_mode() { 3 } else { 10 };
    let taxa_sweep: &[usize] = if quick_mode() {
        &[16, 64]
    } else {
        &[16, 64, 128, 256]
    };

    println!("deferred execution: modeled per-traversal time, eager vs queued");
    println!("(double precision, nucleotide, 1024 patterns, 4 rate categories)");
    println!();
    println!(
        "{:<44} {:>6} {:>12} {:>12} {:>9}",
        "device", "taxa", "eager", "queued", "speedup"
    );
    for &taxa in taxa_sweep {
        let problem = Problem::generate(&Scenario {
            model: ModelKind::Nucleotide,
            taxa,
            patterns: 1024,
            categories: 4,
            seed: 11,
        });
        for name in DEVICES {
            let (Some(eager), Some(queued)) = (
                traversal_time(&problem, name, false, reps),
                traversal_time(&problem, name, true, reps),
            ) else {
                continue;
            };
            println!(
                "{:<44} {:>6} {:>10.1}us {:>10.1}us {:>8.2}x",
                name,
                taxa,
                eager.as_secs_f64() * 1e6,
                queued.as_secs_f64() * 1e6,
                eager.as_secs_f64() / queued.as_secs_f64(),
            );
        }
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
            DEVICES[0],
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
            "  pass {pass}: lnL {lnl:.6}  skipped {:>4}  reused {:>4}  computed {:>4}  flushes {:>3}  levels {:>4}",
            m.matrices_skipped, m.matrices_reused, m.matrices_computed, q.flushes, q.levels_submitted
        );
    }
    assert!(
        lnl_bits.windows(2).all(|w| w[0] == w[1]),
        "matrix reuse changed results"
    );
    println!("  every pass on the original tree bit-identical");
}
