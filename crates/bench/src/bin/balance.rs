//! Adaptive load balancing on a deliberately skewed device mix.
//!
//! Fixture: one codon analysis split across two simulated OpenCL GPUs
//! (Radeon R9 Nano vs FirePro S9170), with the Radeon throttled 4× by an
//! injected `Slowdown` fault (a thermal-limited or contended accelerator).
//! The codon model (61 states) is what makes the fixture balance-sensitive:
//! per-pattern kernel cost dwarfs the fixed per-launch overhead, so moving
//! patterns between devices actually moves the makespan. (On a small
//! nucleotide problem the modeled batch time is launch-dominated — ~420µs
//! fixed vs ~20ns/pattern — and no repartitioning can beat 2×.)
//! Two runs over the same batch sequence:
//!
//! * **static** — equal split, rebalancing disabled: every batch pays the
//!   throttled device's makespan.
//! * **adaptive** — the EWMA balancer measures per-child throughput,
//!   detects the skew, and migrates patterns toward the healthy device.
//!
//! The per-batch makespan is the partitioned instance's *simulated* device
//! time (children run concurrently, so it is the max over children), reset
//! before each batch. The headline number in `BENCH_balance.json` is the
//! steady-state improvement factor — the acceptance bar is ≥ 2×.
//!
//! Timing provenance: all rows are **modeled** device times (DESIGN.md §1),
//! which is what makes the skew deterministic and the bench host-independent.

use std::time::Duration;

use beagle_accel::{catalog, FaultDirectory, FaultKind, FaultPlan, Schedule};
use beagle_core::multi::{ChildSelection, PartitionedInstance};
use beagle_core::{BalancerConfig, BeagleInstance, Flags, InstanceSpec};
use genomictest::{full_manager_with_faults, ModelKind, Problem, Scenario};

const SLOWDOWN: f64 = 4.0;

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn slow_name() -> String {
    format!("OpenCL-GPU ({})", catalog::radeon_r9_nano().name)
}

fn fast_name() -> String {
    format!("OpenCL-GPU ({})", catalog::firepro_s9170().name)
}

fn skewed_manager() -> std::sync::Arc<beagle_core::ImplementationManager> {
    let faults = FaultDirectory::new().with_plan(
        catalog::radeon_r9_nano().name,
        FaultPlan::new(7).with_fault(FaultKind::Slowdown(SLOWDOWN), false, Schedule::EveryN(1)),
    );
    full_manager_with_faults(&faults)
}

fn partitioned(
    manager: &std::sync::Arc<beagle_core::ImplementationManager>,
    problem: &Problem,
    adaptive: bool,
) -> PartitionedInstance {
    let selections = vec![
        ChildSelection::named(slow_name(), Flags::NONE, Flags::NONE),
        ChildSelection::named(fast_name(), Flags::NONE, Flags::NONE),
    ];
    let mut inst = PartitionedInstance::create(
        manager,
        // The benchmark repeats identical evaluations; memoization would
        // skip them and collapse every makespan to zero.
        &InstanceSpec::with_config(problem.config()).incremental(false),
        &selections,
        &[1.0, 1.0],
    )
    .expect("both simulated GPUs must exist");
    if adaptive {
        inst.enable_balancing(BalancerConfig { min_batches: 1 });
    }
    inst
}

/// Run `batches` full evaluations, returning the simulated makespan of each
/// batch and the final log-likelihood.
fn run(problem: &Problem, inst: &mut PartitionedInstance, batches: usize) -> (Vec<Duration>, f64) {
    problem.load(inst);
    let mut makespans = Vec::with_capacity(batches);
    let mut lnl = f64::NAN;
    for _ in 0..batches {
        inst.reset_simulated_time();
        lnl = problem.evaluate(inst, false);
        makespans.push(inst.simulated_time().expect("all children are simulated"));
    }
    (makespans, lnl)
}

/// Steady state: the mean of the second half of the batch sequence (the
/// adaptive run spends the first batches measuring and migrating).
fn steady(makespans: &[Duration]) -> f64 {
    let tail = &makespans[makespans.len() / 2..];
    tail.iter().map(Duration::as_secs_f64).sum::<f64>() / tail.len() as f64
}

fn json_list(makespans: &[Duration]) -> String {
    let items: Vec<String> = makespans.iter().map(|d| d.as_nanos().to_string()).collect();
    items.join(", ")
}

fn main() {
    let batches = if quick_mode() { 8 } else { 10 };
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Codon,
        taxa: 8,
        patterns: if quick_mode() { 2000 } else { 3000 },
        categories: 2,
        seed: 71,
    });
    let oracle = problem.oracle();
    let manager = skewed_manager();

    let mut static_inst = partitioned(&manager, &problem, false);
    let (static_ms, static_lnl) = run(&problem, &mut static_inst, batches);

    let mut adaptive_inst = partitioned(&manager, &problem, true);
    let (adaptive_ms, adaptive_lnl) = run(&problem, &mut adaptive_inst, batches);

    let static_steady = steady(&static_ms);
    let adaptive_steady = steady(&adaptive_ms);
    let improvement = static_steady / adaptive_steady;
    let rebalances = adaptive_inst.rebalance_count();
    let ranges: Vec<(usize, usize)> = (0..adaptive_inst.device_count())
        .map(|i| adaptive_inst.range(i))
        .collect();
    // Relative tolerance: a codon log-likelihood over thousands of patterns
    // is O(-1e4), so absolute 1e-6 would test rounding noise, not agreement.
    let tol = 1e-9 * oracle.abs().max(1.0);
    let correct = (static_lnl - oracle).abs() < tol && (adaptive_lnl - oracle).abs() < tol;

    println!(
        "== adaptive load balancing: {} throttled {SLOWDOWN}x vs {} ==",
        slow_name(),
        fast_name()
    );
    println!("{:<10} {:>14} {:>14}", "batch", "static", "adaptive");
    for (i, (s, a)) in static_ms.iter().zip(&adaptive_ms).enumerate() {
        println!(
            "{i:<10} {:>11.3} ms {:>11.3} ms",
            s.as_secs_f64() * 1e3,
            a.as_secs_f64() * 1e3
        );
    }
    println!(
        "steady-state makespan: static {:.3} ms, adaptive {:.3} ms",
        static_steady * 1e3,
        adaptive_steady * 1e3
    );
    println!("improvement:           {improvement:.2}x (acceptance bar: 2x)");
    println!("rebalances:            {rebalances}, final ranges {ranges:?}");
    println!("correct:               {correct} ({static_lnl} / {adaptive_lnl} vs oracle {oracle})");

    assert!(
        rebalances >= 1,
        "the throttled device must trigger a rebalance"
    );
    assert!(correct, "balancing must never change the answer");
    assert!(
        improvement >= 2.0,
        "adaptive steady-state makespan must beat the static split 2x, got {improvement:.2}x"
    );

    let mut json = String::from("{\n  \"benchmark\": \"balance\",\n");
    json.push_str(&format!(
        "  \"fixture\": {{\"slow_device\": \"{}\", \"slowdown\": {SLOWDOWN}, \"fast_device\": \"{}\", \"patterns\": {}, \"batches\": {batches}}},\n",
        slow_name(),
        fast_name(),
        problem.patterns.pattern_count()
    ));
    json.push_str(&format!(
        "  \"static_makespans_ns\": [{}],\n",
        json_list(&static_ms)
    ));
    json.push_str(&format!(
        "  \"adaptive_makespans_ns\": [{}],\n",
        json_list(&adaptive_ms)
    ));
    json.push_str(&format!(
        "  \"static_steady_ns\": {:.0}, \"adaptive_steady_ns\": {:.0},\n",
        static_steady * 1e9,
        adaptive_steady * 1e9
    ));
    json.push_str(&format!("  \"improvement\": {improvement:.4},\n"));
    json.push_str(&format!("  \"rebalances\": {rebalances},\n"));
    json.push_str(&format!(
        "  \"final_ranges\": [{}],\n",
        ranges
            .iter()
            .map(|(a, b)| format!("[{a}, {b}]"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"static_lnl\": {static_lnl}, \"adaptive_lnl\": {adaptive_lnl}, \"oracle\": {oracle}, \"correct\": {correct}\n"
    ));
    json.push_str("}\n");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_balance.json".into());
    std::fs::write(&out, json).expect("write BENCH_balance.json");
    println!("\nwrote {out}");
}
