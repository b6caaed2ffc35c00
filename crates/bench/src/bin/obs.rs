//! Observability overhead + resource auto-benchmark.
//!
//! Two questions, answered with numbers in `BENCH_obs.json`:
//!
//! 1. **What does instrumentation cost?** The same CPU-serial traversal is
//!    timed with statistics off and on (`INSTANCE_STATS`), interleaved and
//!    min-of-rounds so scheduler noise cancels. The recorder adds a few
//!    counter updates per *kernel call* (not per pattern), so the target is
//!    <2% — and exactly 0 when the core crate is built with the
//!    `obs-disabled` feature, which compiles the recorder out.
//! 2. **What does the auto-benchmark see?** `benchmark_resources` runs a
//!    short calibrated workload on every registered factory and ranks them
//!    by measured throughput (modeled device time for simulated GPUs,
//!    wall time otherwise) — the ranking `InstanceSpec::instantiate_partitioned`
//!    seeds its children and weights from.
//!
//! Timing provenance: overhead rows are **measured** wall time on this
//! host; GPU rows in the ranking are **modeled** device times (DESIGN.md §1).

use std::time::{Duration, Instant};

use beagle_core::{BeagleInstance, Flags, InstanceSpec, Recorder};
use genomictest::{full_manager, ModelKind, Problem, Scenario};

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// One full traversal + root integration, timed.
fn traversal(problem: &Problem, inst: &mut dyn BeagleInstance, reps: usize) -> Duration {
    let ops = problem.operations(false);
    let start = Instant::now();
    for _ in 0..reps {
        inst.update_partials(&ops).expect("traversal");
    }
    start.elapsed()
}

fn make(problem: &Problem, stats: bool) -> Box<dyn BeagleInstance> {
    let spec = InstanceSpec::with_config(problem.config())
        .prefer(Flags::PRECISION_DOUBLE)
        .named("CPU-serial");
    let spec = if stats { spec.with_stats() } else { spec };
    let mut inst = spec
        .instantiate(&full_manager())
        .expect("CPU-serial exists");
    // The overhead measurement repeats identical traversals; memoization
    // would skip them all and time nothing.
    inst.set_incremental(false);
    inst
}

fn main() {
    let (reps, rounds) = if quick_mode() { (3, 3) } else { (12, 7) };
    let problem = Problem::generate(&Scenario {
        model: ModelKind::Nucleotide,
        taxa: 16,
        patterns: 2000,
        categories: 4,
        seed: 71,
    });
    let obs_compiled_in = Recorder::new(true).is_enabled();

    // --- 1. Overhead: stats-off vs stats-on, interleaved, min-of-rounds ---
    let mut off = make(&problem, false);
    let mut on = make(&problem, true);
    problem.load(off.as_mut());
    problem.load(on.as_mut());
    // Warm-up both (first-touch allocation).
    traversal(&problem, off.as_mut(), 1);
    traversal(&problem, on.as_mut(), 1);

    let mut best_off = Duration::MAX;
    let mut best_on = Duration::MAX;
    for _ in 0..rounds {
        best_off = best_off.min(traversal(&problem, off.as_mut(), reps));
        best_on = best_on.min(traversal(&problem, on.as_mut(), reps));
    }
    let overhead_pct = if obs_compiled_in {
        (best_on.as_secs_f64() - best_off.as_secs_f64()) / best_off.as_secs_f64() * 100.0
    } else {
        0.0
    };

    // Results must be bit-identical with and without instrumentation.
    let lnl_off = problem.evaluate(off.as_mut(), false);
    let lnl_on = problem.evaluate(on.as_mut(), false);
    let bit_exact = lnl_off.to_bits() == lnl_on.to_bits();

    println!("== observability overhead (CPU-serial, 16 taxa, 2000 patterns, 4 cats) ==");
    println!("obs compiled in:   {obs_compiled_in}");
    println!(
        "stats off (best):  {:>12.3} ms / {reps} traversals",
        best_off.as_secs_f64() * 1e3
    );
    println!(
        "stats on  (best):  {:>12.3} ms / {reps} traversals",
        best_on.as_secs_f64() * 1e3
    );
    println!("overhead:          {overhead_pct:>11.3}%");
    println!("bit-exact:         {bit_exact}");

    // One scaled evaluation: how many rescale checks the CPU instance's
    // bounds skipped, how many ran, and how many patterns those rescaled.
    problem.evaluate(on.as_mut(), true);
    if let Some(stats) = on.statistics() {
        println!(
            "rescale checks:    {} skipped, {} run, {} patterns rescaled",
            stats.rescale_checks_skipped, stats.rescale_checks_run, stats.patterns_rescaled
        );
    }

    let stats_json = match on.statistics() {
        Some(stats) => stats.to_json(),
        None => "null".to_string(),
    };
    let journal_events = on.take_journal().len();

    // --- 2. Resource auto-benchmark: rank every registered factory ---
    let manager = full_manager();
    let ranking = manager.benchmark_resources(&problem.config(), Flags::NONE);
    println!("\n== benchmark_resources ranking (fastest first) ==");
    println!("{:<44} {:>12} {:>10}", "implementation", "time", "GFLOPS");
    for entry in &ranking {
        match &entry.error {
            None => {
                let (t, tag) = match entry.modeled {
                    Some(m) => (m, "modeled"),
                    None => (entry.wall, "wall"),
                };
                println!(
                    "{:<44} {:>9.3} {tag:<3} {:>8.2}",
                    entry.implementation,
                    t.as_secs_f64() * 1e3,
                    entry.throughput_gflops
                );
            }
            Some(e) => println!("{:<44} unmeasured: {e}", entry.implementation),
        }
    }

    // --- JSON report ---
    let mut json = String::from("{\n  \"benchmark\": \"obs\",\n");
    json.push_str(&format!("  \"obs_compiled_in\": {obs_compiled_in},\n"));
    json.push_str("  \"overhead\": {\n");
    json.push_str("    \"implementation\": \"CPU-serial\", \"taxa\": 16, \"patterns\": 2000, \"categories\": 4,\n");
    json.push_str(&format!(
        "    \"reps_per_round\": {reps}, \"rounds\": {rounds},\n"
    ));
    json.push_str(&format!(
        "    \"stats_off_ns\": {}, \"stats_on_ns\": {},\n",
        best_off.as_nanos(),
        best_on.as_nanos()
    ));
    json.push_str(&format!(
        "    \"overhead_pct\": {overhead_pct:.4}, \"bit_exact\": {bit_exact},\n"
    ));
    json.push_str(&format!("    \"journal_events\": {journal_events},\n"));
    json.push_str(&format!("    \"instance_stats\": {stats_json}\n"));
    json.push_str("  },\n  \"ranking\": [\n");
    for (i, entry) in ranking.iter().enumerate() {
        let modeled = match entry.modeled {
            Some(m) => m.as_nanos().to_string(),
            None => "null".to_string(),
        };
        let error = match &entry.error {
            Some(e) => format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")),
            None => "null".to_string(),
        };
        json.push_str(&format!(
            "    {{\"implementation\": \"{}\", \"resource\": \"{}\", \"wall_ns\": {}, \"modeled_ns\": {}, \"gflops\": {:.4}, \"error\": {}}}{}\n",
            entry.implementation,
            entry.resource,
            entry.wall.as_nanos(),
            modeled,
            entry.throughput_gflops,
            error,
            if i + 1 < ranking.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".into());
    std::fs::write(&out, json).expect("write BENCH_obs.json");
    println!("\nwrote {out}");
}
