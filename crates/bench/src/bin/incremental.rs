//! Epoch-based incremental computation on an MCMC access pattern.
//!
//! The paper's workloads are MCMC-driven: each proposal perturbs one branch
//! length, yet a naive client refreshes every transition matrix and every
//! partial on every move. `beagle_mcmc::BeagleEngine` is such a client: it
//! sends the full refresh on every evaluation. This binary quantifies what
//! the memo layer (`beagle_core::memo`, the only incremental mechanism)
//! prunes from that refresh: a single-branch-update sweep over a large
//! tree, evaluated once on the default stack and once on an instance built
//! with `InstanceSpec::incremental(false)`.
//!
//! Acceptance: the incremental trace must be **bit-identical** to the
//! always-recompute trace, and at least 5x faster per evaluation.
//!
//! Timing provenance: **measured** wall-clock on the CPU-serial back-end
//! (real kernels, no device model).

use std::time::{Duration, Instant};

use beagle_mcmc::{BeagleEngine, LikelihoodEngine};
use beagle_phylo::models::nucleotide::hky85;
use beagle_phylo::simulate::simulate_alignment;
use beagle_phylo::{ReversibleModel, SitePatterns, SiteRates, Tree};
use genomictest::full_manager;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

struct Case {
    tree: Tree,
    model: ReversibleModel,
    rates: SiteRates,
    patterns: SitePatterns,
    taxa: usize,
}

fn case(taxa: usize, sites: usize) -> Case {
    let mut rng = SmallRng::seed_from_u64(2017);
    let tree = Tree::random(taxa, 0.12, &mut rng);
    let model = hky85(2.5, &[0.3, 0.2, 0.25, 0.25]);
    let rates = SiteRates::discrete_gamma(0.5, 4);
    let aln = simulate_alignment(&tree, &model, &rates, sites, &mut rng);
    let patterns = SitePatterns::compress(&aln);
    Case {
        tree,
        model,
        rates,
        patterns,
        taxa,
    }
}

fn engine(case: &Case, incremental: bool) -> BeagleEngine {
    let config = beagle_core::InstanceConfig::for_tree(
        case.taxa,
        case.patterns.pattern_count(),
        4,
        case.rates.category_count(),
    );
    let inst = beagle_core::InstanceSpec::with_config(config)
        .named("CPU-serial")
        .incremental(incremental)
        .instantiate(&full_manager())
        .expect("CPU-serial exists");
    BeagleEngine::new(inst, case.patterns.clone(), case.rates.clone(), false)
}

/// Run the single-branch-update sweep: iteration `i` scales one branch,
/// then the tree is re-evaluated. Returns (lnL bit trace, wall time).
fn sweep(case: &Case, eng: &mut BeagleEngine, iters: usize) -> (Vec<u64>, Duration) {
    let mut tree = case.tree.clone();
    // Warm-up: the first evaluation is a full refresh for both engines.
    eng.log_likelihood(&tree, &case.model);
    let n_branch = 2 * case.taxa - 2;
    let start = Instant::now();
    let mut trace = Vec::with_capacity(iters);
    for i in 0..iters {
        let node = (i * 7 + 3) % n_branch;
        tree.node_mut(node).branch_length *= 1.0 + 0.01 * ((i % 13) as f64 + 1.0);
        trace.push(eng.log_likelihood(&tree, &case.model).to_bits());
    }
    (trace, start.elapsed())
}

fn main() {
    let (taxa, sites, iters) = if quick_mode() {
        (96, 1000, 40)
    } else {
        (192, 4000, 200)
    };
    let case = case(taxa, sites);

    let mut full = engine(&case, false);
    let (full_trace, full_time) = sweep(&case, &mut full, iters);

    let mut inc = engine(&case, true);
    let (inc_trace, inc_time) = sweep(&case, &mut inc, iters);

    let bit_identical = full_trace == inc_trace;
    let speedup = full_time.as_secs_f64() / inc_time.as_secs_f64().max(1e-12);
    let stats = inc.memo_stats().unwrap_or_default();

    println!("== incremental computation: single-branch MCMC sweep ==");
    println!("({taxa} taxa, {sites} sites, {iters} single-branch updates, CPU-serial, measured)");
    println!();
    println!(
        "full refresh:  {:>10.3} ms total, {:>8.3} ms/eval",
        full_time.as_secs_f64() * 1e3,
        full_time.as_secs_f64() * 1e3 / iters as f64
    );
    println!(
        "incremental:   {:>10.3} ms total, {:>8.3} ms/eval",
        inc_time.as_secs_f64() * 1e3,
        inc_time.as_secs_f64() * 1e3 / iters as f64
    );
    println!("speedup:       {speedup:.2}x (acceptance bar: 5x)");
    println!("bit-identical: {bit_identical}");
    println!(
        "memo counters: ops {}:{} (exec:skip), matrices {}:{}, integrations {}:{}, sets deduped {}",
        stats.ops_executed,
        stats.ops_skipped,
        stats.matrices_computed,
        stats.matrices_skipped,
        stats.integrations_computed,
        stats.integrations_skipped,
        stats.sets_deduped
    );

    assert!(
        bit_identical,
        "incremental lnL trace diverged from the always-recompute trace"
    );
    assert!(
        speedup >= 5.0,
        "incremental sweep must be at least 5x faster than full refresh, got {speedup:.2}x"
    );

    let mut json = String::from("{\n  \"benchmark\": \"incremental\",\n");
    json.push_str(&format!(
        "  \"fixture\": {{\"taxa\": {taxa}, \"sites\": {sites}, \"patterns\": {}, \"iterations\": {iters}, \"backend\": \"CPU-serial\"}},\n",
        case.patterns.pattern_count()
    ));
    json.push_str(&format!(
        "  \"full_refresh_ns\": {}, \"incremental_ns\": {},\n",
        full_time.as_nanos(),
        inc_time.as_nanos()
    ));
    json.push_str(&format!("  \"speedup\": {speedup:.4},\n"));
    json.push_str(&format!("  \"bit_identical\": {bit_identical},\n"));
    json.push_str(&format!(
        "  \"memo\": {{\"ops_executed\": {}, \"ops_skipped\": {}, \"matrices_computed\": {}, \"matrices_skipped\": {}, \"integrations_computed\": {}, \"integrations_skipped\": {}, \"sets_deduped\": {}, \"scale_pairs_skipped\": {}}}\n",
        stats.ops_executed,
        stats.ops_skipped,
        stats.matrices_computed,
        stats.matrices_skipped,
        stats.integrations_computed,
        stats.integrations_skipped,
        stats.sets_deduped,
        stats.scale_pairs_skipped
    ));
    json.push_str("}\n");
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_incremental.json".into());
    std::fs::write(&out, json).expect("write BENCH_incremental.json");
    println!("\nwrote {out}");
}
