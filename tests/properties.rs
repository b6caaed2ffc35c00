//! Property-based workspace tests: statistical invariants of the likelihood
//! machinery that must hold for arbitrary inputs, checked with proptest.

use beagle::core::multi::weighted_ranges_aligned;
use beagle::core::{BalancerConfig, LoadBalancer, PATTERN_STRIDE};
use beagle::harness::full_manager;
use beagle::phylo::likelihood::log_likelihood;
use beagle::phylo::models::nucleotide::{gtr, hky85};
use beagle::phylo::simulate::simulate_alignment;
use beagle::prelude::*;
use proptest::prelude::*;

/// Build a reproducible random problem from proptest-chosen knobs.
fn problem(
    taxa: usize,
    sites: usize,
    kappa: f64,
    seed: u64,
) -> (Tree, ReversibleModel, SiteRates, SitePatterns) {
    let mut rng = rand_seeded(seed);
    let tree = Tree::random(taxa, 0.15, &mut rng);
    let model = hky85(kappa, &[0.3, 0.2, 0.25, 0.25]);
    let rates = SiteRates::constant();
    let aln = simulate_alignment(&tree, &model, &rates, sites, &mut rng);
    let patterns = SitePatterns::compress(&aln);
    (tree, model, rates, patterns)
}

fn beagle_lnl(
    name: &str,
    tree: &Tree,
    model: &ReversibleModel,
    rates: &SiteRates,
    patterns: &SitePatterns,
) -> f64 {
    let manager = full_manager();
    let config = InstanceConfig::for_tree(
        tree.taxon_count(),
        patterns.pattern_count(),
        model.state_count(),
        rates.category_count(),
    );
    let mut inst = manager
        .create_instance_by_name(name, &config, Flags::PRECISION_DOUBLE)
        .unwrap();
    let p = beagle::harness::Problem {
        tree: tree.clone(),
        model: model.clone(),
        rates: rates.clone(),
        patterns: patterns.clone(),
    };
    p.load(inst.as_mut());
    p.evaluate(inst.as_mut(), false)
}

/// Makespan skew of `ranges` under per-part throughput `rates`: worst
/// per-part time over the ideal (perfectly proportional) time. Always ≥ 1.
fn skew_of(ranges: &[(usize, usize)], rates: &[f64]) -> f64 {
    let patterns: usize = ranges.iter().map(|(a, b)| b - a).sum();
    let ideal = patterns as f64 / rates.iter().sum::<f64>();
    ranges
        .iter()
        .zip(rates)
        .map(|(&(a, b), &r)| (b - a) as f64 / r)
        .fold(0.0f64, f64::max)
        / ideal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The BEAGLE result equals the pruning oracle for random problems.
    #[test]
    fn beagle_matches_oracle(
        taxa in 3usize..12,
        sites in 20usize..150,
        kappa in 0.5f64..8.0,
        seed in 0u64..1000,
    ) {
        let (tree, model, rates, patterns) = problem(taxa, sites, kappa, seed);
        let oracle = log_likelihood(&tree, &model, &rates, &patterns);
        let lnl = beagle_lnl("CPU-serial", &tree, &model, &rates, &patterns);
        prop_assert!((lnl - oracle).abs() < 1e-8);
    }

    /// Doubling every pattern weight doubles the log-likelihood.
    #[test]
    fn weight_linearity(
        taxa in 3usize..10,
        sites in 20usize..100,
        seed in 0u64..1000,
    ) {
        let (tree, model, rates, patterns) = problem(taxa, sites, 2.0, seed);
        let l1 = log_likelihood(&tree, &model, &rates, &patterns);
        let doubled = SitePatterns::from_parts(
            (0..patterns.pattern_count()).map(|p| patterns.pattern(p).to_vec()).collect(),
            patterns.weights().iter().map(|w| 2.0 * w).collect(),
        );
        let l2 = log_likelihood(&tree, &model, &rates, &doubled);
        prop_assert!((l2 - 2.0 * l1).abs() < 1e-8);
    }

    /// Permuting the pattern order leaves the likelihood unchanged.
    #[test]
    fn pattern_order_invariance(
        taxa in 3usize..10,
        sites in 20usize..100,
        seed in 0u64..1000,
    ) {
        let (tree, model, rates, patterns) = problem(taxa, sites, 3.0, seed);
        let n = patterns.pattern_count();
        // Deterministic permutation: reverse.
        let rev = SitePatterns::from_parts(
            (0..n).rev().map(|p| patterns.pattern(p).to_vec()).collect(),
            patterns.weights().iter().rev().copied().collect(),
        );
        let a = beagle_lnl("CPU-threadpool", &tree, &model, &rates, &patterns);
        let b = beagle_lnl("CPU-threadpool", &tree, &model, &rates, &rev);
        prop_assert!((a - b).abs() < 1e-8);
    }

    /// Log-likelihood is invariant under scaling of the GTR exchangeability
    /// vector (Q is normalized).
    #[test]
    fn q_normalization_invariance(
        scale in 0.1f64..10.0,
        seed in 0u64..1000,
    ) {
        let rates6 = [1.0, 2.0, 0.5, 1.5, 3.0, 1.0];
        let scaled6 = rates6.map(|r| r * scale);
        let pi = [0.3, 0.2, 0.3, 0.2];
        let m1 = gtr(&rates6, &pi);
        let m2 = gtr(&scaled6, &pi);
        let mut rng = rand_seeded(seed);
        let tree = Tree::random(6, 0.1, &mut rng);
        let srates = SiteRates::constant();
        let aln = simulate_alignment(&tree, &m1, &srates, 60, &mut rng);
        let patterns = SitePatterns::compress(&aln);
        let l1 = log_likelihood(&tree, &m1, &srates, &patterns);
        let l2 = log_likelihood(&tree, &m2, &srates, &patterns);
        prop_assert!((l1 - l2).abs() < 1e-8);
    }

    /// Per-operation rescaling never changes the double-precision result.
    #[test]
    fn scaling_is_numerically_neutral(
        taxa in 3usize..10,
        sites in 20usize..80,
        seed in 0u64..1000,
    ) {
        let (tree, model, rates, patterns) = problem(taxa, sites, 2.0, seed);
        let manager = full_manager();
        let config = InstanceConfig::for_tree(taxa, patterns.pattern_count(), 4, 1);
        let p = beagle::harness::Problem {
            tree: tree.clone(), model: model.clone(), rates: rates.clone(), patterns: patterns.clone(),
        };
        let mut a = manager
            .create_instance_by_name("CPU-serial", &config, Flags::PRECISION_DOUBLE)
            .unwrap();
        p.load(a.as_mut());
        let unscaled = p.evaluate(a.as_mut(), false);
        let mut b = manager
            .create_instance_by_name("CPU-serial", &config, Flags::PRECISION_DOUBLE)
            .unwrap();
        p.load(b.as_mut());
        let scaled = p.evaluate(b.as_mut(), true);
        prop_assert!((unscaled - scaled).abs() < 1e-8);
    }

    /// The balancer's stride-aligned repartition always covers `0..patterns`
    /// contiguously with non-empty parts, interior split points on the
    /// stride whenever the pattern count permits.
    #[test]
    fn rebalanced_ranges_cover_all_patterns(
        patterns in 16usize..5000,
        raw_weights in proptest::collection::vec(0.05f64..100.0, 2..6),
        stride in 1usize..32,
    ) {
        // patterns >= 16 and at most 6 weights, so the split is always feasible.
        let ranges = weighted_ranges_aligned(patterns, &raw_weights, stride).unwrap();
        prop_assert_eq!(ranges.len(), raw_weights.len());
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges[ranges.len() - 1].1, patterns);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
        }
        for &(a, b) in &ranges {
            prop_assert!(b > a, "no part may be empty: {:?}", ranges);
        }
        // Interior splits land on the stride when there is room for every
        // part to get at least one full stride block.
        if patterns >= raw_weights.len() * stride {
            for w in ranges.windows(2) {
                prop_assert_eq!(w[0].1 % stride, 0, "split {} off stride {}", w[0].1, stride);
            }
        }
    }

    /// Pattern shares are monotone in observed throughput: a part that the
    /// balancer measured as faster never receives fewer patterns.
    #[test]
    fn rebalanced_shares_monotone_in_throughput(
        rates in proptest::collection::vec(50.0f64..5000.0, 2..6),
        patterns in 1000usize..8000,
    ) {
        let mut b = LoadBalancer::new(rates.len(), BalancerConfig::default());
        for _ in 0..3 {
            for (i, &r) in rates.iter().enumerate() {
                b.observe(i, 1000, std::time::Duration::from_secs_f64(1000.0 / r));
            }
        }
        let thr = b.throughputs().expect("all parts observed");
        let ranges = weighted_ranges_aligned(patterns, &thr, PATTERN_STRIDE).unwrap();
        for i in 0..rates.len() {
            for j in 0..rates.len() {
                if thr[i] > thr[j] {
                    let ni = ranges[i].1 - ranges[i].0;
                    let nj = ranges[j].1 - ranges[j].0;
                    // Stride rounding can cost at most one block.
                    prop_assert!(
                        ni + PATTERN_STRIDE > nj,
                        "part {} ({} pat/s) got {}, part {} ({} pat/s) got {}",
                        i, thr[i], ni, j, thr[j], nj
                    );
                }
            }
        }
    }

    /// Under stationary throughputs, an accepted rebalance plan strictly
    /// decreases the predicted makespan skew — the no-thrash guarantee.
    #[test]
    fn rebalance_strictly_decreases_skew_under_stationary_throughputs(
        rates in proptest::collection::vec(50.0f64..5000.0, 2..5),
        patterns in 2000usize..10000,
        batches in 2u32..6,
    ) {
        let mut b = LoadBalancer::new(rates.len(), BalancerConfig::default());
        for _ in 0..batches {
            for (i, &r) in rates.iter().enumerate() {
                b.observe(i, 500, std::time::Duration::from_secs_f64(500.0 / r));
            }
        }
        // Start from an equal split, then let the balancer iterate. An
        // accepted plan resets settling, so each round re-observes the same
        // (stationary) throughputs before asking again.
        let equal: Vec<f64> = vec![1.0; rates.len()];
        let mut ranges = weighted_ranges_aligned(patterns, &equal, PATTERN_STRIDE).unwrap();
        let mut skew = b.predicted_skew(&ranges).expect("estimates settled");
        let mut accepted = 0;
        while let Some((next, est)) = b.plan(patterns, &ranges) {
            let next_skew = skew_of(&next, &est);
            prop_assert!(
                next_skew < skew,
                "accepted plan must improve skew: {} -> {}",
                skew, next_skew
            );
            ranges = next;
            skew = next_skew;
            accepted += 1;
            prop_assert!(accepted <= 10, "stationary throughputs must converge, not thrash");
            for _ in 0..BalancerConfig::default().min_batches {
                for (i, &r) in rates.iter().enumerate() {
                    b.observe(i, 500, std::time::Duration::from_secs_f64(500.0 / r));
                }
            }
        }
        // Once plan() goes quiet, the split is within threshold or cannot
        // be improved at this stride.
        prop_assert!(skew >= 1.0);
    }

    /// The incremental memoization layer never serves stale bits: after an
    /// arbitrary interleaving of branch perturbations, model swaps, and
    /// scaled/unscaled re-evaluations, a long-lived memoized instance always
    /// matches a freshly built always-recompute instance, bit for bit.
    #[test]
    fn incremental_memoization_never_serves_stale_bits(
        taxa in 4usize..10,
        sites in 20usize..100,
        seed in 0u64..1000,
        // Each move packs (branch, length factor, swap-model, scaled) into
        // one u64 — the vendored proptest has no tuple strategies.
        moves in proptest::collection::vec(0u64..(1u64 << 28), 1..8),
    ) {
        let (tree, model, rates, patterns) = problem(taxa, sites, 2.0, seed);
        let mut p = beagle::harness::Problem { tree, model, rates, patterns };
        let manager = full_manager();
        let mut memoized = InstanceSpec::with_config(p.config())
            .named("CPU-serial")
            .instantiate(&manager)
            .unwrap();
        prop_assert!(memoized.memo_stats().is_some());
        let n_branch = 2 * taxa - 2;
        let mut kappa = 2.0;
        for &m in &moves {
            let branch = (m & 0xffff) as usize % n_branch;
            let factor = 0.5 + 1.5 * (((m >> 16) & 0x3ff) as f64 / 1023.0);
            let swap_model = (m >> 26) & 1 == 1;
            let scaled = (m >> 27) & 1 == 1;
            p.tree.node_mut(branch).branch_length *= factor;
            if swap_model {
                kappa += 0.5;
                p.model = hky85(kappa, &[0.3, 0.2, 0.25, 0.25]);
            }
            p.load(memoized.as_mut());
            let inc = p.evaluate(memoized.as_mut(), scaled);
            // The reference is built from scratch every move: no history,
            // nothing to skip, so any stale skip in `memoized` shows up as
            // a bit difference.
            let mut fresh = InstanceSpec::with_config(p.config())
                .named("CPU-serial")
                .incremental(false)
                .instantiate(&manager)
                .unwrap();
            p.load(fresh.as_mut());
            let full = p.evaluate(fresh.as_mut(), scaled);
            prop_assert_eq!(
                inc.to_bits(), full.to_bits(),
                "stale skip: incremental {} vs recompute {}", inc, full
            );
        }
    }

    /// Extending a branch away from zero can only decrease the likelihood of
    /// identical-sequence data (any substitution is unfavourable).
    #[test]
    fn identical_sequences_favour_zero_branches(
        taxa in 3usize..8,
        t in 0.01f64..2.0,
    ) {
        let model = hky85(2.0, &[0.25; 4]);
        let rates = SiteRates::constant();
        // All-identical alignment: every taxon is "ACGT" repeated.
        let seq = "ACGTACGTACGT";
        let rows: Vec<(String, &str)> = (0..taxa).map(|i| (format!("t{i}"), seq)).collect();
        let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let aln = Alignment::from_text(Alphabet::Dna, &refs);
        let patterns = SitePatterns::compress(&aln);
        let near_zero = Tree::ladder(taxa, 1e-9);
        let stretched = Tree::ladder(taxa, t);
        let l0 = log_likelihood(&near_zero, &model, &rates, &patterns);
        let l1 = log_likelihood(&stretched, &model, &rates, &patterns);
        prop_assert!(l0 > l1, "{l0} should beat {l1}");
    }
}
