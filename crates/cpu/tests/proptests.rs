//! Property-based tests for the CPU kernels and threading machinery.

use beagle_core::memo::MemoInstance;
use beagle_core::real::{weighted_lnl_sum, Real};
use beagle_core::{
    BeagleInstance, BufferId, Flags, ImplementationFactory, Operation, ScalingMode, GAP_STATE,
};
use beagle_cpu::pool::partition_range;
use beagle_cpu::{kernels, vector, CpuFactory, ThreadingModel};
use beagle_phylo::models::nucleotide;
use beagle_phylo::simulate::simulate_alignment;
use beagle_phylo::{SitePatterns, SiteRates, Tree};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a vector of positive likelihood-like values.
fn partials(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-6f64..1.0, len)
}

/// Strategy: a probability-ish matrix (positive entries).
fn matrix(s: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-6f64..1.0, s * s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vectorized 4-state kernels equal the scalar kernels on random input.
    #[test]
    fn vector4_equals_scalar(
        patterns in 1usize..64,
        c1 in partials(64 * 4),
        c2 in partials(64 * 4),
        m1 in matrix(4),
        m2 in matrix(4),
    ) {
        let n = patterns * 4;
        let mut dv = vec![0.0; n];
        let mut ds = vec![0.0; n];
        vector::partials_partials_4(&mut dv, &c1[..n], &c2[..n], &m1, &m2, 4);
        kernels::partials_partials(&mut ds, &c1[..n], &c2[..n], &m1, &m2, 4, 4);
        for (a, b) in dv.iter().zip(&ds) {
            prop_assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
        }
    }

    /// states_partials equals partials_partials with one-hot children.
    #[test]
    fn states_equals_onehot(
        states_vals in proptest::collection::vec(0u32..4, 1..40),
        c2_seed in partials(40 * 4),
        m1 in matrix(4),
        m2 in matrix(4),
    ) {
        let patterns = states_vals.len();
        let n = patterns * 4;
        let c2 = &c2_seed[..n];
        let mut onehot = vec![0.0; n];
        for (p, &st) in states_vals.iter().enumerate() {
            onehot[p * 4 + st as usize] = 1.0;
        }
        let mut d_states = vec![0.0; n];
        let mut d_onehot = vec![0.0; n];
        kernels::states_partials(&mut d_states, &states_vals, c2, &m1, &m2, 4, 4);
        kernels::partials_partials(&mut d_onehot, &onehot, c2, &m1, &m2, 4, 4);
        for (a, b) in d_states.iter().zip(&d_onehot) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// Rescaling leaves a pattern whose maximum lies in the window
    /// `[2^-W, 2^(W+1))` alone (log factor `+0.0`) and multiplies any other
    /// by `2^-E`, `E` the binary exponent of its maximum: that maximum
    /// lands in `[1, 2)`, the log factor is exactly `E·ln 2`, and
    /// `partials × 2^E` gives back every entry bit for bit. Each pattern
    /// is scaled by its own power of two in `[2^-(2W+8), 2^(W+8)]`, so
    /// maxima fall on both sides of both window edges.
    #[test]
    fn rescale_preserves_values(
        patterns in 1usize..32,
        cats in 1usize..4,
        data in partials(32 * 4 * 4),
        shifts in proptest::collection::vec(-2 * f64::RESCALE_WINDOW - 8..=f64::RESCALE_WINDOW + 8, 32),
    ) {
        let s = 4;
        let mut buf: Vec<f64> = data[..cats * patterns * s].to_vec();
        for (i, x) in buf.iter_mut().enumerate() {
            *x *= 2f64.powi(shifts[i / s % patterns]);
        }
        let original = buf.clone();
        let mut scale = vec![0.0; patterns];
        {
            let mut blocks: Vec<&mut [f64]> = buf.chunks_exact_mut(patterns * s).collect();
            kernels::rescale_patterns(&mut blocks, &mut scale, s);
        }
        let entries = |p: usize| {
            (0..cats).flat_map(move |c| (0..s).map(move |k| (c * patterns + p) * s + k))
        };
        let w = f64::RESCALE_WINDOW;
        for (p, &log_scale) in scale.iter().enumerate() {
            // The exponent of the original maximum, by repeated halving
            // and doubling (exact for normal values), or 0 in the window.
            let max0 = entries(p).map(|i| original[i]).fold(0.0, f64::max);
            let (mut m, mut e) = (max0, 0);
            while m >= 2.0 {
                m /= 2.0;
                e += 1;
            }
            while m < 1.0 {
                m *= 2.0;
                e -= 1;
            }
            let inside = (-w..=w).contains(&e);
            prop_assert_eq!(inside, (2f64.powi(-w)..2f64.powi(w + 1)).contains(&max0));
            let e = if inside { 0 } else { e };
            prop_assert_eq!(log_scale.to_bits(), (e as f64 * std::f64::consts::LN_2).to_bits());
            let max = entries(p).map(|i| buf[i]).fold(0.0, f64::max);
            if !inside {
                prop_assert!((1.0..2.0).contains(&max), "max {}", max);
            }
            for i in entries(p) {
                prop_assert_eq!((buf[i] * 2f64.powi(e)).to_bits(), original[i].to_bits());
            }
        }
    }

    /// Gap states act as all-ones partials in every kernel.
    #[test]
    fn gap_is_identity_operand(
        patterns in 1usize..20,
        c2_seed in partials(20 * 4),
        m2 in matrix(4),
    ) {
        let n = patterns * 4;
        // Row-stochastic m1 so the gap shortcut matches a one-vector child.
        let m1 = vec![0.25; 16];
        let gaps = vec![GAP_STATE; patterns];
        let ones = vec![1.0; n];
        let mut d_gap = vec![0.0; n];
        let mut d_ones = vec![0.0; n];
        kernels::states_partials(&mut d_gap, &gaps, &c2_seed[..n], &m1, &m2, 4, 4);
        kernels::partials_partials(&mut d_ones, &ones, &c2_seed[..n], &m1, &m2, 4, 4);
        for (a, b) in d_gap.iter().zip(&d_ones) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// partition_range always tiles [0, n) exactly with balanced chunks.
    #[test]
    fn partition_tiles_exactly(n in 0usize..100_000, chunks in 1usize..128) {
        let parts = partition_range(n, chunks);
        let total: usize = parts.iter().map(|(a, b)| b - a).sum();
        prop_assert_eq!(total, n);
        let mut prev = 0;
        for &(a, b) in &parts {
            prop_assert_eq!(a, prev);
            prop_assert!(b > a);
            prev = b;
        }
        if !parts.is_empty() {
            let lens: Vec<usize> = parts.iter().map(|(a, b)| b - a).collect();
            prop_assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        }
    }

    /// Root integration is linear in pattern weights.
    #[test]
    fn integration_weight_linearity(
        patterns in 1usize..30,
        root in partials(30 * 4),
        w in proptest::collection::vec(0.5f64..4.0, 30),
        alpha in 0.1f64..5.0,
    ) {
        let s = 4;
        let n = patterns * s;
        let freqs = vec![0.25; 4];
        let catw = vec![1.0];
        let w1: Vec<f64> = w[..patterns].to_vec();
        let w2: Vec<f64> = w1.iter().map(|x| alpha * x).collect();
        let mut site = vec![0.0; patterns];
        kernels::integrate_root(&mut site, &root[..n], &freqs, &catw, None, s, s, patterns, 0);
        let t1 = weighted_lnl_sum(0.0, &site, w1);
        let t2 = weighted_lnl_sum(0.0, &site, w2);
        prop_assert!((t2 - alpha * t1).abs() < 1e-9 * t1.abs().max(1.0));
    }

    /// The memo layer over a CPU back-end (as the manager stacks them) is
    /// bit-for-bit identical to the plain back-end on random trees — root
    /// log-likelihood, site log-likelihoods, and every internal partials
    /// buffer — scaled and unscaled, and stays identical when the same
    /// model is re-proposed (the path where memo serves the matrices).
    #[test]
    fn memo_cpu_equals_plain_bit_for_bit(
        taxa in 3usize..8,
        sites in 4usize..40,
        seed in 0u64..1_000_000,
        kappa in 1.0f64..8.0,
        scaled_sel in 0u32..2,
    ) {
        let scaled = scaled_sel == 1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = Tree::random(taxa, 0.12, &mut rng);
        let model = nucleotide::hky85(kappa, &[0.1, 0.2, 0.3, 0.4]);
        let rates = SiteRates::discrete_gamma(0.5, 2);
        let alignment = simulate_alignment(&tree, &model, &rates, sites, &mut rng);
        let patterns = SitePatterns::compress(&alignment);
        let config = beagle_core::InstanceConfig::for_tree(
            taxa,
            patterns.pattern_count(),
            4,
            rates.category_count(),
        );

        let drive = |inst: &mut dyn BeagleInstance| -> (f64, Vec<f64>) {
            let eig = model.eigen();
            inst.set_eigen_decomposition(
                0,
                eig.vectors.as_slice(),
                eig.inverse_vectors.as_slice(),
                &eig.values,
            )
            .unwrap();
            inst.set_state_frequencies(0, model.frequencies()).unwrap();
            inst.set_category_rates(&rates.rates).unwrap();
            inst.set_category_weights(0, &rates.weights).unwrap();
            inst.set_pattern_weights(patterns.weights()).unwrap();
            for tip in 0..taxa {
                inst.set_tip_states(tip, &patterns.tip_states(tip)).unwrap();
            }
            let (idx, len): (Vec<usize>, Vec<f64>) =
                tree.branch_assignments().iter().copied().unzip();
            inst.update_transition_matrices(0, &idx, &len).unwrap();
            let ops: Vec<Operation> = tree
                .operation_schedule()
                .iter()
                .map(|e| {
                    let op =
                        Operation::new(e.destination, e.child1, e.matrix1, e.child2, e.matrix2);
                    if scaled { op.with_scaling(e.destination) } else { op }
                })
                .collect();
            inst.update_partials(&ops).unwrap();
            let cum = if scaled {
                let c = inst.config().scale_buffer_count - 1;
                inst.reset_scale_factors(c).unwrap();
                let bufs: Vec<usize> = ops.iter().map(|o| o.destination).collect();
                inst.accumulate_scale_factors(&bufs, c).unwrap();
                ScalingMode::cumulative(c)
            } else {
                ScalingMode::None
            };
            let lnl = inst
                .integrate_root(BufferId(tree.root()), BufferId(0), BufferId(0), cum)
                .unwrap();
            (lnl, inst.get_site_log_likelihoods().unwrap())
        };

        let factory = CpuFactory::with_threads(ThreadingModel::Serial, false, 1);
        let mut plain = factory.create(&config, Flags::PRECISION_DOUBLE, Flags::NONE).unwrap();
        let mut memo = MemoInstance::new(
            factory.create(&config, Flags::PRECISION_DOUBLE, Flags::NONE).unwrap(),
        );

        let (lnl_e, sites_e) = drive(plain.as_mut());
        let (lnl_q, sites_q) = drive(&mut memo);
        prop_assert_eq!(lnl_e.to_bits(), lnl_q.to_bits());
        let se: Vec<u64> = sites_e.iter().map(|v| v.to_bits()).collect();
        let sq: Vec<u64> = sites_q.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(se, sq);
        for node in taxa..(2 * taxa - 1) {
            let pe: Vec<u64> =
                plain.get_partials(node).unwrap().iter().map(|v| v.to_bits()).collect();
            let pq: Vec<u64> =
                memo.get_partials(node).unwrap().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(pe, pq, "partials buffer {} diverged", node);
        }

        // Re-propose the identical model: the second pass is served by the
        // memo layer and must not perturb a single bit.
        let computed = memo.memo_stats().unwrap().matrices_computed;
        prop_assert!(computed > 0);
        let (lnl_e2, _) = drive(plain.as_mut());
        let (lnl_q2, _) = drive(&mut memo);
        prop_assert_eq!(lnl_e2.to_bits(), lnl_q2.to_bits());
        let stats = memo.memo_stats().unwrap();
        prop_assert!(stats.matrices_skipped + stats.matrices_reused > 0);
        prop_assert_eq!(stats.matrices_computed, computed);
    }
}
