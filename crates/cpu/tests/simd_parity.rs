//! SIMD/scalar parity: every kernel in the dispatch table must agree with
//! the scalar oracle across state counts, precisions, gap states, and
//! near-zero/denormal inputs — and a full likelihood run must agree between
//! the forced-scalar and the vectorized dispatch paths.
//!
//! Every kernel is compared bit for bit on every path. The 4-state AVX2
//! specializations use the same FMA chain as the portable kernels, and the
//! wide-state (s != 4) AVX2 kernels build each destination lane by
//! broadcasting child state `j` and FMA-ing column `j` of the transposed
//! matrix for `j` in order, which is the scalar kernels' chain. Root and
//! edge integration run the scalar reference's site sum and logarithm in
//! pattern lanes.

use beagle_core::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use beagle_core::flags::Flags;
use beagle_core::real::Real;
use beagle_core::{Operation, GAP_STATE};
use beagle_cpu::instance::Threading;
use beagle_cpu::simd::{avx2_available, transpose_matrix, DispatchKind, DispatchReal};
use beagle_cpu::{kernels, CpuInstance};
use proptest::prelude::*;

const STATE_COUNTS: [usize; 4] = [2, 4, 20, 61];

/// Relative tolerance for a dot product of length `s` in precision `T`:
/// reassociation + FMA contraction can each contribute O(s) ulps.
fn dot_tol<T: Real>(s: usize) -> f64 {
    let eps = if std::mem::size_of::<T>() == 8 {
        f64::EPSILON
    } else {
        f32::EPSILON as f64
    };
    8.0 * s as f64 * eps
}

fn bits<T: Real>(v: &[T]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn assert_close<T: Real>(a: &[T], b: &[T], s: usize, what: &str) {
    let tol = dot_tol::<T>(s);
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = (x.to_f64(), y.to_f64());
        if x == y {
            continue; // also covers matching ±inf (log of a zero-sum site)
        }
        let scale = x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (x - y).abs() <= tol * scale.max(1e-30),
            "{what}: index {i} diverged: {x:e} vs {y:e}"
        );
    }
}

/// Likelihood-like value: mostly O(1), sometimes near-zero (down in the
/// range rescaling exists to rescue) or exactly zero. The `single` variant
/// keeps the tiny band representable as a normal f32.
fn value(single: bool) -> impl Strategy<Value = f64> {
    let (tiny_lo, tiny_hi) = if single {
        (1e-35, 1e-30)
    } else {
        (1e-300, 1e-250)
    };
    prop_oneof![
        1e-6f64..1.0,
        1e-6f64..1.0,
        1e-6f64..1.0,
        tiny_lo..tiny_hi,
        Just(0.0f64),
    ]
}

fn padded_vec<T: Real>(values: &[f64], s: usize, sp: usize) -> Vec<T> {
    let n = values.len() / s;
    let mut out = vec![T::ZERO; n * sp];
    for p in 0..n {
        for k in 0..s {
            out[p * sp + k] = T::from_f64(values[p * s + k]);
        }
    }
    out
}

fn states_strategy(s: usize, n: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(
        prop_oneof![0..s as u32, 0..s as u32, 0..s as u32, Just(GAP_STATE)],
        n..=n,
    )
}

/// Every dispatch path available on this host (scalar always; avx2 when
/// detected — the table request degrades to portable otherwise, which
/// would silently test nothing, so it is gated explicitly).
fn paths() -> Vec<DispatchKind> {
    let mut v = vec![DispatchKind::Scalar, DispatchKind::Portable];
    if avx2_available() {
        v.push(DispatchKind::Avx2);
    }
    v
}

fn check_kernels<T: DispatchReal>(
    s: usize,
    c1_raw: &[f64],
    c2_raw: &[f64],
    m1_raw: &[f64],
    m2_raw: &[f64],
    s1: &[u32],
    s2: &[u32],
) {
    let sp = s.div_ceil(T::SIMD_LANES) * T::SIMD_LANES;
    let n = s1.len();
    let c1 = padded_vec::<T>(c1_raw, s, sp);
    let c2 = padded_vec::<T>(c2_raw, s, sp);
    let m1 = padded_vec::<T>(m1_raw, s, sp);
    let m2 = padded_vec::<T>(m2_raw, s, sp);
    let scalar = T::dispatch(DispatchKind::Scalar);
    for kind in paths() {
        if kind == DispatchKind::Scalar {
            continue;
        }
        let table = T::dispatch(kind);
        let mut d_ref = vec![T::ZERO; n * sp];
        let mut d_simd = vec![T::ZERO; n * sp];

        (scalar.partials_partials)(&mut d_ref, &c1, &c2, &m1, &m2, s, sp);
        (table.partials_partials)(&mut d_simd, &c1, &c2, &m1, &m2, s, sp);
        assert_eq!(bits(&d_simd), bits(&d_ref), "pp s={s} {}", table.path);

        (scalar.states_partials)(&mut d_ref, s1, &c2, &m1, &m2, s, sp);
        (table.states_partials)(&mut d_simd, s1, &c2, &m1, &m2, s, sp);
        assert_eq!(bits(&d_simd), bits(&d_ref), "sp s={s} {}", table.path);

        // The wide kernels over matrices transposed once, as the CPU
        // instance runs them.
        if let Some(wide) = table.wide {
            let mut t1 = vec![T::ZERO; s * sp];
            let mut t2 = vec![T::ZERO; s * sp];
            transpose_matrix(&m1, &mut t1, s, sp);
            transpose_matrix(&m2, &mut t2, s, sp);
            (scalar.partials_partials)(&mut d_ref, &c1, &c2, &m1, &m2, s, sp);
            (wide.partials_partials)(&mut d_simd, &c1, &c2, &t1, &t2, s, sp);
            assert_eq!(bits(&d_simd), bits(&d_ref), "wide pp s={s} {}", table.path);
            (scalar.states_partials)(&mut d_ref, s1, &c2, &m1, &m2, s, sp);
            (wide.states_partials)(&mut d_simd, s1, &c2, &t1, &t2, s, sp);
            assert_eq!(bits(&d_simd), bits(&d_ref), "wide sp s={s} {}", table.path);
        }

        (scalar.states_states)(&mut d_ref, s1, s2, &m1, &m2, s, sp);
        (table.states_states)(&mut d_simd, s1, s2, &m1, &m2, s, sp);
        assert_close(&d_simd, &d_ref, 1, &format!("ss s={s} {}", table.path));

        // Rescaling is required to be BIT-exact on every path: the max of a
        // set is order-insensitive and multiplying by a power of two is
        // exact.
        (scalar.partials_partials)(&mut d_ref, &c1, &c2, &m1, &m2, s, sp);
        d_simd.copy_from_slice(&d_ref);
        let mut sc_ref = vec![T::ZERO; n];
        let mut sc_simd = vec![T::ZERO; n];
        let bounds_ref = (scalar.rescale_max)(&d_ref, &mut sc_ref, sp);
        let bounds_simd = (table.rescale_max)(&d_simd, &mut sc_simd, sp);
        assert_eq!(
            bounds_ref, bounds_simd,
            "rescale_max bounds s={s} {}",
            table.path
        );
        assert_eq!(
            sc_ref
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect::<Vec<_>>(),
            sc_simd
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect::<Vec<_>>(),
            "rescale_max s={s} {} not bit-exact",
            table.path
        );
        let factors =
            |maxes: &[T]| -> Vec<T> { maxes.iter().map(|m| m.pow2_rescale().0).collect() };
        (scalar.rescale_apply)(&mut d_ref, &factors(&sc_ref), sp);
        (table.rescale_apply)(&mut d_simd, &factors(&sc_simd), sp);
        assert_eq!(
            d_ref
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect::<Vec<_>>(),
            d_simd
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect::<Vec<_>>(),
            "rescale_apply s={s} {} not bit-exact",
            table.path
        );

        // Root and edge integration (freqs padded with exact zeros) write
        // the scalar reference's site values bit for bit, tails included.
        let freqs = padded_vec::<T>(&vec![1.0 / s as f64; s], s, sp);
        let catw = vec![T::ONE];
        let mut site_ref = vec![T::ZERO; n];
        let mut site_simd = vec![T::ZERO; n];
        (scalar.integrate_root)(&mut site_ref, &c1, &freqs, &catw, None, s, sp, n, 0);
        (table.integrate_root)(&mut site_simd, &c1, &freqs, &catw, None, s, sp, n, 0);
        assert_eq!(
            bits(&site_simd),
            bits(&site_ref),
            "root s={s} {}",
            table.path
        );
        for child in [
            kernels::EdgeChild::Partials(&c2),
            kernels::EdgeChild::States(s2),
        ] {
            kernels::integrate_edge(
                &mut site_ref,
                &c1,
                child,
                &m1,
                &freqs,
                &catw,
                None,
                s,
                sp,
                n,
                0,
            );
            (table.integrate_edge)(
                &mut site_simd,
                &c1,
                child,
                &m1,
                &freqs,
                &catw,
                None,
                s,
                sp,
                n,
                0,
            );
            assert_eq!(
                bits(&site_simd),
                bits(&site_ref),
                "edge s={s} {}",
                table.path
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All kernels on all host dispatch paths agree with the scalar oracle
    /// in double precision, for every supported state-count shape.
    #[test]
    fn kernels_agree_f64(
        sel in 0usize..4,
        n in 1usize..24,
        seed in proptest::collection::vec(value(false), 24 * 61),
        mseed in proptest::collection::vec(value(false), 61 * 61),
        gaps1 in states_strategy(61, 24),
        gaps2 in states_strategy(61, 24),
    ) {
        let s = STATE_COUNTS[sel];
        let c1: Vec<f64> = seed.iter().take(n * s).copied().collect();
        let c2: Vec<f64> = seed.iter().rev().take(n * s).copied().collect();
        let m1: Vec<f64> = mseed.iter().take(s * s).map(|v| v.max(1e-9)).collect();
        let m2: Vec<f64> = mseed.iter().rev().take(s * s).map(|v| v.max(1e-9)).collect();
        let s1: Vec<u32> = gaps1[..n].iter().map(|&x| if x == GAP_STATE { x } else { x % s as u32 }).collect();
        let s2: Vec<u32> = gaps2[..n].iter().map(|&x| if x == GAP_STATE { x } else { x % s as u32 }).collect();
        check_kernels::<f64>(s, &c1, &c2, &m1, &m2, &s1, &s2);
    }

    /// Same parity matrix in single precision.
    #[test]
    fn kernels_agree_f32(
        sel in 0usize..4,
        n in 1usize..24,
        seed in proptest::collection::vec(value(true), 24 * 61),
        mseed in proptest::collection::vec(value(true), 61 * 61),
        gaps1 in states_strategy(61, 24),
        gaps2 in states_strategy(61, 24),
    ) {
        let s = STATE_COUNTS[sel];
        let c1: Vec<f64> = seed.iter().take(n * s).copied().collect();
        let c2: Vec<f64> = seed.iter().rev().take(n * s).copied().collect();
        let m1: Vec<f64> = mseed.iter().take(s * s).map(|v| v.max(1e-9)).collect();
        let m2: Vec<f64> = mseed.iter().rev().take(s * s).map(|v| v.max(1e-9)).collect();
        let s1: Vec<u32> = gaps1[..n].iter().map(|&x| if x == GAP_STATE { x } else { x % s as u32 }).collect();
        let s2: Vec<u32> = gaps2[..n].iter().map(|&x| if x == GAP_STATE { x } else { x % s as u32 }).collect();
        check_kernels::<f32>(s, &c1, &c2, &m1, &m2, &s1, &s2);
    }

    /// The AVX2 4-state specializations replay the portable kernels' exact
    /// FMA chain, so nucleotide partials must match BIT-for-bit.
    #[test]
    fn avx2_nucleotide_bit_exact(
        n in 1usize..32,
        seed in proptest::collection::vec(value(false), 32 * 4),
        mseed in proptest::collection::vec(1e-6f64..1.0, 32),
    ) {
        if !avx2_available() {
            return;
        }
        let s = 4;
        let sp = 4; // f64 lanes
        let c1: Vec<f64> = seed.iter().take(n * s).copied().collect();
        let c2: Vec<f64> = seed.iter().rev().take(n * s).copied().collect();
        let m1: Vec<f64> = mseed.iter().take(16).copied().collect();
        let m2: Vec<f64> = mseed.iter().rev().take(16).copied().collect();
        let (c1, c2) = (padded_vec::<f64>(&c1, s, sp), padded_vec::<f64>(&c2, s, sp));
        let (m1, m2) = (padded_vec::<f64>(&m1, s, sp), padded_vec::<f64>(&m2, s, sp));
        let portable = <f64 as DispatchReal>::dispatch(DispatchKind::Portable);
        let avx2 = <f64 as DispatchReal>::dispatch(DispatchKind::Avx2);
        prop_assert_eq!(avx2.path, "avx2");
        let mut d_p = vec![0.0; n * sp];
        let mut d_v = vec![0.0; n * sp];
        (portable.partials_partials)(&mut d_p, &c1, &c2, &m1, &m2, s, sp);
        (avx2.partials_partials)(&mut d_v, &c1, &c2, &m1, &m2, s, sp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&d_p), bits(&d_v));
    }
}

/// Drive a complete scaled likelihood computation on one dispatch path.
fn full_likelihood(kind: DispatchKind, s: usize) -> (f64, Vec<f64>) {
    let taxa = 5;
    let n_pat = 19;
    let cats = 2;
    let config = InstanceConfig::for_tree(taxa, n_pat, s, cats);
    let details = InstanceDetails {
        implementation_name: format!("test-{kind:?}"),
        resource_name: "test".into(),
        flags: Flags::NONE,
        thread_count: 1,
    };
    let mut inst =
        CpuInstance::<f64>::with_dispatch_kind(config, Threading::Serial, kind, details).unwrap();

    let freqs: Vec<f64> = (0..s).map(|i| (i + 1) as f64).collect();
    let total: f64 = freqs.iter().sum();
    let freqs: Vec<f64> = freqs.iter().map(|x| x / total).collect();
    inst.set_state_frequencies(0, &freqs).unwrap();
    inst.set_category_weights(0, &vec![1.0 / cats as f64; cats])
        .unwrap();
    inst.set_pattern_weights(&vec![1.0; n_pat]).unwrap();

    // Deterministic row-stochastic-ish matrices per category.
    let mut m = vec![0.0; cats * s * s];
    for (i, x) in m.iter_mut().enumerate() {
        *x = 0.05 + ((i * 37 + 11) % 91) as f64 / 120.0;
    }
    for mat in [0, 1, 2, 3] {
        inst.set_transition_matrix(mat, &m).unwrap();
    }
    for tip in 0..taxa {
        let states: Vec<u32> = (0..n_pat as u32)
            .map(|p| {
                if (p + tip as u32).is_multiple_of(7) {
                    GAP_STATE
                } else {
                    (p * 3 + tip as u32) % s as u32
                }
            })
            .collect();
        inst.set_tip_states(tip, &states).unwrap();
    }
    // Caterpillar topology over the 4 internal buffers.
    let ops = [
        Operation::new(5, 0, 0, 1, 1).with_scaling(5),
        Operation::new(6, 5, 2, 2, 3).with_scaling(6),
        Operation::new(7, 6, 0, 3, 1).with_scaling(7),
        Operation::new(8, 7, 2, 4, 3).with_scaling(8),
    ];
    inst.update_partials(&ops).unwrap();
    let cum = inst.config().scale_buffer_count - 1;
    inst.reset_scale_factors(cum).unwrap();
    inst.accumulate_scale_factors(&[5, 6, 7, 8], cum).unwrap();
    let lnl = inst
        .integrate_root(
            BufferId(8),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(cum),
        )
        .unwrap();
    (lnl, inst.get_site_log_likelihoods().unwrap())
}

/// Forced-scalar and vectorized dispatch must produce the same likelihood
/// bits on an end-to-end run (partials + rescaling + accumulation +
/// integration), for both a nucleotide and a codon-sized model.
#[test]
fn full_run_differential_across_paths() {
    for s in [4, 61] {
        let (lnl_scalar, site_scalar) = full_likelihood(DispatchKind::Scalar, s);
        for kind in paths() {
            let (lnl, site) = full_likelihood(kind, s);
            assert_eq!(
                lnl.to_bits(),
                lnl_scalar.to_bits(),
                "s={s} {kind:?}: {lnl} vs scalar {lnl_scalar}"
            );
            assert_eq!(bits(&site), bits(&site_scalar), "s={s} {kind:?} sites");
        }
    }
}

/// The portable path must be available unconditionally and the instance
/// must report which path it resolved to.
#[test]
fn instance_reports_dispatch_path() {
    let config = InstanceConfig::for_tree(3, 8, 4, 1);
    let details = InstanceDetails {
        implementation_name: "test".into(),
        resource_name: "test".into(),
        flags: Flags::NONE,
        thread_count: 1,
    };
    let inst = CpuInstance::<f64>::with_dispatch_kind(
        config,
        Threading::Serial,
        DispatchKind::Scalar,
        details,
    )
    .unwrap();
    assert_eq!(inst.dispatch_path(), "scalar");
}

/// Factor-pass inputs for one precision: signed zeros, negatives, NaNs,
/// infinities, the smallest and largest subnormals, `MIN_POSITIVE`, `MAX`,
/// and every normal power of two with its neighbours just under and over.
macro_rules! factor_cases {
    ($t:ty, $bits:ty) => {{
        let largest_subnormal = <$t>::MIN_POSITIVE.next_down();
        let mut v: Vec<$t> = vec![
            0.0,
            -0.0,
            -1.5,
            -<$t>::MIN_POSITIVE,
            -<$t>::MAX,
            <$t>::NAN,
            -<$t>::NAN,
            <$t>::from_bits(<$t>::NAN.to_bits() | 1),
            <$t>::INFINITY,
            <$t>::NEG_INFINITY,
            <$t>::from_bits(1),
            -<$t>::from_bits(1),
            largest_subnormal,
            <$t>::MIN_POSITIVE,
            <$t>::MAX,
            0.75,
            1e-30,
        ];
        // Every normal power of two: every exponent, so every `E·ln 2`
        // rounding case, including those an `f32` product would get wrong,
        // and both edges of the rescale window `[2^-W, 2^(W+1))` with a
        // neighbour on each side.
        for biased in 1..2 * <$t>::MAX_EXP - 1 {
            let p = <$t>::from_bits((biased as $bits) << (<$t>::MANTISSA_DIGITS - 1));
            v.extend([p.next_down(), p, p.next_up()]);
        }
        v
    }};
}

/// `rescale_factors` on `maxes`, as every table hands it out, against
/// `Real::pow2_rescale` per value: factor bits and `E·ln 2` bits (formed
/// in `f64`, then narrowed). Every length 0–9 starts at every case, so each
/// case passes through every vector lane and every scalar tail.
fn assert_factors_match_pow2_rescale<T: DispatchReal>(cases: &[T]) {
    let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
    for kind in paths() {
        let table = T::dispatch(kind);
        for len in 0..=9 {
            for start in 0..cases.len() {
                let maxes: Vec<T> = (0..len).map(|i| cases[(start + i) % cases.len()]).collect();
                let (expect_factors, expect_logs): (Vec<T>, Vec<T>) = maxes
                    .iter()
                    .map(|m| {
                        let (f, e) = m.pow2_rescale();
                        (f, T::from_f64(f64::from(e) * std::f64::consts::LN_2))
                    })
                    .unzip();
                let mut logs = maxes.clone();
                let mut factors = vec![T::from_f64(7.0); len];
                (table.rescale_factors)(&mut logs, &mut factors);
                let what = || {
                    let precision = std::any::type_name::<T>();
                    format!("{precision} {} len {len} from case {start}", table.path)
                };
                assert_eq!(bits(&factors), bits(&expect_factors), "factors {}", what());
                assert_eq!(bits(&logs), bits(&expect_logs), "log factors {}", what());
            }
        }
    }
}

/// Every table's `rescale_factors` (scalar, portable, avx2 × f32/f64) is
/// `Real::pow2_rescale` bit for bit, edge values and vector tails included.
#[test]
fn rescale_factors_match_pow2_rescale_on_every_table() {
    assert_factors_match_pow2_rescale::<f64>(&factor_cases!(f64, u64));
    assert_factors_match_pow2_rescale::<f32>(&factor_cases!(f32, u32));
}
