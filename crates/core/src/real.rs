//! Floating-point abstraction over the two precision modes.
//!
//! BEAGLE generates separate single- and double-precision kernels from one
//! source (via scripts at build time); in Rust the same effect is a generic
//! parameter bounded by this trait. Only the operations the kernels actually
//! need are included, so the bound stays small and everything inlines.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub};

/// A kernel-grade floating-point type: `f32` or `f64`.
pub trait Real:
    Copy
    + Send
    + Sync
    + 'static
    + PartialOrd
    + Debug
    + Display
    + Default
    + Add<Output = Self>
    + AddAssign
    + Sub<Output = Self>
    + Mul<Output = Self>
    + MulAssign
    + Div<Output = Self>
    + DivAssign
    + Neg<Output = Self>
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Number of lanes of this type in one 256-bit SIMD register (AVX2).
    /// Buffer layouts that pad each pattern's state vector pad to a
    /// multiple of this so vector inner loops are remainder-free.
    const SIMD_LANES: usize;
    /// Multiplicative identity.
    const ONE: Self;
    /// Smallest positive normal value (used by rescaling thresholds).
    const MIN_POSITIVE: Self;
    /// Distance from 1 to the next larger value (the rescale bounds'
    /// rounding margin is a multiple of it).
    const EPSILON: Self;
    /// The rescale window exponent `W`: a pattern whose maximum lies in
    /// `[2^-W, 2^(W+1))` is left as it is (see [`Real::pow2_rescale`]).
    /// 255 for `f64`, 31 for `f32`; DESIGN.md §7 gives the headroom
    /// argument for each.
    const RESCALE_WINDOW: i32;

    /// Convert from `f64` (possibly losing precision).
    fn from_f64(x: f64) -> Self;
    /// Widen to `f64`.
    fn to_f64(self) -> f64;
    /// `e^self`.
    fn exp(self) -> Self;
    /// Natural logarithm: [`ln_f64`] for both precisions (`f32` widens,
    /// takes the `f64` logarithm and narrows), so every back-end's site
    /// log-likelihoods come from one definition, never from the platform
    /// libm.
    fn ln(self) -> Self;
    /// Fused multiply-add `self * a + b`. On hardware with FMA units this is
    /// a single instruction; the accelerator model's FMA fast path maps here.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Larger of two values.
    fn max(self, other: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// True for NaN or infinity.
    fn is_bad(self) -> bool;
    /// Power-of-two rescale factor of a pattern maximum: `(2^-E, E)`.
    /// A maximum inside the window `[2^-W, 2^(W+1))`, `W` =
    /// [`Real::RESCALE_WINDOW`], needs no rescaling and gets `(1, 0)`.
    /// Outside it, `E` is the unbiased binary exponent read from the bits
    /// of `self`, so `self · 2^-E` lies in `[1, 2)`. `E` is clamped to the
    /// range whose `2^-E` is a normal number, so the factor is always
    /// finite: a subnormal maximum scales like the smallest normal one
    /// (and lands below 1). A zero, negative or non-finite `self` gets
    /// `(1, 0)`.
    fn pow2_rescale(self) -> (Self, i32);
}

macro_rules! impl_real {
    ($t:ty, $bits:ty, $int:ty, $lanes:expr, $window:expr) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const SIMD_LANES: usize = $lanes;
            const ONE: Self = 1.0;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;
            const EPSILON: Self = <$t>::EPSILON;
            const RESCALE_WINDOW: i32 = $window;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn exp(self) -> Self {
                self.exp()
            }
            #[inline(always)]
            fn ln(self) -> Self {
                ln_f64(self as f64) as $t
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self.mul_add(a, b)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                if self > other {
                    self
                } else {
                    other
                }
            }
            #[inline(always)]
            fn abs(self) -> Self {
                self.abs()
            }
            #[inline(always)]
            fn is_bad(self) -> bool {
                !self.is_finite()
            }
            #[inline(always)]
            fn pow2_rescale(self) -> (Self, i32) {
                const MANT: u32 = <$t>::MANTISSA_DIGITS - 1;
                const BIAS: $int = <$t>::MAX_EXP as $int - 1;
                let biased = ((self.to_bits() >> MANT) as $int) & (2 * BIAS + 1);
                // The field is all ones only for infinity and NaN. A select
                // rather than an early return keeps the caller's loop
                // branch-free.
                let e = if self > 0.0 && biased <= 2 * BIAS {
                    biased.clamp(1, 2 * BIAS - 1) - BIAS
                } else {
                    0
                };
                let e = if e.abs() <= $window { 0 } else { e };
                (<$t>::from_bits(((BIAS - e) as $bits) << MANT), e as i32)
            }
        }
    };
}

impl_real!(f32, u32, i32, 8, 31);
impl_real!(f64, u64, i64, 4, 255);

/// The constants of [`ln_f64`], shared with the vectorized forms of the
/// same computation (the AVX2 integration kernels in `beagle-cpu`), which
/// must run the same operations lane for lane.
pub mod ln_consts {
    /// `ln 2` split so that `k · LN2_HI` is exact for every exponent `k`.
    pub const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    /// `ln 2 − LN2_HI`.
    pub const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    /// fdlibm's `Lg1..Lg7`: the minimax series of
    /// `R(z) = (ln((1+s)/(1−s)) − 2s)/s` in `z = s²`.
    pub const LG: [f64; 7] = [
        f64::from_bits(0x3fe5_5555_5555_5593),
        f64::from_bits(0x3fd9_9999_9997_fa04),
        f64::from_bits(0x3fd2_4924_9422_9359),
        f64::from_bits(0x3fcc_71c5_1d8e_78af),
        f64::from_bits(0x3fc7_4664_96cb_03de),
        f64::from_bits(0x3fc3_9a09_d078_c69f),
        f64::from_bits(0x3fc2_f112_df3e_5244),
    ];
    /// `2^54`: subnormal inputs are scaled by it before their exponent is
    /// read.
    pub const TWO54: f64 = 18_014_398_509_481_984.0;
    /// The exponent bias, and the bias of a pre-scaled subnormal.
    pub const BIAS: f64 = 1023.0;
    /// As [`BIAS`], for an input pre-scaled by [`TWO54`].
    pub const BIAS_SUBNORMAL: f64 = 1077.0;
    /// The 52 fraction bits.
    pub const FRAC_MASK: u64 = (1 << 52) - 1;
    /// Added to the fraction, carries into bit 52 exactly when the
    /// significand is at least `0x1.6a09c…` (about √2): such an input is
    /// reduced to half its significand and one more exponent.
    pub const SQRT2_CARRY: u64 = 0x95f64 << 32;
    /// The bits of `1.0`.
    pub const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
    /// High fraction words (`fraction >> 32`) in `HX_LO..=HX_HI` take the
    /// `½f²` form of the final sum, the others the short one (fdlibm's
    /// choice, for accuracy near both ends of the reduced range).
    pub const HX_LO: u64 = 0x6147a;
    /// See [`HX_LO`].
    pub const HX_HI: u64 = 0x6b851;
}

/// The natural logarithm every back-end's integration runs, written with
/// fixed operations so that a scalar call and each lane of a vectorized
/// call give the same bits on every host.
///
/// fdlibm's `e_log.c` without its shortcuts: the exponent `k` is read from
/// the bits (as [`Real::pow2_rescale`] does), the significand is reduced to
/// `1 + f` in `[√½, √2)`, and with `s = f/(2+f)`, `ln(1+f) = f − s·(f − R)`
/// (or its `½f²` form), `R` the degree-14 polynomial [`ln_consts::LG`] in
/// `s`, evaluated in Horner form on `s⁴` as two interleaved halves. Plain
/// multiplies and adds only (no FMA), each correctly rounded. Error below
/// 1 ulp of the true value, so within 1 ulp of a correctly rounded libm.
///
/// Special values: `±0 → −∞`, negative or NaN `→` NaN (a NaN input comes
/// back as itself), `+∞ → +∞`; a subnormal is scaled by `2^54` first.
#[inline]
pub fn ln_f64(x: f64) -> f64 {
    use ln_consts::*;
    if !(x > 0.0 && x < f64::INFINITY) {
        return if x == 0.0 {
            f64::NEG_INFINITY
        } else if x < 0.0 {
            f64::NAN
        } else {
            x
        };
    }
    let (x, bias) = if x < f64::MIN_POSITIVE {
        (x * TWO54, BIAS_SUBNORMAL)
    } else {
        (x, BIAS)
    };
    let bits = x.to_bits();
    let frac = bits & FRAC_MASK;
    let carry = (frac + SQRT2_CARRY) & (1 << 52);
    let f = f64::from_bits(frac | (carry ^ ONE_BITS)) - 1.0;
    let k = ((bits >> 52) + (carry >> 52)) as f64 - bias;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let t2 = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    if (HX_LO..=HX_HI).contains(&(frac >> 32)) {
        k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
    } else {
        k * LN2_HI - ((s * (f - r) - k * LN2_LO) - f)
    }
}

/// Convert an `f64` slice into precision `T` (allocating).
pub fn narrow_slice<T: Real>(xs: &[f64]) -> Vec<T> {
    xs.iter().map(|&x| T::from_f64(x)).collect()
}

/// Convert a `T` slice back to `f64` (allocating).
pub fn widen_slice<T: Real>(xs: &[T]) -> Vec<f64> {
    xs.iter().map(|x| x.to_f64()).collect()
}

/// The log-likelihood reduction every back-end shares: `total` plus
/// `Σ_p w_p · lnL_p`, each term `widen(w) · widen(lnL)` added left to
/// right. It continues a running sum, so a caller that holds the site
/// values in pieces (a partitioned instance, a pool that integrated
/// chunks in parallel) reduces them in pattern order and gets the bits of
/// one whole-range call.
pub fn weighted_lnl_sum<T: Real>(
    total: f64,
    site_lnl: &[T],
    weights: impl IntoIterator<Item = T>,
) -> f64 {
    site_lnl
        .iter()
        .zip(weights)
        .fold(total, |sum, (&l, w)| sum + w.to_f64() * l.to_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Real>() {
        let xs = [0.0, 1.0, -2.5, 1e-4];
        let narrowed: Vec<T> = narrow_slice(&xs);
        let widened = widen_slice(&narrowed);
        for (a, b) in xs.iter().zip(&widened) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn roundtrips() {
        roundtrip::<f32>();
        roundtrip::<f64>();
    }

    #[test]
    fn mul_add_matches() {
        let x: f64 = 3.0;
        assert_eq!(Real::mul_add(x, 2.0, 1.0), 7.0);
        let y: f32 = 3.0;
        assert_eq!(Real::mul_add(y, 2.0, 1.0), 7.0);
    }

    /// Inside the window `[2^-W, 2^(W+1))` a maximum keeps factor 1;
    /// outside it, `x · 2^-E` is `x`'s significand in `[1, 2)`, exactly,
    /// for normal `x`; subnormals clamp to the smallest normal exponent.
    /// Maxima sit on both sides of each window edge.
    fn pow2_rescale_cases<T: Real>(min_exp: i32, max_exp: i32) {
        let w = T::RESCALE_WINDOW;
        let below = |x: f64| x - x * 2f64.powi(-20);
        let mut cases = vec![
            (1.0, 0),
            (1.5, 0),
            (0.375, 0),
            (2f64.powi(-w), 0),
            (below(2f64.powi(-w)), -w - 1),
            (1.5 * 2f64.powi(-w - 3), -w - 3),
            (below(2f64.powi(w + 1)), 0),
            (2f64.powi(w + 1), w + 1),
            (1.25 * 2f64.powi(w + 7), w + 7),
        ];
        cases.extend([
            (2f64.powi(min_exp), min_exp),
            (2f64.powi(max_exp - 2), max_exp - 2),
        ]);
        for (x, e) in cases {
            let t = T::from_f64(x);
            let (f, got) = t.pow2_rescale();
            assert_eq!(got, e, "exponent of {x:e}");
            assert_eq!(f.to_f64(), 2f64.powi(-e), "factor of {x:e}");
            assert_eq!((t * f).to_f64(), t.to_f64() * 2f64.powi(-e), "{x:e} · 2^-E");
            if e != 0 {
                assert!(
                    (1.0..2.0).contains(&(t * f).to_f64()),
                    "{x:e} lands in [1, 2)"
                );
            }
        }
        let smallest_normal = T::MIN_POSITIVE;
        assert_eq!(smallest_normal.pow2_rescale().1, min_exp);
        let subnormal = smallest_normal * T::from_f64(0.25);
        let (f, e) = subnormal.pow2_rescale();
        assert_eq!(e, min_exp, "subnormal clamps to the normal range");
        assert!(!f.is_bad() && (subnormal * f).to_f64() == 0.25);
        let (f, e) = T::from_f64(1.5 * 2f64.powi(max_exp)).pow2_rescale();
        assert_eq!(e, max_exp - 1, "2^-E stays normal");
        assert!(f >= T::MIN_POSITIVE);
        for x in [0.0, -0.0, -1.0, f64::INFINITY, f64::NAN] {
            let (f, e) = T::from_f64(x).pow2_rescale();
            assert_eq!((f.to_f64(), e), (1.0, 0), "{x}");
        }
    }

    #[test]
    fn pow2_rescale_reads_the_exponent() {
        assert_eq!((f32::RESCALE_WINDOW, f64::RESCALE_WINDOW), (31, 255));
        pow2_rescale_cases::<f32>(-126, 127);
        pow2_rescale_cases::<f64>(-1022, 1023);
    }

    /// Position of a finite value on the number line in ulps, so that the
    /// distance of two values is the difference of their positions.
    fn ordinal(bits: u64, sign: u64) -> i128 {
        if bits & sign != 0 {
            -((bits & !sign) as i128)
        } else {
            bits as i128
        }
    }

    /// A dense sweep over every binade, subnormals included (bit patterns
    /// a fixed odd stride apart, plus both neighbours of each power of two
    /// and of the √2 reduction threshold): within 1 ulp of libm's
    /// `f64::ln` everywhere.
    #[test]
    fn ln_is_within_one_ulp_of_libm() {
        const SIGN: u64 = 1 << 63;
        let mut xs: Vec<f64> = (1..f64::INFINITY.to_bits())
            .step_by(9_218_868_437_229)
            .map(f64::from_bits)
            .collect();
        for e in -1074..1024 {
            let p = 2f64.powi(e);
            xs.extend([p, p.next_down(), p.next_up(), p * std::f64::consts::SQRT_2]);
        }
        xs.extend([1.0, 0.9999999, 1.0000001, f64::MAX, f64::MIN_POSITIVE]);
        for &x in xs.iter().filter(|x| x.is_finite() && **x > 0.0) {
            let (got, want) = (ln_f64(x), x.ln());
            let d = (ordinal(got.to_bits(), SIGN) - ordinal(want.to_bits(), SIGN)).abs();
            assert!(d <= 1, "ln({x:e}) = {got:e}, libm {want:e}: {d} ulps");
        }
        assert!(xs.len() > 1_000_000, "{} inputs", xs.len());
        assert_eq!(Real::ln(1.0f64).to_bits(), 0.0f64.to_bits());
    }

    /// `f32` computes in `f64` and narrows: within 1 ulp of `f32::ln` on
    /// every 97th bit pattern, subnormals included.
    #[test]
    fn ln_f32_is_within_one_ulp_of_libm() {
        const SIGN: u64 = 1 << 31;
        for b in (1..f32::INFINITY.to_bits()).step_by(97) {
            let x = f32::from_bits(b);
            let (got, want) = (Real::ln(x), x.ln());
            let d =
                (ordinal(got.to_bits().into(), SIGN) - ordinal(want.to_bits().into(), SIGN)).abs();
            assert!(d <= 1, "ln({x:e}) = {got:e}, libm {want:e}: {d} ulps");
        }
    }

    /// The special values rescue relies on, in both precisions.
    #[test]
    fn ln_special_values() {
        fn check<T: Real>(min_subnormal: T) {
            let ln = |x: f64| Real::ln(T::from_f64(x)).to_f64();
            assert_eq!(ln(0.0), f64::NEG_INFINITY);
            assert_eq!(ln(-0.0), f64::NEG_INFINITY);
            assert!(ln(-1.0).is_nan());
            assert!(Real::ln(-T::MIN_POSITIVE).to_f64().is_nan());
            assert!(ln(f64::NEG_INFINITY).is_nan());
            assert!(ln(f64::NAN).is_nan());
            assert_eq!(ln(f64::INFINITY), f64::INFINITY);
            let (tiny, x) = (Real::ln(min_subnormal).to_f64(), min_subnormal.to_f64());
            assert!((tiny - x.ln()).abs() < 1e-6 * x.ln().abs(), "{tiny}");
        }
        check::<f64>(f64::from_bits(1));
        check::<f32>(f32::from_bits(1));
        assert_eq!(ln_f64(f64::from_bits(1)), f64::from_bits(1).ln());
    }

    #[test]
    fn bad_detection() {
        assert!(f64::NAN.is_bad());
        assert!(f32::INFINITY.is_bad());
        assert!(!1.0f64.is_bad());
    }
}
