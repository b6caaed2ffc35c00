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
    /// Natural logarithm.
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
                self.ln()
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

    #[test]
    fn bad_detection() {
        assert!(f64::NAN.is_bad());
        assert!(f32::INFINITY.is_bad());
        assert!(!1.0f64.is_bad());
    }
}
