//! Rescale bounds: proof that a scaled operation's rescale check would
//! rescale nothing, so the CPU instance can skip it.
//!
//! For every partials buffer the instance keeps, per rate category, a lower
//! bound of every pattern's state maximum, and one upper bound of every
//! entry. Tip states give (1, 1). An operation derives its destination's
//! bounds from its children's and from its matrices' [`MatrixBounds`]:
//!
//! ```text
//! lo_c = min(minP1_c, 1) · min(minP2_c, 1) · lo1_c · lo2_c · (1 - margin)
//! hi   = max(rowSum1, 1) · max(rowSum2, 1) · hi1 · hi2 · (1 + margin)
//! ```
//!
//! Every entry of a category block is a product of two sums of
//! non-negative terms, one of which is a matrix entry times the child's
//! pattern maximum (a compact tip reads one matrix entry, or 1 for a gap),
//! so it is at least the lower bound; the sums are at most a row sum times
//! the child's largest entry. `margin` covers the kernels' rounding in the
//! instance's precision. When the best category's `lo` is at least `2^-W`
//! and `hi` is below `2^(W+1)`, every pattern maximum lies inside the
//! rescale window (see `Real::pow2_rescale`): the check would rescale
//! nothing, and skipping it gives the same bits. A check that runs replaces
//! the derived bounds with the exact ones its max sweep saw.
//!
//! A bound is known only while every input is: a buffer the client wrote
//! with `set_partials` / `set_tip_partials`, or one derived from it or from
//! a matrix without bounds, has none (`lo` 0, `hi` ∞) until a check on
//! known inputs measures it again. Known bounds also imply the buffer is
//! non-negative and below `2^(W+1)`, which the derivation relies on.

use beagle_core::buffers::MatrixBounds;
use beagle_core::real::Real;
use beagle_core::Operation;

/// The rescale bounds of every partials buffer of one instance.
pub(crate) struct RescaleBounds {
    categories: usize,
    /// `lo[b * categories + c]`; 0 when unknown.
    lo: Vec<f64>,
    /// `hi[b]`; `∞` when unknown.
    hi: Vec<f64>,
}

/// What [`RescaleBounds::derive`] concluded about one operation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Derived {
    /// Every pattern maximum of the destination provably lies inside the
    /// rescale window.
    pub skip: bool,
    /// The children and matrices have bounds, so the destination is
    /// non-negative and a check's exact sweep may set its bounds.
    pub known: bool,
}

impl RescaleBounds {
    /// Bounds for `buffers` partials buffers of `categories` categories,
    /// all unknown.
    pub fn new(buffers: usize, categories: usize) -> Self {
        Self {
            categories,
            lo: vec![0.0; buffers * categories],
            hi: vec![f64::INFINITY; buffers],
        }
    }

    fn lo_of(&mut self, buffer: usize) -> &mut [f64] {
        &mut self.lo[buffer * self.categories..(buffer + 1) * self.categories]
    }

    /// Buffer `buffer` holds data the bounds know nothing about.
    pub fn forget(&mut self, buffer: usize) {
        self.lo_of(buffer).fill(0.0);
        self.hi[buffer] = f64::INFINITY;
    }

    /// Buffer `buffer` holds compact tip states: every pattern maximum and
    /// every entry is 1.
    pub fn set_tip(&mut self, buffer: usize) {
        self.lo_of(buffer).fill(1.0);
        self.hi[buffer] = 1.0;
    }

    /// Derive the bounds of `op`'s destination from its children and
    /// matrices, store them, and say whether its check may be skipped. `s`
    /// is the state count, which sets the rounding margin.
    pub fn derive<T: Real>(
        &mut self,
        op: &Operation,
        matrices: &MatrixBounds,
        s: usize,
    ) -> Derived {
        let (c1, c2, m1, m2) = (op.child1, op.child2, op.child1_matrix, op.child2_matrix);
        let (h1, h2) = (self.hi[c1], self.hi[c2]);
        let (r1, r2) = (matrices.row_sum(m1), matrices.row_sum(m2));
        let dest = op.destination;
        if !(h1.is_finite() && h2.is_finite() && r1.is_finite() && r2.is_finite()) {
            self.forget(dest);
            return Derived {
                skip: false,
                known: false,
            };
        }
        // Each sum has at most `s` terms and its products round once:
        // `(4s + 8)` units of `T::EPSILON` cover both sums, the final
        // product and the `f64` arithmetic here, with room to spare.
        let margin = (4 * s + 8) as f64 * T::EPSILON.to_f64();
        let tiny = T::MIN_POSITIVE.to_f64();
        let (low_edge, high_edge) = window::<T>();
        // Below the smallest normal value a rounding error is no longer
        // relative; a factor that small proves nothing.
        let factor_hi = |r: f64, h: f64| (r.max(1.0) * h).max(tiny);
        let hi = factor_hi(r1, h1) * factor_hi(r2, h2) * (1.0 + margin);
        let mut best = 0.0f64;
        for c in 0..self.categories {
            let f1 = matrices.min(m1, c).min(1.0) * self.lo[c1 * self.categories + c];
            let f2 = matrices.min(m2, c).min(1.0) * self.lo[c2 * self.categories + c];
            let lo = f1 * f2 * (1.0 - margin);
            let lo = if f1 >= tiny && f2 >= tiny && lo >= tiny {
                lo
            } else {
                0.0
            };
            self.lo[dest * self.categories + c] = lo;
            best = best.max(lo);
        }
        self.hi[dest] = hi;
        if hi >= high_edge {
            // Too large to stay known (an `f32` entry could overflow).
            self.forget(dest);
        }
        Derived {
            skip: best >= low_edge && hi < high_edge,
            known: true,
        }
    }

    /// Start collecting `buffer`'s exact bounds from a check's sweep.
    pub fn begin_sweep(&mut self, buffer: usize) {
        self.lo_of(buffer).fill(f64::INFINITY);
        self.hi[buffer] = 0.0;
    }

    /// Fold one pattern range's sweep into `buffer`'s bounds: per category
    /// the smallest pattern maximum, and the largest entry.
    pub fn fold_sweep<T: Real>(&mut self, buffer: usize, cat_lo: &[T], hi: T) {
        for (lo, &x) in self.lo_of(buffer).iter_mut().zip(cat_lo) {
            *lo = lo.min(x.to_f64());
        }
        self.hi[buffer] = self.hi[buffer].max(hi.to_f64());
    }

    /// Close a sweep started with [`Self::begin_sweep`]: a buffer whose
    /// largest entry reached the top of the window keeps no bounds.
    pub fn end_sweep<T: Real>(&mut self, buffer: usize) {
        if self.hi[buffer] >= window::<T>().1 {
            self.forget(buffer);
        }
        for lo in self.lo_of(buffer) {
            if !lo.is_finite() {
                *lo = 0.0;
            }
        }
    }
}

/// The rescale window `[2^-W, 2^(W+1))` of precision `T`.
fn window<T: Real>() -> (f64, f64) {
    let w = T::RESCALE_WINDOW;
    (2f64.powi(-w), 2f64.powi(w + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use beagle_core::api::InstanceConfig;
    use beagle_core::buffers::InstanceBuffers;

    fn matrices(entries: &[f64]) -> InstanceBuffers<f64> {
        let config = InstanceConfig::for_tree(2, 1, 2, 1);
        let mut bufs = InstanceBuffers::<f64>::new(config).unwrap();
        for m in 0..config.matrix_buffer_count {
            bufs.set_transition_matrix(m, entries).unwrap();
        }
        bufs
    }

    #[test]
    fn tips_derive_a_skippable_parent() {
        let bufs = matrices(&[0.9, 0.1, 0.2, 0.8]);
        let mut b = RescaleBounds::new(3, 1);
        b.set_tip(0);
        b.set_tip(1);
        let d = b.derive::<f64>(&Operation::new(2, 0, 0, 1, 1), &bufs.matrix_bounds, 2);
        assert!(d.skip && d.known);
        assert!(b.lo[2] < 0.01 && b.lo[2] > 0.0099, "{}", b.lo[2]);
        assert!(b.hi[2] >= 1.0 && b.hi[2] < 1.0 + 1e-12);
    }

    #[test]
    fn unknown_inputs_make_an_unknown_parent() {
        let bufs = matrices(&[0.9, 0.1, 0.2, 0.8]);
        let mut b = RescaleBounds::new(3, 1);
        b.set_tip(0);
        let d = b.derive::<f64>(&Operation::new(2, 0, 0, 1, 1), &bufs.matrix_bounds, 2);
        assert!(!d.skip && !d.known);
        assert_eq!((b.lo[2], b.hi[2]), (0.0, f64::INFINITY));
        // A zero matrix entry has no bounds either.
        let zero = matrices(&[1.0, 0.0, 0.2, 0.8]);
        b.set_tip(1);
        let d = b.derive::<f64>(&Operation::new(2, 0, 0, 1, 1), &zero.matrix_bounds, 2);
        assert!(!d.skip && !d.known);
    }

    #[test]
    fn a_sweep_replaces_derived_bounds() {
        let mut b = RescaleBounds::new(1, 2);
        b.begin_sweep(0);
        b.fold_sweep(0, &[0.5f32, 0.25], 1.5);
        b.fold_sweep(0, &[0.125f32, f32::INFINITY], 0.75);
        b.end_sweep::<f32>(0);
        assert_eq!((b.lo.clone(), b.hi[0]), (vec![0.125, 0.25], 1.5));
        b.begin_sweep(0);
        b.fold_sweep(0, &[1.0f32, 1.0], 2f32.powi(32));
        b.end_sweep::<f32>(0);
        assert_eq!((b.lo.clone(), b.hi[0]), (vec![0.0, 0.0], f64::INFINITY));
    }
}
