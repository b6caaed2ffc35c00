//! x86-variant partials kernels: coarse work-items that loop over states.
//!
//! §VII-B2: "the key optimization was to have each thread of execution do
//! more work in comparison to our GPU approach… our OpenCL-x86 for DNA-based
//! inferences loops over the state space in each work-item instead of
//! computing all states concurrently… we also found that it was advantageous
//! to avoid the explicit use of the local memory address space."
//!
//! Each work-item owns one pattern and computes all its states across all
//! categories; a work-group is a block of [`crate::grid::X86_WORK_GROUP_PATTERNS`]
//! patterns. These kernels execute *for real* on host threads (one task per
//! work-group) and are wall-clock timed — the OpenCL-x86 results in the
//! paper are genuine CPU numbers, and so are ours.

use beagle_core::real::Real;
use beagle_core::GAP_STATE;

use crate::dialect::{fma, BufferView, Dialect};

use super::Operand;

/// Compute one work-group of the x86 partials kernel.
///
/// `dest_blocks[cat]` is the destination slice for this group's pattern
/// range in category `cat`; children are full buffers addressed through the
/// dialect; `p0..p1` is the group's pattern range.
#[allow(clippy::too_many_arguments)]
pub fn partials_group<D: Dialect, T: Real>(
    dest_blocks: &mut [&mut [T]],
    c1: Operand<'_, T>,
    c2: Operand<'_, T>,
    m1: &[T],
    m2: &[T],
    s: usize,
    n_pat: usize,
    p0: usize,
    p1: usize,
    fma_enabled: bool,
) {
    for (cat, dest) in dest_blocks.iter_mut().enumerate() {
        let m1c = BufferView::new::<D>(m1, cat * s * s, s * s);
        let m2c = BufferView::new::<D>(m2, cat * s * s, s * s);
        // Work-items: one per pattern in [p0, p1).
        for (lp, p) in (p0..p1).enumerate() {
            let dst = &mut dest[lp * s..(lp + 1) * s];
            // The work-item loops over destination states — the "heavier
            // workload per thread" organization.
            for (i, d) in dst.iter_mut().enumerate() {
                let sum1 = operand_sum::<T>(&c1, &m1c, cat, p, i, s, n_pat, fma_enabled);
                let sum2 = operand_sum::<T>(&c2, &m2c, cat, p, i, s, n_pat, fma_enabled);
                *d = sum1 * sum2;
            }
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn operand_sum<T: Real>(
    child: &Operand<'_, T>,
    m: &BufferView<'_, T>,
    cat: usize,
    pattern: usize,
    i: usize,
    s: usize,
    n_pat: usize,
    fma_enabled: bool,
) -> T {
    match child {
        Operand::Partials(buf) => {
            let row = m.slice(i * s, s);
            let vals = &buf[(cat * n_pat + pattern) * s..(cat * n_pat + pattern) * s + s];
            let mut acc = T::ZERO;
            for j in 0..s {
                acc = fma(fma_enabled, row[j], vals[j], acc);
            }
            acc
        }
        Operand::States(states) => {
            let st = states[pattern];
            if st == GAP_STATE {
                T::ONE
            } else {
                m.at(i * s + st as usize)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::catalog;
    use crate::dialect::{CudaDialect, OpenClDialect};
    use crate::grid::plan_gpu;
    use crate::kernels::gpu::{partials_kernel, PartialsArgs};

    /// The two hardware variants must agree exactly: same kernels, different
    /// work decomposition.
    #[test]
    fn x86_variant_matches_gpu_variant() {
        for s in [4usize, 61] {
            let patterns = 300;
            let categories = 2;
            let len = categories * patterns * s;
            let c1: Vec<f64> = (0..len).map(|i| 0.1 + (i % 19) as f64 * 0.03).collect();
            let c2: Vec<f64> = (0..len).map(|i| 0.4 - (i % 11) as f64 * 0.02).collect();
            let m1: Vec<f64> = (0..categories * s * s)
                .map(|i| 0.01 * (1 + i % 9) as f64)
                .collect();
            let m2: Vec<f64> = (0..categories * s * s)
                .map(|i| 0.015 * (1 + i % 6) as f64)
                .collect();

            // GPU variant.
            let spec = catalog::quadro_p5000();
            let mut d_gpu = vec![0.0; len];
            partials_kernel::<CudaDialect, f64>(PartialsArgs {
                dest: &mut d_gpu,
                c1: Operand::Partials(&c1),
                c2: Operand::Partials(&c2),
                m1: &m1,
                m2: &m2,
                states: s,
                patterns,
                categories,
                plan: plan_gpu(&spec, s, 8),
                fma_enabled: true,
            });

            // x86 variant, two work-groups of 256 + remainder.
            let mut d_x86 = vec![0.0; len];
            for (p0, p1) in [(0usize, 256usize), (256, 300)] {
                let mut blocks: Vec<&mut [f64]> = Vec::new();
                let mut rest = d_x86.as_mut_slice();
                let mut consumed = 0;
                for cat in 0..categories {
                    let start = (cat * patterns + p0) * s - consumed;
                    let (_skip, r) = rest.split_at_mut(start);
                    let (blk, r2) = r.split_at_mut((p1 - p0) * s);
                    blocks.push(blk);
                    rest = r2;
                    consumed = (cat * patterns + p1) * s;
                }
                partials_group::<OpenClDialect, f64>(
                    &mut blocks,
                    Operand::Partials(&c1),
                    Operand::Partials(&c2),
                    &m1,
                    &m2,
                    s,
                    patterns,
                    p0,
                    p1,
                    true,
                );
            }
            for (a, b) in d_gpu.iter().zip(&d_x86) {
                assert!((a - b).abs() < 1e-12, "states {s}");
            }
        }
    }

    #[test]
    fn states_operand_in_x86_variant() {
        let s = 4;
        let patterns = 10;
        let states: Vec<u32> = vec![0, 1, 2, 3, GAP_STATE, 0, 1, 2, 3, 0];
        let c2: Vec<f64> = (0..patterns * s)
            .map(|i| 0.2 + (i % 3) as f64 * 0.1)
            .collect();
        let m: Vec<f64> = (0..16).map(|i| 0.03 * (1 + i) as f64).collect();
        let mut dest = vec![0.0; patterns * s];
        {
            let mut blocks: Vec<&mut [f64]> = vec![dest.as_mut_slice()];
            partials_group::<OpenClDialect, f64>(
                &mut blocks,
                Operand::States(&states),
                Operand::Partials(&c2),
                &m,
                &m,
                s,
                patterns,
                0,
                patterns,
                true,
            );
        }
        // Spot check: pattern 4 (gap) must use p1 = 1.
        let mut expect = vec![0.0; s];
        beagle_cpu::kernels::states_partials(&mut expect, &[GAP_STATE], &c2[16..20], &m, &m, s, s);
        assert_eq!(&dest[16..20], expect.as_slice());
    }

    /// A work-group's pattern range goes through the shared rescale: a
    /// pattern whose max lies in the window `[2^-W, 2^(W+1))` keeps its
    /// bits and log factor `+0.0`; one outside it lands in `[1, 2)` with
    /// log factor exactly `E·ln 2`, and `partials · 2^E` gives back the
    /// original bits.
    #[test]
    fn rescale_group_normalizes() {
        use beagle_core::real::Real;
        let s = 2;
        let low = 2f64.powi(-f64::RESCALE_WINDOW);
        let high = 2f64.powi(f64::RESCALE_WINDOW + 1);
        // Pattern maxima: 0.5 (inside), 0.75 · 2^-W (just below the
        // window), 2^(W+1) (its top edge, outside) and 0.875 · 2^(W+1)
        // (just inside).
        let mut cat0 = vec![0.5, 0.1, 0.5 * low, 0.25 * low, high, 0.5, 0.5 * high, 0.25];
        let mut cat1 = vec![0.2, 0.3, 0.75 * low, 0.0, 1.0, 2.0, 0.875 * high, 0.125];
        let original = [cat0.clone(), cat1.clone()];
        let mut scale = vec![0.0; 4];
        {
            let mut blocks: Vec<&mut [f64]> = vec![&mut cat0, &mut cat1];
            beagle_cpu::kernels::rescale_patterns(&mut blocks, &mut scale, s);
        }
        let w = f64::RESCALE_WINDOW;
        assert_eq!(cat1[2], 1.5, "pattern 1's max moves into [1, 2)");
        assert_eq!(cat0[4], 1.0, "pattern 2's max moves onto 1");
        for (p, e) in [(0, 0), (1, -w - 1), (2, w + 1), (3, 0)] {
            let log_factor = f64::from(e) * std::f64::consts::LN_2;
            assert_eq!(scale[p].to_bits(), log_factor.to_bits(), "pattern {p}");
            for (got, orig) in [&cat0, &cat1].into_iter().zip(&original) {
                for k in p * s..(p + 1) * s {
                    assert_eq!((got[k] * 2f64.powi(e)).to_bits(), orig[k].to_bits());
                }
            }
        }
    }
}
