//! Device-side likelihood integration kernels.
//!
//! §IV-F: "BEAGLE uses GPUs to parallelize other functions necessary for
//! computing the overall tree likelihood, thus minimizing data transfers…
//! integrating root and edge likelihoods, and summing site likelihoods."
//! One work-item per pattern computes the site likelihood; the reduction
//! of the weighted logs, so that only a single scalar crosses back to the
//! host, is the one every back-end shares
//! ([`beagle_core::real::weighted_lnl_sum`]).

use beagle_core::real::Real;
use beagle_core::GAP_STATE;

use crate::dialect::{fma, BufferView, Dialect};

use super::Operand;

/// Root-integration kernel: one work-item per pattern.
#[allow(clippy::too_many_arguments)]
pub fn integrate_root_kernel<D: Dialect, T: Real>(
    site_lnl: &mut [T],
    root: &[T],
    freqs: &[T],
    cat_weights: &[T],
    cumulative_scale: Option<&[T]>,
    s: usize,
    patterns: usize,
    fma_enabled: bool,
) {
    for pattern in 0..patterns {
        let mut site = T::ZERO;
        for (cat, &w) in cat_weights.iter().enumerate() {
            let view = BufferView::new::<D>(root, (cat * patterns + pattern) * s, s);
            let mut state_sum = T::ZERO;
            for (k, &f) in freqs.iter().enumerate() {
                state_sum = fma(fma_enabled, f, view.at(k), state_sum);
            }
            site = fma(fma_enabled, w, state_sum, site);
        }
        let mut lnl = site.ln();
        if let Some(cs) = cumulative_scale {
            lnl += cs[pattern];
        }
        site_lnl[pattern] = lnl;
    }
}

/// Edge-integration kernel: one work-item per pattern, combining parent
/// partials with a child propagated through one transition matrix.
#[allow(clippy::too_many_arguments)]
pub fn integrate_edge_kernel<D: Dialect, T: Real>(
    site_lnl: &mut [T],
    parent: &[T],
    child: Operand<'_, T>,
    matrix: &[T],
    freqs: &[T],
    cat_weights: &[T],
    cumulative_scale: Option<&[T]>,
    s: usize,
    patterns: usize,
    fma_enabled: bool,
) {
    for pattern in 0..patterns {
        let mut site = T::ZERO;
        for (cat, &w) in cat_weights.iter().enumerate() {
            let base = (cat * patterns + pattern) * s;
            let pview = BufferView::new::<D>(parent, base, s);
            let mview = BufferView::new::<D>(matrix, cat * s * s, s * s);
            let mut state_sum = T::ZERO;
            for i in 0..s {
                let prop = match child {
                    Operand::Partials(cp) => {
                        let cview = BufferView::new::<D>(cp, base, s);
                        let mut acc = T::ZERO;
                        for j in 0..s {
                            acc = fma(fma_enabled, mview.at(i * s + j), cview.at(j), acc);
                        }
                        acc
                    }
                    Operand::States(st) => {
                        let stp = st[pattern];
                        if stp == GAP_STATE {
                            T::ONE
                        } else {
                            mview.at(i * s + stp as usize)
                        }
                    }
                };
                state_sum += freqs[i] * pview.at(i) * prop;
            }
            site = fma(fma_enabled, w, state_sum, site);
        }
        let mut lnl = site.ln();
        if let Some(cs) = cumulative_scale {
            lnl += cs[pattern];
        }
        site_lnl[pattern] = lnl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{CudaDialect, OpenClDialect};
    use beagle_core::real::weighted_lnl_sum;

    #[test]
    fn root_kernel_matches_cpu_kernel() {
        let s = 4;
        let patterns = 57;
        let categories = 3;
        let root: Vec<f64> = (0..categories * patterns * s)
            .map(|i| 0.05 + (i % 29) as f64 * 0.01)
            .collect();
        let freqs = vec![0.1, 0.2, 0.3, 0.4];
        let catw = vec![0.5, 0.25, 0.25];
        let pw: Vec<f64> = (0..patterns).map(|i| 1.0 + (i % 3) as f64).collect();
        let cs: Vec<f64> = (0..patterns).map(|i| -(i as f64) * 0.01).collect();

        let mut site_gpu = vec![0.0; patterns];
        integrate_root_kernel::<CudaDialect, f64>(
            &mut site_gpu,
            &root,
            &freqs,
            &catw,
            Some(&cs),
            s,
            patterns,
            true,
        );
        let total_gpu = weighted_lnl_sum(0.0, &site_gpu, pw.iter().copied());

        let mut site_cpu = vec![0.0; patterns];
        let total_cpu = beagle_cpu::kernels::integrate_root(
            &mut site_cpu,
            &root,
            &freqs,
            &catw,
            &pw,
            Some(&cs),
            s,
            s,
            patterns,
            0,
        );
        for (a, b) in site_gpu.iter().zip(&site_cpu) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((total_gpu - total_cpu).abs() < 1e-10);
    }

    #[test]
    fn edge_kernel_matches_cpu_kernel() {
        let s = 4;
        let patterns = 31;
        let categories = 2;
        let len = categories * patterns * s;
        let parent: Vec<f64> = (0..len).map(|i| 0.1 + (i % 7) as f64 * 0.05).collect();
        let child: Vec<f64> = (0..len).map(|i| 0.3 - (i % 5) as f64 * 0.02).collect();
        let matrix: Vec<f64> = (0..categories * s * s)
            .map(|i| 0.04 * (1 + i % 8) as f64)
            .collect();
        let freqs = vec![0.25; 4];
        let catw = vec![0.5, 0.5];
        let pw = vec![1.0; patterns];

        let mut site_gpu = vec![0.0; patterns];
        integrate_edge_kernel::<OpenClDialect, f64>(
            &mut site_gpu,
            &parent,
            Operand::Partials(&child),
            &matrix,
            &freqs,
            &catw,
            None,
            s,
            patterns,
            true,
        );
        let total_gpu = weighted_lnl_sum(0.0, &site_gpu, pw.iter().copied());

        let mut site_cpu = vec![0.0; patterns];
        let total_cpu = beagle_cpu::kernels::integrate_edge(
            &mut site_cpu,
            &parent,
            beagle_cpu::kernels::EdgeChild::Partials(&child),
            &matrix,
            &freqs,
            &catw,
            &pw,
            None,
            s,
            s,
            patterns,
            0,
        );
        for (a, b) in site_gpu.iter().zip(&site_cpu) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((total_gpu - total_cpu).abs() < 1e-10);
    }

    #[test]
    fn dialects_agree_on_integration() {
        let s = 61;
        let patterns = 13;
        let root: Vec<f64> = (0..patterns * s)
            .map(|i| 0.01 + (i % 37) as f64 * 0.002)
            .collect();
        let freqs = vec![1.0 / 61.0; 61];
        let catw = vec![1.0];
        let mut a = vec![0.0; patterns];
        let mut b = vec![0.0; patterns];
        integrate_root_kernel::<CudaDialect, f64>(
            &mut a, &root, &freqs, &catw, None, s, patterns, true,
        );
        integrate_root_kernel::<OpenClDialect, f64>(
            &mut b, &root, &freqs, &catw, None, s, patterns, true,
        );
        assert_eq!(a, b);
    }
}
