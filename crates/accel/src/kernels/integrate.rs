//! Device-side likelihood integration kernels.
//!
//! §IV-F: "BEAGLE uses GPUs to parallelize other functions necessary for
//! computing the overall tree likelihood, thus minimizing data transfers…
//! integrating root and edge likelihoods, and summing site likelihoods."
//! One work-item per pattern computes the site log-likelihood. The site sum,
//! the logarithm and the reduction of the weighted logs (so that only a
//! single scalar crosses back to the host) are the ones every back-end
//! shares: [`kernels::site_sum`] with FMA on, whatever the device's
//! partials policy, [`kernels::site_log_likelihood`] and
//! [`beagle_core::real::weighted_lnl_sum`]. The dialect supplies only the
//! buffer addressing.

use beagle_core::real::Real;
use beagle_cpu::kernels;

use crate::dialect::{BufferView, Dialect};

use super::Operand;

/// Root-integration kernel: one work-item per pattern.
pub fn integrate_root_kernel<D: Dialect, T: Real>(
    site_lnl: &mut [T],
    root: &[T],
    freqs: &[T],
    cat_weights: &[T],
    cumulative_scale: Option<&[T]>,
    s: usize,
    patterns: usize,
) {
    for (pattern, out) in site_lnl[..patterns].iter_mut().enumerate() {
        let site = kernels::site_sum(&freqs[..s], cat_weights, |cat, k| {
            BufferView::new::<D>(root, (cat * patterns + pattern) * s, s).at(k)
        });
        *out = kernels::site_log_likelihood(site, cumulative_scale.map(|cs| cs[pattern]));
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
) {
    for (pattern, out) in site_lnl[..patterns].iter_mut().enumerate() {
        let site = kernels::site_sum(&freqs[..s], cat_weights, |cat, k| {
            let base = (cat * patterns + pattern) * s;
            let row = BufferView::new::<D>(matrix, cat * s * s, s * s).slice(k * s, s);
            let prop = match child {
                Operand::Partials(cp) => {
                    kernels::propagate(row, BufferView::new::<D>(cp, base, s).slice(0, s))
                }
                Operand::States(st) => kernels::tip_factor(row, st[pattern]),
            };
            BufferView::new::<D>(parent, base, s).at(k) * prop
        });
        *out = kernels::site_log_likelihood(site, cumulative_scale.map(|cs| cs[pattern]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{CudaDialect, OpenClDialect};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

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
        );
        let mut site_cpu = vec![0.0; patterns];
        kernels::integrate_root(
            &mut site_cpu,
            &root,
            &freqs,
            &catw,
            Some(&cs),
            s,
            s,
            patterns,
            0,
        );
        assert_eq!(bits(&site_gpu), bits(&site_cpu));
    }

    #[test]
    fn edge_kernel_matches_cpu_kernel() {
        let s = 4;
        let patterns = 31;
        let categories = 2;
        let len = categories * patterns * s;
        let parent: Vec<f64> = (0..len).map(|i| 0.1 + (i % 7) as f64 * 0.05).collect();
        let child: Vec<f64> = (0..len).map(|i| 0.3 - (i % 5) as f64 * 0.02).collect();
        let states: Vec<u32> = (0..patterns as u32)
            .map(|p| {
                if p % 6 == 5 {
                    beagle_core::GAP_STATE
                } else {
                    p % 4
                }
            })
            .collect();
        let matrix: Vec<f64> = (0..categories * s * s)
            .map(|i| 0.04 * (1 + i % 8) as f64)
            .collect();
        let freqs = vec![0.25; 4];
        let catw = vec![0.5, 0.5];

        for (gpu_child, cpu_child) in [
            (
                Operand::Partials(&child),
                kernels::EdgeChild::Partials(&child),
            ),
            (
                Operand::States(&states),
                kernels::EdgeChild::States(&states),
            ),
        ] {
            let mut site_gpu = vec![0.0; patterns];
            integrate_edge_kernel::<OpenClDialect, f64>(
                &mut site_gpu,
                &parent,
                gpu_child,
                &matrix,
                &freqs,
                &catw,
                None,
                s,
                patterns,
            );
            let mut site_cpu = vec![0.0; patterns];
            kernels::integrate_edge(
                &mut site_cpu,
                &parent,
                cpu_child,
                &matrix,
                &freqs,
                &catw,
                None,
                s,
                s,
                patterns,
                0,
            );
            assert_eq!(bits(&site_gpu), bits(&site_cpu));
        }
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
        integrate_root_kernel::<CudaDialect, f64>(&mut a, &root, &freqs, &catw, None, s, patterns);
        integrate_root_kernel::<OpenClDialect, f64>(
            &mut b, &root, &freqs, &catw, None, s, patterns,
        );
        assert_eq!(a, b);
    }
}
