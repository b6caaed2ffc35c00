//! GPU-variant partials kernels: fine-grained (pattern, state) work-items.
//!
//! Execution is structured the way the real CUDA/OpenCL kernels are
//! (Fig. 2): the grid covers `categories × group_count` work-groups; each
//! work-group covers `patterns_per_group` patterns × `states` states of one
//! category; the transition matrices of the current category are staged into
//! local memory when they fit (see [`crate::grid::plan_gpu`]); each work-item
//! computes one destination entry. The simulator runs work-groups as loops —
//! the *structure* (group/item indexing, local staging, pattern-guard for
//! padding) is preserved so the code is a faithful port target.

use beagle_core::real::Real;
use beagle_core::GAP_STATE;

use crate::dialect::{fma, BufferView, Dialect};
use crate::grid::WorkGroupPlan;

use super::Operand;

/// Arguments common to the partials kernels.
pub struct PartialsArgs<'a, T> {
    /// Destination partials buffer (full `[cat][pattern][state]` layout).
    pub dest: &'a mut [T],
    /// First child operand.
    pub c1: Operand<'a, T>,
    /// Second child operand.
    pub c2: Operand<'a, T>,
    /// Transition matrices for the child-1 branch, `[cat][s][s]`.
    pub m1: &'a [T],
    /// Transition matrices for the child-2 branch, `[cat][s][s]`.
    pub m2: &'a [T],
    /// State count.
    pub states: usize,
    /// Unique pattern count (unpadded).
    pub patterns: usize,
    /// Rate-category count.
    pub categories: usize,
    /// Work-group geometry.
    pub plan: WorkGroupPlan,
    /// Dialect FMA policy for this device.
    pub fma_enabled: bool,
}

/// Launch the GPU-variant partials kernel for dialect `D`.
pub fn partials_kernel<D: Dialect, T: Real>(args: PartialsArgs<'_, T>) {
    let PartialsArgs {
        dest,
        c1,
        c2,
        m1,
        m2,
        states: s,
        patterns,
        categories,
        plan,
        fma_enabled,
    } = args;
    let groups = plan.group_count(patterns);
    // Simulated local memory (LDS / shared memory), reused across groups the
    // way a resident work-group's allocation would be.
    let mut local_m1 = vec![T::ZERO; if plan.matrices_in_local { s * s } else { 0 }];
    let mut local_m2 = vec![T::ZERO; if plan.matrices_in_local { s * s } else { 0 }];

    for cat in 0..categories {
        // Per-category matrix views, addressed per the dialect.
        let m1_cat = BufferView::new::<D>(m1, cat * s * s, s * s);
        let m2_cat = BufferView::new::<D>(m2, cat * s * s, s * s);
        if plan.matrices_in_local {
            // Cooperative staging: in the real kernel each work-item copies
            // a strided share, then barriers.
            for k in 0..s * s {
                local_m1[k] = m1_cat.at(k);
                local_m2[k] = m2_cat.at(k);
            }
        }
        for group in 0..groups {
            let first_pattern = group * plan.patterns_per_group;
            for item in 0..plan.items_per_group {
                // Work-item decomposition: item = local_pattern * s + state.
                let pattern = first_pattern + item / s;
                let i = item % s;
                if pattern >= patterns {
                    continue; // padding guard, as in the real kernel
                }
                let base = (cat * patterns + pattern) * s;
                let sum1 = child_sum::<D, T>(
                    &c1,
                    if plan.matrices_in_local {
                        Matrix::Local(&local_m1)
                    } else {
                        Matrix::Global(m1_cat)
                    },
                    base,
                    pattern,
                    i,
                    s,
                    fma_enabled,
                );
                let sum2 = child_sum::<D, T>(
                    &c2,
                    if plan.matrices_in_local {
                        Matrix::Local(&local_m2)
                    } else {
                        Matrix::Global(m2_cat)
                    },
                    base,
                    pattern,
                    i,
                    s,
                    fma_enabled,
                );
                dest[base + i] = sum1 * sum2;
            }
        }
    }
}

/// Matrix source: staged in local memory or read from global via the dialect
/// view.
enum Matrix<'a, T> {
    Local(&'a [T]),
    Global(BufferView<'a, T>),
}

impl<'a, T: Real> Matrix<'a, T> {
    /// Row `i` as a contiguous slice — resolved ONCE per work-item so the
    /// dialect dispatch hoists out of the inner reduction loop (this is what
    /// keeps the shared-kernel abstraction cost-free; see the ablation
    /// bench).
    #[inline(always)]
    fn row(&self, i: usize, s: usize) -> &'a [T] {
        match self {
            Matrix::Local(l) => &l[i * s..(i + 1) * s],
            Matrix::Global(v) => v.slice(i * s, s),
        }
    }
}

/// One child's matrix-vector contribution for destination state `i`.
#[inline(always)]
fn child_sum<D: Dialect, T: Real>(
    child: &Operand<'_, T>,
    m: Matrix<'_, T>,
    base: usize,
    pattern: usize,
    i: usize,
    s: usize,
    fma_enabled: bool,
) -> T {
    let row = m.row(i, s);
    match child {
        Operand::Partials(p) => {
            let vals = BufferView::new::<D>(p, base, s).slice(0, s);
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
                row[st as usize]
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
    use beagle_cpu::kernels as cpu_kernels;

    fn run_case<D: Dialect>(s: usize, patterns: usize, categories: usize) -> Vec<f64> {
        let spec = catalog::quadro_p5000();
        let plan = plan_gpu(&spec, s, 8);
        let len = categories * patterns * s;
        let c1: Vec<f64> = (0..len).map(|i| 0.1 + (i % 17) as f64 * 0.05).collect();
        let c2: Vec<f64> = (0..len).map(|i| 0.2 + (i % 13) as f64 * 0.04).collect();
        let m1: Vec<f64> = (0..categories * s * s)
            .map(|i| 0.01 * (1 + i % 9) as f64)
            .collect();
        let m2: Vec<f64> = (0..categories * s * s)
            .map(|i| 0.02 * (1 + i % 7) as f64)
            .collect();
        let mut dest = vec![0.0; len];
        partials_kernel::<D, f64>(PartialsArgs {
            dest: &mut dest,
            c1: Operand::Partials(&c1),
            c2: Operand::Partials(&c2),
            m1: &m1,
            m2: &m2,
            states: s,
            patterns,
            categories,
            plan,
            fma_enabled: true,
        });
        dest
    }

    fn cpu_reference(s: usize, patterns: usize, categories: usize) -> Vec<f64> {
        let len = categories * patterns * s;
        let c1: Vec<f64> = (0..len).map(|i| 0.1 + (i % 17) as f64 * 0.05).collect();
        let c2: Vec<f64> = (0..len).map(|i| 0.2 + (i % 13) as f64 * 0.04).collect();
        let m1: Vec<f64> = (0..categories * s * s)
            .map(|i| 0.01 * (1 + i % 9) as f64)
            .collect();
        let m2: Vec<f64> = (0..categories * s * s)
            .map(|i| 0.02 * (1 + i % 7) as f64)
            .collect();
        let mut dest = vec![0.0; len];
        for cat in 0..categories {
            let r = (cat * patterns) * s..(cat + 1) * patterns * s;
            cpu_kernels::partials_partials(
                &mut dest[r.clone()],
                &c1[r.clone()],
                &c2[r],
                &m1[cat * s * s..(cat + 1) * s * s],
                &m2[cat * s * s..(cat + 1) * s * s],
                s,
                s,
            );
        }
        dest
    }

    #[test]
    fn gpu_kernel_matches_cpu_reference_nucleotide() {
        for (p, c) in [(1, 1), (63, 2), (64, 2), (65, 4), (1000, 4)] {
            let gpu = run_case::<CudaDialect>(4, p, c);
            let cpu = cpu_reference(4, p, c);
            for (a, b) in gpu.iter().zip(&cpu) {
                assert!((a - b).abs() < 1e-12, "p={p} c={c}");
            }
        }
    }

    #[test]
    fn gpu_kernel_matches_cpu_reference_codon() {
        let gpu = run_case::<CudaDialect>(61, 37, 2);
        let cpu = cpu_reference(61, 37, 2);
        for (a, b) in gpu.iter().zip(&cpu) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn cuda_and_opencl_dialects_produce_identical_results() {
        // The shared-kernel guarantee: one kernel source, two frameworks,
        // bitwise-equal output (when both use the same FMA policy).
        for s in [4usize, 20, 61] {
            let cuda = run_case::<CudaDialect>(s, 129, 2);
            let opencl = run_case::<OpenClDialect>(s, 129, 2);
            assert_eq!(cuda, opencl, "states {s}");
        }
    }

    #[test]
    fn states_operand_matches_onehot() {
        let spec = catalog::radeon_r9_nano();
        let s = 4;
        let patterns = 70;
        let plan = plan_gpu(&spec, s, 4);
        let states: Vec<u32> = (0..patterns)
            .map(|p| {
                if p % 11 == 0 {
                    GAP_STATE
                } else {
                    (p % 4) as u32
                }
            })
            .collect();
        let mut onehot = vec![0.0f64; patterns * s];
        for (p, &st) in states.iter().enumerate() {
            if st == GAP_STATE {
                onehot[p * s..(p + 1) * s].fill(1.0);
            } else {
                onehot[p * s + st as usize] = 1.0;
            }
        }
        let c2: Vec<f64> = (0..patterns * s)
            .map(|i| 0.3 + (i % 5) as f64 * 0.1)
            .collect();
        // Row-stochastic matrix: the gap shortcut (likelihood 1) only equals
        // the one-hot matrix-vector sum when rows sum to 1, as real
        // transition matrices do.
        let mut m: Vec<f64> = (0..s * s).map(|i| 0.05 * (1 + i) as f64).collect();
        for row in m.chunks_exact_mut(s) {
            let sum: f64 = row.iter().sum();
            row.iter_mut().for_each(|x| *x /= sum);
        }

        let mut d_states = vec![0.0; patterns * s];
        partials_kernel::<OpenClDialect, f64>(PartialsArgs {
            dest: &mut d_states,
            c1: Operand::States(&states),
            c2: Operand::Partials(&c2),
            m1: &m,
            m2: &m,
            states: s,
            patterns,
            categories: 1,
            plan,
            fma_enabled: true,
        });
        let mut d_onehot = vec![0.0; patterns * s];
        partials_kernel::<OpenClDialect, f64>(PartialsArgs {
            dest: &mut d_onehot,
            c1: Operand::Partials(&onehot),
            c2: Operand::Partials(&c2),
            m1: &m,
            m2: &m,
            states: s,
            patterns,
            categories: 1,
            plan,
            fma_enabled: true,
        });
        for (a, b) in d_states.iter().zip(&d_onehot) {
            assert!((a - b).abs() < 1e-13);
        }
    }
}
