//! Runtime-dispatched SIMD kernel layer.
//!
//! The CPU instance picks one [`KernelDispatch`] table at creation time and
//! calls every hot kernel through it. Three tables exist per precision:
//!
//! * **scalar** — the generic kernels in [`crate::kernels`], used for
//!   non-vectorized instances and instances pinned to it
//!   (`Flags::KERNEL_SCALAR`);
//! * **portable** — the unrolled 4-state kernels in [`crate::vector`] where
//!   applicable (generic kernels otherwise), used when the instance asked
//!   for vectorization but the host lacks AVX2+FMA (or isn't x86-64);
//! * **avx2** — explicit `std::arch` AVX2+FMA intrinsics (`f64`×4 /
//!   `f32`×8), selected when `is_x86_feature_detected!` confirms support.
//!
//! The AVX2 kernels rely on the padded buffer layout (see
//! `beagle_core::buffers`): each pattern's state vector and each matrix row
//! occupy `sp` lanes where `sp` is the state count rounded up to
//! [`Real::SIMD_LANES`], with pad lanes holding exact zeros, so every
//! vector loop runs remainder-free over the full stride.
//!
//! Wide state counts (s=20 amino acid, s=61 codon) use the outer-product
//! form ([`WideKernels`]): each child matrix is transposed once, so that
//! row `j` of the tile is column `j` of the matrix, and a destination
//! vector is built by broadcasting child state `j` and FMA-ing tile row `j`
//! into it for `j = 0, 1, …, s-1`. No horizontal sum is left, and every
//! destination lane sees exactly the scalar kernel's `sum = fma(m[i][j],
//! c[j], sum)` sequence, so the wide AVX2 partials equal
//! [`kernels::partials_partials`] / [`kernels::states_partials`] bit for
//! bit.

use beagle_core::real::Real;

use crate::kernels::{self, EdgeChild, RescaleMaxFn};
use crate::vector;

/// Which kernel table an instance resolved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// Generic scalar kernels only.
    Scalar,
    /// Portable unrolled kernels (compiler-vectorized), no intrinsics.
    Portable,
    /// Explicit AVX2+FMA intrinsic kernels.
    Avx2,
}

type PpFn<T> = fn(&mut [T], &[T], &[T], &[T], &[T], usize, usize);
type SpFn<T> = fn(&mut [T], &[u32], &[T], &[T], &[T], usize, usize);
type SsFn<T> = fn(&mut [T], &[u32], &[u32], &[T], &[T], usize, usize);
type RescaleFactorsFn<T> = fn(&mut [T], &mut [T]);
type RescaleApplyFn<T> = fn(&mut [T], &[T], usize);
#[allow(clippy::type_complexity)]
type RootFn<T> =
    fn(&mut [T], &[T], &[T], &[T], &[T], Option<&[T]>, usize, usize, usize, usize) -> f64;
#[allow(clippy::type_complexity)]
type EdgeFn<T> = fn(
    &mut [T],
    &[T],
    EdgeChild<'_, T>,
    &[T],
    &[T],
    &[T],
    &[T],
    Option<&[T]>,
    usize,
    usize,
    usize,
    usize,
) -> f64;

/// One resolved kernel table: every hot-path kernel as a plain fn pointer,
/// chosen once at instance creation so the per-operation dispatch cost is a
/// single indirect call.
pub struct KernelDispatch<T: Real> {
    /// Human-readable path name ("scalar" / "portable" / "avx2").
    pub path: &'static str,
    /// partials × partials kernel.
    pub partials_partials: PpFn<T>,
    /// states × partials kernel.
    pub states_partials: SpFn<T>,
    /// states × states kernel.
    pub states_states: SsFn<T>,
    /// Per-block max pass of rescaling; returns the smallest and largest
    /// pattern maximum of the block.
    pub rescale_max: RescaleMaxFn<T>,
    /// Factor pass of rescaling over a tile of per-pattern maxima: the
    /// power-of-two factor of each maximum, read from its exponent bits,
    /// and its log factor in place of the maximum. Bit for bit
    /// [`kernels::rescale_factors`], the scalar entry.
    pub rescale_factors: RescaleFactorsFn<T>,
    /// Per-block scale pass of rescaling: multiplies each pattern by its
    /// power-of-two factor from `rescale_factors` (no division, exact).
    pub rescale_apply: RescaleApplyFn<T>,
    /// Root integration over a pattern range.
    pub integrate_root: RootFn<T>,
    /// Edge integration over a pattern range.
    pub integrate_edge: EdgeFn<T>,
    /// Partials kernels over transposed child matrices, for state counts
    /// other than 4; `None` when the row-major entries above are the
    /// table's only form.
    pub wide: Option<WideKernels<T>>,
}

/// The outer-product partials kernels of a table. They take the same
/// arguments as [`KernelDispatch::partials_partials`] and
/// [`KernelDispatch::states_partials`], except that each matrix argument is
/// the category's child matrix transposed by [`transpose_matrix`], and
/// they return the same bits. They also write the destination's pad lanes
/// (zero for finite children). The CPU instance transposes each child
/// matrix once per operation and category, and every chunk of the
/// operation reads the same tiles.
#[derive(Clone, Copy)]
pub struct WideKernels<T: Real> {
    /// partials × partials over transposed matrices.
    pub partials_partials: PpFn<T>,
    /// states × partials over transposed matrices: the tip child's factor
    /// for state `k` is row `k` of its tile.
    pub states_partials: SpFn<T>,
}

/// Transpose one category's `s × s` matrix (row stride `sp`) into `cols`:
/// `cols[j*sp + i] = m[i*sp + j]` for `i, j < s`, and zero in the pad lanes
/// `s <= i < sp`. Row `j` of the result is column `j` of `m`, the layout
/// [`WideKernels`] reads. Writes `cols[..s*sp]`.
pub fn transpose_matrix<T: Real>(m: &[T], cols: &mut [T], s: usize, sp: usize) {
    let m = &m[..s * sp];
    for (j, col) in cols[..s * sp].chunks_exact_mut(sp).enumerate() {
        let (live, pad) = col.split_at_mut(s);
        for (c, row) in live.iter_mut().zip(m.chunks_exact(sp)) {
            *c = row[j];
        }
        pad.fill(T::ZERO);
    }
}

/// Largest padded state count whose matrices the row-major AVX2 entries
/// transpose into stack tiles (32 KiB each in `f64`).
#[cfg(target_arch = "x86_64")]
const STACK_TILE_STRIDE: usize = 64;

/// Run `kernel` on `m1` and `m2` transposed into stack tiles: the row-major
/// AVX2 entries for one-off callers, which pay the transposition per call.
/// False (and `kernel` not run) when `sp` exceeds [`STACK_TILE_STRIDE`].
#[cfg(target_arch = "x86_64")]
fn on_stack_tiles<T: Real>(
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
    kernel: impl FnOnce(&[T], &[T]),
) -> bool {
    if sp > STACK_TILE_STRIDE {
        return false;
    }
    let mut t1 = [T::ZERO; STACK_TILE_STRIDE * STACK_TILE_STRIDE];
    let mut t2 = [T::ZERO; STACK_TILE_STRIDE * STACK_TILE_STRIDE];
    transpose_matrix(m1, &mut t1, s, sp);
    transpose_matrix(m2, &mut t2, s, sp);
    kernel(&t1[..s * sp], &t2[..s * sp]);
    true
}

/// A [`Real`] that can resolve a kernel table — implemented for `f32`/`f64`.
pub trait DispatchReal: Real {
    /// The kernel table for `kind`. On hosts where AVX2+FMA is unavailable
    /// the `Avx2` request degrades to the portable table, so the returned
    /// table is always safe to call.
    fn dispatch(kind: DispatchKind) -> &'static KernelDispatch<Self>;
}

/// True when the host supports the AVX2+FMA kernel set. The accelerator
/// back-end also consults this so its OpenCL-x86 FMA fast path never claims
/// units the host does not have.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolve the dispatch kind for an instance. Called once at instance
/// creation.
pub fn select_kind(vectorized: bool) -> DispatchKind {
    select_kind_with(vectorized, false)
}

/// Like [`select_kind`], but with a typed scalar request from the client
/// (`Flags::KERNEL_SCALAR` via `InstanceSpec::force_scalar`), which wins
/// over the hardware-detected default.
pub fn select_kind_with(vectorized: bool, typed_scalar: bool) -> DispatchKind {
    if !vectorized || typed_scalar {
        DispatchKind::Scalar
    } else if avx2_available() {
        DispatchKind::Avx2
    } else {
        DispatchKind::Portable
    }
}

// ---------------------------------------------------------------------------
// Portable table entries: unrolled 4-state kernels where they exist.
// ---------------------------------------------------------------------------

fn pp_portable<T: Real>(
    dest: &mut [T],
    c1: &[T],
    c2: &[T],
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
) {
    if s == 4 {
        vector::partials_partials_4(dest, c1, c2, m1, m2, sp);
    } else {
        kernels::partials_partials(dest, c1, c2, m1, m2, s, sp);
    }
}

fn sp_portable<T: Real>(
    dest: &mut [T],
    s1: &[u32],
    c2: &[T],
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
) {
    if s == 4 {
        vector::states_partials_4(dest, s1, c2, m1, m2, sp);
    } else {
        kernels::states_partials(dest, s1, c2, m1, m2, s, sp);
    }
}

fn ss_portable<T: Real>(
    dest: &mut [T],
    s1: &[u32],
    s2: &[u32],
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
) {
    if s == 4 {
        vector::states_states_4(dest, s1, s2, m1, m2, sp);
    } else {
        kernels::states_states(dest, s1, s2, m1, m2, s, sp);
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA intrinsic kernels (x86-64 only).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Explicit AVX2+FMA kernels. Every `unsafe` target-feature function is
    //! reached only through the safe wrappers at the bottom, which the
    //! dispatch table hands out only after `avx2_available()` confirmed the
    //! host supports the instructions.

    use std::arch::x86_64::*;

    use beagle_core::real::Real;
    use beagle_core::GAP_STATE;

    use crate::kernels::{self, EdgeChild};

    /// Destination vectors per register block of the outer-product
    /// kernels: 16 rows of `f64`, 32 of `f32`. A block over two patterns
    /// keeps 8 accumulators and the 4 tile-row loads of a step in the 16
    /// ymm registers. The kernels walk one row block at a time over all
    /// patterns, so the block's slice of both tiles stays in L1 (s × 128 B
    /// each, 7.6 KiB at s = 61) while the children stream past.
    const BLOCK_VECS: usize = 4;

    // ---- f64 helpers ----

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pd(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// Dot product of two `sp`-long buffers, `sp` a multiple of 4. Four
    /// accumulators hide FMA latency on 16-lane groups; the reduction order
    /// `(acc0+acc1)+(acc2+acc3)` is fixed so results do not depend on how
    /// the loop was peeled.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_pd(a: *const f64, b: *const f64, sp: usize) -> f64 {
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut j = 0usize;
        while j + 16 <= sp {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.add(j)), _mm256_loadu_pd(b.add(j)), acc0);
            acc1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(j + 4)),
                _mm256_loadu_pd(b.add(j + 4)),
                acc1,
            );
            acc2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(j + 8)),
                _mm256_loadu_pd(b.add(j + 8)),
                acc2,
            );
            acc3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(a.add(j + 12)),
                _mm256_loadu_pd(b.add(j + 12)),
                acc3,
            );
            j += 16;
        }
        while j < sp {
            acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a.add(j)), _mm256_loadu_pd(b.add(j)), acc0);
            j += 4;
        }
        hsum_pd(_mm256_add_pd(
            _mm256_add_pd(acc0, acc1),
            _mm256_add_pd(acc2, acc3),
        ))
    }

    /// Column `j` of a 4-row matrix with row stride `sp`, as one vector.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn col_pd(m: *const f64, sp: usize, j: usize) -> __m256d {
        _mm256_set_pd(
            *m.add(3 * sp + j),
            *m.add(2 * sp + j),
            *m.add(sp + j),
            *m.add(j),
        )
    }

    // ---- f64 kernels ----

    /// Nucleotide partials×partials: matrices transposed to columns once
    /// per block, then one broadcast-FMA chain per child per pattern. The
    /// per-lane operation sequence `fma(m3,a3, fma(m2,a2, fma(m1,a1,
    /// m0*a0)))` is identical to the portable unrolled kernel, so the two
    /// paths agree bit for bit.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA. Matrix lengths are checked here.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn pp4_pd(dest: &mut [f64], c1: &[f64], c2: &[f64], m1: &[f64], m2: &[f64]) {
        assert!(
            m1.len() >= 16 && m2.len() >= 16,
            "4-state kernel: matrices shorter than 4 rows of 4"
        );
        let m1p = m1.as_ptr();
        let m2p = m2.as_ptr();
        let (m10, m11, m12, m13) = (
            col_pd(m1p, 4, 0),
            col_pd(m1p, 4, 1),
            col_pd(m1p, 4, 2),
            col_pd(m1p, 4, 3),
        );
        let (m20, m21, m22, m23) = (
            col_pd(m2p, 4, 0),
            col_pd(m2p, 4, 1),
            col_pd(m2p, 4, 2),
            col_pd(m2p, 4, 3),
        );
        for ((d, a), b) in dest
            .chunks_exact_mut(4)
            .zip(c1.chunks_exact(4))
            .zip(c2.chunks_exact(4))
        {
            let mut s1 = _mm256_mul_pd(m10, _mm256_set1_pd(a[0]));
            s1 = _mm256_fmadd_pd(m11, _mm256_set1_pd(a[1]), s1);
            s1 = _mm256_fmadd_pd(m12, _mm256_set1_pd(a[2]), s1);
            s1 = _mm256_fmadd_pd(m13, _mm256_set1_pd(a[3]), s1);
            let mut s2 = _mm256_mul_pd(m20, _mm256_set1_pd(b[0]));
            s2 = _mm256_fmadd_pd(m21, _mm256_set1_pd(b[1]), s2);
            s2 = _mm256_fmadd_pd(m22, _mm256_set1_pd(b[2]), s2);
            s2 = _mm256_fmadd_pd(m23, _mm256_set1_pd(b[3]), s2);
            _mm256_storeu_pd(d.as_mut_ptr(), _mm256_mul_pd(s1, s2));
        }
    }

    /// Nucleotide states×partials: the tip child selects one matrix column
    /// (or all-ones for a gap) per pattern; the partials child runs the same
    /// broadcast-FMA chain as `pp4_pd`.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA. Matrix lengths and states are
    /// checked here.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sp4_pd(dest: &mut [f64], s1: &[u32], c2: &[f64], m1: &[f64], m2: &[f64]) {
        assert!(
            m1.len() >= 16 && m2.len() >= 16,
            "4-state kernel: matrices shorter than 4 rows of 4"
        );
        let m2p = m2.as_ptr();
        let (m20, m21, m22, m23) = (
            col_pd(m2p, 4, 0),
            col_pd(m2p, 4, 1),
            col_pd(m2p, 4, 2),
            col_pd(m2p, 4, 3),
        );
        let ones = _mm256_set1_pd(1.0);
        for ((d, &st), b) in dest
            .chunks_exact_mut(4)
            .zip(s1.iter())
            .zip(c2.chunks_exact(4))
        {
            let mut s2 = _mm256_mul_pd(m20, _mm256_set1_pd(b[0]));
            s2 = _mm256_fmadd_pd(m21, _mm256_set1_pd(b[1]), s2);
            s2 = _mm256_fmadd_pd(m22, _mm256_set1_pd(b[2]), s2);
            s2 = _mm256_fmadd_pd(m23, _mm256_set1_pd(b[3]), s2);
            let p1 = if st == GAP_STATE {
                ones
            } else {
                assert!(st < 4, "4-state kernel: state {st} out of range");
                col_pd(m1.as_ptr(), 4, st as usize)
            };
            _mm256_storeu_pd(d.as_mut_ptr(), _mm256_mul_pd(p1, s2));
        }
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hmax_pd(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd(v, 1);
        let m = _mm_max_pd(lo, hi);
        _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)))
    }

    /// Lane-wise max over one pattern's padded state vector (`sp` a
    /// multiple of 4), before the horizontal step of `hmax_pd`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn lanes_max_pd(q: *const f64, sp: usize) -> __m256d {
        let mut v = _mm256_loadu_pd(q);
        let mut j = 4;
        while j < sp {
            v = _mm256_max_pd(v, _mm256_loadu_pd(q.add(j)));
            j += 4;
        }
        v
    }

    /// `maxes[p] = max(block max of p, maxes[p])` with no data-dependent
    /// branch: `_mm_max_sd(m, mx)` returns `mx` unless `m > mx`, the same
    /// choice as `if m > *mx { *mx = m }`. Four patterns go at once: two
    /// shuffle rounds lay the four `hmax_pd` reductions side by side with
    /// the same operand order (low half first, then even lane first), so
    /// every maximum is the one `hmax_pd` picks, NaN and signed zeros
    /// included. Pad lanes are zero, so each maximum is already >= 0 like
    /// the scalar pass's zero-initialised running max. Returns the smallest
    /// and largest of the block's pattern maxima, as the scalar pass does.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rescale_max_pd(block: &[f64], maxes: &mut [f64], sp: usize) -> (f64, f64) {
        let n = maxes.len().min(block.len() / sp);
        let q = block.as_ptr();
        let mx = maxes.as_mut_ptr();
        let (mut lo, mut hi) = (_mm256_set1_pd(f64::INFINITY), _mm256_setzero_pd());
        let mut p = 0;
        while p + 4 <= n {
            let a = lanes_max_pd(q.add(p * sp), sp);
            let b = lanes_max_pd(q.add((p + 1) * sp), sp);
            let c = lanes_max_pd(q.add((p + 2) * sp), sp);
            let d = lanes_max_pd(q.add((p + 3) * sp), sp);
            // [max(x0,x2), max(x1,x3)] per pattern: a and c, then b and d.
            let ac = _mm256_max_pd(
                _mm256_permute2f128_pd(a, c, 0x20),
                _mm256_permute2f128_pd(a, c, 0x31),
            );
            let bd = _mm256_max_pd(
                _mm256_permute2f128_pd(b, d, 0x20),
                _mm256_permute2f128_pd(b, d, 0x31),
            );
            // Even against odd lane: one maximum per pattern, in order.
            let m = _mm256_max_pd(_mm256_unpacklo_pd(ac, bd), _mm256_unpackhi_pd(ac, bd));
            _mm256_storeu_pd(mx.add(p), _mm256_max_pd(m, _mm256_loadu_pd(mx.add(p))));
            lo = _mm256_min_pd(m, lo);
            hi = _mm256_max_pd(m, hi);
            p += 4;
        }
        let mut lanes = [0.0; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
        let mut lo = lanes[..4].iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let mut hi = lanes[4..].iter().fold(0.0, |a: f64, &b| a.max(b));
        for p in p..n {
            let m = hmax_pd(lanes_max_pd(q.add(p * sp), sp));
            *mx.add(p) = _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(m), _mm_set_sd(*mx.add(p))));
            lo = lo.min(m);
            hi = hi.max(m);
        }
        (lo, hi)
    }

    /// `kernels::rescale_factors` four patterns at once, bit for bit. The
    /// biased exponent is bits 20..31 of each lane's high dword, gathered
    /// into four `i32`s, clamped to `[1, 2045]` so `2^-E` stays normal, and
    /// unbiased to `E`. `2^-E` is built from bits in the 64-bit lanes. A
    /// maximum that is not positive and finite (zero, negative, NaN, `∞`),
    /// or whose `E` lies in the window `[-W, W]`, selects factor 1 and log
    /// factor `+0.0`, as the scalar select does.
    /// `E·ln 2` is one `f64` multiply of the exactly converted `E`.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rescale_factors_pd(maxes: &mut [f64], factors: &mut [f64]) {
        let n = maxes.len().min(factors.len());
        let (mx, fp) = (maxes.as_mut_ptr(), factors.as_mut_ptr());
        let high_dwords = _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0);
        let bias = _mm_set1_epi32(1023);
        let w = <f64 as Real>::RESCALE_WINDOW;
        let (below, above) = (_mm_set1_epi32(-w - 1), _mm_set1_epi32(w + 1));
        let (zero, inf) = (_mm256_setzero_pd(), _mm256_set1_pd(f64::INFINITY));
        let (one, ln2) = (_mm256_set1_pd(1.0), _mm256_set1_pd(std::f64::consts::LN_2));
        let mut p = 0;
        while p + 4 <= n {
            let m = _mm256_loadu_pd(mx.add(p));
            let live = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(m, zero),
                _mm256_cmp_pd::<_CMP_LT_OQ>(m, inf),
            );
            let high = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
                _mm256_castpd_si256(m),
                high_dwords,
            ));
            let biased = _mm_and_si128(_mm_srli_epi32::<20>(high), _mm_set1_epi32(0x7FF));
            let clamped = _mm_min_epi32(
                _mm_max_epi32(biased, _mm_set1_epi32(1)),
                _mm_set1_epi32(2045),
            );
            let e = _mm_sub_epi32(clamped, bias);
            // |E| <= W: inside the window, no rescale.
            let inside = _mm_and_si128(_mm_cmpgt_epi32(e, below), _mm_cmplt_epi32(e, above));
            let live = _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_cvtepi32_epi64(inside)), live);
            let bits = _mm256_slli_epi64::<52>(_mm256_cvtepi32_epi64(_mm_sub_epi32(bias, e)));
            let factor = _mm256_blendv_pd(one, _mm256_castsi256_pd(bits), live);
            let log_factor = _mm256_and_pd(live, _mm256_mul_pd(_mm256_cvtepi32_pd(e), ln2));
            _mm256_storeu_pd(fp.add(p), factor);
            _mm256_storeu_pd(mx.add(p), log_factor);
            p += 4;
        }
        kernels::rescale_factors(&mut maxes[p..n], &mut factors[p..n]);
    }

    /// Multiply each pattern's lanes by its factor `factors[p]`. At
    /// `sp == 4` four patterns share one load of their factors, and
    /// `_mm256_permute4x64_pd` hands each pattern its own lane.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rescale_apply_pd(block: &mut [f64], factors: &[f64], sp: usize) {
        let n = factors.len().min(block.len() / sp);
        let (q, f) = (block.as_mut_ptr(), factors.as_ptr());
        let mut p = 0;
        if sp == 4 {
            while p + 4 <= n {
                let r = _mm256_loadu_pd(f.add(p));
                let (x0, x1, x2, x3) = (
                    q.add(p * 4),
                    q.add(p * 4 + 4),
                    q.add(p * 4 + 8),
                    q.add(p * 4 + 12),
                );
                _mm256_storeu_pd(
                    x0,
                    _mm256_mul_pd(_mm256_loadu_pd(x0), _mm256_permute4x64_pd::<0x00>(r)),
                );
                _mm256_storeu_pd(
                    x1,
                    _mm256_mul_pd(_mm256_loadu_pd(x1), _mm256_permute4x64_pd::<0x55>(r)),
                );
                _mm256_storeu_pd(
                    x2,
                    _mm256_mul_pd(_mm256_loadu_pd(x2), _mm256_permute4x64_pd::<0xAA>(r)),
                );
                _mm256_storeu_pd(
                    x3,
                    _mm256_mul_pd(_mm256_loadu_pd(x3), _mm256_permute4x64_pd::<0xFF>(r)),
                );
                p += 4;
            }
        }
        for p in p..n {
            let r = _mm256_set1_pd(*f.add(p));
            let mut j = 0;
            while j < sp {
                let x = q.add(p * sp + j);
                _mm256_storeu_pd(x, _mm256_mul_pd(_mm256_loadu_pd(x), r));
                j += 4;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn root_pd(
        site_lnl: &mut [f64],
        root: &[f64],
        freqs: &[f64],
        cat_weights: &[f64],
        pattern_weights: &[f64],
        cumulative_scale: Option<&[f64]>,
        _s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        let mut total = 0.0;
        for lp in 0..site_lnl.len() {
            let p = p0 + lp;
            let mut site = 0.0f64;
            for (c, &w) in cat_weights.iter().enumerate() {
                let base = (c * n_pat_total + p) * sp;
                let sum = dot_pd(freqs.as_ptr(), root.as_ptr().add(base), sp);
                site = w.mul_add(sum, site);
            }
            let mut lnl = site.ln();
            if let Some(cs) = cumulative_scale {
                lnl += cs[p];
            }
            site_lnl[lp] = lnl;
            total += pattern_weights[p] * lnl;
        }
        total
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn edge_pp_pd(
        site_lnl: &mut [f64],
        parent: &[f64],
        child: &[f64],
        matrix: &[f64],
        freqs: &[f64],
        cat_weights: &[f64],
        pattern_weights: &[f64],
        cumulative_scale: Option<&[f64]>,
        s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        let mut total = 0.0;
        for lp in 0..site_lnl.len() {
            let p = p0 + lp;
            let mut site = 0.0f64;
            for (c, &w) in cat_weights.iter().enumerate() {
                let base = (c * n_pat_total + p) * sp;
                let m = matrix.as_ptr().add(c * s * sp);
                let cp = child.as_ptr().add(base);
                let mut state_sum = 0.0f64;
                for i in 0..s {
                    let prop = dot_pd(m.add(i * sp), cp, sp);
                    state_sum += freqs[i] * parent[base + i] * prop;
                }
                site = w.mul_add(state_sum, site);
            }
            let mut lnl = site.ln();
            if let Some(cs) = cumulative_scale {
                lnl += cs[p];
            }
            site_lnl[lp] = lnl;
            total += pattern_weights[p] * lnl;
        }
        total
    }

    // ---- f32 helpers ----

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_ps(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55)))
    }

    /// f32 dot over `sp` lanes, `sp` a multiple of 8.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_ps(a: *const f32, b: *const f32, sp: usize) -> f32 {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut j = 0usize;
        while j + 32 <= sp {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(j)), _mm256_loadu_ps(b.add(j)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(j + 8)),
                _mm256_loadu_ps(b.add(j + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(j + 16)),
                _mm256_loadu_ps(b.add(j + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(a.add(j + 24)),
                _mm256_loadu_ps(b.add(j + 24)),
                acc3,
            );
            j += 32;
        }
        while j < sp {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a.add(j)), _mm256_loadu_ps(b.add(j)), acc0);
            j += 8;
        }
        hsum_ps(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ))
    }

    /// Column `j` of a 4-row matrix with row stride `sp`, as one 128-bit
    /// vector (f32 nucleotide kernels only touch the first 4 lanes).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn col_ps(m: *const f32, sp: usize, j: usize) -> __m128 {
        _mm_set_ps(
            *m.add(3 * sp + j),
            *m.add(2 * sp + j),
            *m.add(sp + j),
            *m.add(j),
        )
    }

    // ---- f32 kernels ----

    /// f32 nucleotide partials×partials: 4 states live in an 8-lane padded
    /// stride; compute in 128-bit lanes and store only the live half so the
    /// pad stays zero. Same per-lane FMA chain as the portable kernel.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA. Matrix lengths are checked here.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn pp4_ps(dest: &mut [f32], c1: &[f32], c2: &[f32], m1: &[f32], m2: &[f32], sp: usize) {
        assert!(
            sp >= 4 && m1.len() >= 4 * sp && m2.len() >= 4 * sp,
            "4-state kernel: matrices shorter than 4 rows of {sp}"
        );
        let m1p = m1.as_ptr();
        let m2p = m2.as_ptr();
        let (m10, m11, m12, m13) = (
            col_ps(m1p, sp, 0),
            col_ps(m1p, sp, 1),
            col_ps(m1p, sp, 2),
            col_ps(m1p, sp, 3),
        );
        let (m20, m21, m22, m23) = (
            col_ps(m2p, sp, 0),
            col_ps(m2p, sp, 1),
            col_ps(m2p, sp, 2),
            col_ps(m2p, sp, 3),
        );
        for ((d, a), b) in dest
            .chunks_exact_mut(sp)
            .zip(c1.chunks_exact(sp))
            .zip(c2.chunks_exact(sp))
        {
            let mut s1 = _mm_mul_ps(m10, _mm_set1_ps(a[0]));
            s1 = _mm_fmadd_ps(m11, _mm_set1_ps(a[1]), s1);
            s1 = _mm_fmadd_ps(m12, _mm_set1_ps(a[2]), s1);
            s1 = _mm_fmadd_ps(m13, _mm_set1_ps(a[3]), s1);
            let mut s2 = _mm_mul_ps(m20, _mm_set1_ps(b[0]));
            s2 = _mm_fmadd_ps(m21, _mm_set1_ps(b[1]), s2);
            s2 = _mm_fmadd_ps(m22, _mm_set1_ps(b[2]), s2);
            s2 = _mm_fmadd_ps(m23, _mm_set1_ps(b[3]), s2);
            _mm_storeu_ps(d.as_mut_ptr(), _mm_mul_ps(s1, s2));
        }
    }

    /// f32 nucleotide states×partials, as `sp4_pd` in the 128-bit live half
    /// of the 8-lane stride.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA. Matrix lengths and states are
    /// checked here.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn sp4_ps(dest: &mut [f32], s1: &[u32], c2: &[f32], m1: &[f32], m2: &[f32], sp: usize) {
        assert!(
            sp >= 4 && m1.len() >= 4 * sp && m2.len() >= 4 * sp,
            "4-state kernel: matrices shorter than 4 rows of {sp}"
        );
        let m2p = m2.as_ptr();
        let (m20, m21, m22, m23) = (
            col_ps(m2p, sp, 0),
            col_ps(m2p, sp, 1),
            col_ps(m2p, sp, 2),
            col_ps(m2p, sp, 3),
        );
        let ones = _mm_set1_ps(1.0);
        for ((d, &st), b) in dest
            .chunks_exact_mut(sp)
            .zip(s1.iter())
            .zip(c2.chunks_exact(sp))
        {
            let mut s2 = _mm_mul_ps(m20, _mm_set1_ps(b[0]));
            s2 = _mm_fmadd_ps(m21, _mm_set1_ps(b[1]), s2);
            s2 = _mm_fmadd_ps(m22, _mm_set1_ps(b[2]), s2);
            s2 = _mm_fmadd_ps(m23, _mm_set1_ps(b[3]), s2);
            let p1 = if st == GAP_STATE {
                ones
            } else {
                assert!(st < 4, "4-state kernel: state {st} out of range");
                col_ps(m1.as_ptr(), sp, st as usize)
            };
            _mm_storeu_ps(d.as_mut_ptr(), _mm_mul_ps(p1, s2));
        }
    }

    /// One pattern's padded state vector (`sp` a multiple of 8) folded to
    /// four lanes: the lane-wise max over the stride, then the low half
    /// against the high half.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn lanes_max_ps(q: *const f32, sp: usize) -> __m128 {
        let mut v = _mm256_loadu_ps(q);
        let mut j = 8;
        while j < sp {
            v = _mm256_max_ps(v, _mm256_loadu_ps(q.add(j)));
            j += 8;
        }
        _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1))
    }

    /// Horizontal max of a folded vector, in lane 0: `max(max(m0,m2),
    /// max(m1,m3))`, each `max(a, b)` returning `b` unless `a > b`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hmax4_ps(m: __m128) -> __m128 {
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55))
    }

    /// Branch-free f32 max pass, as `rescale_max_pd`: four patterns at once
    /// with `hmax4_ps`'s operand order, the rest one by one.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rescale_max_ps(block: &[f32], maxes: &mut [f32], sp: usize) -> (f32, f32) {
        let n = maxes.len().min(block.len() / sp);
        let q = block.as_ptr();
        let mx = maxes.as_mut_ptr();
        let (mut lo, mut hi) = (_mm_set1_ps(f32::INFINITY), _mm_setzero_ps());
        let mut p = 0;
        while p + 4 <= n {
            let a = lanes_max_ps(q.add(p * sp), sp);
            let b = lanes_max_ps(q.add((p + 1) * sp), sp);
            let c = lanes_max_ps(q.add((p + 2) * sp), sp);
            let d = lanes_max_ps(q.add((p + 3) * sp), sp);
            // [a02, b02, a13, b13] and [c02, d02, c13, d13], where
            // x02 = max(x0, x2) and x13 = max(x1, x3).
            let ab = _mm_max_ps(_mm_unpacklo_ps(a, b), _mm_unpackhi_ps(a, b));
            let cd = _mm_max_ps(_mm_unpacklo_ps(c, d), _mm_unpackhi_ps(c, d));
            let m = _mm_max_ps(_mm_movelh_ps(ab, cd), _mm_movehl_ps(cd, ab));
            _mm_storeu_ps(mx.add(p), _mm_max_ps(m, _mm_loadu_ps(mx.add(p))));
            lo = _mm_min_ps(m, lo);
            hi = _mm_max_ps(m, hi);
            p += 4;
        }
        let mut lanes = [0.0; 8];
        _mm_storeu_ps(lanes.as_mut_ptr(), lo);
        _mm_storeu_ps(lanes.as_mut_ptr().add(4), hi);
        let mut lo = lanes[..4].iter().fold(f32::INFINITY, |a, &b| a.min(b));
        let mut hi = lanes[4..].iter().fold(0.0, |a: f32, &b| a.max(b));
        for p in p..n {
            let m = hmax4_ps(lanes_max_ps(q.add(p * sp), sp));
            *mx.add(p) = _mm_cvtss_f32(_mm_max_ss(m, _mm_set_ss(*mx.add(p))));
            let m = _mm_cvtss_f32(m);
            lo = lo.min(m);
            hi = hi.max(m);
        }
        (lo, hi)
    }

    /// `kernels::rescale_factors` eight patterns at once, bit for bit, as
    /// `rescale_factors_pd`: the biased exponent is bits 23..30, clamped to
    /// `[1, 253]`, and an `E` inside the window selects factor 1. `E·ln 2`
    /// is formed in `f64` (two halves of four) and then narrowed, the
    /// rounding the scalar reference takes; an `f32` product would round
    /// differently.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rescale_factors_ps(maxes: &mut [f32], factors: &mut [f32]) {
        let n = maxes.len().min(factors.len());
        let (mx, fp) = (maxes.as_mut_ptr(), factors.as_mut_ptr());
        let bias = _mm256_set1_epi32(127);
        let w = <f32 as Real>::RESCALE_WINDOW;
        let (below, above) = (_mm256_set1_epi32(-w - 1), _mm256_set1_epi32(w + 1));
        let (zero, inf) = (_mm256_setzero_ps(), _mm256_set1_ps(f32::INFINITY));
        let (one, ln2) = (_mm256_set1_ps(1.0), _mm256_set1_pd(std::f64::consts::LN_2));
        let mut p = 0;
        while p + 8 <= n {
            let m = _mm256_loadu_ps(mx.add(p));
            let live = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(m, zero),
                _mm256_cmp_ps::<_CMP_LT_OQ>(m, inf),
            );
            let biased = _mm256_and_si256(
                _mm256_srli_epi32::<23>(_mm256_castps_si256(m)),
                _mm256_set1_epi32(0xFF),
            );
            let clamped = _mm256_min_epi32(
                _mm256_max_epi32(biased, _mm256_set1_epi32(1)),
                _mm256_set1_epi32(253),
            );
            let e = _mm256_sub_epi32(clamped, bias);
            // |E| <= W: inside the window, no rescale.
            let inside =
                _mm256_and_si256(_mm256_cmpgt_epi32(e, below), _mm256_cmpgt_epi32(above, e));
            let live = _mm256_andnot_ps(_mm256_castsi256_ps(inside), live);
            let bits = _mm256_slli_epi32::<23>(_mm256_sub_epi32(bias, e));
            let factor = _mm256_blendv_ps(one, _mm256_castsi256_ps(bits), live);
            let lo = _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(e)), ln2);
            let hi = _mm256_mul_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(e)), ln2);
            let log_factor = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
            _mm256_storeu_ps(fp.add(p), factor);
            _mm256_storeu_ps(mx.add(p), _mm256_and_ps(live, log_factor));
            p += 8;
        }
        kernels::rescale_factors(&mut maxes[p..n], &mut factors[p..n]);
    }

    /// Multiply each pattern's lanes by its factor `factors[p]`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn rescale_apply_ps(block: &mut [f32], factors: &[f32], sp: usize) {
        for (&r, q) in factors.iter().zip(block.chunks_exact_mut(sp)) {
            let r = _mm256_set1_ps(r);
            let mut j = 0;
            while j < sp {
                let p = q.as_mut_ptr().add(j);
                _mm256_storeu_ps(p, _mm256_mul_ps(_mm256_loadu_ps(p), r));
                j += 8;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn root_ps(
        site_lnl: &mut [f32],
        root: &[f32],
        freqs: &[f32],
        cat_weights: &[f32],
        pattern_weights: &[f32],
        cumulative_scale: Option<&[f32]>,
        _s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        let mut total = 0.0f64;
        for lp in 0..site_lnl.len() {
            let p = p0 + lp;
            let mut site = 0.0f32;
            for (c, &w) in cat_weights.iter().enumerate() {
                let base = (c * n_pat_total + p) * sp;
                let sum = dot_ps(freqs.as_ptr(), root.as_ptr().add(base), sp);
                site = w.mul_add(sum, site);
            }
            let mut lnl = site.ln();
            if let Some(cs) = cumulative_scale {
                lnl += cs[p];
            }
            site_lnl[lp] = lnl;
            total += pattern_weights[p] as f64 * lnl as f64;
        }
        total
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn edge_pp_ps(
        site_lnl: &mut [f32],
        parent: &[f32],
        child: &[f32],
        matrix: &[f32],
        freqs: &[f32],
        cat_weights: &[f32],
        pattern_weights: &[f32],
        cumulative_scale: Option<&[f32]>,
        s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        let mut total = 0.0f64;
        for lp in 0..site_lnl.len() {
            let p = p0 + lp;
            let mut site = 0.0f32;
            for (c, &w) in cat_weights.iter().enumerate() {
                let base = (c * n_pat_total + p) * sp;
                let m = matrix.as_ptr().add(c * s * sp);
                let cp = child.as_ptr().add(base);
                let mut state_sum = 0.0f32;
                for i in 0..s {
                    let prop = dot_ps(m.add(i * sp), cp, sp);
                    state_sum += freqs[i] * parent[base + i] * prop;
                }
                site = w.mul_add(state_sum, site);
            }
            let mut lnl = site.ln();
            if let Some(cs) = cumulative_scale {
                lnl += cs[p];
            }
            site_lnl[lp] = lnl;
            total += pattern_weights[p] as f64 * lnl as f64;
        }
        total
    }

    // ---- outer-product wide-state kernels ----
    //
    // One body per precision, instantiated below as modules `wide_pd`
    // (`f64`, 4 lanes) and `wide_ps` (`f32`, 8 lanes). `cols`/`t1`/`t2`
    // arguments are child matrices transposed by
    // `super::transpose_matrix`: tile row `j` holds column `j` of the
    // matrix, zero past `s`.

    macro_rules! outer_product_kernels {
        (
            $m:ident, $t:ty, $v:ty, $lanes:expr,
            [$zero:ident, $set1:ident, $load:ident, $store:ident, $fma:ident, $mul:ident]
        ) => {
            pub(super) mod $m {
                use super::*;

                /// `P` patterns × `N` vectors of destination rows: for each
                /// pattern `q` at `c + q·sp` and each `j` in ascending order,
                /// broadcast `c[q][j]` and FMA tile row `j` (from `cols`, already
                /// offset to the block's first row) into accumulators that start
                /// at zero, so each lane runs the scalar kernel's FMA chain.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn sums<const P: usize, const N: usize>(
                    cols: *const $t,
                    c: *const $t,
                    s: usize,
                    sp: usize,
                ) -> [[$v; N]; P] {
                    let mut acc = [[$zero(); N]; P];
                    for j in 0..s {
                        let row = cols.add(j * sp);
                        let mut m = [$zero(); N];
                        for (v, mv) in m.iter_mut().enumerate() {
                            *mv = $load(row.add(v * $lanes));
                        }
                        for (q, aq) in acc.iter_mut().enumerate() {
                            let x = $set1(*c.add(q * sp + j));
                            for (a, &mv) in aq.iter_mut().zip(&m) {
                                *a = $fma(mv, x, *a);
                            }
                        }
                    }
                    acc
                }

                /// One register block of partials × partials: the first child's
                /// sums go to `d`, then each lane becomes `sum1 · sum2`.
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn pp_rows<const P: usize, const N: usize>(
                    d: *mut $t,
                    a: *const $t,
                    b: *const $t,
                    t1: *const $t,
                    t2: *const $t,
                    s: usize,
                    sp: usize,
                ) {
                    let x = sums::<P, N>(t1, a, s, sp);
                    for (q, xq) in x.iter().enumerate() {
                        for (v, &xv) in xq.iter().enumerate() {
                            $store(d.add(q * sp + v * $lanes), xv);
                        }
                    }
                    let y = sums::<P, N>(t2, b, s, sp);
                    for (q, yq) in y.iter().enumerate() {
                        for (v, &yv) in yq.iter().enumerate() {
                            let o = d.add(q * sp + v * $lanes);
                            $store(o, $mul($load(o), yv));
                        }
                    }
                }

                /// One register block of states × partials: the tip child's
                /// factor is row `state` of its tile (all ones for a gap).
                #[inline]
                #[target_feature(enable = "avx2", enable = "fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn sp_rows<const P: usize, const N: usize>(
                    d: *mut $t,
                    st: *const u32,
                    b: *const $t,
                    t1: *const $t,
                    t2: *const $t,
                    s: usize,
                    sp: usize,
                ) {
                    let y = sums::<P, N>(t2, b, s, sp);
                    for (q, yq) in y.iter().enumerate() {
                        let state = *st.add(q);
                        for (v, &yv) in yq.iter().enumerate() {
                            let p1 = if state == GAP_STATE {
                                $set1(1.0)
                            } else {
                                $load(t1.add(state as usize * sp + v * $lanes))
                            };
                            $store(d.add(q * sp + v * $lanes), $mul(p1, yv));
                        }
                    }
                }

                /// One row block (`N` vectors from the block's first row) over
                /// all `n` patterns, two at a time, then the odd one.
                #[target_feature(enable = "avx2", enable = "fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn pp_block<const N: usize>(
                    d: *mut $t,
                    a: *const $t,
                    b: *const $t,
                    t1: *const $t,
                    t2: *const $t,
                    s: usize,
                    sp: usize,
                    n: usize,
                ) {
                    let mut p = 0;
                    while p + 2 <= n {
                        let o = p * sp;
                        pp_rows::<2, N>(d.add(o), a.add(o), b.add(o), t1, t2, s, sp);
                        p += 2;
                    }
                    if p < n {
                        let o = p * sp;
                        pp_rows::<1, N>(d.add(o), a.add(o), b.add(o), t1, t2, s, sp);
                    }
                }

                #[target_feature(enable = "avx2", enable = "fma")]
                #[allow(clippy::too_many_arguments)]
                unsafe fn sp_block<const N: usize>(
                    d: *mut $t,
                    st: *const u32,
                    b: *const $t,
                    t1: *const $t,
                    t2: *const $t,
                    s: usize,
                    sp: usize,
                    n: usize,
                ) {
                    let mut p = 0;
                    while p + 2 <= n {
                        let o = p * sp;
                        sp_rows::<2, N>(d.add(o), st.add(p), b.add(o), t1, t2, s, sp);
                        p += 2;
                    }
                    if p < n {
                        let o = p * sp;
                        sp_rows::<1, N>(d.add(o), st.add(p), b.add(o), t1, t2, s, sp);
                    }
                }

                /// Outer-product partials × partials over transposed
                /// matrices: the table entry. Checks the bounds the kernel's
                /// pointer arithmetic relies on.
                pub(in crate::simd) fn pp(
                    dest: &mut [$t],
                    c1: &[$t],
                    c2: &[$t],
                    t1: &[$t],
                    t2: &[$t],
                    s: usize,
                    sp: usize,
                ) {
                    debug_assert!(crate::simd::avx2_available());
                    check_wide(dest, c1.len().min(c2.len()), t1, t2, None, s, sp);
                    // SAFETY: the AVX2 table, the only one holding this
                    // entry, is handed out only after AVX2+FMA detection;
                    // bounds checked above.
                    unsafe { pp_kernel(dest, c1, c2, t1, t2, s, sp) }
                }

                /// Outer-product states × partials over transposed matrices:
                /// the table entry. Checks bounds and tip states.
                pub(in crate::simd) fn sp(
                    dest: &mut [$t],
                    s1: &[u32],
                    c2: &[$t],
                    t1: &[$t],
                    t2: &[$t],
                    s: usize,
                    sp: usize,
                ) {
                    debug_assert!(crate::simd::avx2_available());
                    check_wide(dest, c2.len(), t1, t2, Some(s1), s, sp);
                    // SAFETY: as for `pp`; bounds and states checked above.
                    unsafe { sp_kernel(dest, s1, c2, t1, t2, s, sp) }
                }

                /// # Safety
                ///
                /// The host must support AVX2 and FMA, and the arguments must
                /// pass `check_wide`.
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn pp_kernel(
                    dest: &mut [$t],
                    c1: &[$t],
                    c2: &[$t],
                    t1: &[$t],
                    t2: &[$t],
                    s: usize,
                    sp: usize,
                ) {
                    let n = dest.len() / sp;
                    let (d, a, b) = (dest.as_mut_ptr(), c1.as_ptr(), c2.as_ptr());
                    let mut r = 0;
                    while r < sp {
                        let nv = ((sp - r) / $lanes).min(BLOCK_VECS);
                        let (d, t1, t2) = (d.add(r), t1.as_ptr().add(r), t2.as_ptr().add(r));
                        match nv {
                            4 => pp_block::<4>(d, a, b, t1, t2, s, sp, n),
                            3 => pp_block::<3>(d, a, b, t1, t2, s, sp, n),
                            2 => pp_block::<2>(d, a, b, t1, t2, s, sp, n),
                            _ => pp_block::<1>(d, a, b, t1, t2, s, sp, n),
                        }
                        r += nv * $lanes;
                    }
                }

                /// # Safety
                ///
                /// As for `pp_kernel`, and every state must be below `s` or
                /// [`GAP_STATE`].
                #[target_feature(enable = "avx2", enable = "fma")]
                unsafe fn sp_kernel(
                    dest: &mut [$t],
                    s1: &[u32],
                    c2: &[$t],
                    t1: &[$t],
                    t2: &[$t],
                    s: usize,
                    sp: usize,
                ) {
                    let n = dest.len() / sp;
                    let (d, st, b) = (dest.as_mut_ptr(), s1.as_ptr(), c2.as_ptr());
                    let mut r = 0;
                    while r < sp {
                        let nv = ((sp - r) / $lanes).min(BLOCK_VECS);
                        let (d, t1, t2) = (d.add(r), t1.as_ptr().add(r), t2.as_ptr().add(r));
                        match nv {
                            4 => sp_block::<4>(d, st, b, t1, t2, s, sp, n),
                            3 => sp_block::<3>(d, st, b, t1, t2, s, sp, n),
                            2 => sp_block::<2>(d, st, b, t1, t2, s, sp, n),
                            _ => sp_block::<1>(d, st, b, t1, t2, s, sp, n),
                        }
                        r += nv * $lanes;
                    }
                }
            }
        };
    }

    outer_product_kernels!(
        wide_pd,
        f64,
        __m256d,
        4,
        [
            _mm256_setzero_pd,
            _mm256_set1_pd,
            _mm256_loadu_pd,
            _mm256_storeu_pd,
            _mm256_fmadd_pd,
            _mm256_mul_pd
        ]
    );
    outer_product_kernels!(
        wide_ps,
        f32,
        __m256,
        8,
        [
            _mm256_setzero_ps,
            _mm256_set1_ps,
            _mm256_loadu_ps,
            _mm256_storeu_ps,
            _mm256_fmadd_ps,
            _mm256_mul_ps
        ]
    );

    /// The bounds the outer-product kernels' pointer arithmetic relies on:
    /// `sp` a whole number of vectors holding `s` states, whole patterns in
    /// `dest`, children (`child_len`, the shorter) at least as long, both
    /// tiles `s` rows of `sp`, and for a tip child one state below `s` or a
    /// gap per pattern.
    fn check_wide<T: Real>(
        dest: &[T],
        child_len: usize,
        t1: &[T],
        t2: &[T],
        states: Option<&[u32]>,
        s: usize,
        sp: usize,
    ) {
        assert!(
            s <= sp && sp.is_multiple_of(T::SIMD_LANES) && dest.len().is_multiple_of(sp),
            "wide kernel: s={s} sp={sp} dest={}",
            dest.len()
        );
        assert!(
            child_len >= dest.len(),
            "wide kernel: child shorter than dest"
        );
        assert!(
            t1.len() >= s * sp && t2.len() >= s * sp,
            "wide kernel: tiles shorter than s*sp"
        );
        if let Some(st) = states {
            assert!(st.len() >= dest.len() / sp, "wide kernel: too few states");
            assert!(
                st.iter().all(|&x| (x as usize) < s || x == GAP_STATE),
                "wide kernel: state out of range"
            );
        }
    }

    // ---- safe wrappers (table entries) ----
    //
    // Safety: `DispatchReal::dispatch` only returns the AVX2 table after
    // `avx2_available()` confirmed host support, so every `unsafe` call
    // below executes only on hardware with AVX2+FMA.

    pub(super) fn pp_f64(
        d: &mut [f64],
        c1: &[f64],
        c2: &[f64],
        m1: &[f64],
        m2: &[f64],
        s: usize,
        sp: usize,
    ) {
        debug_assert!(super::avx2_available());
        if s == 4 {
            // s == 4 in f64 always has stride 4 (already lane-aligned).
            assert_eq!(sp, 4);
            return unsafe { pp4_pd(d, c1, c2, m1, m2) };
        }
        if !super::on_stack_tiles(m1, m2, s, sp, |t1, t2| {
            wide_pd::pp(d, c1, c2, t1, t2, s, sp)
        }) {
            kernels::partials_partials(d, c1, c2, m1, m2, s, sp);
        }
    }
    pub(super) fn sp_f64(
        d: &mut [f64],
        s1: &[u32],
        c2: &[f64],
        m1: &[f64],
        m2: &[f64],
        s: usize,
        sp: usize,
    ) {
        debug_assert!(super::avx2_available());
        if s == 4 {
            assert_eq!(sp, 4);
            return unsafe { sp4_pd(d, s1, c2, m1, m2) };
        }
        if !super::on_stack_tiles(m1, m2, s, sp, |t1, t2| {
            wide_pd::sp(d, s1, c2, t1, t2, s, sp)
        }) {
            kernels::states_partials(d, s1, c2, m1, m2, s, sp);
        }
    }
    pub(super) fn rescale_max_f64(block: &[f64], maxes: &mut [f64], sp: usize) -> (f64, f64) {
        unsafe { rescale_max_pd(block, maxes, sp) }
    }
    pub(super) fn rescale_factors_f64(maxes: &mut [f64], factors: &mut [f64]) {
        unsafe { rescale_factors_pd(maxes, factors) }
    }
    pub(super) fn rescale_apply_f64(block: &mut [f64], factors: &[f64], sp: usize) {
        unsafe { rescale_apply_pd(block, factors, sp) }
    }
    #[allow(clippy::too_many_arguments)]
    pub(super) fn root_f64(
        site_lnl: &mut [f64],
        root: &[f64],
        freqs: &[f64],
        cat_weights: &[f64],
        pattern_weights: &[f64],
        cumulative_scale: Option<&[f64]>,
        s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        unsafe {
            root_pd(
                site_lnl,
                root,
                freqs,
                cat_weights,
                pattern_weights,
                cumulative_scale,
                s,
                sp,
                n_pat_total,
                p0,
            )
        }
    }
    #[allow(clippy::too_many_arguments)]
    pub(super) fn edge_f64(
        site_lnl: &mut [f64],
        parent: &[f64],
        child: EdgeChild<'_, f64>,
        matrix: &[f64],
        freqs: &[f64],
        cat_weights: &[f64],
        pattern_weights: &[f64],
        cumulative_scale: Option<&[f64]>,
        s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        match child {
            EdgeChild::Partials(cp) => unsafe {
                edge_pp_pd(
                    site_lnl,
                    parent,
                    cp,
                    matrix,
                    freqs,
                    cat_weights,
                    pattern_weights,
                    cumulative_scale,
                    s,
                    sp,
                    n_pat_total,
                    p0,
                )
            },
            // The states child does per-pattern matrix lookups, not dot
            // products — nothing to vectorize; use the scalar kernel.
            EdgeChild::States(_) => kernels::integrate_edge(
                site_lnl,
                parent,
                child,
                matrix,
                freqs,
                cat_weights,
                pattern_weights,
                cumulative_scale,
                s,
                sp,
                n_pat_total,
                p0,
            ),
        }
    }

    pub(super) fn pp_f32(
        d: &mut [f32],
        c1: &[f32],
        c2: &[f32],
        m1: &[f32],
        m2: &[f32],
        s: usize,
        sp: usize,
    ) {
        debug_assert!(super::avx2_available());
        if s == 4 {
            return unsafe { pp4_ps(d, c1, c2, m1, m2, sp) };
        }
        if !super::on_stack_tiles(m1, m2, s, sp, |t1, t2| {
            wide_ps::pp(d, c1, c2, t1, t2, s, sp)
        }) {
            kernels::partials_partials(d, c1, c2, m1, m2, s, sp);
        }
    }
    pub(super) fn sp_f32(
        d: &mut [f32],
        s1: &[u32],
        c2: &[f32],
        m1: &[f32],
        m2: &[f32],
        s: usize,
        sp: usize,
    ) {
        debug_assert!(super::avx2_available());
        if s == 4 {
            // SAFETY: AVX2+FMA confirmed by table selection; sp4_ps checks
            // its matrices and states.
            return unsafe { sp4_ps(d, s1, c2, m1, m2, sp) };
        }
        if !super::on_stack_tiles(m1, m2, s, sp, |t1, t2| {
            wide_ps::sp(d, s1, c2, t1, t2, s, sp)
        }) {
            kernels::states_partials(d, s1, c2, m1, m2, s, sp);
        }
    }
    pub(super) fn rescale_max_f32(block: &[f32], maxes: &mut [f32], sp: usize) -> (f32, f32) {
        unsafe { rescale_max_ps(block, maxes, sp) }
    }
    pub(super) fn rescale_factors_f32(maxes: &mut [f32], factors: &mut [f32]) {
        unsafe { rescale_factors_ps(maxes, factors) }
    }
    pub(super) fn rescale_apply_f32(block: &mut [f32], factors: &[f32], sp: usize) {
        unsafe { rescale_apply_ps(block, factors, sp) }
    }
    #[allow(clippy::too_many_arguments)]
    pub(super) fn root_f32(
        site_lnl: &mut [f32],
        root: &[f32],
        freqs: &[f32],
        cat_weights: &[f32],
        pattern_weights: &[f32],
        cumulative_scale: Option<&[f32]>,
        s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        unsafe {
            root_ps(
                site_lnl,
                root,
                freqs,
                cat_weights,
                pattern_weights,
                cumulative_scale,
                s,
                sp,
                n_pat_total,
                p0,
            )
        }
    }
    #[allow(clippy::too_many_arguments)]
    pub(super) fn edge_f32(
        site_lnl: &mut [f32],
        parent: &[f32],
        child: EdgeChild<'_, f32>,
        matrix: &[f32],
        freqs: &[f32],
        cat_weights: &[f32],
        pattern_weights: &[f32],
        cumulative_scale: Option<&[f32]>,
        s: usize,
        sp: usize,
        n_pat_total: usize,
        p0: usize,
    ) -> f64 {
        match child {
            EdgeChild::Partials(cp) => unsafe {
                edge_pp_ps(
                    site_lnl,
                    parent,
                    cp,
                    matrix,
                    freqs,
                    cat_weights,
                    pattern_weights,
                    cumulative_scale,
                    s,
                    sp,
                    n_pat_total,
                    p0,
                )
            },
            EdgeChild::States(_) => kernels::integrate_edge(
                site_lnl,
                parent,
                child,
                matrix,
                freqs,
                cat_weights,
                pattern_weights,
                cumulative_scale,
                s,
                sp,
                n_pat_total,
                p0,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Table resolution.
// ---------------------------------------------------------------------------

macro_rules! base_tables {
    ($t:ty) => {
        (
            KernelDispatch::<$t> {
                path: "scalar",
                partials_partials: kernels::partials_partials::<$t>,
                states_partials: kernels::states_partials::<$t>,
                states_states: kernels::states_states::<$t>,
                rescale_max: kernels::rescale_block_max::<$t>,
                rescale_factors: kernels::rescale_factors::<$t>,
                rescale_apply: kernels::rescale_block_apply::<$t>,
                integrate_root: kernels::integrate_root::<$t>,
                integrate_edge: kernels::integrate_edge::<$t>,
                wide: None,
            },
            KernelDispatch::<$t> {
                path: "portable",
                partials_partials: pp_portable::<$t>,
                states_partials: sp_portable::<$t>,
                states_states: ss_portable::<$t>,
                rescale_max: kernels::rescale_block_max::<$t>,
                rescale_factors: kernels::rescale_factors::<$t>,
                rescale_apply: kernels::rescale_block_apply::<$t>,
                integrate_root: kernels::integrate_root::<$t>,
                integrate_edge: kernels::integrate_edge::<$t>,
                wide: None,
            },
        )
    };
}

impl DispatchReal for f64 {
    fn dispatch(kind: DispatchKind) -> &'static KernelDispatch<f64> {
        static TABLES: (KernelDispatch<f64>, KernelDispatch<f64>) = base_tables!(f64);
        #[cfg(target_arch = "x86_64")]
        static AVX2: KernelDispatch<f64> = KernelDispatch {
            path: "avx2",
            partials_partials: avx2::pp_f64,
            states_partials: avx2::sp_f64,
            // states×states is pure matrix lookups — the unrolled portable
            // kernel is already optimal.
            states_states: ss_portable::<f64>,
            rescale_max: avx2::rescale_max_f64,
            rescale_factors: avx2::rescale_factors_f64,
            rescale_apply: avx2::rescale_apply_f64,
            integrate_root: avx2::root_f64,
            integrate_edge: avx2::edge_f64,
            wide: Some(WideKernels {
                partials_partials: avx2::wide_pd::pp,
                states_partials: avx2::wide_pd::sp,
            }),
        };
        match kind {
            DispatchKind::Scalar => &TABLES.0,
            #[cfg(target_arch = "x86_64")]
            DispatchKind::Avx2 if avx2_available() => &AVX2,
            _ => &TABLES.1,
        }
    }
}

impl DispatchReal for f32 {
    fn dispatch(kind: DispatchKind) -> &'static KernelDispatch<f32> {
        static TABLES: (KernelDispatch<f32>, KernelDispatch<f32>) = base_tables!(f32);
        #[cfg(target_arch = "x86_64")]
        static AVX2: KernelDispatch<f32> = KernelDispatch {
            path: "avx2",
            partials_partials: avx2::pp_f32,
            states_partials: avx2::sp_f32,
            states_states: ss_portable::<f32>,
            rescale_max: avx2::rescale_max_f32,
            rescale_factors: avx2::rescale_factors_f32,
            rescale_apply: avx2::rescale_apply_f32,
            integrate_root: avx2::root_f32,
            integrate_edge: avx2::edge_f32,
            wide: Some(WideKernels {
                partials_partials: avx2::wide_ps::pp,
                states_partials: avx2::wide_ps::sp,
            }),
        };
        match kind {
            DispatchKind::Scalar => &TABLES.0,
            #[cfg(target_arch = "x86_64")]
            DispatchKind::Avx2 if avx2_available() => &AVX2,
            _ => &TABLES.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beagle_core::GAP_STATE as GAP;

    /// Deterministic pseudo-random positive values in (0, 1].
    fn fill(seed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (seed.wrapping_add(i as u64).wrapping_mul(2654435761)) % 10_000;
                (x as f64 + 1.0) / 10_001.0
            })
            .collect()
    }

    fn padded(vals: &[f64], s: usize, sp: usize) -> Vec<f64> {
        let n = vals.len() / s;
        let mut out = vec![0.0; n * sp];
        for p in 0..n {
            out[p * sp..p * sp + s].copy_from_slice(&vals[p * s..(p + 1) * s]);
        }
        out
    }

    #[test]
    fn tables_have_expected_paths() {
        assert_eq!(
            <f64 as DispatchReal>::dispatch(DispatchKind::Scalar).path,
            "scalar"
        );
        assert_eq!(
            <f64 as DispatchReal>::dispatch(DispatchKind::Portable).path,
            "portable"
        );
        let avx = <f64 as DispatchReal>::dispatch(DispatchKind::Avx2);
        if avx2_available() {
            assert_eq!(avx.path, "avx2");
        } else {
            assert_eq!(avx.path, "portable");
        }
        assert_eq!(
            <f32 as DispatchReal>::dispatch(DispatchKind::Scalar).path,
            "scalar"
        );
    }

    /// The outer-product kernels run the scalar kernels' FMA chain per
    /// lane, so they must match them bit for bit: pp and sp (gaps
    /// included), through the row-major entries and over tiles transposed
    /// once, in both precisions, at state counts that fill the last
    /// register block partly or wholly, with an odd pattern count for the
    /// single-pattern tail.
    fn wide_bits_match_scalar<T: DispatchReal>() {
        let table = T::dispatch(DispatchKind::Avx2);
        let wide = table.wide.expect("avx2 table has wide kernels");
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        for s in [5usize, 20, 61, 64] {
            for n_pat in [1usize, 2, 9] {
                let sp = s.div_ceil(T::SIMD_LANES) * T::SIMD_LANES;
                let tv = |seed, n| -> Vec<T> {
                    padded(&fill(seed, n * s), s, sp)
                        .into_iter()
                        .map(T::from_f64)
                        .collect()
                };
                let (m1, m2, c1, c2) = (tv(1, s), tv(2, s), tv(3, n_pat), tv(4, n_pat));
                let mut t1 = vec![T::ZERO; s * sp];
                let mut t2 = vec![T::ZERO; s * sp];
                transpose_matrix(&m1, &mut t1, s, sp);
                transpose_matrix(&m2, &mut t2, s, sp);
                let states: Vec<u32> = (0..n_pat as u32)
                    .map(|p| if p % 3 == 1 { GAP } else { (p * 7) % s as u32 })
                    .collect();
                let what = format!("{} s={s} n_pat={n_pat}", std::any::type_name::<T>());

                let mut expect = vec![T::ZERO; n_pat * sp];
                kernels::partials_partials(&mut expect, &c1, &c2, &m1, &m2, s, sp);
                let mut rows = vec![T::ONE; n_pat * sp];
                (table.partials_partials)(&mut rows, &c1, &c2, &m1, &m2, s, sp);
                let mut cols = vec![T::ONE; n_pat * sp];
                (wide.partials_partials)(&mut cols, &c1, &c2, &t1, &t2, s, sp);
                assert_eq!(bits(&rows), bits(&expect), "pp rows {what}");
                assert_eq!(bits(&cols), bits(&expect), "pp cols {what}");

                kernels::states_partials(&mut expect, &states, &c2, &m1, &m2, s, sp);
                (table.states_partials)(&mut rows, &states, &c2, &m1, &m2, s, sp);
                (wide.states_partials)(&mut cols, &states, &c2, &t1, &t2, s, sp);
                assert_eq!(bits(&rows), bits(&expect), "sp rows {what}");
                assert_eq!(bits(&cols), bits(&expect), "sp cols {what}");
            }
        }
    }

    #[test]
    fn avx2_wide_pp_matches_scalar() {
        if !avx2_available() {
            return;
        }
        wide_bits_match_scalar::<f64>();
        wide_bits_match_scalar::<f32>();
    }

    #[test]
    fn avx2_pp4_bit_exact_with_portable() {
        if !avx2_available() {
            return;
        }
        let n_pat = 16;
        let m1 = fill(7, 16);
        let m2 = fill(8, 16);
        let c1 = fill(9, n_pat * 4);
        let c2 = fill(10, n_pat * 4);
        let mut d_simd = vec![0.0; n_pat * 4];
        let mut d_port = vec![0.0; n_pat * 4];
        let table = <f64 as DispatchReal>::dispatch(DispatchKind::Avx2);
        (table.partials_partials)(&mut d_simd, &c1, &c2, &m1, &m2, 4, 4);
        vector::partials_partials_4(&mut d_port, &c1, &c2, &m1, &m2, 4);
        assert_eq!(d_simd, d_port, "4-state AVX2 kernel must be bit-exact");
    }

    /// Call a 4-state entry of the AVX2 table (the portable one on a host
    /// without AVX2) once well formed, then with tip state `state` and a
    /// first matrix of `m1_len` elements, which must panic: the AVX2
    /// kernels check their inputs before their raw loads.
    fn four_state_entry<T: DispatchReal>(pp: bool, state: u32, m1_len: usize) {
        let sp = 4usize.next_multiple_of(T::SIMD_LANES);
        let table = T::dispatch(DispatchKind::Avx2);
        let c = vec![T::from_f64(0.5); 3 * sp];
        let mut d = vec![T::ZERO; 3 * sp];
        let m2 = vec![T::from_f64(0.25); 4 * sp];
        let mut call = |states: [u32; 3], m1: &[T]| {
            if pp {
                (table.partials_partials)(&mut d, &c, &c, m1, &m2, 4, sp);
            } else {
                (table.states_partials)(&mut d, &states, &c, m1, &m2, 4, sp);
            }
        };
        call([0, 3, GAP], &m2);
        call([0, state, GAP], &vec![T::from_f64(0.25); m1_len]);
    }

    #[test]
    #[should_panic]
    fn sp4_f64_rejects_state_5() {
        four_state_entry::<f64>(false, 5, 16);
    }

    #[test]
    #[should_panic]
    fn sp4_f32_rejects_state_5() {
        four_state_entry::<f32>(false, 5, 32);
    }

    #[test]
    #[should_panic]
    fn pp4_f64_rejects_a_15_element_matrix() {
        four_state_entry::<f64>(true, 0, 15);
    }

    #[test]
    #[should_panic]
    fn sp4_f64_rejects_a_15_element_matrix() {
        four_state_entry::<f64>(false, 0, 15);
    }

    #[test]
    #[should_panic]
    fn pp4_f32_rejects_a_15_element_matrix() {
        four_state_entry::<f32>(true, 0, 15);
    }

    #[test]
    #[should_panic]
    fn sp4_f32_rejects_a_15_element_matrix() {
        four_state_entry::<f32>(false, 0, 15);
    }

    #[test]
    fn avx2_rescale_bit_exact_with_scalar() {
        if !avx2_available() {
            return;
        }
        let sp = 8;
        let n_pat = 13;
        let block: Vec<f64> = fill(21, n_pat * sp).iter().map(|x| x * 1e-6).collect();
        let table = <f64 as DispatchReal>::dispatch(DispatchKind::Avx2);
        let mut max_simd = vec![0.0; n_pat];
        let mut max_scalar = vec![0.0; n_pat];
        let bounds = (table.rescale_max)(&block, &mut max_simd, sp);
        assert_eq!(
            bounds,
            kernels::rescale_block_max(&block, &mut max_scalar, sp)
        );
        assert_eq!(max_simd, max_scalar);
        let mut b_simd = block.clone();
        let mut b_scalar = block;
        (table.rescale_apply)(&mut b_simd, &max_simd, sp);
        kernels::rescale_block_apply(&mut b_scalar, &max_scalar, sp);
        assert_eq!(b_simd, b_scalar);
    }

    #[test]
    fn select_kind_honours_vectorized_flag() {
        // Non-vectorized instances must always get the scalar table.
        assert_eq!(select_kind(false), DispatchKind::Scalar);
        // Vectorized resolves to AVX2 or portable depending on the host;
        // never scalar unless the client pins it.
        assert_ne!(select_kind(true), DispatchKind::Scalar);
        assert_eq!(select_kind_with(true, true), DispatchKind::Scalar);
    }
}
