//! Scalar likelihood kernels for the CPU back-ends.
//!
//! Every kernel operates on one *block*: a contiguous `[pattern][state]`
//! slice belonging to a single rate category, together with that category's
//! transition matrices. Blocks are exactly the unit the threading models
//! distribute — a (category, pattern-range) chunk — so the same kernels
//! serve the serial, thread-create, and thread-pool paths.
//!
//! All kernels take both the true state count `s` and the padded per-pattern
//! stride `sp >= s` (see `beagle_core::buffers`): pattern `p`'s state vector
//! occupies `[p*sp, p*sp+s)`, matrix row `i` occupies `[i*sp, i*sp+s)`, and
//! padding lanes are exact zeros. Passing `sp == s` recovers the dense
//! layout. The scalar kernels only ever touch the first `s` lanes, so their
//! results are bit-identical for any stride.
//!
//! Kernel variants follow BEAGLE: the operands of a partials operation can
//! each be full partials or compact tip states, giving three kernels
//! (partials×partials, states×partials, states×states).

use beagle_core::real::Real;
use beagle_core::GAP_STATE;

/// `dest[p][i] = (Σ_j m1[i][j]·c1[p][j]) · (Σ_j m2[i][j]·c2[p][j])`
/// over all patterns of the block.
pub fn partials_partials<T: Real>(
    dest: &mut [T],
    c1: &[T],
    c2: &[T],
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
) {
    debug_assert!(sp >= s);
    debug_assert_eq!(dest.len() % sp, 0);
    debug_assert_eq!(dest.len(), c1.len());
    debug_assert_eq!(dest.len(), c2.len());
    debug_assert_eq!(m1.len(), s * sp);
    debug_assert_eq!(m2.len(), s * sp);
    for ((d, a), b) in dest
        .chunks_exact_mut(sp)
        .zip(c1.chunks_exact(sp))
        .zip(c2.chunks_exact(sp))
    {
        for i in 0..s {
            let row1 = &m1[i * sp..i * sp + s];
            let row2 = &m2[i * sp..i * sp + s];
            let mut sum1 = T::ZERO;
            let mut sum2 = T::ZERO;
            for j in 0..s {
                sum1 = row1[j].mul_add(a[j], sum1);
                sum2 = row2[j].mul_add(b[j], sum2);
            }
            d[i] = sum1 * sum2;
        }
    }
}

/// `c1` is compact tip states (one per pattern in the block's range):
/// `dest[p][i] = m1[i][s1_p] · (Σ_j m2[i][j]·c2[p][j])`, with gaps reading 1.
pub fn states_partials<T: Real>(
    dest: &mut [T],
    s1: &[u32],
    c2: &[T],
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
) {
    debug_assert_eq!(dest.len(), c2.len());
    debug_assert_eq!(dest.len(), s1.len() * sp);
    for ((d, &st), b) in dest
        .chunks_exact_mut(sp)
        .zip(s1.iter())
        .zip(c2.chunks_exact(sp))
    {
        for i in 0..s {
            let row2 = &m2[i * sp..i * sp + s];
            let mut sum2 = T::ZERO;
            for j in 0..s {
                sum2 = row2[j].mul_add(b[j], sum2);
            }
            let p1 = if st == GAP_STATE {
                T::ONE
            } else {
                m1[i * sp + st as usize]
            };
            d[i] = p1 * sum2;
        }
    }
}

/// Both children compact: `dest[p][i] = m1[i][s1_p] · m2[i][s2_p]`.
pub fn states_states<T: Real>(
    dest: &mut [T],
    s1: &[u32],
    s2: &[u32],
    m1: &[T],
    m2: &[T],
    s: usize,
    sp: usize,
) {
    debug_assert_eq!(dest.len(), s1.len() * sp);
    debug_assert_eq!(s1.len(), s2.len());
    for ((d, &st1), &st2) in dest.chunks_exact_mut(sp).zip(s1.iter()).zip(s2.iter()) {
        for i in 0..s {
            let p1 = if st1 == GAP_STATE {
                T::ONE
            } else {
                m1[i * sp + st1 as usize]
            };
            let p2 = if st2 == GAP_STATE {
                T::ONE
            } else {
                m2[i * sp + st2 as usize]
            };
            d[i] = p1 * p2;
        }
    }
}

/// Per-block max pass of rescaling: `maxes[p] = max(maxes[p], max_k
/// block[p][k])` over the whole block in one streaming sweep. Padding lanes
/// are zeros, so scanning the full stride cannot change the maximum.
/// Returns the smallest and the largest of the block's pattern maxima
/// (`(∞, 0)` for an empty block): the exact bounds a checked operation
/// hands the CPU instance's rescale bounds.
pub fn rescale_block_max<T: Real>(block: &[T], maxes: &mut [T], sp: usize) -> (T, T) {
    let (mut lo, mut hi) = (T::from_f64(f64::INFINITY), T::ZERO);
    let mut fold = |mx: &mut T, m: T| {
        *mx = (*mx).max(m);
        lo = if m < lo { m } else { lo };
        hi = hi.max(m);
    };
    if sp == 4 {
        // Nucleotide specialization: fully unrolled per-pattern max.
        for (mx, q) in maxes.iter_mut().zip(block.chunks_exact(4)) {
            fold(mx, q[0].max(q[1]).max(q[2].max(q[3])));
        }
    } else {
        for (mx, q) in maxes.iter_mut().zip(block.chunks_exact(sp)) {
            let mut m = T::ZERO;
            for &x in q {
                m = m.max(x);
            }
            fold(mx, m);
        }
    }
    (lo, hi)
}

/// Per-block scale pass of rescaling: multiplies pattern `p`'s entries by
/// `factors[p]`, the power of two [`rescale_range`] read once for the
/// pattern across all categories. One streaming sweep per block, no
/// division and no branch.
pub fn rescale_block_apply<T: Real>(block: &mut [T], factors: &[T], sp: usize) {
    for (&f, q) in factors.iter().zip(block.chunks_exact_mut(sp)) {
        for x in q {
            *x *= f;
        }
    }
}

/// Factor pass of rescaling over one tile of per-pattern maxima: writes
/// each maximum's factor `2^-E` into `factors[p]` and replaces the maximum
/// with its log factor `E·ln 2` (the product taken in `f64`, then
/// narrowed), where `(2^-E, E) = max.pow2_rescale()` (see
/// [`Real::pow2_rescale`]). This scalar loop is the reference the vector
/// table entries match bit for bit.
pub fn rescale_factors<T: Real>(maxes: &mut [T], factors: &mut [T]) {
    for (f, m) in factors.iter_mut().zip(maxes.iter_mut()) {
        let (factor, e) = m.pow2_rescale();
        *f = factor;
        *m = T::from_f64(f64::from(e) * std::f64::consts::LN_2);
    }
}

/// Patterns per tile. The CPU instance runs a scaled operation's partials
/// and [`rescale_range`] tile by tile, so the tile's category blocks are
/// still in L1 when the rescale sweeps read them (32 KiB for four
/// categories of `f64` nucleotides). Within [`rescale_range`] it also sizes
/// the factor array, which lives on the stack (2 KiB of `f64`), so
/// rescaling allocates nothing.
pub const RESCALE_TILE: usize = 256;

/// The category blocks of one pattern range, as [`rescale_range`] walks
/// them: block `c` is category `c`'s `[pattern][stride]` slice of the range.
pub trait CategoryBlocks<T> {
    /// Number of category blocks.
    fn categories(&self) -> usize;
    /// Category `cat`'s block.
    fn block(&mut self, cat: usize) -> &mut [T];
}

impl<T> CategoryBlocks<T> for [&mut [T]] {
    fn categories(&self) -> usize {
        self.len()
    }

    fn block(&mut self, cat: usize) -> &mut [T] {
        self[cat]
    }
}

/// What one [`rescale_range`] call saw.
#[derive(Clone, Copy, Debug)]
pub struct RescaleSweep<T> {
    /// Patterns whose maximum lay outside the window and were rescaled.
    pub rescaled: usize,
    /// Upper bound of every entry of the range after the sweep.
    pub hi: T,
}

/// Rescale one pattern range across **all categories** by a power of two
/// per pattern, writing its log factor into `scale` (patterns are local to
/// the range). `max`, `factors` and `apply` are a kernel table's
/// `rescale_max` / `rescale_factors` / `rescale_apply` entries.
///
/// BEAGLE scales per pattern over the joint (category × state) entries so a
/// single factor per pattern suffices at root integration. Two sweeps: the
/// max of every block, then per [`RESCALE_TILE`] patterns the factors of
/// the maxima ([`rescale_factors`], see [`Real::pow2_rescale`]) and, when
/// some factor is not 1, a multiply of every block's tile. A maximum
/// inside the window `[2^-W, 2^(W+1))` keeps factor 1 and log factor
/// `+0.0`; one outside it moves into `[1, 2)` and `scale[p]` receives
/// `E·ln 2` (computed in `f64`, then narrowed). An all-zero pattern keeps
/// factor 1. The CPU instance calls this once per tile of a chunk, right
/// after the tile's partials; the other back-ends call it over whole
/// blocks through [`rescale_patterns`].
///
/// When `cat_lo` holds one entry per category, entry `c` is lowered to the
/// smallest pattern maximum of category `c` before scaling. Factors are
/// powers of two, so that stays a lower bound after the sweep unless a
/// pattern was scaled down, which only a maximum of at least `2^(W+1)`
/// does, and then the returned `hi` is at least that large too.
///
/// The result does not depend on the kernel table, the category order or
/// the pattern split. For a maximum below `2^(W+1)` the factor is at least
/// 1 and every product is exact, so `partials · 2^E` gives back the
/// unscaled values bit for bit. `E` is clamped to the normal range, so a
/// subnormal maximum gets a finite factor and pad lanes stay zero.
pub fn rescale_range<T: Real, B: CategoryBlocks<T> + ?Sized>(
    blocks: &mut B,
    scale: &mut [T],
    sp: usize,
    max: RescaleMaxFn<T>,
    factors: fn(&mut [T], &mut [T]),
    apply: fn(&mut [T], &[T], usize),
    cat_lo: &mut [T],
) -> RescaleSweep<T> {
    scale.fill(T::ZERO);
    let mut hi = T::ZERO;
    for cat in 0..blocks.categories() {
        let (lo, block_hi) = max(blocks.block(cat), scale, sp);
        if let Some(c) = cat_lo.get_mut(cat) {
            *c = if lo < *c { lo } else { *c };
        }
        hi = hi.max(block_hi);
    }
    let mut rescaled = 0;
    let mut tile = [T::ONE; RESCALE_TILE];
    for (t, maxes) in scale.chunks_mut(RESCALE_TILE).enumerate() {
        let tile = &mut tile[..maxes.len()];
        factors(maxes, tile);
        let n = tile.iter().filter(|&&f| f != T::ONE).count();
        if n == 0 {
            continue;
        }
        rescaled += n;
        let range = t * RESCALE_TILE * sp..(t * RESCALE_TILE + maxes.len()) * sp;
        for cat in 0..blocks.categories() {
            apply(&mut blocks.block(cat)[range.clone()], tile, sp);
        }
    }
    if rescaled > 0 {
        // A rescaled maximum lands below 2; the others are at most `hi`.
        hi = hi.max(T::from_f64(2.0));
    }
    RescaleSweep { rescaled, hi }
}

/// A kernel table's max pass: see [`rescale_block_max`].
pub type RescaleMaxFn<T> = fn(&[T], &mut [T], usize) -> (T, T);

/// [`rescale_range`] with the scalar kernels, for callers that hold their
/// category blocks as slices: the MCMC reference path and the accelerator
/// back-ends, which pass their dense state count as `sp`.
pub fn rescale_patterns<T: Real>(blocks: &mut [&mut [T]], scale_out: &mut [T], sp: usize) {
    rescale_range(
        blocks,
        scale_out,
        sp,
        rescale_block_max,
        rescale_factors,
        rescale_block_apply,
        &mut [],
    );
}

/// The one site sum every back-end's integration forms, for one pattern:
/// first `a_k = Σ_c w_c·r(c, k)`, an FMA chain in category order, then
/// `Σ_k f_k·a_k`, an FMA chain in state order over `k < freqs.len()`.
/// `r(c, k)` is the pattern's category-`c` value for state `k`: the root
/// partial, or for an edge the parent partial times the child propagated
/// through the matrix ([`propagate`]). The AVX2 kernels fold the
/// categories of a state block, move it into pattern lanes and run the
/// state chain there, so every lane repeats these operations.
#[inline(always)]
pub fn site_sum<T: Real>(freqs: &[T], cat_weights: &[T], r: impl Fn(usize, usize) -> T) -> T {
    let mut site = T::ZERO;
    for (k, &f) in freqs.iter().enumerate() {
        let mut a = T::ZERO;
        for (c, &w) in cat_weights.iter().enumerate() {
            a = w.mul_add(r(c, k), a);
        }
        site = f.mul_add(a, site);
    }
    site
}

/// A pattern's site log-likelihood from its site sum: [`Real::ln`] (never
/// the platform libm), plus the pattern's cumulative log scale factor when
/// the integration is scaled.
#[inline(always)]
pub fn site_log_likelihood<T: Real>(site: T, log_scale: Option<T>) -> T {
    let lnl = site.ln();
    match log_scale {
        Some(l) => lnl + l,
        None => lnl,
    }
}

/// A child state vector propagated through one matrix row: `Σ_j m_j·x_j`,
/// the partials kernels' FMA chain in `j` order.
#[inline(always)]
pub fn propagate<T: Real>(row: &[T], child: &[T]) -> T {
    row.iter()
        .zip(child)
        .fold(T::ZERO, |acc, (&m, &x)| m.mul_add(x, acc))
}

/// A tip child's factor for one matrix row: the entry of its state, or 1
/// for a gap.
#[inline(always)]
pub fn tip_factor<T: Real>(row: &[T], state: u32) -> T {
    if state == GAP_STATE {
        T::ONE
    } else {
        row[state as usize]
    }
}

/// Root integration for a pattern range: writes the site log-likelihood of
/// patterns `p0..p0 + site_lnl.len()` ([`site_sum`], then
/// [`site_log_likelihood`]). The caller totals them with
/// [`beagle_core::real::weighted_lnl_sum`]. The scalar reference the
/// vectorized tables reproduce bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn integrate_root<T: Real>(
    site_lnl: &mut [T],
    root: &[T],
    freqs: &[T],
    cat_weights: &[T],
    cumulative_scale: Option<&[T]>,
    s: usize,
    sp: usize,
    n_pat_total: usize,
    p0: usize,
) {
    for (lp, out) in site_lnl.iter_mut().enumerate() {
        let p = p0 + lp;
        let site = site_sum(&freqs[..s], cat_weights, |c, k| {
            root[(c * n_pat_total + p) * sp + k]
        });
        *out = site_log_likelihood(site, cumulative_scale.map(|cs| cs[p]));
    }
}

/// Edge integration for a pattern range: as [`integrate_root`], with
/// `r(c, k)` the parent partial times the child propagated through row `k`
/// of category `c`'s matrix.
#[allow(clippy::too_many_arguments)]
pub fn integrate_edge<T: Real>(
    site_lnl: &mut [T],
    parent: &[T],
    child: EdgeChild<'_, T>,
    matrix: &[T],
    freqs: &[T],
    cat_weights: &[T],
    cumulative_scale: Option<&[T]>,
    s: usize,
    sp: usize,
    n_pat_total: usize,
    p0: usize,
) {
    for (lp, out) in site_lnl.iter_mut().enumerate() {
        let p = p0 + lp;
        let site = site_sum(&freqs[..s], cat_weights, |c, k| {
            let base = (c * n_pat_total + p) * sp;
            let row = &matrix[(c * s + k) * sp..][..s];
            let prop = match child {
                EdgeChild::Partials(cp) => propagate(row, &cp[base..base + s]),
                EdgeChild::States(st) => tip_factor(row, st[p]),
            };
            parent[base + k] * prop
        });
        *out = site_log_likelihood(site, cumulative_scale.map(|cs| cs[p]));
    }
}

/// Edge integration with branch-length derivatives: returns
/// `(Σ w_p lnL_p, dlnL/dt, d²lnL/dt²)` over all patterns, where
/// `d1_matrix`/`d2_matrix` hold `dP/dt` and `d²P/dt²`. The likelihood and
/// both derivative site sums follow [`site_sum`]'s order, and the
/// log-likelihood total is [`beagle_core::real::weighted_lnl_sum`]'s, so
/// it has [`integrate_edge`]'s bits. Because the derivative site sums share
/// the parent/child scale factors with the likelihood site sums, the
/// per-pattern ratios `D1_p/L_p` and `D2_p/L_p` are scale-free and only the
/// log term needs the cumulative factors.
#[allow(clippy::too_many_arguments)]
pub fn integrate_edge_derivatives<T: Real>(
    parent: &[T],
    child: EdgeChild<'_, T>,
    matrix: &[T],
    d1_matrix: &[T],
    d2_matrix: &[T],
    freqs: &[T],
    cat_weights: &[T],
    pattern_weights: &[T],
    cumulative_scale: Option<&[T]>,
    s: usize,
    sp: usize,
    n_pat_total: usize,
) -> (f64, f64, f64) {
    let mut lnl = 0.0;
    let mut d1_total = 0.0;
    let mut d2_total = 0.0;
    for p in 0..n_pat_total {
        let mut site_l = T::ZERO;
        let mut site_d1 = T::ZERO;
        let mut site_d2 = T::ZERO;
        for (k, &f) in freqs[..s].iter().enumerate() {
            let (mut a, mut b, mut d) = (T::ZERO, T::ZERO, T::ZERO);
            for (c, &w) in cat_weights.iter().enumerate() {
                let base = (c * n_pat_total + p) * sp;
                let row = (c * s + k) * sp..(c * s + k) * sp + s;
                let (m, m1, m2) = (
                    &matrix[row.clone()],
                    &d1_matrix[row.clone()],
                    &d2_matrix[row],
                );
                let (prop, prop1, prop2) = match child {
                    EdgeChild::Partials(cp) => {
                        let x = &cp[base..base + s];
                        (propagate(m, x), propagate(m1, x), propagate(m2, x))
                    }
                    // A gap contributes the constant 1: no gradient.
                    EdgeChild::States(st) if st[p] == GAP_STATE => (T::ONE, T::ZERO, T::ZERO),
                    EdgeChild::States(st) => {
                        let j = st[p] as usize;
                        (m[j], m1[j], m2[j])
                    }
                };
                let q = parent[base + k];
                a = w.mul_add(q * prop, a);
                b = w.mul_add(q * prop1, b);
                d = w.mul_add(q * prop2, d);
            }
            site_l = f.mul_add(a, site_l);
            site_d1 = f.mul_add(b, site_d1);
            site_d2 = f.mul_add(d, site_d2);
        }
        let weight = pattern_weights[p].to_f64();
        let site_lnl = site_log_likelihood(site_l, cumulative_scale.map(|cs| cs[p]));
        lnl += weight * site_lnl.to_f64();
        let r1 = site_d1.to_f64() / site_l.to_f64();
        let r2 = site_d2.to_f64() / site_l.to_f64();
        d1_total += weight * r1;
        d2_total += weight * (r2 - r1 * r1);
    }
    (lnl, d1_total, d2_total)
}

/// Child operand of an edge integration.
#[derive(Clone, Copy)]
pub enum EdgeChild<'a, T: Real> {
    /// Full partials buffer (`[category][pattern][stride]`, full length).
    Partials(&'a [T]),
    /// Compact states per pattern (full pattern range).
    States(&'a [u32]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use beagle_core::real::weighted_lnl_sum;

    /// partials_partials with identity matrices multiplies the children.
    #[test]
    fn pp_identity_multiplies() {
        let s = 4;
        let id: Vec<f64> = (0..16)
            .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
            .collect();
        let c1 = vec![1.0, 2.0, 3.0, 4.0, 0.5, 0.5, 0.5, 0.5];
        let c2 = vec![2.0, 2.0, 2.0, 2.0, 1.0, 2.0, 3.0, 4.0];
        let mut dest = vec![0.0; 8];
        partials_partials(&mut dest, &c1, &c2, &id, &id, s, s);
        assert_eq!(dest, vec![2.0, 4.0, 6.0, 8.0, 0.5, 1.0, 1.5, 2.0]);
    }

    /// A padded stride with zeroed pad lanes reproduces the dense result.
    #[test]
    fn pp_padded_stride_matches_dense() {
        let (s, sp) = (3, 4);
        let m_dense: Vec<f64> = (0..9).map(|i| 0.1 + i as f64 * 0.05).collect();
        let mut m_pad = vec![0.0; s * sp];
        for i in 0..s {
            m_pad[i * sp..i * sp + s].copy_from_slice(&m_dense[i * s..(i + 1) * s]);
        }
        let c_dense: Vec<f64> = (0..2 * s).map(|i| 0.2 + i as f64 * 0.07).collect();
        let mut c_pad = vec![0.0; 2 * sp];
        for p in 0..2 {
            c_pad[p * sp..p * sp + s].copy_from_slice(&c_dense[p * s..(p + 1) * s]);
        }
        let mut d_dense = vec![0.0; 2 * s];
        let mut d_pad = vec![0.0; 2 * sp];
        partials_partials(&mut d_dense, &c_dense, &c_dense, &m_dense, &m_dense, s, s);
        partials_partials(&mut d_pad, &c_pad, &c_pad, &m_pad, &m_pad, s, sp);
        for p in 0..2 {
            for k in 0..s {
                assert_eq!(d_dense[p * s + k], d_pad[p * sp + k]);
            }
            assert_eq!(d_pad[p * sp + s], 0.0, "pad lane untouched");
        }
    }

    #[test]
    fn sp_matches_pp_with_onehot() {
        // states_partials must equal partials_partials with one-hot partials.
        let s = 4;
        let m1: Vec<f64> = (0..16).map(|i| 0.1 + i as f64 * 0.01).collect();
        let m2: Vec<f64> = (0..16).map(|i| 0.2 + i as f64 * 0.02).collect();
        let states = vec![2u32, 0u32];
        let mut onehot = vec![0.0; 8];
        onehot[2] = 1.0;
        onehot[4] = 1.0;
        let c2 = vec![0.3, 0.1, 0.4, 0.2, 0.25, 0.25, 0.25, 0.25];

        let mut d1 = vec![0.0; 8];
        states_partials(&mut d1, &states, &c2, &m1, &m2, s, s);
        let mut d2 = vec![0.0; 8];
        partials_partials(&mut d2, &onehot, &c2, &m1, &m2, s, s);
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn ss_matches_pp_with_onehot() {
        let s = 4;
        let m1: Vec<f64> = (0..16).map(|i| 0.1 + i as f64 * 0.01).collect();
        let m2: Vec<f64> = (0..16).map(|i| 0.2 + i as f64 * 0.02).collect();
        let s1 = vec![3u32];
        let s2 = vec![1u32];
        let mut oh1 = vec![0.0; 4];
        oh1[3] = 1.0;
        let mut oh2 = vec![0.0; 4];
        oh2[1] = 1.0;
        let mut d1 = vec![0.0; 4];
        states_states(&mut d1, &s1, &s2, &m1, &m2, s, s);
        let mut d2 = vec![0.0; 4];
        partials_partials(&mut d2, &oh1, &oh2, &m1, &m2, s, s);
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn gaps_read_as_one() {
        let s = 4;
        let m: Vec<f64> = vec![0.5; 16];
        let states = vec![GAP_STATE];
        let c2 = vec![1.0, 1.0, 1.0, 1.0];
        let mut d = vec![0.0; 4];
        states_partials(&mut d, &states, &c2, &m, &m, s, s);
        // p1 = 1, sum2 = 2.0 → all entries 2.0
        assert_eq!(d, vec![2.0; 4]);
    }

    /// The exponent `E` of a pattern maximum, found without reading bits:
    /// halve or double (exactly, in `f64`) into `[1, 2)`, then clamp to the
    /// range whose `2^-E` is a normal `T`; 0 inside the window
    /// `[2^-W, 2^(W+1))`.
    fn reference_exponent<T: Real>(max: T) -> i32 {
        let (lo, hi) = (
            2f64.powi(-T::RESCALE_WINDOW),
            2f64.powi(T::RESCALE_WINDOW + 1),
        );
        if (lo..hi).contains(&max.to_f64()) {
            return 0;
        }
        let (mut m, mut e) = (max.to_f64(), 0i32);
        if m <= 0.0 {
            return 0;
        }
        while m >= 2.0 {
            m /= 2.0;
            e += 1;
        }
        while m < 1.0 {
            m *= 2.0;
            e -= 1;
        }
        let min_e = T::MIN_POSITIVE.to_f64().log2() as i32;
        e.clamp(min_e, -min_e)
    }

    fn ln2_times<T: Real>(e: i32) -> T {
        T::from_f64(f64::from(e) * std::f64::consts::LN_2)
    }

    /// Patterns inside the window keep their bits and log factor `+0.0`;
    /// one below it and one above it move into `[1, 2)` with `E·ln 2`.
    #[test]
    fn rescale_leaves_the_window_alone() {
        let s = 2;
        let w = f64::RESCALE_WINDOW;
        let low = 2f64.powi(-w);
        let high = 2f64.powi(w + 1);
        // Pattern maxima: 0.5, just above 2^-W, just below it, just below
        // 2^(W+1), and 2^(W+1) itself.
        let mut b0 = vec![
            0.5,
            0.25,
            low,
            low * 0.5,
            low * 0.75,
            0.0,
            0.0,
            high * 0.75,
            high,
            1.0,
        ];
        let mut b1 = vec![
            0.1,
            0.05,
            0.0,
            0.0,
            0.0,
            low * 0.25,
            high * 0.875,
            1.0,
            3.0,
            0.0,
        ];
        let (o0, o1) = (b0.clone(), b1.clone());
        let mut scale = vec![7.0; 5];
        let mut cat_lo = [f64::INFINITY; 2];
        let sweep = {
            let mut blocks: Vec<&mut [f64]> = vec![&mut b0, &mut b1];
            rescale_range(
                &mut blocks[..],
                &mut scale,
                s,
                rescale_block_max,
                rescale_factors,
                rescale_block_apply,
                &mut cat_lo,
            )
        };
        let expect = [0, 0, -w - 1, 0, w + 1];
        for (p, &e) in expect.iter().enumerate() {
            assert_eq!(
                scale[p].to_bits(),
                ln2_times::<f64>(e).to_bits(),
                "pattern {p}"
            );
            // partials · 2^E gives back the original bits.
            for (got, orig) in [(&b0, &o0), (&b1, &o1)] {
                for k in p * s..(p + 1) * s {
                    assert_eq!((got[k] * 2f64.powi(e)).to_bits(), orig[k].to_bits());
                }
            }
        }
        assert_eq!(scale[0].to_bits(), 0, "inside the window: +0.0");
        assert_eq!(b0[4], 1.5, "pattern 2 lands in [1, 2)");
        assert_eq!(b0[8], 1.0, "pattern 4 lands on 1");
        assert_eq!(sweep.rescaled, 2);
        // Category minima of the pattern maxima before scaling. The bound
        // of every entry is the largest maximum before scaling: a pattern
        // scaled down keeps it at or above 2^(W+1).
        assert_eq!(cat_lo, [low * 0.75, 0.0]);
        assert_eq!(sweep.hi, high);
    }

    #[test]
    fn rescale_zero_pattern_is_noop() {
        let mut b0 = vec![0.0, 0.0];
        let mut scale = vec![7.0];
        {
            let mut blocks: Vec<&mut [f64]> = vec![&mut b0];
            rescale_patterns(&mut blocks, &mut scale, 2);
        }
        assert_eq!(scale[0], 0.0);
        assert_eq!(b0, vec![0.0, 0.0]);
    }

    /// Reference oracle: per pattern the joint max over every category and
    /// its exponent `E` (see [`reference_exponent`]), then every lane of
    /// every category, pads included, times `2^-E` in `f64`; the log factor
    /// is `E·ln 2`. All-zero patterns keep their bits and get 0.
    fn reference_rescale<T: Real>(blocks: &mut [Vec<T>], scale: &mut [T], sp: usize) {
        for (p, sc) in scale.iter_mut().enumerate() {
            let mut max = T::ZERO;
            for block in blocks.iter() {
                for &x in &block[p * sp..(p + 1) * sp] {
                    max = max.max(x);
                }
            }
            let e = reference_exponent(max);
            for block in blocks.iter_mut() {
                for x in &mut block[p * sp..(p + 1) * sp] {
                    *x = T::from_f64(x.to_f64() * 2f64.powi(-e));
                }
            }
            *sc = ln2_times(e);
        }
    }

    /// Likelihood-like category blocks: O(1) values, deep-underflow values,
    /// maxima just inside and just outside both edges of the window
    /// `[2^-W, 2^(W+1))`, exact zeros and `-0.0`, all-zero patterns (with
    /// signed zeros), and one pattern (7) whose maximum is subnormal.
    fn rescale_fixture<T: Real>(s: usize, sp: usize, n_pat: usize, tiny: f64) -> Vec<Vec<T>> {
        let low = 2f64.powi(-T::RESCALE_WINDOW);
        let high = 2f64.powi(T::RESCALE_WINDOW + 1);
        let just_below = 1.0 - 2f64.powi(-20);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..4)
            .map(|_| {
                let mut block = vec![T::ZERO; n_pat * sp];
                for (p, q) in block.chunks_exact_mut(sp).enumerate() {
                    for v in &mut q[..s] {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let u = (x % 10_000) as f64 / 10_000.0;
                        *v = T::from_f64(match (p % 9, x % 5) {
                            (0, 0) => -0.0,
                            (0, _) => 0.0,
                            (4, _) => u * tiny,
                            (_, 0) => -0.0,
                            (_, 1) => 0.0,
                            (2, _) => low * (1.0 + u),
                            (3, _) => low * just_below * (0.5 + u / 2.0),
                            (5, _) => high * (1.0 + u),
                            (6, _) => high * just_below * (0.5 + u / 2.0),
                            _ => u + 1e-3,
                        });
                    }
                    if p == 7 {
                        // Subnormal maximum in every category.
                        let sub = if std::mem::size_of::<T>() == 8 {
                            1e-310
                        } else {
                            1e-40
                        };
                        q[..s].iter_mut().for_each(|v| *v = T::from_f64(sub));
                    }
                }
                block
            })
            .collect()
    }

    fn bits<T: Real>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// What one table's `rescale_range` run left: the scaled blocks, the
    /// log factors, the per-category minima and the sweep summary.
    struct Rescaled<T> {
        blocks: Vec<Vec<T>>,
        scale: Vec<T>,
        cat_lo: Vec<T>,
        sweep: RescaleSweep<T>,
    }

    /// Runs `rescale_range` on the fixture with every dispatch table and
    /// hands each result to `check(what, s, sp, original, rescaled)`.
    fn for_each_table_rescale<T: crate::simd::DispatchReal>(
        tiny: f64,
        mut check: impl FnMut(&str, usize, usize, &[Vec<T>], &Rescaled<T>),
    ) {
        use crate::simd::{avx2_available, DispatchKind};
        // Two full factor tiles plus a remainder not a multiple of 4.
        let n_pat = 2 * RESCALE_TILE + 45;
        for s in [4usize, 20, 61] {
            let sp = s.div_ceil(T::SIMD_LANES) * T::SIMD_LANES;
            let original = rescale_fixture::<T>(s, sp, n_pat, tiny);
            let mut kinds = vec![DispatchKind::Scalar, DispatchKind::Portable];
            if avx2_available() {
                kinds.push(DispatchKind::Avx2);
            }
            for kind in kinds {
                let table = T::dispatch(kind);
                let mut got = original.clone();
                let mut scale = vec![T::from_f64(7.0); n_pat];
                let mut cat_lo = vec![T::from_f64(f64::INFINITY); got.len()];
                let sweep = {
                    let mut blocks: Vec<&mut [T]> = got.iter_mut().map(|b| &mut b[..]).collect();
                    rescale_range(
                        &mut blocks[..],
                        &mut scale,
                        sp,
                        table.rescale_max,
                        table.rescale_factors,
                        table.rescale_apply,
                        &mut cat_lo,
                    )
                };
                let what = format!("s={s} {} {}", std::any::type_name::<T>(), table.path);
                let rescaled = Rescaled {
                    blocks: got,
                    scale,
                    cat_lo,
                    sweep,
                };
                check(&what, s, sp, &original, &rescaled);
            }
        }
    }

    /// `rescale_range` on every dispatch table reproduces the reference
    /// sweep bit for bit (live lanes, pad lanes and log factors), and
    /// `partials · 2^E` gives back the original bits. The sweep reports
    /// the patterns it rescaled, each category's smallest pattern maximum
    /// before scaling, and a bound of every entry after it.
    fn assert_rescale_matches_reference<T: crate::simd::DispatchReal>(tiny: f64) {
        for_each_table_rescale::<T>(tiny, |what, _, sp, original, r| {
            let (got, scale) = (&r.blocks, &r.scale);
            let mut expect = original.to_vec();
            let mut expect_scale = vec![T::ZERO; scale.len()];
            reference_rescale(&mut expect, &mut expect_scale, sp);
            assert_eq!(bits(scale), bits(&expect_scale), "scale factors {what}");
            let nonzero = expect_scale.iter().filter(|&&x| x != T::ZERO).count();
            assert_eq!(r.sweep.rescaled, nonzero, "rescaled count {what}");
            assert!(nonzero > 0 && nonzero < scale.len(), "both kinds {what}");
            for (c, block) in original.iter().enumerate() {
                let min = block
                    .chunks_exact(sp)
                    .map(|q| q.iter().fold(T::ZERO, |m, &x| m.max(x)))
                    .fold(T::from_f64(f64::INFINITY), |a, b| if b < a { b } else { a });
                assert_eq!(
                    bits(&[r.cat_lo[c]]),
                    bits(&[min]),
                    "category {c} minimum {what}"
                );
            }
            let top = got.iter().flatten().fold(T::ZERO, |m, &x| m.max(x));
            assert!(top <= r.sweep.hi, "hi {} < {top} {what}", r.sweep.hi);
            for ((g, e), o) in got.iter().zip(&expect).zip(original) {
                assert_eq!(bits(g), bits(e), "partials {what}");
                for (p, (gq, oq)) in g.chunks_exact(sp).zip(o.chunks_exact(sp)).enumerate() {
                    let mut max = T::ZERO;
                    for block in original {
                        block[p * sp..(p + 1) * sp]
                            .iter()
                            .for_each(|&x| max = max.max(x));
                    }
                    let back = T::from_f64(2f64.powi(reference_exponent(max)));
                    let restored: Vec<T> = gq.iter().map(|&x| x * back).collect();
                    assert_eq!(bits(&restored), bits(oq), "pattern {p} times 2^E {what}");
                }
            }
        });
    }

    #[test]
    fn rescale_range_matches_reference_rescale_bit_for_bit() {
        assert_rescale_matches_reference::<f64>(1e-290);
        assert_rescale_matches_reference::<f32>(1e-33);
    }

    /// A subnormal maximum gets a finite factor (its exponent is clamped to
    /// the normal range): no lane becomes infinite or NaN, and pad lanes stay
    /// exactly zero, on every table and precision.
    #[test]
    fn rescale_subnormal_max_stays_finite() {
        fn check<T: crate::simd::DispatchReal>(tiny: f64) {
            for_each_table_rescale::<T>(tiny, |what, s, sp, _, r| {
                assert!(r.scale.iter().all(|x| !x.is_bad()), "scale {what}");
                for block in &r.blocks {
                    for q in block.chunks_exact(sp) {
                        assert!(q[..s].iter().all(|x| !x.is_bad()), "live lane {what}");
                        assert!(
                            q[s..].iter().all(|x| x.to_f64().to_bits() == 0),
                            "pad {what}"
                        );
                    }
                    // Pattern 7's subnormal maximum moved up into the normal
                    // range instead of overflowing.
                    assert!(block[7 * sp..7 * sp + s]
                        .iter()
                        .all(|&x| x >= T::MIN_POSITIVE));
                }
            });
        }
        check::<f64>(1e-290);
        check::<f32>(1e-33);
    }

    #[test]
    fn root_integration_uniform() {
        // One category, 2 states, uniform freqs: site L = 0.5*(a+b).
        let root = vec![0.2, 0.6, 0.4, 0.4];
        let freqs = vec![0.5, 0.5];
        let catw = vec![1.0];
        let pw = vec![2.0, 1.0];
        let mut site = vec![0.0; 2];
        integrate_root(&mut site, &root, &freqs, &catw, None, 2, 2, 2, 0);
        let total = weighted_lnl_sum(0.0, &site, pw);
        let l0 = (0.5 * 0.8_f64).ln();
        let l1 = (0.5 * 0.8_f64).ln();
        assert!((site[0] - l0).abs() < 1e-12);
        assert!((total - (2.0 * l0 + l1)).abs() < 1e-12);
    }

    #[test]
    fn root_integration_applies_scale() {
        let root = vec![1.0, 1.0];
        let freqs = vec![0.5, 0.5];
        let catw = vec![1.0];
        let cs = vec![-3.5];
        let mut site = vec![0.0; 1];
        integrate_root(&mut site, &root, &freqs, &catw, Some(&cs), 2, 2, 1, 0);
        assert_eq!(site[0], -3.5);
    }

    #[test]
    fn edge_integration_equals_root_at_zero_matrix_identity() {
        // With an identity matrix and child = all-ones partials, the edge
        // likelihood equals Σ_i f_i · parent_i — i.e. root integration of
        // the parent, bit for bit.
        let s = 2;
        let parent = vec![0.3, 0.7];
        let child = vec![1.0, 1.0];
        let id = vec![1.0, 0.0, 0.0, 1.0];
        let freqs = vec![0.4, 0.6];
        let catw = vec![1.0];
        let mut site_e = vec![0.0f64];
        integrate_edge(
            &mut site_e,
            &parent,
            EdgeChild::Partials(&child),
            &id,
            &freqs,
            &catw,
            None,
            s,
            s,
            1,
            0,
        );
        let mut site_r = vec![0.0];
        integrate_root(&mut site_r, &parent, &freqs, &catw, None, s, s, 1, 0);
        assert_eq!(site_e[0].to_bits(), site_r[0].to_bits());
    }

    /// The derivative kernel's log-likelihood is the edge integration's,
    /// bit for bit (same site sums, same reduction), with a tip child, a
    /// partials child, gaps, three categories and scaling.
    #[test]
    fn edge_derivatives_share_the_edge_site_sum() {
        let (s, sp, n, cats) = (4, 4, 9, 3);
        let fill = |seed: usize, len: usize| -> Vec<f64> {
            (0..len)
                .map(|i| 0.05 + ((i * 37 + seed * 11) % 97) as f64 / 100.0)
                .collect()
        };
        let parent = fill(1, cats * n * sp);
        let child = fill(2, cats * n * sp);
        let states: Vec<u32> = (0..n as u32)
            .map(|p| if p % 4 == 3 { GAP_STATE } else { p % 4 })
            .collect();
        let (m, d1, d2) = (
            fill(3, cats * s * sp),
            fill(4, cats * s * sp),
            fill(5, cats * s * sp),
        );
        let freqs = vec![0.1, 0.2, 0.3, 0.4];
        let catw = vec![0.5, 0.3, 0.2];
        let pw: Vec<f64> = (0..n).map(|p| 1.0 + p as f64).collect();
        let cs: Vec<f64> = (0..n).map(|p| -0.25 * p as f64).collect();
        for child in [EdgeChild::Partials(&child), EdgeChild::States(&states)] {
            let mut site = vec![0.0; n];
            integrate_edge(
                &mut site,
                &parent,
                child,
                &m,
                &freqs,
                &catw,
                Some(&cs),
                s,
                sp,
                n,
                0,
            );
            let (lnl, _, _) = integrate_edge_derivatives(
                &parent,
                child,
                &m,
                &d1,
                &d2,
                &freqs,
                &catw,
                &pw,
                Some(&cs),
                s,
                sp,
                n,
            );
            assert_eq!(
                lnl.to_bits(),
                weighted_lnl_sum(0.0, &site, pw.iter().copied()).to_bits()
            );
        }
    }
}
