//! Instance data storage, shared by the CPU back-ends.
//!
//! BEAGLE instances act on "flexibly indexed data storage" — numbered
//! partials buffers, compact tip-state buffers, transition matrices, eigen
//! systems, weights, frequencies, and scale factors. This module implements
//! that storage once, generic over precision, together with the non-kernel
//! parts of the API (validated setters/getters). Back-ends own the kernels;
//! they delegate bookkeeping here.
//!
//! Layouts (all row-major, matching the BEAGLE convention):
//! * partials: `[category][pattern][state..state_stride]`
//! * transition matrix: `[category][from_state][to_state..state_stride]`
//! * scale buffers: per-pattern *log* scale factors
//!
//! `state_stride >= state_count` is the padded per-pattern state vector
//! length. [`InstanceBuffers::new`] keeps `state_stride == state_count`
//! (the historical dense layout, used by the accelerator back-ends);
//! [`InstanceBuffers::new_padded`] rounds it up to a SIMD-lane multiple so
//! vector inner loops are remainder-free. Padding lanes hold exact zeros
//! (in partials *and* in every matrix row), so dot products over the full
//! stride equal dot products over the true state count. The padding is
//! invisible at the API boundary: setters pack, getters strip.

use crate::api::InstanceConfig;
use crate::error::{BeagleError, Result};
use crate::real::{narrow_slice, widen_slice, Real};
use crate::GAP_STATE;

/// One stored eigen system, kept in `f64` (matrix exponentiation is done in
/// double precision even for single-precision instances, as BEAGLE does for
/// accuracy; the resulting P matrices are narrowed to `T`).
#[derive(Clone, Debug, Default)]
pub struct EigenSystem {
    /// Row-major right eigenvectors (s×s).
    pub vectors: Vec<f64>,
    /// Row-major inverse eigenvectors (s×s).
    pub inverse_vectors: Vec<f64>,
    /// Eigenvalues (s).
    pub values: Vec<f64>,
}

/// All numbered buffers of one instance.
#[derive(Clone, Debug)]
pub struct InstanceBuffers<T: Real> {
    /// Instance sizing (immutable after creation).
    pub config: InstanceConfig,
    /// Padded per-pattern state vector length (`>= config.state_count`).
    pub state_stride: usize,
    /// Partials buffers; `None` until written. Tips may instead use
    /// `tip_states`.
    pub partials: Vec<Option<Vec<T>>>,
    /// Compact tip states, indexed by partials-buffer id (only `0..tip_count`
    /// may be populated).
    pub tip_states: Vec<Option<Vec<u32>>>,
    /// Transition matrices.
    pub matrices: Vec<Vec<T>>,
    /// Eigen systems.
    pub eigens: Vec<EigenSystem>,
    /// Pattern weights.
    pub pattern_weights: Vec<T>,
    /// Rate-category multipliers.
    pub category_rates: Vec<f64>,
    /// Category-weight buffers.
    pub category_weights: Vec<Vec<T>>,
    /// State-frequency buffers (reuses the eigen buffer count, as BEAGLE does).
    pub frequencies: Vec<Vec<T>>,
    /// Per-pattern log scale factors.
    pub scale_buffers: Vec<Vec<T>>,
    /// `scale_zero[i]`: scale buffer `i` is known to hold only `+0.0`, so
    /// [`Self::accumulate_scale_factors`] skips it. Only ever a proof:
    /// `false` claims nothing. A writer that bypasses this type's methods
    /// takes the buffer with [`Self::take_scale_buffer`], which clears it.
    pub scale_zero: Vec<bool>,
    /// Rescale bounds of every matrix buffer, kept up to date by the
    /// matrix setters and kernels here.
    pub matrix_bounds: MatrixBounds,
    /// Site log-likelihoods from the last root/edge integration.
    pub site_log_likelihoods: Vec<T>,
}

/// What the CPU instance's rescale bounds need of each matrix buffer, kept
/// as the matrix is written: per category the smallest live entry, and the
/// largest row sum over every category, both of the narrowed entries the
/// kernels read. A matrix with an entry that is not positive and finite
/// has no bounds: minimum 0 and row sum `∞`. So does one written behind
/// this type's back, which must call [`MatrixBounds::forget`].
#[derive(Clone, Debug)]
pub struct MatrixBounds {
    categories: usize,
    /// `min[m * categories + c]`.
    min: Vec<f64>,
    row_sum: Vec<f64>,
}

impl MatrixBounds {
    fn new(matrices: usize, categories: usize) -> Self {
        Self {
            categories,
            min: vec![0.0; matrices * categories],
            row_sum: vec![f64::INFINITY; matrices],
        }
    }

    /// Smallest entry of category `cat` of matrix `matrix` (0: unknown).
    pub fn min(&self, matrix: usize, cat: usize) -> f64 {
        self.min[matrix * self.categories + cat]
    }

    /// Largest row sum of matrix `matrix` (`∞`: unknown).
    pub fn row_sum(&self, matrix: usize) -> f64 {
        self.row_sum[matrix]
    }

    /// Drop the bounds of `matrix`.
    pub fn forget(&mut self, matrix: usize) {
        self.record(matrix, std::iter::empty());
    }

    /// Store the bounds of `matrix` from its per-category `(smallest
    /// entry, largest row sum)`; a category without positive finite
    /// entries (or left out) leaves the whole matrix unknown.
    fn record(&mut self, matrix: usize, blocks: impl Iterator<Item = (f64, f64)>) {
        let mins = &mut self.min[matrix * self.categories..(matrix + 1) * self.categories];
        mins.fill(0.0);
        let mut row_sum = 0.0f64;
        for (m, (lo, sum)) in mins.iter_mut().zip(blocks) {
            *m = lo;
            row_sum = if sum > row_sum || sum.is_nan() {
                sum
            } else {
                row_sum
            };
        }
        if mins.iter().all(|&m| m > 0.0) && row_sum.is_finite() {
            self.row_sum[matrix] = row_sum;
        } else {
            mins.fill(0.0);
            self.row_sum[matrix] = f64::INFINITY;
        }
    }
}

/// Smallest entry and largest row sum of one `[s][stride]` category block
/// (live lanes only), for [`MatrixBounds`]. A NaN entry makes the row sum
/// NaN, so the block counts as unknown.
fn block_bounds<T: Real>(block: &[T], s: usize) -> (f64, f64) {
    let sp = block.len() / s;
    block
        .chunks_exact(sp)
        .fold((f64::INFINITY, 0.0), |(lo, hi), row| {
            let (row_lo, sum) = row_bounds(&row[..s]);
            (
                lo.min(row_lo),
                if sum > hi || sum.is_nan() { sum } else { hi },
            )
        })
}

/// Smallest entry and sum of one matrix row, four lanes at a time so the
/// loop carries no long dependency chain (the sum is a bound, so its
/// association does not matter).
fn row_bounds<T: Real>(row: &[T]) -> (f64, f64) {
    let (mut lo, mut sum) = ([f64::INFINITY; 4], [0.0f64; 4]);
    let mut fold = |k: usize, x: T| {
        let x = x.to_f64();
        lo[k] = if x < lo[k] { x } else { lo[k] };
        sum[k] += x;
    };
    let quads = row.chunks_exact(4);
    let rest = quads.remainder();
    for q in quads {
        for (k, &x) in q.iter().enumerate() {
            fold(k, x);
        }
    }
    for (k, &x) in rest.iter().enumerate() {
        fold(k, x);
    }
    let lo = lo
        .iter()
        .fold(f64::INFINITY, |a, &b| if b < a { b } else { a });
    (lo, (sum[0] + sum[1]) + (sum[2] + sum[3]))
}

impl<T: Real> InstanceBuffers<T> {
    /// Allocate storage for `config` with the dense layout
    /// (`state_stride == state_count`).
    pub fn new(config: InstanceConfig) -> Result<Self> {
        Self::with_stride(config, config.state_count)
    }

    /// Allocate storage with each pattern's state vector padded to a
    /// multiple of `lanes` (zero-filled padding).
    pub fn new_padded(config: InstanceConfig, lanes: usize) -> Result<Self> {
        let lanes = lanes.max(1);
        Self::with_stride(config, config.state_count.div_ceil(lanes) * lanes)
    }

    fn with_stride(config: InstanceConfig, state_stride: usize) -> Result<Self> {
        config.validate()?;
        debug_assert!(state_stride >= config.state_count);
        let s = config.state_count;
        let padded_matrix_len = config.category_count * s * state_stride;
        // Frequencies are padded to the stride too (with zeros) so root and
        // edge integrations can dot over the full stride.
        let mut freqs = vec![T::ZERO; state_stride];
        freqs[..s].fill(T::from_f64(1.0 / s as f64));
        Ok(Self {
            partials: vec![None; config.partials_buffer_count],
            tip_states: vec![None; config.partials_buffer_count],
            matrices: vec![vec![T::ZERO; padded_matrix_len]; config.matrix_buffer_count],
            eigens: vec![EigenSystem::default(); config.eigen_buffer_count],
            pattern_weights: vec![T::ONE; config.pattern_count],
            category_rates: vec![1.0; config.category_count],
            category_weights: vec![
                vec![
                    T::from_f64(1.0 / config.category_count as f64);
                    config.category_count
                ];
                config.eigen_buffer_count
            ],
            frequencies: vec![freqs; config.eigen_buffer_count],
            scale_buffers: vec![vec![T::ZERO; config.pattern_count]; config.scale_buffer_count],
            scale_zero: vec![false; config.scale_buffer_count],
            matrix_bounds: MatrixBounds::new(config.matrix_buffer_count, config.category_count),
            site_log_likelihoods: vec![T::ZERO; config.pattern_count],
            config,
            state_stride,
        })
    }

    /// Length of one stored (padded) partials buffer.
    pub fn padded_partials_len(&self) -> usize {
        self.config.category_count * self.config.pattern_count * self.state_stride
    }

    /// Length of one stored (padded) transition matrix.
    pub fn padded_matrix_len(&self) -> usize {
        self.config.category_count * self.config.state_count * self.state_stride
    }

    fn check_index(&self, what: &'static str, index: usize, limit: usize) -> Result<()> {
        if index >= limit {
            Err(BeagleError::OutOfRange { what, index, limit })
        } else {
            Ok(())
        }
    }

    fn check_len(&self, what: &'static str, got: usize, expected: usize) -> Result<()> {
        if got != expected {
            Err(BeagleError::DimensionMismatch {
                what,
                expected,
                got,
            })
        } else {
            Ok(())
        }
    }

    /// Store compact tip states.
    pub fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.check_index("tip", tip, self.config.tip_count)?;
        self.check_len("tip states", states.len(), self.config.pattern_count)?;
        for &s in states {
            if s != GAP_STATE && s as usize >= self.config.state_count {
                return Err(BeagleError::OutOfRange {
                    what: "tip state value",
                    index: s as usize,
                    limit: self.config.state_count,
                });
            }
        }
        self.tip_states[tip] = Some(states.to_vec());
        self.partials[tip] = None;
        Ok(())
    }

    /// Store tip partials (`patterns × states`), replicated across categories.
    pub fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.check_index("tip", tip, self.config.tip_count)?;
        let per_cat = self.config.pattern_count * self.config.state_count;
        self.check_len("tip partials", partials.len(), per_cat)?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        let mut buf = vec![T::ZERO; self.padded_partials_len()];
        for c in 0..self.config.category_count {
            let cat = &mut buf[c * self.config.pattern_count * sp..];
            for (dst, src) in cat.chunks_exact_mut(sp).zip(partials.chunks_exact(s)) {
                for (d, &x) in dst[..s].iter_mut().zip(src) {
                    *d = T::from_f64(x);
                }
            }
        }
        self.partials[tip] = Some(buf);
        self.tip_states[tip] = None;
        Ok(())
    }

    /// Store a full partials buffer (client layout: dense, unpadded).
    pub fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.check_index("partials buffer", buffer, self.config.partials_buffer_count)?;
        self.check_len("partials", partials.len(), self.config.partials_len())?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        if sp == s {
            self.partials[buffer] = Some(narrow_slice(partials));
        } else {
            let mut buf = vec![T::ZERO; self.padded_partials_len()];
            for (dst, src) in buf.chunks_exact_mut(sp).zip(partials.chunks_exact(s)) {
                for (d, &x) in dst[..s].iter_mut().zip(src) {
                    *d = T::from_f64(x);
                }
            }
            self.partials[buffer] = Some(buf);
        }
        Ok(())
    }

    /// Read a partials buffer (dense, unpadded — padding is stripped).
    /// Compact tips are expanded to partials form.
    pub fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.check_index("partials buffer", buffer, self.config.partials_buffer_count)?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        if let Some(p) = &self.partials[buffer] {
            if sp == s {
                return Ok(widen_slice(p));
            }
            let mut out = Vec::with_capacity(self.config.partials_len());
            for chunk in p.chunks_exact(sp) {
                out.extend(chunk[..s].iter().map(|x| x.to_f64()));
            }
            return Ok(out);
        }
        if let Some(states) = &self.tip_states[buffer] {
            let (np, nc) = (self.config.pattern_count, self.config.category_count);
            let mut out = vec![0.0; self.config.partials_len()];
            for c in 0..nc {
                for (p, &st) in states.iter().enumerate() {
                    let base = (c * np + p) * s;
                    if st == GAP_STATE {
                        out[base..base + s].fill(1.0);
                    } else {
                        out[base + st as usize] = 1.0;
                    }
                }
            }
            return Ok(out);
        }
        Err(BeagleError::InvalidConfiguration(format!(
            "partials buffer {buffer} has never been written"
        )))
    }

    /// Set pattern weights.
    pub fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.check_len("pattern weights", weights.len(), self.config.pattern_count)?;
        self.pattern_weights = narrow_slice(weights);
        Ok(())
    }

    /// Set a frequencies buffer (stored padded to the stride with zeros).
    pub fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.check_index("frequencies buffer", index, self.frequencies.len())?;
        self.check_len("frequencies", frequencies.len(), self.config.state_count)?;
        let mut buf = vec![T::ZERO; self.state_stride];
        for (d, &x) in buf.iter_mut().zip(frequencies) {
            *d = T::from_f64(x);
        }
        self.frequencies[index] = buf;
        Ok(())
    }

    /// Set category rates.
    pub fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.check_len("category rates", rates.len(), self.config.category_count)?;
        self.category_rates = rates.to_vec();
        Ok(())
    }

    /// Set a category-weights buffer.
    pub fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.check_index(
            "category weights buffer",
            index,
            self.category_weights.len(),
        )?;
        self.check_len(
            "category weights",
            weights.len(),
            self.config.category_count,
        )?;
        self.category_weights[index] = narrow_slice(weights);
        Ok(())
    }

    /// Store an eigen system.
    pub fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.check_index("eigen buffer", index, self.eigens.len())?;
        let s = self.config.state_count;
        self.check_len("eigen vectors", vectors.len(), s * s)?;
        self.check_len("inverse eigen vectors", inverse_vectors.len(), s * s)?;
        self.check_len("eigen values", values.len(), s)?;
        self.eigens[index] = EigenSystem {
            vectors: vectors.to_vec(),
            inverse_vectors: inverse_vectors.to_vec(),
            values: values.to_vec(),
        };
        Ok(())
    }

    /// Fail unless the (in-range) eigen buffer `index` has been set.
    fn check_eigen_set(&self, index: usize) -> Result<()> {
        if self.eigens[index].values.len() != self.config.state_count {
            return Err(BeagleError::InvalidConfiguration(format!(
                "eigen buffer {index} has not been set"
            )));
        }
        Ok(())
    }

    /// The shared transition-matrix kernel: `P(rate_c · t) = U e^{Λ rate_c t} U⁻¹`
    /// for every listed matrix buffer, computed in `f64` and narrowed to `T`.
    pub fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.check_index("eigen buffer", eigen_index, self.eigens.len())?;
        self.check_len("branch lengths", branch_lengths.len(), matrix_indices.len())?;
        self.check_eigen_set(eigen_index)?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        let eig = &self.eigens[eigen_index];
        let (mut exps, mut row) = (vec![0.0; s], vec![0.0; s]);
        for (&m, &t) in matrix_indices.iter().zip(branch_lengths) {
            self.check_index("matrix buffer", m, self.matrices.len())?;
            let blocks = self.matrices[m].chunks_exact_mut(s * sp);
            let bounds = blocks.zip(&self.category_rates).map(|(block, &rate)| {
                for (e, &l) in exps.iter_mut().zip(&eig.values) {
                    *e = (l * rate * t).exp();
                }
                // Round-off can leave tiny negatives; clamp so the
                // likelihood kernels only ever see probabilities.
                spectral_block(block, &eig.inverse_vectors, &mut row, true, |i, k| {
                    eig.vectors[i * s + k] * exps[k]
                });
                // Read while the block is still in cache.
                block_bounds(block, s)
            });
            self.matrix_bounds.record(m, bounds);
        }
        Ok(())
    }

    /// Transition matrices together with their first and second derivatives
    /// with respect to the branch length — the quantities Newton–Raphson
    /// branch-length optimizers (GARLI, PhyML) request from BEAGLE:
    ///
    /// ```text
    /// P(r·t)      = U e^{Λ r t} U⁻¹
    /// dP/dt       = U (rΛ) e^{Λ r t} U⁻¹
    /// d²P/dt²     = U (rΛ)² e^{Λ r t} U⁻¹
    /// ```
    ///
    /// `d1_indices` / `d2_indices` name the matrix buffers receiving the
    /// derivatives (same `[category][s][s]` layout as probabilities).
    pub fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.check_index("eigen buffer", eigen_index, self.eigens.len())?;
        self.check_len("branch lengths", branch_lengths.len(), matrix_indices.len())?;
        self.check_len("d1 indices", d1_indices.len(), matrix_indices.len())?;
        self.check_len("d2 indices", d2_indices.len(), matrix_indices.len())?;
        self.check_eigen_set(eigen_index)?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        let eig = &self.eigens[eigen_index];
        let (mut exps, mut powers, mut row) = (vec![0.0; s], vec![0.0; s], vec![0.0; s]);
        for (((&m, &d1), &d2), &t) in matrix_indices
            .iter()
            .zip(d1_indices)
            .zip(d2_indices)
            .zip(branch_lengths)
        {
            for idx in [m, d1, d2] {
                self.check_index("matrix buffer", idx, self.matrices.len())?;
            }
            if m == d1 || m == d2 || d1 == d2 {
                return Err(BeagleError::InvalidConfiguration(
                    "probability and derivative buffers must be distinct".into(),
                ));
            }
            // Derivatives may be negative: they never bound a rescale.
            self.matrix_bounds.forget(d1);
            self.matrix_bounds.forget(d2);
            for (c, &rate) in self.category_rates.iter().enumerate() {
                // Spectral weights for the three matrices.
                for (e, &l) in exps.iter_mut().zip(&eig.values) {
                    *e = (l * rate * t).exp();
                }
                for (order, target) in [(0, m), (1, d1), (2, d2)] {
                    for (p, &l) in powers.iter_mut().zip(&eig.values) {
                        *p = (rate * l).powi(order);
                    }
                    let block = &mut self.matrices[target][c * s * sp..(c + 1) * s * sp];
                    // Probabilities are clamped; derivatives may be
                    // legitimately negative.
                    spectral_block(block, &eig.inverse_vectors, &mut row, order == 0, |i, k| {
                        eig.vectors[i * s + k] * powers[k] * exps[k]
                    });
                }
            }
            let bounds = self.matrices[m]
                .chunks_exact(s * sp)
                .map(|block| block_bounds(block, s));
            self.matrix_bounds.record(m, bounds);
        }
        Ok(())
    }

    /// Directly set a transition matrix (client layout: dense, unpadded).
    pub fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.check_index("matrix buffer", index, self.matrices.len())?;
        self.check_len("transition matrix", matrix.len(), self.config.matrix_len())?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        if sp == s {
            self.matrices[index] = narrow_slice(matrix);
        } else {
            let mut buf = vec![T::ZERO; self.padded_matrix_len()];
            for (dst, src) in buf.chunks_exact_mut(sp).zip(matrix.chunks_exact(s)) {
                for (d, &x) in dst[..s].iter_mut().zip(src) {
                    *d = T::from_f64(x);
                }
            }
            self.matrices[index] = buf;
        }
        let bounds = self.matrices[index]
            .chunks_exact(s * sp)
            .map(|block| block_bounds(block, s));
        self.matrix_bounds.record(index, bounds);
        Ok(())
    }

    /// Read back a transition matrix (dense — padding columns stripped).
    pub fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.check_index("matrix buffer", index, self.matrices.len())?;
        let (s, sp) = (self.config.state_count, self.state_stride);
        if sp == s {
            return Ok(widen_slice(&self.matrices[index]));
        }
        let mut out = Vec::with_capacity(self.config.matrix_len());
        for row in self.matrices[index].chunks_exact(sp) {
            out.extend(row[..s].iter().map(|x| x.to_f64()));
        }
        Ok(out)
    }

    /// Zero a cumulative scale buffer.
    pub fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        self.check_index("scale buffer", cumulative, self.scale_buffers.len())?;
        self.clear_scale_buffer(cumulative);
        Ok(())
    }

    /// Zero scale buffer `index` (in range), unless it is known to be zero.
    pub fn clear_scale_buffer(&mut self, index: usize) {
        if !self.scale_zero[index] {
            self.scale_buffers[index].fill(T::ZERO);
            self.scale_zero[index] = true;
        }
    }

    /// `cumulative[p] += Σ_buffers scale[p]` (log-space accumulation).
    /// Inputs flagged in [`Self::scale_zero`] are skipped: adding `+0.0`
    /// changes no value a cumulative buffer can hold (it starts at `+0.0`
    /// and log factors are never `-0.0`).
    pub fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        self.check_index("scale buffer", cumulative, self.scale_buffers.len())?;
        for &s in scale_indices {
            self.check_index("scale buffer", s, self.scale_buffers.len())?;
            if s == cumulative {
                return Err(BeagleError::InvalidConfiguration(
                    "cumulative scale buffer listed among its own inputs".into(),
                ));
            }
        }
        for &sidx in scale_indices {
            if self.scale_zero[sidx] {
                continue;
            }
            self.scale_zero[cumulative] = false;
            // Split borrow: scale_indices != cumulative was checked above.
            let (src, dst) = if sidx < cumulative {
                let (a, b) = self.scale_buffers.split_at_mut(cumulative);
                (&a[sidx], &mut b[0])
            } else {
                let (a, b) = self.scale_buffers.split_at_mut(sidx);
                (&b[0], &mut a[cumulative])
            };
            for (d, &x) in dst.iter_mut().zip(src.iter()) {
                *d += x;
            }
        }
        Ok(())
    }

    /// Validate an operation list before kernels run: indices in range, no
    /// in-place operation, and every child readable (a tip, computed
    /// partials, or the destination of an earlier operation of the list).
    /// Only a child that does not exist yet is looked up among the earlier
    /// operations, so validation allocates nothing and a warm traversal,
    /// whose children all exist, takes one pass.
    pub fn check_operations(&self, operations: &[crate::ops::Operation]) -> Result<()> {
        let nb = self.config.partials_buffer_count;
        for (i, op) in operations.iter().enumerate() {
            self.check_index("partials buffer (destination)", op.destination, nb)?;
            self.check_index("partials buffer (child1)", op.child1, nb)?;
            self.check_index("partials buffer (child2)", op.child2, nb)?;
            self.check_index("matrix buffer", op.child1_matrix, self.matrices.len())?;
            self.check_index("matrix buffer", op.child2_matrix, self.matrices.len())?;
            if let Some(s) = op.dest_scale_write {
                self.check_index("scale buffer", s, self.scale_buffers.len())?;
            }
            if op.destination == op.child1 || op.destination == op.child2 {
                return Err(BeagleError::Unsupported(
                    "in-place partials operations (destination == child)".into(),
                ));
            }
            for child in [op.child1, op.child2] {
                let exists = self.partials[child].is_some()
                    || self.tip_states[child].is_some()
                    || operations[..i].iter().any(|e| e.destination == child);
                if !exists {
                    return Err(BeagleError::InvalidConfiguration(format!(
                        "operation reads buffer {child} before it was computed"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validate the index arguments of a root/edge integration call so
    /// back-ends surface [`BeagleError::OutOfRange`] instead of panicking on
    /// a bad client index.
    pub fn check_integration_indices(
        &self,
        buffer_indices: &[usize],
        matrix_indices: &[usize],
        frequencies_index: usize,
        category_weights_index: usize,
        cumulative_scale: Option<usize>,
    ) -> Result<()> {
        for &b in buffer_indices {
            self.check_index("partials buffer", b, self.partials.len())?;
        }
        for &m in matrix_indices {
            self.check_index("matrix buffer", m, self.matrices.len())?;
        }
        self.check_index(
            "frequencies index",
            frequencies_index,
            self.frequencies.len(),
        )?;
        self.check_index(
            "category weights index",
            category_weights_index,
            self.category_weights.len(),
        )?;
        if let Some(c) = cumulative_scale {
            self.check_index("scale buffer", c, self.scale_buffers.len())?;
        }
        Ok(())
    }

    /// Fallible [`Self::child_operand`] for entry points that take a client
    /// buffer index directly (edge integrations), where no prior
    /// `check_operations` has established the invariant.
    pub fn try_child_operand(&self, buffer: usize) -> Result<ChildOperand<'_, T>> {
        self.check_index("partials buffer", buffer, self.partials.len())?;
        if self.partials[buffer].is_none() && self.tip_states[buffer].is_none() {
            return Err(BeagleError::InvalidConfiguration(format!(
                "operand buffer {buffer} has never been computed"
            )));
        }
        Ok(self.child_operand(buffer))
    }

    /// Take a partials operation's destination buffer out of the arena
    /// (std::mem::take) so the children can be borrowed simultaneously;
    /// callers must put it back with [`Self::restore_destination`].
    ///
    /// A reused buffer comes back with its old contents, not zeroed. That
    /// is sound because every partials kernel assigns every live lane of
    /// every (category, pattern) it is given: the CPU kernel tables and the
    /// accelerator `partials_kernel` / `partials_group` alike. Pad lanes are
    /// zero from allocation and stay zero: kernels never write them, and
    /// rescaling multiplies them by a finite power of two.
    /// Only a buffer allocated here is zero-filled.
    pub fn take_destination(&mut self, dest: usize) -> Vec<T> {
        let len = self.padded_partials_len();
        match self.partials[dest].take() {
            Some(v) => {
                debug_assert_eq!(v.len(), len);
                v
            }
            None => vec![T::ZERO; len],
        }
    }

    /// Take scale buffer `index` out of the arena for a kernel to write,
    /// clearing its [`Self::scale_zero`] flag; put it back by assignment.
    pub fn take_scale_buffer(&mut self, index: usize) -> Vec<T> {
        self.scale_zero[index] = false;
        std::mem::take(&mut self.scale_buffers[index])
    }

    /// Return a destination buffer taken with [`Self::take_destination`].
    pub fn restore_destination(&mut self, dest: usize, buf: Vec<T>) {
        self.partials[dest] = Some(buf);
    }

    /// Operand view for one child: either expanded partials or compact states.
    pub fn child_operand(&self, buffer: usize) -> ChildOperand<'_, T> {
        if let Some(p) = &self.partials[buffer] {
            ChildOperand::Partials(p)
        } else if let Some(s) = &self.tip_states[buffer] {
            ChildOperand::States(s)
        } else {
            panic!("operand buffer {buffer} not initialized (check_operations missed it)");
        }
    }
}

/// Fill one `[s][stride]` category block with `Σ_k a(i, k) · U⁻¹[k, j]`,
/// one row at a time: for row `i`, add `a(i, k) · U⁻¹[k, ·]` over the
/// contiguous row `U⁻¹[k, ·]` for ascending `k`, then narrow to `T`
/// (flooring negatives at zero when `clamp`) and zero the pad columns.
/// `row` is `s`-long `f64` scratch. Each element gets the same unfused
/// products added in the same order as the textbook `i, j, k` dot-product
/// loop, so the bits are the same; the `j` loop just carries no dependency
/// and vectorizes. `k` is register-blocked four at a time: each `row[j]`
/// is loaded once, takes its four terms in ascending `k`, each add rounded
/// on its own, and is stored once, a quarter of the loads and stores of one
/// pass per `k`.
fn spectral_block<T: Real>(
    block: &mut [T],
    inverse_vectors: &[f64],
    row: &mut [f64],
    clamp: bool,
    a: impl Fn(usize, usize) -> f64,
) {
    let s = row.len();
    for (i, out) in block.chunks_exact_mut(block.len() / s).enumerate() {
        row.fill(0.0);
        let mut quads = inverse_vectors.chunks_exact(4 * s);
        for (q, rows) in quads.by_ref().enumerate() {
            let k = 4 * q;
            let (w0, w1, w2, w3) = (a(i, k), a(i, k + 1), a(i, k + 2), a(i, k + 3));
            let (v0, rest) = rows.split_at(s);
            let (v1, rest) = rest.split_at(s);
            let (v2, v3) = rest.split_at(s);
            for ((((r, &x0), &x1), &x2), &x3) in row.iter_mut().zip(v0).zip(v1).zip(v2).zip(v3) {
                let mut acc = *r;
                acc += w0 * x0;
                acc += w1 * x1;
                acc += w2 * x2;
                acc += w3 * x3;
                *r = acc;
            }
        }
        let k0 = s - s % 4;
        for (k, inverse_row) in quads.remainder().chunks_exact(s).enumerate() {
            let w = a(i, k0 + k);
            for (r, &v) in row.iter_mut().zip(inverse_row) {
                *r += w * v;
            }
        }
        for (o, &r) in out.iter_mut().zip(row.iter()) {
            *o = T::from_f64(if clamp { r.max(0.0) } else { r });
        }
        out[s..].fill(T::ZERO);
    }
}

/// A child buffer as seen by a partials kernel.
#[derive(Clone, Copy)]
pub enum ChildOperand<'a, T: Real> {
    /// Full partials, `[category][pattern][state]`.
    Partials(&'a [T]),
    /// Compact observed states per pattern (`GAP_STATE` = missing).
    States(&'a [u32]),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> InstanceConfig {
        InstanceConfig::for_tree(4, 10, 4, 2)
    }

    #[test]
    fn allocation_sizes() {
        let b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        assert_eq!(b.partials.len(), 7);
        assert_eq!(b.matrices.len(), 7);
        assert_eq!(b.matrices[0].len(), 2 * 16);
        assert_eq!(b.scale_buffers.len(), 8);
    }

    #[test]
    fn tip_states_validation() {
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        assert!(b.set_tip_states(0, &[0; 10]).is_ok());
        assert!(b.set_tip_states(0, &[0; 9]).is_err(), "wrong length");
        assert!(b.set_tip_states(9, &[0; 10]).is_err(), "not a tip");
        assert!(b.set_tip_states(0, &[4; 10]).is_err(), "state out of range");
        assert!(
            b.set_tip_states(0, &[GAP_STATE; 10]).is_ok(),
            "gaps allowed"
        );
    }

    #[test]
    fn tip_partials_replicate_categories() {
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        let tp: Vec<f64> = (0..40).map(|x| x as f64).collect();
        b.set_tip_partials(1, &tp).unwrap();
        let got = b.get_partials(1).unwrap();
        assert_eq!(got.len(), 80);
        assert_eq!(&got[..40], &tp[..]);
        assert_eq!(&got[40..], &tp[..]);
    }

    #[test]
    fn compact_tip_expansion() {
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        let mut states = vec![2u32; 10];
        states[3] = GAP_STATE;
        b.set_tip_states(0, &states).unwrap();
        let p = b.get_partials(0).unwrap();
        // Pattern 0, category 0: one-hot on state 2.
        assert_eq!(&p[0..4], &[0.0, 0.0, 1.0, 0.0]);
        // Pattern 3: all ones (gap).
        assert_eq!(&p[12..16], &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn unwritten_buffer_read_fails() {
        let b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        assert!(b.get_partials(5).is_err());
    }

    #[test]
    fn transition_matrix_identity_at_zero_branch() {
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        // JC69 eigen system computed on the fly: use symmetric decomposition
        // of the JC rate matrix; simplest is to set eigenvectors = identity,
        // values = 0, which yields P = V * I * V^-1 = identity for any t.
        let id: Vec<f64> = (0..16)
            .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
            .collect();
        b.set_eigen_decomposition(0, &id, &id, &[0.0; 4]).unwrap();
        b.update_transition_matrices(0, &[2], &[0.7]).unwrap();
        let m = b.get_transition_matrix(2).unwrap();
        for c in 0..2 {
            for i in 0..4 {
                for j in 0..4 {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    assert!((m[c * 16 + i * 4 + j] - expect).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn category_rates_scale_branch_lengths() {
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        // Eigen system for a two-state-style decay on a 4-state identity
        // basis: values = -1 on all states → P = e^{-rate*t} I + ...
        let id: Vec<f64> = (0..16)
            .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
            .collect();
        b.set_eigen_decomposition(0, &id, &id, &[-1.0; 4]).unwrap();
        b.set_category_rates(&[1.0, 2.0]).unwrap();
        b.update_transition_matrices(0, &[0], &[0.5]).unwrap();
        let m = b.get_transition_matrix(0).unwrap();
        assert!(
            (m[0] - (-0.5_f64).exp()).abs() < 1e-12,
            "category 0: e^{{-0.5}}"
        );
        assert!(
            (m[16] - (-1.0_f64).exp()).abs() < 1e-12,
            "category 1: e^{{-1.0}}"
        );
    }

    #[test]
    fn scale_accumulation() {
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        b.scale_buffers[0] = vec![1.0; 10];
        b.scale_buffers[1] = vec![0.5; 10];
        b.reset_scale_factors(7).unwrap();
        b.accumulate_scale_factors(&[0, 1], 7).unwrap();
        assert!(b.scale_buffers[7].iter().all(|&x| (x - 1.5).abs() < 1e-12));
        // Accumulating again adds on top.
        b.accumulate_scale_factors(&[0], 7).unwrap();
        assert!(b.scale_buffers[7].iter().all(|&x| (x - 2.5).abs() < 1e-12));
        assert!(
            b.accumulate_scale_factors(&[7], 7).is_err(),
            "self-accumulation"
        );
    }

    #[test]
    fn padded_layout_invisible_at_api() {
        // 3 states padded to 4 lanes: stride 4, one zero pad lane.
        let cfg = InstanceConfig::for_tree(4, 5, 3, 2);
        let mut padded = InstanceBuffers::<f64>::new_padded(cfg, 4).unwrap();
        let mut dense = InstanceBuffers::<f64>::new(cfg).unwrap();
        assert_eq!(padded.state_stride, 4);
        assert_eq!(dense.state_stride, 3);

        // Partials round-trip identically despite the internal padding.
        let p: Vec<f64> = (0..cfg.partials_len())
            .map(|i| 0.1 + i as f64 * 0.01)
            .collect();
        padded.set_partials(4, &p).unwrap();
        dense.set_partials(4, &p).unwrap();
        assert_eq!(padded.get_partials(4).unwrap(), p);
        assert_eq!(
            padded.get_partials(4).unwrap(),
            dense.get_partials(4).unwrap()
        );
        // Internal pad lanes are exact zeros.
        let raw = padded.partials[4].as_ref().unwrap();
        for pat in raw.chunks_exact(4) {
            assert_eq!(pat[3], 0.0);
        }

        // Tip partials replicate and strip the same way.
        let tp: Vec<f64> = (0..15).map(|i| i as f64).collect();
        padded.set_tip_partials(1, &tp).unwrap();
        dense.set_tip_partials(1, &tp).unwrap();
        assert_eq!(
            padded.get_partials(1).unwrap(),
            dense.get_partials(1).unwrap()
        );

        // Transition matrices: derived and direct, dense at the API.
        let id: Vec<f64> = (0..9).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect();
        padded
            .set_eigen_decomposition(0, &id, &id, &[0.0; 3])
            .unwrap();
        dense
            .set_eigen_decomposition(0, &id, &id, &[0.0; 3])
            .unwrap();
        padded.update_transition_matrices(0, &[2], &[0.7]).unwrap();
        dense.update_transition_matrices(0, &[2], &[0.7]).unwrap();
        assert_eq!(
            padded.get_transition_matrix(2).unwrap(),
            dense.get_transition_matrix(2).unwrap()
        );
        // Pad columns of the stored matrix are exact zeros.
        for row in padded.matrices[2].chunks_exact(4) {
            assert_eq!(row[3], 0.0);
        }
        let m: Vec<f64> = (0..cfg.matrix_len()).map(|i| i as f64 * 0.5).collect();
        padded.set_transition_matrix(3, &m).unwrap();
        assert_eq!(padded.get_transition_matrix(3).unwrap(), m);

        // Frequencies are stored stride-length with zero padding.
        padded.set_state_frequencies(0, &[0.2, 0.3, 0.5]).unwrap();
        assert_eq!(padded.frequencies[0].len(), 4);
        assert_eq!(padded.frequencies[0][3], 0.0);
    }

    /// The textbook `i, j, k` triple loop the row-form kernel replaced, kept
    /// as the bit-exactness oracle. Returns how many elements the clamp
    /// floored, so fixtures can show they exercise it.
    fn reference_matrices<T: Real>(
        b: &mut InstanceBuffers<T>,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<usize> {
        b.check_index("eigen buffer", eigen_index, b.eigens.len())?;
        b.check_len("branch lengths", branch_lengths.len(), matrix_indices.len())?;
        let s = b.config.state_count;
        let eig = b.eigens[eigen_index].clone();
        if eig.values.len() != s {
            return Err(BeagleError::InvalidConfiguration(format!(
                "eigen buffer {eigen_index} has not been set"
            )));
        }
        let sp = b.state_stride;
        let mut clamped = 0;
        for (&m, &t) in matrix_indices.iter().zip(branch_lengths) {
            b.check_index("matrix buffer", m, b.matrices.len())?;
            let rates = b.category_rates.clone();
            let mat = &mut b.matrices[m];
            for (c, &rate) in rates.iter().enumerate() {
                let exps: Vec<f64> = eig.values.iter().map(|&l| (l * rate * t).exp()).collect();
                let block = &mut mat[c * s * sp..(c + 1) * s * sp];
                for i in 0..s {
                    for j in 0..s {
                        let mut acc = 0.0;
                        for k in 0..s {
                            acc +=
                                eig.vectors[i * s + k] * exps[k] * eig.inverse_vectors[k * s + j];
                        }
                        clamped += usize::from(acc < 0.0);
                        block[i * sp + j] = T::from_f64(acc.max(0.0));
                    }
                    block[i * sp + s..(i + 1) * sp].fill(T::ZERO);
                }
            }
        }
        Ok(clamped)
    }

    /// The triple-loop derivative kernel the row-form one replaced, with
    /// `(rate·λ_k)^order` evaluated inside the `j` loop as it was.
    fn reference_derivatives<T: Real>(
        b: &mut InstanceBuffers<T>,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        b.check_index("eigen buffer", eigen_index, b.eigens.len())?;
        b.check_len("branch lengths", branch_lengths.len(), matrix_indices.len())?;
        b.check_len("d1 indices", d1_indices.len(), matrix_indices.len())?;
        b.check_len("d2 indices", d2_indices.len(), matrix_indices.len())?;
        let s = b.config.state_count;
        let eig = b.eigens[eigen_index].clone();
        if eig.values.len() != s {
            return Err(BeagleError::InvalidConfiguration(format!(
                "eigen buffer {eigen_index} has not been set"
            )));
        }
        for (((&m, &d1), &d2), &t) in matrix_indices
            .iter()
            .zip(d1_indices)
            .zip(d2_indices)
            .zip(branch_lengths)
        {
            for idx in [m, d1, d2] {
                b.check_index("matrix buffer", idx, b.matrices.len())?;
            }
            if m == d1 || m == d2 || d1 == d2 {
                return Err(BeagleError::InvalidConfiguration(
                    "probability and derivative buffers must be distinct".into(),
                ));
            }
            let rates = b.category_rates.clone();
            let sp = b.state_stride;
            for (c, &rate) in rates.iter().enumerate() {
                let exps: Vec<f64> = eig.values.iter().map(|&l| (l * rate * t).exp()).collect();
                for (order, target) in [(0u32, m), (1, d1), (2, d2)] {
                    let block_start = c * s * sp;
                    for i in 0..s {
                        for j in 0..s {
                            let mut acc = 0.0;
                            for k in 0..s {
                                let w = (rate * eig.values[k]).powi(order as i32);
                                acc += eig.vectors[i * s + k]
                                    * w
                                    * exps[k]
                                    * eig.inverse_vectors[k * s + j];
                            }
                            let v = if order == 0 { acc.max(0.0) } else { acc };
                            b.matrices[target][block_start + i * sp + j] = T::from_f64(v);
                        }
                        b.matrices[target][block_start + i * sp + s..block_start + (i + 1) * sp]
                            .fill(T::ZERO);
                    }
                }
            }
        }
        Ok(())
    }

    /// Deterministic values in `[-1, 1)`.
    fn noise(seed: u64, len: usize) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    /// Two eigen systems per state count: F81 with unequal frequencies
    /// (`U = Π^{-1/2} H`, `U⁻¹ = H Π^{1/2}` for the Householder reflection
    /// `H` taking `e_0` to `√π`), whose near-zero entries come out as
    /// round-off of either sign; and an arbitrary one (independent `U`,
    /// `U⁻¹`, spread eigenvalues) with large signed sums.
    fn eigen_fixtures(s: usize) -> [(Vec<f64>, Vec<f64>, Vec<f64>); 2] {
        let total: f64 = (0..s).map(|i| (1 + i % 3) as f64).sum();
        let root: Vec<f64> = (0..s)
            .map(|i| ((1 + i % 3) as f64 / total).sqrt())
            .collect();
        let mut u: Vec<f64> = root.iter().map(|r| -r).collect();
        u[0] += 1.0;
        let uu: f64 = u.iter().map(|x| x * x).sum();
        let h = |i: usize, j: usize| f64::from(u8::from(i == j)) - 2.0 * u[i] * u[j] / uu;
        let vectors = (0..s * s).map(|ij| h(ij / s, ij % s) / root[ij / s]);
        let inverse = (0..s * s).map(|ij| h(ij / s, ij % s) * root[ij % s]);
        let mut f81 = vec![-1.0; s];
        f81[0] = 0.0;
        let spread: Vec<f64> = noise(s as u64 + 3, s)
            .iter()
            .map(|x| 2.0 * x - 2.0)
            .collect();
        [
            (vectors.collect(), inverse.collect(), f81),
            (noise(s as u64, s * s), noise(s as u64 + 1, s * s), spread),
        ]
    }

    /// Buffers in the three layouts the back-ends use (f64 dense, f64
    /// padded to 4 lanes, f32 padded to 8 lanes), with matrices pre-filled
    /// with garbage so pad zeroing shows.
    fn kernel_fixture<T: Real>(s: usize, lanes: usize) -> InstanceBuffers<T> {
        let mut b =
            InstanceBuffers::<T>::new_padded(InstanceConfig::for_tree(8, 3, s, 4), lanes).unwrap();
        b.set_category_rates(&[0.0, 0.3, 1.0, 2.7]).unwrap();
        for m in b.matrices.iter_mut() {
            m.fill(T::from_f64(7.5));
        }
        b
    }

    fn bits<T: Real>(b: &InstanceBuffers<T>) -> Vec<Vec<u64>> {
        b.matrices
            .iter()
            .map(|m| m.iter().map(|x| x.to_f64().to_bits()).collect())
            .collect()
    }

    const LENGTHS: [f64; 4] = [0.0, 1e-8, 0.1, 5.0];

    fn assert_row_form_bit_exact<T: Real>(lanes: usize) {
        for s in [4, 20, 61] {
            for (fixture, (u, inv, values)) in eigen_fixtures(s).into_iter().enumerate() {
                let mut new = kernel_fixture::<T>(s, lanes);
                new.set_eigen_decomposition(0, &u, &inv, &values).unwrap();
                let mut old = new.clone();
                new.update_transition_matrices(0, &[3, 0, 7, 14], &LENGTHS)
                    .unwrap();
                let clamped = reference_matrices(&mut old, 0, &[3, 0, 7, 14], &LENGTHS).unwrap();
                assert!(clamped > 0, "s={s} fixture {fixture} never clamps");
                assert_eq!(bits(&new), bits(&old), "P, s={s} fixture {fixture}");

                let (m, d1, d2) = ([0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 14]);
                new.update_transition_derivatives(0, &m, &d1, &d2, &LENGTHS)
                    .unwrap();
                reference_derivatives(&mut old, 0, &m, &d1, &d2, &LENGTHS).unwrap();
                assert_eq!(
                    bits(&new),
                    bits(&old),
                    "P, P', P'', s={s} fixture {fixture}"
                );
            }
        }
    }

    #[test]
    fn row_form_matrices_are_bit_identical_to_the_triple_loop() {
        assert_row_form_bit_exact::<f64>(1);
        assert_row_form_bit_exact::<f64>(4);
        assert_row_form_bit_exact::<f32>(8);
    }

    #[test]
    fn row_form_error_paths_match_the_triple_loop() {
        let [_, (u, inv, values)] = eigen_fixtures(20);
        let mut new = kernel_fixture::<f32>(20, 8);
        let mut old = new.clone();
        let unset = format!("{:?}", new.update_transition_matrices(0, &[1], &[0.1]));
        assert!(unset.contains("has not been set"), "{unset}");
        assert_eq!(
            unset,
            format!(
                "{:?}",
                reference_matrices(&mut old, 0, &[1], &[0.1]).map(|_| ())
            )
        );
        assert_eq!(
            format!(
                "{:?}",
                new.update_transition_derivatives(0, &[1], &[2], &[3], &[0.1])
            ),
            format!(
                "{:?}",
                reference_derivatives(&mut old, 0, &[1], &[2], &[3], &[0.1])
            ),
        );

        new.set_eigen_decomposition(0, &u, &inv, &values).unwrap();
        old.set_eigen_decomposition(0, &u, &inv, &values).unwrap();
        let untouched = bits(&new);
        // A bad index part-way through: the earlier matrices are written,
        // the later ones are not.
        let (idx, len) = ([1, 2, 99, 3], [0.1, 0.2, 0.3, 0.4]);
        let err = format!("{:?}", new.update_transition_matrices(0, &idx, &len));
        assert!(err.contains("OutOfRange"), "{err}");
        assert_eq!(
            err,
            format!(
                "{:?}",
                reference_matrices(&mut old, 0, &idx, &len).map(|_| ())
            )
        );
        assert_eq!(bits(&new), bits(&old));
        assert_ne!(bits(&new)[2], untouched[2]);
        assert_eq!(bits(&new)[3], untouched[3]);

        // Derivatives: a bad index, then an aliased triple, part-way.
        for (m, d1, d2) in [([4, 5], [6, 99], [7, 8]), ([9, 10], [11, 12], [13, 10])] {
            let err = format!(
                "{:?}",
                new.update_transition_derivatives(0, &m, &d1, &d2, &len[..2])
            );
            assert!(err.starts_with("Err("), "{err}");
            let reference = reference_derivatives(&mut old, 0, &m, &d1, &d2, &len[..2]);
            assert_eq!(err, format!("{reference:?}"));
            assert_eq!(bits(&new), bits(&old));
            assert_ne!(bits(&new)[m[0]], untouched[m[0]], "first triple written");
            assert_eq!(
                bits(&new)[m[1]],
                untouched[m[1]],
                "second triple not written"
            );
        }
    }

    #[test]
    fn operation_validation() {
        use crate::ops::Operation;
        let mut b = InstanceBuffers::<f64>::new(cfg()).unwrap();
        b.set_tip_states(0, &[0; 10]).unwrap();
        b.set_tip_states(1, &[1; 10]).unwrap();
        let ok = Operation::new(4, 0, 0, 1, 1);
        assert!(b.check_operations(&[ok]).is_ok());
        let bad_dest = Operation::new(99, 0, 0, 1, 1);
        assert!(b.check_operations(&[bad_dest]).is_err());
        let unwritten_child = Operation::new(4, 2, 2, 1, 1);
        assert!(b.check_operations(&[unwritten_child]).is_err());
        // A child produced earlier in the list is readable; a later one not.
        let parent = Operation::new(5, 4, 4, 1, 1);
        assert!(b.check_operations(&[ok, parent]).is_ok());
        assert!(b.check_operations(&[parent, ok]).is_err());
    }
}
