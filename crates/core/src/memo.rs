//! Epoch-based incremental computation: skip work whose inputs are
//! bit-identical to what the destination already holds.
//!
//! The paper's workloads are MCMC-driven: each proposal perturbs one branch
//! or one model parameter, yet a naive client refreshes every partial on
//! every move. BEAGLE leaves dirty tracking to clients (BEAST does it);
//! [`MemoInstance`] instead does it *inside* the library, as generic
//! operation memoization that every caller benefits from.
//!
//! # Scheme
//!
//! Every mutable buffer space (partials/tips, transition matrices, eigen
//! systems, category rates/weights, state frequencies, pattern weights,
//! scale factors) carries an **epoch**: the value of a per-instance logical
//! clock at the buffer's last actual write. Every destination additionally
//! carries an **input signature** describing exactly how its current
//! content was produced:
//!
//! * a partials destination holds `Op { op, child/matrix epochs }` after an
//!   executed operation, or `Direct` after a `set_*` (content kept for
//!   bit-compare);
//! * a matrix buffer holds `Derived { eigen epoch, rates epoch, t bits }`
//!   after `update_transition_matrices`, or `Direct` after
//!   `set_transition_matrix`;
//! * a cumulative scale buffer holds `Reset`, `OpScale` or `Accumulated`
//!   signatures mirroring the scale-factor bookkeeping calls.
//!
//! A call whose candidate signature equals the destination's stored
//! signature would write bit-identical content, so it is skipped entirely.
//! Mutating `set_*` calls are deduplicated by **full bit-pattern
//! comparison** (never hashed), so a skip can never be wrong.
//!
//! # Placement and toggling
//!
//! The manager installs the memo directly above the raw back-end — *below*
//! the operation queue, rescue, checkpoint and partitioned wrappers — so
//! deferred flushes, rescue re-runs, journal replays and checkpoint
//! restores all flow through it with their real call shapes. Bookkeeping
//! runs unconditionally; the `enabled` flag only gates the *skip decision*,
//! so [`BeagleInstance::set_incremental`] can be toggled mid-run without
//! ever desynchronizing the epoch state. `BEAGLE_INCREMENTAL_DISABLE=1`
//! prevents installation entirely (the escape hatch reproduces baseline
//! bits *and* timings).
//!
//! # Error handling
//!
//! If a forwarded call fails, every destination it might have touched gets
//! its epoch bumped and its signature cleared: the back-end's state is
//! unknown, so nothing downstream may be skipped. A queued retry after a
//! transient fault therefore re-executes rather than falsely skipping.

use std::collections::{BTreeSet, HashMap};

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::error::Result;
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;

/// Environment variable that disables the incremental layer at creation
/// (the memo wrapper is not installed at all).
pub const INCREMENTAL_DISABLE_ENV: &str = "BEAGLE_INCREMENTAL_DISABLE";

/// Whether the environment disables incremental computation globally.
pub fn incremental_disabled_by_env() -> bool {
    std::env::var(INCREMENTAL_DISABLE_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Skip/hit counters of one [`MemoInstance`], exposed through
/// [`BeagleInstance::memo_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Whether the skip decision is currently enabled.
    pub enabled: bool,
    /// Partials operations skipped (destination already held the result).
    pub ops_skipped: u64,
    /// Partials operations actually forwarded to the back-end.
    pub ops_executed: u64,
    /// Transition-matrix derivations skipped.
    pub matrices_skipped: u64,
    /// Transition-matrix derivations actually forwarded.
    pub matrices_computed: u64,
    /// Root/edge integrations answered from the cached value.
    pub integrations_skipped: u64,
    /// Root/edge integrations actually forwarded.
    pub integrations_computed: u64,
    /// Mutating `set_*` calls elided because the content was bit-identical.
    pub sets_deduped: u64,
    /// Deferred `reset_scale_factors` + `accumulate_scale_factors` pairs
    /// skipped together because the cumulative buffer already held the
    /// identical accumulation.
    pub scale_pairs_skipped: u64,
}

impl MemoStats {
    /// Total number of skipped units of work, across every category. The
    /// partitioned parent compares this before/after a child call to keep
    /// partially-skipped batches out of the load balancer's rate estimates.
    pub fn total_skips(&self) -> u64 {
        self.ops_skipped
            + self.matrices_skipped
            + self.integrations_skipped
            + self.sets_deduped
            + self.scale_pairs_skipped
    }

    /// Fold another child's counters into this one (used by
    /// [`crate::multi::PartitionedInstance`] to aggregate across children).
    /// `enabled` stays true only if every merged child has skipping on.
    pub fn merge(&mut self, other: &MemoStats) {
        self.enabled &= other.enabled;
        self.ops_skipped += other.ops_skipped;
        self.ops_executed += other.ops_executed;
        self.matrices_skipped += other.matrices_skipped;
        self.matrices_computed += other.matrices_computed;
        self.integrations_skipped += other.integrations_skipped;
        self.integrations_computed += other.integrations_computed;
        self.sets_deduped += other.sets_deduped;
        self.scale_pairs_skipped += other.scale_pairs_skipped;
    }
}

/// The buffer a `set_*` call writes, named by the call: tip states, tip
/// partials and full partials all write the partials space, but equal bits
/// from two of them are different content.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SetTarget {
    TipStates(usize),
    TipPartials(usize),
    Partials(usize),
    Matrix(usize),
    Eigen(usize),
    Frequencies(usize),
    CategoryWeights(usize),
    CategoryRates,
    PatternWeights,
}

/// How a partials destination got its current content.
#[derive(Clone, Copy, Debug, PartialEq)]
enum PartialsSig {
    /// Set directly by this call; the bits live in `partials_content`.
    Direct(SetTarget),
    /// Produced by `op` when its inputs had these epochs.
    Op {
        op: Operation,
        c1: u64,
        m1: u64,
        c2: u64,
        m2: u64,
    },
}

/// How a transition-matrix buffer got its current content.
#[derive(Clone, Debug, PartialEq)]
enum MatrixSig {
    /// Set directly; the bits live in `matrix_content`.
    Direct,
    /// Derived from an eigen system and a branch length.
    Derived {
        eigen_index: usize,
        eigen_epoch: u64,
        rates_epoch: u64,
        t_bits: u64,
    },
}

/// How a scale buffer got its current content.
#[derive(Clone, Debug, PartialEq)]
enum ScaleSig {
    /// Zeroed by `reset_scale_factors`.
    Reset,
    /// Holds the per-op rescale factors written for `dest` at `dest_epoch`.
    OpScale { dest: usize, dest_epoch: u64 },
    /// Holds `reset` + `accumulate` of these `(scale index, epoch)` pairs.
    Accumulated(Vec<(usize, u64)>),
}

/// Signature of the most recent root/edge integration.
#[derive(Clone, Debug, PartialEq)]
struct IntegrationSig {
    edge: bool,
    buffers: [usize; 3],
    part_epochs: [u64; 2],
    matrix_epoch: u64,
    catw: (usize, u64),
    freq: (usize, u64),
    pattern_weights_epoch: u64,
    scaling: ScalingMode,
    scale_epoch: u64,
}

/// The bit pattern of `data` in `u32` words, the unit of every stored
/// `set_*` copy (tip states are `u32`s already).
fn bits(data: &[f64]) -> impl Iterator<Item = u32> + '_ {
    data.iter().flat_map(|x| split(x.to_bits()))
}

/// The low and high halves of `word`.
fn split(word: u64) -> [u32; 2] {
    [word as u32, (word >> 32) as u32]
}

fn epoch_at(v: &[u64], i: usize) -> u64 {
    v.get(i).copied().unwrap_or(0)
}

fn bump_at(v: &mut Vec<u64>, i: usize, epoch: u64) {
    if i >= v.len() {
        v.resize(i + 1, 0);
    }
    v[i] = epoch;
}

fn slot<T>(v: &mut Vec<Option<T>>, i: usize) -> &mut Option<T> {
    if i >= v.len() {
        v.resize_with(i + 1, || None);
    }
    &mut v[i]
}

fn get_slot<T>(v: &[Option<T>], i: usize) -> Option<&T> {
    v.get(i).and_then(|s| s.as_ref())
}

/// The incremental memoization wrapper. See the module docs for the scheme;
/// created by the manager directly above the raw back-end.
pub struct MemoInstance {
    inner: Box<dyn BeagleInstance>,
    enabled: bool,
    clock: u64,

    partials_epoch: Vec<u64>,
    partials_sig: Vec<Option<PartialsSig>>,
    partials_content: Vec<Option<Vec<u32>>>,

    matrix_epoch: Vec<u64>,
    matrix_sig: Vec<Option<MatrixSig>>,
    matrix_content: Vec<Option<Vec<u32>>>,

    eigen_epoch: Vec<u64>,
    eigen_content: Vec<Option<Vec<u32>>>,

    freq_epoch: Vec<u64>,
    freq_content: Vec<Option<Vec<u32>>>,

    catw_epoch: Vec<u64>,
    catw_content: Vec<Option<Vec<u32>>>,

    // One-buffer spaces, kept as vectors so every `set_*` commits alike.
    rates_epoch: Vec<u64>,
    rates_content: Vec<Option<Vec<u32>>>,

    pattern_weights_epoch: Vec<u64>,
    pattern_weights_content: Vec<Option<Vec<u32>>>,

    scale_epoch: Vec<u64>,
    scale_sig: Vec<Option<ScaleSig>>,
    pending_resets: BTreeSet<usize>,

    last_integration: Option<(IntegrationSig, f64)>,

    /// The words of the `set_*` call in flight (see `set_direct`).
    scratch: Vec<u32>,

    stats: MemoStats,
    recorder: Recorder,
}

impl MemoInstance {
    /// Wrap a raw back-end instance.
    pub fn new(inner: Box<dyn BeagleInstance>) -> Self {
        let recorder = Recorder::new(inner.statistics().is_some());
        let cfg = *inner.config();
        Self {
            inner,
            enabled: true,
            clock: 0,
            partials_epoch: vec![0; cfg.partials_buffer_count],
            partials_sig: Vec::new(),
            partials_content: Vec::new(),
            matrix_epoch: vec![0; cfg.matrix_buffer_count],
            matrix_sig: Vec::new(),
            matrix_content: Vec::new(),
            eigen_epoch: vec![0; cfg.eigen_buffer_count],
            eigen_content: Vec::new(),
            freq_epoch: Vec::new(),
            freq_content: Vec::new(),
            catw_epoch: Vec::new(),
            catw_content: Vec::new(),
            rates_epoch: Vec::new(),
            rates_content: Vec::new(),
            pattern_weights_epoch: Vec::new(),
            pattern_weights_content: Vec::new(),
            scale_epoch: vec![0; cfg.scale_buffer_count],
            scale_sig: Vec::new(),
            pending_resets: BTreeSet::new(),
            last_integration: None,
            scratch: Vec::new(),
            stats: MemoStats {
                enabled: true,
                ..MemoStats::default()
            },
            recorder,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The epoch and stored content of the buffer `target` writes.
    fn direct_slot(&mut self, target: SetTarget) -> (&mut u64, &mut Option<Vec<u32>>) {
        let (epochs, contents, i) = match target {
            SetTarget::TipStates(i) | SetTarget::TipPartials(i) | SetTarget::Partials(i) => {
                (&mut self.partials_epoch, &mut self.partials_content, i)
            }
            SetTarget::Matrix(i) => (&mut self.matrix_epoch, &mut self.matrix_content, i),
            SetTarget::Eigen(i) => (&mut self.eigen_epoch, &mut self.eigen_content, i),
            SetTarget::Frequencies(i) => (&mut self.freq_epoch, &mut self.freq_content, i),
            SetTarget::CategoryWeights(i) => (&mut self.catw_epoch, &mut self.catw_content, i),
            SetTarget::CategoryRates => (&mut self.rates_epoch, &mut self.rates_content, 0),
            SetTarget::PatternWeights => (
                &mut self.pattern_weights_epoch,
                &mut self.pattern_weights_content,
                0,
            ),
        };
        if i >= epochs.len() {
            epochs.resize(i + 1, 0);
        }
        (&mut epochs[i], slot(contents, i))
    }

    /// Whether `target`'s stored content is still what a `set_*` wrote.
    /// Partials and matrix buffers are also written by derived results,
    /// which replace their `Direct` signature.
    fn holds_direct(&self, target: SetTarget) -> bool {
        match target {
            SetTarget::TipStates(i) | SetTarget::TipPartials(i) | SetTarget::Partials(i) => {
                get_slot(&self.partials_sig, i) == Some(&PartialsSig::Direct(target))
            }
            SetTarget::Matrix(i) => get_slot(&self.matrix_sig, i) == Some(&MatrixSig::Direct),
            _ => true,
        }
    }

    /// Record a forwarded write to `target`: a new epoch either way, with
    /// the written bits (`Some`) or with nothing (`None`: the call failed,
    /// so the buffer's content is unknown and nothing reading it may be
    /// skipped).
    fn commit_direct(&mut self, target: SetTarget, content: Option<Vec<u32>>) {
        let e = self.tick();
        let stored = content.is_some();
        match target {
            SetTarget::TipStates(i) | SetTarget::TipPartials(i) | SetTarget::Partials(i) => {
                *slot(&mut self.partials_sig, i) = stored.then_some(PartialsSig::Direct(target));
            }
            SetTarget::Matrix(i) => {
                *slot(&mut self.matrix_sig, i) = stored.then_some(MatrixSig::Direct);
            }
            _ => {}
        }
        let (epoch, stored_content) = self.direct_slot(target);
        *epoch = e;
        *stored_content = content;
        self.last_integration = None;
    }

    /// The one `set_*` path: skip the call when `target` already holds
    /// bit-identical `words`, otherwise forward it and commit the outcome.
    /// The words go into a reused scratch buffer and compare as one slice,
    /// so a deduplicated call allocates nothing.
    fn set_direct(
        &mut self,
        target: SetTarget,
        words: impl Iterator<Item = u32>,
        forward: impl FnOnce(&mut dyn BeagleInstance) -> Result<()>,
    ) -> Result<()> {
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        payload.extend(words);
        let same =
            self.holds_direct(target) && self.direct_slot(target).1.as_ref() == Some(&payload);
        let result = if same {
            self.stats.sets_deduped += 1;
            if self.enabled {
                Ok(())
            } else {
                forward(self.inner.as_mut())
            }
        } else {
            let result = forward(self.inner.as_mut());
            self.commit_direct(target, result.is_ok().then(|| payload.clone()));
            result
        };
        self.scratch = payload;
        result
    }

    fn poison_scale(&mut self, index: usize) {
        let e = self.tick();
        bump_at(&mut self.scale_epoch, index, e);
        *slot(&mut self.scale_sig, index) = None;
        self.pending_resets.remove(&index);
        self.last_integration = None;
    }

    /// Execute any deferred `reset_scale_factors` whose buffer appears in
    /// `touched`, preserving the client's original call order.
    fn flush_resets_among(&mut self, touched: &[usize]) -> Result<()> {
        for &c in touched {
            if !self.pending_resets.remove(&c) {
                continue;
            }
            match self.inner.reset_scale_factors(c) {
                Ok(()) => {
                    let e = self.tick();
                    bump_at(&mut self.scale_epoch, c, e);
                    *slot(&mut self.scale_sig, c) = Some(ScaleSig::Reset);
                }
                Err(e) => {
                    self.poison_scale(c);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Plan one operation list: split into skipped ops and a forwarded
    /// remainder, with the epoch/signature commits to apply on success.
    /// `tent` carries tentative epochs of destinations already planned for
    /// execution earlier in the same submission (sequential semantics).
    #[allow(clippy::type_complexity)]
    fn plan_ops(
        &self,
        operations: &[Operation],
        tent: &mut HashMap<usize, u64>,
        next_epoch: &mut u64,
    ) -> (
        Vec<Operation>,
        Vec<(Operation, PartialsSig, u64, Option<u64>)>,
        u64,
    ) {
        let mut forward = Vec::new();
        let mut commits = Vec::new();
        let mut skipped = 0u64;
        for &op in operations {
            let part_epoch = |b: usize| {
                tent.get(&b)
                    .copied()
                    .unwrap_or_else(|| epoch_at(&self.partials_epoch, b))
            };
            let sig = PartialsSig::Op {
                op,
                c1: part_epoch(op.child1),
                m1: epoch_at(&self.matrix_epoch, op.child1_matrix),
                c2: part_epoch(op.child2),
                m2: epoch_at(&self.matrix_epoch, op.child2_matrix),
            };
            let scale_clean = match op.dest_scale_write {
                None => true,
                Some(s) => {
                    // Skipping the op also skips its scale-factor write, so
                    // the scale buffer must already hold this op's factors
                    // for the destination's current content.
                    get_slot(&self.scale_sig, s)
                        == Some(&ScaleSig::OpScale {
                            dest: op.destination,
                            dest_epoch: part_epoch(op.destination),
                        })
                }
            };
            if self.enabled
                && scale_clean
                && get_slot(&self.partials_sig, op.destination) == Some(&sig)
            {
                skipped += 1;
                continue;
            }
            *next_epoch += 1;
            let dest_epoch = *next_epoch;
            tent.insert(op.destination, dest_epoch);
            let scale_epoch = op.dest_scale_write.map(|_| {
                *next_epoch += 1;
                *next_epoch
            });
            forward.push(op);
            commits.push((op, sig, dest_epoch, scale_epoch));
        }
        (forward, commits, skipped)
    }

    /// Apply the planned commits after the back-end accepted the forwarded
    /// operations.
    fn commit_ops(&mut self, commits: Vec<(Operation, PartialsSig, u64, Option<u64>)>) {
        for (op, sig, dest_epoch, scale_epoch) in commits {
            bump_at(&mut self.partials_epoch, op.destination, dest_epoch);
            *slot(&mut self.partials_sig, op.destination) = Some(sig);
            *slot(&mut self.partials_content, op.destination) = None;
            if let (Some(s), Some(se)) = (op.dest_scale_write, scale_epoch) {
                bump_at(&mut self.scale_epoch, s, se);
                *slot(&mut self.scale_sig, s) = Some(ScaleSig::OpScale {
                    dest: op.destination,
                    dest_epoch,
                });
            }
            self.clock = self.clock.max(dest_epoch).max(scale_epoch.unwrap_or(0));
        }
        self.last_integration = None;
    }

    /// Invalidate every destination of a failed forwarded submission.
    fn poison_ops(&mut self, commits: &[(Operation, PartialsSig, u64, Option<u64>)]) {
        for (op, _, _, _) in commits {
            self.commit_direct(SetTarget::Partials(op.destination), None);
            if let Some(s) = op.dest_scale_write {
                self.poison_scale(s);
            }
        }
    }

    /// The signature of a root integration at `parent` (`edge` is `None`)
    /// or of an edge integration to `(child, matrix)`. Lands any deferred
    /// reset of the cumulative scale buffer first.
    fn integration_sig(
        &mut self,
        parent: BufferId,
        edge: Option<(BufferId, BufferId)>,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<IntegrationSig> {
        let scale_epoch = match scaling {
            ScalingMode::None => 0,
            ScalingMode::Cumulative(c) => {
                self.flush_resets_among(&[c.0])?;
                epoch_at(&self.scale_epoch, c.0)
            }
        };
        // A root integration reads no child or matrix: out-of-range indices
        // give them epoch 0.
        let (child, matrix) = edge.map_or((usize::MAX, usize::MAX), |(c, m)| (c.0, m.0));
        Ok(IntegrationSig {
            edge: edge.is_some(),
            buffers: [parent.0, child, matrix],
            part_epochs: [
                epoch_at(&self.partials_epoch, parent.0),
                epoch_at(&self.partials_epoch, child),
            ],
            matrix_epoch: epoch_at(&self.matrix_epoch, matrix),
            catw: (
                category_weights.0,
                epoch_at(&self.catw_epoch, category_weights.0),
            ),
            freq: (frequencies.0, epoch_at(&self.freq_epoch, frequencies.0)),
            pattern_weights_epoch: epoch_at(&self.pattern_weights_epoch, 0),
            scaling,
            scale_epoch,
        })
    }

    /// Answer an integration from the cached value when `sig` matches the
    /// last one; otherwise run `integrate` and cache a finite result.
    fn integrate_memoized(
        &mut self,
        sig: IntegrationSig,
        what: impl FnOnce() -> String,
        integrate: impl FnOnce(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64> {
        if let Some((cached, value)) = &self.last_integration {
            if self.enabled && cached == &sig {
                let v = *value;
                self.stats.integrations_skipped += 1;
                self.recorder
                    .event(EventKind::IncrementalSkip, || format!("{} -> {v}", what()));
                return Ok(v);
            }
        }
        self.stats.integrations_computed += 1;
        let r = integrate(self.inner.as_mut());
        self.last_integration = match &r {
            Ok(v) if v.is_finite() => Some((sig, *v)),
            _ => None,
        };
        r
    }

    fn skip_event(&mut self, what: &str, skipped: u64, total: usize) {
        self.stats.ops_skipped += skipped;
        let enabled = self.recorder.is_enabled();
        if enabled && skipped > 0 {
            self.recorder.event(EventKind::IncrementalSkip, || {
                format!("{what}: skipped {skipped}/{total} ops")
            });
        }
    }
}

impl BeagleInstance for MemoInstance {
    fn wrapped(&self) -> Option<&dyn BeagleInstance> {
        Some(self.inner.as_ref())
    }

    fn wrapped_mut(&mut self) -> Option<&mut dyn BeagleInstance> {
        Some(self.inner.as_mut())
    }

    fn details(&self) -> &InstanceDetails {
        self.inner.details()
    }

    fn config(&self) -> &InstanceConfig {
        self.inner.config()
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.set_direct(SetTarget::TipStates(tip), states.iter().copied(), |inner| {
            inner.set_tip_states(tip, states)
        })
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::TipPartials(tip), bits(partials), |inner| {
            inner.set_tip_partials(tip, partials)
        })
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::Partials(buffer), bits(partials), |inner| {
            inner.set_partials(buffer, partials)
        })
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        self.inner.get_partials(buffer)
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::PatternWeights, bits(weights), |inner| {
            inner.set_pattern_weights(weights)
        })
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::Frequencies(index), bits(frequencies), |inner| {
            inner.set_state_frequencies(index, frequencies)
        })
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::CategoryRates, bits(rates), |inner| {
            inner.set_category_rates(rates)
        })
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::CategoryWeights(index), bits(weights), |inner| {
            inner.set_category_weights(index, weights)
        })
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        // Leading part lengths keep a differently split call from matching.
        let words = split(vectors.len() as u64)
            .into_iter()
            .chain(split(inverse_vectors.len() as u64))
            .chain(bits(vectors))
            .chain(bits(inverse_vectors))
            .chain(bits(values));
        self.set_direct(SetTarget::Eigen(index), words, |inner| {
            inner.set_eigen_decomposition(index, vectors, inverse_vectors, values)
        })
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        if matrix_indices.len() != branch_lengths.len() {
            // Malformed call; let the back-end produce its usual error.
            return self.inner.update_transition_matrices(
                eigen_index,
                matrix_indices,
                branch_lengths,
            );
        }
        let eigen_epoch = epoch_at(&self.eigen_epoch, eigen_index);
        let rates_epoch = epoch_at(&self.rates_epoch, 0);
        let mut fwd_idx = Vec::new();
        let mut fwd_len = Vec::new();
        let mut sigs = Vec::new();
        let mut skipped = 0u64;
        for (&idx, &t) in matrix_indices.iter().zip(branch_lengths) {
            let sig = MatrixSig::Derived {
                eigen_index,
                eigen_epoch,
                rates_epoch,
                t_bits: t.to_bits(),
            };
            if self.enabled && get_slot(&self.matrix_sig, idx) == Some(&sig) {
                skipped += 1;
                continue;
            }
            fwd_idx.push(idx);
            fwd_len.push(t);
            sigs.push((idx, sig));
        }
        self.stats.matrices_skipped += skipped;
        if skipped > 0 && self.recorder.is_enabled() {
            let total = matrix_indices.len();
            self.recorder.event(EventKind::IncrementalSkip, || {
                format!("transition matrices: skipped {skipped}/{total}")
            });
        }
        if fwd_idx.is_empty() {
            return Ok(());
        }
        self.stats.matrices_computed += fwd_idx.len() as u64;
        match self
            .inner
            .update_transition_matrices(eigen_index, &fwd_idx, &fwd_len)
        {
            Ok(()) => {
                for (idx, sig) in sigs {
                    let e = self.tick();
                    bump_at(&mut self.matrix_epoch, idx, e);
                    *slot(&mut self.matrix_sig, idx) = Some(sig);
                    *slot(&mut self.matrix_content, idx) = None;
                }
                self.last_integration = None;
                Ok(())
            }
            Err(e) => {
                for (idx, _) in sigs {
                    self.commit_direct(SetTarget::Matrix(idx), None);
                }
                Err(e)
            }
        }
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        // Derivative buffers are not modeled by signatures; invalidate every
        // written matrix so nothing downstream is ever falsely skipped.
        let r = self.inner.update_transition_derivatives(
            eigen_index,
            matrix_indices,
            d1_indices,
            d2_indices,
            branch_lengths,
        );
        for &idx in matrix_indices.iter().chain(d1_indices).chain(d2_indices) {
            self.commit_direct(SetTarget::Matrix(idx), None);
        }
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn integrate_edge_derivatives(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        d1_matrix: BufferId,
        d2_matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<(f64, f64, f64)> {
        if let ScalingMode::Cumulative(c) = scaling {
            self.flush_resets_among(&[c.0])?;
        }
        // Overwrites the back-end's site-likelihood state; drop the cached
        // integration so a later identical root/edge call re-executes.
        self.last_integration = None;
        self.inner.integrate_edge_derivatives(
            parent,
            child,
            matrix,
            d1_matrix,
            d2_matrix,
            category_weights,
            frequencies,
            scaling,
        )
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.set_direct(SetTarget::Matrix(index), bits(matrix), |inner| {
            inner.set_transition_matrix(index, matrix)
        })
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.inner.get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        let scale_targets: Vec<usize> = operations
            .iter()
            .filter_map(|op| op.dest_scale_write)
            .collect();
        self.flush_resets_among(&scale_targets)?;
        let mut tent = HashMap::new();
        let mut next_epoch = self.clock;
        let (forward, commits, skipped) = self.plan_ops(operations, &mut tent, &mut next_epoch);
        self.skip_event("update_partials", skipped, operations.len());
        if forward.is_empty() {
            return Ok(());
        }
        self.stats.ops_executed += forward.len() as u64;
        match self.inner.update_partials(&forward) {
            Ok(()) => {
                self.commit_ops(commits);
                Ok(())
            }
            Err(e) => {
                self.poison_ops(&commits);
                Err(e)
            }
        }
    }

    fn update_partials_by_levels(&mut self, levels: &[Vec<Operation>]) -> Result<()> {
        let scale_targets: Vec<usize> = levels
            .iter()
            .flatten()
            .filter_map(|op| op.dest_scale_write)
            .collect();
        self.flush_resets_among(&scale_targets)?;
        let mut tent = HashMap::new();
        let mut next_epoch = self.clock;
        let mut fwd_levels: Vec<Vec<Operation>> = Vec::new();
        let mut all_commits = Vec::new();
        let mut skipped = 0u64;
        let mut total = 0usize;
        for level in levels {
            total += level.len();
            let (forward, commits, s) = self.plan_ops(level, &mut tent, &mut next_epoch);
            skipped += s;
            all_commits.extend(commits);
            if !forward.is_empty() {
                fwd_levels.push(forward);
            }
        }
        self.skip_event("update_partials_by_levels", skipped, total);
        if fwd_levels.is_empty() {
            return Ok(());
        }
        self.stats.ops_executed += all_commits.len() as u64;
        match self.inner.update_partials_by_levels(&fwd_levels) {
            Ok(()) => {
                self.commit_ops(all_commits);
                Ok(())
            }
            Err(e) => {
                self.poison_ops(&all_commits);
                Err(e)
            }
        }
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        if self.enabled {
            if get_slot(&self.scale_sig, cumulative) == Some(&ScaleSig::Reset)
                && !self.pending_resets.contains(&cumulative)
            {
                // Already zeroed; re-zeroing is a no-op.
                self.stats.sets_deduped += 1;
                return Ok(());
            }
            // Defer: a matching accumulate may prove the whole pair clean.
            self.pending_resets.insert(cumulative);
            return Ok(());
        }
        match self.inner.reset_scale_factors(cumulative) {
            Ok(()) => {
                if get_slot(&self.scale_sig, cumulative) != Some(&ScaleSig::Reset) {
                    let e = self.tick();
                    bump_at(&mut self.scale_epoch, cumulative, e);
                    *slot(&mut self.scale_sig, cumulative) = Some(ScaleSig::Reset);
                    self.last_integration = None;
                }
                Ok(())
            }
            Err(e) => {
                self.poison_scale(cumulative);
                Err(e)
            }
        }
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        // A pending reset of one of the *source* buffers must land first.
        let sources: Vec<usize> = scale_indices
            .iter()
            .copied()
            .filter(|i| *i != cumulative)
            .collect();
        self.flush_resets_among(&sources)?;
        let candidate = ScaleSig::Accumulated(
            scale_indices
                .iter()
                .map(|&i| (i, epoch_at(&self.scale_epoch, i)))
                .collect(),
        );
        if self.enabled
            && self.pending_resets.contains(&cumulative)
            && get_slot(&self.scale_sig, cumulative) == Some(&candidate)
        {
            // The deferred reset + this accumulate would recreate exactly
            // the content the cumulative buffer already holds.
            self.pending_resets.remove(&cumulative);
            self.stats.scale_pairs_skipped += 1;
            if self.recorder.is_enabled() {
                let n = scale_indices.len();
                self.recorder.event(EventKind::IncrementalSkip, || {
                    format!("scale reset+accumulate({n}) pair at buffer {cumulative}")
                });
            }
            return Ok(());
        }
        self.flush_resets_among(&[cumulative])?;
        let fresh = get_slot(&self.scale_sig, cumulative) == Some(&ScaleSig::Reset);
        match self
            .inner
            .accumulate_scale_factors(scale_indices, cumulative)
        {
            Ok(()) => {
                let e = self.tick();
                bump_at(&mut self.scale_epoch, cumulative, e);
                // Only a reset-then-accumulate sequence yields reproducible
                // content; accumulating onto prior factors is not modeled.
                *slot(&mut self.scale_sig, cumulative) = fresh.then_some(candidate);
                self.last_integration = None;
                Ok(())
            }
            Err(e) => {
                self.poison_scale(cumulative);
                Err(e)
            }
        }
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let sig = self.integration_sig(root, None, category_weights, frequencies, scaling)?;
        self.integrate_memoized(
            sig,
            || format!("root integration at buffer {root}"),
            |inner| inner.integrate_root(root, category_weights, frequencies, scaling),
        )
    }

    fn integrate_edge(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        let edge = Some((child, matrix));
        let sig = self.integration_sig(parent, edge, category_weights, frequencies, scaling)?;
        self.integrate_memoized(
            sig,
            || format!("edge integration {parent}->{child}"),
            |inner| {
                inner.integrate_edge(
                    parent,
                    child,
                    matrix,
                    category_weights,
                    frequencies,
                    scaling,
                )
            },
        )
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        self.inner.get_site_log_likelihoods()
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        let mut stats = self.inner.statistics()?;
        if let Some(own) = self.recorder.stats() {
            stats.merge(&own);
        }
        stats.ops_skipped += self.stats.ops_skipped;
        stats.matrices_skipped += self.stats.matrices_skipped;
        stats.integrations_skipped += self.stats.integrations_skipped;
        stats.sets_deduped += self.stats.sets_deduped + self.stats.scale_pairs_skipped;
        Some(stats)
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        obs::merge_journals(self.inner.take_journal(), self.recorder.take_journal())
    }

    fn set_incremental(&mut self, enabled: bool) {
        self.enabled = enabled;
        self.stats.enabled = enabled;
        self.inner.set_incremental(enabled);
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BeagleError;
    use crate::flags::Flags;

    use std::sync::{Arc, Mutex};

    type CallLog = Arc<Mutex<Vec<String>>>;

    /// A back-end that logs every call so skips are observable, with an
    /// injectable `update_partials` failure for the poisoning tests.
    struct MockInstance {
        details: InstanceDetails,
        config: InstanceConfig,
        calls: CallLog,
        fail_updates: Arc<Mutex<u32>>,
    }

    impl MockInstance {
        fn log(&self, entry: impl Into<String>) {
            self.calls.lock().unwrap().push(entry.into());
        }
    }

    impl BeagleInstance for MockInstance {
        fn details(&self) -> &InstanceDetails {
            &self.details
        }
        fn config(&self) -> &InstanceConfig {
            &self.config
        }
        fn set_tip_states(&mut self, tip: usize, _: &[u32]) -> Result<()> {
            self.log(format!("tips:{tip}"));
            Ok(())
        }
        fn set_tip_partials(&mut self, tip: usize, _: &[f64]) -> Result<()> {
            self.log(format!("tpart:{tip}"));
            Ok(())
        }
        fn set_partials(&mut self, buffer: usize, _: &[f64]) -> Result<()> {
            self.log(format!("part:{buffer}"));
            Ok(())
        }
        fn get_partials(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn set_pattern_weights(&mut self, _: &[f64]) -> Result<()> {
            self.log("weights");
            Ok(())
        }
        fn set_state_frequencies(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("freq:{index}"));
            Ok(())
        }
        fn set_category_rates(&mut self, _: &[f64]) -> Result<()> {
            self.log("rates");
            Ok(())
        }
        fn set_category_weights(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("catw:{index}"));
            Ok(())
        }
        fn set_eigen_decomposition(
            &mut self,
            index: usize,
            _: &[f64],
            _: &[f64],
            _: &[f64],
        ) -> Result<()> {
            self.log(format!("eigen:{index}"));
            Ok(())
        }
        fn update_transition_matrices(
            &mut self,
            _: usize,
            matrix_indices: &[usize],
            _: &[f64],
        ) -> Result<()> {
            self.log(format!("utm:{}", matrix_indices.len()));
            Ok(())
        }
        fn set_transition_matrix(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("stm:{index}"));
            Ok(())
        }
        fn get_transition_matrix(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
            let mut fails = self.fail_updates.lock().unwrap();
            if *fails > 0 {
                *fails -= 1;
                return Err(BeagleError::InvalidConfiguration("injected".into()));
            }
            self.log(format!("up:{}", operations.len()));
            Ok(())
        }
        fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
            self.log(format!("reset:{cumulative}"));
            Ok(())
        }
        fn accumulate_scale_factors(&mut self, _: &[usize], cumulative: usize) -> Result<()> {
            self.log(format!("accum:{cumulative}"));
            Ok(())
        }
        fn integrate_root(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            self.log("root");
            Ok(-42.0)
        }
        fn integrate_edge(
            &mut self,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: BufferId,
            _: ScalingMode,
        ) -> Result<f64> {
            self.log("edge");
            Ok(-42.0)
        }
        fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
            Ok(vec![])
        }
    }

    fn wrapped() -> (MemoInstance, CallLog, Arc<Mutex<u32>>) {
        let calls: CallLog = Arc::new(Mutex::new(Vec::new()));
        let fail_updates = Arc::new(Mutex::new(0u32));
        let mock = MockInstance {
            details: InstanceDetails {
                implementation_name: "mock".into(),
                resource_name: "mock".into(),
                flags: Flags::NONE,
                thread_count: 1,
            },
            config: InstanceConfig::for_tree(4, 10, 4, 1),
            calls: calls.clone(),
            fail_updates: fail_updates.clone(),
        };
        (MemoInstance::new(Box::new(mock)), calls, fail_updates)
    }

    fn log(calls: &CallLog) -> Vec<String> {
        calls.lock().unwrap().clone()
    }

    fn op(dest: usize, c1: usize, c2: usize) -> Operation {
        Operation::new(dest, c1, c1, c2, c2)
    }

    /// The four-tip scaled traversal used by the round-trip tests.
    fn scaled_ops() -> Vec<Operation> {
        vec![
            op(4, 0, 1).with_scaling(4),
            op(5, 2, 3).with_scaling(5),
            op(6, 4, 5).with_scaling(6),
        ]
    }

    /// One full MCMC-style evaluation: data + model upload, matrices,
    /// scaled traversal, scale accumulation, scaled root integration.
    fn round(m: &mut MemoInstance) -> f64 {
        for tip in 0..4 {
            m.set_tip_states(tip, &[tip as u32; 10]).unwrap();
        }
        m.set_category_rates(&[1.0]).unwrap();
        m.set_category_weights(0, &[1.0]).unwrap();
        m.set_state_frequencies(0, &[0.25; 4]).unwrap();
        m.set_pattern_weights(&[1.0; 10]).unwrap();
        m.set_eigen_decomposition(0, &[1.0; 16], &[1.0; 16], &[0.5; 4])
            .unwrap();
        m.update_transition_matrices(0, &[0, 1, 2, 3], &[0.1, 0.2, 0.3, 0.4])
            .unwrap();
        m.update_partials(&scaled_ops()).unwrap();
        m.reset_scale_factors(7).unwrap();
        m.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        m.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap()
    }

    #[test]
    fn identical_sets_are_deduplicated() {
        let (mut m, calls, _) = wrapped();
        m.set_tip_states(0, &[1, 2]).unwrap();
        m.set_tip_states(0, &[1, 2]).unwrap();
        assert_eq!(log(&calls), vec!["tips:0"]);
        assert_eq!(m.memo_stats().unwrap().sets_deduped, 1);
        // A changed payload must reach the back-end again.
        m.set_tip_states(0, &[2, 2]).unwrap();
        assert_eq!(log(&calls), vec!["tips:0", "tips:0"]);
    }

    #[test]
    fn steady_state_round_is_fully_skipped() {
        let (mut m, calls, _) = wrapped();
        let first = round(&mut m);
        let after_first = log(&calls);
        assert!(after_first.contains(&"up:3".to_string()));
        assert!(after_first.contains(&"root".to_string()));

        let second = round(&mut m);
        assert_eq!(second.to_bits(), first.to_bits());
        assert_eq!(
            log(&calls),
            after_first,
            "a bit-identical round must not reach the back-end at all"
        );
        let stats = m.memo_stats().unwrap();
        assert_eq!(stats.ops_skipped, 3);
        assert_eq!(stats.matrices_skipped, 4);
        assert_eq!(stats.integrations_skipped, 1);
        assert_eq!(stats.scale_pairs_skipped, 1);
        assert_eq!(stats.sets_deduped, 9);
    }

    #[test]
    fn changed_branch_recomputes_only_the_dirty_path() {
        let (mut m, calls, _) = wrapped();
        round(&mut m);
        let baseline = log(&calls).len();
        // Perturb one branch: matrix 1 feeds op(4,..), whose new output
        // feeds op(6,..); op(5,..) is untouched and must stay skipped.
        m.update_transition_matrices(0, &[1], &[9.0]).unwrap();
        m.update_partials(&scaled_ops()).unwrap();
        m.reset_scale_factors(7).unwrap();
        m.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        m.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap();
        assert_eq!(
            log(&calls)[baseline..],
            ["utm:1", "up:2", "reset:7", "accum:7", "root"],
            "only the proposal-to-root path re-executes"
        );
    }

    #[test]
    fn toggling_skips_on_midrun_uses_the_maintained_bookkeeping() {
        let (mut m, calls, _) = wrapped();
        m.set_incremental(false);
        round(&mut m);
        let once = log(&calls).len();
        round(&mut m);
        assert_eq!(
            log(&calls).len(),
            2 * once,
            "disabled mode forwards every call"
        );
        // Bookkeeping ran the whole time, so enabling now skips immediately.
        m.set_incremental(true);
        round(&mut m);
        assert_eq!(log(&calls).len(), 2 * once);
        assert!(m.memo_stats().unwrap().total_skips() > 0);
    }

    #[test]
    fn failed_submission_poisons_its_destinations() {
        let (mut m, calls, fail) = wrapped();
        round(&mut m);
        // Dirty the left subtree, then fail its re-execution.
        m.set_tip_states(0, &[9; 10]).unwrap();
        *fail.lock().unwrap() = 1;
        assert!(m.update_partials(&scaled_ops()).is_err());
        let baseline = log(&calls).len();
        // The retry must re-forward the two failed destinations (4 and 6)
        // rather than falsely skipping them; op(5,..) stays clean.
        m.update_partials(&scaled_ops()).unwrap();
        assert_eq!(log(&calls)[baseline..], ["up:2"]);
        // The cached integration died with the poisoning: root re-executes.
        let before_root = log(&calls).len();
        m.reset_scale_factors(7).unwrap();
        m.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        m.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap();
        assert!(log(&calls)[before_root..].contains(&"root".to_string()));
    }

    #[test]
    fn merge_accumulates_counters() {
        let mut a = MemoStats {
            enabled: true,
            ops_skipped: 1,
            ops_executed: 2,
            ..MemoStats::default()
        };
        let b = MemoStats {
            enabled: false,
            ops_skipped: 10,
            sets_deduped: 3,
            ..MemoStats::default()
        };
        a.merge(&b);
        assert!(!a.enabled);
        assert_eq!(a.ops_skipped, 11);
        assert_eq!(a.ops_executed, 2);
        assert_eq!(a.sets_deduped, 3);
    }
}
