//! Epoch-based incremental computation: skip work whose inputs are
//! bit-identical to what the destination already holds, and reuse derived
//! transition matrices whose inputs are unchanged.
//!
//! The paper's workloads are MCMC-driven: each proposal perturbs one branch
//! or one model parameter, yet a naive client refreshes every partial on
//! every move. BEAGLE leaves dirty tracking to clients (BEAST does it);
//! [`MemoInstance`] instead does it *inside* the library, as generic
//! operation memoization that every caller benefits from. It is the only
//! incremental mechanism: clients such as `beagle_mcmc::BeagleEngine` send
//! the full refresh on every move and let this layer prune it.
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
//! * a matrix buffer holds `Derived(eigen index, eigen epoch, rates epoch,
//!   t bits)` after `update_transition_matrices`, or `Direct` after
//!   `set_transition_matrix`;
//! * a cumulative scale buffer holds `Reset`, `OpScale` or `Accumulated`
//!   signatures mirroring the scale-factor bookkeeping calls.
//!
//! A call whose candidate signature equals the destination's stored
//! signature would write bit-identical content, so it is skipped entirely.
//! Mutating `set_*` calls are deduplicated by **full bit-pattern
//! comparison** (never hashed), so a skip can never be wrong.
//!
//! # Matrix store
//!
//! An MCMC chain asks for the same matrices again and again: a rejected
//! branch move puts the old length back, and a topology move hands known
//! lengths to other buffers. The destination's signature misses both, so
//! memo also keeps the **matrix store**: every matrix the back-end derived,
//! read back with `get_transition_matrix` and keyed by its `Derived`
//! signature. A request that misses its destination but hits the store
//! installs the stored bytes with `set_transition_matrix`, so the result is
//! bit-for-bit what the back-end computed. The eigen and rates epochs in
//! the key already prove the inputs unchanged (their `set_*` calls are
//! bit-compared), so a lookup compares no matrix data. A new eigen epoch
//! drops that system's entries, a new rates epoch drops them all, and the
//! store keeps the `MATRIX_STORE_CAPACITY` most recently used entries. A
//! call naming one destination twice is order-sensitive (last write wins),
//! so it skips nothing and stores nothing.
//!
//! # Placement and toggling
//!
//! The manager installs the memo directly above the raw back-end — *below*
//! the rescue, checkpoint and partitioned wrappers — so rescue re-runs,
//! journal replays and checkpoint restores all flow through it with their
//! real call shapes. Bookkeeping
//! runs unconditionally; the `enabled` flag only gates the *skip decision*
//! and the matrix store (a disabled memo reads nothing back), so
//! [`BeagleInstance::set_incremental`] can be toggled mid-run without ever
//! desynchronizing the epoch state. `InstanceSpec::incremental(false)`
//! prevents installation entirely (that instance reproduces baseline bits
//! *and* timings).
//!
//! # Error handling
//!
//! If a forwarded call fails, every destination it might have touched gets
//! its epoch bumped and its signature cleared: the back-end's state is
//! unknown, so nothing downstream may be skipped. A retry after a
//! transient fault therefore re-executes rather than falsely skipping. A
//! failed read-back into the matrix store poisons every destination it
//! leaves unstored.

use std::collections::{BTreeSet, HashMap};

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::error::{BeagleError, Result};
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;

/// Bound on the matrix store, least recently used out first. An MCMC chain
/// proposes a new branch length almost every iteration; without a cap the
/// store would grow with the chain. 1,024 single-category codon matrices
/// in f64 are about 30 MB.
const MATRIX_STORE_CAPACITY: usize = 1024;

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
    /// Transition-matrix derivations skipped (destination already held the
    /// result).
    pub matrices_skipped: u64,
    /// Transition-matrix derivations served from the matrix store.
    pub matrices_reused: u64,
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
            + self.matrices_reused
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
        self.matrices_reused += other.matrices_reused;
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
    Derived(Derivation),
}

/// The inputs of one derived matrix: also the matrix store's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Derivation {
    eigen_index: usize,
    eigen_epoch: u64,
    rates_epoch: u64,
    t_bits: u64,
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

    /// Derived matrices as the back-end produced them, each with the
    /// `store_clock` value of its last use.
    store: HashMap<Derivation, (Vec<f64>, u64)>,
    store_clock: u64,

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
            store: HashMap::new(),
            store_clock: 0,
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
            // Stored matrices derived from the old content are unreachable
            // under the new epoch; free them.
            SetTarget::Eigen(i) => self.store.retain(|d, _| d.eigen_index != i),
            SetTarget::CategoryRates => self.store.clear(),
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
    /// Destinations forwarded earlier in the list carry tentative epochs
    /// (sequential semantics). An operation whose destination or scale
    /// target an earlier forwarded one rewrites is never skipped: the
    /// stored signature describes the content before that rewrite.
    #[allow(clippy::type_complexity)]
    fn plan_ops(
        &self,
        operations: &[Operation],
    ) -> (
        Vec<Operation>,
        Vec<(Operation, PartialsSig, u64, Option<u64>)>,
        u64,
    ) {
        let mut tent: HashMap<usize, u64> = HashMap::new();
        let mut scales_written: BTreeSet<usize> = BTreeSet::new();
        let mut next_epoch = self.clock;
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
            let rewritten = tent.contains_key(&op.destination)
                || op
                    .dest_scale_write
                    .is_some_and(|s| scales_written.contains(&s));
            if self.enabled
                && scale_clean
                && !rewritten
                && get_slot(&self.partials_sig, op.destination) == Some(&sig)
            {
                skipped += 1;
                continue;
            }
            next_epoch += 1;
            let dest_epoch = next_epoch;
            tent.insert(op.destination, dest_epoch);
            let scale_epoch = op.dest_scale_write.map(|s| {
                scales_written.insert(s);
                next_epoch += 1;
                next_epoch
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

    /// Record that matrix buffer `idx` now holds the matrix derived from `d`.
    fn commit_derived(&mut self, idx: usize, d: Derivation) {
        let e = self.tick();
        bump_at(&mut self.matrix_epoch, idx, e);
        *slot(&mut self.matrix_sig, idx) = Some(MatrixSig::Derived(d));
        *slot(&mut self.matrix_content, idx) = None;
        self.last_integration = None;
    }

    /// Invalidate matrix buffers whose content a failed call left unknown.
    fn poison_matrices(&mut self, indices: &[usize]) {
        for &idx in indices {
            self.commit_direct(SetTarget::Matrix(idx), None);
        }
    }

    /// Keep `matrix` in the store, evicting the least recently used entry
    /// beyond the bound.
    fn store_matrix(&mut self, d: Derivation, matrix: Vec<f64>) {
        self.store_clock += 1;
        self.store.insert(d, (matrix, self.store_clock));
        if self.store.len() > MATRIX_STORE_CAPACITY {
            let oldest = self.store.iter().min_by_key(|(_, (_, used))| *used);
            if let Some((&d, _)) = oldest {
                self.store.remove(&d);
            }
        }
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
        // A repeated destination makes the call order-sensitive (last write
        // wins), so such a call is forwarded whole.
        let reuse = self.enabled && {
            let mut sorted = matrix_indices.to_vec();
            sorted.sort_unstable();
            sorted.windows(2).all(|w| w[0] != w[1])
        };
        let eigen_epoch = epoch_at(&self.eigen_epoch, eigen_index);
        let rates_epoch = epoch_at(&self.rates_epoch, 0);
        let mut skipped = 0u64;
        let mut reused = Vec::new();
        let (mut fwd_idx, mut fwd_len, mut fwd_derived) = (Vec::new(), Vec::new(), Vec::new());
        for (&idx, &t) in matrix_indices.iter().zip(branch_lengths) {
            let d = Derivation {
                eigen_index,
                eigen_epoch,
                rates_epoch,
                t_bits: t.to_bits(),
            };
            if reuse && get_slot(&self.matrix_sig, idx) == Some(&MatrixSig::Derived(d)) {
                skipped += 1;
            } else if reuse && self.store.contains_key(&d) {
                reused.push((idx, d));
            } else {
                fwd_idx.push(idx);
                fwd_len.push(t);
                fwd_derived.push(d);
            }
        }
        self.stats.matrices_skipped += skipped;
        if skipped + reused.len() as u64 > 0 && self.recorder.is_enabled() {
            let (n, total) = (reused.len(), matrix_indices.len());
            self.recorder.event(EventKind::IncrementalSkip, || {
                format!("transition matrices: skipped {skipped}/{total}, reused {n}")
            });
        }
        for (idx, d) in reused {
            self.store_clock += 1;
            let (matrix, used) = self.store.get_mut(&d).expect("looked up above");
            *used = self.store_clock;
            if let Err(e) = self.inner.set_transition_matrix(idx, matrix) {
                self.poison_matrices(&[idx]);
                return Err(e);
            }
            self.stats.matrices_reused += 1;
            self.commit_derived(idx, d);
        }
        if fwd_idx.is_empty() {
            return Ok(());
        }
        self.stats.matrices_computed += fwd_idx.len() as u64;
        if let Err(e) = self
            .inner
            .update_transition_matrices(eigen_index, &fwd_idx, &fwd_len)
        {
            self.poison_matrices(&fwd_idx);
            return Err(e);
        }
        for (k, (&idx, d)) in fwd_idx.iter().zip(fwd_derived).enumerate() {
            if reuse {
                match self.inner.get_transition_matrix(idx) {
                    Ok(matrix) => self.store_matrix(d, matrix),
                    Err(e) => {
                        self.poison_matrices(&fwd_idx[k..]);
                        return Err(e);
                    }
                }
            }
            self.commit_derived(idx, d);
        }
        Ok(())
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
        let (forward, commits, skipped) = self.plan_ops(operations);
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

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        if self.enabled {
            // A deferred reset must still be rejected now, as the back-end
            // would reject it, or a journal above records a bad call.
            let limit = self.inner.config().scale_buffer_count;
            if cumulative >= limit {
                return Err(BeagleError::OutOfRange {
                    what: "scale buffer",
                    index: cumulative,
                    limit,
                });
            }
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
        stats.eigen_cache_hits += self.stats.matrices_reused;
        stats.eigen_cache_misses += self.stats.matrices_computed;
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

    /// Injected failures and observed read-backs of a [`MockInstance`].
    #[derive(Default)]
    struct Control {
        /// `update_partials` calls left to fail.
        fail_updates: u32,
        /// `get_transition_matrix` calls left to fail.
        fail_reads: u32,
        /// `get_transition_matrix` calls made.
        reads: u32,
    }

    /// A back-end that logs every call so skips are observable, derives
    /// deterministic 4-element matrices from (eigen data, rates, branch
    /// length) so reuse is checkable bit for bit, and fails on demand for
    /// the poisoning tests.
    struct MockInstance {
        details: InstanceDetails,
        config: InstanceConfig,
        calls: CallLog,
        control: Arc<Mutex<Control>>,
        eigen_sum: HashMap<usize, f64>,
        rates_sum: f64,
        matrices: HashMap<usize, Vec<f64>>,
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
        fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
            self.log("rates");
            self.rates_sum = rates.iter().sum();
            Ok(())
        }
        fn set_category_weights(&mut self, index: usize, _: &[f64]) -> Result<()> {
            self.log(format!("catw:{index}"));
            Ok(())
        }
        fn set_eigen_decomposition(
            &mut self,
            index: usize,
            vectors: &[f64],
            inverse_vectors: &[f64],
            values: &[f64],
        ) -> Result<()> {
            self.log(format!("eigen:{index}"));
            let sum = vectors.iter().chain(inverse_vectors).chain(values).sum();
            self.eigen_sum.insert(index, sum);
            Ok(())
        }
        fn update_transition_matrices(
            &mut self,
            eigen_index: usize,
            matrix_indices: &[usize],
            branch_lengths: &[f64],
        ) -> Result<()> {
            self.log(format!("utm:{}", matrix_indices.len()));
            let e = self.eigen_sum.get(&eigen_index).copied().unwrap_or(0.0);
            for (&idx, &t) in matrix_indices.iter().zip(branch_lengths) {
                self.matrices.insert(idx, vec![e * t + self.rates_sum; 4]);
            }
            Ok(())
        }
        fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
            self.log(format!("stm:{index}"));
            self.matrices.insert(index, matrix.to_vec());
            Ok(())
        }
        fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
            let mut control = self.control.lock().unwrap();
            control.reads += 1;
            if control.fail_reads > 0 {
                control.fail_reads -= 1;
                return Err(BeagleError::InvalidConfiguration("injected".into()));
            }
            Ok(self.matrices.get(&index).cloned().unwrap_or_default())
        }
        fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
            let mut control = self.control.lock().unwrap();
            if control.fail_updates > 0 {
                control.fail_updates -= 1;
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

    fn wrapped() -> (MemoInstance, CallLog, Arc<Mutex<Control>>) {
        let calls: CallLog = Arc::new(Mutex::new(Vec::new()));
        let control = Arc::new(Mutex::new(Control::default()));
        let mock = MockInstance {
            details: InstanceDetails {
                implementation_name: "mock".into(),
                resource_name: "mock".into(),
                flags: Flags::NONE,
                thread_count: 1,
            },
            config: InstanceConfig::for_tree(4, 10, 4, 1),
            calls: calls.clone(),
            control: control.clone(),
            eigen_sum: HashMap::new(),
            rates_sum: 0.0,
            matrices: HashMap::new(),
        };
        (MemoInstance::new(Box::new(mock)), calls, control)
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
        fail.lock().unwrap().fail_updates = 1;
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

    /// Install eigen system 0 (eigenvalues `value`) and category rates.
    fn model(m: &mut MemoInstance, value: f64, rates: &[f64]) {
        let v = vec![1.0; 16];
        m.set_eigen_decomposition(0, &v, &v, &[value; 4]).unwrap();
        m.set_category_rates(rates).unwrap();
    }

    fn count(calls: &CallLog, prefix: &str) -> usize {
        log(calls).iter().filter(|c| c.starts_with(prefix)).count()
    }

    fn bits_of(m: &MemoInstance, index: usize) -> Vec<u64> {
        let matrix = m.get_transition_matrix(index).unwrap();
        matrix.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matrix_store_serves_repeats_bit_exactly() {
        let (mut m, calls, _) = wrapped();
        model(&mut m, 0.5, &[1.0, 2.0]);
        m.update_transition_matrices(0, &[1, 2], &[0.1, 0.2])
            .unwrap();
        let first = bits_of(&m, 1);
        let stats = m.memo_stats().unwrap();
        assert_eq!((stats.matrices_reused, stats.matrices_computed), (0, 2));

        // The same lengths to swapped destinations: both miss their
        // destination's signature and are served from the store.
        m.update_transition_matrices(0, &[2, 1], &[0.1, 0.2])
            .unwrap();
        let stats = m.memo_stats().unwrap();
        assert_eq!((stats.matrices_reused, stats.matrices_computed), (2, 2));
        assert_eq!(
            bits_of(&m, 2),
            first,
            "stored matrix must be the exact bytes"
        );
        assert_eq!(count(&calls, "utm"), 1);
        assert_eq!(count(&calls, "stm"), 2);
    }

    #[test]
    fn changing_rates_or_eigen_data_invalidates_the_store() {
        let (mut m, _calls, _) = wrapped();
        model(&mut m, 0.5, &[1.0]);
        m.update_transition_matrices(0, &[1], &[0.1]).unwrap();
        let with_old_rates = bits_of(&m, 1);

        // Rates change: the next request recomputes under the new rates.
        m.set_category_rates(&[3.0]).unwrap();
        m.update_transition_matrices(0, &[2], &[0.1]).unwrap();
        assert_ne!(bits_of(&m, 2), with_old_rates);
        let stats = m.memo_stats().unwrap();
        assert_eq!((stats.matrices_reused, stats.matrices_computed), (0, 2));
        assert_eq!(m.store.len(), 1, "new rates drop every stored matrix");

        // Re-setting identical eigen data does NOT invalidate...
        model(&mut m, 0.5, &[3.0]);
        m.update_transition_matrices(0, &[3], &[0.1]).unwrap();
        assert_eq!(m.memo_stats().unwrap().matrices_reused, 1);
        // ...but new eigen data does.
        model(&mut m, 0.75, &[3.0]);
        m.update_transition_matrices(0, &[4], &[0.1]).unwrap();
        let stats = m.memo_stats().unwrap();
        assert_eq!((stats.matrices_reused, stats.matrices_computed), (1, 3));
        assert_eq!(m.store.len(), 1, "new eigen data drops its old matrices");
    }

    /// `count` distinct branch lengths, one per destination from `first`.
    fn fill(m: &mut MemoInstance, first: usize, count: usize) {
        let indices: Vec<usize> = (first..first + count).collect();
        let lengths: Vec<f64> = indices.iter().map(|&i| length(i)).collect();
        m.update_transition_matrices(0, &indices, &lengths).unwrap();
    }

    fn length(i: usize) -> f64 {
        0.001 * (i + 1) as f64
    }

    #[test]
    fn matrix_store_evicts_oldest_first() {
        let (mut m, _calls, _) = wrapped();
        model(&mut m, 0.5, &[1.0]);
        fill(&mut m, 0, MATRIX_STORE_CAPACITY + 1);
        assert_eq!(m.store.len(), MATRIX_STORE_CAPACITY);
        // The first length was evicted (oldest); the last is still stored.
        let spare = 2 * MATRIX_STORE_CAPACITY;
        m.update_transition_matrices(0, &[spare], &[length(0)])
            .unwrap();
        m.update_transition_matrices(0, &[spare + 1], &[length(MATRIX_STORE_CAPACITY)])
            .unwrap();
        let stats = m.memo_stats().unwrap();
        assert_eq!(stats.matrices_reused, 1);
        assert_eq!(stats.matrices_computed, MATRIX_STORE_CAPACITY as u64 + 2);
    }

    #[test]
    fn matrix_store_eviction_is_lru_not_fifo() {
        let (mut m, _calls, _) = wrapped();
        model(&mut m, 0.5, &[1.0]);
        fill(&mut m, 0, MATRIX_STORE_CAPACITY);
        // Reuse the first length so the second becomes least recently used...
        let spare = 2 * MATRIX_STORE_CAPACITY;
        m.update_transition_matrices(0, &[spare], &[length(0)])
            .unwrap();
        assert_eq!(m.memo_stats().unwrap().matrices_reused, 1);
        // ...then a new length evicts the second, keeping the reused first
        // (a FIFO store would evict the first here and miss below).
        fill(&mut m, MATRIX_STORE_CAPACITY, 1);
        m.update_transition_matrices(0, &[spare + 1], &[length(0)])
            .unwrap();
        m.update_transition_matrices(0, &[spare + 2], &[length(1)])
            .unwrap();
        let stats = m.memo_stats().unwrap();
        assert_eq!(stats.matrices_reused, 2);
        assert_eq!(stats.matrices_computed, MATRIX_STORE_CAPACITY as u64 + 2);
        assert_eq!(m.store.len(), MATRIX_STORE_CAPACITY);
    }

    #[test]
    fn repeated_destination_bypasses_the_store_and_last_write_wins() {
        let (mut m, calls, control) = wrapped();
        model(&mut m, 0.5, &[1.0]);
        m.update_transition_matrices(0, &[1], &[0.2]).unwrap();
        let at_02 = bits_of(&m, 1);
        let reads = control.lock().unwrap().reads;
        // Index 1 appears twice: the whole call reaches the back-end, the
        // 0.2 that buffer 1 already holds is not skipped, and nothing new is
        // read back or stored.
        m.update_transition_matrices(0, &[1, 1], &[0.1, 0.2])
            .unwrap();
        assert_eq!(log(&calls).last().unwrap(), "utm:2");
        assert_eq!(bits_of(&m, 1), at_02, "the last write wins");
        assert_eq!(control.lock().unwrap().reads, reads + 1);
        assert_eq!(m.store.len(), 1);
        // The buffer's signature is its last write, so 0.2 is clean again.
        m.update_transition_matrices(0, &[1], &[0.2]).unwrap();
        assert_eq!(m.memo_stats().unwrap().matrices_skipped, 1);
    }

    #[test]
    fn store_hit_advances_total_skips() {
        // The partitioned parent keeps a child's batch out of the balancer
        // when `total_skips` moved during it; a reused matrix is skipped
        // work and must move it.
        let (mut m, _calls, _) = wrapped();
        model(&mut m, 0.5, &[1.0]);
        m.update_transition_matrices(0, &[1], &[0.1]).unwrap();
        m.update_transition_matrices(0, &[1], &[0.3]).unwrap();
        let before = m.memo_stats().unwrap().total_skips();
        m.update_transition_matrices(0, &[1], &[0.1]).unwrap();
        let after = m.memo_stats().unwrap();
        assert_eq!(after.matrices_reused, 1);
        assert_eq!(after.total_skips(), before + 1);
    }

    #[test]
    fn failed_read_back_poisons_unstored_destinations() {
        let (mut m, calls, control) = wrapped();
        model(&mut m, 0.5, &[1.0]);
        control.lock().unwrap().fail_reads = 1;
        assert!(m
            .update_transition_matrices(0, &[1, 2], &[0.1, 0.2])
            .is_err());
        assert!(m.store.is_empty());
        // Neither destination may be skipped or served afterwards.
        m.update_transition_matrices(0, &[1, 2], &[0.1, 0.2])
            .unwrap();
        assert_eq!(log(&calls).last().unwrap(), "utm:2");
        assert_eq!(m.memo_stats().unwrap().total_skips(), 0);
    }

    #[test]
    fn disabled_memo_reads_nothing_back() {
        let (mut m, calls, control) = wrapped();
        m.set_incremental(false);
        model(&mut m, 0.5, &[1.0]);
        m.update_transition_matrices(0, &[1], &[0.1]).unwrap();
        m.update_transition_matrices(0, &[2], &[0.1]).unwrap();
        assert_eq!(control.lock().unwrap().reads, 0);
        assert!(m.store.is_empty());
        assert_eq!(count(&calls, "utm"), 2);
        // Re-enabled, the store fills from the next derivation on.
        m.set_incremental(true);
        m.update_transition_matrices(0, &[3], &[0.1]).unwrap();
        m.update_transition_matrices(0, &[4], &[0.1]).unwrap();
        assert_eq!(m.memo_stats().unwrap().matrices_reused, 1);
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
