//! The BEAGLE-RS application programming interface.
//!
//! A faithful Rust rendering of the BEAGLE C API: a client creates an
//! *instance* sized for its problem (tips, patterns, states, categories,
//! buffer counts), loads tip data, eigen systems, rates and weights, then
//! repeatedly asks for transition-matrix updates, partials updates, and
//! root/edge log-likelihood integrations. The library deliberately has no
//! tree type; clients drive it with flat, flexibly indexed operation lists.

use crate::error::{BeagleError, Result};
use crate::flags::Flags;
use crate::obs;
use crate::ops::Operation;

/// A typed index into an instance's buffer space (partials, matrix, scale,
/// category-weight or frequency buffers — which space is determined by the
/// parameter position, exactly as in the C API).
///
/// Replaces the raw `usize` indices of the integration methods so that a
/// buffer index can no longer be silently swapped with a count or an
/// unrelated index at a call site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub usize);

impl BufferId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for BufferId {
    fn from(index: usize) -> Self {
        BufferId(index)
    }
}

impl std::fmt::Display for BufferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// How an integration call treats accumulated scale factors.
///
/// Replaces the old `Option<usize>` cumulative-scale argument, which read as
/// "maybe a number" instead of "a scaling policy" at call sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScalingMode {
    /// No rescaling was performed; partials are raw probabilities.
    #[default]
    None,
    /// Per-pattern log scale factors were accumulated into this scale
    /// buffer and must be added back to the integrated log-likelihood.
    Cumulative(BufferId),
}

impl ScalingMode {
    /// Cumulative scaling through scale buffer `index`.
    pub fn cumulative(index: usize) -> Self {
        ScalingMode::Cumulative(BufferId(index))
    }

    /// The cumulative scale-buffer index, if any (adapter for back-end
    /// internals still organized around the optional index).
    pub fn index(self) -> Option<usize> {
        match self {
            ScalingMode::None => None,
            ScalingMode::Cumulative(b) => Some(b.0),
        }
    }
}

/// Sizing parameters of an instance (the `beagleCreateInstance` arguments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstanceConfig {
    /// Number of tip data elements (taxa).
    pub tip_count: usize,
    /// Number of partials buffers (≥ `tip_count` when all tips use partials;
    /// tips using compact state storage do not consume partials buffers, but
    /// index into the same space `0..partials_buffer_count`).
    pub partials_buffer_count: usize,
    /// Number of compact (tip-state) buffers.
    pub compact_buffer_count: usize,
    /// Number of character states (4 = nucleotide, 20 = amino acid, 61 = codon).
    pub state_count: usize,
    /// Number of unique site patterns.
    pub pattern_count: usize,
    /// Number of eigen-decomposition buffers.
    pub eigen_buffer_count: usize,
    /// Number of transition-matrix buffers.
    pub matrix_buffer_count: usize,
    /// Number of rate categories.
    pub category_count: usize,
    /// Number of scale-factor buffers (0 disables manual scaling).
    pub scale_buffer_count: usize,
}

impl InstanceConfig {
    /// A minimal valid config for `tips` taxa / `patterns` patterns /
    /// `states` states / `categories` rate categories, with one buffer per
    /// tree node, one matrix per branch, one eigen system and one extra
    /// scale buffer for cumulative factors (the standard client layout).
    pub fn for_tree(tips: usize, patterns: usize, states: usize, categories: usize) -> Self {
        let nodes = 2 * tips - 1;
        InstanceConfig {
            tip_count: tips,
            partials_buffer_count: nodes,
            compact_buffer_count: tips,
            state_count: states,
            pattern_count: patterns,
            eigen_buffer_count: 1,
            matrix_buffer_count: nodes, // index = node id; root entry unused
            category_count: categories,
            scale_buffer_count: nodes + 1,
        }
    }

    /// Validate basic sanity; called by every factory.
    pub fn validate(&self) -> Result<()> {
        let bad = |msg: &str| Err(BeagleError::InvalidConfiguration(msg.to_string()));
        if self.tip_count < 2 {
            return bad("need at least 2 tips");
        }
        if self.state_count < 2 {
            return bad("need at least 2 states");
        }
        if self.pattern_count == 0 {
            return bad("need at least 1 pattern");
        }
        if self.category_count == 0 {
            return bad("need at least 1 rate category");
        }
        if self.partials_buffer_count < self.tip_count {
            return bad("partials buffers must cover all tips");
        }
        if self.eigen_buffer_count == 0 || self.matrix_buffer_count == 0 {
            return bad("need at least one eigen and one matrix buffer");
        }
        Ok(())
    }

    /// Length of one partials buffer: `categories × patterns × states`.
    pub fn partials_len(&self) -> usize {
        self.category_count * self.pattern_count * self.state_count
    }

    /// Length of one transition-matrix buffer: `categories × states²`.
    pub fn matrix_len(&self) -> usize {
        self.category_count * self.state_count * self.state_count
    }
}

/// What an instance actually is, reported after creation
/// (`beagleGetInstanceDetails`).
#[derive(Clone, Debug)]
pub struct InstanceDetails {
    /// Human-readable implementation name, e.g. `"CPU-threadpool"`.
    pub implementation_name: String,
    /// Name of the hardware resource the instance runs on.
    pub resource_name: String,
    /// Flags describing the instance's actual behaviour.
    pub flags: Flags,
    /// Number of worker threads in use (1 for serial / accelerator models).
    pub thread_count: usize,
}

/// The counters the old operation queue reported. No layer fills them in
/// any more ([`BeagleInstance::queue_stats`] is always `None`); the type
/// stays only because the stack benchmark reads these fields, and goes with
/// that benchmark's next change (ROADMAP item 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Partial-likelihood operations enqueued by the client.
    pub ops_enqueued: u64,
    /// Partial-likelihood operations submitted to the back-end.
    pub ops_submitted: u64,
    /// Transition matrices served without recomputation.
    pub eigen_cache_hits: u64,
    /// Transition matrices computed.
    pub eigen_cache_misses: u64,
}

/// A BEAGLE instance: likelihood state plus the kernels that act on it.
///
/// All data crosses this interface as `f64` regardless of the instance's
/// internal precision (the C API has typed variants; a trait object cannot,
/// so conversion happens inside — it is never on the hot path, which is
/// `update_partials` + `integrate_root` on internal buffers).
///
/// The `Send + Sync` bound is what lets [`crate::pool`] move instances
/// between worker threads and share `&`-references to them across the pool's
/// supervision structures. Every in-tree backend and wrapper is verified
/// against it by the compile-time audit in `tests/send_sync.rs`; an
/// implementation needing interior mutability must use a lock, not
/// `RefCell`/`Cell`.
///
/// # Wrappers
///
/// Layers such as the memo and the journaling layer wrap another instance.
/// A wrapper returns that instance from [`Self::wrapped`] /
/// [`Self::wrapped_mut`] and overrides only what it changes: every method
/// with a default forwards to the wrapped instance when there is one, and
/// gives a plain back-end's answer when there is not. The required methods
/// have no default, so every layer states its data plane explicitly.
pub trait BeagleInstance: Send + Sync {
    /// The instance this one wraps, if it is a wrapper layer.
    fn wrapped(&self) -> Option<&dyn BeagleInstance> {
        None
    }

    /// Mutable access to the instance this one wraps, if any.
    fn wrapped_mut(&mut self) -> Option<&mut dyn BeagleInstance> {
        None
    }

    /// Implementation and resource description.
    fn details(&self) -> &InstanceDetails;

    /// Instance sizing.
    fn config(&self) -> &InstanceConfig;

    /// Set compact tip states for tip `tip`; `states[p]` is the observed
    /// state at pattern `p`, or [`crate::GAP_STATE`] for missing data.
    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()>;

    /// Set full partials for a tip (for ambiguous tip data):
    /// `patterns × states`, replicated internally across categories.
    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()>;

    /// Set a full partials buffer (`categories × patterns × states`).
    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()>;

    /// Read back a partials buffer (`categories × patterns × states`).
    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>>;

    /// Set pattern weights (column multiplicities), length `pattern_count`.
    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()>;

    /// Set state frequencies buffer `index` (length `state_count`).
    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()>;

    /// Set the category rate multipliers (length `category_count`).
    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()>;

    /// Set category weights buffer `index` (length `category_count`).
    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()>;

    /// Load an eigen system: row-major `vectors` (s×s), `inverse_vectors`
    /// (s×s), and `values` (s eigenvalues).
    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()>;

    /// Compute `P(rate_c · t)` for each listed matrix buffer and branch
    /// length from eigen buffer `eigen_index` — the paper's "branch
    /// transition probabilities" kernel.
    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()>;

    /// Compute `P(rate_c · t)` together with first and second derivatives
    /// with respect to the branch length, written to three matrix buffers
    /// per branch. The inputs maximum-likelihood programs need for
    /// Newton–Raphson branch optimization. Optional: back-ends without
    /// derivative kernels return [`crate::BeagleError::Unsupported`].
    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        match self.wrapped_mut() {
            Some(inner) => inner.update_transition_derivatives(
                eigen_index,
                matrix_indices,
                d1_indices,
                d2_indices,
                branch_lengths,
            ),
            None => Err(BeagleError::Unsupported(format!(
                "transition-matrix derivatives on {}",
                self.details().implementation_name
            ))),
        }
    }

    /// Edge log-likelihood together with its first and second derivatives
    /// with respect to the edge's branch length: `(lnL, dlnL/dt, d²lnL/dt²)`.
    /// `d1_matrix` / `d2_matrix` must hold the derivative matrices from
    /// [`Self::update_transition_derivatives`]. Optional, like the above.
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
        match self.wrapped_mut() {
            Some(inner) => inner.integrate_edge_derivatives(
                parent,
                child,
                matrix,
                d1_matrix,
                d2_matrix,
                category_weights,
                frequencies,
                scaling,
            ),
            None => Err(BeagleError::Unsupported(format!(
                "edge derivatives on {}",
                self.details().implementation_name
            ))),
        }
    }

    /// Directly set a transition matrix (`categories × states × states`,
    /// row-major `P[i][j] = P(i→j)` per category).
    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()>;

    /// Read back a transition matrix.
    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>>;

    /// Run a dependency-ordered list of partial-likelihood operations — the
    /// computational bottleneck this library exists to accelerate.
    fn update_partials(&mut self, operations: &[Operation]) -> Result<()>;

    /// Replay `levels` in order through [`Self::update_partials`]. Nothing in
    /// the library overrides or calls this: a back-end levels the list its
    /// `update_partials` gets itself ([`crate::ops::LevelPlan`]). It stays
    /// only because the stack benchmark's timing wrapper implements it, and
    /// goes with that benchmark's next change (ROADMAP item 3).
    fn update_partials_by_levels(&mut self, levels: &[Vec<Operation>]) -> Result<()> {
        for level in levels {
            self.update_partials(level)?;
        }
        Ok(())
    }

    /// Zero cumulative scale buffer `cumulative`.
    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()>;

    /// Add the log scale factors of each listed buffer into `cumulative`.
    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()>;

    /// Integrate root partials against state frequencies, category weights
    /// and pattern weights; returns the total log-likelihood. With
    /// [`ScalingMode::Cumulative`], per-pattern accumulated log scale
    /// factors are added back.
    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64>;

    /// Likelihood integrated at an edge: parent partials combined with
    /// child partials propagated through `matrix`. Used by programs that
    /// re-root cheaply or compute branch derivatives.
    fn integrate_edge(
        &mut self,
        parent: BufferId,
        child: BufferId,
        matrix: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64>;

    /// Per-pattern site log-likelihoods from the most recent root/edge call.
    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>>;

    /// A no-op: every call runs before it returns, so there is never work
    /// to wait for. It stays only because the stack benchmark's timing
    /// wrapper implements it, and goes with that benchmark's next change
    /// (ROADMAP item 3).
    fn wait_for_computation(&mut self) -> Result<()> {
        Ok(())
    }

    /// For simulated accelerator back-ends: total modeled device time since
    /// creation or the last [`Self::reset_simulated_time`]. `None` for
    /// back-ends measured with the wall clock (all CPU implementations and
    /// the OpenCL-x86 device).
    fn simulated_time(&self) -> Option<std::time::Duration> {
        self.wrapped()?.simulated_time()
    }

    /// Reset the simulated device clock (no-op for wall-clock back-ends).
    fn reset_simulated_time(&mut self) {
        if let Some(inner) = self.wrapped_mut() {
            inner.reset_simulated_time();
        }
    }

    /// The same as [`Self::simulated_time`]. It stays only because the
    /// stack benchmark's timing wrapper implements it, and goes with that
    /// benchmark's next change (ROADMAP item 3).
    fn peek_simulated_time(&self) -> Option<std::time::Duration> {
        self.simulated_time()
    }

    /// Always `None`: no layer defers execution. It stays only because the
    /// stack benchmark reads it, and goes with that benchmark's next change
    /// (ROADMAP item 3).
    fn queue_stats(&self) -> Option<QueueStats> {
        None
    }

    /// Per-kernel timing/counter statistics (see [`crate::obs`]). `None`
    /// unless the instance was created with [`Flags::INSTANCE_STATS`] (or
    /// `InstanceSpec::with_stats`), or when built with the `obs-disabled`
    /// feature. A layer with its own recorder merges it in.
    fn statistics(&self) -> Option<obs::InstanceStats> {
        self.wrapped()?.statistics()
    }

    /// Drain this instance's event journal (oldest first; see
    /// [`crate::obs::Event`]). Empty unless statistics are enabled. Layers
    /// merge their journals into sequence order.
    fn take_journal(&mut self) -> Vec<obs::Event> {
        self.wrapped_mut()
            .map_or_else(Vec::new, |inner| inner.take_journal())
    }

    /// Set (or clear) the per-launch watchdog budget. Back-ends with a
    /// watchdog cancel any launch that stalls past the budget and report
    /// [`BeagleError::Timeout`]; with `None` they fall back to the driver
    /// default ([`crate::deadline::Deadline::DRIVER_DEFAULT`]). Back-ends
    /// without stall modes (the CPU implementations) ignore it.
    fn set_deadline(&mut self, deadline: Option<crate::deadline::Deadline>) {
        if let Some(inner) = self.wrapped_mut() {
            inner.set_deadline(deadline);
        }
    }

    /// Snapshot this instance's replayable state as a durable
    /// [`crate::checkpoint::Checkpoint`]. `None` unless a journaling layer
    /// answers (a checkpointing [`crate::journal::JournaledInstance`] or a
    /// [`crate::multi::PartitionedInstance`]).
    fn checkpoint(&mut self) -> Option<crate::checkpoint::Checkpoint> {
        self.wrapped_mut()?.checkpoint()
    }

    /// Enable or disable incremental re-computation (operation memoization,
    /// see [`crate::memo::MemoInstance`]) at runtime. When disabled the memo
    /// layer keeps its epoch bookkeeping current but never skips work, so
    /// toggling is always safe mid-run. Instances without a memo layer
    /// ignore it. Throughput harnesses that time repeated identical
    /// traversals call `set_incremental(false)` so they measure real kernels.
    fn set_incremental(&mut self, enabled: bool) {
        if let Some(inner) = self.wrapped_mut() {
            inner.set_incremental(enabled);
        }
    }

    /// Skip/hit counters from the incremental memoization layer, when one is
    /// installed at or below this instance (see [`crate::memo::MemoStats`]).
    /// `None` otherwise.
    fn memo_stats(&self) -> Option<crate::memo::MemoStats> {
        self.wrapped()?.memo_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_tree_config_is_valid() {
        let c = InstanceConfig::for_tree(8, 1000, 4, 4);
        c.validate().unwrap();
        assert_eq!(c.partials_buffer_count, 15);
        assert_eq!(c.partials_len(), 4 * 1000 * 4);
        assert_eq!(c.matrix_len(), 4 * 16);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = InstanceConfig::for_tree(8, 1000, 4, 4);
        c.tip_count = 1;
        assert!(c.validate().is_err());
        let mut c = InstanceConfig::for_tree(8, 1000, 4, 4);
        c.pattern_count = 0;
        assert!(c.validate().is_err());
        let mut c = InstanceConfig::for_tree(8, 1000, 4, 4);
        c.partials_buffer_count = 3;
        assert!(c.validate().is_err());
        let mut c = InstanceConfig::for_tree(8, 1000, 4, 4);
        c.category_count = 0;
        assert!(c.validate().is_err());
    }
}
