//! Bench-side timing: every evaluation a chain makes, and in the traced run
//! every call into the instance below it, recorded from outside the layer
//! being measured.
//!
//! One [`ChainLog`] per chain is shared by that chain's [`TimedEngine`]
//! (one [`Eval`] per `log_likelihood` call) and, in the traced run, its
//! [`TimedInstance`] (one [`Call`] per `BeagleInstance` call). A call's
//! parent is the evaluation in progress when it started. Logs are
//! preallocated and written out only after the run.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use beagle_core::{
    BeagleInstance, BufferId, Checkpoint, InstanceConfig, InstanceDetails, InstanceStats,
    MemoStats, Operation, QueueStats, Result, ScalingMode,
};
use beagle_mcmc::LikelihoodEngine;
use beagle_phylo::{ReversibleModel, Tree};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, time: *mut Timespec) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in the Linux user ABI.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU time this process has consumed, all threads, user and system, in ns.
///
/// On a shared virtual machine the hypervisor takes the vCPUs away for
/// stretches of seconds to minutes (steal time); a KVM guest with paravirt
/// steal accounting leaves that time out of this clock, while it lands in
/// every wall-clock interval that spans it.
pub fn cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec`, and the clock id
    // is one every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// One likelihood evaluation as the chain saw it.
#[derive(Clone, Copy, Debug)]
pub struct Eval {
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
    /// Process CPU clock ([`cpu_ns`]) at the start.
    pub cpu_start: u64,
    /// Process CPU clock at the end.
    pub cpu_end: u64,
}

impl Eval {
    /// Wall-clock duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// CPU time the process spent during the evaluation, in ns: with one
    /// evaluation in flight, what this one evaluation cost on every thread
    /// it ran on (chain, thread pool, server, pool worker).
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_end.saturating_sub(self.cpu_start)
    }
}

/// One call into the instance below the engine.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    /// Index of the enclosing evaluation in [`ChainLog::evals`].
    pub eval: usize,
    /// `BeagleInstance` method name.
    pub name: &'static str,
    /// Start, ns since the process epoch.
    pub start: u64,
    /// End, ns since the process epoch.
    pub end: u64,
    /// Operations (partials) or matrices (transition updates) in the call;
    /// 0 for other methods.
    pub items: u64,
}

impl Call {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Counters read from an instance stack when its [`TimedInstance`] drops.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// `memo_stats()`.
    pub memo: Option<MemoStats>,
    /// `queue_stats()`.
    pub queue: Option<QueueStats>,
    /// `statistics()` (kernel classes).
    pub kernels: Option<InstanceStats>,
}

/// Everything recorded for one chain.
#[derive(Debug, Default)]
pub struct ChainLog {
    /// Completed evaluations, in order.
    pub evals: Vec<Eval>,
    /// Instance calls (traced run only).
    pub calls: Vec<Call>,
    /// Final layer counters of this chain's instance (traced run only).
    pub layers: LayerStats,
}

/// A chain's log, shared between its engine and instance wrappers.
pub type Log = Arc<Mutex<ChainLog>>;

/// A log with room for `evals` evaluations and `calls` instance calls, so
/// recording does not reallocate inside the timed window.
pub fn new_log(evals: usize, calls: usize) -> Log {
    Arc::new(Mutex::new(ChainLog {
        evals: Vec::with_capacity(evals),
        calls: Vec::with_capacity(calls),
        ..ChainLog::default()
    }))
}

/// Lock a log. Every update is a single push or assignment, so the data is
/// valid even if a panicking chain poisoned the mutex; recover the guard so
/// a failed run still reports what it measured.
pub fn lock(log: &Log) -> MutexGuard<'_, ChainLog> {
    log.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records the latency of every evaluation of the engine it wraps.
pub struct TimedEngine {
    inner: Box<dyn LikelihoodEngine>,
    log: Log,
}

impl TimedEngine {
    /// Wrap `inner`, recording into `log`.
    pub fn wrap(inner: Box<dyn LikelihoodEngine>, log: Log) -> Box<dyn LikelihoodEngine> {
        Box::new(Self { inner, log })
    }
}

impl LikelihoodEngine for TimedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn log_likelihood(&mut self, tree: &Tree, model: &ReversibleModel) -> f64 {
        let cpu_start = cpu_ns();
        let start = now_ns();
        let lnl = self.inner.log_likelihood(tree, model);
        let end = now_ns();
        let cpu_end = cpu_ns();
        lock(&self.log).evals.push(Eval {
            start,
            end,
            cpu_start,
            cpu_end,
        });
        lnl
    }

    fn elapsed(&self) -> Duration {
        self.inner.elapsed()
    }
}

/// Forwards every `BeagleInstance` method to the wrapped rung instance and
/// records one [`Call`] per data-plane method. Introspection and control
/// methods are forwarded untimed. On drop it reads the stack's memo, queue
/// and kernel counters into the log.
pub struct TimedInstance {
    inner: Box<dyn BeagleInstance>,
    log: Log,
}

impl TimedInstance {
    /// Wrap `inner`, recording into `log`.
    pub fn wrap(inner: Box<dyn BeagleInstance>, log: Log) -> Box<dyn BeagleInstance> {
        Box::new(Self { inner, log })
    }

    fn record(&self, name: &'static str, items: usize, start: u64) {
        let end = now_ns();
        let mut log = lock(&self.log);
        let eval = log.evals.len();
        log.calls.push(Call {
            eval,
            name,
            start,
            end,
            items: items as u64,
        });
    }
}

impl Drop for TimedInstance {
    fn drop(&mut self) {
        let layers = LayerStats {
            memo: self.inner.memo_stats(),
            queue: self.inner.queue_stats(),
            kernels: self.inner.statistics(),
        };
        lock(&self.log).layers = layers;
    }
}

/// Time one forwarded call: `timed!(self, "name", items, expr)`.
macro_rules! timed {
    ($self:ident, $name:literal, $items:expr, $call:expr) => {{
        let start = now_ns();
        let result = $call;
        $self.record($name, $items, start);
        result
    }};
}

impl BeagleInstance for TimedInstance {
    fn details(&self) -> &InstanceDetails {
        self.inner.details()
    }

    fn config(&self) -> &InstanceConfig {
        self.inner.config()
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        timed!(
            self,
            "set_tip_states",
            0,
            self.inner.set_tip_states(tip, states)
        )
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_tip_partials",
            0,
            self.inner.set_tip_partials(tip, partials)
        )
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_partials",
            0,
            self.inner.set_partials(buffer, partials)
        )
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        timed!(self, "get_partials", 0, self.inner.get_partials(buffer))
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_pattern_weights",
            0,
            self.inner.set_pattern_weights(weights)
        )
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_state_frequencies",
            0,
            self.inner.set_state_frequencies(index, frequencies)
        )
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_category_rates",
            0,
            self.inner.set_category_rates(rates)
        )
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_category_weights",
            0,
            self.inner.set_category_weights(index, weights)
        )
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        timed!(
            self,
            "set_eigen_decomposition",
            0,
            self.inner
                .set_eigen_decomposition(index, vectors, inverse_vectors, values)
        )
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        timed!(
            self,
            "update_transition_matrices",
            matrix_indices.len(),
            self.inner
                .update_transition_matrices(eigen_index, matrix_indices, branch_lengths)
        )
    }

    fn update_transition_derivatives(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        d1_indices: &[usize],
        d2_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        timed!(
            self,
            "update_transition_derivatives",
            matrix_indices.len(),
            self.inner.update_transition_derivatives(
                eigen_index,
                matrix_indices,
                d1_indices,
                d2_indices,
                branch_lengths
            )
        )
    }

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
        timed!(
            self,
            "integrate_edge_derivatives",
            0,
            self.inner.integrate_edge_derivatives(
                parent,
                child,
                matrix,
                d1_matrix,
                d2_matrix,
                category_weights,
                frequencies,
                scaling
            )
        )
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        timed!(
            self,
            "set_transition_matrix",
            1,
            self.inner.set_transition_matrix(index, matrix)
        )
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        timed!(
            self,
            "get_transition_matrix",
            0,
            self.inner.get_transition_matrix(index)
        )
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        timed!(
            self,
            "update_partials",
            operations.len(),
            self.inner.update_partials(operations)
        )
    }

    fn update_partials_by_levels(&mut self, levels: &[Vec<Operation>]) -> Result<()> {
        timed!(
            self,
            "update_partials",
            levels.iter().map(Vec::len).sum(),
            self.inner.update_partials_by_levels(levels)
        )
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        timed!(
            self,
            "reset_scale_factors",
            0,
            self.inner.reset_scale_factors(cumulative)
        )
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        timed!(
            self,
            "accumulate_scale_factors",
            0,
            self.inner
                .accumulate_scale_factors(scale_indices, cumulative)
        )
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        timed!(
            self,
            "integrate_root",
            0,
            self.inner
                .integrate_root(root, category_weights, frequencies, scaling)
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
        timed!(
            self,
            "integrate_edge",
            0,
            self.inner.integrate_edge(
                parent,
                child,
                matrix,
                category_weights,
                frequencies,
                scaling
            )
        )
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        timed!(
            self,
            "get_site_log_likelihoods",
            0,
            self.inner.get_site_log_likelihoods()
        )
    }

    fn wait_for_computation(&mut self) -> Result<()> {
        timed!(
            self,
            "wait_for_computation",
            0,
            self.inner.wait_for_computation()
        )
    }

    fn simulated_time(&self) -> Option<Duration> {
        self.inner.simulated_time()
    }

    fn reset_simulated_time(&mut self) {
        self.inner.reset_simulated_time()
    }

    fn peek_simulated_time(&self) -> Option<Duration> {
        self.inner.peek_simulated_time()
    }

    fn queue_stats(&self) -> Option<QueueStats> {
        self.inner.queue_stats()
    }

    fn statistics(&self) -> Option<InstanceStats> {
        self.inner.statistics()
    }

    fn take_journal(&mut self) -> Vec<beagle_core::Event> {
        self.inner.take_journal()
    }

    fn set_deadline(&mut self, deadline: Option<beagle_core::Deadline>) {
        self.inner.set_deadline(deadline)
    }

    fn checkpoint(&mut self) -> Option<Checkpoint> {
        timed!(self, "checkpoint", 0, self.inner.checkpoint())
    }

    fn set_incremental(&mut self, enabled: bool) {
        self.inner.set_incremental(enabled)
    }

    fn memo_stats(&self) -> Option<MemoStats> {
        self.inner.memo_stats()
    }
}
