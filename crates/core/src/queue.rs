//! Deferred execution: the operation queue.
//!
//! BEAGLE's accelerator back-ends get much of their throughput from keeping
//! the device busy: work is queued host-side and launched in whole
//! dependency levels. [`QueuedInstance`] brings that behaviour to any
//! [`BeagleInstance`]: mutating calls (`set_*`, `update_*`, scale-factor
//! bookkeeping) enqueue instead of executing. The queue flushes when a
//! result is demanded (partials/matrix read-back, root/edge integration,
//! [`BeagleInstance::wait_for_computation`], the simulated clock). At flush,
//! runs of consecutive `update_partials` calls are merged, split into
//! hazard-free segments ([`crate::ops::hazard_free_segments`]), scheduled
//! with [`crate::ops::dependency_levels`], and submitted through
//! [`BeagleInstance::update_partials_by_levels`] — one batched submission
//! per level (one simulated stream on accelerators, one pool dispatch on
//! threaded CPUs). Every other call is forwarded unchanged, in order.
//!
//! The queue derives nothing itself: reuse of transition matrices across
//! repeated proposals is the memo layer's matrix store
//! ([`crate::memo`]), which sits below the queue and so serves queued and
//! eager stacks alike.
//!
//! Execution mode is selected at instance creation:
//! [`crate::Flags::COMPUTATION_ASYNCH`] in the preference or requirement
//! flags makes [`crate::ImplementationManager`] wrap the back-end instance
//! in a `QueuedInstance`; the default (or an explicit
//! [`crate::Flags::COMPUTATION_SYNCH`]) stays eager.
//!
//! Deferred-error semantics: enqueueing never fails, so argument errors
//! (bad index, wrong length) surface at the flush point — the call that
//! demanded the result. A flush aborts at the first error and discards the
//! rest of the queue.
//!
//! Interaction with the load balancer
//! ([`crate::balance::LoadBalancer`]): when a partitioned child is queued,
//! its `update_partials` call returns after enqueueing, so the parent's
//! per-call wall/simulated timing would measure nothing. That is why
//! [`crate::multi::PartitionedInstance`] accumulates each child's elapsed
//! time across the whole batch and feeds the balancer one observation per
//! batch at integration time — the integrate is a result-demanding call
//! that flushes the queue, so the batched observation captures the real
//! (flushed) cost of a queued child just as it does an eager one.

use parking_lot::Mutex;

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::error::Result;
use crate::flags::Flags;
use crate::obs::{self, EventKind, KernelClass, Recorder};
use crate::ops::{dependency_levels, hazard_free_segments, Operation};

/// Counters exposed by a [`QueuedInstance`] (and forwarded through wrapper
/// instances via [`BeagleInstance::queue_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Times the queue was flushed with at least one pending item.
    pub flushes: u64,
    /// Hazard-free operation batches submitted across all flushes.
    pub batches_submitted: u64,
    /// Dependency levels submitted across all batches.
    pub levels_submitted: u64,
    /// Partial-likelihood operations enqueued by the client.
    pub ops_enqueued: u64,
    /// Partial-likelihood operations actually submitted to the back-end.
    pub ops_submitted: u64,
    /// Transition matrices the memo layer below did not recompute: its
    /// same-destination skips plus its matrix-store reuses
    /// ([`crate::memo::MemoStats`]). The name predates the memo store and
    /// is kept because the stack benchmark reads it; it is renamed with the
    /// next benchmark change.
    pub eigen_cache_hits: u64,
    /// Transition matrices the memo layer below forwarded to the back-end
    /// (`MemoStats::matrices_computed`). Named like `eigen_cache_hits`.
    pub eigen_cache_misses: u64,
}

impl QueueStats {
    /// Fold another child's counters into this one (used by
    /// [`crate::multi::PartitionedInstance`] to aggregate across children).
    pub fn merge(&mut self, other: &QueueStats) {
        self.flushes += other.flushes;
        self.batches_submitted += other.batches_submitted;
        self.levels_submitted += other.levels_submitted;
        self.ops_enqueued += other.ops_enqueued;
        self.ops_submitted += other.ops_submitted;
        self.eigen_cache_hits += other.eigen_cache_hits;
        self.eigen_cache_misses += other.eigen_cache_misses;
    }
}

/// One deferred API call.
enum Pending {
    TipStates {
        tip: usize,
        states: Vec<u32>,
    },
    TipPartials {
        tip: usize,
        partials: Vec<f64>,
    },
    Partials {
        buffer: usize,
        partials: Vec<f64>,
    },
    PatternWeights(Vec<f64>),
    StateFrequencies {
        index: usize,
        frequencies: Vec<f64>,
    },
    CategoryRates(Vec<f64>),
    CategoryWeights {
        index: usize,
        weights: Vec<f64>,
    },
    Eigen {
        index: usize,
        vectors: Vec<f64>,
        inverse_vectors: Vec<f64>,
        values: Vec<f64>,
    },
    Matrices {
        eigen_index: usize,
        matrix_indices: Vec<usize>,
        branch_lengths: Vec<f64>,
    },
    SetMatrix {
        index: usize,
        matrix: Vec<f64>,
    },
    UpdatePartials(Vec<Operation>),
    ResetScale(usize),
    AccumulateScale {
        scale_indices: Vec<usize>,
        cumulative: usize,
    },
}

struct State {
    inner: Box<dyn BeagleInstance>,
    pending: Vec<Pending>,
    stats: QueueStats,
    recorder: Recorder,
}

impl State {
    fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let items = self.pending.len();
        let sw = self.recorder.start();
        let result = self.flush_pending();
        self.recorder
            .finish(sw, KernelClass::QueueFlush, items as u64, 0);
        self.recorder.event(EventKind::QueueFlush, || {
            format!("flush items={items} ok={}", result.is_ok())
        });
        result
    }

    fn flush_pending(&mut self) -> Result<()> {
        self.stats.flushes += 1;
        let pending = std::mem::take(&mut self.pending);
        let result = self.run_pending(&pending);
        if result.is_err() {
            // A failover layer above may retry a transient device fault by
            // re-issuing the failed call; keep the work so that retry can
            // re-submit it. Replay is idempotent: partials rewrite their
            // destination buffers and the other items re-apply in recorded
            // order.
            self.pending = pending;
        }
        result
    }

    fn run_pending(&mut self, pending: &[Pending]) -> Result<()> {
        let mut batch: Vec<Operation> = Vec::new();
        for item in pending {
            if let Pending::UpdatePartials(ops) = item {
                batch.extend(ops.iter().copied());
            } else {
                self.submit_batch(&mut batch)?;
                self.apply(item)?;
            }
        }
        self.submit_batch(&mut batch)
    }

    /// Schedule and submit an accumulated run of partials operations.
    fn submit_batch(&mut self, batch: &mut Vec<Operation>) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for segment in hazard_free_segments(batch) {
            let levels = dependency_levels(&segment);
            self.stats.batches_submitted += 1;
            self.stats.levels_submitted += levels.len() as u64;
            self.stats.ops_submitted += segment.len() as u64;
            self.recorder.event(EventKind::LevelBatch, || {
                format!("levels={} ops={}", levels.len(), segment.len())
            });
            self.inner.update_partials_by_levels(&levels)?;
        }
        batch.clear();
        Ok(())
    }

    fn apply(&mut self, item: &Pending) -> Result<()> {
        match item {
            Pending::TipStates { tip, states } => self.inner.set_tip_states(*tip, states),
            Pending::TipPartials { tip, partials } => self.inner.set_tip_partials(*tip, partials),
            Pending::Partials { buffer, partials } => self.inner.set_partials(*buffer, partials),
            Pending::PatternWeights(w) => self.inner.set_pattern_weights(w),
            Pending::StateFrequencies { index, frequencies } => {
                self.inner.set_state_frequencies(*index, frequencies)
            }
            Pending::CategoryRates(rates) => self.inner.set_category_rates(rates),
            Pending::CategoryWeights { index, weights } => {
                self.inner.set_category_weights(*index, weights)
            }
            Pending::Eigen {
                index,
                vectors,
                inverse_vectors,
                values,
            } => self
                .inner
                .set_eigen_decomposition(*index, vectors, inverse_vectors, values),
            Pending::Matrices {
                eigen_index,
                matrix_indices,
                branch_lengths,
            } => {
                self.inner
                    .update_transition_matrices(*eigen_index, matrix_indices, branch_lengths)
            }
            Pending::SetMatrix { index, matrix } => {
                self.inner.set_transition_matrix(*index, matrix)
            }
            Pending::UpdatePartials(_) => unreachable!("handled by the batch path"),
            Pending::ResetScale(c) => self.inner.reset_scale_factors(*c),
            Pending::AccumulateScale {
                scale_indices,
                cumulative,
            } => self
                .inner
                .accumulate_scale_factors(scale_indices, *cumulative),
        }
    }
}

/// A [`BeagleInstance`] wrapper that defers mutating calls onto an operation
/// queue. See the module docs for semantics.
///
/// Interior mutability: the read methods of the trait take `&self`, but a
/// flush mutates the wrapped instance, so the queue state lives in a
/// `Mutex` (the trait requires `Send + Sync` so [`crate::pool`] can share
/// instances across worker threads; a `RefCell` would forfeit `Sync`).
/// Exclusive-access paths go through `get_mut`, which takes no lock.
pub struct QueuedInstance {
    state: Mutex<State>,
    details: InstanceDetails,
    config: InstanceConfig,
}

impl QueuedInstance {
    /// Wrap `inner`, deferring all mutating calls until a result is needed.
    pub fn new(inner: Box<dyn BeagleInstance>) -> Self {
        let mut details = inner.details().clone();
        details.flags = details.flags.without(Flags::COMPUTATION_SYNCH) | Flags::COMPUTATION_ASYNCH;
        let config = *inner.config();
        // Record queue-level kernel stats iff the wrapped instance is
        // recording: its recorder doubles as the opt-in signal, and the two
        // stats blocks merge in `statistics()`.
        let recorder = Recorder::new(inner.statistics().is_some());
        Self {
            state: Mutex::new(State {
                inner,
                pending: Vec::new(),
                stats: QueueStats::default(),
                recorder,
            }),
            details,
            config,
        }
    }

    /// Force all pending work through to the back-end.
    pub fn flush(&mut self) -> Result<()> {
        self.state.get_mut().flush()
    }

    /// Counter snapshot, with the matrix counters of the memo layer below.
    pub fn stats(&self) -> QueueStats {
        let st = self.state.lock();
        let mut s = st.stats;
        if let Some(memo) = st.inner.memo_stats() {
            s.eigen_cache_hits = memo.matrices_skipped + memo.matrices_reused;
            s.eigen_cache_misses = memo.matrices_computed;
        }
        s
    }

    /// Number of deferred calls currently queued.
    pub fn pending_len(&self) -> usize {
        self.state.lock().pending.len()
    }

    /// Unwrap, discarding any still-pending work.
    pub fn into_inner(self) -> Box<dyn BeagleInstance> {
        self.state.into_inner().inner
    }

    /// Flush pending work, then hand out the inner instance for a call
    /// that demands a result.
    fn flushed(&mut self) -> Result<&mut dyn BeagleInstance> {
        let st = self.state.get_mut();
        st.flush()?;
        Ok(st.inner.as_mut())
    }

    fn enqueue(&mut self, item: Pending) {
        self.state.get_mut().pending.push(item);
    }
}

impl BeagleInstance for QueuedInstance {
    // No `wrapped()`: the inner instance sits behind the lock, so the `&self`
    // control methods below read it themselves.
    fn wrapped_mut(&mut self) -> Option<&mut dyn BeagleInstance> {
        Some(self.state.get_mut().inner.as_mut())
    }

    fn details(&self) -> &InstanceDetails {
        &self.details
    }

    fn config(&self) -> &InstanceConfig {
        &self.config
    }

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        self.enqueue(Pending::TipStates {
            tip,
            states: states.to_vec(),
        });
        Ok(())
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        self.enqueue(Pending::TipPartials {
            tip,
            partials: partials.to_vec(),
        });
        Ok(())
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        self.enqueue(Pending::Partials {
            buffer,
            partials: partials.to_vec(),
        });
        Ok(())
    }

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        let mut st = self.state.lock();
        st.flush()?;
        st.inner.get_partials(buffer)
    }

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.enqueue(Pending::PatternWeights(weights.to_vec()));
        Ok(())
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.enqueue(Pending::StateFrequencies {
            index,
            frequencies: frequencies.to_vec(),
        });
        Ok(())
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.enqueue(Pending::CategoryRates(rates.to_vec()));
        Ok(())
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.enqueue(Pending::CategoryWeights {
            index,
            weights: weights.to_vec(),
        });
        Ok(())
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.enqueue(Pending::Eigen {
            index,
            vectors: vectors.to_vec(),
            inverse_vectors: inverse_vectors.to_vec(),
            values: values.to_vec(),
        });
        Ok(())
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.enqueue(Pending::Matrices {
            eigen_index,
            matrix_indices: matrix_indices.to_vec(),
            branch_lengths: branch_lengths.to_vec(),
        });
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
        // Flush so prior eigen/rate updates are visible, then run.
        self.flushed()?.update_transition_derivatives(
            eigen_index,
            matrix_indices,
            d1_indices,
            d2_indices,
            branch_lengths,
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
        self.flushed()?.integrate_edge_derivatives(
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
        self.enqueue(Pending::SetMatrix {
            index,
            matrix: matrix.to_vec(),
        });
        Ok(())
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        let mut st = self.state.lock();
        st.flush()?;
        st.inner.get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        let st = self.state.get_mut();
        st.stats.ops_enqueued += operations.len() as u64;
        st.pending
            .push(Pending::UpdatePartials(operations.to_vec()));
        Ok(())
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        self.enqueue(Pending::ResetScale(cumulative));
        Ok(())
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        self.enqueue(Pending::AccumulateScale {
            scale_indices: scale_indices.to_vec(),
            cumulative,
        });
        Ok(())
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.flushed()?
            .integrate_root(root, category_weights, frequencies, scaling)
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
        self.flushed()?.integrate_edge(
            parent,
            child,
            matrix,
            category_weights,
            frequencies,
            scaling,
        )
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        let mut st = self.state.lock();
        st.flush()?;
        st.inner.get_site_log_likelihoods()
    }

    fn wait_for_computation(&mut self) -> Result<()> {
        self.flushed()?.wait_for_computation()
    }

    fn simulated_time(&self) -> Option<std::time::Duration> {
        let mut st = self.state.lock();
        // The simulated clock only advances when work reaches the device.
        st.flush().ok()?;
        st.inner.simulated_time()
    }

    fn reset_simulated_time(&mut self) {
        if let Ok(inner) = self.flushed() {
            inner.reset_simulated_time();
        }
    }

    fn peek_simulated_time(&self) -> Option<std::time::Duration> {
        // No flush: a peek must never execute deferred work. Pending
        // queued cost is simply not visible yet.
        self.state.lock().inner.peek_simulated_time()
    }

    fn queue_stats(&self) -> Option<QueueStats> {
        Some(self.stats())
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        let st = self.state.lock();
        let mut stats = st.inner.statistics()?;
        if let Some(own) = st.recorder.stats() {
            stats.merge(&own);
        }
        Some(stats)
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        let st = self.state.get_mut();
        obs::merge_journals(st.inner.take_journal(), st.recorder.take_journal())
    }

    fn checkpoint(&mut self) -> Option<crate::checkpoint::Checkpoint> {
        // Pending work must reach the journaling layer below before the
        // snapshot, or queued-but-unflushed operations would be lost.
        self.flushed().ok()?.checkpoint()
    }

    fn memo_stats(&self) -> Option<crate::memo::MemoStats> {
        // No flush: a counter peek must never execute deferred work.
        self.state.lock().inner.memo_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Arc, Mutex};

    type CallLog = Arc<Mutex<Vec<String>>>;

    /// A back-end that logs every call, so deferral and ordering are
    /// observable.
    struct MockInstance {
        details: InstanceDetails,
        config: InstanceConfig,
        calls: CallLog,
    }

    impl MockInstance {
        fn new(calls: CallLog) -> Self {
            Self {
                details: InstanceDetails {
                    implementation_name: "mock".into(),
                    resource_name: "mock".into(),
                    flags: Flags::NONE,
                    thread_count: 1,
                },
                config: InstanceConfig::for_tree(4, 10, 4, 1),
                calls,
            }
        }

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
        fn set_tip_partials(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_partials(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn get_partials(&self, _: usize) -> Result<Vec<f64>> {
            Ok(vec![])
        }
        fn set_pattern_weights(&mut self, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_state_frequencies(&mut self, _: usize, _: &[f64]) -> Result<()> {
            Ok(())
        }
        fn set_category_rates(&mut self, _: &[f64]) -> Result<()> {
            self.log("rates");
            Ok(())
        }
        fn set_category_weights(&mut self, _: usize, _: &[f64]) -> Result<()> {
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
            self.log(format!("up:{}", operations.len()));
            Ok(())
        }
        fn update_partials_by_levels(&mut self, levels: &[Vec<Operation>]) -> Result<()> {
            let shape: Vec<String> = levels.iter().map(|l| l.len().to_string()).collect();
            self.log(format!("levels:{}", shape.join(",")));
            Ok(())
        }
        fn reset_scale_factors(&mut self, _: usize) -> Result<()> {
            self.log("reset");
            Ok(())
        }
        fn accumulate_scale_factors(&mut self, _: &[usize], _: usize) -> Result<()> {
            self.log("accum");
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
            Ok(-1.0)
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
            Ok(-1.0)
        }
        fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
            Ok(vec![])
        }
    }

    fn op(dest: usize, c1: usize, c2: usize) -> Operation {
        Operation::new(dest, c1, c1, c2, c2)
    }

    fn traversal() -> Vec<Operation> {
        vec![op(4, 0, 1), op(5, 2, 3), op(6, 4, 5)]
    }

    /// A fresh queued mock plus a handle to its call log.
    fn queued() -> (QueuedInstance, CallLog) {
        let calls: CallLog = Arc::new(Mutex::new(Vec::new()));
        let q = QueuedInstance::new(Box::new(MockInstance::new(calls.clone())));
        (q, calls)
    }

    fn log(calls: &CallLog) -> Vec<String> {
        calls.lock().unwrap().clone()
    }

    #[test]
    fn mutating_calls_defer_until_a_result_is_demanded() {
        let (mut q, calls) = queued();
        q.set_category_rates(&[1.0]).unwrap();
        q.set_tip_states(0, &[0, 1]).unwrap();
        q.update_partials(&traversal()).unwrap();
        assert!(log(&calls).is_empty(), "nothing may reach the back-end yet");
        assert_eq!(q.pending_len(), 3);
        q.integrate_root(BufferId(6), BufferId(0), BufferId(0), ScalingMode::None)
            .unwrap();
        assert_eq!(
            log(&calls),
            vec!["rates", "tips:0", "levels:2,1", "root"],
            "flush preserves call order and levels the traversal"
        );
        assert_eq!(q.pending_len(), 0);
    }

    #[test]
    fn consecutive_traversals_merge_then_split_at_hazards() {
        let (mut q, calls) = queued();
        // The same destinations twice: WAW hazards force two submissions.
        q.update_partials(&traversal()).unwrap();
        q.update_partials(&traversal()).unwrap();
        q.wait_for_computation().unwrap();
        assert_eq!(log(&calls), vec!["levels:2,1", "levels:2,1"]);

        // Distinct halves of one traversal queued separately: one batch.
        let (mut q, calls) = queued();
        q.update_partials(&traversal()[..2]).unwrap();
        q.update_partials(&traversal()[2..]).unwrap();
        q.wait_for_computation().unwrap();
        assert_eq!(
            log(&calls),
            vec!["levels:2,1"],
            "halves merge into one leveled batch"
        );
    }

    #[test]
    fn interleaved_sets_split_batches_in_order() {
        let (mut q, calls) = queued();
        q.update_partials(&traversal()[..2]).unwrap();
        q.set_category_rates(&[2.0]).unwrap();
        q.update_partials(&traversal()[2..]).unwrap();
        q.flush().unwrap();
        assert_eq!(log(&calls), vec!["levels:2", "rates", "levels:1"]);
    }

    #[test]
    fn scale_bookkeeping_stays_ordered_with_partials() {
        let (mut q, calls) = queued();
        q.update_partials(&traversal()).unwrap();
        q.reset_scale_factors(7).unwrap();
        q.accumulate_scale_factors(&[4, 5, 6], 7).unwrap();
        q.integrate_root(
            BufferId(6),
            BufferId(0),
            BufferId(0),
            ScalingMode::cumulative(7),
        )
        .unwrap();
        assert_eq!(log(&calls), vec!["levels:2,1", "reset", "accum", "root"]);
    }

    #[test]
    fn matrix_requests_forward_unchanged_in_order() {
        let (mut q, calls) = queued();
        q.update_transition_matrices(0, &[1, 2], &[0.1, 0.2])
            .unwrap();
        q.update_transition_matrices(0, &[1, 2], &[0.1, 0.2])
            .unwrap();
        q.set_category_rates(&[1.0]).unwrap();
        q.flush().unwrap();
        assert_eq!(
            log(&calls),
            vec!["utm:2", "utm:2", "rates"],
            "the queue defers matrix requests but derives and reuses nothing"
        );
    }

    #[test]
    fn stats_count_queue_traffic() {
        let (mut q, _calls) = queued();
        q.update_partials(&traversal()).unwrap();
        q.update_partials(&traversal()).unwrap();
        q.wait_for_computation().unwrap();
        q.wait_for_computation().unwrap(); // empty: not a flush
        let s = q.stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.ops_enqueued, 6);
        assert_eq!(s.ops_submitted, 6);
        assert_eq!(s.batches_submitted, 2);
        assert_eq!(s.levels_submitted, 4);
    }

    #[test]
    fn details_advertise_asynch_mode() {
        let (q, _calls) = queued();
        assert!(q.details().flags.contains(Flags::COMPUTATION_ASYNCH));
        assert_eq!(q.config().tip_count, 4);
        assert_eq!(q.queue_stats(), Some(QueueStats::default()));
    }
}
