//! Multi-device computation: one logical instance over several back-ends,
//! with automatic failover.
//!
//! The paper's conclusion describes this as the next step: "the improvements
//! described in this paper also allow users to execute in parallel on
//! multiple devices within a system, [but] this requires the client program
//! to partition the problem across site patterns and create a separate
//! library instance for each hardware device. We plan to further develop
//! BEAGLE so that computation can be dynamically load balanced across
//! multiple devices from within a single library instance."
//!
//! [`PartitionedInstance`] implements that plan: it owns one child instance
//! per device, splits the pattern range across them (optionally weighted by
//! per-device throughput), fans every API call out, runs `update_partials`
//! on all children *concurrently* (scoped threads — each child computes its
//! pattern slice on its own hardware), and reduces root/edge likelihoods by
//! summation. It implements [`BeagleInstance`] itself, so client code is
//! unchanged.
//!
//! # Fault tolerance
//!
//! Long multi-device runs meet hardware faults. The instance keeps the one
//! [`StateJournal`] of the logical instance (its children keep none): every
//! call fans out to the children and is recorded once every child has
//! accepted it (`journal::Journaling::forward`). Every child failure is
//! classified once, by [`BeagleError::fault`]:
//!
//! * **Transient** faults (dropped kernel launch, momentary memory
//!   pressure) are retried in place up to [`MAX_RETRIES`] times with
//!   jittered exponential [`backoff`]; each retry is journaled and scored
//!   against the child's resource.
//! * **Timeouts and permanent** device faults, and transient ones that
//!   outlast their retries, evict the dead child: the remaining weights are
//!   re-normalized, every survivor is re-created at its new pattern range
//!   through the [`ImplementationManager`], the journal is replayed to
//!   rebuild their state, and the in-flight call runs again on every
//!   rebuilt child — degrading gracefully down to a single device before
//!   any error reaches the client.
//! * **No fault** (a bad argument, a numerical failure): the error reaches
//!   the client unchanged, and no child is evicted or scored. When another
//!   child had already accepted the call, the children are rebuilt at their
//!   ranges from the journal, which does not hold it, so the rejected call
//!   leaves the logical state unchanged.
//!
//! With `spec.rescue`, numerical rescue runs at this level too, over every
//! child with the instance's own journal; site values are per pattern, so
//! the reduced total keeps the single-instance bits.
//!
//! Per-child retry counters and the eviction count are exposed via
//! [`PartitionedInstance::retry_counts`] /
//! [`PartitionedInstance::eviction_count`] so clients can monitor device
//! health.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{BeagleInstance, BufferId, InstanceConfig, InstanceDetails, ScalingMode};
use crate::balance::{BalancerConfig, LoadBalancer, PATTERN_STRIDE};
use crate::checkpoint::{Checkpoint, Provenance};
use crate::deadline::Deadline;
use crate::error::{BeagleError, Result};
use crate::flags::Flags;
use crate::health::{backoff, BreakerState, Outcome, MAX_RETRIES};
use crate::journal::{journaled_calls, BelowCall, Call, Journaling, Ledger, StateJournal};
use crate::manager::ImplementationManager;
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;
use crate::real::weighted_lnl_sum;
use crate::spec::InstanceSpec;

/// How one child's implementation is (re-)selected when it must be created
/// or rebuilt: either pinned to an exact implementation name (the
/// auto-partitioned path pins each benchmark winner) or flag-ranked.
#[derive(Clone, Debug)]
pub struct ChildSelection {
    /// Pin to this exact implementation; `None` ranks by flags.
    pub implementation: Option<String>,
    /// Soft preference flags for ranking (and wrapper assembly).
    pub preferences: Flags,
    /// Hard requirement flags.
    pub requirements: Flags,
}

impl ChildSelection {
    /// Flag-ranked selection (the classic `(preference, requirement)` pair).
    pub fn from_flags(preferences: Flags, requirements: Flags) -> Self {
        Self {
            implementation: None,
            preferences,
            requirements,
        }
    }

    /// Selection pinned to an exact implementation name.
    pub fn named(
        implementation: impl Into<String>,
        preferences: Flags,
        requirements: Flags,
    ) -> Self {
        Self {
            implementation: Some(implementation.into()),
            preferences,
            requirements,
        }
    }
}

/// One logical BEAGLE instance spread across several devices.
pub struct PartitionedInstance {
    parts: Vec<Box<dyn BeagleInstance>>,
    /// Pattern range `[start, end)` of each part, contiguous and covering
    /// the full pattern count.
    ranges: Vec<(usize, usize)>,
    config: InstanceConfig,
    details: InstanceDetails,
    /// Concatenated site log-likelihoods from the last integration.
    site_lnl: Vec<f64>,
    /// The registry that re-creates children after an eviction or for a
    /// rebalance, and scores their health.
    manager: Arc<ImplementationManager>,
    /// Implementation selection per surviving child.
    selections: Vec<ChildSelection>,
    /// Pattern-share weight per surviving child.
    weights: Vec<f64>,
    /// The one journal of this logical instance: children hold none.
    ledger: Ledger,
    /// Transient-fault retries performed per surviving child.
    retry_counts: Vec<u64>,
    /// Children permanently evicted since creation.
    evictions: u64,
    /// Per-launch watchdog budget, re-applied to every rebuilt child.
    deadline: Option<Deadline>,
    /// Adaptive load balancer (see [`crate::balance`]); `None` keeps the
    /// creation-time split for the life of the instance.
    balancer: Option<LoadBalancer>,
    /// Per-child elapsed time accumulated since the last integration — one
    /// balancer observation covers a whole batch (every `update_partials`
    /// since the previous integrate, plus the integrate itself), so cheap
    /// per-call kernels don't masquerade as high throughput.
    pending: Vec<Duration>,
    /// Successful pattern-range migrations since creation.
    rebalances: u64,
    /// splitmix64 state for retry-backoff jitter, seeded with a fixed
    /// constant so test runs stay reproducible.
    rng: u64,
    /// Incremental-memoization choice, threaded into every child spec —
    /// including children rebuilt after an eviction or rebalance — and
    /// updated by runtime [`BeagleInstance::set_incremental`] calls.
    incremental: Option<bool>,
    /// Per-child [`crate::memo::MemoStats::total_skips`] watermark at the
    /// last batch close. A child whose skip count advanced during a batch
    /// produced a tainted timing sample (part of the work was elided), so
    /// the load balancer must not feed it into the EWMA rate estimate.
    skip_marks: Vec<u64>,
    /// Events drained from replaced children so their last words (the fault
    /// narration) survive an eviction or migration.
    salvaged: Vec<obs::Event>,
}

/// Split `patterns` into contiguous ranges proportional to `weights`
/// (e.g. per-device GFLOPS). Every range is non-empty; weights must be
/// positive and at most `patterns` long. Split points are rounded to
/// [`PATTERN_STRIDE`] so no slice boundary lands inside a SIMD padding
/// block (see [`weighted_ranges_aligned`] for a custom stride).
pub fn weighted_ranges(patterns: usize, weights: &[f64]) -> Result<Vec<(usize, usize)>> {
    weighted_ranges_aligned(patterns, weights, PATTERN_STRIDE)
}

/// [`weighted_ranges`] with an explicit split-point alignment.
///
/// Interior split points are rounded to the nearest multiple of `stride`
/// whenever a multiple exists inside the feasible window (every part keeps
/// at least one pattern); when none does — tiny pattern counts, extreme
/// weights — that split falls back to the unaligned proportional point
/// rather than violating the cover invariants.
pub fn weighted_ranges_aligned(
    patterns: usize,
    weights: &[f64],
    stride: usize,
) -> Result<Vec<(usize, usize)>> {
    if weights.is_empty() {
        return Err(BeagleError::InvalidConfiguration(
            "need at least one partition weight".into(),
        ));
    }
    if !weights.iter().all(|&w| w > 0.0 && w.is_finite()) {
        return Err(BeagleError::InvalidConfiguration(format!(
            "partition weights must be positive, got {weights:?}"
        )));
    }
    if weights.len() > patterns {
        return Err(BeagleError::InvalidConfiguration(format!(
            "more devices ({}) than patterns ({patterns})",
            weights.len()
        )));
    }
    let stride = stride.max(1);
    let total: f64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(weights.len());
    let mut start = 0usize;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let ideal = (acc / total) * patterns as f64;
        let end = if i == weights.len() - 1 {
            patterns
        } else {
            // Feasible window: at least one pattern here, at least one for
            // each remaining part.
            let lo = start + 1;
            let hi = patterns - (weights.len() - 1 - i);
            let mut end = ((ideal / stride as f64).round() as usize).saturating_mul(stride);
            if end < lo {
                end = lo.div_ceil(stride) * stride;
            }
            if end > hi {
                end = hi / stride * stride;
            }
            if end < lo || end > hi {
                // No aligned point fits the window; take the unaligned one.
                end = (ideal.round() as usize).clamp(lo, hi);
            }
            end
        };
        ranges.push((start, end));
        start = end;
    }
    Ok(ranges)
}

impl PartitionedInstance {
    /// Create a partitioned instance: one child per entry of `selections`
    /// (pinned by name or flag-ranked), where `weights[i]` is child `i`'s
    /// share of the pattern range (use per-device peak GFLOPS, or measured
    /// throughput from a calibration run). The spec supplies the sizing
    /// (`spec.config`), the rescue setting, the incremental-memoization
    /// choice and the per-launch watchdog deadline, which every child gets,
    /// including children rebuilt after an eviction; its implementation and
    /// flag fields are ignored in favour of `selections`. The manager is
    /// retained so dead children can be replaced at runtime (see the module
    /// docs).
    pub fn create(
        manager: &Arc<ImplementationManager>,
        spec: &InstanceSpec,
        selections: &[ChildSelection],
        weights: &[f64],
    ) -> Result<Self> {
        let config = spec.config;
        config.validate()?;
        if selections.is_empty() || selections.len() != weights.len() {
            return Err(BeagleError::InvalidConfiguration(
                "need one positive weight per device".into(),
            ));
        }
        let ranges = weighted_ranges(config.pattern_count, weights)?;
        let mut inst = Self {
            parts: Vec::new(),
            ranges: Vec::new(),
            config,
            details: Self::aggregate_details(&[]),
            site_lnl: vec![0.0; config.pattern_count],
            manager: Arc::clone(manager),
            selections: selections.to_vec(),
            weights: weights.to_vec(),
            ledger: Ledger {
                journal: StateJournal::new(),
                rescue: spec.rescue,
                rescued: None,
                // Enabled once the children exist, if any records statistics.
                recorder: Recorder::disabled(),
            },
            retry_counts: Vec::new(),
            evictions: 0,
            deadline: spec.deadline,
            balancer: None,
            pending: Vec::new(),
            rebalances: 0,
            rng: 0x5eed_0fbe_a91e,
            incremental: spec.incremental,
            skip_marks: Vec::new(),
            salvaged: Vec::new(),
        };
        inst.rebuild(ranges)
            .map_err(|(i, e)| BeagleError::ChildCreationFailed {
                child: i,
                device: match &selections[i].implementation {
                    Some(name) => name.clone(),
                    None => format!(
                        "prefs {} / reqs {}",
                        selections[i].preferences, selections[i].requirements
                    ),
                },
                source: Box::new(e),
            })?;
        inst.ledger.recorder = Recorder::new(inst.parts.iter().any(|p| p.statistics().is_some()));
        Ok(inst)
    }

    /// Build one child per selection at `ranges` (with no journal of its
    /// own), give each the watchdog budget and replay its slice of the
    /// (unscaled) journal into it, then swap the new set in, salvaging the
    /// outgoing children's event journals. On a failure the current
    /// children stay untouched and the index of the child that could not
    /// be built or replayed comes back with the cause.
    fn rebuild(
        &mut self,
        ranges: Vec<(usize, usize)>,
    ) -> std::result::Result<(), (usize, BeagleError)> {
        let mut parts: Vec<Box<dyn BeagleInstance>> = Vec::with_capacity(ranges.len());
        for (i, (sel, &(p0, p1))) in self.selections.iter().zip(&ranges).enumerate() {
            let mut spec = InstanceSpec::with_config(InstanceConfig {
                pattern_count: p1 - p0,
                ..self.config
            })
            .prefer(sel.preferences)
            .require(sel.requirements)
            .without_rescue();
            spec.implementation.clone_from(&sel.implementation);
            spec.incremental = self.incremental;
            let built = self.manager.create_from_spec(&spec).and_then(|mut inst| {
                // Restore the watchdog budget before replay: a replacement
                // device can stall during replay too.
                inst.set_deadline(self.deadline);
                self.ledger
                    .journal
                    .replay_slice(inst.as_mut(), &self.config, p0, p1)
                    .map(|()| inst)
            });
            parts.push(built.map_err(|e| (i, e))?);
        }
        for mut old in std::mem::replace(&mut self.parts, parts) {
            self.salvaged =
                obs::merge_journals(std::mem::take(&mut self.salvaged), old.take_journal());
        }
        self.ranges = ranges;
        self.ledger.rescued = None;
        let n = self.parts.len();
        self.retry_counts = vec![0; n];
        self.pending = vec![Duration::ZERO; n];
        self.skip_marks = vec![0; n];
        self.details = Self::aggregate_details(&self.parts);
        Ok(())
    }

    /// Details aggregated over the *current* children. Re-derived whenever
    /// the child set or layout changes (eviction, rebalance) — the
    /// implementation name, OR'd capability flags, and summed thread count
    /// all describe the live children, not the creation-time ones.
    fn aggregate_details(parts: &[Box<dyn BeagleInstance>]) -> InstanceDetails {
        let names: Vec<&str> = parts
            .iter()
            .map(|p| p.details().implementation_name.as_str())
            .collect();
        InstanceDetails {
            implementation_name: format!("Partitioned[{}]", names.join(" + ")),
            resource_name: format!("{} devices", parts.len()),
            flags: parts
                .iter()
                .fold(Flags::NONE, |acc, p| acc | p.details().flags),
            thread_count: parts.iter().map(|p| p.details().thread_count).sum(),
        }
    }

    /// Number of child devices.
    pub fn device_count(&self) -> usize {
        self.parts.len()
    }

    /// The pattern range assigned to child `i`.
    pub fn range(&self, i: usize) -> (usize, usize) {
        self.ranges[i]
    }

    /// Borrow child `i` (for inspection in tests/diagnostics).
    pub fn part(&self, i: usize) -> &dyn BeagleInstance {
        self.parts[i].as_ref()
    }

    /// Transient-fault retries performed so far, per surviving child.
    pub fn retry_counts(&self) -> &[u64] {
        &self.retry_counts
    }

    /// Children permanently evicted since creation.
    pub fn eviction_count(&self) -> u64 {
        self.evictions
    }

    /// Successful pattern-range migrations since creation.
    pub fn rebalance_count(&self) -> u64 {
        self.rebalances
    }

    /// Switch on adaptive load balancing (see [`crate::balance`]): every
    /// batch (the `update_partials` calls since the previous integration,
    /// plus the integration that closes it) feeds per-child elapsed times
    /// into an EWMA throughput estimate, and when the predicted makespan
    /// skew of the current split exceeds [`crate::balance::SKEW_THRESHOLD`]
    /// the children are rebuilt at new measured-throughput ranges.
    pub fn enable_balancing(&mut self, config: BalancerConfig) {
        self.balancer = Some(LoadBalancer::new(self.parts.len(), config));
        self.pending = vec![Duration::ZERO; self.parts.len()];
        // Baseline the skip watermarks so skips from before balancing was
        // enabled don't taint the first batch.
        self.skip_marks = self
            .parts
            .iter()
            .map(|p| p.memo_stats().map_or(0, |s| s.total_skips()))
            .collect();
    }

    /// The adaptive balancer, if [`Self::enable_balancing`] was called.
    pub fn balancer(&self) -> Option<&LoadBalancer> {
        self.balancer.as_ref()
    }

    /// Migrate to new pattern ranges proportional to `weights` (one per
    /// child, positive). The same migration the adaptive path performs, but
    /// at an explicit weighting — deterministic test harnesses drive every
    /// intermediate configuration through this. Returns `Ok(false)` when
    /// the weighting maps to the ranges already in place.
    pub fn rebalance_to(&mut self, weights: &[f64]) -> Result<bool> {
        let ranges = weighted_ranges(self.config.pattern_count, weights)?;
        self.apply_rebalance(ranges, weights)
    }

    /// Close the batch an integration just finished: each clean child's
    /// integrate `observations` entry, plus whatever `update_partials` time
    /// it accumulated in `pending` since the previous integration, becomes
    /// one balancer throughput sample. Children that retried mid-batch have
    /// their pending time discarded (tainted sample), and so do children
    /// whose incremental-memoization layer skipped any work during the
    /// batch — a batch that elided kernels measures the memo cache, not the
    /// device, and would poison the EWMA rate estimate.
    fn observe_batch(&mut self, observations: Vec<(usize, Duration)>) {
        if let Some(balancer) = &mut self.balancer {
            for (i, elapsed) in observations {
                let skips = self.parts[i].memo_stats().map_or(0, |s| s.total_skips());
                if skips != self.skip_marks[i] {
                    self.skip_marks[i] = skips;
                    continue;
                }
                let (p0, p1) = self.ranges[i];
                balancer.observe(i, p1 - p0, self.pending[i] + elapsed);
            }
        }
        self.pending.fill(Duration::ZERO);
    }

    /// Ask the balancer whether the measured throughputs justify a
    /// migration, and perform it if so. Called at batch boundaries (after
    /// an integration completes) — never mid-batch, so children are always
    /// migrated at a consistent journaled state. Migration failures abort
    /// the attempt and keep the current children; the balancer will simply
    /// propose again after the next batch.
    fn maybe_rebalance(&mut self) {
        let Some(balancer) = &mut self.balancer else {
            return;
        };
        let Some((ranges, weights)) = balancer.plan(self.config.pattern_count, &self.ranges) else {
            return;
        };
        let _ = self.apply_rebalance(ranges, &weights);
    }

    /// Migrate pattern slices between children: [`Self::rebuild`] every
    /// child at its new range. Any creation or replay failure aborts the
    /// whole migration with the old children untouched.
    fn apply_rebalance(
        &mut self,
        new_ranges: Vec<(usize, usize)>,
        weights: &[f64],
    ) -> Result<bool> {
        if new_ranges == self.ranges {
            return Ok(false);
        }
        if new_ranges.len() != self.parts.len() || weights.len() != self.parts.len() {
            return Err(BeagleError::InvalidConfiguration(format!(
                "rebalance needs one range and weight per child, got {} ranges / {} weights / {} children",
                new_ranges.len(),
                weights.len(),
                self.parts.len()
            )));
        }
        let old_ranges = self.ranges.clone();
        if let Err((i, e)) = self.rebuild(new_ranges) {
            self.ledger.recorder.event(EventKind::Rebalance, || {
                format!("aborted child={i} cause={e}")
            });
            return Err(e);
        }
        self.weights = weights.to_vec();
        self.rebalances += 1;
        self.ledger.recorder.event(EventKind::Rebalance, || {
            format!(
                "from={old_ranges:?} to={:?} weights={weights:?}",
                self.ranges
            )
        });
        Ok(true)
    }

    /// Recompute the global log-likelihood from the concatenated per-pattern
    /// site values, in pattern order — the exact left-to-right reduction
    /// `Σ widen(wᵖ)·widen(lnlᵖ)` every single-instance back-end performs
    /// (scalar, SIMD and accelerator kernels all accumulate this way). The
    /// children's own partial totals are discarded: summing them would group
    /// the additions at partition boundaries and drift from the
    /// single-instance bits. Weights are re-cast through each child's
    /// precision so the parent multiplies the same widened operands the
    /// child's kernel did.
    fn reduce_total(&self) -> f64 {
        let weights = self.ledger.journal.pattern_weights();
        let mut total = 0.0;
        for (part, &(p0, p1)) in self.parts.iter().zip(&self.ranges) {
            let single = part.details().flags.contains(Flags::PRECISION_SINGLE);
            let w = (p0..p1).map(|p| {
                let w = weights.map_or(1.0, |w| w[p]);
                if single {
                    w as f32 as f64
                } else {
                    w
                }
            });
            total = weighted_lnl_sum(total, &self.site_lnl[p0..p1], w);
        }
        total
    }

    /// Run `call` on `part` and time it: the modeled device-time delta when
    /// the part simulates a device (injected stalls charge the simulated
    /// clock, not the wall), wall time otherwise. The time doubles as the
    /// load balancer's throughput sample for that child.
    fn timed<T>(
        part: &mut dyn BeagleInstance,
        call: impl FnOnce(&mut dyn BeagleInstance) -> T,
    ) -> (T, Duration) {
        let sim0 = part.simulated_time();
        let t0 = Instant::now();
        let r = call(part);
        let wall = t0.elapsed();
        let elapsed = part
            .simulated_time()
            .zip(sim0)
            .map(|(t1, t0)| t1.saturating_sub(t0))
            .filter(|d| !d.is_zero())
            .unwrap_or(wall);
        (r, elapsed)
    }

    /// The one child-call path: `first` is the result of child `i`'s first
    /// attempt at `call`; while it is a transient fault, sleep a jittered
    /// [`backoff`] and call again, at most [`MAX_RETRIES`] times. Retries
    /// are counted, journaled as one `FailoverRetry` event and each scored
    /// [`Outcome::Transient`] against the child's resource. A failure that
    /// survives escalates: a resource fault evicts the child and rebuilds
    /// the survivors (`Ok(true)`: the children changed), any other error
    /// reaches the caller unchanged. `Ok(false)`: the call succeeded.
    fn settle_child(
        &mut self,
        i: usize,
        first: Result<()>,
        mut call: impl FnMut(&mut dyn BeagleInstance) -> Result<()>,
    ) -> Result<bool> {
        let mut r = first;
        let mut retries = 0;
        while retries < MAX_RETRIES && r.as_ref().is_err_and(BeagleError::is_retryable) {
            retries += 1;
            std::thread::sleep(backoff(retries, &mut self.rng));
            r = call(self.parts[i].as_mut());
        }
        if retries > 0 {
            self.retry_counts[i] += u64::from(retries);
            self.ledger.recorder.event(EventKind::FailoverRetry, || {
                format!("child={i} retries={retries} ok={}", r.is_ok())
            });
            let resource = self.parts[i].details().implementation_name.clone();
            for _ in 0..retries {
                self.note_health(&resource, Outcome::Transient);
            }
        }
        let Err(e) = r else {
            return Ok(false);
        };
        let Some(outcome) = e.fault() else {
            return Err(e);
        };
        self.evict_and_rebuild(i, e, outcome)?;
        Ok(true)
    }

    /// Report a child outcome to the manager's health registry and surface
    /// any breaker transition in the event journal.
    fn note_health(&mut self, resource: &str, outcome: Outcome) {
        if let Some((_, to)) = self.manager.health().record(resource, outcome) {
            let kind = match to {
                BreakerState::Open => EventKind::BreakerOpen,
                BreakerState::HalfOpen => EventKind::BreakerHalfOpen,
                BreakerState::Closed => EventKind::BreakerClosed,
            };
            self.ledger
                .recorder
                .event(kind, || format!("resource={resource} after={outcome:?}"));
        }
    }

    /// Evict child `dead` (its failure `cause`, a resource fault scored
    /// `outcome`, already survived retries), then rebuild every survivor at
    /// its re-balanced pattern range. Survivors whose re-creation or replay
    /// fails are evicted too; the cause surfaces once no child remains.
    fn evict_and_rebuild(
        &mut self,
        dead: usize,
        cause: BeagleError,
        outcome: Outcome,
    ) -> Result<()> {
        let dead_resource = self.parts[dead].details().implementation_name.clone();
        self.note_health(&dead_resource, outcome);
        self.evictions += 1;
        self.ledger.recorder.event(EventKind::FailoverEviction, || {
            format!(
                "child={dead} cause={cause} survivors={}",
                self.parts.len() - 1
            )
        });
        // Salvage the dying child's event journal before dropping it: it
        // recorded the fault's own narration (e.g. the watchdog
        // cancellation that caused this eviction).
        let mut dying = self.parts.remove(dead);
        self.salvaged =
            obs::merge_journals(std::mem::take(&mut self.salvaged), dying.take_journal());
        drop(dying);
        self.selections.remove(dead);
        self.weights.remove(dead);
        self.retry_counts.remove(dead);
        self.pending.remove(dead);
        self.skip_marks.remove(dead);
        if let Some(b) = &mut self.balancer {
            b.remove_part(dead);
        }
        self.rebuild_evicting(None, cause)
    }

    /// [`Self::rebuild`] the children at `ranges`, or, when `None`, at
    /// ranges re-split over the surviving selections. A child whose rebuild
    /// fails is evicted and the survivors are re-split and rebuilt in turn;
    /// `cause` surfaces once no child remains.
    fn rebuild_evicting(
        &mut self,
        mut ranges: Option<Vec<(usize, usize)>>,
        cause: BeagleError,
    ) -> Result<()> {
        loop {
            if self.selections.is_empty() {
                return Err(cause);
            }
            let ranges = match ranges.take() {
                Some(ranges) => ranges,
                None => {
                    // An eviction is an immediate rebalance over the
                    // survivors: when the balancer has settled throughput
                    // estimates, the rebuild uses *measured* weights rather
                    // than the stale creation-time shares.
                    if let Some(thr) = self.balancer.as_ref().and_then(|b| b.throughputs()) {
                        if thr.len() == self.weights.len() {
                            self.weights = thr;
                            self.ledger.recorder.event(EventKind::Rebalance, || {
                                format!(
                                    "trigger=eviction survivors={} weights={:?}",
                                    self.selections.len(),
                                    self.weights
                                )
                            });
                        }
                    }
                    weighted_ranges(self.config.pattern_count, &self.weights)?
                }
            };
            let Err((j, _)) = self.rebuild(ranges) else {
                return Ok(());
            };
            self.evictions += 1;
            self.ledger.recorder.event(EventKind::FailoverEviction, || {
                format!(
                    "child={j} cause=rebuild-failed survivors={}",
                    self.selections.len() - 1
                )
            });
            self.selections.remove(j);
            self.weights.remove(j);
            if let Some(b) = &mut self.balancer {
                b.remove_part(j);
            }
        }
    }
}

impl Journaling for PartitionedInstance {
    fn ledger(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// The one fan-out path (see the module docs): run `call` on every
    /// child (at once when `concurrent`, each device on its own slice), then
    /// settle each failure through [`Self::settle_child`]. Bounded: every
    /// round returns or evicts.
    fn below(&mut self, concurrent: bool, call: &BelowCall) -> Result<()> {
        'round: for _ in 0..=self.parts.len() {
            let jobs = self.parts.iter_mut().zip(self.ranges.iter().copied());
            let run = |(part, range): (&mut Box<dyn BeagleInstance>, _)| {
                Self::timed(part.as_mut(), |p| call(p, range))
            };
            let firsts: Vec<(Result<()>, Duration)> = if concurrent {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = jobs.map(|job| scope.spawn(move || run(job))).collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("no panics"))
                        .collect()
                })
            } else {
                jobs.map(run).collect()
            };
            let mut accepted = firsts.iter().any(|(r, _)| r.is_ok());
            for (i, (first, elapsed)) in firsts.into_iter().enumerate() {
                // A clean first-try time of concurrent work adds to the batch
                // the next integration closes (see `observe_batch`); one
                // that includes a fault, retry backoff or rebuild says
                // nothing about throughput.
                if concurrent && first.is_ok() {
                    self.pending[i] += elapsed;
                }
                let range = self.ranges[i];
                match self.settle_child(i, first, |p| call(p, range)) {
                    Ok(true) => continue 'round,
                    Ok(false) => accepted = true,
                    Err(e) => {
                        if accepted && e.fault().is_none() {
                            self.rebuild_evicting(Some(self.ranges.clone()), e.clone())?;
                        }
                        return Err(e);
                    }
                }
            }
            return Ok(());
        }
        unreachable!("eviction loop is bounded by the child count");
    }

    /// Run a root or edge integration on every child, gather the site
    /// log-likelihoods, and reduce them to the total. Integration is not
    /// journaled (it writes no instance state), so on eviction the whole
    /// reduction restarts against the rebuilt children. Bounded: every
    /// round either returns or evicts.
    fn integrate_below(
        &mut self,
        integrate: &dyn Fn(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64> {
        let integrate = |p: &mut dyn BeagleInstance| integrate(p).map(drop);
        'round: for _ in 0..=self.parts.len() {
            let mut observations: Vec<(usize, Duration)> = Vec::with_capacity(self.parts.len());
            for i in 0..self.parts.len() {
                let (first, elapsed) = Self::timed(self.parts[i].as_mut(), integrate);
                if first.is_ok() {
                    observations.push((i, elapsed));
                }
                if self.settle_child(i, first, integrate)? {
                    continue 'round;
                }
                let resource = self.parts[i].details().implementation_name.clone();
                self.note_health(&resource, Outcome::Success);
                let (p0, p1) = self.ranges[i];
                self.site_lnl[p0..p1].copy_from_slice(&self.parts[i].get_site_log_likelihoods()?);
            }
            // Reduce before any migration: the per-range precision casts
            // must match the children that produced these site values.
            let total = self.reduce_total();
            self.observe_batch(observations);
            self.maybe_rebalance();
            return Ok(total);
        }
        unreachable!("eviction loop is bounded by the child count");
    }
}

impl BeagleInstance for PartitionedInstance {
    fn details(&self) -> &InstanceDetails {
        &self.details
    }

    fn config(&self) -> &InstanceConfig {
        &self.config
    }

    journaled_calls!();

    fn get_partials(&self, buffer: usize) -> Result<Vec<f64>> {
        // Re-interleave children's [cat][pattern][state] blocks.
        let s = self.config.state_count;
        let n_pat = self.config.pattern_count;
        let n_cat = self.config.category_count;
        let mut out = vec![0.0; self.config.partials_len()];
        for (i, part) in self.parts.iter().enumerate() {
            let sub = part.get_partials(buffer)?;
            let (p0, p1) = self.ranges[i];
            let width = (p1 - p0) * s;
            for c in 0..n_cat {
                let dst = (c * n_pat + p0) * s;
                out[dst..dst + width].copy_from_slice(&sub[c * width..(c + 1) * width]);
            }
        }
        Ok(out)
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.parts[0].get_transition_matrix(index)
    }

    fn get_site_log_likelihoods(&self) -> Result<Vec<f64>> {
        Ok(self.site_lnl.clone())
    }

    fn simulated_time(&self) -> Option<std::time::Duration> {
        // Devices run concurrently: the logical device time is the maximum
        // over children — defined only when every child is simulated.
        self.parts
            .iter()
            .map(|p| p.simulated_time())
            .try_fold(std::time::Duration::ZERO, |acc, t| t.map(|t| acc.max(t)))
    }

    fn reset_simulated_time(&mut self) {
        for p in &mut self.parts {
            p.reset_simulated_time();
        }
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        if !self.ledger.recorder.is_enabled() {
            return None;
        }
        let mut merged = self.ledger.recorder.stats().unwrap_or_default();
        for p in &self.parts {
            if let Some(s) = p.statistics() {
                merged.merge(&s);
            }
        }
        Some(merged)
    }

    fn take_journal(&mut self) -> Vec<obs::Event> {
        let mut merged = obs::merge_journals(
            std::mem::take(&mut self.salvaged),
            self.ledger.recorder.take_journal(),
        );
        for p in &mut self.parts {
            merged = obs::merge_journals(merged, p.take_journal());
        }
        merged
    }

    fn set_deadline(&mut self, deadline: Option<Deadline>) {
        self.deadline = deadline;
        for p in &mut self.parts {
            p.set_deadline(deadline);
        }
    }

    fn checkpoint(&mut self) -> Option<Checkpoint> {
        // The journal holds the full-problem state (children only see
        // pattern slices), so it is exactly what a snapshot needs. The
        // provenance carries no flags: a restore ranks implementations
        // afresh, which is right, since the original device layout may not
        // exist in the restoring process.
        let ckpt = Checkpoint {
            config: self.config,
            provenance: Provenance {
                rescue: self.ledger.rescue,
                ..Provenance::default()
            },
            journal: self.ledger.journal.clone(),
        };
        self.ledger.recorder.event(EventKind::CheckpointSaved, || {
            format!(
                "config={}x{} ops={} children={}",
                self.config.tip_count,
                self.config.pattern_count,
                ckpt.journal.operations().len(),
                self.parts.len()
            )
        });
        Some(ckpt)
    }

    fn set_incremental(&mut self, enabled: bool) {
        // Remember the toggle so children rebuilt after an eviction or
        // rebalance come up with the same memoization behaviour.
        self.incremental = Some(enabled);
        for p in &mut self.parts {
            p.set_incremental(enabled);
        }
    }

    fn memo_stats(&self) -> Option<crate::memo::MemoStats> {
        self.parts
            .iter()
            .filter_map(|p| p.memo_stats())
            .reduce(|mut agg, s| {
                agg.merge(&s);
                agg
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_ranges_cover_and_respect_weights() {
        // The 1:3 split point (250) rounds down to the pattern stride (248).
        let r = weighted_ranges(1000, &[1.0, 3.0]).unwrap();
        assert_eq!(r, vec![(0, 248), (248, 1000)]);
        let r = weighted_ranges(10, &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(r.first().unwrap().0, 0);
        assert_eq!(r.last().unwrap().1, 10);
        let covered: usize = r.iter().map(|(a, b)| b - a).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn split_points_are_stride_aligned() {
        // Regression: the proportional split used to land mid-padding-block
        // (e.g. 250 with an 8-pattern SIMD stride), so a migrated slice
        // started inside a partially-filled vector. Every interior split
        // must now be a stride multiple whenever the window allows one.
        for weights in [
            vec![1.0, 3.0],
            vec![9.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![2.5, 1.0, 4.0],
        ] {
            let r = weighted_ranges(1024, &weights).unwrap();
            for w in r.windows(2) {
                assert_eq!(w[0].1 % PATTERN_STRIDE, 0, "unaligned split in {r:?}");
            }
            assert_eq!(r.last().unwrap().1, 1024);
        }
    }

    #[test]
    fn explicit_stride_respected_with_fallback() {
        let r = weighted_ranges_aligned(1000, &[1.0, 1.0], 16).unwrap();
        assert_eq!(r, vec![(0, 496), (496, 1000)]);
        // Stride 1 reproduces the exact proportional split.
        let r = weighted_ranges_aligned(1000, &[1.0, 3.0], 1).unwrap();
        assert_eq!(r, vec![(0, 250), (250, 1000)]);
        // Infeasible alignment (tiny windows) falls back without violating
        // the cover invariants.
        let r = weighted_ranges_aligned(5, &[1.0, 1.0, 1.0], 8).unwrap();
        assert_eq!(r.last().unwrap().1, 5);
        assert!(r.iter().all(|(a, b)| b > a), "{r:?}");
    }

    #[test]
    fn every_part_gets_at_least_one_pattern() {
        // Extreme weights must not starve a device.
        let r = weighted_ranges(10, &[1e-6, 1.0, 1e-6]).unwrap();
        assert!(r.iter().all(|(a, b)| b > a), "{r:?}");
        assert_eq!(r.last().unwrap().1, 10);
    }

    #[test]
    fn too_many_devices_rejected() {
        let err = weighted_ranges(2, &[1.0, 1.0, 1.0]);
        assert!(
            matches!(err, Err(BeagleError::InvalidConfiguration(ref m)) if m.contains("more devices")),
            "{err:?}"
        );
    }

    #[test]
    fn degenerate_weights_rejected() {
        assert!(weighted_ranges(10, &[]).is_err());
        assert!(weighted_ranges(10, &[1.0, 0.0]).is_err());
        assert!(weighted_ranges(10, &[1.0, -2.0]).is_err());
    }
}
