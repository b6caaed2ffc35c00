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
//! Long multi-device runs meet hardware faults. Every fan-out call records
//! its inputs in a [`StateJournal`] and classifies child failures with
//! [`BeagleError::is_retryable`]:
//!
//! * **Transient** faults (dropped kernel launch, momentary memory
//!   pressure) are retried in place with bounded exponential backoff.
//! * **Permanent** device faults evict the dead child: the remaining
//!   weights are re-normalized, every survivor is re-created at its new
//!   pattern range through the [`ImplementationManager`], and the journal
//!   is replayed to rebuild their state — degrading gracefully down to a
//!   single device before any error reaches the client.
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
use crate::health::{BreakerState, Outcome};
use crate::journal::StateJournal;
use crate::manager::ImplementationManager;
use crate::obs::{self, EventKind, Recorder};
use crate::ops::Operation;
use crate::real::weighted_lnl_sum;
use crate::spec::InstanceSpec;

/// How transient child failures are retried before escalating to eviction.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum in-place retries per call and child.
    pub max_retries: u32,
    /// Backoff ceiling before the first retry; doubles on each subsequent
    /// one.
    pub base_delay: Duration,
    /// Draw each actual backoff uniformly from `[0, ceiling]` ("full
    /// jitter") instead of sleeping the ceiling exactly. Decorrelates
    /// retries when several children hit the same transient fault, so they
    /// do not re-converge on the struggling device in lockstep.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_delay: Duration::from_micros(200),
            jitter: true,
        }
    }
}

/// splitmix64 step — the jitter source. Hand-rolled (the offline build has
/// no rand crate) and seeded with a fixed constant per instance, so retry
/// *timing* varies within a run but test runs stay reproducible.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

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

/// What eviction-and-rebuild needs: the registry that can re-create
/// children, plus each surviving child's selection and weight.
struct FailoverState {
    manager: Arc<ImplementationManager>,
    /// Implementation selection per surviving child.
    selections: Vec<ChildSelection>,
    /// Pattern-share weight per surviving child.
    weights: Vec<f64>,
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
    /// Everything needed to rebuild children after a device dies; `None`
    /// for instances assembled with [`PartitionedInstance::from_parts`],
    /// which cannot fail over (no manager to re-create children with).
    failover: Option<FailoverState>,
    journal: StateJournal,
    retry: RetryPolicy,
    /// Transient-fault retries performed per surviving child.
    retry_counts: Vec<u64>,
    /// Children permanently evicted since creation.
    evictions: u64,
    /// Per-launch watchdog budget, re-applied to children rebuilt after an
    /// eviction.
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
    /// splitmix64 state for retry-backoff jitter.
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
    /// Failover-event journal; enabled when any child records statistics.
    recorder: Recorder,
    /// Events drained from evicted children so their last words (the fault
    /// narration) survive the eviction.
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

/// Whether a child failure that survived retries warrants evicting the
/// child (device-level faults) rather than propagating (bad arguments,
/// numerical failures — eviction cannot fix those).
fn is_evictable(e: &BeagleError) -> bool {
    matches!(
        e,
        BeagleError::Device { .. }
            | BeagleError::ResourceExhausted { .. }
            | BeagleError::Timeout { .. }
    )
}

impl PartitionedInstance {
    /// Create a partitioned instance: one child per entry of `devices`,
    /// where each entry is the (preference, requirement) flag pair used to
    /// select that child's implementation, and `weights[i]` is its share of
    /// the pattern range (use per-device peak GFLOPS, or measured
    /// throughput from a calibration run). The manager is retained so dead
    /// children can be replaced at runtime (see the module docs).
    pub fn create(
        manager: &Arc<ImplementationManager>,
        config: &InstanceConfig,
        devices: &[(Flags, Flags)],
        weights: &[f64],
    ) -> Result<Self> {
        let selections = devices
            .iter()
            .map(|&(prefs, reqs)| ChildSelection::from_flags(prefs, reqs))
            .collect();
        Self::create_with_selections(
            manager,
            &InstanceSpec::with_config(*config),
            selections,
            weights,
        )
    }

    /// Like [`PartitionedInstance::create`], but applying the robustness
    /// knobs of an [`InstanceSpec`]: its retry policy and its per-launch
    /// watchdog deadline (forwarded to every child, and re-applied to
    /// children rebuilt after an eviction). The spec's sizing
    /// (`spec.config`) is used; its implementation/preference fields are
    /// ignored in favour of the per-device `devices` flags.
    pub fn create_with_spec(
        manager: &Arc<ImplementationManager>,
        spec: &InstanceSpec,
        devices: &[(Flags, Flags)],
        weights: &[f64],
    ) -> Result<Self> {
        let selections = devices
            .iter()
            .map(|&(prefs, reqs)| ChildSelection::from_flags(prefs, reqs))
            .collect();
        Self::create_with_selections(manager, spec, selections, weights)
    }

    /// The general creation path: one child per [`ChildSelection`] (pinned
    /// by name or flag-ranked), pattern ranges proportional to `weights`,
    /// and the spec's retry policy / watchdog deadline applied. This is what
    /// [`ImplementationManager::create_instance_auto_partitioned`] uses to
    /// pin each benchmark winner by name.
    pub fn create_with_selections(
        manager: &Arc<ImplementationManager>,
        spec: &InstanceSpec,
        selections: Vec<ChildSelection>,
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
        let mut parts = Vec::with_capacity(selections.len());
        for (i, (sel, &(p0, p1))) in selections.iter().zip(&ranges).enumerate() {
            let part = Self::build_child(manager, &config, sel, p1 - p0, spec.incremental)
                .map_err(|e| BeagleError::ChildCreationFailed {
                    child: i,
                    device: match &sel.implementation {
                        Some(name) => name.clone(),
                        None => format!("prefs {} / reqs {}", sel.preferences, sel.requirements),
                    },
                    source: Box::new(e),
                })?;
            parts.push(part);
        }
        let mut inst = Self::from_parts(parts, ranges, config)?;
        inst.incremental = spec.incremental;
        inst.failover = Some(FailoverState {
            manager: Arc::clone(manager),
            selections,
            weights: weights.to_vec(),
        });
        if let Some(retry) = spec.retry {
            inst.set_retry_policy(retry);
        }
        if spec.deadline.is_some() {
            inst.set_deadline(spec.deadline);
        }
        Ok(inst)
    }

    /// Create one child sized for `patterns` patterns according to `sel`.
    fn build_child(
        manager: &ImplementationManager,
        config: &InstanceConfig,
        sel: &ChildSelection,
        patterns: usize,
        incremental: Option<bool>,
    ) -> Result<Box<dyn BeagleInstance>> {
        let mut sub = *config;
        sub.pattern_count = patterns;
        let mut spec = InstanceSpec::with_config(sub)
            .prefer(sel.preferences)
            .require(sel.requirements);
        spec.incremental = incremental;
        if let Some(name) = &sel.implementation {
            spec = spec.named(name.clone());
        }
        manager.create_from_spec(&spec)
    }

    /// Assemble from already-created children (one per pattern range).
    /// Instances built this way cannot fail over — without the manager
    /// there is no way to replace a dead child — but transient-fault
    /// retries still apply.
    pub fn from_parts(
        parts: Vec<Box<dyn BeagleInstance>>,
        ranges: Vec<(usize, usize)>,
        config: InstanceConfig,
    ) -> Result<Self> {
        if parts.len() != ranges.len() || parts.is_empty() {
            return Err(BeagleError::InvalidConfiguration(format!(
                "need one child per pattern range, got {} children / {} ranges",
                parts.len(),
                ranges.len()
            )));
        }
        if ranges.first().map(|r| r.0) != Some(0)
            || ranges.last().map(|r| r.1) != Some(config.pattern_count)
            || ranges.windows(2).any(|w| w[0].1 != w[1].0)
        {
            return Err(BeagleError::InvalidConfiguration(format!(
                "ranges must contiguously cover 0..{}, got {ranges:?}",
                config.pattern_count
            )));
        }
        for (i, (part, &(p0, p1))) in parts.iter().zip(&ranges).enumerate() {
            if part.config().pattern_count != p1 - p0 {
                return Err(BeagleError::InvalidConfiguration(format!(
                    "child {i} sized for {} patterns but assigned range {p0}..{p1}",
                    part.config().pattern_count
                )));
            }
        }
        let details = Self::aggregate_details(&parts);
        let site_lnl = vec![0.0; config.pattern_count];
        let retry_counts = vec![0; parts.len()];
        let n_parts = parts.len();
        let recorder = Recorder::new(parts.iter().any(|p| p.statistics().is_some()));
        Ok(Self {
            parts,
            ranges,
            config,
            details,
            site_lnl,
            failover: None,
            journal: StateJournal::new(),
            retry: RetryPolicy::default(),
            retry_counts,
            evictions: 0,
            deadline: None,
            balancer: None,
            pending: vec![Duration::ZERO; n_parts],
            rebalances: 0,
            rng: 0x5eed_0fbe_a91e,
            incremental: None,
            skip_marks: vec![0; n_parts],
            salvaged: Vec::new(),
            recorder,
        })
    }

    /// Details aggregated over the *current* children. Must be re-derived
    /// whenever the child set or layout changes (eviction, rebalance) — the
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

    /// Re-derive `self.details` from the live children (called after every
    /// eviction and every rebalance).
    fn refresh_details(&mut self) {
        self.details = Self::aggregate_details(&self.parts);
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

    /// Replace the transient-failure retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
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
    /// skew of the current split exceeds `config.skew_threshold` the
    /// children are rebuilt at new measured-throughput ranges. Requires
    /// failover state (a retained manager) to migrate; without it the
    /// balancer measures but any proposed migration is dropped.
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
        let stride = self
            .balancer
            .as_ref()
            .map_or(PATTERN_STRIDE, |b| b.config().stride);
        let ranges = weighted_ranges_aligned(self.config.pattern_count, weights, stride)?;
        self.apply_rebalance(&ranges, weights)
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
        if self.failover.is_none() {
            return;
        }
        let Some(balancer) = &mut self.balancer else {
            return;
        };
        let Some((ranges, weights)) = balancer.plan(self.config.pattern_count, &self.ranges) else {
            return;
        };
        let _ = self.apply_rebalance(&ranges, &weights);
    }

    /// Migrate pattern slices between children: rebuild every child at its
    /// new range and replay the journal slice into it (tip data, pattern
    /// weights, partials, scale state — the full recorded state), then
    /// atomically swap the child set. Any creation or replay failure aborts
    /// the whole migration with the old children untouched.
    fn apply_rebalance(&mut self, new_ranges: &[(usize, usize)], weights: &[f64]) -> Result<bool> {
        if new_ranges == self.ranges.as_slice() {
            return Ok(false);
        }
        let Some(failover) = &self.failover else {
            return Err(BeagleError::InvalidConfiguration(
                "cannot rebalance without failover state (no manager to rebuild children with)"
                    .into(),
            ));
        };
        if new_ranges.len() != self.parts.len() || weights.len() != self.parts.len() {
            return Err(BeagleError::InvalidConfiguration(format!(
                "rebalance needs one range and weight per child, got {} ranges / {} weights / {} children",
                new_ranges.len(),
                weights.len(),
                self.parts.len()
            )));
        }
        let mut new_parts: Vec<Box<dyn BeagleInstance>> = Vec::with_capacity(new_ranges.len());
        for (i, (sel, &(p0, p1))) in failover.selections.iter().zip(new_ranges).enumerate() {
            let built = Self::build_child(
                &failover.manager,
                &self.config,
                sel,
                p1 - p0,
                self.incremental,
            )
            .and_then(|mut inst| {
                inst.set_deadline(self.deadline);
                self.journal
                    .replay_slice(inst.as_mut(), &self.config, p0, p1)
                    .map(|()| inst)
            });
            match built {
                Ok(inst) => new_parts.push(inst),
                Err(e) => {
                    self.recorder.event(EventKind::Rebalance, || {
                        format!("aborted child={i} cause={e}")
                    });
                    return Err(e);
                }
            }
        }
        // Commit: salvage the outgoing children's event journals (their
        // narration should survive the migration), then swap.
        let old_ranges = std::mem::replace(&mut self.ranges, new_ranges.to_vec());
        for mut old in std::mem::replace(&mut self.parts, new_parts) {
            self.salvaged =
                obs::merge_journals(std::mem::take(&mut self.salvaged), old.take_journal());
        }
        if let Some(failover) = &mut self.failover {
            failover.weights = weights.to_vec();
        }
        self.retry_counts = vec![0; self.parts.len()];
        self.pending = vec![Duration::ZERO; self.parts.len()];
        self.skip_marks = vec![0; self.parts.len()];
        self.refresh_details();
        self.rebalances += 1;
        self.recorder.event(EventKind::Rebalance, || {
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
        let weights = self.journal.pattern_weights();
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

    /// Extract child `i`'s `[category][pattern][state]` sub-buffer from a
    /// full-problem buffer with `per_pattern` values per pattern.
    fn slice_blocked(
        &self,
        i: usize,
        data: &[f64],
        per_pattern: usize,
        categories: usize,
    ) -> Vec<f64> {
        let (p0, p1) = self.ranges[i];
        let n_pat = self.config.pattern_count;
        let mut out = Vec::with_capacity(categories * (p1 - p0) * per_pattern);
        for c in 0..categories {
            let base = (c * n_pat + p0) * per_pattern;
            out.extend_from_slice(&data[base..base + (p1 - p0) * per_pattern]);
        }
        out
    }

    /// Run `call` on child `i`, retrying transient failures with bounded
    /// exponential backoff (full-jittered when the policy asks for it).
    fn call_with_retry(
        retry: RetryPolicy,
        rng: &mut u64,
        retry_count: &mut u64,
        part: &mut dyn BeagleInstance,
        mut call: impl FnMut(&mut dyn BeagleInstance) -> Result<()>,
    ) -> Result<()> {
        let mut ceiling = retry.base_delay;
        for _ in 0..retry.max_retries {
            match call(part) {
                Err(e) if e.is_retryable() => {
                    *retry_count += 1;
                    let delay = if retry.jitter {
                        ceiling.mul_f64(splitmix64(rng) as f64 / u64::MAX as f64)
                    } else {
                        ceiling
                    };
                    std::thread::sleep(delay);
                    ceiling *= 2;
                }
                other => return other,
            }
        }
        call(part)
    }

    /// Report a child outcome to the manager's health registry (no-op for
    /// instances without failover state — they have no manager) and surface
    /// any breaker transition in the event journal.
    fn note_health(&mut self, resource: &str, outcome: Outcome) {
        let Some(failover) = &self.failover else {
            return;
        };
        if let Some((_, to)) = failover.manager.health().record(resource, outcome) {
            let kind = match to {
                BreakerState::Open => EventKind::BreakerOpen,
                BreakerState::HalfOpen => EventKind::BreakerHalfOpen,
                BreakerState::Closed => EventKind::BreakerClosed,
            };
            self.recorder
                .event(kind, || format!("resource={resource} after={outcome:?}"));
        }
    }

    /// Evict child `dead` (its failure `cause` already survived retries),
    /// then rebuild every survivor at its re-balanced pattern range and
    /// replay the journal into it. Survivors whose re-creation or replay
    /// fails are evicted too; the cause surfaces once no child remains or
    /// this instance has no failover state.
    fn evict_and_rebuild(&mut self, dead: usize, cause: BeagleError) -> Result<()> {
        let dead_resource = self.parts[dead].details().implementation_name.clone();
        let outcome = if matches!(cause, BeagleError::Timeout { .. }) {
            Outcome::Timeout
        } else {
            Outcome::Permanent
        };
        self.note_health(&dead_resource, outcome);
        let Some(failover) = &mut self.failover else {
            return Err(cause);
        };
        self.evictions += 1;
        self.recorder.event(EventKind::FailoverEviction, || {
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
        failover.selections.remove(dead);
        failover.weights.remove(dead);
        self.retry_counts.remove(dead);
        self.pending.remove(dead);
        self.skip_marks.remove(dead);
        if let Some(b) = &mut self.balancer {
            b.remove_part(dead);
        }

        loop {
            if failover.selections.is_empty() {
                return Err(cause);
            }
            // An eviction is an immediate rebalance over the survivors:
            // when the balancer has settled throughput estimates, the
            // rebuild uses *measured* weights rather than the stale
            // creation-time shares.
            if let Some(thr) = self.balancer.as_ref().and_then(|b| b.throughputs()) {
                if thr.len() == failover.weights.len() {
                    failover.weights = thr;
                    self.recorder.event(EventKind::Rebalance, || {
                        format!(
                            "trigger=eviction survivors={} weights={:?}",
                            failover.selections.len(),
                            failover.weights
                        )
                    });
                }
            }
            let ranges = weighted_ranges(self.config.pattern_count, &failover.weights)?;
            let mut new_parts: Vec<Box<dyn BeagleInstance>> = Vec::with_capacity(ranges.len());
            let mut doomed: Option<usize> = None;
            for (j, (sel, &(p0, p1))) in failover.selections.iter().zip(&ranges).enumerate() {
                let rebuilt = Self::build_child(
                    &failover.manager,
                    &self.config,
                    sel,
                    p1 - p0,
                    self.incremental,
                )
                .and_then(|mut inst| {
                    // Restore the watchdog budget before replay: a
                    // replacement device can stall during replay too.
                    inst.set_deadline(self.deadline);
                    self.journal
                        .replay_slice(inst.as_mut(), &self.config, p0, p1)
                        .map(|()| inst)
                });
                match rebuilt {
                    Ok(inst) => new_parts.push(inst),
                    Err(_) => {
                        doomed = Some(j);
                        break;
                    }
                }
            }
            match doomed {
                None => {
                    self.retry_counts = vec![0; new_parts.len()];
                    self.pending = vec![Duration::ZERO; new_parts.len()];
                    self.skip_marks = vec![0; new_parts.len()];
                    self.parts = new_parts;
                    self.ranges = ranges;
                    self.refresh_details();
                    return Ok(());
                }
                Some(j) => {
                    self.evictions += 1;
                    self.recorder.event(EventKind::FailoverEviction, || {
                        format!(
                            "child={j} cause=rebuild-failed survivors={}",
                            failover.selections.len() - 1
                        )
                    });
                    failover.selections.remove(j);
                    failover.weights.remove(j);
                    self.pending.remove(j);
                    self.skip_marks.remove(j);
                    if let Some(b) = &mut self.balancer {
                        b.remove_part(j);
                    }
                }
            }
        }
    }

    /// Fan a *journaled* call out to every child with retry and eviction.
    /// The call's input must already be recorded: after an eviction the
    /// journal replay has re-applied it to every rebuilt child, so the
    /// fan-out is complete without re-running `call`.
    fn fan_out_recorded(
        &mut self,
        mut call: impl FnMut(usize, (usize, usize), &mut dyn BeagleInstance) -> Result<()>,
    ) -> Result<()> {
        let mut failure: Option<(usize, BeagleError)> = None;
        for i in 0..self.parts.len() {
            let retry = self.retry;
            let range = self.ranges[i];
            let before = self.retry_counts[i];
            let r = Self::call_with_retry(
                retry,
                &mut self.rng,
                &mut self.retry_counts[i],
                self.parts[i].as_mut(),
                |p| call(i, range, p),
            );
            let retries = self.retry_counts[i] - before;
            if retries > 0 {
                self.recorder.event(EventKind::FailoverRetry, || {
                    format!("child={i} retries={retries} ok={}", r.is_ok())
                });
                let resource = self.parts[i].details().implementation_name.clone();
                for _ in 0..retries {
                    self.note_health(&resource, Outcome::Transient);
                }
            }
            if let Err(e) = r {
                failure = Some((i, e));
                break;
            }
        }
        let Some((i, e)) = failure else {
            return Ok(());
        };
        if !is_evictable(&e) {
            return Err(e);
        }
        // Journal replay inside the rebuild re-applies the recorded input
        // to every surviving child, completing this fan-out.
        self.evict_and_rebuild(i, e)
    }

    /// Run a root or edge integration on every child, gather the site
    /// log-likelihoods, and reduce them to the total. Integration is not
    /// journaled (it writes no instance state), so on eviction the whole
    /// reduction restarts against the rebuilt children. Bounded: every
    /// round either returns or evicts.
    fn integrate_children(
        &mut self,
        integrate: impl Fn(&mut dyn BeagleInstance) -> Result<f64>,
    ) -> Result<f64> {
        'round: for _ in 0..=self.parts.len() {
            let mut observations: Vec<(usize, Duration)> = Vec::with_capacity(self.parts.len());
            for i in 0..self.parts.len() {
                let retry = self.retry;
                let before = self.retry_counts[i];
                // Peek so a queued child's pending batch flushes *inside*
                // the timed integrate below, not here.
                let sim0 = self.parts[i].peek_simulated_time();
                let t0 = Instant::now();
                let r = Self::call_with_retry(
                    retry,
                    &mut self.rng,
                    &mut self.retry_counts[i],
                    self.parts[i].as_mut(),
                    |p| integrate(p).map(drop),
                );
                let wall = t0.elapsed();
                let retries = self.retry_counts[i] - before;
                if retries > 0 {
                    self.recorder.event(EventKind::FailoverRetry, || {
                        format!("child={i} retries={retries} ok={}", r.is_ok())
                    });
                }
                if let Err(e) = r {
                    if !is_evictable(&e) {
                        return Err(e);
                    }
                    self.evict_and_rebuild(i, e)?;
                    continue 'round;
                }
                if retries == 0 {
                    // Integration flushes any queued work, so for queued
                    // children this sample carries the batch's real cost.
                    let elapsed = self.parts[i]
                        .peek_simulated_time()
                        .zip(sim0)
                        .map(|(t1, t0)| t1.saturating_sub(t0))
                        .filter(|d| !d.is_zero())
                        .unwrap_or(wall);
                    observations.push((i, elapsed));
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

    fn set_tip_states(&mut self, tip: usize, states: &[u32]) -> Result<()> {
        if states.len() != self.config.pattern_count {
            return Err(BeagleError::DimensionMismatch {
                what: "tip states",
                expected: self.config.pattern_count,
                got: states.len(),
            });
        }
        self.journal.record_tip_states(tip, states);
        self.fan_out_recorded(|_, (p0, p1), part| part.set_tip_states(tip, &states[p0..p1]))
    }

    fn set_tip_partials(&mut self, tip: usize, partials: &[f64]) -> Result<()> {
        let per = self.config.state_count;
        if partials.len() != self.config.pattern_count * per {
            return Err(BeagleError::DimensionMismatch {
                what: "tip partials",
                expected: self.config.pattern_count * per,
                got: partials.len(),
            });
        }
        self.journal.record_tip_partials(tip, partials);
        self.fan_out_recorded(|_, (p0, p1), part| {
            part.set_tip_partials(tip, &partials[p0 * per..p1 * per])
        })
    }

    fn set_partials(&mut self, buffer: usize, partials: &[f64]) -> Result<()> {
        if partials.len() != self.config.partials_len() {
            return Err(BeagleError::DimensionMismatch {
                what: "partials",
                expected: self.config.partials_len(),
                got: partials.len(),
            });
        }
        self.journal.record_partials(buffer, partials);
        let chunks: Vec<Vec<f64>> = (0..self.parts.len())
            .map(|i| {
                self.slice_blocked(
                    i,
                    partials,
                    self.config.state_count,
                    self.config.category_count,
                )
            })
            .collect();
        self.fan_out_recorded(|i, _, part| part.set_partials(buffer, &chunks[i]))
    }

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

    fn set_pattern_weights(&mut self, weights: &[f64]) -> Result<()> {
        if weights.len() != self.config.pattern_count {
            return Err(BeagleError::DimensionMismatch {
                what: "pattern weights",
                expected: self.config.pattern_count,
                got: weights.len(),
            });
        }
        self.journal.record_pattern_weights(weights);
        self.fan_out_recorded(|_, (p0, p1), part| part.set_pattern_weights(&weights[p0..p1]))
    }

    fn set_state_frequencies(&mut self, index: usize, frequencies: &[f64]) -> Result<()> {
        self.journal.record_frequencies(index, frequencies);
        self.fan_out_recorded(|_, _, part| part.set_state_frequencies(index, frequencies))
    }

    fn set_category_rates(&mut self, rates: &[f64]) -> Result<()> {
        self.journal.record_category_rates(rates);
        self.fan_out_recorded(|_, _, part| part.set_category_rates(rates))
    }

    fn set_category_weights(&mut self, index: usize, weights: &[f64]) -> Result<()> {
        self.journal.record_category_weights(index, weights);
        self.fan_out_recorded(|_, _, part| part.set_category_weights(index, weights))
    }

    fn set_eigen_decomposition(
        &mut self,
        index: usize,
        vectors: &[f64],
        inverse_vectors: &[f64],
        values: &[f64],
    ) -> Result<()> {
        self.journal
            .record_eigen(index, vectors, inverse_vectors, values);
        self.fan_out_recorded(|_, _, part| {
            part.set_eigen_decomposition(index, vectors, inverse_vectors, values)
        })
    }

    fn update_transition_matrices(
        &mut self,
        eigen_index: usize,
        matrix_indices: &[usize],
        branch_lengths: &[f64],
    ) -> Result<()> {
        self.journal
            .record_matrix_updates(eigen_index, matrix_indices, branch_lengths);
        self.fan_out_recorded(|_, _, part| {
            part.update_transition_matrices(eigen_index, matrix_indices, branch_lengths)
        })
    }

    fn set_transition_matrix(&mut self, index: usize, matrix: &[f64]) -> Result<()> {
        self.journal.record_matrix(index, matrix);
        self.fan_out_recorded(|_, _, part| part.set_transition_matrix(index, matrix))
    }

    fn get_transition_matrix(&self, index: usize) -> Result<Vec<f64>> {
        self.parts[0].get_transition_matrix(index)
    }

    fn update_partials(&mut self, operations: &[Operation]) -> Result<()> {
        self.journal.record_operations(operations);
        // The payoff: every device computes its pattern slice concurrently.
        // Each child's elapsed time — modeled device time when it simulates
        // one (injected stalls charge the simulated clock, not the wall),
        // wall time otherwise — doubles as the load balancer's throughput
        // sample for that child.
        let mut results: Vec<(Result<()>, Duration)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .parts
                .iter_mut()
                .map(|part| {
                    scope.spawn(move || {
                        // Peek, never flush: reading the real simulated
                        // clock on a queued child would execute its
                        // deferred work right here.
                        let sim0 = part.peek_simulated_time();
                        let t0 = Instant::now();
                        let r = part.update_partials(operations);
                        let wall = t0.elapsed();
                        let elapsed = part
                            .peek_simulated_time()
                            .zip(sim0)
                            .map(|(t1, t0)| t1.saturating_sub(t0))
                            .filter(|d| !d.is_zero())
                            .unwrap_or(wall);
                        (r, elapsed)
                    })
                })
                .collect();
            results = handles
                .into_iter()
                .map(|h| h.join().expect("no panics"))
                .collect();
        });
        // Accumulate clean first-try successes into the per-child batch
        // cost; the balancer observes the whole batch once, when the next
        // integration closes it. A sample that includes a fault, retry
        // backoff, or rebuild says nothing about throughput.
        if self.balancer.is_some() {
            for (i, (r, elapsed)) in results.iter().enumerate() {
                if r.is_ok() {
                    self.pending[i] += *elapsed;
                }
            }
        }
        let results: Vec<Result<()>> = results.into_iter().map(|(r, _)| r).collect();
        // Retry transient failures serially; escalate the first
        // unrecoverable one.
        let mut fatal: Option<(usize, BeagleError)> = None;
        for (i, r) in results.into_iter().enumerate() {
            let Err(e) = r else { continue };
            let retried = if e.is_retryable() {
                // The serial re-call below is itself the first retry of the
                // failed parallel attempt.
                self.retry_counts[i] += 1;
                let retry = self.retry;
                let before = self.retry_counts[i];
                let r = Self::call_with_retry(
                    retry,
                    &mut self.rng,
                    &mut self.retry_counts[i],
                    self.parts[i].as_mut(),
                    |p| p.update_partials(operations),
                );
                let retries = 1 + self.retry_counts[i] - before;
                self.recorder.event(EventKind::FailoverRetry, || {
                    format!("child={i} retries={retries} ok={}", r.is_ok())
                });
                let resource = self.parts[i].details().implementation_name.clone();
                for _ in 0..retries {
                    self.note_health(&resource, Outcome::Transient);
                }
                r
            } else {
                Err(e)
            };
            if let Err(e) = retried {
                fatal = Some((i, e));
                break;
            }
        }
        let Some((i, e)) = fatal else {
            return Ok(());
        };
        if !is_evictable(&e) {
            return Err(e);
        }
        // The operations were journaled above, so the rebuild's replay runs
        // them on every surviving child.
        self.evict_and_rebuild(i, e)
    }

    fn reset_scale_factors(&mut self, cumulative: usize) -> Result<()> {
        self.journal.record_scale_reset(cumulative);
        self.fan_out_recorded(|_, _, part| part.reset_scale_factors(cumulative))
    }

    fn accumulate_scale_factors(
        &mut self,
        scale_indices: &[usize],
        cumulative: usize,
    ) -> Result<()> {
        self.journal
            .record_scale_accumulation(scale_indices, cumulative);
        self.fan_out_recorded(|_, _, part| part.accumulate_scale_factors(scale_indices, cumulative))
    }

    fn integrate_root(
        &mut self,
        root: BufferId,
        category_weights: BufferId,
        frequencies: BufferId,
        scaling: ScalingMode,
    ) -> Result<f64> {
        self.integrate_children(|p| p.integrate_root(root, category_weights, frequencies, scaling))
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
        self.integrate_children(|p| {
            p.integrate_edge(
                parent,
                child,
                matrix,
                category_weights,
                frequencies,
                scaling,
            )
        })
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

    fn peek_simulated_time(&self) -> Option<std::time::Duration> {
        self.parts
            .iter()
            .map(|p| p.peek_simulated_time())
            .try_fold(std::time::Duration::ZERO, |acc, t| t.map(|t| acc.max(t)))
    }

    fn reset_simulated_time(&mut self) {
        for p in &mut self.parts {
            p.reset_simulated_time();
        }
    }

    fn statistics(&self) -> Option<obs::InstanceStats> {
        if !self.recorder.is_enabled() {
            return None;
        }
        let mut merged = self.recorder.stats().unwrap_or_default();
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
            self.recorder.take_journal(),
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
        // The failover journal holds the full-problem state (children only
        // see pattern slices), so it is exactly what a snapshot needs.
        // Provenance is generic (no flags): a restore ranks implementations
        // afresh, which is right — the original device layout may not exist
        // in the restoring process.
        let ckpt = Checkpoint {
            config: self.config,
            provenance: Provenance::default(),
            journal: self.journal.clone(),
        };
        self.recorder.event(EventKind::CheckpointSaved, || {
            format!(
                "config={}x{} ops={} children={}",
                self.config.tip_count,
                self.config.pattern_count,
                self.journal.operations().len(),
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

    fn queue_stats(&self) -> Option<crate::queue::QueueStats> {
        self.parts
            .iter()
            .filter_map(|p| p.queue_stats())
            .reduce(|mut agg, s| {
                agg.merge(&s);
                agg
            })
    }

    fn wait_for_computation(&mut self) -> Result<()> {
        // A rebuild replays the journal into fresh children, which may queue
        // the replay; wait again until a round completes without eviction.
        loop {
            let evictions = self.evictions;
            self.fan_out_recorded(|_, _, part| part.wait_for_computation())?;
            if self.evictions == evictions {
                return Ok(());
            }
        }
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
