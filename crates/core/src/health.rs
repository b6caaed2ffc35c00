//! Per-resource health scoring and circuit breakers.
//!
//! Long-running multi-device work keeps meeting the same dead hardware: a
//! wedged GPU fails creation, gets retried by the next
//! ranked creation, wedges again, and every caller pays the watchdog
//! budget to rediscover what the last caller already knew. The
//! [`HealthRegistry`] centralizes that knowledge: every creation, launch,
//! and benchmark outcome is scored per resource (keyed by implementation
//! name), and a per-resource *circuit breaker* quarantines resources that
//! keep failing.
//!
//! # Breaker protocol
//!
//! Each resource's breaker follows the classical three-state protocol:
//!
//! * **Closed** — healthy; work flows normally. *Transient* failures
//!   accumulate in a sliding time window; crossing
//!   [`BreakerConfig::failure_threshold`] within [`BreakerConfig::window`]
//!   trips the breaker. *Hard* failures ([`Outcome::Timeout`],
//!   [`Outcome::Permanent`]) trip it immediately — a watchdog-cancelled hang
//!   or a dead device is not worth three confirmations.
//! * **Open** — quarantined; [`HealthRegistry::available`] answers `false`,
//!   so ranked instance creation and repartitioning skip the resource. After
//!   [`BreakerConfig::cooldown`] the breaker lazily moves to half-open on
//!   the next availability query.
//! * **HalfOpen** — probation; the resource may receive one probe (the
//!   benchmark workload, or real work). [`Outcome::Success`] closes the
//!   breaker; any failure reopens it and restarts the cooldown.
//!
//! Consultation is *fail-open*: selection paths that find every candidate
//! quarantined ignore the registry rather than fail the request — a wrong
//! health signal must degrade ranking, never availability.
//!
//! Transitions are returned from [`HealthRegistry::record`] so call sites
//! can emit matching observability events ([`crate::obs::EventKind`]'s
//! `BreakerOpen` / `BreakerHalfOpen` / `BreakerClosed`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Identifies one hardware resource in the registry: the implementation
/// name reported by its factory (unique per
/// [`crate::ImplementationManager`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub String);

impl ResourceId {
    /// The implementation name this id wraps.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl From<&str> for ResourceId {
    fn from(name: &str) -> Self {
        ResourceId(name.to_string())
    }
}

impl From<String> for ResourceId {
    fn from(name: String) -> Self {
        ResourceId(name)
    }
}

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// How one unit of work on a resource ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The work completed.
    Success,
    /// A retryable fault (momentary memory pressure, dropped launch).
    Transient,
    /// The watchdog cancelled a stalled launch
    /// ([`crate::BeagleError::Timeout`]). Hard failure: trips the breaker
    /// immediately.
    Timeout,
    /// A permanent device fault (device lost, unrecoverable allocation
    /// failure). Hard failure: trips the breaker immediately.
    Permanent,
}

/// In-place retries of a transient fault ([`crate::BeagleError::is_retryable`])
/// before the failure escalates: a partitioned instance then evicts the
/// child, and the service client reports the transport error.
pub const MAX_RETRIES: u32 = 3;

/// Backoff ceiling before the first retry; it doubles with each further
/// retry (see [`backoff`]).
pub const RETRY_BASE_DELAY: Duration = Duration::from_micros(200);

/// The sleep before retry `attempt` (1-based): exponential backoff with full
/// jitter, drawn uniformly from `[0, RETRY_BASE_DELAY · 2^(attempt−1))`.
/// Jitter decorrelates retries when several callers hit the same transient
/// fault, so they do not re-converge on the struggling resource in
/// lockstep. `state` is the caller's splitmix64 state (hand-rolled: the
/// offline build has no rand crate); a fixed seed per caller keeps test runs
/// reproducible.
pub fn backoff(attempt: u32, state: &mut u64) -> Duration {
    let ceiling = RETRY_BASE_DELAY.saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // `ceiling` is at most 200 µs · 2^16 ≈ 13 s, well inside u64 nanoseconds.
    Duration::from_nanos(z % ceiling.as_nanos() as u64)
}

/// Circuit-breaker state of one resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: work flows normally.
    Closed,
    /// Quarantined: the resource receives no work until the cooldown
    /// elapses.
    Open,
    /// Probation after cooldown: one probe decides between
    /// [`BreakerState::Closed`] and re-opening.
    HalfOpen,
}

impl BreakerState {
    /// Stable snake_case name (used as the JSON value).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Tuning knobs for every breaker in a registry.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Transient failures within [`Self::window`] that trip the breaker.
    pub failure_threshold: u32,
    /// Sliding window over which transient failures accumulate.
    pub window: Duration,
    /// Quarantine time before an open breaker moves to half-open.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 3,
            window: Duration::from_secs(30),
            cooldown: Duration::from_millis(100),
        }
    }
}

/// Cumulative outcome counts for one resource.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthCounts {
    /// Completed units of work.
    pub successes: u64,
    /// Retryable faults.
    pub transients: u64,
    /// Watchdog cancellations.
    pub timeouts: u64,
    /// Permanent device faults.
    pub permanents: u64,
}

/// A point-in-time view of one resource's health.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// The resource.
    pub id: ResourceId,
    /// Breaker state at snapshot time (cooldown expiry applied).
    pub state: BreakerState,
    /// Cumulative outcome counts.
    pub counts: HealthCounts,
}

impl HealthSnapshot {
    /// One JSON object (hand-rolled; the environment has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"resource\":\"{}\",\"state\":\"{}\",\"successes\":{},\"transients\":{},\"timeouts\":{},\"permanents\":{}}}",
            self.id.0.replace('\\', "\\\\").replace('"', "\\\""),
            self.state.name(),
            self.counts.successes,
            self.counts.transients,
            self.counts.timeouts,
            self.counts.permanents,
        )
    }
}

/// One resource's breaker plus its score.
struct Breaker {
    state: BreakerState,
    /// Timestamps of transient failures inside the sliding window.
    recent_transients: Vec<Instant>,
    /// When the breaker last opened (meaningful in `Open`).
    opened_at: Instant,
    counts: HealthCounts,
}

impl Breaker {
    fn new() -> Self {
        Self {
            state: BreakerState::Closed,
            recent_transients: Vec::new(),
            opened_at: Instant::now(),
            counts: HealthCounts::default(),
        }
    }

    /// Apply the lazy cooldown transition: an open breaker whose cooldown
    /// has elapsed moves to half-open.
    fn settle(&mut self, config: &BreakerConfig) {
        if self.state == BreakerState::Open && self.opened_at.elapsed() >= config.cooldown {
            self.state = BreakerState::HalfOpen;
        }
    }

    fn open(&mut self) {
        self.state = BreakerState::Open;
        self.opened_at = Instant::now();
        self.recent_transients.clear();
    }
}

/// Thread-safe per-resource health scores and circuit breakers. One
/// registry per [`crate::ImplementationManager`]; shared with failover
/// layers via `Arc` so multi-device repartitioning and instance creation
/// consult the same quarantine decisions.
pub struct HealthRegistry {
    breakers: Mutex<HashMap<ResourceId, Breaker>>,
    config: Mutex<BreakerConfig>,
}

impl Default for HealthRegistry {
    fn default() -> Self {
        Self::new(BreakerConfig::default())
    }
}

impl HealthRegistry {
    /// An empty registry with these breaker knobs.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            breakers: Mutex::new(HashMap::new()),
            config: Mutex::new(config),
        }
    }

    /// Replace the breaker knobs (applies to future transitions).
    pub fn set_config(&self, config: BreakerConfig) {
        *self.config.lock() = config;
    }

    /// The current breaker knobs.
    pub fn config(&self) -> BreakerConfig {
        *self.config.lock()
    }

    /// Score one outcome for `id` and run the breaker protocol. Returns the
    /// `(from, to)` states when the breaker transitioned, `None` otherwise —
    /// so the call site can emit the matching observability event.
    pub fn record(
        &self,
        id: impl Into<ResourceId>,
        outcome: Outcome,
    ) -> Option<(BreakerState, BreakerState)> {
        let config = self.config();
        let mut breakers = self.breakers.lock();
        let b = breakers.entry(id.into()).or_insert_with(Breaker::new);
        b.settle(&config);
        let before = b.state;
        match outcome {
            Outcome::Success => {
                b.counts.successes += 1;
                if b.state == BreakerState::HalfOpen {
                    b.state = BreakerState::Closed;
                    b.recent_transients.clear();
                }
            }
            Outcome::Transient => {
                b.counts.transients += 1;
                match b.state {
                    // A probe that fails even transiently goes back to
                    // quarantine; probation earns no retry budget.
                    BreakerState::HalfOpen => b.open(),
                    BreakerState::Closed => {
                        let now = Instant::now();
                        b.recent_transients
                            .retain(|t| now.duration_since(*t) <= config.window);
                        b.recent_transients.push(now);
                        if b.recent_transients.len() >= config.failure_threshold as usize {
                            b.open();
                        }
                    }
                    BreakerState::Open => {}
                }
            }
            Outcome::Timeout | Outcome::Permanent => {
                match outcome {
                    Outcome::Timeout => b.counts.timeouts += 1,
                    _ => b.counts.permanents += 1,
                }
                // Hard failures trip (or re-trip) the breaker immediately.
                b.open();
            }
        }
        (before != b.state).then_some((before, b.state))
    }

    /// Whether `id` should receive work: closed and half-open breakers say
    /// yes (half-open work *is* the probe), open breakers say no until the
    /// cooldown elapses.
    pub fn available(&self, id: impl Into<ResourceId>) -> bool {
        self.state(id) != BreakerState::Open
    }

    /// The breaker state of `id` (cooldown expiry applied; unknown
    /// resources are closed).
    pub fn state(&self, id: impl Into<ResourceId>) -> BreakerState {
        let config = self.config();
        let mut breakers = self.breakers.lock();
        match breakers.get_mut(&id.into()) {
            Some(b) => {
                b.settle(&config);
                b.state
            }
            None => BreakerState::Closed,
        }
    }

    /// Cumulative outcome counts for `id`.
    pub fn counts(&self, id: impl Into<ResourceId>) -> HealthCounts {
        self.breakers
            .lock()
            .get(&id.into())
            .map(|b| b.counts)
            .unwrap_or_default()
    }

    /// Every scored resource, sorted by id for stable output.
    pub fn snapshot(&self) -> Vec<HealthSnapshot> {
        let config = self.config();
        let mut breakers = self.breakers.lock();
        let mut out: Vec<HealthSnapshot> = breakers
            .iter_mut()
            .map(|(id, b)| {
                b.settle(&config);
                HealthSnapshot {
                    id: id.clone(),
                    state: b.state,
                    counts: b.counts,
                }
            })
            .collect();
        out.sort_by(|a, b| a.id.cmp(&b.id));
        out
    }

    /// The whole registry as JSON lines (one resource per line).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.snapshot() {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_full_jitter_under_a_doubling_ceiling() {
        let mut state = 1;
        for attempt in 1..=6 {
            let ceiling = RETRY_BASE_DELAY * (1 << (attempt - 1));
            for _ in 0..64 {
                assert!(backoff(attempt, &mut state) < ceiling);
            }
        }
        let (mut a, mut b) = (7, 7);
        let draws: Vec<_> = (0..8).map(|_| backoff(3, &mut a)).collect();
        assert_eq!(
            draws,
            (0..8).map(|_| backoff(3, &mut b)).collect::<Vec<_>>()
        );
        assert!(draws.windows(2).any(|w| w[0] != w[1]), "{draws:?}");
    }

    fn fast_cooldown() -> BreakerConfig {
        BreakerConfig {
            cooldown: Duration::ZERO,
            ..BreakerConfig::default()
        }
    }

    #[test]
    fn unknown_resources_are_healthy() {
        let r = HealthRegistry::default();
        assert!(r.available("never-seen"));
        assert_eq!(r.state("never-seen"), BreakerState::Closed);
        assert_eq!(r.counts("never-seen"), HealthCounts::default());
    }

    #[test]
    fn hard_failures_open_immediately() {
        let r = HealthRegistry::default();
        let t = r.record("gpu", Outcome::Timeout);
        assert_eq!(t, Some((BreakerState::Closed, BreakerState::Open)));
        assert!(!r.available("gpu"));

        let r = HealthRegistry::default();
        assert!(r.record("gpu", Outcome::Permanent).is_some());
        assert!(!r.available("gpu"));
    }

    #[test]
    fn transient_failures_trip_at_the_threshold() {
        let r = HealthRegistry::default();
        assert!(r.record("gpu", Outcome::Transient).is_none());
        assert!(r.record("gpu", Outcome::Transient).is_none());
        assert!(r.available("gpu"), "below threshold stays closed");
        let t = r.record("gpu", Outcome::Transient);
        assert_eq!(t, Some((BreakerState::Closed, BreakerState::Open)));
        assert!(!r.available("gpu"));
    }

    #[test]
    fn successes_do_not_reset_the_transient_window() {
        let r = HealthRegistry::default();
        r.record("gpu", Outcome::Transient);
        r.record("gpu", Outcome::Success);
        r.record("gpu", Outcome::Transient);
        r.record("gpu", Outcome::Success);
        // Third transient inside the window still trips.
        assert!(r.record("gpu", Outcome::Transient).is_some());
        assert_eq!(r.state("gpu"), BreakerState::Open);
    }

    #[test]
    fn cooldown_moves_to_half_open_and_success_closes() {
        let r = HealthRegistry::new(fast_cooldown());
        r.record("gpu", Outcome::Timeout);
        // Zero cooldown: the next query settles to half-open.
        assert_eq!(r.state("gpu"), BreakerState::HalfOpen);
        assert!(r.available("gpu"), "half-open work is the probe");
        let t = r.record("gpu", Outcome::Success);
        assert_eq!(t, Some((BreakerState::HalfOpen, BreakerState::Closed)));
        assert_eq!(r.state("gpu"), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let r = HealthRegistry::new(fast_cooldown());
        r.record("gpu", Outcome::Permanent);
        assert_eq!(r.state("gpu"), BreakerState::HalfOpen);
        let t = r.record("gpu", Outcome::Transient);
        assert_eq!(t, Some((BreakerState::HalfOpen, BreakerState::Open)));
        // Still zero cooldown, so it settles right back to probation —
        // but the counts show the failed probe.
        assert_eq!(r.counts("gpu").transients, 1);
    }

    #[test]
    fn open_breaker_blocks_until_cooldown() {
        let r = HealthRegistry::new(BreakerConfig {
            cooldown: Duration::from_secs(3600),
            ..BreakerConfig::default()
        });
        r.record("gpu", Outcome::Timeout);
        assert!(
            !r.available("gpu"),
            "hour-long cooldown cannot have elapsed"
        );
        assert_eq!(r.state("gpu"), BreakerState::Open);
    }

    #[test]
    fn snapshot_and_json() {
        let r = HealthRegistry::default();
        r.record("b-gpu", Outcome::Timeout);
        r.record("a-cpu", Outcome::Success);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id.name(), "a-cpu", "sorted by id");
        assert_eq!(snap[0].state, BreakerState::Closed);
        assert_eq!(snap[1].counts.timeouts, 1);
        let json = r.to_json_lines();
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"state\":\"closed\""));
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let r = std::sync::Arc::new(HealthRegistry::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.record("shared", Outcome::Success);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counts("shared").successes, 400);
    }
}
