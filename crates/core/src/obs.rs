//! Kernel-level observability: timers, counters, and an event journal.
//!
//! The paper's central claim is comparative — the same kernel source ranked
//! across heterogeneous back-ends by *measured* throughput — so the library
//! needs a way to observe where time goes. This module provides it:
//!
//! * [`InstanceStats`] — per-instance aggregation of wall time, invocation
//!   counts, bytes moved, and modeled device time per [`KernelClass`]
//!   (partials pp/sp/ss, transition matrices, rescaling, root/edge
//!   integration, pool dispatches), exposed through
//!   [`crate::BeagleInstance::statistics`].
//! * [`Event`] — a ring-buffered journal of notable moments (operation
//!   begin/end, fault injection, numerical rescue, device failover,
//!   dispatch-path selection), dumpable as JSON lines for
//!   offline timeline analysis via [`crate::BeagleInstance::take_journal`].
//! * [`Recorder`] — the per-instance collection point back-ends write to.
//!
//! # Zero cost when disabled
//!
//! Recording is off by default and opt-in per instance (the
//! [`crate::Flags::INSTANCE_STATS`] creation flag, or
//! `InstanceSpec::with_stats`). A disabled recorder reduces every hook to a
//! single branch on a bool — no clock reads, no formatting (event details
//! are closures that never run), no allocation. Compiling with the
//! `obs-disabled` cargo feature removes even that: [`Recorder`] becomes a
//! zero-sized type whose methods are empty and `statistics()` is always
//! `None`, so the instrumentation cannot be measured at all.
//!
//! Events carry a process-global sequence number and a microsecond
//! timestamp from a shared epoch, so journals taken from different layers
//! of a wrapper stack (rescue → memo → back-end) merge into one total
//! order with [`merge_journals`].

use std::fmt;

/// The kernel classes instrumented across every back-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Partials update with two partials children.
    PartialsPP,
    /// Partials update with one tip-state and one partials child.
    PartialsSP,
    /// Partials update with two tip-state children.
    PartialsSS,
    /// Transition-matrix computation from an eigen system.
    TransitionMatrices,
    /// Scale-factor bookkeeping (reset / accumulate / per-op rescale).
    Rescale,
    /// Root log-likelihood integration.
    RootIntegrate,
    /// Edge log-likelihood integration (including derivative variants).
    EdgeIntegrate,
    /// Thread-pool batch dispatch (CPU and OpenCL-x86 back-ends).
    PoolDispatch,
}

impl KernelClass {
    /// Number of kernel classes (array dimension of [`InstanceStats`]).
    pub const COUNT: usize = 8;

    /// Every class, in counter-array order.
    pub const ALL: [KernelClass; KernelClass::COUNT] = [
        KernelClass::PartialsPP,
        KernelClass::PartialsSP,
        KernelClass::PartialsSS,
        KernelClass::TransitionMatrices,
        KernelClass::Rescale,
        KernelClass::RootIntegrate,
        KernelClass::EdgeIntegrate,
        KernelClass::PoolDispatch,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::PartialsPP => "partials_pp",
            KernelClass::PartialsSP => "partials_sp",
            KernelClass::PartialsSS => "partials_ss",
            KernelClass::TransitionMatrices => "transition_matrices",
            KernelClass::Rescale => "rescale",
            KernelClass::RootIntegrate => "root_integrate",
            KernelClass::EdgeIntegrate => "edge_integrate",
            KernelClass::PoolDispatch => "pool_dispatch",
        }
    }

    fn idx(self) -> usize {
        match self {
            KernelClass::PartialsPP => 0,
            KernelClass::PartialsSP => 1,
            KernelClass::PartialsSS => 2,
            KernelClass::TransitionMatrices => 3,
            KernelClass::Rescale => 4,
            KernelClass::RootIntegrate => 5,
            KernelClass::EdgeIntegrate => 6,
            KernelClass::PoolDispatch => 7,
        }
    }
}

/// Aggregated counters for one kernel class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounter {
    /// Number of instrumented invocations.
    pub calls: u64,
    /// Work items processed (operations, matrices, or patterns — whatever
    /// the class naturally counts).
    pub items: u64,
    /// Estimated bytes moved (buffer reads + writes, host↔device copies).
    pub bytes: u64,
    /// Measured host wall time, in nanoseconds.
    pub wall_nanos: u64,
    /// Modeled device time, in nanoseconds (simulated accelerators only;
    /// zero for back-ends measured with the wall clock).
    pub modeled_nanos: u64,
}

impl KernelCounter {
    fn merge(&mut self, other: &KernelCounter) {
        self.calls += other.calls;
        self.items += other.items;
        self.bytes += other.bytes;
        self.wall_nanos += other.wall_nanos;
        self.modeled_nanos += other.modeled_nanos;
    }
}

/// Per-instance kernel statistics, returned by
/// [`crate::BeagleInstance::statistics`]. Wrapper instances merge their own
/// counters with the wrapped instance's, so the client always sees one
/// aggregated view of the whole stack.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// One counter per [`KernelClass`], indexed in [`KernelClass::ALL`]
    /// order.
    pub counters: [KernelCounter; KernelClass::COUNT],
    /// Journal events dropped because the ring buffer was full.
    pub journal_dropped: u64,
    /// Partials operations skipped by the incremental memo layer because
    /// the destination already held the result of bit-identical inputs.
    pub ops_skipped: u64,
    /// Transition-matrix updates skipped by the memo layer.
    pub matrices_skipped: u64,
    /// Root/edge integrations answered from the memo layer's cached value.
    pub integrations_skipped: u64,
    /// Mutating `set_*` calls elided because the new content was
    /// bit-identical to what the buffer already held.
    pub sets_deduped: u64,
    /// Derived transition matrices the memo layer installed from its matrix
    /// store instead of recomputing them (`MemoStats::matrices_reused`).
    pub eigen_cache_hits: u64,
    /// Derived transition matrices the memo layer forwarded to the back-end
    /// (`MemoStats::matrices_computed`).
    pub eigen_cache_misses: u64,
    /// Scaled operations whose rescale check the CPU instance skipped
    /// because the bounds of their inputs proved it would rescale nothing.
    pub rescale_checks_skipped: u64,
    /// Scaled operations whose rescale check ran (max, factor and, where
    /// some pattern left the window, apply sweeps).
    pub rescale_checks_run: u64,
    /// Patterns the checks that ran rescaled.
    pub patterns_rescaled: u64,
}

impl InstanceStats {
    /// The counter for one kernel class.
    pub fn counter(&self, class: KernelClass) -> &KernelCounter {
        &self.counters[class.idx()]
    }

    #[cfg(not(feature = "obs-disabled"))]
    fn counter_mut(&mut self, class: KernelClass) -> &mut KernelCounter {
        &mut self.counters[class.idx()]
    }

    /// Fold another stats block into this one (wrapper aggregation).
    pub fn merge(&mut self, other: &InstanceStats) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            a.merge(b);
        }
        self.journal_dropped += other.journal_dropped;
        self.ops_skipped += other.ops_skipped;
        self.matrices_skipped += other.matrices_skipped;
        self.integrations_skipped += other.integrations_skipped;
        self.sets_deduped += other.sets_deduped;
        self.eigen_cache_hits += other.eigen_cache_hits;
        self.eigen_cache_misses += other.eigen_cache_misses;
        self.rescale_checks_skipped += other.rescale_checks_skipped;
        self.rescale_checks_run += other.rescale_checks_run;
        self.patterns_rescaled += other.patterns_rescaled;
    }

    /// Total measured wall time across all classes, in nanoseconds.
    pub fn total_wall_nanos(&self) -> u64 {
        self.counters.iter().map(|c| c.wall_nanos).sum()
    }

    /// Total modeled device time across all classes, in nanoseconds.
    pub fn total_modeled_nanos(&self) -> u64 {
        self.counters.iter().map(|c| c.modeled_nanos).sum()
    }

    /// Total instrumented invocations across all classes.
    pub fn total_calls(&self) -> u64 {
        self.counters.iter().map(|c| c.calls).sum()
    }

    /// JSON object keyed by kernel-class name (hand-rolled: the offline
    /// environment has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, class) in KernelClass::ALL.iter().enumerate() {
            let c = self.counter(*class);
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"items\":{},\"bytes\":{},\"wall_nanos\":{},\"modeled_nanos\":{}}}",
                class.name(),
                c.calls,
                c.items,
                c.bytes,
                c.wall_nanos,
                c.modeled_nanos
            ));
        }
        out.push_str(&format!(",\"journal_dropped\":{}", self.journal_dropped));
        out.push_str(&format!(
            ",\"ops_skipped\":{},\"matrices_skipped\":{},\"integrations_skipped\":{},\"sets_deduped\":{}",
            self.ops_skipped, self.matrices_skipped, self.integrations_skipped, self.sets_deduped
        ));
        out.push_str(&format!(
            ",\"eigen_cache_hits\":{},\"eigen_cache_misses\":{}",
            self.eigen_cache_hits, self.eigen_cache_misses
        ));
        out.push_str(&format!(
            ",\"rescale_checks_skipped\":{},\"rescale_checks_run\":{},\"patterns_rescaled\":{}}}",
            self.rescale_checks_skipped, self.rescale_checks_run, self.patterns_rescaled
        ));
        out
    }
}

/// What a journal entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An `update_partials`-family call entered a back-end.
    OperationBegin,
    /// The call completed.
    OperationEnd,
    /// A device fault checkpoint fired (injected corruption or failure).
    FaultInjected,
    /// An unscaled integration failed numerically; rescue is re-running
    /// the traversal with per-destination rescaling.
    RescueTriggered,
    /// The rescaled re-run produced a finite likelihood.
    RescueSucceeded,
    /// A transient child failure was retried in place (multi-device).
    FailoverRetry,
    /// A child device was evicted and survivors rebuilt (multi-device).
    FailoverEviction,
    /// An instance resolved its kernel dispatch path at creation.
    DispatchSelected,
    /// A launch stalled past its watchdog budget and was cancelled.
    WatchdogTimeout,
    /// A resource's circuit breaker tripped open (quarantined).
    BreakerOpen,
    /// A quarantined resource's cooldown expired; probing allowed.
    BreakerHalfOpen,
    /// A half-open resource passed its probe and was readmitted.
    BreakerClosed,
    /// A durable checkpoint snapshot was taken.
    CheckpointSaved,
    /// An instance was reconstructed from a checkpoint snapshot.
    CheckpointRestored,
    /// A partitioned instance migrated pattern ranges between children
    /// (adaptive load balancing, or an eviction re-split over survivors).
    Rebalance,
    /// The incremental memo layer proved a call's inputs bit-identical to
    /// what its destinations already hold and skipped the work.
    IncrementalSkip,
    /// An instance-pool worker's back-end was evicted after an evictable
    /// failure (watchdog timeout, permanent device fault).
    PoolWorkerEvicted,
    /// A replacement back-end was built for an evicted pool worker.
    PoolWorkerRebuilt,
    /// An instance pool shut down (detail records drain vs abort and the
    /// number of jobs left behind).
    PoolShutdown,
    /// The likelihood server accepted a session onto its pool.
    ServerAccept,
    /// The likelihood server refused a session (admission control, pool
    /// backpressure, or a drain in progress) with a `Busy` response.
    ServerReject,
    /// The likelihood server began a graceful drain.
    ServerDrain,
}

impl EventKind {
    /// Stable snake_case name (used as the JSON `kind`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::OperationBegin => "operation_begin",
            EventKind::OperationEnd => "operation_end",
            EventKind::FaultInjected => "fault_injected",
            EventKind::RescueTriggered => "rescue_triggered",
            EventKind::RescueSucceeded => "rescue_succeeded",
            EventKind::FailoverRetry => "failover_retry",
            EventKind::FailoverEviction => "failover_eviction",
            EventKind::DispatchSelected => "dispatch_selected",
            EventKind::WatchdogTimeout => "watchdog_timeout",
            EventKind::BreakerOpen => "breaker_open",
            EventKind::BreakerHalfOpen => "breaker_half_open",
            EventKind::BreakerClosed => "breaker_closed",
            EventKind::CheckpointSaved => "checkpoint_saved",
            EventKind::CheckpointRestored => "checkpoint_restored",
            EventKind::Rebalance => "rebalance",
            EventKind::IncrementalSkip => "incremental_skip",
            EventKind::PoolWorkerEvicted => "pool_worker_evicted",
            EventKind::PoolWorkerRebuilt => "pool_worker_rebuilt",
            EventKind::PoolShutdown => "pool_shutdown",
            EventKind::ServerAccept => "server_accept",
            EventKind::ServerReject => "server_reject",
            EventKind::ServerDrain => "server_drain",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One journal entry. `seq` is a process-global sequence number and
/// `at_micros` microseconds since a process-global epoch, so entries from
/// independent recorders interleave into one total order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Process-global, strictly increasing sequence number.
    pub seq: u64,
    /// Microseconds since the process-global journal epoch.
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// Free-form detail (implementation name, op counts, fault site, …).
    pub detail: String,
}

impl Event {
    /// One JSON object, suitable as a JSON-lines record.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_micros\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.seq,
            self.at_micros,
            self.kind.name(),
            json_escape(&self.detail)
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a journal as JSON lines (one event per line).
///
/// The ring buffer silently drops the oldest events on overflow, so a dump
/// alone cannot reveal truncation; pass the instance's
/// [`InstanceStats::journal_dropped`] as `dropped_events` and the dump opens
/// with a summary record making the loss visible.
pub fn journal_to_json_lines(events: &[Event], dropped_events: u64) -> String {
    let mut out = format!(
        "{{\"kind\":\"journal_summary\",\"events\":{},\"dropped_events\":{}}}\n",
        events.len(),
        dropped_events
    );
    for e in events {
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

/// Merge two journals into sequence order (stable total order across
/// recorders thanks to the global sequence counter).
pub fn merge_journals(mut a: Vec<Event>, b: Vec<Event>) -> Vec<Event> {
    a.extend(b);
    a.sort_by_key(|e| e.seq);
    a
}

/// Default ring-buffer capacity of a recorder's event journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

#[cfg(not(feature = "obs-disabled"))]
mod imp {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    /// Process-global journal epoch: set on first use, shared by every
    /// recorder so timestamps are comparable across instances.
    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// Microseconds since the process-global journal epoch.
    pub fn now_micros() -> u64 {
        epoch().elapsed().as_micros() as u64
    }

    fn next_seq() -> u64 {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        SEQ.fetch_add(1, Ordering::Relaxed)
    }

    /// A running wall-clock measurement; obtained from [`Recorder::start`]
    /// and settled by [`Recorder::finish`]. Inert when recording is off.
    #[must_use]
    pub struct Stopwatch(Option<Instant>);

    /// The per-instance collection point: kernel counters plus the
    /// ring-buffered event journal. Every hook is a no-op (one branch on a
    /// bool) when the recorder is disabled.
    #[derive(Default)]
    pub struct Recorder {
        enabled: bool,
        stats: InstanceStats,
        journal: VecDeque<Event>,
        capacity: usize,
    }

    impl Recorder {
        /// A recorder; `enabled` decides whether hooks record anything.
        pub fn new(enabled: bool) -> Self {
            Self {
                enabled,
                stats: InstanceStats::default(),
                journal: VecDeque::new(),
                capacity: DEFAULT_JOURNAL_CAPACITY,
            }
        }

        /// A permanently disabled recorder (the default for instances
        /// created without [`crate::Flags::INSTANCE_STATS`]).
        pub fn disabled() -> Self {
            Self::new(false)
        }

        /// Whether hooks record anything.
        pub fn is_enabled(&self) -> bool {
            self.enabled
        }

        /// Begin a wall-clock measurement (reads the clock only when
        /// enabled).
        pub fn start(&self) -> Stopwatch {
            Stopwatch(self.enabled.then(Instant::now))
        }

        /// Settle a measurement into `class`, adding `items` work items and
        /// `bytes` moved.
        pub fn finish(&mut self, sw: Stopwatch, class: KernelClass, items: u64, bytes: u64) {
            let Some(t0) = sw.0 else { return };
            let c = self.stats.counter_mut(class);
            c.calls += 1;
            c.items += items;
            c.bytes += bytes;
            c.wall_nanos += t0.elapsed().as_nanos() as u64;
        }

        /// Count an invocation without timing it (e.g. pool dispatches).
        pub fn tally(&mut self, class: KernelClass, items: u64, bytes: u64) {
            if !self.enabled {
                return;
            }
            let c = self.stats.counter_mut(class);
            c.calls += 1;
            c.items += items;
            c.bytes += bytes;
        }

        /// Add wall time to `class` without a stopwatch (pre-measured
        /// durations, e.g. a share of a batched dispatch).
        pub fn add_wall(&mut self, class: KernelClass, wall: Duration) {
            if self.enabled {
                self.stats.counter_mut(class).wall_nanos += wall.as_nanos() as u64;
            }
        }

        /// Add modeled device time to `class` (simulated accelerators).
        pub fn add_modeled(&mut self, class: KernelClass, modeled: Duration) {
            if self.enabled {
                self.stats.counter_mut(class).modeled_nanos += modeled.as_nanos() as u64;
            }
        }

        /// Count rescale checks: `skipped` and `run` scaled operations, and
        /// the `patterns` the checks that ran rescaled.
        pub fn rescale_checks(&mut self, skipped: u64, run: u64, patterns: u64) {
            if self.enabled {
                self.stats.rescale_checks_skipped += skipped;
                self.stats.rescale_checks_run += run;
                self.stats.patterns_rescaled += patterns;
            }
        }

        /// Append a journal event. `detail` is a closure so the disabled
        /// path never formats anything.
        pub fn event(&mut self, kind: EventKind, detail: impl FnOnce() -> String) {
            if !self.enabled {
                return;
            }
            if self.journal.len() >= self.capacity {
                self.journal.pop_front();
                self.stats.journal_dropped += 1;
            }
            self.journal.push_back(Event {
                seq: next_seq(),
                at_micros: now_micros(),
                kind,
                detail: detail(),
            });
        }

        /// Snapshot the counters; `None` when recording is disabled.
        pub fn stats(&self) -> Option<InstanceStats> {
            self.enabled.then(|| self.stats.clone())
        }

        /// Drain the journal (oldest first).
        pub fn take_journal(&mut self) -> Vec<Event> {
            self.journal.drain(..).collect()
        }
    }
}

#[cfg(feature = "obs-disabled")]
mod imp {
    use super::*;
    use std::time::Duration;

    /// Inert stopwatch (instrumentation compiled out).
    #[must_use]
    pub struct Stopwatch;

    /// Zero-sized recorder: every method is empty and `statistics()` is
    /// always `None`, so the instrumentation is unmeasurable.
    #[derive(Default)]
    pub struct Recorder;

    impl Recorder {
        /// Compiled-out recorder; `enabled` is ignored.
        pub fn new(_enabled: bool) -> Self {
            Recorder
        }

        /// Compiled-out recorder.
        pub fn disabled() -> Self {
            Recorder
        }

        /// Always false.
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// No-op.
        pub fn start(&self) -> Stopwatch {
            Stopwatch
        }

        /// No-op.
        pub fn finish(&mut self, _sw: Stopwatch, _class: KernelClass, _items: u64, _bytes: u64) {}

        /// No-op.
        pub fn tally(&mut self, _class: KernelClass, _items: u64, _bytes: u64) {}

        /// No-op.
        pub fn add_wall(&mut self, _class: KernelClass, _wall: Duration) {}

        /// No-op.
        pub fn add_modeled(&mut self, _class: KernelClass, _modeled: Duration) {}

        /// No-op.
        pub fn rescale_checks(&mut self, _skipped: u64, _run: u64, _patterns: u64) {}

        /// No-op.
        pub fn event(&mut self, _kind: EventKind, _detail: impl FnOnce() -> String) {}

        /// Always `None`.
        pub fn stats(&self) -> Option<InstanceStats> {
            None
        }

        /// Always empty.
        pub fn take_journal(&mut self) -> Vec<Event> {
            Vec::new()
        }
    }
}

pub use imp::{Recorder, Stopwatch};

#[cfg(all(test, not(feature = "obs-disabled")))]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let sw = r.start();
        r.finish(sw, KernelClass::PartialsPP, 10, 100);
        r.tally(KernelClass::PoolDispatch, 1, 0);
        r.event(EventKind::Rebalance, || unreachable!("detail must not run"));
        assert!(r.stats().is_none());
        assert!(r.take_journal().is_empty());
    }

    #[test]
    fn enabled_recorder_aggregates_per_class() {
        let mut r = Recorder::new(true);
        let sw = r.start();
        r.finish(sw, KernelClass::PartialsPP, 3, 64);
        r.tally(KernelClass::PartialsPP, 2, 32);
        r.add_modeled(KernelClass::PartialsPP, Duration::from_nanos(500));
        let s = r.stats().unwrap();
        let c = s.counter(KernelClass::PartialsPP);
        assert_eq!(c.calls, 2);
        assert_eq!(c.items, 5);
        assert_eq!(c.bytes, 96);
        assert_eq!(c.modeled_nanos, 500);
        assert_eq!(s.counter(KernelClass::Rescale), &KernelCounter::default());
    }

    #[test]
    fn events_are_globally_ordered() {
        let mut a = Recorder::new(true);
        let mut b = Recorder::new(true);
        a.event(EventKind::OperationBegin, || "first".into());
        b.event(EventKind::Rebalance, || "second".into());
        a.event(EventKind::OperationEnd, || "third".into());
        let merged = merge_journals(a.take_journal(), b.take_journal());
        assert_eq!(merged.len(), 3);
        assert!(merged.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(merged[1].kind, EventKind::Rebalance);
    }

    #[test]
    fn journal_ring_drops_oldest() {
        let mut r = Recorder::new(true);
        for i in 0..(DEFAULT_JOURNAL_CAPACITY + 5) {
            r.event(EventKind::Rebalance, || format!("e{i}"));
        }
        let s = r.stats().unwrap();
        assert_eq!(s.journal_dropped, 5);
        let j = r.take_journal();
        assert_eq!(j.len(), DEFAULT_JOURNAL_CAPACITY);
        assert_eq!(j.first().unwrap().detail, "e5");
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let mut r = Recorder::new(true);
        r.event(EventKind::FaultInjected, || "site=\"copy\"\nline".into());
        let j = r.take_journal();
        let line = j[0].to_json_line();
        assert!(line.contains("\\\"copy\\\""));
        assert!(line.contains("\\n"));
        let stats = InstanceStats::default().to_json();
        assert!(stats.starts_with('{') && stats.ends_with('}'));
        for class in KernelClass::ALL {
            assert!(stats.contains(class.name()));
        }
        for key in [
            "ops_skipped",
            "matrices_skipped",
            "integrations_skipped",
            "sets_deduped",
            "eigen_cache_hits",
            "eigen_cache_misses",
            "rescale_checks_skipped",
            "rescale_checks_run",
            "patterns_rescaled",
        ] {
            assert!(stats.contains(key), "missing {key} in {stats}");
        }
    }

    #[test]
    fn journal_dump_reports_dropped_events() {
        let mut r = Recorder::new(true);
        for i in 0..(DEFAULT_JOURNAL_CAPACITY + 3) {
            r.event(EventKind::Rebalance, || format!("e{i}"));
        }
        let dropped = r.stats().unwrap().journal_dropped;
        let dump = journal_to_json_lines(&r.take_journal(), dropped);
        let first = dump.lines().next().unwrap();
        assert!(first.contains("\"kind\":\"journal_summary\""));
        assert!(first.contains("\"dropped_events\":3"));
        assert_eq!(dump.lines().count(), DEFAULT_JOURNAL_CAPACITY + 1);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = InstanceStats::default();
        a.counter_mut(KernelClass::Rescale).calls = 2;
        let mut b = InstanceStats::default();
        b.counter_mut(KernelClass::Rescale).calls = 3;
        b.journal_dropped = 1;
        b.rescale_checks_skipped = 4;
        b.patterns_rescaled = 2;
        a.rescale_checks_run = 3;
        a.merge(&b);
        assert_eq!(a.counter(KernelClass::Rescale).calls, 5);
        assert_eq!(a.journal_dropped, 1);
        assert_eq!(
            (
                a.rescale_checks_skipped,
                a.rescale_checks_run,
                a.patterns_rescaled
            ),
            (4, 3, 2)
        );
        assert_eq!(a.total_calls(), 5);
    }
}
