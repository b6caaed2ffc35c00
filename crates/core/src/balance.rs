//! Adaptive load balancing across heterogeneous partitions.
//!
//! The ICPP'17 paper's headline capability is splitting one analysis across
//! *heterogeneous* devices with work assigned proportionally to measured
//! throughput. The static half of that already exists
//! ([`crate::multi::weighted_ranges`] plus
//! [`crate::manager::ImplementationManager::benchmark_resources`]); this
//! module closes the loop at runtime:
//!
//! 1. After every fan-out batch ([`crate::multi::PartitionedInstance`]
//!    `update_partials` / root or edge integration), each child's elapsed
//!    time — modeled device time for simulated back-ends, wall time
//!    otherwise — feeds a per-part exponentially weighted moving average of
//!    throughput in patterns per second.
//! 2. Once every part has enough observations, the balancer predicts the
//!    batch makespan of the *current* partition and compares it against the
//!    ideal (work perfectly proportional to throughput). When the ratio —
//!    the **skew** — exceeds a threshold, it proposes new stride-aligned
//!    pattern ranges proportional to the estimated throughputs.
//! 3. The partitioned instance migrates state between children (journal
//!    replay, the same protocol eviction uses) and journals a `rebalance`
//!    observability event.
//!
//! The EWMA gain ([`ALPHA`]), the skew threshold ([`SKEW_THRESHOLD`]) and
//! the split alignment ([`PATTERN_STRIDE`]) are constants. The one setting,
//! [`BalancerConfig::min_batches`], differs between callers: the
//! auto-partitioned path waits for 2 batches, the `balance` bench for 1.

use std::time::Duration;

/// Pattern-count granularity for partition split points.
///
/// CPU back-ends pad each category row to the SIMD register width (4 f64 /
/// 8 f32 lanes) and tile pattern loops in blocks of 8; a split point inside
/// such a block puts the boundary mid-padding, so a migrated slice starts at
/// a partially filled vector. Aligning split points to the widest stride
/// keeps every migrated slice block-aligned on every back-end.
pub const PATTERN_STRIDE: usize = 8;

/// Samples shorter than this did no measurable work (an empty operation
/// list) and carry no throughput information; [`LoadBalancer::observe`]
/// discards them.
const MIN_SAMPLE: Duration = Duration::from_nanos(200);

/// EWMA gain in `(0, 1]`: weight of the newest throughput sample.
pub const ALPHA: f64 = 0.4;

/// Rebalance when the predicted makespan exceeds the ideal by this ratio
/// (`1.25` = the slowest part is predicted 25% over a perfect split).
pub const SKEW_THRESHOLD: f64 = 1.25;

/// Setting for [`LoadBalancer`].
#[derive(Clone, Copy, Debug)]
pub struct BalancerConfig {
    /// Observed batches required from *every* part before the first
    /// rebalance may trigger (throughput estimates need to settle).
    pub min_batches: u32,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        Self { min_batches: 2 }
    }
}

/// Per-part throughput estimate.
#[derive(Clone, Copy, Debug)]
struct PartEstimate {
    /// EWMA throughput in patterns per second.
    rate: f64,
    /// Accepted observations so far.
    batches: u32,
}

/// An accepted repartitioning decision from [`LoadBalancer::plan`]: the
/// proposed stride-aligned ranges plus the per-part throughput estimates
/// (patterns/second) that justified them. The rates ride along because
/// accepting a plan resets the settle counters, so
/// [`LoadBalancer::throughputs`] reads `None` until the new layout has
/// re-settled — but the migration itself still needs the weights.
pub type RebalancePlan = (Vec<(usize, usize)>, Vec<f64>);

/// Measured-throughput repartitioning: per-part EWMA throughput estimates
/// plus the skew test that decides when re-splitting pays.
///
/// Pure bookkeeping — it never touches instances. The owner
/// ([`crate::multi::PartitionedInstance`]) feeds [`LoadBalancer::observe`]
/// after each batch, asks [`LoadBalancer::plan`] whether to migrate, and
/// keeps part indices in sync on eviction via [`LoadBalancer::remove_part`].
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    config: BalancerConfig,
    parts: Vec<PartEstimate>,
    rebalances: u64,
}

impl LoadBalancer {
    /// A balancer for `parts` partitions.
    pub fn new(parts: usize, config: BalancerConfig) -> Self {
        Self {
            config,
            parts: vec![
                PartEstimate {
                    rate: 0.0,
                    batches: 0
                };
                parts
            ],
            rebalances: 0,
        }
    }

    /// Partitions currently tracked.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Rebalances proposed so far (i.e. accepted [`LoadBalancer::plan`]s).
    pub fn rebalance_count(&self) -> u64 {
        self.rebalances
    }

    /// Record one batch: part `part` processed `patterns` patterns in
    /// `elapsed`. Degenerate samples (zero patterns, or sub-microsecond
    /// calls that did no real work) are discarded.
    pub fn observe(&mut self, part: usize, patterns: usize, elapsed: Duration) {
        if patterns == 0 || elapsed < MIN_SAMPLE {
            return;
        }
        let rate = patterns as f64 / elapsed.as_secs_f64();
        if !rate.is_finite() || rate <= 0.0 {
            return;
        }
        let e = &mut self.parts[part];
        e.rate = if e.batches == 0 {
            rate
        } else {
            ALPHA * rate + (1.0 - ALPHA) * e.rate
        };
        e.batches += 1;
    }

    /// Estimated throughput per part (patterns/second), once every part has
    /// at least [`BalancerConfig::min_batches`] accepted observations.
    pub fn throughputs(&self) -> Option<Vec<f64>> {
        if self
            .parts
            .iter()
            .all(|e| e.batches >= self.config.min_batches && e.rate > 0.0)
        {
            Some(self.parts.iter().map(|e| e.rate).collect())
        } else {
            None
        }
    }

    /// Predicted makespan skew of `ranges` under the current throughput
    /// estimates: `max_i(n_i / rate_i)` over the ideal makespan
    /// `Σn / Σrate`. Always ≥ 1; exactly 1 when work is perfectly
    /// proportional to throughput. `None` until every part is estimated.
    pub fn predicted_skew(&self, ranges: &[(usize, usize)]) -> Option<f64> {
        let rates = self.throughputs()?;
        if rates.len() != ranges.len() {
            return None;
        }
        let total_patterns: usize = ranges.iter().map(|(a, b)| b - a).sum();
        let total_rate: f64 = rates.iter().sum();
        let ideal = total_patterns as f64 / total_rate;
        let worst = ranges
            .iter()
            .zip(&rates)
            .map(|(&(a, b), &r)| (b - a) as f64 / r)
            .fold(0.0f64, f64::max);
        Some(worst / ideal)
    }

    /// Decide whether to repartition `patterns` patterns currently split as
    /// `ranges`. Returns the proposed stride-aligned ranges plus the
    /// throughput estimates that justified them when (a) every part has
    /// settled estimates, (b) the predicted skew of the current split
    /// exceeds [`SKEW_THRESHOLD`], and (c) the proposal
    /// *strictly improves* the predicted skew — the guard that makes skew
    /// monotonically decreasing under stationary throughputs (no thrash).
    ///
    /// Accepting a plan resets every part's batch counter (the EWMA rates
    /// survive): per-part cost is not perfectly linear in patterns — kernel
    /// launch overheads, padding — so estimates measured at the *old* layout
    /// must re-settle over [`BalancerConfig::min_batches`] fresh batches at
    /// the new one before the balancer may migrate again. Without this
    /// cool-down a fixed per-batch overhead reads as "this part got slower",
    /// and the loop chases its own tail into a degenerate split.
    pub fn plan(&mut self, patterns: usize, ranges: &[(usize, usize)]) -> Option<RebalancePlan> {
        let rates = self.throughputs()?;
        let current = self.predicted_skew(ranges)?;
        if current <= SKEW_THRESHOLD {
            return None;
        }
        let proposed = crate::multi::weighted_ranges(patterns, &rates).ok()?;
        if proposed == ranges || self.predicted_skew(&proposed)? >= current {
            return None;
        }
        self.rebalances += 1;
        for e in &mut self.parts {
            e.batches = 0;
        }
        Some((proposed, rates))
    }

    /// Drop part `i` (evicted upstream); its estimate goes with it.
    pub fn remove_part(&mut self, i: usize) {
        self.parts.remove(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(b: &mut LoadBalancer, rates: &[f64], batches: u32) {
        for _ in 0..batches {
            for (i, &r) in rates.iter().enumerate() {
                b.observe(i, 1000, Duration::from_secs_f64(1000.0 / r));
            }
        }
    }

    #[test]
    fn observe_tracks_rates() {
        let mut b = LoadBalancer::new(2, BalancerConfig::default());
        feed(&mut b, &[4000.0, 1000.0], 3);
        let thr = b.throughputs().expect("both parts observed");
        assert!((thr[0] - 4000.0).abs() / 4000.0 < 1e-9, "{thr:?}");
        assert!((thr[1] - 1000.0).abs() / 1000.0 < 1e-9, "{thr:?}");
    }

    #[test]
    fn degenerate_samples_discarded() {
        let mut b = LoadBalancer::new(1, BalancerConfig::default());
        b.observe(0, 0, Duration::from_millis(1));
        b.observe(0, 1000, Duration::ZERO);
        b.observe(0, 1000, Duration::from_nanos(50));
        assert!(b.throughputs().is_none());
    }

    #[test]
    fn skew_of_proportional_split_is_one() {
        let mut b = LoadBalancer::new(2, BalancerConfig::default());
        feed(&mut b, &[3000.0, 1000.0], 2);
        let skew = b.predicted_skew(&[(0, 750), (750, 1000)]).unwrap();
        assert!((skew - 1.0).abs() < 1e-9, "{skew}");
    }

    /// Makespan skew of `ranges` under `rates` (the quantity plan() bounds).
    fn skew_of(ranges: &[(usize, usize)], rates: &[f64]) -> f64 {
        let patterns: usize = ranges.iter().map(|(a, b)| b - a).sum();
        let ideal = patterns as f64 / rates.iter().sum::<f64>();
        ranges
            .iter()
            .zip(rates)
            .map(|(&(a, b), &r)| (b - a) as f64 / r)
            .fold(0.0f64, f64::max)
            / ideal
    }

    #[test]
    fn plan_triggers_on_skew_and_improves_it() {
        let mut b = LoadBalancer::new(2, BalancerConfig::default());
        feed(&mut b, &[4000.0, 1000.0], 2);
        let equal = [(0, 500), (500, 1000)];
        let before = b.predicted_skew(&equal).unwrap();
        assert!(before > SKEW_THRESHOLD, "{before}");
        let (new, rates) = b.plan(1000, &equal).expect("skewed split must replan");
        let after = skew_of(&new, &rates);
        assert!(after < before, "{after} !< {before}");
        // The fast part gets the lion's share, stride-aligned.
        assert!(new[0].1 > 700 && new[0].1 % PATTERN_STRIDE == 0, "{new:?}");
        assert_eq!(b.rebalance_count(), 1);
    }

    /// Accepting a plan resets settling: the balancer will not migrate
    /// again until every part has re-accumulated `min_batches` fresh
    /// observations at the new layout.
    #[test]
    fn accepted_plan_requires_resettling() {
        let mut b = LoadBalancer::new(2, BalancerConfig::default());
        feed(&mut b, &[4000.0, 1000.0], 2);
        let equal = [(0, 500), (500, 1000)];
        let (new, _) = b.plan(1000, &equal).expect("skewed split must replan");
        assert!(
            b.throughputs().is_none(),
            "estimates must re-settle after a migration"
        );
        assert!(b.plan(1000, &equal).is_none(), "no back-to-back migrations");
        // The throughput picture inverts at the new layout; once re-settled
        // the balancer may move again — and the EWMA keeps its memory.
        feed(&mut b, &[1000.0, 4000.0], 2);
        assert!(b.plan(1000, &new).is_some());
        assert_eq!(b.rebalance_count(), 2);
    }

    #[test]
    fn plan_quiet_when_balanced() {
        let mut b = LoadBalancer::new(2, BalancerConfig::default());
        feed(&mut b, &[1000.0, 1000.0], 2);
        assert!(b.plan(1000, &[(0, 500), (500, 1000)]).is_none());
    }

    #[test]
    fn plan_waits_for_min_batches() {
        let mut b = LoadBalancer::new(2, BalancerConfig { min_batches: 3 });
        feed(&mut b, &[4000.0, 1000.0], 2);
        assert!(b.plan(1000, &[(0, 500), (500, 1000)]).is_none());
        feed(&mut b, &[4000.0, 1000.0], 1);
        assert!(b.plan(1000, &[(0, 500), (500, 1000)]).is_some());
    }

    #[test]
    fn remove_part_keeps_indices_in_sync() {
        let mut b = LoadBalancer::new(3, BalancerConfig::default());
        feed(&mut b, &[1000.0, 2000.0, 3000.0], 2);
        b.remove_part(1);
        let thr = b.throughputs().unwrap();
        assert_eq!(thr.len(), 2);
        assert!(thr[1] > thr[0]);
    }

    #[test]
    fn ewma_adapts_to_throughput_change() {
        let mut b = LoadBalancer::new(1, BalancerConfig::default());
        feed(&mut b, &[1000.0], 3);
        // The device throttles to a quarter of its speed.
        feed(&mut b, &[250.0], 12);
        let thr = b.throughputs().unwrap();
        assert!(
            thr[0] < 300.0,
            "EWMA should converge to the new rate, got {thr:?}"
        );
    }
}
