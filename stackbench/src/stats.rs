//! Order statistics for latency samples and throughput windows.

/// Percentiles considered for the reported tail, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: fewer, and the tail is a handful of outliers, not a quantile.
const MIN_BEYOND: usize = 10;

/// One exact nearest-rank quantile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples ranked strictly above `value`'s rank.
    pub beyond: usize,
}

/// Exact nearest-rank `percentile` of `sorted` (ascending): the sample at
/// 1-based rank `ceil(p/100 · n)`. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], percentile: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The tolerance keeps decimal percentiles such as 99.9 from rounding up
    // a rank that is exact in decimal (99.9% of 1000 is rank 999).
    let rank = ((percentile * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The highest percentile in [`TAIL_PERCENTILES`] with at least
/// [`MIN_BEYOND`] samples beyond it, with its quantile; `None` when even the
/// median has fewer.
pub fn tail(sorted: &[f64]) -> Option<(f64, Quantile)> {
    TAIL_PERCENTILES.iter().find_map(|&p| {
        nearest_rank(sorted, p)
            .filter(|q| q.beyond >= MIN_BEYOND)
            .map(|q| (p, q))
    })
}

/// Median by nearest rank; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).map_or(0.0, |q| q.value)
}

/// Interquartile range over median, by nearest rank; 0 when the median is 0.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p| nearest_rank(&v, p).map_or(0.0, |q| q.value);
    ratio(q(75.0) - q(25.0), q(50.0))
}

/// `a / b`, or 0 when `b` is 0: per-layer ratios over a layer that did no
/// work read 0, never NaN.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Throughput of `windows` equal-count windows over completion timestamps
/// `ends_ns` (ascending), the first window starting at `start_ns`. Each rate
/// is completions per second within its window.
pub fn window_rates(start_ns: u64, ends_ns: &[u64], windows: usize) -> Vec<f64> {
    let n = ends_ns.len();
    let mut rates = Vec::with_capacity(windows);
    let mut from = start_ns;
    let mut done = 0;
    for w in 1..=windows {
        let upto = n * w / windows;
        if upto == done {
            continue;
        }
        let to = ends_ns[upto - 1];
        rates.push(ratio(
            (upto - done) as f64,
            to.saturating_sub(from) as f64 / 1e9,
        ));
        from = to;
        done = upto;
    }
    rates
}

/// Timestamp `t` less the length of every gap that ended by `t`; `gaps` are
/// `(start, end)` intervals on `t`'s clock that must not count as run time.
pub fn without_gaps(t: u64, gaps: &[(u64, u64)]) -> u64 {
    t - gaps
        .iter()
        .filter(|g| g.1 <= t)
        .map(|g| g.1 - g.0)
        .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn one_sample_has_no_tail() {
        let v = ramp(1);
        let q = nearest_rank(&v, 99.0).unwrap();
        assert_eq!((q.value, q.n, q.beyond), (1.0, 1, 0));
        assert_eq!(tail(&v), None);
        assert_eq!(median(&v), 1.0);
    }

    #[test]
    fn ten_samples_have_no_tail() {
        let v = ramp(10);
        let p50 = nearest_rank(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (5.0, 5));
        let p99 = nearest_rank(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (10.0, 0));
        assert_eq!(tail(&v), None, "no percentile has 10 samples beyond");
    }

    #[test]
    fn nine_hundred_ninety_nine_samples_fall_back_to_p95() {
        let v = ramp(999);
        let p99 = nearest_rank(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 9));
        let (p, q) = tail(&v).unwrap();
        assert_eq!(p, 95.0);
        assert_eq!((q.value, q.n, q.beyond), (950.0, 999, 49));
    }

    #[test]
    fn one_thousand_samples_reach_p99() {
        let v = ramp(1000);
        let (p, q) = tail(&v).unwrap();
        assert_eq!(p, 99.0);
        assert_eq!((q.value, q.n, q.beyond), (990.0, 1000, 10));
        let p999 = nearest_rank(&v, 99.9).unwrap();
        assert_eq!(p999.beyond, 1, "p99.9 has too few samples beyond");
    }

    #[test]
    fn windows_split_by_count() {
        // 10 completions, one per 100 ms, starting 100 ms after t0.
        let ends: Vec<u64> = (1..=10).map(|i| i * 100_000_000).collect();
        let rates = window_rates(0, &ends, 5);
        assert_eq!(rates.len(), 5);
        for r in rates {
            assert!((r - 10.0).abs() < 1e-9, "{r}");
        }
        assert_eq!(window_rates(0, &[], 5), Vec::<f64>::new());
    }

    #[test]
    fn gaps_are_cut_out_of_the_run() {
        let gaps = [(100, 130), (200, 210)];
        assert_eq!(without_gaps(90, &gaps), 90);
        assert_eq!(without_gaps(150, &gaps), 120);
        assert_eq!(without_gaps(300, &gaps), 260);
        // Two windows of 5 completions, each 50 ns of work, one with a gap.
        let ends = [10, 20, 30, 40, 50, 110, 120, 130, 140, 150];
        let gap = [(55, 105)];
        let ends: Vec<u64> = ends.iter().map(|&t| without_gaps(t, &gap)).collect();
        let rates = window_rates(0, &ends, 2);
        assert_eq!(rates[0], rates[1]);
    }

    #[test]
    fn spread_is_relative_to_median() {
        assert_eq!(iqr_over_median(&[1.0, 2.0, 3.0, 4.0]), 1.0);
        assert_eq!(iqr_over_median(&[0.0, 0.0]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
