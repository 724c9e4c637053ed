//! Order statistics over raw samples, and the summaries of repeated
//! measurements every reported value goes through.

/// Exact nearest-rank order statistic: the smallest sample such that at
/// least `p` of all samples are at or below it. `sorted` must be ascending;
/// an empty slice yields 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), the statistic the
/// driver judges run-to-run spread with. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range over the median: how far repeated measurements
/// disagree. This is the statistic the driver and `choosing-metrics` judge
/// run-to-run spread with; the issue's `(max − min) / median` is the single
/// worst round instead. 0 below two values or when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// A reported value and how far the repetitions behind it disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The estimate.
    pub value: f64,
    /// Interquartile range of the repetitions over their median.
    pub spread: f64,
}

impl Summary {
    /// The median of repeated measurements (rounds, cycles, set-ups).
    pub fn median_of(repeats: &[f64]) -> Self {
        Self {
            value: median(repeats),
            spread: spread(repeats),
        }
    }

    /// A value measured once (a count, a size): no spread.
    pub fn once(value: f64) -> Self {
        Self { value, spread: 0.0 }
    }
}

/// One measured round: throughput and exact latency order statistics over
/// the round's own samples.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Operations completed.
    pub ops: usize,
    /// Operations per second of round wall time.
    pub per_s: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
}

impl Round {
    /// Summarises `samples_ns` (consumed: sorted in place) taken over
    /// `wall_ns` of wall time.
    pub fn of(samples_ns: &mut [u64], wall_ns: u64) -> Self {
        samples_ns.sort_unstable();
        Self {
            ops: samples_ns.len(),
            per_s: samples_ns.len() as f64 / (wall_ns.max(1) as f64 / 1e9),
            p50_us: percentile(samples_ns, 0.50) as f64 / 1e3,
            p99_us: percentile(samples_ns, 0.99) as f64 / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 4 samples: p50 is the 2nd, p99 the 4th.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.50), 20);
        assert_eq!(percentile(&[10, 20, 30, 40], 0.99), 40);
    }

    #[test]
    fn median_of_rounds_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Reference values from Python's statistics.quantiles(v, n=4).
        assert_eq!(
            quartiles(&[100.0, 90.0, 110.0, 105.0, 95.0, 100.0]),
            Some((93.75, 106.25))
        );
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(
            quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0, 6.0, 5.0]),
            Some((2.0, 6.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        let reps = [100.0, 90.0, 110.0, 105.0, 95.0, 100.0];
        let s = Summary::median_of(&reps);
        assert_eq!(s.value, 100.0);
        assert!((s.spread - 0.125).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(Summary::once(3.5).spread, 0.0);
    }

    #[test]
    fn round_reports_rate_and_order_statistics() {
        let mut ns: Vec<u64> = (1..=1000).rev().map(|i| i * 1_000).collect();
        let r = Round::of(&mut ns, 2_000_000_000);
        assert_eq!(r.ops, 1000);
        assert!((r.per_s - 500.0).abs() < 1e-9);
        assert_eq!(r.p50_us, 500.0);
        assert_eq!(r.p99_us, 990.0);
    }
}
