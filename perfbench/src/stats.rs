//! The harness's own statistics: request outcomes of a closed loop and
//! the percentiles reported from them.
//!
//! Two rules are enforced here rather than left to callers:
//!
//! * a percentile is reported only when at least [`MIN_BEYOND`] samples
//!   lie beyond it, so a tail is never read off a handful of requests;
//! * a failed or refused request counts as attempted and as *missing*
//!   latency — it sorts above every completed request, so failures push
//!   percentiles up instead of silently disappearing from them.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Outcomes of the requests one closed loop attempted.
#[derive(Debug, Clone, Default)]
pub struct Outcomes {
    /// Latencies of the requests that completed correctly, in ms.
    pub ok_ms: Vec<f64>,
    /// Requests that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Work units the completed requests covered.
    pub units: u64,
}

impl Outcomes {
    /// Records one completed request.
    pub fn ok(&mut self, latency_ms: f64, units: u64) {
        self.ok_ms.push(latency_ms);
        self.units += units;
    }

    /// Records one failed or refused request.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Requests attempted, completed or not.
    pub fn attempted(&self) -> u64 {
        self.ok_ms.len() as u64 + self.failed
    }

    /// Share of attempted requests that completed correctly.
    pub fn ok_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.ok_ms.len() as f64 / n as f64,
        }
    }

    /// Folds another loop's outcomes (another client) into this one.
    pub fn merge(&mut self, other: Outcomes) {
        self.ok_ms.extend(other.ok_ms);
        self.failed += other.failed;
        self.units += other.units;
    }

    /// The `p`-th percentile latency over every attempted request, with
    /// failed requests counted as missing latency. `None` when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it, or when it falls on a
    /// failed request (it has no latency to report).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let mut sorted = self.ok_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.extend(std::iter::repeat_n(f64::INFINITY, self.failed as usize));
        percentile(&sorted, p).filter(|v| v.is_finite())
    }
}

/// Nearest-rank `p`-th percentile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Samples needed for the `p`-th percentile to have [`MIN_BEYOND`]
/// samples beyond it — the floor a workload's run length must reach.
pub fn samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| nearest_rank(n, p).is_some_and(|rank| n - rank >= MIN_BEYOND))
        .expect("a finite sample count always suffices")
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten samples beyond.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // One sample fewer leaves only nine beyond.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(samples_for(50.0), 20);
        assert_eq!(samples_for(90.0), 100);
        assert_eq!(samples_for(99.0), 1000);
    }

    #[test]
    fn failures_lower_ok_frac_and_count_as_missing_latency() {
        let mut outcomes = Outcomes::default();
        for ms in ramp(90) {
            outcomes.ok(ms, 2);
        }
        for _ in 0..10 {
            outcomes.fail();
        }
        assert_eq!(outcomes.attempted(), 100);
        assert_eq!(outcomes.units, 180);
        assert!((outcomes.ok_frac() - 0.9).abs() < 1e-12);
        // The median moves up past the failures' share of the ranks.
        assert_eq!(outcomes.percentile(50.0), Some(50.0));
        // p90 lands on the last completed request; the ten failures are
        // the samples beyond it.
        assert_eq!(outcomes.percentile(90.0), Some(90.0));
        // One more failure and p90 falls on a request with no latency.
        outcomes.fail();
        assert_eq!(outcomes.percentile(90.0), None);
    }

    #[test]
    fn merged_clients_pool_their_samples() {
        let mut a = Outcomes::default();
        let mut b = Outcomes::default();
        a.ok(1.0, 1);
        b.ok(3.0, 1);
        b.fail();
        a.merge(b);
        assert_eq!(a.attempted(), 3);
        assert_eq!(a.failed, 1);
        assert_eq!(a.units, 2);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
