//! Order statistics over raw samples: nearest-rank percentiles and the
//! rule that picks the highest percentile a sample count supports.

/// Percentiles tried by [`supported_tail`], highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// such that at least `p` percent of the samples are at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // p·n/100 of a decimal p can land a hair above an integer (99.9% of
    // 1000 is 999.0000000000001): trim the rounding error before ceil.
    let exact = p / 100.0 * n as f64;
    let rank = (exact - exact * 1e-12).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// A sorted copy of `samples` (NaNs sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_BEYOND`] of `n` samples strictly beyond its rank, capped at
/// `cap`. `None` when even the median leaves fewer.
pub fn supported_tail(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| rank_of(n, p).is_some_and(|rank| n - rank >= TAIL_BEYOND))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_raw_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.5], 99.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_sorts_and_takes_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_sample() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.9), Some(999.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990, leaving exactly 10 beyond.
        assert_eq!(supported_tail(1000, 99.0), Some(99.0));
        // One fewer and p99 leaves 9: fall back to p95.
        assert_eq!(supported_tail(999, 99.0), Some(95.0));
        // 10_000 samples support p99.9 when the cap allows it.
        assert_eq!(supported_tail(10_000, 100.0), Some(99.9));
        assert_eq!(supported_tail(10_000, 99.0), Some(99.0));
        // 200 samples: p95 leaves 10, p99 leaves 2.
        assert_eq!(supported_tail(200, 99.0), Some(95.0));
        // 100 samples: p90 leaves 10.
        assert_eq!(supported_tail(100, 99.0), Some(90.0));
        // 20 samples: only the median leaves 10.
        assert_eq!(supported_tail(20, 99.0), Some(50.0));
        assert_eq!(supported_tail(19, 99.0), None);
        assert_eq!(supported_tail(0, 99.0), None);
    }
}
