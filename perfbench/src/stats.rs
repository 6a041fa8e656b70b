//! Order statistics for the reported timings.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Percentiles the tail rule may pick, lowest first. The ladder stops at
/// p99: beyond it a run's tail is set by host scheduling hiccups rather
/// than by the program.
pub const TAIL_LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// A tail latency: the highest percentile of [`TAIL_LADDER`] that still
/// has at least [`TAIL_MIN_BEYOND`] samples strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples ranked above the percentile's nearest-rank sample.
    pub beyond: usize,
    pub samples: usize,
}

pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of `v` by the sample-count rule, using nearest-rank
/// percentiles (rank `ceil(q·n)`). `None` when even p50 has fewer than
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    TAIL_LADDER.iter().rev().find_map(|&q| {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        let beyond = n.checked_sub(rank)?;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: q,
            value: s[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 would leave only 9 beyond, so p90 it is.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 99));
        // 100 samples: p90 has exactly 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 10));
        // 99 samples: p90 leaves 9, p50 leaves 49.
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.percentile, t.beyond), (50.0, 49));
        // Too few samples for any percentile.
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50.0);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v = ramp(2000);
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 1980.0);
    }
}
