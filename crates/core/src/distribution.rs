//! Iteration distributions (the `α_i(j)` of the model).
//!
//! A [`Distribution`] records how many loop iterations each processor owns.
//! The compiler initially distributes iterations equally (Section 3.5,
//! "for all the strategies, the compiler initially distributes the
//! iterations of the loop equally among all the processors"); every
//! synchronization computes a new distribution proportional to measured
//! effective speeds. Integer apportionment uses the largest-remainder
//! method so the total is always preserved exactly.

use serde::{Deserialize, Serialize};

/// Per-processor iteration counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Distribution {
    counts: Vec<u64>,
}

impl Distribution {
    /// Build from explicit counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(
            !counts.is_empty(),
            "a distribution needs at least one processor"
        );
        Self { counts }
    }

    /// The compiler's initial equal-block split of `total` iterations over
    /// `p` processors; earlier processors receive the remainder (block
    /// sizes differ by at most one).
    pub fn equal_block(total: u64, p: usize) -> Self {
        assert!(p > 0, "a distribution needs at least one processor");
        let base = total / p as u64;
        let extra = (total % p as u64) as usize;
        let counts = (0..p).map(|i| base + u64::from(i < extra)).collect();
        Self { counts }
    }

    /// Apportion `total` iterations proportionally to non-negative
    /// `weights` (largest-remainder / Hamilton method). If all weights are
    /// zero, falls back to an equal split.
    ///
    /// # Panics
    /// Panics if `weights` is empty or contains negatives/NaN.
    pub fn proportional(total: u64, weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weights must be non-negative, got {w}"
            );
        }
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Self::equal_block(total, weights.len());
        }
        let mut counts = vec![0u64; weights.len()];
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
        let mut assigned = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            let quota = total as f64 * w / sum;
            let floor = quota.floor() as u64;
            counts[i] = floor;
            assigned += floor;
            fracs.push((i, quota - floor as f64));
        }
        let mut leftover = total - assigned;
        // Largest fractional part first; ties broken by processor id for
        // determinism.
        fracs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (i, _) in fracs {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        Self { counts }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True iff there are no processors (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Count for processor `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total iterations (`Γ`).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Work moved between `self` (old, the `β_i`) and `new` (the `α_i`):
    /// `δ = ½ Σ |α_i − β_i|` (Section 4.2, "Amount of work moved").
    pub fn work_moved(&self, new: &Distribution) -> u64 {
        assert_eq!(
            self.len(),
            new.len(),
            "distributions must cover the same processors"
        );
        let diff: u64 = self
            .counts
            .iter()
            .zip(&new.counts)
            .map(|(&b, &a)| a.abs_diff(b))
            .sum();
        debug_assert!(diff.is_multiple_of(2), "total must be conserved");
        diff / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_block_exact_division() {
        let d = Distribution::equal_block(400, 4);
        assert_eq!(d.counts(), &[100, 100, 100, 100]);
        assert_eq!(d.total(), 400);
    }

    #[test]
    fn equal_block_remainder_goes_first() {
        let d = Distribution::equal_block(10, 4);
        assert_eq!(d.counts(), &[3, 3, 2, 2]);
        assert_eq!(d.total(), 10);
    }

    #[test]
    fn equal_block_fewer_iterations_than_processors() {
        let d = Distribution::equal_block(2, 5);
        assert_eq!(d.counts(), &[1, 1, 0, 0, 0]);
    }

    #[test]
    fn proportional_preserves_total() {
        let d = Distribution::proportional(1001, &[1.0, 2.0, 3.0, 0.5]);
        assert_eq!(d.total(), 1001);
    }

    #[test]
    fn proportional_matches_exact_ratios() {
        let d = Distribution::proportional(600, &[1.0, 2.0, 3.0]);
        assert_eq!(d.counts(), &[100, 200, 300]);
    }

    #[test]
    fn proportional_zero_weight_gets_zero() {
        let d = Distribution::proportional(100, &[0.0, 1.0]);
        assert_eq!(d.counts(), &[0, 100]);
    }

    #[test]
    fn proportional_all_zero_weights_falls_back_to_equal() {
        let d = Distribution::proportional(8, &[0.0, 0.0]);
        assert_eq!(d.counts(), &[4, 4]);
    }

    #[test]
    fn largest_remainder_favours_biggest_fraction() {
        // quotas: 3.75, 1.25 -> floors 3,1, leftover 1 -> goes to index 0.
        let d = Distribution::proportional(5, &[3.0, 1.0]);
        assert_eq!(d.counts(), &[4, 1]);
    }

    #[test]
    fn work_moved_half_sum_of_diffs() {
        let old = Distribution::from_counts(vec![10, 10, 10, 10]);
        let new = Distribution::from_counts(vec![4, 16, 8, 12]);
        assert_eq!(old.work_moved(&new), 8);
    }

    #[test]
    fn work_moved_zero_when_unchanged() {
        let d = Distribution::from_counts(vec![5, 7]);
        assert_eq!(d.work_moved(&d.clone()), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_counts_rejected() {
        let _ = Distribution::from_counts(vec![]);
    }
}
