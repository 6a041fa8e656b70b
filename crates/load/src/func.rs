//! The load function: the paper's discrete random model and the
//! deterministic variants used for tests, calibration and drift cells.

use crate::splitmix::SplitMix64;
use serde::{Deserialize, Serialize};

/// A per-processor external load function `ℓ(k)`, in the serializable
/// form every experiment config and memo key carries.
///
/// Time is divided into consecutive *persistence intervals* of length
/// [`persistence`](LoadSpec::persistence) seconds; during interval `k`
/// the load level is constant at [`level(k)`](LoadSpec::level). A level
/// of `ℓ` means `ℓ` competing external processes, so the application runs
/// at `1/(ℓ+1)` of the processor's unloaded speed (the *slowdown* is
/// `ℓ+1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadSpec {
    /// The paper's discrete random load (Fig. 2): every `persistence`
    /// seconds a new level is drawn uniformly from `0..=max_load`,
    /// independently per processor. Levels hash `(seed, interval)`, so
    /// queries are O(1), order-independent, and identical across the
    /// simulator and the analytic model.
    DiscreteRandom {
        seed: u64,
        max_load: u32,
        persistence: f64,
    },
    /// Constant level (e.g. a permanently busy co-tenant), persistence
    /// 1 s.
    Constant { level: u32 },
    /// Dedicated machine: no external load, persistence 1 s.
    Zero,
    /// Explicit per-interval trace. Intervals past the end repeat the
    /// last level; an empty trace is zero load.
    Trace { levels: Vec<u32>, persistence: f64 },
}

impl LoadSpec {
    /// The paper's configuration for processor `i`: an independent stream
    /// derived from a base seed.
    pub fn paper_for_processor(base_seed: u64, processor: usize, persistence: f64) -> Self {
        LoadSpec::DiscreteRandom {
            seed: SplitMix64::hash2(base_seed, processor as u64),
            max_load: crate::DEFAULT_MAX_LOAD,
            persistence,
        }
    }

    /// Check that the persistence is positive and finite.
    ///
    /// # Panics
    /// Panics, naming the persistence, if it is not.
    pub fn validate(&self) {
        let tl = self.persistence();
        assert!(
            tl > 0.0 && tl.is_finite(),
            "persistence must be positive and finite, got {tl}"
        );
    }

    /// Load level during the `k`-th duration of persistence.
    pub fn level(&self, interval: u64) -> u32 {
        match self {
            LoadSpec::DiscreteRandom { max_load: 0, .. } | LoadSpec::Zero => 0,
            LoadSpec::DiscreteRandom { seed, max_load, .. } => {
                SplitMix64::hash2_below(*seed, interval, u64::from(*max_load) + 1) as u32
            }
            LoadSpec::Constant { level } => *level,
            LoadSpec::Trace { levels, .. } => match levels.last() {
                Some(&last) => levels.get(interval as usize).copied().unwrap_or(last),
                None => 0,
            },
        }
    }

    /// Duration of persistence `t_l` in seconds.
    pub fn persistence(&self) -> f64 {
        match self {
            LoadSpec::DiscreteRandom { persistence, .. } | LoadSpec::Trace { persistence, .. } => {
                *persistence
            }
            LoadSpec::Constant { .. } | LoadSpec::Zero => 1.0,
        }
    }

    /// Maximum level this function can return (`m_l`), used for reporting.
    pub fn max_level(&self) -> u32 {
        match self {
            LoadSpec::DiscreteRandom { max_load, .. } => *max_load,
            LoadSpec::Constant { level } => *level,
            LoadSpec::Zero => 0,
            LoadSpec::Trace { levels, .. } => levels.iter().copied().max().unwrap_or(0),
        }
    }

    /// The persistence interval containing time `t` (seconds, `t >= 0`).
    ///
    /// Intervals are delimited by the *floating-point* boundary grid
    /// `fl(m·t_l)`: interval `m` is `[fl(m·t_l), fl((m+1)·t_l))`. The naive
    /// `⌊t/t_l⌋` can land one interval off when `t` sits exactly on a
    /// boundary whose product rounded the other way (e.g. `t = fl(46·0.11)`
    /// has `t/0.11 < 46`), which would make [`slowdown_at`] disagree with
    /// the span geometry of [`next_change_after`] — and work/time
    /// conversions that walk boundaries would stop being inverses of each
    /// other. The quotient is therefore snapped to the boundary grid.
    ///
    /// [`slowdown_at`]: LoadSpec::slowdown_at
    /// [`next_change_after`]: LoadSpec::next_change_after
    pub fn interval_of(&self, t: f64) -> u64 {
        debug_assert!(t >= 0.0 && t.is_finite());
        let tl = self.persistence();
        let mut k = (t / tl).floor() as u64;
        // The quotient is within an ulp of the true index, so each loop
        // runs at most once or twice.
        while (k + 1) as f64 * tl <= t {
            k += 1;
        }
        while k > 0 && k as f64 * tl > t {
            k -= 1;
        }
        k
    }

    /// Load level at time `t`.
    pub fn level_at(&self, t: f64) -> u32 {
        self.level(self.interval_of(t))
    }

    /// Slowdown factor `ℓ(t) + 1` at time `t`.
    pub fn slowdown_at(&self, t: f64) -> f64 {
        f64::from(self.level_at(t)) + 1.0
    }

    /// Start time of the interval after the one containing `t` — the next
    /// instant the load level may change. Useful for event-driven stepping.
    ///
    /// Always strictly greater than `t`: [`interval_of`] leaves its first
    /// loop only once `fl((k+1)·t_l) > t`, and its second loop keeps that
    /// bound while it lowers `k`.
    ///
    /// [`interval_of`]: LoadSpec::interval_of
    pub fn next_change_after(&self, t: f64) -> f64 {
        (self.interval_of(t) + 1) as f64 * self.persistence()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random(seed: u64, max_load: u32, persistence: f64) -> LoadSpec {
        LoadSpec::DiscreteRandom {
            seed,
            max_load,
            persistence,
        }
    }

    fn trace(levels: Vec<u32>, persistence: f64) -> LoadSpec {
        LoadSpec::Trace {
            levels,
            persistence,
        }
    }

    #[test]
    fn discrete_random_levels_within_amplitude() {
        let f = random(11, crate::DEFAULT_MAX_LOAD, 0.5);
        for k in 0..10_000 {
            assert!(f.level(k) <= 5);
        }
    }

    #[test]
    fn discrete_random_is_order_independent() {
        let f = random(5, 5, 1.0);
        let forward: Vec<u32> = (0..100).map(|k| f.level(k)).collect();
        let backward: Vec<u32> = (0..100).rev().map(|k| f.level(k)).collect();
        let back_fwd: Vec<u32> = backward.into_iter().rev().collect();
        assert_eq!(forward, back_fwd);
    }

    #[test]
    fn discrete_random_visits_all_levels() {
        let f = random(1234, 5, 1.0);
        let mut seen = [false; 6];
        for k in 0..1_000 {
            seen[f.level(k) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "levels seen: {seen:?}");
    }

    #[test]
    fn interval_and_time_queries_agree() {
        let f = random(9, 5, 0.25);
        for k in 0..64u64 {
            let t = k as f64 * 0.25 + 0.1;
            assert_eq!(f.level_at(t), f.level(k));
        }
    }

    #[test]
    fn next_change_after_is_interval_boundary() {
        let f = random(9, 5, 0.5);
        assert_eq!(f.next_change_after(0.0), 0.5);
        assert_eq!(f.next_change_after(0.49), 0.5);
        assert_eq!(f.next_change_after(0.5), 1.0);
        assert_eq!(f.next_change_after(1.74), 2.0);
    }

    #[test]
    fn interval_of_is_consistent_on_float_boundaries() {
        // tl = 0.11 is not representable; fl(46·0.11)/0.11 floors to 45,
        // so the naive quotient would charge the span starting at that
        // boundary to the *previous* interval while next_change_after
        // treats it as interval 46's start. interval_of must agree with
        // the boundary grid.
        let f = random(0, 5, 0.11);
        for m in 1..2_000u64 {
            let b = m as f64 * 0.11;
            assert_eq!(f.interval_of(b), m, "boundary {m}");
            let next = f.next_change_after(b);
            assert_eq!(next, (m + 1) as f64 * 0.11, "next after boundary {m}");
            // Every point of the span [b, next) maps to interval m.
            let mid = b + (next - b) * 0.5;
            assert_eq!(f.interval_of(mid), m, "mid-span {m}");
        }
    }

    #[test]
    fn zero_load_has_unit_slowdown() {
        assert_eq!(LoadSpec::Zero.slowdown_at(123.0), 1.0);
        assert_eq!(LoadSpec::Zero.persistence(), 1.0);
    }

    #[test]
    fn constant_load_slowdown() {
        let f = LoadSpec::Constant { level: 3 };
        assert_eq!(f.slowdown_at(0.0), 4.0);
        assert_eq!(f.level(999), 3);
        assert_eq!(f.persistence(), 1.0);
    }

    #[test]
    fn trace_load_repeats_last_level() {
        let f = trace(vec![1, 2, 3], 1.0);
        assert_eq!(f.level(0), 1);
        assert_eq!(f.level(2), 3);
        assert_eq!(f.level(100), 3);
        assert_eq!(f.max_level(), 3);
    }

    #[test]
    fn empty_trace_is_zero() {
        let f = trace(vec![], 1.0);
        assert_eq!(f.level(0), 0);
        assert_eq!(f.max_level(), 0);
    }

    #[test]
    fn paper_for_processor_gives_distinct_streams() {
        let a = LoadSpec::paper_for_processor(42, 0, 1.0);
        let b = LoadSpec::paper_for_processor(42, 1, 1.0);
        let differs = (0..100).any(|k| a.level(k) != b.level(k));
        assert!(differs);
    }
}
