//! Load functions: the paper's discrete random model and deterministic
//! variants used for testing, calibration and failure injection.

use crate::splitmix::SplitMix64;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A per-processor external load function `ℓ(k)`.
///
/// Time is divided into consecutive *persistence intervals* of length
/// [`persistence`](LoadFunction::persistence) seconds; during interval `k`
/// the load level is constant at [`level(k)`](LoadFunction::level). A level
/// of `ℓ` means `ℓ` competing external processes, so the application runs at
/// `1/(ℓ+1)` of the processor's unloaded speed (the *slowdown* is `ℓ+1`).
pub trait LoadFunction: Send + Sync {
    /// Load level during the `k`-th duration of persistence.
    fn level(&self, interval: u64) -> u32;

    /// Duration of persistence `t_l` in seconds. Must be positive and finite.
    fn persistence(&self) -> f64;

    /// Maximum level this function can return (`m_l`), used for reporting.
    fn max_level(&self) -> u32;

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
    /// [`slowdown_at`]: LoadFunction::slowdown_at
    /// [`next_change_after`]: LoadFunction::next_change_after
    fn interval_of(&self, t: f64) -> u64 {
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
    fn level_at(&self, t: f64) -> u32 {
        self.level(self.interval_of(t))
    }

    /// Slowdown factor `ℓ(t) + 1` at time `t`.
    fn slowdown_at(&self, t: f64) -> f64 {
        f64::from(self.level_at(t)) + 1.0
    }

    /// Start time of the interval after the one containing `t` — the next
    /// instant the load level may change. Useful for event-driven stepping.
    ///
    /// Guaranteed to return a value strictly greater than `t`:
    /// [`interval_of`](LoadFunction::interval_of) snaps to the boundary
    /// grid, so `(interval+1)·t_l` always lies past `t`; the loop below is
    /// a safety net for exotic overrides.
    fn next_change_after(&self, t: f64) -> f64 {
        let tl = self.persistence();
        let mut k = self.interval_of(t) + 1;
        let mut next = k as f64 * tl;
        while next <= t {
            k += 1;
            next = k as f64 * tl;
        }
        next
    }
}

impl<T: LoadFunction + ?Sized> LoadFunction for Arc<T> {
    fn level(&self, interval: u64) -> u32 {
        (**self).level(interval)
    }
    fn persistence(&self) -> f64 {
        (**self).persistence()
    }
    fn max_level(&self) -> u32 {
        (**self).max_level()
    }
}

/// The paper's discrete random load function (Fig. 2): every `t_l` seconds a
/// new level is drawn uniformly from `0..=m_l`, independently per processor.
///
/// Levels are produced by hashing `(seed, interval)` so queries are O(1),
/// order-independent, and identical across the simulator and the analytic
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiscreteRandomLoad {
    seed: u64,
    max_load: u32,
    persistence: f64,
}

impl DiscreteRandomLoad {
    /// Create a load function with maximum amplitude `max_load` (`m_l`) and
    /// persistence `persistence` seconds (`t_l`).
    ///
    /// # Panics
    /// Panics if `persistence` is not positive and finite.
    pub fn new(seed: u64, max_load: u32, persistence: f64) -> Self {
        assert!(
            persistence > 0.0 && persistence.is_finite(),
            "persistence must be positive and finite, got {persistence}"
        );
        Self {
            seed,
            max_load,
            persistence,
        }
    }

    /// The paper's configuration: `m_l = 5` with the given persistence.
    pub fn paper(seed: u64, persistence: f64) -> Self {
        Self::new(seed, crate::DEFAULT_MAX_LOAD, persistence)
    }

    /// The seed of this stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl LoadFunction for DiscreteRandomLoad {
    fn level(&self, interval: u64) -> u32 {
        if self.max_load == 0 {
            return 0;
        }
        SplitMix64::hash2_below(self.seed, interval, u64::from(self.max_load) + 1) as u32
    }

    fn persistence(&self) -> f64 {
        self.persistence
    }

    fn max_level(&self) -> u32 {
        self.max_load
    }
}

/// A constant external load (e.g. a permanently busy co-tenant).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantLoad {
    level: u32,
    persistence: f64,
}

impl ConstantLoad {
    pub fn new(level: u32) -> Self {
        Self {
            level,
            persistence: 1.0,
        }
    }

    /// Override the (otherwise irrelevant) persistence, which still controls
    /// the granularity of the paper's interval-index effective-load formula.
    pub fn with_persistence(level: u32, persistence: f64) -> Self {
        assert!(persistence > 0.0 && persistence.is_finite());
        Self { level, persistence }
    }
}

impl LoadFunction for ConstantLoad {
    fn level(&self, _interval: u64) -> u32 {
        self.level
    }
    fn persistence(&self) -> f64 {
        self.persistence
    }
    fn max_level(&self) -> u32 {
        self.level
    }
}

/// No external load at all: a dedicated machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZeroLoad;

impl LoadFunction for ZeroLoad {
    fn level(&self, _interval: u64) -> u32 {
        0
    }
    fn persistence(&self) -> f64 {
        1.0
    }
    fn max_level(&self) -> u32 {
        0
    }
}

/// An explicit per-interval trace; indices past the end repeat the last
/// entry (an empty trace means zero load). Deterministic tests are written
/// against this.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLoad {
    levels: Vec<u32>,
    persistence: f64,
}

impl TraceLoad {
    pub fn new(levels: Vec<u32>, persistence: f64) -> Self {
        assert!(persistence > 0.0 && persistence.is_finite());
        Self {
            levels,
            persistence,
        }
    }

    pub fn levels(&self) -> &[u32] {
        &self.levels
    }
}

impl LoadFunction for TraceLoad {
    fn level(&self, interval: u64) -> u32 {
        if self.levels.is_empty() {
            return 0;
        }
        let idx = (interval as usize).min(self.levels.len() - 1);
        self.levels[idx]
    }
    fn persistence(&self) -> f64 {
        self.persistence
    }
    fn max_level(&self) -> u32 {
        self.levels.iter().copied().max().unwrap_or(0)
    }
}

/// Piecewise load: a sequence of `(duration_seconds, level)` phases, then a
/// final steady level. Models "a user logs in for ten minutes then leaves".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasedLoad {
    phases: Vec<(f64, u32)>,
    tail_level: u32,
    persistence: f64,
}

impl PhasedLoad {
    /// `phases` are `(duration, level)` pairs applied in order from t = 0;
    /// after they are exhausted the level stays at `tail_level`.
    /// `persistence` sets the interval granularity for interval queries.
    pub fn new(phases: Vec<(f64, u32)>, tail_level: u32, persistence: f64) -> Self {
        assert!(persistence > 0.0 && persistence.is_finite());
        for &(d, _) in &phases {
            assert!(
                d >= 0.0 && d.is_finite(),
                "phase durations must be non-negative"
            );
        }
        Self {
            phases,
            tail_level,
            persistence,
        }
    }

    fn level_at_time(&self, t: f64) -> u32 {
        let mut acc = 0.0;
        for &(d, level) in &self.phases {
            acc += d;
            if t < acc {
                return level;
            }
        }
        self.tail_level
    }
}

impl LoadFunction for PhasedLoad {
    fn level(&self, interval: u64) -> u32 {
        // Sample at the midpoint of the interval so boundaries are unambiguous.
        let t = (interval as f64 + 0.5) * self.persistence;
        self.level_at_time(t)
    }
    fn persistence(&self) -> f64 {
        self.persistence
    }
    fn max_level(&self) -> u32 {
        self.phases
            .iter()
            .map(|&(_, l)| l)
            .max()
            .unwrap_or(0)
            .max(self.tail_level)
    }
}

/// Serializable description of a load function, for experiment configs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadSpec {
    /// The paper's discrete random load.
    DiscreteRandom {
        seed: u64,
        max_load: u32,
        persistence: f64,
    },
    /// Constant level.
    Constant { level: u32 },
    /// Dedicated machine.
    Zero,
    /// Explicit trace.
    Trace { levels: Vec<u32>, persistence: f64 },
}

impl LoadSpec {
    /// Instantiate the described load function.
    pub fn build(&self) -> Arc<dyn LoadFunction> {
        match self {
            LoadSpec::DiscreteRandom {
                seed,
                max_load,
                persistence,
            } => Arc::new(DiscreteRandomLoad::new(*seed, *max_load, *persistence)),
            LoadSpec::Constant { level } => Arc::new(ConstantLoad::new(*level)),
            LoadSpec::Zero => Arc::new(ZeroLoad),
            LoadSpec::Trace {
                levels,
                persistence,
            } => Arc::new(TraceLoad::new(levels.clone(), *persistence)),
        }
    }

    /// The paper's configuration for processor `i`: an independent stream
    /// derived from a base seed.
    pub fn paper_for_processor(base_seed: u64, processor: usize, persistence: f64) -> Self {
        LoadSpec::DiscreteRandom {
            seed: SplitMix64::hash2(base_seed, processor as u64),
            max_load: crate::DEFAULT_MAX_LOAD,
            persistence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_random_levels_within_amplitude() {
        let f = DiscreteRandomLoad::paper(11, 0.5);
        for k in 0..10_000 {
            assert!(f.level(k) <= 5);
        }
    }

    #[test]
    fn discrete_random_is_order_independent() {
        let f = DiscreteRandomLoad::new(5, 5, 1.0);
        let forward: Vec<u32> = (0..100).map(|k| f.level(k)).collect();
        let backward: Vec<u32> = (0..100).rev().map(|k| f.level(k)).collect();
        let back_fwd: Vec<u32> = backward.into_iter().rev().collect();
        assert_eq!(forward, back_fwd);
    }

    #[test]
    fn discrete_random_visits_all_levels() {
        let f = DiscreteRandomLoad::new(1234, 5, 1.0);
        let mut seen = [false; 6];
        for k in 0..1_000 {
            seen[f.level(k) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "levels seen: {seen:?}");
    }

    #[test]
    fn interval_and_time_queries_agree() {
        let f = DiscreteRandomLoad::new(9, 5, 0.25);
        for k in 0..64u64 {
            let t = k as f64 * 0.25 + 0.1;
            assert_eq!(f.level_at(t), f.level(k));
        }
    }

    #[test]
    fn next_change_after_is_interval_boundary() {
        let f = DiscreteRandomLoad::new(9, 5, 0.5);
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
        let f = DiscreteRandomLoad::new(0, 5, 0.11);
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
        assert_eq!(ZeroLoad.slowdown_at(123.0), 1.0);
    }

    #[test]
    fn constant_load_slowdown() {
        let f = ConstantLoad::new(3);
        assert_eq!(f.slowdown_at(0.0), 4.0);
        assert_eq!(f.level(999), 3);
    }

    #[test]
    fn trace_load_repeats_last_level() {
        let f = TraceLoad::new(vec![1, 2, 3], 1.0);
        assert_eq!(f.level(0), 1);
        assert_eq!(f.level(2), 3);
        assert_eq!(f.level(100), 3);
        assert_eq!(f.max_level(), 3);
    }

    #[test]
    fn empty_trace_is_zero() {
        let f = TraceLoad::new(vec![], 1.0);
        assert_eq!(f.level(0), 0);
        assert_eq!(f.max_level(), 0);
    }

    #[test]
    fn phased_load_switches_phases() {
        let f = PhasedLoad::new(vec![(2.0, 4), (3.0, 1)], 0, 0.5);
        assert_eq!(f.level_at(1.0), 4);
        assert_eq!(f.level_at(3.0), 1);
        assert_eq!(f.level_at(10.0), 0);
        assert_eq!(f.max_level(), 4);
    }

    #[test]
    fn spec_roundtrip_builds_equivalent_function() {
        let spec = LoadSpec::DiscreteRandom {
            seed: 7,
            max_load: 5,
            persistence: 0.5,
        };
        let f = spec.build();
        let direct = DiscreteRandomLoad::new(7, 5, 0.5);
        for k in 0..200 {
            assert_eq!(f.level(k), direct.level(k));
        }
    }

    #[test]
    fn paper_for_processor_gives_distinct_streams() {
        let a = LoadSpec::paper_for_processor(42, 0, 1.0).build();
        let b = LoadSpec::paper_for_processor(42, 1, 1.0).build();
        let differs = (0..100).any(|k| a.level(k) != b.level(k));
        assert!(differs);
    }

    #[test]
    #[should_panic(expected = "persistence")]
    fn zero_persistence_rejected() {
        let _ = DiscreteRandomLoad::new(0, 5, 0.0);
    }
}
