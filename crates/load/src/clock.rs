//! Work/time conversion under a load function.
//!
//! The discrete-event simulator needs two primitives for a processor of
//! relative speed `S` under load function `ℓ`:
//!
//! * **forward**: starting at wall time `t`, how long until `w` seconds of
//!   *base-processor work* complete? (The paper measures work in time on the
//!   base processor: an iteration costs `T_ij` base seconds and executes in
//!   `T_ij · (ℓ+1) / S` wall seconds.)
//! * **inverse**: how much base work completes in a wall-time window?
//!
//! Both walk persistence-interval boundaries, so they are exact for the
//! piecewise-constant load functions in this crate.

use crate::effective::inverse_slowdown_integral;
use crate::func::LoadSpec;

/// A processor's work clock: speed `S` relative to the base processor plus
/// its external load function.
#[derive(Clone)]
pub struct WorkClock {
    load: LoadSpec,
    speed: f64,
}

impl WorkClock {
    /// # Panics
    /// Panics if `speed` is not positive and finite, or if the load's
    /// persistence is not (see [`LoadSpec::validate`]).
    pub fn new(load: LoadSpec, speed: f64) -> Self {
        assert!(
            speed > 0.0 && speed.is_finite(),
            "speed must be positive, got {speed}"
        );
        load.validate();
        Self { load, speed }
    }

    /// Relative speed `S` of this processor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// The load function driving this clock.
    pub fn load(&self) -> &LoadSpec {
        &self.load
    }

    /// Wall-clock instant at which `work` base-seconds of work, started at
    /// `start`, finish. Exact across load-level changes.
    ///
    /// # Panics
    /// Panics if `work` is negative or not finite.
    pub fn finish_time(&self, start: f64, work: f64) -> f64 {
        assert!(
            work >= 0.0 && work.is_finite(),
            "work must be non-negative, got {work}"
        );
        let mut remaining = work / self.speed; // base time on *this* processor
        let mut t = start;
        loop {
            let slow = self.load.slowdown_at(t);
            let boundary = self.load.next_change_after(t);
            let span = boundary - t;
            let doable = span / slow;
            if doable >= remaining {
                return t + remaining * slow;
            }
            remaining -= doable;
            t = boundary;
        }
    }

    /// Base-seconds of work this processor completes during `[t0, t1]`.
    pub fn work_in_window(&self, t0: f64, t1: f64) -> f64 {
        self.speed * inverse_slowdown_integral(&self.load, t0, t1)
    }

    /// Analytic inverse of chaining [`WorkClock::finish_time`] over a run
    /// of iterations: how many whole iterations, started at `start`, have
    /// completed by wall-clock `t`?
    ///
    /// `prefix` holds the exclusive cumulative costs of the run in
    /// base-processor seconds (`prefix[0] = 0`, `prefix[k]` = cost of the
    /// first `k` iterations — e.g. a slice of
    /// `dlb_core::CostIndex::prefix`). The window `[start, t]` is
    /// converted to base work via [`WorkClock::work_in_window`] and the
    /// prefix is binary-searched for the last boundary inside it.
    ///
    /// The conversion integrates per load span instead of replaying the
    /// per-iteration chain, so the count can disagree with the chain by at
    /// most one iteration when `t` lands within float-reassociation
    /// distance of a boundary (property-tested below). Callers that need
    /// the chain's *exact* boundary (the simulator) keep the chained times
    /// from [`ClockCursor`] and use this as a cross-check.
    ///
    /// # Panics
    /// Panics if `t < start` or `prefix` is empty.
    pub fn iters_completed_by(&self, start: f64, t: f64, prefix: &[f64]) -> u64 {
        assert!(t >= start, "window end {t} precedes start {start}");
        assert!(!prefix.is_empty(), "prefix must hold at least the 0 entry");
        let w = self.work_in_window(start, t);
        // First k whose cumulative cost exceeds the window's work; the
        // k − 1 iterations before it completed. prefix[0] = 0 ≤ w always.
        (prefix.partition_point(|&p| p <= w) - 1) as u64
    }
}

/// Sequential evaluator for chained [`WorkClock::finish_time`] calls with
/// non-decreasing start times — the pattern of a simulator executing a run
/// of iterations back to back. Results are **bit-identical** to calling
/// `finish_time` once per step; the win is that the load function is
/// queried once per persistence span instead of once per step.
///
/// Why caching is exact: the load is a [`LoadSpec`], whose time-based
/// queries all come from one implementation, so `slowdown_at(t)` depends
/// only on `interval_of(t) = ⌊t/t_l⌋`, and `next_change_after(t)` returns
/// the first `fl(m·t_l)` strictly greater than `t`. The cursor re-uses a
/// cached `(slowdown, boundary)` pair only when the current time has the
/// same interval index *and* lies strictly below the cached boundary; under
/// those guards (plus monotone starts) both cached values equal what a
/// fresh query would return, including float rounding. Any other time —
/// span crossings, stall displacements past the boundary, ties — falls
/// through to fresh queries.
pub struct ClockCursor<'c> {
    clock: &'c WorkClock,
    /// `persistence()` is constant per load; fetched once.
    tl: f64,
    /// Interval index the cached pair was queried at.
    idx: u64,
    /// Time the cached pair was queried at: reuse requires `t >=
    /// cached_at` (the strictly-greater contract of `next_change_after`
    /// is anchored to the query time).
    cached_at: f64,
    slow: f64,
    boundary: f64,
    valid: bool,
    #[cfg(debug_assertions)]
    last_t: f64,
}

impl<'c> ClockCursor<'c> {
    pub fn new(clock: &'c WorkClock) -> Self {
        Self {
            clock,
            tl: clock.load.persistence(),
            idx: 0,
            cached_at: 0.0,
            slow: 1.0,
            boundary: 0.0,
            valid: false,
            #[cfg(debug_assertions)]
            last_t: f64::NEG_INFINITY,
        }
    }

    /// Same contract and bit-exact result as
    /// [`WorkClock::finish_time(start, work)`](WorkClock::finish_time),
    /// provided `start` is not below any earlier call's `start` on this
    /// cursor.
    ///
    /// # Panics
    /// Panics if `work` is negative or not finite.
    pub fn finish_time(&mut self, start: f64, work: f64) -> f64 {
        assert!(
            work >= 0.0 && work.is_finite(),
            "work must be non-negative, got {work}"
        );
        #[cfg(debug_assertions)]
        {
            debug_assert!(start >= self.last_t, "cursor starts must not rewind");
            self.last_t = start;
        }
        let mut remaining = work / self.clock.speed;
        let mut t = start;
        loop {
            // LoadSpec::interval_of's quotient, before its boundary snap.
            let idx = (t / self.tl).floor() as u64;
            if !(self.valid && idx == self.idx && t >= self.cached_at && t < self.boundary) {
                self.idx = idx;
                self.cached_at = t;
                self.slow = self.clock.load.slowdown_at(t);
                self.boundary = self.clock.load.next_change_after(t);
                self.valid = true;
            }
            let span = self.boundary - t;
            let doable = span / self.slow;
            if doable >= remaining {
                return t + remaining * self.slow;
            }
            remaining -= doable;
            t = self.boundary;
        }
    }

    /// Append the finish times of `n` back-to-back iterations of constant
    /// cost `work`, started at `start`, to `out`. Bit-identical to calling
    /// [`finish_time`](ClockCursor::finish_time) `n` times with the chained
    /// start; the win is that iterations falling inside one persistence
    /// span reduce to a repeated `t + d` with the per-span constant
    /// `d = fl(fl(work/S)·slow)` — exactly the two roundings the general
    /// walker performs — instead of a full cache-guarded call each.
    ///
    /// A span-crossing iteration (the fits-in-span test
    /// `fl(span/slow) ≥ fl(work/S)` fails, evaluated with the same float
    /// ops as the walker) falls back to the general walker, as does any
    /// iteration whose start drifted past the cached boundary.
    ///
    /// # Panics
    /// Panics if `work` is negative or not finite.
    pub fn finish_times_uniform(&mut self, start: f64, work: f64, n: u64, out: &mut Vec<f64>) {
        assert!(
            work >= 0.0 && work.is_finite(),
            "work must be non-negative, got {work}"
        );
        let rem = work / self.clock.speed;
        let mut t = start;
        let mut left = n;
        while left > 0 {
            // Same reuse guard as the general walker; a re-query inside
            // `[fl(k·t_l), boundary)` returns the cached values anyway, so
            // skipping it for fast iterations cannot change results.
            let idx = (t / self.tl).floor() as u64;
            if !(self.valid && idx == self.idx && t >= self.cached_at && t < self.boundary) {
                self.idx = idx;
                self.cached_at = t;
                self.slow = self.clock.load.slowdown_at(t);
                self.boundary = self.clock.load.next_change_after(t);
                self.valid = true;
            }
            let d = rem * self.slow;
            while left > 0 && (self.boundary - t) / self.slow >= rem {
                t += d;
                out.push(t);
                left -= 1;
            }
            #[cfg(debug_assertions)]
            {
                self.last_t = self.last_t.max(t);
            }
            if left > 0 {
                t = self.finish_time(t, work);
                out.push(t);
                left -= 1;
            }
        }
    }
}

impl std::fmt::Debug for ClockCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockCursor")
            .field("tl", &self.tl)
            .field("valid", &self.valid)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for WorkClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkClock")
            .field("speed", &self.speed)
            .finish_non_exhaustive()
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
    fn unloaded_unit_speed_is_identity() {
        let c = WorkClock::new(LoadSpec::Zero, 1.0);
        assert!((c.finish_time(2.0, 3.5) - 5.5).abs() < 1e-12);
        assert!((c.work_in_window(2.0, 5.5) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn speed_scales_time() {
        let c = WorkClock::new(LoadSpec::Zero, 2.0);
        // 4 base-seconds of work at speed 2 -> 2 wall seconds.
        assert!((c.finish_time(0.0, 4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn constant_load_scales_time() {
        let c = WorkClock::new(LoadSpec::Constant { level: 1 }, 1.0); // slowdown 2
        assert!((c.finish_time(0.0, 3.0) - 6.0).abs() < 1e-12);
        assert!((c.work_in_window(0.0, 6.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn finish_time_crosses_load_boundaries() {
        // slowdown 1 for [0,1), then 2 for [1,2), then 1 after.
        let c = WorkClock::new(trace(vec![0, 1, 0], 1.0), 1.0);
        // 1.75 base-seconds: 1.0 done by t=1, 0.5 done during [1,2) (takes
        // 1.0 wall), remaining 0.25 done at full speed -> t = 2.25.
        let t = c.finish_time(0.0, 1.75);
        assert!((t - 2.25).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn finish_and_window_are_inverse() {
        let c = WorkClock::new(random(77, 5, 0.3), 1.7);
        for &(start, work) in &[(0.0, 0.5), (0.2, 3.0), (1.9, 10.0), (5.0, 0.0)] {
            let end = c.finish_time(start, work);
            let back = c.work_in_window(start, end);
            assert!((back - work).abs() < 1e-9, "work {work} -> window {back}");
        }
    }

    #[test]
    fn zero_work_finishes_immediately() {
        let c = WorkClock::new(LoadSpec::Constant { level: 5 }, 1.0);
        assert_eq!(c.finish_time(3.0, 0.0), 3.0);
    }

    #[test]
    fn work_in_window_monotone_in_t1() {
        let c = WorkClock::new(random(3, 5, 0.25), 1.0);
        let mut prev = 0.0;
        for i in 1..40 {
            let w = c.work_in_window(0.0, i as f64 * 0.1);
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn non_positive_speed_rejected() {
        let _ = WorkClock::new(LoadSpec::Zero, 0.0);
    }

    #[test]
    fn bad_persistence_rejected() {
        for tl in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            for load in [random(0, 5, tl), trace(vec![1, 2], tl)] {
                let err = std::panic::catch_unwind(|| WorkClock::new(load.clone(), 1.0))
                    .expect_err(&format!("{load:?} accepted"));
                let msg = err.downcast_ref::<String>().expect("formatted message");
                assert!(msg.contains("persistence"), "{msg}");
            }
        }
    }

    // ------------------------------------------------------------------
    // ClockCursor: bit-identity with per-call finish_time

    #[test]
    fn cursor_matches_finish_time_exactly_across_boundaries() {
        let c = WorkClock::new(trace(vec![0, 3, 1, 5, 0, 2], 0.3), 1.4);
        let works = [0.05, 0.7, 0.001, 0.3, 2.0, 0.0, 0.11];
        let mut cur = ClockCursor::new(&c);
        let mut t_chain = 0.013;
        let mut t_naive = 0.013;
        for &w in &works {
            t_chain = cur.finish_time(t_chain, w);
            t_naive = c.finish_time(t_naive, w);
            assert_eq!(t_chain.to_bits(), t_naive.to_bits(), "work {w}");
        }
    }

    #[test]
    fn uniform_chain_matches_per_call_chain_exactly() {
        let c = WorkClock::new(random(7, 5, 0.17), 1.3);
        for &(start, work, n) in &[(0.0, 0.05, 200u64), (0.4, 0.0, 8), (2.1, 0.73, 50)] {
            let mut fast = Vec::new();
            ClockCursor::new(&c).finish_times_uniform(start, work, n, &mut fast);
            let mut cur = ClockCursor::new(&c);
            let mut t = start;
            let slow: Vec<f64> = (0..n)
                .map(|_| {
                    t = cur.finish_time(t, work);
                    t
                })
                .collect();
            assert_eq!(fast.len(), slow.len());
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "start {start} work {work} iter {i}"
                );
            }
        }
    }

    #[test]
    fn uniform_chain_appends_after_prior_cursor_use() {
        // The engine reuses one cursor for a leading non-uniform prefix
        // and a uniform tail; the fast path must respect the warm cache.
        let c = WorkClock::new(random(21, 5, 0.09), 0.8);
        let mut cur = ClockCursor::new(&c);
        let warm = cur.finish_time(0.05, 0.3);
        let mut fast = Vec::new();
        cur.finish_times_uniform(warm, 0.04, 60, &mut fast);
        let mut t = warm;
        for (i, f) in fast.iter().enumerate() {
            t = c.finish_time(t, 0.04);
            assert_eq!(f.to_bits(), t.to_bits(), "iter {i}");
        }
    }

    #[test]
    fn cursor_exact_after_external_displacement() {
        // A caller (the simulator's stall handling) may displace the next
        // start past the cached boundary; the cursor must re-query.
        let c = WorkClock::new(random(42, 5, 0.5), 1.0);
        let mut cur = ClockCursor::new(&c);
        let a = cur.finish_time(0.1, 0.2);
        assert_eq!(a.to_bits(), c.finish_time(0.1, 0.2).to_bits());
        let displaced = a + 7.3; // jump over many spans
        let b = cur.finish_time(displaced, 0.4);
        assert_eq!(b.to_bits(), c.finish_time(displaced, 0.4).to_bits());
    }

    // ------------------------------------------------------------------
    // iters_completed_by: analytic inverse of the finish_time chain

    /// Exclusive prefix sums of `costs`, left-to-right.
    fn prefix_of(costs: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0];
        let mut acc = 0.0;
        for &c in costs {
            acc += c;
            p.push(acc);
        }
        p
    }

    #[test]
    fn iters_completed_by_inverts_chain_on_trace() {
        let c = WorkClock::new(trace(vec![1, 0, 4, 2], 0.5), 1.0);
        let costs = [0.2, 0.2, 0.2, 0.2, 0.2];
        let prefix = prefix_of(&costs);
        let start = 0.0;
        let mut t = start;
        for (k, &w) in costs.iter().enumerate() {
            t = c.finish_time(t, w);
            let n = c.iters_completed_by(start, t, &prefix);
            // At the k-th chained boundary exactly k+1 iterations are done
            // (±1 at float-reassociation distance of the boundary).
            assert!(
                n.abs_diff(k as u64 + 1) <= 1,
                "boundary {k}: inverse said {n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn iters_completed_by_rejects_inverted_window() {
        let c = WorkClock::new(LoadSpec::Zero, 1.0);
        let _ = c.iters_completed_by(2.0, 1.0, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "work")]
    fn negative_work_rejected() {
        let c = WorkClock::new(LoadSpec::Zero, 1.0);
        let _ = c.finish_time(0.0, -1.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A paper-style random-load clock: persistence spans comparable
        /// to iteration costs, so chains cross many level boundaries.
        fn rand_clock(seed: u64, max: u32, tl: f64, speed: f64) -> WorkClock {
            WorkClock::new(super::random(seed, max, tl), speed)
        }

        proptest! {
            /// iters_completed_by is the inverse of the finish_time chain
            /// to within one iteration, at and between boundaries.
            #[test]
            fn prop_inverse_round_trips_within_one_iteration(
                seed in any::<u64>(),
                max in 0u32..6,
                tl in 0.05f64..2.0,
                speed in 0.5f64..4.0,
                start in 0.0f64..5.0,
                costs in prop::collection::vec(0.01f64..0.1, 1..120),
            ) {
                let c = rand_clock(seed, max, tl, speed);
                let prefix = super::prefix_of(&costs);
                let mut t = start;
                for (k, &w) in costs.iter().enumerate() {
                    let t_prev = t;
                    t = c.finish_time(t, w);
                    let done = k as u64 + 1;
                    let at_boundary = c.iters_completed_by(start, t, &prefix);
                    prop_assert!(
                        at_boundary.abs_diff(done) <= 1,
                        "boundary {k}: inverse {at_boundary} vs chain {done}"
                    );
                    let mid = 0.5 * (t_prev + t);
                    let at_mid = c.iters_completed_by(start, mid, &prefix);
                    // Mid-iteration: the k finished iterations, within one.
                    prop_assert!(
                        at_mid.abs_diff(k as u64) <= 1,
                        "mid {k}: inverse {at_mid}"
                    );
                }
            }

            /// The inverse count never decreases as the window grows.
            #[test]
            fn prop_inverse_monotone_in_t(
                seed in any::<u64>(),
                max in 0u32..6,
                tl in 0.05f64..2.0,
                speed in 0.5f64..4.0,
                start in 0.0f64..5.0,
                costs in prop::collection::vec(0.01f64..0.1, 1..60),
                steps in 2usize..40,
            ) {
                let c = rand_clock(seed, max, tl, speed);
                let prefix = super::prefix_of(&costs);
                let horizon = c.finish_time(start, *prefix.last().unwrap());
                let mut prev = 0;
                for s in 0..=steps {
                    let t = start + (horizon - start) * s as f64 / steps as f64;
                    let n = c.iters_completed_by(start, t, &prefix);
                    prop_assert!(n >= prev, "count regressed: {n} < {prev}");
                    prev = n;
                }
                // The full window completes the full run (within one).
                prop_assert!(prev.abs_diff(costs.len() as u64) <= 1);
            }

            /// The uniform-cost batch chain is bit-identical to repeated
            /// finish_time calls across load-level boundaries.
            #[test]
            fn prop_uniform_chain_bit_identical(
                seed in any::<u64>(),
                max in 0u32..6,
                tl in 0.05f64..2.0,
                speed in 0.5f64..4.0,
                start in 0.0f64..5.0,
                work in 0.0f64..0.5,
                n in 1u64..200,
            ) {
                let c = rand_clock(seed, max, tl, speed);
                let mut fast = Vec::new();
                ClockCursor::new(&c).finish_times_uniform(start, work, n, &mut fast);
                prop_assert_eq!(fast.len() as u64, n);
                let mut t = start;
                for (i, f) in fast.iter().enumerate() {
                    t = c.finish_time(t, work);
                    prop_assert_eq!(f.to_bits(), t.to_bits(), "iter {}", i);
                }
            }

            /// ClockCursor is bit-identical to per-call finish_time over
            /// arbitrary chains crossing load-level boundaries.
            #[test]
            fn prop_cursor_bit_identical_to_finish_time(
                seed in any::<u64>(),
                max in 0u32..6,
                tl in 0.05f64..2.0,
                speed in 0.5f64..4.0,
                start in 0.0f64..5.0,
                costs in prop::collection::vec(0.0f64..0.5, 1..120),
            ) {
                let c = rand_clock(seed, max, tl, speed);
                let mut cur = ClockCursor::new(&c);
                let mut t_chain = start;
                let mut t_naive = start;
                for &w in &costs {
                    t_chain = cur.finish_time(t_chain, w);
                    t_naive = c.finish_time(t_naive, w);
                    prop_assert_eq!(
                        t_chain.to_bits(),
                        t_naive.to_bits(),
                        "cursor diverged at work {}",
                        w
                    );
                }
            }
        }
    }
}
