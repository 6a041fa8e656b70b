//! Prefix-sum cost index: O(1) `range_cost` for non-uniform loops.
//!
//! The default [`LoopWorkload::range_cost`] sums `iter_cost` over the
//! range — O(n) per query, and for TRFD's bitonic-folded second loop each
//! `iter_cost` call itself evaluates a square root. The analytic model
//! queries range costs once per processor per strategy per replica, so a
//! sweep pays that O(n) thousands of times over.
//!
//! [`CostIndex`] evaluates every iteration cost **once**, stores the
//! per-iteration costs and their exclusive prefix sums, and answers
//!
//! * `iter_cost(i)` — one array load (no closure re-evaluation);
//! * `range_cost(a, b) = prefix[b] − prefix[a]` — O(1).
//!
//! # Invariants
//!
//! * `prefix.len() == costs.len() + 1`, `prefix[0] == 0`;
//! * `prefix[i+1] == prefix[i] + costs[i]` (built by left-to-right
//!   accumulation, so `range_cost(0, n)` is **bit-identical** to the
//!   naive left-to-right sum — total-work quantities like
//!   `persistence_for` are unchanged by indexing);
//! * interior differences agree with the naive sum up to floating-point
//!   reassociation only: `|indexed − naive| ≤ ~n·ε·total`, verified by
//!   property test below.
//!
//! [`IndexedLoop`] wraps any workload with its index and implements
//! [`LoopWorkload`] itself, so the simulator, the model and the bench
//! harness all profit without signature changes. Uniform loops don't
//! need it — [`crate::UniformLoop::range_cost`] is already O(1).

use crate::work::LoopWorkload;
use std::ops::Deref;

/// Precomputed per-iteration costs and their prefix sums.
#[derive(Debug, Clone, PartialEq)]
pub struct CostIndex {
    /// `costs[i]` = cost of iteration `i` in base-processor seconds.
    costs: Vec<f64>,
    /// Exclusive prefix sums: `prefix[i]` = Σ `costs[..i]`.
    prefix: Vec<f64>,
}

impl CostIndex {
    /// Evaluate and index every iteration of `workload`.
    ///
    /// # Panics
    /// Panics if any iteration cost is non-positive or non-finite (the
    /// [`LoopWorkload`] contract).
    pub fn build(workload: &dyn LoopWorkload) -> Self {
        let n = workload.iterations();
        let mut costs = Vec::with_capacity(n as usize);
        let mut prefix = Vec::with_capacity(n as usize + 1);
        let mut acc = 0.0f64;
        prefix.push(0.0);
        for i in 0..n {
            let c = workload.iter_cost(i);
            assert!(
                c > 0.0 && c.is_finite(),
                "iteration {i} has invalid cost {c}"
            );
            costs.push(c);
            acc += c;
            prefix.push(acc);
        }
        Self { costs, prefix }
    }

    /// Number of indexed iterations.
    pub fn iterations(&self) -> u64 {
        self.costs.len() as u64
    }

    /// Cost of iteration `i` (cached; no closure re-evaluation).
    pub fn iter_cost(&self, i: u64) -> f64 {
        self.costs[i as usize]
    }

    /// Total cost of `start..end` in O(1).
    ///
    /// # Panics
    /// Panics if `start > end` or `end > iterations()`.
    pub fn range_cost(&self, start: u64, end: u64) -> f64 {
        assert!(start <= end, "inverted range {start}..{end}");
        self.prefix[end as usize] - self.prefix[start as usize]
    }

    /// Total cost of the whole loop — bit-identical to the naive
    /// left-to-right sum (see module invariants).
    pub fn total(&self) -> f64 {
        *self.prefix.last().expect("prefix is never empty")
    }
}

/// A workload plus its [`CostIndex`]: same iteration semantics, O(1)
/// `range_cost`, cached `iter_cost`.
///
/// Derefs to the wrapped workload so inherent methods (e.g.
/// [`crate::FoldedLoop::constituents`]) stay reachable.
#[derive(Debug, Clone)]
pub struct IndexedLoop<W> {
    inner: W,
    index: CostIndex,
}

impl<W: LoopWorkload> IndexedLoop<W> {
    /// Index `inner`, evaluating each of its iteration costs once.
    pub fn new(inner: W) -> Self {
        let index = CostIndex::build(&inner);
        Self { inner, index }
    }

    /// The wrapped workload.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// The index itself.
    pub fn index(&self) -> &CostIndex {
        &self.index
    }
}

impl<W> Deref for IndexedLoop<W> {
    type Target = W;
    fn deref(&self) -> &W {
        &self.inner
    }
}

impl<W: LoopWorkload> LoopWorkload for IndexedLoop<W> {
    fn iterations(&self) -> u64 {
        self.index.iterations()
    }
    fn iter_cost(&self, iter: u64) -> f64 {
        self.index.iter_cost(iter)
    }
    fn bytes_per_iter(&self) -> u64 {
        self.inner.bytes_per_iter()
    }
    fn range_cost(&self, start: u64, end: u64) -> f64 {
        self.index.range_cost(start, end)
    }
    fn is_uniform(&self) -> bool {
        self.inner.is_uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{CostFnLoop, FoldedLoop, UniformLoop};
    use proptest::prelude::*;

    /// Naive reference: the trait's default O(n) sum.
    fn naive(w: &dyn LoopWorkload, a: u64, b: u64) -> f64 {
        (a..b).map(|i| w.iter_cost(i)).sum()
    }

    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
    }

    #[test]
    fn index_matches_naive_on_triangular() {
        let tri = CostFnLoop::new(100, 8, |i| (i + 1) as f64);
        let ix = CostIndex::build(&tri);
        for (a, b) in [(0, 100), (0, 1), (37, 63), (99, 100), (50, 50)] {
            assert!(
                close(ix.range_cost(a, b), naive(&tri, a, b)),
                "range {a}..{b}"
            );
        }
        assert_eq!(ix.range_cost(0, 100), naive(&tri, 0, 100), "full range");
    }

    #[test]
    fn full_range_is_bit_identical_to_naive_sum() {
        // The accumulation order of `prefix` equals the naive sum's, so
        // total-work quantities are unchanged by indexing — exactly, not
        // approximately.
        let wl = CostFnLoop::new(500, 8, |i| ((i * 37 + 11) % 101 + 1) as f64 * 1e-3);
        let ix = CostIndex::build(&wl);
        assert_eq!(ix.total(), naive(&wl, 0, 500));
        assert_eq!(ix.range_cost(0, 500), naive(&wl, 0, 500));
    }

    #[test]
    fn indexed_loop_preserves_workload_surface() {
        let folded = FoldedLoop::new(CostFnLoop::new(11, 4, |i| (11 - i) as f64));
        let wl = IndexedLoop::new(folded.clone());
        assert_eq!(wl.iterations(), folded.iterations());
        assert_eq!(wl.bytes_per_iter(), folded.bytes_per_iter());
        assert_eq!(wl.is_uniform(), folded.is_uniform());
        for k in 0..wl.iterations() {
            assert_eq!(wl.iter_cost(k), folded.iter_cost(k), "iter {k}");
        }
        // Deref keeps FoldedLoop's inherent methods reachable.
        assert_eq!(wl.constituents(0), (0, 10));
    }

    #[test]
    fn uniform_loop_indexes_exactly() {
        let u = UniformLoop::new(64, 0.25, 8);
        let ix = CostIndex::build(&u);
        // Powers of two sum without rounding: every subrange exact.
        for (a, b) in [(0, 64), (5, 9), (0, 0), (63, 64)] {
            assert_eq!(ix.range_cost(a, b), (b - a) as f64 * 0.25);
        }
    }

    #[test]
    #[should_panic(expected = "inverted range")]
    fn inverted_range_rejected() {
        let ix = CostIndex::build(&UniformLoop::new(4, 1.0, 0));
        let _ = ix.range_cost(3, 1);
    }

    proptest! {
        #[test]
        fn prop_index_matches_naive_random_ranges(
            n in 1u64..300,
            lo in 0u64..300,
            hi in 0u64..300,
            shape in 0u32..3,
        ) {
            let wl: Box<dyn LoopWorkload> = match shape {
                0 => Box::new(UniformLoop::new(n, 0.013, 64)),
                1 => Box::new(CostFnLoop::new(n, 64, |i| (i + 1) as f64 * 1e-3)),
                _ => Box::new(FoldedLoop::new(CostFnLoop::new(
                    n, 64, move |i| (n - i) as f64 * 1e-3,
                ))),
            };
            let iters = wl.iterations();
            let (mut a, mut b) = (lo % (iters + 1), hi % (iters + 1));
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            let ix = CostIndex::build(&*wl);
            prop_assert_eq!(ix.iterations(), iters);
            let fast = ix.range_cost(a, b);
            let slow = naive(&*wl, a, b);
            prop_assert!(
                close(fast, slow),
                "shape {} n {} range {}..{}: {} vs {}",
                shape, n, a, b, fast, slow
            );
        }
    }
}
