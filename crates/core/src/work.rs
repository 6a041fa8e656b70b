//! Loop workload descriptions — the program parameters of the model
//! (Section 4.1: number of iterations `I_i`, work per iteration `W_ij`,
//! time per iteration `T_ij`).
//!
//! A [`LoopWorkload`] tells the runtimes how expensive each iteration of a
//! balanced loop is *on the base processor* and how many array bytes travel
//! with a moved iteration. Applications (crate `dlb-apps`) implement this
//! for MXM and TRFD; [`UniformLoop`] and [`CostFnLoop`] cover the common
//! shapes directly.

use std::sync::Arc;

/// A parallel loop to be load balanced.
pub trait LoopWorkload: Send + Sync {
    /// Total number of iterations (`I`).
    fn iterations(&self) -> u64;

    /// Cost of iteration `iter` in *base-processor seconds* (`T_ij`). Must
    /// be positive for `iter < iterations()`.
    fn iter_cost(&self, iter: u64) -> f64;

    /// Array bytes shipped per moved iteration (`Σ_a DC_a` in bytes).
    fn bytes_per_iter(&self) -> u64;

    /// Total base-processor work of an iteration range (default: O(n)
    /// left-to-right sum; wrap non-uniform loops in
    /// [`crate::IndexedLoop`] for an O(1) prefix-sum answer).
    fn range_cost(&self, start: u64, end: u64) -> f64 {
        (start..end).map(|i| self.iter_cost(i)).sum()
    }

    /// Whether every iteration costs the same (lets runtimes and the model
    /// use the cheaper uniform-loop recurrences).
    fn is_uniform(&self) -> bool {
        false
    }
}

impl<T: LoopWorkload + ?Sized> LoopWorkload for &T {
    fn iterations(&self) -> u64 {
        (**self).iterations()
    }
    fn iter_cost(&self, iter: u64) -> f64 {
        (**self).iter_cost(iter)
    }
    fn bytes_per_iter(&self) -> u64 {
        (**self).bytes_per_iter()
    }
    fn range_cost(&self, start: u64, end: u64) -> f64 {
        (**self).range_cost(start, end)
    }
    fn is_uniform(&self) -> bool {
        (**self).is_uniform()
    }
}

impl<T: LoopWorkload + ?Sized> LoopWorkload for Arc<T> {
    fn iterations(&self) -> u64 {
        (**self).iterations()
    }
    fn iter_cost(&self, iter: u64) -> f64 {
        (**self).iter_cost(iter)
    }
    fn bytes_per_iter(&self) -> u64 {
        (**self).bytes_per_iter()
    }
    fn range_cost(&self, start: u64, end: u64) -> f64 {
        (**self).range_cost(start, end)
    }
    fn is_uniform(&self) -> bool {
        (**self).is_uniform()
    }
}

/// A uniform loop: every iteration costs `iter_cost` base seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformLoop {
    iterations: u64,
    iter_cost: f64,
    bytes_per_iter: u64,
}

impl UniformLoop {
    /// # Panics
    /// Panics if `iter_cost` is not positive and finite.
    pub fn new(iterations: u64, iter_cost: f64, bytes_per_iter: u64) -> Self {
        assert!(
            iter_cost > 0.0 && iter_cost.is_finite(),
            "iteration cost must be positive"
        );
        Self {
            iterations,
            iter_cost,
            bytes_per_iter,
        }
    }
}

impl LoopWorkload for UniformLoop {
    fn iterations(&self) -> u64 {
        self.iterations
    }
    fn iter_cost(&self, _iter: u64) -> f64 {
        self.iter_cost
    }
    fn bytes_per_iter(&self) -> u64 {
        self.bytes_per_iter
    }
    fn range_cost(&self, start: u64, end: u64) -> f64 {
        (end - start) as f64 * self.iter_cost
    }
    fn is_uniform(&self) -> bool {
        true
    }
}

/// A non-uniform loop whose per-iteration cost is given by a closure
/// (e.g. TRFD's triangular second loop before bitonic folding).
#[derive(Clone)]
pub struct CostFnLoop {
    iterations: u64,
    cost: Arc<dyn Fn(u64) -> f64 + Send + Sync>,
    bytes_per_iter: u64,
}

impl CostFnLoop {
    pub fn new(
        iterations: u64,
        bytes_per_iter: u64,
        cost: impl Fn(u64) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            iterations,
            cost: Arc::new(cost),
            bytes_per_iter,
        }
    }
}

impl LoopWorkload for CostFnLoop {
    fn iterations(&self) -> u64 {
        self.iterations
    }
    fn iter_cost(&self, iter: u64) -> f64 {
        (self.cost)(iter)
    }
    fn bytes_per_iter(&self) -> u64 {
        self.bytes_per_iter
    }
}

/// Bitonic folding of a triangular loop (\[4\] in the paper, used by TRFD's
/// second loop nest): iteration `i` is combined with iteration `n-1-i`
/// into one, so a linearly decreasing cost profile becomes (near-)uniform.
/// For an odd iteration count the middle iteration stands alone.
///
/// Moved iterations now carry both constituents' data, so
/// `bytes_per_iter` doubles.
#[derive(Clone)]
pub struct FoldedLoop<W> {
    inner: W,
}

impl<W: LoopWorkload> FoldedLoop<W> {
    pub fn new(inner: W) -> Self {
        Self { inner }
    }

    /// The unfolded loop.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    /// The two original iterations folded into iteration `k` (equal for
    /// the odd middle).
    pub fn constituents(&self, k: u64) -> (u64, u64) {
        let n = self.inner.iterations();
        (k, n - 1 - k)
    }
}

impl<W: LoopWorkload> LoopWorkload for FoldedLoop<W> {
    fn iterations(&self) -> u64 {
        self.inner.iterations().div_ceil(2)
    }

    fn iter_cost(&self, iter: u64) -> f64 {
        let (a, b) = self.constituents(iter);
        if a == b {
            self.inner.iter_cost(a)
        } else {
            self.inner.iter_cost(a) + self.inner.iter_cost(b)
        }
    }

    fn bytes_per_iter(&self) -> u64 {
        2 * self.inner.bytes_per_iter()
    }
}

impl<W: std::fmt::Debug> std::fmt::Debug for FoldedLoop<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoldedLoop")
            .field("inner", &self.inner)
            .finish()
    }
}

impl std::fmt::Debug for CostFnLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostFnLoop")
            .field("iterations", &self.iterations)
            .field("bytes_per_iter", &self.bytes_per_iter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_loop_costs() {
        let l = UniformLoop::new(100, 0.5, 64);
        assert_eq!(l.iterations(), 100);
        assert!((l.iter_cost(7) - 0.5).abs() < 1e-12);
        assert!((l.range_cost(10, 20) - 5.0).abs() < 1e-12);
        assert!(l.is_uniform());
    }

    #[test]
    fn costfn_loop_triangular() {
        let l = CostFnLoop::new(10, 8, |i| (i + 1) as f64);
        assert!(!l.is_uniform());
        assert!((l.iter_cost(4) - 5.0).abs() < 1e-12);
        // Σ 1..=10 = 55
        assert!((l.range_cost(0, 10) - 55.0).abs() < 1e-12);
    }

    #[test]
    fn arc_forwarding() {
        let l: Arc<dyn LoopWorkload> = Arc::new(UniformLoop::new(10, 1.0, 4));
        assert_eq!(l.iterations(), 10);
        assert!(l.is_uniform());
        assert_eq!(l.bytes_per_iter(), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cost_rejected() {
        let _ = UniformLoop::new(10, 0.0, 0);
    }

    #[test]
    fn folding_makes_triangular_uniform() {
        // Costs 1..=10 descending: 10, 9, …, 1.
        let tri = CostFnLoop::new(10, 8, |i| (10 - i) as f64);
        let folded = FoldedLoop::new(tri);
        assert_eq!(folded.iterations(), 5);
        for k in 0..5 {
            assert!(
                (folded.iter_cost(k) - 11.0).abs() < 1e-12,
                "pair {k} not uniform"
            );
        }
        assert_eq!(folded.bytes_per_iter(), 16);
    }

    #[test]
    fn folding_odd_count_keeps_middle_alone() {
        let tri = CostFnLoop::new(5, 4, |i| (i + 1) as f64);
        let folded = FoldedLoop::new(tri);
        assert_eq!(folded.iterations(), 3);
        // Pairs: (0,4)=6, (1,3)=6, middle (2,2)=3.
        assert!((folded.iter_cost(0) - 6.0).abs() < 1e-12);
        assert!((folded.iter_cost(1) - 6.0).abs() < 1e-12);
        assert!((folded.iter_cost(2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn folding_conserves_total_work() {
        let tri = CostFnLoop::new(101, 8, |i| (i * i % 37 + 1) as f64);
        let total_raw = tri.range_cost(0, 101);
        let folded = FoldedLoop::new(tri);
        let total_folded = folded.range_cost(0, folded.iterations());
        assert!((total_raw - total_folded).abs() < 1e-9);
    }
}
