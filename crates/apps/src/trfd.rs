//! TRFD (Perfect Benchmarks): two-electron integral transformation
//! (Section 6.3).
//!
//! The paper's structure: two main computation loops with an intervening
//! sequential transpose; one major array of size `[n(n+1)/2] × [n(n+1)/2]`
//! distributed column-block; loop iterations operate on columns. Loop 1 is
//! uniform with `n(n+1)/2` iterations and `n³ + 3n² + n` basic operations
//! each. Loop 2 is triangular, with per-iteration work
//! `n³ + 3n² + n(1 + i/2 − i²/2) + (i − i²)` where
//! `i = (1 + √(8j − 7))/2` and `j` is the outer index; it is transformed
//! into a (near-)uniform loop with ~`n(n+1)/4` iterations by bitonic
//! folding ([`dlb_core::FoldedLoop`]), combining iterations `i` and
//! `n(n+1)/2 − i + 1`.
//!
//! The Perfect source is not redistributable, so the model follows that
//! documented structure: each iteration costs its documented operation
//! count. See DESIGN.md, S8.

use crate::calibrate::ops_to_seconds;
use dlb_core::arrays::{DataDistribution, DlbArray};
use dlb_core::costindex::IndexedLoop;
use dlb_core::work::{CostFnLoop, FoldedLoop, UniformLoop};
use serde::{Deserialize, Serialize};

/// Problem size of one TRFD experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TrfdConfig {
    /// The input parameter `n` (paper: 30, 40, 50).
    pub n: u64,
}

impl TrfdConfig {
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "TRFD needs n >= 2");
        Self { n }
    }

    /// The paper's input sizes with their array dimensions
    /// (30 → 465, 40 → 820, 50 → 1275).
    pub fn paper_configs() -> Vec<TrfdConfig> {
        vec![
            TrfdConfig::new(30),
            TrfdConfig::new(40),
            TrfdConfig::new(50),
        ]
    }

    /// `n(n+1)/2` — the array dimension and loop-1 iteration count.
    pub fn msize(&self) -> u64 {
        self.n * (self.n + 1) / 2
    }

    /// Figure label, e.g. `N=30 (465)`.
    pub fn label(&self) -> String {
        format!("N={} ({})", self.n, self.msize())
    }

    /// Basic operations of one loop-1 iteration: `n³ + 3n² + n`.
    pub fn loop1_ops(&self) -> f64 {
        let n = self.n as f64;
        n * n * n + 3.0 * n * n + n
    }

    /// Basic operations of loop-2 iteration `j` (0-based outer index),
    /// before folding.
    pub fn loop2_ops(&self, j: u64) -> f64 {
        assert!(j < self.msize(), "loop-2 iteration out of range");
        let n = self.n as f64;
        let j1 = (j + 1) as f64; // the paper's 1-based j
        let i = (1.0 + (8.0 * j1 - 7.0).sqrt()) / 2.0;
        let w = n * n * n + 3.0 * n * n + n * (1.0 + i / 2.0 - i * i / 2.0) + (i - i * i);
        assert!(
            w > 0.0,
            "loop-2 work must stay positive (n={}, j={j})",
            self.n
        );
        w
    }

    /// Bytes moved per iteration: one column of the `msize × msize` array.
    pub fn bytes_per_iteration(&self) -> u64 {
        self.msize() * 8
    }

    /// Loop 1: uniform work model.
    pub fn loop1_workload(&self) -> UniformLoop {
        UniformLoop::new(
            self.msize(),
            ops_to_seconds(self.loop1_ops()),
            self.bytes_per_iteration(),
        )
    }

    /// Loop 2 *before* the compiler's bitonic transformation: triangular.
    pub fn loop2_raw_workload(&self) -> CostFnLoop {
        let cfg = *self;
        CostFnLoop::new(self.msize(), self.bytes_per_iteration(), move |j| {
            ops_to_seconds(cfg.loop2_ops(j))
        })
    }

    /// Loop 2 as actually run: bitonic-folded to ~`n(n+1)/4` near-uniform
    /// iterations, with a prefix-sum cost index so `range_cost` queries
    /// (the model asks one per processor per strategy) are O(1) instead
    /// of O(n) sqrt-evaluating sums.
    pub fn loop2_workload(&self) -> IndexedLoop<FoldedLoop<CostFnLoop>> {
        IndexedLoop::new(FoldedLoop::new(self.loop2_raw_workload()))
    }

    /// The distributed array descriptor (column-block, moves with work).
    pub fn arrays(&self) -> Vec<DlbArray> {
        vec![DlbArray {
            name: "XIJ".into(),
            dims: vec![self.msize(), self.msize()],
            elem_bytes: 8,
            distribution: DataDistribution::Block { dim: 1 },
            moves_with_work: true,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::work::LoopWorkload;

    #[test]
    fn paper_sizes() {
        let cfgs = TrfdConfig::paper_configs();
        let sizes: Vec<u64> = cfgs.iter().map(TrfdConfig::msize).collect();
        assert_eq!(sizes, vec![465, 820, 1275]);
    }

    #[test]
    fn loop1_is_uniform_linear_in_array_size() {
        let cfg = TrfdConfig::new(30);
        let wl = cfg.loop1_workload();
        assert!(wl.is_uniform());
        assert_eq!(wl.iterations(), 465);
        // Work per iteration / array size ≈ 2n + 4 (paper's figure).
        let per_elem = cfg.loop1_ops() / cfg.msize() as f64;
        assert!(
            (per_elem - (2.0 * 30.0 + 4.0)).abs() < 2.0,
            "per-element work {per_elem} should be ≈ 64"
        );
    }

    #[test]
    fn loop2_is_triangular_before_folding() {
        let cfg = TrfdConfig::new(30);
        let first = cfg.loop2_ops(0);
        let last = cfg.loop2_ops(cfg.msize() - 1);
        assert!(first > last * 1.5, "work must decrease: {first} vs {last}");
        // All positive.
        for j in 0..cfg.msize() {
            assert!(cfg.loop2_ops(j) > 0.0);
        }
    }

    #[test]
    fn folded_loop2_is_near_uniform() {
        let cfg = TrfdConfig::new(40);
        let wl = cfg.loop2_workload();
        assert_eq!(wl.iterations(), cfg.msize().div_ceil(2));
        let costs: Vec<f64> = (0..wl.iterations() - 1).map(|k| wl.iter_cost(k)).collect();
        let max = costs.iter().cloned().fold(0.0, f64::max);
        let min = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 1.15,
            "folded costs should be within 15%: min {min}, max {max}"
        );
    }

    #[test]
    fn loop2_per_iteration_roughly_double_loop1() {
        // Section 6.3: "Loop 2 has almost double the work per iteration
        // than in loop 1" (after folding).
        let cfg = TrfdConfig::new(40);
        let l1 = cfg.loop1_workload().iter_cost(0);
        let l2 = cfg.loop2_workload().iter_cost(10);
        let ratio = l2 / l1;
        assert!((1.2..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn folded_loop2_covers_all_columns() {
        let wl = TrfdConfig::new(4).loop2_workload(); // msize = 10
        let mut seen = [false; 10];
        for k in 0..wl.iterations() {
            let (a, b) = wl.constituents(k);
            seen[a as usize] = true;
            seen[b as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bytes_per_iteration_is_column_size() {
        let cfg = TrfdConfig::new(30);
        assert_eq!(cfg.bytes_per_iteration(), 465 * 8);
        assert_eq!(cfg.arrays()[0].bytes_per_iteration(), 465 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn loop2_ops_out_of_range_rejected() {
        let cfg = TrfdConfig::new(5);
        let _ = cfg.loop2_ops(cfg.msize());
    }
}
