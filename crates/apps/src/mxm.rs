//! MXM: matrix multiplication `Z = X · Y` (Section 6.2).
//!
//! The outermost loop over the rows of `Z` is parallelized; the rows of
//! `Z` and `X` are BLOCK-distributed with the iterations and `Y` is
//! replicated (WHOLE). Work per iteration is uniform: `C · R2`
//! multiply-accumulates. When iterations move, only the corresponding rows
//! of `X` travel (`Z` rows are produced at the new owner; the paper ships
//! only `X`).
//!
//! Paper data sizes: `Z = R×C`, `X = R×R2`, `Y = R2×C`, with `R2 = 400`,
//! `R/processor ∈ {100, 200}` and `C ∈ {400, 800}`.

use crate::calibrate::ops_to_seconds;
use dlb_core::arrays::{DataDistribution, DlbArray};
use dlb_core::work::UniformLoop;
use serde::{Deserialize, Serialize};

/// Problem size of one MXM experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MxmConfig {
    /// Rows of `Z` and `X` — the parallel loop's iteration count.
    pub r: u64,
    /// Columns of `Z` and `Y`.
    pub c: u64,
    /// Inner dimension (columns of `X`, rows of `Y`).
    pub r2: u64,
}

impl MxmConfig {
    pub fn new(r: u64, c: u64, r2: u64) -> Self {
        assert!(
            r > 0 && c > 0 && r2 > 0,
            "matrix dimensions must be positive"
        );
        Self { r, c, r2 }
    }

    /// The four data sizes the paper runs on `p` processors (Figs. 5/6):
    /// `R/processor ∈ {100, 200}` × `C ∈ {400, 800}`, `R2 = 400`.
    pub fn paper_configs(p: usize) -> Vec<MxmConfig> {
        let p = p as u64;
        vec![
            MxmConfig::new(100 * p, 400, 400),
            MxmConfig::new(100 * p, 800, 400),
            MxmConfig::new(200 * p, 400, 400),
            MxmConfig::new(200 * p, 800, 400),
        ]
    }

    /// Human-readable label matching the figures' x-axis
    /// (`R=400,C=400,R2=400`).
    pub fn label(&self) -> String {
        format!("R={},C={},R2={}", self.r, self.c, self.r2)
    }

    /// Basic operations per outer iteration: `C · R2` multiply-adds.
    pub fn ops_per_iteration(&self) -> f64 {
        (self.c * self.r2) as f64
    }

    /// Bytes shipped per moved iteration: one row of `X` (`R2` doubles).
    pub fn bytes_per_iteration(&self) -> u64 {
        self.r2 * 8
    }

    /// The work model for the simulator and the analytic model.
    pub fn workload(&self) -> UniformLoop {
        UniformLoop::new(
            self.r,
            ops_to_seconds(self.ops_per_iteration()),
            self.bytes_per_iteration(),
        )
    }

    /// The shared-array descriptors the compiler fills in (`DLB_array`).
    pub fn arrays(&self) -> Vec<DlbArray> {
        vec![
            DlbArray {
                name: "Z".into(),
                dims: vec![self.r, self.c],
                elem_bytes: 8,
                distribution: DataDistribution::Block { dim: 0 },
                moves_with_work: false, // produced at the new owner
            },
            DlbArray::block_2d("X", self.r, self.r2, 8),
            DlbArray::whole("Y", vec![self.r2, self.c], 8),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::work::LoopWorkload;

    #[test]
    fn paper_configs_match_section_6_2() {
        let p4 = MxmConfig::paper_configs(4);
        assert_eq!(p4[0], MxmConfig::new(400, 400, 400));
        assert_eq!(p4[3], MxmConfig::new(800, 800, 400));
        let p16 = MxmConfig::paper_configs(16);
        assert_eq!(p16[0], MxmConfig::new(1600, 400, 400));
        assert_eq!(p16[3], MxmConfig::new(3200, 800, 400));
    }

    #[test]
    fn workload_shape() {
        let cfg = MxmConfig::new(400, 400, 400);
        let wl = cfg.workload();
        assert_eq!(wl.iterations(), 400);
        assert!(wl.is_uniform());
        // 160k ops at 5 Mops/s = 32 ms per iteration.
        assert!((wl.iter_cost(0) - 32e-3).abs() < 1e-12);
        assert_eq!(wl.bytes_per_iter(), 3200);
    }

    #[test]
    fn arrays_match_distribution_annotations() {
        let arrays = MxmConfig::new(400, 800, 400).arrays();
        assert_eq!(arrays.len(), 3);
        let x = &arrays[1];
        assert_eq!(x.bytes_per_iteration(), 3200);
        let y = &arrays[2];
        assert_eq!(y.bytes_per_iteration(), 0);
        // Only X travels.
        assert_eq!(dlb_core::arrays::bytes_per_iteration(&arrays), 3200);
    }
}
