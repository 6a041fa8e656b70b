//! Shared-array descriptors (`DLB_array` in the paper's generated code).
//!
//! "For each shared array we also have an DLB array structure, which holds
//! information about the arrays, like the number of dimensions, array size,
//! element type, and distribution type. This structure is … used by the
//! run-time library to scatter, gather, and redistribute data."
//!
//! The compiler supports the BLOCK, CYCLIC and WHOLE data-distribution
//! annotations along a given dimension (Section 5.2); moving a loop
//! iteration moves the slices of every BLOCK-distributed array indexed by
//! that iteration (the *data communication* `DC_a` of the model).

use serde::{Deserialize, Serialize};

/// Distribution of one array across the processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataDistribution {
    /// Contiguous blocks of the given dimension, aligned with the loop
    /// iterations: iteration `i` owns slice `i` of that dimension. Moving
    /// an iteration ships the slice.
    Block { dim: usize },
    /// Round-robin slices of the given dimension. Supported by the
    /// scatter/gather code; redistribution still ships one slice per moved
    /// iteration.
    Cyclic { dim: usize },
    /// Fully replicated on every processor; never moves.
    Whole,
}

/// Descriptor of one shared array.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DlbArray {
    /// Name as it appears in the source program (for reports).
    pub name: String,
    /// Extent of each dimension (`N_a^d`).
    pub dims: Vec<u64>,
    /// Element size in bytes.
    pub elem_bytes: usize,
    /// Distribution annotation.
    pub distribution: DataDistribution,
    /// Whether the array's data must travel when iterations move. Output
    /// arrays that are written before being read (like MXM's `Z`) are
    /// distributed but need not be shipped mid-loop; the paper ships only
    /// the rows of `X`.
    pub moves_with_work: bool,
}

impl DlbArray {
    /// Convenience constructor for a BLOCK-distributed 2-D array moved with
    /// the work (e.g. MXM's `X`).
    pub fn block_2d(name: &str, rows: u64, cols: u64, elem_bytes: usize) -> Self {
        Self {
            name: name.to_string(),
            dims: vec![rows, cols],
            elem_bytes,
            distribution: DataDistribution::Block { dim: 0 },
            moves_with_work: true,
        }
    }

    /// Convenience constructor for a WHOLE (replicated) array (e.g. MXM's
    /// `Y`).
    pub fn whole(name: &str, dims: Vec<u64>, elem_bytes: usize) -> Self {
        Self {
            name: name.to_string(),
            dims,
            elem_bytes,
            distribution: DataDistribution::Whole,
            moves_with_work: false,
        }
    }

    /// Total number of elements.
    pub fn elements(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Elements in one slice of the distributed dimension — the *data
    /// communication per iteration* `DC_a` of the model. `None` for WHOLE
    /// arrays (they never move).
    pub fn slice_elements(&self) -> Option<u64> {
        let dim = match self.distribution {
            DataDistribution::Block { dim } | DataDistribution::Cyclic { dim } => dim,
            DataDistribution::Whole => return None,
        };
        assert!(dim < self.dims.len(), "distributed dimension out of range");
        let d = self.dims[dim].max(1);
        Some(self.elements() / d)
    }

    /// Bytes shipped per moved iteration for this array (0 if it does not
    /// move).
    pub fn bytes_per_iteration(&self) -> u64 {
        if !self.moves_with_work {
            return 0;
        }
        self.slice_elements().unwrap_or(0) * self.elem_bytes as u64
    }
}

/// Bytes shipped per moved iteration over a whole array set — the
/// `Σ_a DC_a` of the model's data-movement cost (eq. 5).
pub fn bytes_per_iteration(arrays: &[DlbArray]) -> u64 {
    arrays.iter().map(DlbArray::bytes_per_iteration).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mxm_x_row_bytes() {
        // X is R x R2 of f64; one iteration moves one row: R2 elements.
        let x = DlbArray::block_2d("X", 400, 400, 8);
        assert_eq!(x.slice_elements(), Some(400));
        assert_eq!(x.bytes_per_iteration(), 3200);
    }

    #[test]
    fn whole_array_never_moves() {
        let y = DlbArray::whole("Y", vec![400, 400], 8);
        assert_eq!(y.slice_elements(), None);
        assert_eq!(y.bytes_per_iteration(), 0);
    }

    #[test]
    fn output_array_not_shipped_when_flagged() {
        let mut z = DlbArray::block_2d("Z", 400, 800, 8);
        z.moves_with_work = false;
        assert_eq!(z.bytes_per_iteration(), 0);
    }

    #[test]
    fn cyclic_slice_size() {
        let a = DlbArray {
            name: "A".into(),
            dims: vec![100, 7],
            elem_bytes: 4,
            distribution: DataDistribution::Cyclic { dim: 0 },
            moves_with_work: true,
        };
        assert_eq!(a.slice_elements(), Some(7));
        assert_eq!(a.bytes_per_iteration(), 28);
    }

    #[test]
    fn distribution_along_second_dim() {
        let a = DlbArray {
            name: "B".into(),
            dims: vec![10, 20],
            elem_bytes: 8,
            distribution: DataDistribution::Block { dim: 1 },
            moves_with_work: true,
        };
        // A column slice has 10 elements.
        assert_eq!(a.slice_elements(), Some(10));
    }

    #[test]
    fn array_set_sums_moving_arrays_only() {
        let arrays = vec![
            DlbArray::block_2d("X", 400, 400, 8),
            DlbArray::whole("Y", vec![400, 400], 8),
        ];
        assert_eq!(bytes_per_iteration(&arrays), 3200);
    }

    #[test]
    fn trfd_column_block() {
        // TRFD's array is [n(n+1)/2]^2, column-block distributed; DC is the
        // row size, i.e. one column has n(n+1)/2 elements.
        let n: u64 = 30;
        let size = n * (n + 1) / 2;
        let a = DlbArray {
            name: "XIJ".into(),
            dims: vec![size, size],
            elem_bytes: 8,
            distribution: DataDistribution::Block { dim: 1 },
            moves_with_work: true,
        };
        assert_eq!(a.slice_elements(), Some(size));
        assert_eq!(a.bytes_per_iteration(), size * 8);
    }
}
