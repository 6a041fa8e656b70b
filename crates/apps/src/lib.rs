//! The paper's evaluation workloads (Section 6): matrix multiplication
//! (MXM) and TRFD from the Perfect Benchmarks.
//!
//! Each application is a **work model** implementing
//! [`dlb_core::LoopWorkload`] — iteration counts, per-iteration
//! base-processor cost, and bytes moved per iteration — consumed by the
//! discrete-event simulator, the analytic model and the compiler, plus the
//! distributed-array descriptors (`arrays()`) that say which data moves
//! with the work.
//!
//! TRFD note: the Perfect Benchmark source is not redistributable, so the
//! model here follows its *documented* loop and work structure (Section
//! 6.3 of the paper: two loop nests over a `[n(n+1)/2]²` column-distributed
//! array with a sequential transpose between them; loop 1 uniform with work
//! `n³+3n²+n` per iteration; loop 2 triangular, made uniform by bitonic
//! folding). See DESIGN.md, S8.

pub mod calibrate;
pub mod mxm;
pub mod trfd;

pub use calibrate::{ops_to_seconds, BASE_OPS_PER_SEC};
pub use mxm::MxmConfig;
pub use trfd::TrfdConfig;
