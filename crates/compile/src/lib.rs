//! `dlb-compile` — the compile-time half of the paper's hybrid system.
//!
//! The paper uses SUIF to translate annotated sequential C into an SPMD
//! PVM program with DLB library calls (Section 5). This crate rebuilds
//! that pipeline for a small annotated loop-nest language:
//!
//! ```text
//! param R; param C; param R2;
//! array Z[R][C]  distribute(block, whole);
//! array X[R][R2] distribute(block, whole) moves;
//! array Y[R2][C] replicate;
//! balance for i = 0..R {
//!   for j = 0..C {
//!     for k = 0..R2 {
//!       Z[i][j] += X[i][k] * Y[k][j];
//!     }
//!   }
//! }
//! ```
//!
//! The pipeline:
//!
//! 1. [`lexer`] / [`parser`] — source → AST ([`ast`]);
//! 2. [`mod@analyze`] — semantic checks plus the *symbolic cost functions* the
//!    model needs: basic operations per iteration of each balanced loop
//!    (`W_ij`, counted from the statement operators times the inner trip
//!    counts) and data communication per moved iteration (`DC_a`, from
//!    the distribution annotations);
//! 3. triangular loops (inner bounds referencing the balanced index) are
//!    detected and — as in the paper (\[4\], used for TRFD's second loop) —
//!    made uniform by **bitonic folding**;
//! 4. [`codegen`] — emits (a) an executable [`codegen::BoundLoop`] (a
//!    `dlb_core::LoopWorkload` plus `DlbArray` descriptors) once the
//!    symbolic parameters are bound to values, and (b) the transformed
//!    SPMD pseudo-code with DLB calls, mirroring the paper's Fig. 3.

pub mod analyze;
pub mod ast;
pub mod codegen;
pub mod lexer;
pub mod parser;

pub use analyze::{analyze, AnalyzedProgram, CompileError};
pub use codegen::{BoundLoop, BoundProgram};

use std::collections::BTreeMap;

/// One-call front end: compile source text into an analyzed program.
pub fn compile(source: &str) -> Result<AnalyzedProgram, CompileError> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(&tokens)?;
    analyze(program)
}

/// Convenience: compile and bind parameters in one step.
pub fn compile_and_bind(
    source: &str,
    bindings: &BTreeMap<String, u64>,
) -> Result<BoundProgram, CompileError> {
    compile(source)?.bind(bindings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::work::LoopWorkload;

    pub(crate) const MXM_SOURCE: &str = r#"
        param R; param C; param R2;
        array Z[R][C]  distribute(block, whole);
        array X[R][R2] distribute(block, whole) moves;
        array Y[R2][C] replicate;
        balance for i = 0..R {
          for j = 0..C {
            for k = 0..R2 {
              Z[i][j] += X[i][k] * Y[k][j];
            }
          }
        }
    "#;

    #[test]
    fn end_to_end_mxm_matches_paper_figures() {
        let mut bind = BTreeMap::new();
        bind.insert("R".to_string(), 400u64);
        bind.insert("C".to_string(), 400);
        bind.insert("R2".to_string(), 400);
        let bound = compile_and_bind(MXM_SOURCE, &bind).expect("compiles");
        assert_eq!(bound.loops.len(), 1);
        let l = &bound.loops[0];
        assert!(l.uniform);
        assert_eq!(l.workload.iterations(), 400);
        // W = C * R2 * 2 ops per outer iteration (mul + add), DC = one
        // row of X = R2 doubles.
        assert!((l.ops_per_iter(0) - 2.0 * 400.0 * 400.0).abs() < 1e-9);
        assert_eq!(l.workload.bytes_per_iter(), 400 * 8);
    }
}
