//! Code generation: executable plans and SPMD pseudo-code (Fig. 3).

use crate::analyze::{ops_of_body, AnalyzedProgram, CompileError};
use crate::ast::{DimDist, Loop, Node};
use dlb_core::arrays::{DataDistribution, DlbArray};
use dlb_core::work::{CostFnLoop, FoldedLoop, LoopWorkload, UniformLoop};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Default calibration used by [`AnalyzedProgram::bind`]: basic operations
/// per second of the base processor. Matches `dlb_apps::BASE_OPS_PER_SEC`
/// (asserted by the workspace integration tests).
pub const DEFAULT_OPS_PER_SEC: f64 = 5.0e6;

/// A balanced loop bound to concrete parameter values: ready to run on the
/// simulator.
pub struct BoundLoop {
    /// Balanced index variable.
    pub var: String,
    /// Whether the source loop was uniform (before any folding).
    pub uniform: bool,
    /// Whether bitonic folding was applied (triangular source loop).
    pub folded: bool,
    /// The runnable work model.
    pub workload: Arc<dyn LoopWorkload>,
    /// Shared-array descriptors with concrete extents.
    pub arrays: Vec<DlbArray>,
    // retained for ops_per_iter queries
    ast: Loop,
    env: BTreeMap<String, i64>,
}

impl BoundLoop {
    /// Basic operations of (unfolded) iteration `i`.
    pub fn ops_per_iter(&self, i: u64) -> f64 {
        let mut env = self.env.clone();
        env.insert(self.ast.var.clone(), i as i64);
        ops_of_body(&self.ast.body, &mut env)
    }
}

impl std::fmt::Debug for BoundLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundLoop")
            .field("var", &self.var)
            .field("uniform", &self.uniform)
            .field("folded", &self.folded)
            .field("iterations", &self.workload.iterations())
            .finish_non_exhaustive()
    }
}

/// A fully bound program.
#[derive(Debug)]
pub struct BoundProgram {
    /// Balanced loops in source order (non-balanced top-level loops are
    /// not parallelized and are omitted).
    pub loops: Vec<BoundLoop>,
}

impl AnalyzedProgram {
    /// Bind symbolic parameters to values with the default calibration.
    ///
    /// # Errors
    /// Returns an error if a parameter is missing or a bound evaluates to
    /// a negative extent.
    pub fn bind(&self, bindings: &BTreeMap<String, u64>) -> Result<BoundProgram, CompileError> {
        self.bind_with_rate(bindings, DEFAULT_OPS_PER_SEC)
    }

    /// Bind with an explicit basic-operations-per-second calibration.
    pub fn bind_with_rate(
        &self,
        bindings: &BTreeMap<String, u64>,
        ops_per_sec: f64,
    ) -> Result<BoundProgram, CompileError> {
        assert!(ops_per_sec > 0.0 && ops_per_sec.is_finite());
        for p in &self.program.params {
            if !bindings.contains_key(p) {
                return Err(CompileError::at(
                    0,
                    format!("missing binding for parameter '{p}'"),
                ));
            }
        }
        let env: BTreeMap<String, i64> = bindings
            .iter()
            .map(|(k, &v)| (k.clone(), v as i64))
            .collect();

        // Concrete array descriptors.
        let arrays: Vec<DlbArray> = self
            .program
            .arrays
            .iter()
            .map(|a| {
                let dims: Vec<u64> = a.dims.iter().map(|d| d.eval(&env).max(0) as u64).collect();
                let distribution = a.dist.iter().position(|d| *d != DimDist::Whole).map_or(
                    DataDistribution::Whole,
                    |dim| match a.dist[dim] {
                        DimDist::Block => DataDistribution::Block { dim },
                        DimDist::Cyclic => DataDistribution::Cyclic { dim },
                        DimDist::Whole => unreachable!(),
                    },
                );
                DlbArray {
                    name: a.name.clone(),
                    dims,
                    elem_bytes: 8,
                    distribution,
                    moves_with_work: a.moves,
                }
            })
            .collect();
        let bytes_per_iter = dlb_core::arrays::bytes_per_iteration(&arrays);

        let mut out = Vec::new();
        for (ast, info) in self.program.loops.iter().zip(&self.loops) {
            if !info.balance {
                continue;
            }
            let lo = ast.lo.eval(&env);
            let hi = ast.hi.eval(&env);
            if hi < lo {
                return Err(CompileError::at(
                    ast.line,
                    format!("loop {} has negative trip count after binding", ast.var),
                ));
            }
            let iterations = (hi - lo) as u64;
            let workload: Arc<dyn LoopWorkload> = if info.uniform {
                let mut e = env.clone();
                e.insert(ast.var.clone(), lo);
                let ops = ops_of_body(&ast.body, &mut e);
                // Guard against empty bodies: a zero-cost loop is a
                // compile error rather than a degenerate workload.
                if ops <= 0.0 {
                    return Err(CompileError::at(
                        ast.line,
                        format!("balanced loop {} performs no work", ast.var),
                    ));
                }
                Arc::new(UniformLoop::new(
                    iterations,
                    ops / ops_per_sec,
                    bytes_per_iter,
                ))
            } else {
                // Triangular: per-iteration cost function + the bitonic
                // transformation to make the balanced loop uniform.
                let body = ast.body.clone();
                let var = ast.var.clone();
                let base_env = env.clone();
                let raw = CostFnLoop::new(iterations, bytes_per_iter, move |i| {
                    let mut e = base_env.clone();
                    e.insert(var.clone(), lo + i as i64);
                    // An empty triangular prefix still takes ≥1 op to model
                    // loop control, avoiding zero-cost iterations.
                    ops_of_body(&body, &mut e).max(1.0) / ops_per_sec
                });
                Arc::new(FoldedLoop::new(raw))
            };
            out.push(BoundLoop {
                var: ast.var.clone(),
                uniform: info.uniform,
                folded: !info.uniform,
                workload,
                arrays: arrays.clone(),
                ast: ast.clone(),
                env: env.clone(),
            });
        }
        Ok(BoundProgram { loops: out })
    }

    /// Emit the transformed SPMD pseudo-code with DLB library calls,
    /// mirroring the paper's Fig. 3.
    pub fn emit_spmd(&self) -> String {
        let mut s = String::new();
        let array_args: Vec<String> = self
            .program
            .arrays
            .iter()
            .map(|a| format!("&DLB_array_{}", a.name))
            .collect();
        s.push_str("/* generated by dlb-compile (cf. paper Fig. 3) */\n");
        s.push_str(&format!(
            "DLB_init(argcnt, &dlb, P, K, task_ids, master_tid, {});\n",
            array_args.join(", ")
        ));
        s.push_str("DLB_scatter_data(&dlb);\n");
        s.push_str("if (master)\n    DLB_master_sync(&dlb);\nelse {\n");
        for (ast, info) in self.program.loops.iter().zip(&self.loops) {
            if !info.balance {
                s.push_str(&format!(
                    "    /* loop over {} is not annotated; runs with the static split */\n",
                    ast.var
                ));
                continue;
            }
            if !info.uniform {
                s.push_str(&format!(
                    "    /* triangular loop {v}: bitonic transformation pairs iteration i with N-1-i */\n",
                    v = ast.var
                ));
            }
            s.push_str("    while (dlb.more_work) {\n");
            s.push_str(&format!(
                "        for ({v} = dlb.start; {v} < dlb.end && dlb.more_work; {v}++) {{\n",
                v = ast.var
            ));
            emit_body(&mut s, &ast.body, 12);
            s.push_str("            if (DLB_slave_sync(&dlb) && dlb.interrupt)\n");
            s.push_str("                DLB_profile_send_move_work(&dlb);\n");
            s.push_str("        }\n");
            s.push_str("        if (dlb.more_work) {\n");
            s.push_str("            DLB_send_interrupt(&dlb);\n");
            s.push_str("            DLB_profile_send_move_work(&dlb);\n");
            s.push_str("        }\n");
            s.push_str("    }\n");
        }
        s.push_str("}\nDLB_gather_data(&dlb);\n");
        s
    }
}

fn emit_body(s: &mut String, body: &[Node], indent: usize) {
    let pad = " ".repeat(indent);
    for node in body {
        match node {
            Node::Loop(l) => {
                s.push_str(&format!(
                    "{pad}for ({v} = {lo}; {v} < {hi}; {v}++) {{\n",
                    v = l.var,
                    lo = l.lo,
                    hi = l.hi
                ));
                emit_body(s, &l.body, indent + 4);
                s.push_str(&format!("{pad}}}\n"));
            }
            Node::Stmt(st) => {
                let op = if st.accumulate { "+=" } else { "=" };
                s.push_str(&format!("{pad}{} {op} {};\n", st.target, st.value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const MXM: &str = r#"
        param R; param C; param R2;
        array Z[R][C]  distribute(block, whole);
        array X[R][R2] distribute(block, whole) moves;
        array Y[R2][C] replicate;
        balance for i = 0..R {
          for j = 0..C { for k = 0..R2 { Z[i][j] += X[i][k] * Y[k][j]; } }
        }
    "#;

    const TRIANGULAR: &str = r#"
        param N;
        array A[N][N] distribute(whole, block) moves;
        balance for i = 0..N {
          for j = 0..i { A[j][i] += A[i][j] * 2; }
        }
    "#;

    fn bind(src: &str, pairs: &[(&str, u64)]) -> BoundProgram {
        let b: BTreeMap<String, u64> = pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        compile(src).unwrap().bind(&b).unwrap()
    }

    #[test]
    fn mxm_binds_to_uniform_workload() {
        let p = bind(MXM, &[("R", 100), ("C", 40), ("R2", 30)]);
        let l = &p.loops[0];
        assert!(l.uniform && !l.folded);
        assert_eq!(l.workload.iterations(), 100);
        // 2 ops * 40 * 30 per iteration.
        assert!((l.ops_per_iter(7) - 2400.0).abs() < 1e-9);
        assert!((l.workload.iter_cost(0) - 2400.0 / DEFAULT_OPS_PER_SEC).abs() < 1e-15);
        // Only X moves: one row of R2 doubles.
        assert_eq!(l.workload.bytes_per_iter(), 30 * 8);
    }

    #[test]
    fn array_descriptors_concretized() {
        let p = bind(MXM, &[("R", 100), ("C", 40), ("R2", 30)]);
        let arrays = &p.loops[0].arrays;
        assert_eq!(arrays.len(), 3);
        assert_eq!(arrays[0].dims, vec![100, 40]);
        assert_eq!(arrays[0].distribution, DataDistribution::Block { dim: 0 });
        assert!(!arrays[0].moves_with_work);
        assert!(arrays[1].moves_with_work);
        assert_eq!(arrays[2].distribution, DataDistribution::Whole);
    }

    #[test]
    fn triangular_loop_gets_folded() {
        let p = bind(TRIANGULAR, &[("N", 16)]);
        let l = &p.loops[0];
        assert!(!l.uniform && l.folded);
        // 16 raw iterations fold to 8.
        assert_eq!(l.workload.iterations(), 8);
        // Folded cost is near-uniform: pair (i, N-1-i) always sums ~N ops.
        let c0 = l.workload.iter_cost(0);
        let c3 = l.workload.iter_cost(3);
        assert!((c0 - c3).abs() / c0 < 0.2, "c0={c0}, c3={c3}");
    }

    #[test]
    fn raw_triangular_cost_matches_trip_count() {
        let p = bind(TRIANGULAR, &[("N", 16)]);
        let l = &p.loops[0];
        // iteration i runs i inner iterations x 2 ops
        assert!((l.ops_per_iter(5) - 10.0).abs() < 1e-9);
        assert!((l.ops_per_iter(0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn missing_binding_is_an_error() {
        let a = compile(MXM).unwrap();
        let b: BTreeMap<String, u64> = [("R".to_string(), 10u64)].into();
        let e = a.bind(&b).unwrap_err();
        assert!(e.message.contains("missing binding"), "{e}");
    }

    #[test]
    fn pseudocode_mirrors_fig3() {
        let a = compile(MXM).unwrap();
        let code = a.emit_spmd();
        for needle in [
            "DLB_init(",
            "DLB_scatter_data(&dlb)",
            "DLB_master_sync(&dlb)",
            "DLB_slave_sync(&dlb)",
            "DLB_send_interrupt(&dlb)",
            "DLB_profile_send_move_work(&dlb)",
            "DLB_gather_data(&dlb)",
            "&DLB_array_Z, &DLB_array_X, &DLB_array_Y",
            "Z[i][j] += (X[i][k] * Y[k][j]);",
        ] {
            assert!(code.contains(needle), "missing {needle} in:\n{code}");
        }
    }

    #[test]
    fn pseudocode_notes_bitonic_transformation() {
        let a = compile(TRIANGULAR).unwrap();
        let code = a.emit_spmd();
        assert!(code.contains("bitonic"), "{code}");
    }

    #[test]
    fn unbalanced_loops_are_skipped() {
        let src = "param N; array A[N] distribute(block);\nfor i = 0..N { A[i] = 1; }";
        let p = bind(src, &[("N", 8)]);
        assert!(p.loops.is_empty());
    }
}
