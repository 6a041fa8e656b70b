//! Cross-crate integration tests: the compiler's output drives the
//! simulator and the model; calibrations line up across crates.

use customized_dlb::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const MXM_SOURCE: &str = r#"
    param R; param C; param R2;
    array Z[R][C]  distribute(block, whole);
    array X[R][R2] distribute(block, whole) moves;
    array Y[R2][C] replicate;
    balance for i = 0..R {
      for j = 0..C { for k = 0..R2 { Z[i][j] += X[i][k] * Y[k][j]; } }
    }
"#;

const TRIANGULAR_SOURCE: &str = r#"
    param N;
    array A[N][N] distribute(whole, block) moves;
    balance for i = 0..N {
      for j = 0..i { A[j][i] += A[i][j] * 2; }
    }
"#;

fn bind(src: &str, pairs: &[(&str, u64)]) -> customized_dlb::compile::BoundProgram {
    let b: BTreeMap<String, u64> = pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    compile_and_bind(src, &b).expect("compiles and binds")
}

#[test]
fn calibrations_agree_across_crates() {
    assert_eq!(
        customized_dlb::compile::codegen::DEFAULT_OPS_PER_SEC,
        customized_dlb::apps::BASE_OPS_PER_SEC,
        "the compiler's default calibration must match the apps crate"
    );
}

#[test]
fn compiled_mxm_matches_handwritten_workload_shape() {
    let bound = bind(MXM_SOURCE, &[("R", 400), ("C", 400), ("R2", 400)]);
    let compiled = &bound.loops[0];
    let handwritten = MxmConfig::new(400, 400, 400).workload();
    assert_eq!(compiled.workload.iterations(), handwritten.iterations());
    assert_eq!(
        compiled.workload.bytes_per_iter(),
        handwritten.bytes_per_iter()
    );
    // The compiler counts mul+add = 2 basic ops per inner iteration; the
    // hand model (following the paper's W = C·R2) counts fused
    // multiply-accumulates. The compiled cost is exactly twice.
    let ratio = compiled.workload.iter_cost(0) / handwritten.iter_cost(0);
    assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
}

#[test]
fn compiled_workload_runs_on_the_simulator() {
    let bound = bind(MXM_SOURCE, &[("R", 160), ("C", 64), ("R2", 64)]);
    let wl = Arc::clone(&bound.loops[0].workload);
    let cluster = ClusterSpec::paper_homogeneous(4, 9, 0.5);
    let sweep = run_all_strategies(&cluster, &wl, 2);
    assert_eq!(sweep.no_dlb.total_iters, 160);
    for r in &sweep.strategies {
        assert_eq!(r.total_iters, 160, "{} lost work", r.label());
    }
}

#[test]
fn compiled_triangular_loop_balances_after_folding() {
    let bound = bind(TRIANGULAR_SOURCE, &[("N", 600)]);
    let l = &bound.loops[0];
    assert!(l.folded);
    let wl = Arc::clone(&l.workload);
    assert_eq!(wl.iterations(), 300);
    let cluster = ClusterSpec::dedicated(4);
    let report = run_dlb(&cluster, &wl, StrategyConfig::paper(Strategy::Gddlb, 2));
    assert_eq!(report.total_iters, 300);
    // Folded iterations are near-uniform, so a dedicated homogeneous
    // cluster needs no redistribution.
    assert_eq!(report.stats.iters_moved, 0);
}

#[test]
fn model_and_simulator_agree_on_dedicated_cluster() {
    let wl = UniformLoop::new(400, 0.01, 800);
    let cluster = ClusterSpec::dedicated(4);
    let system = SystemModel::from_specs(cluster.speeds.clone(), &cluster.loads, cluster.net);
    let sim_no = run_no_dlb(&cluster, &wl).total_time;
    let model_no = customized_dlb::model::predict_no_dlb(&system, &wl);
    assert!(
        (sim_no - model_no).abs() / sim_no < 1e-6,
        "sim {sim_no} vs model {model_no}"
    );
    for s in Strategy::ALL {
        let sim_t = run_dlb(&cluster, &wl, StrategyConfig::paper(s, 2)).total_time;
        let model_t = predict(&system, &wl, s, 2).total_time;
        let rel = (sim_t - model_t).abs() / sim_t;
        assert!(rel < 0.05, "{s}: sim {sim_t} vs model {model_t}");
    }
}

#[test]
fn model_ranks_match_simulation_under_stable_skew() {
    // With one persistently loaded machine the decision is clear-cut:
    // model and simulator must both put the globals in front on this
    // compute-heavy loop.
    let wl = UniformLoop::new(400, 0.02, 800);
    let mut cluster = ClusterSpec::dedicated(4);
    cluster.loads[2] = LoadSpec::Constant { level: 4 };
    let system = SystemModel::from_specs(cluster.speeds.clone(), &cluster.loads, cluster.net);
    let sweep = run_all_strategies(&cluster, &wl, 2);
    let actual = sweep.actual_order();
    let decision = choose_strategy(&system, &wl, 2);
    let agreement = customized_dlb::model::rank_agreement(&actual, &decision.order);
    assert!(
        agreement >= 0.5,
        "agreement {agreement}: {actual:?} vs {:?}",
        decision.order
    );
    use customized_dlb::prelude::Strategy::*;
    assert!(
        matches!(actual[0], Gcdlb | Gddlb),
        "globals must win: {actual:?}"
    );
}

#[test]
fn hybrid_first_sync_guarantee_holds_under_paper_load() {
    // Section 4.3: at least 1/P of the work is done by the first sync.
    for seed in [1u64, 7, 42, 1996] {
        let cluster = ClusterSpec::paper_homogeneous(8, seed, 0.5);
        let system = SystemModel::from_specs(cluster.speeds.clone(), &cluster.loads, cluster.net);
        let wl = UniformLoop::new(800, 0.005, 64);
        let frac = customized_dlb::model::first_sync_progress(&system, &wl);
        assert!(frac >= 1.0 / 8.0 - 1e-9, "seed {seed}: progress {frac}");
    }
}

#[test]
fn pseudocode_generation_is_stable() {
    let analyzed = compile(MXM_SOURCE).unwrap();
    let a = analyzed.emit_spmd();
    let b = analyzed.emit_spmd();
    assert_eq!(a, b);
    assert!(a.contains("DLB_init"));
}
