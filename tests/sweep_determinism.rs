//! The run server's determinism contract, end to end: running a real
//! experiment cell on 1, 2, or many worker threads produces results that
//! are *identical* to the single-worker run — field for field (via
//! `PartialEq`) and byte for byte (via serde round-trip). Thread
//! scheduling must never leak into experiment output; a reviewer
//! rerunning a figure on a bigger machine has to get the same numbers.
//!
//! Every server is fresh and every cell's specs are distinct, so each run
//! actually exercises the engine; cache correctness has its own suite in
//! `crates/serve/tests`.

use customized_dlb::prelude::*;
use dlb_bench::{
    mxm_experiment_with, trfd_experiment_with, trfd_loop_experiment_with, MemoConfig, RunServer,
    ServeConfig, TrfdLoop,
};

/// Scaled-down but structurally faithful MXM cell (full replica ×
/// strategy grid); the paper sizes run in the binaries.
fn mxm_cfg() -> MxmConfig {
    MxmConfig::new(100, 400, 400)
}

fn trfd_cfg() -> TrfdConfig {
    TrfdConfig::new(10)
}

fn server(threads: usize) -> RunServer {
    RunServer::new(ServeConfig::new(threads, MemoConfig::memory_only()))
}

#[test]
fn mxm_cell_identical_across_thread_counts() {
    let serial = mxm_experiment_with(&server(1), 4, mxm_cfg());
    let serial_json = serde_json::to_string(&serial).expect("serialize");
    for threads in [2usize, 8] {
        let parallel = mxm_experiment_with(&server(threads), 4, mxm_cfg());
        assert_eq!(
            serial, parallel,
            "{threads}-thread MXM sweep diverged from serial"
        );
        let parallel_json = serde_json::to_string(&parallel).expect("serialize");
        assert_eq!(
            serial_json, parallel_json,
            "{threads}-thread MXM sweep not byte-identical"
        );
    }
}

#[test]
fn trfd_loop_cells_identical_across_thread_counts() {
    for which in [TrfdLoop::L1, TrfdLoop::L2] {
        let serial = trfd_loop_experiment_with(&server(1), 4, trfd_cfg(), which);
        let serial_json = serde_json::to_string(&serial).expect("serialize");
        for threads in [2usize, 8] {
            let parallel = trfd_loop_experiment_with(&server(threads), 4, trfd_cfg(), which);
            assert_eq!(serial, parallel, "{threads}-thread TRFD sweep diverged");
            assert_eq!(
                serial_json,
                serde_json::to_string(&parallel).expect("serialize"),
                "{threads}-thread TRFD sweep not byte-identical"
            );
        }
    }
}

#[test]
fn trfd_totals_identical_across_thread_counts() {
    let serial = trfd_experiment_with(&server(1), 4, trfd_cfg());
    for threads in [2usize, 8] {
        let parallel = trfd_experiment_with(&server(threads), 4, trfd_cfg());
        assert_eq!(
            serial, parallel,
            "{threads}-thread TRFD totals diverged from serial"
        );
    }
}

/// The server path must also agree with the *pre-server* way of running
/// a cell: a plain serial loop over replicas calling
/// `run_all_strategies`. This pins the refactor itself (spec
/// construction, workload building, grid decomposition) to the legacy
/// semantics.
#[test]
fn server_grid_matches_plain_replica_loop() {
    use dlb_bench::{paper_group_size, persistence_for, CELL_REPLICAS, LOAD_SEED};

    let cfg = mxm_cfg();
    let wl = cfg.workload();
    let p = 4;
    let k = paper_group_size(p);
    let salt = cfg.r ^ (cfg.c << 16);

    let result = mxm_experiment_with(&server(4), p, cfg);
    assert_eq!(result.sweeps.len(), CELL_REPLICAS as usize);

    for (replica, sweep) in result.sweeps.iter().enumerate() {
        let cluster = ClusterSpec::paper_homogeneous(
            p,
            LOAD_SEED ^ salt ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            persistence_for(&wl),
        );
        let expect = run_all_strategies(&cluster, &wl, k);
        assert_eq!(
            &expect, sweep,
            "replica {replica}: server grid diverged from plain loop"
        );
    }
}
