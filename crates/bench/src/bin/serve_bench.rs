//! Run-server self-benchmark: the memo's hit accounting and the worker
//! pool's determinism, gated on exact counts.
//!
//! Usage:
//!
//! ```text
//! serve_bench [--quick] [--out PATH]
//! serve_bench --replay [--quick]
//! ```
//!
//! The default mode checks two things and records them: the full run
//! in the committed `BENCH_serve.json` (or in `--out`), a `--quick` run
//! only in an explicit `--out`:
//!
//! 1. **Memo** — the heaviest Fig. 6 MXM cell spec, submitted to a fresh
//!    memory-only server and then re-submitted `warm_samples` times. The
//!    first request must simulate and every later one must hit the
//!    memory tier without touching the engine.
//! 2. **Grid determinism** — real experiment cells (the full replica ×
//!    strategy grid behind a figure) run on a 1-worker server and on an
//!    N-worker server (N from `DLB_SERVE_THREADS`, default: available
//!    parallelism), both fresh memory-only servers, and are
//!    byte-compared. Grid reassembly is positional, so the worker count
//!    must not change a single output byte; the run fails if it does.
//!    Every grid slot is a distinct spec, so each server must simulate
//!    every slot exactly once.
//!
//! `--replay` is the CI cache-replay check instead: it runs a small MXM
//! sweep twice against a fresh disk memo directory and asserts the two
//! passes are byte-identical. The first pass must simulate every slot;
//! the second, on a fresh server, must serve every slot from disk.
//!
//! Both modes gate their server counters exactly against the `PINS`
//! table below (any one-count difference fails the run; a change that
//! moves a count re-pins the table in its own diff). Wall time is
//! measured by `perfbench`; the one wall number here is informational.

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_bench::{
    check_pins, counter_rows, mxm_experiment_with, paper_group_size, persistence_for,
    trfd_loop_experiment_with, TrfdLoop, LOAD_SEED,
};
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, Served, WorkloadSpec};
use now_sim::ClusterSpec;
use serde::Serialize;
use std::time::Instant;

/// Exact server counters per cell.
#[rustfmt::skip]
const PINS: &[(&str, &[(&str, u64)])] = &[
    ("quick", &[
        ("memo.simulations", 1),
        ("memo.misses", 1),
        ("memo.memory_hits", 200),
        ("memo.disk_hits", 0),
        ("memo.coalesced", 0),
        ("MXM R=100,C=400,R2=400 P=4.serial_simulations", 25),
        ("MXM R=100,C=400,R2=400 P=4.parallel_simulations", 25),
        ("TRFD N=10 (55) L2 P=4.serial_simulations", 25),
        ("TRFD N=10 (55) L2 P=4.parallel_simulations", 25),
    ]),
    ("full", &[
        ("memo.simulations", 1),
        ("memo.misses", 1),
        ("memo.memory_hits", 1000),
        ("memo.disk_hits", 0),
        ("memo.coalesced", 0),
        ("MXM R=3200,C=800,R2=400 P=16.serial_simulations", 25),
        ("MXM R=3200,C=800,R2=400 P=16.parallel_simulations", 25),
        ("TRFD N=50 (1275) L2 P=16.serial_simulations", 25),
        ("TRFD N=50 (1275) L2 P=16.parallel_simulations", 25),
    ]),
    ("replay quick", REPLAY),
    ("replay full", REPLAY),
];

/// Both replay sweeps have 25 slots: all simulate, then all hit disk.
const REPLAY: &[(&str, u64)] = &[
    ("pass1.simulations", 25),
    ("pass1.hits", 0),
    ("pass2.simulations", 0),
    ("pass2.disk_hits", 25),
    ("pass2.memory_hits", 0),
];

/// One experiment grid run on a 1-worker and an N-worker server; the
/// two results are asserted byte-identical.
#[derive(Debug, Serialize)]
struct GridCell {
    name: String,
    /// Simulations each server executed for the grid.
    serial_simulations: u64,
    parallel_simulations: u64,
}

#[derive(Debug, Serialize)]
struct ServeBench {
    mode: String,
    /// Memo-phase requests after the first: each must be a memory hit.
    warm_samples: u64,
    memo_simulations: u64,
    memo_misses: u64,
    memo_memory_hits: u64,
    memo_disk_hits: u64,
    memo_coalesced: u64,
    grid: Vec<GridCell>,
}

/// The memo spec: the heaviest Fig. 6 cell (GDDLB on MXM R=3200,
/// P=16), scaled down under `--quick`.
fn memo_spec(quick: bool) -> RunSpec {
    let (p, cfg) = if quick {
        (4, MxmConfig::new(1600, 400, 400))
    } else {
        (16, MxmConfig::new(3200, 800, 400))
    };
    let cluster = ClusterSpec::paper_homogeneous(p, LOAD_SEED, persistence_for(&cfg.workload()));
    let scfg = StrategyConfig::paper(Strategy::Gddlb, paper_group_size(p));
    RunSpec::new(WorkloadSpec::mxm(cfg), cluster, RunKind::Dlb { cfg: scfg })
}

/// One benchmarkable grid: a closure producing a serializable result on
/// a given server.
struct Grid {
    name: String,
    run: Box<dyn Fn(&RunServer) -> String>,
}

fn mxm_grid(p: usize, cfg: MxmConfig) -> Grid {
    Grid {
        name: format!("MXM {} P={p}", cfg.label()),
        run: Box::new(move |server| {
            serde_json::to_string(&mxm_experiment_with(server, p, cfg)).expect("serialize")
        }),
    }
}

fn trfd_grid(p: usize, cfg: TrfdConfig, which: TrfdLoop) -> Grid {
    Grid {
        name: format!("TRFD {} {} P={p}", cfg.label(), which.label()),
        run: Box::new(move |server| {
            serde_json::to_string(&trfd_loop_experiment_with(server, p, cfg, which))
                .expect("serialize")
        }),
    }
}

/// Serial-vs-parallel determinism on real experiment grids. Both servers
/// start empty and every grid slot is a distinct spec, so every slot
/// simulates on each of them. The parallel server's thread count comes
/// from the host, so it is printed, not written to the JSON.
fn grid_bench(quick: bool) -> Vec<GridCell> {
    let serial = RunServer::new(ServeConfig::new(1, MemoConfig::memory_only()));
    let parallel = RunServer::new(ServeConfig::new(
        ServeConfig::from_env().threads,
        MemoConfig::memory_only(),
    ));
    println!(
        "  parallel server: {} worker thread(s) (informational, not in the JSON)",
        parallel.threads()
    );
    let grids: Vec<Grid> = if quick {
        vec![
            mxm_grid(4, MxmConfig::new(100, 400, 400)),
            trfd_grid(4, TrfdConfig::new(10), TrfdLoop::L2),
        ]
    } else {
        // The heaviest cells of Fig. 6 and Table 2: P = 16, largest data.
        vec![
            mxm_grid(16, MxmConfig::new(3200, 800, 400)),
            trfd_grid(16, TrfdConfig::new(50), TrfdLoop::L2),
        ]
    };
    // Run one grid and count the simulations it cost the server.
    let run = |server: &RunServer, grid: &Grid| {
        let before = server.stats().simulations;
        let out = (grid.run)(server);
        (out, server.stats().simulations - before)
    };
    grids
        .iter()
        .map(|grid| {
            let (serial_out, serial_simulations) = run(&serial, grid);
            let (parallel_out, parallel_simulations) = run(&parallel, grid);
            assert!(
                serial_out == parallel_out,
                "{}: parallel grid diverged from serial — determinism bug",
                grid.name
            );
            println!(
                "  {}: {serial_simulations} serial / {parallel_simulations} parallel \
                 simulation(s), identical",
                grid.name
            );
            GridCell {
                name: grid.name.clone(),
                serial_simulations,
                parallel_simulations,
            }
        })
        .collect()
}

/// CI cache-replay check: the same small sweep twice against one fresh
/// disk memo directory, the second pass on a fresh server served from
/// disk.
fn replay(quick: bool) {
    let dir = std::env::temp_dir().join(format!("dlb-serve-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = 4;
    let cfg = if quick {
        MxmConfig::new(100, 400, 400)
    } else {
        MxmConfig::new(400, 400, 400)
    };
    let pass = || {
        let server = RunServer::new(ServeConfig::new(1, MemoConfig::disk(&dir)));
        let result = mxm_experiment_with(&server, p, cfg);
        (
            serde_json::to_string(&result).expect("serialize"),
            server.stats(),
        )
    };

    // First pass: everything misses and is persisted. Second pass: a
    // fresh server (cold memory) replays from disk.
    let (first, s1) = pass();
    println!(
        "pass 1: {} request(s), {} simulation(s), {} hit(s)",
        s1.requests(),
        s1.simulations,
        s1.hits()
    );
    assert_eq!(s1.hits(), 0, "fresh memo dir must not hit");
    let (second, s2) = pass();
    println!(
        "pass 2: {} request(s), {} simulation(s), {} disk hit(s), {} memory hit(s)",
        s2.requests(),
        s2.simulations,
        s2.disk_hits,
        s2.memory_hits
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(first, second, "replayed sweep diverged from the original");
    println!("cache replay: byte-identical");

    let cell = if quick { "replay quick" } else { "replay full" };
    let actual = counter_rows(
        "",
        &[
            "pass1.simulations",
            "pass1.hits",
            "pass2.simulations",
            "pass2.disk_hits",
            "pass2.memory_hits",
        ],
        &[
            s1.simulations,
            s1.hits(),
            s2.simulations,
            s2.disk_hits,
            s2.memory_hits,
        ],
    );
    check_pins(cell, pinned(cell), &actual);
}

/// The pinned rows of `cell`, if it has any.
fn pinned(cell: &str) -> Option<&'static [(&'static str, u64)]> {
    PINS.iter().find(|(c, _)| *c == cell).map(|&(_, rows)| rows)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--replay") {
        replay(quick);
        return;
    }
    let mut out = (!quick).then(|| "BENCH_serve.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            "--quick" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }
    let mode = if quick { "quick" } else { "full" };
    println!("serve_bench — memo hits + grid determinism [{mode}]\n");
    let t0 = Instant::now();

    // Memo phase: one simulation, then memory-tier hits only.
    let warm_samples: u64 = if quick { 200 } else { 1000 };
    let spec = memo_spec(quick);
    let server = RunServer::new(ServeConfig::new(1, MemoConfig::memory_only()));
    let mut client = server.client();
    client.submit(&spec);
    assert_eq!(
        client.recv_response().source,
        Served::Simulated,
        "first request on a fresh server must simulate"
    );
    for _ in 0..warm_samples {
        client.submit(&spec);
        assert_eq!(
            client.recv_response().source,
            Served::Memory,
            "repeat request must hit the memory tier"
        );
    }
    let memo = server.stats();
    println!(
        "memo (heaviest cell, 1 + {warm_samples} requests): {} simulation(s), {} miss(es), \
         {} memory hit(s), {} disk hit(s), {} coalesced\n",
        memo.simulations, memo.misses, memo.memory_hits, memo.disk_hits, memo.coalesced
    );

    println!("grid determinism (fresh servers, byte-compared):");
    let grid = grid_bench(quick);
    let wall_s = t0.elapsed().as_secs_f64();
    println!("wall {wall_s:.3} s (informational, never gated)");

    let mut actual = counter_rows(
        "memo.",
        &[
            "simulations",
            "misses",
            "memory_hits",
            "disk_hits",
            "coalesced",
        ],
        &[
            memo.simulations,
            memo.misses,
            memo.memory_hits,
            memo.disk_hits,
            memo.coalesced,
        ],
    );
    for g in &grid {
        actual.extend(counter_rows(
            &format!("{}.", g.name),
            &["serial_simulations", "parallel_simulations"],
            &[g.serial_simulations, g.parallel_simulations],
        ));
    }
    let bench = ServeBench {
        mode: mode.to_string(),
        warm_samples,
        memo_simulations: memo.simulations,
        memo_misses: memo.misses,
        memo_memory_hits: memo.memory_hits,
        memo_disk_hits: memo.disk_hits,
        memo_coalesced: memo.coalesced,
        grid,
    };
    if let Some(out) = out {
        let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
        std::fs::write(&out, format!("{json}\n")).expect("write bench output");
        println!("wrote {out}");
    }
    check_pins(mode, pinned(mode), &actual);
}
