//! Run-server with a two-tier content-addressed result memo.
//!
//! Every consumer of the simulator used to respawn the whole world per
//! invocation and recompute cells earlier runs had already produced
//! byte-identically. This crate turns the simulator into a *service*:
//! describe a run as a pure [`RunSpec`] value, submit it to a
//! [`RunServer`], and get the serialized `RunReport` back — from the
//! in-memory memo (microseconds), from the on-disk memo (one file read,
//! surviving process restarts), or from exactly one simulation however
//! many clients asked concurrently (single-flight deduplication).
//!
//! Std-only: worker threads over an `mpsc` queue, which a client
//! blocked on a reply also drains, a mutex-guarded map, plain files. See `DESIGN.md` §S15 for the architecture, the memo-key
//! derivation, and the single-flight protocol; `crates/bench`'s
//! `serve_bench` pins the memo's hit counts and the worker pool's grid
//! determinism into `BENCH_serve.json`.
//!
//! Environment knobs:
//!
//! * `DLB_SERVE_THREADS` — worker threads of [`global`] (default: the
//!   machine's available parallelism);
//! * `DLB_MEMO_DIR` — enables the persistent disk tier of [`global`]
//!   at the given directory (default: memory tier only).

pub mod memo;
pub mod server;
pub mod spec;

pub use memo::{MemoConfig, MemoStore, Tier};
pub use server::{
    RunFailed, RunServer, ServeClient, ServeConfig, ServeResponse, ServeStats, Served,
    StatsSnapshot,
};
pub use spec::{fnv1a64, MemoKey, RunKind, RunSpec, WorkloadSpec};

use std::sync::OnceLock;

static GLOBAL: OnceLock<RunServer> = OnceLock::new();

/// The process-wide server, created on first use from the environment
/// (`DLB_SERVE_THREADS`, `DLB_MEMO_DIR`). The fig/table bins, the
/// experiment grids, and the chaos campaign all route through this one
/// instance so duplicate cells across an invocation coalesce, and — with
/// `DLB_MEMO_DIR` set — replay across invocations.
///
/// The global server is never dropped; its workers idle on an empty
/// queue until the process exits.
pub fn global() -> &'static RunServer {
    GLOBAL.get_or_init(RunServer::from_env)
}
