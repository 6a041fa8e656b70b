//! Engine self-benchmark: the per-iteration reference vs the default
//! episode engine (block stepping plus episode fast-forward), on the
//! paper's heaviest MXM cell.
//!
//! Usage:
//!
//! ```text
//! engine_bench [--quick] [--procs P] [--out PATH]
//! ```
//!
//! For noDLB plus each of the four strategies, the run is executed once
//! in each engine mode. The table reports the heap-event totals broken
//! down by kind (compute vs. protocol vs. heartbeat) and the episode
//! fast-forward commit/fallback counts, and the bench asserts that both
//! modes' `RunReport`s serialize to exactly the same bytes (the episode
//! engine's correctness contract — CI fails if it trips). `--quick`
//! scales the cell down for CI smoke; the default is the full Fig. 6
//! cell (MXM R=3200, P=16). Results land in `BENCH_engine.json`
//! (override with `--out`).
//!
//! The CI cells (`--quick` and `--quick --procs 256`) gate every counter
//! of every run kind exactly against the `PINS` table below: one event
//! more or less fails the run. A change that moves a count re-pins the
//! table in its own diff. Other cells print their counts ungated; the
//! full P=16 cell is pinned by the now-sim test
//! `fast_forward_engagement_is_pinned_on_the_full_cell`. Wall time is
//! measured by `perfbench`; the one wall number here is informational.
//!
//! `--procs P` runs a **large-P scaling cell** instead of the paper
//! cell: the iteration count scales with P (constant work per
//! processor), the strategy set narrows to noDLB + GDDLB + LCDLB (one
//! global-distributed, one local-centralized — the two protocol
//! shapes), and LCDLB runs under a two-level group hierarchy
//! (DESIGN.md §S16) once P ≥ 64. At P ≥ 1024 the per-iteration
//! reference is skipped — its O(P) broadcast replay is exactly the
//! cost this cell demonstrates the episode engine avoids — so no
//! byte-identity assert runs there (the reference is pinned separately
//! by the P=64 equivalence test).

use dlb_apps::MxmConfig;
use dlb_bench::{
    check_pins, counter_rows, format_table, paper_group_size, persistence_for, Align, LOAD_SEED,
};
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{RunKind, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineCounters, EngineMode};
use serde::Serialize;
use std::time::Instant;

/// The counters of one run kind, in pin order: the reference's heap
/// events, then the episode engine's [`EngineCounters`].
const COUNTERS: [&str; 11] = [
    "events_per_iter",
    "events",
    "compute_events",
    "protocol_events",
    "heartbeat_events",
    "episodes_fast_forwarded",
    "episodes_fallback",
    "ff_fallback_foreign",
    "ff_fallback_fault",
    "ff_fallback_delay",
    "ff_fallback_switch",
];

/// One cell's pinned counts: a run kind and its `COUNTERS` values.
type KindPins = &'static [(&'static str, [u64; 11])];

/// Exact counts per cell and run kind.
#[rustfmt::skip]
const PINS: &[(&str, KindPins)] = &[
    ("quick paper P=4", &[
        ("noDLB", [100, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
        ("GCDLB", [149, 25, 21, 4, 0, 4, 0, 0, 0, 0, 0]),
        ("GDDLB", [177, 23, 19, 4, 0, 4, 0, 0, 0, 0, 0]),
        ("LCDLB", [129, 26, 12, 14, 0, 3, 2, 2, 0, 0, 0]),
        ("LDDLB", [129, 22, 12, 10, 0, 4, 1, 1, 0, 0, 0]),
    ]),
    ("quick scaling P=256", &[
        ("noDLB", [6400, 256, 256, 0, 0, 0, 0, 0, 0, 0, 0]),
        ("GDDLB", [169047, 350, 346, 4, 0, 4, 0, 0, 0, 0, 0]),
        ("LCDLB", [8310, 2867, 968, 1899, 0, 2, 74, 74, 0, 0, 0]),
    ]),
];

#[derive(Debug, Serialize)]
struct RunBench {
    name: String,
    /// Heap events pushed by the per-iteration reference (0 when it was
    /// skipped, at P ≥ 1024).
    events_per_iter: u64,
    /// Episode-mode event total and its breakdown by kind.
    events_episode: u64,
    episode_compute_events: u64,
    episode_protocol_events: u64,
    episode_heartbeat_events: u64,
    /// Sync episodes fast-forwarded analytically vs. replayed
    /// per-message (fallback).
    episodes_fast_forwarded: u64,
    episodes_fallback: u64,
    /// Fallback causes: a foreign (cross-group) message arrived in the
    /// window, a fault intersected the episode, a delay régime change
    /// invalidated the cached timings, or a §S17 strategy switch forced
    /// the group's next episode onto the per-message path.
    ff_fallback_foreign: u64,
    ff_fallback_fault: u64,
    ff_fallback_delay: u64,
    ff_fallback_switch: u64,
    /// Both modes' reports serialize to exactly the same bytes (`false`
    /// when the reference was skipped, at P ≥ 1024).
    identical: bool,
}

impl RunBench {
    /// This run's counts in `COUNTERS` order.
    fn counts(&self) -> [u64; 11] {
        [
            self.events_per_iter,
            self.events_episode,
            self.episode_compute_events,
            self.episode_protocol_events,
            self.episode_heartbeat_events,
            self.episodes_fast_forwarded,
            self.episodes_fallback,
            self.ff_fallback_foreign,
            self.ff_fallback_fault,
            self.ff_fallback_delay,
            self.ff_fallback_switch,
        ]
    }
}

#[derive(Debug, Serialize)]
struct EngineBench {
    /// The pin-table cell name.
    cell: String,
    runs: Vec<RunBench>,
    total_events_per_iter: u64,
    total_events_episode: u64,
    /// Wall-clock of the whole bench, seconds. Informational and never
    /// gated: wall-time claims cite `perfbench`.
    informational_wall_s: f64,
}

/// `(kind.counter, value)` rows of every run kind, for [`check_pins`].
fn rows<'a>(kinds: impl IntoIterator<Item = (&'a str, [u64; 11])>) -> Vec<(String, u64)> {
    kinds
        .into_iter()
        .flat_map(|(kind, counts)| counter_rows(&format!("{kind}."), &COUNTERS, &counts))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out = "BENCH_engine.json".to_string();
    let mut procs_override: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a path").clone(),
            "--procs" => {
                let p: usize = it
                    .next()
                    .expect("--procs needs a count")
                    .parse()
                    .expect("--procs needs a number");
                assert!(p >= 2, "--procs must be at least 2");
                procs_override = Some(p);
            }
            "--quick" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }

    let (p, cfg) = match procs_override {
        // Large-P scaling cell: constant work per processor, so the
        // events-vs-P curve isolates per-event protocol cost.
        Some(p) => {
            let r = (if quick { 25 } else { 100 }) * p as u64;
            (p, MxmConfig::new(r, if quick { 400 } else { 800 }, 400))
        }
        None if quick => (4, MxmConfig::new(100, 400, 400)),
        // The heaviest Fig. 6 cell: one simulated event per iteration in
        // the reference path means R = 3200 iter events per noDLB run.
        None => (16, MxmConfig::new(3200, 800, 400)),
    };
    let cell = format!(
        "{} {} P={p}",
        if quick { "quick" } else { "full" },
        if procs_override.is_some() {
            "scaling"
        } else {
            "paper"
        }
    );
    // The O(P)-broadcast reference path is the cost the large-P cell
    // exists to show the episode engine shedding — running it at
    // P ≥ 1024 would dominate the bench for no signal (the P=64
    // equivalence test pins the reference separately).
    let run_reference = procs_override.is_none_or(|p| p < 1024);
    let wl = WorkloadSpec::mxm(cfg);
    let cluster = ClusterSpec::paper_homogeneous(p, LOAD_SEED, persistence_for(&cfg.workload()));
    // Paper cells keep the paper's K=P/2 grouping; scaling cells hold K
    // constant so the *group count* grows with P, which is the regime
    // the §S16 hierarchy exists for.
    let group = if procs_override.is_some() {
        8.min(p)
    } else {
        paper_group_size(p)
    };

    println!(
        "engine_bench — per-iteration vs episode on MXM {} P={p} ({cell})",
        cfg.label()
    );
    println!("(exact event counts per mode; reports byte-compared across both)\n");

    let mut kinds: Vec<(String, Option<StrategyConfig>)> = vec![("noDLB".into(), None)];
    if procs_override.is_some() {
        // One global-distributed and one local-centralized strategy —
        // the two protocol shapes whose scaling differs. LCDLB gets the
        // §S16 two-level hierarchy once there are enough groups for
        // domains to mean anything.
        kinds.push((
            Strategy::Gddlb.to_string(),
            Some(StrategyConfig::paper(Strategy::Gddlb, group)),
        ));
        let mut lc = StrategyConfig::paper(Strategy::Lcdlb, group);
        if p >= 64 {
            lc = lc.with_hierarchy(2, 8);
        }
        kinds.push((Strategy::Lcdlb.to_string(), Some(lc)));
    } else {
        for s in Strategy::ALL {
            kinds.push((s.to_string(), Some(StrategyConfig::paper(s, group))));
        }
    }

    let t0 = Instant::now();
    let mut rows_out = Vec::new();
    let mut runs = Vec::new();
    for (name, scfg) in &kinds {
        let kind = match scfg {
            None => RunKind::NoDlb,
            Some(cfg) => RunKind::Dlb { cfg: *cfg },
        };
        let spec = RunSpec::new(wl.clone(), cluster.clone(), kind);
        let (epi_report, epi) = spec
            .clone()
            .with_mode(EngineMode::Episode)
            .execute_counted();
        // Reference skipped at P ≥ 1024: its column reads 0 and no
        // byte-identity check runs.
        let ref_counters = if run_reference {
            let (ref_report, ref_counters) = spec.with_mode(EngineMode::PerIter).execute_counted();
            assert!(
                serde_json::to_string(&ref_report).expect("serialize report")
                    == serde_json::to_string(&epi_report).expect("serialize report"),
                "{name}: episode report diverged from the per-iteration reference"
            );
            ref_counters
        } else {
            EngineCounters::default()
        };
        rows_out.push(vec![
            name.clone(),
            format!("{}", ref_counters.events),
            format!(
                "{}={}c+{}p+{}h",
                epi.events, epi.compute_events, epi.protocol_events, epi.heartbeat_events
            ),
            format!(
                "{}/{}",
                epi.episodes_fast_forwarded,
                epi.episodes_fast_forwarded + epi.episodes_fallback
            ),
            format!(
                "{}f+{}F+{}d+{}s",
                epi.ff_fallback_foreign,
                epi.ff_fallback_fault,
                epi.ff_fallback_delay,
                epi.ff_fallback_switch
            ),
            if run_reference { "yes" } else { "-" }.to_string(),
        ]);
        runs.push(RunBench {
            name: name.clone(),
            events_per_iter: ref_counters.events,
            events_episode: epi.events,
            episode_compute_events: epi.compute_events,
            episode_protocol_events: epi.protocol_events,
            episode_heartbeat_events: epi.heartbeat_events,
            episodes_fast_forwarded: epi.episodes_fast_forwarded,
            episodes_fallback: epi.episodes_fallback,
            ff_fallback_foreign: epi.ff_fallback_foreign,
            ff_fallback_fault: epi.ff_fallback_fault,
            ff_fallback_delay: epi.ff_fallback_delay,
            ff_fallback_switch: epi.ff_fallback_switch,
            identical: run_reference,
        });
    }
    let informational_wall_s = t0.elapsed().as_secs_f64();

    println!(
        "{}",
        format_table(
            &[
                "run",
                "ev ref",
                "ev epi (c/p/h)",
                "ff/eps",
                "fb why",
                "identical"
            ],
            &[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ],
            &rows_out
        )
    );

    let bench = EngineBench {
        cell: cell.clone(),
        total_events_per_iter: runs.iter().map(|r| r.events_per_iter).sum(),
        total_events_episode: runs.iter().map(|r| r.events_episode).sum(),
        runs,
        informational_wall_s,
    };
    println!(
        "cell aggregate: {} reference events, {} episode events; \
         wall {informational_wall_s:.3} s (informational, never gated)",
        bench.total_events_per_iter, bench.total_events_episode
    );
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write(&out, format!("{json}\n")).expect("write bench output");
    println!("wrote {out}");

    let pinned = PINS
        .iter()
        .find(|(c, _)| *c == cell)
        .map(|(_, kinds)| rows(kinds.iter().copied()));
    let actual = rows(bench.runs.iter().map(|r| (r.name.as_str(), r.counts())));
    check_pins(&cell, pinned.as_deref(), &actual);
}
