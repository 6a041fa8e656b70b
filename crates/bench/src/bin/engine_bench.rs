//! Engine self-benchmark: the per-iteration reference vs the default
//! episode engine (block stepping plus analytic profile completion), on
//! the paper's heaviest MXM cell.
//!
//! Usage:
//!
//! ```text
//! engine_bench [--quick] [--procs P] [--out PATH]
//! ```
//!
//! For noDLB plus each of the four strategies, the run is executed once
//! in each engine mode. The table reports the heap-event totals broken
//! down by kind (compute vs. protocol vs. heartbeat), and the bench
//! asserts that both modes' `RunReport`s serialize to exactly the same
//! bytes (the episode
//! engine's correctness contract — CI fails if it trips). `--quick`
//! scales the cell down for CI smoke; the default is the full Fig. 6
//! cell (MXM R=3200, P=16). Results land in `BENCH_engine.json`
//! (override with `--out`).
//!
//! The CI cells (`--quick`, `--quick --procs 256` and `--quick --procs
//! 1024`) gate every counter of every run kind exactly against the
//! `PINS` table below: one event more or less fails the run. The last
//! pinned value is the FNV-1a of the episode report's JSON, so the
//! P=1024 cell, which skips the reference, still pins report bytes. A change
//! that moves a count re-pins the table in its own diff. Other cells print their counts ungated; the
//! full P=16 cell is pinned by the now-sim test
//! `episode_counters_are_pinned_on_the_full_cell`. Wall time is
//! measured by `perfbench`; the wall numbers here are informational and
//! stay out of `BENCH_engine.json`: the aggregate wall, and per run kind
//! the episode run's wall time and that time divided by the run's
//! control messages (its profiles, interrupts and instructions — at
//! large P nearly all of them profile broadcasts).
//!
//! `--procs P` runs a **large-P scaling cell** instead of the paper
//! cell: the iteration count scales with P (constant work per
//! processor), the strategy set narrows to noDLB + GDDLB + LCDLB +
//! LDDLB (one global-distributed scheme and both local ones), and LCDLB
//! runs under a two-level group hierarchy (DESIGN.md §S16) once P ≥ 64.
//! At P ≥ 1024 the per-iteration reference is skipped — its
//! per-iteration and per-profile events are exactly the cost this cell
//! demonstrates the episode engine avoids — so no byte-identity assert
//! runs there (the reference is pinned separately by the P=64
//! equivalence test).

use dlb_apps::MxmConfig;
use dlb_bench::{
    check_pins, counter_rows, format_table, paper_group_size, persistence_for, Align, LOAD_SEED,
};
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{fnv1a64, RunKind, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineCounters, EngineMode};
use serde::Serialize;
use std::time::Instant;

/// The counters of one run kind, in pin order: the reference's heap
/// events, then the episode engine's [`EngineCounters`] event counts.
const COUNTERS: [&str; 6] = [
    "events_per_iter",
    "events",
    "compute_events",
    "protocol_events",
    "heartbeat_events",
    "report_fnv",
];

/// One cell's pinned counts: a run kind and its `COUNTERS` values.
type KindPins = &'static [(&'static str, [u64; 6])];

/// Exact counts per cell and run kind.
#[rustfmt::skip]
const PINS: &[(&str, KindPins)] = &[
    ("quick paper P=4", &[
        ("noDLB", [100, 4, 4, 0, 0, 0xedbbd01dca946d69]),
        ("GCDLB", [149, 71, 32, 39, 0, 0x3af24ddb4e681d5f]),
        ("GDDLB", [177, 76, 30, 46, 0, 0x61b7458f5e89a825]),
        ("LCDLB", [129, 39, 15, 24, 0, 0x84e1e0145fd07089]),
        ("LDDLB", [129, 41, 16, 25, 0, 0x23c572a8de2026f3]),
    ]),
    ("quick scaling P=256", &[
        ("noDLB", [6400, 256, 256, 0, 0, 0x90967468625b3864]),
        ("GDDLB", [169047, 3779, 1183, 2596, 0, 0x561f06f0a608e260]),
        ("LCDLB", [8310, 2401, 970, 1431, 0, 0x71ee0b1021b6e0e7]),
        ("LDDLB", [10869, 2401, 817, 1584, 0, 0xeec1e64af3f2d40f]),
    ]),
    ("quick scaling P=1024", &[
        ("noDLB", [0, 1024, 1024, 0, 0, 0x561427b34359846f]),
        ("GDDLB", [0, 10352, 3312, 7040, 0, 0xe629e266cb3e44d6]),
        ("LCDLB", [0, 7705, 3055, 4650, 0, 0xb3283504528607ec]),
        ("LDDLB", [0, 9886, 3260, 6626, 0, 0x39291d5f9e7dcbc8]),
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
    /// FNV-1a of the episode report's JSON.
    report_fnv: u64,
    /// Both modes' reports serialize to exactly the same bytes (`false`
    /// when the reference was skipped, at P ≥ 1024).
    identical: bool,
}

impl RunBench {
    /// This run's counts in `COUNTERS` order.
    fn counts(&self) -> [u64; 6] {
        [
            self.events_per_iter,
            self.events_episode,
            self.episode_compute_events,
            self.episode_protocol_events,
            self.episode_heartbeat_events,
            self.report_fnv,
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
fn rows<'a>(kinds: impl IntoIterator<Item = (&'a str, [u64; 6])>) -> Vec<(String, u64)> {
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
        // One global-distributed strategy and both local ones — the
        // protocol shapes whose scaling differs. LCDLB gets the §S16
        // two-level hierarchy once there are enough groups for domains
        // to mean anything; LDDLB, whose overlapping group episodes fall
        // back most often, runs flat.
        kinds.push((
            Strategy::Gddlb.to_string(),
            Some(StrategyConfig::paper(Strategy::Gddlb, group)),
        ));
        let mut lc = StrategyConfig::paper(Strategy::Lcdlb, group);
        if p >= 64 {
            lc = lc.with_hierarchy(2, 8);
        }
        kinds.push((Strategy::Lcdlb.to_string(), Some(lc)));
        kinds.push((
            Strategy::Lddlb.to_string(),
            Some(StrategyConfig::paper(Strategy::Lddlb, group)),
        ));
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
        let run_t0 = Instant::now();
        let (epi_report, epi) = spec
            .clone()
            .with_mode(EngineMode::Episode)
            .execute_counted();
        let run_wall = run_t0.elapsed();
        let ctl = epi_report.stats.control_messages;
        let epi_json = serde_json::to_string(&epi_report).expect("serialize report");
        // Reference skipped at P ≥ 1024: its column reads 0 and no
        // byte-identity check runs.
        let ref_counters = if run_reference {
            let (ref_report, ref_counters) = spec.with_mode(EngineMode::PerIter).execute_counted();
            assert!(
                serde_json::to_string(&ref_report).expect("serialize report") == epi_json,
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
            if run_reference { "yes" } else { "-" }.to_string(),
            format!("{:.1}", run_wall.as_secs_f64() * 1e3),
            if ctl == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", run_wall.as_nanos() as f64 / ctl as f64)
            },
        ]);
        runs.push(RunBench {
            name: name.clone(),
            events_per_iter: ref_counters.events,
            events_episode: epi.events,
            episode_compute_events: epi.compute_events,
            episode_protocol_events: epi.protocol_events,
            episode_heartbeat_events: epi.heartbeat_events,
            report_fnv: fnv1a64(epi_json.as_bytes()),
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
                "identical",
                "epi ms",
                "ns/ctl msg"
            ],
            &[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right
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
