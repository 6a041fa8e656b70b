//! §S17 adaptive re-customization benchmark (EXPERIMENTS.md §FT3).
//!
//! Usage:
//!
//! ```text
//! adaptive_bench [--quick] [--out PATH]
//! ```
//!
//! Two drift cells (P=16 and P=64) where **no static strategy is right
//! for the whole run**: a congested shared medium plus two-phase
//! external load — intra-group drift first (local strategies win,
//! global ones pay P-wide control rounds), then saturation of one whole
//! group (the work must leave the group, which only a global strategy
//! arranges). On each cell every static strategy runs alongside the
//! adaptive policy started from the phase-1 winner (LDDLB); the bench
//! **asserts** the adaptive run beats every static one and that the
//! handover invariants held (no mid-episode switch, no stale
//! instruction applied, all iterations executed exactly once). A third,
//! drift-free control cell asserts the adaptive run *without* a switch
//! is byte-identical to its static counterpart — the policy's overhead
//! when it has nothing to do is exactly zero. All adaptive cells run in
//! both engine modes and must agree byte for byte.
//!
//! The full run writes its results to the committed
//! `BENCH_adaptive.json` (or to `--out`). `--quick` runs only the P=16
//! cell and the control cell (CI smoke) and writes JSON only to an
//! explicit `--out`.

use dlb_bench::{format_table, Align};
use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use now_load::LoadSpec;
use now_serve::{RunKind, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode, RunReport};
use serde::Serialize;

/// Two-phase drift at K=2 on a 4x-congested shared medium — the same
/// cell family `crates/sim/tests/adaptive_handover.rs` pins, at bench
/// scale.
fn drift_cluster(p: usize, phase_at: f64) -> ClusterSpec {
    let dwell = 0.45;
    let mut cluster = ClusterSpec::dedicated(p);
    cluster.net.send_overhead *= 4.0;
    cluster.net.frame_overhead *= 4.0;
    cluster.net.recv_overhead *= 4.0;
    cluster.net.bandwidth /= 4.0;
    let phase_steps = (phase_at / dwell).round() as usize;
    for g in 0..p / 2 {
        let mut levels: Vec<u32> = (0..phase_steps).map(|s| [3, 0, 4, 1][s % 4]).collect();
        levels.extend(std::iter::repeat_n(0u32, 200));
        cluster.loads[2 * g + 1] = LoadSpec::Trace {
            levels,
            persistence: dwell,
        };
    }
    for m in [0usize, 1] {
        let mut levels = vec![0u32; phase_steps];
        levels.extend(std::iter::repeat_n(5u32, 200));
        cluster.loads[m] = LoadSpec::Trace {
            levels,
            persistence: dwell,
        };
    }
    cluster
}

fn local_first() -> AdaptiveConfig {
    AdaptiveConfig {
        window: 1,
        min_episodes_between: 2,
        ..AdaptiveConfig::paper(Strategy::Lddlb, 2)
    }
}

#[derive(Debug, Serialize)]
struct StaticResult {
    strategy: String,
    total_time: f64,
}

#[derive(Debug, Serialize)]
struct CellResult {
    name: String,
    procs: usize,
    iterations: u64,
    adaptive_time: f64,
    best_static_time: f64,
    /// best_static_time / adaptive_time (> 1 means switching won).
    win: f64,
    switches: usize,
    from: String,
    to: String,
    switch_at: f64,
    decisions: u64,
    deferred: u64,
    mid_episode_switches: u64,
    stale_applied: u64,
    stale_dropped: u64,
    mode_identical: bool,
    statics: Vec<StaticResult>,
}

#[derive(Debug, Serialize)]
struct AdaptiveBench {
    mode: String,
    cells: Vec<CellResult>,
    /// Drift-free control: adaptive-without-a-switch vs static, byte
    /// compared.
    control_identical: bool,
}

fn run_spec(spec: &RunSpec) -> (RunReport, String) {
    let mut client = now_serve::global().client();
    client.submit(spec);
    let resp = client.recv_response();
    let report = serde_json::from_str::<RunReport>(&resp.bytes).expect("report parses");
    (report, resp.bytes.as_ref().clone())
}

fn drift_cell(name: &str, p: usize, iters: u64, bytes_per_iter: u64, phase_at: f64) -> CellResult {
    let wl = WorkloadSpec::Uniform {
        iterations: iters,
        iter_cost: 0.01,
        bytes_per_iter,
    };
    let cluster = drift_cluster(p, phase_at);
    let acfg = local_first();
    let adaptive_spec = RunSpec::new(wl.clone(), cluster.clone(), RunKind::Adaptive { cfg: acfg })
        .with_mode(EngineMode::Episode);
    let (adaptive, episode_bytes) = run_spec(&adaptive_spec);
    assert_eq!(adaptive.total_iters, iters, "{name}: lost work in handover");
    let a = adaptive
        .adaptive
        .clone()
        .expect("adaptive run carries accounting");
    assert_eq!(a.mid_episode_switches, 0, "{name}: switch in open episode");
    assert_eq!(a.stale_applied, 0, "{name}: stale instruction applied");
    assert!(!a.switches.is_empty(), "{name}: drift cell must switch");

    // Byte-identity against the reference on the switching run.
    let (_, reference_bytes) = run_spec(&adaptive_spec.clone().with_mode(EngineMode::PerIter));
    let identical = reference_bytes == episode_bytes;
    assert!(identical, "{name}: engine modes diverged on adaptive run");

    let mut statics = Vec::new();
    for s in Strategy::ALL {
        let spec = RunSpec::new(
            wl.clone(),
            cluster.clone(),
            RunKind::Dlb {
                cfg: StrategyConfig::paper(s, 2),
            },
        )
        .with_mode(EngineMode::Episode);
        let (report, _) = run_spec(&spec);
        assert_eq!(report.total_iters, iters, "{name}: static {s} lost work");
        assert!(
            adaptive.total_time < report.total_time,
            "{name}: adaptive {} must beat static {s} {}",
            adaptive.total_time,
            report.total_time
        );
        statics.push(StaticResult {
            strategy: s.to_string(),
            total_time: report.total_time,
        });
    }
    let best_static_time = statics
        .iter()
        .map(|r| r.total_time)
        .fold(f64::INFINITY, f64::min);
    let sw = &a.switches[0];
    CellResult {
        name: name.to_string(),
        procs: p,
        iterations: iters,
        adaptive_time: adaptive.total_time,
        best_static_time,
        win: best_static_time / adaptive.total_time,
        switches: a.switches.len(),
        from: sw.from.to_string(),
        to: sw.to.to_string(),
        switch_at: sw.at,
        decisions: a.decisions,
        deferred: a.deferred,
        mid_episode_switches: a.mid_episode_switches,
        stale_applied: a.stale_applied,
        stale_dropped: a.stale_dropped,
        mode_identical: identical,
        statics,
    }
}

/// Drift-free control: the adaptive policy over a stable homogeneous
/// cluster must never switch, and its report must be byte-identical to
/// the static run of its initial strategy — zero overhead when there is
/// nothing to adapt to.
fn control_cell() -> bool {
    let wl = WorkloadSpec::Uniform {
        iterations: 8_000,
        iter_cost: 0.01,
        bytes_per_iter: 800,
    };
    // Constant external load: the observed rates never move, so the
    // re-decision keeps confirming the incumbent inside hysteresis.
    let mut cluster = ClusterSpec::dedicated(8);
    cluster.loads[7] = LoadSpec::Constant { level: 3 };
    let acfg = AdaptiveConfig::paper(Strategy::Gddlb, 2);
    let (adaptive, _) = run_spec(
        &RunSpec::new(wl.clone(), cluster.clone(), RunKind::Adaptive { cfg: acfg })
            .with_mode(EngineMode::Episode),
    );
    let a = adaptive.adaptive.clone().expect("adaptive accounting");
    assert!(a.switches.is_empty(), "control cell must not switch: {a:?}");
    let (stat, _) = run_spec(
        &RunSpec::new(wl, cluster, RunKind::Dlb { cfg: acfg.initial })
            .with_mode(EngineMode::Episode),
    );
    // Identical dynamics: the policy only observed. (The reports differ
    // exactly in the adaptive accounting block, so compare the dynamics
    // fields.)
    let same = adaptive.total_time == stat.total_time
        && adaptive.total_iters == stat.total_iters
        && adaptive.sync_times == stat.sync_times
        && adaptive.per_proc == stat.per_proc;
    assert!(same, "control cell: adaptive dynamics diverged from static");
    same
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut out = (!quick).then(|| "BENCH_adaptive.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().expect("--out needs a path").clone()),
            "--quick" => {}
            other => panic!("unknown argument {other:?}"),
        }
    }

    println!(
        "adaptive_bench — §S17 switching vs every static strategy{}",
        if quick { " [quick]" } else { "" }
    );
    println!(
        "(two-phase drift on a congested medium; LDDLB start, re-decide at episode boundaries)\n"
    );

    let mut cells = vec![drift_cell("drift-p16", 16, 24_000, 800, 12.0)];
    if !quick {
        cells.push(drift_cell("drift-p64", 64, 96_000, 400, 8.0));
    }
    let control_identical = control_cell();

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.procs.to_string(),
                format!("{:.3}", c.adaptive_time),
                format!("{:.3}", c.best_static_time),
                format!("{:.2}x", c.win),
                format!("{}→{} @{:.1}s", c.from, c.to, c.switch_at),
                format!("{}/{}", c.decisions, c.deferred),
                "0/0".to_string(), // asserted above
                if c.mode_identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "cell",
                "P",
                "adaptive [s]",
                "best static [s]",
                "win",
                "switch",
                "dec/defer",
                "viol",
                "modes",
            ],
            &[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
            ],
            &rows
        )
    );
    println!("control cell (no drift): adaptive dynamics byte-identical to static — ok");

    let bench = AdaptiveBench {
        mode: if quick { "quick" } else { "full" }.to_string(),
        cells,
        control_identical,
    };
    if let Some(out) = out {
        let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
        std::fs::write(&out, format!("{json}\n")).expect("write bench output");
        println!("wrote {out}");
    }
}
