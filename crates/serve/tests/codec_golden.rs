//! Byte pins and properties for the JSON codec.
//!
//! The pins are the FNV-1a hash of every shape the workspace serializes:
//! run reports of each kind, the canonical bytes of specs covering every
//! `RunKind`, `LoadSpec` variant, `FaultPlan` field and `EngineMode`,
//! and the pretty text of a `BENCH_*`-shaped record. Report bytes are
//! the memo's payload and canonical bytes are its keys, so any codec
//! change that moves one of these hashes would silently orphan or
//! corrupt persisted results: it must not happen without an
//! `ENGINE_VERSION` bump.
//!
//! The properties run random specs, plans and reports through the codec:
//! they read back equal from compact text, pretty text and text with
//! reordered, unknown and duplicated fields; their canonical bytes
//! survive the trip; and damaged text (trailing garbage, truncation,
//! unknown variants, out-of-range integers, wrong shapes) is an `Err`,
//! never a panic.

use dlb_core::loopsched::ChunkScheme;
use dlb_core::strategy::{AdaptiveConfig, Grouping, Strategy, StrategyConfig};
use dlb_core::DlbStats;
use now_fault::{
    CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, PartitionSpec, RecoverSpec, StallSpec,
};
use now_fault::{DetectionRecord, FaultReport, RejoinRecord};
use now_load::LoadSpec;
use now_net::MediumKind;
use now_serve::{fnv1a64, RunKind, RunSpec, WorkloadSpec};
use now_sim::{
    AdaptiveReport, ClusterSpec, EngineMode, ProcSummary, RunReport, SwitchRecord, ENGINE_VERSION,
};
use proptest::prelude::*;
use proptest::rng::Rng;
use serde::value::Value;
use serde::{Deserialize, Serialize};

fn hash(text: &str) -> String {
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// Compare a whole table at once so a failure lists every moved pin.
fn check(got: Vec<(&'static str, String)>, want: &[(&str, &str)]) {
    let want: Vec<(&str, String)> = want.iter().map(|&(n, h)| (n, h.to_string())).collect();
    assert_eq!(got, want, "serialized bytes changed");
}

fn uniform(iterations: u64) -> WorkloadSpec {
    WorkloadSpec::Uniform {
        iterations,
        iter_cost: 0.01,
        bytes_per_iter: 400,
    }
}

fn gd() -> StrategyConfig {
    StrategyConfig::paper(Strategy::Gddlb, 2)
}

/// A crash with a later rejoin: the report carries both a detection and
/// a rejoin record.
fn crash_and_rejoin() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashSpec { proc: 3, at: 0.5 }],
        recoveries: vec![RecoverSpec { proc: 3, at: 1.0 }],
        ..FaultPlan::default()
    }
}

/// Every `FaultPlan` field populated.
fn full_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashSpec { proc: 1, at: 0.25 }],
        stalls: vec![StallSpec {
            proc: 2,
            from: 0.1,
            until: 0.6,
        }],
        loss: Some(LossSpec {
            prob: 0.05,
            seed: 17,
        }),
        delay: Some(DelaySpec {
            factor: 3.5,
            from: 0.0,
            until: 1.5,
        }),
        recoveries: vec![RecoverSpec { proc: 1, at: 0.9 }],
        partitions: vec![PartitionSpec {
            from: 0,
            to: 3,
            start: 0.2,
            heal: 0.4,
        }],
    }
}

/// The two-phase drift cell of the adaptive handover tests, at P=16: a
/// local-first adaptive run on it switches strategy.
fn drift_cluster() -> ClusterSpec {
    let (p, dwell, phase_steps) = (16, 0.45, 27);
    let mut cluster = ClusterSpec::dedicated(p);
    cluster.net.send_overhead *= 4.0;
    cluster.net.frame_overhead *= 4.0;
    cluster.net.recv_overhead *= 4.0;
    cluster.net.bandwidth /= 4.0;
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

fn report_json(spec: &RunSpec) -> (RunReport, String) {
    let report = spec.execute();
    let json = serde_json::to_string(&report).expect("reports serialize");
    (report, json)
}

#[test]
fn report_bytes_pinned() {
    let paper = ClusterSpec::paper_homogeneous(4, 7, 0.5);
    let mut got = Vec::new();

    let (_, json) = report_json(&RunSpec::new(
        uniform(2000),
        paper.clone(),
        RunKind::Dlb { cfg: gd() },
    ));
    got.push(("fault-free", hash(&json)));

    let (report, json) = report_json(
        &RunSpec::new(
            uniform(4000),
            ClusterSpec::dedicated(4),
            RunKind::Dlb { cfg: gd() },
        )
        .with_faults(crash_and_rejoin(), FailurePolicy::default()),
    );
    let faults = report.faults.expect("fault accounting");
    assert!(!faults.detections.is_empty() && !faults.rejoins.is_empty());
    got.push(("faulted", hash(&json)));

    let (report, json) = report_json(&RunSpec::new(
        uniform(24_000),
        drift_cluster(),
        RunKind::Adaptive {
            cfg: AdaptiveConfig {
                window: 1,
                min_episodes_between: 2,
                ..AdaptiveConfig::paper(Strategy::Lddlb, 2)
            },
        },
    ));
    assert!(!report
        .adaptive
        .expect("adaptive accounting")
        .switches
        .is_empty());
    got.push(("adaptive", hash(&json)));

    let (_, json) = report_json(&RunSpec::new(
        uniform(2000),
        paper.clone(),
        RunKind::TaskQueue {
            scheme: ChunkScheme::FixedChunk(16),
        },
    ));
    got.push(("task-queue", hash(&json)));

    let (_, json) = report_json(&RunSpec::new(
        uniform(2000),
        paper,
        RunKind::Periodic { cfg: gd(), dt: 0.3 },
    ));
    got.push(("periodic", hash(&json)));

    check(
        got,
        &[
            ("fault-free", "a01432f959740bc1"),
            ("faulted", "c84a3bf3bf56b63c"),
            ("adaptive", "6a97c86bc810d85c"),
            ("task-queue", "8fb44d1d4b46b72b"),
            ("periodic", "43229213689e19f3"),
        ],
    );
}

/// Specs covering every `RunKind`, `WorkloadSpec` and `LoadSpec`
/// variant, every `FaultPlan` field, both engine modes, and the two
/// canonical normalizations (empty plan, task queue).
fn spec_matrix() -> Vec<(&'static str, RunSpec)> {
    let mut loads = ClusterSpec::paper_homogeneous(4, 11, 1.0);
    loads.loads[1] = LoadSpec::Constant { level: 2 };
    loads.loads[2] = LoadSpec::Zero;
    loads.loads[3] = LoadSpec::Trace {
        levels: vec![0, 3, 1, 5],
        persistence: 0.75,
    };
    let adaptive = AdaptiveConfig {
        hysteresis: 0.2,
        ..AdaptiveConfig::paper(Strategy::Gcdlb, 2)
    };
    let mut odd_policy = FailurePolicy::default();
    odd_policy.heartbeat_interval *= 3.0;
    odd_policy.max_retries += 2;
    vec![
        (
            "nodlb-loads-episode",
            RunSpec::new(uniform(500), loads.clone(), RunKind::NoDlb),
        ),
        (
            "dlb-mxm-periter",
            RunSpec::new(
                WorkloadSpec::Mxm {
                    r: 100,
                    c: 400,
                    r2: 400,
                },
                ClusterSpec::dedicated(4),
                RunKind::Dlb {
                    cfg: StrategyConfig::paper(Strategy::Lcdlb, 2),
                },
            )
            .with_mode(EngineMode::PerIter),
        ),
        (
            "periodic-trfd1-full-plan",
            RunSpec::new(
                WorkloadSpec::TrfdL1 { n: 30 },
                loads.clone(),
                RunKind::Periodic {
                    cfg: StrategyConfig::paper(Strategy::Lddlb, 2),
                    dt: 0.125,
                },
            )
            .with_faults(full_plan(), odd_policy),
        ),
        (
            "taskqueue-trfd2-normalized",
            RunSpec::new(
                WorkloadSpec::TrfdL2 { n: 30 },
                loads.clone(),
                RunKind::TaskQueue {
                    scheme: ChunkScheme::Guided,
                },
            )
            .with_faults(full_plan(), odd_policy)
            .with_mode(EngineMode::PerIter),
        ),
        (
            "taskqueue-fixed-chunk",
            RunSpec::new(
                uniform(500),
                ClusterSpec::heterogeneous(vec![1.0, 2.5, 0.5]),
                RunKind::TaskQueue {
                    scheme: ChunkScheme::FixedChunk(7),
                },
            ),
        ),
        (
            "adaptive-empty-plan-odd-policy",
            RunSpec::new(uniform(500), loads, RunKind::Adaptive { cfg: adaptive })
                .with_faults(FaultPlan::default(), odd_policy),
        ),
    ]
}

#[test]
fn canonical_bytes_pinned() {
    let specs = spec_matrix();
    let got = specs
        .iter()
        .map(|(name, spec)| (*name, hash(&spec.canonical_bytes_with_version(1))))
        .collect();
    check(
        got,
        &[
            ("nodlb-loads-episode", "cfe968bc6d5212f9"),
            ("dlb-mxm-periter", "006bf3bb7157e518"),
            ("periodic-trfd1-full-plan", "d045af1a06920c8c"),
            ("taskqueue-trfd2-normalized", "6ddc680ed9a7d852"),
            ("taskqueue-fixed-chunk", "12aa6aec000bf94f"),
            ("adaptive-empty-plan-odd-policy", "a17d647a8004e1a7"),
        ],
    );
    // The key is the hash of exactly those bytes.
    for (name, spec) in &specs {
        assert_eq!(
            spec.memo_key_with_version(1).0,
            fnv1a64(spec.canonical_bytes_with_version(1).as_bytes()),
            "{name}"
        );
    }
}

#[derive(Serialize)]
struct Cell {
    name: String,
    procs: usize,
    simulations: u64,
    speedup: f64,
    note: Option<String>,
}

#[derive(Serialize)]
struct BenchRecord {
    mode: String,
    quick: bool,
    seed: u64,
    empty: Vec<u64>,
    grid: Vec<Cell>,
    pair: (u32, f64),
    informational_wall_s: f64,
}

#[test]
fn pretty_bench_record_pinned() {
    let record = BenchRecord {
        mode: "full".into(),
        quick: false,
        seed: 42,
        empty: Vec::new(),
        grid: vec![
            Cell {
                name: "MXM R=3200,C=800,R2=400 P=16".into(),
                procs: 16,
                simulations: 25,
                speedup: 1.0 / 3.0,
                note: None,
            },
            Cell {
                name: "TRFD \"N=50\"\tL2\n".into(),
                procs: 1024,
                simulations: 0,
                speedup: -2.5e-7,
                note: Some("κ=1 \u{1}".into()),
            },
        ],
        pair: (7, 1e21),
        informational_wall_s: 0.028490676,
    };
    let text = serde_json::to_string_pretty(&record).expect("finite record");
    check(
        vec![("bench-record", hash(&text))],
        &[("bench-record", "6c5799e13e117b09")],
    );
}

// ---------------------------------------------------------------------
// random values

/// A finite float of any magnitude and either sign, often integral
/// (written with a `.0`) or tiny.
fn float(g: &mut Rng) -> f64 {
    let x = match g.below(4) {
        0 => g.below(1000) as f64,
        1 => g.unit_f64(),
        2 => g.unit_f64() * 10f64.powi(g.below(600) as i32 - 300),
        _ => f64::from_bits(g.next_u64()),
    };
    let x = if x.is_finite() { x } else { 0.5 };
    if g.below(2) == 0 {
        -x
    } else {
        x
    }
}

fn coin(g: &mut Rng) -> bool {
    g.below(2) == 0
}

/// A few items, sometimes none.
fn items<T>(g: &mut Rng, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let n = g.below(4);
    (0..n).map(|_| item(g)).collect()
}

fn proc_id(g: &mut Rng) -> usize {
    g.next_u64() as usize >> g.below(64)
}

fn strategy(g: &mut Rng) -> Strategy {
    Strategy::ALL[g.below(4) as usize]
}

fn strategy_config(g: &mut Rng) -> StrategyConfig {
    let mut cfg = StrategyConfig::paper(strategy(g), 1 + g.below(8) as usize);
    cfg.profitability_margin = float(g);
    cfg.min_move_fraction = float(g);
    cfg.include_move_cost = coin(g);
    if coin(g) {
        cfg.grouping = Grouping::Random { seed: g.next_u64() };
    }
    cfg
}

fn load(g: &mut Rng) -> LoadSpec {
    match g.below(4) {
        0 => LoadSpec::DiscreteRandom {
            seed: g.next_u64(),
            max_load: g.next_u64() as u32,
            persistence: float(g),
        },
        1 => LoadSpec::Constant {
            level: g.next_u64() as u32,
        },
        2 => LoadSpec::Zero,
        _ => LoadSpec::Trace {
            levels: items(g, |g| g.next_u64() as u32),
            persistence: float(g),
        },
    }
}

fn random_plan(g: &mut Rng) -> FaultPlan {
    FaultPlan {
        crashes: items(g, |g| CrashSpec {
            proc: proc_id(g),
            at: float(g),
        }),
        stalls: items(g, |g| StallSpec {
            proc: proc_id(g),
            from: float(g),
            until: float(g),
        }),
        loss: coin(g).then(|| LossSpec {
            prob: float(g),
            seed: g.next_u64(),
        }),
        delay: coin(g).then(|| DelaySpec {
            factor: float(g),
            from: float(g),
            until: float(g),
        }),
        recoveries: items(g, |g| RecoverSpec {
            proc: proc_id(g),
            at: float(g),
        }),
        partitions: items(g, |g| PartitionSpec {
            from: proc_id(g),
            to: proc_id(g),
            start: float(g),
            heal: float(g),
        }),
    }
}

fn random_spec(g: &mut Rng) -> RunSpec {
    let p = 1 + g.below(5) as usize;
    let mut cluster = ClusterSpec::dedicated(p);
    cluster.speeds = (0..p).map(|_| float(g)).collect();
    cluster.loads = (0..p).map(|_| load(g)).collect();
    cluster.net.bandwidth = float(g);
    cluster.net.send_overhead = float(g);
    if coin(g) {
        cluster.net.medium = MediumKind::Switched;
    }
    cluster.master = proc_id(g);
    let workload = match g.below(4) {
        0 => WorkloadSpec::Uniform {
            iterations: g.next_u64(),
            iter_cost: float(g),
            bytes_per_iter: g.next_u64(),
        },
        1 => WorkloadSpec::Mxm {
            r: g.next_u64(),
            c: g.below(1000),
            r2: g.below(1000),
        },
        2 => WorkloadSpec::TrfdL1 { n: g.next_u64() },
        _ => WorkloadSpec::TrfdL2 { n: g.below(100) },
    };
    let kind = match g.below(5) {
        0 => RunKind::NoDlb,
        1 => RunKind::Dlb {
            cfg: strategy_config(g),
        },
        2 => RunKind::Periodic {
            cfg: strategy_config(g),
            dt: float(g),
        },
        3 => RunKind::TaskQueue {
            scheme: match g.below(6) {
                0 => ChunkScheme::SelfScheduling,
                1 => ChunkScheme::FixedChunk(g.next_u64()),
                2 => ChunkScheme::Guided,
                3 => ChunkScheme::Factoring,
                _ => ChunkScheme::Trapezoid {
                    first: g.next_u64(),
                    last: g.below(10),
                },
            },
        },
        _ => RunKind::Adaptive {
            cfg: AdaptiveConfig {
                initial: strategy_config(g),
                hysteresis: float(g),
                min_episodes_between: g.next_u64() as u32,
                window: g.below(5) as u32,
            },
        },
    };
    let plan = if coin(g) {
        random_plan(g)
    } else {
        FaultPlan::default()
    };
    let policy = FailurePolicy {
        sync_timeout: float(g),
        max_retries: g.next_u64() as u32,
        heartbeat_interval: float(g),
    };
    let mode = if coin(g) {
        EngineMode::PerIter
    } else {
        EngineMode::Episode
    };
    RunSpec {
        workload,
        cluster,
        kind,
        plan,
        policy,
        mode,
    }
}

fn random_report(g: &mut Rng) -> RunReport {
    RunReport {
        strategy: coin(g).then(|| strategy(g)),
        total_time: float(g),
        stats: DlbStats {
            syncs: g.next_u64(),
            redistributions: g.below(100),
            iters_moved: g.next_u64(),
            bytes_moved: g.next_u64(),
            ..DlbStats::default()
        },
        per_proc: items(g, |g| ProcSummary {
            iters_done: g.next_u64(),
            finished_at: float(g),
            work_done: float(g),
        }),
        sync_times: items(g, float),
        total_iters: g.next_u64(),
        faults: coin(g).then(|| FaultReport {
            crashes_injected: g.below(9),
            retries: g.next_u64(),
            messages_cut: g.next_u64(),
            detections: items(g, |g| DetectionRecord {
                proc: proc_id(g),
                crashed_at: float(g),
                detected_at: float(g),
                iters_recovered: g.next_u64(),
            }),
            rejoins: items(g, |g| RejoinRecord {
                proc: proc_id(g),
                recovered_at: float(g),
                admitted_at: float(g),
                iters_after_rejoin: g.next_u64(),
            }),
            ..FaultReport::default()
        }),
        adaptive: coin(g).then(|| AdaptiveReport {
            decisions: g.next_u64(),
            switches: items(g, |g| SwitchRecord {
                at: float(g),
                episode: g.next_u64(),
                from: strategy(g),
                to: strategy(g),
                predicted_current: float(g),
                predicted_new: float(g),
            }),
            stale_dropped: g.below(5),
            stale_applied: 0,
            mid_episode_switches: 0,
            deferred: g.next_u64(),
            final_strategy: strategy(g),
        }),
    }
}

/// Every struct object reversed, with an unknown field in front and a
/// `null` duplicate of each field behind (the first occurrence wins).
/// Single-key objects with a capitalized key are enum tags: only their
/// payload is rewritten.
fn scramble(v: Value) -> Value {
    match v {
        Value::Seq(items) => Value::Seq(items.into_iter().map(scramble).collect()),
        Value::Map(entries) => {
            let tag = entries.len() == 1 && entries[0].0.starts_with(char::is_uppercase);
            let mut entries: Vec<(String, Value)> =
                entries.into_iter().map(|(k, v)| (k, scramble(v))).collect();
            if !tag {
                let dups: Vec<(String, Value)> = entries
                    .iter()
                    .map(|(k, _)| (k.clone(), Value::Null))
                    .collect();
                entries.reverse();
                entries.insert(
                    0,
                    (
                        "unknown_field".into(),
                        Value::Seq(vec![Value::Map(vec![]), Value::Str("\"}".into())]),
                    ),
                );
                entries.extend(dups);
            }
            Value::Map(entries)
        }
        other => other,
    }
}

/// `from_str(to_string(x)) == x`, also from pretty and scrambled text.
fn round_trips<T>(x: &T) -> Result<String, String>
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(x).map_err(|e| e.to_string())?;
    let pretty = serde_json::to_string_pretty(x).map_err(|e| e.to_string())?;
    let tree = serde_json::parse_value_complete(&json).map_err(|e| e.to_string())?;
    // The untyped tree writes back to the same bytes.
    prop_assert_eq!(serde_json::to_string(&tree).unwrap(), json.clone());
    let scrambled = serde_json::to_string(&scramble(tree)).unwrap();
    for text in [&json, &pretty, &scrambled] {
        let back: T = serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
        prop_assert_eq!(&back, x);
    }
    Ok(json)
}

/// Damaged versions of valid text: each must be an `Err`.
fn assert_damage_rejected<T: Deserialize>(json: &str, g: &mut Rng) -> Result<(), String> {
    let mut damaged = vec![
        format!("{json} x"),
        format!("{json}{{}}"),
        format!("[{json}]"),
        "{}".to_string(),
        "null".to_string(),
        String::new(),
    ];
    for _ in 0..16 {
        let cut = g.below(json.len() as u64) as usize;
        if json.is_char_boundary(cut) {
            damaged.push(json[..cut].to_string());
        }
    }
    for text in &damaged {
        prop_assert!(
            serde_json::from_str::<T>(text).is_err(),
            "accepted damaged text: {text}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_specs_round_trip_with_their_canonical_bytes(seed in any::<u64>()) {
        let spec = random_spec(&mut Rng::new(seed));
        let json = round_trips(&spec)?;
        let back: RunSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back.canonical_bytes(), spec.canonical_bytes());
        prop_assert_eq!(back.memo_key(), spec.memo_key());
        // The streamed envelope is the canonical spec's own JSON, and
        // the key is the hash of exactly those bytes.
        let canonical = serde_json::to_string(&spec.canonical()).unwrap();
        prop_assert_eq!(
            spec.canonical_bytes(),
            format!("{{\"engine_version\":{ENGINE_VERSION},\"spec\":{canonical}}}")
        );
        prop_assert_eq!(spec.memo_key().0, fnv1a64(spec.canonical_bytes().as_bytes()));
        assert_damage_rejected::<RunSpec>(&json, &mut Rng::new(!seed))?;
    }

    #[test]
    fn random_plans_round_trip(seed in any::<u64>()) {
        let plan = random_plan(&mut Rng::new(seed));
        let json = round_trips(&plan)?;
        assert_damage_rejected::<FaultPlan>(&json, &mut Rng::new(!seed))?;
    }

    #[test]
    fn random_reports_round_trip(seed in any::<u64>()) {
        let report = random_report(&mut Rng::new(seed));
        let json = round_trips(&report)?;
        assert_damage_rejected::<RunReport>(&json, &mut Rng::new(!seed))?;
    }
}

/// One edit of a valid spec's JSON that must make it unreadable.
fn spec_edit_rejected(spec: &RunSpec, from: &str, to: &str) {
    let json = serde_json::to_string(spec).unwrap();
    assert!(json.contains(from), "{from} not in {json}");
    let edited = json.replacen(from, to, 1);
    assert!(
        serde_json::from_str::<RunSpec>(&edited).is_err(),
        "accepted {to} for {from}"
    );
}

#[test]
fn unknown_variants_out_of_range_integers_and_wrong_shapes_are_errors() {
    let specs = spec_matrix();
    let (_, spec) = &specs[2];
    // Unknown variants, as a bare tag and as an object tag, and a unit
    // variant written as an object.
    spec_edit_rejected(spec, "\"Episode\"", "\"Episodic\"");
    spec_edit_rejected(spec, "{\"Periodic\":", "{\"Sporadic\":");
    spec_edit_rejected(spec, "\"Episode\"", "{\"Episode\":null}");
    // Integers out of range for their field's type, or of the wrong
    // kind.
    spec_edit_rejected(spec, "\"master\":0", "\"master\":18446744073709551616");
    spec_edit_rejected(spec, "\"master\":0", "\"master\":-1");
    spec_edit_rejected(spec, "\"master\":0", "\"master\":0.5");
    spec_edit_rejected(spec, "\"max_retries\":4", "\"max_retries\":4294967296");
    spec_edit_rejected(spec, "\"level\":2", "\"level\":-2");
    // Wrong shapes.
    spec_edit_rejected(spec, "\"speeds\":[", "\"speeds\":{\"x\":[");
    spec_edit_rejected(spec, "\"master\":0", "\"master\":\"0\"");
    spec_edit_rejected(spec, "\"TrfdL1\":{\"n\":30}", "\"TrfdL1\":[30]");
    spec_edit_rejected(spec, "{\"TrfdL1\":", "{\"TrfdL1\":{},\"Mxm\":");
    spec_edit_rejected(spec, "\"loss\":{", "\"loss\":[{");
    // A missing field is an error too (`Option` fields included).
    spec_edit_rejected(spec, "\"delay\":{", "\"delay_\":{");
}

#[test]
fn non_finite_floats_do_not_serialize() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(serde_json::to_string(&x).is_err());
        let mut spec = spec_matrix().remove(0).1;
        spec.cluster.speeds[0] = x;
        assert!(serde_json::to_string(&spec).is_err());
        assert!(serde_json::to_string_pretty(&spec).is_err());
    }
}
