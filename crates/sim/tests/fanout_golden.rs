//! Byte pins for the runs whose cost is dominated by one-sender fan-outs.
//!
//! Every profile broadcast, interrupt fan-out and instruction broadcast
//! goes through the engine's fan-out: the medium costs each message,
//! the fault plan decides its fate, and the engine hands it to its
//! receiver. These pins hold the FNV-1a of each run's report JSON and
//! its [`EngineCounters`], so a rewrite of the fan-out must leave every
//! report byte and every event count where it is:
//!
//! * noDLB and the four strategies, in episode mode, on the P=256
//!   `engine_bench` scaling cell (MXM R=25·P, 400×400, groups of 8,
//!   LCDLB under a two-level hierarchy): GDDLB alone sends 256·255
//!   profiles per episode, and only the last broadcast's messages become
//!   events, one per balancer;
//! * GDDLB and GCDLB at P=64 under a loss and delay plan: every message
//!   draws its own loss decision, so the fan-out takes its per-message
//!   fate path and every profile is its own delivery event; and both
//!   again under a mild delay alone and a long watchdog, so the
//!   broadcasts are stretched but none is lost.

use dlb_apps::MxmConfig;
use dlb_core::strategy::{Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use now_fault::{DelaySpec, FailurePolicy, FaultPlan, LossSpec};
use now_sim::{ClusterSpec, Engine, EngineCounters, EngineMode};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The event counters in declaration order. The retired fast-forward's
/// fields must read 0.
fn counts(c: &EngineCounters) -> [u64; 4] {
    assert_eq!(
        *c,
        EngineCounters {
            events: c.events,
            compute_events: c.compute_events,
            heartbeat_events: c.heartbeat_events,
            protocol_events: c.protocol_events,
            ..EngineCounters::default()
        },
        "a fast-forward counter moved"
    );
    [
        c.events,
        c.compute_events,
        c.heartbeat_events,
        c.protocol_events,
    ]
}

/// One run's report digest and counters.
fn digest(engine: Engine<'_>) -> (String, [u64; 4]) {
    let (report, counters) = engine.with_mode(EngineMode::Episode).run_counted();
    let json = serde_json::to_string(&report).expect("report serializes");
    (
        format!("{:016x}", fnv1a(json.as_bytes())),
        counts(&counters),
    )
}

/// Compare every `(run, digest, counters)` row against its pin, printing
/// all actual rows first so a deliberate re-pin is one copy.
fn check(actual: &[(&str, String, [u64; 4])], pins: &[(&str, &str, [u64; 4])]) {
    for (name, d, c) in actual {
        println!("    (\"{name}\", \"{d}\", {c:?}),");
    }
    assert_eq!(actual.len(), pins.len(), "one pin per run");
    for ((name, d, c), (pin_name, pin_d, pin_c)) in actual.iter().zip(pins) {
        assert_eq!(name, pin_name);
        assert_eq!(d, pin_d, "{name}: report bytes moved");
        assert_eq!(c, pin_c, "{name}: engine counters moved");
    }
}

/// The `engine_bench --procs 256` cell's persistence: the balanced P=4
/// makespan estimate (mean inverse slowdown 0.408) over four load epochs.
fn scaling_persistence(wl: &dyn LoopWorkload) -> f64 {
    let total = wl.range_cost(0, wl.iterations());
    (total / (4.0 * 0.408) / 4.0).max(1e-3)
}

#[test]
fn scaling_cell_p256_is_pinned() {
    let p = 256;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x1996_0802, scaling_persistence(&wl));
    let mut kinds: Vec<(&str, Option<StrategyConfig>)> = vec![("noDLB", None)];
    for (name, s) in [
        ("GCDLB", Strategy::Gcdlb),
        ("GDDLB", Strategy::Gddlb),
        ("LCDLB", Strategy::Lcdlb),
        ("LDDLB", Strategy::Lddlb),
    ] {
        let mut cfg = StrategyConfig::paper(s, 8);
        if s == Strategy::Lcdlb {
            cfg = cfg.with_hierarchy(2, 8);
        }
        kinds.push((name, Some(cfg)));
    }
    let actual: Vec<_> = kinds
        .into_iter()
        .map(|(name, cfg)| {
            let (d, c) = digest(Engine::new(cluster.clone(), &wl, cfg));
            (name, d, c)
        })
        .collect();
    check(&actual, PINS_P256);
}

#[test]
fn fanouts_under_fault_plans_are_pinned() {
    let p = 64;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let seed = 0xFA17_0016;
    let t = Engine::new(ClusterSpec::paper_homogeneous(p, seed, 0.5), &wl, None)
        .run()
        .total_time;
    let cluster = ClusterSpec::paper_homogeneous(p, seed, t / 17.0);
    let plan = FaultPlan {
        loss: Some(LossSpec {
            prob: 0.04,
            seed: 31,
        }),
        delay: Some(DelaySpec {
            factor: 2.5,
            from: t * 0.2,
            until: t * 0.6,
        }),
        ..FaultPlan::default()
    };
    let mild_delay = FaultPlan {
        loss: None,
        delay: Some(DelaySpec {
            factor: 1.1,
            from: 0.0,
            until: t,
        }),
        ..FaultPlan::default()
    };
    // A watchdog long enough that no delayed episode times out.
    let patient = FailurePolicy {
        sync_timeout: 10.0,
        ..FailurePolicy::default()
    };
    let actual: Vec<_> = [
        ("GDDLB", Strategy::Gddlb, &plan, FailurePolicy::default()),
        ("GCDLB", Strategy::Gcdlb, &plan, FailurePolicy::default()),
        ("GDDLB delay", Strategy::Gddlb, &mild_delay, patient),
        ("GCDLB delay", Strategy::Gcdlb, &mild_delay, patient),
    ]
    .into_iter()
    .map(|(name, s, plan, policy)| {
        let engine = Engine::new(cluster.clone(), &wl, Some(StrategyConfig::paper(s, 8)))
            .with_faults(plan.clone(), policy);
        let (d, c) = digest(engine);
        (name, d, c)
    })
    .collect();
    check(&actual, PINS_LOSSY_P64);
}

/// Report digest and counters of the P=256 scaling cell.
#[rustfmt::skip]
const PINS_P256: &[(&str, &str, [u64; 4])] = &[
    ("noDLB", "90967468625b3864", [256, 256, 0, 0]),
    ("GCDLB", "ea74f97164708201", [2299, 944, 0, 1355]),
    ("GDDLB", "561f06f0a608e260", [3779, 1183, 0, 2596]),
    ("LCDLB", "71ee0b1021b6e0e7", [2401, 970, 0, 1431]),
    ("LDDLB", "eec1e64af3f2d40f", [2401, 817, 0, 1584]),
];

/// Report digest and counters of the P=64 runs under fault plans.
#[rustfmt::skip]
const PINS_LOSSY_P64: &[(&str, &str, [u64; 4])] = &[
    ("GDDLB", "9e59aa8f591ffa04", [11245, 157, 0, 11088]),
    ("GCDLB", "0aeb06be02a35a2f", [1127, 330, 0, 797]),
    ("GDDLB delay", "088f216e3ef4610e", [14269, 396, 0, 13873]),
    ("GCDLB delay", "d30701d26994b325", [1170, 395, 0, 775]),
];
