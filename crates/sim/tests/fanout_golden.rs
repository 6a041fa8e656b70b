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
//!   fate path and every profile is its own delivery event; both again
//!   under a mild delay alone and a long watchdog, so the broadcasts are
//!   stretched but none is lost; and LCDLB (two-level hierarchy) and
//!   flat LDDLB under the loss and delay plan, the local schemes'
//!   per-message profile fan-in with lost profiles;
//! * crash plans at P=16, where the heartbeat chain, death handling and
//!   the rejoin handshake drive the fan-outs: a crash that recovers
//!   before its detection (the `JoinRetry` chain), a flat GCDLB master
//!   crash, an LCDLB depth-2 role-host crash, a GDDLB and an LDDLB
//!   member crash, and a periodic-sync run with a crash;
//! * two more P=16 cells that move the central balancer: the GCDLB cell
//!   of `chaos_campaign --procs 16 --plans 45 --seed 2` whose churn plan
//!   (plan 26) crashes and recovers every processor twice, the master
//!   included, so profiles land on a processor that no longer hosts the
//!   balancer; and an adaptive run that starts under a two-level LCDLB
//!   hierarchy and switches to GCDLB after a role host crashed and
//!   recovered, so the flat layout takes over from the role table.

use dlb_apps::MxmConfig;
use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use now_fault::{rng, CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, RecoverSpec};
use now_sim::{ClusterSpec, Engine, EngineCounters, EngineMode, RunReport};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The event and per-layer work counters in declaration order. The
/// retired fast-forward's fields must read 0.
fn counts(c: &EngineCounters) -> [u64; 6] {
    assert_eq!(
        *c,
        EngineCounters {
            events: c.events,
            compute_events: c.compute_events,
            heartbeat_events: c.heartbeat_events,
            protocol_events: c.protocol_events,
            span_refreshes: c.span_refreshes,
            medium_steps: c.medium_steps,
            ..EngineCounters::default()
        },
        "a fast-forward counter moved"
    );
    [
        c.events,
        c.compute_events,
        c.heartbeat_events,
        c.protocol_events,
        c.span_refreshes,
        c.medium_steps,
    ]
}

/// One run's report, its digest and its counters.
fn run_digest(engine: Engine<'_>) -> (RunReport, String, [u64; 6]) {
    let (report, counters) = engine.with_mode(EngineMode::Episode).run_counted();
    let json = serde_json::to_string(&report).expect("report serializes");
    let d = format!("{:016x}", fnv1a(json.as_bytes()));
    (report, d, counts(&counters))
}

/// One run's report digest and counters.
fn digest(engine: Engine<'_>) -> (String, [u64; 6]) {
    let (_, d, c) = run_digest(engine);
    (d, c)
}

/// Compare every `(run, digest, counters)` row against its pin, printing
/// all actual rows first so a deliberate re-pin is one copy.
fn check(actual: &[(&str, String, [u64; 6])], pins: &[(&str, &str, [u64; 6])]) {
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
    let paper = |s| StrategyConfig::paper(s, 8);
    // Eight leaf groups under four level-1 domains of two.
    let lcdlb2 = paper(Strategy::Lcdlb).with_hierarchy(2, 2);
    let lossy = FailurePolicy::default();
    let actual: Vec<_> = [
        ("GDDLB", paper(Strategy::Gddlb), &plan, lossy),
        ("GCDLB", paper(Strategy::Gcdlb), &plan, lossy),
        ("GDDLB delay", paper(Strategy::Gddlb), &mild_delay, patient),
        ("GCDLB delay", paper(Strategy::Gcdlb), &mild_delay, patient),
        ("LCDLB", lcdlb2, &plan, lossy),
        ("LDDLB", paper(Strategy::Lddlb), &plan, lossy),
    ]
    .into_iter()
    .map(|(name, cfg, plan, policy)| {
        let engine = Engine::new(cluster.clone(), &wl, Some(cfg)).with_faults(plan.clone(), policy);
        let (d, c) = digest(engine);
        (name, d, c)
    })
    .collect();
    check(&actual, PINS_LOSSY_P64);
}

#[test]
fn crash_plans_are_pinned() {
    let p = 16;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let seed = 0xC4A5_0016;
    let t = Engine::new(ClusterSpec::paper_homogeneous(p, seed, 0.5), &wl, None)
        .run()
        .total_time;
    let cluster = ClusterSpec::paper_homogeneous(p, seed, t / 9.0);
    let crash = |procs: &[(usize, f64)]| FaultPlan {
        crashes: procs
            .iter()
            .map(|&(proc, f)| CrashSpec { proc, at: t * f })
            .collect(),
        ..FaultPlan::default()
    };
    // The master dies, then proc 5 dies and comes back 5 ms later:
    // before any heartbeat or watchdog notices, so the recovery itself
    // reveals proc 5's death. Its `JoinRequest` goes to the dead master,
    // so the rejoiner stays out until the `JoinRetry` chain re-announces
    // it to the promoted one.
    let rejoin = FaultPlan {
        crashes: vec![
            CrashSpec {
                proc: 0,
                at: t * 0.3,
            },
            CrashSpec {
                proc: 5,
                at: t * 0.3 + 0.005,
            },
        ],
        recoveries: vec![RecoverSpec {
            proc: 5,
            at: t * 0.3 + 0.01,
        }],
        ..FaultPlan::default()
    };
    let paper = |s| Some(StrategyConfig::paper(s, 4));
    // Four leaf groups under two level-1 domains: proc 8 hosts the
    // second domain's balancer role.
    let lcdlb2 = Some(StrategyConfig::paper(Strategy::Lcdlb, 4).with_hierarchy(2, 2));
    let cells: [(&str, Option<StrategyConfig>, FaultPlan, Option<f64>); 6] = [
        ("GCDLB rejoin", paper(Strategy::Gcdlb), rejoin, None),
        (
            "GCDLB master",
            paper(Strategy::Gcdlb),
            crash(&[(0, 0.35)]),
            None,
        ),
        ("LCDLB role host", lcdlb2, crash(&[(8, 0.4)]), None),
        (
            "GDDLB member",
            paper(Strategy::Gddlb),
            crash(&[(3, 0.25), (11, 0.6)]),
            None,
        ),
        (
            "LDDLB member",
            paper(Strategy::Lddlb),
            crash(&[(6, 0.45)]),
            None,
        ),
        (
            "GCDLB periodic",
            paper(Strategy::Gcdlb),
            crash(&[(9, 0.5)]),
            Some(t / 8.0),
        ),
    ];
    let actual: Vec<_> = cells
        .into_iter()
        .map(|(name, cfg, plan, periodic)| {
            let mut engine =
                Engine::new(cluster.clone(), &wl, cfg).with_faults(plan, FailurePolicy::default());
            if let Some(dt) = periodic {
                engine = engine.with_periodic_sync(dt);
            }
            let (d, c) = digest(engine);
            (name, d, c)
        })
        .collect();
    check(&actual, PINS_CRASH_P16);
}

/// `chaos_campaign`'s churn plan: every processor crashes and recovers
/// twice, staggered, with jitter drawn from the campaign's stream for
/// `seed` and plan `i`.
fn churn_plan(seed: u64, i: u64, t: f64, p: usize) -> FaultPlan {
    let u = |k: u64| rng::unit(seed, i << 8 | k);
    let mut plan = FaultPlan::default();
    for cycle in 0..2u64 {
        for m in 0..p {
            let at = t
                * (0.08
                    + 0.38 * cycle as f64
                    + 0.30 * m as f64 / p as f64
                    + 0.02 * u(cycle << 1 | 1));
            plan.crashes.push(CrashSpec { proc: m, at });
            plan.recoveries.push(RecoverSpec {
                proc: m,
                at: at + t * (0.02 + 0.02 * u(cycle << 1)),
            });
        }
    }
    plan
}

#[test]
fn balancer_moves_are_pinned() {
    let p = 16;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();

    // The campaign's cell: its cluster, its fault-free horizon, plan 26.
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let t = Engine::new(cluster.clone(), &wl, None).run().total_time;
    let churn = Engine::new(
        cluster,
        &wl,
        Some(StrategyConfig::paper(Strategy::Gcdlb, 8)),
    )
    .with_faults(churn_plan(2, 26, t, p), FailurePolicy::default());
    let (d_churn, c_churn) = digest(churn);

    // Four leaf groups under two level-1 domains: proc 8 hosts the second
    // role. It crashes and recovers before the switch to GCDLB.
    let cluster = ClusterSpec::paper_homogeneous(p, 2, 1.0);
    let t = Engine::new(cluster.clone(), &wl, None).run().total_time;
    let initial = StrategyConfig::paper(Strategy::Lcdlb, 4).with_hierarchy(2, 2);
    let acfg = AdaptiveConfig {
        initial,
        window: 1,
        min_episodes_between: 2,
        ..AdaptiveConfig::paper(Strategy::Lcdlb, 4)
    };
    let plan = FaultPlan {
        crashes: vec![CrashSpec {
            proc: 8,
            at: t * 0.1,
        }],
        recoveries: vec![RecoverSpec {
            proc: 8,
            at: t * 0.25,
        }],
        ..FaultPlan::default()
    };
    let switch = Engine::new(cluster, &wl, Some(initial))
        .with_faults(plan, FailurePolicy::default())
        .with_adaptive(acfg);
    let (report, d_switch, c_switch) = run_digest(switch);
    let switches = report.adaptive.expect("adaptive report").switches;
    assert!(
        switches
            .first()
            .is_some_and(|s| s.from == Strategy::Lcdlb && s.to == Strategy::Gcdlb),
        "the run switches from the hierarchy to the flat layout: {switches:?}"
    );
    let rejoins = &report.faults.expect("fault report").rejoins;
    assert!(
        rejoins
            .iter()
            .any(|r| r.proc == 8 && r.admitted_at < switches[0].at),
        "the role host rejoins before the switch"
    );

    check(
        &[
            ("GCDLB churn", d_churn, c_churn),
            ("LCDLB to GCDLB", d_switch, c_switch),
        ],
        PINS_BALANCER_MOVES,
    );
}

/// Report digest and counters of the P=256 scaling cell.
#[rustfmt::skip]
const PINS_P256: &[(&str, &str, [u64; 6])] = &[
    ("noDLB", "90967468625b3864", [256, 256, 0, 0, 0, 0]),
    ("GCDLB", "ea74f97164708201", [2299, 944, 0, 1355, 256, 1890]),
    ("GDDLB", "561f06f0a608e260", [3779, 1183, 0, 2596, 768, 161920]),
    ("LCDLB", "71ee0b1021b6e0e7", [2401, 970, 0, 1431, 256, 1834]),
    ("LDDLB", "eec1e64af3f2d40f", [2401, 817, 0, 1584, 256, 3982]),
];

/// Report digest and counters of the P=64 runs under fault plans.
#[rustfmt::skip]
const PINS_LOSSY_P64: &[(&str, &str, [u64; 6])] = &[
    ("GDDLB", "9e59aa8f591ffa04", [11245, 157, 0, 11088, 704, 11559]),
    ("GCDLB", "0aeb06be02a35a2f", [1127, 330, 0, 797, 768, 809]),
    ("GDDLB delay", "088f216e3ef4610e", [14269, 396, 0, 13873, 740, 13642]),
    ("GCDLB delay", "d30701d26994b325", [1170, 395, 0, 775, 633, 767]),
    ("LCDLB", "49c8bf031fee8287", [1368, 424, 0, 944, 898, 866]),
    ("LDDLB", "65ca89ce95430d2f", [2752, 368, 0, 2384, 768, 2190]),
];

/// Report digest and counters of the P=16 crash-plan runs.
#[rustfmt::skip]
const PINS_CRASH_P16: &[(&str, &str, [u64; 6])] = &[
    ("GCDLB rejoin", "5901cfae0d8a8f05", [493, 177, 1, 315, 114, 292]),
    ("GCDLB master", "7a88665b0c19ae64", [493, 169, 2, 322, 112, 306]),
    ("LCDLB role host", "aa41fbedd45405d5", [283, 98, 2, 183, 104, 149]),
    ("GDDLB member", "0641d9cf12a77a81", [1567, 183, 2, 1382, 128, 1280]),
    ("LDDLB member", "dd125f3eb5e81510", [319, 85, 2, 232, 80, 173]),
    ("GCDLB periodic", "b726bd90a36ea8eb", [714, 253, 2, 459, 160, 420]),
];

/// Report digest and counters of the P=16 runs that move the central
/// balancer.
#[rustfmt::skip]
const PINS_BALANCER_MOVES: &[(&str, &str, [u64; 6])] = &[
    ("GCDLB churn", "e8d2e4a9bad32d85", [965, 329, 3, 633, 134, 514]),
    ("LCDLB to GCDLB", "731ef9c021f9663a", [391, 125, 1, 265, 64, 225]),
];
