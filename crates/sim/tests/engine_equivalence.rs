//! Engine-mode equivalence matrix: per-iteration stepping (the
//! reference) and the default episode engine (block stepping plus
//! analytic profile completion) must produce **byte-identical**
//! `RunReport`s — same serde bytes — for every run kind (noDLB + the
//! four strategies) under every fault scenario, on a uniform (MXM) and a
//! non-uniform folded (TRFD loop 2) workload. This is the matrix the
//! episode engine's correctness rests on; CI runs it on every push. The
//! last tests pin the episode engine's event counts on the paper's full
//! P=16 cell, exactly, and check that it pushes fewer protocol events
//! than the reference.

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use now_fault::{
    rng, CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, PartitionSpec, RecoverSpec,
    StallSpec,
};
use now_sim::{ClusterSpec, Engine, EngineCounters, EngineMode, RunReport};

const P: usize = 4;
const GROUP: usize = 2;

fn report_bytes(
    cluster: &ClusterSpec,
    wl: &dyn LoopWorkload,
    cfg: Option<StrategyConfig>,
    plan: &FaultPlan,
    mode: EngineMode,
) -> String {
    let mut engine = Engine::new(cluster.clone(), wl, cfg).with_mode(mode);
    if !plan.is_empty() {
        engine = engine.with_faults(plan.clone(), FailurePolicy::default());
    }
    serde_json::to_string(&engine.run()).expect("report serializes")
}

/// Build a cluster whose persistence gives the run many load-level
/// changes (so blocks genuinely span boundaries), using a probe run to
/// find the horizon.
fn tuned_cluster(wl: &dyn LoopWorkload, seed: u64) -> (ClusterSpec, f64) {
    let probe = ClusterSpec::paper_homogeneous(P, seed, 0.5);
    let bytes = report_bytes(&probe, wl, None, &FaultPlan::none(), EngineMode::PerIter);
    let horizon = serde_json::from_str::<RunReport>(&bytes)
        .expect("report parses")
        .total_time;
    let cluster = ClusterSpec::paper_homogeneous(P, seed, horizon / 17.0);
    let bytes = report_bytes(&cluster, wl, None, &FaultPlan::none(), EngineMode::PerIter);
    let horizon = serde_json::from_str::<RunReport>(&bytes)
        .expect("report parses")
        .total_time;
    (cluster, horizon)
}

fn assert_matrix(name: &str, wl: &dyn LoopWorkload, seed: u64) {
    let (cluster, t) = tuned_cluster(wl, seed);
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("no-faults", FaultPlan::none()),
        ("crash-mid-block", FaultPlan::crash(P - 1, t * 0.31)),
        (
            "stall-across-boundary",
            FaultPlan {
                stalls: vec![StallSpec {
                    proc: 0,
                    from: t * 0.2,
                    until: t * 0.45,
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "message-loss",
            FaultPlan {
                loss: Some(LossSpec {
                    prob: 0.2,
                    seed: 11,
                }),
                ..FaultPlan::default()
            },
        ),
        (
            "crash-then-rejoin",
            FaultPlan {
                crashes: vec![CrashSpec {
                    proc: P - 1,
                    at: t * 0.2,
                }],
                recoveries: vec![RecoverSpec {
                    proc: P - 1,
                    at: t * 0.45,
                }],
                ..FaultPlan::default()
            },
        ),
        (
            "partition-then-heal",
            FaultPlan {
                partitions: vec![
                    PartitionSpec {
                        from: 0,
                        to: 1,
                        start: t * 0.15,
                        heal: t * 0.5,
                    },
                    PartitionSpec {
                        from: 1,
                        to: 0,
                        start: t * 0.15,
                        heal: t * 0.5,
                    },
                ],
                ..FaultPlan::default()
            },
        ),
        (
            "delayed-messages",
            FaultPlan {
                delay: Some(DelaySpec {
                    factor: 3.0,
                    from: t * 0.1,
                    until: t * 0.6,
                }),
                ..FaultPlan::default()
            },
        ),
        (
            "rejoin-under-loss-and-delay",
            FaultPlan {
                crashes: vec![CrashSpec {
                    proc: 1,
                    at: t * 0.25,
                }],
                recoveries: vec![RecoverSpec {
                    proc: 1,
                    at: t * 0.4,
                }],
                loss: Some(LossSpec {
                    prob: 0.15,
                    seed: 23,
                }),
                delay: Some(DelaySpec {
                    factor: 2.0,
                    from: t * 0.3,
                    until: t * 0.55,
                }),
                ..FaultPlan::default()
            },
        ),
    ];
    let mut cfgs: Vec<(String, Option<StrategyConfig>)> = vec![("noDLB".into(), None)];
    for s in Strategy::ALL {
        cfgs.push((s.to_string(), Some(StrategyConfig::paper(s, GROUP))));
    }
    for (pname, plan) in &plans {
        for (cname, cfg) in &cfgs {
            let reference = report_bytes(&cluster, wl, *cfg, plan, EngineMode::PerIter);
            let episode = report_bytes(&cluster, wl, *cfg, plan, EngineMode::Episode);
            assert_eq!(
                reference, episode,
                "{name} / {cname} / {pname}: episode engine diverged from reference"
            );
        }
    }
}

#[test]
fn mxm_uniform_equivalence_matrix() {
    let wl = MxmConfig::new(100, 400, 400).workload();
    assert_matrix("MXM 100x400x400", &wl, 0x1996_0802);
}

#[test]
fn trfd_folded_equivalence_matrix() {
    let wl = TrfdConfig::new(10).loop2_workload();
    assert_matrix("TRFD n=10 L2", &wl, 0x0802_1996);
}

#[test]
fn periodic_sync_equivalence() {
    // Ablation A1.3 flags the initiator mid-block on every tick — the
    // other flag_interrupt call site.
    let wl = MxmConfig::new(100, 400, 400).workload();
    let (cluster, t) = tuned_cluster(&wl, 0xA13);
    let cfg = StrategyConfig::paper(Strategy::Gddlb, GROUP);
    let run = |mode: EngineMode| {
        let report = Engine::new(cluster.clone(), &wl, Some(cfg))
            .with_mode(mode)
            .with_periodic_sync(t * 0.13)
            .run();
        serde_json::to_string(&report).expect("report serializes")
    };
    let reference = run(EngineMode::PerIter);
    assert_eq!(
        reference,
        run(EngineMode::Episode),
        "periodic-sync run diverged in episode mode"
    );
}

/// Wide fan-outs under faults. At P=16 the interrupt, profile and
/// instruction fan-outs reach up to 15 receivers, where the P=4 matrix
/// above never exceeds 3. Message loss drops messages inside them and a
/// delay window stretches whole fan-outs; both engine modes must still
/// agree byte for byte. Under a fault plan a profile can be lost, so the
/// episode engine delivers each one as its own event, like the
/// reference: both push the same protocol events.
#[test]
fn wide_fanouts_under_loss_and_delay() {
    let p = 16;
    let wl = MxmConfig::new(400, 400, 400).workload();
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
    for strategy in [Strategy::Gddlb, Strategy::Lddlb, Strategy::Gcdlb] {
        let cfg = StrategyConfig::paper(strategy, 8);
        let run = |mode: EngineMode| {
            Engine::new(cluster.clone(), &wl, Some(cfg))
                .with_mode(mode)
                .with_faults(plan.clone(), FailurePolicy::default())
                .run_counted()
        };
        let (reference, ref_counters) = run(EngineMode::PerIter);
        let (episode, counters) = run(EngineMode::Episode);
        assert_eq!(
            serde_json::to_string(&reference).expect("report serializes"),
            serde_json::to_string(&episode).expect("report serializes"),
            "{strategy}: episode engine diverged under wide fan-out faults"
        );
        let faults = episode.faults.as_ref().expect("fault accounting");
        assert!(
            faults.messages_dropped > 0,
            "{strategy}: no message was dropped"
        );
        assert!(
            faults.messages_delayed > 0,
            "{strategy}: no message was delayed"
        );
        assert_eq!(
            counters.protocol_events, ref_counters.protocol_events,
            "{strategy}: the lossy plan left the per-message profile path"
        );
        assert_eq!(episode.total_iters, 400, "{strategy}: iterations lost");
    }
}

/// The chaos generators' churn plan: every processor crashes and
/// recovers twice, in staggered short outages, drawn from `seed` at plan
/// `index` and scaled to the fault-free horizon `t`.
fn churn_plan(seed: u64, index: u64, t: f64, p: usize) -> FaultPlan {
    let u = |k: u64| rng::unit(seed, index << 8 | k);
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

/// One churn cell at P=16 on MXM 400x400x400, run in both engine modes:
/// the reports must agree byte for byte and account for every iteration.
fn assert_churn_cell(
    label: &str,
    cluster: &ClusterSpec,
    plan: &FaultPlan,
    cfg: StrategyConfig,
    adaptive: Option<AdaptiveConfig>,
) -> RunReport {
    let wl = MxmConfig::new(400, 400, 400).workload();
    let run = |mode: EngineMode| {
        let mut engine = Engine::new(cluster.clone(), &wl, Some(cfg))
            .with_mode(mode)
            .with_faults(plan.clone(), FailurePolicy::default());
        if let Some(a) = adaptive {
            engine = engine.with_adaptive(a);
        }
        serde_json::to_string(&engine.run()).expect("report serializes")
    };
    let reference = run(EngineMode::PerIter);
    assert_eq!(
        reference,
        run(EngineMode::Episode),
        "{label}: diverged between modes"
    );
    let report: RunReport = serde_json::from_str(&reference).expect("report parses");
    assert_eq!(report.total_iters, 400, "{label}: iterations lost");
    report
}

#[test]
fn churn_rejoin_regression_cell() {
    let p = 16;
    let wl = MxmConfig::new(400, 400, 400).workload();
    let horizon = |cluster: &ClusterSpec| Engine::new(cluster.clone(), &wl, None).run().total_time;

    // `chaos_campaign --procs 16 --start 26 --plans 27 --seed 3`, plan 26.
    // Processor 15 crashed mid-iteration 243, and its rejoin admission
    // handed 243 straight back to it while the pre-crash completion was
    // still on the heap. The per-iteration reference used to accept that
    // stale completion (same iteration index) as the new run's,
    // finishing 243 almost instantly; completions are now stamped with
    // the crash epoch.
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let plan = churn_plan(3, 26, horizon(&cluster), p);
    let cfg = StrategyConfig::paper(Strategy::Lddlb, 8);
    let report = assert_churn_cell("campaign seed 3 plan 26", &cluster, &plan, cfg, None);
    assert_eq!(report.stats.syncs, 7);
    assert_eq!(report.stats.control_messages, 410);
    assert_eq!(report.total_time, 3.4570790907435724);

    // The benchmark's chaos workload draws one cluster per plan.
    let chaos_cluster = |seed: u64, index: u64| {
        ClusterSpec::paper_homogeneous(p, rng::mix(seed ^ 0x0DB1_0ADE ^ index), 0.5)
    };

    // Chaos seed 3, plan 8, GDDLB: profiles a member broadcast before its
    // death was handled landed after the membership shrink removed it,
    // re-entered the balancers' sets, and planned a transfer to a revived
    // non-participant, which waited forever ("protocol stalled: 397 of
    // 400"). Profiles from, or (distributed) to, a non-participant are
    // now dropped.
    let cluster = chaos_cluster(3, 8);
    let plan = churn_plan(3, 8, horizon(&cluster), p);
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 8);
    assert_churn_cell("chaos seed 3 plan 8", &cluster, &plan, cfg, None);

    // Chaos seed 5, plan 17, adaptive: a re-decision window in which no
    // live processor finished an iteration floored every rate, and the
    // model's decision never returned. Such a window now defers.
    let cluster = chaos_cluster(5, 17);
    let plan = churn_plan(5, 17, horizon(&cluster), p);
    let acfg = AdaptiveConfig {
        window: 1,
        min_episodes_between: 2,
        ..AdaptiveConfig::paper(Strategy::Lddlb, 8)
    };
    let report = assert_churn_cell(
        "chaos seed 5 plan 17",
        &cluster,
        &plan,
        acfg.initial,
        Some(acfg),
    );
    assert!(report.adaptive.expect("adaptive accounting").deferred > 0);

    // `chaos_campaign --procs 16 --plans 45 --seed 2`, plan 17, adaptive.
    // A death handled inside an open episode aborted it, and the episode
    // boundary ran a §S17 switch that rebuilt the groups. The dead
    // processor's confiscated work was then handed to its group index
    // from before the switch ("index out of bounds: the len is 1 but the
    // index is 1"). The group is now re-read after the episode fixup.
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let plan = churn_plan(2, 17, horizon(&cluster), p);
    let report = assert_churn_cell(
        "campaign seed 2 plan 17",
        &cluster,
        &plan,
        acfg.initial,
        Some(acfg),
    );
    assert!(!report
        .adaptive
        .expect("adaptive accounting")
        .switches
        .is_empty());
}

#[test]
fn default_mode_is_the_episode_engine() {
    // `Engine::new` runs the episode engine unless a harness asks for
    // the reference with `with_mode`; both give the same report.
    let wl = MxmConfig::new(50, 400, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(P, 7, 0.25);
    let cfg = Some(StrategyConfig::paper(Strategy::Gddlb, GROUP));
    let (default_report, default_counters) = Engine::new(cluster.clone(), &wl, cfg).run_counted();
    let (episode_report, episode_counters) = Engine::new(cluster.clone(), &wl, cfg)
        .with_mode(EngineMode::Episode)
        .run_counted();
    assert_eq!(default_report, episode_report);
    assert_eq!(default_counters, episode_counters);
    let (reference, ref_counters) = Engine::new(cluster, &wl, cfg)
        .with_mode(EngineMode::PerIter)
        .run_counted();
    assert_eq!(reference, default_report);
    // Profile deliveries that complete no set are not events.
    assert!(
        default_counters.protocol_events < ref_counters.protocol_events,
        "{default_counters:?} vs {ref_counters:?}"
    );
}

/// The full Fig. 6 cell of `engine_bench` (MXM 3200x800x400, P=16,
/// K=8, the bench's load seed and persistence).
fn full_cell() -> (ClusterSpec, impl LoopWorkload) {
    let wl = MxmConfig::new(3200, 800, 400).workload();
    // `dlb_bench::persistence_for`: the balanced P=4 makespan estimate
    // over four load epochs.
    let persistence = (wl.range_cost(0, wl.iterations()) / (4.0 * 0.408) / 4.0).max(1e-3);
    (
        ClusterSpec::paper_homogeneous(16, 0x1996_0802, persistence),
        wl,
    )
}

#[test]
fn episode_counters_are_pinned_on_the_full_cell() {
    // Exact episode-mode counters per run kind: total events with their
    // compute/protocol split, then the load-span refreshes and medium
    // steps. The retired fast-forward's fields read 0.
    let (cluster, wl) = full_cell();
    let pinned: [(&str, Option<Strategy>, [u64; 5]); 5] = [
        // name, strategy, [events, compute, protocol, spans, medium]
        ("noDLB", None, [16, 16, 0, 0, 0]),
        ("GCDLB", Some(Strategy::Gcdlb), [381, 176, 205, 32, 268]),
        ("GDDLB", Some(Strategy::Gddlb), [468, 182, 286, 32, 1326]),
        ("LCDLB", Some(Strategy::Lcdlb), [344, 151, 193, 32, 243]),
        ("LDDLB", Some(Strategy::Lddlb), [390, 149, 241, 32, 584]),
    ];
    for (name, strategy, [events, compute, protocol, spans, medium]) in pinned {
        let cfg = strategy.map(|s| StrategyConfig::paper(s, 8));
        let (report, counters) = Engine::new(cluster.clone(), &wl, cfg)
            .with_mode(EngineMode::Episode)
            .run_counted();
        let expected = EngineCounters {
            events,
            compute_events: compute,
            heartbeat_events: 0,
            protocol_events: protocol,
            span_refreshes: spans,
            medium_steps: medium,
            ..EngineCounters::default()
        };
        assert_eq!(counters, expected, "{name}: episode event counts moved");
        let reference = Engine::new(cluster.clone(), &wl, cfg)
            .with_mode(EngineMode::PerIter)
            .run();
        assert_eq!(report, reference, "{name}: episode engine diverged");
    }
}

/// Overlapping group episodes at scale: the perfbench `large-p` cell
/// shape (MXM R=100·P, 800×400, groups of 8, the depth-2 hierarchy) at
/// P=64. The eight groups' episodes overlap, so one group's profile
/// messages interleave with another's events; completing each set at its
/// last delivery's own heap key must leave the report byte-identical to
/// the per-iteration reference, with fewer protocol events.
#[test]
fn local_schemes_at_p64_complete_profile_sets_identically() {
    let p = 64;
    let wl = MxmConfig::new(100 * p as u64, 800, 400).workload();
    let persistence = (wl.range_cost(0, wl.iterations()) / (4.0 * 0.408) / 4.0).max(1e-3);
    let cluster = ClusterSpec::paper_homogeneous(p, 0x1996_0802, persistence);
    for strategy in [Strategy::Lcdlb, Strategy::Lddlb] {
        let cfg = StrategyConfig::paper(strategy, 8).with_hierarchy(2, 8);
        let run = |mode: EngineMode| {
            Engine::new(cluster.clone(), &wl, Some(cfg))
                .with_mode(mode)
                .run_counted()
        };
        let (reference, r) = run(EngineMode::PerIter);
        let (episode, c) = run(EngineMode::Episode);
        assert_eq!(
            serde_json::to_string(&reference).expect("report serializes"),
            serde_json::to_string(&episode).expect("report serializes"),
            "{strategy}: episode engine diverged at P={p}"
        );
        assert!(
            c.protocol_events < r.protocol_events,
            "{strategy}: episode {c:?} vs reference {r:?}"
        );
    }
}
