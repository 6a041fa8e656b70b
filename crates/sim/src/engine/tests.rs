use super::protocol::Plan;
use super::*;
use dlb_core::strategy::Strategy;
use dlb_core::work::UniformLoop;
use now_load::LoadSpec;

fn uniform(iters: u64, cost: f64) -> UniformLoop {
    UniformLoop::new(iters, cost, 800)
}

#[test]
fn no_dlb_dedicated_cluster_is_exact() {
    let wl = uniform(100, 0.01);
    let report = Engine::new(ClusterSpec::dedicated(4), &wl, None).run();
    // 25 iterations each at 0.01s on unit-speed unloaded processors.
    assert!(
        (report.total_time - 0.25).abs() < 1e-9,
        "t = {}",
        report.total_time
    );
    assert_eq!(report.total_iters, 100);
    assert_eq!(report.stats.syncs, 0);
}

#[test]
fn no_dlb_slow_processor_dominates() {
    let wl = uniform(100, 0.01);
    let mut cluster = ClusterSpec::dedicated(4);
    cluster.loads[3] = LoadSpec::Constant { level: 3 }; // 4x slowdown
    let report = Engine::new(cluster, &wl, None).run();
    assert!(
        (report.total_time - 1.0).abs() < 1e-9,
        "t = {}",
        report.total_time
    );
}

fn run_strategy(strategy: Strategy, loaded: usize, level: u32) -> RunReport {
    let wl = uniform(400, 0.01);
    let mut cluster = ClusterSpec::dedicated(4);
    cluster.loads[loaded] = LoadSpec::Constant { level };
    let cfg = StrategyConfig::paper(strategy, 2);
    Engine::new(cluster, &wl, Some(cfg)).run()
}

#[test]
fn all_strategies_complete_all_iterations() {
    for s in Strategy::ALL {
        let report = run_strategy(s, 3, 4);
        assert_eq!(report.total_iters, 400, "{s} lost work");
        assert!(report.total_time.is_finite());
    }
}

#[test]
fn dlb_beats_no_dlb_under_skewed_load() {
    let wl = uniform(400, 0.01);
    let mut cluster = ClusterSpec::dedicated(4);
    cluster.loads[3] = LoadSpec::Constant { level: 4 }; // 5x slower
    let no = Engine::new(cluster.clone(), &wl, None).run();
    for s in [Strategy::Gcdlb, Strategy::Gddlb] {
        let cfg = StrategyConfig::paper(s, 2);
        let yes = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
        assert!(
            yes.total_time < no.total_time * 0.8,
            "{s}: {} vs noDLB {}",
            yes.total_time,
            no.total_time
        );
        assert!(yes.stats.syncs >= 1);
    }
}

#[test]
fn global_schemes_move_work_once_profitable() {
    let report = run_strategy(Strategy::Gddlb, 3, 4);
    assert!(
        report.stats.redistributions >= 1,
        "stats: {:?}",
        report.stats
    );
    assert!(report.stats.iters_moved > 0);
    assert!(report.stats.bytes_moved > 0);
}

#[test]
fn local_schemes_balance_within_groups_only() {
    // Load sits on processor 1 (group {0,1}); group {2,3} is clean.
    let report = run_strategy(Strategy::Lddlb, 1, 4);
    assert_eq!(report.total_iters, 400);
    // Work can only have moved between 0 and 1 (groups are K-block).
    let p = &report.per_proc;
    assert!(
        p[0].iters_done + p[1].iters_done == 200,
        "local groups must conserve work"
    );
}

#[test]
fn deterministic_runs() {
    let a = run_strategy(Strategy::Gcdlb, 2, 3);
    let b = run_strategy(Strategy::Gcdlb, 2, 3);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.sync_times, b.sync_times);
}

#[test]
fn balanced_dedicated_cluster_syncs_but_moves_nothing() {
    let wl = uniform(400, 0.01);
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
    let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg)).run();
    assert_eq!(report.total_iters, 400);
    // Everyone finishes at once; one sync round at most, no movement.
    assert_eq!(report.stats.iters_moved, 0);
}

#[test]
fn paper_random_load_all_strategies_finish() {
    let wl = uniform(400, 0.02);
    let cluster = ClusterSpec::paper_homogeneous(4, 7, 0.5);
    let no = Engine::new(cluster.clone(), &wl, None).run();
    assert_eq!(no.total_iters, 400);
    for s in Strategy::ALL {
        let cfg = StrategyConfig::paper(s, 2);
        let r = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
        assert_eq!(r.total_iters, 400, "{s}");
        assert!(r.total_time > 0.0 && r.total_time.is_finite());
    }
}

#[test]
fn more_processors_than_iterations() {
    let wl = uniform(3, 0.01);
    let report = Engine::new(ClusterSpec::dedicated(8), &wl, None).run();
    assert_eq!(report.total_iters, 3);
}

#[test]
fn single_processor_runs_serially() {
    let wl = uniform(50, 0.01);
    let cfg = StrategyConfig::paper(Strategy::Gcdlb, 1);
    let report = Engine::new(ClusterSpec::dedicated(1), &wl, Some(cfg)).run();
    assert_eq!(report.total_iters, 50);
    assert!((report.total_time - 0.5).abs() < 1e-9);
    assert_eq!(report.stats.syncs, 0, "nobody to balance with");
}

#[test]
fn heterogeneous_speeds_balance_toward_fast_processor() {
    let wl = uniform(600, 0.01);
    let cluster = ClusterSpec::heterogeneous(vec![4.0, 1.0]);
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
    let report = Engine::new(cluster, &wl, Some(cfg)).run();
    assert_eq!(report.total_iters, 600);
    assert!(
        report.per_proc[0].iters_done > report.per_proc[1].iters_done * 2,
        "fast processor should do the bulk: {:?}",
        report.per_proc
    );
}

// ------------------------------------------------------------------
// fault injection

use now_fault::{DelaySpec, FailurePolicy, FaultPlan, LossSpec, StallSpec};

fn run_faulty(strategy: Strategy, plan: FaultPlan) -> RunReport {
    let wl = uniform(400, 0.01);
    let cluster = ClusterSpec::dedicated(4);
    let cfg = StrategyConfig::paper(strategy, 2);
    Engine::new(cluster, &wl, Some(cfg))
        .with_faults(plan, FailurePolicy::default())
        .run()
}

#[test]
fn empty_plan_is_identical_to_no_faults() {
    for s in Strategy::ALL {
        let plain = run_strategy(s, 3, 4);
        let wl = uniform(400, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[3] = LoadSpec::Constant { level: 4 };
        let cfg = StrategyConfig::paper(s, 2);
        let faulty = Engine::new(cluster, &wl, Some(cfg))
            .with_faults(FaultPlan::none(), FailurePolicy::default())
            .run();
        assert_eq!(plain, faulty, "{s}: empty plan must not perturb the run");
    }
}

#[test]
fn single_crash_every_strategy_terminates_and_conserves() {
    for s in Strategy::ALL {
        let report = run_faulty(s, FaultPlan::crash(3, 0.3));
        // The engine's own final assert already guarantees done ==
        // workload iterations; re-check through the report.
        assert_eq!(report.total_iters, 400, "{s} lost iterations");
        assert!(report.total_time.is_finite(), "{s} never terminated");
        let f = report.faults.expect("fault plan was active");
        assert_eq!(f.crashes_injected, 1, "{s}");
        assert_eq!(f.detections.len(), 1, "{s}");
        assert_eq!(f.detections[0].proc, 3, "{s}");
        assert!(f.detections[0].detected_at >= 0.3, "{s}");
        // The dead processor stops; survivors absorb its share.
        let survivors: u64 = (0..3).map(|i| report.per_proc[i].iters_done).sum();
        assert_eq!(survivors + report.per_proc[3].iters_done, 400, "{s}");
        assert!(
            report.per_proc[3].iters_done < 100,
            "{s}: dead proc did a full share"
        );
    }
}

#[test]
fn master_crash_promotes_and_completes() {
    // Processor 0 hosts the central balancer in GCDLB; kill it.
    let report = run_faulty(Strategy::Gcdlb, FaultPlan::crash(0, 0.2));
    assert_eq!(report.total_iters, 400);
    let f = report.faults.expect("fault plan was active");
    assert_eq!(f.detections.len(), 1);
    assert!(
        f.iters_recovered > 0,
        "the dead master held unexecuted work"
    );
}

#[test]
fn two_crashes_still_conserve() {
    let mut plan = FaultPlan::crash(1, 0.25);
    plan.crashes.push(now_fault::CrashSpec { proc: 2, at: 0.6 });
    for s in Strategy::ALL {
        let report = run_faulty(s, plan.clone());
        assert_eq!(report.total_iters, 400, "{s}");
        let f = report.faults.expect("fault plan was active");
        assert_eq!(f.crashes_injected, 2, "{s}");
        assert_eq!(f.detections.len(), 2, "{s}");
    }
}

#[test]
fn detection_latency_bounded_by_heartbeat_interval() {
    let policy = FailurePolicy::default();
    let wl = uniform(2000, 0.01);
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
    let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
        .with_faults(FaultPlan::crash(2, 0.5), policy)
        .run();
    let f = report.faults.expect("fault plan was active");
    let d = &f.detections[0];
    // Watchdog may detect earlier; the heartbeat sweep is the
    // worst-case backstop.
    assert!(
        d.latency() <= policy.heartbeat_interval + 1e-9,
        "latency {} exceeds heartbeat interval",
        d.latency()
    );
}

#[test]
fn stall_displaces_finish_time() {
    let wl = uniform(100, 0.01);
    let plain = Engine::new(ClusterSpec::dedicated(4), &wl, None).run();
    let plan = FaultPlan {
        stalls: vec![StallSpec {
            proc: 0,
            from: 0.1,
            until: 0.6,
        }],
        ..FaultPlan::default()
    };
    let stalled = Engine::new(ClusterSpec::dedicated(4), &wl, None)
        .with_faults(plan, FailurePolicy::default())
        .run();
    assert_eq!(stalled.total_iters, 100);
    // 0.25s of compute, frozen from 0.1 for 0.5s: finish at 0.75.
    assert!((plain.total_time - 0.25).abs() < 1e-9);
    assert!(
        (stalled.total_time - 0.75).abs() < 1e-9,
        "t = {}",
        stalled.total_time
    );
}

#[test]
fn message_loss_is_retransmitted_to_completion() {
    let plan = FaultPlan {
        loss: Some(LossSpec {
            prob: 0.2,
            seed: 11,
        }),
        ..FaultPlan::default()
    };
    for s in Strategy::ALL {
        let wl = uniform(400, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[3] = LoadSpec::Constant { level: 4 };
        let cfg = StrategyConfig::paper(s, 2);
        let report = Engine::new(cluster, &wl, Some(cfg))
            .with_faults(plan.clone(), FailurePolicy::default())
            .run();
        assert_eq!(
            report.total_iters, 400,
            "{s} lost iterations to dropped messages"
        );
        let f = report.faults.expect("fault plan was active");
        if f.messages_dropped > 0 {
            assert!(
                f.retries > 0 || f.aborted_episodes > 0,
                "{s}: drops must be recovered by retransmission or abort"
            );
        }
    }
}

#[test]
fn delay_inflation_slows_protocol_but_conserves() {
    let plan = FaultPlan {
        delay: Some(DelaySpec {
            factor: 50.0,
            from: 0.0,
            until: 1e9,
        }),
        ..FaultPlan::default()
    };
    let wl = uniform(400, 0.01);
    let mut cluster = ClusterSpec::dedicated(4);
    cluster.loads[3] = LoadSpec::Constant { level: 4 };
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
    let fast = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
    let slow = Engine::new(cluster, &wl, Some(cfg))
        .with_faults(plan, FailurePolicy::default())
        .run();
    assert_eq!(slow.total_iters, 400);
    let f = slow.faults.expect("fault plan was active");
    assert!(f.messages_delayed > 0);
    assert!(
        slow.total_time >= fast.total_time,
        "inflated latency cannot speed the run up: {} vs {}",
        slow.total_time,
        fast.total_time
    );
}

#[test]
fn crash_runs_are_deterministic() {
    let a = run_faulty(Strategy::Lcdlb, FaultPlan::crash(1, 0.3));
    let b = run_faulty(Strategy::Lcdlb, FaultPlan::crash(1, 0.3));
    assert_eq!(a, b);
}

#[test]
fn crash_under_external_load_conserves() {
    for s in Strategy::ALL {
        let wl = uniform(400, 0.02);
        let cluster = ClusterSpec::paper_homogeneous(4, 7, 0.5);
        let cfg = StrategyConfig::paper(s, 2);
        let report = Engine::new(cluster, &wl, Some(cfg))
            .with_faults(FaultPlan::crash(2, 0.4), FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, 400, "{s}");
    }
}

#[test]
#[should_panic(expected = "all 2 processors crash")]
fn with_faults_rejects_unfinishable_plan() {
    let wl = uniform(10, 0.01);
    let mut plan = FaultPlan::crash(0, 0.1);
    plan.crashes.push(now_fault::CrashSpec { proc: 1, at: 0.1 });
    let _ = Engine::new(ClusterSpec::dedicated(2), &wl, None)
        .with_faults(plan, FailurePolicy::default());
}

// ------------------------------------------------------------------
// §S14 rejoin & partition tolerance

use now_fault::{PartitionSpec, RecoverSpec};

#[test]
fn rejoined_processor_receives_work() {
    // A long run with a mid-run crash and a recovery well before the
    // end: the rejoin handshake must admit the processor and the
    // re-expansion must ship it work it then executes.
    let wl = uniform(4000, 0.01);
    let plan = FaultPlan {
        crashes: vec![now_fault::CrashSpec { proc: 3, at: 0.5 }],
        recoveries: vec![RecoverSpec { proc: 3, at: 1.0 }],
        ..FaultPlan::default()
    };
    for s in Strategy::ALL {
        let cfg = StrategyConfig::paper(s, 2);
        let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
            .with_faults(plan.clone(), FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, 4000, "{s} lost iterations");
        let f = report.faults.expect("fault plan was active");
        assert_eq!(f.recoveries, 1, "{s}");
        assert_eq!(f.rejoins.len(), 1, "{s}: one rejoin record expected");
        let r = &f.rejoins[0];
        assert_eq!(r.proc, 3, "{s}");
        assert!(r.recovered_at >= 1.0, "{s}");
        assert!(
            r.admitted_at >= r.recovered_at,
            "{s}: admission precedes recovery"
        );
        assert!(
            r.iters_after_rejoin > 0,
            "{s}: rejoined processor never got work ({r:?})"
        );
    }
}

#[test]
fn all_procs_crash_but_one_recovers_conserves() {
    // Every processor crashes, but one comes back: the plan is valid
    // (the AllProcsCrash check accounts for recoveries) and the
    // orphaned work parks in limbo until the survivor drains it.
    let wl = uniform(50, 0.01);
    let plan = FaultPlan {
        crashes: vec![
            now_fault::CrashSpec { proc: 0, at: 0.08 },
            now_fault::CrashSpec { proc: 1, at: 0.11 },
        ],
        recoveries: vec![RecoverSpec { proc: 1, at: 0.4 }],
        ..FaultPlan::default()
    };
    let report = Engine::new(ClusterSpec::dedicated(2), &wl, None)
        .with_faults(plan.clone(), FailurePolicy::default())
        .run();
    assert_eq!(report.total_iters, 50, "noDLB limbo drain lost work");

    let cfg = StrategyConfig::paper(Strategy::Gcdlb, 2);
    let report = Engine::new(ClusterSpec::dedicated(2), &wl, Some(cfg))
        .with_faults(plan, FailurePolicy::default())
        .run();
    assert_eq!(report.total_iters, 50, "DLB limbo drain lost work");
    let f = report.faults.expect("fault plan was active");
    assert_eq!(f.recoveries, 1);
}

#[test]
fn partition_heals_without_death_declarations() {
    // A bidirectional link cut between 0 and 1: messages on the cut
    // links are lost (driving the watchdog/abort machinery), but a
    // partition is not a crash — no detection may fire, no rejoin is
    // recorded, and the membership at the end is the full cluster.
    let wl = uniform(800, 0.01);
    let plan = FaultPlan {
        partitions: vec![
            PartitionSpec {
                from: 0,
                to: 1,
                start: 0.2,
                heal: 1.2,
            },
            PartitionSpec {
                from: 1,
                to: 0,
                start: 0.2,
                heal: 1.2,
            },
        ],
        ..FaultPlan::default()
    };
    for s in Strategy::ALL {
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[1] = LoadSpec::Constant { level: 4 };
        let cfg = StrategyConfig::paper(s, 2);
        let report = Engine::new(cluster, &wl, Some(cfg))
            .with_faults(plan.clone(), FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, 800, "{s} lost iterations");
        let f = report.faults.expect("fault plan was active");
        assert!(
            f.detections.is_empty(),
            "{s}: partition must not declare deaths: {:?}",
            f.detections
        );
        assert!(f.rejoins.is_empty(), "{s}: nobody crashed");
        // Every processor survived to the end and did work.
        for p in &report.per_proc {
            assert!(p.iters_done > 0, "{s}: processor starved: {p:?}");
        }
    }
}

#[test]
fn stale_epoch_instruction_is_discarded() {
    // Direct check of the split-brain guard: an instruction stamped
    // with an older membership epoch is dead on arrival.
    let wl = uniform(40, 0.01);
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
    let mut engine = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
        .with_faults(FaultPlan::crash(3, 50.0), FailurePolicy::default());
    engine.membership_epoch = 2;
    let outcome = Arc::new(Plan::new(BalanceOutcome {
        verdict: BalanceVerdict::BelowThreshold,
        new_counts: vec![],
        transfers: vec![],
        moved: 0,
        predicted_old: 0.0,
        predicted_new: 0.0,
    }));
    engine.on_deliver(
        1,
        Payload::Instruction {
            group: 0,
            outcome: Arc::clone(&outcome),
            epoch: 1,
            episode: 0,
        },
        0.1,
    );
    assert_eq!(
        engine.faults.stale_instructions, 1,
        "stale-epoch instruction must be counted and dropped"
    );
    // A current-epoch instruction passes the guard (and is then a
    // no-op only because no episode is open).
    engine.on_deliver(
        1,
        Payload::Instruction {
            group: 0,
            outcome,
            epoch: 2,
            episode: 0,
        },
        0.2,
    );
    assert_eq!(engine.faults.stale_instructions, 1);
}

#[test]
fn crash_recover_crash_conserves() {
    // The same processor crashes, rejoins, and crashes again: both
    // confiscations must conserve, and the final membership excludes
    // it.
    let wl = uniform(4000, 0.01);
    let plan = FaultPlan {
        crashes: vec![
            now_fault::CrashSpec { proc: 2, at: 0.4 },
            now_fault::CrashSpec { proc: 2, at: 2.0 },
        ],
        recoveries: vec![RecoverSpec { proc: 2, at: 1.0 }],
        ..FaultPlan::default()
    };
    for s in Strategy::ALL {
        let cfg = StrategyConfig::paper(s, 2);
        let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
            .with_faults(plan.clone(), FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, 4000, "{s} lost iterations");
        let f = report.faults.expect("fault plan was active");
        assert_eq!(f.crashes_injected, 2, "{s}");
        assert_eq!(f.recoveries, 1, "{s}");
    }
}

#[test]
fn adaptive_stale_epoch_messages_are_dropped() {
    // §S17 guard: once a switch (or any membership change) bumps the
    // epoch, old-regime interrupts and instructions are dead on
    // arrival — counted as dropped, never applied.
    let acfg = dlb_core::AdaptiveConfig::paper(Strategy::Gddlb, 2);
    let wl = uniform(40, 0.01);
    let mut engine =
        Engine::new(ClusterSpec::dedicated(4), &wl, Some(acfg.initial)).with_adaptive(acfg);
    engine.membership_epoch = 2;
    engine.on_deliver(1, Payload::Interrupt { group: 0, epoch: 1 }, 0.1);
    let outcome = Arc::new(Plan::new(BalanceOutcome {
        verdict: BalanceVerdict::BelowThreshold,
        new_counts: vec![],
        transfers: vec![],
        moved: 0,
        predicted_old: 0.0,
        predicted_new: 0.0,
    }));
    engine.on_deliver(
        1,
        Payload::Instruction {
            group: 0,
            outcome: Arc::clone(&outcome),
            epoch: 1,
            episode: 0,
        },
        0.2,
    );
    {
        let rep = &engine.adaptive.as_ref().expect("adaptive engine").report;
        assert_eq!(rep.stale_dropped, 2, "both stale messages dropped");
        assert_eq!(rep.stale_applied, 0);
    }
    // Current-epoch messages pass the guard untouched.
    engine.on_deliver(1, Payload::Interrupt { group: 0, epoch: 2 }, 0.3);
    engine.on_deliver(
        1,
        Payload::Instruction {
            group: 0,
            outcome,
            epoch: 2,
            episode: 0,
        },
        0.4,
    );
    let rep = &engine.adaptive.as_ref().expect("adaptive engine").report;
    assert_eq!(rep.stale_dropped, 2, "current-epoch messages are not stale");
    assert_eq!(rep.stale_applied, 0);
}

#[test]
fn adaptive_without_drift_matches_static_run() {
    // A stable run never clears the hysteresis gate: the adaptive
    // wrapper must be timing-invisible — byte-identical dynamics to
    // the static run it started on, plus the accounting block.
    let wl = uniform(400, 0.01);
    let mut cluster = ClusterSpec::dedicated(4);
    cluster.loads[3] = LoadSpec::Constant { level: 4 };
    let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
    let stat = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
    let acfg = dlb_core::AdaptiveConfig::paper(Strategy::Gddlb, 2);
    let adap = Engine::new(cluster, &wl, Some(cfg))
        .with_adaptive(acfg)
        .run();
    assert_eq!(stat.total_time, adap.total_time);
    assert_eq!(stat.stats, adap.stats);
    assert_eq!(stat.sync_times, adap.sync_times);
    assert_eq!(stat.per_proc, adap.per_proc);
    let a = adap.adaptive.expect("adaptive run reports accounting");
    assert_eq!(a.final_strategy, Strategy::Gddlb);
    assert_eq!(a.mid_episode_switches, 0);
    assert_eq!(a.stale_applied, 0);
}
