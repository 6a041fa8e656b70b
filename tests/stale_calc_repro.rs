//! Balancer calculations that outlive the moment they were scheduled
//! for: a stale `CalcCentral` after master death and promotion must not
//! fire with a cleared profile set, and a calculation queued for an
//! episode that a watchdog then aborts must not fire into the group's
//! next episode. Either would reach `balance_group` with a profile set
//! that is not the episode's, and an empty one panics. The same kind of
//! staleness for a layout: a handler's group index must not outlive a
//! strategy switch chosen in the middle of that handler.
use customized_dlb::apps::MxmConfig;
use customized_dlb::core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use customized_dlb::core::work::{LoopWorkload, UniformLoop};
use customized_dlb::core::Scope;
use customized_dlb::fault::{CrashSpec, DelaySpec, FailurePolicy, FaultPlan, StallSpec};
use customized_dlb::load::LoadSpec;
use customized_dlb::sim::{ClusterSpec, Engine, EngineMode};

#[test]
fn stale_calc_central_after_master_death() {
    // LCDLB: single central balancer (proc 0) serving groups {0,1},{2,3}.
    let wl = UniformLoop::new(400, 0.01, 800);
    let mut cluster = ClusterSpec::dedicated(4);
    // Skew loads so both groups trigger episodes early.
    cluster.loads[1] = LoadSpec::Constant { level: 4 };
    cluster.loads[3] = LoadSpec::Constant { level: 4 };
    let mut cfg = StrategyConfig::paper(Strategy::Lcdlb, 2);
    // Long calculation: wide window between scheduling and firing.
    cfg.calc_cost = 2.0;
    let plan = FaultPlan {
        crashes: vec![customized_dlb::fault::CrashSpec { proc: 0, at: 1.05 }],
        // Inflate latencies massively after the crash so retransmitted
        // profiles cannot reach the promoted master before the stale
        // CalcCentral fires.
        delay: Some(DelaySpec {
            factor: 1000.0,
            from: 1.1,
            until: 1e9,
        }),
        ..FaultPlan::default()
    };
    let policy = FailurePolicy {
        sync_timeout: 0.25,
        max_retries: 10,
        heartbeat_interval: 0.2,
    };
    let report = Engine::new(cluster, &wl, Some(cfg))
        .with_faults(plan, policy)
        .run();
    assert_eq!(report.total_iters, 400);
}

/// Plan 19 of `chaos_campaign --procs 64 --plans 45 --seed 2`, under
/// LCDLB with a two-level hierarchy: proc 62 stalls long enough for its
/// group's watchdog to abort an episode whose calculation is still
/// queued behind the domain balancer's FIFO. That calculation must be
/// dropped when it fires, not run against the group's next episode.
#[test]
fn calc_queued_for_an_aborted_episode_is_dropped() {
    let p = 64;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let cfg = StrategyConfig::paper(Strategy::Lcdlb, 8).with_hierarchy(2, 8);
    let plan = FaultPlan {
        stalls: vec![StallSpec {
            proc: 62,
            from: 0.7025153956469277,
            until: 1.6625794805411076,
        }],
        ..FaultPlan::default()
    };
    for mode in [EngineMode::PerIter, EngineMode::Episode] {
        let report = Engine::new(cluster.clone(), &wl, Some(cfg))
            .with_mode(mode)
            .with_faults(plan.clone(), FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, wl.iterations());
    }
}

/// An adaptive LDDLB run under a two-level hierarchy (eight groups of
/// two, four domains): the watchdog of proc 13's group detects its
/// silent death, the death handling closes the last open episode, and
/// that boundary chooses a switch to a global strategy, whose layout
/// has a single group. The watchdog must not go on to read its own
/// group index in the new layout; the switch waits until the event's
/// handler has returned.
#[test]
fn switch_chosen_inside_a_watchdog_waits_for_the_handler() {
    let p = 16;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let initial = StrategyConfig::paper(Strategy::Lddlb, 2).with_hierarchy(2, 2);
    let acfg = AdaptiveConfig {
        initial,
        window: 1,
        min_episodes_between: 2,
        ..AdaptiveConfig::paper(Strategy::Lddlb, 2)
    };
    let plan = FaultPlan {
        crashes: vec![CrashSpec { proc: 13, at: 2.15 }],
        ..FaultPlan::default()
    };
    let mut reports = Vec::new();
    for mode in [EngineMode::PerIter, EngineMode::Episode] {
        let report = Engine::new(cluster.clone(), &wl, Some(initial))
            .with_mode(mode)
            .with_faults(plan.clone(), FailurePolicy::default())
            .with_adaptive(acfg)
            .run();
        assert_eq!(report.total_iters, wl.iterations());
        let a = report.adaptive.as_ref().expect("adaptive accounting");
        assert_eq!(a.mid_episode_switches, 0);
        // The watchdog detects the death off the heartbeat cadence, and
        // the switch follows at the same instant.
        let detected = report.faults.as_ref().expect("fault accounting").detections[0].detected_at;
        assert_ne!(detected % FailurePolicy::default().heartbeat_interval, 0.0);
        assert_eq!(a.switches[0].at, detected);
        assert_eq!(a.switches[0].from, Strategy::Lddlb);
        assert_eq!(a.switches[0].to.scope(), Scope::Global);
        reports.push(serde_json::to_string(&report).expect("report serializes"));
    }
    assert_eq!(reports[0], reports[1], "episode mode diverged");
}
