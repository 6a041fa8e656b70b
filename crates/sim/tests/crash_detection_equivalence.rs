//! Property: under random multi-crash plans, the episode engine
//! (`EngineMode::Episode`) detects dead members exactly as the
//! per-iteration reference (`EngineMode::PerIter`) does: the same
//! processors at the same instants with the same recovered work, the
//! same heartbeat sweep count, and a byte-identical run report. Both
//! modes tick the heartbeat every interval, so detection latency stays
//! bounded by it.

use dlb_apps::MxmConfig;
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_fault::{CrashSpec, FailurePolicy, FaultPlan};
use now_sim::{ClusterSpec, Engine, EngineMode, RunReport};
use proptest::prelude::*;

const P: usize = 4;
const GROUP: usize = 2;

fn run(mode: EngineMode, cluster: &ClusterSpec, plan: &FaultPlan) -> RunReport {
    let wl = MxmConfig::new(80, 400, 400).workload();
    let cfg = StrategyConfig::paper(Strategy::Gddlb, GROUP);
    Engine::new(cluster.clone(), &wl, Some(cfg))
        .with_mode(mode)
        .with_faults(plan.clone(), FailurePolicy::default())
        .run()
}

proptest! {
    #[test]
    fn crash_detection_matches_the_per_iter_reference(
        seed in 1u64..1 << 20,
        fracs in prop::collection::vec(0.02f64..0.95, 1..4),
        proc_picks in prop::collection::vec(0usize..P, 3..4),
    ) {
        let cluster = ClusterSpec::paper_homogeneous(P, seed, 0.4);
        // Probe without faults to learn the horizon, then place the
        // sampled crashes as fractions of it. Keep at least one
        // processor alive per group by construction: crashes target
        // distinct processors drawn from the picks.
        let horizon = run(EngineMode::PerIter, &cluster, &FaultPlan::none()).total_time;
        let mut crashes: Vec<CrashSpec> = Vec::new();
        for (i, f) in fracs.iter().enumerate() {
            let proc = proc_picks[i % proc_picks.len()];
            if crashes.iter().any(|c| c.proc == proc) {
                continue;
            }
            if crashes.len() == P - 1 {
                break;
            }
            crashes.push(CrashSpec { proc, at: horizon * f });
        }
        let plan = FaultPlan { crashes, ..FaultPlan::default() };

        let reference = run(EngineMode::PerIter, &cluster, &plan);
        let episode = run(EngineMode::Episode, &cluster, &plan);

        // Dead-member detection: same processors, same instants, same
        // recovered work, in the same order.
        let a = reference.faults.as_ref().expect("fault plan was non-empty");
        let b = episode.faults.as_ref().expect("fault plan was non-empty");
        prop_assert_eq!(a.detections.len(), b.detections.len());
        for (x, y) in a.detections.iter().zip(&b.detections) {
            prop_assert_eq!(x.proc, y.proc);
            prop_assert!(
                x.detected_at.to_bits() == y.detected_at.to_bits(),
                "detection time drifted for proc {}: {} vs {}",
                x.proc, x.detected_at, y.detected_at
            );
            prop_assert_eq!(x.iters_recovered, y.iters_recovered);
        }
        // Same sweep accounting.
        prop_assert_eq!(a.heartbeat_sweeps, b.heartbeat_sweeps);

        // And the whole report is byte-identical.
        let a_bytes = serde_json::to_string(&reference).expect("report serializes");
        let b_bytes = serde_json::to_string(&episode).expect("report serializes");
        prop_assert_eq!(a_bytes, b_bytes);
    }
}
