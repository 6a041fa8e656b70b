//! High-level experiment drivers.

use crate::cluster::ClusterSpec;
use crate::engine::Engine;
use crate::report::{rank_strategies, RunReport};
use dlb_core::strategy::{Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use now_fault::{FailurePolicy, FaultPlan};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Run one workload under a DLB strategy.
pub fn run_dlb(
    cluster: &ClusterSpec,
    workload: &dyn LoopWorkload,
    cfg: StrategyConfig,
) -> RunReport {
    Engine::new(cluster.clone(), workload, Some(cfg)).run()
}

/// Run the no-DLB baseline: static equal blocks, run to completion under
/// the external load.
pub fn run_no_dlb(cluster: &ClusterSpec, workload: &dyn LoopWorkload) -> RunReport {
    Engine::new(cluster.clone(), workload, None).run()
}

/// Run one workload under a DLB strategy with fault injection: the
/// processors named in `plan` crash / stall / lose messages as specified,
/// and the failure-aware protocol (`policy`) detects and recovers. The
/// run still executes every iteration of the workload exactly once.
///
/// An empty `plan` is guaranteed to produce a report identical to
/// [`run_dlb`] — the fault machinery adds no events and no time.
pub fn run_dlb_faulty(
    cluster: &ClusterSpec,
    workload: &dyn LoopWorkload,
    cfg: StrategyConfig,
    plan: FaultPlan,
    policy: FailurePolicy,
) -> RunReport {
    Engine::new(cluster.clone(), workload, Some(cfg))
        .with_faults(plan, policy)
        .run()
}

/// Run one workload under the §S17 adaptive policy: start on
/// `acfg.initial`, re-consult the cost model at episode boundaries, and
/// switch strategies mid-run when the predicted win clears the hysteresis
/// gate. With an empty fault plan and a workload whose observed rates
/// never destabilize, the run is identical to `run_dlb(acfg.initial)`
/// modulo the (timing-neutral) adaptive accounting in the report.
pub fn run_dlb_adaptive(
    cluster: &ClusterSpec,
    workload: &dyn LoopWorkload,
    acfg: dlb_core::AdaptiveConfig,
) -> RunReport {
    Engine::new(cluster.clone(), workload, Some(acfg.initial))
        .with_adaptive(acfg)
        .run()
}

/// Ablation A1.3: run with *periodic* synchronization every `dt` seconds
/// in addition to the receiver-initiated interrupts.
pub fn run_dlb_periodic(
    cluster: &ClusterSpec,
    workload: &dyn LoopWorkload,
    cfg: StrategyConfig,
    dt: f64,
) -> RunReport {
    Engine::new(cluster.clone(), workload, Some(cfg))
        .with_periodic_sync(dt)
        .run()
}

/// The five bars of one figure group: noDLB plus the four strategies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategySweep {
    pub no_dlb: RunReport,
    pub strategies: Vec<RunReport>,
}

impl StrategySweep {
    /// Strategies ranked best-first by measured time — the "Actual" columns
    /// of Tables 1 and 2.
    pub fn actual_order(&self) -> Vec<Strategy> {
        rank_strategies(&self.strategies)
    }

    /// Report for one strategy.
    pub fn report_for(&self, s: Strategy) -> &RunReport {
        self.strategies
            .iter()
            .find(|r| r.strategy == Some(s))
            .expect("sweep contains every strategy")
    }
}

/// Run noDLB + all four strategies on the same cluster and workload, with
/// `group_size` for the local schemes.
///
/// Clones the cluster **once** for all five runs: the engines share the
/// allocation via `Arc`.
pub fn run_all_strategies(
    cluster: &ClusterSpec,
    workload: &dyn LoopWorkload,
    group_size: usize,
) -> StrategySweep {
    let cluster = Arc::new(cluster.clone());
    let run = |cfg| Engine::new(Arc::clone(&cluster), workload, cfg).run();
    let no_dlb = run(None);
    let strategies = Strategy::ALL
        .iter()
        .map(|&s| run(Some(StrategyConfig::paper(s, group_size))))
        .collect();
    StrategySweep { no_dlb, strategies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::work::UniformLoop;

    #[test]
    fn sweep_contains_all_five_runs() {
        let wl = UniformLoop::new(200, 0.01, 800);
        let cluster = ClusterSpec::paper_homogeneous(4, 3, 0.5);
        let sweep = run_all_strategies(&cluster, &wl, 2);
        assert_eq!(sweep.strategies.len(), 4);
        for r in &sweep.strategies {
            let t = r.normalized_to(&sweep.no_dlb);
            assert!(t > 0.0, "{} must have positive normalized time", r.label());
        }
    }

    #[test]
    fn actual_order_lists_all_four() {
        let wl = UniformLoop::new(200, 0.01, 800);
        let cluster = ClusterSpec::paper_homogeneous(4, 3, 0.5);
        let sweep = run_all_strategies(&cluster, &wl, 2);
        let order = sweep.actual_order();
        assert_eq!(order.len(), 4);
        let mut sorted = order.clone();
        sorted.sort_by_key(|s| s.abbrev());
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "no duplicates");
    }

    #[test]
    fn periodic_sync_completes_and_syncs_more() {
        use now_load::LoadSpec;
        let wl = UniformLoop::new(400, 0.01, 800);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[2] = LoadSpec::Constant { level: 3 };
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let interrupt = run_dlb(&cluster, &wl, cfg);
        let periodic = run_dlb_periodic(&cluster, &wl, cfg, 0.2);
        assert_eq!(periodic.total_iters, 400);
        assert!(
            periodic.stats.syncs > interrupt.stats.syncs,
            "periodic {} vs interrupt {}",
            periodic.stats.syncs,
            interrupt.stats.syncs
        );
    }

    #[test]
    fn report_for_finds_strategy() {
        let wl = UniformLoop::new(100, 0.01, 8);
        let cluster = ClusterSpec::dedicated(4);
        let sweep = run_all_strategies(&cluster, &wl, 2);
        assert_eq!(
            sweep.report_for(Strategy::Lddlb).strategy,
            Some(Strategy::Lddlb)
        );
    }
}
