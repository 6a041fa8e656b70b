//! Re-decision from *observed* runtime state (§S17).
//!
//! The paper's hybrid scheme (Section 4.3) consults the model once, at
//! the first synchronization point, with a-priori load functions. A NOW
//! that crashes, rejoins, partitions and drifts (PR 1/5/7) invalidates
//! that single decision: the best strategy is a function of the *live*
//! membership and the *measured* rates. [`ObservedSystem`] packages what
//! the runtime actually observed over its last few episodes — per-live-
//! processor effective rates, remaining work, and the fault picture —
//! and [`ObservedSystem::redecide`] re-runs the same
//! [`choose_strategy`] decision process over it.
//!
//! The translation into a [`SystemModel`] is deliberate: observed rates
//! already *include* every slowdown the processor suffered (external
//! load, stalls, slow spans), so they enter as the model's `speeds`
//! against **zero** residual load functions, and the remaining work
//! enters as a uniform loop of unit-cost iterations. Predictions then
//! come out in seconds on the same clock the rates were measured on,
//! making them directly comparable across strategies — which is all the
//! switch decision needs.

use crate::decision::{choose_strategy, DecisionReport};
use crate::system::SystemModel;
use dlb_core::work::UniformLoop;
use now_load::LoadSpec;
use now_net::CommCostModel;

/// What the runtime measured, in place of the a-priori parameters the
/// compile-time decision used.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedSystem {
    /// Observed effective rate (iterations/second) of every **live**
    /// processor over the observation window. Length is the live count,
    /// not `P`.
    pub rates: Vec<f64>,
    /// Iterations not yet executed anywhere.
    pub remaining_iters: u64,
    /// Bytes shipped per transferred iteration (work-movement cost).
    pub bytes_per_iter: u64,
    /// Processors currently dead (detected).
    pub dead: usize,
    /// Rejoins admitted so far — admission churn destabilizes the
    /// window's rate measurements.
    pub rejoin_churn: u64,
    /// Whether any plan-driven link cut is active right now. Profiles
    /// measured across a partition under-report reachable capacity, and
    /// a switch would re-seed balancer roles across cut links.
    pub partitioned: bool,
}

impl ObservedSystem {
    /// Whether the observation is trustworthy enough to re-decide on:
    /// a partition both corrupts the measurement and makes a handover
    /// illegal (the new roles could be unreachable), and re-deciding
    /// needs at least two live processors to balance between.
    pub fn stable(&self) -> bool {
        !self.partitioned && self.rates.len() >= 2
    }

    /// The [`SystemModel`] equivalent of the observation: rates as
    /// speeds, zero residual load, the engine's own characterized
    /// communication model and balancer calculation cost.
    pub fn model(&self, comm: CommCostModel, calc_cost: f64) -> SystemModel {
        assert!(
            !self.rates.is_empty(),
            "observed system needs at least one live processor"
        );
        SystemModel {
            loads: vec![LoadSpec::Zero; self.rates.len()],
            speeds: self.rates.clone(),
            comm,
            calc_cost,
        }
    }

    /// Re-run the paper's decision process over the observation: rank
    /// all four strategies on the remaining work under the live
    /// membership and measured rates.
    pub fn redecide(
        &self,
        comm: CommCostModel,
        calc_cost: f64,
        group_size: usize,
    ) -> DecisionReport {
        let model = self.model(comm, calc_cost);
        // Unit-cost iterations against speeds-in-iters/sec puts the
        // predictions in wall seconds.
        let wl = UniformLoop::new(self.remaining_iters, 1.0, self.bytes_per_iter);
        choose_strategy(&model, &wl, group_size.min(self.rates.len()).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::NetworkParams;

    fn comm(p: usize) -> CommCostModel {
        crate::control_comm_model(NetworkParams::paper_ethernet(), p)
    }

    fn observed(rates: Vec<f64>) -> ObservedSystem {
        ObservedSystem {
            rates,
            remaining_iters: 4_000,
            bytes_per_iter: 800,
            dead: 0,
            rejoin_churn: 0,
            partitioned: false,
        }
    }

    #[test]
    fn redecide_ranks_all_four() {
        let obs = observed(vec![90.0, 110.0, 40.0, 100.0]);
        let report = obs.redecide(comm(4), 1e-3, 2);
        assert_eq!(report.order.len(), 4);
        assert_eq!(report.chosen, report.order[0]);
        for p in &report.predictions {
            assert!(p.total_time.is_finite() && p.total_time > 0.0);
        }
    }

    #[test]
    fn redecide_is_deterministic() {
        let obs = observed(vec![50.0, 120.0, 80.0]);
        let a = obs.redecide(comm(3), 1e-3, 2);
        let b = obs.redecide(comm(3), 1e-3, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn partition_marks_observation_unstable() {
        let mut obs = observed(vec![100.0, 100.0]);
        assert!(obs.stable());
        obs.partitioned = true;
        assert!(!obs.stable());
    }

    #[test]
    fn lone_survivor_is_unstable() {
        let obs = observed(vec![100.0]);
        assert!(!obs.stable());
    }

    #[test]
    fn model_uses_rates_as_speeds() {
        let obs = observed(vec![30.0, 60.0]);
        let m = obs.model(comm(2), 1e-3);
        assert_eq!(m.speeds, vec![30.0, 60.0]);
        assert_eq!(m.processors(), 2);
    }
}
