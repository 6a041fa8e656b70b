//! The system description the model evaluates against.

use now_load::{LoadSpec, WorkClock};
use now_net::{characterize, CommCostModel, NetworkParams};

/// Everything the model needs to know about the machine: processor speeds,
/// load functions, and the characterized network.
///
/// The load functions here are whatever the decision process knows — at
/// compile time a guess or a profile, at run time (the paper's hybrid
/// scheme) the actual observed load streams.
#[derive(Clone)]
pub struct SystemModel {
    /// Relative processor speeds `S_i`.
    pub speeds: Vec<f64>,
    /// Per-processor external load functions `ℓ_i`.
    pub loads: Vec<LoadSpec>,
    /// Fitted communication-pattern cost model (Fig. 4's polynomials).
    pub comm: CommCostModel,
    /// Balancer calculation cost `ξ`, seconds.
    pub calc_cost: f64,
}

/// Message size used when characterizing the network for control traffic.
const CONTROL_MSG_BYTES: usize = 64;

/// The fitted communication cost model the strategy decision uses on `p`
/// processors of network `net`: the off-line characterization (Section
/// 6.1) with control-sized messages, fitted over at least four
/// processors.
pub fn control_comm_model(net: NetworkParams, p: usize) -> CommCostModel {
    characterize(net, p.max(4), CONTROL_MSG_BYTES).model
}

impl SystemModel {
    /// Build from serializable pieces, running the off-line network
    /// characterization (Section 6.1).
    pub fn from_specs(speeds: Vec<f64>, loads: &[LoadSpec], net: NetworkParams) -> Self {
        assert_eq!(speeds.len(), loads.len(), "speeds/loads length mismatch");
        assert!(!speeds.is_empty(), "need at least one processor");
        loads.iter().for_each(LoadSpec::validate);
        Self {
            comm: control_comm_model(net, speeds.len()),
            speeds,
            loads: loads.to_vec(),
            calc_cost: 1e-3,
        }
    }

    /// Number of processors `P`.
    pub fn processors(&self) -> usize {
        self.speeds.len()
    }

    /// Per-processor work clocks.
    pub fn clocks(&self) -> Vec<WorkClock> {
        self.speeds
            .iter()
            .zip(&self.loads)
            .map(|(&s, l)| WorkClock::new(l.clone(), s))
            .collect()
    }
}

impl std::fmt::Debug for SystemModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemModel")
            .field("speeds", &self.speeds)
            .field("calc_cost", &self.calc_cost)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_specs_characterizes_network() {
        let m = SystemModel::from_specs(
            vec![1.0; 4],
            &[
                LoadSpec::Zero,
                LoadSpec::Zero,
                LoadSpec::Zero,
                LoadSpec::Zero,
            ],
            NetworkParams::paper_ethernet(),
        );
        assert_eq!(m.processors(), 4);
        // The fitted model orders AA above OA at P=4.
        let aa = m.comm.cost(now_net::Pattern::AllToAll, 4);
        let oa = m.comm.cost(now_net::Pattern::OneToAll, 4);
        assert!(aa > oa);
        assert_eq!(m.clocks().len(), 4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_specs_rejected() {
        let _ = SystemModel::from_specs(
            vec![1.0; 3],
            &[LoadSpec::Zero],
            NetworkParams::paper_ethernet(),
        );
    }
}
