//! Run statistics ("number of redistributions, number of synchronizations,
//! amount of work moved, etc." — the DLB statistics the master collects at
//! the end of a run, Section 5.2).

use crate::balance::BalanceVerdict;
use serde::{Deserialize, Serialize};

/// Counters accumulated by a DLB run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DlbStats {
    /// Synchronization episodes (`τ` in the model).
    pub syncs: u64,
    /// Synchronizations that ended in a redistribution.
    pub redistributions: u64,
    /// Moves cancelled by the profitability analysis.
    pub unprofitable: u64,
    /// Moves cancelled by the minimum-work threshold.
    pub below_threshold: u64,
    /// Total iterations moved (`Σ_j δ(j)`).
    pub iters_moved: u64,
    /// Work-transfer messages sent (`Σ_j μ(j)`).
    pub transfer_messages: u64,
    /// Control messages sent (interrupts, profiles, instructions).
    pub control_messages: u64,
    /// Bytes of array data moved.
    pub bytes_moved: u64,
}

impl DlbStats {
    /// Record one balancer decision.
    pub fn record_verdict(&mut self, verdict: BalanceVerdict) {
        match verdict {
            BalanceVerdict::Move => self.redistributions += 1,
            BalanceVerdict::Unprofitable => self.unprofitable += 1,
            BalanceVerdict::BelowThreshold => self.below_threshold += 1,
            BalanceVerdict::Finished => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_route_to_counters() {
        let mut s = DlbStats::default();
        s.record_verdict(BalanceVerdict::Move);
        s.record_verdict(BalanceVerdict::Move);
        s.record_verdict(BalanceVerdict::Unprofitable);
        s.record_verdict(BalanceVerdict::BelowThreshold);
        s.record_verdict(BalanceVerdict::Finished);
        assert_eq!(s.redistributions, 2);
        assert_eq!(s.unprofitable, 1);
        assert_eq!(s.below_threshold, 1);
    }
}
