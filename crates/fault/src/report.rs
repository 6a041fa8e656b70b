//! What actually happened: injected faults and the protocol's response.

use serde::{Deserialize, Serialize};

/// One detected processor death.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionRecord {
    pub proc: usize,
    /// When the processor actually died.
    pub crashed_at: f64,
    /// When its balancer declared it dead.
    pub detected_at: f64,
    /// Unexecuted iterations confiscated from its queue and reassigned
    /// to surviving members.
    pub iters_recovered: u64,
}

impl DetectionRecord {
    /// Time from death to declaration.
    pub fn latency(&self) -> f64 {
        self.detected_at - self.crashed_at
    }
}

/// One processor readmitted to the cluster after a recovery (DESIGN.md
/// §S14). `iters_after_rejoin` is finalized when the run ends, from the
/// processor's iteration counter at admission.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RejoinRecord {
    pub proc: usize,
    /// When the processor came back up.
    pub recovered_at: f64,
    /// When the balancer admitted it to the membership view.
    pub admitted_at: f64,
    /// Iterations the processor executed after being admitted.
    pub iters_after_rejoin: u64,
}

/// Summary of fault activity during one run. Attached to the run report
/// only when a non-empty plan was supplied, so fault-free runs stay
/// byte-identical to the pre-fault subsystem.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Crashes injected (scheduled and reached before the run ended).
    pub crashes_injected: u64,
    /// Messages silently dropped by the loss model.
    pub messages_dropped: u64,
    /// Messages whose delivery latency was inflated.
    pub messages_delayed: u64,
    /// Episode watchdog retransmissions.
    pub retries: u64,
    /// Episodes aborted after retry exhaustion.
    pub aborted_episodes: u64,
    /// Heartbeat liveness sweeps performed.
    pub heartbeat_sweeps: u64,
    /// Total unexecuted iterations recovered from dead processors.
    pub iters_recovered: u64,
    /// Processor recoveries injected (scheduled and reached).
    pub recoveries: u64,
    /// Messages lost to active partition link cuts.
    pub messages_cut: u64,
    /// Instructions discarded because they carried a stale membership
    /// epoch (split-brain guard, DESIGN.md §S14).
    pub stale_instructions: u64,
    /// Per-death detection records, in detection order.
    pub detections: Vec<DetectionRecord>,
    /// Per-recovery rejoin records, in admission order.
    pub rejoins: Vec<RejoinRecord>,
}

impl FaultReport {
    /// Worst detection latency over all deaths, if any were detected.
    pub fn max_detection_latency(&self) -> Option<f64> {
        self.detections
            .iter()
            .map(DetectionRecord::latency)
            .max_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats() {
        let mut r = FaultReport::default();
        assert_eq!(r.max_detection_latency(), None);
        r.detections.push(DetectionRecord {
            proc: 1,
            crashed_at: 1.0,
            detected_at: 1.5,
            iters_recovered: 10,
        });
        r.detections.push(DetectionRecord {
            proc: 2,
            crashed_at: 2.0,
            detected_at: 3.0,
            iters_recovered: 4,
        });
        assert_eq!(r.max_detection_latency(), Some(1.0));
    }
}
