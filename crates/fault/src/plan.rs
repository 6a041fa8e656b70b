//! Fault specifications and the composite [`FaultPlan`].

use crate::rng;
use serde::{Deserialize, Serialize};

/// Permanent fail-stop crash: processor `proc` dies at simulated time
/// `at`. It stops computing, never sends again, and silently discards
/// anything addressed to it after that instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    pub proc: usize,
    pub at: f64,
}

/// Transient stall: processor `proc` makes no compute progress during
/// `[from, until)` but its network endpoint stays alive. Models an OS
/// freeze, swap storm, or a hostile external job pinning the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StallSpec {
    pub proc: usize,
    pub from: f64,
    pub until: f64,
}

/// Probabilistic message loss: each protocol message is independently
/// dropped with probability `prob`, decided by hashing `(seed, message
/// sequence number)` — deterministic per plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossSpec {
    pub prob: f64,
    pub seed: u64,
}

/// Delay inflation: message delivery latency is multiplied by `factor`
/// (≥ 1) for messages sent during `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelaySpec {
    pub factor: f64,
    pub from: f64,
    pub until: f64,
}

/// Recovery: a processor that crashed earlier comes back at time `at`
/// with its network endpoint live and an empty work queue; the rejoin
/// handshake (DESIGN.md §S14) decides when it receives work again.
/// Each recovery must follow a crash of the same processor, and
/// crash/recover times per processor must strictly interleave.
/// (Stalls need no recovery spec — a stall already carries its own end
/// time and never changes membership.)
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoverSpec {
    pub proc: usize,
    pub at: f64,
}

/// Directed link cut: every message sent from `from` to `to` during
/// `[start, heal)` is silently lost in the medium. Both endpoints stay
/// alive and keep computing; the cut surfaces as targeted loss, so the
/// existing watchdog/retransmission machinery drives per-link recovery.
/// Cut a pair of links (a→b and b→a) to model a symmetric partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    pub from: usize,
    pub to: usize,
    pub start: f64,
    pub heal: f64,
}

/// A complete, validated-on-use fault scenario for one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub crashes: Vec<CrashSpec>,
    pub stalls: Vec<StallSpec>,
    pub loss: Option<LossSpec>,
    pub delay: Option<DelaySpec>,
    pub recoveries: Vec<RecoverSpec>,
    pub partitions: Vec<PartitionSpec>,
}

/// Why a [`FaultPlan`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A spec names a processor outside `0..p`.
    ProcOutOfRange { proc: usize, procs: usize },
    /// A time is negative or NaN.
    BadTime { what: &'static str },
    /// A stall or delay interval is empty or inverted.
    EmptyInterval { what: &'static str },
    /// Loss probability outside `[0, 1)`. A probability of 1 would drop
    /// every message including every retransmission — no protocol can
    /// terminate under that, so it is rejected up front.
    BadLossProb { prob: f64 },
    /// Delay factor below 1 (delays inflate latency, never shrink it).
    BadDelayFactor { factor: f64 },
    /// Two crashes name the same processor with no recovery between
    /// them.
    DuplicateCrash { proc: usize },
    /// Every processor ends the plan dead (a crash with no later
    /// recovery), so no survivor can finish the work. A plan where all
    /// processors crash but at least one recovers is valid.
    AllProcsCrash { procs: usize },
    /// A recovery that does not strictly follow a crash of the same
    /// processor (no preceding crash, two recoveries in a row, or a
    /// recovery at the very instant of a crash).
    RecoverWithoutCrash { proc: usize },
    /// A partition cuts the link from a processor to itself.
    SelfPartition { proc: usize },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::ProcOutOfRange { proc, procs } => {
                write!(
                    f,
                    "fault names processor {proc} but the cluster has {procs}"
                )
            }
            FaultError::BadTime { what } => write!(f, "{what} time must be finite and >= 0"),
            FaultError::EmptyInterval { what } => {
                write!(f, "{what} interval must satisfy from < until")
            }
            FaultError::BadLossProb { prob } => {
                write!(f, "loss probability {prob} outside [0, 1)")
            }
            FaultError::BadDelayFactor { factor } => {
                write!(f, "delay factor {factor} must be >= 1")
            }
            FaultError::DuplicateCrash { proc } => {
                write!(f, "processor {proc} crashes again without recovering")
            }
            FaultError::AllProcsCrash { procs } => {
                write!(f, "all {procs} processors crash; no survivor can finish")
            }
            FaultError::RecoverWithoutCrash { proc } => {
                write!(f, "processor {proc} recovery does not follow a crash")
            }
            FaultError::SelfPartition { proc } => {
                write!(f, "partition cuts the link from processor {proc} to itself")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultPlan {
    /// A plan that injects nothing. Running with this is bit-identical
    /// to running without the fault subsystem.
    pub fn none() -> Self {
        Self::default()
    }

    /// Convenience: crash a single processor at `at`.
    pub fn crash(proc: usize, at: f64) -> Self {
        FaultPlan {
            crashes: vec![CrashSpec { proc, at }],
            ..Self::default()
        }
    }

    /// True if the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.stalls.is_empty()
            && self.loss.is_none()
            && self.delay.is_none()
            && self.recoveries.is_empty()
            && self.partitions.is_empty()
    }

    /// Check the plan against a cluster of `procs` processors.
    pub fn validate(&self, procs: usize) -> Result<(), FaultError> {
        // Per processor, crash and recover times must strictly
        // interleave starting with a crash: crash < recover < crash …
        let mut timeline: Vec<Vec<(f64, bool)>> = vec![Vec::new(); procs];
        for c in &self.crashes {
            if c.proc >= procs {
                return Err(FaultError::ProcOutOfRange {
                    proc: c.proc,
                    procs,
                });
            }
            if !c.at.is_finite() || c.at < 0.0 {
                return Err(FaultError::BadTime { what: "crash" });
            }
            timeline[c.proc].push((c.at, true));
        }
        for r in &self.recoveries {
            if r.proc >= procs {
                return Err(FaultError::ProcOutOfRange {
                    proc: r.proc,
                    procs,
                });
            }
            if !r.at.is_finite() || r.at < 0.0 {
                return Err(FaultError::BadTime { what: "recover" });
            }
            timeline[r.proc].push((r.at, false));
        }
        let mut all_end_dead = procs > 0 && !self.crashes.is_empty();
        for (p, events) in timeline.iter_mut().enumerate() {
            events.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut dead = false;
            for (i, &(t, is_crash)) in events.iter().enumerate() {
                if i > 0 && events[i - 1].0 == t {
                    return Err(FaultError::RecoverWithoutCrash { proc: p });
                }
                if is_crash {
                    if dead {
                        return Err(FaultError::DuplicateCrash { proc: p });
                    }
                    dead = true;
                } else {
                    if !dead {
                        return Err(FaultError::RecoverWithoutCrash { proc: p });
                    }
                    dead = false;
                }
            }
            if !dead {
                all_end_dead = false;
            }
        }
        if all_end_dead {
            return Err(FaultError::AllProcsCrash { procs });
        }
        for cut in &self.partitions {
            for node in [cut.from, cut.to] {
                if node >= procs {
                    return Err(FaultError::ProcOutOfRange { proc: node, procs });
                }
            }
            if cut.from == cut.to {
                return Err(FaultError::SelfPartition { proc: cut.from });
            }
            if !cut.start.is_finite() || cut.start < 0.0 || !cut.heal.is_finite() {
                return Err(FaultError::BadTime { what: "partition" });
            }
            if cut.start >= cut.heal {
                return Err(FaultError::EmptyInterval { what: "partition" });
            }
        }
        for s in &self.stalls {
            if s.proc >= procs {
                return Err(FaultError::ProcOutOfRange {
                    proc: s.proc,
                    procs,
                });
            }
            if !s.from.is_finite() || s.from < 0.0 || !s.until.is_finite() {
                return Err(FaultError::BadTime { what: "stall" });
            }
            if s.from >= s.until {
                return Err(FaultError::EmptyInterval { what: "stall" });
            }
        }
        if let Some(l) = &self.loss {
            if !(0.0..1.0).contains(&l.prob) {
                return Err(FaultError::BadLossProb { prob: l.prob });
            }
        }
        if let Some(d) = &self.delay {
            if !d.factor.is_finite() || d.factor < 1.0 {
                return Err(FaultError::BadDelayFactor { factor: d.factor });
            }
            if !d.from.is_finite() || d.from < 0.0 || !d.until.is_finite() {
                return Err(FaultError::BadTime { what: "delay" });
            }
            if d.from >= d.until {
                return Err(FaultError::EmptyInterval { what: "delay" });
            }
        }
        Ok(())
    }

    /// Is the directed link `from → to` cut at `time`? Self-sends are
    /// never cut (a partition separates machines, not a machine from
    /// itself).
    pub fn link_cut(&self, from: usize, to: usize, time: f64) -> bool {
        from != to
            && self
                .partitions
                .iter()
                .any(|c| c.from == from && c.to == to && time >= c.start && time < c.heal)
    }

    /// Are any link cuts active anywhere at `time`?
    pub fn any_link_cut_at(&self, time: f64) -> bool {
        self.partitions
            .iter()
            .any(|c| time >= c.start && time < c.heal)
    }

    /// Stall intervals for `proc`, sorted by start time.
    pub fn stalls_for(&self, proc: usize) -> Vec<StallSpec> {
        let mut out: Vec<StallSpec> = self
            .stalls
            .iter()
            .filter(|s| s.proc == proc)
            .copied()
            .collect();
        out.sort_by(|a, b| a.from.total_cmp(&b.from));
        out
    }

    /// Should message number `msg_seq` be dropped? Deterministic in
    /// `(loss seed, msg_seq)`; always `false` without a loss spec.
    pub fn drops_message(&self, msg_seq: u64) -> bool {
        match &self.loss {
            Some(l) => rng::unit(l.seed, msg_seq) < l.prob,
            None => false,
        }
    }

    /// Latency multiplier for a message sent at `time` (1.0 = no
    /// inflation).
    pub fn delay_factor_at(&self, time: f64) -> f64 {
        match &self.delay {
            Some(d) if time >= d.from && time < d.until => d.factor,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.validate(8).is_ok());
        assert!(!p.drops_message(0));
        assert_eq!(p.delay_factor_at(5.0), 1.0);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(matches!(
            FaultPlan::crash(9, 1.0).validate(4),
            Err(FaultError::ProcOutOfRange { proc: 9, procs: 4 })
        ));
        assert!(matches!(
            FaultPlan::crash(0, -1.0).validate(4),
            Err(FaultError::BadTime { .. })
        ));
        let mut dup = FaultPlan::crash(1, 1.0);
        dup.crashes.push(CrashSpec { proc: 1, at: 2.0 });
        assert!(matches!(
            dup.validate(4),
            Err(FaultError::DuplicateCrash { proc: 1 })
        ));
        let all = FaultPlan {
            crashes: (0..2).map(|p| CrashSpec { proc: p, at: 1.0 }).collect(),
            ..FaultPlan::default()
        };
        assert!(matches!(
            all.validate(2),
            Err(FaultError::AllProcsCrash { procs: 2 })
        ));
        let loss = FaultPlan {
            loss: Some(LossSpec { prob: 1.0, seed: 7 }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            loss.validate(4),
            Err(FaultError::BadLossProb { .. })
        ));
        let delay = FaultPlan {
            delay: Some(DelaySpec {
                factor: 0.5,
                from: 0.0,
                until: 1.0,
            }),
            ..FaultPlan::default()
        };
        assert!(matches!(
            delay.validate(4),
            Err(FaultError::BadDelayFactor { .. })
        ));
        let stall = FaultPlan {
            stalls: vec![StallSpec {
                proc: 0,
                from: 2.0,
                until: 2.0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            stall.validate(4),
            Err(FaultError::EmptyInterval { .. })
        ));
    }

    #[test]
    fn recoveries_relax_duplicate_and_all_crash_rules() {
        // crash → recover → crash on one proc is legal.
        let mut seq = FaultPlan::crash(1, 1.0);
        seq.recoveries.push(RecoverSpec { proc: 1, at: 2.0 });
        seq.crashes.push(CrashSpec { proc: 1, at: 3.0 });
        assert!(seq.validate(4).is_ok());
        // …but a second crash while still dead is not.
        seq.crashes.push(CrashSpec { proc: 1, at: 3.5 });
        assert!(matches!(
            seq.validate(4),
            Err(FaultError::DuplicateCrash { proc: 1 })
        ));
        // All procs crash but one recovers: valid.
        let mut all = FaultPlan {
            crashes: (0..2).map(|p| CrashSpec { proc: p, at: 1.0 }).collect(),
            ..FaultPlan::default()
        };
        all.recoveries.push(RecoverSpec { proc: 0, at: 2.0 });
        assert!(all.validate(2).is_ok());
        // All procs crash and every recovery is followed by another
        // crash: everyone ends dead, rejected.
        all.crashes.push(CrashSpec { proc: 0, at: 5.0 });
        assert!(matches!(
            all.validate(2),
            Err(FaultError::AllProcsCrash { procs: 2 })
        ));
    }

    #[test]
    fn recover_must_follow_a_crash() {
        let mut orphan = FaultPlan::none();
        orphan.recoveries.push(RecoverSpec { proc: 0, at: 1.0 });
        assert!(matches!(
            orphan.validate(4),
            Err(FaultError::RecoverWithoutCrash { proc: 0 })
        ));
        // Recovery before the crash.
        let mut early = FaultPlan::crash(2, 5.0);
        early.recoveries.push(RecoverSpec { proc: 2, at: 1.0 });
        assert!(matches!(
            early.validate(4),
            Err(FaultError::RecoverWithoutCrash { proc: 2 })
        ));
        // Recovery at the exact crash instant.
        let mut tied = FaultPlan::crash(2, 5.0);
        tied.recoveries.push(RecoverSpec { proc: 2, at: 5.0 });
        assert!(matches!(
            tied.validate(4),
            Err(FaultError::RecoverWithoutCrash { proc: 2 })
        ));
        // Out-of-range / bad-time recoveries.
        let mut far = FaultPlan::crash(1, 1.0);
        far.recoveries.push(RecoverSpec { proc: 9, at: 2.0 });
        assert!(matches!(
            far.validate(4),
            Err(FaultError::ProcOutOfRange { proc: 9, procs: 4 })
        ));
        let mut neg = FaultPlan::crash(1, 1.0);
        neg.recoveries.push(RecoverSpec { proc: 1, at: -2.0 });
        assert!(matches!(
            neg.validate(4),
            Err(FaultError::BadTime { what: "recover" })
        ));
    }

    #[test]
    fn partition_validation_and_link_cut_window() {
        let plan = FaultPlan {
            partitions: vec![PartitionSpec {
                from: 0,
                to: 2,
                start: 1.0,
                heal: 3.0,
            }],
            ..FaultPlan::default()
        };
        assert!(!plan.is_empty());
        assert!(plan.validate(4).is_ok());
        assert!(!plan.link_cut(0, 2, 0.5));
        assert!(plan.link_cut(0, 2, 1.0));
        assert!(plan.link_cut(0, 2, 2.9));
        assert!(!plan.link_cut(0, 2, 3.0), "cut heals at `heal`");
        assert!(!plan.link_cut(2, 0, 2.0), "cuts are directed");
        assert!(plan.any_link_cut_at(2.0));
        assert!(!plan.any_link_cut_at(3.0));

        let selfcut = FaultPlan {
            partitions: vec![PartitionSpec {
                from: 1,
                to: 1,
                start: 0.0,
                heal: 1.0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            selfcut.validate(4),
            Err(FaultError::SelfPartition { proc: 1 })
        ));
        let inverted = FaultPlan {
            partitions: vec![PartitionSpec {
                from: 0,
                to: 1,
                start: 2.0,
                heal: 2.0,
            }],
            ..FaultPlan::default()
        };
        assert!(matches!(
            inverted.validate(4),
            Err(FaultError::EmptyInterval { what: "partition" })
        ));
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let plan = FaultPlan {
            loss: Some(LossSpec {
                prob: 0.25,
                seed: 99,
            }),
            ..FaultPlan::default()
        };
        let dropped = (0..10_000).filter(|&i| plan.drops_message(i)).count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn stall_overlap_accounting() {
        let plan = FaultPlan {
            stalls: vec![
                StallSpec {
                    proc: 2,
                    from: 1.0,
                    until: 2.0,
                },
                StallSpec {
                    proc: 2,
                    from: 5.0,
                    until: 9.0,
                },
                StallSpec {
                    proc: 1,
                    from: 0.0,
                    until: 100.0,
                },
            ],
            ..FaultPlan::default()
        };
        let spans = plan.stalls_for(2);
        assert_eq!(spans.len(), 2);
        assert!(spans[0].from < spans[1].from);
    }

    #[test]
    fn delay_window_bounds() {
        let plan = FaultPlan {
            delay: Some(DelaySpec {
                factor: 3.0,
                from: 2.0,
                until: 4.0,
            }),
            ..FaultPlan::default()
        };
        assert_eq!(plan.delay_factor_at(1.9), 1.0);
        assert_eq!(plan.delay_factor_at(2.0), 3.0);
        assert_eq!(plan.delay_factor_at(3.9), 3.0);
        assert_eq!(plan.delay_factor_at(4.0), 1.0);
    }
}
