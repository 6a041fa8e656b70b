//! The three collective communication patterns of the paper's cost model.
//!
//! * **OA** — one-to-all: the interrupting processor (or the master)
//!   notifies the other `P-1` processors. PVM's `pvm_mcast` on Ethernet
//!   still sends `P-1` point-to-point messages, so the cost is dominated
//!   by the sender's serialized send overheads.
//! * **AO** — all-to-one: every slave sends its performance profile to the
//!   central balancer; the lone receiver's serialized receive overheads
//!   dominate (receive costs more than send, hence AO > OA in Fig. 4).
//! * **AA** — all-to-all: every processor broadcasts to every other:
//!   `P(P-1)` frames contend for the shared wire, which is what bends the
//!   AA curve superlinear in Fig. 4 (send overheads parallelize across
//!   the `P` senders; the wire does not).
//!
//! [`measure_pattern`] *executes* a pattern on the [`MediumSim`] arbiter
//! and reports its completion time (last delivery). The
//! [`approx_shared_bus`] closed form documents the expected asymptotics
//! and cross-checks the simulation in tests.

use crate::medium::MediumSim;
use crate::params::NetworkParams;
use serde::{Deserialize, Serialize};

/// A collective communication pattern over `n` processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// One sender (node 0) to the other `n-1` nodes.
    OneToAll,
    /// `n-1` senders to one receiver (node 0).
    AllToOne,
    /// Every node to every other node.
    AllToAll,
}

impl Pattern {
    /// Short label used in reports ("OA", "AO", "AA" as in Fig. 4).
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::OneToAll => "OA",
            Pattern::AllToOne => "AO",
            Pattern::AllToAll => "AA",
        }
    }
}

/// Execute `pattern` over `n` nodes with `bytes`-byte messages on a fresh
/// medium and return the completion time (time of the last delivery).
///
/// All sends are requested at t = 0 — the synchronization points in the
/// DLB protocol are exactly such bursts. Sends are issued in a canonical
/// round-robin order so results are deterministic.
///
/// # Panics
/// Panics if `n < 2`.
pub fn measure_pattern(params: NetworkParams, pattern: Pattern, n: usize, bytes: usize) -> f64 {
    assert!(n >= 2, "a communication pattern needs at least 2 nodes");
    let mut medium = MediumSim::new(params, n);
    let mut last = 0.0f64;
    match pattern {
        Pattern::OneToAll => {
            for to in 1..n {
                last = last.max(medium.send(0, to, bytes, 0.0).delivered);
            }
        }
        Pattern::AllToOne => {
            for from in 1..n {
                last = last.max(medium.send(from, 0, bytes, 0.0).delivered);
            }
        }
        Pattern::AllToAll => {
            // Round-robin interleaving: sender i's k-th message goes to
            // (i + k) mod n, mirroring how concurrent broadcasts interleave
            // on a real bus instead of one sender monopolizing it.
            for k in 1..n {
                for from in 0..n {
                    let to = (from + k) % n;
                    last = last.max(medium.send(from, to, bytes, 0.0).delivered);
                }
            }
        }
    }
    last
}

/// Closed-form approximation of the pattern cost on a shared bus.
pub fn approx_shared_bus(params: &NetworkParams, pattern: Pattern, n: usize, bytes: usize) -> f64 {
    let m = (n - 1) as f64;
    let frame = params.frame_time(bytes);
    match pattern {
        // Sender CPU serializes; each frame follows its send; the last
        // message still pays wire + receive.
        Pattern::OneToAll => m * params.send_overhead.max(frame) + frame + params.recv_overhead,
        // Frames serialize on the wire behind one send overhead; the lone
        // receiver's CPU serializes all the receives.
        Pattern::AllToOne => {
            params.send_overhead
                + m * frame
                + params.recv_overhead
                + (m - 1.0) * (params.recv_overhead - frame).max(0.0)
        }
        // P senders work in parallel; P(P-1) frames share one wire.
        Pattern::AllToAll => params.send_overhead + (n as f64) * m * frame + params.recv_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MediumKind;

    fn eth() -> NetworkParams {
        NetworkParams::paper_ethernet()
    }

    #[test]
    fn fig4_ordering_aa_above_ao_above_oa() {
        for n in [4, 8, 12, 16] {
            let oa = measure_pattern(eth(), Pattern::OneToAll, n, 64);
            let ao = measure_pattern(eth(), Pattern::AllToOne, n, 64);
            let aa = measure_pattern(eth(), Pattern::AllToAll, n, 64);
            assert!(aa > ao, "AA {aa} <= AO {ao} at n={n}");
            assert!(ao > oa, "AO {ao} <= OA {oa} at n={n}");
        }
    }

    #[test]
    fn all_to_all_superlinear_on_bus() {
        let aa4 = measure_pattern(eth(), Pattern::AllToAll, 4, 64);
        let aa16 = measure_pattern(eth(), Pattern::AllToAll, 16, 64);
        // 4x the processors, 20x the frames: growth well beyond linear.
        assert!(aa16 / aa4 > 6.0, "ratio {}", aa16 / aa4);
    }

    #[test]
    fn all_to_all_magnitude_matches_fig4_scale() {
        // Fig. 4 shows AA(16) ≈ 0.19 s for PVM control messages; the
        // decomposed model should land within a factor ~2.
        let aa16 = measure_pattern(eth(), Pattern::AllToAll, 16, 64);
        assert!((0.08..0.4).contains(&aa16), "AA(16) = {aa16}");
    }

    #[test]
    fn one_to_all_linear_on_bus() {
        let p = eth();
        let oa8 = measure_pattern(p, Pattern::OneToAll, 8, 64);
        let oa16 = measure_pattern(p, Pattern::OneToAll, 16, 64);
        let ratio = oa16 / oa8;
        assert!(ratio > 1.7 && ratio < 2.6, "ratio {ratio}");
    }

    #[test]
    fn bus_measurements_track_closed_forms() {
        let p = eth();
        for n in [4usize, 8, 16] {
            for pat in [Pattern::OneToAll, Pattern::AllToOne, Pattern::AllToAll] {
                let sim = measure_pattern(p, pat, n, 64);
                let approx = approx_shared_bus(&p, pat, n, 64);
                let rel = (sim - approx).abs() / approx;
                assert!(
                    rel < 0.35,
                    "{} n={n}: sim {sim} vs approx {approx}",
                    pat.label()
                );
            }
        }
    }

    #[test]
    fn switched_all_to_all_cheaper_than_bus() {
        let mut sw = eth();
        sw.medium = MediumKind::Switched;
        let bus = measure_pattern(eth(), Pattern::AllToAll, 16, 64);
        let swc = measure_pattern(sw, Pattern::AllToAll, 16, 64);
        assert!(swc < bus / 2.0, "switch {swc} vs bus {bus}");
    }

    #[test]
    fn costs_increase_with_message_size() {
        let small = measure_pattern(eth(), Pattern::AllToOne, 8, 64);
        let big = measure_pattern(eth(), Pattern::AllToOne, 8, 1 << 20);
        assert!(big > small * 10.0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure_pattern(eth(), Pattern::AllToAll, 12, 128);
        let b = measure_pattern(eth(), Pattern::AllToAll, 12, 128);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_node_pattern_rejected() {
        let _ = measure_pattern(eth(), Pattern::OneToAll, 1, 64);
    }
}
