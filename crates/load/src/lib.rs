//! External load modeling for a network of workstations.
//!
//! The paper (Section 4.1, "External Load Modeling") simulates the transient
//! multi-user load on each workstation with an independent **discrete random
//! load function** `ℓ_i(k)`: every *duration of persistence* `t_l` seconds a
//! new load level is drawn uniformly from `0..=m_l` (the paper uses
//! `m_l = 5`). A processor of relative speed `S_i` carrying load `ℓ` computes
//! at *effective speed* `S_i / (ℓ + 1)` — the CPU is timeshared evenly among
//! the external load processes and the application.
//!
//! This crate provides:
//!
//! * [`LoadSpec`] — the one load type: a serializable enum that is both
//!   the config every cluster and memo key carries and the load function
//!   itself (level per persistence interval, persistence duration,
//!   time-based queries). Its variants are the paper's generator
//!   (`DiscreteRandom`: stateless, seeded, O(1) random access so queries
//!   need not be in time order) and the deterministic `Trace`,
//!   `Constant` and `Zero` loads used by tests, baselines and drift
//!   cells;
//! * [`effective`] — effective-load math (the `λ_i(j)` of
//!   Section 4.2), both the paper's interval-index approximation and an
//!   exact time-weighted integral;
//! * [`clock`] — work/time conversion under a load function: how long does
//!   `w` seconds of base work take starting at time `t`, and how much base
//!   work completes in a window. These drive the discrete-event simulator.

pub mod clock;
pub mod effective;
pub mod func;
pub mod splitmix;

pub use clock::{ClockCursor, WorkClock};
pub use effective::{effective_load_exact, effective_load_paper};
pub use func::LoadSpec;
pub use splitmix::SplitMix64;

/// The paper's default maximum load amplitude (`m_l = 5`).
pub const DEFAULT_MAX_LOAD: u32 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_max_load_matches_paper() {
        assert_eq!(DEFAULT_MAX_LOAD, 5);
    }
}
