//! Performance profiles (Section 3.2, "Performance Metric").
//!
//! "The metric we use is the number of iterations done per second, since
//! the last synchronization point." A profile is what each slave ships to
//! the load balancer at a synchronization.

use serde::{Deserialize, Serialize};

/// Rate floor used when a processor reports no progress: the balancer must
/// not divide by zero, and a stalled processor should receive (almost) no
/// new work.
pub const MIN_RATE: f64 = 1e-9;

/// One processor's performance report for the window since the previous
/// synchronization point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfProfile {
    /// Reporting processor id.
    pub proc: usize,
    /// Iterations executed in the window.
    pub iters_done: u64,
    /// Wall-clock length of the window, seconds.
    pub elapsed: f64,
    /// Iterations still queued locally (`β_i`, after subtracting
    /// `iters_done`).
    pub remaining: u64,
}

impl PerfProfile {
    /// Iterations per second over the window; clamped to [`MIN_RATE`].
    ///
    /// A zero-length window (the degenerate first sync on a tiny loop)
    /// also clamps rather than returning ∞.
    pub fn rate(&self) -> f64 {
        if self.elapsed <= 0.0 {
            return MIN_RATE;
        }
        (self.iters_done as f64 / self.elapsed).max(MIN_RATE)
    }

    /// On-the-wire size of a profile message in bytes (id + three 8-byte
    /// fields), used by the simulator to cost the sends.
    pub const WIRE_BYTES: usize = 32;
}

/// On-the-wire size of a balancer's instruction message in bytes. The
/// simulator costs instruction sends with it and the analytic model
/// prices each planned transfer's instruction the same way.
pub const INSTRUCTION_WIRE_BYTES: usize = 24;

/// On-the-wire header of a work shipment in bytes (range descriptors);
/// `bytes_per_iter` of array data per shipped iteration follows it.
pub const WORK_HEADER_WIRE_BYTES: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_iters_per_second() {
        let p = PerfProfile {
            proc: 0,
            iters_done: 50,
            elapsed: 2.0,
            remaining: 10,
        };
        assert!((p.rate() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_progress_clamps_to_min_rate() {
        let p = PerfProfile {
            proc: 1,
            iters_done: 0,
            elapsed: 5.0,
            remaining: 100,
        };
        assert_eq!(p.rate(), MIN_RATE);
    }

    #[test]
    fn zero_elapsed_clamps() {
        let p = PerfProfile {
            proc: 2,
            iters_done: 10,
            elapsed: 0.0,
            remaining: 5,
        };
        assert_eq!(p.rate(), MIN_RATE);
    }
}
