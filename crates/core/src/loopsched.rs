//! Classic task-queue loop-scheduling baselines (Section 2.2 of the
//! paper).
//!
//! The paper positions its DLB schemes against the central-task-queue
//! family: **self-scheduling** \[22\], **fixed-size chunking** \[10\],
//! **guided self-scheduling** \[18\], **factoring** \[9\] and **trapezoid
//! self-scheduling** \[23\]. Each is a rule for how many iterations an idle
//! processor grabs from a central queue. This module implements the
//! chunk-size rules; `now_sim::taskqueue` executes them on the simulated
//! NOW (each grab costs a request/reply round trip to the master), so the
//! baselines can be compared head-to-head with the paper's DLB schemes.

use serde::{Deserialize, Serialize};

/// A central-task-queue scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChunkScheme {
    /// One iteration per grab (maximal balance, maximal synchronization).
    SelfScheduling,
    /// `k` iterations per grab.
    FixedChunk(u64),
    /// Guided self-scheduling: `⌈remaining / P⌉` per grab.
    Guided,
    /// Factoring: batches of half the remaining work, split evenly over
    /// the processors (`⌈remaining / (2P)⌉` within a batch).
    Factoring,
    /// Trapezoid self-scheduling: chunk sizes decrease linearly from
    /// `first` to `last`.
    Trapezoid { first: u64, last: u64 },
}

impl ChunkScheme {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            ChunkScheme::SelfScheduling => "SS".to_string(),
            ChunkScheme::FixedChunk(k) => format!("chunk{k}"),
            ChunkScheme::Guided => "GSS".to_string(),
            ChunkScheme::Factoring => "FAC".to_string(),
            ChunkScheme::Trapezoid { .. } => "TSS".to_string(),
        }
    }

    /// The paper's standard contenders for a loop of `total` iterations
    /// on `p` processors.
    pub fn standard_set(total: u64, p: usize) -> Vec<ChunkScheme> {
        vec![
            ChunkScheme::SelfScheduling,
            ChunkScheme::FixedChunk((total / (8 * p as u64)).max(1)),
            ChunkScheme::Guided,
            ChunkScheme::Factoring,
            ChunkScheme::Trapezoid {
                first: (total / (2 * p as u64)).max(1),
                last: 1,
            },
        ]
    }
}

/// Stateful chunk generator for one loop execution.
#[derive(Debug, Clone)]
pub struct ChunkQueue {
    scheme: ChunkScheme,
    p: u64,
    remaining: u64,
    /// Factoring: iterations left in the current batch.
    batch_left: u64,
    /// Factoring: per-grab size within the current batch.
    batch_chunk: u64,
    /// Trapezoid: current chunk size (decremented linearly).
    tss_current: f64,
    /// Trapezoid: per-grab decrement.
    tss_step: f64,
}

impl ChunkQueue {
    /// # Panics
    /// Panics if `p == 0` or a `FixedChunk(0)`/degenerate trapezoid is
    /// supplied.
    pub fn new(scheme: ChunkScheme, total: u64, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        if let ChunkScheme::FixedChunk(k) = scheme {
            assert!(k > 0, "fixed chunk size must be positive");
        }
        let (tss_current, tss_step) = if let ChunkScheme::Trapezoid { first, last } = scheme {
            assert!(
                first >= last && last >= 1,
                "trapezoid needs first >= last >= 1"
            );
            // Tzen & Ni: N = ⌈2·total/(first+last)⌉ grabs, step = (f-l)/(N-1).
            let n = (2 * total).div_ceil(first + last).max(1);
            let step = if n > 1 {
                (first - last) as f64 / (n - 1) as f64
            } else {
                0.0
            };
            (first as f64, step)
        } else {
            (0.0, 0.0)
        };
        Self {
            scheme,
            p: p as u64,
            remaining: total,
            batch_left: 0,
            batch_chunk: 0,
            tss_current,
            tss_step,
        }
    }

    /// Iterations not yet handed out.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Hand the next chunk to an idle processor; `None` when the loop is
    /// exhausted.
    pub fn next_chunk(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let want = match self.scheme {
            ChunkScheme::SelfScheduling => 1,
            ChunkScheme::FixedChunk(k) => k,
            ChunkScheme::Guided => self.remaining.div_ceil(self.p),
            ChunkScheme::Factoring => {
                if self.batch_left == 0 {
                    // New batch: half the remaining, split over P grabs.
                    self.batch_left = self.remaining.div_ceil(2);
                    self.batch_chunk = self.batch_left.div_ceil(self.p).max(1);
                }
                let c = self.batch_chunk.min(self.batch_left);
                self.batch_left -= c;
                c
            }
            ChunkScheme::Trapezoid { last, .. } => {
                let c = (self.tss_current.round() as u64).max(last).max(1);
                self.tss_current = (self.tss_current - self.tss_step).max(last as f64);
                c
            }
        };
        let grant = want.min(self.remaining).max(1);
        self.remaining -= grant;
        Some(grant)
    }

    /// Drain all chunks (for tests and for static analyses).
    pub fn chunk_sequence(mut self) -> Vec<u64> {
        std::iter::from_fn(|| self.next_chunk()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(scheme: ChunkScheme, total: u64, p: usize) -> Vec<u64> {
        ChunkQueue::new(scheme, total, p).chunk_sequence()
    }

    #[test]
    fn all_schemes_cover_the_loop_exactly() {
        for scheme in ChunkScheme::standard_set(1000, 4) {
            let s = seq(scheme, 1000, 4);
            assert_eq!(s.iter().sum::<u64>(), 1000, "{}", scheme.label());
            assert!(s.iter().all(|&c| c > 0), "{}", scheme.label());
        }
    }

    #[test]
    fn self_scheduling_is_all_ones() {
        let s = seq(ChunkScheme::SelfScheduling, 10, 4);
        assert_eq!(s, vec![1; 10]);
    }

    #[test]
    fn fixed_chunking_grabs_k() {
        let s = seq(ChunkScheme::FixedChunk(16), 100, 4);
        assert_eq!(&s[..6], &[16, 16, 16, 16, 16, 16]);
        assert_eq!(*s.last().unwrap(), 4);
    }

    #[test]
    fn guided_starts_at_quarter_and_decreases() {
        // GSS on 100/4: 25, 19, 15, 11, 8, 6, ...
        let s = seq(ChunkScheme::Guided, 100, 4);
        assert_eq!(s[0], 25);
        assert_eq!(s[1], 19);
        for w in s.windows(2) {
            assert!(w[1] <= w[0], "GSS must be non-increasing: {s:?}");
        }
        assert_eq!(*s.last().unwrap(), 1);
    }

    #[test]
    fn factoring_halves_batches() {
        // Factoring on 100/4: batch 50 -> 13,13,13,11; batch 25 -> 7,7,7,4…
        let s = seq(ChunkScheme::Factoring, 100, 4);
        assert_eq!(s[0], 13);
        assert_eq!(s.iter().sum::<u64>(), 100);
        // First batch total is half the loop (rounded up).
        let first_batch: u64 = s[..4].iter().sum();
        assert_eq!(first_batch, 50);
    }

    #[test]
    fn trapezoid_decreases_linearly() {
        let s = seq(ChunkScheme::Trapezoid { first: 12, last: 2 }, 100, 4);
        assert_eq!(s[0], 12);
        for w in s.windows(2) {
            assert!(w[1] <= w[0], "TSS must be non-increasing: {s:?}");
        }
        assert_eq!(s.iter().sum::<u64>(), 100);
    }

    #[test]
    fn guided_grab_count_is_logarithmic() {
        let s = seq(ChunkScheme::Guided, 10_000, 8);
        // ~ P·ln(total) grabs; far fewer than self-scheduling's 10_000.
        assert!(s.len() < 200, "{} grabs", s.len());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ChunkScheme::Guided.label(), "GSS");
        assert_eq!(ChunkScheme::FixedChunk(31).label(), "chunk31");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fixed_chunk_rejected() {
        let _ = ChunkQueue::new(ChunkScheme::FixedChunk(0), 10, 2);
    }
}
