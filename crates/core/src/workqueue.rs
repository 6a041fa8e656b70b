//! Per-processor work queues of concrete iteration indices.
//!
//! The distribution math works on *counts*; actually moving work needs the
//! concrete iteration indices so the right array rows travel with them.
//! Each processor keeps an ordered queue of half-open index ranges; it
//! executes from the **front** and donates from the **back** (the
//! yet-untouched tail), so donated iterations never collide with work in
//! progress.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::Range;

/// An ordered queue of disjoint iteration ranges owned by one processor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkQueue {
    blocks: VecDeque<Range<u64>>,
}

impl WorkQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue holding one contiguous block.
    pub fn from_range(r: Range<u64>) -> Self {
        let mut q = Self::new();
        q.push_back(r);
        q
    }

    /// Remaining iterations.
    pub fn remaining(&self) -> u64 {
        self.blocks.iter().map(|r| r.end - r.start).sum()
    }

    /// True iff no iterations remain.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|r| r.is_empty())
    }

    /// Snapshot of the queued ranges, front to back.
    pub fn blocks(&self) -> impl Iterator<Item = &Range<u64>> {
        self.blocks.iter()
    }

    /// The front contiguous run — the iterations the owner will execute
    /// next, in order — without removing it. Because received work is
    /// appended at the back (and merged only when contiguous with the
    /// current back), this run can only grow at its end while the owner
    /// executes from its start.
    pub fn front_run(&self) -> Option<Range<u64>> {
        self.blocks.iter().find(|r| !r.is_empty()).cloned()
    }

    /// Append a block at the back (received work executes after local
    /// work). Empty ranges are ignored; a range contiguous with the current
    /// back is merged.
    pub fn push_back(&mut self, r: Range<u64>) {
        if r.is_empty() {
            return;
        }
        if let Some(back) = self.blocks.back_mut() {
            if back.end == r.start {
                back.end = r.end;
                return;
            }
        }
        self.blocks.push_back(r);
    }

    /// Take the next single iteration to execute from the front.
    pub fn pop_front_iter(&mut self) -> Option<u64> {
        loop {
            let front = self.blocks.front_mut()?;
            if front.is_empty() {
                self.blocks.pop_front();
                continue;
            }
            let i = front.start;
            front.start += 1;
            if front.is_empty() {
                self.blocks.pop_front();
            }
            return Some(i);
        }
    }

    /// Take up to `n` iterations to execute from the front as ranges
    /// (chunked self-execution).
    pub fn take_front(&mut self, n: u64) -> Vec<Range<u64>> {
        self.take(n, true)
    }

    /// Donate up to `n` iterations from the back — the untouched tail —
    /// returned in ascending index order.
    pub fn take_back(&mut self, n: u64) -> Vec<Range<u64>> {
        let mut out = self.take(n, false);
        out.reverse();
        out
    }

    fn take(&mut self, mut n: u64, front: bool) -> Vec<Range<u64>> {
        let mut out = Vec::new();
        while n > 0 {
            let Some(mut block) = (if front {
                self.blocks.pop_front()
            } else {
                self.blocks.pop_back()
            }) else {
                break;
            };
            let len = block.end - block.start;
            if len <= n {
                n -= len;
                if !block.is_empty() {
                    out.push(block);
                }
            } else {
                let taken = if front {
                    let t = block.start..block.start + n;
                    block.start += n;
                    self.blocks.push_front(block);
                    t
                } else {
                    let t = block.end - n..block.end;
                    block.end -= n;
                    self.blocks.push_back(block);
                    t
                };
                out.push(taken);
                n = 0;
            }
        }
        out
    }
}

/// Total length of a set of ranges.
pub fn ranges_len(ranges: &[Range<u64>]) -> u64 {
    ranges.iter().map(|r| r.end - r.start).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_range_remaining() {
        let q = WorkQueue::from_range(10..20);
        assert_eq!(q.remaining(), 10);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_front_iterates_in_order() {
        let mut q = WorkQueue::from_range(3..6);
        assert_eq!(q.pop_front_iter(), Some(3));
        assert_eq!(q.pop_front_iter(), Some(4));
        assert_eq!(q.pop_front_iter(), Some(5));
        assert_eq!(q.pop_front_iter(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn take_back_takes_untouched_tail() {
        let mut q = WorkQueue::from_range(0..10);
        let donated = q.take_back(3);
        assert_eq!(donated, vec![7..10]);
        assert_eq!(q.remaining(), 7);
        // The front is untouched.
        assert_eq!(q.pop_front_iter(), Some(0));
    }

    #[test]
    fn take_back_spans_blocks() {
        let mut q = WorkQueue::new();
        q.push_back(0..4);
        q.push_back(10..14);
        let donated = q.take_back(6);
        assert_eq!(ranges_len(&donated), 6);
        assert_eq!(donated, vec![2..4, 10..14]);
        assert_eq!(q.remaining(), 2);
    }

    #[test]
    fn take_back_more_than_available_drains() {
        let mut q = WorkQueue::from_range(0..5);
        let donated = q.take_back(99);
        assert_eq!(ranges_len(&donated), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn take_front_chunks() {
        let mut q = WorkQueue::from_range(0..10);
        assert_eq!(q.take_front(4), vec![0..4]);
        assert_eq!(q.take_front(4), vec![4..8]);
        assert_eq!(q.remaining(), 2);
    }

    #[test]
    fn front_run_peeks_without_consuming() {
        let mut q = WorkQueue::new();
        assert_eq!(q.front_run(), None);
        q.push_back(3..7);
        q.push_back(20..25);
        assert_eq!(q.front_run(), Some(3..7));
        assert_eq!(q.remaining(), 9);
        // Contiguous appends grow the front run at its end.
        let mut c = WorkQueue::from_range(0..4);
        c.push_back(4..6);
        assert_eq!(c.front_run(), Some(0..6));
    }

    #[test]
    fn push_back_merges_contiguous() {
        let mut q = WorkQueue::from_range(0..5);
        q.push_back(5..8);
        assert_eq!(q.blocks().count(), 1);
        assert_eq!(q.remaining(), 8);
    }

    #[test]
    fn push_back_ignores_empty() {
        let mut q = WorkQueue::new();
        #[allow(clippy::reversed_empty_ranges)]
        q.push_back(5..5);
        assert!(q.is_empty());
    }

    #[test]
    fn donation_then_receive_keeps_totals() {
        let mut a = WorkQueue::from_range(0..100);
        let mut b = WorkQueue::from_range(100..120);
        let moved = a.take_back(30);
        for r in moved {
            b.push_back(r);
        }
        assert_eq!(a.remaining() + b.remaining(), 120);
        assert_eq!(b.remaining(), 50);
    }
}
