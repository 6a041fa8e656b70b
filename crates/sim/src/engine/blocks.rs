//! Compute stepping: one `IterDone` per iteration (the per-iteration
//! reference) or one `BlockDone` per contiguous run of queued
//! iterations, settled lazily when an interrupt or crash lands
//! mid-block; and what a processor does when its queue runs dry.

use super::*;

/// A scheduled contiguous run of iterations (block stepping only).
#[derive(Debug)]
pub(super) struct BlockRun {
    /// First iteration index of the run.
    pub(super) first: u64,
    /// Iterations already settled: counters updated, queue popped.
    pub(super) done: u64,
    /// `boundaries[i]` = finish time of iteration `first + i`, computed by
    /// replaying the exact per-iteration chain (clock walk + stalls) at
    /// schedule time, so any settle point is bit-identical to the
    /// per-iteration engine's `IterDone` time.
    pub(super) boundaries: Vec<f64>,
    /// When the block was scheduled — the tie anchor for its first
    /// iteration's boundary (see [`block_done_tie`]).
    pub(super) started: f64,
}

/// The tie key of a block's pending `BlockDone` (see [`Key::tie`]): the
/// per-iteration engine pushes the final iteration's completion at that
/// iteration's start — the penultimate boundary, or the moment the block
/// was scheduled when it holds a single iteration.
pub(super) fn block_done_tie(boundaries: &[f64], started: f64) -> f64 {
    match boundaries.len() {
        0 | 1 => started,
        n => boundaries[n - 2],
    }
}

impl Engine<'_> {
    /// Start `proc` computing at `now`: one event per iteration in
    /// per-iteration mode, one event per contiguous run otherwise.
    pub(super) fn schedule_compute(&mut self, proc: usize, now: f64) {
        match self.mode {
            EngineMode::PerIter => self.schedule_next_iter(proc, now),
            EngineMode::Episode => self.schedule_block(proc, now),
        }
    }

    fn schedule_next_iter(&mut self, proc: usize, now: f64) {
        let iter = self.queues[proc]
            .pop_front_iter()
            .expect("schedule_next_iter requires a non-empty queue");
        let cost = self.workload.iter_cost(iter);
        let mut done_at = self.cpus.clocks[proc].finish_time(now, cost);
        if self.fault_active {
            done_at = self.apply_stalls(proc, now, done_at);
        }
        self.in_flight[proc] = Some(iter);
        self.set_state(proc, ProcState::Computing);
        let epoch = self.block_epoch[proc];
        self.push_event(done_at, EvKind::IterDone { proc, iter, epoch });
    }

    /// Push an iteration's completion past any stall interval it overlaps:
    /// a stalled processor makes no compute progress, so each overlapped
    /// stall displaces the finish time by its full (clipped) span. Spans
    /// are scanned in start order; a displacement can expose later spans.
    fn apply_stalls(&self, proc: usize, start: f64, finish: f64) -> f64 {
        let mut t = finish;
        for s in self.plan.stalls_for(proc) {
            if s.until <= start {
                continue;
            }
            if s.from >= t {
                break;
            }
            t += s.until - s.from.max(start);
        }
        t
    }

    /// Compute the boundary chain for `proc` executing `run` from `now`
    /// into `boundaries` (cleared first).
    fn block_boundaries(&self, proc: usize, now: f64, run: &Range<u64>, boundaries: &mut Vec<f64>) {
        boundaries.clear();
        boundaries.reserve((run.end - run.start) as usize);
        let wl = self.workload;
        // Uniform loops pay the virtual cost lookup once per block.
        let uniform_cost = wl.is_uniform().then(|| wl.iter_cost(run.start));
        let mut cursor = ClockCursor::new(&self.cpus.clocks[proc]);
        match uniform_cost {
            // Stall displacement breaks the pure chain, so the batch fast
            // path only applies to fault-free uniform runs.
            Some(cost) if !self.fault_active => {
                cursor.finish_times_uniform(now, cost, run.end - run.start, boundaries);
            }
            _ => {
                let mut t = now;
                for i in run.clone() {
                    let cost = uniform_cost.unwrap_or_else(|| wl.iter_cost(i));
                    let mut f = cursor.finish_time(t, cost);
                    if self.fault_active {
                        f = self.apply_stalls(proc, t, f);
                    }
                    boundaries.push(f);
                    t = f;
                }
            }
        }
    }

    /// Schedule `proc`'s whole front run of queued iterations as one
    /// `BlockDone` event. Boundary times replay the per-iteration chain —
    /// `finish_time` from each iteration's start, then stall displacement —
    /// through a [`ClockCursor`] that caches the current load span, so the
    /// times are bit-identical to per-iteration stepping at a fraction of
    /// the cost. The queue is *not* popped here; settling pops exactly the
    /// completed prefix, so crashes and preemption see the same queue
    /// contents the per-iteration engine would.
    fn schedule_block(&mut self, proc: usize, now: f64) {
        let run = self.queues[proc]
            .front_run()
            .expect("schedule_block requires a non-empty queue");
        let mut boundaries = self.boundary_pool.pop().unwrap_or_default();
        self.block_boundaries(proc, now, &run, &mut boundaries);
        let done_at = *boundaries.last().expect("front run is never empty");
        self.set_state(proc, ProcState::Computing);
        let epoch = self.block_epoch[proc];
        let tie = block_done_tie(&boundaries, now);
        self.push_event_tied(done_at, tie, EvKind::BlockDone { proc, epoch });
        self.blocks[proc] = Some(BlockRun {
            first: run.start,
            done: 0,
            boundaries,
            started: now,
        });
    }

    /// Settle the first `upto` iterations of `proc`'s block: accumulate
    /// counters per iteration in the original order (so `work_done` sums
    /// bit-identically to per-iteration stepping), pop the queue, and move
    /// `finished_at` to the last settled boundary. Idempotent for already
    /// settled prefixes.
    pub(super) fn settle_block_to(&mut self, proc: usize, upto: u64) {
        let (first, done, finished) = {
            let b = self.blocks[proc].as_ref().expect("settle without a block");
            debug_assert!(upto as usize <= b.boundaries.len());
            if upto <= b.done {
                return;
            }
            (b.first, b.done, b.boundaries[upto as usize - 1])
        };
        let wl = self.workload;
        if let Some(cost) = wl.is_uniform().then(|| wl.iter_cost(first)) {
            for _ in done..upto {
                self.work_done[proc] += cost;
            }
        } else {
            for i in done..upto {
                self.work_done[proc] += wl.iter_cost(first + i);
            }
        }
        let k = upto - done;
        self.window_iters[proc] += k;
        self.iters_done[proc] += k;
        let taken = self.queues[proc].take_front(k);
        debug_assert_eq!(ranges_len(&taken), k, "queue must cover the settled prefix");
        for r in &taken {
            self.executed.add_range(r);
        }
        self.finished_at[proc] = finished;
        self.blocks[proc]
            .as_mut()
            .expect("block checked above")
            .done = upto;
    }

    /// Retire `proc`'s block, recycling its boundary buffer, and stamp
    /// any still-queued events for it stale.
    pub(super) fn invalidate_block(&mut self, proc: usize) {
        if let Some(b) = self.blocks[proc].take() {
            self.boundary_pool.push(b.boundaries);
        }
        self.block_epoch[proc] += 1;
    }

    /// Mark `proc` interrupted. The per-iteration engine reacts at the
    /// next `IterDone`; under block stepping that boundary has no event, so
    /// synthesize a `SettleCheck` at the first stored boundary past `now`
    /// (if none remains, the pending `BlockDone` at `now` reacts itself).
    pub(super) fn flag_interrupt(&mut self, proc: usize, now: f64) {
        if self.interrupted[proc] {
            return;
        }
        self.interrupted[proc] = true;
        if self.mode == EngineMode::Episode {
            self.aim_settle_check(proc, now);
        }
    }

    /// Push a `SettleCheck` at the first boundary of `proc`'s block past
    /// `now`, if one remains.
    pub(super) fn aim_settle_check(&mut self, proc: usize, now: f64) {
        let Some(b) = self.blocks[proc].as_ref() else {
            return;
        };
        let i = b.boundaries.partition_point(|&x| x <= now);
        let Some(&at) = b.boundaries.get(i) else {
            return;
        };
        // The per-iteration twin of this settle point was pushed when the
        // iteration ending at `at` started.
        let tie = if i == 0 {
            b.started
        } else {
            b.boundaries[i - 1]
        };
        let epoch = self.block_epoch[proc];
        self.push_event_tied(at, tie, EvKind::SettleCheck { proc, epoch });
    }

    /// Whether `proc`'s group has an open episode still waiting for
    /// `proc`'s profile — an interrupt flag served at an iteration
    /// boundary profiles only then.
    fn awaits_profile(&self, proc: usize) -> bool {
        self.groups[self.proc_group[proc]]
            .episode
            .as_ref()
            .is_some_and(|e| self.profiled_in[proc] != e.id)
    }

    /// The whole block completed: settle everything, then run the same
    /// boundary logic `on_iter_done` runs after a final iteration.
    pub(super) fn on_block_done(&mut self, proc: usize, epoch: u64, now: f64) {
        if epoch != self.block_epoch[proc] || self.membership.is_dead(proc) {
            return; // preempted or crashed since scheduling
        }
        let len = self.blocks[proc]
            .as_ref()
            .expect("live epoch implies a block")
            .boundaries
            .len() as u64;
        self.settle_block_to(proc, len);
        self.invalidate_block(proc);
        self.at_boundary(proc, now);
    }

    /// `proc` finished its scheduled work: serve a pending interrupt at
    /// this iteration boundary, then compute on or run dry.
    fn at_boundary(&mut self, proc: usize, now: f64) {
        if self.interrupted[proc] {
            self.interrupted[proc] = false;
            if self.awaits_profile(proc) {
                self.send_profile(proc, now);
                return;
            }
        }
        if self.queues[proc].is_empty() {
            self.on_out_of_work(proc, now);
        } else {
            self.schedule_compute(proc, now);
        }
    }

    /// An interrupt landed mid-block: at this iteration boundary, settle
    /// the completed prefix and react exactly as `on_iter_done` would —
    /// profile if the episode still wants us, otherwise clear the stale
    /// flag and let the block run on.
    pub(super) fn on_settle_check(&mut self, proc: usize, epoch: u64, now: f64) {
        if epoch != self.block_epoch[proc]
            || self.membership.is_dead(proc)
            || !self.interrupted[proc]
            || self.state[proc] != ProcState::Computing
        {
            return; // block replaced, flag already served, or episode gone
        }
        let upto = {
            let b = self.blocks[proc]
                .as_ref()
                .expect("live epoch implies a block");
            b.boundaries.partition_point(|&x| x <= now) as u64
        };
        self.settle_block_to(proc, upto);
        self.interrupted[proc] = false;
        if self.awaits_profile(proc) {
            self.invalidate_block(proc);
            self.send_profile(proc, now);
        }
        // Stale flag: keep computing — the BlockDone is still scheduled.
    }

    pub(super) fn on_iter_done(&mut self, proc: usize, iter: u64, epoch: u64, now: f64) {
        if self.membership.is_dead(proc) || epoch != self.block_epoch[proc] {
            // The completion was scheduled before a crash; it never
            // happens. The iteration itself was returned to the queue at
            // crash time and will be recovered. The epoch check also
            // voids events that outlive a crash→recover cycle: the proc
            // is alive again, but this completion belongs to work that
            // was confiscated and redistributed — even when the rejoin
            // hands the very same iteration back to this processor.
            return;
        }
        debug_assert_eq!(
            self.in_flight[proc],
            Some(iter),
            "live completion of another iteration"
        );
        self.in_flight[proc] = None;
        self.window_iters[proc] += 1;
        self.iters_done[proc] += 1;
        self.executed.add(iter);
        self.work_done[proc] += self.workload.iter_cost(iter);
        self.finished_at[proc] = now;
        self.at_boundary(proc, now);
    }

    pub(super) fn on_out_of_work(&mut self, proc: usize, now: f64) {
        if self.cfg.is_none() {
            self.deactivate(proc, now);
            return;
        }
        let g = self.proc_group[proc];
        if let Some(episode) = self.groups[g].episode.as_ref() {
            let participant = episode.participants.binary_search(&proc).is_ok();
            if participant && self.profiled_in[proc] != episode.id {
                // Ran dry before the interrupt arrived: profile proactively.
                self.send_profile(proc, now);
            } else {
                // Already served by this episode (resumed, then drained
                // while the episode is still closing), or never part of it
                // (woken mid-episode by reassigned or rejoin work — a
                // profile from a non-participant would corrupt the
                // episode's completion accounting): queue up to start the
                // next one.
                self.set_state(proc, ProcState::IdlePending);
                self.groups[g].pending_initiators.insert(proc);
            }
            return;
        }
        let peers: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&m| m != proc && self.active[m])
            .collect();
        if peers.is_empty() {
            self.deactivate(proc, now);
            return;
        }
        self.start_episode(g, proc, &peers, now);
    }

    pub(super) fn deactivate(&mut self, proc: usize, now: f64) {
        self.set_state(proc, ProcState::Inactive);
        self.active[proc] = false;
        self.finished_at[proc] = self.finished_at[proc].max(now);
    }
}
