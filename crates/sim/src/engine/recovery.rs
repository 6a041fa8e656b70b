//! Failure handling (§S10): crashes, heartbeat detection, the episode
//! watchdog with its retransmission rounds, death handling and the
//! reassignment of a dead processor's work.

use super::*;

impl Engine<'_> {
    /// The injected fail-stop: `proc` dies, silently, at `now`. Detection
    /// and recovery happen later, via heartbeat sweep or episode watchdog.
    pub(super) fn on_crash(&mut self, proc: usize, now: f64) {
        if !self.membership.declare_dead(proc) {
            return;
        }
        self.undetected.insert(proc);
        self.faults.crashes_injected += 1;
        // Which planned instance fired? Per-processor crash times are
        // distinct (validated interleaving), so the exact event time
        // resolves it.
        self.cur_crash[proc] = self
            .plan
            .crashes
            .iter()
            .position(|c| c.proc == proc && c.at == now);
        // The iteration executing at the instant of death never
        // completes; put it back so recovery can hand it to a survivor.
        if let Some(iter) = self.in_flight[proc].take() {
            self.queues[proc].push_back(iter..iter + 1);
            // Void the pending completion (see `EvKind::IterDone`).
            self.block_epoch[proc] += 1;
        }
        if self.blocks[proc].is_some() {
            // Block stepping: iterations whose boundary lies strictly before
            // the crash completed (an exact tie dies with the crash, which
            // drains first — its event predates the block's). Settle them,
            // then move the in-flight iteration to the back of the queue,
            // reproducing the per-iteration pop-then-push-back layout that
            // death recovery confiscates.
            let upto = {
                let b = self.blocks[proc].as_ref().expect("checked above");
                b.boundaries.partition_point(|&x| x < now) as u64
            };
            self.settle_block_to(proc, upto);
            let in_flight = self.blocks[proc].as_ref().expect("checked above").first + upto;
            let got = self.queues[proc]
                .pop_front_iter()
                .expect("an unfinished block implies queued work");
            debug_assert_eq!(
                got, in_flight,
                "crash must preempt the next queued iteration"
            );
            self.queues[proc].push_back(got..got + 1);
            self.invalidate_block(proc);
        }
        self.active[proc] = false;
        self.set_state(proc, ProcState::Inactive);
        self.interrupted[proc] = false;
    }

    /// Periodic liveness sweep: every dead-but-unhandled processor is
    /// detected here at the latest, bounding detection latency by the
    /// heartbeat interval (plus any earlier watchdog detection).
    pub(super) fn on_heartbeat(&mut self, now: f64) {
        self.faults.heartbeat_sweeps += 1;
        // Walk the dead-but-undetected set, O(#undetected), in ascending
        // id order: `handle_death` removes each entry, so popping the
        // minimum until empty visits them as a full scan would.
        while let Some(&proc) = self.undetected.iter().next() {
            self.handle_death(proc, now);
        }
        // Keep sweeping while a planned crash instance is still
        // unhandled (neither detected nor voided by a recovery).
        if self.crash_handled.contains(&false) {
            self.push_event(now + self.policy.heartbeat_interval, EvKind::Heartbeat);
        }
    }

    /// Episode watchdog: if episode `id` of group `g` is still open, some
    /// expected message never arrived — a member died or a message was
    /// lost. Detect deaths, then retransmit; after `max_retries` rounds,
    /// abort the episode and release everyone still parked in it.
    pub(super) fn on_watchdog(&mut self, g: usize, id: u64, now: f64) {
        // Closed, or a later episode: this watchdog is stale.
        let Some(episode) = self.episode(g).filter(|e| e.id == id) else {
            return;
        };
        let silent_dead: Vec<usize> = episode
            .participants
            .iter()
            .copied()
            .filter(|&m| self.membership.is_dead(m) && !self.detected[m])
            .collect();
        for d in silent_dead {
            self.handle_death(d, now);
        }
        // Death handling may have aborted or completed the episode.
        let max_retries = self.policy.max_retries;
        let Some(episode) = self.episode_mut(g).filter(|e| e.id == id) else {
            return;
        };
        if episode.attempts >= max_retries {
            self.abort_episode(g, now);
            return;
        }
        episode.attempts += 1;
        self.retransmit(g, now);
        self.arm_watchdog(g, now);
    }

    /// Declare `d` dead and recover: confiscate its unexecuted
    /// iterations (queue + any shipments lost en route to it), shrink its
    /// group, re-elect the balancer roles it hosted, repair the group's
    /// in-flight episode, and reassign the confiscated work across the
    /// survivors. Conservation invariant: every iteration is afterwards
    /// either executed or in some live processor's queue.
    pub(super) fn handle_death(&mut self, d: usize, now: f64) {
        if self.detected[d] {
            return;
        }
        self.detected[d] = true;
        self.undetected.remove(&d);
        // The membership view changes: in-flight instructions from the
        // old view are now stale (§S14).
        self.membership_epoch += 1;
        let crashed_at = match self.cur_crash[d] {
            Some(i) => {
                self.crash_handled[i] = true;
                self.plan.crashes[i].at
            }
            None => now,
        };

        // Confiscate unexecuted work. The loop's input data is replicated
        // at startup (arrays ship only on *re*-distribution), so any
        // survivor can execute a recovered range.
        let remaining = self.queues[d].remaining();
        let mut ranges = self.queues[d].take_back(remaining);
        for (_, rs) in std::mem::take(&mut self.early_work[d]) {
            ranges.extend(rs);
        }
        for (_, _, rs) in self.take_lost_work(|to, _| to == d) {
            ranges.extend(rs);
        }
        let recovered = ranges_len(&ranges);
        self.faults.iters_recovered += recovered;
        self.faults.detections.push(DetectionRecord {
            proc: d,
            crashed_at,
            detected_at: now,
            iters_recovered: recovered,
        });

        // Membership shrink: d leaves its group for good.
        let g = self.proc_group[d];
        self.groups[g].members.retain(|&m| m != d);
        self.groups[g].pending_initiators.remove(&d);
        self.groups[g].pending_joins.remove(&d);

        // Every balancer role `d` hosted re-elects. The profile sets in
        // `d`'s memory are gone: live senders retransmit to the new host
        // on the next watchdog round. The one `membership_epoch` bump
        // above already stales every in-flight instruction.
        for r in 0..self.role_host.len() {
            if self.role_host[r] == d {
                self.elect_role(r);
            }
        }
        for gc in &mut self.groups {
            if let Some(e) = gc.episode.as_mut().filter(|e| e.outcome.is_none()) {
                e.received.remove(&d);
                e.calc_scheduled.remove(&d);
            }
        }

        self.fixup_episode_after_death(g, d, now);
        self.reassign_ranges(g, ranges, now);
    }

    /// Remove and return the lost shipments `pick(to, group)` selects, in
    /// `swap_remove` scan order.
    fn take_lost_work(
        &mut self,
        pick: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, usize, Vec<Range<u64>>)> {
        let mut taken = Vec::new();
        let mut i = 0;
        while i < self.lost_work.len() {
            let (to, group, _) = self.lost_work[i];
            if pick(to, group) {
                taken.push(self.lost_work.swap_remove(i));
            } else {
                i += 1;
            }
        }
        taken
    }

    /// Distribute confiscated `ranges` across the live members of group
    /// `g` (any live processor if the group was wiped out), waking any
    /// heir that had already left the computation.
    fn reassign_ranges(&mut self, g: usize, ranges: Vec<Range<u64>>, now: f64) {
        if ranges.is_empty() {
            return;
        }
        let mut heirs: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&m| self.membership.is_alive(m))
            .collect();
        if heirs.is_empty() {
            heirs = (0..self.cluster.processors())
                .filter(|&m| self.membership.is_alive(m))
                .collect();
        }
        if heirs.is_empty() {
            // Everyone is dead. Validation guarantees a recovery is
            // planned; park the work until someone comes back.
            self.limbo.extend(ranges);
            return;
        }
        let parts = split_ranges(&ranges, heirs.len());
        for (&m, part) in heirs.iter().zip(parts) {
            if part.is_empty() {
                continue;
            }
            for r in part {
                self.queues[m].push_back(r);
            }
            self.wake_if_idle(m, now);
        }
    }

    /// Route a single orphaned shipment (work delivered to an
    /// already-handled dead processor) to one survivor of its group.
    pub(super) fn reassign_orphan_ranges(
        &mut self,
        dead_to: usize,
        ranges: Vec<Range<u64>>,
        now: f64,
    ) {
        let g = self.proc_group[dead_to];
        self.reassign_ranges(g, ranges, now);
    }

    /// A processor that had left the computation (or was queued to start
    /// an episode) re-enters it to execute newly assigned work.
    pub(super) fn wake_if_idle(&mut self, m: usize, now: f64) {
        match self.state[m] {
            ProcState::Inactive | ProcState::IdlePending => {
                self.groups[self.proc_group[m]]
                    .pending_initiators
                    .remove(&m);
                self.active[m] = true;
                self.resume(m, now);
            }
            // Computing continues; WaitOutcome/WaitWork pick the new
            // work up when their episode resolves.
            _ => {}
        }
    }

    /// Repair group `g`'s episode after member `d` died: remove every
    /// trace of `d`, then either abort (too few members left), release
    /// receivers that were owed work by the dead donor, or let the
    /// balancer proceed with the shrunken profile set.
    fn fixup_episode_after_death(&mut self, g: usize, d: usize, now: f64) {
        let (d_acted, outcome, participants) = {
            let Some(e) = self.groups[g].episode.as_mut() else {
                return;
            };
            if !e.participants.contains(&d) {
                return;
            }
            let d_acted = self.acted_in[d] == e.id;
            Arc::make_mut(&mut e.participants).retain(|&m| m != d);
            if self.profiled_in[d] == e.id {
                self.profiled_in[d] = 0;
            }
            if d_acted {
                self.acted_in[d] = 0;
                e.acted -= 1;
            }
            if self.awaiting_in[d] == e.id {
                self.awaiting_in[d] = 0;
                e.awaiting -= 1;
            }
            e.profiles.remove(&d);
            e.received.remove(&d);
            for senders in e.received.values_mut() {
                senders.remove(&d);
            }
            e.calc_scheduled.remove(&d);
            (d_acted, e.outcome.clone(), Arc::clone(&e.participants))
        };
        if participants.len() <= 1 {
            self.abort_episode(g, now);
            return;
        }
        match outcome {
            Some(out) if !d_acted => {
                // The dead member never shipped its donations (they were
                // confiscated with its queue): release receivers blocked
                // waiting on them. If it *had* acted, its shipments are
                // delivered, in flight, or in the lost-work log — all
                // still reach a live queue — so no release is due.
                for &m in participants.iter() {
                    let ProcState::WaitWork { expect } = self.state[m] else {
                        continue;
                    };
                    let owed_by_dead: u64 = out
                        .owed(m)
                        .iter()
                        .filter(|t| t.from == d)
                        .map(|t| t.iters)
                        .sum();
                    if owed_by_dead == 0 {
                        continue;
                    }
                    let left = expect.saturating_sub(owed_by_dead);
                    if left == 0 {
                        self.stop_awaiting(g, m);
                        self.resume(m, now);
                    } else {
                        self.set_state(m, ProcState::WaitWork { expect: left });
                    }
                }
            }
            Some(_) => {}
            None => {
                // With d removed, the profile sets may now be complete.
                for b in self.balancers(g, &participants) {
                    self.try_calc(g, b, now);
                }
            }
        }
        self.maybe_close_episode(g, now);
    }

    /// One watchdog retransmission round for group `g`'s episode: re-send
    /// whatever the expected-but-missing messages were — lost work
    /// shipments, unanswered interrupts, profiles missing at a balancer,
    /// and unacted instructions.
    fn retransmit(&mut self, g: usize, now: f64) {
        let control = self.control();
        let (episode_id, initiator, participants, profiled, acted, outcome) = {
            let e = self.episode(g).expect("retransmit needs an episode");
            (
                e.id,
                e.initiator,
                Arc::clone(&e.participants),
                e.participants
                    .iter()
                    .map(|&m| self.profiled_in[m] == e.id)
                    .collect::<Vec<bool>>(),
                e.participants
                    .iter()
                    .map(|&m| self.acted_in[m] == e.id)
                    .collect::<Vec<bool>>(),
                e.outcome.clone(),
            )
        };
        // Every liveness query below is about the initiator or a
        // participant (profile senders are participants too — the fault
        // fixup prunes dead ones), so the snapshot only needs the
        // episode's K members, not all P processors.
        let alive_set: BTreeSet<usize> = participants
            .iter()
            .copied()
            .chain(std::iter::once(initiator))
            .filter(|&m| self.membership.is_alive(m))
            .collect();
        let alive = move |m: usize| alive_set.contains(&m);
        let sender = if alive(initiator) {
            initiator
        } else {
            match participants.iter().copied().find(|&m| alive(m)) {
                Some(m) => m,
                None => return, // nobody left to drive the episode
            }
        };

        // 1. Lost work shipments (sender-side copies).
        for (to, grp, ranges) in self.take_lost_work(|_, grp| grp == g) {
            self.faults.retries += 1;
            self.send(sender, to, Payload::Work { group: grp, ranges }, now);
        }

        // 2. Interrupts that never bit: a live participant still
        // computing, unprofiled, with no pending interrupt flag.
        for (&m, &has_profiled) in participants.iter().zip(&profiled) {
            if alive(m)
                && !has_profiled
                && self.state[m] == ProcState::Computing
                && !self.interrupted[m]
            {
                self.faults.retries += 1;
                self.send(
                    sender,
                    m,
                    Payload::Interrupt {
                        group: g,
                        epoch: self.membership_epoch,
                    },
                    now,
                );
            }
        }

        // 3. Profiles a balancer lacks, re-sent from the sender's copy
        // (also repopulates a promoted central balancer after its host
        // died). Dead replicas are skipped; the central balancer is
        // whichever processor hosts it now.
        let mut balancers = self.balancers(g, &participants);
        if control == Control::Distributed {
            balancers.retain(|&b| alive(b));
        }
        for b in balancers {
            let lacking: Vec<usize> = {
                let e = self.episode(g).expect("episode above");
                let have = e.received.get(&b);
                e.profiles
                    .keys()
                    .copied()
                    .filter(|&q| alive(q) && !have.is_some_and(|h| h.contains(&q)))
                    .collect()
            };
            for q in lacking {
                self.faults.retries += 1;
                if q == b {
                    self.record_profile(g, b, q, now);
                } else {
                    let profile = Payload::Profile {
                        group: g,
                        sender: q,
                        episode: episode_id,
                    };
                    self.send(q, b, profile, now);
                }
            }
        }

        // 4. Instructions that never arrived (centralized only — the
        // distributed schemes have no instruction messages).
        if control == Control::Centralized {
            if let Some(out) = outcome {
                let master = self.balancer_host(g);
                for (&m, &has_acted) in participants.iter().zip(&acted) {
                    if !alive(m) || has_acted {
                        continue;
                    }
                    self.faults.retries += 1;
                    if m == master {
                        self.act_on_outcome(m, g, &out, now);
                    } else {
                        // Stamped with the *current* epoch: retransmission
                        // is exactly how a view change supersedes stale
                        // in-flight instructions (§S14).
                        self.send(
                            master,
                            m,
                            Payload::Instruction {
                                group: g,
                                outcome: Arc::clone(&out),
                                epoch: self.membership_epoch,
                                episode: episode_id,
                            },
                            now,
                        );
                    }
                }
            }
        }
    }

    /// Give up on an episode: resume every live participant with whatever
    /// work it holds, flush this group's lost shipments into live queues,
    /// and let a drained member restart the protocol from scratch.
    fn abort_episode(&mut self, g: usize, now: f64) {
        let Some(e) = self.groups[g].episode.take() else {
            return;
        };
        self.faults.aborted_episodes += 1;
        for &m in e.participants.iter() {
            if self.membership.is_dead(m) {
                continue;
            }
            self.interrupted[m] = false;
            // A shipment parked awaiting this member's (now never-coming)
            // instruction becomes its work outright.
            for (_, ranges) in std::mem::take(&mut self.early_work[m]) {
                for r in ranges {
                    self.queues[m].push_back(r);
                }
            }
            match self.state[m] {
                ProcState::WaitOutcome | ProcState::WaitWork { .. } => self.resume(m, now),
                _ => {}
            }
        }
        // Iterations stuck in the lost-work log must not leak.
        for (to, _, ranges) in self.take_lost_work(|_, grp| grp == g) {
            if self.membership.is_alive(to) {
                for r in ranges {
                    self.queues[to].push_back(r);
                }
                self.wake_if_idle(to, now);
            } else {
                self.reassign_orphan_ranges(to, ranges, now);
            }
        }
        // The aborted episode's boundary admits rejoiners too (§S14),
        // and is an adaptive re-decision point like any other boundary.
        self.episode_boundary_tail(g, now);
    }
}
