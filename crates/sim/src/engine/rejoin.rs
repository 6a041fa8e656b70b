//! Rejoin (§S14): a recovered processor's handshake, its admission at
//! an episode boundary, and the re-expansion of work toward it.

use super::*;

impl Engine<'_> {
    /// Iterations `m` has not finished executing at `now`, independent of
    /// engine mode: per-iteration stepping pops the in-flight iteration
    /// from the queue, block stepping leaves completed-but-unsettled
    /// iterations *in* it — this reconciles both to the same count, so a
    /// rejoin admission computes the identical redistribution in every
    /// mode.
    fn logical_remaining(&self, m: usize, now: f64) -> u64 {
        let q = self.queues[m].remaining();
        if let Some(b) = self.blocks[m].as_ref() {
            let settled_pending = b.boundaries.partition_point(|&x| x <= now) as u64 - b.done;
            q - settled_pending
        } else if self.in_flight[m].is_some() {
            q + 1
        } else {
            q
        }
    }

    /// Take up to `want` iterations off the back of `m`'s queue for a
    /// rejoining member, preserving cross-mode equivalence: settle the
    /// completed prefix of any running block first (so the queue holds
    /// exactly what the per-iteration engine's would), never touch the
    /// iteration currently executing, and truncate the scheduled block if
    /// the steal ate into its tail.
    fn steal_back(&mut self, m: usize, want: u64, now: f64) -> Vec<Range<u64>> {
        if self.blocks[m].is_some() {
            let upto = {
                let b = self.blocks[m].as_ref().expect("checked above");
                b.boundaries.partition_point(|&x| x <= now) as u64
            };
            self.settle_block_to(m, upto);
        }
        let executing = self.blocks[m]
            .as_ref()
            .is_some_and(|b| (b.done as usize) < b.boundaries.len());
        let avail = self.queues[m].remaining().saturating_sub(executing as u64);
        let k = want.min(avail);
        if k == 0 {
            return Vec::new();
        }
        let ranges = self.queues[m].take_back(k);
        let rem = self.queues[m].remaining();
        let mut retime = None;
        if let Some(b) = self.blocks[m].as_mut() {
            let l = b.boundaries.len() as u64;
            if b.done + rem < l {
                b.boundaries.truncate((b.done + rem) as usize);
                retime = Some(
                    *b.boundaries
                        .last()
                        .expect("the executing iteration is never stolen"),
                );
            }
        }
        if let Some(at) = retime {
            self.block_epoch[m] += 1;
            let epoch = self.block_epoch[m];
            let tie = {
                let b = self.blocks[m].as_ref().expect("block checked above");
                block_done_tie(&b.boundaries, b.started)
            };
            self.push_event_tied(at, tie, EvKind::BlockDone { proc: m, epoch });
            if self.interrupted[m] {
                // The settle point the pending interrupt was waiting on
                // went stale with the old epoch; re-aim it.
                self.aim_settle_check(m, now);
            }
        }
        ranges
    }

    /// A planned recovery fires: the processor comes back up. If its
    /// crash was never noticed, the comeback announcement reveals it —
    /// run the normal death handling first (confiscation, shrink,
    /// promotion) so there is exactly one rejoin path. Then re-enter via
    /// the §S14 handshake: announce to the coordinator, wait for a grant.
    pub(super) fn on_recover(&mut self, proc: usize, now: f64) {
        if self.membership.is_alive(proc) {
            return; // plan validation forbids this; stay safe anyway
        }
        if !self.detected[proc] {
            self.handle_death(proc, now);
        }
        self.membership.revive(proc);
        self.faults.recoveries += 1;
        self.detected[proc] = false;
        self.cur_crash[proc] = None;
        self.recovered_at[proc] = now;
        // Work parked while every processor was down drains to the first
        // one back.
        for r in std::mem::take(&mut self.limbo) {
            self.queues[proc].push_back(r);
        }
        let g = self.proc_group[proc];
        if self.cfg.is_none() {
            // No balancer to ask: rejoin the (static) membership directly
            // and run whatever landed in the queue meanwhile.
            let members = &mut self.groups[g].members;
            if !members.contains(&proc) {
                let pos = members.partition_point(|&m| m < proc);
                members.insert(pos, proc);
            }
            let idx = self.faults.rejoins.len();
            self.faults.rejoins.push(RejoinRecord {
                proc,
                recovered_at: now,
                admitted_at: now,
                iters_after_rejoin: 0,
            });
            self.rejoin_baselines.push((idx, self.iters_done[proc]));
            if self.queues[proc].is_empty() {
                self.deactivate(proc, now);
            } else {
                self.active[proc] = true;
                self.window_start[proc] = now;
                self.window_iters[proc] = 0;
                self.schedule_compute(proc, now);
            }
            return;
        }
        self.set_state(proc, ProcState::Rejoining);
        let host = self.admission_host(proc);
        if host == proc {
            // Sole survivor scenarios: the comeback *is* the coordinator.
            self.request_admission(proc, now);
        } else {
            self.send(proc, host, Payload::JoinRequest { proc }, now);
            self.push_event(
                now + self.policy.heartbeat_interval,
                EvKind::JoinRetry { proc },
            );
        }
    }

    /// Re-announce a still-unadmitted rejoiner to the (possibly since
    /// promoted) coordinator, at the heartbeat cadence. The chain dies
    /// with the `Rejoining` state or with the workload.
    pub(super) fn on_join_retry(&mut self, proc: usize, now: f64) {
        if self.state[proc] != ProcState::Rejoining {
            return;
        }
        let host = self.admission_host(proc);
        if host == proc {
            self.request_admission(proc, now);
            return;
        }
        self.send(proc, host, Payload::JoinRequest { proc }, now);
        if self.iters_done.iter().sum::<u64>() < self.workload.iterations() {
            self.push_event(
                now + self.policy.heartbeat_interval,
                EvKind::JoinRetry { proc },
            );
        }
    }

    /// Route an admission request: grant immediately when the group is
    /// between episodes, otherwise park it for the episode boundary
    /// (§S14 — stealing from a profiled participant mid-episode would
    /// break its planned transfers).
    pub(super) fn request_admission(&mut self, q: usize, now: f64) {
        let g = self.proc_group[q];
        if self.groups[g].episode.is_some() {
            self.groups[g].pending_joins.insert(q);
        } else {
            self.admit_rejoin(q, now);
        }
    }

    /// Admit a recovered processor back into its group: bump the
    /// membership epoch (stale in-flight instructions die, §S14), re-grow
    /// the member list, and re-expand the distribution through the same
    /// profitability gate the balancer applies — nominal processor speeds
    /// stand in for measured rates, since the newcomer has no current
    /// window. Only transfers *toward* the newcomer ship here; anything
    /// else is the next episode's business. Callers guarantee no episode
    /// is open in the group (stealing from a profiled participant would
    /// break its planned transfers).
    pub(super) fn admit_rejoin(&mut self, q: usize, now: f64) {
        if self.state[q] != ProcState::Rejoining || self.membership.is_dead(q) {
            return;
        }
        debug_assert!(
            self.groups[self.proc_group[q]].episode.is_none(),
            "admission only happens at episode boundaries"
        );
        self.membership_epoch += 1;
        let g = self.proc_group[q];
        let members = &mut self.groups[g].members;
        if !members.contains(&q) {
            let pos = members.partition_point(|&m| m < q);
            members.insert(pos, q);
        }
        for r in std::mem::take(&mut self.limbo) {
            self.queues[q].push_back(r);
        }
        let mems: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&m| self.membership.is_alive(m))
            .collect();
        // Nominal-speed profiles at a fixed 1-second window; scaled so
        // integer iteration counts keep the speed ratios. Movement cost
        // is the wire's to model (the Work shipment is costed and
        // contended like any other), so the gate uses the paper's
        // default of excluding it.
        let profiles: Vec<PerfProfile> = mems
            .iter()
            .map(|&m| PerfProfile {
                proc: m,
                iters_done: (self.cluster.speeds[m] * 1e6).round() as u64,
                elapsed: 1.0,
                remaining: self.logical_remaining(m, now),
            })
            .collect();
        // Invariant: this path is only reachable through the §S14
        // handshake (JoinRequest → request_admission → here), and
        // `on_recover` routes `cfg = None` runs to the direct-rejoin
        // branch before any handshake starts.
        let cfg = self
            .cfg
            .as_ref()
            .expect("rejoin admission is only reachable via the DLB handshake path");
        let outcome = balance_group(&profiles, cfg, |_| 0.0);
        let idx = self.faults.rejoins.len();
        self.faults.rejoins.push(RejoinRecord {
            proc: q,
            recovered_at: self.recovered_at[q],
            admitted_at: now,
            iters_after_rejoin: 0,
        });
        self.rejoin_baselines.push((idx, self.iters_done[q]));
        let inbound: Vec<(usize, u64)> = outcome
            .transfers
            .iter()
            .filter(|t| t.to == q && t.from != q)
            .map(|t| (t.from, t.iters))
            .collect();
        for (from, iters) in inbound {
            let ranges = self.steal_back(from, iters, now);
            if ranges.is_empty() {
                continue;
            }
            // Exempt from loss/cuts: this shipment happens between
            // episodes, where no watchdog would ever retransmit it.
            self.send_opts(from, q, Payload::Work { group: g, ranges }, now, true);
        }
        let host = self.admission_host(q);
        if q == host {
            self.apply_join_grant(q, now);
        } else {
            self.send(
                host,
                q,
                Payload::JoinGrant {
                    epoch: self.membership_epoch,
                },
                now,
            );
        }
    }

    /// The grant lands (or the coordinator grants itself): the rejoiner
    /// becomes a full member again and starts a fresh measurement window.
    /// An empty queue takes the paper's receiver-initiated path — ask the
    /// group for work, let the profitability gate decide.
    pub(super) fn apply_join_grant(&mut self, q: usize, now: f64) {
        if self.state[q] != ProcState::Rejoining {
            return; // duplicate grant (retry raced the original)
        }
        self.active[q] = true;
        self.window_start[q] = now;
        self.window_iters[q] = 0;
        if self.queues[q].is_empty() {
            let g = self.proc_group[q];
            if self.groups[g].episode.is_some() {
                // An episode opened while the grant was in flight: queue
                // up to initiate at its boundary rather than injecting a
                // non-participant profile into it.
                self.set_state(q, ProcState::IdlePending);
                self.groups[g].pending_initiators.insert(q);
            } else {
                self.set_state(q, ProcState::Inactive);
                self.on_out_of_work(q, now);
            }
        } else {
            self.schedule_compute(q, now);
        }
    }
}
