//! Message deliveries: what each payload does when it lands.

use super::*;

impl Engine<'_> {
    pub(super) fn on_deliver(&mut self, to: usize, payload: Payload, now: f64) {
        if self.membership.is_dead(to) {
            // A dead endpoint acknowledges nothing: the transport reports
            // the failure and the sender keeps its copy of any work so
            // iterations cannot vanish with the delivery.
            if let Payload::Work { group, ranges } = payload {
                if self.detected[to] {
                    // Death already handled: route the orphaned shipment
                    // straight to a survivor.
                    self.reassign_orphan_ranges(to, ranges, now);
                } else {
                    self.lost_work.push((to, group, ranges));
                }
            }
            return;
        }
        match payload {
            Payload::Interrupt { group, epoch } => {
                // §S17 staleness guard: after an adaptive switch the
                // group structure itself changed, so an old-regime
                // interrupt's group index is meaningless (it may not
                // even be in range). The guard runs first — any
                // interrupt that survives it carries the current view,
                // so `group` indexes the current `groups`. A mid-episode
                // epoch bump (death, rejoin) is recovered by watchdog
                // retransmission, which re-stamps with the current
                // epoch. Non-adaptive runs never take this branch: their
                // group structure is fixed, and dropping interrupts on
                // fault-driven bumps would change pre-adaptive behavior.
                if self.adaptive.is_some() && epoch < self.membership_epoch {
                    if let Some(a) = self.adaptive.as_mut() {
                        a.report.stale_dropped += 1;
                    }
                    return;
                }
                if !self.active[to] || self.proc_group[to] != group {
                    return;
                }
                match self.state[to] {
                    ProcState::Computing => self.flag_interrupt(to, now),
                    // Drained while the previous episode was closing and
                    // queued to initiate the next one — but a peer beat it
                    // to it: join the peer's episode instead.
                    ProcState::IdlePending => {
                        let join = self
                            .episode(group)
                            .is_some_and(|e| self.profiled_in[to] != e.id);
                        if join {
                            self.groups[group].pending_initiators.remove(&to);
                            self.send_profile(to, now);
                        }
                    }
                    // Already profiled proactively, waiting, or inactive:
                    // the interrupt is stale.
                    _ => {}
                }
            }
            Payload::Profile {
                group,
                sender,
                episode,
            } => {
                // Stale if the episode completed or aborted (None) or a
                // fresh one replaced it (id mismatch) — a retransmission
                // duplicate's snapshot must not seed the next episode's
                // balance calculation.
                let Some(ep) = self.episode(group).filter(|e| e.id == episode) else {
                    return;
                };
                // A profile broadcast before its sender's death was
                // handled can land after the membership shrink removed
                // the sender (or, distributed, the receiver) from the
                // episode. Recording it would plan transfers to or from
                // a non-participant, which never acts on them. A central
                // profile addressed to a host that has since lost the
                // role is dropped too: the current host never got it.
                let member = |p: usize| ep.participants.binary_search(&p).is_ok();
                let balancer = match self.control() {
                    Control::Centralized => to == self.balancer_host(group),
                    Control::Distributed => member(to),
                };
                if !member(sender) || !balancer {
                    return;
                }
                self.record_profile(group, to, sender, now);
            }
            Payload::Instruction {
                group,
                outcome,
                epoch,
                episode,
            } => {
                if (self.fault_active || self.adaptive.is_some()) && epoch < self.membership_epoch {
                    // §S14 split-brain guard: the sender's membership
                    // view is stale (a death, rejoin, or §S17 strategy
                    // switch intervened while this was in flight). The
                    // current view's balancer re-sends on the next
                    // watchdog round.
                    if self.fault_active {
                        self.faults.stale_instructions += 1;
                    }
                    if let Some(a) = self.adaptive.as_mut() {
                        a.report.stale_dropped += 1;
                    }
                    return;
                }
                match self.episode(group).map(|e| e.id) {
                    Some(id) if id == episode => {
                        if epoch < self.membership_epoch {
                            // Unreachable under adaptive (the guard above
                            // returned); counted so the chaos campaign
                            // can machine-check that no stale-regime
                            // instruction ever acts.
                            if let Some(a) = self.adaptive.as_mut() {
                                a.report.stale_applied += 1;
                            }
                        }
                        self.act_on_outcome(to, group, &outcome, now);
                    }
                    Some(_) => {
                        // A retransmission duplicate outlived its episode
                        // and a fresh one is already running: its plan is
                        // dead (the donors' queues moved on). Same fate
                        // as a stale epoch, same counter.
                        self.faults.stale_instructions += 1;
                    }
                    // Aborted while in flight: silently stale (the abort
                    // already resumed everyone).
                    None => {}
                }
            }
            Payload::JoinRequest { proc } => {
                // Admission is a membership decision, taken by the
                // coordinator regardless of the balancing control mode. A
                // request addressed to a since-replaced coordinator is
                // covered by the sender's retry chain.
                if to != self.admission_host(proc)
                    || self.membership.is_dead(proc)
                    || self.state[proc] != ProcState::Rejoining
                {
                    return;
                }
                self.request_admission(proc, now);
            }
            Payload::JoinGrant { epoch } => {
                // Unlike instructions, a grant is honored even if the view
                // moved on — the admission already re-grew the membership
                // and shipped work toward this receiver; refusing it would
                // strand both (the epoch only ever lags, never leads).
                debug_assert!(epoch <= self.membership_epoch, "grant from the future");
                self.apply_join_grant(to, now);
            }
            Payload::Work { group, ranges } => {
                let ProcState::WaitWork { expect } = self.state[to] else {
                    // `early_work` exists solely to credit a pending
                    // `act_on_outcome`: stash only if the receiver is a
                    // live-episode participant whose act is still coming
                    // (the donor's replicated balancer decided — and
                    // shipped — before this receiver finished its own
                    // calculation). Anything else — episode aborted while
                    // the shipment was in flight, a rejoiner (no
                    // participant), an orphan reassignment landing on a
                    // drained non-participant, a duplicate after the act —
                    // keeps the work directly: nothing would ever drain
                    // its stash. Only reachable under faults.
                    let act_pending = self.state[to] != ProcState::Rejoining
                        && self.episode(group).is_some_and(|e| {
                            e.participants.binary_search(&to).is_ok() && self.acted_in[to] != e.id
                        });
                    if act_pending {
                        self.early_work[to].push((group, ranges));
                    } else {
                        for r in ranges {
                            self.queues[to].push_back(r);
                        }
                        self.wake_if_idle(to, now);
                    }
                    return;
                };
                let got = ranges_len(&ranges);
                for r in ranges {
                    self.queues[to].push_back(r);
                }
                let left = expect.saturating_sub(got);
                if left == 0 {
                    self.stop_awaiting(group, to);
                    self.resume(to, now);
                    self.maybe_close_episode(group, now);
                } else {
                    self.set_state(to, ProcState::WaitWork { expect: left });
                }
            }
        }
    }
}
