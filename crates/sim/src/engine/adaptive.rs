//! Runtime re-customization (§S17): fault- and drift-adaptive strategy
//! switching with epoch-guarded handover.
//!
//! The paper's hybrid decision process (Section 4.3) customizes *once*:
//! it measures until the first synchronization point, consults the model,
//! and commits to one strategy for the rest of the run. On a NOW that
//! crashes, rejoins, partitions and drifts, that single decision decays —
//! the strategy chosen for sixteen healthy workstations is not the right
//! one for the nine that remain an hour later. This module closes the
//! loop: at **episode boundaries** (and only there) the engine folds its
//! observed per-processor rates, the remaining work, and the live fault
//! picture into [`ObservedSystem::redecide`] — the same
//! `dlb_model::choose_strategy` decision process the compile-time path
//! uses — and switches strategy mid-run when the predicted win clears a
//! hysteresis threshold.
//!
//! # The observation → re-decision → handover state machine
//!
//! * **Observe.** Every closed (or aborted) episode advances the
//!   observation window. Rates are measured as `Δiters_done / Δt` per
//!   live processor since the window anchor; the anchor resets after
//!   every consultation and every switch.
//! * **Re-decide.** Once the window holds [`AdaptiveConfig::window`]
//!   episodes and [`AdaptiveConfig::min_episodes_between`] episodes have
//!   passed since the last switch, the model is consulted — but only at
//!   a *globally quiescent* boundary (no group mid-episode) over a
//!   *stable* observation (no active partition, ≥ 2 live processors).
//!   Anything else defers the consultation to a later boundary.
//! * **Hand over.** The boundary only records the switch it chose; the
//!   engine performs it when the event's handler has returned, so the
//!   layout changes only between events (`Engine::dispatch`). A switch
//!   (a) bumps `membership_epoch`, so every
//!   in-flight Instruction and Interrupt stamped under the old regime is
//!   dropped by the staleness guards (§S14 machinery reused verbatim);
//!   (b) rebuilds the group structure for the new strategy from the
//!   **current** membership — detected-dead processors stay out, parked
//!   rejoiners and initiators follow their owners into their new groups;
//!   and (c) elects every balancer role's host from live membership
//!   (`Engine::build_layout`, the constructor's own layout step): the
//!   flat role passes from role 0's host, a §S16 domain's role to its
//!   lowest live member.
//!
//! # Legality conditions
//!
//! A switch is legal exactly when every group's episode is closed: at
//! quiescence no processor is `WaitOutcome`/`WaitWork`, `early_work` is
//! empty (it only buffers inside an open distributed episode), and every
//! queued iteration sits in some processor's queue — so re-partitioning
//! the groups moves no work and strands no waiter. `lost_work` entries
//! may survive a boundary only when addressed to a dead-but-undetected
//! processor; death handling drains them group-agnostically, so a group
//! renumbering cannot orphan them. Episode ids are engine-global and
//! monotonic, so an old-regime Profile or Instruction can never collide
//! with a new episode's id even after its group index is reused.

use super::*;
use crate::report::{AdaptiveReport, SwitchRecord};
use dlb_core::strategy::{AdaptiveConfig, Strategy};
use dlb_model::{control_comm_model, ObservedSystem};
use now_net::CommCostModel;

/// Floor for an observed rate: a live processor that executed nothing in
/// the window (e.g. it was admitted mid-window) still needs a positive
/// speed for the model's per-processor divisions to stay finite.
const RATE_FLOOR: f64 = 1e-9;

/// Relative rate floor: no processor is modeled slower than this fraction
/// of the fastest observed rate. The model's window recurrence steps once
/// per synchronization round, and the round count scales with the speed
/// ratio — an unbounded ratio (a processor that genuinely executed
/// nothing all window) would send the prediction into astronomically many
/// rounds. 10⁻⁴ keeps any plausible NOW drift undistorted.
const REL_RATE_FLOOR: f64 = 1e-4;

/// Live state of the adaptive re-decision loop. One per engine, present
/// only when [`Engine::with_adaptive`] was called.
pub(super) struct AdaptiveState {
    /// The switching policy (hysteresis, window, churn guard).
    cfg: AdaptiveConfig,
    /// Network characterization for the re-decision model, fitted once
    /// at construction — the physical medium does not drift, only the
    /// load on it does (and that enters through the observed rates).
    comm: CommCostModel,
    /// Closed episodes since the last switch (churn guard).
    episodes_since_switch: u32,
    /// Closed episodes inside the current observation window.
    window_episodes: u32,
    /// Wall-clock anchor of the observation window.
    window_start_time: f64,
    /// Per-processor `iters_done` snapshot at the window anchor.
    window_start_iters: Vec<u64>,
    /// The switch an episode boundary of the current event chose,
    /// performed once its handler returns.
    pending: Option<SwitchRecord>,
    /// Accounting folded into the final [`RunReport`].
    pub(super) report: AdaptiveReport,
}

impl AdaptiveState {
    /// Re-anchor the observation window at `now`.
    fn reset_window(&mut self, now: f64, iters_done: &[u64]) {
        self.window_start_time = now;
        self.window_start_iters.copy_from_slice(iters_done);
        self.window_episodes = 0;
    }

    pub(super) fn into_report(self) -> AdaptiveReport {
        self.report
    }
}

impl<'w> Engine<'w> {
    /// Enable §S17 runtime re-customization: re-consult the model at
    /// episode boundaries and switch strategy when the predicted win
    /// clears `acfg.hysteresis`. The engine must already be configured
    /// with `acfg.initial` as its strategy.
    ///
    /// # Panics
    /// Panics if the engine has no DLB strategy, if its strategy differs
    /// from `acfg.initial`, or if `acfg` is out of range.
    pub fn with_adaptive(mut self, acfg: AdaptiveConfig) -> Self {
        acfg.validate();
        let cfg = self
            .cfg
            .as_ref()
            .expect("adaptive re-customization requires a DLB strategy");
        assert_eq!(
            *cfg, acfg.initial,
            "engine strategy must match the adaptive initial strategy"
        );
        let p = self.cluster.processors();
        let comm = control_comm_model(self.cluster.net, p);
        self.adaptive = Some(AdaptiveState {
            report: AdaptiveReport {
                decisions: 0,
                switches: Vec::new(),
                stale_dropped: 0,
                stale_applied: 0,
                mid_episode_switches: 0,
                deferred: 0,
                final_strategy: acfg.initial.strategy,
            },
            cfg: acfg,
            comm,
            episodes_since_switch: 0,
            window_episodes: 0,
            window_start_time: 0.0,
            window_start_iters: vec![0; p],
            pending: None,
        });
        self
    }

    /// The common tail of every episode boundary (close or abort): run
    /// the adaptive re-decision hook, then drain group `g`'s parked
    /// rejoiners and initiators — unless a switch is pending, whose
    /// new layout [`Engine::switch_between_events`] drains whole.
    pub(super) fn episode_boundary_tail(&mut self, g: usize, now: f64) {
        self.adaptive_boundary(now);
        if !self.switch_pending() {
            self.drain_boundary(g, now);
        }
    }

    /// Whether an episode boundary of the current event chose a switch.
    pub(super) fn switch_pending(&self) -> bool {
        self.adaptive.as_ref().is_some_and(|a| a.pending.is_some())
    }

    /// Perform the pending switch, then drain every group of the new
    /// layout. `dispatch` calls it once the event's handler has
    /// returned: the one place the layout changes after construction,
    /// so no handler holds a group index across a switch.
    pub(super) fn switch_between_events(&mut self, now: f64) {
        let mut a = self.adaptive.take().expect("a pending switch");
        let rec = a.pending.take().expect("a pending switch");
        self.perform_switch(&mut a, rec);
        self.adaptive = Some(a);
        for g in 0..self.groups.len() {
            self.drain_boundary(g, now);
        }
    }

    /// Admit rejoiners parked at this boundary, then let one drained
    /// member start the next episode — exactly the pre-adaptive boundary
    /// tail, shared by both close sites.
    fn drain_boundary(&mut self, g: usize, now: f64) {
        // The episode boundary: admit rejoiners that knocked while it
        // was open (§S14). An admission may itself open the next
        // episode, in which case the rest keep waiting for *its*
        // boundary.
        loop {
            if self.groups[g].episode.is_some() {
                return;
            }
            let Some(&q) = self.groups[g].pending_joins.iter().next() else {
                break;
            };
            self.groups[g].pending_joins.remove(&q);
            self.admit_rejoin(q, now);
        }
        if self.groups[g].episode.is_some() {
            return;
        }
        // A member that drained during the close gets to start the next
        // episode immediately.
        while let Some(&p) = self.groups[g].pending_initiators.iter().next() {
            self.groups[g].pending_initiators.remove(&p);
            if !self.active[p] || self.state[p] != ProcState::IdlePending {
                continue;
            }
            self.on_out_of_work(p, now);
            break;
        }
    }

    /// The adaptive hook at one episode boundary: record the switch it
    /// chooses, if any, as pending.
    fn adaptive_boundary(&mut self, now: f64) {
        // Take/restore: the decision logic reads broad engine state
        // while mutating the adaptive accounting.
        let Some(mut a) = self.adaptive.take() else {
            return;
        };
        if let Some(rec) = self.adaptive_boundary_inner(&mut a, now) {
            a.pending = Some(rec);
        }
        self.adaptive = Some(a);
    }

    /// Iterations `m` has finished executing at `now`, independent of
    /// engine mode — the observation-side dual of `logical_remaining`:
    /// block stepping credits `iters_done` only at block settle points,
    /// so the completed-but-unsettled prefix of a running block must be
    /// added back for the per-iteration and episode engines to
    /// observe identical rates (and hence take identical switch
    /// decisions).
    fn logical_done(&self, m: usize, now: f64) -> u64 {
        let mut done = self.iters_done[m];
        if let Some(b) = self.blocks[m].as_ref() {
            done += b.boundaries.partition_point(|&x| x <= now) as u64 - b.done;
        }
        done
    }

    pub(super) fn logical_done_all(&self, now: f64) -> Vec<u64> {
        (0..self.cluster.processors())
            .map(|m| self.logical_done(m, now))
            .collect()
    }

    fn adaptive_boundary_inner(&mut self, a: &mut AdaptiveState, now: f64) -> Option<SwitchRecord> {
        a.window_episodes = a.window_episodes.saturating_add(1);
        a.episodes_since_switch = a.episodes_since_switch.saturating_add(1);
        if a.window_episodes < a.cfg.window || a.episodes_since_switch < a.cfg.min_episodes_between
        {
            return None;
        }
        if self.groups.iter().any(|gc| gc.episode.is_some()) {
            // Another group is mid-episode: a switch would tear the
            // group structure out from under its open protocol round.
            // Keep the window (the measurement is fine) and retry at a
            // globally quiescent boundary.
            a.report.deferred += 1;
            return None;
        }
        let elapsed = now - a.window_start_time;
        if elapsed <= 0.0 {
            return None;
        }
        let eff = self.logical_done_all(now);
        let remaining = self.workload.iterations() - eff.iter().sum::<u64>();
        if remaining == 0 {
            return None; // the run is over; nothing left to re-decide
        }
        let p = self.cluster.processors();
        let mut rates = Vec::with_capacity(p);
        for (m, &done_m) in eff.iter().enumerate() {
            if self.membership.is_alive(m) {
                let done = done_m - a.window_start_iters[m];
                rates.push(done as f64 / elapsed);
            }
        }
        let max_rate = rates.iter().fold(0.0_f64, |acc, &r| acc.max(r));
        if max_rate == 0.0 {
            // No live processor finished an iteration this window: every
            // rate would sit on the floor, and the model's round count
            // would not stay bounded. Keep measuring and retry at a later
            // boundary.
            a.report.deferred += 1;
            return None;
        }
        let floor = (max_rate * REL_RATE_FLOOR).max(RATE_FLOOR);
        for r in &mut rates {
            *r = r.max(floor);
        }
        let dead = p - rates.len();
        let obs = ObservedSystem {
            rates,
            remaining_iters: remaining,
            bytes_per_iter: self.bytes_per_iter,
            dead,
            rejoin_churn: self.faults.rejoins.len() as u64,
            partitioned: self.fault_active && self.plan.any_link_cut_at(now),
        };
        if !obs.stable() {
            // Partition in progress or a lone survivor: both the
            // measurement and a handover are suspect. Drop the window —
            // its rates are contaminated — and start measuring afresh.
            a.report.deferred += 1;
            a.reset_window(now, &eff);
            return None;
        }
        let cfg = self.cfg.as_ref().expect("adaptive runs require DLB");
        let current = cfg.strategy;
        let decision = obs.redecide(a.comm.clone(), cfg.calc_cost, cfg.group_size);
        a.report.decisions += 1;
        a.reset_window(now, &eff);
        let chosen = decision.chosen;
        if chosen == current {
            return None;
        }
        let pred = |s: Strategy| {
            decision
                .predictions
                .iter()
                .find(|pr| pr.strategy == s)
                .map(|pr| pr.total_time)
        };
        let (Some(pc), Some(pn)) = (pred(current), pred(chosen)) else {
            return None;
        };
        if !(pc.is_finite() && pn.is_finite() && pn < (1.0 - a.cfg.hysteresis) * pc) {
            return None;
        }
        // Amortization guard: if the incumbent's predicted remaining time
        // is shorter than the observation window that produced it, the
        // run is in its endgame — a handover (epoch bump, role re-seed)
        // cannot recoup its disruption before the work runs out.
        if pc <= elapsed {
            return None;
        }
        Some(SwitchRecord {
            at: now,
            episode: self.episode_seq,
            from: current,
            to: chosen,
            predicted_current: pc,
            predicted_new: pn,
        })
    }

    /// Execute the handover `rec` records. The boundary that chose it
    /// saw global quiescence (all episodes closed) and at least two live
    /// processors.
    fn perform_switch(&mut self, a: &mut AdaptiveState, rec: SwitchRecord) {
        if self.groups.iter().any(|gc| gc.episode.is_some()) {
            // Unreachable: the boundary check already required global
            // quiescence, and no episode opens before its event's handler
            // returns. Counted (never silently tolerated) so the
            // chaos campaign can machine-check the invariant stays zero.
            a.report.mid_episode_switches += 1;
            return;
        }
        // Old-regime in-flight Instructions/Interrupts die on arrival
        // from here on (§S14 staleness guards). A profile set completed
        // analytically never straddles the switch: without a fault plan a
        // profile is in flight only while its episode is open, and a
        // switch needs every episode closed.
        debug_assert!(
            !self
                .events
                .iter()
                .any(|Reverse(ev)| matches!(ev.kind, EvKind::ProfilesIn { .. })),
            "a profile set completes across a strategy switch"
        );
        self.membership_epoch += 1;
        let cfg = self.cfg.as_mut().expect("adaptive runs require DLB");
        cfg.strategy = rec.to;
        let p = self.cluster.processors();

        // Exact membership preservation: whoever is in some group now
        // (including Inactive members who may be woken by reassigned
        // work) lands in its new-regime group; detected-dead processors
        // stay out; parked rejoiners and drained initiators follow their
        // owners. At quiescence `early_work` is empty and no processor
        // waits on an outcome, so re-partitioning moves no work.
        debug_assert!(
            self.early_work.iter().all(Vec::is_empty),
            "early work must be drained at a quiescent boundary"
        );
        debug_assert!(
            self.lost_work
                .iter()
                .all(|&(to_, _, _)| self.membership.is_dead(to_) && !self.detected[to_]),
            "at quiescence lost work may only await an undetected death"
        );
        let mut member = vec![false; p];
        let mut parked_joins: Vec<usize> = Vec::new();
        let mut parked_initiators: Vec<usize> = Vec::new();
        for gc in &self.groups {
            for &m in &gc.members {
                member[m] = true;
            }
            parked_joins.extend(gc.pending_joins.iter().copied());
            parked_initiators.extend(gc.pending_initiators.iter().copied());
        }
        self.build_layout(&member);
        for &q in &parked_joins {
            self.groups[self.proc_group[q]].pending_joins.insert(q);
        }
        for &q in &parked_initiators {
            self.groups[self.proc_group[q]].pending_initiators.insert(q);
        }
        a.report.final_strategy = rec.to;
        a.episodes_since_switch = 0;
        let eff = self.logical_done_all(rec.at);
        a.reset_window(rec.at, &eff);
        a.report.switches.push(rec);
    }
}
