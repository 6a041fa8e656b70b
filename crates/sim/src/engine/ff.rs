//! Episode fast-forward: one synchronization episode replayed in a
//! private event loop and committed as a single event.
//!
//! The paper's Section-3 protocol is a *deterministic episode*: once an
//! initiator drains its queue, the interrupt fan-out, profile collection,
//! balance calculation, instruction delivery, and work shipment unfold as
//! a pure function of current state and `now-net` latencies. This module
//! exploits that: instead of pushing every message through the global
//! event heap, it runs the whole episode through the engine's own
//! handlers — [`Engine::dispatch`] over the [`Replay`] side of the
//! [`Seam`] — against a private heap and a [`MediumSim`] copy of the
//! medium, then commits the result in one step, emitting a single
//! `EpisodeDone` marker.
//!
//! # Identity argument
//!
//! The committed run is byte-identical to the per-message path because
//! the replay executes the same handler code on the same state:
//!
//! * **Same handlers, same state.** The replay mutates the engine's real
//!   per-processor state through the real handlers; only event
//!   scheduling, the medium, and profile delivery go through the seam.
//!   Message times come from [`MediumSim::send_with_factors`] and
//!   [`MediumSim::fanout`] on a copy of the live medium: the same type,
//!   so the identical contention step.
//! * **Analytic profile delivery.** A profile arrival only stores the
//!   profile and counts it, so the instant the k-th one lands — when the
//!   live loop schedules the calculation — is the latest delivery time.
//!   The replay schedules the calculation directly off it, with the event
//!   clock set to that instant, and the O(K)..O(K²) profile deliveries
//!   never become events. Without a fault plan a distributed profile
//!   broadcast is counted inside the medium's sweep ([`Seam::fanout`]):
//!   each receiver's count and latest arrival are updated as the medium
//!   costs its message, and the balancers the broadcast completes have
//!   their calculations scheduled after the sweep, in send order, as the
//!   per-message path would. Under a fault plan each profile is recorded
//!   after its own fate.
//! * **Same event order.** The private heap orders by the engine's own
//!   [`Ev`] key. Seed `BlockDone` events reuse the real heap's sequence
//!   numbers ([`BlockRun::seq`]); replay-scheduled events draw from a
//!   counter that starts at the engine's and increments once per push,
//!   in the same program order the event loop would push — so exact-time
//!   ties resolve identically.
//! * **No hidden interference.** Before anything is copied, the real
//!   heap gives the episode's *foreign horizon*: the first pending
//!   event, in event-loop order, that is not provably a no-op
//!   against the committed state (benign: a stale-epoch block event, a
//!   participant's own block event — the seed the replay consumes — a
//!   stale watchdog, an `EpisodeDone` marker). The benign events ahead
//!   of it are popped aside and pushed back, so finding it costs a few
//!   heap operations, not a walk over the heap; only a long benign front
//!   (a global episode's own blocks) is walked past. Under a fault plan the
//!   episode watchdog's deadline caps it. The replay runs only up to the
//!   horizon and commits only if the episode closes strictly before it;
//!   otherwise the episode falls back to the ordinary per-message path —
//!   for that episode only. The replay touches only the participants
//!   and the episode's own group, so no event's benignity changes while
//!   it runs. Sequence numbers of *skipped* events shift later events'
//!   numbers uniformly, which preserves every relative order; only an
//!   exact float time tie between a skipped event and a foreign one
//!   could reorder, and such a tie puts the horizon inside the window.
//!
//! An aborted replay restores the participants' snapshot, so the engine
//! is left exactly as it was before the attempt. A horizon at or before
//! the episode's start falls back before any snapshot or replay.
//!
//! # Fallback (abort) conditions
//!
//! * a participant with a pending interrupt flag, or a Computing
//!   participant without a scheduled block (stale protocol state);
//! * a dead-but-undetected processor anywhere (its `handle_death` may
//!   mutate participant queues at this very instant);
//! * a replayed message that the fault plan drops or that crosses a cut
//!   (partitioned) link — inflated *delay* is fine: the shared send path
//!   stretches it through the same [`now_net::stretch_delivery`];
//! * an episode that does not close before its foreign horizon: a
//!   non-benign real event — a crash, heartbeat tick, periodic tick,
//!   foreign delivery, balancer calculation, or a live block event of a
//!   non-participant — or, under a fault plan, the watchdog deadline
//!   (`t₀ + sync_timeout`).
//!
//! The reason counted is the cause met first in simulated time: a drop
//! the replay reaches before the horizon is a fault; otherwise the
//! horizon's own cause (foreign event, fault machinery, or the watchdog
//! under a delay or fault plan) is blamed. Work arrivals from outside
//! the episode can only be caused by non-benign events, so "no work
//! arrival inside the window" is implied by the horizon.

use super::*;

/// Most benign events [`Engine::foreign_horizon`] pops aside before it
/// walks the heap instead. Local schemes at P=1024 set aside 1.0 to 1.4
/// per attempt on average; a global episode owns nearly every pending
/// event, where each pop costs more than a walk step.
const FRONT_SET_ASIDE: usize = 16;

/// The fast-forward's side of the [`Seam`]: the private heap, the
/// medium copy, and analytic profile accounting in [`FfScratch`].
pub(super) struct Replay;

impl Seam for Replay {
    fn push(e: &mut Engine<'_>, time: f64, tie: f64, kind: EvKind) -> u64 {
        let s = &mut e.ff;
        s.seq += 1;
        s.heap.push(Reverse(Ev {
            time,
            tie,
            pkey: pkey_of(&kind),
            seq: s.seq,
            kind,
        }));
        s.seq
    }

    fn net<'a>(_: &'a mut MediumSim, ff: &'a mut FfScratch) -> &'a mut MediumSim {
        ff.net.as_mut().expect("medium copied at snapshot")
    }

    /// Drops and cuts change the protocol flow (watchdog rounds,
    /// lost-work recovery): the episode falls back to the per-message
    /// path.
    fn abandon_lost(e: &mut Engine<'_>) -> bool {
        e.ff.aborted = true;
        e.ff.reason = FallbackReason::Fault;
        true
    }

    fn deliver(e: &mut Engine<'_>, at: f64, to: usize, payload: Payload) {
        match payload {
            Payload::Profile { group, profile, .. } => {
                Self::record_profile(e, group, to, profile, at);
            }
            payload => {
                let tie = e.ev_now;
                Self::push(e, at, tie, EvKind::Deliver { to, payload });
            }
        }
    }

    /// Without a fault plan a profile broadcast is counted inside the
    /// medium's sweep: per receiver, its count and latest arrival. The
    /// balancers it completes have their calculations scheduled after the
    /// sweep, in send order, as on the per-message path. Under a fault
    /// plan every message takes its own fate first ([`Engine::fan_each`]).
    fn fanout(e: &mut Engine<'_>, from: usize, to: &[usize], bytes: usize, now: f64, p: &Payload) {
        let (&Payload::Profile { group, profile, .. }, false) = (p, e.fault_active) else {
            return e.fan_each::<Self>(from, to, bytes, now, p);
        };
        debug_assert!(
            e.ff.distributed,
            "only distributed control broadcasts profiles"
        );
        let mut net = e.ff.net.take().expect("medium copied at snapshot");
        e.ff.store_profile(profile);
        let mut completed = std::mem::take(&mut e.fan_arrivals);
        completed.clear();
        let mut n = 0;
        net.fanout(
            from,
            bytes,
            now,
            e.cpus.factor(&e.state, from, now),
            e.cpus.receivers(&e.state, from, to, now),
            |to, tx| {
                n += 1;
                if let Some(t) = e.ff.local_arrival(to, tx.delivered) {
                    completed.push((to, t));
                }
            },
        );
        e.ff.net = Some(net);
        e.fan_sent(from, now, n);
        for &(at, t) in &completed {
            Self::schedule_calc(e, group, at, t);
        }
        e.fan_arrivals = completed;
    }

    /// One shared, participant-ordered profile store models every
    /// balancer's (identical) set; `at`'s count and latest arrival decide
    /// when its calculation is scheduled.
    fn record_profile(e: &mut Engine<'_>, g: usize, at: usize, profile: PerfProfile, now: f64) {
        let s = &mut e.ff;
        s.store_profile(profile);
        let complete = if s.distributed {
            s.local_arrival(at, now)
        } else {
            let k = s.parts.len();
            s.central_count += 1;
            s.central_latest = s.central_latest.max(now);
            (s.central_count == k).then_some(s.central_latest)
        };
        if let Some(t) = complete {
            Self::schedule_calc(e, g, at, t);
        }
    }

    fn holds_profiles(_: &Engine<'_>, _: usize, _: usize) -> bool {
        true
    }

    fn profiles(e: &Engine<'_>, _: usize, _: usize) -> Vec<PerfProfile> {
        e.ff.profiles
            .iter()
            .map(|p| p.expect("calculation scheduled only when complete"))
            .collect()
    }

    fn close_episode(e: &mut Engine<'_>, _: usize, now: f64) {
        e.ff.closed = Some(now);
    }

    /// The first block a participant retires is the one it was seeded
    /// with: keep it whole, so an abort can put it back without the
    /// snapshot ever copying boundaries.
    fn retire_block(e: &mut Engine<'_>, proc: usize, block: BlockRun) {
        let sv = &mut e.ff.saved[e.ff.pidx[proc]];
        if sv.seeded && sv.seed.is_none() {
            sv.seed = Some(block);
        } else {
            e.boundary_pool.push(block.boundaries);
        }
    }
}

impl Replay {
    /// Balancer `at`'s profile set completed at `t`: schedule its
    /// calculation. The live loop does so while handling the k-th
    /// arrival, so that is the event clock's reading here.
    fn schedule_calc(e: &mut Engine<'_>, g: usize, at: usize, t: f64) {
        let clock = std::mem::replace(&mut e.ev_now, t);
        if e.ff.distributed {
            e.schedule_local_calc::<Replay>(g, at, t);
        } else {
            e.schedule_central_calc::<Replay>(g, t);
        }
        e.ev_now = clock;
    }
}

/// A participant's pre-episode state, put back if the replay aborts.
/// The buffers survive across episodes.
#[derive(Debug, Default)]
struct Saved {
    state: ProcState,
    window_start: f64,
    window_iters: u64,
    iters_done: u64,
    work_done: f64,
    finished_at: f64,
    block_epoch: u64,
    pending: bool,
    queue: WorkQueue,
    /// Whether the participant entered the episode with a scheduled
    /// block, and how much of it was settled then.
    seeded: bool,
    seed_done: u64,
    /// That block, once the replay retired it (see
    /// [`Seam::retire_block`]).
    seed: Option<BlockRun>,
}

/// Engine-wide values a replay can move, put back if it aborts.
#[derive(Debug, Default, Clone, Copy)]
struct SavedGlobals {
    total_iters_done: u64,
    executed: IndexSums,
    role_busy: f64,
    host_finished_at: f64,
    stats: DlbStats,
    sync_times: usize,
    messages_delayed: u64,
    msg_seq: u64,
    episode_seq: u64,
}

/// Pooled scratch for the fast-forward: every buffer survives across
/// episodes, so a steady-state replay allocates little.
#[derive(Debug, Default)]
pub(super) struct FfScratch {
    heap: BinaryHeap<Reverse<Ev>>,
    /// The replay's copy of the live medium, re-copied at every
    /// snapshot and swapped in on commit.
    net: Option<MediumSim>,
    /// Sequence counter of the private heap.
    seq: u64,
    /// Participant list, sorted ascending (the episode's order).
    parts: Vec<usize>,
    /// The previous episode's participants — the only `pidx` entries
    /// that are not `usize::MAX` between runs, so the next snapshot can
    /// reset them in O(K) instead of re-zeroing all P.
    prev_parts: Vec<usize>,
    /// proc → participant index (`usize::MAX` = not a participant).
    pidx: Vec<usize>,
    /// Balancer host and role of the episode's group.
    host: usize,
    role: usize,

    // --- analytic profile accounting ---
    distributed: bool,
    /// Profile store in participant (= proc) order.
    profiles: Vec<Option<PerfProfile>>,
    central_count: usize,
    central_latest: f64,
    /// Profiles held and latest arrival per replicated balancer.
    local: Vec<(usize, f64)>,

    // --- snapshot ---
    saved: Vec<Saved>,
    globals: SavedGlobals,

    // --- replay control ---
    /// The foreign horizon: the earliest instant at which something
    /// outside the episode may act (see [`Engine::foreign_horizon`]). The
    /// replay stops there; an episode commits only if it closes before.
    horizon: f64,
    /// The fallback reason the horizon's cause would give.
    horizon_reason: FallbackReason,
    /// The benign events set aside while the horizon is read.
    front: Vec<Reverse<Ev>>,
    aborted: bool,
    closed: Option<f64>,
    /// Events the current replay has dispatched.
    dispatched: u64,
    /// Why the replay bailed, for the per-reason fallback counters.
    reason: FallbackReason,
}

impl FfScratch {
    /// Keep the first copy of a participant's profile.
    #[inline]
    fn store_profile(&mut self, profile: PerfProfile) {
        let slot = &mut self.profiles[self.pidx[profile.proc]];
        if slot.is_none() {
            *slot = Some(profile);
        }
    }

    /// A profile reached replicated balancer `at` at `now`. Returns the
    /// instant its set completed if this was the last one it needed.
    #[inline]
    fn local_arrival(&mut self, at: usize, now: f64) -> Option<f64> {
        let k = self.parts.len();
        let (count, latest) = &mut self.local[self.pidx[at]];
        *count += 1;
        *latest = latest.max(now);
        (*count == k).then_some(*latest)
    }
}

impl<'w> Engine<'w> {
    /// Attempt to fast-forward the episode `initiator` is starting for
    /// group `g` at `now`. On success the episode's entire effect —
    /// messages, balancer decision, work shipments, resumes — is
    /// committed and `true` is returned; the caller must not run the
    /// per-message path. On abort the engine is restored to its state
    /// before the attempt (only the pure load-span cache may have warmed)
    /// and `false` falls back to the ordinary `start_episode` body.
    pub(super) fn try_fast_forward(
        &mut self,
        g: usize,
        initiator: usize,
        peers: &[usize],
        now: f64,
    ) -> bool {
        debug_assert!(self.groups[g].episode.is_none(), "episode already open");
        // §S17: the first episode each group runs under a freshly switched
        // strategy replays per-message — the switch re-seeded roles and
        // membership, and the per-message path re-establishes the
        // steady-state invariants the fast-forward assumes.
        if let Some(a) = self.adaptive.as_mut() {
            if a.replay_next.get(g).copied().unwrap_or(false) {
                a.replay_next[g] = false;
                self.counters.episodes_fallback += 1;
                self.counters.ff_fallback_switch += 1;
                return false;
            }
        }
        let ok = self.ff_snapshot(g, initiator, peers, now)
            && match self.ff_run(g, initiator, peers, now) {
                Some(t_close) => {
                    self.ff_commit(g, t_close);
                    true
                }
                None => {
                    self.ff_restore(g);
                    false
                }
            };
        if !ok {
            self.counters.episodes_fallback += 1;
            self.counters.ff_discarded_events += self.ff.dispatched;
            match self.ff.reason {
                FallbackReason::Foreign => self.counters.ff_fallback_foreign += 1,
                FallbackReason::Fault => self.counters.ff_fallback_fault += 1,
                FallbackReason::Delay => self.counters.ff_fallback_delay += 1,
            }
        }
        ok
    }

    /// Check the preconditions and, if they hold, record everything the
    /// replay may change. Returns `false` (with `reason` set) without
    /// touching engine state if the episode cannot fast-forward.
    fn ff_snapshot(&mut self, g: usize, initiator: usize, peers: &[usize], now: f64) -> bool {
        let mut s = std::mem::take(&mut self.ff);
        let ok = self.ff_snapshot_into(&mut s, g, initiator, peers, now);
        self.ff = s;
        ok
    }

    fn ff_snapshot_into(
        &mut self,
        s: &mut FfScratch,
        g: usize,
        initiator: usize,
        peers: &[usize],
        now: f64,
    ) -> bool {
        s.reason = FallbackReason::Foreign;
        s.dispatched = 0;
        if self.fault_active && !self.undetected.is_empty() {
            // A dead-but-undetected processor means a `handle_death` can
            // run at this very instant (we may be *inside* its wake-up
            // cascade) and mutate participant queues after our snapshot.
            s.reason = FallbackReason::Fault;
            return false;
        }
        for &m in peers.iter().chain(std::iter::once(&initiator)) {
            // A stale in-flight interrupt could make this member profile
            // off its old settle event mid-window; a Computing peer
            // without a block is stale state. Let the real path sort
            // either out.
            let stale_block =
                m != initiator && self.state[m] == ProcState::Computing && self.blocks[m].is_none();
            if self.interrupted[m] || stale_block {
                return false;
            }
        }

        s.parts.clear();
        s.parts.extend_from_slice(peers);
        s.parts.push(initiator);
        s.parts.sort_unstable();
        let k = s.parts.len();
        // `pidx` must read `usize::MAX` for every non-participant (the
        // horizon test probes arbitrary procs), but rebuilding all P entries
        // per episode is exactly the O(P) this path avoids: un-mark the
        // *previous* episode's K entries instead.
        let p = self.cluster.processors();
        if s.pidx.len() == p {
            for &m in &s.prev_parts {
                s.pidx[m] = usize::MAX;
            }
            debug_assert!(s.pidx.iter().all(|&i| i == usize::MAX));
        } else {
            s.pidx.clear();
            s.pidx.resize(p, usize::MAX);
        }
        for (i, &m) in s.parts.iter().enumerate() {
            s.pidx[m] = i;
        }
        s.prev_parts.clone_from(&s.parts);

        // Before copying anything: if something outside the episode acts
        // at or before its start, the replay could not commit whatever
        // it did.
        self.foreign_horizon(s, now);
        if s.horizon <= now {
            s.reason = s.horizon_reason;
            return false;
        }

        s.host = self.balancer_host(g);
        s.role = self.role_of_group[g];
        s.distributed = self.control() == Control::Distributed;
        s.profiles.clear();
        s.profiles.resize(k, None);
        s.central_count = 0;
        s.central_latest = f64::NEG_INFINITY;
        s.local.clear();
        s.local.resize(k, (0, f64::NEG_INFINITY));
        s.heap.clear();
        s.seq = self.seq;
        s.aborted = false;
        s.closed = None;
        s.globals = SavedGlobals {
            total_iters_done: self.total_iters_done,
            executed: self.executed,
            role_busy: self.role_busy[s.role],
            host_finished_at: self.finished_at[s.host],
            stats: self.stats,
            sync_times: self.sync_times.len(),
            messages_delayed: self.faults.messages_delayed,
            msg_seq: self.msg_seq,
            episode_seq: self.episode_seq,
        };

        s.saved.resize_with(k.max(s.saved.len()), Saved::default);
        for (i, &m) in s.parts.iter().enumerate() {
            debug_assert!(self.active[m], "participants are active by selection");
            debug_assert!(
                self.early_work[m].is_empty(),
                "no early work outside an episode"
            );
            let sv = &mut s.saved[i];
            sv.state = self.state[m];
            sv.window_start = self.window_start[m];
            sv.window_iters = self.window_iters[m];
            sv.iters_done = self.iters_done[m];
            sv.work_done = self.work_done[m];
            sv.finished_at = self.finished_at[m];
            sv.block_epoch = self.block_epoch[m];
            sv.pending = self.groups[g].pending_initiators.contains(&m);
            sv.queue.copy_from(&self.queues[m]);
            sv.seeded = self.blocks[m].is_some();
            sv.seed_done = self.blocks[m].as_ref().map_or(0, |b| b.done);
            debug_assert!(sv.seed.is_none(), "a previous replay kept its seed");
            // Seed: a Computing peer's pending real BlockDone, with its
            // real heap sequence number so ties order as the event loop
            // would. The initiator has no block (it just retired its
            // own); an IdlePending peer (a leftover pending initiator
            // from the previous episode's close) has none either.
            if let Some(b) = self.blocks[m].as_ref() {
                debug_assert!(m != initiator, "initiator holds a live block");
                let end = *b.boundaries.last().expect("blocks are never empty");
                s.heap.push(Reverse(Ev {
                    time: end,
                    tie: block_done_tie(&b.boundaries, b.started),
                    pkey: m as u32,
                    seq: b.seq,
                    kind: EvKind::BlockDone {
                        proc: m,
                        epoch: self.block_epoch[m],
                    },
                }));
            }
        }

        match &mut s.net {
            Some(net) => net.copy_from(&self.medium),
            None => s.net = Some(self.medium.clone()),
        }
        true
    }

    /// Run the episode through the engine's handlers on the private heap,
    /// up to the foreign horizon. Returns the close time if the replay
    /// closed cleanly before the horizon.
    fn ff_run(&mut self, g: usize, initiator: usize, peers: &[usize], now: f64) -> Option<f64> {
        let clock = std::mem::replace(&mut self.ev_now, now);
        self.open_episode(g, initiator, peers);
        self.interrupt_and_profile::<Replay>(g, initiator, peers, now);
        while !self.ff.aborted && self.ff.closed.is_none() {
            // An empty heap means the episode deadlocked in replay; it
            // would deadlock for real too, but let the real path produce
            // the diagnostics.
            let Some(Reverse(ev)) = self.ff.heap.pop() else {
                break;
            };
            // The episode cannot close before this event, so it cannot
            // close before the horizon either.
            if ev.time >= self.ff.horizon {
                self.ff.aborted = true;
                self.ff.reason = self.ff.horizon_reason;
                break;
            }
            self.ev_now = ev.time;
            self.ff.dispatched += 1;
            self.dispatch::<Replay>(ev);
        }
        self.ev_now = clock;
        if self.ff.aborted {
            return None;
        }
        let t_close = self.ff.closed?;
        if t_close >= self.ff.horizon {
            self.ff.reason = self.ff.horizon_reason;
            return None;
        }
        Some(t_close)
    }

    /// Set `s.horizon`, the foreign horizon of an episode starting at
    /// `now` whose participants `s.pidx` marks, and `s.horizon_reason`,
    /// the fallback reason its cause gives: the first pending real
    /// event, in event-loop order, that is not provably a no-op against
    /// the committed state — or, under a fault plan, the episode
    /// watchdog's deadline if that comes first (a retransmission round
    /// is per-message work); `INFINITY` if nothing qualifies.
    ///
    /// Up to [`FRONT_SET_ASIDE`] benign events ahead of it are popped
    /// aside and pushed back. Event keys are unique (`seq`), so the heap
    /// pops in the same order afterwards, and the cost is O(k log n) for
    /// k benign events at its front rather than a walk over all n. A
    /// longer benign front is walked past.
    fn foreign_horizon(&mut self, s: &mut FfScratch, now: f64) {
        let benign = |ev: &Ev| match ev.kind {
            EvKind::BlockDone { proc, epoch } | EvKind::SettleCheck { proc, epoch } => {
                // Stale-epoch events no-op; a participant's live ones are
                // the seeds the replay consumes (they go stale when the
                // commit bumps the epoch).
                epoch != self.block_epoch[proc] || s.pidx[proc] != usize::MAX
            }
            // `.get`: after a §S17 switch the group count may have
            // shrunk, and a watchdog armed under the old regime can carry
            // an out-of-range index — it is stale by definition.
            EvKind::Watchdog { group, id } => self
                .groups
                .get(group)
                .and_then(|gc| gc.episode.as_ref())
                .is_none_or(|e| e.id != id),
            EvKind::EpisodeDone => true,
            _ => false,
        };
        while s.front.len() < FRONT_SET_ASIDE
            && self.events.peek().is_some_and(|Reverse(ev)| benign(ev))
        {
            s.front.push(self.events.pop().expect("peeked"));
        }
        let mut first = self.events.peek().map(|Reverse(ev)| ev);
        if first.is_some_and(benign) {
            // A long benign front: a global episode's participants own
            // nearly every pending event. Walk the rest instead.
            first = None;
            for Reverse(ev) in self.events.iter() {
                if first.is_none_or(|f| ev < f) && !benign(ev) {
                    first = Some(ev);
                }
            }
        }
        (s.horizon, s.horizon_reason) =
            first.map_or((f64::INFINITY, FallbackReason::Foreign), |ev| {
                match ev.kind {
                    EvKind::Crash { .. }
                    | EvKind::Recover { .. }
                    | EvKind::JoinRetry { .. }
                    | EvKind::Heartbeat
                    | EvKind::Watchdog { .. } => (ev.time, FallbackReason::Fault),
                    _ => (ev.time, FallbackReason::Foreign),
                }
            });
        self.events.extend(s.front.drain(..));
        if self.fault_active && now + self.policy.sync_timeout <= s.horizon {
            // Blame the delay plan when one is actively stretching the
            // window; otherwise it is generic fault machinery.
            s.horizon = now + self.policy.sync_timeout;
            s.horizon_reason = if self.plan.delay_factor_at(now) > 1.0 {
                FallbackReason::Delay
            } else {
                FallbackReason::Fault
            };
        }
    }

    /// Adopt the replayed episode: the handlers already left every
    /// participant in its state at the close, so what remains is the
    /// medium, the leftover replay events, and the episode boundary.
    fn ff_commit(&mut self, g: usize, t_close: f64) {
        self.counters.episodes_fast_forwarded += 1;
        self.groups[g].episode = None;
        // The copy holds the medium's state after every replayed message;
        // the next snapshot overwrites whatever is swapped out.
        let net = self.ff.net.as_mut().expect("medium copied at snapshot");
        std::mem::swap(&mut self.medium, net);
        // Bumping every participant's epoch stamps all its pre-episode
        // heap events stale. Leftover replay events — live blocks running
        // past the close, un-served settle boundaries, and undelivered
        // (stale) interrupts — become real events again under the new
        // epoch; everything else went stale during the replay and its
        // real twin would be a no-op pop, so dropping it only shifts
        // later sequence numbers uniformly.
        for i in 0..self.ff.parts.len() {
            self.block_epoch[self.ff.parts[i]] += 1;
            if let Some(seed) = self.ff.saved[i].seed.take() {
                self.boundary_pool.push(seed.boundaries);
            }
        }
        while let Some(Reverse(ev)) = self.ff.heap.pop() {
            match ev.kind {
                EvKind::BlockDone { proc, epoch } => {
                    if epoch + 1 != self.block_epoch[proc] {
                        continue;
                    }
                    let epoch = self.block_epoch[proc];
                    self.push_event_tied(ev.time, ev.tie, EvKind::BlockDone { proc, epoch });
                    self.blocks[proc]
                        .as_mut()
                        .expect("live epoch implies a block")
                        .seq = self.seq;
                }
                EvKind::SettleCheck { proc, epoch } => {
                    if epoch + 1 != self.block_epoch[proc]
                        || !self.interrupted[proc]
                        || self.state[proc] != ProcState::Computing
                    {
                        continue;
                    }
                    let epoch = self.block_epoch[proc];
                    self.push_event_tied(ev.time, ev.tie, EvKind::SettleCheck { proc, epoch });
                }
                // A stale interrupt still in flight past the close (its
                // target profiled proactively): deliver it for real; the
                // engine's stale-interrupt handling takes over from there.
                kind @ EvKind::Deliver {
                    payload: Payload::Interrupt { .. },
                    ..
                } => self.push_event_tied(ev.time, ev.tie, kind),
                _ => unreachable!("the episode cannot close with protocol messages in flight"),
            }
        }
        // The one event the episode leaves behind.
        self.push_event(t_close, EvKind::EpisodeDone);
        // The close is an episode boundary — rejoin admissions, the next
        // initiator, and (§S17) a possible adaptive re-decision all hang
        // off it.
        self.episode_boundary_tail(g, t_close);
    }

    /// Put back everything an aborted replay may have changed.
    fn ff_restore(&mut self, g: usize) {
        self.groups[g].episode = None;
        let mut s = std::mem::take(&mut self.ff);
        s.heap.clear();
        for (i, &m) in s.parts.iter().enumerate() {
            let sv = &mut s.saved[i];
            match sv.seed.take() {
                Some(mut seed) => {
                    self.invalidate_block::<Live>(m);
                    seed.done = sv.seed_done;
                    self.blocks[m] = Some(seed);
                }
                // Never retired: the seed is still the scheduled block.
                None if sv.seeded => {
                    self.blocks[m].as_mut().expect("unretired seed").done = sv.seed_done;
                }
                None => self.invalidate_block::<Live>(m),
            }
            self.block_epoch[m] = sv.block_epoch;
            self.state[m] = sv.state;
            self.set_active(m, true);
            self.interrupted[m] = false;
            self.window_start[m] = sv.window_start;
            self.window_iters[m] = sv.window_iters;
            self.iters_done[m] = sv.iters_done;
            self.work_done[m] = sv.work_done;
            self.finished_at[m] = sv.finished_at;
            std::mem::swap(&mut self.queues[m], &mut sv.queue);
            self.early_work[m].clear();
            // The live path reopens the episode under the replay's id.
            self.profiled_in[m] = 0;
            self.acted_in[m] = 0;
            self.awaiting_in[m] = 0;
            if sv.pending {
                self.groups[g].pending_initiators.insert(m);
            } else {
                self.groups[g].pending_initiators.remove(&m);
            }
        }
        let v = s.globals;
        self.total_iters_done = v.total_iters_done;
        self.executed = v.executed;
        self.role_busy[s.role] = v.role_busy;
        self.finished_at[s.host] = v.host_finished_at;
        self.stats = v.stats;
        self.sync_times.truncate(v.sync_times);
        self.faults.messages_delayed = v.messages_delayed;
        self.msg_seq = v.msg_seq;
        self.episode_seq = v.episode_seq;
        self.ff = s;
    }
}
