//! The Section-3 protocol: interrupt, profile, calculate, instruct,
//! ship and resume, for the centralized and distributed schemes.

use super::*;

/// A balancer outcome with its transfers indexed by member.
/// `plan_transfers` emits each donor's transfers, and each receiver's,
/// contiguously, so a member's share is one run of `outcome.transfers`:
/// acting members visit only their own transfers, in plan order, instead
/// of scanning the whole plan.
#[derive(Debug)]
pub(super) struct Plan {
    outcome: BalanceOutcome,
    /// `(donor, its run)`, sorted by donor.
    ships: Vec<(usize, Range<usize>)>,
    /// `(receiver, its run)`, sorted by receiver.
    owed: Vec<(usize, Range<usize>)>,
}

impl Plan {
    pub(super) fn new(outcome: BalanceOutcome) -> Self {
        let ships = Self::runs(&outcome.transfers, |t| t.from);
        let owed = Self::runs(&outcome.transfers, |t| t.to);
        Self {
            outcome,
            ships,
            owed,
        }
    }

    /// The runs of `transfers` with one `key` each, sorted by key.
    fn runs(transfers: &[Transfer], key: fn(&Transfer) -> usize) -> Vec<(usize, Range<usize>)> {
        let mut runs = Vec::new();
        let mut start = 0;
        for run in transfers.chunk_by(|a, b| key(a) == key(b)) {
            runs.push((key(&run[0]), start..start + run.len()));
            start += run.len();
        }
        runs.sort_unstable_by_key(|&(k, _)| k);
        assert!(
            runs.windows(2).all(|w| w[0].0 < w[1].0),
            "a member's transfers are contiguous in the plan"
        );
        runs
    }

    fn run<'a>(&'a self, runs: &[(usize, Range<usize>)], m: usize) -> &'a [Transfer] {
        match runs.binary_search_by_key(&m, |&(k, _)| k) {
            Ok(i) => &self.outcome.transfers[runs[i].1.clone()],
            Err(_) => &[],
        }
    }

    /// What `m` ships, in plan order.
    fn ships(&self, m: usize) -> &[Transfer] {
        self.run(&self.ships, m)
    }

    /// What `m` is owed, in plan order.
    pub(super) fn owed(&self, m: usize) -> &[Transfer] {
        self.run(&self.owed, m)
    }
}

#[derive(Debug, Clone)]
pub(super) enum Payload {
    Interrupt {
        group: usize,
        /// Membership epoch at send time. Only consulted under adaptive
        /// re-customization (§S17): after a strategy switch the group
        /// structure itself changed, so an old-regime interrupt's group
        /// index is meaningless and the interrupt is dropped. Static
        /// runs ignore the field entirely (and an interrupt's
        /// [`Payload::wire_bytes`] is a constant, so carrying it never
        /// changes timing).
        epoch: u64,
    },
    /// `sender`'s profile. The profile itself is the sender's copy in
    /// [`Episode::profiles`]; the message makes it count at its receiver.
    Profile {
        group: usize,
        sender: usize,
        /// Id of the episode the profile was measured for. A watchdog
        /// retransmission duplicate that outlives its episode must not be
        /// recorded into the next one: the snapshot is stale (the sender
        /// has computed or shipped since), and a balancer planning from
        /// it can schedule transfers the donor no longer covers.
        episode: u64,
    },
    Instruction {
        group: usize,
        /// Shared, not cloned: the same computed outcome is broadcast to
        /// every participant, so the payload carries a cheap `Arc` handle
        /// instead of a deep copy of the transfer plan.
        outcome: Arc<Plan>,
        /// Membership epoch at send time. A receiver discards any
        /// instruction stamped with an older epoch than its own view —
        /// the split-brain guard of DESIGN.md §S14: after a membership
        /// change (death or rejoin) every in-flight instruction from the
        /// stale view is dead on arrival, and the watchdog re-sends from
        /// the current view.
        epoch: u64,
        /// Id of the episode the outcome was computed for. A watchdog
        /// retransmission can race its original: the first copy acts and
        /// the episode closes, a *new* episode opens under the same
        /// membership view, and the duplicate then lands with an episode
        /// running and a current epoch — but its transfer plan belongs to
        /// the closed episode, so acting on it would ship work the donor
        /// queues no longer cover. The id mismatch drops it.
        episode: u64,
    },
    Work {
        group: usize,
        ranges: Vec<Range<u64>>,
    },
    /// §S14 rejoin handshake: a recovered processor announces itself to
    /// the current master. Control-plane: exempt from loss and link
    /// cuts (like the heartbeat oracle), but still costed and contended
    /// on the medium.
    JoinRequest { proc: usize },
    /// §S14 rejoin handshake: the master's admission, carrying the
    /// epoch-stamped membership view the newcomer joins under.
    JoinGrant { epoch: u64 },
}

impl Payload {
    /// The message's size on the wire in bytes: a fixed size for each
    /// control message, and for a work shipment a header (range
    /// descriptors etc.) plus `bytes_per_iter` of array data per
    /// iteration. The sizes the analytic model also prices come from
    /// `dlb_core::profile`.
    pub(super) fn wire_bytes(&self, bytes_per_iter: u64) -> usize {
        match self {
            Payload::Interrupt { .. } => 8,
            Payload::Profile { .. } => PerfProfile::WIRE_BYTES,
            Payload::Instruction { .. } => INSTRUCTION_WIRE_BYTES,
            Payload::Work { ranges, .. } => {
                WORK_HEADER_WIRE_BYTES + (ranges_len(ranges) * bytes_per_iter) as usize
            }
            Payload::JoinRequest { .. } | Payload::JoinGrant { .. } => 16,
        }
    }
}

#[derive(Debug)]
pub(super) struct Episode {
    /// Identity for watchdog staleness checks (monotonic per engine).
    pub(super) id: u64,
    /// Member that started the episode (re-sends interrupts on retry).
    pub(super) initiator: usize,
    /// Shared participant list: cloned once per protocol step in the old
    /// code, now a cheap `Arc` handle (`Arc::make_mut` on the rare
    /// membership-shrink path).
    pub(super) participants: Arc<Vec<usize>>,
    /// Each participant's profile, stored once when it is sent: the
    /// sender's copy. Every balancer's set reads it, and the watchdog
    /// re-sends it to a balancer whose copy was lost. With analytic
    /// profile completion ([`Engine::analytic`]) every profile reaches
    /// every balancer, so this is also each balancer's set.
    pub(super) profiles: BTreeMap<usize, PerfProfile>,
    /// Profiles delivered per message: each balancer's set, keyed by the
    /// processor that received it — a replica, or the central
    /// balancer's host — as the senders whose profile it holds.
    pub(super) received: BTreeMap<usize, BTreeSet<usize>>,
    /// Analytic profile completion: the key of the latest profile
    /// delivery to the balancer that is still to complete its set — the
    /// central balancer's, or, distributed, the delivery to the member
    /// that profiles last. The protocol's own-profile case reads it.
    last_profile: Option<Key>,
    /// How many members have acted on the outcome (see
    /// [`Engine::acted_in`]).
    pub(super) acted: usize,
    /// How many members are still owed work shipments (see
    /// [`Engine::awaiting_in`]).
    pub(super) awaiting: usize,
    /// Whether stats/sync-time were recorded for this episode.
    recorded: bool,
    /// The computed outcome (identical at every replicated balancer),
    /// kept for instruction retransmission and donor-death accounting.
    pub(super) outcome: Option<Arc<Plan>>,
    /// The balancers whose calculation is scheduled: a retransmitted
    /// profile that duplicates one that did arrive cannot schedule it
    /// twice.
    pub(super) calc_scheduled: BTreeSet<usize>,
    /// Watchdog retransmission rounds consumed.
    pub(super) attempts: u32,
}

impl Episode {
    fn new(id: u64, initiator: usize, participants: Vec<usize>) -> Self {
        Self {
            id,
            initiator,
            participants: Arc::new(participants),
            profiles: BTreeMap::new(),
            received: BTreeMap::new(),
            last_profile: None,
            acted: 0,
            awaiting: 0,
            recorded: false,
            outcome: None,
            calc_scheduled: BTreeSet::new(),
            attempts: 0,
        }
    }
}

#[derive(Debug)]
pub(super) struct GroupCtl {
    pub(super) members: Vec<usize>,
    pub(super) episode: Option<Episode>,
    pub(super) pending_initiators: BTreeSet<usize>,
    /// Recovered members whose `JoinRequest` arrived while an episode
    /// was open; admitted when it closes ("the next episode boundary",
    /// §S14).
    pub(super) pending_joins: BTreeSet<usize>,
}

impl Engine<'_> {
    /// Group `g`'s open episode. The one guard for a group index that an
    /// event or a message carries: a §S17 switch while it was on the
    /// heap or the wire may have renumbered the groups, so `g` can be
    /// out of range (no episode) or name another group, whose episode a
    /// holder of an episode id tells apart by comparing ids.
    pub(super) fn episode(&self, g: usize) -> Option<&Episode> {
        self.groups.get(g)?.episode.as_ref()
    }

    /// [`Engine::episode`], mutably.
    pub(super) fn episode_mut(&mut self, g: usize) -> Option<&mut Episode> {
        self.groups.get_mut(g)?.episode.as_mut()
    }

    /// The processor hosting group `g`'s central balancer: its role's
    /// host — the master in the paper's flat layout, the group's level-1
    /// domain master under a §S16 hierarchy.
    pub(super) fn balancer_host(&self, g: usize) -> usize {
        self.role_host[self.role_of_group[g]]
    }

    /// The processor that admits `proc`'s rejoin. Admission is a
    /// membership decision, so it routes to the same role that balances
    /// the rejoiner's group — the global master when flat, `proc`'s
    /// domain master under a hierarchy.
    pub(super) fn admission_host(&self, proc: usize) -> usize {
        self.balancer_host(self.proc_group[proc])
    }

    /// The balancing control mode. Only meaningful under DLB.
    pub(super) fn control(&self) -> Control {
        self.cfg
            .as_ref()
            .expect("protocol steps only exist under DLB")
            .strategy
            .control()
    }

    /// Ablation A1.3: on each tick, any group without an episode in flight
    /// synchronizes as if its lowest active member had been the first
    /// finisher (everyone profiles at its next iteration boundary).
    pub(super) fn on_periodic_tick(&mut self, now: f64) {
        for g in 0..self.groups.len() {
            if self.groups[g].episode.is_some() {
                continue;
            }
            let actives: Vec<usize> = self.groups[g]
                .members
                .iter()
                .copied()
                .filter(|&m| self.active[m] && self.state[m] == ProcState::Computing)
                .collect();
            if actives.len() < 2 {
                continue;
            }
            let initiator = actives[0];
            self.open_episode(g, initiator, &actives[1..]);
            self.arm_watchdog(g, now);
            let interrupt = Payload::Interrupt {
                group: g,
                epoch: self.membership_epoch,
            };
            self.fanout(initiator, &actives[1..], now, &interrupt);
            // The initiator itself reacts at its next iteration boundary.
            self.flag_interrupt(initiator, now);
        }
        // Re-arm while at least two processors are still active.
        if self.active.iter().filter(|&&a| a).nth(1).is_some() {
            let dt = self
                .periodic_interval
                .expect("tick only fires when configured");
            self.push_event(now + dt, EvKind::PeriodicTick);
        }
    }

    /// The initiator's opening move: open the episode, interrupt the
    /// other active members, then contribute its own profile.
    pub(super) fn start_episode(&mut self, g: usize, initiator: usize, peers: &[usize], now: f64) {
        self.open_episode(g, initiator, peers);
        self.arm_watchdog(g, now);
        let interrupt = Payload::Interrupt {
            group: g,
            epoch: self.membership_epoch,
        };
        self.fanout(initiator, peers, now, &interrupt);
        self.send_profile(initiator, now);
    }

    /// Open a fresh episode for group `g` over `initiator` and `peers`.
    fn open_episode(&mut self, g: usize, initiator: usize, peers: &[usize]) {
        let mut participants = peers.to_vec();
        participants.push(initiator);
        participants.sort_unstable();
        self.episode_seq += 1;
        self.groups[g].episode = Some(Episode::new(self.episode_seq, initiator, participants));
        self.stats.syncs += 1;
    }

    /// Schedule the episode watchdog (failure handling only — a run
    /// without faults schedules no watchdog events).
    pub(super) fn arm_watchdog(&mut self, g: usize, now: f64) {
        if !self.fault_active {
            return;
        }
        let id = self.episode(g).expect("watchdog needs an episode").id;
        self.push_event(
            now + self.policy.sync_timeout,
            EvKind::Watchdog { group: g, id },
        );
    }

    fn make_profile(&self, proc: usize, now: f64) -> PerfProfile {
        PerfProfile {
            proc,
            iters_done: self.window_iters[proc],
            elapsed: now - self.window_start[proc],
            remaining: self.queues[proc].remaining(),
        }
    }

    pub(super) fn send_profile(&mut self, proc: usize, now: f64) {
        let g = self.proc_group[proc];
        let profile = self.make_profile(proc, now);
        self.set_state(proc, ProcState::WaitOutcome);
        let control = self.control();
        let episode = self.groups[g]
            .episode
            .as_mut()
            .expect("profile outside an episode");
        self.profiled_in[proc] = episode.id;
        episode.profiles.insert(proc, profile);
        let payload = Payload::Profile {
            group: g,
            sender: proc,
            episode: episode.id,
        };
        match control {
            Control::Centralized => {
                let master = self.balancer_host(g);
                if proc == master {
                    self.record_profile(g, master, proc, now);
                } else {
                    self.send(proc, master, payload, now);
                }
            }
            Control::Distributed => {
                let participants = Arc::clone(&episode.participants);
                // Record locally first…
                self.record_profile(g, proc, proc, now);
                // …then broadcast to the other participants.
                self.fanout(proc, &participants, now, &payload);
            }
        }
    }

    /// `sender`'s profile lands at balancer `at` of group `g`: delivered
    /// per message, or the balancer's own. On the analytic path only a
    /// balancer's own profile comes here.
    pub(super) fn record_profile(&mut self, g: usize, at: usize, sender: usize, now: f64) {
        if self.analytic {
            return self.count_profile(g, at, None);
        }
        self.episode_mut(g)
            .expect("no episode for profile")
            .received
            .entry(at)
            .or_default()
            .insert(sender);
        self.try_calc(g, at, now);
    }

    /// The balancers of group `g`'s episode over `participants`, in
    /// order: the central balancer's host, or every replica.
    pub(super) fn balancers(&self, g: usize, participants: &[usize]) -> Vec<usize> {
        match self.control() {
            Control::Centralized => vec![self.balancer_host(g)],
            Control::Distributed => participants.to_vec(),
        }
    }

    /// Schedule balancer `at`'s calculation for group `g` once its set
    /// holds every participant's profile. Idempotent: duplicates
    /// (retransmissions) and membership-shrink re-checks cannot
    /// double-schedule.
    pub(super) fn try_calc(&mut self, g: usize, at: usize, now: f64) {
        let Some(episode) = self.episode_mut(g) else {
            return;
        };
        let have = episode.received.get(&at).map_or(0, BTreeSet::len);
        if episode.participants.is_empty()
            || have < episode.participants.len()
            || !episode.calc_scheduled.insert(at)
        {
            return;
        }
        self.schedule_calc(g, at, now);
    }

    /// Analytic path: the key the `Deliver` event of a profile message
    /// sent now and due at `at` would have had. It draws that event's
    /// sequence number, so every later push keeps its place.
    pub(super) fn profile_key(&mut self, at: f64) -> Key {
        self.seq += 1;
        Key {
            time: at,
            tie: self.cur.time,
            pkey: u32::MAX,
            seq: self.seq,
        }
    }

    /// Analytic path: count a stored profile at balancer `at` of group
    /// `g` — carried by a message to the central balancer whose delivery
    /// is keyed `delivery`, or the balancer's own (`None`). A receiver's
    /// CPU serves its messages first come, first served, so deliveries to
    /// one processor land in send order, and the latest profile delivery
    /// is the last one sent. When the set is complete, the per-message
    /// engine schedules the calculation when that delivery is dispatched,
    /// or now if it already was: if its key sorts before the current
    /// event's (always so for a message sent now).
    pub(super) fn count_profile(&mut self, g: usize, at: usize, delivery: Option<Key>) {
        let ep = self.groups[g]
            .episode
            .as_mut()
            .expect("no episode for profile");
        if delivery.is_some() {
            ep.last_profile = delivery;
        }
        if ep.profiles.len() < ep.participants.len() {
            return;
        }
        match ep.last_profile.filter(|&key| key > self.cur) {
            Some(key) => self.push_keyed(key, EvKind::ProfilesIn { group: g, at }),
            None => self.schedule_calc(g, at, self.cur.time),
        }
    }

    /// Analytic path, distributed: `from`'s profile broadcast to the
    /// other participants `to` of group `g`'s episode, its own profile
    /// already stored. Without a fault plan every broadcast reaches every
    /// other participant, so a member's set completes only by the
    /// episode's last broadcast, or at the last member's own record. So
    /// only two broadcasts read their messages back after the sweep: in
    /// the last one each message completes its receiver's set, and the
    /// one before it holds the latest delivery to the member still to
    /// profile ([`Engine::count_profile`]). Deliveries to one processor
    /// land in send order, so no earlier message is later.
    pub(super) fn broadcast_profile(
        &mut self,
        g: usize,
        from: usize,
        to: &[usize],
        bytes: usize,
        now: f64,
    ) {
        let ep = self.episode(g).expect("no episode for profile");
        let (id, missing) = (ep.id, ep.participants.len() - ep.profiles.len());
        // The messages draw `base + 1..` in send order, as their `Deliver`
        // events would.
        let (base, tie) = (self.seq, self.cur.time);
        let key = |n: u64, time: f64| Key {
            time,
            tie,
            pkey: u32::MAX,
            seq: base + n,
        };
        let fan = self.sweep_fanout(from, to, bytes, now);
        self.seq += fan.len() as u64;
        match missing {
            0 => {
                for (i, &(at, time)) in (1..).zip(&fan) {
                    self.push_keyed(key(i, time), EvKind::ProfilesIn { group: g, at });
                }
            }
            1 => {
                let profiled_in = &self.profiled_in;
                let last = (1..)
                    .zip(&fan)
                    .filter(|&(_, &(m, _))| profiled_in[m] != id)
                    .last();
                if let Some((i, &(_, time))) = last {
                    self.episode_mut(g)
                        .expect("episode checked above")
                        .last_profile = Some(key(i, time));
                }
            }
            _ => {}
        }
        self.fan = fan;
    }

    /// Schedule balancer `at`'s calculation for group `g`, its profile
    /// set complete at `now`, on `at`'s own (possibly loaded, possibly
    /// still computing) CPU. A replica starts at once. The central
    /// balancer (`at` is its host) serves its role's groups FIFO: the
    /// wait in this queue is the paper's LCDLB delay factor — global with
    /// one flat role, per-domain under a §S16 hierarchy.
    pub(super) fn schedule_calc(&mut self, g: usize, at: usize, now: f64) {
        let calc_cost = self.cfg.as_ref().expect("calculation under DLB").calc_cost;
        let id = self.episode(g).expect("calculation for an open episode").id;
        let done = match self.control() {
            Control::Centralized => {
                debug_assert_eq!(at, self.balancer_host(g), "a central set is its host's");
                let role = self.role_of_group[g];
                let done = now.max(self.role_busy[role]) + calc_cost * self.cpus.factor(at, now);
                self.role_busy[role] = done;
                done
            }
            Control::Distributed => now + calc_cost * self.cpus.factor(at, now),
        };
        self.push_event(done, EvKind::Calc { group: g, at, id });
    }

    fn decide(&mut self, profiles: &[PerfProfile]) -> BalanceOutcome {
        let cfg = self.cfg.as_ref().expect("decision under DLB");
        let net = self.cluster.net;
        let bpi = self.bytes_per_iter;
        balance_group(profiles, cfg, |moved| {
            net.latency() + moved as f64 * bpi as f64 / net.bandwidth
        })
    }

    /// Compute `g`'s outcome from balancer `at`'s profile set, account it
    /// once per episode, and keep it for retransmission and for the other
    /// replicated balancers. Per message, the set is exactly what `at`
    /// received.
    fn decide_episode(&mut self, g: usize, at: usize, now: f64) -> Arc<Plan> {
        let profiles: Vec<PerfProfile> = {
            let ep = self.episode(g).expect("profiles of an open episode");
            if self.analytic {
                ep.profiles.values().copied().collect()
            } else {
                let set = ep.received.get(&at);
                set.into_iter().flatten().map(|q| ep.profiles[q]).collect()
            }
        };
        let outcome = Arc::new(Plan::new(self.decide(&profiles)));
        let episode = self.groups[g].episode.as_mut().expect("episode must exist");
        episode.outcome = Some(Arc::clone(&outcome));
        if !std::mem::replace(&mut episode.recorded, true) {
            let decided = &outcome.outcome;
            self.stats.record_verdict(decided.verdict);
            if decided.verdict == BalanceVerdict::Move {
                self.stats.iters_moved += decided.moved;
            }
            self.sync_times.push(now);
        }
        outcome
    }

    /// Balancer `at` finished its calculation for episode `id` of group
    /// `g`. A replica acts on the outcome. Every replica computes the
    /// same deterministic outcome: `decide` is a pure function of the
    /// complete, proc-ordered profile set, identical across members, so
    /// the cost is modelled on every member (this event) but the
    /// arithmetic runs once. The central balancer broadcasts the outcome
    /// ("the load balancer broadcasts the new distribution information
    /// to the processors", Section 3.3) and, if a participant, acts
    /// locally; the instruction payload shares the outcome allocation
    /// across all receivers.
    pub(super) fn on_calc(&mut self, g: usize, at: usize, id: u64, now: f64) {
        // Nothing to do if, since scheduling, the episode closed or was
        // aborted (and maybe another opened), or the balancer died (and
        // its set with it).
        let Some(episode) = self.episode(g).filter(|e| e.id == id) else {
            return;
        };
        let holds_set = self.analytic || episode.received.contains_key(&at);
        if self.membership.is_dead(at) || !holds_set {
            return;
        }
        let central = self.control() == Control::Centralized;
        let outcome = match episode.outcome.as_ref() {
            // Another host's calculation decided the episode already.
            Some(_) if central => return,
            Some(out) => Arc::clone(out),
            None => self.decide_episode(g, at, now),
        };
        if !central {
            return self.act_on_outcome(at, g, &outcome, now);
        }
        let participants =
            Arc::clone(&self.episode(g).expect("episode checked above").participants);
        let instruction = Payload::Instruction {
            group: g,
            outcome: Arc::clone(&outcome),
            epoch: self.membership_epoch,
            episode: id,
        };
        self.fanout(at, &participants, now, &instruction);
        if participants.binary_search(&at).is_ok() {
            self.act_on_outcome(at, g, &outcome, now);
        }
    }

    pub(super) fn act_on_outcome(&mut self, m: usize, g: usize, outcome: &Plan, now: f64) {
        {
            let episode = self.groups[g]
                .episode
                .as_mut()
                .expect("act without episode");
            debug_assert!(
                episode.participants.binary_search(&m).is_ok(),
                "actor must participate"
            );
            if self.acted_in[m] == episode.id {
                // A retransmitted instruction raced its original: acting
                // twice would ship the same transfers twice.
                return;
            }
            self.acted_in[m] = episode.id;
            episode.acted += 1;
        }

        // Ship what we owe.
        for t in outcome.ships(m) {
            let ranges = self.queues[m].take_back(t.iters);
            assert_eq!(
                ranges_len(&ranges),
                t.iters,
                "donor {m} cannot cover the planned transfer"
            );
            self.send(m, t.to, Payload::Work { group: g, ranges }, now);
        }

        // Wait for what we are owed, crediting any shipments that raced
        // ahead of our own balancer calculation.
        let mut expect: u64 = outcome.owed(m).iter().map(|t| t.iters).sum();
        let early = std::mem::take(&mut self.early_work[m]);
        for (grp, ranges) in early {
            debug_assert_eq!(grp, g, "early work must belong to the current episode");
            let got = ranges_len(&ranges);
            for r in ranges {
                self.queues[m].push_back(r);
            }
            expect = expect.saturating_sub(got);
        }
        if expect > 0 {
            self.set_state(m, ProcState::WaitWork { expect });
            let episode = self.groups[g]
                .episode
                .as_mut()
                .expect("episode while waiting for work");
            if self.awaiting_in[m] != episode.id {
                self.awaiting_in[m] = episode.id;
                episode.awaiting += 1;
            }
        } else {
            self.resume(m, now);
        }
        self.maybe_close_episode(g, now);
    }

    /// `m` is no longer owed shipments in group `g`'s open episode.
    pub(super) fn stop_awaiting(&mut self, g: usize, m: usize) {
        let id = self.awaiting_in[m];
        if let Some(e) = self.episode_mut(g).filter(|e| e.id == id) {
            e.awaiting -= 1;
            self.awaiting_in[m] = 0;
        }
    }

    pub(super) fn resume(&mut self, m: usize, now: f64) {
        self.window_start[m] = now;
        self.window_iters[m] = 0;
        if self.queues[m].is_empty() {
            // "dlb.more_work" turns false: the processor leaves the
            // computation (Section 5.2).
            self.deactivate(m, now);
        } else {
            self.schedule_compute(m, now);
        }
    }

    pub(super) fn maybe_close_episode(&mut self, g: usize, now: f64) {
        let done = self
            .episode(g)
            .is_some_and(|e| e.acted == e.participants.len() && e.awaiting == 0);
        if done {
            self.groups[g].episode = None;
            self.episode_boundary_tail(g, now);
        }
    }
}
