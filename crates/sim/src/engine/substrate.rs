//! The simulated hardware under the protocol: each processor's CPU
//! factor (`Cpus`), and message sends and fan-outs across the
//! medium, with the fault plan's verdict on each message (`Fate`).

use super::*;

/// What the fault plan does to one costed message (see [`Engine::fate`]).
enum Fate {
    /// Delivered at this (possibly delay-stretched) time.
    Deliver(f64),
    /// Dropped or cut; counted, and its work (if any) logged as lost.
    Lost,
}

/// One processor's cached load span: slowdown `slow` holds over wall
/// times `[from, until)`. `share` is 2 while the processor's compute
/// slave runs (the balancer shares the CPU with it), else 1.
#[derive(Debug, Clone, Copy)]
struct SlowSpan {
    slow: f64,
    share: f64,
    from: f64,
    until: f64,
}

impl SlowSpan {
    /// The CPU-cost multiplier this span gives.
    fn factor(&self) -> f64 {
        (self.slow * self.share).max(1.0)
    }
}

/// Each processor's work clock, its cached external-load span, and its
/// CPU-cost multiplier for protocol processing in a dense array.
///
/// The level is constant within a persistence span, so a query inside
/// the cached `[from, until)` window returns the cached value (the
/// `ClockCursor` reuse argument). A processor's factor changes only when
/// its span is re-read or its [`ProcState`] changes
/// ([`Engine::set_state`]), so `factor` is rewritten at exactly those
/// points and a fan-out reads it as a plain slice.
pub(super) struct Cpus {
    pub(super) clocks: Vec<WorkClock>,
    spans: Vec<SlowSpan>,
    /// `factor[m] == spans[m].factor()`, always.
    factor: Vec<f64>,
    /// A lower bound on every span's `until`: before it, no cached span
    /// has expired ([`Cpus::refresh_expired`]).
    expiry: f64,
    /// Calls to [`Cpus::refresh`] (`EngineCounters::span_refreshes`).
    pub(super) refreshes: u64,
}

impl Cpus {
    /// Every processor starts computing, with no span read yet.
    pub(super) fn new(clocks: Vec<WorkClock>) -> Self {
        let span = SlowSpan {
            slow: 1.0,
            share: 2.0,
            from: 0.0,
            until: f64::NEG_INFINITY,
        };
        let p = clocks.len();
        Self {
            clocks,
            spans: vec![span; p],
            factor: vec![span.factor(); p],
            expiry: f64::NEG_INFINITY,
            refreshes: 0,
        }
    }

    /// CPU-cost multiplier for protocol processing on `node` at `now`:
    /// the external load shares the CPU (`ℓ+1`), and if the node's
    /// compute slave is running concurrently (e.g. the LCDLB master
    /// serving other groups while it still computes) the balancer/PVM
    /// daemon shares with it too — the paper's "context switching
    /// between the load balancer and the computation slave" (Section
    /// 6.2).
    pub(super) fn factor(&mut self, node: usize, now: f64) -> f64 {
        let span = self.spans[node];
        if !(now >= span.from && now < span.until) {
            self.refresh(node, now);
        }
        self.factor[node]
    }

    /// Set whether `node`'s compute slave is running.
    pub(super) fn set_computing(&mut self, node: usize, computing: bool) {
        let span = &mut self.spans[node];
        span.share = if computing { 2.0 } else { 1.0 };
        self.factor[node] = span.factor();
    }

    /// Bring every span, and so every factor, up to `now`. Events
    /// run in time order, so a span that has not expired covers `now`,
    /// and an expired one is re-read at `now`: the same slowdown a lazy
    /// [`Cpus::factor`] would read, since it depends only on the load
    /// interval holding the query time. At most one re-read per
    /// processor per load interval crossed.
    fn refresh_expired(&mut self, now: f64) {
        if now >= self.expiry {
            let mut expiry = f64::INFINITY;
            for node in 0..self.spans.len() {
                if now >= self.spans[node].until {
                    self.refresh(node, now);
                }
                expiry = expiry.min(self.spans[node].until);
            }
            self.expiry = expiry;
        }
    }

    /// Re-read `node`'s load span at `now`, outside its cached one, and
    /// rewrite its factor.
    #[cold]
    #[inline(never)]
    fn refresh(&mut self, node: usize, now: f64) {
        self.refreshes += 1;
        let load = self.clocks[node].load();
        let span = &mut self.spans[node];
        span.slow = load.slowdown_at(now);
        span.from = now;
        span.until = load.next_change_after(now);
        self.factor[node] = span.factor();
    }
}

impl Engine<'_> {
    pub(super) fn send(&mut self, from: usize, to: usize, payload: Payload, now: f64) {
        self.send_opts(from, to, payload, now, false);
    }

    /// `exempt` marks the message as control-plane regardless of its
    /// payload kind: the rejoin re-expansion ships work outside any
    /// episode, so no watchdog covers it — it rides the reliable
    /// handshake channel instead (still costed, contended, delayable).
    pub(super) fn send_opts(
        &mut self,
        from: usize,
        to: usize,
        payload: Payload,
        now: f64,
        exempt: bool,
    ) {
        let bytes = payload.wire_bytes(self.bytes_per_iter);
        let factors = EndpointFactors {
            send: self.cpus.factor(from, now),
            recv: self.cpus.factor(to, now),
        };
        let delivered = self
            .medium
            .send_with_factors(from, to, bytes, now, factors)
            .delivered;
        self.counters.medium_steps += 1;
        match &payload {
            Payload::Work { ranges, .. } => {
                self.stats.transfer_messages += 1;
                self.stats.bytes_moved += ranges_len(ranges) * self.bytes_per_iter;
            }
            _ => self.stats.control_messages += 1,
        }
        self.finished_at[from] = self.finished_at[from].max(now);
        // Rejoin handshake messages are control-plane: exempt from loss
        // and link cuts (like the heartbeat liveness oracle) so a
        // recovering processor cannot be wedged out forever, but still
        // costed, contended and delayable like any other message.
        let control_plane = exempt
            || matches!(
                payload,
                Payload::JoinRequest { .. } | Payload::JoinGrant { .. }
            );
        match self.fate(from, to, now, delivered, !control_plane) {
            Fate::Deliver(at) => self.deliver(at, to, payload),
            // The donor keeps its transfer log until the episode closes:
            // the sender's copy of lost work survives in the lost-work
            // log, so the watchdog/abort machinery recovers a cut link
            // exactly as it does a probabilistic loss.
            Fate::Lost => {
                if let Payload::Work { group, ranges } = payload {
                    self.lost_work.push((to, group, ranges));
                }
            }
        }
    }

    /// Hand a sent message to its receiver at `at`: a `Deliver` event,
    /// except that on the analytic path a profile is counted at its
    /// central balancer now ([`Engine::count_profile`]).
    fn deliver(&mut self, at: f64, to: usize, payload: Payload) {
        match payload {
            Payload::Profile { group, .. } if self.analytic => {
                debug_assert_eq!(self.control(), Control::Centralized);
                let key = self.profile_key(at);
                self.count_profile(group, to, Some(key));
            }
            payload => self.push_event(at, EvKind::Deliver { to, payload }),
        }
    }

    /// Send `p` from `from` to every processor of `to` but `from` itself,
    /// all at `now`: the one-to-many protocol sends — the interrupt
    /// fan-out, the distributed profile broadcast and the central
    /// instruction broadcast. Each message gets the bookkeeping
    /// [`Engine::send_opts`] gives one message — stats, the fault plan's
    /// [`Engine::fate`], and delivery — but the medium costs the whole
    /// fan-out in one sweep ([`Engine::sweep_fanout`]). A lost message has
    /// still occupied the medium. Only control messages fan out, so no
    /// lost work is ever logged here.
    pub(super) fn fanout(&mut self, from: usize, to: &[usize], now: f64, p: &Payload) {
        let bytes = p.wire_bytes(self.bytes_per_iter);
        match *p {
            Payload::Profile { group, .. } if self.analytic => {
                self.broadcast_profile(group, from, to, bytes, now);
            }
            _ => self.fan_each(from, to, bytes, now, p),
        }
    }

    /// The per-message fan-out: one sweep over the receivers, then each
    /// message's fate and delivery, in send order.
    fn fan_each(&mut self, from: usize, to: &[usize], bytes: usize, now: f64, payload: &Payload) {
        debug_assert!(matches!(
            payload,
            Payload::Interrupt { .. } | Payload::Profile { .. } | Payload::Instruction { .. }
        ));
        let fan = self.sweep_fanout(from, to, bytes, now);
        for &(m, at) in &fan {
            let at = if self.fault_active {
                match self.fate(from, m, now, at, true) {
                    Fate::Deliver(at) => at,
                    Fate::Lost => continue,
                }
            } else {
                at
            };
            self.deliver(at, m, payload.clone());
        }
        self.fan = fan;
    }

    /// Cost a fan-out on the medium: bring the CPU factors up to `now`,
    /// then sweep every receiver of `to` but `from` with
    /// [`now_net::MediumSim::fanout`], which reads each receiver's
    /// factor straight from the dense array. Returns the pooled buffer,
    /// each message's receiver and delivery time in send order; the
    /// caller puts it back in `self.fan`.
    pub(super) fn sweep_fanout(
        &mut self,
        from: usize,
        to: &[usize],
        bytes: usize,
        now: f64,
    ) -> Vec<(usize, f64)> {
        let mut fan = std::mem::take(&mut self.fan);
        self.cpus.refresh_expired(now);
        debug_assert!(
            std::iter::once(&from).chain(to).all(|&m| {
                self.cpus.factor[m].to_bits() == self.factor_from_load(m, now).to_bits()
            }),
            "a CPU factor drifted from its load and state at {now}"
        );
        self.medium
            .fanout(from, to, bytes, now, &self.cpus.factor, &mut fan);
        self.fan_sent(from, now, fan.len());
        fan
    }

    /// `m`'s CPU factor at `now` computed afresh from its load function
    /// and [`ProcState`]: what the dense array must hold.
    fn factor_from_load(&self, m: usize, now: f64) -> f64 {
        let share = if self.state[m] == ProcState::Computing {
            2.0
        } else {
            1.0
        };
        (self.cpus.clocks[m].load().slowdown_at(now) * share).max(1.0)
    }

    /// Account `n` fan-out messages sent by `from` at `now`. Without a
    /// fault plan every [`Engine::fate`] is "delivered on time", so their
    /// `msg_seq` draws are one step; under a plan each message draws its
    /// own, because the loss and cut checks are keyed by it.
    fn fan_sent(&mut self, from: usize, now: f64, n: usize) {
        self.counters.medium_steps += n as u64;
        if n > 0 {
            self.stats.control_messages += n as u64;
            self.finished_at[from] = self.finished_at[from].max(now);
        }
        if !self.fault_active {
            self.msg_seq += n as u64;
        }
    }

    /// The fault plan's verdict on one costed message `from → to`, sent
    /// at `now` and due at `delivered`: it draws the next `msg_seq`, then
    /// runs the link-cut and loss checks (unless the message is
    /// control-plane, `exposed == false`) and the delay stretch, each
    /// with its counter. Single sends and fan-outs share this one body.
    fn fate(&mut self, from: usize, to: usize, now: f64, delivered: f64, exposed: bool) -> Fate {
        self.msg_seq += 1;
        if !self.fault_active {
            return Fate::Deliver(delivered);
        }
        if exposed {
            // A partitioned link is a targeted loss.
            let cut = self.plan.link_cut(from, to, now);
            if cut || self.plan.drops_message(self.msg_seq) {
                if cut {
                    self.faults.messages_cut += 1;
                } else {
                    self.faults.messages_dropped += 1;
                }
                return Fate::Lost;
            }
        }
        let f = self.plan.delay_factor_at(now);
        if f > 1.0 {
            self.faults.messages_delayed += 1;
            return Fate::Deliver(now_net::stretch_delivery(now, delivered, f));
        }
        Fate::Deliver(delivered)
    }
}
