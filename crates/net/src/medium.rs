//! Message-level simulation of the interconnect medium.
//!
//! [`MediumSim`] is a first-come-first-served arbiter over three resource
//! classes:
//!
//! * each sender's CPU — occupied for the send overhead of each of its
//!   messages in turn;
//! * the shared wire (bus media only) — occupied for each frame's
//!   media-access plus payload serialization time;
//! * each receiver's CPU — occupied for the receive overhead of each
//!   message delivered to it in turn.
//!
//! The discrete-event simulator calls [`MediumSim::send`] in chronological
//! order, which makes the FCFS arbitration exact. Per-message CPU-cost
//! *factors* let callers model endpoint slowdown — e.g. the paper's
//! centralized balancer sharing its processor with a compute slave and
//! the external load (the "context switching" overhead of Section 6.2).

use crate::params::{MediumKind, NetworkParams};

/// Outcome of scheduling one message on the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// When the sender's CPU started on the message (≥ request time).
    pub start: f64,
    /// When the message is fully delivered to the receiving process.
    pub delivered: f64,
}

/// Stretch a delivery time away from its send instant by `factor`
/// (≥ 1): the in-flight span `delivered - now` is multiplied, the send
/// instant is unchanged.
///
/// This is the **single** delay-inflation arithmetic of the simulator's
/// send path, which the event loop and the episode fast-forward replay
/// share, mirroring how [`MediumSim`]'s per-message step is the single
/// contention core — both apply the exact same float ops in the
/// same order, so a replayed delayed message cannot drift from the event
/// loop's delivery time.
pub fn stretch_delivery(now: f64, delivered: f64, factor: f64) -> f64 {
    now + (delivered - now) * factor
}

/// Endpoint CPU-cost multipliers for one message (1.0 = unloaded CPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointFactors {
    /// Multiplies the send overhead.
    pub send: f64,
    /// Multiplies the receive overhead.
    pub recv: f64,
}

impl Default for EndpointFactors {
    fn default() -> Self {
        Self {
            send: 1.0,
            recv: 1.0,
        }
    }
}

/// The per-message FCFS step, shared by [`MediumSim::send_with_factors`]
/// and [`MediumSim::fanout`]: the sender's CPU, then the wire (bus
/// media only), then the receiver's CPU, each taken first come, first
/// served. `send_cost`, `frame` and `recv_cost` are the message's
/// already-scaled overheads and frame time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step(
    params: &NetworkParams,
    send_free: &mut f64,
    bus_free: &mut f64,
    recv_free: &mut f64,
    now: f64,
    send_cost: f64,
    frame: f64,
    recv_cost: f64,
) -> Transmission {
    // Sender CPU.
    let start = now.max(*send_free);
    let sent = start + send_cost;
    *send_free = sent;
    // Wire.
    let arrival = match params.medium {
        MediumKind::SharedBus => {
            let bus_start = sent.max(*bus_free);
            *bus_free = bus_start + frame;
            bus_start + frame
        }
        MediumKind::Switched => sent + frame,
    };
    // Receiver CPU.
    let delivered = arrival.max(*recv_free) + recv_cost;
    *recv_free = delivered;
    Transmission { start, delivered }
}

/// Stateful FCFS medium arbiter for `n` nodes.
///
/// Its whole mutable state is when each sender CPU, the shared wire and
/// each receiver CPU next come free. One private per-message FCFS step is
/// the single implementation of the contention arithmetic:
/// [`MediumSim::send_with_factors`] runs it for one message and
/// [`MediumSim::fanout`] for each message of a one-sender broadcast. The
/// simulator's episode fast-forward replays an episode on a copy of the
/// live medium ([`MediumSim::copy_from`]) and adopts the copy only if the
/// episode commits, so a replayed message schedule cannot drift from what
/// the event loop would have computed — same type, same float ops, same
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct MediumSim {
    params: NetworkParams,
    bus_free_at: f64,
    send_port_free: Vec<f64>,
    recv_port_free: Vec<f64>,
}

impl MediumSim {
    /// Create a medium connecting `nodes` workstations, all ports and the
    /// wire free at time 0.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or the parameters are invalid.
    pub fn new(params: NetworkParams, nodes: usize) -> Self {
        params.validate();
        assert!(nodes > 0, "a network needs at least one node");
        Self {
            params,
            bus_free_at: 0.0,
            send_port_free: vec![0.0; nodes],
            recv_port_free: vec![0.0; nodes],
        }
    }

    /// Number of nodes on this medium.
    pub fn nodes(&self) -> usize {
        self.send_port_free.len()
    }

    /// The configured parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Make `self` a copy of `src`, reusing the existing allocations (the
    /// episode fast-forward re-snapshots the live medium once per
    /// episode).
    pub fn copy_from(&mut self, src: &MediumSim) {
        self.params = src.params;
        self.bus_free_at = src.bus_free_at;
        self.send_port_free.clone_from(&src.send_port_free);
        self.recv_port_free.clone_from(&src.recv_port_free);
    }

    /// Schedule a message with unloaded endpoints.
    pub fn send(&mut self, from: usize, to: usize, bytes: usize, now: f64) -> Transmission {
        self.send_with_factors(from, to, bytes, now, EndpointFactors::default())
    }

    /// Schedule a message of `bytes` bytes from `from` to `to`, requested
    /// at time `now`, with the endpoints' CPU costs scaled by `factors`.
    /// Self-sends are local and deliver immediately.
    ///
    /// Calls must be made in non-decreasing `now` order for exact FCFS
    /// semantics (the discrete-event loop guarantees this).
    ///
    /// # Panics
    /// Panics if a node index is out of range or a factor is below 1.
    pub fn send_with_factors(
        &mut self,
        from: usize,
        to: usize,
        bytes: usize,
        now: f64,
        factors: EndpointFactors,
    ) -> Transmission {
        assert!(
            from < self.nodes() && to < self.nodes(),
            "node index out of range"
        );
        assert!(
            factors.send >= 1.0 && factors.recv >= 1.0,
            "endpoint factors must be >= 1 (1 = unloaded)"
        );
        if from == to {
            return Transmission {
                start: now,
                delivered: now,
            };
        }
        let params = &self.params;
        step(
            params,
            &mut self.send_port_free[from],
            &mut self.bus_free_at,
            &mut self.recv_port_free[to],
            now,
            params.send_overhead * factors.send,
            params.frame_time(bytes),
            params.recv_overhead * factors.recv,
        )
    }

    /// A one-sender fan-out: one message of `bytes` bytes from `from` to
    /// each `(to, recv)` receiver in order — `recv` scales that
    /// receiver's CPU cost, `send` the sender's — all requested at `now`.
    /// `sink` sees each receiver's [`Transmission`] in order. Self-sends
    /// are skipped: they touch no port and are not passed to `sink`.
    ///
    /// Bit for bit the same as one [`MediumSim::send_with_factors`] per
    /// receiver: the send cost and frame time are the same products,
    /// hoisted out of the loop, and each message runs the same step.
    ///
    /// # Panics
    /// Panics if a node index is out of range or a factor is below 1.
    pub fn fanout(
        &mut self,
        from: usize,
        bytes: usize,
        now: f64,
        send: f64,
        receivers: impl IntoIterator<Item = (usize, f64)>,
        mut sink: impl FnMut(usize, Transmission),
    ) {
        let n = self.nodes();
        assert!(from < n, "node index out of range");
        assert!(send >= 1.0, "endpoint factors must be >= 1 (1 = unloaded)");
        let params = &self.params;
        let send_cost = params.send_overhead * send;
        let frame = params.frame_time(bytes);
        // The sender's port and the wire are the loop's running state;
        // only the receivers' ports vary.
        let mut send_free = self.send_port_free[from];
        let mut bus_free = self.bus_free_at;
        for (to, recv) in receivers {
            assert!(to < n, "node index out of range");
            assert!(recv >= 1.0, "endpoint factors must be >= 1 (1 = unloaded)");
            if to == from {
                continue;
            }
            let tx = step(
                params,
                &mut send_free,
                &mut bus_free,
                &mut self.recv_port_free[to],
                now,
                send_cost,
                frame,
                params.recv_overhead * recv,
            );
            sink(to, tx);
        }
        self.send_port_free[from] = send_free;
        self.bus_free_at = bus_free;
    }

    /// Forget all queueing state (ports and bus free immediately). Used
    /// between independent pattern measurements.
    pub fn reset(&mut self) {
        self.bus_free_at = 0.0;
        self.send_port_free.fill(0.0);
        self.recv_port_free.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bus(n: usize) -> MediumSim {
        MediumSim::new(NetworkParams::paper_ethernet(), n)
    }

    fn switched(n: usize) -> MediumSim {
        MediumSim::new(NetworkParams::switched_lan(), n)
    }

    #[test]
    fn single_message_costs_wire_time() {
        let mut m = bus(2);
        let p = *m.params();
        let t = m.send(0, 1, 1000, 0.0);
        assert_eq!(t.start, 0.0);
        assert!((t.delivered - p.wire_time(1000)).abs() < 1e-12);
    }

    #[test]
    fn stretch_delivery_anchors_at_send_instant() {
        assert_eq!(stretch_delivery(2.0, 5.0, 1.0), 5.0);
        assert_eq!(stretch_delivery(2.0, 5.0, 3.0), 11.0);
        // The exact expression matters (shared by two call sites): it is
        // now + (delivered - now) * factor, not delivered * factor.
        let (now, delivered, f) = (0.1, 0.30000000000000004, 2.5);
        assert_eq!(
            stretch_delivery(now, delivered, f).to_bits(),
            (now + (delivered - now) * f).to_bits()
        );
    }

    #[test]
    fn self_send_is_free() {
        let mut m = bus(4);
        let t = m.send(2, 2, 1 << 20, 5.0);
        assert_eq!(t.start, 5.0);
        assert_eq!(t.delivered, 5.0);
    }

    #[test]
    fn send_overhead_parallel_across_senders() {
        // Two different senders start their CPU work simultaneously; only
        // the wire serializes.
        let mut m = bus(4);
        let a = m.send(0, 1, 100, 0.0);
        let b = m.send(2, 3, 100, 0.0);
        assert_eq!(a.start, 0.0);
        assert_eq!(b.start, 0.0, "different senders' CPUs must not serialize");
        let frame = m.params().frame_time(100);
        assert!(
            (b.delivered - a.delivered - frame).abs() < 1e-12,
            "frames must serialize on the bus"
        );
    }

    #[test]
    fn same_sender_serializes_on_its_cpu() {
        let mut m = bus(3);
        let so = m.params().send_overhead;
        let a = m.send(0, 1, 100, 0.0);
        let b = m.send(0, 2, 100, 0.0);
        assert_eq!(a.start, 0.0);
        assert!((b.start - so).abs() < 1e-12);
    }

    #[test]
    fn switch_has_no_shared_wire() {
        let mut m = switched(4);
        let a = m.send(0, 1, 100, 0.0);
        let b = m.send(2, 3, 100, 0.0);
        assert_eq!(
            a.delivered, b.delivered,
            "disjoint pairs are fully parallel on a switch"
        );
    }

    #[test]
    fn receiver_overhead_serializes_at_destination() {
        let mut m = switched(3);
        let p = *m.params();
        let a = m.send(0, 2, 100, 0.0);
        let b = m.send(1, 2, 100, 0.0);
        assert!((b.delivered - (a.delivered + p.recv_overhead)).abs() < 1e-12);
    }

    #[test]
    fn endpoint_factors_inflate_cpu_costs() {
        let mut m = bus(2);
        let p = *m.params();
        let plain = m.send(0, 1, 0, 0.0);
        m.reset();
        let loaded = m.send_with_factors(
            0,
            1,
            0,
            0.0,
            EndpointFactors {
                send: 3.0,
                recv: 2.0,
            },
        );
        let extra = 2.0 * p.send_overhead + 1.0 * p.recv_overhead;
        assert!((loaded.delivered - plain.delivered - extra).abs() < 1e-12);
    }

    #[test]
    fn later_request_time_is_respected() {
        let mut m = bus(2);
        let t = m.send(0, 1, 0, 10.0);
        assert_eq!(t.start, 10.0);
    }

    #[test]
    fn reset_clears_queueing() {
        let mut m = bus(2);
        let _ = m.send(0, 1, 1 << 20, 0.0);
        m.reset();
        let t = m.send(0, 1, 100, 0.0);
        assert_eq!(t.start, 0.0);
    }

    #[test]
    fn deliveries_never_precede_request() {
        let mut m = bus(4);
        for i in 0..20 {
            let now = i as f64 * 1e-4;
            let t = m.send(i % 4, (i + 1) % 4, 64, now);
            assert!(t.start >= now);
            assert!(t.delivered > t.start);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_rejected() {
        let mut m = bus(2);
        let _ = m.send(0, 5, 10, 0.0);
    }

    #[test]
    #[should_panic(expected = "factors")]
    fn sub_unit_factor_rejected() {
        let mut m = bus(2);
        let _ = m.send_with_factors(
            0,
            1,
            0,
            0.0,
            EndpointFactors {
                send: 0.5,
                recv: 1.0,
            },
        );
    }

    /// A deterministic pseudo-random message trace (no external RNG).
    fn trace(n: usize, len: usize) -> Vec<(usize, usize, usize, f64, EndpointFactors)> {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut now = 0.0;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let from = (x % n as u64) as usize;
                let to = ((x >> 8) % n as u64) as usize;
                let bytes = ((x >> 16) % 4096) as usize;
                now += ((x >> 32) % 1000) as f64 * 1e-6;
                let f = EndpointFactors {
                    send: 1.0 + ((x >> 42) % 3) as f64,
                    recv: 1.0 + ((x >> 44) % 3) as f64,
                };
                (from, to, bytes, now, f)
            })
            .collect()
    }

    /// A replay on a copy of the medium must produce bit-identical
    /// transmissions and leave the medium (after commit) in a
    /// bit-identical state to the event-loop path, on both medium kinds.
    #[test]
    fn replay_on_a_copy_cannot_drift() {
        for mk in [bus(5), switched(5)] {
            let mut live = mk.clone();
            let mut ff_base = mk.clone();
            let msgs = trace(5, 200);
            // Warm both media with a shared prefix so the snapshot is
            // taken mid-stream, not at the zero state.
            for &(f, t, b, now, fac) in &msgs[..50] {
                let a = live.send_with_factors(f, t, b, now, fac);
                let b2 = ff_base.send_with_factors(f, t, b, now, fac);
                assert_eq!(a, b2);
            }
            let mut ep = MediumSim::new(*ff_base.params(), ff_base.nodes());
            ep.copy_from(&ff_base);
            for &(f, t, b, now, fac) in &msgs[50..] {
                let a = live.send_with_factors(f, t, b, now, fac);
                let r = ep.send_with_factors(f, t, b, now, fac);
                assert_eq!(a.start.to_bits(), r.start.to_bits());
                assert_eq!(a.delivered.to_bits(), r.delivered.to_bits());
            }
            ff_base.copy_from(&ep);
            assert_eq!(live, ff_base);
        }
    }

    /// A fan-out's messages sent one [`MediumSim::send_with_factors`] at
    /// a time, as `(receiver, start bits, delivered bits)`.
    fn one_at_a_time(
        m: &mut MediumSim,
        from: usize,
        bytes: usize,
        now: f64,
        send: f64,
        receivers: &[(usize, f64)],
    ) -> Vec<(usize, u64, u64)> {
        receivers
            .iter()
            .filter(|&&(to, _)| to != from)
            .map(|&(to, recv)| {
                let t = m.send_with_factors(from, to, bytes, now, EndpointFactors { send, recv });
                (to, t.start.to_bits(), t.delivered.to_bits())
            })
            .collect()
    }

    /// The same messages through one [`MediumSim::fanout`].
    fn fanned(
        m: &mut MediumSim,
        from: usize,
        bytes: usize,
        now: f64,
        send: f64,
        receivers: &[(usize, f64)],
    ) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        m.fanout(
            from,
            bytes,
            now,
            send,
            receivers.iter().copied(),
            |to, t| {
                out.push((to, t.start.to_bits(), t.delivered.to_bits()));
            },
        );
        out
    }

    /// A fan-out is bit for bit the same messages scheduled one at a
    /// time, on both media, from a mid-stream state, with the sender in
    /// its own receiver list and loaded endpoints — and so is its replay
    /// on a copy of the medium, committed back to the medium.
    #[test]
    fn fanout_equals_one_schedule_per_receiver() {
        let receivers = [(0, 1.0), (2, 3.0), (5, 2.5), (1, 1.0), (3, 1.7), (4, 1.0)];
        for mk in [bus(6), switched(6)] {
            let mut live = mk.clone();
            let mut fan = mk.clone();
            for &(f, t, b, now, fac) in &trace(6, 40) {
                live.send_with_factors(f, t, b, now, fac);
                fan.send_with_factors(f, t, b, now, fac);
            }
            let now = 0.05;
            let snapshot = fan.clone();
            let expected = one_at_a_time(&mut live, 2, 64, now, 2.0, &receivers);
            assert_eq!(expected.len(), 5, "the self-send is skipped");
            assert_eq!(fanned(&mut fan, 2, 64, now, 2.0, &receivers), expected);
            assert_eq!(live, fan);

            let mut ep = MediumSim::new(*snapshot.params(), snapshot.nodes());
            ep.copy_from(&snapshot);
            assert_eq!(fanned(&mut ep, 2, 64, now, 2.0, &receivers), expected);
            let mut committed = snapshot;
            committed.copy_from(&ep);
            assert_eq!(committed, live);
        }
    }

    proptest! {
        #[test]
        fn prop_fanout_equals_one_schedule_per_receiver(
            n in 2usize..9,
            switch in 0u32..2,
            prefix in 0usize..30,
            from in 0usize..9,
            receivers in prop::collection::vec((0usize..9, 1.0f64..4.0), 0..12),
            send in 1.0f64..4.0,
            bytes in 0usize..5000,
            lead in 0.0f64..0.02,
        ) {
            let base = if switch == 1 { switched(n) } else { bus(n) };
            let from = from % n;
            let receivers: Vec<(usize, f64)> =
                receivers.into_iter().map(|(to, f)| (to % n, f)).collect();
            let mut live = base.clone();
            let mut fan = base.clone();
            let warm = trace(n, prefix);
            for &(f, t, b, now, fac) in &warm {
                live.send_with_factors(f, t, b, now, fac);
                fan.send_with_factors(f, t, b, now, fac);
            }
            let now = warm.last().map_or(0.0, |w| w.3) + lead;
            let snapshot = fan.clone();
            let expected = one_at_a_time(&mut live, from, bytes, now, send, &receivers);
            prop_assert_eq!(fanned(&mut fan, from, bytes, now, send, &receivers), expected.clone());
            prop_assert_eq!(&live, &fan);

            let mut ep = MediumSim::new(*snapshot.params(), snapshot.nodes());
            ep.copy_from(&snapshot);
            prop_assert_eq!(fanned(&mut ep, from, bytes, now, send, &receivers), expected);
            let mut committed = snapshot;
            committed.copy_from(&ep);
            prop_assert_eq!(committed, live);
        }
    }

    /// Dropping a replay copy (fallback path) leaves the medium
    /// untouched, and the same copy can be re-anchored and reused.
    #[test]
    fn replay_abort_leaves_medium_untouched() {
        let mut m = bus(3);
        m.send(0, 1, 500, 0.0);
        let before = m.clone();
        let mut ep = MediumSim::new(*m.params(), m.nodes());
        ep.copy_from(&m);
        ep.send(1, 2, 800, 1.0);
        ep.send(2, 0, 800, 2.0);
        // No commit: the medium must be unchanged.
        assert_eq!(m, before);
        // Reuse after abort: the copy re-anchors cleanly.
        ep.copy_from(&m);
        assert_eq!(ep, m);
        let live = m.send(1, 2, 64, 3.0);
        let rep = ep.send(1, 2, 64, 3.0);
        assert_eq!(live, rep);
    }
}
