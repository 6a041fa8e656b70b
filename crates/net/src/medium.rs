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
/// send path, shared by its single sends and fan-outs, mirroring how
/// [`MediumSim`]'s per-message step is the single contention core.
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

/// The later of two instants: `b` if it is strictly later than `a`, else
/// `a`.
///
/// For instants that are not NaN this is `a.max(b)`. It is written out
/// because on x86-64 it is one `maxsd`, while `f64::max` adds a NaN
/// fix-up to each of [`step`]'s loop-carried chains (the sender's port
/// and the wire). Medium instants are never NaN: requests are event
/// times (checked in debug builds), and costs are products of validated
/// finite parameters and factors asserted to be at least 1.
#[inline(always)]
fn later(a: f64, b: f64) -> f64 {
    if b > a {
        b
    } else {
        a
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
    let start = later(now, *send_free);
    let sent = start + send_cost;
    *send_free = sent;
    // Wire.
    let arrival = match params.medium {
        MediumKind::SharedBus => {
            let bus_start = later(sent, *bus_free);
            *bus_free = bus_start + frame;
            bus_start + frame
        }
        MediumKind::Switched => sent + frame,
    };
    // Receiver CPU.
    let delivered = later(arrival, *recv_free) + recv_cost;
    *recv_free = delivered;
    Transmission { start, delivered }
}

/// Stateful FCFS medium arbiter for `n` nodes.
///
/// Its whole mutable state is when each sender CPU, the shared wire and
/// each receiver CPU next come free. One private per-message FCFS step is
/// the single implementation of the contention arithmetic:
/// [`MediumSim::send_with_factors`] runs it for one message and
/// [`MediumSim::fanout`] for each message of a one-sender broadcast.
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
        debug_assert!(!now.is_nan(), "request time is NaN");
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
    /// each receiver of `to` in order, all requested at `now`. `factors`
    /// holds every node's CPU-cost factor: the sender's scales the send
    /// overhead, each receiver's its receive overhead. `out` is
    /// overwritten with each message's receiver and delivery time, in
    /// send order. `from` may appear in `to`: a self-send is not a
    /// message, so it touches no port and writes no entry.
    ///
    /// Bit for bit the same as one [`MediumSim::send_with_factors`] per
    /// receiver other than `from`: the send cost and frame time are the
    /// same products, hoisted out of the loop, and each message runs the
    /// same step. The loop reads each receiver's factor from the slice
    /// and runs that step; it makes no call.
    ///
    /// # Panics
    /// Panics if a node index is out of range, `factors` does not hold
    /// one factor per node, or a factor read is below 1.
    pub fn fanout(
        &mut self,
        from: usize,
        to: &[usize],
        bytes: usize,
        now: f64,
        factors: &[f64],
        out: &mut Vec<(usize, f64)>,
    ) {
        let n = self.nodes();
        assert!(from < n, "node index out of range");
        assert_eq!(factors.len(), n, "one factor per node");
        let send = factors[from];
        assert!(send >= 1.0, "endpoint factors must be >= 1 (1 = unloaded)");
        debug_assert!(!now.is_nan(), "request time is NaN");
        let params = &self.params;
        let send_cost = params.send_overhead * send;
        let frame = params.frame_time(bytes);
        // Sized up front so the loop writes in place: a push would
        // carry the buffer's length and a growth call through the loop.
        // Not cleared first, so a pooled buffer only fills the entries
        // past its last length; the loop overwrites the rest.
        out.resize(to.len(), (from, now));
        let mut k = 0;
        // The sender's port and the wire are the loop's running state;
        // only the receivers' ports vary.
        let mut send_free = self.send_port_free[from];
        let mut bus_free = self.bus_free_at;
        for &m in to {
            assert!(m < n, "node index out of range");
            if m == from {
                continue;
            }
            let recv = factors[m];
            assert!(recv >= 1.0, "endpoint factors must be >= 1 (1 = unloaded)");
            let t = step(
                params,
                &mut send_free,
                &mut bus_free,
                &mut self.recv_port_free[m],
                now,
                send_cost,
                frame,
                params.recv_overhead * recv,
            );
            out[k] = (m, t.delivered);
            k += 1;
        }
        out.truncate(k);
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

    /// A fan-out's messages sent one [`MediumSim::send_with_factors`] at
    /// a time, self-sends left out, as `(receiver, delivered bits)`.
    fn one_at_a_time(
        m: &mut MediumSim,
        from: usize,
        bytes: usize,
        now: f64,
        receivers: &[usize],
        factors: &[f64],
    ) -> Vec<(usize, u64)> {
        receivers
            .iter()
            .filter(|&&to| to != from)
            .map(|&to| {
                let f = EndpointFactors {
                    send: factors[from],
                    recv: factors[to],
                };
                (
                    to,
                    m.send_with_factors(from, to, bytes, now, f)
                        .delivered
                        .to_bits(),
                )
            })
            .collect()
    }

    /// The same messages through one [`MediumSim::fanout`], into a
    /// buffer holding stale entries; a self-send must write no entry.
    fn fanned(
        m: &mut MediumSim,
        from: usize,
        bytes: usize,
        now: f64,
        receivers: &[usize],
        factors: &[f64],
    ) -> Vec<(usize, u64)> {
        let mut out = vec![(from, f64::NAN); 3];
        m.fanout(from, receivers, bytes, now, factors, &mut out);
        assert!(
            out.iter().all(|&(to, _)| to != from),
            "a self-send is not a message"
        );
        out.iter().map(|&(to, at)| (to, at.to_bits())).collect()
    }

    /// A fan-out is bit for bit the same messages scheduled one at a
    /// time, on both media, from a mid-stream state, with the sender in
    /// its own receiver list and loaded endpoints.
    #[test]
    fn fanout_equals_one_schedule_per_receiver() {
        let receivers = [0, 2, 5, 1, 3, 4];
        // The sender, node 2, sends at factor 2.
        let factors = [1.0, 1.0, 2.0, 1.7, 1.0, 2.5];
        for mk in [bus(6), switched(6)] {
            let mut live = mk.clone();
            let mut fan = mk.clone();
            for &(f, t, b, now, fac) in &trace(6, 40) {
                live.send_with_factors(f, t, b, now, fac);
                fan.send_with_factors(f, t, b, now, fac);
            }
            let now = 0.05;
            let expected = one_at_a_time(&mut live, 2, 64, now, &receivers, &factors);
            assert_eq!(expected.len(), 5, "the self-send is skipped");
            assert_eq!(fanned(&mut fan, 2, 64, now, &receivers, &factors), expected);
            assert_eq!(live, fan);
        }
    }

    #[test]
    #[should_panic(expected = "factors")]
    fn fanout_rejects_a_sub_unit_factor() {
        let mut m = bus(3);
        m.fanout(0, &[1, 2], 0, 0.0, &[1.0, 1.0, 0.5], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fanout_rejects_an_out_of_range_receiver() {
        let mut m = bus(3);
        m.fanout(0, &[1, 3], 0, 0.0, &[1.0; 3], &mut Vec::new());
    }

    proptest! {
        /// Receivers may repeat and may include the sender; every node
        /// has its own factor, the sender's being `send`.
        #[test]
        fn prop_fanout_equals_one_schedule_per_receiver(
            n in 2usize..9,
            switch in 0u32..2,
            prefix in 0usize..30,
            from in 0usize..9,
            receivers in prop::collection::vec(0usize..9, 0..12),
            factors in prop::collection::vec(1.0f64..4.0, 9..10),
            send in 1.0f64..4.0,
            bytes in 0usize..5000,
            lead in 0.0f64..0.02,
        ) {
            let base = if switch == 1 { switched(n) } else { bus(n) };
            let from = from % n;
            let receivers: Vec<usize> = receivers.into_iter().map(|to| to % n).collect();
            let mut factors = factors[..n].to_vec();
            factors[from] = send;
            let mut live = base.clone();
            let mut fan = base.clone();
            let warm = trace(n, prefix);
            for &(f, t, b, now, fac) in &warm {
                live.send_with_factors(f, t, b, now, fac);
                fan.send_with_factors(f, t, b, now, fac);
            }
            let now = warm.last().map_or(0.0, |w| w.3) + lead;
            let expected = one_at_a_time(&mut live, from, bytes, now, &receivers, &factors);
            prop_assert_eq!(fanned(&mut fan, from, bytes, now, &receivers, &factors), expected);
            prop_assert_eq!(&live, &fan);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The regime of a P=1024 all-to-all profile exchange: 1,023
        /// receivers in shuffled order with the sender among them, a
        /// quarter unloaded and the rest at mixed factors, requested
        /// hundreds to thousands of seconds into the run while one
        /// earlier frame has booked the wire (on the switch, one
        /// receiver's port) hundreds of seconds ahead.
        #[test]
        fn prop_fanout_equals_one_schedule_per_receiver_at_scale(
            switch in 0u32..2,
            from in 0usize..1024,
            seed in any::<u64>(),
            warm in 0usize..200,
            now in 256.0f64..4096.0,
            booked in 100.0f64..900.0,
            send in 1.0f64..4.0,
            bytes in 0usize..5000,
        ) {
            let n = 1024;
            let base = if switch == 1 { switched(n) } else { bus(n) };
            let mut warmup: Vec<_> = trace(n, warm)
                .into_iter()
                .map(|(f, t, b, at, fac)| (f, t, b, now - 1.0 + at, fac))
                .collect();
            let hog = (from + 1) % n;
            let hog_bytes = (booked * base.params().bandwidth) as usize;
            warmup.push((hog, (from + 2) % n, hog_bytes, now, EndpointFactors::default()));
            let mut live = base.clone();
            let mut fan = base;
            for &(f, t, b, at, fac) in &warmup {
                live.send_with_factors(f, t, b, at, fac);
                fan.send_with_factors(f, t, b, at, fac);
            }
            // Every node once, Fisher-Yates shuffled; factor 1 on every
            // fourth in send order, a fraction in [1, 4) on the others,
            // and `send` on the sender.
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut receivers: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                receivers.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            let mut factors = vec![1.0; n];
            for (k, &to) in receivers.iter().enumerate() {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                factors[to] = if k % 4 == 0 { 1.0 } else { 1.0 + 3.0 * unit };
            }
            factors[from] = send;
            let expected = one_at_a_time(&mut live, from, bytes, now, &receivers, &factors);
            prop_assert_eq!(expected.len(), n - 1);
            prop_assert_eq!(fanned(&mut fan, from, bytes, now, &receivers, &factors), expected);
            prop_assert_eq!(&live, &fan);
        }
    }
}
