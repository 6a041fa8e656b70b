//! The event loop's vocabulary: what an event is (`EvKind`), where it
//! sorts (`Key`), and how it is pushed onto the heap.

use super::*;

#[derive(Debug)]
pub(super) enum EvKind {
    IterDone {
        proc: usize,
        iter: u64,
        /// `block_epoch[proc]` when scheduled: a crash bumps it, so a
        /// completion scheduled before the crash stays void even when the
        /// revived processor is handed the same iteration again.
        epoch: u64,
    },
    /// Block stepping: the whole scheduled run of `proc` completes. Stale
    /// once the block epoch moves on (preemption, crash).
    BlockDone {
        proc: usize,
        epoch: u64,
    },
    /// Block stepping: `proc` was interrupted mid-block; react at this — its
    /// next — iteration boundary, like the per-iteration engine does.
    SettleCheck {
        proc: usize,
        epoch: u64,
    },
    Deliver {
        to: usize,
        payload: Payload,
    },
    /// Balancer `at`'s calculation for episode `id` of `group` completes:
    /// a replica's, or the central balancer's on its host. Stale once the
    /// episode closed or aborted: a later episode of the group must not
    /// take an earlier one's calculation.
    Calc {
        group: usize,
        at: usize,
        id: u64,
    },
    /// Ablation A1.3: a periodic synchronization tick (Dome/Siegell-style
    /// periodic exchanges instead of receiver-initiated interrupts).
    PeriodicTick,
    /// Fault injection: processor `proc` dies (until a planned recovery,
    /// if any).
    Crash {
        proc: usize,
    },
    /// Fault injection: processor `proc` comes back up and starts the
    /// §S14 rejoin handshake.
    Recover {
        proc: usize,
    },
    /// §S14: a rejoining processor re-announces itself — its previous
    /// `JoinRequest` may have landed on a master that was already dead.
    JoinRetry {
        proc: usize,
    },
    /// Failure handling: liveness sweep over all groups.
    Heartbeat,
    /// Failure handling: episode watchdog — if episode `id` of `group` is
    /// still open when this fires, something went silent.
    Watchdog {
        group: usize,
        id: u64,
    },
    /// Analytic profile completion: the profile delivery that completes
    /// balancer `at`'s set for `group`'s episode, at that delivery's own
    /// heap key. Schedules the balancer's calculation.
    ProfilesIn {
        group: usize,
        at: usize,
    },
}

/// An event's place in the event loop's order: `(time, tie, pkey, seq)`,
/// compared lexicographically.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Key {
    pub(super) time: f64,
    /// Same-time tie-break: the simulation moment the event was (or, for
    /// block-stepped compute events, *would have been*) pushed. Within one
    /// engine mode `(time, tie, seq)` orders exactly like `(time, seq)`
    /// — `seq` grows monotonically with the push moment — but across
    /// modes it is what keeps coincident events aligned: block stepping
    /// pushes a block's completion at schedule time and a settle
    /// check at interrupt-arrival time, while the per-iteration engine
    /// pushes the corresponding `IterDone` when that iteration *starts*
    /// (its previous boundary). Block-stepped compute events carry an
    /// explicit tie equal to that previous boundary, so two processors
    /// hitting profile boundaries at the same instant fire in the same
    /// order in every mode (the network medium is FCFS, so a swapped
    /// same-instant send order would diverge the whole run).
    pub(super) tie: f64,
    /// Second-level tie-break: the owning processor for compute events
    /// (`IterDone`/`BlockDone`/`SettleCheck`), `u32::MAX` for everything
    /// else. `(time, tie)` alone is not collision-free: a mass resume
    /// (episode act or abort) restarts many processors at the same
    /// instant, and on a homogeneous cluster their next boundaries
    /// coincide in *both* components. `seq` would then decide — but
    /// `seq` is mode-local (the per-iteration engine pushes its
    /// `IterDone`s at the resume, block stepping pushes `BlockDone`
    /// at schedule time and `SettleCheck`s at interrupt arrival), so the
    /// processors would profile in different orders and the FCFS medium
    /// would diverge the whole run. Ordering colliding compute events by
    /// processor id is mode-independent.
    pub(super) pkey: u32,
    /// Push order. A profile message that never becomes an event still
    /// draws the number its `Deliver` would have had (see
    /// [`Engine::profile_key`]), so every other event keeps its order.
    pub(super) seq: u64,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.tie.total_cmp(&other.tie))
            .then(self.pkey.cmp(&other.pkey))
            .then(self.seq.cmp(&other.seq))
    }
}

#[derive(Debug)]
pub(super) struct Ev {
    pub(super) key: Key,
    pub(super) kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Ordering component of compute events (see [`Key::pkey`]).
fn pkey_of(kind: &EvKind) -> u32 {
    match *kind {
        EvKind::IterDone { proc, .. }
        | EvKind::BlockDone { proc, .. }
        | EvKind::SettleCheck { proc, .. } => proc as u32,
        _ => u32::MAX,
    }
}

impl Engine<'_> {
    pub(super) fn push_event(&mut self, time: f64, kind: EvKind) {
        let tie = self.cur.time;
        self.push_event_tied(time, tie, kind);
    }

    /// Push with an explicit tie stamp (see [`Key::tie`]) — used by block
    /// stepping's compute events, whose per-iteration twins would have
    /// been pushed at a different (earlier or later) moment.
    pub(super) fn push_event_tied(&mut self, time: f64, tie: f64, kind: EvKind) {
        self.seq += 1;
        let key = Key {
            time,
            tie,
            pkey: pkey_of(&kind),
            seq: self.seq,
        };
        self.push_keyed(key, kind);
    }

    /// Push `kind` at `key`, whose sequence number was drawn already.
    pub(super) fn push_keyed(&mut self, key: Key, kind: EvKind) {
        match kind {
            EvKind::IterDone { .. } | EvKind::BlockDone { .. } | EvKind::SettleCheck { .. } => {
                self.counters.compute_events += 1
            }
            EvKind::Heartbeat => self.counters.heartbeat_events += 1,
            _ => self.counters.protocol_events += 1,
        }
        self.counters.events += 1;
        self.events.push(Reverse(Ev { key, kind }));
    }
}
