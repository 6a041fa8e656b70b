//! The discrete-event engine: paper protocol over simulated workstations.
//!
//! Each processor executes its work queue with events at iteration
//! boundaries — the generated code checks for interrupts once per outer
//! iteration. By default the engine runs in [`EngineMode::Episode`]:
//!
//! * **Block stepping.** One `BlockDone` event covers a processor's whole
//!   contiguous run of queued iterations, with every per-iteration
//!   boundary time precomputed by replaying the exact per-iteration
//!   arithmetic (so times are bit-identical to stepping one event per
//!   iteration, which remains available as [`EngineMode::PerIter`], the
//!   test oracle). Interrupts, crashes and stalls that land mid-block
//!   preempt *lazily*: the engine settles the completed prefix at the
//!   stored boundary and reschedules the remainder.
//! * **Analytic profile completion.** A profile arrival only stores the
//!   profile and counts it; the balancer acts when the last one lands.
//!   Without a fault plan a profile message therefore becomes no event:
//!   it is stored and counted when sent, and only the delivery that
//!   completes a balancer's set is pushed, at exactly the heap key its
//!   `Deliver` event would have had (DESIGN.md §S13).
//!
//! The DLB protocol runs exactly as in Section 3:
//!
//! * a processor that drains its queue *initiates* a synchronization for
//!   its group: it interrupts the other active members and submits its own
//!   profile;
//! * an interrupted processor finishes its current iteration, then sends
//!   its profile (to the master if centralized, to every group member if
//!   distributed) and blocks awaiting the outcome (Fig. 1);
//! * the balancer — the master, or every member in parallel — computes the
//!   new distribution after `calc_cost` seconds. The single LCDLB balancer
//!   serves groups FIFO, which *is* the paper's delay factor;
//! * centralized balancers send the outcome to the members; donors ship
//!   iterations (and `bytes_per_iter` of array data each) straight to
//!   receivers, who resume once they have collected what the new
//!   distribution owes them;
//! * a processor whose queue is empty after an episode leaves the
//!   computation (`dlb.more_work = false`), exactly the utilization loss
//!   the paper attributes to cancelled redistributions.
//!
//! This file holds the engine's state, its construction, the run loop
//! and the event dispatch. The rest lives in one module per seam:
//!
//! * `event`: the event kinds, their heap key and the push helpers;
//! * `substrate`: the CPU factors and the medium — sends, fan-outs and
//!   each message's fate under the fault plan;
//! * `blocks`: compute stepping, per iteration or per block;
//! * `protocol`: the Section-3 episode, interrupt to resume;
//! * `deliver`: what each message does when it lands;
//! * `recovery`: crashes, heartbeat detection, the watchdog and death
//!   handling (§S10);
//! * `rejoin`: the §S14 rejoin handshake and admission;
//! * `adaptive`: §S17 re-customization at episode boundaries.

use crate::cluster::ClusterSpec;
use crate::report::{ProcSummary, RunReport};
use dlb_core::balance::{balance_group, BalanceOutcome, BalanceVerdict};
use dlb_core::membership::Membership;
use dlb_core::moveplan::Transfer;
use dlb_core::profile::{PerfProfile, INSTRUCTION_WIRE_BYTES, WORK_HEADER_WIRE_BYTES};
use dlb_core::recovery::split_ranges;
use dlb_core::strategy::{Control, StrategyConfig};
use dlb_core::work::LoopWorkload;
use dlb_core::workqueue::{ranges_len, WorkQueue};
use dlb_core::{Distribution, DlbStats, GroupTree};

use now_fault::{DetectionRecord, FailurePolicy, FaultPlan, FaultReport, RejoinRecord};
use now_load::{ClockCursor, WorkClock};
use now_net::medium::EndpointFactors;
use now_net::MediumSim;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::ops::Range;
use std::sync::Arc;

mod adaptive;
mod blocks;
#[cfg(test)]
mod completion_tests;
mod deliver;
mod event;
mod protocol;
mod recovery;
mod rejoin;
mod substrate;
#[cfg(test)]
mod tests;

use blocks::{block_done_tie, BlockRun};
use event::{Ev, EvKind, Key};
use protocol::{GroupCtl, Payload};
use substrate::Cpus;

/// Σi and Σi² over executed iteration indices. Together with the
/// iteration count they catch a run that executes one iteration twice
/// and loses another, which the count alone accepts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct IndexSums {
    sum: u128,
    sum_sq: u128,
}

impl IndexSums {
    /// The sums over `0..n`, in closed form.
    fn prefix(n: u64) -> Self {
        let n = u128::from(n);
        if n == 0 {
            return Self::default();
        }
        Self {
            sum: n * (n - 1) / 2,
            sum_sq: (n - 1) * n * (2 * n - 1) / 6,
        }
    }

    fn add(&mut self, i: u64) {
        let i = u128::from(i);
        self.sum += i;
        self.sum_sq += i * i;
    }

    fn add_range(&mut self, r: &Range<u64>) {
        let (lo, hi) = (Self::prefix(r.start), Self::prefix(r.end));
        self.sum += hi.sum - lo.sum;
        self.sum_sq += hi.sum_sq - lo.sum_sq;
    }
}

/// How the engine steps compute work. See the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineMode {
    /// One `IterDone` event per iteration — the reference path the
    /// default mode is checked against byte-for-byte.
    PerIter,
    /// Block stepping **plus** analytic profile completion: without a
    /// fault plan a profile message is stored and counted at its
    /// balancer when sent, and only the delivery that completes a
    /// balancer's set becomes a heap event, keyed exactly as its
    /// `Deliver` would have been — one event per balancer and episode
    /// instead of O(P)..O(P²) per-message events. Every message still
    /// crosses the [`MediumSim`] in event order, so reports stay
    /// byte-identical to [`EngineMode::PerIter`]. Under a fault plan,
    /// where a profile can be lost, duplicated or outlive its episode,
    /// profiles are delivered per message. The default.
    #[default]
    Episode,
}

/// Counters the bench harness reads alongside the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Total events pushed onto the heap over the run. A profile message
    /// that does not complete its balancer's set reserves a sequence
    /// number but is never pushed, so it is not counted.
    pub events: u64,
    /// Compute stepping events (`IterDone`/`BlockDone`/`SettleCheck`).
    pub compute_events: u64,
    /// Heartbeat liveness sweeps.
    pub heartbeat_events: u64,
    /// Everything else: protocol messages, balancer calculations,
    /// watchdogs, crashes, periodic ticks, episode markers.
    pub protocol_events: u64,
    /// Re-reads of a processor's external-load span (`now-load`): a
    /// query outside the processor's cached span, or an expired span
    /// brought up to date before a fan-out.
    pub span_refreshes: u64,
    /// Messages costed on the medium (`now-net`): single sends plus
    /// fan-out messages. A fan-out's self-send is not a message.
    pub medium_steps: u64,
    /// Always 0. This and the five fields below counted the retired
    /// episode fast-forward's commits and fallbacks; analytic profile
    /// completion runs every episode on the event loop, so there is
    /// nothing left to count. They stay only because the benchmark
    /// harness reads them.
    pub episodes_fast_forwarded: u64,
    /// Always 0 (see `episodes_fast_forwarded`).
    pub episodes_fallback: u64,
    /// Always 0 (see `episodes_fast_forwarded`).
    pub ff_fallback_foreign: u64,
    /// Always 0 (see `episodes_fast_forwarded`).
    pub ff_fallback_fault: u64,
    /// Always 0 (see `episodes_fast_forwarded`).
    pub ff_fallback_delay: u64,
    /// Always 0 (see `episodes_fast_forwarded`).
    pub ff_fallback_switch: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum ProcState {
    /// Executing an iteration.
    #[default]
    Computing,
    /// Profile sent, blocked until the balancer's outcome arrives.
    WaitOutcome,
    /// Outcome received; waiting for `expect` more iterations of work.
    WaitWork { expect: u64 },
    /// Queue drained while the group's episode is still closing; will
    /// initiate the next episode once it closes.
    IdlePending,
    /// Left the computation (`dlb.more_work = false`).
    Inactive,
    /// Recovered from a detected death; announced itself and awaits the
    /// master's `JoinGrant`. Excluded from episode participant selection
    /// (`active` stays false) until admitted at an episode boundary.
    Rejoining,
}

/// The simulation engine. Construct with [`Engine::new`], run with
/// [`Engine::run`].
pub struct Engine<'w> {
    // --- static configuration ---
    /// Shared, immutable cluster description. `Arc` so a sweep hands the
    /// same allocation to every run instead of deep-cloning speeds/loads
    /// five times per `StrategySweep`.
    cluster: Arc<ClusterSpec>,
    workload: &'w dyn LoopWorkload,
    cfg: Option<StrategyConfig>,
    bytes_per_iter: u64,

    // --- substrate ---
    cpus: Cpus,
    medium: MediumSim,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    /// Key of the event currently being processed. Its time is the
    /// default `tie` stamp for every push (see [`Key::tie`]); all zero
    /// before the loop runs.
    cur: Key,
    counters: EngineCounters,

    // --- execution mode ---
    mode: EngineMode,
    /// Block stepping: the scheduled run per processor (`None` while not
    /// computing, and always `None` in per-iteration mode).
    blocks: Vec<Option<BlockRun>>,
    /// Bumped whenever a processor's block is invalidated (or, stepping
    /// per iteration, when it crashes); stamps `IterDone`/`BlockDone`/
    /// `SettleCheck` events so stale ones are dropped.
    block_epoch: Vec<u64>,
    /// Recycled boundary vectors: a retired block's buffer is reused by
    /// the next `schedule_block` instead of reallocated (episodes retire
    /// and reschedule every participant's block).
    boundary_pool: Vec<Vec<f64>>,
    /// Profile messages store and count their profile when sent, and
    /// only a set's completing delivery is an event (see
    /// [`EngineMode::Episode`]). Set when the run starts: Episode mode
    /// without a fault plan.
    analytic: bool,
    /// Pooled fan-out buffer: each message's receiver and its delivery
    /// time, written by the medium's sweep.
    fan: Vec<(usize, f64)>,

    // --- per-processor state ---
    queues: Vec<WorkQueue>,
    state: Vec<ProcState>,
    active: Vec<bool>,
    interrupted: Vec<bool>,
    window_start: Vec<f64>,
    window_iters: Vec<u64>,
    iters_done: Vec<u64>,
    /// Index sums over every executed iteration, checked against `0..N`
    /// when the run ends.
    executed: IndexSums,
    work_done: Vec<f64>,
    finished_at: Vec<f64>,

    // --- layout: groups and balancer roles (`Engine::build_layout`) ---
    groups: Vec<GroupCtl>,
    proc_group: Vec<usize>,
    /// Hierarchical balancer domains (DESIGN.md §S16): present only when
    /// the strategy stacks domain levels over the leaf groups
    /// (`group_depth > 1`). `None` is the paper's flat layout: one role,
    /// the master, balancing every group.
    hier: Option<GroupTree>,
    /// Leaf group → balancer role (level-1 domain). All zeros in the
    /// flat layout.
    role_of_group: Vec<usize>,
    /// Role → the processor hosting its balancer, re-elected by
    /// `Engine::elect_role` when it dies. The flat layout's one entry
    /// starts at `cluster.master`.
    role_host: Vec<usize>,
    /// Per-role balancer FIFO horizon (the paper's LCDLB delay factor):
    /// `role_busy[r]` is when role `r`'s balancer frees up.
    role_busy: Vec<f64>,
    /// Per processor, the id of the open episode it has sent its profile
    /// in, acted on the outcome in, or is still owed work shipments in
    /// (episode ids start at 1, so 0 means none). A processor belongs to
    /// at most one open episode, so one stamp per processor replaces
    /// per-episode sets.
    profiled_in: Vec<u64>,
    acted_in: Vec<u64>,
    awaiting_in: Vec<u64>,
    /// Work that arrived before the receiver finished its own (replicated)
    /// balancer calculation — possible in the distributed schemes, where a
    /// fast donor can decide and ship before a slow receiver decides.
    early_work: Vec<Vec<(usize, Vec<Range<u64>>)>>,

    // --- accounting ---
    stats: DlbStats,
    sync_times: Vec<f64>,

    /// Ablation A1.3: when set, synchronizations are additionally
    /// triggered every `dt` seconds (periodic-exchange schemes) instead of
    /// only by the receiver-initiated interrupts.
    periodic_interval: Option<f64>,

    // --- fault injection & failure handling ---
    /// What to inject. An empty plan schedules no fault events and takes
    /// no fault branches: the run is bit-identical to a pre-fault engine.
    plan: FaultPlan,
    policy: FailurePolicy,
    /// `!plan.is_empty()`, cached: every fault branch keys off this.
    fault_active: bool,
    faults: FaultReport,
    membership: Membership,
    /// Dead processors whose death the protocol has already handled.
    detected: Vec<bool>,
    /// Dead-but-undetected processors — exactly `{m : dead[m] &&
    /// !detected[m]}`, maintained at crash/detection time so liveness
    /// sweeps walk this (usually tiny) set instead of all of `0..P`.
    undetected: BTreeSet<usize>,
    /// Membership view version: bumped on every death handling and every
    /// rejoin admission. Instructions are stamped with it at send time;
    /// receivers discard older-epoch instructions (§S14 split-brain
    /// guard). Fault-free runs never bump it, so the guard never bites.
    membership_epoch: u64,
    /// Per crash instance in `plan.crashes`: has the protocol finished
    /// with it (death detected, or recovery made detection moot)? The
    /// heartbeat chain keeps running while any instance is unhandled —
    /// the recovery-aware generalization of "any crash undetected".
    crash_handled: Vec<bool>,
    /// The crash instance (index into `plan.crashes`) a currently-dead
    /// processor is down with. Validated interleaving makes it unique.
    cur_crash: Vec<Option<usize>>,
    /// When each processor last recovered (for the rejoin record).
    recovered_at: Vec<f64>,
    /// Confiscated work with no live heir at all (every processor dead,
    /// which validation guarantees is transient): parked here instead of
    /// panicking, drained into the first processor that recovers.
    limbo: Vec<Range<u64>>,
    /// Baselines for `faults.rejoins`: `(record index, iters_done at
    /// admission)`; finalized into `iters_after_rejoin` at run end.
    rejoin_baselines: Vec<(usize, u64)>,
    /// Iteration currently executing on each processor, so a crash can
    /// return it to the queue instead of losing it.
    in_flight: Vec<Option<u64>>,
    /// Work shipments the transport failed to deliver (lost message or
    /// dead receiver): `(to, group, ranges)`. The sender's copy — the
    /// watchdog retransmits these, and death recovery confiscates the
    /// ones addressed to a dead node. Iterations never leak.
    lost_work: Vec<(usize, usize, Vec<Range<u64>>)>,
    /// Message counter feeding the seeded loss model.
    msg_seq: u64,
    /// Episode id source for watchdog staleness checks.
    episode_seq: u64,

    // --- runtime re-customization (§S17) ---
    /// The adaptive re-decision loop; `None` (static strategy) takes no
    /// adaptive branches, so a static run is bit-identical to a
    /// pre-adaptive engine.
    adaptive: Option<adaptive::AdaptiveState>,
}

impl<'w> Engine<'w> {
    /// Set up a run. `cfg = None` gives the no-DLB baseline (static equal
    /// blocks, run to completion).
    ///
    /// # Panics
    /// Panics on inconsistent cluster/config parameters.
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        workload: &'w dyn LoopWorkload,
        cfg: Option<StrategyConfig>,
    ) -> Self {
        let cluster: Arc<ClusterSpec> = cluster.into();
        // Builds the clocks and validates the cluster, each check once.
        let clocks = cluster.clocks();
        if let Some(c) = &cfg {
            c.validate();
        }
        let p = cluster.processors();
        let total = workload.iterations();
        let initial = Distribution::equal_block(total, p);
        let queues: Vec<WorkQueue> = {
            let mut start = 0u64;
            initial
                .counts()
                .iter()
                .map(|&c| {
                    let q = WorkQueue::from_range(start..start + c);
                    start += c;
                    q
                })
                .collect()
        };
        let medium = MediumSim::new(cluster.net, p);
        let mut engine = Self {
            bytes_per_iter: workload.bytes_per_iter(),
            groups: Vec::new(),
            proc_group: Vec::new(),
            hier: None,
            role_of_group: Vec::new(),
            role_host: vec![cluster.master],
            role_busy: Vec::new(),
            cluster,
            workload,
            cfg,
            cpus: Cpus::new(clocks),
            medium,
            events: BinaryHeap::new(),
            seq: 0,
            cur: Key::default(),
            counters: EngineCounters::default(),
            mode: EngineMode::default(),
            blocks: (0..p).map(|_| None).collect(),
            block_epoch: vec![0; p],
            boundary_pool: Vec::new(),
            analytic: false,
            fan: Vec::new(),
            queues,
            state: vec![ProcState::Computing; p],
            active: vec![true; p],
            interrupted: vec![false; p],
            window_start: vec![0.0; p],
            window_iters: vec![0; p],
            iters_done: vec![0; p],
            executed: IndexSums::default(),
            work_done: vec![0.0; p],
            finished_at: vec![0.0; p],
            profiled_in: vec![0; p],
            acted_in: vec![0; p],
            awaiting_in: vec![0; p],
            early_work: vec![Vec::new(); p],
            stats: DlbStats::default(),
            sync_times: Vec::new(),
            periodic_interval: None,
            plan: FaultPlan::none(),
            policy: FailurePolicy::default(),
            fault_active: false,
            faults: FaultReport::default(),
            membership: Membership::new(p),
            detected: vec![false; p],
            undetected: BTreeSet::new(),
            membership_epoch: 0,
            crash_handled: Vec::new(),
            cur_crash: vec![None; p],
            recovered_at: vec![0.0; p],
            limbo: Vec::new(),
            rejoin_baselines: Vec::new(),
            in_flight: vec![None; p],
            lost_work: Vec::new(),
            msg_seq: 0,
            episode_seq: 0,
            adaptive: None,
        };
        engine.build_layout(&vec![true; p]);
        engine
    }

    /// Lay out the groups of the current strategy (one group of every
    /// processor without DLB) over the processors `member` admits, with
    /// `proc_group` and the balancer roles: under a §S16 hierarchy one
    /// role per level-1 domain, in the paper's flat layout one. Every
    /// role's host is elected from live membership, the flat role from
    /// its current host: the configured master at construction, role
    /// 0's host at a §S17 switch.
    fn build_layout(&mut self, member: &[bool]) {
        let p = self.cluster.processors();
        let lists = match &self.cfg {
            Some(c) => c.groups(p),
            None => vec![(0..p).collect()],
        };
        self.proc_group = vec![0; p];
        for (g, list) in lists.iter().enumerate() {
            for &m in list {
                self.proc_group[m] = g;
            }
        }
        self.hier = self.cfg.as_ref().and_then(|c| c.hierarchy(lists.len()));
        self.role_of_group = match self.hier {
            Some(tree) => (0..lists.len()).map(|g| tree.role_of(g)).collect(),
            None => vec![0; lists.len()],
        };
        self.groups = lists
            .into_iter()
            .map(|list| GroupCtl {
                members: list.into_iter().filter(|&m| member[m]).collect(),
                episode: None,
                pending_initiators: BTreeSet::new(),
                pending_joins: BTreeSet::new(),
            })
            .collect();
        let roles = self.hier.map_or(1, |tree| tree.roles());
        self.role_host = vec![self.role_host[0]; roles];
        for r in 0..roles {
            self.elect_role(r);
        }
        self.role_busy = vec![0.0; roles];
    }

    /// Elect role `r`'s host from live membership. Under a §S16
    /// hierarchy the escalation chain takes the lowest live member of
    /// the role's level-1 domain, then of each covering domain up to the
    /// tree root, and past the root (the whole root domain dead) the
    /// lowest survivor; each step is O(domain size), and the common case
    /// resolves at level 1. The flat layout's role keeps its host while
    /// it lives and passes to the lowest survivor (`Membership::promote`).
    /// With every processor dead (transient by plan validation) the host
    /// stays.
    fn elect_role(&mut self, r: usize) {
        let host = match self.hier {
            Some(tree) => tree
                .escalation_ranges(r)
                .find_map(|range| {
                    range
                        .flat_map(|g| self.groups[g].members.iter().copied())
                        .filter(|&m| self.membership.is_alive(m))
                        .min()
                })
                .or_else(|| self.membership.lowest_alive()),
            None => self.membership.promote(self.role_host[r]),
        };
        if let Some(m) = host {
            self.role_host[r] = m;
        }
    }

    /// Inject faults per `plan`, handled per `policy`. An empty plan is
    /// guaranteed overhead-free: the run is identical to one without the
    /// fault subsystem.
    ///
    /// # Panics
    /// Panics if the plan is invalid for this cluster or the policy
    /// tunables are out of range.
    pub fn with_faults(mut self, plan: FaultPlan, policy: FailurePolicy) -> Self {
        if let Err(e) = plan.validate(self.cluster.processors()) {
            panic!("invalid fault plan: {e}");
        }
        if let Err(e) = policy.validate() {
            panic!("invalid failure policy: {e}");
        }
        self.fault_active = !plan.is_empty();
        self.crash_handled = vec![false; plan.crashes.len()];
        self.plan = plan;
        self.policy = policy;
        self
    }

    /// Select the stepping mode (default [`EngineMode::Episode`]). Both
    /// modes produce byte-identical reports; per-iteration is the
    /// reference path.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable ablation A1.3: additionally trigger a synchronization every
    /// `dt` seconds (a periodic-exchange scheme à la Dome/Siegell).
    ///
    /// # Panics
    /// Panics unless `dt` is positive and finite, or if DLB is disabled.
    pub fn with_periodic_sync(mut self, dt: f64) -> Self {
        assert!(
            dt > 0.0 && dt.is_finite(),
            "periodic interval must be positive"
        );
        assert!(self.cfg.is_some(), "periodic sync requires a DLB strategy");
        self.periodic_interval = Some(dt);
        self
    }

    /// Execute to completion and report.
    pub fn run(self) -> RunReport {
        self.run_counted().0
    }

    /// Execute to completion; also return engine counters (heap event
    /// totals) for the bench harness.
    pub fn run_counted(mut self) -> (RunReport, EngineCounters) {
        self.start();
        while let Some(Reverse(ev)) = self.events.pop() {
            self.cur = ev.key;
            self.dispatch(ev);
        }
        self.finish()
    }

    /// Seed the heap: every processor's first compute event, the first
    /// periodic tick, and the fault plan's events.
    fn start(&mut self) {
        let p = self.cluster.processors();
        for proc in 0..p {
            if self.queues[proc].is_empty() {
                // More processors than iterations: this one never computes.
                self.set_state(proc, ProcState::Inactive);
                self.active[proc] = false;
            } else {
                self.schedule_compute(proc, 0.0);
            }
        }
        if let Some(dt) = self.periodic_interval {
            self.push_event(dt, EvKind::PeriodicTick);
        }
        if self.fault_active {
            for i in 0..self.plan.crashes.len() {
                let c = self.plan.crashes[i];
                self.push_event(c.at, EvKind::Crash { proc: c.proc });
            }
            for i in 0..self.plan.recoveries.len() {
                let r = self.plan.recoveries[i];
                self.push_event(r.at, EvKind::Recover { proc: r.proc });
            }
            if !self.plan.crashes.is_empty() {
                self.push_event(self.policy.heartbeat_interval, EvKind::Heartbeat);
            }
        }
        // Fixed before the first event: `with_faults` and `with_mode` may
        // come in either order.
        self.analytic = self.mode == EngineMode::Episode && !self.fault_active;
    }

    /// Check the drained run and build its report.
    fn finish(mut self) -> (RunReport, EngineCounters) {
        let p = self.cluster.processors();
        // Hard invariant: the event queue drained, so every processor must
        // have finished — any residue means the protocol deadlocked.
        let done: u64 = self.iters_done.iter().sum();
        assert_eq!(
            done,
            self.workload.iterations(),
            "protocol stalled: {} of {} iterations executed (states: {:?})",
            done,
            self.workload.iterations(),
            self.state
        );
        assert_eq!(
            self.executed,
            IndexSums::prefix(self.workload.iterations()),
            "iteration index sums differ from 0..N: an iteration ran twice and another never ran"
        );
        // Finalize rejoin records: post-admission iteration counts are
        // only known once the run ends.
        for &(idx, base) in &self.rejoin_baselines {
            let rec = &mut self.faults.rejoins[idx];
            rec.iters_after_rejoin = self.iters_done[rec.proc] - base;
        }
        let total_time = self.finished_at.iter().copied().fold(0.0, f64::max);
        let adaptive = self
            .adaptive
            .take()
            .map(adaptive::AdaptiveState::into_report);
        let report = RunReport {
            strategy: self.cfg.as_ref().map(|c| c.strategy),
            total_time,
            stats: self.stats,
            per_proc: (0..p)
                .map(|i| ProcSummary {
                    iters_done: self.iters_done[i],
                    finished_at: self.finished_at[i],
                    work_done: self.work_done[i],
                })
                .collect(),
            sync_times: self.sync_times,
            total_iters: done,
            faults: if self.fault_active {
                Some(self.faults)
            } else {
                None
            },
            adaptive,
        };
        self.counters.span_refreshes = self.cpus.refreshes;
        (report, self.counters)
    }

    /// Run one event's handler.
    fn dispatch(&mut self, ev: Ev) {
        let now = ev.key.time;
        match ev.kind {
            EvKind::IterDone { proc, iter, epoch } => self.on_iter_done(proc, iter, epoch, now),
            EvKind::BlockDone { proc, epoch } => self.on_block_done(proc, epoch, now),
            EvKind::SettleCheck { proc, epoch } => self.on_settle_check(proc, epoch, now),
            EvKind::Deliver { to, payload } => self.on_deliver(to, payload, now),
            EvKind::Calc { group, at, id } => self.on_calc(group, at, id, now),
            EvKind::PeriodicTick => self.on_periodic_tick(now),
            EvKind::Crash { proc } => self.on_crash(proc, now),
            EvKind::Recover { proc } => self.on_recover(proc, now),
            EvKind::JoinRetry { proc } => self.on_join_retry(proc, now),
            EvKind::Heartbeat => self.on_heartbeat(now),
            EvKind::Watchdog { group, id } => self.on_watchdog(group, id, now),
            EvKind::ProfilesIn { group, at } => self.schedule_calc(group, at, now),
        }
    }

    /// Single mutation point for the processor states, keeping each
    /// processor's CPU factor ([`Cpus::factor`]) in lock-step: it
    /// doubles while the compute slave runs.
    fn set_state(&mut self, m: usize, s: ProcState) {
        self.state[m] = s;
        self.cpus.set_computing(m, s == ProcState::Computing);
    }
}
