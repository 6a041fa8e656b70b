//! Analytic profile completion under exact float ties.
//!
//! Without a fault plan the episode engine stores and counts a profile
//! when it is sent, and pushes only the delivery that completes a
//! balancer's set, at the heap key its `Deliver` event would have had.
//! When the balancer's own profile completes the set, the engine
//! schedules the calculation at once if that latest delivery sorts
//! before the current event, and pushes it at the delivery's key
//! otherwise.
//!
//! On a dedicated homogeneous cluster every processor computes at the
//! same speed with no external load, so iteration boundaries, profile
//! sends and (on a switched medium) deliveries coincide exactly in time,
//! and only the tie stamps and sequence numbers order them. Each cell
//! runs three ways:
//!
//! * the per-iteration reference, whose report bytes the episode engine
//!   must match;
//! * the episode engine with every profile delivered as its own event;
//! * the episode engine with analytic completion, which must dispatch
//!   exactly the per-message run's events, with bit-identical keys,
//!   less the profile deliveries that complete no set.
//!
//! The key comparison catches what the report cannot: a completion keyed
//! with a fresh sequence number, or an own profile scheduled at the
//! wrong moment, reorders events without always moving a report byte.

use super::*;
use dlb_core::strategy::Strategy;
use dlb_core::work::UniformLoop;
use now_net::NetworkParams;
use proptest::prelude::*;

/// Iteration cost in seconds: a small power-of-two fraction keeps the
/// boundary sums exact.
const COST: f64 = 1.0 / 64.0;

const STRATEGIES: [Strategy; 4] = [
    Strategy::Gcdlb,
    Strategy::Gddlb,
    Strategy::Lcdlb,
    Strategy::Lddlb,
];

/// One dispatched event: its key's bits and its kind. A profile delivery
/// and the analytic completion standing for it share a kind.
type Dispatched = (u64, u64, u32, u64, &'static str);

/// One tie-heavy cell: `p` dedicated, equally fast processors on the
/// paper's bus or a switched LAN, `iters` uniform iterations, and an
/// optional periodic sync every `period` of the no-DLB makespan. LCDLB
/// runs under a depth-2 group hierarchy.
struct Cell {
    cluster: ClusterSpec,
    wl: UniformLoop,
    cfg: StrategyConfig,
    periodic: Option<f64>,
}

impl Cell {
    fn new(p: usize, strategy: Strategy, group: usize, iters: u64, switched: bool) -> Self {
        let mut cluster = ClusterSpec::dedicated(p);
        if switched {
            cluster.net = NetworkParams::switched_lan();
        }
        let mut cfg = StrategyConfig::paper(strategy, group.min(p));
        if strategy == Strategy::Lcdlb {
            cfg = cfg.with_hierarchy(2, 2);
        }
        Self {
            cluster,
            wl: UniformLoop::new(iters, COST, 800),
            cfg,
            periodic: None,
        }
    }

    fn with_period(mut self, fraction: f64) -> Self {
        let horizon = Engine::new(self.cluster.clone(), &self.wl, None)
            .run()
            .total_time;
        self.periodic = Some(horizon * fraction);
        self
    }

    fn engine(&self, mode: EngineMode) -> Engine<'_> {
        let engine = Engine::new(self.cluster.clone(), &self.wl, Some(self.cfg)).with_mode(mode);
        match self.periodic {
            Some(dt) => engine.with_periodic_sync(dt),
            None => engine,
        }
    }

    /// Run the episode engine, analytic or with every profile delivered
    /// per message, logging every dispatched event but the profile
    /// deliveries that complete no set (their dispatch pushes nothing).
    fn dispatched(&self, analytic: bool) -> (Vec<Dispatched>, String) {
        let mut e = self.engine(EngineMode::Episode);
        e.start();
        assert!(
            e.analytic,
            "a fault-free episode run completes analytically"
        );
        e.analytic = analytic;
        let mut log = Vec::new();
        while let Some(Reverse(ev)) = e.events.pop() {
            let (key, pushed) = (ev.key, e.counters.events);
            let kind = match &ev.kind {
                EvKind::Deliver {
                    payload: Payload::Profile { .. },
                    ..
                }
                | EvKind::ProfilesIn { .. } => "profiles-in",
                EvKind::Deliver { .. } => "deliver",
                EvKind::IterDone { .. } => "iter-done",
                EvKind::BlockDone { .. } => "block-done",
                EvKind::SettleCheck { .. } => "settle-check",
                EvKind::Calc { .. } => "calc",
                EvKind::PeriodicTick => "periodic-tick",
                _ => "fault",
            };
            e.cur = key;
            e.dispatch(ev);
            if kind != "profiles-in" || e.counters.events > pushed {
                log.push((
                    key.time.to_bits(),
                    key.tie.to_bits(),
                    key.pkey,
                    key.seq,
                    kind,
                ));
            }
        }
        let report = serde_json::to_string(&e.finish().0).expect("report serializes");
        (log, report)
    }

    fn check(&self) -> Result<(), String> {
        let reference = serde_json::to_string(&self.engine(EngineMode::PerIter).run())
            .expect("report serializes");
        let (per_message, per_message_report) = self.dispatched(false);
        let (analytic, analytic_report) = self.dispatched(true);
        if per_message_report != reference || analytic_report != reference {
            return Err("episode report diverged from the per-iteration reference".into());
        }
        if let Some(i) = (0..per_message.len().max(analytic.len()))
            .find(|&i| per_message.get(i) != analytic.get(i))
        {
            return Err(format!(
                "event {i} differs: per-message {:?}, analytic {:?}",
                per_message.get(i),
                analytic.get(i)
            ));
        }
        Ok(())
    }
}

/// A fixed sweep: every strategy on both media, with and without
/// periodic sync, at sizes where the remainder iterations make the first
/// finishers initiate while the rest are a boundary from done.
#[test]
fn tie_heavy_grid_completes_sets_at_their_delivery_keys() {
    for p in [2, 3, 4, 7, 8, 16] {
        for strategy in STRATEGIES {
            for switched in [false, true] {
                for iters in [4 * p as u64, 6 * p as u64 + 1, 9 * p as u64 - 1] {
                    let label = format!("P={p} {strategy} switched={switched} N={iters}");
                    let cell = Cell::new(p, strategy, 4, iters, switched);
                    if let Err(e) = cell.check() {
                        panic!("{label}: {e}");
                    }
                    if let Err(e) = cell.with_period(0.23).check() {
                        panic!("{label} periodic: {e}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Random tie-heavy cells: P in 2..=16, any strategy and group size,
    /// either medium, with or without periodic sync.
    #[test]
    fn tie_heavy_cells_complete_sets_at_their_delivery_keys(
        p in 2usize..17,
        s in 0usize..4,
        group in 2usize..6,
        per in 2u64..24,
        extra in 0u64..16,
        switched in any::<bool>(),
        periodic in any::<bool>(),
        fraction in 0.05f64..0.6,
    ) {
        let iters = per * p as u64 + extra % p as u64;
        let mut cell = Cell::new(p, STRATEGIES[s], group, iters, switched);
        if periodic {
            cell = cell.with_period(fraction);
        }
        prop_assert_eq!(cell.check(), Ok(()));
    }
}
