//! Input generation: every spec, model input and fault plan the benchmark
//! submits, built from the workload seed alone. The program under test
//! only ever sees the generated values.
//!
//! At the default seed ([`dlb_bench::LOAD_SEED`]) the `paper-grid` specs
//! are exactly the ones `mxm_experiment_with`, `trfd_experiment_with` and
//! `trfd_loop_experiment_with` submit; the `default_seed_matches_*` tests
//! prove it against those functions.

use std::sync::Arc;

use dlb_apps::{ops_to_seconds, MxmConfig, TrfdConfig};
use dlb_bench::{paper_group_size, persistence_for, CELL_REPLICAS};
use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use dlb_core::IndexedLoop;
use now_fault::{
    rng, CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, PartitionSpec, RecoverSpec,
    StallSpec,
};
use now_load::WorkClock;
use now_serve::{RunKind, RunServer, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode, RunReport};

use crate::trace::Tracer;

/// The workloads the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGrid,
    LargeP,
    Chaos,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperGrid, Kind::LargeP, Kind::Chaos];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGrid => "paper-grid",
            Kind::LargeP => "large-p",
            Kind::Chaos => "chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The model decision a figure cell makes per replica, as `run_cell_on`
/// does.
pub struct Decide {
    pub model: Box<dyn LoopWorkload>,
    pub clusters: Vec<ClusterSpec>,
    pub k: usize,
}

/// The TRFD program total of Figs. 7/8: loop 1, the master's sequential
/// transpose, loop 2 — as `trfd_experiment_with` folds it.
pub struct Splice {
    /// The master's work clock, per replica.
    pub master_clocks: Vec<WorkClock>,
    pub transpose_work: f64,
}

impl Splice {
    /// Mean normalized totals, noDLB first then the four strategies.
    /// `reports` are the cell's responses in submit order.
    pub fn rows(&self, reports: &[RunReport]) -> Vec<f64> {
        let per_loop = 1 + Strategy::ALL.len();
        let mut sums = vec![0.0f64; Strategy::ALL.len()];
        for (chunk, clock) in reports.chunks(2 * per_loop).zip(&self.master_clocks) {
            let (l1, l2) = chunk.split_at(per_loop);
            let total = |t1: f64, t2: f64| {
                let tr = clock.finish_time(t1, self.transpose_work) - t1;
                t1 + tr + t2
            };
            let base = total(l1[0].total_time, l2[0].total_time);
            for (i, sum) in sums.iter_mut().enumerate() {
                *sum += total(l1[i + 1].total_time, l2[i + 1].total_time) / base;
            }
        }
        let n = self.master_clocks.len() as f64;
        std::iter::once(1.0)
            .chain(sums.iter().map(|s| s / n))
            .collect()
    }
}

/// One unit a user waits on: its runs are submitted together, then the
/// model decides (if it does), then every report is received.
pub struct Cell {
    pub specs: Vec<RunSpec>,
    /// Iterations each run must execute (conservation check).
    pub expected_iters: Vec<u64>,
    pub decide: Option<Decide>,
    pub splice: Option<Splice>,
}

/// Cells that share one fresh server per pass set — one figure binary.
pub struct Grid {
    pub name: &'static str,
    pub cells: Vec<Cell>,
}

pub struct Workload {
    pub grids: Vec<Grid>,
}

impl Workload {
    /// Every spec of one pass over every grid, in submit order.
    pub fn specs(&self) -> impl Iterator<Item = &RunSpec> {
        self.grids
            .iter()
            .flat_map(|g| g.cells.iter().flat_map(|c| c.specs.iter()))
    }
}

/// Build the workload's inputs from `seed`. `server` answers the probe
/// runs some inputs need (the chaos plans scale off a fault-free run).
pub fn generate(kind: Kind, seed: u64, tr: &mut Tracer, server: &RunServer) -> Workload {
    let grids = match kind {
        Kind::PaperGrid => paper_grids(seed, tr),
        Kind::LargeP => vec![large_p(seed, tr)],
        Kind::Chaos => vec![chaos(seed, tr, server)],
    };
    Workload { grids }
}

/// noDLB then the four strategies, as every figure cell runs them.
fn paper_kinds(k: usize) -> impl Iterator<Item = RunKind> {
    std::iter::once(RunKind::NoDlb).chain(Strategy::ALL.into_iter().map(move |s| RunKind::Dlb {
        cfg: StrategyConfig::paper(s, k),
    }))
}

fn iterations(tr: &mut Tracer, wl: &WorkloadSpec) -> u64 {
    tr.time("apps.build", || wl.build().iterations())
}

/// Check a cluster the way the engine will, by building its work clocks.
fn clocks(tr: &mut Tracer, cluster: &ClusterSpec) -> Vec<WorkClock> {
    tr.time("load.clocks", || cluster.clocks())
}

fn paper_cluster(
    tr: &mut Tracer,
    seed: u64,
    p: usize,
    salt: u64,
    replica: u64,
    wl: &dyn LoopWorkload,
) -> ClusterSpec {
    let persistence = tr.time("apps.build", || persistence_for(wl));
    ClusterSpec::paper_homogeneous(
        p,
        seed ^ salt ^ replica.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        persistence,
    )
}

/// One figure cell: `wl` on [`CELL_REPLICAS`] load draws, noDLB plus the
/// four strategies each, with a model decision per replica.
fn sweep_cell(tr: &mut Tracer, seed: u64, p: usize, salt: u64, wl: WorkloadSpec) -> Cell {
    // The model probes a concrete workload; non-uniform ones get a
    // prefix-sum index, exactly as `run_cell_on` builds it.
    let model: Box<dyn LoopWorkload> = tr.time("apps.build", || {
        let built: Arc<dyn LoopWorkload> = Arc::from(wl.build());
        if built.is_uniform() {
            Box::new(built) as Box<dyn LoopWorkload>
        } else {
            Box::new(IndexedLoop::new(built))
        }
    });
    let k = paper_group_size(p);
    let clusters: Vec<ClusterSpec> = (0..CELL_REPLICAS)
        .map(|r| paper_cluster(tr, seed, p, salt, r, model.as_ref()))
        .collect();
    for c in &clusters {
        clocks(tr, c);
    }
    let specs: Vec<RunSpec> = clusters
        .iter()
        .flat_map(|c| paper_kinds(k).map(|kind| RunSpec::new(wl.clone(), c.clone(), kind)))
        .collect();
    let iters = model.iterations();
    Cell {
        expected_iters: vec![iters; specs.len()],
        specs,
        decide: Some(Decide { model, clusters, k }),
        splice: None,
    }
}

fn mxm_cell(tr: &mut Tracer, seed: u64, p: usize, cfg: MxmConfig) -> Cell {
    sweep_cell(tr, seed, p, cfg.r ^ (cfg.c << 16), WorkloadSpec::mxm(cfg))
}

fn trfd_loop_cell(tr: &mut Tracer, seed: u64, p: usize, cfg: TrfdConfig, l2: bool) -> Cell {
    let salt = cfg.n ^ ((l2 as u64) << 32);
    let wl = if l2 {
        WorkloadSpec::TrfdL2 { n: cfg.n }
    } else {
        WorkloadSpec::TrfdL1 { n: cfg.n }
    };
    sweep_cell(tr, seed, p, salt, wl)
}

/// One Fig. 7/8 cell: both TRFD loops on each replica's cluster, then the
/// transpose splice. It makes no model decision.
fn trfd_total_cell(tr: &mut Tracer, seed: u64, p: usize, cfg: TrfdConfig) -> Cell {
    let loops = [
        WorkloadSpec::TrfdL1 { n: cfg.n },
        WorkloadSpec::TrfdL2 { n: cfg.n },
    ];
    let wl1 = tr.time("apps.build", || cfg.loop1_workload());
    let k = paper_group_size(p);
    let clusters: Vec<ClusterSpec> = (0..CELL_REPLICAS)
        .map(|r| paper_cluster(tr, seed, p, cfg.n, r, &wl1))
        .collect();
    let iters = loops.each_ref().map(|wl| iterations(tr, wl));
    let mut specs = Vec::new();
    let mut expected_iters = Vec::new();
    for c in &clusters {
        for (wl, &n) in loops.iter().zip(&iters) {
            for kind in paper_kinds(k) {
                specs.push(RunSpec::new(wl.clone(), c.clone(), kind));
                expected_iters.push(n);
            }
        }
    }
    let master_clocks = clusters
        .iter()
        .map(|c| clocks(tr, c).swap_remove(c.master))
        .collect();
    Cell {
        specs,
        expected_iters,
        decide: None,
        splice: Some(Splice {
            master_clocks,
            transpose_work: ops_to_seconds(2.0 * (cfg.msize() * cfg.msize()) as f64),
        }),
    }
}

/// The six figure/table grids, each one binary's cells in its order.
fn paper_grids(seed: u64, tr: &mut Tracer) -> Vec<Grid> {
    let mxm = |tr: &mut Tracer, ps: &[usize]| -> Vec<Cell> {
        ps.iter()
            .flat_map(|&p| MxmConfig::paper_configs(p).into_iter().map(move |c| (p, c)))
            .map(|(p, c)| mxm_cell(tr, seed, p, c))
            .collect()
    };
    let totals = |tr: &mut Tracer, p: usize| -> Vec<Cell> {
        TrfdConfig::paper_configs()
            .into_iter()
            .map(|c| trfd_total_cell(tr, seed, p, c))
            .collect()
    };
    let mut table2 = Vec::new();
    for p in [4, 16] {
        for l2 in [false, true] {
            for c in TrfdConfig::paper_configs() {
                table2.push(trfd_loop_cell(tr, seed, p, c, l2));
            }
        }
    }
    vec![
        Grid {
            name: "fig5",
            cells: mxm(tr, &[4]),
        },
        Grid {
            name: "fig6",
            cells: mxm(tr, &[16]),
        },
        Grid {
            name: "fig7",
            cells: totals(tr, 4),
        },
        Grid {
            name: "fig8",
            cells: totals(tr, 16),
        },
        Grid {
            name: "table1",
            cells: mxm(tr, &[4, 16]),
        },
        Grid {
            name: "table2",
            cells: table2,
        },
    ]
}

/// Processor count of the large-P cell (`engine_bench --procs 1024`).
pub const LARGE_P: usize = 1024;

/// The large-P scaling cell: constant work per processor, groups of 8,
/// LCDLB under the depth-2 hierarchy; one run per cell.
fn large_p(seed: u64, tr: &mut Tracer) -> Grid {
    let p = LARGE_P;
    let cfg = MxmConfig::new(100 * p as u64, 800, 400);
    let wl = WorkloadSpec::mxm(cfg);
    let built = tr.time("apps.build", || cfg.workload());
    let persistence = tr.time("apps.build", || persistence_for(&built));
    let cluster = ClusterSpec::paper_homogeneous(p, seed, persistence);
    clocks(tr, &cluster);
    let iters = built.iterations();
    let cells = std::iter::once(RunKind::NoDlb)
        .chain(Strategy::ALL.into_iter().map(|s| {
            let mut cfg = StrategyConfig::paper(s, 8);
            if s == Strategy::Lcdlb {
                cfg = cfg.with_hierarchy(2, 8);
            }
            RunKind::Dlb { cfg }
        }))
        .map(|kind| Cell {
            specs: vec![
                RunSpec::new(wl.clone(), cluster.clone(), kind).with_mode(EngineMode::Episode)
            ],
            expected_iters: vec![iters],
            decide: None,
            splice: None,
        })
        .collect();
    Grid {
        name: "large-p",
        cells,
    }
}

/// Cluster size of the chaos workload.
pub const CHAOS_P: usize = 16;
/// Fault plans per chaos round: four of each scenario kind.
pub const CHAOS_PLANS: usize = 4 * SCENARIOS;
const SCENARIOS: usize = 9;

/// The chaos workload: seeded fault plans on drifting P=16 clusters, each
/// run under noDLB, the four strategies and the adaptive policy, in
/// episode mode. A cell is one plan. Every plan gets its own load draw,
/// so a round's cost averages over many clusters instead of riding on
/// one.
fn chaos(seed: u64, tr: &mut Tracer, server: &RunServer) -> Grid {
    let p = CHAOS_P;
    let mxm = MxmConfig::new(25 * p as u64, 400, 400);
    let wl = WorkloadSpec::mxm(mxm);
    let iters = iterations(tr, &wl);
    let clusters: Vec<ClusterSpec> = (0..CHAOS_PLANS)
        .map(|i| ClusterSpec::paper_homogeneous(p, rng::mix(seed ^ 0x0DB1_0ADE ^ i as u64), 0.5))
        .collect();
    for c in &clusters {
        clocks(tr, c);
    }
    // Fault times scale off each cluster's fault-free noDLB horizon.
    let mut client = server.client();
    for c in &clusters {
        client.submit(
            &RunSpec::new(wl.clone(), c.clone(), RunKind::NoDlb).with_mode(EngineMode::Episode),
        );
    }
    let horizons: Vec<f64> = clusters.iter().map(|_| client.recv().total_time).collect();
    let group = p / 2;
    let mut kinds: Vec<RunKind> = std::iter::once(RunKind::NoDlb)
        .chain(Strategy::ALL.into_iter().map(|s| RunKind::Dlb {
            cfg: StrategyConfig::paper(s, group),
        }))
        .collect();
    // A tight observation window so re-decisions, and the epoch-guarded
    // handovers they trigger, happen inside these short runs.
    kinds.push(RunKind::Adaptive {
        cfg: AdaptiveConfig {
            window: 1,
            min_episodes_between: 2,
            ..AdaptiveConfig::paper(Strategy::Lddlb, group)
        },
    });
    let cells = clusters
        .iter()
        .zip(horizons)
        .enumerate()
        .map(|(i, (cluster, horizon))| {
            let plan = fault_plan(seed, i, horizon, p);
            plan.validate(p).expect("generated fault plans are valid");
            let specs: Vec<RunSpec> = kinds
                .iter()
                .map(|kind| {
                    RunSpec::new(wl.clone(), cluster.clone(), kind.clone())
                        .with_faults(plan.clone(), FailurePolicy::default())
                        .with_mode(EngineMode::Episode)
                })
                .collect();
            Cell {
                expected_iters: vec![iters; specs.len()],
                specs,
                decide: None,
                splice: None,
            }
        })
        .collect();
    Grid {
        name: "chaos",
        cells,
    }
}

/// Plan `i` of the chaos mix: crash+recover, stall, partition+heal, loss,
/// delay, crash, composition, three-way split and churn, cycling, with
/// parameters from the seeded splitmix stream. Plan 0 is a fixed
/// early-crash, early-recover scenario so every round exercises a rejoin.
fn fault_plan(seed: u64, i: usize, t: f64, p: usize) -> FaultPlan {
    let u = |k: u64| rng::unit(seed, (i as u64) << 8 | k);
    let victim = |k: u64| (u(k) * p as f64) as usize % p;
    let crash_recover = |proc: usize, at: f64, back: f64| FaultPlan {
        crashes: vec![CrashSpec { proc, at }],
        recoveries: vec![RecoverSpec { proc, at: back }],
        ..FaultPlan::default()
    };
    if i == 0 {
        return crash_recover(p - 1, t * 0.15, t * 0.3);
    }
    match i % SCENARIOS {
        0 => {
            let at = t * (0.05 + u(0) * 0.4);
            crash_recover(victim(1), at, at + t * (0.05 + u(2) * 0.35))
        }
        1 => {
            let from = t * (0.05 + u(0) * 0.4);
            FaultPlan {
                stalls: vec![StallSpec {
                    proc: victim(1),
                    from,
                    until: from + t * (0.05 + u(2) * 0.4),
                }],
                ..FaultPlan::default()
            }
        }
        2 => {
            let a = victim(0);
            let b = (a + 1 + (u(1) * (p - 1) as f64) as usize % (p - 1)) % p;
            let start = t * (0.05 + u(2) * 0.4);
            let heal = start + t * (0.05 + u(3) * 0.45);
            let cut = |from, to| PartitionSpec {
                from,
                to,
                start,
                heal,
            };
            FaultPlan {
                partitions: vec![cut(a, b), cut(b, a)],
                ..FaultPlan::default()
            }
        }
        3 => FaultPlan {
            loss: Some(LossSpec {
                prob: 0.05 + u(0) * 0.2,
                seed: rng::mix(seed ^ i as u64),
            }),
            ..FaultPlan::default()
        },
        4 => {
            let from = t * (0.05 + u(0) * 0.3);
            FaultPlan {
                delay: Some(DelaySpec {
                    factor: 1.5 + u(1) * 3.0,
                    from,
                    until: from + t * (0.1 + u(2) * 0.4),
                }),
                ..FaultPlan::default()
            }
        }
        5 => FaultPlan {
            crashes: vec![CrashSpec {
                proc: victim(0),
                at: t * (0.05 + u(1) * 0.6),
            }],
            ..FaultPlan::default()
        },
        6 => {
            // Crash+recover under loss and delay.
            let at = t * (0.05 + u(0) * 0.3);
            let from = t * (0.05 + u(4) * 0.3);
            FaultPlan {
                loss: Some(LossSpec {
                    prob: 0.03 + u(3) * 0.12,
                    seed: rng::mix(seed ^ (i as u64) << 1),
                }),
                delay: Some(DelaySpec {
                    factor: 1.5 + u(5) * 2.0,
                    from,
                    until: from + t * (0.1 + u(6) * 0.3),
                }),
                ..crash_recover(victim(1), at, at + t * (0.05 + u(2) * 0.3))
            }
        }
        7 => {
            // Three contiguous segments; every cross-segment link is cut
            // both ways, then all heal at once.
            let s1 = (p / 3).max(1);
            let s2 = (2 * p / 3).max(s1 + 1);
            let seg = |m: usize| usize::from(m >= s1) + usize::from(m >= s2);
            let start = t * (0.1 + u(0) * 0.3);
            let heal = start + t * (0.1 + u(1) * 0.3);
            let partitions = (0..p)
                .flat_map(|a| (0..p).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && seg(a) != seg(b))
                .map(|(from, to)| PartitionSpec {
                    from,
                    to,
                    start,
                    heal,
                })
                .collect();
            FaultPlan {
                partitions,
                ..FaultPlan::default()
            }
        }
        _ => {
            // Churn: every processor crashes and recovers twice, in
            // staggered short outages, so survivors always exist.
            let mut plan = FaultPlan::default();
            for cycle in 0..2u64 {
                for m in 0..p {
                    let at = t
                        * (0.08
                            + 0.38 * cycle as f64
                            + 0.30 * m as f64 / p as f64
                            + 0.02 * u(cycle << 1 | 1));
                    plan.crashes.push(CrashSpec { proc: m, at });
                    plan.recoveries.push(RecoverSpec {
                        proc: m,
                        at: at + t * (0.02 + 0.02 * u(cycle << 1)),
                    });
                }
            }
            plan
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_bench::{
        mxm_experiment_with, trfd_experiment_with, trfd_loop_experiment_with, TrfdLoop, LOAD_SEED,
    };
    use dlb_model::DecisionReport;
    use now_serve::{MemoConfig, ServeConfig};
    use std::collections::BTreeSet;

    fn server() -> RunServer {
        RunServer::new(ServeConfig::new(1, MemoConfig::memory_only()))
    }

    /// At the default seed the paper grid submits exactly the specs, memo
    /// keys and model inputs of the figure and table functions.
    #[test]
    fn default_seed_matches_the_experiment_functions() {
        let s = server();
        let mut decisions: Vec<DecisionReport> = Vec::new();
        let mut totals: Vec<Vec<f64>> = Vec::new();
        for p in [4, 16] {
            for cfg in MxmConfig::paper_configs(p) {
                decisions.extend(mxm_experiment_with(&s, p, cfg).decisions);
            }
        }
        for p in [4, 16] {
            for cfg in TrfdConfig::paper_configs() {
                totals.push(
                    trfd_experiment_with(&s, p, cfg)
                        .rows
                        .iter()
                        .map(|r| r.1)
                        .collect(),
                );
            }
        }
        for p in [4, 16] {
            for which in [TrfdLoop::L1, TrfdLoop::L2] {
                for cfg in TrfdConfig::paper_configs() {
                    decisions.extend(trfd_loop_experiment_with(&s, p, cfg, which).decisions);
                }
            }
        }
        let before = s.stats();
        let entries = s.memo_len();

        let w = generate(Kind::PaperGrid, LOAD_SEED, &mut Tracer::new(false), &s);
        let keys: BTreeSet<u64> = w.specs().map(|spec| spec.memo_key().0).collect();
        assert_eq!(keys.len(), entries, "same number of distinct memo keys");
        // Every generated spec is already memoized: the key sets are equal.
        let mut client = s.client();
        let mut reports = Vec::new();
        for spec in w.specs() {
            client.submit(spec);
            reports.push(client.recv());
        }
        let after = s.stats();
        assert_eq!(
            after.simulations, before.simulations,
            "no generated spec is new"
        );
        assert_eq!(after.misses, before.misses);

        // The model decisions and the TRFD totals agree too. Figs. 5-6 and
        // Table 1 share cells; compare Table 1 and Table 2 in their order.
        let grid = |name: &str| w.grids.iter().find(|g| g.name == name).unwrap();
        let ours: Vec<DecisionReport> = ["table1", "table2"]
            .iter()
            .flat_map(|g| &grid(g).cells)
            .flat_map(|c| {
                let d = c.decide.as_ref().unwrap();
                d.clusters
                    .iter()
                    .map(|cl| {
                        dlb_model::choose_strategy(
                            &crate::bench::system_for(cl),
                            d.model.as_ref(),
                            d.k,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(ours, decisions);
        let mut ours_totals = Vec::new();
        for g in ["fig7", "fig8"] {
            for cell in &grid(g).cells {
                let first = w
                    .specs()
                    .position(|s| std::ptr::eq(s, &cell.specs[0]))
                    .unwrap();
                let cell_reports = &reports[first..first + cell.specs.len()];
                ours_totals.push(cell.splice.as_ref().unwrap().rows(cell_reports));
            }
        }
        assert_eq!(ours_totals, totals);
    }

    #[test]
    fn seeds_change_the_inputs_but_not_their_shape() {
        let s = server();
        let a = generate(Kind::Chaos, 1, &mut Tracer::new(false), &s);
        let b = generate(Kind::Chaos, 2, &mut Tracer::new(false), &s);
        let a2 = generate(Kind::Chaos, 1, &mut Tracer::new(false), &s);
        let keys = |w: &Workload| w.specs().map(|x| x.memo_key().0).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&a2), "same seed, same specs");
        assert_ne!(keys(&a), keys(&b));
        assert_eq!(keys(&a).len(), CHAOS_PLANS * 6);
        let lp = generate(Kind::LargeP, 3, &mut Tracer::new(false), &s);
        assert_eq!(lp.specs().count(), 5);
        assert!(lp.specs().all(|x| x.cluster.processors() == LARGE_P));
    }
}
