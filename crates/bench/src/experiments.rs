//! Shared experiment definitions: the exact configurations of Figs. 5–8
//! and Tables 1–2, run on the simulated NOW and through the analytic
//! model.
//!
//! Each cell is averaged over [`REPLICAS`] independently-seeded load
//! realizations (the external load is random; a single draw makes the
//! strategy ordering noisy — the paper's bars are likewise averages of
//! repeated runs).

use dlb_apps::{ops_to_seconds, MxmConfig, TrfdConfig};
use dlb_core::work::LoopWorkload;
use dlb_core::{IndexedLoop, Strategy, StrategyConfig};
use dlb_model::{choose_strategy, DecisionReport, SystemModel};
use now_serve::{RunKind, RunServer, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, StrategySweep};
use serde::{Deserialize, Serialize};

/// Base seed for the external load streams (fixed: all experiments are
/// deterministic).
pub const LOAD_SEED: u64 = 0x1996_0802;

/// Independently-seeded load realizations averaged per cell.
pub const REPLICAS: u64 = 5;

/// Fallback duration of persistence `t_l` (seconds), used when no
/// workload is available to scale against.
pub const LOAD_PERSISTENCE: f64 = 5.0;

/// Load epochs per balanced run. The paper does not report its `t_l`; its
/// load function (Fig. 2) changes several times within a run — the
/// *transient* regime its dynamic schemes target. We pick `t_l` so the
/// ideally-balanced execution spans about this many persistence epochs,
/// keeping every experiment in that regime regardless of its absolute
/// length.
pub const EPOCHS_PER_RUN: f64 = 4.0;

/// Expected application-visible speed fraction under the paper's load
/// (`E[1/(ℓ+1)]` for `ℓ` uniform on `0..=5`): `(Σ_{k=1..6} 1/k)/6`.
const MEAN_INVERSE_SLOWDOWN: f64 = 0.408;

/// Reference processor count for the persistence scaling. The paper uses
/// the *same* load function for its 4- and 16-processor experiments, so
/// `t_l` must not depend on `P`; we anchor it to the balanced P=4 run.
pub const PERSISTENCE_REF_PROCS: f64 = 4.0;

/// Persistence `t_l` for a workload: the balanced P=4 makespan estimate
/// divided by [`EPOCHS_PER_RUN`]. Independent of the processor count a
/// particular experiment uses.
pub fn persistence_for(workload: &dyn LoopWorkload) -> f64 {
    let total_work = workload.range_cost(0, workload.iterations());
    let balanced = total_work / (PERSISTENCE_REF_PROCS * MEAN_INVERSE_SLOWDOWN);
    (balanced / EPOCHS_PER_RUN).max(1e-3)
}

/// One experiment cell: a workload on a cluster, swept over noDLB + the
/// four strategies across [`REPLICAS`] load draws, plus the model's
/// predictions for the same draws.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Figure label for the x-axis (e.g. `R=400,C=400,R2=400`).
    pub label: String,
    pub processors: usize,
    pub group_size: usize,
    /// Per-replica simulated sweeps.
    pub sweeps: Vec<StrategySweep>,
    /// Per-replica model decisions.
    pub decisions: Vec<DecisionReport>,
}

impl ExperimentResult {
    /// Mean normalized execution time per bar, `("noDLB", 1.0)` first then
    /// the four strategies in paper order — the figures' y-values.
    pub fn mean_normalized(&self) -> Vec<(&'static str, f64)> {
        let mut rows = vec![("noDLB", 1.0)];
        for s in Strategy::ALL {
            let mean = self
                .sweeps
                .iter()
                .map(|sw| sw.report_for(s).normalized_to(&sw.no_dlb))
                .sum::<f64>()
                / self.sweeps.len() as f64;
            rows.push((s.abbrev(), mean));
        }
        rows
    }

    /// Mean absolute noDLB time (for context columns).
    pub fn mean_no_dlb_time(&self) -> f64 {
        self.sweeps.iter().map(|s| s.no_dlb.total_time).sum::<f64>() / self.sweeps.len() as f64
    }

    /// Actual best-first order by mean normalized time (Tables 1–2
    /// "Actual").
    pub fn actual_order(&self) -> Vec<Strategy> {
        rank_by(|s| {
            self.sweeps
                .iter()
                .map(|sw| sw.report_for(s).normalized_to(&sw.no_dlb))
                .sum::<f64>()
                / self.sweeps.len() as f64
        })
    }

    /// Predicted best-first order by mean predicted normalized time
    /// (Tables 1–2 "Predicted").
    pub fn predicted_order(&self) -> Vec<Strategy> {
        rank_by(|s| {
            self.decisions
                .iter()
                .map(|d| {
                    let p = d
                        .predictions
                        .iter()
                        .find(|p| p.strategy == s)
                        .expect("all strategies predicted");
                    p.total_time / d.no_dlb_time
                })
                .sum::<f64>()
                / self.decisions.len() as f64
        })
    }
}

/// Rank strategies best-first by a score, ties broken in paper order.
fn rank_by(score: impl Fn(Strategy) -> f64) -> Vec<Strategy> {
    let mut v: Vec<(Strategy, f64)> = Strategy::ALL.iter().map(|&s| (s, score(s))).collect();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    v.into_iter().map(|(s, _)| s).collect()
}

/// The paper's group count for the local schemes: two groups, i.e.
/// `K = P/2` (2 and 8 for P = 4 and 16).
pub fn paper_group_size(p: usize) -> usize {
    (p / 2).max(1)
}

fn paper_cluster(p: usize, salt: u64, replica: u64, workload: &dyn LoopWorkload) -> ClusterSpec {
    ClusterSpec::paper_homogeneous(
        p,
        LOAD_SEED ^ salt ^ (replica.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        persistence_for(workload),
    )
}

fn system_for(cluster: &ClusterSpec) -> SystemModel {
    SystemModel::from_specs(cluster.speeds.clone(), &cluster.loads, cluster.net)
}

fn run_cell_on(
    server: &RunServer,
    label: String,
    p: usize,
    salt: u64,
    workload: &WorkloadSpec,
) -> ExperimentResult {
    // The engine side of each run is described by `workload` and executed
    // by the server (memoized, deduplicated, possibly on other threads).
    // The model side needs a concrete workload to probe; non-uniform ones
    // get a prefix-sum cost index so its per-processor `range_cost`
    // probes are O(1). Indexing changes no probed value, so decisions
    // match the unindexed model bit for bit.
    let built = workload.build();
    let indexed;
    let model_wl: &dyn LoopWorkload = if built.is_uniform() {
        built.as_ref()
    } else {
        indexed = IndexedLoop::new(built.as_ref());
        &indexed
    };

    let k = paper_group_size(p);
    let clusters: Vec<ClusterSpec> = (0..REPLICAS)
        .map(|replica| paper_cluster(p, salt, replica, model_wl))
        .collect();

    // Pipeline: submit every simulation up front, then compute the model
    // decisions locally while the server's workers chew on the grid.
    // Responses come back in submit order, so reassembly is positional —
    // exactly the serial loop's output.
    let mut client = server.client();
    for cluster in &clusters {
        client.submit(&RunSpec::new(
            workload.clone(),
            cluster.clone(),
            RunKind::NoDlb,
        ));
        for &s in Strategy::ALL.iter() {
            client.submit(&RunSpec::new(
                workload.clone(),
                cluster.clone(),
                RunKind::Dlb {
                    cfg: StrategyConfig::paper(s, k),
                },
            ));
        }
    }
    let decisions: Vec<DecisionReport> = clusters
        .iter()
        .map(|cluster| choose_strategy(&system_for(cluster), model_wl, k))
        .collect();

    let mut sweeps = Vec::with_capacity(REPLICAS as usize);
    for _ in 0..REPLICAS {
        let no_dlb = client.recv();
        let strategies = Strategy::ALL.iter().map(|_| client.recv()).collect();
        sweeps.push(StrategySweep { no_dlb, strategies });
    }

    ExperimentResult {
        label,
        processors: p,
        group_size: k,
        sweeps,
        decisions,
    }
}

/// Run one MXM cell (Figs. 5/6, Table 1 rows) on the process-wide server.
pub fn mxm_experiment(p: usize, cfg: MxmConfig) -> ExperimentResult {
    mxm_experiment_with(now_serve::global(), p, cfg)
}

/// [`mxm_experiment`] on an explicit server (a fresh one per check,
/// sized pools for benchmarks). Output is identical for every server
/// configuration.
pub fn mxm_experiment_with(server: &RunServer, p: usize, cfg: MxmConfig) -> ExperimentResult {
    run_cell_on(
        server,
        cfg.label(),
        p,
        cfg.r ^ (cfg.c << 16),
        &WorkloadSpec::mxm(cfg),
    )
}

/// Which TRFD loop nest an experiment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrfdLoop {
    /// The uniform first loop.
    L1,
    /// The bitonic-folded second loop.
    L2,
}

impl TrfdLoop {
    pub fn label(&self) -> &'static str {
        match self {
            TrfdLoop::L1 => "L1",
            TrfdLoop::L2 => "L2",
        }
    }
}

/// Run one TRFD loop nest as its own experiment (the loops are balanced
/// independently; Table 2 reports them separately).
pub fn trfd_loop_experiment(p: usize, cfg: TrfdConfig, which: TrfdLoop) -> ExperimentResult {
    trfd_loop_experiment_with(now_serve::global(), p, cfg, which)
}

/// [`trfd_loop_experiment`] on an explicit server.
pub fn trfd_loop_experiment_with(
    server: &RunServer,
    p: usize,
    cfg: TrfdConfig,
    which: TrfdLoop,
) -> ExperimentResult {
    let salt = cfg.n ^ (((which == TrfdLoop::L2) as u64) << 32);
    let label = format!("{} {}", cfg.label(), which.label());
    let workload = match which {
        TrfdLoop::L1 => WorkloadSpec::TrfdL1 { n: cfg.n },
        TrfdLoop::L2 => WorkloadSpec::TrfdL2 { n: cfg.n },
    };
    run_cell_on(server, label, p, salt, &workload)
}

/// Total TRFD program times (Figs. 7/8): loop 1 + sequential transpose on
/// the master + loop 2, per strategy, normalized to the noDLB total,
/// averaged over replicas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrfdTotals {
    pub label: String,
    pub processors: usize,
    /// `(label, mean normalized total)` rows: noDLB first, then the four
    /// strategies.
    pub rows: Vec<(String, f64)>,
}

/// Run the whole TRFD program for Figs. 7/8 on the process-wide server.
pub fn trfd_experiment(p: usize, cfg: TrfdConfig) -> TrfdTotals {
    trfd_experiment_with(now_serve::global(), p, cfg)
}

/// [`trfd_experiment`] on an explicit server: the 2 loops × 5 runs ×
/// [`REPLICAS`] grid is submitted up front; the transpose splice and
/// normalization fold back serially in replica order, so totals match
/// the serial run bit for bit.
pub fn trfd_experiment_with(server: &RunServer, p: usize, cfg: TrfdConfig) -> TrfdTotals {
    let wl1 = cfg.loop1_workload();
    let loops = [
        WorkloadSpec::TrfdL1 { n: cfg.n },
        WorkloadSpec::TrfdL2 { n: cfg.n },
    ];
    let k = paper_group_size(p);
    let clusters: Vec<ClusterSpec> = (0..REPLICAS)
        .map(|replica| paper_cluster(p, cfg.n, replica, &wl1))
        .collect();

    // Grid: for each replica, loop 1 then loop 2, each as noDLB + the four
    // strategies — 10 independent engine runs per replica.
    let runs_per_loop = 1 + Strategy::ALL.len();
    let per_replica = 2 * runs_per_loop;
    let mut client = server.client();
    for cluster in &clusters {
        for wl in &loops {
            client.submit(&RunSpec::new(wl.clone(), cluster.clone(), RunKind::NoDlb));
            for &s in Strategy::ALL.iter() {
                client.submit(&RunSpec::new(
                    wl.clone(),
                    cluster.clone(),
                    RunKind::Dlb {
                        cfg: StrategyConfig::paper(s, k),
                    },
                ));
            }
        }
    }
    let reports: Vec<_> = (0..REPLICAS as usize * per_replica)
        .map(|_| client.recv())
        .collect();

    let mut sums = vec![0.0f64; Strategy::ALL.len()];
    for (replica, chunk) in reports.chunks(per_replica).enumerate() {
        let (l1, l2) = chunk.split_at(runs_per_loop);
        let cluster = &clusters[replica];

        // Sequential transpose at the master between the loops: msize²
        // swaps (~2 basic ops each) executed under the master's external
        // load, starting where loop 1 left off.
        let clocks = cluster.clocks();
        let transpose_work = ops_to_seconds(2.0 * (cfg.msize() * cfg.msize()) as f64);
        let total = |t1: f64, t2: f64| {
            let tr = clocks[cluster.master].finish_time(t1, transpose_work) - t1;
            t1 + tr + t2
        };
        let no_dlb_total = total(l1[0].total_time, l2[0].total_time);
        for i in 0..Strategy::ALL.len() {
            let t = total(l1[i + 1].total_time, l2[i + 1].total_time);
            sums[i] += t / no_dlb_total;
        }
    }
    let mut rows = vec![("noDLB".to_string(), 1.0)];
    for (i, s) in Strategy::ALL.iter().enumerate() {
        rows.push((s.abbrev().to_string(), sums[i] / REPLICAS as f64));
    }
    TrfdTotals {
        label: cfg.label(),
        processors: p,
        rows,
    }
}

/// Sanity helper shared by tests: every strategy run completed the whole
/// loop in every replica.
pub fn assert_work_conserved(result: &ExperimentResult, workload: &dyn LoopWorkload) {
    let want = workload.iterations();
    for sweep in &result.sweeps {
        assert_eq!(sweep.no_dlb.total_iters, want);
        for r in &sweep.strategies {
            assert_eq!(r.total_iters, want, "{} lost iterations", r.label());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_group_sizes() {
        assert_eq!(paper_group_size(4), 2);
        assert_eq!(paper_group_size(16), 8);
        assert_eq!(paper_group_size(1), 1);
    }

    #[test]
    fn persistence_scales_with_work_not_processors() {
        let small = MxmConfig::new(100, 400, 400).workload();
        let big = MxmConfig::new(400, 400, 400).workload();
        assert!(persistence_for(&big) > persistence_for(&small));
    }

    #[test]
    fn small_mxm_cell_runs_and_conserves_work() {
        // A scaled-down cell to keep unit tests fast; the real sizes run
        // in the binaries and integration tests.
        let cfg = MxmConfig::new(100, 400, 400);
        let result = mxm_experiment(4, cfg);
        assert_work_conserved(&result, &cfg.workload());
        assert_eq!(result.actual_order().len(), 4);
        assert_eq!(result.predicted_order().len(), 4);
        assert_eq!(result.sweeps.len(), REPLICAS as usize);
        let rows = result.mean_normalized();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0], ("noDLB", 1.0));
    }

    #[test]
    fn trfd_loop_experiments_run() {
        let cfg = TrfdConfig::new(10); // msize = 55, quick
        for which in [TrfdLoop::L1, TrfdLoop::L2] {
            let r = trfd_loop_experiment(4, cfg, which);
            assert_eq!(r.sweeps.len(), REPLICAS as usize);
        }
    }

    #[test]
    fn trfd_totals_have_five_rows() {
        let t = trfd_experiment(4, TrfdConfig::new(10));
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0].1, 1.0);
    }
}
