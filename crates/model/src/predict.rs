//! The recurrence solver: predicted total cost per strategy.

use crate::system::SystemModel;
use dlb_core::balance::{balance_group, BalanceVerdict};
use dlb_core::profile::PerfProfile;
use dlb_core::strategy::{Control, Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use now_load::WorkClock;
use now_net::Pattern;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Safety cap on modeled synchronizations per group; the recurrences
/// provably terminate (each round retires the first finisher's whole
/// assignment), so hitting this indicates a bug.
const MAX_SYNCS: u64 = 100_000;

/// Wire sizes mirrored from the runtime protocol.
const INSTRUCTION_BYTES: usize = 24;
const WORK_HEADER_BYTES: usize = 16;

/// The model's verdict for one strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    pub strategy: Strategy,
    /// Predicted total execution time `TC`, seconds.
    pub total_time: f64,
    /// Predicted number of synchronization points `τ` (summed over groups).
    pub syncs: u64,
    /// Predicted iterations moved (`Σ_j δ(j)`, summed over groups).
    pub iters_moved: u64,
    /// Predicted load-balancing overhead (σ, ξ, ι, Φ, delay), seconds,
    /// summed over groups.
    pub overhead: f64,
}

/// Predict the no-DLB baseline: static equal blocks run to completion
/// under the known load functions.
pub fn predict_no_dlb(system: &SystemModel, workload: &dyn LoopWorkload) -> f64 {
    let p = system.processors();
    let dist = dlb_core::Distribution::equal_block(workload.iterations(), p);
    let clocks = system.clocks();
    let mut start = 0u64;
    let mut end = 0.0f64;
    for (i, clock) in clocks.iter().enumerate() {
        let c = dist.count(i);
        let work = workload.range_cost(start, start + c);
        start += c;
        end = end.max(clock.finish_time(0.0, work));
    }
    end
}

/// Predict one strategy's total cost on the described system.
pub fn predict(
    system: &SystemModel,
    workload: &dyn LoopWorkload,
    strategy: Strategy,
    group_size: usize,
) -> Prediction {
    let cfg = StrategyConfig::paper(strategy, group_size);
    cfg.validate();
    let p = system.processors();
    let groups = cfg.groups(p);
    let initial = dlb_core::Distribution::equal_block(workload.iterations(), p);

    // Synchronization cost σ per episode (Section 4.2): the communication
    // pattern costs come from the fitted polynomials.
    let sigma = |n: usize| match strategy.control() {
        Control::Centralized => {
            system.comm.cost(Pattern::OneToAll, n) + system.comm.cost(Pattern::AllToOne, n)
        }
        Control::Distributed => {
            system.comm.cost(Pattern::OneToAll, n) + system.comm.cost(Pattern::AllToAll, n)
        }
    };

    // LCDLB delay factor: with G groups sharing the single balancer, an
    // episode waits on average behind (G-1)/2 other groups, each costing a
    // calculation plus an instruction send.
    let extra_delay = if strategy == Strategy::Lcdlb && groups.len() > 1 {
        (groups.len() - 1) as f64 / 2.0
            * (system.calc_cost + system.comm.point_to_point(INSTRUCTION_BYTES))
    } else {
        0.0
    };

    let clocks = system.clocks();
    let mut total_time = 0.0f64;
    let mut syncs = 0;
    let mut iters_moved = 0;
    let mut overhead = 0.0;

    // Assign the initial contiguous blocks, then evolve each group
    // independently (the local schemes never exchange work across groups).
    let block_starts: Vec<u64> = {
        let mut starts = Vec::with_capacity(p);
        let mut s = 0u64;
        for i in 0..p {
            starts.push(s);
            s += initial.count(i);
        }
        starts
    };

    for members in &groups {
        let counts: Vec<u64> = members.iter().map(|&m| initial.count(m)).collect();
        // Mean iteration cost of the group's share (exact for uniform
        // loops; the model's approximation for non-uniform ones).
        let group_work: f64 = members
            .iter()
            .map(|&m| workload.range_cost(block_starts[m], block_starts[m] + initial.count(m)))
            .sum();
        let group_iters: u64 = counts.iter().sum();
        if group_iters == 0 {
            continue;
        }
        let mean_cost = group_work / group_iters as f64;
        let g = predict_group(
            system,
            &cfg,
            members,
            counts,
            &clocks,
            mean_cost,
            workload.bytes_per_iter(),
            sigma(members.len()),
            extra_delay,
        );
        total_time = total_time.max(g.finish);
        syncs += g.syncs;
        iters_moved += g.moved;
        overhead += g.overhead;
    }

    Prediction {
        strategy,
        total_time,
        syncs,
        iters_moved,
        overhead,
    }
}

/// Predict all four strategies.
pub fn predict_all(
    system: &SystemModel,
    workload: &dyn LoopWorkload,
    group_size: usize,
) -> Vec<Prediction> {
    Strategy::ALL
        .iter()
        .map(|&s| predict(system, workload, s, group_size))
        .collect()
}

struct GroupPrediction {
    finish: f64,
    syncs: u64,
    moved: u64,
    overhead: f64,
}

#[allow(clippy::too_many_arguments)]
fn predict_group(
    system: &SystemModel,
    cfg: &StrategyConfig,
    members: &[usize],
    mut counts: Vec<u64>,
    clocks: &[WorkClock],
    mean_cost: f64,
    bytes_per_iter: u64,
    sigma: f64,
    extra_delay: f64,
) -> GroupPrediction {
    let mut alive: Vec<usize> = (0..members.len()).filter(|&i| counts[i] > 0).collect();
    // Processor → its index in `members`, for locating transfer targets.
    let member_index: HashMap<usize, usize> =
        members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    // Per-member availability: when each member resumed computing after
    // the previous synchronization. Receivers resume later than donors and
    // bystanders because they additionally wait for the data movement —
    // mirroring the protocol, where only receivers block on shipments.
    let mut avail = vec![0.0f64; members.len()];
    let mut end = 0.0f64;
    let mut syncs = 0u64;
    let mut moved = 0u64;
    let mut overhead = 0.0f64;
    let net = &system.comm.params;

    for round in 0.. {
        assert!(round < MAX_SYNCS, "model recurrence failed to terminate");
        if alive.is_empty() {
            break;
        }
        // Finish times of the current assignment.
        let finishes: Vec<f64> = alive
            .iter()
            .map(|&i| clocks[members[i]].finish_time(avail[i], counts[i] as f64 * mean_cost))
            .collect();
        if alive.len() == 1 {
            end = end.max(finishes[0]);
            break;
        }
        let (fidx, &tj) = finishes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty alive set");

        // Iterations done by each member when the first finisher triggers
        // the synchronization (eq. 1 / eq. 2).
        let mut profiles = Vec::with_capacity(alive.len());
        let mut all_done = true;
        for (k, &i) in alive.iter().enumerate() {
            let done = if k == fidx {
                counts[i]
            } else if avail[i] >= tj {
                0
            } else {
                let w = clocks[members[i]].work_in_window(avail[i], tj);
                ((w / mean_cost + 1e-9).floor() as u64).min(counts[i])
            };
            let beta = counts[i] - done;
            if beta > 0 {
                all_done = false;
            }
            profiles.push(PerfProfile {
                proc: members[i],
                iters_done: done,
                elapsed: (tj - avail[i]).max(0.0),
                remaining: beta,
            });
        }
        if all_done {
            end = end.max(tj);
            break;
        }

        // The model reuses the runtime balancer verbatim (threshold,
        // profitability, new distribution, transfer plan).
        let outcome = balance_group(&profiles, cfg, |m| {
            net.latency() + m as f64 * bytes_per_iter as f64 / net.bandwidth
        });
        syncs += 1;

        // Control phase, paid by every member: σ + ξ (+ the LCDLB delay)
        // + ι(j) (centralized instruction sends).
        let mut ctl = sigma + system.calc_cost + extra_delay;
        if outcome.verdict == BalanceVerdict::Move && cfg.strategy.control() == Control::Centralized
        {
            ctl += outcome.transfers.len() as f64 * system.comm.point_to_point(INSTRUCTION_BYTES);
        }
        let t_ctl = tj + ctl;
        overhead += ctl;

        // Data movement Φ(j) (eq. 5): the moved bytes serialize on the
        // wire; each *receiver* additionally waits for its own incoming
        // shipments, while donors and bystanders resume at t_ctl.
        let mut resume = vec![t_ctl; members.len()];
        if outcome.verdict == BalanceVerdict::Move {
            moved += outcome.moved;
            for t in &outcome.transfers {
                resume[member_index[&t.to]] += system.comm.point_to_point(WORK_HEADER_BYTES)
                    + t.iters as f64 * bytes_per_iter as f64 / net.bandwidth;
            }
            for &i in &alive {
                overhead += resume[i] - t_ctl;
            }
        }

        // Install the new (or unchanged) assignment and drop drained
        // members — they leave the computation as in the runtime.
        for (k, &i) in alive.iter().enumerate() {
            let (_, alpha) = outcome.new_counts[k];
            debug_assert_eq!(outcome.new_counts[k].0, members[i]);
            counts[i] = alpha;
            avail[i] = resume[i];
        }
        end = end.max(tj);
        alive.retain(|&i| counts[i] > 0);
    }

    GroupPrediction {
        finish: end,
        syncs,
        moved,
        overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::work::UniformLoop;
    use now_load::LoadSpec;
    use now_net::NetworkParams;

    fn system(p: usize, loads: Vec<LoadSpec>) -> SystemModel {
        SystemModel::from_specs(vec![1.0; p], &loads, NetworkParams::paper_ethernet())
    }

    fn dedicated(p: usize) -> SystemModel {
        system(p, vec![LoadSpec::Zero; p])
    }

    fn paper_loads(p: usize, seed: u64, persistence: f64) -> SystemModel {
        system(
            p,
            (0..p)
                .map(|i| LoadSpec::paper_for_processor(seed, i, persistence))
                .collect(),
        )
    }

    #[test]
    fn no_dlb_prediction_exact_on_dedicated_cluster() {
        let sys = dedicated(4);
        let wl = UniformLoop::new(100, 0.01, 800);
        let t = predict_no_dlb(&sys, &wl);
        assert!((t - 0.25).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn dedicated_cluster_needs_no_movement() {
        let sys = dedicated(4);
        let wl = UniformLoop::new(400, 0.01, 800);
        for s in Strategy::ALL {
            let p = predict(&sys, &wl, s, 2);
            assert_eq!(p.iters_moved, 0, "{s} moved work on a dedicated cluster");
            // Perfectly balanced: everything ends at the uniform finish.
            assert!((p.total_time - 1.0).abs() < 1e-6, "{s}: {}", p.total_time);
        }
    }

    #[test]
    fn skewed_load_predicts_movement_and_improvement() {
        let mut loads = vec![LoadSpec::Zero; 4];
        loads[3] = LoadSpec::Constant { level: 4 };
        let sys = system(4, loads);
        let wl = UniformLoop::new(400, 0.01, 800);
        let no = predict_no_dlb(&sys, &wl);
        let p = predict(&sys, &wl, Strategy::Gddlb, 2);
        assert!(p.iters_moved > 0);
        assert!(
            p.total_time < no * 0.8,
            "DLB {} vs noDLB {no}",
            p.total_time
        );
    }

    #[test]
    fn predictions_deterministic() {
        let sys = paper_loads(4, 11, 0.5);
        let wl = UniformLoop::new(400, 0.01, 800);
        let a = predict_all(&sys, &wl, 2);
        let b = predict_all(&sys, &wl, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn all_strategies_produce_finite_times_under_random_load() {
        let sys = paper_loads(16, 3, 0.5);
        let wl = UniformLoop::new(1600, 0.01, 800);
        for p in predict_all(&sys, &wl, 8) {
            assert!(p.total_time.is_finite() && p.total_time > 0.0, "{:?}", p);
            assert!(p.syncs < 1000);
        }
    }

    #[test]
    fn lcdlb_pays_delay_factor() {
        // Same local topology, identical parameters: LC bears the extra
        // queueing delay relative to LD on every sync, so with equal
        // sync counts its overhead per sync is at least as large.
        let sys = paper_loads(16, 5, 0.2);
        let wl = UniformLoop::new(1600, 0.005, 800);
        let lc = predict(&sys, &wl, Strategy::Lcdlb, 8);
        let ld = predict(&sys, &wl, Strategy::Lddlb, 8);
        if lc.syncs > 0 && ld.syncs > 0 {
            let lc_per = lc.overhead / lc.syncs as f64;
            // LD pays all-to-all, LC pays all-to-one + delay; both are
            // positive. Just check the delay term is present for LC by
            // reconstructing: per-sync overhead must exceed σ + ξ.
            let sigma_lc =
                sys.comm.cost(Pattern::OneToAll, 8) + sys.comm.cost(Pattern::AllToOne, 8);
            assert!(lc_per > sigma_lc + sys.calc_cost - 1e-12);
        }
    }

    #[test]
    fn global_sync_cost_grows_with_p() {
        // The same workload per processor: GD's all-to-all sync gets
        // relatively more expensive at 16 processors than at 4.
        let sys4 = dedicated(4);
        let sys16 = dedicated(16);
        let s4 = sys4.comm.cost(Pattern::AllToAll, 4);
        let s16 = sys16.comm.cost(Pattern::AllToAll, 16);
        assert!(s16 > s4 * 4.0);
    }

    #[test]
    fn tiny_loop_terminates() {
        let sys = paper_loads(4, 9, 0.1);
        let wl = UniformLoop::new(8, 0.01, 8);
        for s in Strategy::ALL {
            let p = predict(&sys, &wl, s, 2);
            assert!(p.total_time.is_finite());
        }
    }
}
