//! Central-task-queue baselines on the simulated NOW.
//!
//! Executes the Section-2.2 schemes (`dlb_core::loopsched`) against the
//! same cluster, load functions and medium as the DLB strategies: an idle
//! processor sends a request to the master's queue, the reply grants the
//! next chunk (both messages through the FCFS medium, with the usual
//! endpoint load factors), and — unlike shared-memory task queues — each
//! granted iteration's array data must travel with the grant, exactly the
//! penalty that makes naive task queues unattractive on a NOW.

use crate::cluster::ClusterSpec;
use crate::report::{ProcSummary, RunReport};
use dlb_core::loopsched::{ChunkQueue, ChunkScheme};
use dlb_core::work::LoopWorkload;
use dlb_core::DlbStats;
use now_net::medium::EndpointFactors;
use now_net::MediumSim;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const REQUEST_BYTES: usize = 16;
const GRANT_HEADER_BYTES: usize = 24;

#[derive(Debug, PartialEq)]
struct Ev {
    time: f64,
    seq: u64,
    proc: usize,
    kind: EvKind,
}

#[derive(Debug, PartialEq, Eq)]
enum EvKind {
    /// The processor finished its current chunk and its request for the
    /// next one reaches the master now.
    RequestArrives,
    /// The grant (chunk + data) reaches the processor now.
    GrantArrives { start: u64, len: u64 },
}

impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Run `workload` under a central-task-queue `scheme` on `cluster`.
///
/// The master (processor 0 of the cluster) owns the queue and also
/// computes; its queue service costs pass through the medium like any
/// other message.
pub fn run_task_queue(
    cluster: &ClusterSpec,
    workload: &dyn LoopWorkload,
    scheme: ChunkScheme,
) -> RunReport {
    let p = cluster.processors();
    let clocks = cluster.clocks();
    let mut medium = MediumSim::new(cluster.net, p);
    let mut queue = ChunkQueue::new(scheme, workload.iterations(), p);
    let mut next_index = 0u64;
    let master = cluster.master;

    let mut events: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut iters_done = vec![0u64; p];
    let mut work_done = vec![0.0f64; p];
    let mut finished_at = vec![0.0f64; p];
    let mut stats = DlbStats::default();

    // Everyone asks for its first chunk at t = 0 (requests traverse the
    // medium; the master's own request is local).
    for proc in 0..p {
        seq += 1;
        let arrive = if proc == master {
            0.0
        } else {
            let t = medium.send(proc, master, REQUEST_BYTES, 0.0);
            stats.control_messages += 1;
            t.delivered
        };
        events.push(Reverse(Ev {
            time: arrive,
            seq,
            proc,
            kind: EvKind::RequestArrives,
        }));
    }

    let bpi = workload.bytes_per_iter();
    while let Some(Reverse(ev)) = events.pop() {
        let now = ev.time;
        match ev.kind {
            EvKind::RequestArrives => {
                let Some(len) = queue.next_chunk() else {
                    finished_at[ev.proc] = finished_at[ev.proc].max(now);
                    continue;
                };
                let start = next_index;
                next_index += len;
                stats.syncs += 1; // one queue transaction
                let bytes = GRANT_HEADER_BYTES + (len * bpi) as usize;
                let arrive = if ev.proc == master {
                    now
                } else {
                    stats.transfer_messages += 1;
                    stats.bytes_moved += len * bpi;
                    let load = clocks[master].load().slowdown_at(now);
                    let t = medium.send_with_factors(
                        master,
                        ev.proc,
                        bytes,
                        now,
                        EndpointFactors {
                            send: load.max(1.0),
                            recv: 1.0,
                        },
                    );
                    t.delivered
                };
                seq += 1;
                events.push(Reverse(Ev {
                    time: arrive,
                    seq,
                    proc: ev.proc,
                    kind: EvKind::GrantArrives { start, len },
                }));
            }
            EvKind::GrantArrives { start, len } => {
                // Compute the chunk under this processor's load, then
                // request the next one.
                let work = workload.range_cost(start, start + len);
                let done = clocks[ev.proc].finish_time(now, work);
                iters_done[ev.proc] += len;
                work_done[ev.proc] += work;
                finished_at[ev.proc] = done;
                seq += 1;
                let arrive = if ev.proc == master {
                    done
                } else {
                    stats.control_messages += 1;
                    medium.send(ev.proc, master, REQUEST_BYTES, done).delivered
                };
                events.push(Reverse(Ev {
                    time: arrive,
                    seq,
                    proc: ev.proc,
                    kind: EvKind::RequestArrives,
                }));
            }
        }
    }

    let total: u64 = iters_done.iter().sum();
    assert_eq!(total, workload.iterations(), "task queue lost iterations");
    RunReport {
        strategy: None,
        total_time: finished_at.iter().copied().fold(0.0, f64::max),
        stats,
        per_proc: (0..p)
            .map(|i| ProcSummary {
                iters_done: iters_done[i],
                finished_at: finished_at[i],
                work_done: work_done[i],
            })
            .collect(),
        sync_times: Vec::new(),
        total_iters: total,
        faults: None,
        adaptive: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::work::UniformLoop;
    use now_load::LoadSpec;

    #[test]
    fn all_schemes_complete_the_loop() {
        let wl = UniformLoop::new(200, 0.005, 512);
        let cluster = ClusterSpec::paper_homogeneous(4, 5, 0.3);
        for scheme in ChunkScheme::standard_set(200, 4) {
            let r = run_task_queue(&cluster, &wl, scheme);
            assert_eq!(r.total_iters, 200, "{}", scheme.label());
            assert!(r.total_time.is_finite() && r.total_time > 0.0);
        }
    }

    #[test]
    fn self_scheduling_pays_per_iteration_round_trips() {
        let wl = UniformLoop::new(100, 0.001, 64);
        let cluster = ClusterSpec::dedicated(4);
        let ss = run_task_queue(&cluster, &wl, ChunkScheme::SelfScheduling);
        let gss = run_task_queue(&cluster, &wl, ChunkScheme::Guided);
        assert!(ss.stats.syncs > gss.stats.syncs * 5);
        assert!(
            ss.total_time > gss.total_time,
            "SS {} should lose to GSS {} on a NOW",
            ss.total_time,
            gss.total_time
        );
    }

    #[test]
    fn task_queue_balances_a_straggler() {
        let wl = UniformLoop::new(400, 0.01, 512);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[2] = LoadSpec::Constant { level: 5 };
        let r = run_task_queue(&cluster, &wl, ChunkScheme::Guided);
        // The straggler (1/6 speed) must end up with far less than 1/4.
        assert!(
            r.per_proc[2].iters_done < 60,
            "straggler got {} iterations",
            r.per_proc[2].iters_done
        );
    }

    #[test]
    fn deterministic() {
        let wl = UniformLoop::new(150, 0.004, 128);
        let cluster = ClusterSpec::paper_homogeneous(4, 9, 0.2);
        let a = run_task_queue(&cluster, &wl, ChunkScheme::Factoring);
        let b = run_task_queue(&cluster, &wl, ChunkScheme::Factoring);
        assert_eq!(a, b);
    }
}
