//! One benchmark run: set-up, timed rounds, correctness gate, and (traced
//! runs only) per-layer probes.
//!
//! Load shape: a closed loop. One client thread submits a cell's runs
//! together, makes the cell's model decisions, then waits for and decodes
//! every report; the next cell starts only after that. Each grid gets a
//! fresh one-worker `RunServer`, so client plus workers fit two cores.
//! A *round* is one pass set over every grid; rounds repeat until the
//! timed phase has lasted `--seconds`.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use dlb_core::Strategy;
use dlb_model::{choose_strategy, SystemModel};
use now_serve::{MemoConfig, MemoStore, RunKind, RunServer, RunSpec, ServeClient, ServeConfig};
use now_serve::{ServeResponse, Served, Tier};
use now_sim::{ClusterSpec, RunReport};

use crate::trace::{Tracer, PROBE_PHASE};
use crate::workload::{generate, Cell, Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Timed rounds per run at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 4;
/// Spec sample size for the direct-execution check and the probes.
const SAMPLE: usize = 48;

/// Progress shared with the watchdog thread.
#[derive(Debug, Default)]
pub struct Progress {
    /// Runs submitted (served) or started (direct).
    pub attempted: AtomicU64,
    /// Runs answered.
    pub done: AtomicU64,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the probes' disk memo and the trace.
    pub out_dir: PathBuf,
}

/// Deterministic work counts of one round. Every round of a run must
/// produce the same counts, and so must every run at the same seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub responses: u64,
    pub report_bytes: u64,
    pub memory_hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub simulations: u64,
    pub memo_entries: u64,
    pub memo_bytes: u64,
    pub events: u64,
    pub compute_events: u64,
    pub protocol_events: u64,
    pub heartbeat_events: u64,
    pub ff_hits: u64,
    pub ff_fallbacks: u64,
    pub ff_foreign: u64,
    pub ff_fault: u64,
    pub ff_delay: u64,
    pub ff_switch: u64,
    pub syncs: u64,
    pub redistributions: u64,
    pub control_messages: u64,
    pub transfer_messages: u64,
    pub iters_moved: u64,
    pub bytes_moved: u64,
    pub model_calls: u64,
    pub detections: u64,
    pub retries: u64,
    pub aborted_episodes: u64,
    pub rejoins: u64,
    pub messages_cut: u64,
    pub adaptive_decisions: u64,
    pub switches: u64,
    pub stale_dropped: u64,
}

impl Counts {
    fn observe(&mut self, resp: &ServeResponse, report: &RunReport) {
        self.responses += 1;
        self.report_bytes += resp.bytes.len() as u64;
        if resp.source == Served::Simulated {
            self.memo_bytes += resp.bytes.len() as u64;
        }
        if let Some(c) = resp.counters {
            self.events += c.events;
            self.compute_events += c.compute_events;
            self.protocol_events += c.protocol_events;
            self.heartbeat_events += c.heartbeat_events;
            self.ff_hits += c.episodes_fast_forwarded;
            self.ff_fallbacks += c.episodes_fallback;
            self.ff_foreign += c.ff_fallback_foreign;
            self.ff_fault += c.ff_fallback_fault;
            self.ff_delay += c.ff_fallback_delay;
            self.ff_switch += c.ff_fallback_switch;
        }
        let s = &report.stats;
        self.syncs += s.syncs;
        self.redistributions += s.redistributions;
        self.control_messages += s.control_messages;
        self.transfer_messages += s.transfer_messages;
        self.iters_moved += s.iters_moved;
        self.bytes_moved += s.bytes_moved;
        if let Some(f) = &report.faults {
            self.detections += f.detections.len() as u64;
            self.retries += f.retries;
            self.aborted_episodes += f.aborted_episodes;
            self.rejoins += f.rejoins.len() as u64;
            self.messages_cut += f.messages_cut;
        }
        if let Some(a) = &report.adaptive {
            self.adaptive_decisions += a.decisions;
            self.switches += a.switches.len() as u64;
            self.stale_dropped += a.stale_dropped;
        }
    }
}

/// Streaming 64-bit FNV-1a, equal to [`now_serve::fnv1a64`] over the
/// concatenation of everything fed to it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// What one round measured.
pub struct Round {
    pub secs: f64,
    pub runs: u64,
    pub cells_ms: Vec<f64>,
    /// FNV-1a of every report byte of the round, in submit order.
    pub digest: u64,
    pub counts: Counts,
    /// Served bytes of the sampled specs, in sample order.
    pub sampled: Vec<Arc<String>>,
    pub traced: bool,
}

/// Correctness bookkeeping: each violation names what failed; `failed`
/// counts the runs (or rounds) it affected.
#[derive(Debug, Default)]
pub struct Gate {
    pub violations: Vec<String>,
    pub failed: u64,
}

impl Gate {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Per-run invariants: iterations conserved, a finite makespan, and
    /// a legal adaptive handover.
    fn check_run(&mut self, report: &RunReport, expected_iters: u64, at: impl Fn() -> String) {
        let per_proc: u64 = report.per_proc.iter().map(|p| p.iters_done).sum();
        let mut bad = Vec::new();
        if report.total_iters != expected_iters || per_proc != expected_iters {
            bad.push(format!(
                "{} of {expected_iters} iterations (per-proc sum {per_proc})",
                report.total_iters
            ));
        }
        if !report.total_time.is_finite() {
            bad.push("non-finite makespan".to_string());
        }
        if let Some(a) = &report.adaptive {
            if a.stale_applied != 0 || a.mid_episode_switches != 0 {
                bad.push(format!(
                    "stale_applied={} mid_episode_switches={}",
                    a.stale_applied, a.mid_episode_switches
                ));
            }
        }
        if !bad.is_empty() {
            self.fail(format!("{}: {}", at(), bad.join(", ")));
        }
    }
}

pub fn system_for(cluster: &ClusterSpec) -> SystemModel {
    SystemModel::from_specs(cluster.speeds.clone(), &cluster.loads, cluster.net)
}

/// Everything a run keeps between its phases.
pub struct Bench<'a> {
    pub opts: &'a Options,
    pub progress: &'a Progress,
    pub tracer: Tracer,
    pub gate: Gate,
    pub workload: Workload,
    /// Indices into [`Workload::specs`].
    pub sample: Vec<usize>,
    pub setup_secs: Vec<f64>,
    pub warm: Round,
    pub rounds: Vec<Round>,
}

/// A fresh memory-tier server with one worker, as each figure binary
/// gets in its own process.
fn one_worker() -> RunServer {
    RunServer::new(ServeConfig::new(1, MemoConfig::memory_only()))
}

/// Every `step`-th spec, with `step` coprime to 30 so the sample cycles
/// through the 5 kinds of a figure cell and the 6 of a chaos plan.
fn sample_indices(n: usize) -> Vec<usize> {
    let mut step = (n / SAMPLE).max(1);
    while step > 1 && [2, 3, 5].iter().any(|&d| step.is_multiple_of(d)) {
        step += 1;
    }
    (0..n).step_by(step).collect()
}

/// Run one cell; returns its latency, its responses and their decoded
/// reports. The latency covers the submits, the model decisions, the
/// waits and decodes, and the TRFD splice — what a figure user waits on —
/// and nothing the benchmark adds.
fn run_cell(
    cell: &Cell,
    client: &mut ServeClient,
    tr: &mut Tracer,
    progress: &Progress,
) -> (f64, Vec<ServeResponse>, Vec<RunReport>) {
    tr.cell += 1;
    let span = tr.open("cell");
    let t0 = Instant::now();
    for spec in &cell.specs {
        tr.time("serve.submit", || client.submit(spec));
    }
    progress
        .attempted
        .fetch_add(cell.specs.len() as u64, Relaxed);
    if let Some(d) = &cell.decide {
        for c in &d.clusters {
            black_box(tr.time("model.choose", || {
                choose_strategy(&system_for(c), d.model.as_ref(), d.k)
            }));
        }
    }
    let mut resps = Vec::with_capacity(cell.specs.len());
    let mut reports = Vec::with_capacity(cell.specs.len());
    for _ in &cell.specs {
        let resp = tr.time("serve.wait", || client.recv_response());
        reports.push(tr.time("serve.decode", || resp.report()));
        resps.push(resp);
        progress.done.fetch_add(1, Relaxed);
    }
    if let Some(s) = &cell.splice {
        black_box(s.rows(&reports));
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.close(span);
    (ms, resps, reports)
}

fn run_round(
    w: &Workload,
    sample: &[usize],
    tr: &mut Tracer,
    gate: &mut Gate,
    progress: &Progress,
) -> Round {
    let sample: BTreeSet<usize> = sample.iter().copied().collect();
    let traced = tr.recording;
    let mut cells_ms = Vec::new();
    let mut counts = Counts::default();
    let mut digest = Fnv::new();
    let mut sampled = Vec::new();
    let mut pos = 0;
    let t0 = Instant::now();
    for grid in &w.grids {
        let server = one_worker();
        let mut client = server.client();
        for (ci, cell) in grid.cells.iter().enumerate() {
            let (ms, resps, reports) = run_cell(cell, &mut client, tr, progress);
            cells_ms.push(ms);
            counts.model_calls += cell.decide.as_ref().map_or(0, |d| d.clusters.len()) as u64;
            for ((resp, report), &want) in resps.iter().zip(&reports).zip(&cell.expected_iters) {
                gate.check_run(report, want, || {
                    format!("{} cell {ci} run {pos}", grid.name)
                });
                counts.observe(resp, report);
                digest.update(resp.bytes.as_bytes());
                if sample.contains(&pos) {
                    sampled.push(Arc::clone(&resp.bytes));
                }
                pos += 1;
            }
        }
        drop(client);
        let st = server.stats();
        counts.memory_hits += st.memory_hits;
        counts.misses += st.misses;
        counts.coalesced += st.coalesced;
        counts.simulations += st.simulations;
        counts.memo_entries += server.memo_len() as u64;
    }
    Round {
        secs: t0.elapsed().as_secs_f64(),
        runs: counts.responses,
        cells_ms,
        digest: digest.finish(),
        counts,
        sampled,
        traced,
    }
}

/// One set-up's result: what the timed phase runs on.
struct Prepared {
    workload: Workload,
    sample: Vec<usize>,
    warm: Round,
}

impl<'a> Bench<'a> {
    /// Set up [`SETUPS`] times (server spawn, input generation, warm-up
    /// round) and keep the last set-up's state.
    pub fn setup(opts: &'a Options, progress: &'a Progress) -> Self {
        let mut tracer = Tracer::new(opts.trace);
        let mut gate = Gate::default();
        let mut setup_secs = Vec::new();
        let mut last: Option<Prepared> = None;
        for _ in 0..SETUPS {
            let span = tracer.open("setup");
            let t0 = Instant::now();
            let server = one_worker();
            let workload = generate(opts.kind, opts.seed, &mut tracer, &server);
            drop(server);
            tracer.close(span);
            let n = workload.specs().count();
            let sample = sample_indices(n);
            // The warm-up round runs untraced, like every timed round the
            // end-to-end numbers come from.
            let rec = std::mem::replace(&mut tracer.recording, false);
            let warm = run_round(&workload, &sample, &mut tracer, &mut gate, progress);
            tracer.recording = rec;
            setup_secs.push(t0.elapsed().as_secs_f64());
            last = Some(Prepared {
                workload,
                sample,
                warm,
            });
        }
        let Prepared {
            workload,
            sample,
            warm,
        } = last.expect("SETUPS >= 1");
        Self {
            opts,
            progress,
            tracer,
            gate,
            workload,
            sample,
            setup_secs,
            warm,
            rounds: Vec::new(),
        }
    }

    /// The timed phase. In a traced run every second round records spans,
    /// so traced and untraced rates come from interleaved rounds.
    pub fn timed(&mut self) {
        let t0 = Instant::now();
        loop {
            let i = self.rounds.len() + 1;
            self.tracer.phase = i as u32;
            self.tracer.recording = self.opts.trace && i.is_multiple_of(2);
            let r = run_round(
                &self.workload,
                &self.sample,
                &mut self.tracer,
                &mut self.gate,
                self.progress,
            );
            if r.digest != self.warm.digest {
                self.gate.fail(format!(
                    "round {i}: report bytes differ from the warm-up round"
                ));
            }
            if r.counts != self.warm.counts {
                self.gate.fail(format!(
                    "round {i}: work counts differ from the warm-up round"
                ));
            }
            // Only the last round's sampled bytes are checked; dropping the
            // rest keeps memory flat however many rounds run.
            if let Some(prev) = self.rounds.last_mut() {
                prev.sampled = Vec::new();
            }
            self.rounds.push(r);
            if t0.elapsed().as_secs_f64() >= self.opts.seconds && self.rounds.len() >= MIN_ROUNDS {
                break;
            }
        }
        self.tracer.recording = false;
    }

    /// Direct `RunSpec::execute_counted` of the sampled specs must produce
    /// the served bytes. In a traced run the executions are `sim.execute`
    /// spans; returns each run's direct time (µs) and event count.
    pub fn check_direct(&mut self) -> Vec<(f64, u64)> {
        self.tracer.phase = PROBE_PHASE;
        self.tracer.recording = self.opts.trace;
        let specs: Vec<&RunSpec> = self.workload.specs().collect();
        let served = &self.rounds.last().expect("timed phase ran").sampled;
        let mut out = Vec::new();
        for (&idx, bytes) in self.sample.iter().zip(served) {
            let spec = specs[idx];
            self.progress.attempted.fetch_add(1, Relaxed);
            let tr = &mut self.tracer;
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                tr.time(execute_span(&spec.kind), || spec.execute_counted())
            }));
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.progress.done.fetch_add(1, Relaxed);
            match res {
                Ok((report, counters)) => {
                    let direct = serde_json::to_string(&report).expect("reports serialize");
                    if direct != **bytes {
                        self.gate.fail(format!(
                            "spec {idx}: served bytes differ from direct execute"
                        ));
                    }
                    out.push((us, counters.events));
                }
                Err(_) => self
                    .gate
                    .fail(format!("spec {idx}: direct execute panicked")),
            }
        }
        self.tracer.recording = false;
        out
    }
}

/// Span name of a direct execution, by run kind.
fn execute_span(kind: &RunKind) -> &'static str {
    match kind {
        RunKind::NoDlb => "sim.execute.nodlb",
        RunKind::Dlb { cfg } => match cfg.strategy {
            Strategy::Gcdlb => "sim.execute.gcdlb",
            Strategy::Gddlb => "sim.execute.gddlb",
            Strategy::Lcdlb => "sim.execute.lcdlb",
            Strategy::Lddlb => "sim.execute.lddlb",
        },
        RunKind::Adaptive { .. } => "sim.execute.adaptive",
        RunKind::Periodic { .. } | RunKind::TaskQueue { .. } => "sim.execute.other",
    }
}

impl Bench<'_> {
    /// Time, on the workload's own inputs, the public functions that run
    /// inside another layer's call or only in set-up: the memo key (inside
    /// `submit`), a served run against its direct execution, the disk
    /// memo's write and read, and the model decision where the workload's
    /// cells make none. `direct` is [`Bench::check_direct`]'s output.
    /// Returns the mean served latency minus direct execution time (µs)
    /// of the sampled runs.
    pub fn probes(&mut self, direct: &[(f64, u64)]) -> f64 {
        self.tracer.phase = PROBE_PHASE;
        self.tracer.recording = true;
        let tr = &mut self.tracer;
        let specs: Vec<&RunSpec> = self.workload.specs().collect();
        tr.cell += 1;
        let span = tr.open("probe");
        for spec in &specs {
            black_box(tr.time("serve.key", || spec.memo_key()));
        }
        tr.close(span);

        // One request at a time on a fresh server.
        let server = one_worker();
        let mut client = server.client();
        let mut overhead = Vec::new();
        for (&idx, &(direct_us, _)) in self.sample.iter().zip(direct) {
            self.progress.attempted.fetch_add(1, Relaxed);
            let t0 = Instant::now();
            tr.time("serve.call", || {
                client.submit(specs[idx]);
                black_box(client.recv_response());
            });
            overhead.push(t0.elapsed().as_secs_f64() * 1e6 - direct_us);
            self.progress.done.fetch_add(1, Relaxed);
        }
        drop(client);
        drop(server);

        // The disk tier's write and read of sampled reports.
        let dir = self
            .opts
            .out_dir
            .join(format!("probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let served = &self.rounds.last().expect("timed phase ran").sampled;
        let writer = MemoStore::new(MemoConfig::disk(&dir));
        let reader = MemoStore::new(MemoConfig::disk(&dir));
        for (&idx, bytes) in self.sample.iter().zip(served) {
            let key = specs[idx].memo_key();
            tr.time("memo.put_disk", || writer.put_disk(key, bytes));
            match tr.time("memo.disk_get", || reader.get(key)) {
                Some((got, Tier::Disk)) if got == *bytes => {}
                _ => self
                    .gate
                    .fail(format!("spec {idx}: disk memo did not return its bytes")),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        // The model decision on this workload's own cluster and loop.
        let has_decide = self
            .workload
            .grids
            .iter()
            .any(|g| g.cells.iter().any(|c| c.decide.is_some()));
        if !has_decide {
            let spec = specs[0];
            let wl = tr.time("apps.build", || spec.workload.build());
            black_box(tr.time("model.choose", || {
                choose_strategy(&system_for(&spec.cluster), wl.as_ref(), 8)
            }));
        }
        self.tracer.recording = false;
        crate::stats::mean(&overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_fnv_matches_the_memo_hash() {
        let mut h = Fnv::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), now_serve::fnv1a64(b"foobar"));
    }

    #[test]
    fn sample_cycles_through_run_kinds() {
        let s = sample_indices(1000);
        assert!(s.len() <= SAMPLE + 1 && s.len() >= SAMPLE / 2);
        let kinds5: BTreeSet<usize> = s.iter().map(|i| i % 5).collect();
        let kinds6: BTreeSet<usize> = sample_indices(108).iter().map(|i| i % 6).collect();
        assert_eq!((kinds5.len(), kinds6.len()), (5, 6));
        assert_eq!(sample_indices(5), vec![0, 1, 2, 3, 4]);
    }
}
