//! The run-server: a pool of worker threads behind the two-tier memo,
//! with single-flight deduplication. A client blocked on a reply helps
//! the pool: it runs queued jobs until its own reply is ready.
//!
//! Clients open a [`ServeClient`] and [`submit`](ServeClient::submit)
//! [`RunSpec`]s; responses come back **in request order per client**,
//! each carrying the serialized `RunReport` bytes and where they came
//! from ([`Served`]). The fast path — a memory-tier hit — never crosses
//! a channel: `submit` resolves it inline and queues the bytes on the
//! client, which is what makes warm-hit latency microseconds rather
//! than a thread round-trip.
//!
//! ## Single-flight protocol
//!
//! Concurrent misses on one key must simulate **exactly once**. The
//! invariant is kept by a single mutex over the in-flight table:
//!
//! 1. `submit` misses the memo, locks `inflight`, and re-checks the
//!    memory tier *under the lock* (a worker may have published between
//!    the unlocked probe and the lock).
//! 2. Still absent: if the key is already in flight, push this client's
//!    reply sender onto the waiter list (a *coalesced* request — no
//!    job is queued). Otherwise insert an empty waiter list and queue
//!    one job (the *leader*).
//! 3. The job's runner (a worker, or a waiting client as in step 5)
//!    simulates and serializes outside any lock, writes the disk tier,
//!    then — holding the `inflight` lock — publishes to the memory tier
//!    and removes the waiter list. Publishing and waiter
//!    removal under one critical section means every request either
//!    finds the bytes in the memo or finds the in-flight entry and
//!    joins it; there is no window to start a second simulation.
//! 4. Replies go to the leader and all waiters after the lock drops.
//! 5. A client blocked in [`recv_response`](ServeClient::recv_response)
//!    does not just sleep. While its reply is not ready it takes one job
//!    off the queue (never blocking on the queue lock), runs it through
//!    the same `Shared::execute` the workers run, and checks again; with
//!    the queue empty or locked it blocks on its reply. The job may be
//!    another client's: its replies go to that job's channels, exactly
//!    as if a worker had run it.
//!
//! Per-client order holds whoever runs a job: each submission owns a
//! slot in the client's deque with its own reply channel, and
//! `recv_response` answers slots front to back. The trade-off is
//! latency: a helper finishes the job it took before it looks at its
//! own reply again, so a reply can wait for one other job.
//!
//! A run that panics is caught in `Shared::execute`: its in-flight
//! entry is removed without publishing, neither memo tier is written,
//! and every reply sender of the key is dropped, so each requester's
//! [`try_recv_response`](ServeClient::try_recv_response) returns a
//! [`RunFailed`] naming the memo key (and `recv_response` panics with
//! its message). The thread that ran the job, worker or helping client,
//! keeps serving, and a later submission of the key simulates it
//! afresh.
//!
//! A memo-disabled server (benchmarks timing the engine itself) skips
//! all of this: every submission queues a job with a direct reply
//! channel, so duplicates intentionally simulate again.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::memo::{MemoConfig, MemoStore, Tier};
use crate::spec::{MemoKey, RunSpec};
use now_sim::{EngineCounters, RunReport};

/// Where a response's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Memory-tier memo hit; the engine was not invoked.
    Memory,
    /// Disk-tier memo hit (now promoted to memory); engine not invoked.
    Disk,
    /// This request led the single flight and ran the simulation.
    Simulated,
    /// Another in-flight request for the same key ran the simulation;
    /// this one waited and shares its bytes.
    Coalesced,
}

/// One answer from the server.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Serialized `RunReport` (exactly the bytes in the memo tiers).
    pub bytes: Arc<String>,
    /// Engine heap-event counters — only present when this very
    /// response ran the simulation (`source == Served::Simulated`).
    pub counters: Option<EngineCounters>,
    pub source: Served,
}

/// The run behind a response panicked in the server, so there is no
/// report; a later submission of the spec simulates it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFailed {
    /// Memo key of the failed run.
    pub key: MemoKey,
}

impl std::fmt::Display for RunFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run {} panicked in the server; no response", self.key)
    }
}

impl std::error::Error for RunFailed {}

impl ServeResponse {
    /// Deserialize the report (hot paths keep the bytes instead).
    pub fn report(&self) -> RunReport {
        serde_json::from_str(&self.bytes).expect("served bytes always parse")
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. Defaults to `DLB_SERVE_THREADS`, else the
    /// machine's available parallelism. These are the pool's own
    /// threads; a client blocked on a reply also runs queued jobs.
    pub threads: usize,
    pub memo: MemoConfig,
}

impl ServeConfig {
    pub fn from_env() -> Self {
        let threads = std::env::var("DLB_SERVE_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        Self {
            threads,
            memo: MemoConfig::from_env(),
        }
    }

    /// `threads` workers over the given memo tiers.
    pub fn new(threads: usize, memo: MemoConfig) -> Self {
        assert!(threads > 0, "server needs at least one worker");
        Self { threads, memo }
    }
}

/// Aggregate request statistics (monotonic; read with [`ServeStats::snapshot`]).
#[derive(Debug, Default)]
pub struct ServeStats {
    pub memory_hits: AtomicU64,
    pub disk_hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    /// Simulations actually executed — the single-flight proof counter:
    /// equals the number of *unique* missed keys, however many clients
    /// asked for them concurrently (a run that panicked counts too).
    pub simulations: AtomicU64,
    /// Jobs run by a client waiting on a reply rather than by a worker.
    pub helped: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub simulations: u64,
    pub helped: u64,
}

impl StatsSnapshot {
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }
    pub fn requests(&self) -> u64 {
        self.hits() + self.misses + self.coalesced
    }
}

impl ServeStats {
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            helped: self.helped.load(Ordering::Relaxed),
        }
    }
}

/// A unit of work for the pool: simulate `spec` and either resolve a
/// single flight (`key`) or answer one direct channel (memo disabled).
struct Job {
    spec: RunSpec,
    key: MemoKey,
    /// Memo-disabled path: reply straight to the submitting client.
    direct: Option<Sender<ServeResponse>>,
}

struct Shared {
    memo: MemoStore,
    /// Keys currently being simulated → reply channels of coalesced
    /// waiters (the leader's channel is the first entry).
    inflight: Mutex<HashMap<u64, Vec<Sender<ServeResponse>>>>,
    /// The job queue. Workers block on it holding the lock; a waiting
    /// client only ever `try_lock`s it (see module docs, step 5).
    jobs: Mutex<Receiver<Job>>,
    stats: ServeStats,
}

impl Shared {
    /// Take one queued job without blocking: `None` if the queue is
    /// empty or another thread holds it.
    fn try_take(&self) -> Option<Job> {
        self.jobs.try_lock().ok()?.try_recv().ok()
    }

    /// Run one job and answer its requesters. Workers and helping
    /// clients both come here.
    fn execute(&self, job: Job) {
        // Simulate and serialize outside every lock — this is the slow
        // part, and other keys must keep flowing while it runs.
        let run = catch_unwind(AssertUnwindSafe(|| {
            let (report, counters) = job.spec.execute_counted();
            let bytes = serde_json::to_string(&report).expect("reports always serialize");
            (Arc::new(bytes), counters)
        }));
        self.stats.simulations.fetch_add(1, Ordering::Relaxed);
        let Ok((bytes, counters)) = run else {
            // A panicked run publishes nothing. Removing the in-flight
            // entry (or, memo disabled, dropping `job.direct`) drops
            // every reply sender, which fails each requester's
            // `recv_response`; the next submission simulates again.
            if job.direct.is_none() {
                self.inflight
                    .lock()
                    .expect("no run panics holding the in-flight lock")
                    .remove(&job.key.0);
            }
            return;
        };

        if let Some(direct) = job.direct {
            let _ = direct.send(ServeResponse {
                bytes,
                counters: Some(counters),
                source: Served::Simulated,
            });
            return;
        }

        // Disk write before publication: once a request can see the
        // memory entry, the persistent tier already has it.
        self.memo.put_disk(job.key, &bytes);

        // Publish to memory and claim the waiter list in ONE critical
        // section (see module docs, step 3).
        let waiters = {
            let mut inflight = self.inflight.lock().unwrap();
            self.memo.put_memory(job.key, Arc::clone(&bytes));
            inflight.remove(&job.key.0).unwrap_or_default()
        };
        let mut first = true;
        for tx in waiters {
            let _ = tx.send(ServeResponse {
                bytes: Arc::clone(&bytes),
                counters: if first { Some(counters) } else { None },
                source: if first {
                    Served::Simulated
                } else {
                    Served::Coalesced
                },
            });
            first = false;
        }
    }
}

/// The run-server. Create one with [`RunServer::new`] (or use the
/// process-wide [`crate::global`]); open per-thread clients with
/// [`RunServer::client`]. Dropping the server closes the queue and
/// joins the workers.
pub struct RunServer {
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Job>>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl RunServer {
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.threads > 0, "server needs at least one worker");
        let mut server = Self::without_workers(cfg.memo);
        server.workers = (0..cfg.threads)
            .map(|i| {
                let shared = Arc::clone(&server.shared);
                std::thread::Builder::new()
                    .name(format!("now-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue;
                        // execution runs unlocked so workers overlap.
                        let next = shared.jobs.lock().expect("no run panics holding it").recv();
                        let Ok(job) = next else { return };
                        shared.execute(job);
                    })
                    .expect("spawn worker")
            })
            .collect();
        server.threads = cfg.threads;
        server
    }

    /// The queue, memo and in-flight table with no worker threads: every
    /// job is run by a client waiting on a reply.
    fn without_workers(memo: MemoConfig) -> Self {
        let (tx, rx) = channel::<Job>();
        Self {
            shared: Arc::new(Shared {
                memo: MemoStore::new(memo),
                inflight: Mutex::new(HashMap::new()),
                jobs: Mutex::new(rx),
                stats: ServeStats::default(),
            }),
            tx: Mutex::new(Some(tx)),
            workers: Vec::new(),
            threads: 0,
        }
    }

    /// A server with the env-selected thread count and memo tiers.
    pub fn from_env() -> Self {
        Self::new(ServeConfig::from_env())
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Aggregate request statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Entries resident in the memory memo tier.
    pub fn memo_len(&self) -> usize {
        self.shared.memo.memory_len()
    }

    /// Open a client. Clients are cheap; use one per submitting thread
    /// (responses arrive in that client's request order).
    pub fn client(&self) -> ServeClient {
        let tx = self
            .tx
            .lock()
            .unwrap()
            .as_ref()
            .expect("server already shut down")
            .clone();
        ServeClient {
            shared: Arc::clone(&self.shared),
            tx,
            pending: VecDeque::new(),
        }
    }

    /// Convenience: submit one spec and wait for its report.
    pub fn call(&self, spec: &RunSpec) -> RunReport {
        let mut c = self.client();
        c.submit(spec);
        c.recv()
    }
}

impl Drop for RunServer {
    fn drop(&mut self) {
        // Close the queue so idle workers see a disconnect...
        *self.tx.lock().unwrap() = None;
        // ...and wait for in-progress jobs to finish.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

enum PendingSlot {
    /// Resolved at submit time (memo hit).
    Ready(ServeResponse),
    /// Waiting on the job that runs this key.
    Wait(Receiver<ServeResponse>, MemoKey),
}

/// A client handle: submit specs, receive responses in the same order.
pub struct ServeClient {
    shared: Arc<Shared>,
    tx: Sender<Job>,
    pending: VecDeque<PendingSlot>,
}

impl ServeClient {
    /// Submit a spec. Returns immediately; the response is queued for
    /// [`recv_response`](ServeClient::recv_response) in submit order.
    pub fn submit(&mut self, spec: &RunSpec) {
        let key = spec.memo_key();
        let stats = &self.shared.stats;

        if !self.shared.memo.config().enabled() {
            // Benchmark path: no dedup, every submission simulates.
            stats.misses.fetch_add(1, Ordering::Relaxed);
            let (rtx, rrx) = channel();
            self.send_job(Job {
                spec: spec.clone(),
                key,
                direct: Some(rtx),
            });
            self.pending.push_back(PendingSlot::Wait(rrx, key));
            return;
        }

        // Fast path: memo probe without the in-flight lock.
        if let Some((bytes, tier)) = self.shared.memo.get(key) {
            let source = match tier {
                Tier::Memory => {
                    stats.memory_hits.fetch_add(1, Ordering::Relaxed);
                    Served::Memory
                }
                Tier::Disk => {
                    stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                    Served::Disk
                }
            };
            self.pending.push_back(PendingSlot::Ready(ServeResponse {
                bytes,
                counters: None,
                source,
            }));
            return;
        }

        let (rtx, rrx) = channel();
        let lead = {
            let mut inflight = self.shared.inflight.lock().unwrap();
            // Re-check under the lock: a worker may have published
            // since the probe above (its publication also holds this
            // lock, so the two cannot interleave).
            if let Some(bytes) = self.shared.memo.peek_memory(key) {
                stats.memory_hits.fetch_add(1, Ordering::Relaxed);
                self.pending.push_back(PendingSlot::Ready(ServeResponse {
                    bytes,
                    counters: None,
                    source: Served::Memory,
                }));
                return;
            }
            match inflight.entry(key.0) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    e.get_mut().push(rtx);
                    false
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    stats.misses.fetch_add(1, Ordering::Relaxed);
                    e.insert(vec![rtx]);
                    true
                }
            }
        };
        if lead {
            self.send_job(Job {
                spec: spec.clone(),
                key,
                direct: None,
            });
        }
        self.pending.push_back(PendingSlot::Wait(rrx, key));
    }

    fn send_job(&self, job: Job) {
        self.tx.send(job).expect("server workers alive");
    }

    /// Outstanding responses not yet received.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Next response, in submit order. Until it is ready, runs queued
    /// jobs (this client's or others') instead of sleeping.
    ///
    /// # Panics
    /// Panics if nothing is pending, or with the [`RunFailed`] message
    /// if the run behind the response panicked.
    pub fn recv_response(&mut self) -> ServeResponse {
        self.try_recv_response().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`recv_response`](ServeClient::recv_response), with a run that
    /// panicked in the server as an error naming its memo key.
    ///
    /// # Panics
    /// Panics if nothing is pending.
    pub fn try_recv_response(&mut self) -> Result<ServeResponse, RunFailed> {
        let (rx, key) = match self.pending.pop_front().expect("no pending request") {
            PendingSlot::Ready(r) => return Ok(r),
            PendingSlot::Wait(rx, key) => (rx, key),
        };
        loop {
            match rx.try_recv() {
                Ok(r) => return Ok(r),
                Err(TryRecvError::Disconnected) => return Err(RunFailed { key }),
                Err(TryRecvError::Empty) => {}
            }
            let Some(job) = self.shared.try_take() else {
                return rx.recv().map_err(|_| RunFailed { key });
            };
            self.shared.stats.helped.fetch_add(1, Ordering::Relaxed);
            self.shared.execute(job);
        }
    }

    /// Next response's report, in submit order.
    pub fn recv(&mut self) -> RunReport {
        self.recv_response().report()
    }

    /// Submit one spec and wait for its report (keeps order with any
    /// already-pending submissions).
    pub fn call(&mut self, spec: &RunSpec) -> RunReport {
        self.submit(spec);
        // Drain everything queued before this call, then answer it.
        while self.pending.len() > 1 {
            let front = self.recv_response();
            drop(front);
        }
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    //! Helping, made deterministic: a server with no worker threads
    //! answers a reply only through a waiting client running the queue.

    use super::*;
    use crate::spec::{RunKind, WorkloadSpec};
    use dlb_core::strategy::{Strategy, StrategyConfig};
    use now_fault::{FailurePolicy, FaultPlan};
    use now_sim::{ClusterSpec, EngineMode};

    fn spec(iterations: u64) -> RunSpec {
        RunSpec::new(
            WorkloadSpec::Uniform {
                iterations,
                iter_cost: 0.005,
                bytes_per_iter: 100,
            },
            ClusterSpec::paper_homogeneous(2, 5, 1.0),
            RunKind::Dlb {
                cfg: StrategyConfig::paper(Strategy::Gddlb, 2),
            },
        )
        .with_mode(EngineMode::Episode)
    }

    fn reference(s: &RunSpec) -> String {
        serde_json::to_string(&s.execute()).expect("serialize")
    }

    #[test]
    fn waiting_client_runs_its_own_job() {
        let server = RunServer::without_workers(MemoConfig::memory_only());
        let a = spec(100);
        let mut client = server.client();
        client.submit(&a);
        let resp = client.recv_response();
        assert_eq!(*resp.bytes, reference(&a));
        assert_eq!(resp.source, Served::Simulated);
        assert!(resp.counters.is_some());
        let st = server.stats();
        assert_eq!((st.misses, st.simulations, st.helped), (1, 1, 1));
        assert_eq!(server.memo_len(), 1);
    }

    #[test]
    fn waiting_client_runs_earlier_jobs_of_another_client() {
        let server = RunServer::without_workers(MemoConfig::memory_only());
        let (a1, a2, b) = (spec(101), spec(102), spec(103));
        let mut first = server.client();
        let mut second = server.client();
        first.submit(&a1);
        first.submit(&a2);
        second.submit(&b);

        // The queue is a1, a2, b: the second client runs all three to
        // reach its own reply.
        let resp = second.recv_response();
        assert_eq!(*resp.bytes, reference(&b));
        assert_eq!(server.stats().helped, 3);

        // The first client's replies are already there, in its order.
        let r1 = first.recv_response();
        let r2 = first.recv_response();
        assert_eq!(*r1.bytes, reference(&a1));
        assert_eq!(*r2.bytes, reference(&a2));
        assert_eq!(
            (r1.source, r2.source),
            (Served::Simulated, Served::Simulated)
        );
        let st = server.stats();
        assert_eq!((st.misses, st.simulations, st.helped), (3, 3, 3));
    }

    #[test]
    fn helped_duplicate_simulates_once_and_coalesces() {
        let server = RunServer::without_workers(MemoConfig::memory_only());
        let k = spec(104);
        let mut leader = server.client();
        let mut follower = server.client();
        leader.submit(&k);
        follower.submit(&k);

        let followed = follower.recv_response();
        let led = leader.recv_response();
        assert_eq!(*followed.bytes, reference(&k));
        assert!(Arc::ptr_eq(&followed.bytes, &led.bytes));
        assert_eq!(followed.source, Served::Coalesced);
        assert!(followed.counters.is_none());
        assert_eq!(led.source, Served::Simulated);
        assert!(led.counters.is_some());
        let st = server.stats();
        assert_eq!(
            (st.misses, st.coalesced, st.simulations, st.helped),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn direct_job_panic_fails_its_requester_and_the_helper_serves_on() {
        let server = RunServer::without_workers(MemoConfig::disabled());
        let bad = spec(105).with_faults(FaultPlan::crash(99, 0.1), FailurePolicy::default());
        let good = spec(106);
        let mut client = server.client();
        client.submit(&bad);
        client.submit(&good);

        let err = std::panic::catch_unwind(AssertUnwindSafe(|| client.recv_response()))
            .expect_err("a panicking run has no response");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains(&bad.memo_key().to_string()), "{msg}");

        let resp = client.recv_response();
        assert_eq!(*resp.bytes, reference(&good));
        let st = server.stats();
        assert_eq!((st.misses, st.simulations, st.helped), (2, 2, 2));
    }
}
