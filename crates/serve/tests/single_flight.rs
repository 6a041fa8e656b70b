//! Concurrency stress for the single-flight protocol (satellite S3):
//! 16 client threads hammer one server with an interleaved mix of
//! duplicate and unique specs, released together through a barrier.
//! Every response must be byte-identical to an independently computed
//! reference *and* routed to the submission that asked for it, and the
//! server's simulation counter must equal the number of distinct specs
//! — each simulated exactly once no matter how many clients raced on it.
//!
//! A second stress mixes in a spec whose run panics, on a one-worker
//! server so that waiting clients run queued jobs alongside the worker.
//! Its requesters see the failure either as `recv_response`'s panic or
//! as `try_recv_response`'s typed `RunFailed`, both naming the memo key.

use dlb_core::strategy::{Strategy, StrategyConfig};
use now_fault::{FailurePolicy, FaultPlan};
use now_serve::{
    MemoConfig, RunFailed, RunKind, RunServer, RunSpec, ServeClient, ServeConfig, WorkloadSpec,
};
use now_sim::{ClusterSpec, EngineMode};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 16;
/// Specs every client shares (the duplicates that must coalesce).
const SHARED: usize = 4;

/// Distinct specs are distinguishable by iteration count, so a
/// misrouted response would change the report's `total_iters` and fail
/// the byte comparison.
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

/// A spec whose run panics: `Engine::with_faults` rejects a crash of
/// processor 99 on a P=4 cluster.
fn panicking() -> RunSpec {
    RunSpec::new(
        WorkloadSpec::Uniform {
            iterations: 100,
            iter_cost: 0.005,
            bytes_per_iter: 100,
        },
        ClusterSpec::paper_homogeneous(4, 5, 1.0),
        RunKind::Dlb {
            cfg: StrategyConfig::paper(Strategy::Gddlb, 2),
        },
    )
    .with_faults(FaultPlan::crash(99, 0.1), FailurePolicy::default())
}

/// Receive the next response, which must be the typed failure of `bad`.
fn expect_typed_failure(client: &mut ServeClient, bad: &RunSpec) {
    let key = bad.memo_key();
    assert_eq!(client.try_recv_response().err(), Some(RunFailed { key }));
}

/// Receive the next response, which must be the failure of `bad`.
fn expect_failure(client: &mut ServeClient, bad: &RunSpec) {
    let err = catch_unwind(AssertUnwindSafe(|| client.recv_response()))
        .expect_err("a panicking run has no response");
    let msg = err
        .downcast_ref::<String>()
        .expect("formatted panic message");
    assert!(
        msg.contains(&bad.memo_key().to_string()),
        "failure must name the memo key: {msg}"
    );
}

#[test]
fn sixteen_clients_single_flight() {
    let server = RunServer::new(ServeConfig::new(4, MemoConfig::memory_only()));

    // References computed outside the server, and the interleavings:
    // each client alternates shared specs (rotated by client id so
    // different clients race on different keys at the same instant)
    // with one spec unique to it.
    let shared: Vec<RunSpec> = (0..SHARED).map(|u| spec(100 + u as u64)).collect();
    let shared_ref: Vec<String> = shared.iter().map(reference).collect();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let shared = &shared;
            let shared_ref = &shared_ref;
            let server = &server;
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let unique = spec(1000 + c as u64);
                let unique_ref = reference(&unique);
                // The schedule: shared, shared, unique, shared, shared,
                // with duplicates of the same shared spec in-flight
                // from many clients at once.
                let schedule: Vec<(&RunSpec, &str)> = vec![
                    (&shared[c % SHARED], &shared_ref[c % SHARED]),
                    (&shared[(c + 1) % SHARED], &shared_ref[(c + 1) % SHARED]),
                    (&unique, &unique_ref),
                    (&shared[(c + 2) % SHARED], &shared_ref[(c + 2) % SHARED]),
                    (&shared[c % SHARED], &shared_ref[c % SHARED]),
                ];
                let mut client = server.client();
                barrier.wait();
                for (s, _) in &schedule {
                    client.submit(s);
                }
                for (i, (_, expect)) in schedule.iter().enumerate() {
                    let resp = client.recv_response();
                    assert_eq!(
                        &*resp.bytes, *expect,
                        "client {c}, submission {i}: response routed or computed wrongly"
                    );
                }
            });
        }
    });

    let stats = server.stats();
    let distinct = (SHARED + CLIENTS) as u64;
    assert_eq!(
        stats.simulations, distinct,
        "single flight must simulate each distinct spec exactly once"
    );
    assert_eq!(server.memo_len(), distinct as usize);
    // Every submission is accounted for: leaders missed, racers
    // coalesced, stragglers hit memory.
    assert_eq!(stats.requests(), (CLIENTS * 5) as u64);
    assert_eq!(stats.misses, distinct);
    assert_eq!(
        stats.memory_hits + stats.coalesced,
        (CLIENTS * 5) as u64 - distinct
    );
}

#[test]
fn sixteen_clients_survive_a_panicking_run() {
    let server = RunServer::new(ServeConfig::new(1, MemoConfig::memory_only()));
    let shared: Vec<RunSpec> = (0..SHARED).map(|u| spec(200 + u as u64)).collect();
    let shared_ref: Vec<String> = shared.iter().map(reference).collect();
    let bad = panicking();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (shared, shared_ref, server, bad) = (&shared, &shared_ref, &server, &bad);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let unique = spec(2000 + c as u64);
                let unique_ref = reference(&unique);
                // `None` marks the panicking spec.
                let schedule: Vec<(&RunSpec, Option<&str>)> = vec![
                    (&shared[c % SHARED], Some(&shared_ref[c % SHARED])),
                    (bad, None),
                    (&unique, Some(&unique_ref)),
                    (
                        &shared[(c + 1) % SHARED],
                        Some(&shared_ref[(c + 1) % SHARED]),
                    ),
                ];
                let mut client = server.client();
                barrier.wait();
                for (s, _) in &schedule {
                    client.submit(s);
                }
                for (i, (_, expect)) in schedule.iter().enumerate() {
                    match expect {
                        // Half the clients take the panic, half the
                        // typed error.
                        None if c % 2 == 0 => expect_failure(&mut client, bad),
                        None => expect_typed_failure(&mut client, bad),
                        Some(expect) => assert_eq!(
                            &*client.recv_response().bytes,
                            *expect,
                            "client {c}, submission {i}: response routed or computed wrongly"
                        ),
                    }
                }
            });
        }
    });

    // Each distinct good spec simulated once; each attempt at the bad
    // key (one per flight it led) simulated and failed, and none of them
    // was memoized.
    let good = (SHARED + CLIENTS) as u64;
    let stats = server.stats();
    assert_eq!(server.memo_len(), good as usize);
    assert_eq!(stats.simulations, stats.misses);
    let failed = stats.misses - good;
    assert!(
        (1..=CLIENTS as u64).contains(&failed),
        "{failed} failed attempts"
    );
    assert_eq!(stats.requests(), (CLIENTS * 4) as u64);

    // A resubmission of the bad key runs (and fails) again, whichever
    // way it is received.
    let mut client = server.client();
    client.submit(&bad);
    expect_failure(&mut client, &bad);
    client.submit(&bad);
    expect_typed_failure(&mut client, &bad);
    let after = server.stats();
    assert_eq!(after.simulations, stats.simulations + 2);
    assert_eq!(after.misses, stats.misses + 2);

    // The server still serves, and drops without hanging.
    let fresh = spec(3000);
    client.submit(&fresh);
    assert_eq!(*client.recv_response().bytes, reference(&fresh));
    drop(client);
    drop(server);
}
