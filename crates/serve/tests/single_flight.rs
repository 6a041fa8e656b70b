//! Concurrency stress for the single-flight protocol (satellite S3):
//! 16 client threads hammer one server with an interleaved mix of
//! duplicate and unique specs, released together through a barrier.
//! Every response must be byte-identical to an independently computed
//! reference *and* routed to the submission that asked for it, and the
//! server's simulation counter must equal the number of distinct specs
//! — each simulated exactly once no matter how many clients raced on it.

use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode};
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

#[test]
fn sixteen_clients_single_flight() {
    let server = RunServer::new(ServeConfig::new(4, MemoConfig::memory_only()));

    // References computed outside the server, and the interleavings:
    // each client alternates shared specs (rotated by client id so
    // different clients race on different keys at the same instant)
    // with one spec unique to it.
    let shared: Vec<RunSpec> = (0..SHARED).map(|u| spec(100 + u as u64)).collect();
    let reference = |s: &RunSpec| serde_json::to_string(&s.execute()).expect("serialize");
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
