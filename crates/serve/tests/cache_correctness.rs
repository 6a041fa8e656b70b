//! Correctness of the cache (satellite S2): a memo hit must be
//! indistinguishable from simulating — byte for byte — across the whole
//! behavioural matrix (strategy × fault plan × engine mode), through
//! both tiers; a bumped `ENGINE_VERSION` must orphan every previously
//! persisted entry; and a corrupted disk entry must read as a miss,
//! never as a panic or a wrong answer.

use dlb_core::strategy::{Strategy, StrategyConfig};
use now_fault::{CrashSpec, FailurePolicy, FaultPlan, StallSpec};
use now_serve::memo::entry_path;
use now_serve::{MemoConfig, MemoStore, RunKind, RunServer, RunSpec, ServeConfig, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("now-serve-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn crash_plan() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashSpec { proc: 1, at: 0.4 }],
        ..FaultPlan::default()
    }
}

fn stall_plan() -> FaultPlan {
    FaultPlan {
        stalls: vec![StallSpec {
            proc: 2,
            from: 0.2,
            until: 0.7,
        }],
        ..FaultPlan::default()
    }
}

/// The behavioural matrix: noDLB plus two strategies, three fault
/// plans, both engine modes — every combination a real campaign
/// submits.
fn matrix() -> Vec<RunSpec> {
    let wl = WorkloadSpec::Uniform {
        iterations: 120,
        iter_cost: 0.01,
        bytes_per_iter: 400,
    };
    let cluster = ClusterSpec::paper_homogeneous(4, 99, 1.0);
    let kinds = [
        RunKind::NoDlb,
        RunKind::Dlb {
            cfg: StrategyConfig::paper(Strategy::Gddlb, 2),
        },
        RunKind::Dlb {
            cfg: StrategyConfig::paper(Strategy::Lcdlb, 2),
        },
    ];
    let plans = [FaultPlan::default(), crash_plan(), stall_plan()];
    let mut specs = Vec::new();
    for kind in &kinds {
        for plan in &plans {
            for mode in [EngineMode::PerIter, EngineMode::Episode] {
                specs.push(
                    RunSpec::new(wl.clone(), cluster.clone(), kind.clone())
                        .with_faults(plan.clone(), FailurePolicy::default())
                        .with_mode(mode),
                );
            }
        }
    }
    specs
}

#[test]
fn memo_hits_match_fresh_simulation_across_matrix() {
    let dir = tmpdir("matrix");
    let specs = matrix();
    {
        let server = RunServer::new(ServeConfig::new(2, MemoConfig::disk(&dir)));
        for spec in &specs {
            // The reference: a fresh simulation outside the server.
            let fresh = serde_json::to_string(&spec.execute()).expect("serialize");
            let first = server.call(spec);
            let second = server.call(spec);
            assert_eq!(first, second, "hit diverged from the simulating call");
            assert_eq!(
                serde_json::to_string(&second).expect("serialize"),
                fresh,
                "memo-served report not byte-identical to a fresh simulation"
            );
        }
        let stats = server.stats();
        assert_eq!(stats.simulations as usize, specs.len());
        assert!(stats.hits() >= specs.len() as u64);
    }
    // A new server (cold memory) replays the whole matrix from disk.
    let server = RunServer::new(ServeConfig::new(2, MemoConfig::disk(&dir)));
    for spec in &specs {
        let fresh = serde_json::to_string(&spec.execute()).expect("serialize");
        let replayed = serde_json::to_string(&server.call(spec)).expect("serialize");
        assert_eq!(replayed, fresh, "disk replay not byte-identical");
    }
    let stats = server.stats();
    assert_eq!(stats.simulations, 0, "replay must not simulate");
    assert_eq!(stats.disk_hits as usize, specs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bumping the engine version re-keys every spec, so a store full of
/// old-version entries answers nothing — the prior results are
/// unreachable (invalidated) without touching a single file.
#[test]
fn engine_version_bump_invalidates_all_prior_entries() {
    let specs = matrix();
    let store = MemoStore::new(MemoConfig::memory_only());
    let payload = Arc::new("{}".to_string());
    for spec in &specs {
        store.put(spec.memo_key_with_version(1), Arc::clone(&payload));
    }
    assert_eq!(
        store.memory_len(),
        specs.len(),
        "matrix keys must be distinct"
    );
    for spec in &specs {
        assert!(
            store.get(spec.memo_key_with_version(1)).is_some(),
            "same-version key must still resolve"
        );
        assert!(
            store.get(spec.memo_key_with_version(2)).is_none(),
            "bumped-version key must miss every prior entry"
        );
    }
}

/// A corrupt on-disk entry — truncated tail, garbage bytes, a wrong
/// header, valid JSON of the wrong shape, or a payload cut off inside a
/// number — is a miss: the server re-simulates (and heals the entry),
/// it does not panic and it cannot serve the damaged bytes.
#[test]
fn corrupt_disk_entries_miss_and_heal() {
    let dir = tmpdir("corrupt");
    let spec = RunSpec::new(
        WorkloadSpec::Uniform {
            iterations: 80,
            iter_cost: 0.01,
            bytes_per_iter: 200,
        },
        ClusterSpec::paper_homogeneous(4, 17, 1.0),
        RunKind::Dlb {
            cfg: StrategyConfig::paper(Strategy::Gddlb, 2),
        },
    )
    .with_mode(EngineMode::Episode);
    let reference = serde_json::to_string(&spec.execute()).expect("serialize");
    let path = entry_path(&dir, spec.memo_key());

    // Seed a valid entry.
    {
        let server = RunServer::new(ServeConfig::new(1, MemoConfig::disk(&dir)));
        server.call(&spec);
        assert_eq!(server.stats().simulations, 1);
    }
    let valid = std::fs::read_to_string(&path).expect("entry written");

    let (header, payload) = valid.split_once('\n').expect("header line");
    let with_payload = |payload: &str| format!("{header}\n{payload}");
    // Cut between the first two adjacent digits of the payload.
    let digits = payload
        .as_bytes()
        .windows(2)
        .position(|w| w.iter().all(u8::is_ascii_digit))
        .expect("the report has a multi-digit number");
    let corruptions: [(&str, String); 6] = [
        ("truncated", valid[..valid.len() / 2].to_string()),
        ("garbage", "\x00\x01not a memo file at all".to_string()),
        (
            "wrong header",
            valid.replacen("dlb-memo v1", "dlb-memo v0", 1),
        ),
        ("empty object", with_payload("{}")),
        (
            "a spec stored as the report",
            with_payload(&serde_json::to_string(&spec).expect("serialize")),
        ),
        ("cut inside a number", with_payload(&payload[..=digits])),
    ];
    for (what, bytes) in corruptions {
        std::fs::write(&path, bytes).expect("corrupt the entry");
        let server = RunServer::new(ServeConfig::new(1, MemoConfig::disk(&dir)));
        let served = serde_json::to_string(&server.call(&spec)).expect("serialize");
        let stats = server.stats();
        assert_eq!(stats.disk_hits, 0, "{what}: corrupt entry must not hit");
        assert_eq!(
            stats.simulations, 1,
            "{what}: corrupt entry must re-simulate"
        );
        assert_eq!(served, reference, "{what}: served bytes must be correct");
        // The re-simulation healed the entry: next server hits again.
        let healed = RunServer::new(ServeConfig::new(1, MemoConfig::disk(&dir)));
        healed.call(&spec);
        assert_eq!(healed.stats().disk_hits, 1, "{what}: entry not healed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
