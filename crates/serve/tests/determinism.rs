//! Determinism guard for the memo key derivation (satellite S1).
//!
//! The memo is only sound if a spec's canonical serialization is a pure
//! function of its fields: stable within a process, across processes,
//! and across releases that do not intend to change it. The golden hash
//! pinned here is the cross-release tripwire — if an edit to `RunSpec`,
//! `ClusterSpec`, or any nested type changes the canonical bytes, this
//! test fails and forces the author to decide consciously: either the
//! change is cosmetic and must be reverted, or semantics moved and
//! `ENGINE_VERSION` must be bumped alongside re-pinning the hash.

use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{fnv1a64, MemoKey, RunKind, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode};

/// A spec with every field pinned explicitly (no env-dependent mode) so
/// its canonical bytes are the same in every environment.
fn pinned_spec() -> RunSpec {
    RunSpec::new(
        WorkloadSpec::Mxm {
            r: 100,
            c: 400,
            r2: 400,
        },
        ClusterSpec::paper_homogeneous(4, 7, 0.5),
        RunKind::Dlb {
            cfg: StrategyConfig::paper(Strategy::Gddlb, 2),
        },
    )
    .with_mode(EngineMode::Episode)
}

#[test]
fn canonical_serialization_is_stable() {
    let a = pinned_spec();
    let b = pinned_spec();
    // Same value, same bytes — twice on each of two constructions.
    assert_eq!(a.canonical_bytes(), a.canonical_bytes());
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    // And the bytes survive a serde round-trip of the spec itself.
    let json = serde_json::to_string(&a).expect("serialize");
    let back: RunSpec = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(a.canonical_bytes(), back.canonical_bytes());
}

#[test]
fn key_is_hash_of_canonical_bytes() {
    let spec = pinned_spec();
    for version in [1u32, 2, 7] {
        assert_eq!(
            spec.memo_key_with_version(version),
            MemoKey(fnv1a64(
                spec.canonical_bytes_with_version(version).as_bytes()
            )),
        );
    }
    // Hashing twice gives the same key (no hidden state).
    assert_eq!(spec.memo_key(), spec.memo_key());
}

#[test]
fn envelope_names_the_engine_version() {
    let bytes = pinned_spec().canonical_bytes_with_version(42);
    assert!(
        bytes.starts_with("{\"engine_version\":42,\"spec\":{"),
        "keyed envelope changed shape: {}",
        &bytes[..bytes.len().min(80)]
    );
}

/// The golden hash. Version pinned to 1 so this tracks only the
/// serialization format, not `ENGINE_VERSION` bumps (which have their
/// own invalidation test in `cache_correctness`).
#[test]
fn golden_key_pinned() {
    let key = pinned_spec().memo_key_with_version(1);
    assert_eq!(
        format!("{key}"),
        "a93ccc399990e691",
        "canonical serialization changed — if intentional, bump ENGINE_VERSION \
         (crates/sim/src/lib.rs) and re-pin this hash"
    );
}
