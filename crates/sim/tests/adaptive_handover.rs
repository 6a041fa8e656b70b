//! §S17 runtime re-customization: the epoch-guarded handover must be
//! invisible to every correctness invariant. Three angles:
//!
//! * a drift cell where the adaptive policy demonstrably switches — and
//!   the switch *pays*: it beats every static strategy on the same cell,
//!   with the machine-checked invariants intact (no mid-episode switch,
//!   no stale instruction applied, every iteration executed exactly
//!   once);
//! * byte-identity between the per-iteration reference and the default
//!   episode engine for switching adaptive runs at P=16 and P=64;
//! * a property sweep: random crash/rejoin/loss/delay scenarios with
//!   in-flight Instructions, Profiles, and watchdog retransmissions
//!   crossing the switch apply none of the old-regime state.

use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use dlb_core::work::{LoopWorkload, UniformLoop};
use now_fault::{CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, RecoverSpec};
use now_load::LoadSpec;
use now_sim::{ClusterSpec, Engine, EngineMode, RunReport};
use proptest::prelude::*;

/// Two-phase drift at K=2 on a congested shared medium (§S17 / FT3).
///
/// Phase 1 (until `phase_at`): the odd member of every group carries a
/// drifting light external load — the imbalance is *intra-group*, so
/// local balancing suffices while global strategies pay P-wide control
/// rounds on a medium slowed 4x (a local-first cell). Phase 2: both
/// members of group 0 saturate (external level 5) — the work must leave
/// the group, which only a global strategy can arrange. No static
/// strategy is right for both phases; the adaptive policy starts local
/// and must discover the flip from the observed rates alone.
fn drift_cluster(p: usize, phase_at: f64) -> ClusterSpec {
    let dwell = 0.45;
    let mut cluster = ClusterSpec::dedicated(p);
    cluster.net.send_overhead *= 4.0;
    cluster.net.frame_overhead *= 4.0;
    cluster.net.recv_overhead *= 4.0;
    cluster.net.bandwidth /= 4.0;
    let phase_steps = (phase_at / dwell).round() as usize;
    for g in 0..p / 2 {
        let mut levels: Vec<u32> = (0..phase_steps).map(|s| [3, 0, 4, 1][s % 4]).collect();
        levels.extend(std::iter::repeat_n(0u32, 200));
        cluster.loads[2 * g + 1] = LoadSpec::Trace {
            levels,
            persistence: dwell,
        };
    }
    for m in [0usize, 1] {
        let mut levels = vec![0u32; phase_steps];
        levels.extend(std::iter::repeat_n(5u32, 200));
        cluster.loads[m] = LoadSpec::Trace {
            levels,
            persistence: dwell,
        };
    }
    cluster
}

/// The switching policy used throughout: start from the phase-1 winner
/// (local distributed), re-decide on a one-episode window.
fn local_first() -> AdaptiveConfig {
    AdaptiveConfig {
        window: 1,
        min_episodes_between: 2,
        ..AdaptiveConfig::paper(Strategy::Lddlb, 2)
    }
}

/// `local_first` started from a two-level hierarchy: at P=16 eight
/// groups of two under four level-1 domains, so a switch to a global
/// strategy hands the hierarchy over to the flat layout.
fn local_first_hierarchical() -> AdaptiveConfig {
    let acfg = local_first();
    AdaptiveConfig {
        initial: acfg.initial.with_hierarchy(2, 2),
        ..acfg
    }
}

fn adaptive_run(
    cluster: &ClusterSpec,
    wl: &dyn LoopWorkload,
    acfg: AdaptiveConfig,
    plan: &FaultPlan,
    mode: EngineMode,
) -> RunReport {
    let mut engine = Engine::new(cluster.clone(), wl, Some(acfg.initial))
        .with_mode(mode)
        .with_adaptive(acfg);
    if !plan.is_empty() {
        engine = engine.with_faults(plan.clone(), FailurePolicy::default());
    }
    engine.run()
}

fn assert_handover_invariants(report: &RunReport) {
    let a = report.adaptive.as_ref().expect("adaptive accounting");
    assert_eq!(a.mid_episode_switches, 0, "switch inside an open episode");
    assert_eq!(a.stale_applied, 0, "old-regime instruction applied");
}

#[test]
fn drift_cell_switch_beats_every_static() {
    let p = 16;
    let iters = 24_000;
    let wl = UniformLoop::new(iters, 0.01, 800);
    let cluster = drift_cluster(p, 12.0);
    let report = adaptive_run(
        &cluster,
        &wl,
        local_first(),
        &FaultPlan::none(),
        EngineMode::Episode,
    );
    assert_eq!(report.total_iters, iters, "conservation across the switch");
    assert_handover_invariants(&report);
    let a = report.adaptive.as_ref().unwrap();
    assert!(
        !a.switches.is_empty(),
        "drift cell must trigger a switch: {a:?}"
    );
    assert_ne!(a.final_strategy, Strategy::Lddlb, "must have left LD");
    // The switch must pay: beat every static strategy on the same cell,
    // including the one the adaptive run started from.
    for s in Strategy::ALL {
        let stat = Engine::new(cluster.clone(), &wl, Some(StrategyConfig::paper(s, 2)))
            .with_mode(EngineMode::Episode)
            .run();
        assert_eq!(stat.total_iters, iters);
        assert!(
            report.total_time < stat.total_time,
            "adaptive {} must beat static {s:?} {}",
            report.total_time,
            stat.total_time
        );
    }
}

fn assert_mode_identity(
    cluster: &ClusterSpec,
    wl: &dyn LoopWorkload,
    plan: &FaultPlan,
    label: &str,
) -> RunReport {
    let reference = adaptive_run(cluster, wl, local_first(), plan, EngineMode::PerIter);
    let bytes = serde_json::to_string(&reference).expect("report serializes");
    let episode = adaptive_run(cluster, wl, local_first(), plan, EngineMode::Episode);
    assert_eq!(
        bytes,
        serde_json::to_string(&episode).expect("report serializes"),
        "{label}: episode engine diverged from per-iteration reference on an adaptive run"
    );
    assert_handover_invariants(&reference);
    reference
}

#[test]
fn adaptive_mode_identity_p16() {
    let wl = UniformLoop::new(24_000, 0.01, 800);
    let cluster = drift_cluster(16, 12.0);
    let report = assert_mode_identity(&cluster, &wl, &FaultPlan::none(), "P=16");
    // The identity must cover an actual handover, not a no-op policy.
    let a = report.adaptive.as_ref().unwrap();
    assert!(!a.switches.is_empty(), "P=16 cell must switch: {a:?}");
}

#[test]
fn adaptive_mode_identity_p64() {
    let wl = UniformLoop::new(96_000, 0.01, 400);
    let cluster = drift_cluster(64, 8.0);
    let report = assert_mode_identity(&cluster, &wl, &FaultPlan::none(), "P=64");
    let a = report.adaptive.as_ref().unwrap();
    assert!(!a.switches.is_empty(), "P=64 cell must switch: {a:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random crash/rejoin/loss/delay traffic over a switching cell: the
    /// in-flight Instructions, Profiles and watchdog retransmissions that
    /// cross the handover apply no old-regime state, the switch never
    /// lands inside an open episode, and both engine modes agree byte
    /// for byte on the whole run. Each plan runs on two cells: flat
    /// LDDLB at P=8, and at P=16 LDDLB under a two-level hierarchy,
    /// whose switches to a global strategy replace the layout.
    #[test]
    fn handover_applies_no_stale_state_under_faults(
        crash in prop::option::of((2usize..8, 0.15f64..0.6)),
        rejoin in prop::option::of(0.05f64..0.3),
        loss in prop::option::of((0.02f64..0.2, 1u64..1000)),
        delay in prop::option::of((1.5f64..3.0, 0.1f64..0.4, 0.2f64..0.5)),
    ) {
        for (p, acfg) in [(8, local_first()), (16, local_first_hierarchical())] {
            let iters = 1_000 * p as u64;
            let wl = UniformLoop::new(iters, 0.01, 400);
            let cluster = drift_cluster(p, 6.0);
            // Fault-free probe for the horizon; place sampled faults as
            // fractions of it. Crashes hit procs outside group 0 so the
            // phase-2 story (work must leave group 0) survives.
            let probe = adaptive_run(&cluster, &wl, acfg, &FaultPlan::none(), EngineMode::Episode);
            let horizon = probe.total_time;
            let mut plan = FaultPlan::none();
            if let Some((proc, f)) = crash {
                plan.crashes = vec![CrashSpec { proc, at: horizon * f }];
                if let Some(rf) = rejoin {
                    plan.recoveries = vec![RecoverSpec { proc, at: horizon * (f + rf) }];
                }
            }
            if let Some((prob, seed)) = loss {
                plan.loss = Some(LossSpec { prob, seed });
            }
            if let Some((factor, from, until)) = delay {
                plan.delay = Some(DelaySpec {
                    factor,
                    from: horizon * from,
                    until: horizon * until.max(from + 0.05),
                });
            }

            let reference = adaptive_run(&cluster, &wl, acfg, &plan, EngineMode::PerIter);
            let a = reference.adaptive.as_ref().expect("adaptive accounting");
            prop_assert_eq!(a.mid_episode_switches, 0);
            prop_assert_eq!(a.stale_applied, 0);
            if plan.crashes.is_empty() || !plan.recoveries.is_empty() {
                // Every sampled death rejoins (or none happens): all work
                // must land. With a permanent death the engine still
                // recovers the lost iterations onto survivors, which the
                // byte-identity below checks in full.
                prop_assert_eq!(reference.total_iters, iters);
            }
            let bytes = serde_json::to_string(&reference).expect("report serializes");
            let episode = adaptive_run(&cluster, &wl, acfg, &plan, EngineMode::Episode);
            let episode_bytes = serde_json::to_string(&episode).expect("report serializes");
            prop_assert_eq!(&bytes, &episode_bytes, "P={}: episode mode diverged under plan {:?}", p, plan);
            // The cell itself switches, so the plan lands around a
            // handover.
            let probe = probe.adaptive.expect("adaptive accounting");
            prop_assert!(!probe.switches.is_empty(), "P={}: no switch to cover", p);
        }
    }
}
