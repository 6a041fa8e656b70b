//! Run specifications: the complete, serializable description of one
//! simulated execution, and its content address.
//!
//! Every consumer of the simulator (bench bins, sweeps, the chaos
//! campaign, CI) describes a run as a [`RunSpec`] — workload, cluster,
//! run kind, fault plan, failure policy, engine mode. A spec is a pure
//! value: executing it twice, anywhere, produces byte-identical
//! [`RunReport`]s. That purity is what makes the result memo sound, and
//! the **canonical serialization** of the spec (plus the engine version)
//! is its memo key.
//!
//! Canonicalization normalizes every field that provably cannot affect
//! the run (e.g. the failure policy under an empty fault plan). The
//! keyed envelope `{"engine_version":N,"spec":{…}}` is written by the
//! derived `Serialize` impls, which stream fields in declaration order
//! — no `HashMap` iteration anywhere in the chain, so the bytes are
//! stable across processes, platforms and reruns. The normalization is
//! applied while writing (the spec is never cloned), and
//! [`RunSpec::memo_key`] writes the envelope straight into the FNV-1a
//! state instead of a string: the key is the 64-bit FNV-1a hash of
//! exactly the bytes [`RunSpec::canonical_bytes`] returns.
//! [`now_sim::ENGINE_VERSION`] is part of the envelope, so any
//! engine-semantics change atomically invalidates every previously
//! persisted result.

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_core::loopsched::ChunkScheme;
use dlb_core::strategy::{AdaptiveConfig, StrategyConfig};
use dlb_core::work::{LoopWorkload, UniformLoop};
use now_fault::{FailurePolicy, FaultPlan};
use now_sim::{ClusterSpec, Engine, EngineCounters, EngineMode, RunReport, ENGINE_VERSION};
use serde::ser::Output;
use serde::{Deserialize, Serialize, Writer};
use std::borrow::Cow;

/// A serializable workload description — the closed set of loop shapes
/// the experiments run. [`WorkloadSpec::build`] reconstructs the exact
/// `LoopWorkload` the runner previously received directly (TRFD's second
/// loop comes back bitonic-folded *and* prefix-sum indexed, as
/// `TrfdConfig::loop2_workload` builds it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A uniform loop: every iteration costs the same.
    Uniform {
        iterations: u64,
        iter_cost: f64,
        bytes_per_iter: u64,
    },
    /// MXM matrix multiplication, `R × C × R2` (Figs. 5/6, Table 1).
    Mxm { r: u64, c: u64, r2: u64 },
    /// TRFD first (uniform) loop nest for size `n`.
    TrfdL1 { n: u64 },
    /// TRFD second loop nest for size `n`, bitonic-folded and indexed.
    TrfdL2 { n: u64 },
}

impl WorkloadSpec {
    /// The MXM workload for `cfg`.
    pub fn mxm(cfg: MxmConfig) -> Self {
        WorkloadSpec::Mxm {
            r: cfg.r,
            c: cfg.c,
            r2: cfg.r2,
        }
    }

    /// Construct the concrete workload.
    pub fn build(&self) -> Box<dyn LoopWorkload> {
        match *self {
            WorkloadSpec::Uniform {
                iterations,
                iter_cost,
                bytes_per_iter,
            } => Box::new(UniformLoop::new(iterations, iter_cost, bytes_per_iter)),
            WorkloadSpec::Mxm { r, c, r2 } => Box::new(MxmConfig::new(r, c, r2).workload()),
            WorkloadSpec::TrfdL1 { n } => Box::new(TrfdConfig::new(n).loop1_workload()),
            WorkloadSpec::TrfdL2 { n } => Box::new(TrfdConfig::new(n).loop2_workload()),
        }
    }
}

/// What kind of execution the spec requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunKind {
    /// Static equal blocks, no balancing.
    NoDlb,
    /// One of the four DLB strategies.
    Dlb { cfg: StrategyConfig },
    /// DLB plus periodic synchronization every `dt` seconds (A1.3).
    Periodic { cfg: StrategyConfig, dt: f64 },
    /// Section-2.2 central-task-queue baseline.
    TaskQueue { scheme: ChunkScheme },
    /// §S17 runtime re-customization: start under `cfg.initial` and
    /// re-decide the strategy at episode boundaries. The full policy
    /// (hysteresis, window, churn guard) is part of the spec — and hence
    /// of the memo key — because every parameter can change the report.
    Adaptive { cfg: AdaptiveConfig },
}

/// The complete description of one simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    pub workload: WorkloadSpec,
    pub cluster: ClusterSpec,
    pub kind: RunKind,
    /// Fault plan; an empty plan runs fault-free.
    pub plan: FaultPlan,
    /// Failure policy; only meaningful when `plan` is non-empty.
    pub policy: FailurePolicy,
    /// Engine stepping mode. All modes produce byte-identical reports,
    /// but the key keeps them separate: mode equivalence is a property
    /// the chaos campaign *checks*, not one the memo may assume.
    pub mode: EngineMode,
}

impl RunSpec {
    /// A fault-free spec in the default engine mode
    /// ([`EngineMode::Episode`]).
    pub fn new(workload: WorkloadSpec, cluster: ClusterSpec, kind: RunKind) -> Self {
        Self {
            workload,
            cluster,
            kind,
            plan: FaultPlan::default(),
            policy: FailurePolicy::default(),
            mode: EngineMode::default(),
        }
    }

    /// Attach a fault plan and failure policy.
    pub fn with_faults(mut self, plan: FaultPlan, policy: FailurePolicy) -> Self {
        self.plan = plan;
        self.policy = policy;
        self
    }

    /// Select the engine mode explicitly.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// The spec with every run-irrelevant field normalized, so two specs
    /// that provably execute identically share one memo entry:
    ///
    /// * an empty fault plan resets the policy to the default (the
    ///   failure machinery never engages);
    /// * the task-queue baseline ignores plan, policy and engine mode
    ///   entirely, so all three reset (the mode to its default).
    pub fn canonical(&self) -> RunSpec {
        let (plan, policy, mode) = self.canonical_parts();
        RunSpec {
            workload: self.workload.clone(),
            cluster: self.cluster.clone(),
            kind: self.kind.clone(),
            plan: plan.into_owned(),
            policy,
            mode,
        }
    }

    /// The fields [`RunSpec::canonical`] normalizes, as they stand in
    /// the canonical spec.
    fn canonical_parts(&self) -> (Cow<'_, FaultPlan>, FailurePolicy, EngineMode) {
        let task_queue = matches!(self.kind, RunKind::TaskQueue { .. });
        let (plan, mode) = if task_queue {
            (Cow::Owned(FaultPlan::default()), EngineMode::default())
        } else {
            (Cow::Borrowed(&self.plan), self.mode)
        };
        let policy = if plan.is_empty() {
            FailurePolicy::default()
        } else {
            self.policy
        };
        (plan, policy, mode)
    }

    /// Canonical serialization of the keyed envelope (engine version +
    /// canonical spec) — the exact bytes the memo key hashes.
    pub fn canonical_bytes(&self) -> String {
        Self::canonical_bytes_with_version(self, ENGINE_VERSION)
    }

    /// [`RunSpec::canonical_bytes`] under an explicit engine version
    /// (exposed so tests can prove a version bump changes the key).
    pub fn canonical_bytes_with_version(&self, engine_version: u32) -> String {
        let mut w = Writer::compact(String::new());
        self.write_canonical(engine_version, &mut w);
        w.into_inner()
    }

    /// Write `{"engine_version":N,"spec":<canonical spec>}`: the fields
    /// of [`RunSpec`] in declaration order, as its derived `Serialize`
    /// writes them, with [`RunSpec::canonical`]'s normalization applied
    /// on the way.
    fn write_canonical<O: Output>(&self, engine_version: u32, w: &mut Writer<O>) {
        let (plan, policy, mode) = self.canonical_parts();
        let mut write = || -> Result<(), serde::Error> {
            w.begin_object();
            w.key("engine_version");
            w.u64(engine_version.into());
            w.key("spec");
            w.begin_object();
            w.key("workload");
            self.workload.serialize(w)?;
            w.key("cluster");
            self.cluster.serialize(w)?;
            w.key("kind");
            self.kind.serialize(w)?;
            w.key("plan");
            plan.serialize(w)?;
            w.key("policy");
            policy.serialize(w)?;
            w.key("mode");
            mode.serialize(w)?;
            w.end_object();
            w.end_object();
            Ok(())
        };
        write().expect("run specs always serialize");
    }

    /// Content address of this spec under the current
    /// [`now_sim::ENGINE_VERSION`].
    pub fn memo_key(&self) -> MemoKey {
        self.memo_key_with_version(ENGINE_VERSION)
    }

    /// [`RunSpec::memo_key`] under an explicit engine version: the
    /// canonical envelope written straight into the hash state.
    pub fn memo_key_with_version(&self, engine_version: u32) -> MemoKey {
        let mut w = Writer::compact(Fnv1a::default());
        self.write_canonical(engine_version, &mut w);
        MemoKey(w.into_inner().0)
    }

    /// Execute the spec. Pure: two executions of equal specs produce
    /// byte-identical reports.
    pub fn execute(&self) -> RunReport {
        self.execute_counted().0
    }

    /// Execute and also return the engine's heap-event counters (zero
    /// for the task-queue baseline, which has no DLB engine).
    pub fn execute_counted(&self) -> (RunReport, EngineCounters) {
        let wl = self.workload.build();
        match &self.kind {
            RunKind::TaskQueue { scheme } => (
                now_sim::run_task_queue(&self.cluster, wl.as_ref(), *scheme),
                EngineCounters::default(),
            ),
            RunKind::NoDlb => self.engine(wl.as_ref(), None, None).run_counted(),
            RunKind::Dlb { cfg } => self.engine(wl.as_ref(), Some(*cfg), None).run_counted(),
            RunKind::Periodic { cfg, dt } => self
                .engine(wl.as_ref(), Some(*cfg), Some(*dt))
                .run_counted(),
            RunKind::Adaptive { cfg } => self
                .engine(wl.as_ref(), Some(cfg.initial), None)
                .with_adaptive(*cfg)
                .run_counted(),
        }
    }

    fn engine<'w>(
        &self,
        wl: &'w dyn LoopWorkload,
        cfg: Option<StrategyConfig>,
        periodic: Option<f64>,
    ) -> Engine<'w> {
        let mut e = Engine::new(self.cluster.clone(), wl, cfg).with_mode(self.mode);
        if !self.plan.is_empty() {
            e = e.with_faults(self.plan.clone(), self.policy);
        }
        if let Some(dt) = periodic {
            e = e.with_periodic_sync(dt);
        }
        e
    }
}

/// A 64-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoKey(pub u64);

impl std::fmt::Display for MemoKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// FNV-1a state; as a writer [`Output`] it hashes the text it is given.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Output for Fnv1a {
    fn write(&mut self, s: &str) {
        self.update(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::Strategy;

    fn spec() -> RunSpec {
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
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_is_deterministic_and_version_sensitive() {
        let a = spec();
        let b = spec();
        assert_eq!(a.memo_key(), b.memo_key());
        assert_ne!(
            a.memo_key_with_version(ENGINE_VERSION),
            a.memo_key_with_version(ENGINE_VERSION + 1),
            "engine version must be part of the key"
        );
    }

    #[test]
    fn empty_plan_normalizes_policy() {
        let a = spec();
        let mut b = spec();
        b.policy.heartbeat_interval *= 2.0;
        // The policy cannot matter without a fault plan.
        assert_eq!(a.memo_key(), b.memo_key());
    }

    #[test]
    fn plan_and_mode_change_the_key() {
        let a = spec();
        let faulted = spec().with_faults(
            FaultPlan {
                crashes: vec![now_fault::CrashSpec { proc: 1, at: 0.5 }],
                ..FaultPlan::default()
            },
            FailurePolicy::default(),
        );
        let reference = spec().with_mode(EngineMode::PerIter);
        assert_ne!(a.memo_key(), faulted.memo_key());
        assert_ne!(a.memo_key(), reference.memo_key());
    }

    #[test]
    fn task_queue_ignores_mode_and_faults() {
        let base = RunSpec::new(
            WorkloadSpec::Uniform {
                iterations: 100,
                iter_cost: 0.01,
                bytes_per_iter: 64,
            },
            ClusterSpec::dedicated(4),
            RunKind::TaskQueue {
                scheme: ChunkScheme::Guided,
            },
        )
        .with_mode(EngineMode::PerIter);
        let other = base.clone().with_mode(EngineMode::Episode);
        assert_eq!(base.memo_key(), other.memo_key());
    }

    #[test]
    fn adaptive_policy_is_part_of_the_key() {
        let mk = |hysteresis: f64| {
            RunSpec::new(
                WorkloadSpec::Uniform {
                    iterations: 4000,
                    iter_cost: 0.01,
                    bytes_per_iter: 800,
                },
                ClusterSpec::paper_homogeneous(4, 7, 0.5),
                RunKind::Adaptive {
                    cfg: AdaptiveConfig {
                        hysteresis,
                        ..AdaptiveConfig::paper(Strategy::Lddlb, 2)
                    },
                },
            )
            .with_mode(EngineMode::Episode)
        };
        assert_eq!(mk(0.15).memo_key(), mk(0.15).memo_key());
        assert_ne!(
            mk(0.15).memo_key(),
            mk(0.3).memo_key(),
            "every switching-policy parameter must be content-addressed"
        );
        // And an adaptive spec never collides with the static spec of
        // its initial strategy.
        let stat = RunSpec::new(
            WorkloadSpec::Uniform {
                iterations: 4000,
                iter_cost: 0.01,
                bytes_per_iter: 800,
            },
            ClusterSpec::paper_homogeneous(4, 7, 0.5),
            RunKind::Dlb {
                cfg: StrategyConfig::paper(Strategy::Lddlb, 2),
            },
        )
        .with_mode(EngineMode::Episode);
        assert_ne!(mk(0.15).memo_key(), stat.memo_key());
    }

    #[test]
    fn adaptive_execute_matches_direct_runner() {
        let acfg = AdaptiveConfig::paper(Strategy::Lddlb, 2);
        let s = RunSpec::new(
            WorkloadSpec::Uniform {
                iterations: 4000,
                iter_cost: 0.01,
                bytes_per_iter: 800,
            },
            ClusterSpec::paper_homogeneous(4, 7, 0.5),
            RunKind::Adaptive { cfg: acfg },
        )
        .with_mode(EngineMode::Episode);
        let wl = s.workload.build();
        let direct = Engine::new(s.cluster.clone(), wl.as_ref(), Some(acfg.initial))
            .with_mode(EngineMode::Episode)
            .with_adaptive(acfg)
            .run();
        let report = s.execute();
        assert!(report.adaptive.is_some(), "adaptive accounting present");
        assert_eq!(report, direct);
    }

    #[test]
    fn execute_matches_direct_runner() {
        let s = spec();
        let wl = s.workload.build();
        let direct = Engine::new(s.cluster.clone(), wl.as_ref(), {
            let RunKind::Dlb { cfg } = s.kind else {
                unreachable!()
            };
            Some(cfg)
        })
        .with_mode(EngineMode::Episode)
        .run();
        assert_eq!(s.execute(), direct);
    }
}
