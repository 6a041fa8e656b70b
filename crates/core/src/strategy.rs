//! Strategy taxonomy and configuration (Section 3.5).

use serde::{Deserialize, Serialize};

/// Information scope of the balancing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// All `P` processors synchronize and exchange profiles.
    Global,
    /// Processors are partitioned into groups of `K`; decisions are made
    /// within a group only.
    Local,
}

/// Location of the load balancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Control {
    /// One master processor hosts the balancer (and also computes).
    Centralized,
    /// The balancer is fully replicated on every processor.
    Distributed,
}

/// The four strategies at the extreme points of the two axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Strategy {
    /// Global Centralized DLB.
    Gcdlb,
    /// Global Distributed DLB.
    Gddlb,
    /// Local Centralized DLB (one central balancer serving all groups
    /// asynchronously — the source of the *delay factor*).
    Lcdlb,
    /// Local Distributed DLB.
    Lddlb,
}

impl Strategy {
    /// All four strategies, in the paper's reporting order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Gcdlb,
        Strategy::Gddlb,
        Strategy::Lcdlb,
        Strategy::Lddlb,
    ];

    pub fn scope(&self) -> Scope {
        match self {
            Strategy::Gcdlb | Strategy::Gddlb => Scope::Global,
            Strategy::Lcdlb | Strategy::Lddlb => Scope::Local,
        }
    }

    pub fn control(&self) -> Control {
        match self {
            Strategy::Gcdlb | Strategy::Lcdlb => Control::Centralized,
            Strategy::Gddlb | Strategy::Lddlb => Control::Distributed,
        }
    }

    /// Full name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Gcdlb => "GCDLB",
            Strategy::Gddlb => "GDDLB",
            Strategy::Lcdlb => "LCDLB",
            Strategy::Lddlb => "LDDLB",
        }
    }

    /// Two-letter abbreviation as used in Tables 1 and 2 ("GC", "GD", …).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Strategy::Gcdlb => "GC",
            Strategy::Gddlb => "GD",
            Strategy::Lcdlb => "LC",
            Strategy::Lddlb => "LD",
        }
    }

    /// Position in the paper's reporting order (the index into
    /// [`Strategy::ALL`]). Total — every variant has a rank — so callers
    /// can tie-break comparisons without a fallible position lookup.
    pub fn paper_rank(&self) -> usize {
        match self {
            Strategy::Gcdlb => 0,
            Strategy::Gddlb => 1,
            Strategy::Lcdlb => 2,
            Strategy::Lddlb => 3,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How group membership is formed for the local strategies (Section 3.5).
/// The paper implements and evaluates the K-block fixed-group approach;
/// random fixed groups are kept for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Grouping {
    /// Consecutive processor ids per group (`K`-block), fixed for the run.
    KBlock,
    /// Random membership (seeded), fixed for the run.
    Random { seed: u64 },
}

/// Tunables of the DLB runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrategyConfig {
    /// Which of the four schemes to run.
    pub strategy: Strategy,
    /// Group size `K` for the local schemes (ignored when global — the
    /// global schemes are the `K = P` instance).
    pub group_size: usize,
    /// How groups are formed.
    pub grouping: Grouping,
    /// Required predicted improvement to move work: the paper uses 10 %.
    pub profitability_margin: f64,
    /// Below this fraction of the remaining work, a planned move is
    /// considered noise ("the system is almost balanced, or only a small
    /// portion of the work remains") and cancelled.
    pub min_move_fraction: f64,
    /// Whether profitability includes the estimated cost of the actual work
    /// movement. The paper found it "generally better to exclude" it
    /// (Section 3.4); `false` is the paper's setting, `true` is ablation
    /// A1.2.
    pub include_move_cost: bool,
    /// Balancer distribution-calculation cost `ξ` in seconds (Section 4.2
    /// calls it "usually quite small").
    pub calc_cost: f64,
    /// Depth of the group hierarchy for the local schemes (§S16): 1 is
    /// the paper's flat grouping (a single central balancer for LC);
    /// `d > 1` stacks `d - 1` domain levels over the leaf groups, giving
    /// each level-1 domain of [`StrategyConfig::group_fanout`] leaf
    /// groups its own balancer role, with master promotion escalating
    /// level by level when whole domains die. Ignored by the global
    /// schemes.
    pub group_depth: usize,
    /// Leaf groups (and domains) per parent domain when
    /// [`StrategyConfig::group_depth`] exceeds 1.
    pub group_fanout: usize,
}

impl StrategyConfig {
    /// The paper's settings for a given strategy and group size.
    pub fn paper(strategy: Strategy, group_size: usize) -> Self {
        Self {
            strategy,
            group_size,
            grouping: Grouping::KBlock,
            profitability_margin: 0.10,
            min_move_fraction: 0.02,
            include_move_cost: false,
            calc_cost: 1e-3,
            group_depth: 1,
            group_fanout: 2,
        }
    }

    /// Select a hierarchical group tree: `depth - 1` domain levels of
    /// `fanout` children each over the leaf groups.
    pub fn with_hierarchy(mut self, depth: usize, fanout: usize) -> Self {
        self.group_depth = depth;
        self.group_fanout = fanout;
        self
    }

    /// The group tree this configuration induces over `leaf_groups`
    /// leaf groups, or `None` for the flat paper layout.
    pub fn hierarchy(&self, leaf_groups: usize) -> Option<crate::hierarchy::GroupTree> {
        (self.group_depth > 1 && self.strategy.scope() == Scope::Local).then(|| {
            crate::hierarchy::GroupTree::new(leaf_groups, self.group_fanout, self.group_depth - 1)
        })
    }

    /// Partition processors `0..p` into groups according to the strategy:
    /// global schemes yield one group of `P`; local schemes yield
    /// `⌈P/K⌉` groups.
    ///
    /// # Panics
    /// Panics if `p == 0`, or if a local strategy has `group_size == 0`.
    pub fn groups(&self, p: usize) -> Vec<Vec<usize>> {
        assert!(p > 0, "need at least one processor");
        match self.strategy.scope() {
            Scope::Global => vec![(0..p).collect()],
            Scope::Local => {
                let k = self.group_size;
                assert!(k > 0, "local strategies need a positive group size");
                match self.grouping {
                    Grouping::KBlock => (0..p)
                        .step_by(k)
                        .map(|s| (s..(s + k).min(p)).collect())
                        .collect(),
                    Grouping::Random { seed } => {
                        let mut ids: Vec<usize> = (0..p).collect();
                        // Fisher-Yates with a splitmix-style inline mixer to
                        // avoid a rand dependency in the core crate.
                        let mut state = seed;
                        let mut next = move || {
                            state = state.wrapping_add(0x9E3779B97F4A7C15);
                            let mut z = state;
                            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                            z ^ (z >> 31)
                        };
                        for i in (1..p).rev() {
                            let j = (next() % (i as u64 + 1)) as usize;
                            ids.swap(i, j);
                        }
                        ids.chunks(k).map(<[usize]>::to_vec).collect()
                    }
                }
            }
        }
    }

    /// Validate ranges; called by runtimes before a run.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.profitability_margin),
            "profitability margin must be in [0,1)"
        );
        assert!(
            (0.0..1.0).contains(&self.min_move_fraction),
            "min_move_fraction must be in [0,1)"
        );
        assert!(self.calc_cost >= 0.0 && self.calc_cost.is_finite());
        if self.strategy.scope() == Scope::Local {
            assert!(
                self.group_size > 0,
                "local strategies need a positive group size"
            );
        }
        assert!(self.group_depth >= 1, "group depth must be at least 1");
        if self.group_depth > 1 {
            assert!(
                self.strategy.scope() == Scope::Local,
                "hierarchical groups require a local strategy"
            );
            assert!(
                self.group_fanout >= 2,
                "hierarchical groups need a fanout of at least 2"
            );
        }
    }
}

/// Runtime re-customization policy (§S17): run the paper's decision
/// process *again* at episode boundaries, over observed rates and the
/// live fault picture, and switch strategy mid-run when the predicted
/// win clears the hysteresis threshold. This is a policy wrapper, not a
/// fifth [`Strategy`]: the engine always executes one of the four paper
/// schemes at any instant; `AdaptiveConfig` only governs when it trades
/// the current one for another.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Strategy configuration the run starts under (group size, margins
    /// and hierarchy shape persist across switches — only
    /// `initial.strategy` is re-decided).
    pub initial: StrategyConfig,
    /// Required predicted relative win before a switch fires: the new
    /// strategy's predicted completion must undercut the current one's
    /// by this fraction. Guards against churn on near-tied predictions.
    pub hysteresis: f64,
    /// Minimum closed episodes between consecutive switches — the other
    /// half of the churn guard.
    pub min_episodes_between: u32,
    /// Observation window in episodes: rates are measured over the last
    /// `window` closed episodes, and the model is re-consulted at most
    /// once per window.
    pub window: u32,
}

impl AdaptiveConfig {
    /// Default adaptive policy around the paper's settings for the
    /// given starting strategy and group size.
    pub fn paper(strategy: Strategy, group_size: usize) -> Self {
        Self {
            initial: StrategyConfig::paper(strategy, group_size),
            hysteresis: 0.15,
            min_episodes_between: 2,
            window: 4,
        }
    }

    /// Validate ranges; called by runtimes before a run.
    ///
    /// # Panics
    /// Panics on out-of-range parameters.
    pub fn validate(&self) {
        self.initial.validate();
        assert!(
            (0.0..1.0).contains(&self.hysteresis),
            "adaptive hysteresis must be in [0,1)"
        );
        assert!(
            self.min_episodes_between >= 1,
            "adaptive policy needs at least one episode between switches"
        );
        assert!(
            self.window >= 1,
            "adaptive observation window must cover at least one episode"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_classification() {
        assert_eq!(Strategy::Gcdlb.scope(), Scope::Global);
        assert_eq!(Strategy::Gcdlb.control(), Control::Centralized);
        assert_eq!(Strategy::Gddlb.control(), Control::Distributed);
        assert_eq!(Strategy::Lcdlb.scope(), Scope::Local);
        assert_eq!(Strategy::Lddlb.scope(), Scope::Local);
        assert_eq!(Strategy::Lddlb.control(), Control::Distributed);
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.abbrev()).collect();
        assert_eq!(names, ["GC", "GD", "LC", "LD"]);
    }

    #[test]
    fn global_schemes_form_one_group() {
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let g = cfg.groups(16);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].len(), 16);
    }

    #[test]
    fn kblock_grouping_partitions() {
        let cfg = StrategyConfig::paper(Strategy::Lddlb, 8);
        let g = cfg.groups(16);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0], (0..8).collect::<Vec<_>>());
        assert_eq!(g[1], (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_kblock_last_group_smaller() {
        let cfg = StrategyConfig::paper(Strategy::Lcdlb, 4);
        let g = cfg.groups(10);
        assert_eq!(g.len(), 3);
        assert_eq!(g[2], vec![8, 9]);
    }

    #[test]
    fn random_grouping_is_a_partition() {
        let mut cfg = StrategyConfig::paper(Strategy::Lddlb, 3);
        cfg.grouping = Grouping::Random { seed: 7 };
        let g = cfg.groups(10);
        let mut all: Vec<usize> = g.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert!(g.iter().all(|grp| grp.len() <= 3));
    }

    #[test]
    fn random_grouping_deterministic_per_seed() {
        let mut cfg = StrategyConfig::paper(Strategy::Lddlb, 4);
        cfg.grouping = Grouping::Random { seed: 42 };
        assert_eq!(cfg.groups(12), cfg.groups(12));
    }

    #[test]
    fn paper_defaults() {
        let cfg = StrategyConfig::paper(Strategy::Gcdlb, 16);
        assert!((cfg.profitability_margin - 0.10).abs() < 1e-12);
        assert!(!cfg.include_move_cost);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "positive group size")]
    fn local_zero_group_rejected() {
        let cfg = StrategyConfig::paper(Strategy::Lddlb, 0);
        cfg.groups(8);
    }

    #[test]
    fn flat_and_global_configs_have_no_tree() {
        assert!(StrategyConfig::paper(Strategy::Lcdlb, 4)
            .hierarchy(8)
            .is_none());
        assert!(StrategyConfig::paper(Strategy::Gddlb, 4)
            .with_hierarchy(2, 4)
            .hierarchy(1)
            .is_none());
    }

    #[test]
    fn hierarchy_builder_shapes_the_tree() {
        let cfg = StrategyConfig::paper(Strategy::Lcdlb, 4).with_hierarchy(3, 4);
        cfg.validate();
        let tree = cfg.hierarchy(64).expect("local depth>1 yields a tree");
        assert_eq!(tree.levels(), 2);
        assert_eq!(tree.roles(), 16);
    }

    #[test]
    #[should_panic(expected = "require a local strategy")]
    fn global_hierarchy_rejected() {
        StrategyConfig::paper(Strategy::Gcdlb, 4)
            .with_hierarchy(2, 4)
            .validate();
    }

    #[test]
    fn adaptive_paper_defaults_validate() {
        let cfg = AdaptiveConfig::paper(Strategy::Gddlb, 2);
        cfg.validate();
        assert_eq!(cfg.initial.strategy, Strategy::Gddlb);
        assert!((cfg.hysteresis - 0.15).abs() < 1e-12);
        assert_eq!(cfg.min_episodes_between, 2);
        assert_eq!(cfg.window, 4);
    }

    #[test]
    #[should_panic(expected = "hysteresis must be in [0,1)")]
    fn adaptive_rejects_full_hysteresis() {
        let mut cfg = AdaptiveConfig::paper(Strategy::Gddlb, 2);
        cfg.hysteresis = 1.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "between switches")]
    fn adaptive_rejects_zero_switch_gap() {
        let mut cfg = AdaptiveConfig::paper(Strategy::Lcdlb, 2);
        cfg.min_episodes_between = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "observation window")]
    fn adaptive_rejects_zero_window() {
        let mut cfg = AdaptiveConfig::paper(Strategy::Lddlb, 2);
        cfg.window = 0;
        cfg.validate();
    }
}
