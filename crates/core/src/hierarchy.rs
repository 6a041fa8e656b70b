//! Hierarchical group tree for the local strategies (DESIGN.md §S16).
//!
//! The paper's local schemes partition processors into flat K-sized
//! groups (Section 3.5). At P=4096 with K=4 that is a thousand leaf
//! groups, and anything per-group that consults a single global
//! coordinator — LCDLB's central balancer, the rejoin admission point —
//! reintroduces the O(P) fan-in the flat layout was supposed to avoid.
//! The group tree stacks domains on top of the leaf groups: `fanout`
//! consecutive leaf groups form a level-1 domain, `fanout` level-1
//! domains form a level-2 domain, and so on for a configurable number
//! of levels.
//!
//! Balancer *roles* live at level 1: each level-1 domain hosts one
//! central balancer serving its member groups asynchronously, so
//! LCDLB's queueing-delay factor is per-domain rather than global.
//! Levels above 1 exist for **promotion escalation**: when every
//! processor of a level-1 domain is dead, the role escalates to the
//! lowest-numbered survivor of the covering level-2 domain, then
//! level-3, and only past the tree root falls back to the global
//! lowest survivor. The tree itself is pure index arithmetic — it holds
//! no membership state and every query is O(1).

use std::ops::Range;

/// Static shape of the domain hierarchy over the leaf groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupTree {
    leaf_groups: usize,
    fanout: usize,
    levels: usize,
}

impl GroupTree {
    /// A tree over `leaf_groups` leaf groups with `fanout` children per
    /// domain and `levels` domain levels above the leaves.
    ///
    /// # Panics
    /// Panics if `leaf_groups == 0`, `fanout < 2`, or `levels == 0`.
    pub fn new(leaf_groups: usize, fanout: usize, levels: usize) -> Self {
        assert!(leaf_groups > 0, "group tree needs at least one leaf group");
        assert!(fanout >= 2, "group tree fanout must be at least 2");
        assert!(levels >= 1, "group tree needs at least one domain level");
        GroupTree {
            leaf_groups,
            fanout,
            levels,
        }
    }

    pub fn leaf_groups(&self) -> usize {
        self.leaf_groups
    }

    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Domain levels above the leaf groups.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Leaf groups covered by one domain at `level` (1-based):
    /// `fanout^level`, saturating so deep trees over few groups stay
    /// well-defined.
    pub fn span(&self, level: usize) -> usize {
        assert!(
            (1..=self.levels).contains(&level),
            "level {level} out of range 1..={}",
            self.levels
        );
        self.fanout.saturating_pow(level as u32).max(1)
    }

    /// Number of domains at `level`.
    pub fn domains_at(&self, level: usize) -> usize {
        self.leaf_groups.div_ceil(self.span(level))
    }

    /// Number of level-1 domains — one balancer role each.
    pub fn roles(&self) -> usize {
        self.domains_at(1)
    }

    /// The level-1 domain (balancer role) of leaf group `g`.
    pub fn role_of(&self, g: usize) -> usize {
        debug_assert!(g < self.leaf_groups);
        g / self.fanout
    }

    /// Leaf-group index range covered by domain `d` at `level`.
    pub fn leaf_range(&self, level: usize, d: usize) -> Range<usize> {
        let span = self.span(level);
        let lo = d * span;
        assert!(
            lo < self.leaf_groups,
            "domain {d} out of range at level {level}"
        );
        lo..(lo + span).min(self.leaf_groups)
    }

    /// The leaf-group range a role's promotion search widens to at each
    /// escalation step: level 1 is the role's own domain, the last entry
    /// covers the whole root domain. Ranges are nested and ascending.
    pub fn escalation_ranges(&self, role: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        // A role is a level-1 domain; its ancestor at level ℓ is
        // role / fanout^(ℓ-1).
        (1..=self.levels).map(move |level| {
            let ancestor = role / self.fanout.saturating_pow(level as u32 - 1).max(1);
            self.leaf_range(level, ancestor)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_partition_leaf_groups() {
        let t = GroupTree::new(10, 4, 2);
        assert_eq!(t.roles(), 3);
        let covered: Vec<usize> = (0..t.roles()).flat_map(|d| t.leaf_range(1, d)).collect();
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
        for g in 0..10 {
            let r = t.role_of(g);
            assert!(t.leaf_range(1, r).contains(&g));
        }
    }

    #[test]
    fn spans_grow_geometrically() {
        let t = GroupTree::new(64, 4, 3);
        assert_eq!(t.span(1), 4);
        assert_eq!(t.span(2), 16);
        assert_eq!(t.span(3), 64);
        assert_eq!(t.domains_at(3), 1);
    }

    #[test]
    fn escalation_ranges_nest_up_to_root() {
        let t = GroupTree::new(32, 4, 3);
        let ranges: Vec<_> = t.escalation_ranges(5).collect();
        assert_eq!(ranges, vec![20..24, 16..32, 0..32]);
        for w in ranges.windows(2) {
            assert!(w[1].start <= w[0].start && w[0].end <= w[1].end, "nested");
        }
    }

    #[test]
    fn ragged_tail_domain_is_clamped() {
        let t = GroupTree::new(10, 4, 2);
        assert_eq!(t.leaf_range(1, 2), 8..10);
        assert_eq!(t.leaf_range(2, 0), 0..10);
        assert_eq!(
            t.escalation_ranges(2).collect::<Vec<_>>(),
            vec![8..10, 0..10]
        );
    }

    #[test]
    #[should_panic(expected = "fanout must be at least 2")]
    fn unit_fanout_rejected() {
        GroupTree::new(8, 1, 2);
    }
}
