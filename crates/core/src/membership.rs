//! Group membership under failures.
//!
//! The paper fixes group membership for the whole run (Section 3.5) on
//! the assumption of dedicated, fault-free workstations. The
//! failure-aware protocol relaxes that: a member declared dead is
//! excluded from every later distribution, and if the dead member held
//! the central balancer role the lowest-numbered surviving processor is
//! promoted. This tracker owns that bookkeeping, independent of the
//! simulator that drives it.
//!
//! At paper scale (P=4/16) a full scan per query is free; at P=4096 it
//! dominates per-event work. The tracker therefore maintains the death
//! set incrementally: a sorted set of dead ids plus a live counter,
//! kept in lock-step with the `dead` bit vector by the only two
//! mutators ([`declare_dead`]/[`revive`]). Queries that used to scan
//! all of `0..P` — [`alive_count`], [`promote`], and the iteration of
//! dead members — now cost O(1) or O(#dead), never O(P). The bit
//! vector stays for O(1) `is_dead`/`is_alive` point queries.
//!
//! [`declare_dead`]: Membership::declare_dead
//! [`revive`]: Membership::revive
//! [`alive_count`]: Membership::alive_count
//! [`promote`]: Membership::promote

use std::collections::BTreeSet;

/// Live/dead bookkeeping for one run's processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    dead: Vec<bool>,
    /// Sorted ids of dead processors — always consistent with `dead`.
    dead_set: BTreeSet<usize>,
    /// Live-processor count — always `processors() - dead_set.len()`.
    alive: usize,
}

impl Membership {
    /// All `p` processors start alive.
    pub fn new(p: usize) -> Self {
        Membership {
            dead: vec![false; p],
            dead_set: BTreeSet::new(),
            alive: p,
        }
    }

    pub fn processors(&self) -> usize {
        self.dead.len()
    }

    pub fn is_dead(&self, proc: usize) -> bool {
        self.dead[proc]
    }

    pub fn is_alive(&self, proc: usize) -> bool {
        !self.dead[proc]
    }

    /// Declare `proc` dead. Returns `true` if this is news (first
    /// declaration), `false` if it was already dead — callers use this to
    /// make detection idempotent across the heartbeat and watchdog paths.
    pub fn declare_dead(&mut self, proc: usize) -> bool {
        let news = !std::mem::replace(&mut self.dead[proc], true);
        if news {
            self.dead_set.insert(proc);
            self.alive -= 1;
        }
        news
    }

    /// Bring a dead processor back to life. Returns `true` if this is
    /// news (it was dead), `false` if it was already alive — callers use
    /// this to make recovery idempotent, mirroring [`declare_dead`].
    ///
    /// [`declare_dead`]: Membership::declare_dead
    pub fn revive(&mut self, proc: usize) -> bool {
        let news = std::mem::replace(&mut self.dead[proc], false);
        if news {
            self.dead_set.remove(&proc);
            self.alive += 1;
        }
        news
    }

    /// Number of live processors. O(1).
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Number of dead processors. O(1).
    pub fn dead_count(&self) -> usize {
        self.dead_set.len()
    }

    /// Dead processors in ascending id order. O(#dead) to walk — never
    /// O(P) — which is what keeps failure sweeps off the hot path at
    /// large P.
    pub fn dead_members(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead_set.iter().copied()
    }

    /// Live members of `group`, in order.
    pub fn alive_members<'a>(&'a self, group: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        group.iter().copied().filter(move |&m| !self.dead[m])
    }

    /// The processor that takes over a central balancer role previously
    /// held by `master`: `master` itself while alive, else the
    /// lowest-numbered survivor. `None` if everyone is dead.
    ///
    /// O(#dead): the lowest survivor is the first gap in the sorted
    /// death set.
    pub fn promote(&self, master: usize) -> Option<usize> {
        if !self.dead[master] {
            return Some(master);
        }
        let mut candidate = 0usize;
        for &d in &self.dead_set {
            if d == candidate {
                candidate += 1;
            } else {
                break;
            }
        }
        (candidate < self.dead.len()).then_some(candidate)
    }

    /// The lowest-numbered live member of `group`, if any. O(|group|)
    /// worst case but short-circuits on the first survivor; groups are
    /// K-sized, not P-sized.
    pub fn promote_within(&self, group: &[usize]) -> Option<usize> {
        group.iter().copied().find(|&m| !self.dead[m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_dead_is_idempotent_news() {
        let mut m = Membership::new(4);
        assert!(m.is_alive(2));
        assert!(m.declare_dead(2));
        assert!(!m.declare_dead(2), "second declaration is not news");
        assert!(m.is_dead(2));
        assert_eq!(m.alive_count(), 3);
        assert_eq!(m.dead_count(), 1);
    }

    #[test]
    fn revive_round_trips_death() {
        let mut m = Membership::new(4);
        assert!(!m.revive(3), "reviving a live proc is not news");
        m.declare_dead(3);
        assert!(m.revive(3));
        assert!(m.is_alive(3));
        assert_eq!(m.alive_count(), 4);
        assert!(m.declare_dead(3), "death after revival is news again");
    }

    #[test]
    fn alive_members_filters_group() {
        let mut m = Membership::new(6);
        m.declare_dead(1);
        m.declare_dead(4);
        let group = [0, 1, 2, 4];
        let alive: Vec<usize> = m.alive_members(&group).collect();
        assert_eq!(alive, vec![0, 2]);
    }

    #[test]
    fn promotion_picks_lowest_survivor() {
        let mut m = Membership::new(4);
        assert_eq!(m.promote(0), Some(0));
        m.declare_dead(0);
        assert_eq!(m.promote(0), Some(1));
        m.declare_dead(1);
        m.declare_dead(2);
        assert_eq!(m.promote(0), Some(3));
        m.declare_dead(3);
        assert_eq!(m.promote(0), None);
    }

    #[test]
    fn promotion_skips_non_prefix_deaths() {
        let mut m = Membership::new(8);
        m.declare_dead(2);
        m.declare_dead(5);
        // Dead set {2,5} has its first gap at 0.
        m.declare_dead(0);
        assert_eq!(m.promote(0), Some(1));
        m.declare_dead(1);
        assert_eq!(m.promote(0), Some(3));
    }

    #[test]
    fn dead_members_sorted_and_incremental() {
        let mut m = Membership::new(16);
        for p in [9, 3, 12, 3] {
            m.declare_dead(p);
        }
        assert_eq!(m.dead_members().collect::<Vec<_>>(), vec![3, 9, 12]);
        m.revive(9);
        assert_eq!(m.dead_members().collect::<Vec<_>>(), vec![3, 12]);
        assert_eq!(m.alive_count(), 14);
    }

    #[test]
    fn promote_within_picks_lowest_group_survivor() {
        let mut m = Membership::new(8);
        let group = [4, 5, 6, 7];
        assert_eq!(m.promote_within(&group), Some(4));
        m.declare_dead(4);
        m.declare_dead(5);
        assert_eq!(m.promote_within(&group), Some(6));
        for p in group {
            m.declare_dead(p);
        }
        assert_eq!(m.promote_within(&group), None);
    }
}
