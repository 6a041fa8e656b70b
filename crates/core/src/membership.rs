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
//! The state is one bit per processor. Point queries are O(1); the one
//! scan, [`Membership::lowest_alive`], runs only when a balancer role is
//! elected (at construction, on a host's death and at a strategy
//! switch), never per event.

/// Live/dead bookkeeping for one run's processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    dead: Vec<bool>,
}

impl Membership {
    /// All `p` processors start alive.
    pub fn new(p: usize) -> Self {
        Membership {
            dead: vec![false; p],
        }
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
        !std::mem::replace(&mut self.dead[proc], true)
    }

    /// Bring a dead processor back to life. Returns `true` if this is
    /// news (it was dead), `false` if it was already alive — callers use
    /// this to make recovery idempotent, mirroring [`declare_dead`].
    ///
    /// [`declare_dead`]: Membership::declare_dead
    pub fn revive(&mut self, proc: usize) -> bool {
        std::mem::replace(&mut self.dead[proc], false)
    }

    /// The processor that takes over a central balancer role previously
    /// held by `master`: `master` itself while alive, else the
    /// lowest-numbered survivor. `None` if everyone is dead.
    pub fn promote(&self, master: usize) -> Option<usize> {
        if !self.dead[master] {
            return Some(master);
        }
        self.lowest_alive()
    }

    /// The lowest-numbered survivor, `None` if everyone is dead.
    pub fn lowest_alive(&self) -> Option<usize> {
        self.dead.iter().position(|&d| !d)
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
    }

    #[test]
    fn revive_round_trips_death() {
        let mut m = Membership::new(4);
        assert!(!m.revive(3), "reviving a live proc is not news");
        m.declare_dead(3);
        assert!(m.revive(3));
        assert!(m.is_alive(3));
        assert!(m.declare_dead(3), "death after revival is news again");
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
        // Deaths at 2 and 5 leave 0 the lowest survivor until it dies.
        m.declare_dead(0);
        assert_eq!(m.promote(0), Some(1));
        m.declare_dead(1);
        assert_eq!(m.promote(0), Some(3));
    }
}
