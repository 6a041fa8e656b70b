//! Work-movement planning: who ships how many iterations to whom.
//!
//! Given the old distribution (`β`, what is left on each processor) and the
//! new one (`α`), the planner pairs up surplus processors with deficit
//! processors. The number of transfer messages is the `μ(j)` of the model's
//! data-movement cost (eq. 5); the centralized schemes additionally send
//! one instruction message per *sender* ("instructions are only sent to the
//! processors which have to send data").

use crate::distribution::Distribution;
use serde::{Deserialize, Serialize};

/// One planned work shipment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transfer {
    /// Donating processor (its `β > α`).
    pub from: usize,
    /// Receiving processor (its `β < α`).
    pub to: usize,
    /// Iterations to move.
    pub iters: u64,
}

/// Plan the transfers turning `old` into `new`.
///
/// Greedy largest-surplus ↔ largest-deficit matching: it minimizes the
/// message count `μ` in the common case and is deterministic (ties broken
/// by processor id). The plan is *balanced*: total sent equals total
/// received equals [`Distribution::work_moved`]. Each donor's transfers,
/// and each receiver's, are contiguous in the plan, so a member's share
/// is one run of it.
///
/// # Panics
/// Panics if the distributions have different processor counts or totals.
pub fn plan_transfers(old: &Distribution, new: &Distribution) -> Vec<Transfer> {
    assert_eq!(
        old.len(),
        new.len(),
        "distributions must cover the same processors"
    );
    assert_eq!(
        old.total(),
        new.total(),
        "redistribution must conserve work"
    );
    let mut surplus: Vec<(usize, u64)> = Vec::new();
    let mut deficit: Vec<(usize, u64)> = Vec::new();
    for i in 0..old.len() {
        let (b, a) = (old.count(i), new.count(i));
        match b.cmp(&a) {
            std::cmp::Ordering::Greater => surplus.push((i, b - a)),
            std::cmp::Ordering::Less => deficit.push((i, a - b)),
            std::cmp::Ordering::Equal => {}
        }
    }
    // Largest first; ties by id for determinism.
    surplus.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
    deficit.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));

    let mut plan = Vec::new();
    let (mut si, mut di) = (0, 0);
    while si < surplus.len() && di < deficit.len() {
        let give = surplus[si].1.min(deficit[di].1);
        plan.push(Transfer {
            from: surplus[si].0,
            to: deficit[di].0,
            iters: give,
        });
        surplus[si].1 -= give;
        deficit[di].1 -= give;
        if surplus[si].1 == 0 {
            si += 1;
        }
        if deficit[di].1 == 0 {
            di += 1;
        }
    }
    debug_assert!(
        surplus[si.min(surplus.len().saturating_sub(1))..]
            .iter()
            .all(|s| s.1 == 0)
            || surplus.is_empty()
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dist(v: &[u64]) -> Distribution {
        Distribution::from_counts(v.to_vec())
    }

    fn apply(old: &Distribution, plan: &[Transfer]) -> Distribution {
        let mut c = old.counts().to_vec();
        for t in plan {
            c[t.from] -= t.iters;
            c[t.to] += t.iters;
        }
        Distribution::from_counts(c)
    }

    #[test]
    fn identity_needs_no_transfers() {
        let d = dist(&[10, 20, 30]);
        assert!(plan_transfers(&d, &d).is_empty());
    }

    #[test]
    fn single_swap() {
        let old = dist(&[10, 0]);
        let new = dist(&[4, 6]);
        let plan = plan_transfers(&old, &new);
        assert_eq!(
            plan,
            vec![Transfer {
                from: 0,
                to: 1,
                iters: 6
            }]
        );
    }

    #[test]
    fn plan_realizes_new_distribution() {
        let old = dist(&[40, 10, 25, 25]);
        let new = dist(&[10, 40, 30, 20]);
        let plan = plan_transfers(&old, &new);
        assert_eq!(apply(&old, &plan), new);
    }

    #[test]
    fn moved_iterations_match_delta() {
        let old = dist(&[40, 10, 25, 25]);
        let new = dist(&[10, 40, 30, 20]);
        let plan = plan_transfers(&old, &new);
        let total: u64 = plan.iter().map(|t| t.iters).sum();
        assert_eq!(total, old.work_moved(&new));
    }

    #[test]
    fn message_count_at_most_p_minus_one() {
        // Greedy matching on P processors needs at most P-1 messages.
        let old = dist(&[100, 0, 0, 0, 0, 0, 0, 0]);
        let new = dist(&[12, 13, 12, 13, 12, 13, 12, 13]);
        let plan = plan_transfers(&old, &new);
        assert!(plan.len() <= 7, "plan: {plan:?}");
        assert_eq!(apply(&old, &plan), new);
    }

    #[test]
    fn no_transfer_has_zero_iters() {
        let old = dist(&[9, 3, 3, 3]);
        let new = dist(&[3, 5, 5, 5]);
        for t in plan_transfers(&old, &new) {
            assert!(t.iters > 0);
            assert_ne!(t.from, t.to);
        }
    }

    #[test]
    fn deterministic_plans() {
        let old = dist(&[7, 7, 7, 7, 2]);
        let new = dist(&[2, 7, 7, 7, 7]);
        assert_eq!(plan_transfers(&old, &new), plan_transfers(&old, &new));
    }

    /// Whether each `key` value occupies one contiguous run of `plan`.
    fn contiguous(plan: &[Transfer], key: impl Fn(&Transfer) -> usize) -> bool {
        let mut seen = Vec::new();
        for run in plan.chunk_by(|a, b| key(a) == key(b)) {
            if seen.contains(&key(&run[0])) {
                return false;
            }
            seen.push(key(&run[0]));
        }
        true
    }

    proptest! {
        #[test]
        fn prop_each_members_transfers_are_contiguous(
            old in prop::collection::vec(0u64..60, 1..24),
            weights in prop::collection::vec(1u64..9, 24..25),
        ) {
            // A new distribution of the same total, roughly by `weights`.
            let total: u64 = old.iter().sum();
            let w = &weights[..old.len()];
            let wsum: u64 = w.iter().sum();
            let mut new: Vec<u64> = w.iter().map(|x| total * x / wsum).collect();
            new[0] += total - new.iter().sum::<u64>();
            let plan = plan_transfers(&dist(&old), &dist(&new));
            prop_assert!(contiguous(&plan, |t| t.from), "donor runs split: {:?}", plan);
            prop_assert!(contiguous(&plan, |t| t.to), "receiver runs split: {:?}", plan);
        }
    }

    #[test]
    #[should_panic(expected = "conserve")]
    fn unbalanced_redistribution_rejected() {
        let _ = plan_transfers(&dist(&[5, 5]), &dist(&[5, 6]));
    }
}
