//! Property-based tests on the core data structures and invariants.

use customized_dlb::core::balance::{balance_group, BalanceVerdict};
use customized_dlb::core::profile::PerfProfile;
use customized_dlb::core::workqueue::{ranges_len, WorkQueue};
use customized_dlb::core::{plan_transfers, Distribution, Strategy, StrategyConfig};
use customized_dlb::load::{effective_load_exact, effective_load_paper, LoadSpec, WorkClock};
use customized_dlb::net::{measure_pattern, polyfit, NetworkParams, Pattern, Poly};
use proptest::prelude::*;

proptest! {
    // ---------------- Distribution ----------------

    #[test]
    fn proportional_conserves_total(
        total in 0u64..100_000,
        weights in prop::collection::vec(0.0f64..100.0, 1..12),
    ) {
        let d = Distribution::proportional(total, &weights);
        prop_assert_eq!(d.total(), total);
        prop_assert_eq!(d.len(), weights.len());
    }

    #[test]
    fn proportional_is_monotone_in_weight(
        total in 1000u64..50_000,
        w in 1.0f64..50.0,
    ) {
        // A strictly heavier processor never receives less.
        let d = Distribution::proportional(total, &[w, 2.0 * w, 4.0 * w]);
        prop_assert!(d.count(0) <= d.count(1));
        prop_assert!(d.count(1) <= d.count(2));
    }

    #[test]
    fn equal_block_sizes_differ_by_at_most_one(
        total in 0u64..10_000,
        p in 1usize..32,
    ) {
        let d = Distribution::equal_block(total, p);
        let min = d.counts().iter().min().unwrap();
        let max = d.counts().iter().max().unwrap();
        prop_assert!(max - min <= 1);
        prop_assert_eq!(d.total(), total);
    }

    // ---------------- Transfer planning ----------------

    #[test]
    fn transfer_plan_realizes_target(
        counts in prop::collection::vec(0u64..1000, 2..10),
        weights in prop::collection::vec(0.0f64..10.0, 2..10),
    ) {
        let n = counts.len().min(weights.len());
        let old = Distribution::from_counts(counts[..n].to_vec());
        let new = Distribution::proportional(old.total(), &weights[..n]);
        let plan = plan_transfers(&old, &new);
        let mut cur = old.counts().to_vec();
        for t in &plan {
            prop_assert!(t.iters > 0);
            prop_assert!(cur[t.from] >= t.iters, "donor underflow");
            cur[t.from] -= t.iters;
            cur[t.to] += t.iters;
        }
        prop_assert_eq!(&cur[..], new.counts());
        // μ is at most n-1 for the greedy matcher.
        prop_assert!(plan.len() < n.max(1));
    }

    // ---------------- Work queues ----------------

    #[test]
    fn workqueue_take_back_conserves_iterations(
        len in 1u64..10_000,
        take in 0u64..12_000,
    ) {
        let mut q = WorkQueue::from_range(0..len);
        let donated = q.take_back(take);
        prop_assert_eq!(ranges_len(&donated) + q.remaining(), len);
        // Donated ranges never overlap what is left.
        for r in &donated {
            prop_assert!(r.start >= q.remaining());
        }
    }

    #[test]
    fn workqueue_roundtrip_preserves_order(
        splits in prop::collection::vec(1u64..50, 1..8),
    ) {
        // Push consecutive blocks, then drain one-by-one: must count up.
        let mut q = WorkQueue::new();
        let mut start = 0;
        for s in &splits {
            q.push_back(start..start + s);
            start += s;
        }
        let mut expect = 0;
        while let Some(i) = q.pop_front_iter() {
            prop_assert_eq!(i, expect);
            expect += 1;
        }
        prop_assert_eq!(expect, start);
    }

    // ---------------- Balancer ----------------

    #[test]
    fn balancer_conserves_work_and_respects_verdicts(
        remaining in prop::collection::vec(0u64..500, 2..8),
        rates in prop::collection::vec(1u64..1000, 2..8),
    ) {
        let n = remaining.len().min(rates.len());
        let profiles: Vec<PerfProfile> = (0..n)
            .map(|i| PerfProfile {
                proc: i,
                iters_done: rates[i],
                elapsed: 1.0,
                remaining: remaining[i],
            })
            .collect();
        let cfg = StrategyConfig::paper(Strategy::Gddlb, n);
        let out = balance_group(&profiles, &cfg, |_| 0.0);
        let before: u64 = remaining[..n].iter().sum();
        let after: u64 = out.new_counts.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(before, after, "work must be conserved");
        match out.verdict {
            BalanceVerdict::Finished => prop_assert_eq!(before, 0),
            BalanceVerdict::Move => {
                prop_assert!(out.moved > 0);
                prop_assert!(!out.transfers.is_empty());
                prop_assert!(out.predicted_new <= 0.9 * out.predicted_old + 1e-12);
            }
            _ => prop_assert!(out.transfers.is_empty()),
        }
    }

    // ---------------- Load functions ----------------

    #[test]
    fn effective_load_within_slowdown_bounds(
        seed in any::<u64>(),
        t1 in 0.1f64..50.0,
    ) {
        let f = LoadSpec::DiscreteRandom { seed, max_load: 5, persistence: 0.7 };
        for lam in [
            effective_load_paper(&f, 0.0, t1),
            effective_load_exact(&f, 0.0, t1),
        ] {
            // Bounds are [1, m_l+1] up to floating-point rounding.
            prop_assert!((1.0 - 1e-9..=6.0 + 1e-9).contains(&lam), "λ = {lam}");
        }
    }

    #[test]
    fn work_clock_inverse_roundtrip(
        seed in any::<u64>(),
        start in 0.0f64..20.0,
        work in 0.0f64..30.0,
        speed in 0.1f64..8.0,
    ) {
        let clock = WorkClock::new(
            LoadSpec::DiscreteRandom { seed, max_load: 5, persistence: 0.31 },
            speed,
        );
        let end = clock.finish_time(start, work);
        prop_assert!(end >= start);
        let back = clock.work_in_window(start, end);
        prop_assert!((back - work).abs() < 1e-6, "work {work} -> {back}");
    }

    #[test]
    fn trace_load_levels_bounded(levels in prop::collection::vec(0u32..9, 1..40)) {
        let max = *levels.iter().max().unwrap();
        let f = LoadSpec::Trace { levels, persistence: 0.5 };
        prop_assert_eq!(f.max_level(), max);
        for k in 0..100 {
            prop_assert!(f.level(k) <= max);
        }
    }

    // ---------------- Polyfit ----------------

    #[test]
    fn polyfit_recovers_quadratics(
        c0 in -5.0f64..5.0,
        c1 in -5.0f64..5.0,
        c2 in -5.0f64..5.0,
    ) {
        let truth = Poly::new(vec![c0, c1, c2]);
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = polyfit(&xs, &ys, 2);
        for (a, b) in fit.coeffs().iter().zip(truth.coeffs()) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    // ---------------- Network patterns ----------------

    #[test]
    fn pattern_costs_monotone_in_processors(
        n in 3usize..16,
        bytes in 0usize..4096,
    ) {
        let p = NetworkParams::paper_ethernet();
        for pat in [Pattern::OneToAll, Pattern::AllToOne, Pattern::AllToAll] {
            let small = measure_pattern(p, pat, n, bytes);
            let big = measure_pattern(p, pat, n + 1, bytes);
            prop_assert!(big >= small, "{} shrank: {small} -> {big}", pat.label());
        }
    }

    // ---------------- Folding ----------------

    #[test]
    fn folding_conserves_total_work(
        n in 1u64..300,
        scale in 1.0f64..10.0,
    ) {
        use customized_dlb::prelude::{CostFnLoop, FoldedLoop, LoopWorkload};
        let raw = CostFnLoop::new(n, 8, move |i| scale * (i + 1) as f64);
        let total_raw = raw.range_cost(0, n);
        let folded = FoldedLoop::new(raw);
        let total_folded = folded.range_cost(0, folded.iterations());
        prop_assert!((total_raw - total_folded).abs() < 1e-6 * total_raw.max(1.0));
    }
}
