//! Effective load and effective speed (Section 4.2, "Effect of discrete
//! load").
//!
//! A processor of relative speed `S` carrying external load `ℓ` advances the
//! application at `S/(ℓ+1)`. Over a window `[t0, t1]` spanning persistence
//! intervals `a..=b`, the paper defines the *average effective speed* as the
//! harmonic-style mean
//!
//! ```text
//!                S                            b - a + 1
//!   S_eff = ─────────   with  λ = ───────────────────────────────
//!                λ                  Σ_{k=a}^{b}  1 / (ℓ(k) + 1)
//! ```
//!
//! `λ` is the **effective load** `λ_i(j)` used throughout the model's
//! recurrences. The paper indexes intervals with `a = ⌈t_{j-1}/t_l⌉` and
//! `b = ⌈t_j/t_l⌉`, i.e. it weighs every interval equally even when the
//! window covers only part of the first/last interval; we provide that exact
//! formula ([`effective_load_paper`]) plus a time-weighted integral version
//! ([`effective_load_exact`]) that the simulator's measured rates converge
//! to.

use crate::func::LoadSpec;

/// The paper's interval-index effective load `λ` over `(t0, t1]`.
///
/// Uses `a = ⌈t0/t_l⌉`, `b = ⌈t1/t_l⌉` exactly as in Section 4.2. Returns a
/// value `≥ 1` (1 means no external load). For a zero-length window it
/// returns the instantaneous slowdown at `t0`.
pub fn effective_load_paper(load: &LoadSpec, t0: f64, t1: f64) -> f64 {
    debug_assert!(t1 >= t0 && t0 >= 0.0);
    let tl = load.persistence();
    let a = (t0 / tl).ceil() as u64;
    let b = (t1 / tl).ceil() as u64;
    let n = b - a + 1;
    let mut inv_sum = 0.0;
    for k in a..=b {
        inv_sum += 1.0 / (f64::from(load.level(k)) + 1.0);
    }
    n as f64 / inv_sum
}

/// Time-weighted effective load over `[t0, t1]`:
/// `λ = (t1 - t0) / ∫ 1/(ℓ(u)+1) du`.
///
/// This is the value an online iterations-per-second measurement converges
/// to. For `t1 == t0` returns the instantaneous slowdown.
pub fn effective_load_exact(load: &LoadSpec, t0: f64, t1: f64) -> f64 {
    debug_assert!(t1 >= t0 && t0 >= 0.0);
    if t1 == t0 {
        return load.slowdown_at(t0);
    }
    (t1 - t0) / inverse_slowdown_integral(load, t0, t1)
}

/// `∫_{t0}^{t1} 1/(ℓ(u)+1) du` — the amount of *base-speed work time*
/// available in the window to a unit-speed processor.
pub fn inverse_slowdown_integral(load: &LoadSpec, t0: f64, t1: f64) -> f64 {
    debug_assert!(t1 >= t0 && t0 >= 0.0);
    let mut acc = 0.0;
    let mut t = t0;
    while t < t1 {
        let boundary = load.next_change_after(t).min(t1);
        acc += (boundary - t) / load.slowdown_at(t);
        t = boundary;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(levels: Vec<u32>, persistence: f64) -> LoadSpec {
        LoadSpec::Trace {
            levels,
            persistence,
        }
    }

    #[test]
    fn zero_load_has_unit_effective_load() {
        assert!((effective_load_paper(&LoadSpec::Zero, 0.0, 10.0) - 1.0).abs() < 1e-12);
        assert!((effective_load_exact(&LoadSpec::Zero, 0.0, 10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_load_effective_equals_slowdown() {
        let f = LoadSpec::Constant { level: 4 };
        assert!((effective_load_paper(&f, 0.0, 7.3) - 5.0).abs() < 1e-12);
        assert!((effective_load_exact(&f, 0.0, 7.3) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_trace_harmonic_mean() {
        // Levels 0 and 1 alternating: slowdowns 1 and 2.
        // Exact λ over two full intervals = 2 / (1/1 + 1/2) = 4/3.
        let f = trace(vec![0, 1, 0, 1, 0, 1, 0, 1], 1.0);
        let lambda = effective_load_exact(&f, 0.0, 2.0);
        assert!((lambda - 4.0 / 3.0).abs() < 1e-12, "λ = {lambda}");
    }

    #[test]
    fn paper_formula_on_aligned_window_matches_exact() {
        let f = trace(vec![2, 2, 2, 2], 1.0);
        let p = effective_load_paper(&f, 0.0, 3.0);
        let e = effective_load_exact(&f, 0.0, 3.0);
        assert!((p - e).abs() < 1e-12);
        assert!((p - 3.0).abs() < 1e-12);
    }

    #[test]
    fn integral_is_additive() {
        let f = trace(vec![0, 3, 1, 5, 2], 0.7);
        let whole = inverse_slowdown_integral(&f, 0.0, 3.0);
        let split =
            inverse_slowdown_integral(&f, 0.0, 1.234) + inverse_slowdown_integral(&f, 1.234, 3.0);
        assert!((whole - split).abs() < 1e-12);
    }

    #[test]
    fn integral_handles_partial_intervals() {
        // Level 1 (slowdown 2) everywhere; half a second of wall time gives
        // a quarter second of base work... no: 0.5 / 2 = 0.25.
        let f = LoadSpec::Constant { level: 1 };
        let got = inverse_slowdown_integral(&f, 0.25, 0.75);
        assert!((got - 0.25).abs() < 1e-12);
    }

    #[test]
    fn effective_load_bounded_by_max_slowdown() {
        let f = trace(vec![5, 0, 3, 1, 4, 2, 5, 0], 0.5);
        let lam = effective_load_exact(&f, 0.0, 4.0);
        assert!((1.0..=6.0).contains(&lam), "λ = {lam}");
        let lam_p = effective_load_paper(&f, 0.0, 4.0);
        assert!((1.0..=6.0).contains(&lam_p), "λ_paper = {lam_p}");
    }

    #[test]
    fn zero_width_window_gives_instantaneous_slowdown() {
        let f = trace(vec![2, 4], 1.0);
        assert!((effective_load_exact(&f, 1.5, 1.5) - 5.0).abs() < 1e-12);
    }
}
