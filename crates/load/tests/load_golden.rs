//! Bit pins for the load arithmetic.
//!
//! Every `LoadSpec` variant is queried on a fixed time grid and the
//! `f64::to_bits` of each answer is folded into an FNV-1a hash per
//! (variant, query) pair. The simulator's reports are built from these
//! floats, so any rewrite of the load model must leave every pin where
//! it is. The grid covers the cases where the arithmetic is easiest to
//! get subtly wrong:
//!
//! * `t = fl(46·0.11)`, a persistence boundary whose naive quotient
//!   `t/t_l` floors one interval low;
//! * a trace queried long past its end, and an empty trace;
//! * a discrete random load with `max_load = 0`.
//!
//! Only the adapter functions below touch the load API; the grid and the
//! pins are independent of how a `LoadSpec` is evaluated.

use now_load::{ClockCursor, LoadSpec, WorkClock};

// --- API adapter ----------------------------------------------------------

fn clock(spec: &LoadSpec, speed: f64) -> WorkClock {
    WorkClock::new(spec.clone(), speed)
}

fn level(spec: &LoadSpec, k: u64) -> u32 {
    spec.level(k)
}

fn slowdown_at(spec: &LoadSpec, t: f64) -> f64 {
    spec.slowdown_at(t)
}

fn next_change_after(spec: &LoadSpec, t: f64) -> f64 {
    spec.next_change_after(t)
}

// --------------------------------------------------------------------------

/// FNV-1a over the little-endian bytes of each word.
#[derive(Default)]
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        if self.0 == 0 {
            self.0 = 0xcbf2_9ce4_8422_2325;
        }
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The variants under test, each with a name for the pin table.
fn specs() -> Vec<(&'static str, LoadSpec)> {
    vec![
        (
            "random_tl011",
            LoadSpec::DiscreteRandom {
                seed: 7,
                max_load: 5,
                persistence: 0.11,
            },
        ),
        ("random_paper", LoadSpec::paper_for_processor(42, 3, 0.37)),
        (
            "random_max0",
            LoadSpec::DiscreteRandom {
                seed: 3,
                max_load: 0,
                persistence: 0.5,
            },
        ),
        ("constant3", LoadSpec::Constant { level: 3 }),
        ("zero", LoadSpec::Zero),
        (
            "trace",
            LoadSpec::Trace {
                levels: vec![0, 3, 1, 5, 2],
                persistence: 0.7,
            },
        ),
        (
            "trace_empty",
            LoadSpec::Trace {
                levels: vec![],
                persistence: 0.25,
            },
        ),
    ]
}

/// Persistence of a spec as its own variant states it (1.0 for the
/// variants that carry none).
fn tl_of(spec: &LoadSpec) -> f64 {
    match spec {
        LoadSpec::DiscreteRandom { persistence, .. } | LoadSpec::Trace { persistence, .. } => {
            *persistence
        }
        LoadSpec::Constant { .. } | LoadSpec::Zero => 1.0,
    }
}

/// Query times: an irregular sweep, every persistence boundary of the
/// first 80 intervals and the midpoints between them, the
/// `fl(46·0.11)` boundary, and far-out times past any trace's end.
fn grid(tl: f64) -> Vec<f64> {
    let mut ts: Vec<f64> = (0..400).map(|i| i as f64 * 0.0371).collect();
    for m in 0..80u64 {
        let b = m as f64 * tl;
        ts.push(b);
        ts.push(b + 0.5 * tl);
    }
    ts.extend([46.0 * 0.11, 5.06, 3.5, 3.4999999, 100.0, 12_345.678]);
    ts
}

fn pins_of(name: &str, spec: &LoadSpec) -> Vec<(String, String)> {
    let tl = tl_of(spec);
    let ts = grid(tl);
    let mut out = Vec::new();
    let mut push = |query: &str, h: Fnv| out.push((format!("{name}.{query}"), h.hex()));

    let mut h = Fnv::default();
    for k in (0..300u64).chain([1_000, 1 << 20, u64::from(u32::MAX)]) {
        h.word(u64::from(level(spec, k)));
    }
    push("level", h);

    let mut h = Fnv::default();
    for &t in &ts {
        h.f(slowdown_at(spec, t));
    }
    push("slowdown_at", h);

    let mut h = Fnv::default();
    for &t in &ts {
        h.f(next_change_after(spec, t));
    }
    push("next_change_after", h);

    let c = clock(spec, 1.3);
    let mut h = Fnv::default();
    for &t in &ts {
        for w in [0.0, 0.05, 0.7, 3.1] {
            h.f(c.finish_time(t, w));
        }
    }
    push("finish_time", h);

    let mut h = Fnv::default();
    for &t in &ts {
        for d in [0.0, 0.2, 1.9] {
            h.f(c.work_in_window(t, t + d));
        }
    }
    push("work_in_window", h);

    let mut h = Fnv::default();
    let mut out_times = Vec::new();
    for (start, work, n) in [(0.0, 0.05, 200u64), (0.013, 0.11, 90), (5.06, 0.0, 5)] {
        out_times.clear();
        ClockCursor::new(&c).finish_times_uniform(start, work, n, &mut out_times);
        for &t in &out_times {
            h.f(t);
        }
    }
    push("finish_times_uniform", h);

    out
}

const PINS: &[(&str, &str)] = &[
    ("random_tl011.level", "2d53f5f2dfc2e581"),
    ("random_tl011.slowdown_at", "18fc50b4745c6f01"),
    ("random_tl011.next_change_after", "0444769e01952f94"),
    ("random_tl011.finish_time", "df75f39e0609cac2"),
    ("random_tl011.work_in_window", "1bcaf4fb9df0a177"),
    ("random_tl011.finish_times_uniform", "4a17f82b10448d7d"),
    ("random_paper.level", "3a7c78b13e1f0b24"),
    ("random_paper.slowdown_at", "516021352e341004"),
    ("random_paper.next_change_after", "ee4c7a4da472a2c8"),
    ("random_paper.finish_time", "668ca855409d1703"),
    ("random_paper.work_in_window", "8294499fe6abc98f"),
    ("random_paper.finish_times_uniform", "aad60cbf846c068f"),
    ("random_max0.level", "1c76ae387d01de85"),
    ("random_max0.slowdown_at", "e86bdd7c2548de05"),
    ("random_max0.next_change_after", "66e983b04fdf152c"),
    ("random_max0.finish_time", "de829ed848f09bf7"),
    ("random_max0.work_in_window", "453fa4f02534272c"),
    ("random_max0.finish_times_uniform", "58423840cb7197d6"),
    ("constant3.level", "4e4fff6c2f5a8186"),
    ("constant3.slowdown_at", "496542b60cea1d65"),
    ("constant3.next_change_after", "02401e735380a628"),
    ("constant3.finish_time", "11d67667dbea74d3"),
    ("constant3.work_in_window", "49c404af23556d67"),
    ("constant3.finish_times_uniform", "c58b48efdeee110b"),
    ("zero.level", "1c76ae387d01de85"),
    ("zero.slowdown_at", "e86bdd7c2548de05"),
    ("zero.next_change_after", "02401e735380a628"),
    ("zero.finish_time", "b7cab81235c37379"),
    ("zero.work_in_window", "bb3c9809af2691fb"),
    ("zero.finish_times_uniform", "58423840cb7197d6"),
    ("trace.level", "644c6412e20d12e0"),
    ("trace.slowdown_at", "2dcc40ef0e4b2e90"),
    ("trace.next_change_after", "3833df35fecbac02"),
    ("trace.finish_time", "e1c8949a16238a99"),
    ("trace.work_in_window", "78e5a46223762e55"),
    ("trace.finish_times_uniform", "cfa1d69f8589107e"),
    ("trace_empty.level", "1c76ae387d01de85"),
    ("trace_empty.slowdown_at", "e86bdd7c2548de05"),
    ("trace_empty.next_change_after", "9c4d5d9e0e3f85da"),
    ("trace_empty.finish_time", "4b64d2dd171615d8"),
    ("trace_empty.work_in_window", "c271fc769073964f"),
    ("trace_empty.finish_times_uniform", "58423840cb7197d6"),
];

#[test]
fn load_arithmetic_is_pinned() {
    let got: Vec<(String, String)> = specs()
        .iter()
        .flat_map(|(name, spec)| pins_of(name, spec))
        .collect();
    let want: Vec<(String, String)> = PINS
        .iter()
        .map(|&(n, h)| (n.to_string(), h.to_string()))
        .collect();
    assert_eq!(got, want, "load arithmetic changed");
}

/// The edge cases the hashes cover, spelled out as plain values.
#[test]
fn edge_cases_read_as_expected() {
    let random = |max_load| LoadSpec::DiscreteRandom {
        seed: 7,
        max_load,
        persistence: 0.11,
    };
    let b = 46.0 * 0.11;
    assert!(b / 0.11 < 46.0, "the boundary's naive quotient floors low");
    // The boundary belongs to interval 46: the next change is interval 47's start.
    assert_eq!(next_change_after(&random(5), b), 47.0 * 0.11);
    assert_eq!(
        slowdown_at(&random(5), b),
        f64::from(level(&random(5), 46)) + 1.0
    );
    assert!((0..500).all(|k| level(&random(0), k) == 0));

    let trace = LoadSpec::Trace {
        levels: vec![0, 3, 1, 5, 2],
        persistence: 0.7,
    };
    assert_eq!(level(&trace, 4), 2);
    assert_eq!(level(&trace, 1_000_000), 2);
    assert_eq!(slowdown_at(&trace, 12_345.678), 3.0);

    let empty = LoadSpec::Trace {
        levels: vec![],
        persistence: 0.25,
    };
    assert_eq!(level(&empty, 0), 0);
    assert_eq!(slowdown_at(&empty, 3.0), 1.0);
    assert_eq!(next_change_after(&empty, 3.0), 3.25);
    assert_eq!(next_change_after(&LoadSpec::Zero, 3.0), 4.0);
}
