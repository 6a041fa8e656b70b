//! In-memory span recorder for the traced run, per-layer self time, and
//! Chrome trace-event export.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! nothing inside the program is instrumented. A span's *layer* is its
//! name up to the first `.` (`serve.submit` belongs to `serve`). Its
//! *self time* is its duration minus the part of that interval covered
//! by its children, where overlapping children count once.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Cell the span belongs to; every span of one cell shares it.
    pub cell: u64,
    /// Benchmark phase: 0 for set-up, the timed round number, or
    /// [`PROBE_PHASE`] for the probes after the timed phase.
    pub phase: u32,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
}

pub const PROBE_PHASE: u32 = u32::MAX;

/// Records spans while `recording` is on; when off every method is a
/// pass-through, so untraced rounds run the same code at no extra cost.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last; new spans become children of the top.
    stack: Vec<usize>,
    pub recording: bool,
    pub cell: u64,
    pub phase: u32,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            recording,
            cell: 0,
            phase: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans nest under, until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            cell: self.cell,
            phase: self.phase,
            start,
            end: start,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Run `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(name);
        let r = f();
        self.close(span);
        r
    }
}

/// Self time of every span, in recorder order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end - s.start;
            dur.saturating_sub(covered(s.start, s.end, kids))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Count and total self time of one span name or one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    pub count: u64,
    pub self_ns: u64,
}

impl Usage {
    /// Mean self time per span, in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Self-time usage keyed by span name and by layer.
pub fn usage(spans: &[Span]) -> (BTreeMap<&'static str, Usage>, BTreeMap<&'static str, Usage>) {
    let mut by_name: BTreeMap<&'static str, Usage> = BTreeMap::new();
    let mut by_layer: BTreeMap<&'static str, Usage> = BTreeMap::new();
    for (s, st) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        for u in [
            by_name.entry(s.name).or_default(),
            by_layer.entry(layer).or_default(),
        ] {
            u.count += 1;
            u.self_ns += st;
        }
    }
    (by_name, by_layer)
}

/// Chrome trace-event JSON (the format Perfetto and `chrome://tracing`
/// open) for the spans `keep` selects. Each span is one complete (`X`)
/// event; its id, parent and cell go in `args`.
pub fn chrome_json(spans: &[Span], keep: impl Fn(&Span) -> bool) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        if !first {
            out.push(',');
        }
        first = false;
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"cell\":{},\"phase\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.cell,
            s.phase,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            cell: 1,
            phase: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("cell", None, 0, 100),
            span("serve.submit", Some(0), 10, 50),
            span("serve.wait", Some(0), 30, 70), // overlaps the first child
            span("serve.decode", Some(0), 90, 120), // runs past the parent
            span("serve.key", Some(1), 20, 40),
        ];
        let st = self_times(&spans);
        // Parent: 100 − |[10,70] ∪ [90,100]| = 100 − 70.
        assert_eq!(st[0], 30);
        // A child with its own child loses that interval.
        assert_eq!(st[1], 20);
        // Leaves keep their whole duration.
        assert_eq!(&st[2..], &[40, 30, 20]);
    }

    #[test]
    fn nested_and_disjoint_children() {
        let spans = [
            span("cell", None, 0, 100),
            span("model.choose", Some(0), 0, 10),
            span("model.choose", Some(0), 5, 8), // inside the first
            span("model.choose", Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 80);
        let (names, layers) = usage(&spans);
        assert_eq!(names["model.choose"].count, 3);
        assert_eq!(layers["model"].self_ns, 10 + 3 + 10);
        assert_eq!(layers["cell"].self_ns, 80);
    }

    #[test]
    fn recorder_nests_and_passes_through_when_off() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("serve.submit", || 7), 7);
        assert!(t.spans.is_empty());
        t.recording = true;
        t.cell = 9;
        let c = t.open("cell");
        t.time("serve.submit", || ());
        t.close(c);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.cell == 9 && s.end >= s.start));
        let json = chrome_json(&t.spans, |_| true);
        assert!(json.contains("\"name\":\"serve.submit\",\"cat\":\"serve\",\"ph\":\"X\""));
        assert!(json.contains("\"parent\":0,\"cell\":9"));
    }
}
