//! `perfbench` — the repository's benchmark: end-to-end rates and
//! latencies of the served NOW simulator on three workloads, plus a traced
//! run that splits the time by layer.
//!
//! ```text
//! perfbench --workload <paper-grid|large-p|chaos>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (it writes under `.bench_out/`):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload paper-grid
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any correctness
//! violation, a run that hangs or panics, or a digest mismatch at the
//! default seed makes `correct` false and the exit code 1. See
//! `perfbench/README.md` for the workloads and the layer → metric map.

mod bench;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{Bench, Options, Progress, Round};
use dlb_bench::LOAD_SEED;
use workload::Kind;

/// A run that answers nothing for this long has hung.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

/// `fnv1a64` of every report byte of one round at the default seed
/// ([`LOAD_SEED`]). A change that only affects speed must reproduce these.
const PINNED_DIGESTS: [(&str, u64); 3] = [
    ("paper-grid", 0x141a_dab5_fa24_ba49),
    ("large-p", 0xaed7_3da6_d5b6_9b90),
    ("chaos", 0xcf3d_2a06_1a82_3a51),
];

/// End-to-end metrics: name, unit, which direction is better.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("runs_per_s", "1/s", "higher"),
    ("cell_p50_ms", "ms", "lower"),
    ("cell_max_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// Per-layer metrics of the traced run that `BENCHMARK.json` lists:
/// name, unit, better. Every one reads non-zero on the listed workloads.
pub const PER_LAYER: [(&str, &str, &str); 40] = [
    ("serve.key_us", "us", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.wait_us", "us", "lower"),
    ("serve.decode_us", "us", "lower"),
    ("serve.report_kb", "KB", "lower"),
    ("serve.overhead_us", "us", "lower"),
    ("serve.misses", "count", "lower"),
    ("serve.simulations", "count", "lower"),
    ("memo.disk_get_us", "us", "lower"),
    ("memo.put_disk_us", "us", "lower"),
    ("memo.entries", "count", "lower"),
    ("memo.bytes", "bytes", "lower"),
    ("sim.execute_us", "us", "lower"),
    ("sim.execute_us.nodlb", "us", "lower"),
    ("sim.execute_us.gcdlb", "us", "lower"),
    ("sim.execute_us.gddlb", "us", "lower"),
    ("sim.execute_us.lcdlb", "us", "lower"),
    ("sim.execute_us.lddlb", "us", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.compute_events", "count", "lower"),
    ("sim.protocol_events", "count", "lower"),
    ("sim.ns_per_event", "ns", "lower"),
    ("sim.ff_hit_ratio", "ratio", "higher"),
    ("sim.ff_fallback_foreign", "count", "lower"),
    ("core.syncs", "count", "lower"),
    ("core.redistributions", "count", "lower"),
    ("core.control_messages", "count", "lower"),
    ("core.transfer_messages", "count", "lower"),
    ("core.iters_moved", "count", "lower"),
    ("core.bytes_moved", "bytes", "lower"),
    ("model.choose_us", "us", "lower"),
    ("model.calls", "count", "lower"),
    ("apps.build_us", "us", "lower"),
    ("load.clocks_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.runs_per_s", "1/s", "higher"),
    ("trace.untraced_runs_per_s", "1/s", "higher"),
    ("cell.self_us", "us", "lower"),
    ("serve.self_ms_per_round", "ms", "lower"),
    ("model.self_ms_per_round", "ms", "lower"),
];

/// Per-layer metrics that read 0 on the listed workloads, so they are
/// printed in the report but not in the metrics line. The unlisted `chaos`
/// workload moves the heartbeats, the fault paths, the fault/delay/switch
/// fast-forward fallbacks and the adaptive loop. No workload submits a key
/// twice to one server, so the memory tier never hits.
const UNLISTED_LAYER: [(&str, &str); 14] = [
    ("serve.memory_hits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("sim.heartbeat_events", "count"),
    ("sim.ff_fallback_fault", "count"),
    ("sim.ff_fallback_delay", "count"),
    ("sim.ff_fallback_switch", "count"),
    ("fault.detections", "count"),
    ("fault.retries", "count"),
    ("fault.aborted_episodes", "count"),
    ("fault.rejoins", "count"),
    ("fault.messages_cut", "count"),
    ("adaptive.decisions", "count"),
    ("adaptive.switches", "count"),
    ("adaptive.stale_dropped", "count"),
];

const USAGE: &str = "usage: perfbench --workload <paper-grid|large-p|chaos> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = LOAD_SEED;
    let mut seconds = 45.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".bench_out"),
    })
}

/// What the run prints: report lines, then the metrics line.
struct Outcome {
    lines: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    failed: u64,
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.out_dir.display());
        std::process::exit(2);
    }

    // The benchmark body runs on the one client thread; this thread is
    // the watchdog. A run that hangs (a panicked server worker leaves its
    // waiters blocked) or a body that panics becomes a counted failure.
    let progress = Arc::new(Progress::default());
    let body = {
        let (opts, progress) = (opts.clone(), Arc::clone(&progress));
        std::thread::Builder::new()
            .name("perfbench-client".into())
            .spawn(move || run(&opts, &progress))
            .expect("spawn the client thread")
    };
    let mut last = (progress.done.load(Relaxed), Instant::now());
    while !body.is_finished() {
        std::thread::sleep(Duration::from_millis(100));
        let done = progress.done.load(Relaxed);
        if done != last.0 {
            last = (done, Instant::now());
        } else if last.1.elapsed() > RUN_TIMEOUT {
            eprintln!("perfbench: no run finished in {RUN_TIMEOUT:?}: a run hung");
            abort_run(&progress);
        }
    }
    match body.join() {
        Ok(out) => {
            for l in &out.lines {
                println!("{l}");
            }
            let attempted = progress.attempted.load(Relaxed).max(1);
            let correct = out.failed == 0;
            println!(
                "{}",
                result_json(correct, attempted, out.failed.min(attempted), &out.metrics)
            );
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(_) => {
            eprintln!("perfbench: the benchmark body panicked");
            abort_run(&progress);
        }
    }
}

/// Report every unanswered run as failed and exit; exiting also ends the
/// server threads a hung run left behind.
fn abort_run(progress: &Progress) -> ! {
    let attempted = progress.attempted.load(Relaxed).max(1);
    let failed = attempted.saturating_sub(progress.done.load(Relaxed)).max(1);
    println!("{}", result_json(false, attempted, failed, &[]));
    std::process::exit(1);
}

fn run(opts: &Options, progress: &Progress) -> Outcome {
    let mut b = Bench::setup(opts, progress);
    b.timed();
    let direct = b.check_direct();
    let probes = opts.trace.then(|| b.probes(&direct));
    let pinned = PINNED_DIGESTS
        .iter()
        .find(|(w, _)| *w == opts.kind.name())
        .map(|&(_, d)| d)
        .expect("every workload has a pinned digest");
    if opts.seed == LOAD_SEED && b.warm.digest != pinned {
        b.gate.fail(format!(
            "report digest {:#018x} differs from the pinned {pinned:#018x}",
            b.warm.digest
        ));
    }
    report(&b, &direct, probes)
}

// Every round runs the same cells, so each statistic below is taken per
// round and then summarised over rounds. On a shared host, bursts of
// contention slow a few seconds of a run at a time; per-round statistics
// confine a burst to the rounds it hit, where pooling all samples lets it
// set the result (a pooled p99 of cell latency measured host bursts,
// not the program: its spread over ten runs was 4x that of the per-round
// form).

/// Median over rounds of each round's responses per second.
fn rate(rounds: &[&Round]) -> f64 {
    let v: Vec<f64> = rounds.iter().map(|r| r.runs as f64 / r.secs).collect();
    stats::median(&v)
}

/// Median over rounds of each round's median cell latency. (A pooled
/// median would sit on the boundary between two cell sizes whenever a
/// round has an even number of cells and jump between them.)
fn p50_ms(rounds: &[&Round]) -> f64 {
    let v: Vec<f64> = rounds.iter().map(|r| stats::median(&r.cells_ms)).collect();
    stats::median(&v)
}

/// Median over rounds of each round's slowest cell. (This is not a tail
/// percentile: `report` prints the pooled tail by the sample-count rule
/// beside it.)
fn max_ms(rounds: &[&Round]) -> f64 {
    let v: Vec<f64> = rounds
        .iter()
        .map(|r| r.cells_ms.iter().copied().fold(0.0, f64::max))
        .collect();
    stats::median(&v)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn report(b: &Bench, direct: &[(f64, u64)], overhead_us: Option<f64>) -> Outcome {
    let o = b.opts;
    let untraced: Vec<&Round> = b.rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = b.rounds.iter().filter(|r| r.traced).collect();
    let cells: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.cells_ms.iter().copied())
        .collect();
    let setup_s = stats::median(&b.setup_secs);
    let attempted = b.progress.attempted.load(Relaxed).max(1);

    let mut lines = vec![
        format!(
            "perfbench {} seed={} ({:#x}) seconds={} trace={}",
            o.kind.name(),
            o.seed,
            o.seed,
            o.seconds,
            o.trace as u8
        ),
        format!(
            "set-up: {} times, median {setup_s:.4} s ({})",
            b.setup_secs.len(),
            b.setup_secs
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "timed: {} rounds ({} traced), {} runs and {} cells per round, {:.2} s",
            b.rounds.len(),
            traced.len(),
            b.warm.runs,
            b.warm.cells_ms.len(),
            b.rounds.iter().map(|r| r.secs).sum::<f64>()
        ),
        format!(
            "runs/s by round, in order: {}",
            b.rounds
                .iter()
                .map(|r| format!("{:.0}", r.runs as f64 / r.secs))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "correctness: fail_ratio {}/{attempted} = {}; round digest {:#018x}{}",
            b.gate.failed,
            b.gate.failed as f64 / attempted as f64,
            b.warm.digest,
            if o.seed == LOAD_SEED {
                " (default seed: checked against the pinned digest)"
            } else {
                ""
            }
        ),
    ];
    for v in &b.gate.violations {
        lines.push(format!("VIOLATION: {v}"));
    }

    let metrics = if !o.trace {
        let pooled = match stats::tail(&cells) {
            Some(t) => format!(
                "p{} of {} cells ({} beyond it) is {:.4} ms",
                t.percentile, t.samples, t.beyond, t.value
            ),
            None => format!("{} cells are too few for a percentile", cells.len()),
        };
        lines.push(format!(
            "cell_max_ms is the median over {} rounds of each round's slowest of {} cells; \
             cell_tail_ms, pooled over all cells by the sample-count rule: {pooled}",
            untraced.len(),
            b.warm.cells_ms.len()
        ));
        let values = [
            rate(&untraced),
            p50_ms(&untraced),
            max_ms(&untraced),
            peak_rss_mb(),
            setup_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u, _), v)| (n, v, u))
            .collect()
    } else {
        per_layer(
            b,
            direct,
            overhead_us.expect("traced runs probe"),
            &untraced,
            &traced,
            &mut lines,
        )
    };
    lines.push(format!("{:<28} {:>16}  unit", "metric", "value"));
    for (n, v, u) in &metrics {
        lines.push(format!("{n:<28} {v:>16.4}  {u}"));
    }
    Outcome {
        lines,
        metrics,
        failed: b.gate.failed,
    }
}

fn per_layer(
    b: &Bench,
    direct: &[(f64, u64)],
    overhead_us: f64,
    untraced: &[&Round],
    traced: &[&Round],
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let c = &b.warm.counts;
    let spans = &b.tracer.spans;
    let (by_name, by_layer) = trace::usage(spans);
    let us = |name: &str| by_name.get(name).map_or(0.0, |u| u.mean_us());
    let execute = by_name
        .iter()
        .filter(|(n, _)| n.starts_with("sim.execute."))
        .fold(trace::Usage::default(), |a, (_, u)| trace::Usage {
            count: a.count + u.count,
            self_ns: a.self_ns + u.self_ns,
        });
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (direct_us, events) = direct
        .iter()
        .fold((0.0, 0u64), |(t, e), &(us, ev)| (t + us, e + ev));
    let traced_rate = rate(traced);
    let untraced_rate = rate(untraced);
    let per_round = |name: &str| {
        let ns = by_name.get(name).map_or(0, |u| u.self_ns);
        ns as f64 / 1e6 / traced.len().max(1) as f64
    };
    let serve_ms: f64 = ["serve.submit", "serve.wait", "serve.decode"]
        .iter()
        .map(|n| per_round(n))
        .sum();

    let value = |name: &str| -> f64 {
        match name {
            "serve.key_us" => us("serve.key"),
            "serve.submit_us" => us("serve.submit"),
            "serve.wait_us" => us("serve.wait"),
            "serve.decode_us" => us("serve.decode"),
            "serve.report_kb" => ratio(c.report_bytes, c.responses) / 1024.0,
            "serve.overhead_us" => overhead_us,
            "serve.memory_hits" => c.memory_hits as f64,
            "serve.misses" => c.misses as f64,
            "serve.simulations" => c.simulations as f64,
            "serve.hit_ratio" => ratio(c.memory_hits, c.memory_hits + c.misses + c.coalesced),
            "memo.disk_get_us" => us("memo.disk_get"),
            "memo.put_disk_us" => us("memo.put_disk"),
            "memo.entries" => c.memo_entries as f64,
            "memo.bytes" => c.memo_bytes as f64,
            "sim.execute_us" => execute.mean_us(),
            "sim.events" => c.events as f64,
            "sim.compute_events" => c.compute_events as f64,
            "sim.protocol_events" => c.protocol_events as f64,
            "sim.heartbeat_events" => c.heartbeat_events as f64,
            "sim.ns_per_event" => {
                if events == 0 {
                    0.0
                } else {
                    direct_us * 1e3 / events as f64
                }
            }
            "sim.ff_hit_ratio" => ratio(c.ff_hits, c.ff_hits + c.ff_fallbacks),
            "sim.ff_fallback_foreign" => c.ff_foreign as f64,
            "sim.ff_fallback_fault" => c.ff_fault as f64,
            "sim.ff_fallback_delay" => c.ff_delay as f64,
            "sim.ff_fallback_switch" => c.ff_switch as f64,
            "core.syncs" => c.syncs as f64,
            "core.redistributions" => c.redistributions as f64,
            "core.control_messages" => c.control_messages as f64,
            "core.transfer_messages" => c.transfer_messages as f64,
            "core.iters_moved" => c.iters_moved as f64,
            "core.bytes_moved" => c.bytes_moved as f64,
            "model.choose_us" => us("model.choose"),
            "model.calls" => c.model_calls as f64,
            "fault.detections" => c.detections as f64,
            "fault.retries" => c.retries as f64,
            "fault.aborted_episodes" => c.aborted_episodes as f64,
            "fault.rejoins" => c.rejoins as f64,
            "fault.messages_cut" => c.messages_cut as f64,
            "adaptive.decisions" => c.adaptive_decisions as f64,
            "adaptive.switches" => c.switches as f64,
            "adaptive.stale_dropped" => c.stale_dropped as f64,
            "apps.build_us" => us("apps.build"),
            "load.clocks_us" => us("load.clocks"),
            "trace.overhead_pct" => 100.0 * (untraced_rate - traced_rate) / untraced_rate,
            "trace.runs_per_s" => traced_rate,
            "trace.untraced_runs_per_s" => untraced_rate,
            "cell.self_us" => us("cell"),
            "serve.self_ms_per_round" => serve_ms,
            "model.self_ms_per_round" => per_round("model.choose"),
            kind if kind.starts_with("sim.execute_us.") => {
                us(&format!("sim.execute.{}", &kind["sim.execute_us.".len()..]))
            }
            other => unreachable!("no value for per-layer metric {other}"),
        }
    };

    lines.push("self time by layer (all recorded spans):".into());
    lines.push(format!(
        "  {:<10} {:>9} {:>12} {:>11}",
        "layer", "spans", "self ms", "mean us"
    ));
    for (layer, u) in &by_layer {
        lines.push(format!(
            "  {layer:<10} {:>9} {:>12.3} {:>11.3}",
            u.count,
            u.self_ns as f64 / 1e6,
            u.mean_us()
        ));
    }
    lines.push("self time by span:".into());
    for (name, u) in &by_name {
        lines.push(format!(
            "  {name:<22} {:>9} {:>12.3} {:>11.3}",
            u.count,
            u.self_ns as f64 / 1e6,
            u.mean_us()
        ));
    }
    lines.push(
        "overlap: serve.key runs inside serve.submit (the server derives the key); \
         sim.execute runs inside serve.wait on the worker thread; both are timed \
         by calling the inner function directly on the same specs after the timed phase"
            .into(),
    );
    lines.push(format!(
        "tracing overhead: {:.2}% ({traced_rate:.1} traced vs {untraced_rate:.1} untraced runs/s, \
         {} + {} interleaved rounds)",
        value("trace.overhead_pct"),
        traced.len(),
        untraced.len()
    ));
    let first_traced = traced.first().map(|_| 2u32);
    let path = b
        .opts
        .out_dir
        .join(format!("trace-{}-{}.json", b.opts.kind.name(), b.opts.seed));
    let json = trace::chrome_json(spans, |s| {
        s.phase == 0 || Some(s.phase) == first_traced || s.phase == trace::PROBE_PHASE
    });
    match std::fs::write(&path, json) {
        Ok(()) => lines.push(format!(
            "chrome trace (set-up, first traced round, probes): {}",
            path.display()
        )),
        Err(e) => lines.push(format!(
            "chrome trace not written to {}: {e}",
            path.display()
        )),
    }
    lines.push("unlisted per-layer metrics (not in the metrics line):".into());
    for (n, u) in UNLISTED_LAYER {
        lines.push(format!("  {n:<26} {:>16.4}  {u}", value(n)));
    }
    PER_LAYER
        .iter()
        .map(|&(n, u, _)| (n, value(n), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::{get_field, Value};

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        get_field(v.as_map().expect("object"), name).unwrap_or_else(|| panic!("missing {name}"))
    }

    fn str_of(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value_complete(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            field(&doc, key)
                .as_seq()
                .expect("a list")
                .iter()
                .map(|m| str_of(field(m, "name")).to_string())
                .collect()
        };
        // Every listed workload is one the binary runs. chaos runs too but
        // is not listed: see perfbench/README.md.
        for w in names("workloads") {
            assert!(Kind::parse(&w).is_some_and(|k| k != Kind::Chaos), "{w}");
        }
        let check = |key: &str, want: &[(&str, &str, &str)]| {
            let got: Vec<(String, String, String)> = field(&doc, key)
                .as_seq()
                .expect("a list")
                .iter()
                .map(|m| {
                    (
                        str_of(field(m, "name")).to_string(),
                        str_of(field(m, "unit")).to_string(),
                        str_of(field(m, "better")).to_string(),
                    )
                })
                .collect();
            let want: Vec<(String, String, String)> = want
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(got, want, "{key} differs from the binary's list");
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&a("--workload chaos --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (o.kind, o.seed, o.seconds, o.trace),
            (Kind::Chaos, 7, 2.5, true)
        );
        assert_eq!(
            parse_args(&a("--workload large-p")).unwrap().seed,
            LOAD_SEED
        );
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--seed 3")).is_err());
        assert!(parse_args(&a("--workload chaos --trace 2")).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("runs_per_s", 12.5, "1/s")]);
        let v = serde_json::parse_value_complete(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            field(field(field(&v, "metrics"), "runs_per_s"), "unit"),
            &Value::Str("1/s".into())
        );
    }
}
