//! End-to-end benchmark of logdep: nightly freshness, cold re-mine and
//! query latency, timed layer by layer. See `README.md` beside this
//! package for the workloads, the metrics and what each layer should
//! move.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nightly --seed 1 --seconds 10 --trace 0 [--scale 0.15]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run's context (host, widths, seed, scale, export sizes,
//! sample counts). With `--trace 1` the run records spans around every
//! timed call and reports the per-layer metrics instead of the
//! end-to-end ones.

mod cold;
mod mine;
mod nightly;
mod phase;
mod query;
mod setup;
mod spans;
mod stats;

use phase::{Budget, Tally};
use serde::{Serialize, Value};
use setup::Ctx;
use spans::{attr_values, coverage, durations_ms, uncovered_pct, Span, Tracer};
use stats::{median, sum};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 3] = ["nightly", "cold_remine", "serve"];
/// Share of `--seconds` the workload's own phase gets; the other two
/// phases get the rest, half each.
const PRIMARY_SHARE: f64 = 0.6;
/// Set-ups per untraced run; `setup_s` is their median. A traced run
/// sets up once.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 0.15,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".to_owned());
    }
    Ok(args)
}

/// Seconds each phase measures for: (nightly, cold_remine, serve).
fn phase_seconds(workload: &str, seconds: f64) -> [f64; 3] {
    let other = seconds * (1.0 - PRIMARY_SHARE) / 2.0;
    let mut out = [other; 3];
    if let Some(i) = WORKLOADS.iter().position(|w| *w == workload) {
        out[i] = seconds * PRIMARY_SHARE;
    }
    out
}

/// Phase whose spans the L1/L2/L3 metrics of a traced run are taken
/// from: the cron step for `nightly`, the empty-cache window for
/// `cold_remine`. Every run mines in both phases, and their cache
/// traffic differs, so mixing them would put each median between two
/// populations. `serve` mines in neither phase of its own and reports
/// the cron step's, the deployed path.
fn layer_phase(workload: &str) -> &'static str {
    if workload == "cold_remine" {
        "cold_window"
    } else {
        "advance"
    }
}

/// Restarts the peak-resident-set count at the current resident set,
/// so that the peak read later covers the measured phases, not the
/// set-up before them.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").ctx("reset peak RSS")
}

/// Peak resident set of this process since the last reset, from
/// `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("read /proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

/// A named reading, as the result line lists it.
type Metric = (String, Reading);

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    (name.to_owned(), Reading { value, unit })
}

/// What the three phases measured.
struct Measured {
    setup_s: Vec<f64>,
    peak_rss_mib: f64,
    nightly: nightly::NightlyOut,
    cold: cold::ColdOut,
    query: query::QueryOut,
}

/// Median over the query slices of one per-slice figure.
fn slice_median(m: &Measured, f: impl Fn(&query::SliceStats) -> f64) -> f64 {
    median(&m.query.slices.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", median(&m.setup_s)),
        metric("advance_s", "s", median(&m.nightly.advance_s)),
        metric("freshness_s", "s", median(&m.nightly.freshness_s)),
        metric("cold_window_s", "s", median(&m.cold.window_s)),
        metric("query_rps", "req/s", slice_median(m, |s| s.rps)),
        metric("query_p50_us", "us", slice_median(m, |s| s.p50_us)),
        metric("query_p99_us", "us", slice_median(m, |s| s.p99_us)),
        metric("peak_rss_mib", "MiB", m.peak_rss_mib),
    ]
}

/// Spans named one of `names` that have an ancestor named `ancestor`.
fn under(spans: &[Span], names: &[&str], ancestor: &str) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .filter(|s| {
            let mut up = s.parent;
            while let Some(p) = up {
                if spans[p].name == ancestor {
                    return true;
                }
                up = spans[p].parent;
            }
            false
        })
        .cloned()
        .collect()
}

fn hit_ratio(spans: &[Span], layer: &str) -> f64 {
    let hits = sum(&attr_values(spans, layer, "hits"));
    let misses = sum(&attr_values(spans, layer, "misses"));
    hits / (hits + misses)
}

/// Time per unit of `attr` (µs), over the spans named `layer` that did
/// any of it.
fn us_per(spans: &[Span], layer: &str, attr: &str) -> f64 {
    let (mut ns, mut units) = (0u64, 0.0);
    for s in spans.iter().filter(|s| s.name == layer) {
        if let Some(v) = s.attrs.get(attr).filter(|&v| v > 0.0) {
            ns += s.dur_ns();
            units += v;
        }
    }
    ns as f64 / 1e3 / units
}

/// The per-layer metrics; `mined` holds the L1/L2/L3 spans of the
/// workload's [`layer_phase`].
fn per_layer(m: &Measured, spans: &[Span], mined: &[Span]) -> Vec<Metric> {
    let mut out = Vec::new();
    let med_ms = |name: &str| median(&durations_ms(spans, name));

    let ingests: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "ingest" || s.name == "reload.ingest")
        .cloned()
        .collect();
    let ingest_ms: Vec<f64> = ingests.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    let ingest_attr = |a: &str| {
        let mut v = attr_values(&ingests, "ingest", a);
        v.extend(attr_values(&ingests, "reload.ingest", a));
        v
    };
    let ingest_s = sum(&ingest_ms) / 1e3;
    out.push(metric("ingest.ms", "ms", median(&ingest_ms)));
    out.push(metric(
        "ingest.us_per_line",
        "us",
        ingest_s * 1e6 / sum(&ingest_attr("lines")),
    ));
    out.push(metric(
        "ingest.mb_per_s",
        "MB/s",
        sum(&ingest_attr("bytes")) / 1e6 / ingest_s,
    ));
    out.push(metric(
        "ingest.lines",
        "count",
        median(&ingest_attr("lines")),
    ));
    out.push(metric(
        "ingest.deduped",
        "count",
        median(&ingest_attr("deduped")),
    ));
    out.push(metric(
        "ingest.quarantined",
        "count",
        median(&ingest_attr("quarantined")),
    ));

    out.push(metric("l1.ms", "ms", median(&durations_ms(mined, "l1"))));
    out.push(metric(
        "l1.slots",
        "count",
        median(&attr_values(mined, "l1", "slots")),
    ));
    out.push(metric(
        "l1.misses",
        "count",
        median(&attr_values(mined, "l1", "misses")),
    ));
    out.push(metric("l1.hit_ratio", "ratio", hit_ratio(mined, "l1")));
    out.push(metric(
        "l1.us_per_missed_slot",
        "us",
        us_per(mined, "l1", "misses"),
    ));
    out.push(metric("l2.ms", "ms", median(&durations_ms(mined, "l2"))));
    out.push(metric(
        "l2.misses",
        "count",
        median(&attr_values(mined, "l2", "misses")),
    ));
    out.push(metric("l2.hit_ratio", "ratio", hit_ratio(mined, "l2")));
    out.push(metric("l3.ms", "ms", median(&durations_ms(mined, "l3"))));
    out.push(metric(
        "l3.misses",
        "count",
        median(&attr_values(mined, "l3", "misses")),
    ));
    out.push(metric("l3.hit_ratio", "ratio", hit_ratio(mined, "l3")));
    out.push(metric(
        "l3.us_per_scanned_log",
        "us",
        us_per(mined, "l3", "scanned"),
    ));

    let evicts = under(spans, &["cache.evict"], "advance");
    out.push(metric(
        "cache.evicted",
        "count",
        median(&attr_values(&evicts, "cache.evict", "evicted")),
    ));
    out.push(metric(
        "cache.entries",
        "count",
        median(&attr_values(&evicts, "cache.evict", "entries")),
    ));
    out.push(metric("durable.open_ms", "ms", med_ms("durable.open")));
    out.push(metric("durable.append_ms", "ms", med_ms("durable.append")));
    out.push(metric(
        "durable.checkpoint_ms",
        "ms",
        med_ms("durable.checkpoint"),
    ));
    out.push(metric(
        "durable.checkpoint_bytes",
        "bytes",
        median(&attr_values(spans, "night", "checkpoint_bytes")),
    ));

    out.push(metric("reload.ms", "ms", med_ms("reload")));
    out.push(metric("reload.ingest_ms", "ms", med_ms("reload.ingest")));
    out.push(metric("index.build_ms", "ms", med_ms("index.build")));
    out.push(metric(
        "index.misses",
        "count",
        median(&attr_values(spans, "index.build", "misses")),
    ));
    out.push(metric("swap.us", "us", med_ms("swap") * 1e3));

    out.push(metric("http.parse_us", "us", med_ms("http.parse") * 1e3));
    for ep in query::ENDPOINTS {
        let name = format!("handler.{ep}");
        out.push(metric(&format!("{name}.us"), "us", med_ms(&name) * 1e3));
        out.push(metric(
            &format!("response.{ep}.bytes"),
            "bytes",
            median(&attr_values(spans, &name, "bytes")),
        ));
    }
    out.push(metric("http.render_us", "us", med_ms("http.render") * 1e3));
    let in_process_us: Vec<f64> = coverage(spans, "replay")
        .iter()
        .map(|&(_, covered)| covered as f64 / 1e3)
        .collect();
    let p50 = slice_median(m, |s| s.p50_us);
    let transport = p50 - median(&in_process_us);
    out.push(metric("transport.us", "us", transport));

    let mut overhead = m.nightly.overhead.clone();
    overhead.extend(&m.cold.overhead);
    out.push(metric("trace_overhead_pct", "%", 100.0 * median(&overhead)));
    out.push(metric(
        "uncovered.advance_pct",
        "%",
        median(&uncovered_pct(spans, "advance")),
    ));
    out.push(metric(
        "uncovered.freshness_pct",
        "%",
        median(&uncovered_pct(spans, "night")),
    ));
    out.push(metric(
        "uncovered.cold_window_pct",
        "%",
        median(&uncovered_pct(spans, "cold_window")),
    ));
    out.push(metric("uncovered.query_pct", "%", 100.0 * transport / p50));
    out
}

/// A JSON object of `(key, value)` pairs, in their order.
fn object<V: Serialize>(pairs: impl IntoIterator<Item = (String, V)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k, v.serialize_value()))
            .collect(),
    )
}

/// The last line of standard output.
#[derive(Serialize)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

/// What a run measured with: the line before the result.
#[derive(Serialize)]
struct Context {
    workload: String,
    seed: u64,
    scale: f64,
    seconds: f64,
    trace: u8,
    host_cpus: usize,
    pool_threads: usize,
    server_workers: usize,
    client_connections: usize,
    night_export_lines: usize,
    night_export_bytes: u64,
    full_export_lines: usize,
    full_export_bytes: u64,
    phase_seconds: [f64; 3],
    operations: Value,
    samples: Value,
    layer_phase: &'static str,
    /// Resident set when the measured phases start, set-up data held.
    setup_rss_mib: f64,
    error_rate: f64,
    errors: Vec<String>,
    span_file: String,
}

#[derive(Serialize)]
struct ContextLine {
    context: Context,
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = setup::pipeline_config(host_cpus)?;
    let setups = if args.trace { 1 } else { SETUPS };

    // The first set-up feeds the phases; the others run after them,
    // so that the median of all of them spans the whole run.
    let timed_setup = |k: usize| -> Result<(setup::Inputs, f64), String> {
        let t = Instant::now();
        let built = setup::build(
            &work.join(format!("setup-{k}")),
            args.seed,
            args.scale,
            &cfg,
        )?;
        Ok((built, t.elapsed().as_secs_f64()))
    };
    let (inputs, first_setup_s) = timed_setup(0)?;
    reset_peak_rss()?;
    let setup_rss_mib = peak_rss_mib()?;

    let [night_s, cold_s, serve_s] = phase_seconds(&args.workload, args.seconds);
    let mut tr = Tracer::new(args.trace);
    let serve_cfg = logdep_serve::ServeConfig {
        workers: query::SERVER_WORKERS,
        request_timeout_ms: 30_000,
        ..logdep_serve::ServeConfig::default()
    };
    let server = logdep_serve::Server::bind(serve_cfg, inputs.gen_a.clone()).ctx("bind")?;
    let handle = server.handle();
    let mut measured = logdep_par::scope(|s| {
        let serving = s.spawn(move || logdep_serve::run_server(server, None));
        let measured = (|| {
            let mut nightly = nightly::Nightly::new(&inputs, &cfg, &handle, args.trace)?;
            let mut cold = cold::Cold::new(&inputs, &cfg);
            let mut query = query::Query::new(&inputs, &handle, args.seed)?;
            // Interleave the phases, always advancing the one furthest
            // behind its share, so that every phase samples the whole
            // run rather than one stretch of it.
            let budgets = [
                Budget {
                    seconds: night_s,
                    min_ops: 2,
                },
                Budget {
                    seconds: cold_s,
                    min_ops: 2,
                },
                Budget {
                    seconds: serve_s,
                    min_ops: 1,
                },
            ];
            let mut spent = [Duration::ZERO; 3];
            let mut ops = [0usize; 3];
            while let Some(i) = (0..3)
                .filter(|&i| budgets[i].more(ops[i], spent[i]))
                .min_by(|&a, &b| {
                    let behind = |i: usize| spent[i].as_secs_f64() / budgets[i].seconds;
                    behind(a).total_cmp(&behind(b))
                })
            {
                spent[i] += match i {
                    0 => nightly.step(&mut tr),
                    1 => cold.step(&mut tr),
                    _ => query.step(&mut tr),
                };
                ops[i] += 1;
            }
            // Read before the checks in `finish`, which are not the
            // workload's memory.
            let peak_rss_mib = peak_rss_mib()?;
            Ok::<_, String>(Measured {
                setup_s: vec![first_setup_s],
                peak_rss_mib,
                nightly: nightly.finish(),
                cold: cold.finish(),
                query: query.finish(&mut tr),
            })
        })();
        handle.shutdown();
        match serving.join() {
            Ok(Ok(())) => measured,
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    })?;

    for k in 1..setups {
        let (built, secs) = timed_setup(k)?;
        drop(built);
        std::fs::remove_dir_all(work.join(format!("setup-{k}"))).ctx("remove set-up copy")?;
        measured.setup_s.push(secs);
    }
    let operations = [
        ("nights", measured.nightly.tally.attempted as usize),
        ("windows", measured.cold.tally.attempted as usize),
        ("requests", measured.query.tally.attempted as usize),
    ];
    let mut tally = Tally::default();
    for part in [
        &mut measured.nightly.tally,
        &mut measured.cold.tally,
        &mut measured.query.tally,
    ] {
        tally.absorb(std::mem::take(part));
    }
    let phase = layer_phase(&args.workload);
    let mined = under(tr.spans(), &["l1", "l2", "l3"], phase);
    let metrics = if args.trace {
        let mut m = per_layer(&measured, tr.spans(), &mined);
        m.push(metric(
            "error_rate",
            "fraction",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ));
        m
    } else {
        end_to_end(&measured)
    };
    let span_file = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path).ctx("write spans")?;
        path.display().to_string()
    } else {
        String::new()
    };

    let night = &inputs.nights[1];
    let layer_spans = |layer: &str| mined.iter().filter(|s| s.name == layer).count();
    let samples = [
        ("setup_s", measured.setup_s.len()),
        ("advance_s", measured.nightly.advance_s.len()),
        ("freshness_s", measured.nightly.freshness_s.len()),
        ("cold_window_s", measured.cold.window_s.len()),
        ("query_slices", measured.query.slices.len()),
        ("queries", measured.query.requests),
        ("l1_spans", layer_spans("l1")),
        ("l2_spans", layer_spans("l2")),
        ("l3_spans", layer_spans("l3")),
    ];
    let context = Context {
        workload: args.workload.clone(),
        seed: args.seed,
        scale: args.scale,
        seconds: args.seconds,
        trace: u8::from(args.trace),
        host_cpus,
        pool_threads: cfg.par.threads(),
        server_workers: query::SERVER_WORKERS,
        client_connections: query::CLIENTS,
        night_export_lines: night.lines,
        night_export_bytes: night.bytes,
        full_export_lines: inputs.full.lines,
        full_export_bytes: inputs.full.bytes,
        phase_seconds: [night_s, cold_s, serve_s],
        operations: object(operations.map(|(k, n)| (k.to_owned(), n))),
        samples: object(samples.map(|(k, n)| (k.to_owned(), n))),
        layer_phase: phase,
        setup_rss_mib,
        error_rate: tally.failed as f64 / tally.attempted.max(1) as f64,
        errors: tally.errors.clone(),
        span_file,
    };
    let context_line = ContextLine { context };
    println!("{}", serde_json::to_string(&context_line).ctx("context")?);

    let finite = metrics.iter().all(|(_, r)| r.value.is_finite());
    let correct = tally.failed == 0 && finite;
    let outcome = Outcome {
        correct,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics: object(metrics),
    };
    println!("{}", serde_json::to_string(&outcome).ctx("result")?);
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("run-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
