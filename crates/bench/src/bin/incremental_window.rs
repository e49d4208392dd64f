//! Warm-over-cold benchmark of the sliding-window evidence cache.
//!
//! The "around the clock" scenario of §1.2: a 7-day window advances by
//! one day at a time for a full week of operation, so the entering days
//! cover one complete weekday/weekend cycle of the simulated landscape.
//! For every advance the cold path re-mines the whole window with an
//! empty cache; the warm path replays the cached evidence of the 6
//! shared days and recomputes only the day that entered the window.
//! The reported speedup is total cold wall time over total warm wall
//! time across all advances — the week-of-operation cost ratio. Emits
//! `BENCH_incremental.json` both under `target/experiments/` and at the
//! repository root (the committed evidence artifact).
//!
//! Invariants checked on every run:
//! * every warm (cached) model is **byte-identical** to a fresh-cache
//!   run of the same window, and the first advance's detected sets
//!   equal the batch pipeline's (`run_pipeline`) on that window;
//! * every warm advance actually hits (L1 and L3 hit counts > 0);
//! * in full mode the warm week must be at least 5× faster than the
//!   cold week (skipped in `--smoke`, where the window is tiny and
//!   fixed costs dominate).

use logdep::cache::{run_l1_cached, CacheStats, EvidenceCache};
use logdep::health::{run_pipeline, PipelineConfig};
use logdep::window::{
    run_l2_windowed_cached, run_l3_windowed_cached, run_window_cached, WindowOutcome,
};
use logdep_bench::workbench::{bench_args, write_report, BenchArgs, Workbench};
use logdep_logstore::time::TimeRange;
use logdep_logstore::LogStore;
use logdep_logstore::Millis;
use logdep_par::ParConfig;
use logdep_sim::SimConfig;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Step {
    /// First day of the advanced window (the window is
    /// `[start_day, start_day + window_days)`).
    start_day: i64,
    warm_ms: f64,
    cold_ms: f64,
    /// Per-layer wall time of the warm advance.
    warm_layer_ms: [f64; 3],
    /// Per-layer wall time of the cold baseline.
    cold_layer_ms: [f64; 3],
    /// Cache traffic of the warm advance.
    warm_stats: CacheStats,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    scale: f64,
    smoke: bool,
    days: u32,
    window_days: i64,
    n_advances: i64,
    n_logs: usize,
    host_cpus: usize,
    /// Wall time of priming the cache on the first window.
    prime_ms: f64,
    /// Total wall time of re-mining each advanced window cold.
    cold_ms: f64,
    /// Total wall time of the cached advances over the same windows.
    warm_ms: f64,
    speedup: f64,
    speedup_asserted: bool,
    steps: Vec<Step>,
    /// Every warm model byte-identical to its fresh-cache model, and
    /// the first advance equal to the batch pipeline (asserted).
    identical: bool,
}

/// Canonical text form of everything scientific in a window outcome;
/// floats render with `{:?}` (shortest round trip) so a last-ulp drift
/// fails the comparison.
fn canonical(out: &WindowOutcome) -> String {
    let mut s = String::new();
    if let Some(r) = &out.l1 {
        s.push_str(&format!("l1 slots {}\n", r.n_slots));
        for (a, b) in r.detected.iter() {
            s.push_str(&format!("l1 {a:?}<->{b:?}\n"));
        }
        for o in &r.outcomes {
            s.push_str(&format!(
                "l1p {:?} {:?} {} {} {:?} {}\n",
                o.a, o.b, o.support, o.positives, o.pr, o.dependent
            ));
        }
    }
    if let Some(r) = &out.l2 {
        for (a, b) in r.detected.iter() {
            s.push_str(&format!("l2 {a:?}<->{b:?}\n"));
        }
        for o in &r.outcomes {
            s.push_str(&format!(
                "l2t {:?} {:?} {} {:?} {:?} {}\n",
                o.first, o.second, o.joint, o.statistic, o.p_value, o.significant
            ));
        }
        s.push_str(&format!("l2 total {}\n", r.bigrams.total));
    }
    if let Some(r) = &out.l3 {
        for (app, svc) in r.detected.iter() {
            s.push_str(&format!("l3 {app:?}->{svc}\n"));
        }
        let mut cites: Vec<_> = r.citations.iter().collect();
        cites.sort();
        for ((app, svc), n) in cites {
            s.push_str(&format!("l3c {app:?} {svc} {n}\n"));
        }
        s.push_str(&format!("l3 stats {} {}\n", r.scanned_logs, r.stopped_logs));
    }
    s
}

/// Runs the three cached layers individually (equivalent to
/// `run_window_cached`, which drives the same entry points) so the
/// report can attribute warm/cold wall time per layer.
fn timed_window(
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &PipelineConfig,
    cache: &mut EvidenceCache,
) -> (WindowOutcome, [f64; 3]) {
    let before = cache.stats();
    let mut layer_ms = [0.0f64; 3];
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1_000.0;
    let sources = store.active_sources();

    let t = Instant::now();
    let l1 = cfg
        .l1
        .as_ref()
        .map(|c| run_l1_cached(store, window, &sources, c, &cfg.par, cache).expect("cached L1"));
    layer_ms[0] = ms(t);
    let t = Instant::now();
    let l2 = cfg
        .l2
        .as_ref()
        .map(|c| run_l2_windowed_cached(store, window, c, cache).expect("cached L2"));
    layer_ms[1] = ms(t);
    let t = Instant::now();
    let l3 = cfg
        .l3
        .as_ref()
        .map(|c| run_l3_windowed_cached(store, window, service_ids, c, cache).expect("cached L3"));
    layer_ms[2] = ms(t);
    cache.evict_outside(window);

    let outcome = WindowOutcome {
        window,
        l1,
        l2,
        l3,
        stats: cache.stats().since(&before),
    };
    (outcome, layer_ms)
}

fn main() {
    let BenchArgs {
        seed,
        mut scale,
        smoke,
    } = bench_args(0.5);
    let window_days: i64 = if smoke { 2 } else { 7 };
    let n_advances: i64 = if smoke { 1 } else { 7 };
    if smoke {
        scale = 0.15;
    }

    let mut cfg = SimConfig::paper_week(seed, scale);
    cfg.days = u32::try_from(window_days + n_advances).expect("small");
    let wb = Workbench::from_config(&cfg);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "incremental bench: seed {seed}, scale {scale}, {} days, window {window_days} days, \
         {n_advances} advance(s), {} logs, host has {host_cpus} cpu(s)",
        wb.days,
        wb.out.store.len()
    );

    let pcfg = PipelineConfig {
        l1: Some(wb.l1_config()),
        l2: Some(wb.l2_config()),
        l3: Some(wb.l3_config()),
        par: ParConfig::default(),
    };
    let w0 = TimeRange::new(Millis(0), Millis::from_days(window_days));

    // Prime: mine the first window into an empty rolling cache.
    let mut rolling = EvidenceCache::new();
    let start = Instant::now();
    run_window_cached(&wb.out.store, w0, &wb.service_ids, &pcfg, &mut rolling)
        .expect("prime window");
    let prime_ms = start.elapsed().as_secs_f64() * 1_000.0;
    println!("  prime   [0,{window_days}) : {prime_ms:8.1} ms (cold cache)");

    let mut steps = Vec::new();
    let mut warm_total = 0.0f64;
    let mut cold_total = 0.0f64;
    for step in 1..=n_advances {
        let w = TimeRange::new(
            Millis::from_days(step),
            Millis::from_days(step + window_days),
        );

        // Warm: advance the rolling window by one day on the live cache.
        rolling.reset_stats();
        let start = Instant::now();
        let (warm, warm_layer_ms) =
            timed_window(&wb.out.store, w, &wb.service_ids, &pcfg, &mut rolling);
        let warm_ms = start.elapsed().as_secs_f64() * 1_000.0;
        let warm_stats = warm.stats;
        println!(
            "  advance [{step},{}) : {warm_ms:8.1} ms warm (l1 {:.1}, l2 {:.1}, l3 {:.1}; \
             {} hits, {} misses)",
            step + window_days,
            warm_layer_ms[0],
            warm_layer_ms[1],
            warm_layer_ms[2],
            warm_stats.hits(),
            warm_stats.misses()
        );
        assert!(warm_stats.l1_hits > 0, "L1 never hit: {warm_stats:?}");
        assert!(warm_stats.l3_hits > 0, "L3 never hit: {warm_stats:?}");

        // Cold baseline: the same window from scratch.
        let mut fresh = EvidenceCache::new();
        let start = Instant::now();
        let (cold, cold_layer_ms) =
            timed_window(&wb.out.store, w, &wb.service_ids, &pcfg, &mut fresh);
        let cold_ms = start.elapsed().as_secs_f64() * 1_000.0;
        println!(
            "  cold    [{step},{}) : {cold_ms:8.1} ms cold (l1 {:.1}, l2 {:.1}, l3 {:.1})",
            step + window_days,
            cold_layer_ms[0],
            cold_layer_ms[1],
            cold_layer_ms[2]
        );

        assert_eq!(
            canonical(&warm),
            canonical(&cold),
            "cached advance drifted from the fresh-cache model on window [{step},{})",
            step + window_days
        );
        if step == 1 {
            let batch = run_pipeline(&wb.out.store, w, &wb.service_ids, Some(&wb.owners), &pcfg);
            assert!(batch.fully_healthy(), "batch pipeline degraded");
            assert_eq!(
                warm.l1.as_ref().map(|r| &r.detected),
                batch.l1_pairs.as_ref(),
                "L1 model differs from the batch pipeline"
            );
            assert_eq!(
                warm.l2.as_ref().map(|r| &r.detected),
                batch.l2_pairs.as_ref(),
                "L2 model differs from the batch pipeline"
            );
            assert_eq!(
                warm.l3.as_ref().map(|r| &r.detected),
                batch.l3_deps.as_ref(),
                "L3 model differs from the batch pipeline"
            );
        }

        warm_total += warm_ms;
        cold_total += cold_ms;
        steps.push(Step {
            start_day: step,
            warm_ms,
            cold_ms,
            warm_layer_ms,
            cold_layer_ms,
            warm_stats,
        });
    }

    let speedup = cold_total / warm_total;
    let speedup_asserted = !smoke;
    if speedup_asserted {
        assert!(
            speedup >= 5.0,
            "expected >= 5x warm-over-cold speedup across the week, got {speedup:.2}x \
             (cold {cold_total:.1} ms, warm {warm_total:.1} ms)"
        );
        println!("speedup gate passed: {speedup:.2}x warm over cold across {n_advances} advances");
    } else {
        println!("speedup gate skipped (smoke mode): {speedup:.2}x observed");
    }

    // Smoke-only overhead gate: replaying the final (fully warm) window
    // with a recorder installed must cost within 5% of the bare replay,
    // plus a small absolute allowance for timer noise on a path this
    // short. Min-of-K on an interleaved schedule so a scheduler hiccup
    // cannot fail the gate on one side only.
    if smoke {
        let w = TimeRange::new(
            Millis::from_days(n_advances),
            Millis::from_days(n_advances + window_days),
        );
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1_000.0;
        let mut bare = f64::INFINITY;
        let mut traced = f64::INFINITY;
        for _ in 0..7 {
            let t = Instant::now();
            run_window_cached(&wb.out.store, w, &wb.service_ids, &pcfg, &mut rolling)
                .expect("bare warm window");
            bare = bare.min(ms(t));

            logdep::obs::set_recorder(logdep::obs::Recorder::new());
            let t = Instant::now();
            run_window_cached(&wb.out.store, w, &wb.service_ids, &pcfg, &mut rolling)
                .expect("traced warm window");
            let elapsed = ms(t);
            let rec = logdep::obs::take_recorder().expect("recorder still installed");
            assert!(rec.sink.len() > 0, "traced warm window emitted no events");
            traced = traced.min(elapsed);
        }
        let limit = bare * 1.05 + 1.0;
        assert!(
            traced <= limit,
            "instrumentation overhead gate: traced warm window took {traced:.2} ms, \
             limit {limit:.2} ms (bare {bare:.2} ms + 5% + 1 ms)"
        );
        println!(
            "instrumentation gate passed: warm window {bare:.2} ms bare, {traced:.2} ms traced"
        );
    }

    let report = Report {
        seed,
        scale,
        smoke,
        days: wb.days,
        window_days,
        n_advances,
        n_logs: wb.out.store.len(),
        host_cpus,
        prime_ms,
        cold_ms: cold_total,
        warm_ms: warm_total,
        speedup,
        speedup_asserted,
        steps,
        identical: true,
    };
    let path = write_report("BENCH_incremental", &report);
    println!("wrote {}", path.display());
    let root = "BENCH_incremental.json";
    std::fs::write(
        root,
        serde_json::to_string_pretty(&report).expect("serialize report"),
    )
    .expect("write repo-root report");
    println!("wrote {root}");
}
