//! The windowed pipeline, driven layer by layer so the traced run can
//! time each layer call from outside.

use crate::setup::Ctx;
use crate::spans::Tracer;
use logdep::cache::run_l1_cached;
use logdep::health::{run_pipeline, PipelineConfig};
use logdep::window::{run_l2_windowed_cached, run_l3_windowed_cached, WindowOutcome};
use logdep::EvidenceCache;
use logdep_logstore::time::TimeRange;
use logdep_logstore::LogStore;

/// `run_window_cached`'s sequence — L1, L2, L3, then eviction — with a
/// span around every call. The outcome equals `run_window_cached`'s.
pub fn window_traced(
    tr: &mut Tracer,
    key: u64,
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &PipelineConfig,
    cache: &mut EvidenceCache,
) -> Result<WindowOutcome, String> {
    let (Some(l1cfg), Some(l2cfg), Some(l3cfg)) = (&cfg.l1, &cfg.l2, &cfg.l3) else {
        return Err("every layer must be enabled".to_owned());
    };
    let before = cache.stats();
    let sources = store.active_sources();

    let s = cache.stats();
    tr.begin("l1", key);
    let l1 = run_l1_cached(store, window, &sources, l1cfg, &cfg.par, cache).ctx("l1")?;
    let d = cache.stats().since(&s);
    tr.end(&[
        ("slots", l1.n_slots as f64),
        ("hits", d.l1_hits as f64),
        ("misses", d.l1_misses as f64),
    ]);

    let s = cache.stats();
    tr.begin("l2", key);
    let l2 = run_l2_windowed_cached(store, window, l2cfg, cache).ctx("l2")?;
    let d = cache.stats().since(&s);
    tr.end(&[("hits", d.l2_hits as f64), ("misses", d.l2_misses as f64)]);

    let s = cache.stats();
    tr.begin("l3", key);
    let l3 = run_l3_windowed_cached(store, window, service_ids, l3cfg, cache).ctx("l3")?;
    let d = cache.stats().since(&s);
    tr.end(&[
        ("hits", d.l3_hits as f64),
        ("misses", d.l3_misses as f64),
        ("scanned", l3.scanned_logs as f64),
    ]);

    tr.begin("cache.evict", key);
    let evicted = cache.evict_outside(window);
    tr.end(&[("evicted", evicted as f64), ("entries", cache.len() as f64)]);

    Ok(WindowOutcome {
        window,
        l1: Some(l1),
        l2: Some(l2),
        l3: Some(l3),
        stats: cache.stats().since(&before),
    })
}

/// Whether two window outcomes hold the same models and evidence
/// (cache traffic aside).
pub fn same_model(a: &WindowOutcome, b: &WindowOutcome) -> bool {
    a.window == b.window && a.l1 == b.l1 && a.l2 == b.l2 && a.l3 == b.l3
}

/// Checks the detected sets of `out` against the batch pipeline on
/// the same window.
pub fn check_against_batch(
    out: &WindowOutcome,
    store: &LogStore,
    service_ids: &[String],
    cfg: &PipelineConfig,
) -> Result<(), String> {
    let batch = run_pipeline(store, out.window, service_ids, None, cfg);
    if !batch.fully_healthy() {
        return Err("batch pipeline degraded".to_owned());
    }
    let agree = out.l1.as_ref().map(|r| &r.detected) == batch.l1_pairs.as_ref()
        && out.l2.as_ref().map(|r| &r.detected) == batch.l2_pairs.as_ref()
        && out.l3.as_ref().map(|r| &r.detected) == batch.l3_deps.as_ref();
    if agree {
        Ok(())
    } else {
        Err(format!("window {:?} differs from run_pipeline", out.window))
    }
}
