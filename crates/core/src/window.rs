//! Sliding-window incremental pipeline driver.
//!
//! The "around the clock" deployment of §1.2: re-mine the trailing
//! window (say, 7 days) once per day. The drivers here hand every
//! technique the [`EvidenceCache`], so an advance only recomputes the
//! day that entered the window — the rest hits on content address.
//!
//! Equality with the batch runners is structural, not statistical:
//! each detector has one body, which walks the window's cache units and
//! merges and thresholds once, and a batch run is that body with no
//! cache. The windowed entry points only add the cache, their trace
//! spans and their counters:
//!
//! * **L1** — units are slots ([`run_l1_cached`]).
//! * **L2** — units are the start-day buckets of the window's sessions
//!   ([`run_l2_windowed_cached`]); gap splitting is local, so interior
//!   days' buckets are byte-stable as the window slides, and only the
//!   edge days, whose sessions the window boundary clips, re-digest and
//!   recompute.
//! * **L3** — units are the window's UTC-day record chunks
//!   ([`run_l3_windowed_cached`]).

use crate::cache::{run_l1_cached, CacheStats, EvidenceCache};
use crate::health::PipelineConfig;
use crate::l1::L1Result;
use crate::l2::{mine_l2, L2Config, L2Result};
use crate::l3::{mine_l3, L3Config, L3Result};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{LogStore, Millis};
use logdep_obs::{record, Field};
use logdep_par::ParConfig;

/// Everything one windowed pipeline pass produced, plus the cache
/// traffic it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// The analysis window.
    pub window: TimeRange,
    /// L1 result, when enabled in the [`PipelineConfig`].
    pub l1: Option<L1Result>,
    /// L2 result, when enabled.
    pub l2: Option<L2Result>,
    /// L3 result, when enabled.
    pub l3: Option<L3Result>,
    /// Hit/miss counters of *this pass only*.
    pub stats: CacheStats,
}

/// Runs every enabled technique of `cfg` over `window` through the
/// cache, then evicts entries that slid out of the window. The results
/// are byte-identical to [`crate::health::run_pipeline`]'s per-layer
/// outcomes on the same window.
pub fn run_window_cached(
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &PipelineConfig,
    cache: &mut EvidenceCache,
) -> crate::Result<WindowOutcome> {
    let before = cache.stats();
    record(|r| {
        r.span_begin(
            "window",
            &[
                ("start_ms", Field::from(window.start.0)),
                ("end_ms", Field::from(window.end.0)),
            ],
        );
    });
    let sources = store.active_sources();
    let l1 = match &cfg.l1 {
        Some(c) => Some(run_l1_cached(store, window, &sources, c, &cfg.par, cache)?),
        None => None,
    };
    let l2 = match &cfg.l2 {
        Some(c) => Some(l2_windowed(store, window, c, &cfg.par, cache)?),
        None => None,
    };
    let l3 = cfg
        .l3
        .as_ref()
        .map(|c| l3_windowed(store, window, service_ids, c, &cfg.par, cache));
    cache.evict_outside(window);
    let stats = cache.stats().since(&before);
    record(|r| {
        r.span_end(
            "window",
            &[
                ("hits", Field::from(stats.hits())),
                ("misses", Field::from(stats.misses())),
                ("entries", Field::from(cache.len())),
            ],
        );
    });
    Ok(WindowOutcome {
        window,
        l1,
        l2,
        l3,
        stats,
    })
}

/// Technique L2 over `window` through the cache — byte-identical to
/// [`crate::l2::run_l2`] on the same window. Thread count comes from
/// [`ParConfig::default`].
///
/// Sessions are bucketed by start day and each bucket's counts are
/// cached under a digest of the bucket's exact session contents, so
/// interior days hit as the window slides while the edge days, whose
/// sessions the window boundary clips, re-digest and recompute.
pub fn run_l2_windowed_cached(
    store: &LogStore,
    window: TimeRange,
    cfg: &L2Config,
    cache: &mut EvidenceCache,
) -> crate::Result<L2Result> {
    l2_windowed(store, window, cfg, &ParConfig::default(), cache)
}

/// [`run_l2_windowed_cached`] on an explicit pool, with its `window.l2`
/// span and `cache.l2.*` counters around the shared L2 body.
fn l2_windowed(
    store: &LogStore,
    window: TimeRange,
    cfg: &L2Config,
    par: &ParConfig,
    cache: &mut EvidenceCache,
) -> crate::Result<L2Result> {
    cfg.validate()?;
    record(|r| {
        r.span_begin(
            "window.l2",
            &[
                ("start_ms", Field::from(window.start.0)),
                ("end_ms", Field::from(window.end.0)),
            ],
        );
    });
    let before = cache.stats;
    let (result, buckets) = mine_l2(store, window, cfg, par, Some(cache))?;
    let delta = cache.stats.since(&before);
    record(|r| {
        r.counter_add("cache.l2.hits", delta.l2_hits);
        r.counter_add("cache.l2.misses", delta.l2_misses);
        r.span_end(
            "window.l2",
            &[
                ("buckets", Field::from(buckets)),
                ("hits", Field::from(delta.l2_hits)),
                ("misses", Field::from(delta.l2_misses)),
                ("detected", Field::from(result.detected.len())),
            ],
        );
    });
    Ok(result)
}

/// Technique L3 over `window` through the cache, one entry per UTC-day
/// chunk — byte-identical to [`crate::l3::run_l3`] on the same window.
/// Thread count comes from [`ParConfig::default`].
pub fn run_l3_windowed_cached(
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
    cache: &mut EvidenceCache,
) -> crate::Result<L3Result> {
    Ok(l3_windowed(
        store,
        window,
        service_ids,
        cfg,
        &ParConfig::default(),
        cache,
    ))
}

/// [`run_l3_windowed_cached`] on an explicit pool, with its `window.l3`
/// span and `cache.l3.*` counters around the shared L3 body.
fn l3_windowed(
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
    par: &ParConfig,
    cache: &mut EvidenceCache,
) -> L3Result {
    record(|r| {
        r.span_begin(
            "window.l3",
            &[
                ("start_ms", Field::from(window.start.0)),
                ("end_ms", Field::from(window.end.0)),
            ],
        );
    });
    let before = cache.stats;
    let result = mine_l3(store, window, service_ids, cfg, par, Some(cache));
    let delta = cache.stats.since(&before);
    record(|r| {
        r.counter_add("cache.l3.hits", delta.l3_hits);
        r.counter_add("cache.l3.misses", delta.l3_misses);
        r.span_end(
            "window.l3",
            &[
                ("days", Field::from(day_chunks(window).len())),
                ("hits", Field::from(delta.l3_hits)),
                ("misses", Field::from(delta.l3_misses)),
                ("detected", Field::from(result.detected.len())),
            ],
        );
    });
    result
}

/// Splits `window` at absolute day boundaries (partial edge chunks
/// allowed). Chunk addresses are absolute, so a chunk keeps its cache
/// key as the window slides.
pub(crate) fn day_chunks(window: TimeRange) -> Vec<TimeRange> {
    let mut chunks = Vec::new();
    let mut t = window.start;
    while t < window.end {
        let next = Millis((t.0.div_euclid(MS_PER_DAY) + 1).saturating_mul(MS_PER_DAY));
        let end = next.min(window.end);
        chunks.push(TimeRange::new(t, end));
        t = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_chunks_split_at_absolute_boundaries() {
        let w = TimeRange::new(Millis(MS_PER_DAY / 2), Millis(2 * MS_PER_DAY + 7));
        let chunks = day_chunks(w);
        assert_eq!(
            chunks,
            vec![
                TimeRange::new(Millis(MS_PER_DAY / 2), Millis(MS_PER_DAY)),
                TimeRange::new(Millis(MS_PER_DAY), Millis(2 * MS_PER_DAY)),
                TimeRange::new(Millis(2 * MS_PER_DAY), Millis(2 * MS_PER_DAY + 7)),
            ]
        );
        assert!(day_chunks(TimeRange::new(Millis(5), Millis(5))).is_empty());
    }

    #[test]
    fn aligned_window_chunks_exactly() {
        let w = TimeRange::new(Millis(MS_PER_DAY), Millis(3 * MS_PER_DAY));
        let chunks = day_chunks(w);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], TimeRange::day(1));
        assert_eq!(chunks[1], TimeRange::day(2));
    }
}
