//! Sliding-window incremental pipeline driver.
//!
//! The "around the clock" deployment of §1.2: re-mine the trailing
//! window (say, 7 days) once per day. [`run_window_cached`] hands the
//! [`EvidenceCache`] to the one mining body the batch pipeline also
//! runs (`health::mine`, which owns the detector spans, health rows and
//! cache counters), so an advance only recomputes the day that entered
//! the window — the rest hits on content address.
//!
//! Equality with the batch runners is structural, not statistical:
//! each detector has one body, which walks the window's cache units and
//! merges and thresholds once, and a batch run is that body with no
//! cache:
//!
//! * **L1** — units are slots ([`run_l1_cached`]).
//! * **L2** — units are the start-day buckets of the window's sessions
//!   ([`run_l2_windowed_cached`]); gap splitting is local, so interior
//!   days' buckets are byte-stable as the window slides, and only the
//!   edge days, whose sessions the window boundary clips, re-digest and
//!   recompute.
//! * **L3** — units are the window's UTC-day record chunks
//!   ([`run_l3_windowed_cached`]).
//!
//! [`run_l1_cached`]: crate::cache::run_l1_cached

use crate::cache::{CacheStats, EvidenceCache};
use crate::health::{mine, PipelineConfig};
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
/// outcomes on the same window. Every detector runs; the first failed
/// one's error is returned, and nothing is evicted then.
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
    let mined = mine(store, window, service_ids, cfg, Some(&mut *cache));
    let l1 = mined.l1.transpose()?;
    let l2 = mined.l2.transpose()?;
    let l3 = mined.l3.transpose()?;
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
    mine_l2(store, window, cfg, &ParConfig::default(), Some(cache))
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
    let par = ParConfig::default();
    Ok(mine_l3(store, window, service_ids, cfg, &par, Some(cache)))
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
