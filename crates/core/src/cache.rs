//! Content-addressed evidence cache for the moving-landscape pipeline.
//!
//! §1.2 of the paper: HUG's landscape *moves*, so the miners run "around
//! the clock" over a sliding window (e.g. the trailing week). Advancing
//! a 7-day window by one day re-reads 6 days of logs whose evidence
//! cannot have changed — this module memoizes that evidence so only the
//! new day is recomputed.
//!
//! Every entry is **content-addressed** by an [`EvidenceKey`]:
//!
//! * a *fingerprint* of the full configuration (and, for L1, the
//!   candidate source list; for L3, the directory ids) — any parameter
//!   change silently misses instead of replaying stale evidence;
//! * the absolute `[start, end)` range the evidence covers;
//! * a *digest* of exactly the log content the computation may consult
//!   (see [`Timeline::digest_neighborhood`]) — late-arriving or edited
//!   records change the digest and invalidate the entry.
//!
//! Hits therefore never require trusting the caller: equal key ⇒ equal
//! inputs ⇒ (the computations being pure) byte-identical evidence. The
//! per-layer payloads are the *pre-threshold* accumulators — L1 slot
//! evidence triples, L2 [`BigramCounts`], L3 day citation counts — so
//! the final thresholding always runs fresh over the merged window.
//!
//! Each detector's one body reaches the cache through `walk_units`:
//! given a cache it probes every unit (slot, session start day, record
//! day) and computes only the misses; given none it takes no digest and
//! computes every unit. The batch runners are those bodies with no
//! cache, so cached and batch runs agree bit for bit by construction.
//! The cached entry points here and in [`crate::window`] record no
//! trace event; the `cache.<layer>.hits/misses` counters and the spans
//! around each detector belong to the pipeline's one mining body in
//! [`crate::health`].
//!
//! [`Timeline::digest_neighborhood`]: logdep_logstore::Timeline::digest_neighborhood

use crate::l1::{mine_l1, L1Config, L1Result, ReferenceProcess, LOAD_JITTER_MS};
use crate::l2::{BigramCounts, L2Config};
use crate::l3::L3Config;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogRecord, LogStore, SourceId};
use logdep_par::{par_map, ParConfig};
use logdep_sessions::Session;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// FNV-1a accumulator shared by the fingerprint and digest helpers.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes eight at a time (xor-multiply per `u64` word, FNV-1a
    /// on the tail) — the digests here cover megabytes of log text per
    /// window, and a byte-serial fold would dominate the warm path.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_le_bytes(w.try_into().unwrap_or([0; 8]));
            self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in words.remainder() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    pub(crate) fn push_i64(&mut self, v: i64) {
        self.push_bytes(&v.to_le_bytes());
    }

    pub(crate) fn push_str(&mut self, s: &str) {
        // Length prefix keeps adjacent strings from aliasing.
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// Folds the exact bit pattern, so `-0.0` and `0.0` fingerprint
    /// differently — fine for config fields, which are compared for
    /// identity, not numeric equality.
    pub(crate) fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    pub(crate) fn push_bool(&mut self, v: bool) {
        self.push_u64(u64::from(v));
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Content address of one cached evidence entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EvidenceKey {
    /// Fingerprint of the configuration (and candidate lists).
    pub fingerprint: u64,
    /// Start of the covered range (ms).
    pub start: i64,
    /// End of the covered range (ms, exclusive).
    pub end: i64,
    /// Digest of the log content the evidence may consult.
    pub digest: u64,
}

impl EvidenceKey {
    fn overlaps(&self, range: TimeRange) -> bool {
        self.start < range.end.0 && self.end > range.start.0
    }
}

/// Cached per-day L3 scan: citation counts plus the stop/scan tallies.
/// Counts are monotone and additive, so day chunks merge exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct L3DayCounts {
    /// Citation counts per `(app, service index)` in key order.
    pub citations: BTreeMap<(SourceId, usize), u64>,
    /// Records scanned (after stop filtering).
    pub scanned: u64,
    /// Records skipped by a stop pattern.
    pub stopped: u64,
}

impl L3DayCounts {
    /// Adds `other` in, saturating — order-free, so scan shards and day
    /// chunks merge in any grouping.
    pub(crate) fn merge(mut self, other: L3DayCounts) -> L3DayCounts {
        for (key, count) in other.citations {
            let slot = self.citations.entry(key).or_insert(0);
            *slot = slot.saturating_add(count);
        }
        self.scanned = self.scanned.saturating_add(other.scanned);
        self.stopped = self.stopped.saturating_add(other.stopped);
        self
    }
}

/// Hit/miss counters per cached layer. Deltas (see [`CacheStats::since`])
/// tell a windowed run how much work the cache actually saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// L1 slot-evidence hits.
    pub l1_hits: u64,
    /// L1 slot-evidence misses (computed and inserted).
    pub l1_misses: u64,
    /// L2 session-day bigram hits.
    pub l2_hits: u64,
    /// L2 session-day bigram misses.
    pub l2_misses: u64,
    /// L3 day-scan hits.
    pub l3_hits: u64,
    /// L3 day-scan misses.
    pub l3_misses: u64,
}

impl CacheStats {
    /// Total hits across layers.
    pub fn hits(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_hits
    }

    /// Total misses across layers.
    pub fn misses(&self) -> u64 {
        self.l1_misses + self.l2_misses + self.l3_misses
    }

    /// Counter delta since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            l1_hits: self.l1_hits.saturating_sub(earlier.l1_hits),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            l3_hits: self.l3_hits.saturating_sub(earlier.l3_hits),
            l3_misses: self.l3_misses.saturating_sub(earlier.l3_misses),
        }
    }
}

/// The evidence store: three content-addressed maps (one per technique)
/// plus session-local hit/miss counters. `BTreeMap` keeps iteration
/// deterministic, so equal caches persist to equal checkpoint bytes
/// (see [`crate::durable`]).
#[derive(Debug, Clone, Default)]
pub struct EvidenceCache {
    pub(crate) l1: BTreeMap<EvidenceKey, Vec<(u32, u32, bool)>>,
    pub(crate) l2: BTreeMap<EvidenceKey, BigramCounts>,
    pub(crate) l3: BTreeMap<EvidenceKey, L3DayCounts>,
    pub(crate) stats: CacheStats,
}

impl EvidenceCache {
    /// Checkpoint-format version, stamped into every checkpoint header;
    /// bump on layout changes.
    pub const VERSION: u32 = 1;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of cached entries across layers.
    pub fn len(&self) -> usize {
        self.l1.len() + self.l2.len() + self.l3.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters accumulated since construction (or the last
    /// [`reset_stats`](Self::reset_stats)). Not persisted.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops every entry whose range lies fully outside `window` —
    /// the retention policy of a sliding window. Returns the number of
    /// entries evicted.
    pub fn evict_outside(&mut self, window: TimeRange) -> usize {
        let before = self.len();
        self.l1.retain(|k, _| k.overlaps(window));
        self.l2.retain(|k, _| k.overlaps(window));
        self.l3.retain(|k, _| k.overlaps(window));
        before - self.len()
    }

    /// Drops every entry whose range overlaps `range` — a manual
    /// invalidation hook (and the test lever proving that re-derived
    /// evidence equals the cached evidence). Returns the number of
    /// entries dropped.
    pub fn invalidate_overlapping(&mut self, range: TimeRange) -> usize {
        let before = self.len();
        self.l1.retain(|k, _| !k.overlaps(range));
        self.l2.retain(|k, _| !k.overlaps(range));
        self.l3.retain(|k, _| !k.overlaps(range));
        before - self.len()
    }
}

/// Fingerprint of an L1 configuration + candidate source list. Every
/// field is folded explicitly; the `fingerprint-completeness` lint
/// cross-checks this body against the fields of [`L1Config`], so a new
/// config field that never reaches the fingerprint is a lint deny, not
/// a silent cache-staleness bug.
pub fn l1_fingerprint(cfg: &L1Config, sources: &[SourceId]) -> u64 {
    let mut f = Fnv::new();
    f.push_str("l1");
    f.push_i64(cfg.slot_ms);
    f.push_u64(cfg.minlogs as u64);
    f.push_f64(cfg.th_pr);
    f.push_f64(cfg.th_s);
    f.push_f64(cfg.ci_level);
    f.push_u64(cfg.sample_size as u64);
    f.push_u64(cfg.seed);
    f.push_str(&format!("{:?}", cfg.distance));
    f.push_str(&format!("{:?}", cfg.stat));
    f.push_bool(cfg.two_sided);
    f.push_str(&format!("{:?}", cfg.reference));
    f.push_str(&format!("{:?}", cfg.decision));
    f.push_bool(cfg.retain_dists);
    for s in sources {
        f.push_u64(u64::from(s.0));
    }
    f.finish()
}

/// Digest of everything [`slot_evidence`] may consult for one slot:
/// each candidate timeline's slot neighborhood, widened by the jitter
/// margin when the load-proportional reference also draws (jittered)
/// picks from the overall log process — in that mode every active
/// source's neighborhood participates, because the pick pool spans all
/// sources.
pub(crate) fn l1_slot_digest(
    store: &LogStore,
    slot: TimeRange,
    sources: &[SourceId],
    cfg: &L1Config,
) -> u64 {
    let margin = match cfg.reference {
        ReferenceProcess::Homogeneous => 0,
        ReferenceProcess::LoadProportional => LOAD_JITTER_MS,
    };
    let mut f = Fnv::new();
    for &s in sources {
        f.push_u64(u64::from(s.0));
        f.push_u64(store.timeline(s).digest_neighborhood(slot, margin));
    }
    if matches!(cfg.reference, ReferenceProcess::LoadProportional) {
        for s in store.active_sources() {
            f.push_u64(u64::from(s.0));
            f.push_u64(store.timeline(s).digest_neighborhood(slot, margin));
        }
    }
    f.finish()
}

/// Technique L1 over the slot grid of `range` through the cache —
/// [`crate::l1::run_l1_pool`]'s body with a cache, so the result is
/// byte-identical to it at every thread count and cache state.
pub fn run_l1_cached(
    store: &LogStore,
    range: TimeRange,
    sources: &[SourceId],
    cfg: &L1Config,
    par: &ParConfig,
    cache: &mut EvidenceCache,
) -> crate::Result<L1Result> {
    cfg.validate()?;
    let slots = range.split(cfg.slot_ms);
    mine_l1(store, &slots, sources, cfg, par, Some(cache))
}

/// One cached layer of an [`EvidenceCache`] as a detector run sees it:
/// the layer's map, its hit and miss counters, and the fingerprint of
/// the run's configuration.
pub(crate) struct Layer<'c, V> {
    pub(crate) fingerprint: u64,
    pub(crate) map: &'c mut BTreeMap<EvidenceKey, V>,
    pub(crate) hits: &'c mut u64,
    pub(crate) misses: &'c mut u64,
}

/// The per-unit values of one detector run, in unit order — the walk
/// every detector body shares. With a `layer`, each unit is first
/// looked up under its content address (`address` gives the range the
/// unit covers and the digest of what it may consult) and only the
/// misses reach `compute`, whose values are stored for the next run.
/// Without one, no address is computed and every unit is a miss.
/// `compute` returns one value per unit it is given, in order. The
/// addresses are computed on the pool (digests are pure); the probe runs
/// on the calling thread, so the hit/miss split is the same at every
/// pool width.
pub(crate) fn walk_units<'u, U: Sync, V: Clone>(
    units: &'u [U],
    par: &ParConfig,
    layer: Option<Layer<'_, V>>,
    address: impl Fn(&U) -> (TimeRange, u64) + Sync,
    compute: impl FnOnce(&[&'u U]) -> Vec<V>,
) -> Vec<V> {
    let Some(layer) = layer else {
        let all: Vec<&U> = units.iter().collect();
        return compute(&all);
    };
    let addresses = par_map(par, units, address);
    let mut values: Vec<Option<V>> = Vec::with_capacity(units.len());
    let mut missing = Vec::new();
    let mut keys = Vec::new();
    for (unit, (range, digest)) in units.iter().zip(addresses) {
        let key = EvidenceKey {
            fingerprint: layer.fingerprint,
            start: range.start.0,
            end: range.end.0,
            digest,
        };
        let hit = layer.map.get(&key).cloned();
        if hit.is_some() {
            *layer.hits += 1;
        } else {
            *layer.misses += 1;
            missing.push(unit);
            keys.push(key);
        }
        values.push(hit);
    }
    let mut fresh = keys.into_iter().zip(compute(&missing));
    values
        .into_iter()
        .filter_map(|hit| {
            hit.or_else(|| {
                let (key, value) = fresh.next()?;
                layer.map.insert(key, value.clone());
                Some(value)
            })
        })
        .collect()
}

/// Digest of one L2 start-day bucket: every session's user/host key and
/// every entry's timestamp and source, length-framed per session so
/// adjacent sessions cannot alias.
pub(crate) fn l2_bucket_digest(sessions: &[Session]) -> u64 {
    let mut f = Fnv::new();
    f.push_u64(sessions.len() as u64);
    for session in sessions {
        f.push_u64(u64::from(session.user.0));
        f.push_u64(u64::from(session.host.0));
        f.push_u64(session.entries.len() as u64);
        for entry in &session.entries {
            f.push_i64(entry.ts.0);
            f.push_u64(u64::from(entry.source.0));
        }
    }
    f.finish()
}

/// Digest of one L3 day chunk: every record's timestamp, source and
/// text.
pub(crate) fn l3_chunk_digest(records: &[LogRecord]) -> u64 {
    let mut f = Fnv::new();
    f.push_u64(records.len() as u64);
    for rec in records {
        f.push_i64(rec.client_ts.0);
        f.push_u64(u64::from(rec.source.0));
        f.push_str(&rec.text);
    }
    f.finish()
}

/// Fingerprint of an L2 configuration. Field-by-field, checked by the
/// `fingerprint-completeness` lint (see [`l1_fingerprint`]).
pub fn l2_fingerprint(cfg: &L2Config) -> u64 {
    let mut f = Fnv::new();
    f.push_str("l2");
    f.push_str(&format!("{:?}", cfg.timeout_ms));
    f.push_f64(cfg.alpha);
    f.push_str(&format!("{:?}", cfg.statistic));
    f.push_u64(cfg.min_joint);
    f.push_i64(cfg.session.max_gap_ms);
    f.push_u64(cfg.session.min_logs as u64);
    f.finish()
}

/// Fingerprint of an L3 configuration + directory id list. Field-by-
/// field, checked by the `fingerprint-completeness` lint (see
/// [`l1_fingerprint`]).
pub fn l3_fingerprint(cfg: &L3Config, service_ids: &[String]) -> u64 {
    let mut f = Fnv::new();
    f.push_str("l3");
    f.push_u64(cfg.stop_patterns.len() as u64);
    for p in &cfg.stop_patterns {
        f.push_str(p);
    }
    f.push_bool(cfg.whole_word);
    f.push_u64(cfg.min_citations);
    for id in service_ids {
        f.push_str(id);
    }
    // An empty id keeps its service index; a directory holding one gets
    // its own key family, so counts cached under the former shifted
    // indexing never replay.
    if service_ids.iter().any(String::is_empty) {
        f.push_str("empty ids keep their index");
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableStore, NoopPolicy};
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    fn coupled_store(hours: i64) -> (LogStore, Vec<SourceId>) {
        let mut store = LogStore::new();
        let s0 = store.registry.source("App0");
        let s1 = store.registry.source("App1");
        for h in 0..hours {
            let base = h * MS_PER_HOUR;
            for i in 0..120 {
                let t = base + i * 23_000 % MS_PER_HOUR;
                store.push(LogRecord::minimal(s0, Millis(t)));
                store.push(LogRecord::minimal(s1, Millis(t + 40)));
            }
        }
        store.finalize();
        (store, vec![s0, s1])
    }

    fn cfg() -> L1Config {
        L1Config {
            minlogs: 40,
            seed: 5,
            ..L1Config::default()
        }
    }

    #[test]
    fn cached_l1_matches_batch_cold_and_warm() {
        let (store, sources) = coupled_store(4);
        let range = TimeRange::new(Millis(0), Millis(4 * MS_PER_HOUR));
        let batch = crate::l1::run_l1(&store, range, &sources, &cfg()).unwrap();

        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        let cold = run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        assert_eq!(cold, batch);
        assert_eq!(cache.stats().l1_misses, 4);
        assert_eq!(cache.stats().l1_hits, 0);

        let warm = run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        assert_eq!(warm, batch);
        assert_eq!(cache.stats().l1_hits, 4);
    }

    #[test]
    fn config_change_misses_instead_of_replaying() {
        let (store, sources) = coupled_store(2);
        let range = TimeRange::new(Millis(0), Millis(2 * MS_PER_HOUR));
        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        let other = L1Config { seed: 99, ..cfg() };
        run_l1_cached(&store, range, &sources, &other, &par, &mut cache).unwrap();
        assert_eq!(cache.stats().l1_hits, 0);
        assert_eq!(cache.stats().l1_misses, 4);
    }

    #[test]
    fn new_records_in_a_slot_invalidate_only_that_slot() {
        let (mut store, sources) = coupled_store(3);
        store.finalize();
        let range = TimeRange::new(Millis(0), Millis(3 * MS_PER_HOUR));
        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();

        // Append a record deep inside slot 1 (away from slot edges).
        store.push(LogRecord::minimal(
            sources[0],
            Millis(MS_PER_HOUR + MS_PER_HOUR / 2),
        ));
        store.finalize();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.l1_hits, 2, "untouched slots must hit");
        assert_eq!(stats.l1_misses, 4, "3 cold + 1 invalidated");
    }

    #[test]
    fn checkpoint_round_trip_preserves_entries() {
        let (store, sources) = coupled_store(2);
        let range = TimeRange::new(Millis(0), Millis(2 * MS_PER_HOUR));
        let par = ParConfig::serial();
        let dir = std::env::temp_dir().join(format!("logdep-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("round-trip.ck");
        for suffix in ["", ".journal", ".ledger", ".quarantine"] {
            match std::fs::remove_file(format!("{}{suffix}", path.display())) {
                Ok(()) | Err(_) => {}
            }
        }

        let mut written = DurableStore::open(&path, 1, &mut NoopPolicy).expect("open");
        let first =
            run_l1_cached(&store, range, &sources, &cfg(), &par, written.cache_mut()).unwrap();
        written.checkpoint(&mut NoopPolicy).expect("checkpoint");

        let mut restored = DurableStore::open(&path, 1, &mut NoopPolicy).expect("reopen");
        assert_eq!(restored.cache().len(), written.cache().len());
        let cache = restored.cache_mut();
        let warm = run_l1_cached(&store, range, &sources, &cfg(), &par, cache).unwrap();
        assert_eq!(warm, first);
        assert_eq!(cache.stats().l1_hits, 2);
        assert_eq!(cache.stats().l1_misses, 0);
    }

    #[test]
    fn eviction_and_invalidation_are_range_scoped() {
        let (store, sources) = coupled_store(4);
        let range = TimeRange::new(Millis(0), Millis(4 * MS_PER_HOUR));
        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        assert_eq!(cache.len(), 4);

        let dropped = cache.invalidate_overlapping(TimeRange::new(Millis(0), Millis(MS_PER_HOUR)));
        assert_eq!(dropped, 1);
        let evicted =
            cache.evict_outside(TimeRange::new(Millis(MS_PER_HOUR), Millis(3 * MS_PER_HOUR)));
        assert_eq!(evicted, 1, "slot 3 lies outside the retained window");
        assert_eq!(cache.len(), 2);
    }
}
