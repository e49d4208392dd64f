//! The citation-scanning runner of technique L3.

use crate::cache::{
    l3_chunk_digest, l3_fingerprint, walk_units, EvidenceCache, L3DayCounts, Layer,
};
use crate::model::AppServiceModel;
use crate::window::day_chunks;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogRecord, LogStore, SourceId};
use logdep_par::{par_chunks_fold, ParConfig};
use logdep_textmatch::{MatchMode, Matcher, MatcherBuilder, StopPatterns};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of technique L3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L3Config {
    /// Stop patterns (globs over the whole message). The paper's
    /// deployment used 10; pass an empty list for the no-stop-patterns
    /// ablation of §4.8.
    pub stop_patterns: Vec<String>,
    /// Require directory ids to match as whole words (`UPSRV` must not
    /// fire inside `UPSRV2`). On by default.
    pub whole_word: bool,
    /// Minimum number of citing logs before a dependency is declared.
    /// The paper's rule is "if and only if there are logs" — i.e. 1.
    pub min_citations: u64,
}

impl Default for L3Config {
    fn default() -> Self {
        Self {
            stop_patterns: Vec::new(),
            whole_word: true,
            min_citations: 1,
        }
    }
}

impl L3Config {
    /// Config with the given stop patterns.
    pub fn with_stop_patterns<S: AsRef<str>>(patterns: impl IntoIterator<Item = S>) -> Self {
        Self {
            stop_patterns: patterns
                .into_iter()
                .map(|p| p.as_ref().to_owned())
                .collect(),
            ..Self::default()
        }
    }
}

/// Result of an L3 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L3Result {
    /// Dependencies declared (service index = position in the id list
    /// passed to [`run_l3`]).
    pub detected: AppServiceModel,
    /// Citation counts per `(app, service index)`, including pairs
    /// below `min_citations`. Ordered so snapshots and serialization
    /// walk the counters in a stable key order.
    pub citations: BTreeMap<(SourceId, usize), u64>,
    /// Records skipped because a stop pattern matched.
    pub stopped_logs: usize,
    /// Records scanned (after stop filtering).
    pub scanned_logs: usize,
}

/// Runs technique L3 over the records in `range`, scanning for the
/// given directory ids. Thread count comes from [`ParConfig::default`]
/// (`LOGDEP_THREADS` or the hardware); results are bit-identical at
/// every thread count.
pub fn run_l3(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
) -> crate::Result<L3Result> {
    run_l3_pool(store, range, service_ids, cfg, &ParConfig::default())
}

/// [`run_l3`] with an explicit worker-pool configuration.
pub fn run_l3_pool(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
    par: &ParConfig,
) -> crate::Result<L3Result> {
    Ok(mine_l3(store, range, service_ids, cfg, par, None))
}

/// Technique L3 over `range`: the one body behind [`run_l3_pool`],
/// [`crate::window::run_l3_windowed_cached`] and the pipeline's mining
/// body.
///
/// Citation counts are additive over any partition of the records, so
/// the range splits at absolute UTC-day boundaries. With a `cache`, each
/// chunk's counts are probed under a digest of its records and only the
/// missing chunks are scanned; without one, no digest is taken and every
/// chunk is scanned. The Aho–Corasick automaton is built once and shared
/// read-only; a chunk's lines fan out on the pool in contiguous shards,
/// each counting into a private map, and all counts merge by saturating
/// addition — every line is scanned independently, so the counts equal
/// a serial scan at any thread count. `min_citations` is applied once,
/// to the merged counts. Records no trace event.
pub(crate) fn mine_l3(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
    par: &ParConfig,
    cache: Option<&mut EvidenceCache>,
) -> L3Result {
    let (matcher, services) = citation_matcher(service_ids, cfg);
    let stops = StopPatterns::new(&cfg.stop_patterns);
    let scan = |records: &[LogRecord]| {
        par_chunks_fold(
            par,
            records,
            L3DayCounts::default,
            |mut counts: L3DayCounts, rec: &LogRecord| {
                if !stops.is_empty() && stops.matches(&rec.text) {
                    counts.stopped += 1;
                    return counts;
                }
                counts.scanned += 1;
                for pattern in matcher.matched_ids(&rec.text) {
                    if let Some(&svc) = services.get(pattern) {
                        *counts.citations.entry((rec.source, svc)).or_insert(0) += 1;
                    }
                }
                counts
            },
            L3DayCounts::merge,
        )
    };
    let layer = cache.map(|c| Layer {
        fingerprint: l3_fingerprint(cfg, service_ids),
        map: &mut c.l3,
        hits: &mut c.stats.l3_hits,
        misses: &mut c.stats.l3_misses,
    });
    let total = walk_units(
        &day_chunks(range),
        par,
        layer,
        |&chunk| (chunk, l3_chunk_digest(store.range(chunk))),
        |missing| {
            missing
                .iter()
                .map(|&&chunk| scan(store.range(chunk)))
                .collect()
        },
    )
    .into_iter()
    .fold(L3DayCounts::default(), L3DayCounts::merge);

    let mut detected = AppServiceModel::new();
    for (&(app, svc), &count) in &total.citations {
        if count >= cfg.min_citations {
            detected.insert(app, svc);
        }
    }
    L3Result {
        detected,
        citations: total.citations,
        stopped_logs: usize::try_from(total.stopped).unwrap_or(usize::MAX),
        scanned_logs: usize::try_from(total.scanned).unwrap_or(usize::MAX),
    }
}

/// The directory-id matcher of an L3 run, and the position in
/// `service_ids` of each of its patterns: an empty id gets no pattern
/// but keeps its position, so every later id keeps its service index.
fn citation_matcher(service_ids: &[String], cfg: &L3Config) -> (Matcher, Vec<usize>) {
    let mut builder = MatcherBuilder::new();
    builder.mode(if cfg.whole_word {
        MatchMode::WholeWord
    } else {
        MatchMode::Substring
    });
    let services = (0..service_ids.len())
        .zip(service_ids)
        .filter_map(|(position, id)| builder.add(id).map(|_| position))
        .collect();
    (builder.build(), services)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{LogRecord, Millis};

    fn ids(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn store_with_texts(rows: &[(&str, &str)]) -> LogStore {
        let mut store = LogStore::new();
        for (i, (src, text)) in rows.iter().enumerate() {
            let s = store.registry.source(src);
            store.push(LogRecord::minimal(s, Millis(i as i64 * 10)).with_text(*text));
        }
        store.finalize();
        store
    }

    fn whole() -> TimeRange {
        TimeRange::new(Millis(0), Millis(1_000_000))
    }

    #[test]
    fn detects_citation_dependencies() {
        let store = store_with_texts(&[
            (
                "AppA",
                "Invoke externalService [fct [notify] server [x:9999/dpinote]]",
            ),
            ("AppA", "(DPINOTE) notify( $p )"),
            ("AppB", "heartbeat ok"),
        ]);
        let res = run_l3(
            &store,
            whole(),
            &ids(&["DPINOTE", "OTHER"]),
            &L3Config::default(),
        )
        .unwrap();
        let a = store.registry.find_source("AppA").unwrap();
        assert!(res.detected.contains(a, 0));
        assert_eq!(res.detected.len(), 1);
        assert_eq!(res.citations[&(a, 0)], 2);
        assert_eq!(res.scanned_logs, 3);
        assert_eq!(res.stopped_logs, 0);
    }

    #[test]
    fn stop_patterns_suppress_server_side_logs() {
        let store = store_with_texts(&[
            ("Server", "Serving request [fct [q] group [SVC]] for AppA"),
            ("AppA", "calling SVC.q for record 1"),
        ]);
        let cfg = L3Config::with_stop_patterns(["serving request*"]);
        let res = run_l3(&store, whole(), &ids(&["SVC"]), &cfg).unwrap();
        let a = store.registry.find_source("AppA").unwrap();
        let srv = store.registry.find_source("Server").unwrap();
        assert!(res.detected.contains(a, 0));
        assert!(!res.detected.contains(srv, 0), "inverted dep not stopped");
        assert_eq!(res.stopped_logs, 1);

        // Without stop patterns the inverted dependency appears (§4.8).
        let res = run_l3(&store, whole(), &ids(&["SVC"]), &L3Config::default()).unwrap();
        assert!(res.detected.contains(srv, 0));
    }

    #[test]
    fn whole_word_prevents_renamed_id_hits() {
        let store = store_with_texts(&[("App", "calling UPSRV.update for record 2")]);
        // Directory only publishes the renamed id UPSRV2.
        let res = run_l3(&store, whole(), &ids(&["UPSRV2"]), &L3Config::default()).unwrap();
        assert!(
            res.detected.is_empty(),
            "UPSRV2 must not match inside UPSRV text"
        );

        // Substring mode (whole_word = false) would *also* not match here
        // (UPSRV2 is longer); but the reverse trap is covered:
        let store = store_with_texts(&[("App", "calling UPSRV2.update for record 2")]);
        let res = run_l3(&store, whole(), &ids(&["UPSRV"]), &L3Config::default()).unwrap();
        assert!(res.detected.is_empty(), "whole-word must reject prefix hit");
        let lax = L3Config {
            whole_word: false,
            ..L3Config::default()
        };
        let res = run_l3(&store, whole(), &ids(&["UPSRV"]), &lax).unwrap();
        assert_eq!(res.detected.len(), 1, "substring mode accepts prefix hit");
    }

    #[test]
    fn min_citations_threshold() {
        let store =
            store_with_texts(&[("App", "one SVC citation"), ("App", "another SVC citation")]);
        let strict = L3Config {
            min_citations: 3,
            ..L3Config::default()
        };
        let res = run_l3(&store, whole(), &ids(&["SVC"]), &strict).unwrap();
        assert!(res.detected.is_empty());
        let a = store.registry.find_source("App").unwrap();
        assert_eq!(res.citations[&(a, 0)], 2, "counts still recorded");
    }

    #[test]
    fn range_restricts_scan() {
        let store = store_with_texts(&[
            ("App", "SVC early"), // t = 0
            ("App", "SVC late"),  // t = 10
        ]);
        let res = run_l3(
            &store,
            TimeRange::new(Millis(5), Millis(100)),
            &ids(&["SVC"]),
            &L3Config::default(),
        )
        .unwrap();
        let a = store.registry.find_source("App").unwrap();
        assert_eq!(res.citations[&(a, 0)], 1);
        assert_eq!(res.scanned_logs, 1);
    }

    #[test]
    fn multiple_ids_in_one_log() {
        let store = store_with_texts(&[("App", "exception via GATEWAY calling (ARCHIVE)")]);
        let res = run_l3(
            &store,
            whole(),
            &ids(&["GATEWAY", "ARCHIVE"]),
            &L3Config::default(),
        )
        .unwrap();
        assert_eq!(res.detected.len(), 2);
    }

    #[test]
    fn empty_directory_detects_nothing() {
        let store = store_with_texts(&[("App", "anything at all")]);
        let res = run_l3(&store, whole(), &[], &L3Config::default()).unwrap();
        assert!(res.detected.is_empty());
        assert_eq!(res.scanned_logs, 1);
    }
}
