//! Independent references for techniques L2 and L3, and differential
//! property tests of every production entry point against them.
//!
//! The batch and windowed runners share one body per detector, so they
//! can only be checked against each other up to that body's defects.
//! These oracles recompute everything the plain way:
//!
//! * **L2** — sessions by grouping the window's records per
//!   `(user, host)` and splitting at long gaps, bigrams by walking each
//!   session's neighbours, and G² (or X²) straight from each 2×2 table.
//!   Only the χ²₁ tail probability is shared with production.
//! * **L3** — every id is looked for at every byte offset of every
//!   message with ASCII case folding and the whole-word rule, and stop
//!   patterns are matched by a naive recursive glob.
//!
//! The stores put sessions across UTC midnights, and the windows start
//! and end inside sessions, so the start-day buckets and day chunks the
//! cached runners walk are cut in every way.

use logdep::cache::EvidenceCache;
use logdep::health::PipelineConfig;
use logdep::l2::{run_l2_pool, L2Config, L2Result};
use logdep::l3::{run_l3_pool, L3Config, L3Result};
use logdep::model::PairModel;
use logdep::window::{run_l2_windowed_cached, run_l3_windowed_cached, run_window_cached};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{HostId, LogRecord, LogStore, Millis, SourceId, UserId};
use logdep_par::ParConfig;
use logdep_sessions::SessionConfig;
use logdep_stats::chi2;
use logdep_stats::contingency::AssociationStatistic;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Records land within this distance of a UTC midnight.
const SPREAD_MS: i64 = 15 * 60_000;
/// Midnights the store spans (days 1..=3).
const MIDNIGHTS: i64 = 3;
/// Statistics within this relative distance count as equal.
const REL_TOL: f64 = 1e-9;
/// Decisions are compared only where p is farther than this from alpha.
const P_TOL: f64 = 1e-9;

/// A record as the generators describe it: source, time, an optional
/// `(user, host)` session key, and a message.
type Row = (u8, i64, Option<(u8, u8)>, String);

fn build_store(rows: &[Row]) -> LogStore {
    let mut store = LogStore::new();
    for (source, t, key, text) in rows {
        let source = store.registry.source(&format!("App{source}"));
        let mut rec = LogRecord::minimal(source, Millis(*t)).with_text(text);
        if let Some((user, host)) = key {
            rec = rec
                .with_user(store.registry.user(&format!("u{user}")))
                .with_host(store.registry.host(&format!("h{host}")));
        }
        store.push(rec);
    }
    store.finalize();
    store
}

/// Time `offset` ms from midnight number `midnight` (1-based).
fn near_midnight(midnight: i64, offset: i64) -> i64 {
    midnight * MS_PER_DAY + offset
}

/// A window from near one midnight to near a later one.
fn window((first, offset_a, extra, offset_b): (i64, i64, i64, i64)) -> TimeRange {
    let start = near_midnight(first, offset_a);
    let end = near_midnight(first + extra, offset_b).max(start);
    TimeRange::new(Millis(start), Millis(end))
}

// ---------------------------------------------------------------- L2 --

/// The oracle's bigram counts: joint per ordered type, the two margins
/// and the total.
#[derive(Debug, Default, PartialEq)]
struct Bigrams {
    joint: BTreeMap<(SourceId, SourceId), u64>,
    first: BTreeMap<SourceId, u64>,
    second: BTreeMap<SourceId, u64>,
    total: u64,
}

/// Sessions of `window`: the records of each `(user, host)` key in
/// store order, cut wherever the gap to the previous record exceeds
/// `max_gap_ms`, and kept when they hold at least `min_logs` records.
fn oracle_sessions(
    store: &LogStore,
    window: TimeRange,
    cfg: &SessionConfig,
) -> Vec<Vec<(i64, SourceId)>> {
    let mut by_key: BTreeMap<(UserId, HostId), Vec<(i64, SourceId)>> = BTreeMap::new();
    for rec in store.records() {
        let t = rec.client_ts.0;
        if t < window.start.0 || t >= window.end.0 {
            continue;
        }
        if let (Some(user), Some(host)) = (rec.user, rec.host) {
            by_key
                .entry((user, host))
                .or_default()
                .push((t, rec.source));
        }
    }
    let mut sessions = Vec::new();
    for entries in by_key.into_values() {
        let mut current: Vec<(i64, SourceId)> = Vec::new();
        for entry in entries {
            if current
                .last()
                .is_some_and(|last| entry.0 - last.0 > cfg.max_gap_ms)
            {
                sessions.push(std::mem::take(&mut current));
            }
            current.push(entry);
        }
        sessions.push(current);
    }
    sessions.retain(|s| s.len() >= cfg.min_logs);
    sessions
}

fn oracle_bigrams(sessions: &[Vec<(i64, SourceId)>], timeout_ms: Option<i64>) -> Bigrams {
    let mut b = Bigrams::default();
    for session in sessions {
        for pair in session.windows(2) {
            let &[(t1, a), (t2, c)] = pair else { continue };
            if a == c || timeout_ms.is_some_and(|to| t2 - t1 > to) {
                continue;
            }
            *b.joint.entry((a, c)).or_default() += 1;
            *b.first.entry(a).or_default() += 1;
            *b.second.entry(c).or_default() += 1;
            b.total += 1;
        }
    }
    b
}

/// One tested ordered type: joint count, statistic, p-value, decision.
#[derive(Debug, Clone, Copy)]
struct TypeVerdict {
    joint: u64,
    statistic: f64,
    p_value: f64,
    significant: bool,
}

/// The association test of one type, from its 2×2 table: `None` when a
/// row or column of the table is empty.
fn oracle_test(f: u64, f1: u64, f2: u64, n: u64, cfg: &L2Config) -> Option<TypeVerdict> {
    // Rows: first component A or not; columns: second component B or not.
    let [o11, o12, o21, o22] = [f, f1 - f, f2 - f, n + f - f1 - f2];
    let (r1, r2, c1, c2) = (o11 + o12, o21 + o22, o11 + o21, o12 + o22);
    if [r1, r2, c1, c2].contains(&0) {
        return None;
    }
    let mut statistic = 0.0;
    for (o, r, c) in [(o11, r1, c1), (o12, r1, c2), (o21, r2, c1), (o22, r2, c2)] {
        let e = r as f64 * c as f64 / n as f64;
        let o = o as f64;
        statistic += match cfg.statistic {
            AssociationStatistic::Dunning if o > 0.0 => 2.0 * o * (o / e).ln(),
            AssociationStatistic::Dunning => 0.0,
            AssociationStatistic::Pearson => (o - e) * (o - e) / e,
        };
    }
    let statistic = statistic.max(0.0);
    let p_value = chi2::sf(statistic, 1.0).ok()?;
    // Positive association: o11 above its expectation r1·c1/n, exactly.
    let positive = u128::from(f) * u128::from(n) > u128::from(r1) * u128::from(c1);
    Some(TypeVerdict {
        joint: f,
        statistic,
        p_value,
        significant: positive && p_value <= cfg.alpha,
    })
}

struct L2Oracle {
    bigrams: Bigrams,
    n_sessions: usize,
    verdicts: BTreeMap<(SourceId, SourceId), TypeVerdict>,
}

fn oracle_l2(store: &LogStore, window: TimeRange, cfg: &L2Config) -> L2Oracle {
    let sessions = oracle_sessions(store, window, &cfg.session);
    let bigrams = oracle_bigrams(&sessions, cfg.timeout_ms);
    let verdicts = bigrams
        .joint
        .iter()
        .filter(|(_, &f)| f >= cfg.min_joint)
        .filter_map(|(&(a, b), &f)| {
            let (f1, f2) = (bigrams.first.get(&a)?, bigrams.second.get(&b)?);
            let v = oracle_test(f, *f1, *f2, bigrams.total, cfg)?;
            Some(((a, b), v))
        })
        .collect();
    L2Oracle {
        bigrams,
        n_sessions: sessions.len(),
        verdicts,
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= REL_TOL * a.abs().max(b.abs())
}

/// Checks one production L2 result against the oracle: integer counts
/// exactly, statistics to `REL_TOL`, and every decision whose p-value is
/// not within `P_TOL` of alpha.
fn check_l2(
    got: &L2Result,
    want: &L2Oracle,
    cfg: &L2Config,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        &got.bigrams.joint,
        &want.bigrams.joint,
        "{}: joint counts",
        what
    );
    prop_assert_eq!(
        &got.bigrams.first_margin,
        &want.bigrams.first,
        "{}: first margins",
        what
    );
    prop_assert_eq!(
        &got.bigrams.second_margin,
        &want.bigrams.second,
        "{}: second margins",
        what
    );
    prop_assert_eq!(got.bigrams.total, want.bigrams.total, "{}: total", what);
    prop_assert_eq!(
        got.session_stats.n_sessions,
        want.n_sessions,
        "{}: sessions",
        what
    );
    let tested: Vec<(SourceId, SourceId)> =
        got.outcomes.iter().map(|o| (o.first, o.second)).collect();
    let expected: Vec<(SourceId, SourceId)> = want.verdicts.keys().copied().collect();
    prop_assert_eq!(tested, expected, "{}: tested types", what);

    let mut detected = PairModel::new();
    let mut borderline = false;
    // The tested types agree, so outcomes and verdicts pair up in order.
    for (o, v) in got.outcomes.iter().zip(want.verdicts.values()) {
        prop_assert_eq!(
            o.joint,
            v.joint,
            "{}: joint of {:?}",
            what,
            (o.first, o.second)
        );
        prop_assert!(
            close(o.statistic, v.statistic),
            "{}: statistic of {:?}: {} vs oracle {}",
            what,
            (o.first, o.second),
            o.statistic,
            v.statistic
        );
        if (v.p_value - cfg.alpha).abs() <= P_TOL {
            borderline = true;
            continue;
        }
        prop_assert_eq!(
            o.significant,
            v.significant,
            "{}: decision of {:?}",
            what,
            (o.first, o.second)
        );
        if v.significant {
            detected.insert(o.first, o.second);
        }
    }
    if !borderline {
        prop_assert_eq!(&got.detected, &detected, "{}: detected pairs", what);
    }
    Ok(())
}

// ---------------------------------------------------------------- L3 --

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether `text` cites `id`: some byte offset where the ASCII-folded id
/// occurs, flanked by non-word bytes under the whole-word rule. An empty
/// id is never cited.
fn cites(text: &str, id: &str, whole_word: bool) -> bool {
    let (t, p) = (
        text.to_ascii_lowercase().into_bytes(),
        id.to_ascii_lowercase().into_bytes(),
    );
    if p.is_empty() {
        return false;
    }
    t.windows(p.len()).enumerate().any(|(i, occurrence)| {
        let before = i.checked_sub(1).and_then(|j| t.get(j));
        let after = t.get(i + p.len());
        occurrence == p.as_slice()
            && (!whole_word || ![before, after].into_iter().flatten().any(|&b| is_word(b)))
    })
}

/// Naive glob: `*` matches any run of bytes, `?` any one byte.
fn glob(pattern: &[u8], text: &[u8]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some((b'*', rest)) => {
            (0..=text.len()).any(|i| text.get(i..).is_some_and(|t| glob(rest, t)))
        }
        Some((&c, rest)) => text
            .split_first()
            .is_some_and(|(&x, tail)| (c == b'?' || c == x) && glob(rest, tail)),
    }
}

fn stopped(text: &str, patterns: &[String]) -> bool {
    let text = text.to_ascii_lowercase();
    patterns
        .iter()
        .any(|p| glob(p.to_ascii_lowercase().as_bytes(), text.as_bytes()))
}

fn oracle_l3(store: &LogStore, window: TimeRange, ids: &[String], cfg: &L3Config) -> L3Result {
    let mut citations: BTreeMap<(SourceId, usize), u64> = BTreeMap::new();
    let (mut scanned, mut stopped_logs) = (0, 0);
    for rec in store.records() {
        let t = rec.client_ts.0;
        if t < window.start.0 || t >= window.end.0 {
            continue;
        }
        if stopped(&rec.text, &cfg.stop_patterns) {
            stopped_logs += 1;
            continue;
        }
        scanned += 1;
        for (svc, id) in ids.iter().enumerate() {
            if cites(&rec.text, id, cfg.whole_word) {
                *citations.entry((rec.source, svc)).or_default() += 1;
            }
        }
    }
    L3Result {
        detected: citations
            .iter()
            .filter(|(_, &c)| c >= cfg.min_citations)
            .map(|(&k, _)| k)
            .collect(),
        citations,
        stopped_logs,
        scanned_logs: scanned,
    }
}

// --------------------------------------------------------- generators --

/// Message words: directory ids in several cases, near-miss spellings
/// that only a substring match accepts, and words the stop patterns
/// below look for.
const WORDS: [&str; 12] = [
    "svc", "SVC", "Svc2", "svc_x", "alpha", "ALPHA-B", "beta", "xbeta", "serving", "error", "ok",
    "A",
];
const SEPARATORS: [&str; 6] = [" ", "", ".", "(", "_", "7"];
/// Directory ids, including an empty one and a repeated one.
const IDS: [&str; 7] = ["SVC", "alpha", "", "beta", "svc2", "a", "SVC"];
const STOPS: [&str; 4] = ["serving*", "*error*", "?k", "*SVC(*"];

fn message(parts: &[(usize, usize)]) -> String {
    parts
        .iter()
        .filter_map(|&(w, s)| Some(format!("{}{}", WORDS.get(w)?, SEPARATORS.get(s)?)))
        .collect()
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            0u8..4,
            (1..=MIDNIGHTS, -SPREAD_MS..SPREAD_MS),
            0u8..5,
            prop::collection::vec((0usize..12, 0usize..6), 0..5),
        )
            .prop_map(|(source, (midnight, offset), key, parts)| {
                // Key 4 leaves the record out of every session.
                let key = (key < 4).then_some((key % 2, key / 2));
                (
                    source,
                    near_midnight(midnight, offset),
                    key,
                    message(&parts),
                )
            }),
        0..400,
    )
}

fn window_strategy() -> impl Strategy<Value = (i64, i64, i64, i64)> {
    (
        1..=MIDNIGHTS,
        -SPREAD_MS..SPREAD_MS,
        0i64..3,
        -SPREAD_MS..SPREAD_MS,
    )
}

/// The cache states a windowed run is checked from: empty, primed by
/// the window a day earlier (a nightly advance), and primed by the same
/// window.
fn caches(
    prime: impl Fn(TimeRange, &mut EvidenceCache),
    w: TimeRange,
) -> Vec<(&'static str, EvidenceCache)> {
    let earlier = TimeRange::new(Millis(w.start.0 - MS_PER_DAY), Millis(w.end.0 - MS_PER_DAY));
    let mut advanced = EvidenceCache::new();
    prime(earlier, &mut advanced);
    let mut warm = EvidenceCache::new();
    prime(w, &mut warm);
    vec![
        ("cold", EvidenceCache::new()),
        ("advance", advanced),
        ("warm", warm),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn production_l2_matches_the_oracle(
        rows in rows_strategy(),
        w in window_strategy(),
        knobs in (0u8..4, 1i64..30, 2usize..5, 1u64..4, any::<bool>(), 0usize..3),
    ) {
        let (timeout, gap_min, min_logs, min_joint, pearson, level) = knobs;
        let store = build_store(&rows);
        let w = window(w);
        let cfg = L2Config {
            timeout_ms: [None, Some(20_000), Some(120_000), Some(600_000)][usize::from(timeout)],
            alpha: [0.05, 0.01, 0.5][level],
            statistic: if pearson { AssociationStatistic::Pearson } else { AssociationStatistic::Dunning },
            min_joint,
            session: SessionConfig { max_gap_ms: gap_min * 60_000, min_logs },
        };
        let want = oracle_l2(&store, w, &cfg);

        for width in [1, 4] {
            let par = ParConfig::with_threads(width).expect("non-zero width");
            let what = format!("run_l2_pool at width {}", par.threads());
            check_l2(&run_l2_pool(&store, w, &cfg, &par).expect("valid config"), &want, &cfg, &what)?;
            let pipeline = PipelineConfig { l1: None, l2: Some(cfg.clone()), l3: None, par };
            let prime = |range, cache: &mut EvidenceCache| {
                run_window_cached(&store, range, &[], &pipeline, cache).expect("valid config");
            };
            for (state, mut cache) in caches(prime, w) {
                let out = run_window_cached(&store, w, &[], &pipeline, &mut cache).expect("valid config");
                let what = format!("run_window_cached at width {} on a {state} cache", par.threads());
                check_l2(out.l2.as_ref().expect("L2 enabled"), &want, &cfg, &what)?;
            }
        }
        let prime = |range, cache: &mut EvidenceCache| {
            run_l2_windowed_cached(&store, range, &cfg, cache).expect("valid config");
        };
        for (state, mut cache) in caches(prime, w) {
            let got = run_l2_windowed_cached(&store, w, &cfg, &mut cache).expect("valid config");
            check_l2(&got, &want, &cfg, &format!("run_l2_windowed_cached on a {state} cache"))?;
        }
    }

    #[test]
    fn production_l3_matches_the_oracle(
        rows in rows_strategy(),
        w in window_strategy(),
        ids in prop::collection::vec(0usize..7, 0..5),
        stops in prop::collection::vec(0usize..4, 0..3),
        knobs in (any::<bool>(), 1u64..4),
    ) {
        let (whole_word, min_citations) = knobs;
        let store = build_store(&rows);
        let w = window(w);
        let ids: Vec<String> = ids.into_iter().map(|i| IDS[i].to_owned()).collect();
        let cfg = L3Config {
            stop_patterns: stops.into_iter().map(|i| STOPS[i].to_owned()).collect(),
            whole_word,
            min_citations,
        };
        let want = oracle_l3(&store, w, &ids, &cfg);

        for width in [1, 4] {
            let par = ParConfig::with_threads(width).expect("non-zero width");
            let got = run_l3_pool(&store, w, &ids, &cfg, &par).expect("infallible");
            prop_assert_eq!(&got, &want, "run_l3_pool at width {}", par.threads());
            let pipeline = PipelineConfig { l1: None, l2: None, l3: Some(cfg.clone()), par };
            let prime = |range, cache: &mut EvidenceCache| {
                run_window_cached(&store, range, &ids, &pipeline, cache).expect("valid config");
            };
            for (state, mut cache) in caches(prime, w) {
                let out = run_window_cached(&store, w, &ids, &pipeline, &mut cache).expect("valid config");
                prop_assert_eq!(
                    out.l3.as_ref().expect("L3 enabled"),
                    &want,
                    "run_window_cached at width {} on a {} cache",
                    par.threads(),
                    state
                );
            }
        }
        let prime = |range, cache: &mut EvidenceCache| {
            run_l3_windowed_cached(&store, range, &ids, &cfg, cache).expect("infallible");
        };
        for (state, mut cache) in caches(prime, w) {
            let got = run_l3_windowed_cached(&store, w, &ids, &cfg, &mut cache).expect("infallible");
            prop_assert_eq!(&got, &want, "run_l3_windowed_cached on a {} cache", state);
        }
    }
}

/// An empty directory id keeps its position: the ids after it keep
/// their service indices, on the batch and the windowed path alike.
#[test]
fn an_empty_id_shifts_no_later_service_index() {
    let store = build_store(&[(0, 1_000, None, "calling SVC now".to_owned())]);
    let app = store.registry.find_source("App0").expect("registered");
    let ids = vec![String::new(), "SVC".to_owned()];
    let cfg = L3Config::default();
    let w = TimeRange::new(Millis(0), Millis(MS_PER_DAY));
    let expected: BTreeMap<(SourceId, usize), u64> = [((app, 1), 1)].into_iter().collect();

    let batch = run_l3_pool(&store, w, &ids, &cfg, &ParConfig::serial()).expect("infallible");
    assert_eq!(batch.citations, expected, "batch");
    assert!(batch.detected.contains(app, 1));
    let mut cache = EvidenceCache::new();
    for state in ["cold", "warm"] {
        let windowed =
            run_l3_windowed_cached(&store, w, &ids, &cfg, &mut cache).expect("infallible");
        assert_eq!(windowed.citations, expected, "windowed, {state} cache");
        assert_eq!(windowed, batch, "windowed, {state} cache");
    }
}
