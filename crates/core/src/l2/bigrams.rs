//! Bigram extraction and counting.

use logdep_logstore::SourceId;
use logdep_par::{par_chunks_fold, ParConfig};
use logdep_sessions::Session;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Frequency data of all bigrams extracted from a session set.
///
/// Uses the `(f, f1, f2, N)` marginal representation of Evert's UCS
/// toolkit: the joint count per ordered type plus the two margins and
/// the grand total, from which each 2×2 table is reconstructed.
///
/// The maps are `BTreeMap`s so iteration, serialization, and shard
/// merges are deterministically ordered — equal counts serialize to
/// byte-identical snapshots, which the incremental cache relies on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BigramCounts {
    /// Joint counts per ordered `(first, second)` source pair.
    pub joint: BTreeMap<(SourceId, SourceId), u64>,
    /// Count of bigrams whose first component is the given source.
    pub first_margin: BTreeMap<SourceId, u64>,
    /// Count of bigrams whose second component is the given source.
    pub second_margin: BTreeMap<SourceId, u64>,
    /// Total number of bigrams.
    pub total: u64,
}

impl BigramCounts {
    /// Number of distinct ordered pair types observed.
    pub fn n_types(&self) -> usize {
        self.joint.len()
    }
}

/// Extracts bigrams from sessions.
///
/// For each pair of immediately succeeding logs `(a, b)` within one
/// session: the bigram is skipped when `a` and `b` share the source
/// (§3.2: "we ignore bigrams where a = b") or when `timeout_ms` is
/// finite and the gap exceeds it. Note the paper's semantics: a skipped
/// *timeout* bigram still advances the window — the successor of a
/// too-distant pair starts from the later log.
pub fn extract_bigrams(sessions: &[Session], timeout_ms: Option<i64>) -> BigramCounts {
    extract_bigrams_pool(sessions, timeout_ms, &ParConfig::serial())
}

/// [`extract_bigrams`] sharded over the pool: sessions are split into
/// contiguous chunks, each worker counts into a private contingency
/// map, and the per-shard maps are merged with saturating adds in
/// shard order. Sessions never share a bigram (no window crosses a
/// session boundary) and counter addition is order-free, so the result
/// is identical to the serial count at every thread count.
pub fn extract_bigrams_pool(
    sessions: &[Session],
    timeout_ms: Option<i64>,
    par: &ParConfig,
) -> BigramCounts {
    par_chunks_fold(
        par,
        sessions,
        BigramCounts::default,
        |mut counts, session| {
            count_session(&mut counts, session, timeout_ms);
            counts
        },
        merge_counts,
    )
}

/// Counts one session's bigrams into `counts` — the serial inner loop.
fn count_session(counts: &mut BigramCounts, session: &Session, timeout_ms: Option<i64>) {
    for w in session.entries.windows(2) {
        let (first, second) = (w[0], w[1]);
        if first.source == second.source {
            continue;
        }
        if let Some(to) = timeout_ms {
            if second.ts - first.ts > to {
                continue;
            }
        }
        *counts
            .joint
            .entry((first.source, second.source))
            .or_insert(0) += 1;
        *counts.first_margin.entry(first.source).or_insert(0) += 1;
        *counts.second_margin.entry(second.source).or_insert(0) += 1;
        counts.total += 1;
    }
}

/// Merges two shard counts, saturating on overflow so a hostile 2⁶⁴-
/// bigram stream degrades to pinned counters instead of wrapping (the
/// same hardening as the contingency tables downstream).
pub fn merge_counts(mut a: BigramCounts, b: BigramCounts) -> BigramCounts {
    for (key, count) in b.joint {
        let slot = a.joint.entry(key).or_insert(0);
        *slot = slot.saturating_add(count);
    }
    for (key, count) in b.first_margin {
        let slot = a.first_margin.entry(key).or_insert(0);
        *slot = slot.saturating_add(count);
    }
    for (key, count) in b.second_margin {
        let slot = a.second_margin.entry(key).or_insert(0);
        *slot = slot.saturating_add(count);
    }
    a.total = a.total.saturating_add(b.total);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{HostId, Millis, UserId};
    use logdep_sessions::SessionEntry;

    fn session(entries: &[(i64, u32)]) -> Session {
        Session {
            user: UserId(0),
            host: HostId(0),
            entries: entries
                .iter()
                .map(|&(t, s)| SessionEntry {
                    ts: Millis(t),
                    source: SourceId(s),
                })
                .collect(),
        }
    }

    /// The running example of §3.2 / Figure 3: A2 calls A1, then twice
    /// A3 which calls A4. Log sequence (by source index):
    /// 2,1,2,3,4,2,3,4,2 with the final gap of 0.6 s.
    fn paper_session() -> Session {
        session(&[
            (0, 2),
            (100, 1),
            (200, 2),
            (300, 3),
            (400, 4),
            (500, 2),
            (600, 3),
            (700, 4),
            (1300, 2), // 0.6 s gap before the last log
        ])
    }

    #[test]
    fn paper_example_without_timeout() {
        let counts = extract_bigrams(&[paper_session()], None);
        // 8 bigrams, as listed in the paper.
        assert_eq!(counts.total, 8);
        let j = |a: u32, b: u32| {
            counts
                .joint
                .get(&(SourceId(a), SourceId(b)))
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(j(2, 1), 1);
        assert_eq!(j(1, 2), 1);
        assert_eq!(j(2, 3), 2);
        assert_eq!(j(3, 4), 2);
        assert_eq!(j(4, 2), 2);
        assert_eq!(counts.n_types(), 5);
    }

    #[test]
    fn paper_example_contingency_for_a2_a3() {
        // Figure 4: for type (A2, A3): o11 = 2, o12 = 0, o21 = 1, o22 = 5.
        let counts = extract_bigrams(&[paper_session()], None);
        let f = counts.joint[&(SourceId(2), SourceId(3))];
        let f1 = counts.first_margin[&SourceId(2)];
        let f2 = counts.second_margin[&SourceId(3)];
        let n = counts.total;
        assert_eq!((f, f1, f2, n), (2, 3, 2, 8));
        let table = logdep_stats::contingency::Table2x2::from_marginals(f, f1, f2, n).unwrap();
        assert_eq!(table, logdep_stats::contingency::Table2x2::new(2, 0, 1, 5));
    }

    #[test]
    fn timeout_drops_the_last_bigram() {
        // "for any timeout value between 0 and 0.5 seconds" the final
        // (A4, A2) bigram disappears (gap = 0.6 s).
        let counts = extract_bigrams(&[paper_session()], Some(500));
        assert_eq!(counts.total, 7);
        assert_eq!(counts.joint[&(SourceId(4), SourceId(2))], 1);
        // Timeout above the gap keeps it.
        let counts = extract_bigrams(&[paper_session()], Some(600));
        assert_eq!(counts.total, 8);
    }

    #[test]
    fn same_source_bigrams_ignored() {
        let s = session(&[(0, 1), (10, 1), (20, 2)]);
        let counts = extract_bigrams(&[s], None);
        assert_eq!(counts.total, 1);
        assert_eq!(counts.joint[&(SourceId(1), SourceId(2))], 1);
    }

    #[test]
    fn multiple_sessions_accumulate_independently() {
        let s1 = session(&[(0, 1), (10, 2)]);
        let s2 = session(&[(1_000_000, 1), (1_000_010, 2)]);
        let counts = extract_bigrams(&[s1, s2], None);
        assert_eq!(counts.total, 2);
        assert_eq!(counts.joint[&(SourceId(1), SourceId(2))], 2);
        // No bigram across the session boundary even though the gap
        // logic alone would allow it.
        assert!(!counts.joint.contains_key(&(SourceId(2), SourceId(1))));
    }

    #[test]
    fn empty_and_singleton_sessions() {
        let counts = extract_bigrams(&[session(&[(0, 1)])], None);
        assert_eq!(counts.total, 0);
        let counts = extract_bigrams(&[], None);
        assert_eq!(counts.total, 0);
        assert_eq!(counts.n_types(), 0);
    }

    #[test]
    fn sharded_extraction_matches_serial_at_any_thread_count() {
        // Many small sessions with varied structure; shard boundaries
        // land all over the place across thread counts.
        let sessions: Vec<Session> = (0..37)
            .map(|k| {
                let base = k as i64 * 100_000;
                session(&[
                    (base, k % 5),
                    (base + 100, (k + 1) % 5),
                    (base + 900, (k + 2) % 5),
                    (base + 2_000, k % 5),
                ])
            })
            .collect();
        let serial = extract_bigrams(&sessions, Some(1_000));
        for threads in [2usize, 3, 8] {
            let par = ParConfig::with_threads(threads).expect("nonzero");
            let sharded = extract_bigrams_pool(&sessions, Some(1_000), &par);
            assert_eq!(sharded, serial, "threads = {threads}");
        }
    }

    #[test]
    fn merge_counts_saturates_instead_of_wrapping() {
        let mut a = BigramCounts::default();
        a.joint.insert((SourceId(1), SourceId(2)), u64::MAX - 1);
        a.total = u64::MAX - 1;
        let mut b = BigramCounts::default();
        b.joint.insert((SourceId(1), SourceId(2)), 5);
        b.total = 5;
        let merged = merge_counts(a, b);
        assert_eq!(merged.joint[&(SourceId(1), SourceId(2))], u64::MAX);
        assert_eq!(merged.total, u64::MAX);
    }

    #[test]
    fn margins_are_consistent() {
        let counts = extract_bigrams(&[paper_session()], None);
        let sum_first: u64 = counts.first_margin.values().sum();
        let sum_second: u64 = counts.second_margin.values().sum();
        let sum_joint: u64 = counts.joint.values().sum();
        assert_eq!(sum_first, counts.total);
        assert_eq!(sum_second, counts.total);
        assert_eq!(sum_joint, counts.total);
    }
}
