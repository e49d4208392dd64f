//! Resilient consolidation: quarantine, repair, dedup and skew estimation.
//!
//! [`read_store_resilient`] is the one TSV reader. It is the hardened
//! path a production consolidation job uses against hostile streams
//! (see the `logdep-faults` injector): it enforces a bounded **error
//! budget** so a mis-pointed
//! ingest fails fast instead of silently quarantining half the data,
//! repairs out-of-order delivery, absorbs at-least-once duplication, and
//! estimates per-source clock skew from the client/server timestamp gap
//! (the paper's §4.2 NT-domain drift), reporting everything in a
//! machine-readable [`IngestReport`]. [`load_logs`] runs it over one or
//! several export files and merges them.
//!
//! The reader streams through one reused line buffer: it never holds the
//! input, only the store it builds.

use crate::codec::{parse_record, ParseErrors};
use crate::store::LogStore;
use logdep_obs::{record, Field};
use std::collections::BTreeMap;
use std::io::{self, BufRead};

/// Per-source cap on skew samples: enough for a stable median without
/// letting one chatty source dominate memory.
const SKEW_SAMPLE_CAP: usize = 4_096;

/// Quarantine and repair policy for one resilient ingest pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPolicy {
    /// Abort when more than this fraction of non-empty lines failed to
    /// parse (checked once at least `min_lines_before_check` lines have
    /// been seen, and again at end of stream).
    pub max_error_fraction: f64,
    /// Grace period: never abort before this many non-empty lines, so a
    /// corrupt burst at the head of an otherwise-healthy stream does not
    /// kill the ingest.
    pub min_lines_before_check: usize,
    /// Retain at most this many quarantined-line samples in the report.
    pub error_sample_cap: usize,
    /// Remove exact duplicates — same `(client_ts, source, text)` — on
    /// finalize (at-least-once shippers retransmit whole batches).
    pub dedup: bool,
}

impl Default for IngestPolicy {
    fn default() -> Self {
        Self {
            max_error_fraction: 0.5,
            min_lines_before_check: 1_000,
            error_sample_cap: ParseErrors::SAMPLE_CAP,
            dedup: true,
        }
    }
}

impl IngestPolicy {
    /// A policy that quarantines without ever aborting (error budget 1.0).
    pub fn lenient() -> Self {
        Self {
            max_error_fraction: 1.0,
            ..Self::default()
        }
    }
}

/// What one resilient ingest pass did, in machine-readable form.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IngestReport {
    /// Non-empty lines seen.
    pub total_lines: usize,
    /// Lines parsed into records.
    pub parsed: usize,
    /// Lines quarantined (failed to parse).
    pub quarantined: usize,
    /// First few quarantined lines as `(1-based line number, error)`.
    pub quarantine_samples: Vec<(usize, String)>,
    /// Exact duplicate records removed on finalize.
    pub deduped: usize,
    /// Records that arrived with a client timestamp earlier than a
    /// previously-seen record (repaired by the finalize sort).
    pub repaired_out_of_order: usize,
    /// Estimated per-source clock skew: the median of
    /// `client_ts - server_ts` over the source's records, ms. Only
    /// sources with a nonzero estimate appear.
    pub per_source_skew_ms: BTreeMap<String, i64>,
}

impl IngestReport {
    /// Fraction of non-empty lines that were quarantined.
    pub fn quarantine_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            0.0
        } else {
            self.quarantined as f64 / self.total_lines as f64
        }
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} lines: {} parsed, {} quarantined, {} deduped, {} out-of-order repaired, \
             {} sources with clock skew",
            self.total_lines,
            self.parsed,
            self.quarantined,
            self.deduped,
            self.repaired_out_of_order,
            self.per_source_skew_ms.len(),
        )
    }
}

/// Failure of a resilient ingest pass.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The malformed-line fraction exceeded the policy's budget.
    ErrorBudgetExceeded {
        /// Non-empty lines seen when the budget check tripped.
        lines: usize,
        /// Quarantined lines at that point.
        quarantined: usize,
        /// The policy's `max_error_fraction`.
        max_fraction: f64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::ErrorBudgetExceeded {
                lines,
                quarantined,
                max_fraction,
            } => write!(
                f,
                "error budget exceeded: {quarantined}/{lines} lines malformed \
                 (limit {:.0}%) — wrong file or unsupported format?",
                max_fraction * 100.0
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::ErrorBudgetExceeded { .. } => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Reads a TSV stream into a finalized store under `policy`, reporting
/// quarantine, repair, dedup and skew statistics.
///
/// Fails fast (with [`IngestError::ErrorBudgetExceeded`]) when the
/// stream is mostly garbage, and absorbs duplicate delivery when
/// `policy.dedup` is set. `IngestPolicy { dedup: false,
/// ..IngestPolicy::lenient() }` keeps every parsed line and never aborts.
///
/// Lines end at `\n`, and a `\r` right before that `\n` is dropped too,
/// as [`BufRead::lines`] does; a final line needs no terminator. A line
/// that is not UTF-8 fails the pass with an
/// [`io::ErrorKind::InvalidData`] error. Line numbers in the report
/// count every line, blank ones included.
///
/// Records one `ingest` span on the calling thread's recorder, ending
/// with the pass's `lines`, `bytes`, `deduped` and `quarantined`, and
/// adds them to the `ingest.*` counters.
pub fn read_store_resilient<R: BufRead>(
    r: R,
    policy: &IngestPolicy,
) -> Result<(LogStore, IngestReport), IngestError> {
    record(|rec| rec.span_begin("ingest", &[]));
    let mut bytes = 0u64;
    let result = ingest(r, policy, &mut bytes);
    record(|rec| match &result {
        Ok((_, report)) => {
            let counts = [
                ("lines", report.total_lines as u64),
                ("bytes", bytes),
                ("deduped", report.deduped as u64),
                ("quarantined", report.quarantined as u64),
            ];
            let mut fields = vec![("ok", Field::from(true))];
            for (name, value) in counts {
                rec.counter_add(&format!("ingest.{name}"), value);
                fields.push((name, Field::from(value)));
            }
            rec.span_end("ingest", &fields);
        }
        Err(_) => rec.span_end(
            "ingest",
            &[("ok", Field::from(false)), ("bytes", Field::from(bytes))],
        ),
    });
    result
}

/// The body of [`read_store_resilient`]; `bytes` counts what it read.
fn ingest<R: BufRead>(
    mut r: R,
    policy: &IngestPolicy,
    bytes: &mut u64,
) -> Result<(LogStore, IngestReport), IngestError> {
    let mut store = LogStore::new();
    let mut report = IngestReport::default();
    let mut errors = ParseErrors::with_cap(policy.error_sample_cap);
    // (client_ts - server_ts) samples per source index, capped.
    let mut skew_samples: Vec<Vec<i64>> = Vec::new();
    let mut last_seen_ts: Option<i64> = None;

    let mut buf = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        let n = r.read_until(b'\n', &mut buf)?;
        if n == 0 {
            break;
        }
        *bytes += n as u64;
        lineno += 1;
        let line = std::str::from_utf8(strip_terminator(&buf)).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if line.is_empty() {
            continue;
        }
        report.total_lines += 1;
        match parse_record(line, &mut store.registry) {
            Ok(rec) => {
                report.parsed += 1;
                let ts = rec.client_ts.as_millis();
                if last_seen_ts.is_some_and(|prev| ts < prev) {
                    report.repaired_out_of_order += 1;
                }
                last_seen_ts = Some(last_seen_ts.map_or(ts, |prev| prev.max(ts)));
                let idx = rec.source.index();
                if skew_samples.len() <= idx {
                    skew_samples.resize_with(idx + 1, Vec::new);
                }
                if let Some(samples) = skew_samples.get_mut(idx) {
                    if samples.len() < SKEW_SAMPLE_CAP {
                        samples.push(rec.client_ts - rec.server_ts);
                    }
                }
                store.push(rec);
            }
            Err(e) => errors.record(lineno, e),
        }
        if report.total_lines >= policy.min_lines_before_check {
            check_budget(report.total_lines, errors.len(), policy)?;
        }
    }
    // End-of-stream check catches short mostly-garbage streams too.
    check_budget(report.total_lines, errors.len(), policy)?;

    report.quarantined = errors.len();
    report.quarantine_samples = errors
        .samples()
        .iter()
        .map(|(lineno, e)| (*lineno, e.to_string()))
        .collect();

    report.deduped = if policy.dedup {
        store.finalize_dedup()
    } else {
        store.finalize();
        0
    };

    for (idx, samples) in skew_samples.iter_mut().enumerate() {
        let skew = median(samples);
        if skew != 0 {
            if let Some(name) = store.registry.sources.name(idx as u32) {
                report.per_source_skew_ms.insert(name.to_owned(), skew);
            }
        }
    }

    Ok((store, report))
}

/// Each loaded file's path and [`IngestReport`], in load order.
type FileReports<'a> = Vec<(&'a str, IngestReport)>;

/// Loads one TSV export, or several (comma-separated paths) merged —
/// the consolidation step of §5, for logs collected from decentralized
/// storage locations. Each file goes through [`read_store_resilient`]
/// under the default [`IngestPolicy`]. Returns the finalized merged
/// store and each file's path and [`IngestReport`], in order; an error
/// names the path that failed.
pub fn load_logs(paths: &str) -> Result<(LogStore, FileReports<'_>), String> {
    let policy = IngestPolicy::default();
    let mut merged: Option<LogStore> = None;
    let mut reports = Vec::new();
    for path in paths.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let file = std::fs::File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
        let (store, report) = read_store_resilient(io::BufReader::new(file), &policy)
            .map_err(|e| format!("ingest {path}: {e}"))?;
        reports.push((path, report));
        match merged.as_mut() {
            None => merged = Some(store),
            Some(m) => m.merge(&store),
        }
    }
    let mut store = merged.ok_or("no log files given")?;
    store.finalize();
    Ok((store, reports))
}

/// Drops a trailing `\n`, then a `\r` before it, as [`BufRead::lines`]
/// does: a `\r` with no `\n` after it stays in the line.
fn strip_terminator(line: &[u8]) -> &[u8] {
    match line.strip_suffix(b"\n") {
        Some(body) => body.strip_suffix(b"\r").unwrap_or(body),
        None => line,
    }
}

fn check_budget(
    lines: usize,
    quarantined: usize,
    policy: &IngestPolicy,
) -> Result<(), IngestError> {
    if lines == 0 {
        return Ok(());
    }
    if quarantined as f64 > policy.max_error_fraction * lines as f64 {
        return Err(IngestError::ErrorBudgetExceeded {
            lines,
            quarantined,
            max_fraction: policy.max_error_fraction,
        });
    }
    Ok(())
}

/// Median of the samples (0 when empty); lower-middle for even counts.
fn median(samples: &mut [i64]) -> i64 {
    if samples.is_empty() {
        return 0;
    }
    let mid = (samples.len() - 1) / 2;
    let (_, m, _) = samples.select_nth_unstable(mid);
    *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_record;
    use crate::record::LogRecord;
    use crate::time::Millis;

    fn tsv(rows: &[(i64, i64, &str, &str)]) -> String {
        let mut store = LogStore::new();
        let mut buf = Vec::new();
        for &(client, server, source, text) in rows {
            let src = store.registry.source(source);
            let rec = LogRecord::minimal(src, Millis(client))
                .with_server_ts(Millis(server))
                .with_text(text);
            write_record(&mut buf, &rec, &store.registry).expect("write to Vec");
        }
        String::from_utf8(buf).expect("codec emits UTF-8")
    }

    #[test]
    fn clean_stream_parses_fully() {
        let data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 2);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.deduped, 0);
        assert_eq!(report.repaired_out_of_order, 0);
        assert!(report.per_source_skew_ms.is_empty());
    }

    #[test]
    fn quarantines_and_reports_bad_lines() {
        let mut data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]);
        data.push_str("utter garbage\n");
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantine_samples.len(), 1);
        assert_eq!(report.quarantine_samples[0].0, 3);
        assert!((report.quarantine_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn error_budget_fails_fast() {
        let mut data = String::from("garbage one\ngarbage two\ngarbage three\n");
        data.push_str(&tsv(&[(10, 10, "A", "x")]));
        let policy = IngestPolicy {
            max_error_fraction: 0.5,
            min_lines_before_check: 2,
            ..IngestPolicy::default()
        };
        let err = read_store_resilient(data.as_bytes(), &policy).expect_err("must abort");
        match err {
            IngestError::ErrorBudgetExceeded { quarantined, .. } => assert!(quarantined >= 2),
            other => panic!("unexpected error: {other}"),
        }
        // The same stream passes a lenient policy.
        assert!(read_store_resilient(data.as_bytes(), &IngestPolicy::lenient()).is_ok());
    }

    #[test]
    fn budget_checked_at_end_of_short_streams() {
        // Shorter than min_lines_before_check, but 100% garbage: the
        // end-of-stream check must still trip.
        let data = "bad\nbad\nbad\n";
        let err = read_store_resilient(data.as_bytes(), &IngestPolicy::default())
            .expect_err("must abort");
        assert!(matches!(err, IngestError::ErrorBudgetExceeded { .. }));
    }

    #[test]
    fn out_of_order_is_counted_and_repaired() {
        let data = tsv(&[
            (30, 30, "A", "late"),
            (10, 10, "A", "early"),
            (20, 20, "A", "mid"),
        ]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.repaired_out_of_order, 2);
        let ts: Vec<i64> = store
            .records()
            .iter()
            .map(|r| r.client_ts.as_millis())
            .collect();
        assert_eq!(ts, vec![10, 20, 30], "finalize repairs the order");
    }

    #[test]
    fn duplicates_are_absorbed_when_policy_says_so() {
        let data = tsv(&[(10, 10, "A", "x"), (10, 10, "A", "x"), (20, 20, "A", "y")]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.deduped, 1);
        assert_eq!(store.len(), 2);

        let keep = IngestPolicy {
            dedup: false,
            ..IngestPolicy::default()
        };
        let (store, report) = read_store_resilient(data.as_bytes(), &keep).expect("ok");
        assert_eq!(report.deduped, 0);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn skew_estimate_is_median_of_ts_gap() {
        // Source A's clock runs 5s ahead of the server; B is honest.
        let data = tsv(&[
            (15_000, 10_000, "A", "one"),
            (25_000, 20_000, "A", "two"),
            (35_000, 30_000, "A", "three"),
            (10_000, 10_000, "B", "x"),
        ]);
        let (_, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.per_source_skew_ms.get("A"), Some(&5_000));
        assert_eq!(report.per_source_skew_ms.get("B"), None);
    }

    #[test]
    fn empty_stream_is_fine() {
        let (store, report) =
            read_store_resilient("".as_bytes(), &IngestPolicy::default()).expect("ok");
        assert!(store.is_empty());
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn ingest_records_one_span_and_its_counters() {
        let mut data = tsv(&[(10, 10, "A", "x"), (10, 10, "A", "x")]);
        data.push_str("\ngarbage\n");
        logdep_obs::set_recorder(logdep_obs::Recorder::new());
        let result = read_store_resilient(data.as_bytes(), &IngestPolicy::default());
        let rec = logdep_obs::take_recorder().expect("recorder installed above");
        let (_, report) = result.expect("ok");
        assert_eq!(report.total_lines, 3);
        assert_eq!(
            rec.sink.render_jsonl(),
            format!(
                "{{\"seq\":0,\"ev\":\"begin\",\"name\":\"ingest\"}}\n\
                 {{\"seq\":1,\"ev\":\"end\",\"name\":\"ingest\",\"ok\":true,\"lines\":3,\
                 \"bytes\":{},\"deduped\":1,\"quarantined\":1}}\n",
                data.len()
            )
        );
        for (name, value) in [
            ("ingest.lines", 3),
            ("ingest.bytes", data.len() as u64),
            ("ingest.deduped", 1),
            ("ingest.quarantined", 1),
        ] {
            assert_eq!(rec.metrics.counter(name), value, "{name}");
        }
    }

    #[test]
    fn failed_ingest_still_closes_its_span() {
        logdep_obs::set_recorder(logdep_obs::Recorder::new());
        let result = read_store_resilient("bad\n".as_bytes(), &IngestPolicy::default());
        let rec = logdep_obs::take_recorder().expect("recorder installed above");
        assert!(result.is_err());
        assert!(rec.sink.check_balanced().is_ok());
        assert_eq!(
            rec.sink.events()[1].fields,
            vec![
                ("ok".to_owned(), Field::from(false)),
                ("bytes".to_owned(), Field::from(4u64)),
            ]
        );
        assert_eq!(rec.metrics.counter("ingest.lines"), 0);
    }

    #[test]
    fn report_summary_mentions_counts() {
        let report = IngestReport {
            total_lines: 10,
            parsed: 8,
            quarantined: 2,
            ..IngestReport::default()
        };
        let s = report.summary();
        assert!(s.contains("10 lines"));
        assert!(s.contains("8 parsed"));
        assert!(s.contains("2 quarantined"));
    }
}
