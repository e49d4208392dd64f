//! TSV (tab-separated) serialization of log streams.
//!
//! A deliberately simple line format so example applications can persist
//! and re-ingest simulated weeks without a heavyweight format dependency:
//!
//! ```text
//! client_ts \t server_ts \t source \t user \t host \t severity \t text
//! ```
//!
//! `user`/`host` are `-` when absent; tabs and newlines inside `text`
//! are escaped (`\t`, `\n`, and `\\` for a backslash).

use crate::record::{LogRecord, Severity};
use crate::registry::NameRegistry;
use crate::store::LogStore;
use crate::time::Millis;
use std::borrow::Cow;
use std::io::{self, Write};

/// Writes `text` as one TSV field, escaping it slice by slice: each run
/// of bytes with nothing to escape goes to `w` as it is. Every byte that
/// needs escaping is ASCII, so the runs are whole UTF-8 sequences.
fn write_escaped<W: Write>(w: &mut W, text: &str) -> io::Result<()> {
    let bytes = text.as_bytes();
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        w.write_all(bytes.get(run_start..i).unwrap_or_default())?;
        w.write_all(escaped)?;
        run_start = i + 1;
    }
    w.write_all(bytes.get(run_start..).unwrap_or_default())
}

/// Reverses the field escaping. Borrows `text` unless it contains a
/// backslash, so only fields that were escaped allocate.
fn unescape(text: &str) -> Cow<'_, str> {
    if !text.contains('\\') {
        return Cow::Borrowed(text);
    }
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// Writes one record as a TSV line (including the trailing newline).
pub fn write_record<W: Write>(
    w: &mut W,
    record: &LogRecord,
    registry: &NameRegistry,
) -> io::Result<()> {
    let user = record
        .user
        .and_then(|u| registry.users.name(u.0))
        .unwrap_or("-");
    let host = record
        .host
        .and_then(|h| registry.hosts.name(h.0))
        .unwrap_or("-");
    write!(
        w,
        "{}\t{}\t",
        record.client_ts.as_millis(),
        record.server_ts.as_millis()
    )?;
    write_escaped(w, registry.source_name(record.source))?;
    w.write_all(b"\t")?;
    write_escaped(w, user)?;
    w.write_all(b"\t")?;
    write_escaped(w, host)?;
    w.write_all(b"\t")?;
    w.write_all(record.severity.tag().as_bytes())?;
    w.write_all(b"\t")?;
    write_escaped(w, &record.text)?;
    w.write_all(b"\n")
}

/// Writes a whole store as TSV.
pub fn write_store<W: Write>(w: &mut W, store: &LogStore) -> io::Result<()> {
    for record in store.records() {
        write_record(w, record, &store.registry)?;
    }
    Ok(())
}

/// Errors from parsing a TSV log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line did not have the expected 7 fields.
    FieldCount(usize),
    /// A timestamp field was not an integer.
    BadTimestamp(String),
    /// The severity tag was unknown.
    BadSeverity(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::FieldCount(n) => write!(f, "expected 7 TSV fields, got {n}"),
            ParseError::BadTimestamp(s) => write!(f, "bad timestamp: {s:?}"),
            ParseError::BadSeverity(s) => write!(f, "bad severity tag: {s:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Splits `line` at its first six tabs into the seven fields, the last
/// keeping any further tabs; fails with the field count `splitn(7, '\t')`
/// would give.
fn split_fields(line: &str) -> Result<[&str; 7], ParseError> {
    let mut fields = [""; 7];
    let mut rest = line;
    for (i, field) in fields.iter_mut().enumerate() {
        *field = if i == 6 {
            rest
        } else {
            let (head, tail) = rest.split_once('\t').ok_or(ParseError::FieldCount(i + 1))?;
            rest = tail;
            head
        };
    }
    Ok(fields)
}

/// Parses one TSV line into a record, interning names into `registry`.
///
/// Fields are borrowed from `line` and unescaped only when they hold a
/// backslash; the record's `text` is the one allocation per line.
pub fn parse_record(line: &str, registry: &mut NameRegistry) -> Result<LogRecord, ParseError> {
    let [client_ts, server_ts, source, user, host, severity, text] = split_fields(line)?;
    let timestamp = |field: &str| {
        field
            .parse::<i64>()
            .map_err(|_| ParseError::BadTimestamp(field.to_owned()))
    };
    let client_ts = timestamp(client_ts)?;
    let server_ts = timestamp(server_ts)?;
    let source = registry.source(&unescape(source));
    let user = match user {
        "-" => None,
        u => Some(registry.user(&unescape(u))),
    };
    let host = match host {
        "-" => None,
        h => Some(registry.host(&unescape(h))),
    };
    let severity =
        Severity::from_tag(severity).ok_or_else(|| ParseError::BadSeverity(severity.to_owned()))?;
    Ok(LogRecord {
        client_ts: Millis(client_ts),
        server_ts: Millis(server_ts),
        source,
        user,
        host,
        severity,
        text: unescape(text).into_owned(),
    })
}

/// Parse failures from one ingest pass, with bounded memory: the first
/// [`ParseErrors::SAMPLE_CAP`] failures are retained verbatim, the rest
/// only counted. A fully-garbage multi-gigabyte input therefore costs a
/// fixed amount of memory for diagnostics, not one allocation per line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseErrors {
    samples: Vec<(usize, ParseError)>,
    total: usize,
    cap: usize,
}

impl ParseErrors {
    /// Default number of retained samples.
    pub const SAMPLE_CAP: usize = 32;

    /// Creates an empty collector retaining at most `cap` samples.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            samples: Vec::new(),
            total: 0,
            cap,
        }
    }

    /// Records one failure (keeps it only while under the cap).
    pub fn record(&mut self, lineno: usize, error: ParseError) {
        if self.samples.len() < self.cap {
            self.samples.push((lineno, error));
        }
        self.total += 1;
    }

    /// Total number of failures seen (not just the retained ones).
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no line failed to parse.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The retained `(1-based line number, error)` samples.
    pub fn samples(&self) -> &[(usize, ParseError)] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{read_store_resilient, IngestPolicy, IngestReport};
    use crate::registry::SourceId;

    /// Reads `data` the way a plain round trip wants: every line
    /// accounted for, nothing deduplicated, no error budget.
    fn read(data: &[u8]) -> (LogStore, IngestReport) {
        let policy = IngestPolicy {
            dedup: false,
            ..IngestPolicy::lenient()
        };
        read_store_resilient(data, &policy).expect("reading from memory")
    }

    fn sample_store() -> LogStore {
        let mut s = LogStore::new();
        let app_a = s.registry.source("AppA");
        let app_b = s.registry.source("AppB");
        let user = s.registry.user("alice");
        let host = s.registry.host("ws-001");
        s.push(
            LogRecord::minimal(app_a, Millis(100))
                .with_user(user)
                .with_host(host)
                .with_text("Invoke externalService [fct [notify]]"),
        );
        s.push(
            LogRecord::minimal(app_b, Millis(50))
                .with_severity(Severity::Error)
                .with_text("weird\ttext with\nnewline and \\backslash"),
        );
        s.finalize();
        s
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = sample_store();
        let mut buf = Vec::new();
        write_store(&mut buf, &original).unwrap();
        let (parsed, report) = read(&buf);
        assert_eq!(report.quarantined, 0);
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.records().iter().zip(parsed.records()) {
            assert_eq!(a.client_ts, b.client_ts);
            assert_eq!(a.severity, b.severity);
            assert_eq!(a.text, b.text);
            assert_eq!(
                original.registry.source_name(a.source),
                parsed.registry.source_name(b.source)
            );
        }
    }

    #[test]
    fn escape_round_trip() {
        for s in ["plain", "tab\there", "line\nbreak", "back\\slash", "\r", ""] {
            let mut field = Vec::new();
            write_escaped(&mut field, s).unwrap();
            let field = String::from_utf8(field).unwrap();
            assert_eq!(unescape(&field), s);
        }
    }

    #[test]
    fn unescape_borrows_fields_without_a_backslash() {
        assert!(matches!(
            unescape("plain\ttab"),
            Cow::Borrowed("plain\ttab")
        ));
        assert!(matches!(unescape("a\\tb"), Cow::Owned(_)));
    }

    #[test]
    fn unescape_tolerates_trailing_backslash() {
        assert_eq!(unescape("abc\\"), "abc\\");
        assert_eq!(unescape("a\\x"), "a\\x");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let mut reg = NameRegistry::new();
        assert!(matches!(
            parse_record("only\tfour\tfields\there", &mut reg),
            Err(ParseError::FieldCount(4))
        ));
        assert!(matches!(
            parse_record("x\t2\tsrc\t-\t-\tINF\ttext", &mut reg),
            Err(ParseError::BadTimestamp(_))
        ));
        assert!(matches!(
            parse_record("1\t2\tsrc\t-\t-\tZZZ\ttext", &mut reg),
            Err(ParseError::BadSeverity(_))
        ));
    }

    #[test]
    fn read_store_collects_errors_and_continues() {
        let data = "1\t1\tA\t-\t-\tINF\tok\nbroken line\n2\t2\tB\t-\t-\tINF\talso ok\n";
        let (store, report) = read(data.as_bytes());
        assert_eq!(store.len(), 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantine_samples.len(), 1);
        assert_eq!(report.quarantine_samples[0].0, 2, "1-based line number");
    }

    #[test]
    fn parse_error_samples_are_capped() {
        let mut garbage = String::new();
        for i in 0..(ParseErrors::SAMPLE_CAP + 10) {
            garbage.push_str(&format!("broken line {i}\n"));
        }
        let (store, report) = read(garbage.as_bytes());
        assert!(store.is_empty());
        assert_eq!(report.quarantined, ParseErrors::SAMPLE_CAP + 10);
        assert_eq!(report.quarantine_samples.len(), ParseErrors::SAMPLE_CAP);
        // The retained samples are the *first* failures.
        assert_eq!(report.quarantine_samples[0].0, 1);
        for (lineno, _) in &report.quarantine_samples {
            assert!(*lineno <= ParseErrors::SAMPLE_CAP);
        }
    }

    #[test]
    fn empty_lines_skipped() {
        let data = "\n1\t1\tA\t-\t-\tINF\tok\n\n";
        let (store, report) = read(data.as_bytes());
        assert_eq!(store.len(), 1);
        assert_eq!(report.quarantined, 0);
        assert_eq!(store.registry.find_source("A"), Some(SourceId(0)));
    }

    #[test]
    fn missing_user_host_round_trip() {
        let original = sample_store();
        let mut buf = Vec::new();
        write_store(&mut buf, &original).unwrap();
        let (parsed, _) = read(&buf);
        // AppB record (earliest, sorts first) had no user/host.
        let r = &parsed.records()[0];
        assert!(r.user.is_none() && r.host.is_none());
        // AppA record kept them.
        let r = &parsed.records()[1];
        assert!(r.user.is_some() && r.host.is_some());
    }
}
