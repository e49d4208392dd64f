//! Robustness properties for the TSV codec: arbitrary byte soup must
//! parse to `Ok` or `ParseError` — never a panic — and every record the
//! writer emits must survive a write → parse round trip, including text
//! containing the characters the escaping layer exists for (tabs,
//! newlines, carriage returns, backslashes).
//!
//! A differential oracle pins the codec to the straightforward
//! implementation in [`reference`]: on arbitrary lines the parser returns
//! the same `Result` and interns names in the same order, and the writer
//! emits the same bytes.

use logdep_logstore::codec::{parse_record, write_record, ParseError};
use logdep_logstore::record::{LogRecord, Severity};
use logdep_logstore::registry::NameRegistry;
use logdep_logstore::time::Millis;
use logdep_logstore::{read_store_resilient, IngestPolicy};
use proptest::prelude::*;

/// The allocating codec: `splitn`/`collect` field splitting, a `String`
/// per unescaped field and a `writeln!` writer. Slow, but obviously
/// right, so it is the oracle for the zero-copy codec.
mod reference {
    use logdep_logstore::codec::ParseError;
    use logdep_logstore::record::{LogRecord, Severity};
    use logdep_logstore::registry::NameRegistry;
    use logdep_logstore::time::Millis;
    use std::io::{self, Write};

    /// Escapes text for a single TSV field.
    fn escape(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        for c in text.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out
    }

    /// Reverses [`escape`].
    fn unescape(text: &str) -> String {
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
        out
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
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            record.client_ts.as_millis(),
            record.server_ts.as_millis(),
            escape(registry.source_name(record.source)),
            escape(user),
            escape(host),
            record.severity.tag(),
            escape(&record.text),
        )
    }

    /// Parses one TSV line into a record, interning names into `registry`.
    pub fn parse_record(line: &str, registry: &mut NameRegistry) -> Result<LogRecord, ParseError> {
        let fields: Vec<&str> = line.splitn(7, '\t').collect();
        if fields.len() != 7 {
            return Err(ParseError::FieldCount(fields.len()));
        }
        let client_ts: i64 = fields[0]
            .parse()
            .map_err(|_| ParseError::BadTimestamp(fields[0].to_owned()))?;
        let server_ts: i64 = fields[1]
            .parse()
            .map_err(|_| ParseError::BadTimestamp(fields[1].to_owned()))?;
        let source = registry.source(&unescape(fields[2]));
        let user = match fields[3] {
            "-" => None,
            u => Some(registry.user(&unescape(u))),
        };
        let host = match fields[4] {
            "-" => None,
            h => Some(registry.host(&unescape(h))),
        };
        let severity = Severity::from_tag(fields[5])
            .ok_or_else(|| ParseError::BadSeverity(fields[5].to_owned()))?;
        Ok(LogRecord {
            client_ts: Millis(client_ts),
            server_ts: Millis(server_ts),
            source,
            user,
            host,
            severity,
            text: unescape(fields[6]),
        })
    }
}

/// A name or text field rich in what the codec treats specially:
/// backslash escapes (valid, unknown and trailing), tabs, CR/LF, a
/// multi-byte character and the `-` placeholder.
fn escapy() -> impl Strategy<Value = String> {
    "[ab\\\\tnrx\\-é\t\r\n]{0,8}"
}

/// A timestamp field: usually an `i64`, sometimes not.
fn timestamp() -> impl Strategy<Value = String> {
    (any::<u8>(), any::<i64>(), "[0-9+x .-]{0,21}").prop_map(|(pick, n, junk)| {
        if pick % 3 == 0 {
            junk
        } else {
            n.to_string()
        }
    })
}

/// A severity field: one of the four tags, or something close to one.
fn severity_tag() -> impl Strategy<Value = String> {
    any::<u8>().prop_map(|pick| {
        let tags = ["DBG", "INF", "WRN", "ERR", "inf", "INFO", "", "-"];
        tags.get(usize::from(pick % 8))
            .copied()
            .unwrap_or_default()
            .to_owned()
    })
}

/// A user or host field: the `-` placeholder or a name.
fn optional_name() -> impl Strategy<Value = String> {
    (any::<bool>(), escapy()).prop_map(|(absent, name)| if absent { "-".to_owned() } else { name })
}

/// An arbitrary line: seven fields that are often valid, then maybe cut
/// short or given extra tabs. Fields are joined raw, so a tab inside a
/// generated name shifts the fields after it.
fn line() -> impl Strategy<Value = String> {
    (
        (timestamp(), timestamp(), escapy()),
        (optional_name(), optional_name(), severity_tag(), escapy()),
        (any::<u8>(), "[a\\\\\t]{0,4}"),
    )
        .prop_map(|((c, s, src), (user, host, sev, text), (shape, extra))| {
            let fields = [c, s, src, user, host, sev, text];
            match shape % 4 {
                0 => fields
                    .get(..usize::from(shape / 4) % 7)
                    .unwrap_or_default()
                    .join("\t"),
                1 => format!("{}\t{extra}", fields.join("\t")),
                _ => fields.join("\t"),
            }
        })
}

/// Every name of a registry, per id space, in interning order.
fn registry_names(registry: &NameRegistry) -> [Vec<String>; 3] {
    [&registry.sources, &registry.users, &registry.hosts]
        .map(|interner| interner.iter().map(|(_, name)| name.to_owned()).collect())
}

/// Printable ASCII plus the escape-relevant control characters.
fn nasty_text() -> impl Strategy<Value = String> {
    "[ -~\t\n\r]{0,60}"
}

fn severity(tag: u8) -> Severity {
    match tag % 4 {
        0 => Severity::Debug,
        1 => Severity::Info,
        2 => Severity::Warning,
        _ => Severity::Error,
    }
}

proptest! {
    #[test]
    fn parse_record_never_panics(line in "[ -~\t]{0,80}") {
        let mut registry = NameRegistry::new();
        // Ok or Err are both fine; reaching this point is the property.
        let _ = parse_record(&line, &mut registry);
    }

    #[test]
    fn short_lines_error_on_field_count(line in "[a-z ]{0,30}") {
        let mut registry = NameRegistry::new();
        prop_assert!(parse_record(&line, &mut registry).is_err());
    }

    #[test]
    fn bad_timestamps_are_rejected_not_panicked(
        ts in "[a-z0-9.x-]{1,24}",
        rest in "[a-z]{1,6}",
    ) {
        // Valid i64s parse; everything else must error cleanly.
        let line = format!("{ts}\t0\t{rest}\t-\t-\tINF\tmessage");
        let mut registry = NameRegistry::new();
        let r = parse_record(&line, &mut registry);
        if ts.parse::<i64>().is_ok() {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(r.is_err());
        }
    }

    #[test]
    fn write_parse_round_trips_nasty_records(
        client_ts in any::<i64>(),
        server_ts in any::<i64>(),
        source in "[a-z]{1,8}",
        user in proptest::option::of("[a-z]{1,8}"),
        host in proptest::option::of("[a-z]{1,8}"),
        sev in any::<u8>(),
        text in nasty_text(),
    ) {
        let mut registry = NameRegistry::new();
        let record = LogRecord {
            client_ts: Millis(client_ts),
            server_ts: Millis(server_ts),
            source: registry.source(&source),
            user: user.as_deref().map(|u| registry.user(u)),
            host: host.as_deref().map(|h| registry.host(h)),
            severity: severity(sev),
            text,
        };

        let mut buf = Vec::new();
        write_record(&mut buf, &record, &registry).expect("write to Vec");
        let line = String::from_utf8(buf).expect("codec emits UTF-8");
        let line = line.strip_suffix('\n').expect("one trailing newline");
        prop_assert!(!line.contains('\n'), "escaping must keep one record per line");

        let parsed = parse_record(line, &mut registry).expect("round trip parses");
        prop_assert_eq!(parsed, record);
    }

    #[test]
    fn read_store_accounts_for_every_nonempty_line(
        lines in proptest::collection::vec("[ -~\t]{0,40}", 0..30),
    ) {
        let input = lines.join("\n");
        let policy = IngestPolicy { dedup: false, ..IngestPolicy::lenient() };
        let (store, report) =
            read_store_resilient(input.as_bytes(), &policy).expect("reading from memory");
        let nonempty = lines.iter().filter(|l| !l.is_empty()).count();
        prop_assert_eq!(store.records().len() + report.quarantined, nonempty);
        for (lineno, _) in &report.quarantine_samples {
            prop_assert!(*lineno >= 1 && *lineno <= lines.len());
        }
    }

    #[test]
    fn parse_record_matches_the_reference(lines in proptest::collection::vec(line(), 1..24)) {
        let mut ours = NameRegistry::new();
        let mut theirs = NameRegistry::new();
        for line in &lines {
            let got: Result<LogRecord, ParseError> = parse_record(line, &mut ours);
            let want = reference::parse_record(line, &mut theirs);
            prop_assert_eq!(got, want, "line {:?}", line);
        }
        prop_assert_eq!(registry_names(&ours), registry_names(&theirs));
    }

    #[test]
    fn write_record_matches_the_reference(
        client_ts in any::<i64>(),
        server_ts in any::<i64>(),
        source in escapy(),
        user in proptest::option::of(escapy()),
        host in proptest::option::of(escapy()),
        sev in any::<u8>(),
        text in escapy(),
    ) {
        let mut registry = NameRegistry::new();
        let record = LogRecord {
            client_ts: Millis(client_ts),
            server_ts: Millis(server_ts),
            source: registry.source(&source),
            user: user.as_deref().map(|u| registry.user(u)),
            host: host.as_deref().map(|h| registry.host(h)),
            severity: severity(sev),
            text,
        };
        let mut got = Vec::new();
        write_record(&mut got, &record, &registry).expect("write to Vec");
        let mut want = Vec::new();
        reference::write_record(&mut want, &record, &registry).expect("write to Vec");
        prop_assert_eq!(got, want);
    }
}
