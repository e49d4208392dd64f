//! Robustness properties for the TSV codec: arbitrary byte soup must
//! parse to `Ok` or `ParseError` — never a panic — and every record the
//! writer emits must survive a write → parse round trip, including text
//! containing the characters the escaping layer exists for (tabs,
//! newlines, carriage returns, backslashes).

use logdep_logstore::codec::{parse_record, write_record};
use logdep_logstore::record::{LogRecord, Severity};
use logdep_logstore::registry::NameRegistry;
use logdep_logstore::time::Millis;
use logdep_logstore::{read_store_resilient, IngestPolicy};
use proptest::prelude::*;

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
}
