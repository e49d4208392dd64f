//! Properties of the resilient ingest path: repair is a *fixpoint* —
//! re-serializing a repaired store and ingesting it again changes
//! nothing (`repair(repair(x)) == repair(x)`), for arbitrary line soup
//! mixing valid records, duplicates, out-of-order delivery and garbage.
//!
//! Below the properties, fixed cases pin how the reader splits a stream
//! into lines: terminators, a last line without one, line numbering and
//! UTF-8 validation.

use logdep_logstore::codec::write_store;
use logdep_logstore::ingest::{read_store_resilient, IngestError, IngestPolicy, IngestReport};
use logdep_logstore::LogStore;
use proptest::prelude::*;
use std::io;

/// Reads `data` keeping every parsed line and never aborting.
fn read(data: &[u8]) -> Result<(LogStore, IngestReport), IngestError> {
    let policy = IngestPolicy {
        dedup: false,
        ..IngestPolicy::lenient()
    };
    read_store_resilient(data, &policy)
}

/// The store written back as TSV: equal bytes mean equal records and
/// names.
fn exported(store: &LogStore) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    write_store(&mut buf, store)?;
    Ok(buf)
}

const LF: &str = "10\t10\tA\tu\th\tINF\tfirst\n\
                  \n\
                  20\t20\tB\t-\t-\tERR\tsecond\\twith a tab\n\
                  garbage\n\
                  30\t30\tA\t-\t-\tWRN\tthird\n";

#[test]
fn crlf_lines_ingest_like_lf_lines() -> io::Result<()> {
    let (lf_store, lf_report) = read(LF.as_bytes()).expect("LF stream");
    let crlf = LF.replace('\n', "\r\n");
    let (crlf_store, crlf_report) = read(crlf.as_bytes()).expect("CRLF stream");
    assert_eq!(crlf_report, lf_report);
    assert_eq!(exported(&crlf_store)?, exported(&lf_store)?);
    assert_eq!(lf_store.len(), 3);
    Ok(())
}

#[test]
fn final_line_without_newline_is_read() -> io::Result<()> {
    let unterminated = LF.strip_suffix('\n').expect("LF ends in a newline");
    let (store, report) = read(unterminated.as_bytes()).expect("unterminated stream");
    let (lf_store, lf_report) = read(LF.as_bytes()).expect("LF stream");
    assert_eq!(report, lf_report);
    assert_eq!(exported(&store)?, exported(&lf_store)?);
    Ok(())
}

#[test]
fn lone_cr_before_eof_is_kept_in_the_text() {
    let (store, _) = read(b"1\t1\tA\t-\t-\tINF\ttext\r").expect("one line");
    assert_eq!(store.records()[0].text, "text\r");
    let (store, _) = read(b"1\t1\tA\t-\t-\tINF\ttext\r\n").expect("one line");
    assert_eq!(store.records()[0].text, "text");
}

#[test]
fn quarantine_line_numbers_count_blank_lines() {
    let (_, report) = read(LF.as_bytes()).expect("LF stream");
    assert_eq!(
        report.total_lines, 4,
        "the blank line is not counted as a line read"
    );
    assert_eq!(report.quarantined, 1);
    assert_eq!(
        report.quarantine_samples[0].0, 4,
        "but it is counted in line numbers"
    );
}

#[test]
fn non_utf8_line_fails_with_invalid_data() {
    let data = b"1\t1\tA\t-\t-\tINF\tok\n2\t2\tA\t-\t-\tINF\t\xff\xfe\n";
    match read(data) {
        Err(IngestError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
        Err(other) => panic!("unexpected error: {other}"),
        Ok(_) => panic!("a non-UTF-8 line must fail the pass"),
    }
}

/// A line that is usually a valid TSV record (with small id spaces to
/// force duplicates and collisions) and sometimes raw garbage, so
/// streams mix both.
fn line() -> impl Strategy<Value = String> {
    (
        any::<u8>(),
        0..50i64,
        0..50i64,
        0..4u8,
        "[a-z]{0,6}",
        "[ -~]{0,30}",
    )
        .prop_map(|(selector, client, server, src, text, garbage)| {
            if selector % 3 == 0 {
                garbage
            } else {
                format!("{client}\t{server}\tApp{src}\t-\t-\tINF\t{text}")
            }
        })
}

proptest! {
    #[test]
    fn repair_is_idempotent(lines in proptest::collection::vec(line(), 0..80)) {
        let input = lines.join("\n");
        let policy = IngestPolicy::lenient();

        let (once, first) = read_store_resilient(input.as_bytes(), &policy)
            .expect("lenient policy never aborts");

        // Serialize the repaired store and ingest it again.
        let mut buf = Vec::new();
        write_store(&mut buf, &once).expect("write to Vec");
        let (twice, second) = read_store_resilient(buf.as_slice(), &policy)
            .expect("clean re-ingest");

        // Fixpoint: nothing left to repair.
        prop_assert_eq!(second.quarantined, 0, "repaired output must parse fully");
        prop_assert_eq!(second.deduped, 0, "no duplicates survive a repair");
        prop_assert_eq!(second.repaired_out_of_order, 0, "output is already sorted");
        prop_assert_eq!(second.parsed, first.parsed - first.deduped);

        // And the store content is unchanged. Record order among equal
        // client timestamps tie-breaks on interned source ids, which
        // permute between passes (arrival order vs sorted order), so
        // compare name-resolved records as sorted multisets.
        prop_assert_eq!(once.len(), twice.len());
        let resolve = |s: &logdep_logstore::LogStore| {
            let mut rows: Vec<(i64, String, i64, String)> = s
                .records()
                .iter()
                .map(|r| {
                    (
                        r.client_ts.as_millis(),
                        s.registry.source_name(r.source).to_owned(),
                        r.server_ts.as_millis(),
                        r.text.clone(),
                    )
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(resolve(&once), resolve(&twice));
    }

    #[test]
    fn resilient_ingest_never_panics(raw in "[ -~\t\n]{0,400}") {
        // Ok or ErrorBudgetExceeded are both acceptable; no panic is the
        // property.
        let _ = read_store_resilient(raw.as_bytes(), &IngestPolicy::default());
    }

    #[test]
    fn accounting_balances(lines in proptest::collection::vec(line(), 0..80)) {
        let input = lines.join("\n");
        let (store, report) = read_store_resilient(input.as_bytes(), &IngestPolicy::lenient())
            .expect("lenient policy never aborts");
        let nonempty = lines.iter().filter(|l| !l.is_empty()).count();
        prop_assert_eq!(report.total_lines, nonempty);
        prop_assert_eq!(report.parsed + report.quarantined, nonempty);
        prop_assert_eq!(store.len(), report.parsed - report.deduped);
    }
}
