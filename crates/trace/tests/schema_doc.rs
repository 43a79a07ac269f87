//! The event-schema tables in `docs/OBSERVABILITY.md` must describe
//! exactly the kinds in [`TraceEvent::KINDS`]: every kind has a row,
//! every row names a real kind, and each row names that kind's wire
//! fields in encoding order. Adding a kind without documenting it, or
//! documenting one that does not exist, fails here.

use lgv_trace::TraceEvent;
use std::collections::BTreeSet;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OBSERVABILITY.md");

/// The backticked names in `text`, in order.
fn backticked(text: &str) -> Vec<&str> {
    text.split('`').skip(1).step_by(2).collect()
}

/// `(kind, backticked names of the fields cell)` for every row of the
/// tables between `## Event schema` and `## Metrics registry`.
fn doc_rows(doc: &str) -> Vec<(&str, Vec<&str>)> {
    let start = doc
        .find("\n## Event schema")
        .expect("no `## Event schema` heading");
    let end = doc[start..]
        .find("\n## Metrics registry")
        .expect("no `## Metrics registry` heading");
    doc[start..start + end]
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `")?.split('|');
            let kind = cells.next()?.trim().strip_suffix('`')?;
            Some((kind, backticked(cells.next()?)))
        })
        .collect()
}

#[test]
fn event_schema_doc_matches_the_kinds_table() {
    let doc = std::fs::read_to_string(DOC).expect("read docs/OBSERVABILITY.md");
    let rows = doc_rows(&doc);

    let documented: BTreeSet<&str> = rows.iter().map(|(kind, _)| *kind).collect();
    assert_eq!(documented.len(), rows.len(), "a kind has two rows");
    let code: BTreeSet<&str> = TraceEvent::KINDS.iter().map(|(kind, ..)| *kind).collect();
    assert_eq!(
        code.difference(&documented).collect::<Vec<_>>(),
        Vec::<&&str>::new(),
        "kinds missing from the docs/OBSERVABILITY.md event tables"
    );
    assert_eq!(
        documented.difference(&code).collect::<Vec<_>>(),
        Vec::<&&str>::new(),
        "documented kinds that TraceEvent does not have"
    );

    for (kind, _, fields) in TraceEvent::KINDS {
        let (_, names) = rows.iter().find(|(k, _)| k == kind).unwrap();
        // The wire fields must appear in encoding order; other
        // backticked words (value labels, symbols) may sit between.
        let mut rest = names.iter();
        for field in *fields {
            assert!(
                rest.any(|name| name == field),
                "`{kind}` row: field `{field}` missing or out of order in {names:?}"
            );
        }
    }
}
