//! Seeded totality tests for the artifact readers.
//!
//! [`GridTable::parse`] and [`JournalEntry::parse`] are thin views over
//! the workspace's JSON parser, and both read files that a crash, a
//! torn append, or a hand edit can leave in any state. The invariant
//! under test: *no input may panic them*. Random bytes and strict
//! prefixes must come back as an error (`GridError`) or `None`; a
//! single-byte mutation may still be a valid document, so a mutant that
//! does load must satisfy the view's shape (no ragged rows, a journal
//! entry that round-trips through `to_line`). Every random case is
//! driven by `SplitMix64`, so a failure reproduces from its printed
//! seed.

use warped_bench::grid::{GridError, GridTable};
use warped_bench::journal::JournalEntry;
use warped_workloads::rng::SplitMix64;

/// A journal line exactly as `JournalEntry::to_line` writes it. This
/// pins the on-disk format `sweep --resume` reads back.
const JOURNAL_FIXTURE: &str =
    r#"{"index":101,"label":"srad/Warped \"Gates\"\u0009v2","cycles":2467118,"ff_cycles":58113}"#;

fn fixture_entry() -> JournalEntry {
    JournalEntry {
        index: 101,
        label: "srad/Warped \"Gates\"\tv2".to_owned(),
        cycles: 2_467_118,
        ff_cycles: 58_113,
    }
}

fn committed_grid() -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_grid.json");
    std::fs::read_to_string(path).expect("results/bench_grid.json is committed")
}

/// Bytes that steer a JSON parser into its structural and escape paths.
const PROBES: &[u8] = b"\"\\{}[],:0-9.eE+nultrf \n\x00\x7f\xc3\xff";

/// Single-byte mutants of `text`: at every position, each byte that
/// `replacements(at)` yields (the original byte skipped) and one
/// deletion, decoded lossily (the readers take `&str`).
fn mutants<'a, R: IntoIterator<Item = u8> + 'a>(
    text: &'a [u8],
    replacements: impl Fn(usize) -> R + 'a,
) -> impl Iterator<Item = String> + 'a {
    (0..text.len()).flat_map(move |at| {
        let deleted = [&text[..at], &text[at + 1..]].concat();
        replacements(at)
            .into_iter()
            .filter(move |&b| b != text[at])
            .map(move |b| {
                let mut m = text.to_vec();
                m[at] = b;
                m
            })
            .chain(std::iter::once(deleted))
            .map(|m| String::from_utf8_lossy(&m).into_owned())
    })
}

/// Whether `text` loads as a grid; one that does must not be ragged.
fn loads_unragged(text: &str) -> bool {
    let Ok(table) = GridTable::parse(text) else {
        return false;
    };
    for row in &table.rows {
        assert_eq!(
            row.values.len(),
            table.headers.len(),
            "ragged row {:?} accepted",
            row.label
        );
    }
    true
}

fn assert_journal_round_trips(text: &str) {
    if let Some(entry) = JournalEntry::parse(text) {
        assert_eq!(
            JournalEntry::parse(&entry.to_line()),
            Some(entry),
            "mutant {text:?}"
        );
    }
}

#[test]
fn the_journal_fixture_is_what_to_line_writes() {
    assert_eq!(fixture_entry().to_line(), JOURNAL_FIXTURE);
    assert_eq!(JournalEntry::parse(JOURNAL_FIXTURE), Some(fixture_entry()));
}

#[test]
fn random_bytes_never_load() {
    for seed in 0..2000u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(7));
        let len = rng.below(400) as usize;
        // Half the cases draw from JSON's own alphabet so the parser
        // gets past the first byte.
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if seed % 2 == 0 {
                    PROBES[rng.index(PROBES.len())]
                } else {
                    (rng.next_u64() & 0xff) as u8
                }
            })
            .collect();
        let text = String::from_utf8_lossy(&bytes);
        assert!(
            matches!(GridTable::parse(&text), Err(GridError::Parse { .. })),
            "seed {seed}: {text:?} loaded as a grid"
        );
        assert_eq!(JournalEntry::parse(&text), None, "seed {seed}: {text:?}");
    }
}

#[test]
fn truncated_committed_grid_never_loads() {
    let grid = committed_grid();
    let body = grid.trim_end().len();
    for cut in 0..body {
        assert!(
            matches!(GridTable::parse(&grid[..cut]), Err(GridError::Parse { .. })),
            "prefix of {cut} bytes loaded"
        );
    }
    assert_eq!(GridTable::parse(&grid[..body]).unwrap().rows.len(), 108);
}

#[test]
fn mutated_committed_grid_never_panics_or_loads_ragged() {
    let grid = committed_grid();
    // One probe byte per position (rotating through `PROBES`) plus a
    // deletion keeps the debug-build run to a few seconds.
    let probe = |at: usize| [PROBES[at % PROBES.len()]];
    let (mut total, mut loaded) = (0, 0);
    for mutant in mutants(grid.as_bytes(), probe) {
        total += 1;
        loaded += usize::from(loads_unragged(&mutant));
    }
    // Edits inside labels and digits stay valid, structural ones do not:
    // both outcomes must occur.
    assert!(
        0 < loaded && loaded < total,
        "{loaded} of {total} mutants loaded"
    );
}

#[test]
fn truncated_journal_lines_never_load() {
    for cut in 0..JOURNAL_FIXTURE.len() {
        assert_eq!(
            JournalEntry::parse(&JOURNAL_FIXTURE[..cut]),
            None,
            "prefix of {cut} bytes"
        );
    }
}

#[test]
fn every_single_byte_mutation_of_a_journal_line_is_total() {
    for mutant in mutants(JOURNAL_FIXTURE.as_bytes(), |_| 0..=255u8) {
        assert_journal_round_trips(&mutant);
    }
}
