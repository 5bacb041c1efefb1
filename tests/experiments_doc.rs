//! EXPERIMENTS.md quotes the committed `figures all` output instead of
//! retyping it: every code span in its headline table's "Measured" column,
//! and every line of its `text` blocks, must be a line of
//! `figures_full.txt` (leading and trailing blanks dropped). A re-recorded
//! `figures_full.txt` that changes a quoted number fails here until the
//! doc quotes the new line.

use std::collections::HashSet;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const FIGURES: &str = include_str!("../figures_full.txt");

/// The code spans of one markdown table cell.
fn code_spans(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

#[test]
fn experiments_doc_quotes_figures_full_verbatim() {
    let printed: HashSet<&str> = FIGURES.lines().map(str::trim).collect();
    let mut missing = Vec::new();

    let headline = DOC
        .split("## Headline artifacts")
        .nth(1)
        .and_then(|rest| rest.split("\n#").next())
        .expect("EXPERIMENTS.md has a headline-artifacts section");
    let rows: Vec<&str> = headline.lines().filter(|l| l.starts_with("| **")).collect();
    assert!(rows.len() >= 20, "headline table has only {} artifact rows", rows.len());
    for row in rows {
        // `| artifact | paper | measured | shape |`
        let measured = row.split('|').nth(3).expect("a Measured cell");
        let quotes: Vec<&str> = code_spans(measured).collect();
        assert!(!quotes.is_empty(), "row quotes no figures_full.txt line: {row}");
        missing.extend(quotes.into_iter().filter(|q| !printed.contains(q.trim())));
    }

    let blocks: Vec<&str> = DOC
        .split("```text\n")
        .skip(1)
        .map(|rest| rest.split("```").next().expect("a closed text block"))
        .collect();
    assert!(!blocks.is_empty(), "EXPERIMENTS.md has no quoted text block");
    for block in blocks {
        missing.extend(block.lines().filter(|l| !printed.contains(l.trim())));
    }

    assert!(
        missing.is_empty(),
        "quoted in EXPERIMENTS.md but not in figures_full.txt: {missing:#?}"
    );
}
