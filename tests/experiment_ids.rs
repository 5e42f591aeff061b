//! The experiment ids the docs name must be the ids the `experiments`
//! binary runs: DESIGN.md §5's index lists the unit table row for row,
//! and the usage text's id list names exactly the table's ids.

use rexec_sweep::experiments::{all_experiment_ids, id_string};
use rexec_sweep::pipeline::USAGE;
use std::fs;
use std::path::Path;

fn table_ids() -> Vec<String> {
    all_experiment_ids().into_iter().map(id_string).collect()
}

/// The first column of the table in DESIGN.md's "## 5." section, header
/// and separator rows skipped.
fn design_index_ids(design: &str) -> Vec<String> {
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("5. "))
        .expect("DESIGN.md has a section 5");
    section
        .lines()
        .filter_map(|l| l.strip_prefix('|'))
        .filter_map(|l| l.split('|').next())
        .map(|cell| cell.trim().to_string())
        .skip(2)
        .collect()
}

/// The ids listed under `IDS` in the usage text, with `Fa..Fb` ranges
/// expanded and dots mapped to underscores as `parse_id` does.
fn usage_ids(usage: &str) -> Vec<String> {
    let list = usage
        .split_once("e.g.")
        .and_then(|(_, rest)| rest.split_once("--out"))
        .expect("usage lists ids between `e.g.` and `--out`")
        .0;
    let mut ids = Vec::new();
    for token in list.split_whitespace() {
        match token.split_once("..") {
            Some((lo, hi)) => {
                let n = |s: &str| -> u32 { s.trim_start_matches('F').parse().unwrap() };
                ids.extend((n(lo)..=n(hi)).map(|i| format!("F{i}")));
            }
            None => ids.push(token.replace('.', "_")),
        }
    }
    ids
}

#[test]
fn design_index_lists_the_unit_table_in_order() {
    let design = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    assert_eq!(design_index_ids(&design), table_ids());
}

#[test]
fn usage_names_exactly_the_unit_table() {
    assert_eq!(usage_ids(USAGE), table_ids());
}

#[test]
fn the_parsers_read_ranges_and_skip_table_headers() {
    assert_eq!(
        usage_ids("IDS  e.g.\n  T-rho1.4 F2..F4 X-mc\n  --out"),
        ["T-rho1_4", "F2", "F3", "F4", "X-mc"]
    );
    assert_eq!(
        design_index_ids(
            "\n## 5. Index\n\n| Id | A |\n|----|---|\n| F1 | x |\n\n## 6. Next\n| F9 |"
        ),
        ["F1"]
    );
}
