//! DIVERGENCES.md names, for every departure from the paper, the tests
//! that pin it. Each named test must exist, so that renaming or deleting
//! one cannot silently orphan its ledger entry.

use std::fs;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `path.rs::name` references in a ledger section's "Pinned by"
/// paragraph.
fn pinned_tests(section: &str) -> Vec<(String, String)> {
    let Some((_, rest)) = section.split_once("**Pinned by:**") else {
        return Vec::new();
    };
    let paragraph = rest.split("\n\n").next().unwrap_or_default();
    paragraph
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|reference| {
            let (path, name) = reference.split_once(".rs::")?;
            Some((format!("{path}.rs"), name.to_string()))
        })
        .collect()
}

/// Whether `source` defines `fn name(` under a `#[test]` attribute
/// (other attributes such as `#[should_panic]` may sit in between).
fn defines_test(source: &str, name: &str) -> bool {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    lines.iter().enumerate().any(|(i, line)| {
        let is_fn = line
            .strip_prefix("fn ")
            .and_then(|rest| rest.strip_prefix(name))
            .is_some_and(|rest| rest.starts_with('('));
        is_fn
            && lines[..i]
                .iter()
                .rev()
                .take_while(|l| l.starts_with("#["))
                .any(|l| *l == "#[test]")
    })
}

#[test]
fn every_ledger_entry_names_existing_tests() {
    let ledger = fs::read_to_string(root().join("DIVERGENCES.md")).expect("DIVERGENCES.md");
    let sections: Vec<&str> = ledger.split("\n## ").skip(1).collect();
    assert!(
        sections.len() >= 10,
        "ledger has {} entries",
        sections.len()
    );
    for section in sections {
        let title = section.lines().next().unwrap_or_default();
        let pinned = pinned_tests(section);
        assert!(!pinned.is_empty(), "entry '{title}' names no test");
        for (path, name) in pinned {
            let source = fs::read_to_string(root().join(&path))
                .unwrap_or_else(|e| panic!("entry '{title}': {path}: {e}"));
            assert!(
                defines_test(&source, &name),
                "entry '{title}': no #[test] fn {name} in {path}"
            );
        }
    }
}

#[test]
fn the_checker_rejects_a_missing_test() {
    let source = "#[test]\n#[should_panic]\nfn present() {}\nfn helper() {}\n";
    assert!(defines_test(source, "present"));
    assert!(!defines_test(source, "helper"));
    assert!(!defines_test(source, "pres"));
    let section = "Title\n\n**Pinned by:** `a/b.rs::c`,\n`d.rs::e`\n\nmore `x.rs::y`";
    assert_eq!(
        pinned_tests(section),
        vec![
            ("a/b.rs".to_string(), "c".to_string()),
            ("d.rs".to_string(), "e".to_string())
        ]
    );
}
