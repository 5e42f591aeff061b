//! The CI workflow runs what it names: every `--test NAME` in
//! `.github/workflows/ci.yml` is an integration-test file of the root
//! package or of a workspace crate, and every `--bin NAME` is a binary
//! target. A renamed or deleted target otherwise breaks its CI step
//! where nobody sees it locally.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root package and every directory under `crates/`.
fn packages() -> Vec<PathBuf> {
    let mut dirs = vec![root().to_path_buf()];
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    dirs.extend(crates);
    dirs
}

/// The quoted value of the first `key = "..."` line in a manifest
/// section.
fn manifest_value(section: &str, key: &str) -> Option<String> {
    section.lines().find_map(|line| {
        let (k, v) = line.split_once('=')?;
        (k.trim() == key).then(|| v.trim().trim_matches('"').to_string())
    })
}

/// Every word following `flag` in the workflow.
fn flag_values(ci: &str, flag: &str) -> BTreeSet<String> {
    let words: Vec<&str> = ci.split_whitespace().collect();
    words
        .windows(2)
        .filter(|pair| pair[0] == flag)
        .map(|pair| pair[1].to_string())
        .collect()
}

/// Stems of the `.rs` files directly under `dir`, with their paths.
fn rust_files(dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| {
            (
                path.file_stem().unwrap().to_string_lossy().into_owned(),
                path,
            )
        })
        .collect()
}

#[test]
fn every_ci_target_resolves() {
    let ci = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("ci.yml");
    let mut tests = BTreeSet::new();
    let mut bins = BTreeSet::new();
    for dir in packages() {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest");
        tests.extend(
            rust_files(&dir.join("tests"))
                .into_iter()
                .map(|(stem, _)| stem),
        );
        // Explicit `[[bin]]` targets, then src/bin files none of them
        // claims (cargo discovers those under their file stem).
        let declared: Vec<(String, PathBuf)> = manifest
            .split("[[bin]]")
            .skip(1)
            .map(|section| {
                let name = manifest_value(section, "name").expect("[[bin]] name");
                let path =
                    manifest_value(section, "path").unwrap_or_else(|| format!("src/bin/{name}.rs"));
                (name, dir.join(path))
            })
            .collect();
        for (stem, path) in rust_files(&dir.join("src/bin")) {
            if !declared.iter().any(|(_, p)| *p == path) {
                bins.insert(stem);
            }
        }
        bins.extend(declared.into_iter().map(|(name, _)| name));
    }

    let wanted_tests = flag_values(&ci, "--test");
    let wanted_bins = flag_values(&ci, "--bin");
    assert!(
        !wanted_tests.is_empty() && !wanted_bins.is_empty(),
        "the workflow names no --test or --bin target; is the parser stale?"
    );
    for (kind, wanted, known) in [
        ("--test", &wanted_tests, &tests),
        ("--bin", &wanted_bins, &bins),
    ] {
        let missing: Vec<&String> = wanted.difference(known).collect();
        assert!(
            missing.is_empty(),
            "ci.yml names {kind} targets that do not exist: {missing:?} (known: {known:?})"
        );
    }
}
