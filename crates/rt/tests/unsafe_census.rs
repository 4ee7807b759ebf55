//! The workspace's `unsafe` code sites, pinned per file, each under its
//! justification — so a new site (or one that lost its comment) is a
//! deliberate edit of this table, not something a review has to spot.
//!
//! A *site* is a line of non-test source (above the file's `#[cfg(test)]`)
//! whose code, comments stripped, contains the keyword. Every site needs
//! `SAFETY:` within the four lines above it; an `unsafe fn` declaration
//! instead needs a `# Safety` section in its doc comment.

use std::path::{Path, PathBuf};

/// Code sites per file, relative to `crates/`. Every other file has none.
const PINNED: &[(&str, usize)] = &[("lbm/src/solver.rs", 2), ("rt/src/pool.rs", 9)];

fn rust_files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `code` contains `unsafe` as a whole word.
fn has_unsafe_keyword(code: &str) -> bool {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|word| word == "unsafe")
}

/// Whether the site at `lines[at]` carries its justification.
fn justified(lines: &[&str], at: usize) -> bool {
    if lines[at].contains("unsafe fn") {
        // The doc comment (and attributes) directly above the declaration.
        lines[..at]
            .iter()
            .rev()
            .map(|l| l.trim_start())
            .take_while(|l| l.starts_with("///") || l.starts_with("#["))
            .any(|l| l.contains("# Safety"))
    } else {
        lines[at.saturating_sub(4)..at]
            .iter()
            .any(|l| l.contains("SAFETY:"))
    }
}

#[test]
fn every_unsafe_site_is_pinned_and_justified() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(crates).expect("readable crates/") {
        let src = entry.expect("readable directory entry").path().join("src");
        if src.is_dir() {
            rust_files_under(&src, &mut files);
        }
    }
    files.sort();
    assert!(files.len() > 50, "walked only {} source files", files.len());

    let mut census = Vec::new();
    let mut unjustified = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        let lines: Vec<&str> = text
            .lines()
            .take_while(|l| l.trim() != "#[cfg(test)]")
            .collect();
        let name = file
            .strip_prefix(crates)
            .expect("under crates/")
            .to_string_lossy()
            .into_owned();
        let mut sites = 0;
        for (at, line) in lines.iter().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if has_unsafe_keyword(code) {
                sites += 1;
                if !justified(&lines, at) {
                    unjustified.push(format!("{name}:{}: {}", at + 1, line.trim()));
                }
            }
        }
        if sites > 0 {
            census.push((name, sites));
        }
    }

    let pinned: Vec<(String, usize)> = PINNED.iter().map(|&(f, n)| (f.to_string(), n)).collect();
    assert_eq!(
        census, pinned,
        "the unsafe census moved: update PINNED deliberately"
    );
    assert!(
        unjustified.is_empty(),
        "unsafe sites without `SAFETY:` in the four lines above (or `# Safety` docs):\n{}",
        unjustified.join("\n")
    );
}

#[test]
fn the_keyword_matcher_sees_words_not_substrings() {
    assert!(has_unsafe_keyword("let x = unsafe { *p };"));
    assert!(has_unsafe_keyword("unsafe impl Send for T {}"));
    assert!(has_unsafe_keyword("|| unsafe { (*task)(run) }"));
    assert!(!has_unsafe_keyword("let unsafe_count = 3;"));
    assert!(!has_unsafe_keyword("fn not_unsafe() {}"));
    assert!(!has_unsafe_keyword(""));
}
