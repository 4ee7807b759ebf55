//! Run provenance for persisted benchmark artifacts, where they go, and
//! how big the generators run.
//!
//! The four committed artifacts (`BENCH_lbm.json`, `BENCH_sched.json`,
//! `EVAL_campaign.json`, `REPRO.json`) are compared across commits; a
//! number without the commit and toolchain that produced it is
//! unreviewable. These helpers shell out to `git`/`rustc` and degrade
//! to `"unknown"` when either is unavailable (e.g. an unpacked source
//! tarball), so the generators never fail on missing provenance.

use std::path::PathBuf;
use std::process::Command;

use hemocloud_obs::json::{self, Value};

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

/// The current commit (short hash), or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler version line (`rustc -V`), or `"unknown"`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json::escape_into(&mut out, s);
    out
}

/// The `git_rev` + `rustc` fields every artifact's `"provenance"` object
/// starts with; callers append their own typed fields.
pub fn stamp() -> Vec<(&'static str, Value)> {
    vec![
        ("git_rev", Value::Str(git_rev())),
        ("rustc", Value::Str(rustc_version())),
    ]
}

/// Whether `RT_BENCH_FAST` asks the generators for smoke-sized runs: set,
/// and not `0`.
pub fn fast_mode() -> bool {
    std::env::var("RT_BENCH_FAST").is_ok_and(|v| v != "0")
}

/// Write `contents` to `$OUT_DIR/<file>` (`OUT_DIR` defaults to the
/// current directory, i.e. the committed artifacts when run from the repo
/// root; `check` points it at `target/check/<run>/`). Returns the path.
///
/// Hazard: `OUT_DIR` is also the variable Cargo sets for `cargo run` of a
/// package with a build script. No workspace crate has a `build.rs`; the
/// day one does, this knob needs a non-reserved name, or the generators
/// will silently write under `target/.../out`.
///
/// # Panics
/// When the directory cannot be created or the file cannot be written.
pub fn write_artifact(file: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from(std::env::var_os("OUT_DIR").unwrap_or_else(|| ".".into()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    let path = dir.join(file);
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("  wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_strings_are_single_nonempty_lines() {
        for s in [git_rev(), rustc_version()] {
            assert!(!s.is_empty());
            assert!(!s.contains('\n'));
        }
    }

    #[test]
    fn rustc_version_is_detected_in_a_build_environment() {
        // The bench binaries are built by rustc, so it must be present.
        let v = rustc_version();
        assert!(v.starts_with("rustc "), "unexpected: {v}");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
