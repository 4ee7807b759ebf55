//! The artifact gate `scripts/verify.sh` runs: generate fresh artifacts
//! (smoke-sized where a generator has a smoke size), judge them and the
//! committed ones with `gates::*`, and byte-compare every pair the
//! determinism contract says must agree. Run it from the repository root.
//!
//! * `check` — spawns the four generators (`bench_baseline`,
//!   `bench_sched`, `eval_campaign`, `repro`) with `OUT_DIR` set to
//!   `target/check/<run>/` and the environment of the table in
//!   `SMOKE_RUNS`; then gates the four committed artifacts in the current
//!   directory, including the one-revision stamp gate, the
//!   fresh-vs-committed perf gate, and the gate that holds the committed
//!   `EVAL_campaign.json` equal to the fresh full-size run but for
//!   `provenance.git_rev` and `provenance.rustc`.
//! * `check --regen` — runs the four generators full-size into the
//!   current directory in one sitting (`BENCH_lbm.json` at
//!   `RT_POOL_THREADS=1`, so it stays comparable with the serial smoke
//!   mesh the perf gate holds against it), then gates the result.
//!
//! Exits non-zero listing every failure; each names its gate.

use std::path::Path;
use std::process::{Command, Stdio};

use hemocloud_bench::gates::*;
use hemocloud_obs::json::{self, Value};

type GateFn = fn(&Value) -> Vec<String>;

/// `(run directory under target/check, generator, environment)`.
/// `eval_campaign` has no smoke size: its full run takes well under a
/// second in release.
#[rustfmt::skip]
const SMOKE_RUNS: &[(&str, &str, &str)] = &[
    ("bench_w1_a", "bench_baseline", "RT_BENCH_FAST=1 RT_POOL_THREADS=1"),
    ("bench_w1_b", "bench_baseline", "RT_BENCH_FAST=1 RT_POOL_THREADS=1"),
    ("bench_w8_a", "bench_baseline", "RT_BENCH_FAST=1 RT_POOL_THREADS=8"),
    ("bench_w8_b", "bench_baseline", "RT_BENCH_FAST=1 RT_POOL_THREADS=8"),
    ("sched", "bench_sched", "RT_BENCH_FAST=1"),
    ("eval_a", "eval_campaign", ""),
    ("eval_b", "eval_campaign", ""),
    ("repro_a", "repro", "RT_BENCH_FAST=1"),
    ("repro_b", "repro", "RT_BENCH_FAST=1"),
];

/// Fresh artifacts that are also the fresh side of a gate against
/// `COMMITTED[i]`: the perf gate for `BENCH_lbm.json` (a serial smoke
/// mesh), equality but for the stamp for the full-size evaluation.
#[rustfmt::skip]
const FRESH: [(&str, GateFn); 2] = [
    ("bench_w1_a/BENCH_lbm.json", gate_bench_lbm),
    ("eval_a/EVAL_campaign.json", gate_eval),
];

/// What each other fresh artifact must satisfy.
#[rustfmt::skip]
const SMOKE_GATES: &[(&str, &[GateFn])] = &[
    ("bench_w8_a/BENCH_lbm.json", &[gate_bench_lbm]),
    ("bench_w1_a/OBS_bench.json", &[gate_obs]),
    ("bench_w8_a/OBS_bench.json", &[gate_obs]),
    ("eval_a/OBS_fabric.json", &[gate_obs]),
    ("sched/BENCH_sched.json", &[gate_bench_sched]),
    ("repro_a/REPRO.json", &[gate_repro]),
];

/// Fresh artifacts that must agree byte for byte: reruns at the same
/// settings (`_a`/`_b`). Only `bench_baseline` reaches `rt::pool`, so
/// only its rows set a worker count (`_w1`/`_w8`), each width paired
/// with its own rerun. (Event shard counts 1, 2 and 4 are compared in
/// process by `bench_sched` and by `eval_campaign`'s contention cell.)
#[rustfmt::skip]
const SMOKE_PAIRS: &[(&str, &str)] = &[
    ("bench_w1_a/OBS_bench.json", "bench_w1_b/OBS_bench.json"),
    ("bench_w8_a/OBS_bench.json", "bench_w8_b/OBS_bench.json"),
    ("eval_a/OBS_fabric.json", "eval_b/OBS_fabric.json"),
    ("eval_a/EVAL_campaign.json", "eval_b/EVAL_campaign.json"),
    ("repro_a/REPRO.json", "repro_b/REPRO.json"),
];

/// The committed artifacts (in the current directory), their gates, and
/// the environment `--regen` runs their generators with. The first
/// two are the committed sides of the gates against `FRESH`.
#[rustfmt::skip]
const COMMITTED: [(&str, GateFn, &str, &str); 4] = [
    ("BENCH_lbm.json", gate_bench_lbm, "bench_baseline", "RT_POOL_THREADS=1"),
    ("EVAL_campaign.json", gate_eval, "eval_campaign", ""),
    ("BENCH_sched.json", gate_bench_sched, "bench_sched", ""),
    ("REPRO.json", gate_repro, "repro", ""),
];

struct Check {
    failures: Vec<String>,
}

impl Check {
    /// Run one generator with exactly `env` (`KEY=value` words) plus
    /// `OUT_DIR` from the knobs the generators read — whatever size or
    /// width the caller's shell exports, the run gated is the table's.
    /// A non-zero exit is a failure (its stderr, passed through, names
    /// the gate).
    fn generate(&mut self, bin: &str, out_dir: &Path, env: &str) {
        println!("check: {env} OUT_DIR={} {bin}", out_dir.display());
        let mut cmd = Command::new("cargo");
        cmd.args([
            "run",
            "-q",
            "--release",
            "--offline",
            "-p",
            "hemocloud-bench",
            "--bin",
            bin,
        ]);
        cmd.env_remove("RT_BENCH_FAST").env_remove("RT_POOL_THREADS");
        cmd.envs(env.split_whitespace().filter_map(|kv| kv.split_once('=')));
        let status = cmd.env("OUT_DIR", out_dir).stdout(Stdio::null()).status();
        if !status.as_ref().is_ok_and(|s| s.success()) {
            self.failures
                .push(format!("{bin} -> {}: {status:?}", out_dir.display()));
        }
    }

    /// Parse the artifact at `path` and run `gates` on it, tagging each
    /// failure with the path. Unreadable or invalid JSON is a failure too
    /// (and gates as `Null`).
    fn gated(&mut self, path: &Path, gates: &[GateFn]) -> Value {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
        let doc = text.and_then(|text| json::parse(&text).map_err(|e| e.to_string()));
        let doc = doc.unwrap_or_else(|e| {
            self.failures.push(format!("{}: {e}", path.display()));
            Value::Null
        });
        let failures = gates.iter().flat_map(|gate| gate(&doc));
        self.failures
            .extend(failures.map(|f| format!("{}: {f}", path.display())));
        doc
    }

    fn same_bytes(&mut self, a: &Path, b: &Path) {
        let (x, y) = (std::fs::read(a).ok(), std::fs::read(b).ok());
        if x.is_none() || x != y {
            let (a, b) = (a.display(), b.display());
            self.failures.push(format!(
                "byte_identity: {a} and {b} differ or are unreadable"
            ));
        }
    }

    /// Spawn every run of `SMOKE_RUNS`, gate and compare what they wrote, and
    /// return the `FRESH` documents for the gates against the committed
    /// ones.
    fn smoke(&mut self) -> [Value; 2] {
        let root = Path::new("target/check");
        let _ = std::fs::remove_dir_all(root);
        for (run, bin, env) in SMOKE_RUNS {
            self.generate(bin, &root.join(run), env);
        }
        for (a, b) in SMOKE_PAIRS {
            self.same_bytes(&root.join(a), &root.join(b));
        }
        for (file, gates) in SMOKE_GATES {
            self.gated(&root.join(file), gates);
        }
        FRESH.map(|(file, gate)| self.gated(&root.join(file), &[gate]))
    }

    /// Gate the four committed artifacts, one by one and as a set, and
    /// against the `fresh` ones if given. A document that did not parse
    /// is already a failure and is compared with nothing.
    fn committed(&mut self, fresh: Option<&[Value; 2]>) {
        let docs = COMMITTED.map(|(file, gate, ..)| self.gated(Path::new(file), &[gate]));
        let set: Vec<(&str, &Value)> = COMMITTED.iter().map(|c| c.0).zip(&docs).collect();
        self.failures.extend(gate_committed_set(&set));
        let Some(fresh) = fresh else { return };
        for (i, (fresh, committed)) in fresh.iter().zip(&docs).enumerate() {
            if *fresh == Value::Null || *committed == Value::Null {
                continue;
            }
            self.failures.extend(match i {
                0 => gate_perf_vs_committed(fresh, committed),
                _ => gate_fresh_vs_committed(COMMITTED[i].0, fresh, committed),
            });
        }
    }
}

fn main() {
    let mut check = Check {
        failures: Vec::new(),
    };
    match std::env::args().nth(1).as_deref() {
        None => {
            let fresh = check.smoke();
            check.committed(Some(&fresh));
        }
        Some("--regen") => {
            for (_, _, bin, env) in COMMITTED {
                check.generate(bin, Path::new("."), env);
            }
            check.committed(None);
        }
        Some(other) => {
            eprintln!("usage: check [--regen]   (unknown argument {other:?})");
            std::process::exit(2);
        }
    }
    if check.failures.is_empty() {
        println!("check: OK");
    }
    exit_on_failures(&check.failures);
}
