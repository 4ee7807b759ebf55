//! The verify gates: one function per artifact kind, each taking the
//! parsed artifact and returning the invariants it breaks (empty = pass).
//!
//! Every failure message starts with the gate's name and names the field.
//! A generator binary runs its gate on the document it is about to write;
//! the `check` binary runs the same functions on fresh output (smoke-sized
//! where a generator has a smoke size) and on the four committed
//! artifacts (DESIGN.md §18 has the gate → invariant table).
//!
//! The writer renders a non-finite float as `null`, so "no NaN/inf
//! anywhere" is `Gate::finite`: every artifact gate walks its whole
//! document and fails on a `null` under any key but the few `Option`
//! statistics (`optional`). There a `Some(NaN)` is indistinguishable
//! from `None` once written; the gates that need such a statistic name it
//! as a required number, and `eval_campaign` checks the rest in-struct.

use hemocloud_obs::json::{self, Value};

/// Parse `text` and run `gate` on it; text that is not JSON is the one
/// failure.
pub fn gate_text(text: &str, gate: impl Fn(&Value) -> Vec<String>) -> Vec<String> {
    match json::parse(text) {
        Ok(doc) => gate(&doc),
        Err(e) => vec![e.to_string()],
    }
}

/// A binary's last step: print every failure and exit non-zero if there
/// is one.
pub fn exit_on_failures(failures: &[String]) {
    for f in failures {
        eprintln!("ERROR: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[derive(Clone, Copy)]
enum Op {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
}
use Op::*;

impl Op {
    fn holds(self, a: &Value, b: &Value) -> bool {
        // Two integers compare exactly; anything else as f64.
        let ordering = match (a, b) {
            (Value::UInt(x), Value::UInt(y)) => Some(x.cmp(y)),
            _ => a
                .as_f64()
                .zip(b.as_f64())
                .and_then(|(x, y)| x.partial_cmp(&y)),
        };
        ordering.is_some_and(|o| match self {
            Gt => o.is_gt(),
            Ge => o.is_ge(),
            Lt => o.is_lt(),
            Le => o.is_le(),
            Eq => o.is_eq(),
        })
    }

    fn symbol(self) -> &'static str {
        ["is not >", "is not >=", "is not <", "is not <=", "!="][self as usize]
    }
}

struct Gate {
    name: &'static str,
    failures: Vec<String>,
}

/// Record a failure, `format!`-style, under the gate's name.
macro_rules! fail {
    ($gate:expr, $($msg:tt)+) => {{
        let failure = format!("{}: {}", $gate.name, format_args!($($msg)+));
        if !$gate.failures.contains(&failure) {
            $gate.failures.push(failure);
        }
    }};
}

/// Keys the writers render as `null` when the `Option` behind them is
/// `None`; under every other key a `null` is a non-finite float.
fn optional(key: &str) -> bool {
    key.ends_with("_pct") || ["measured_step_s", "slo_met", "peak_rss_mib"].contains(&key)
}

impl Gate {
    fn new(name: &'static str) -> Self {
        let failures = Vec::new();
        Self { name, failures }
    }

    /// A gate over `doc`, which must be `finite` throughout.
    fn over(name: &'static str, doc: &Value) -> Self {
        let mut g = Self::new(name);
        g.finite(doc, "");
        g
    }

    /// No `null` anywhere under `v` (found at `path`) outside the
    /// `optional` statistics — the old `grep ': nan|inf'` over the file.
    fn finite(&mut self, v: &Value, path: &str) {
        let under = |key: &str| format!("{path}{}{key}", if path.is_empty() { "" } else { "." });
        match v {
            Value::Null if !optional(path.rsplit('.').next().unwrap_or("")) => {
                fail!(self, "{path} is null, expected a finite number");
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    self.finite(item, &under(&i.to_string()));
                }
            }
            Value::Object(members) => {
                for (key, item) in members {
                    self.finite(item, &under(key));
                }
            }
            _ => {}
        }
    }

    /// The number at `path`; a missing or `null` (non-finite) one fails.
    fn number<'a>(&mut self, v: &'a Value, path: &str) -> Option<&'a Value> {
        let found = v.at(path).filter(|n| n.as_f64().is_some());
        if found.is_none() {
            let what = v.at(path).map_or("missing".into(), Value::to_string);
            fail!(self, "{path} is {what}, expected a finite number");
        }
        found
    }

    /// `path <op> limit` must hold.
    fn limit(&mut self, v: &Value, path: &str, op: Op, limit: f64) {
        if let Some(n) = self
            .number(v, path)
            .filter(|n| !op.holds(n, &Value::Float(limit)))
        {
            fail!(self, "{path} ({n}) {} {limit}", op.symbol());
        }
    }

    /// `a <op> b` must hold between two fields.
    fn relate(&mut self, v: &Value, a: &str, op: Op, b: &str) {
        if let (Some(x), Some(y)) = (self.number(v, a), self.number(v, b)) {
            if !op.holds(x, y) {
                fail!(self, "{a} ({x}) {} {b} ({y})", op.symbol());
            }
        }
    }

    /// `path <op> limit` for `field` of every row of the array at `path`;
    /// returns the rows.
    fn rows<'a>(&mut self, v: &'a Value, path: &str, checks: &[(&str, Op, f64)]) -> &'a [Value] {
        let rows = v.at(path).and_then(Value::as_array);
        if rows.is_none() {
            fail!(self, "{path} is not an array");
        }
        for i in 0..rows.map_or(0, <[Value]>::len) {
            for (field, op, limit) in checks {
                self.limit(v, &format!("{path}.{i}.{field}"), *op, *limit);
            }
        }
        rows.unwrap_or(&[])
    }

    /// The flag at `path` must be `true`.
    fn flag(&mut self, v: &Value, path: &str) {
        if v.at(path) != Some(&Value::Bool(true)) {
            let what = v.at(path).map_or("missing".into(), Value::to_string);
            fail!(self, "{path} is {what}, expected true");
        }
    }

    /// The four outcome counts under `prefix` must account for the job
    /// count at `jobs`.
    fn outcomes_sum_to_jobs(&mut self, doc: &Value, prefix: &str, jobs: &str) {
        let count = |path: &str| doc.at(path).and_then(Value::as_u64);
        let outcomes = ["completed", "guard_kills", "failed", "rejected"];
        let sum: Option<u64> = outcomes.iter().map(|o| count(&format!("{prefix}{o}"))).sum();
        let jobs = count(jobs);
        if sum.is_none() || sum != jobs {
            let sum_of = outcomes.join(" + ");
            fail!(self, "{prefix}{sum_of} is {sum:?}, but jobs is {jobs:?}");
        }
    }

    /// The refinement loop must have reduced placement error, and all four
    /// statistics under `prefix` must exist: `Option`s, but never `None`
    /// on a campaign that measured placements in every quartile.
    fn calibration_wins(&mut self, doc: &Value, prefix: &str) {
        for stat in [
            "mape_first_quartile_uncalibrated_pct",
            "mape_calibrated_pct",
            "error_p50_pct",
            "error_p99_pct",
        ] {
            self.number(doc, &format!("{prefix}{stat}"));
        }
        let uncalibrated = format!("{prefix}mape_first_quartile_uncalibrated_pct");
        self.relate(doc, &format!("{prefix}mape_calibrated_pct"), Lt, &uncalibrated);
    }
}

fn text<'a>(v: &'a Value, path: &str) -> &'a str {
    v.at(path).and_then(Value::as_str).unwrap_or("")
}

/// `BENCH_lbm.json`: positive finite throughputs on every row, the
/// bitwise witnesses, the f32 rows and their accuracy bound, and — on a
/// full-size record — the AB→AA speedup the sweep exists to show and the
/// wide lanes' margin over the scalar loop (they are plain arrays: only
/// this says the compiler still vectorizes them).
pub fn gate_bench_lbm(doc: &Value) -> Vec<String> {
    let mut g = Gate::over("bench_lbm", doc);
    g.limit(doc, "solver.mflups", Gt, 0.0);
    let stream = g.rows(doc, "stream", &[("gb_s", Gt, 0.0)]);
    if stream.len() < 2 {
        fail!(g, "stream has fewer than two rows (Copy, Triad)");
    }
    let positive = [
        ("mflups", Gt, 0.0),
        ("modeled_bytes_per_update", Gt, 0.0),
        ("implied_bytes_per_update", Gt, 0.0),
        ("measured_over_modeled", Gt, 0.0),
    ];
    let kernels = g.rows(doc, "kernels", &positive);
    g.limit(doc, "best.measured_over_modeled", Gt, 0.0);
    g.flag(doc, "simd_bitwise_equal");
    g.number(doc, "vector_over_scalar");
    g.limit(doc, "aa_ab_moment_max_diff", Le, 1e-12);
    g.limit(doc, "f32_f64_moment_max_diff", Le, 1e-3);
    if !kernels
        .iter()
        .any(|row| text(row, "config") == "AA/SOA/indirect/f32")
    {
        fail!(g, "kernels has no f32 rows (AA/SOA/indirect/f32 missing)");
    }
    if doc.get("fast_mode") == Some(&Value::Bool(false)) {
        g.limit(doc, "vector_over_scalar", Ge, 1.1);
        // f64 rows only: the f32 rows are faster by construction.
        let f64_mflups = |propagation: &'static str| {
            let of_kind = move |row: &&Value| {
                text(row, "config").starts_with(propagation)
                    && text(row, "config").ends_with("/f64")
            };
            kernels
                .iter()
                .filter(of_kind)
                .filter_map(|row| row.get("mflups")?.as_f64())
        };
        let ab = f64_mflups("AB/AOS/").next().unwrap_or(f64::NAN);
        let best_aa = f64_mflups("AA/").fold(f64::NAN, f64::max);
        let aa_wins = best_aa >= ab;
        if !aa_wins {
            fail!(
                g,
                "best f64 AA row ({best_aa} MFLUPS) is slower than AB/AOS ({ab})"
            );
        }
    }
    g.failures
}

/// Fresh fast-mode `BENCH_lbm.json` against the committed full-size one.
/// The meshes differ, so the bounds are loose: a healthy checkout lands
/// well within 2x. Catches a hot-path regression that halves throughput,
/// or one that doubles the update time while STREAM stays flat (fast
/// mode's cache-resident STREAM arrays already inflate the ratio, hence
/// 2.5x).
pub fn gate_perf_vs_committed(fresh: &Value, committed: &Value) -> Vec<String> {
    let mut g = Gate::new("perf_vs_committed");
    for (path, op, factor) in [
        ("solver.mflups", Ge, 0.5),
        ("stream.0.gb_s", Ge, 0.5),
        ("stream.1.gb_s", Ge, 0.5),
        ("best.measured_over_modeled", Le, 2.5),
    ] {
        let (Some(f), Some(c)) = (g.number(fresh, path), g.number(committed, path)) else {
            continue;
        };
        let bound = factor * c.as_f64().unwrap_or(f64::NAN);
        if !op.holds(f, &Value::Float(bound)) {
            fail!(
                g,
                "fresh {path} ({f}) {} {factor} x committed ({c})",
                op.symbol()
            );
        }
    }
    g.failures
}

/// Any other document the generators write (the per-shard campaign
/// reports): no `null` outside the `Option` statistics, nothing else.
pub fn gate_finite(doc: &Value) -> Vec<String> {
    Gate::over("finite", doc).failures
}

/// `BENCH_sched.json`: event throughput — at the committed record's
/// million jobs, no less than 600k events/s — outcomes that account for
/// every job, the planted runaways and doomed budgets caught, faults
/// drawn, calibration reducing placement error, and the
/// shard-determinism witness.
pub fn gate_bench_sched(doc: &Value) -> Vec<String> {
    let mut g = Gate::over("bench_sched", doc);
    let jobs = doc.get("jobs").and_then(Value::as_u64);
    if jobs >= Some(1_000_000) {
        // Smoke sizes are dominated by set-up; the full run is not:
        // 385k events/s while every slice re-reduced its prepared run
        // (87bc07d), 1.06M since the run keeps its task terms (fc70424).
        g.limit(doc, "events_per_sec", Ge, 600_000.0);
    } else {
        g.limit(doc, "events_per_sec", Gt, 0.0);
    }
    g.limit(doc, "makespan_s", Gt, 0.0);
    g.limit(doc, "events_processed", Gt, 0.0);
    g.outcomes_sum_to_jobs(doc, "outcomes.", "jobs");
    g.limit(doc, "outcomes.completed", Gt, 0.0);
    if jobs >= Some(1_000) {
        // A runaway every 211 jobs and a doomed budget every 503: at
        // this scale the guard, admission and fault paths must fire.
        g.limit(doc, "outcomes.guard_kills", Gt, 0.0);
        g.limit(doc, "outcomes.rejected", Gt, 0.0);
        g.limit(doc, "faults", Gt, 0.0);
        g.calibration_wins(doc, "refinement.");
    }
    g.flag(doc, "shard_determinism.reports_identical");
    g.failures
}

/// `EVAL_campaign.json`: zero invariant violations, non-vacuous Eq. 9 and
/// guard-exactness checkers, finite headline statistics, positive
/// economics and utilization within capacity in every cell, a cell that
/// witnesses each of a guard kill, an admission rejection and a faulted
/// job retried to completion, the ≥ 48-cell floor with every axis
/// (stenosis and aneurysm included) still swept — and the routed
/// `contention` block (`contention`).
pub fn gate_eval(doc: &Value) -> Vec<String> {
    let mut g = Gate::over("eval", doc);
    g.limit(doc, "violations", Eq, 0.0);
    for v in g.rows(doc, "violation_list", &[]) {
        fail!(g, "invariant violation: {v}");
    }
    g.limit(doc, "eq9_cells_checked", Gt, 0.0);
    g.limit(doc, "guard_exact_checks", Gt, 0.0);
    for stat in [
        "error_p50_pct",
        "error_p99_pct",
        "mean_regret_pct",
        "mean_utilization",
    ] {
        g.number(doc, &format!("overall.{stat}"));
    }
    let cells = g.rows(doc, "cell_results", &CELL_ECONOMICS);
    g.limit(doc, "cells", Eq, cells.len() as f64);
    g.limit(doc, "cells", Ge, 48.0);
    let count = |row: &Value, key: &str| row.get(key).and_then(Value::as_u64);
    for (witness, found) in [
        ("guard_kills >= 1", cells.iter().any(|r| count(r, "guard_kills") >= Some(1))),
        ("rejected >= 1", cells.iter().any(|r| count(r, "rejected") >= Some(1))),
        // Every job completed although one faulted: a retry recovered it.
        ("faults >= 1 and completed == jobs", cells.iter().any(|r| {
            count(r, "faults") >= Some(1) && count(r, "completed") == count(r, "jobs")
        })),
    ] {
        if !found {
            fail!(g, "cell_results has no row with {witness}");
        }
    }
    let by_axis = g.rows(doc, "by_axis", &[]);
    let values_of = |axis: &str| -> Vec<&str> {
        let on_axis = by_axis.iter().filter(|a| text(a, "axis") == axis);
        on_axis.map(|a| text(a, "value")).collect()
    };
    for required in ["sten8", "aneu8"] {
        if !values_of("geometry").contains(&required) {
            fail!(g, "by_axis lacks the {required} geometry");
        }
    }
    for (axis, floor) in [("seed", 2), ("geometry", 4), ("mix", 2), ("fault_rate", 2)] {
        let n = values_of(axis).len();
        if n < floor {
            fail!(g, "by_axis has {n} {axis} values, expected >= {floor}");
        }
    }
    contention(&mut g, doc);
    g.failures
}

/// What every cell row of `EVAL_campaign.json`, and its `contention`
/// block, must satisfy.
const CELL_ECONOMICS: [(&str, Op, f64); 3] = [
    ("utilization", Le, 1.0 + 1e-9),
    ("makespan_s", Gt, 0.0),
    ("total_cost_dollars", Gt, 0.0),
];

/// The `contention` block of `EVAL_campaign.json`: the row bounds of
/// every cell, clean completion with no fault or retry, every placement
/// on the spread topology, per-link delivered bytes equal to the Eq. 9
/// total *exactly* and fewer than the bytes forwarded over every hop, a
/// real (> 1%) slowdown of job 0 against its isolated run, calibration
/// closing the gap to at most 2.5% placement error, contention priced per
/// active set (0 < exchanges < priced slices), and one report at 1, 2
/// and 4 event-queue shards.
fn contention(g: &mut Gate, doc: &Value) {
    let at = |key: &str| format!("contention.{key}");
    for (key, op, limit) in CELL_ECONOMICS {
        g.limit(doc, &at(key), op, limit);
    }
    g.outcomes_sum_to_jobs(doc, "contention.", &at("jobs"));
    g.relate(doc, &at("completed"), Eq, &at("jobs"));
    g.limit(doc, &at("faults"), Eq, 0.0);
    g.limit(doc, &at("retries"), Eq, 0.0);
    g.limit(doc, &at("placements"), Gt, 0.0);
    g.relate(doc, &at("spread_placements"), Eq, &at("placements"));
    g.relate(doc, &at("eq9_delivered_bytes"), Eq, &at("eq9_expected_bytes"));
    g.relate(doc, &at("forwarded_bytes"), Gt, &at("eq9_delivered_bytes"));
    g.limit(doc, &at("slowdown"), Gt, 1.01);
    g.calibration_wins(doc, "contention.");
    // The calibrated error prices contended slices against the fabric's
    // delivery times (1.99% committed): a change that distorts contention
    // moves it long before it loses to the uncalibrated quartile.
    g.limit(doc, &at("mape_calibrated_pct"), Le, 2.5);
    g.limit(doc, &at("contention_exchanges"), Gt, 0.0);
    g.relate(doc, &at("contention_exchanges"), Lt, &at("contention_slices"));
    g.flag(doc, &at("shard_invariant"));
}

/// `REPRO.json`: every experiment of the table present with something
/// to show, every shape check holding, every toleranced comparison inside
/// its tolerance. There is no waiver: a claim the data stops supporting
/// fails here until the defect is fixed or the claim reworded (DESIGN.md
/// §20).
pub fn gate_repro(doc: &Value) -> Vec<String> {
    let mut g = Gate::over("repro", doc);
    let experiments = g.rows(doc, "experiments", &[]);
    for expected in &crate::experiments::EXPERIMENTS {
        if !experiments.iter().any(|e| text(e, "id") == expected.id) {
            fail!(g, "experiments lacks {:?}", expected.id);
        }
    }
    for (i, e) in experiments.iter().enumerate() {
        let (id, at) = (text(e, "id"), format!("experiments.{i}"));
        if g.rows(doc, &format!("{at}.blocks"), &[]).is_empty() {
            fail!(g, "{at}.blocks ({id}) is empty");
        }
        let checks = g.rows(doc, &format!("{at}.checks"), &[]);
        for (j, check) in checks.iter().enumerate() {
            if check.get("holds") != Some(&Value::Bool(true)) {
                let (name, detail) = (text(check, "name"), text(check, "detail"));
                fail!(
                    g,
                    "{at}.checks.{j}.holds is not true: {id}: {name} ({detail})"
                );
            }
        }
        let comparisons = g.rows(doc, &format!("{at}.comparisons"), &[]);
        for (j, c) in comparisons.iter().enumerate() {
            let at = format!("{at}.comparisons.{j}");
            let mut number = |key: &str| g.number(doc, &format!("{at}.{key}"))?.as_f64();
            let (Some(paper), Some(ours)) = (number("paper"), number("ours")) else {
                continue;
            };
            let distance = (ours - paper).abs();
            let bound = |key: &str| c.get(key).and_then(Value::as_f64);
            let outside = bound("rel_tol").is_some_and(|tol| distance / paper.abs() > tol)
                || bound("abs_tol").is_some_and(|tol| distance > tol);
            if outside {
                let what = text(c, "what");
                fail!(
                    g,
                    "{at}.ours ({ours}) is outside its tolerance of paper ({paper}): {id}: {what}"
                );
            }
        }
    }
    g.failures
}

/// An obs snapshot: the deterministic render, a non-empty metric map, and
/// (as in every gate) no `null`, i.e. non-finite, statistic.
pub fn gate_obs(doc: &Value) -> Vec<String> {
    let mut g = Gate::over("obs", doc);
    if text(doc, "render") != "deterministic" {
        fail!(
            g,
            "render is {:?}, expected \"deterministic\"",
            text(doc, "render")
        );
    }
    let metrics = doc.get("metrics").and_then(Value::as_object);
    if metrics.unwrap_or(&[]).is_empty() {
        fail!(g, "metrics is empty");
    }
    g.failures
}

/// The four committed artifacts as a set: all stamped at one revision
/// (regenerate with `check --regen`), and none produced in fast mode.
pub fn gate_committed_set(artifacts: &[(&str, &Value)]) -> Vec<String> {
    let mut g = Gate::new("committed_set");
    let revs: Vec<&str> = artifacts
        .iter()
        .map(|(_, doc)| text(doc, "provenance.git_rev"))
        .collect();
    if revs.iter().any(|r| r.is_empty() || *r != revs[0]) {
        let stamps: Vec<String> = artifacts
            .iter()
            .zip(&revs)
            .map(|((file, _), r)| format!("{file} @ {r:?}"))
            .collect();
        fail!(
            g,
            "provenance.git_rev stamps disagree: {}",
            stamps.join(", ")
        );
    }
    for (file, doc) in artifacts {
        if doc.get("fast_mode") == Some(&Value::Bool(true)) {
            fail!(g, "{file} was produced in fast mode, not full size");
        }
    }
    g.failures
}

/// A fresh full-size run of a committed report against the committed
/// `file`: equal as documents once `provenance.git_rev` and
/// `provenance.rustc` are removed from both, so a change that moves any
/// other figure must regenerate the record.
pub fn gate_fresh_vs_committed(file: &str, fresh: &Value, committed: &Value) -> Vec<String> {
    let mut g = Gate::new("fresh_vs_committed");
    if unstamped(fresh) != unstamped(committed) {
        fail!(
            g,
            "{file}: a fresh run differs from the committed file beyond \
             provenance.git_rev and .rustc; run `check --regen`"
        );
    }
    g.failures
}

/// `doc` without the stamp of the checkout and compiler that wrote it.
fn unstamped(doc: &Value) -> Value {
    let mut doc = doc.clone();
    if let Value::Object(members) = &mut doc {
        for (key, v) in members {
            if let ("provenance", Value::Object(stamp)) = (key.as_str(), v) {
                stamp.retain(|(k, _)| k != "git_rev" && k != "rustc");
            }
        }
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_obs::{Registry, Render};

    /// The committed artifacts are the passing fixtures: each negative
    /// test breaks exactly one invariant of one of them.
    fn committed(text: &str) -> Value {
        json::parse(text).expect("committed artifact is valid JSON")
    }
    fn bench_lbm() -> Value {
        committed(include_str!("../../../BENCH_lbm.json"))
    }
    fn bench_sched() -> Value {
        committed(include_str!("../../../BENCH_sched.json"))
    }
    fn eval() -> Value {
        committed(include_str!("../../../EVAL_campaign.json"))
    }
    fn repro() -> Value {
        committed(include_str!("../../../REPRO.json"))
    }
    fn obs() -> Value {
        let r = Registry::new();
        r.counter("pool.jobs").add(3);
        r.gauge("sched.mape_pct").set(12.5);
        committed(&r.snapshot().to_json(Render::Deterministic))
    }

    /// `doc` with the value at `path` replaced.
    fn with(mut doc: Value, path: &str, new: Value) -> Value {
        let mut slot = &mut doc;
        for key in path.split('.') {
            slot = match slot {
                Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
                Value::Object(members) => members
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("no key {key} on {path}")),
                other => panic!("{path}: cannot descend into {other:?}"),
            };
        }
        *slot = new;
        doc
    }

    /// Exactly one failure, from `gate`, mentioning `needle`.
    fn assert_only_failure(failures: &[String], gate: &str, needle: &str) {
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with(&format!("{gate}: ")),
            "{failures:?}"
        );
        assert!(failures[0].contains(needle), "{failures:?}");
    }

    #[test]
    fn committed_artifacts_pass_every_gate() {
        assert_eq!(gate_bench_lbm(&bench_lbm()), Vec::<String>::new());
        assert_eq!(
            gate_perf_vs_committed(&bench_lbm(), &bench_lbm()),
            Vec::<String>::new()
        );
        assert_eq!(gate_bench_sched(&bench_sched()), Vec::<String>::new());
        assert_eq!(gate_finite(&bench_sched()), Vec::<String>::new());
        assert_eq!(gate_eval(&eval()), Vec::<String>::new());
        assert_eq!(gate_repro(&repro()), Vec::<String>::new());
        assert_eq!(gate_obs(&obs()), Vec::<String>::new());
        let (a, b, c, d) = (bench_lbm(), bench_sched(), eval(), repro());
        let set = [("a", &a), ("b", &b), ("c", &c), ("d", &d)];
        assert_eq!(gate_committed_set(&set), Vec::<String>::new());
    }

    #[test]
    fn bench_lbm_gate_names_each_broken_witness() {
        let broken = with(bench_lbm(), "simd_bitwise_equal", Value::Bool(false));
        assert_only_failure(&gate_bench_lbm(&broken), "bench_lbm", "simd_bitwise_equal");
        // A non-finite throughput is written as null.
        let broken = with(bench_lbm(), "kernels.3.mflups", Value::Null);
        assert_only_failure(
            &gate_bench_lbm(&broken),
            "bench_lbm",
            "kernels.3.mflups is null",
        );
        let broken = with(bench_lbm(), "stream.1.gb_s", Value::Float(0.0));
        assert_only_failure(
            &gate_bench_lbm(&broken),
            "bench_lbm",
            "stream.1.gb_s (0.0) is not > 0",
        );
        let broken = with(bench_lbm(), "f32_f64_moment_max_diff", Value::Float(0.5));
        assert_only_failure(
            &gate_bench_lbm(&broken),
            "bench_lbm",
            "f32_f64_moment_max_diff",
        );
        // Wide lanes no faster than the scalar loop: the compiler stopped
        // vectorizing them. A fast-mode record need only have the number.
        let broken = with(bench_lbm(), "vector_over_scalar", Value::Float(1.05));
        assert_only_failure(
            &gate_bench_lbm(&broken),
            "bench_lbm",
            "vector_over_scalar (1.05) is not >= 1.1",
        );
        let fast = with(broken, "fast_mode", Value::Bool(true));
        assert_eq!(gate_bench_lbm(&fast), Vec::<String>::new());
        let broken = with(fast, "vector_over_scalar", Value::Null);
        assert_only_failure(
            &gate_bench_lbm(&broken),
            "bench_lbm",
            "vector_over_scalar is null",
        );
        // Best AA slower than AB: raise the AB/AOS row above every AA row.
        let broken = with(bench_lbm(), "kernels.0.mflups", Value::Float(1e6));
        assert_only_failure(&gate_bench_lbm(&broken), "bench_lbm", "slower than AB");
        // … which a fast-mode record is allowed (its mesh is too small to tell).
        let fast = with(broken, "fast_mode", Value::Bool(true));
        assert_eq!(gate_bench_lbm(&fast), Vec::<String>::new());
        // Dropping the f32 rows (keep the four f64 ones).
        let f64_rows = bench_lbm().at("kernels").and_then(Value::as_array).unwrap()[..4].to_vec();
        let broken = with(bench_lbm(), "kernels", Value::Array(f64_rows));
        assert_only_failure(&gate_bench_lbm(&broken), "bench_lbm", "no f32 rows");
    }

    #[test]
    fn perf_gate_trips_below_half_the_committed_throughput_and_above_2_5x_the_ratio() {
        let committed = bench_lbm();
        let mflups = committed
            .at("solver.mflups")
            .and_then(Value::as_f64)
            .unwrap();
        let slow = with(bench_lbm(), "solver.mflups", Value::Float(0.49 * mflups));
        assert_only_failure(
            &gate_perf_vs_committed(&slow, &committed),
            "perf_vs_committed",
            "fresh solver.mflups (",
        );
        let ok = with(bench_lbm(), "solver.mflups", Value::Float(0.51 * mflups));
        assert_eq!(
            gate_perf_vs_committed(&ok, &committed),
            Vec::<String>::new()
        );
        let triad = committed
            .at("stream.1.gb_s")
            .and_then(Value::as_f64)
            .unwrap();
        let slow = with(bench_lbm(), "stream.1.gb_s", Value::Float(0.4 * triad));
        assert_only_failure(
            &gate_perf_vs_committed(&slow, &committed),
            "perf_vs_committed",
            "fresh stream.1.gb_s",
        );
        let ratio = committed
            .at("best.measured_over_modeled")
            .and_then(Value::as_f64)
            .unwrap();
        let drifted = with(
            bench_lbm(),
            "best.measured_over_modeled",
            Value::Float(2.6 * ratio),
        );
        assert_only_failure(
            &gate_perf_vs_committed(&drifted, &committed),
            "perf_vs_committed",
            "best.measured_over_modeled",
        );
    }

    /// `EVAL_campaign.json` with `key` of its `contention` block replaced.
    fn contention_with(key: &str, new: Value) -> Value {
        with(eval(), &format!("contention.{key}"), new)
    }

    #[test]
    fn eval_gate_names_broken_contention_economics_and_a_failed_refinement_loop() {
        let broken = contention_with("total_cost_dollars", Value::Null);
        assert_only_failure(&gate_eval(&broken), "eval", "contention.total_cost_dollars");
        let broken = contention_with("makespan_s", Value::Float(0.0));
        let needle = "contention.makespan_s (0.0) is not > 0";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
        let broken = contention_with("utilization", Value::Float(1.5));
        let needle = "contention.utilization (1.5) is not <= 1";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
        let broken = contention_with("failed", Value::UInt(1));
        assert_only_failure(&gate_eval(&broken), "eval", "but jobs is Some(10)");
        let broken = contention_with("completed", Value::UInt(9));
        let needle = "contention.completed (9) != contention.jobs (10)";
        // One job fewer completed is also an outcome short of the jobs.
        let failures = gate_eval(&broken);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains(needle)), "{failures:?}");
        let broken = contention_with("mape_first_quartile_uncalibrated_pct", Value::Float(1.0));
        let needle = "contention.mape_calibrated_pct (1.9873) is not < contention.mape_first";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
        let broken = contention_with("mape_calibrated_pct", Value::Null);
        assert_only_failure(&gate_eval(&broken), "eval", "contention.mape_calibrated_pct is null");
    }

    #[test]
    fn eval_gate_names_each_broken_contention_witness() {
        let eq9 = eval().at("contention.eq9_expected_bytes").and_then(Value::as_u64).unwrap();
        let delivered = |bytes: u64| contention_with("eq9_delivered_bytes", Value::UInt(bytes));
        let needle = "contention.eq9_delivered_bytes (11155199999999) != \
                      contention.eq9_expected_bytes (11155200000000)";
        assert_only_failure(&gate_eval(&delivered(eq9 - 1)), "eval", needle);
        let broken = contention_with("forwarded_bytes", Value::UInt(eq9));
        let needle = "forwarded_bytes (11155200000000) is not > contention.eq9_delivered";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
        for (key, new, needle) in [
            ("slowdown", Value::Float(1.005), "contention.slowdown (1.005) is not > 1.01"),
            ("faults", Value::UInt(1), "contention.faults (1) != 0"),
            ("retries", Value::UInt(1), "contention.retries (1) != 0"),
            ("spread_placements", Value::UInt(9), "contention.spread_placements (9) != "),
            ("contention_exchanges", Value::UInt(0), "contention_exchanges (0) is not > 0"),
            ("contention_exchanges", Value::UInt(83), "contention_exchanges (83) is not < "),
            ("shard_invariant", Value::Bool(false), "contention.shard_invariant is false"),
        ] {
            assert_only_failure(&gate_eval(&contention_with(key, new)), "eval", needle);
        }
        let none = contention_with("placements", Value::UInt(0));
        let none = with(none, "contention.spread_placements", Value::UInt(0));
        assert_only_failure(&gate_eval(&none), "eval", "contention.placements (0) is not > 0");
        // A report without the block fails on its witnesses, by name.
        let Value::Object(mut members) = eval() else { panic!("EVAL is an object") };
        members.retain(|(k, _)| k != "contention");
        let failures = gate_eval(&Value::Object(members));
        let named = failures.iter().any(|f| f.contains("contention.slowdown is missing"));
        assert!(named, "{failures:?}");
    }

    #[test]
    fn eval_gate_bounds_the_calibrated_contention_error() {
        let mape = |v: f64| contention_with("mape_calibrated_pct", Value::Float(v));
        let needle = "contention.mape_calibrated_pct (2.6) is not <= 2.5";
        assert_only_failure(&gate_eval(&mape(2.6)), "eval", needle);
        assert_eq!(gate_eval(&mape(1.99)), Vec::<String>::new());
    }

    #[test]
    fn bench_sched_gate_names_a_diverged_shard_render_and_missing_outcomes() {
        let broken = with(
            bench_sched(),
            "shard_determinism.reports_identical",
            Value::Bool(false),
        );
        assert_only_failure(
            &gate_bench_sched(&broken),
            "bench_sched",
            "reports_identical",
        );
        let broken = with(bench_sched(), "events_per_sec", Value::Null);
        assert_only_failure(&gate_bench_sched(&broken), "bench_sched", "events_per_sec");
        // The record committed at 87bc07d, before prepared runs cached
        // their task terms: positive, and too slow for a full-size run.
        let broken = with(bench_sched(), "events_per_sec", Value::Float(384_563.9));
        assert_only_failure(&gate_bench_sched(&broken), "bench_sched", "events_per_sec");
        let jobs = bench_sched().get("jobs").and_then(Value::as_u64).unwrap();
        let broken = with(bench_sched(), "jobs", Value::UInt(jobs + 1));
        assert_only_failure(
            &gate_bench_sched(&broken),
            "bench_sched",
            "but jobs is Some(1000001)",
        );
    }

    #[test]
    fn bench_sched_gate_wants_calibration_to_win_and_faults_drawn() {
        let uncalibrated = bench_sched()
            .at("refinement.mape_first_quartile_uncalibrated_pct")
            .cloned()
            .unwrap();
        let broken = with(bench_sched(), "refinement.mape_calibrated_pct", uncalibrated);
        assert_only_failure(
            &gate_bench_sched(&broken),
            "bench_sched",
            "refinement.mape_calibrated_pct (77.9088) is not < refinement.mape_first",
        );
        let broken = with(bench_sched(), "faults", Value::UInt(0));
        assert_only_failure(&gate_bench_sched(&broken), "bench_sched", "faults (0) is not > 0");
    }

    #[test]
    fn eval_gate_names_a_violation_a_vacuous_checker_and_a_lost_axis() {
        let broken = with(eval(), "violations", Value::UInt(1));
        assert_only_failure(&gate_eval(&broken), "eval", "violations (1) != 0");
        let broken = with(eval(), "eq9_cells_checked", Value::UInt(0));
        assert_only_failure(
            &gate_eval(&broken),
            "eval",
            "eq9_cells_checked (0) is not > 0",
        );
        let broken = with(eval(), "guard_exact_checks", Value::UInt(0));
        assert_only_failure(
            &gate_eval(&broken),
            "eval",
            "guard_exact_checks (0) is not > 0",
        );
        let broken = with(eval(), "overall.error_p99_pct", Value::Null);
        assert_only_failure(&gate_eval(&broken), "eval", "overall.error_p99_pct");
        // Rename the stenosis axis away: the full grid must still sweep it.
        let by_axis = eval()
            .get("by_axis")
            .and_then(Value::as_array)
            .unwrap()
            .to_vec();
        let sten = by_axis
            .iter()
            .position(|a| a.get("value") == Some(&Value::Str("sten8".into())))
            .expect("sten8 axis present");
        let broken = with(
            eval(),
            &format!("by_axis.{sten}.value"),
            Value::Str("cyl9".into()),
        );
        assert_only_failure(&gate_eval(&broken), "eval", "lacks the sten8 geometry");
        // A grid under the 48-cell floor, even one that counts its rows.
        let rows = eval().get("cell_results").and_then(Value::as_array).unwrap()[..40].to_vec();
        let small = with(eval(), "cell_results", Value::Array(rows));
        let small = with(small, "cells", Value::UInt(40));
        assert_only_failure(&gate_eval(&small), "eval", "cells (40) is not >= 48");
    }

    #[test]
    fn eval_gate_bounds_every_cells_economics() {
        let broken = with(eval(), "cell_results.3.utilization", Value::Float(1.5));
        let needle = "cell_results.3.utilization (1.5) is not <= 1";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
        let broken = with(eval(), "cell_results.7.makespan_s", Value::Float(0.0));
        let needle = "cell_results.7.makespan_s (0.0) is not > 0";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
        let broken = with(eval(), "cell_results.9.total_cost_dollars", Value::Float(0.0));
        let needle = "cell_results.9.total_cost_dollars (0.0) is not > 0";
        assert_only_failure(&gate_eval(&broken), "eval", needle);
    }

    #[test]
    fn eval_gate_names_each_missing_control_loop_witness() {
        // `doc` with `key` zeroed in every cell row.
        fn zeroed(key: &str) -> Value {
            let rows = eval().get("cell_results").and_then(Value::as_array).unwrap().len();
            (0..rows).fold(eval(), |doc, i| {
                with(doc, &format!("cell_results.{i}.{key}"), Value::UInt(0))
            })
        }
        for (key, witness) in [
            ("guard_kills", "no row with guard_kills >= 1"),
            ("rejected", "no row with rejected >= 1"),
            ("faults", "no row with faults >= 1 and completed == jobs"),
            // Faults only in cells that lost a job witness no recovery.
            ("completed", "no row with faults >= 1 and completed == jobs"),
        ] {
            assert_only_failure(&gate_eval(&zeroed(key)), "eval", witness);
        }
    }

    #[test]
    fn repro_gate_names_a_failed_check_a_drifted_comparison_a_lost_experiment_and_a_null() {
        // table3 is experiment 7; its first comparison is TRC a1 (15% band)
        // and its third TRC a3 (±3).
        let broken = with(repro(), "experiments.7.checks.1.holds", Value::Bool(false));
        let needle = "experiments.7.checks.1.holds is not true: table3: CSP-1's bandwidth is flat";
        assert_only_failure(&gate_repro(&broken), "repro", needle);
        let drifted = |ours| {
            let ours = Value::Float(ours);
            with(repro(), "experiments.7.comparisons.0.ours", ours)
        };
        let needle = "comparisons.0.ours (5750) is outside its tolerance of paper (6768.24)";
        assert_only_failure(&gate_repro(&drifted(5750.0)), "repro", needle);
        assert_eq!(gate_repro(&drifted(5760.0)), Vec::<String>::new());
        let broken = with(
            repro(),
            "experiments.7.comparisons.2.ours",
            Value::Float(9.5),
        );
        assert_only_failure(
            &gate_repro(&broken),
            "repro",
            "comparisons.2.ours (9.5) is outside",
        );
        // An un-toleranced comparison (CSP-1 a2) may sit anywhere.
        let free = with(
            repro(),
            "experiments.7.comparisons.19.ours",
            Value::Float(1e6),
        );
        assert_eq!(gate_repro(&free), Vec::<String>::new());
        let broken = with(repro(), "experiments.13.id", Value::Str("fig12".into()));
        assert_only_failure(&gate_repro(&broken), "repro", "experiments lacks \"fig11\"");
        let broken = with(
            repro(),
            "experiments.2.blocks.0.series.0.points.3.1",
            Value::Null,
        );
        let needle = "experiments.2.blocks.0.series.0.points.3.1 is null";
        assert_only_failure(&gate_repro(&broken), "repro", needle);
        let broken = with(repro(), "experiments.4.blocks", Value::Array(vec![]));
        assert_only_failure(
            &gate_repro(&broken),
            "repro",
            "experiments.4.blocks (fig5) is empty",
        );
    }

    #[test]
    fn obs_gate_rejects_a_null_metric_and_a_full_render() {
        let broken = with(obs(), "render", Value::Str("full".into()));
        assert_only_failure(&gate_obs(&broken), "obs", "render is");
        // Metric names contain dots, so rebuild the map instead of a path.
        let r = Registry::new();
        r.gauge("sched.mape_pct").set(f64::NAN);
        let broken = committed(&r.snapshot().to_json(Render::Deterministic));
        assert_only_failure(
            &gate_obs(&broken),
            "obs",
            "metrics.sched.mape_pct.value is null",
        );
    }

    #[test]
    fn committed_set_gate_names_mismatched_stamps_and_fast_mode_records() {
        let (a, b) = (bench_lbm(), eval());
        let stale = with(
            eval(),
            "provenance.git_rev",
            Value::Str("f6312ea8bd42".into()),
        );
        let failures =
            gate_committed_set(&[("BENCH_lbm.json", &a), ("EVAL_campaign.json", &stale)]);
        assert_only_failure(&failures, "committed_set", "git_rev stamps disagree");
        assert!(
            failures[0].contains("EVAL_campaign.json @ \"f6312ea8bd42\""),
            "{failures:?}"
        );
        let fast = with(bench_lbm(), "fast_mode", Value::Bool(true));
        let failures = gate_committed_set(&[("BENCH_lbm.json", &fast), ("EVAL_campaign.json", &b)]);
        assert_only_failure(&failures, "committed_set", "fast mode");
    }

    #[test]
    fn fresh_vs_committed_ignores_the_stamp_and_nothing_else() {
        let file = "EVAL_campaign.json";
        let committed = eval();
        let restamped = with(
            with(eval(), "provenance.git_rev", Value::Str("f6312ea8bd42".into())),
            "provenance.rustc",
            Value::Str("rustc 0.0.0".into()),
        );
        assert_eq!(
            gate_fresh_vs_committed(file, &restamped, &committed),
            Vec::<String>::new()
        );
        for (path, moved) in [
            ("cell_results.17.makespan_s", Value::Float(1.0)),
            ("contention.eq9_expected_bytes", Value::UInt(1)),
            ("contention.slowdown", Value::Float(1.3)),
        ] {
            let failures = gate_fresh_vs_committed(file, &with(eval(), path, moved), &committed);
            assert_only_failure(&failures, "fresh_vs_committed", "run `check --regen`");
            assert!(failures[0].contains(file), "{failures:?}");
        }
    }

    /// `check` holds the committed `REPRO.json` to a fresh full-size run:
    /// a moved Fig. 6 number fails, a changed stamp alone passes.
    #[test]
    fn fresh_vs_committed_holds_repro_to_its_fig6_figures() {
        let (file, committed) = ("REPRO.json", repro());
        assert_eq!(text(&committed, "experiments.6.id"), "fig6");
        let restamped = with(
            with(repro(), "provenance.git_rev", Value::Str("f6312ea8bd42".into())),
            "provenance.rustc",
            Value::Str("rustc 0.0.0".into()),
        );
        assert_eq!(
            gate_fresh_vs_committed(file, &restamped, &committed),
            Vec::<String>::new()
        );
        // A point of the CSP-2 internodal curve, then its fitted `b`.
        for path in [
            "experiments.6.blocks.0.series.2.points.0.1",
            "experiments.6.blocks.1.rows.2.2",
        ] {
            let old = committed.at(path).and_then(Value::as_f64).expect("a number");
            let moved = with(repro(), path, Value::Float(old * (1.0 + 1e-12)));
            let failures = gate_fresh_vs_committed(file, &moved, &committed);
            assert_only_failure(&failures, "fresh_vs_committed", "REPRO.json: a fresh run");
        }
    }

    /// What the old `grep ': nan|inf'` caught: a non-finite number in a
    /// field no gate names, now a `null` there.
    #[test]
    fn every_gate_rejects_a_null_outside_the_optional_statistics() {
        let broken = with(eval(), "cell_results.0.makespan_s", Value::Null);
        assert_only_failure(
            &gate_eval(&broken),
            "eval",
            "cell_results.0.makespan_s is null",
        );
        let broken = with(eval(), "by_axis.3.mean_utilization", Value::Null);
        assert_only_failure(&gate_eval(&broken), "eval", "by_axis.3.mean_utilization");
        let broken = with(eval(), "contention.isolated_run_s", Value::Null);
        assert_only_failure(&gate_eval(&broken), "eval", "contention.isolated_run_s is null");
        let broken = with(bench_sched(), "total_cost_dollars", Value::Null);
        assert_only_failure(&gate_finite(&broken), "finite", "total_cost_dollars is null");
        let broken = with(bench_sched(), "elapsed_s", Value::Null);
        assert_only_failure(&gate_bench_sched(&broken), "bench_sched", "elapsed_s");
        let broken = with(bench_sched(), "refinement.error_p99_pct", Value::Null);
        assert_only_failure(
            &gate_bench_sched(&broken),
            "bench_sched",
            "refinement.error_p99_pct is null",
        );
        let broken = with(bench_lbm(), "kernels.2.ns_per_update", Value::Null);
        assert_only_failure(
            &gate_bench_lbm(&broken),
            "bench_lbm",
            "kernels.2.ns_per_update",
        );
        // An absent Option statistic is not a failure …
        let absent = with(eval(), "contention.mean_regret_pct", Value::Null);
        assert_eq!(gate_eval(&absent), Vec::<String>::new());
        let absent = with(eval(), "cell_results.0.error_p50_pct", Value::Null);
        assert_eq!(gate_eval(&absent), Vec::<String>::new());
        // … unless the gate requires that one.
        let broken = with(eval(), "overall.mean_regret_pct", Value::Null);
        assert_only_failure(&gate_eval(&broken), "eval", "overall.mean_regret_pct");
    }

    #[test]
    fn text_that_is_not_json_fails_before_any_gate_runs() {
        let failures = gate_text("{\"violations\": NaN}", gate_eval);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("invalid JSON"), "{failures:?}");
    }
}
