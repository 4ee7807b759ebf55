//! Campaign evaluation sweep: run the scheduler across the full grid of
//! seeds × geometries × platform mixes × fault rates × kernel
//! configurations with every invariant checker armed (DESIGN.md §17),
//! plus the routed-contention cell beside the grid, and persist the
//! aggregated [`SweepReport`] as `EVAL_campaign.json` — the committed
//! evidence that the control loop's budget, SLO, billing, guard and
//! Eq. 9 promises hold everywhere in the swept space, and that routed
//! contention is exactly accounted, measurable and calibratable.
//!
//! * `OUT_DIR=<dir>` is where `EVAL_campaign.json` and `OBS_fabric.json`
//!   go (default: the current directory). The latter is the contention
//!   cell's metrics snapshot — including the `fabric.pool0.link.*`
//!   per-link byte counter families — as deterministic JSON, which
//!   `check` compares across reruns.
//!
//! The binary runs `gates::gate_eval` on the report it writes and exits
//! non-zero unless every acceptance property holds:
//!
//! 1. zero invariant violations across every cell and the contention
//!    cell (budget ceilings, SLO books, billed ≥ busy, guard-kill
//!    exactness, Eq. 9 byte equality, outcome conservation, finite
//!    statistics);
//! 2. the grid floor: ≥ 48 cells, ≥ 2 seeds, ≥ 4 geometries (including
//!    stenosis and aneurysm), ≥ 2 mixes and ≥ 2 fault rates;
//! 3. the Eq. 9 reconciliation and the guard-exactness rebuild both
//!    actually ran (non-vacuous evaluation);
//! 4. the headline statistics — p50/p99 placement error, mean cost
//!    regret vs the noise-free oracle, utilization — exist and are
//!    finite (a non-finite one renders as `null`, which the gate
//!    rejects);
//! 5. the `contention` block: clean completion on the spread topology,
//!    delivered bytes equal to Eq. 9 exactly, a real slowdown against
//!    the isolated run, calibration closing the gap, fewer fabric
//!    exchanges than priced slices, and one report at 1, 2 and 4 shards.
//!
//! [`SweepReport`]: hemocloud_sched::SweepReport

use hemocloud_bench::{gates, provenance};
use hemocloud_obs::Render;
use hemocloud_sched::{run_contention, run_sweep, SweepGrid};

fn main() {
    let report = run_sweep(&SweepGrid::full()).with_contention(run_contention());
    let json = report.to_json_stamped(&provenance::stamp());
    let mut failures = gates::gate_text(&json, gates::gate_eval);
    // The property the artifact cannot witness about itself — a
    // present-but-non-finite `Option` statistic being written as the same
    // `null` as an absent one: the finiteness of every per-axis and
    // per-cell error/regret statistic.
    let per_axis = report.by_axis.iter().map(|a| {
        let stats = [a.error_p50_pct, a.error_p99_pct, a.mean_regret_pct];
        (format!("axis {}={}", a.axis, a.value), stats)
    });
    let contention = report.contention.as_ref().expect("attached above");
    let per_cell = report.cells.iter().chain([&contention.cell]).map(|c| {
        let stats = [c.report.error_p50_pct, c.report.error_p99_pct, c.mean_regret_pct];
        (format!("cell {}", c.key), stats)
    });
    for (what, stats) in per_axis.chain(per_cell) {
        if stats.iter().flatten().any(|v| !v.is_finite()) {
            failures.push(format!(
                "eval_campaign: {what} has a non-finite error or regret statistic"
            ));
        }
    }
    provenance::write_artifact("EVAL_campaign.json", &json);

    let fmt_opt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
    println!(
        "eval campaign: {} cells, {} jobs, {} completed, {} violations",
        report.cells.len(),
        report.overall.jobs,
        report.overall.completed,
        report.violations.len()
    );
    println!(
        "  placement |error| p50 {} / p99 {} %, mean cost regret vs oracle {} %, mean utilization {:.3}",
        fmt_opt(report.overall.error_p50_pct),
        fmt_opt(report.overall.error_p99_pct),
        fmt_opt(report.overall.mean_regret_pct),
        report.overall.mean_utilization
    );
    println!(
        "  Eq. 9 reconciled on {} cells, guard limits rebuilt for {} kills",
        report.eq9_cells_checked, report.guard_exact_checks
    );
    let (cell, audit) = (&contention.cell, &contention.cell.audit);
    println!(
        "  contention {}: Eq. 9 bytes {} == delivered {} (forwarded {}), slowdown {:.3}x",
        cell.key,
        audit.eq9_expected_bytes,
        audit.eq9_delivered_bytes,
        contention.forwarded_bytes,
        contention.slowdown()
    );
    println!(
        "  {} slices priced from {} fabric exchanges; MAPE Q1 {} -> calibrated {} %",
        contention.priced_slices,
        contention.exchanges,
        fmt_opt(cell.report.mape_first_quartile_uncalibrated_pct),
        fmt_opt(cell.report.mape_calibrated_pct)
    );
    let obs = contention.snapshot.to_json(Render::Deterministic);
    provenance::write_artifact("OBS_fabric.json", &obs);
    gates::exit_on_failures(&failures);
}
