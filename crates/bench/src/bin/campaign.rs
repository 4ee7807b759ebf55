//! Campaign-scheduler record: run the seeded demo campaign end-to-end
//! and persist its [`CampaignReport`] JSON next to the perf baseline, so
//! every PR carries a comparable scheduling record alongside
//! `BENCH_lbm.json`.
//!
//! * `OUT_DIR=<dir>` is where `CAMPAIGN_sched.json` and
//!   `OBS_campaign.json` go (default: the current directory). The latter
//!   is the campaign's metrics snapshot (its private virtual-clock
//!   registry merged with the process-global one) as deterministic JSON —
//!   byte-identical per seed, which `check` compares across two runs.
//!
//! The binary runs `gates::gate_campaign` on the report it writes and
//! exits non-zero if it violates the campaign's operational invariants
//! (non-finite cost/makespan, empty placement log, jobs unaccounted for,
//! no guard kill or recovered fault, or a refinement loop that failed to
//! reduce placement error), so a broken campaign is never recorded
//! silently. The run also goes through `hemocloud_sched::audit`, the
//! sweep's checker table: any violation fails the binary too.
//!
//! [`CampaignReport`]: hemocloud_sched::CampaignReport

use hemocloud_bench::{gates, provenance};
use hemocloud_sched::{audit, demo_jobs, demo_pools, run_demo_with_obs};

/// The campaign seed of the committed `CAMPAIGN_sched.json`.
const SEED: u64 = 42;

fn main() {
    let (report, obs) = run_demo_with_obs(SEED);
    let json = report.to_json_stamped(&provenance::stamp());
    let mut failures = gates::gate_text(&json, gates::gate_campaign);

    println!(
        "campaign seed {SEED}: {} jobs -> {} completed, {} guard-killed, {} failed, {} rejected",
        report.jobs, report.completed, report.guard_kills, report.failed, report.rejected
    );
    println!(
        "  faults {} / retries {} (jobs recovered: {}), makespan {:.0} s, total ${:.2}",
        report.faults, report.retries, report.retried_jobs_completed, report.makespan_s, report.total_cost_dollars
    );
    let mape = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.1}%"));
    println!(
        "  placement MAPE: uncalibrated Q1 {} -> calibrated {}",
        mape(report.mape_first_quartile_uncalibrated_pct),
        mape(report.mape_calibrated_pct)
    );
    provenance::write_artifact("CAMPAIGN_sched.json", &json);

    // The campaign's private virtual-clock metrics, merged with anything
    // the process-global registry collected along the way (disjoint name
    // spaces: sched.* vs pool.*/lbm.*).
    let snapshot = obs.clone().merged_with(hemocloud_obs::global().snapshot());
    println!("  metrics snapshot: {} entries", snapshot.entries().len());
    provenance::write_artifact(
        "OBS_campaign.json",
        &snapshot.to_json(hemocloud_obs::Render::Deterministic),
    );

    // The sweep's checker table judges this run too. It runs after the
    // snapshot is written, so rebuilding the job specs for it cannot add
    // to the process-wide counters that snapshot records.
    let audit = audit(&report, &demo_jobs(), &demo_pools(), &obs);
    failures.extend(
        audit
            .violations
            .iter()
            .map(|v| format!("campaign: audit {}: {}", v.checker, v.what)),
    );
    println!(
        "  audit: {} violations, {} guard limits rebuilt exactly",
        audit.violations.len(),
        audit.guard_exact_checks
    );
    gates::exit_on_failures(&failures);
}
