//! Planning and *running* a multi-patient simulation campaign — the
//! paper's closing loop, end to end, through the `hemocloud-sched`
//! discrete-event scheduler.
//!
//! Where the `csp_dashboard` example prices a single workload, this one
//! drives a whole campaign: the evaluation sweep's reference stress cell,
//! six jobs on a cylinder submitted to two capacity-limited cloud pools.
//! Each placement is chosen by `Dashboard::recommend` under the job's own
//! objective (min-cost, max-throughput, or deadline), runs in time slices
//! with a `JobGuard` watching wall-clock and dollars, survives seeded
//! node faults via checkpoint-rollback retries, and feeds every measured
//! slice back into `ModelCalibrator`s — so late placements run on refined
//! predictions and the placement error visibly drops. One runaway must
//! be guard-killed, and one job whose budget buys nothing is rejected.
//!
//! Run: `cargo run --release --example campaign_planner`

use hemocloud::sched::SweepGrid;

fn main() {
    let key = "s42/cyl8/scalar/f0.25/aa_stress";
    let scenario = SweepGrid::full().scenarios().find(|s| s.key == key).expect("full grid cell");
    let (jobs, pools) = (scenario.jobs.len(), scenario.pools.len());

    println!("Campaign {key}: {jobs} jobs over {pools} platform pools\n");
    println!("{:<14} {:>6} {:>12}", "pool", "nodes", "$/node-hour");
    for p in &scenario.pools {
        println!(
            "{:<14} {:>6} {:>12.2}",
            p.platform.abbrev,
            p.nodes.min(p.platform.max_nodes()),
            p.platform.price_per_node_hour
        );
    }

    let (report, _) = scenario.run();

    println!("\n{:<20} {:>12} {:>9} {:>8} {:>7} {:>10}", "job", "outcome", "run s", "$", "tries", "slo");
    for j in &report.job_reports {
        let slo = match j.slo_met {
            None => "-",
            Some(true) => "met",
            Some(false) => "missed",
        };
        println!(
            "{:<20} {:>12} {:>9.0} {:>8.3} {:>7} {:>10}",
            j.name, j.outcome.label(), j.run_seconds, j.cost_dollars, j.attempts, slo
        );
    }

    println!("\n{:<14} {:>6} {:>9} {:>7} {:>7} {:>9} {:>12}", "platform", "nodes", "attempts", "faults", "kills", "$", "utilization");
    for p in &report.platforms {
        println!(
            "{:<14} {:>6} {:>9} {:>7} {:>7} {:>9.3} {:>11.1}%",
            p.platform,
            p.nodes_total,
            p.attempts,
            p.faults,
            p.guard_kills,
            p.cost_dollars,
            100.0 * p.utilization
        );
    }

    println!(
        "\nCampaign: {} completed, {} guard-killed, {} failed, {} rejected in {:.1} h for ${:.2}",
        report.completed,
        report.guard_kills,
        report.failed,
        report.rejected,
        report.makespan_s / 3600.0,
        report.total_cost_dollars
    );
    println!(
        "Faults {} / retries {} — {} job(s) recovered; SLO {} of {} deadline jobs met.",
        report.faults, report.retries, report.retried_jobs_completed, report.slo_attained, report.slo_total
    );
    let uncal = report
        .mape_first_quartile_uncalibrated_pct
        .expect("the cell measures uncalibrated placements");
    let cal = report
        .mape_calibrated_pct
        .expect("the cell measures calibrated placements");
    println!(
        "Refinement: placement MAPE {uncal:.1}% on the uncalibrated first quartile -> {cal:.1}% once calibrated."
    );

    assert!(cal < uncal, "refinement must reduce placement error");
    assert!(report.guard_kills >= 1, "the runaway must be killed");
    assert!(report.retried_jobs_completed >= 1, "a faulted job must recover");
}
