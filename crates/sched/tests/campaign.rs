//! Acceptance tests for the campaign scheduler: the sweep's reference
//! stress cell must be byte-for-byte reproducible, show the guard and
//! retry machinery firing, and show placement error dropping once
//! calibration kicks in.

use std::sync::{Arc, OnceLock};

use hemocloud_cluster::exec::Overheads;
use hemocloud_cluster::platform::Platform;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::CylinderSpec;
use hemocloud_obs::Snapshot;
use hemocloud_sched::{
    Campaign, CampaignConfig, CampaignReport, CellResult, JobSpec, PoolSpec, Scenario, SweepGrid,
};

/// The sweep's reference stress cell, in the full grid: a
/// runaway the guard kills, a doomed budget admission rejects, a faulted
/// job retried to completion, and calibration on two scalar pools.
const STRESS_CELL: &str = "s42/cyl8/scalar/f0.25/aa_stress";

/// The full grid's stress-cell scenario, its seed replaced by `seed`.
fn stress_cell(seed: u64) -> Scenario {
    let cell = SweepGrid::full().scenarios().find(|s| s.key == STRESS_CELL);
    let mut scenario = cell.expect("the full grid has the stress cell");
    scenario.config.seed = seed;
    scenario
}

fn run_stress_cell(seed: u64) -> (CampaignReport, Snapshot) {
    stress_cell(seed).run()
}

/// Run the stress cell once and share the report, its JSON and its
/// metrics snapshot across tests.
fn stress() -> &'static (CampaignReport, String, Snapshot) {
    static STRESS: OnceLock<(CampaignReport, String, Snapshot)> = OnceLock::new();
    STRESS.get_or_init(|| {
        let (report, obs) = run_stress_cell(42);
        let json = report.to_json();
        (report, json, obs)
    })
}

fn tiny_config(seed: u64, fault_rate: f64) -> CampaignConfig {
    CampaignConfig {
        seed,
        characterization_seed: 7,
        rank_options: vec![8, 16],
        slice_steps: 100_000,
        fault_rate_per_node_hour: fault_rate,
        retry_backoff_s: 10.0,
        max_retry_backoff_s: 600.0,
        min_calibration_obs: 3,
        prices: Default::default(),
        shards: 1,
        max_placement_log: usize::MAX,
        max_job_reports: usize::MAX,
    }
}

fn tiny_job(name: &str, steps: u64, tolerance: f64, hidden: f64, submit_s: f64) -> JobSpec {
    let grid = CylinderSpec::default().with_resolution(8).build();
    JobSpec {
        name: name.to_string(),
        workload: Arc::new(Workload::harvey(&grid, steps)),
        model_key: "cyl8".to_string(),
        objective: Objective::MinCost,
        tolerance,
        budget_dollars: 100.0,
        max_retries: 2,
        checkpoint_steps: 200_000,
        hidden_steps_factor: hidden,
        submit_s,
    }
}

fn one_pool(nodes: usize) -> Vec<PoolSpec> {
    vec![PoolSpec {
        platform: Platform::csp1(),
        nodes,
        overheads: Overheads::default(),
        topology: None,
    }]
}

/// The scheduler's online error accumulators against
/// [`CampaignReport::compute_mapes`]'s recount over an uncapped placement
/// log: counts exactly; the first-quartile uncalibrated MAPE bitwise
/// (both sides sum in placement order); the calibrated MAPE to 1e-9
/// relative (the online sum runs in measurement order).
fn assert_accumulators_match_the_placement_log(report: &CampaignReport) {
    assert_eq!(report.placements_total, report.placements.len(), "log is capped");
    let mut recount = report.clone();
    let (re_uncal, re_cal) = recount.compute_mapes();
    assert_eq!(
        recount.mape_first_quartile_uncalibrated_count,
        report.mape_first_quartile_uncalibrated_count
    );
    assert_eq!(recount.mape_calibrated_count, report.mape_calibrated_count);
    assert_eq!(
        re_uncal.map(f64::to_bits),
        report.mape_first_quartile_uncalibrated_pct.map(f64::to_bits),
        "uncalibrated accumulator drifted"
    );
    match (re_cal, report.mape_calibrated_pct) {
        (Some(recounted), Some(online)) => assert!(
            (recounted - online).abs() <= 1e-9 * online.abs(),
            "calibrated accumulator drifted: {online} online vs {recounted} recounted"
        ),
        (recounted, online) => assert_eq!(recounted, online),
    }
}

#[test]
fn stress_cell_is_byte_for_byte_reproducible() {
    let (_, first, _) = stress();
    let second = run_stress_cell(42).0.to_json();
    assert_eq!(first, &second, "same seed must produce identical reports");
}

#[test]
fn stress_cell_passes_the_audit() {
    // It kills a runaway, so the guard-limit rebuild is armed.
    let (report, _, obs) = stress();
    let cell = stress_cell(42).judge(report.clone(), obs);
    assert_eq!(cell.violations().collect::<Vec<_>>(), Vec::<String>::new());
    assert!(cell.audit.guard_exact_checks >= 1, "no guard limit was rebuilt");
}

#[test]
fn stress_cell_meets_the_acceptance_invariants() {
    let (report, _, _) = stress();
    // Fault injection was on and at least one job recovered via retry.
    assert!(report.faults >= 1, "no faults injected");
    assert!(report.retries >= 1, "no retries dispatched");
    assert!(
        report.retried_jobs_completed >= 1,
        "no job completed after a fault retry"
    );
    // The guard killed at least one runaway mid-run.
    assert!(report.guard_kills >= 1, "no guard kills");
    // The refinement loop: calibrated placements must beat the
    // uncalibrated first quartile.
    let uncal = report
        .mape_first_quartile_uncalibrated_pct
        .expect("uncalibrated MAPE must be measurable");
    let cal = report
        .mape_calibrated_pct
        .expect("calibrated MAPE must be measurable");
    assert!(uncal.is_finite() && cal.is_finite());
    assert!(
        cal < uncal,
        "calibrated MAPE {cal} must beat uncalibrated first-quartile MAPE {uncal}"
    );
    assert!(report.mape_first_quartile_uncalibrated_count >= 1);
    assert!(report.mape_calibrated_count >= 1);
    assert_accumulators_match_the_placement_log(report);
    // Error percentiles exist and are ordered on a measured campaign.
    let p50 = report.error_p50_pct.expect("p50");
    let p99 = report.error_p99_pct.expect("p99");
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    assert_eq!(report.placements_total, report.placements.len());
    assert!(report.events_processed > 0);
    // Every job is accounted for exactly once.
    assert_eq!(
        report.completed + report.guard_kills + report.failed + report.rejected,
        report.jobs
    );
    // Sanity of the headline numbers.
    assert!(report.makespan_s.is_finite() && report.makespan_s > 0.0);
    assert!(report.total_cost_dollars.is_finite() && report.total_cost_dollars > 0.0);
    assert!(!report.placements.is_empty());
}

#[test]
fn stress_cell_runaway_is_guard_killed_and_doomed_budget_is_rejected() {
    let (report, _, _) = stress();
    let job = |name: &str| report.job_reports.iter().find(|j| j.name == name).expect(name);
    let runaway = job("runaway");
    assert_eq!(runaway.outcome.label(), "guard_killed");
    assert!(runaway.run_seconds > 0.0, "the runaway must die mid-run, not at admission");
    let doomed = job("doomed-budget");
    assert_eq!(doomed.outcome.label(), "rejected");
    assert_eq!(doomed.attempts, 0, "rejected jobs never run");
    assert_eq!(doomed.cost_dollars, 0.0);
}

#[test]
fn stress_cell_utilization_respects_pool_capacity() {
    let (report, _, _) = stress();
    for p in &report.platforms {
        assert!(
            p.utilization <= 1.0 + 1e-9,
            "{} utilization {} exceeds capacity",
            p.platform,
            p.utilization
        );
        assert!(p.busy_node_seconds >= 0.0);
    }
    // Placements only ever use node counts a pool can host.
    for r in &report.placements {
        let pool = report
            .platforms
            .iter()
            .find(|p| p.platform == r.platform)
            .expect("placement on an unknown platform");
        assert!(
            r.nodes <= pool.nodes_total,
            "{} nodes {} > pool {}",
            r.job_name,
            r.nodes,
            pool.nodes_total
        );
    }
}

#[test]
fn single_node_pool_serializes_contending_jobs() {
    let mut campaign = Campaign::new(tiny_config(1, 0.0), one_pool(1));
    for i in 0..3 {
        campaign.submit(tiny_job(&format!("contender-{i}"), 400_000, 10.0, 1.0, 0.0));
    }
    let report = campaign.run();
    assert_eq!(report.completed, 3, "{}", report.to_json());
    // One node: placements must not overlap — each next job starts at or
    // after the previous finish.
    for w in report.placements.windows(2) {
        assert!(
            w[1].time_s >= w[0].time_s,
            "placements out of order: {} then {}",
            w[0].time_s,
            w[1].time_s
        );
    }
    let busy = report.platforms[0].busy_node_seconds;
    assert!(
        busy <= report.makespan_s + 1e-6,
        "1-node pool can't do {busy} busy seconds in {} wall seconds",
        report.makespan_s
    );
}

/// Placement tries share one candidate buffer. A try that fills it with
/// every option of every pool, then — same dispatch — a job no option is
/// cheap enough for, then the first job again: the second must see an
/// empty offer (rejected at once, which only the "no (platform, ranks)
/// option" path does: it stamps the dispatch's clock, a starved job the
/// campaign's last), the third exactly the first's.
#[test]
fn a_placement_try_inherits_nothing_from_the_one_before() {
    let pools = [Platform::csp1(), Platform::csp2_small()].map(|platform| PoolSpec {
        platform,
        nodes: 4,
        overheads: Overheads::default(),
        topology: None,
    });
    let mut campaign = Campaign::new(tiny_config(3, 0.0), pools.to_vec());
    let roomy = |name: &str| JobSpec {
        budget_dollars: 1e9, // every option of both pools is in budget
        ..tiny_job(name, 400_000, 10.0, 1.0, 0.0)
    };
    campaign.submit(roomy("first"));
    campaign.submit(JobSpec {
        budget_dollars: 1e-12,
        ..tiny_job("penniless", 400_000, 10.0, 1.0, 0.0)
    });
    campaign.submit(roomy("third"));
    let report = campaign.run();

    let [first, penniless, third] = &report.job_reports[..] else {
        panic!("three jobs, {} rows", report.job_reports.len());
    };
    assert_eq!(penniless.outcome.label(), "rejected");
    assert_eq!((penniless.attempts, penniless.finish_s), (0, 0.0), "rejected in the first dispatch");
    assert_eq!(campaign.obs_snapshot().counter("sched.jobs.rejected"), Some(1));
    assert_eq!(first.outcome.label(), "completed");
    assert_eq!(third.outcome.label(), "completed");

    let [a, b] = &report.placements[..] else {
        panic!("two placements, {} rows", report.placements.len());
    };
    assert_eq!((a.job, b.job), (0, 2));
    assert_eq!((a.time_s, b.time_s), (0.0, 0.0), "one dispatch");
    assert_eq!((&a.platform, a.ranks, a.nodes), (&b.platform, b.ranks, b.nodes));
    assert_eq!(a.predicted_step_s.to_bits(), b.predicted_step_s.to_bits());
}

#[test]
fn runaway_is_killed_mid_run_without_faults() {
    let mut campaign = Campaign::new(tiny_config(5, 0.0), one_pool(2));
    campaign.submit(tiny_job("honest", 500_000, 10.0, 1.0, 0.0));
    campaign.submit(tiny_job("runaway", 500_000, 0.2, 6.0, 0.0));
    let report = campaign.run();
    let honest = &report.job_reports[0];
    let runaway = &report.job_reports[1];
    assert_eq!(honest.outcome.label(), "completed");
    assert_eq!(runaway.outcome.label(), "guard_killed");
    assert!(runaway.run_seconds > 0.0, "killed mid-run, not at admission");
    assert!(runaway.wasted_steps > 0, "the in-flight slice is discarded");
    assert_eq!(report.guard_kills, 1);
}

#[test]
fn fault_retries_are_bounded_and_roll_back_to_checkpoints() {
    // A fault rate this extreme faults every slice: the job must burn its
    // first attempt plus max_retries retries, then fail.
    let mut campaign = Campaign::new(tiny_config(9, 50_000.0), one_pool(1));
    campaign.submit(tiny_job("unlucky", 400_000, 10.0, 1.0, 0.0));
    let report = campaign.run();
    let job = &report.job_reports[0];
    assert_eq!(job.outcome.label(), "failed", "{}", report.to_json());
    assert_eq!(job.attempts, 3, "1 initial + max_retries = 2 retries");
    assert_eq!(job.faults, 3);
    assert_eq!(report.retries, 2);
    assert_eq!(report.failed, 1);
}

#[test]
fn faulted_campaign_accumulators_match_the_placement_log() {
    // Faults interleave attempts: placements are measured out of
    // placement order, and a faulted first slice is never measured.
    let mut campaign = Campaign::new(tiny_config(11, 30.0), one_pool(2));
    for i in 0..12 {
        campaign.submit(tiny_job(&format!("f{i}"), 400_000, 10.0, 1.0, (i / 2) as f64 * 120.0));
    }
    let report = campaign.run();
    assert!(report.faults >= 1 && report.retries >= 1, "{}", report.to_json());
    assert!(report.mape_first_quartile_uncalibrated_count >= 1);
    assert!(report.mape_calibrated_count >= 1);
    assert_accumulators_match_the_placement_log(&report);
}

#[test]
fn different_seeds_change_the_outcome_stream() {
    let run = |seed: u64| {
        let mut campaign = Campaign::new(tiny_config(seed, 40.0), one_pool(1));
        for i in 0..4 {
            campaign.submit(tiny_job(&format!("j{i}"), 400_000, 10.0, 1.0, 0.0));
        }
        campaign.run().to_json()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "fault draws must depend on the campaign seed");
    assert_eq!(a, run(1), "and stay reproducible per seed");
}

#[test]
fn sixty_retry_job_rearrives_at_finite_bounded_times() {
    // Regression: unclamped doubling would park the 60th re-arrival at
    // 10·2^59 ≈ 5.8e18 simulated seconds (and overflow to +inf past
    // ~1070 retries, which the event queue rejects). With the cap, a job
    // that faults 61 straight times still drains in bounded virtual time.
    let mut config = tiny_config(9, 50_000.0);
    config.max_retry_backoff_s = 1800.0;
    let mut campaign = Campaign::new(config, one_pool(1));
    // Tolerance and budget are effectively unlimited so the retry loop —
    // not the guard — decides the outcome.
    let mut spec = tiny_job("retry-storm", 400_000, 1.0e9, 1.0, 0.0);
    spec.max_retries = 60;
    spec.budget_dollars = 1.0e12;
    campaign.submit(spec);
    let report = campaign.run();
    let job = &report.job_reports[0];
    assert_eq!(job.outcome.label(), "failed", "{}", report.to_json());
    assert_eq!(report.retries, 60);
    assert_eq!(job.attempts, 61, "1 initial + 60 retries");
    assert!(report.makespan_s.is_finite());
    // 60 capped backoffs plus the faulted slices themselves: far below
    // what even a single uncapped late-round backoff would add.
    assert!(
        report.makespan_s <= 60.0 * 1800.0 + 1.0e6,
        "makespan {} suggests an uncapped backoff",
        report.makespan_s
    );
}

#[test]
fn report_is_byte_identical_at_any_shard_count() {
    // The tentpole determinism guarantee: the shard count is pure event-
    // queue layout, so the full campaign report (and its JSON) must not
    // change by a byte across 1/2/4/8 shards — faults, contention,
    // retries, batched same-time arrivals and all.
    let run = |shards: usize| {
        let mut config = tiny_config(11, 30.0);
        config.shards = shards;
        let mut campaign = Campaign::new(config, one_pool(2));
        for i in 0..6 {
            // Two jobs share each submit time to exercise same-time
            // batching across lanes.
            campaign.submit(tiny_job(
                &format!("s{i}"),
                400_000 + 100_000 * (i % 3),
                10.0,
                1.0,
                (i / 2) as f64 * 120.0,
            ));
        }
        campaign.run().to_json()
    };
    let reference = run(1);
    for shards in [2, 4, 8] {
        assert_eq!(
            reference,
            run(shards),
            "report changed between 1 and {shards} shards"
        );
    }
}

/// Run `scenario` with both logs capped at `cap` rows and uncapped: the
/// retained vectors shrink, but every aggregate the scheduler computes
/// online — MAPEs, costs, outcome counts — must not move by a bit. The
/// uncapped run, judged, must be clean.
fn capped_and_uncapped(scenario: &Scenario, cap: usize) -> CellResult {
    let with_cap = |cap: usize| {
        let config = CampaignConfig {
            max_placement_log: cap,
            max_job_reports: cap,
            ..scenario.config.clone()
        };
        Scenario { config, ..scenario.clone() }
    };
    let (capped, _) = with_cap(cap).run();
    let uncapped = with_cap(usize::MAX);
    let (full, snapshot) = uncapped.run();
    assert_eq!(capped.placements.len(), cap);
    assert_eq!(capped.job_reports.len(), cap);
    assert_eq!(capped.placements_total, full.placements.len());
    assert_eq!(capped.exact_aggregates(), full.exact_aggregates(), "{}", scenario.key);
    let cell = uncapped.judge(full, &snapshot);
    assert_eq!(cell.violations().collect::<Vec<_>>(), Vec::<String>::new());
    cell
}

#[test]
fn capped_logs_keep_exact_campaign_aggregates() {
    let tiny = Scenario {
        key: "tiny".to_string(),
        config: tiny_config(3, 0.0),
        pools: one_pool(2),
        jobs: (0..8)
            .map(|i| tiny_job(&format!("c{i}"), 400_000, 10.0, 1.0, i as f64 * 60.0))
            .collect(),
    };
    capped_and_uncapped(&tiny, 2);
    // The scheduler-scale campaign at tier-1 size: the guard kills its
    // runaways exactly at their rebuilt limits, admission rejects its
    // doomed budgets.
    let scale = capped_and_uncapped(&Scenario::scale(2_000), 500);
    assert!(scale.audit.guard_exact_checks >= 1, "no guard limit was rebuilt");
    assert!(scale.report.rejected >= 1, "no doomed budget was rejected");
}

#[test]
fn campaign_obs_snapshot_is_deterministic_and_matches_report() {
    use hemocloud_obs::{Render, Sample};

    let (report, _, snap) = stress();
    // Counters agree with the report's own accounting.
    assert_eq!(snap.counter("sched.jobs.submitted"), Some(report.jobs as u64));
    assert_eq!(snap.counter("sched.faults"), Some(report.faults as u64));
    assert_eq!(snap.counter("sched.retries"), Some(report.retries as u64));
    assert_eq!(snap.counter("sched.jobs.rejected"), Some(report.rejected as u64));
    let placements = snap.counter("sched.placements").expect("placements counter");
    assert_eq!(placements, report.placements.len() as u64);
    assert!(snap.counter("sched.slices").unwrap() >= placements);
    // Per-event-type virtual spans partition the whole campaign
    // timeline: their totals sum back to the makespan.
    let span_total = |name: &str| match snap.get(name) {
        Some(Sample::Span { total_s, .. }) => *total_s,
        other => panic!("{name}: expected span, got {other:?}"),
    };
    let spanned = span_total("sched.event.arrive") + span_total("sched.event.slice_done");
    assert!(
        (spanned - report.makespan_s).abs() <= 1e-6 * report.makespan_s.max(1.0),
        "span totals {spanned} vs makespan {}",
        report.makespan_s
    );
    // The full render is byte-for-byte reproducible per seed.
    let (_, again) = run_stress_cell(42);
    assert_eq!(
        snap.to_json(Render::Full),
        again.to_json(Render::Full),
        "same seed must produce identical snapshots"
    );
    // Seed 4242 draws no fault where seed 42 draws one.
    let (other, other_snap) = run_stress_cell(4242);
    assert_ne!(other.faults, report.faults);
    assert_ne!(
        snap.to_json(Render::Full),
        other_snap.to_json(Render::Full),
        "snapshot must reflect the seed's event stream"
    );
}
