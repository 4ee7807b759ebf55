//! Scheduler-scale record: drive `hemocloud-sched`'s synthetic campaign
//! of up to one million jobs ([`Scenario::scale`]) and persist its
//! throughput and refinement figures to `BENCH_sched.json`, the
//! scheduler's record beside `BENCH_lbm.json`.
//!
//! The campaign is synthetic but exercises every subsystem at scale:
//! four capacity-limited pools, 32 shared workloads over four vascular
//! geometries, batched arrivals, seeded node faults with
//! checkpoint-rollback retries, a sprinkle of guard-killed runaways and
//! admission-rejected doomed jobs, and bounded report logs
//! (`max_placement_log`) so memory stays flat while the MAPE accounting
//! stays exact.
//!
//! The binary judges what it times, in three runs of the one scenario:
//!
//! 1. **The headline**, timed: 4 event-queue shards, logs capped at
//!    10,000 rows. `events_per_sec`, `jobs_per_sec`, `elapsed_s` and
//!    `peak_rss_mib` measure this run only — the peak resident set is
//!    read right after it, before the audit run — and every other field
//!    of the record is its report's.
//! 2. **The audit run**, timed apart: the same scenario with both log
//!    caps lifted. Its [`CampaignReport::exact_aggregates`] (events,
//!    outcomes, faults, retries, placements, cost, the refinement MAPEs)
//!    must equal the headline's bit for bit, and [`Scenario::judge`]
//!    must find no violation: the eight `audit` checkers and the regret
//!    oracle, the guard-exactness rebuild of every guard kill included.
//! 3. **The shard witness**: a smoke-sized prefix of the campaign re-run
//!    at shard counts 1, 2 and 4 must render byte-identical reports —
//!    `gates::gate_bench_sched` fails on the record otherwise
//!    (`shard_determinism.reports_identical`).
//!
//! A violation, an aggregate mismatch, a non-finite number in the
//! headline report's render (`gates::gate_finite`) or a failed
//! `gate_bench_sched` exits non-zero, and no record is written.
//!
//! * `RT_BENCH_FAST=1` runs 20,000 jobs instead of 1,000,000, so CI can
//!   smoke-run it in seconds.
//! * `OUT_DIR=<dir>` is where `BENCH_sched.json` goes (default: the
//!   current directory).
//!
//! [`CampaignReport::exact_aggregates`]: hemocloud_sched::CampaignReport::exact_aggregates

use std::time::Instant;

use hemocloud_bench::{gates, provenance};
use hemocloud_obs::json::{Layout, Writer};
use hemocloud_sched::Scenario;

/// Peak resident set (VmHWM) in MiB from `/proc/self/status`; `None` off
/// Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn mib(rss: Option<f64>) -> String {
    rss.map_or("n/a".to_string(), |m| format!("{m:.0} MiB"))
}

fn main() {
    let n_jobs = if provenance::fast_mode() { 20_000 } else { 1_000_000 };
    let mut scenario = Scenario::scale(n_jobs);
    let (seed, shards) = (scenario.config.seed, scenario.config.shards);

    // Headline run first, its peak resident set read before the audit run
    // (which keeps every row and peaks higher): the recorded VmHWM is the
    // headline campaign's.
    println!("bench_sched: {n_jobs} jobs, {shards} shards, seed {seed}");
    let start = Instant::now();
    let (report, _) = scenario.run();
    let elapsed = start.elapsed().as_secs_f64();
    let events_per_sec = report.events_processed as f64 / elapsed;
    let jobs_per_sec = report.jobs as f64 / elapsed;
    let peak_rss = peak_rss_mib();

    println!(
        "  {} events in {elapsed:.2} s wall -> {:.0} events/s, {:.0} jobs/s",
        report.events_processed, events_per_sec, jobs_per_sec
    );
    println!(
        "  outcomes: {} completed, {} guard-killed, {} failed, {} rejected; {} faults / {} retries",
        report.completed, report.guard_kills, report.failed, report.rejected, report.faults,
        report.retries
    );
    println!(
        "  makespan {:.0} virtual s, total ${:.2}, peak RSS {}",
        report.makespan_s,
        report.total_cost_dollars,
        mib(peak_rss),
    );

    // Audit run: the same scenario with uncapped logs, judged.
    scenario.config.max_placement_log = usize::MAX;
    scenario.config.max_job_reports = usize::MAX;
    let start = Instant::now();
    let (full, snapshot) = scenario.run();
    let rerun_s = start.elapsed().as_secs_f64();
    let judged = scenario.judge(full, &snapshot);
    let judge_s = start.elapsed().as_secs_f64() - rerun_s;
    let exact = report.exact_aggregates();
    let mismatched: Vec<&str> = exact
        .iter()
        .zip(judged.report.exact_aggregates())
        .filter(|(headline, uncapped)| **headline != *uncapped)
        .map(|((name, _), _)| *name)
        .collect();
    let mut failures: Vec<String> = judged.violations().collect();
    if !mismatched.is_empty() {
        let what = format!("uncapped rerun differs from the headline in {mismatched:?}");
        failures.push(format!("bench_sched: {what}"));
    }
    let audit = &judged.audit;
    println!(
        "  audit: uncapped rerun {rerun_s:.2} s + judge {judge_s:.2} s wall, process peak RSS {}; \
         {} violations, {} of {} aggregates equal the headline's, {} guard limits rebuilt, \
         Eq. 9 {}, mean cost regret vs oracle {}",
        mib(peak_rss_mib()),
        audit.violations.len(),
        exact.len() - mismatched.len(),
        exact.len(),
        audit.guard_exact_checks,
        if audit.eq9_checked { "reconciled" } else { "not armed (no routed pool or a cut slice)" },
        judged.mean_regret_pct.map_or("n/a".to_string(), |r| format!("{r:.2}%")),
    );
    drop(judged);

    // Determinism proof: a smoke-sized prefix at shard counts 1, 2, 4
    // must render byte-identical reports.
    let det_jobs_n = n_jobs.min(20_000);
    let shard_counts = [1usize, 2, 4];
    let identical = Scenario::scale(det_jobs_n).shard_invariant(&shard_counts);
    println!(
        "  shard determinism ({det_jobs_n} jobs @ shards {shard_counts:?}): {}",
        if identical { "byte-identical" } else { "DIVERGED" }
    );

    let mut w = Writer::new();
    w.begin_object(Layout::Block);
    w.key("report").string("hemocloud_bench_sched");
    w.key("provenance").members(&provenance::stamp());
    w.key("seed").uint(seed);
    w.key("jobs").uint(report.jobs as u64);
    w.key("shards").uint(shards as u64);
    w.key("events_processed").uint(report.events_processed);
    w.key("elapsed_s").fixed(elapsed, 3);
    w.key("events_per_sec").fixed(events_per_sec, 1);
    w.key("jobs_per_sec").fixed(jobs_per_sec, 1);
    w.key("peak_rss_mib").opt_fixed(peak_rss, 1);
    w.key("makespan_s").fixed(report.makespan_s, 3);
    w.key("total_cost_dollars").fixed(report.total_cost_dollars, 6);
    w.key("outcomes").begin_object(Layout::Inline);
    w.key("completed").uint(report.completed as u64);
    w.key("guard_kills").uint(report.guard_kills as u64);
    w.key("failed").uint(report.failed as u64);
    w.key("rejected").uint(report.rejected as u64);
    w.end();
    w.key("faults").uint(report.faults as u64);
    w.key("retries").uint(report.retries as u64);
    w.key("placements_total").uint(report.placements_total as u64);
    w.key("refinement").begin_object(Layout::Inline);
    w.key("mape_first_quartile_uncalibrated_pct")
        .opt_fixed(report.mape_first_quartile_uncalibrated_pct, 4);
    w.key("mape_calibrated_pct").opt_fixed(report.mape_calibrated_pct, 4);
    w.key("error_p50_pct").opt_fixed(report.error_p50_pct, 4);
    w.key("error_p99_pct").opt_fixed(report.error_p99_pct, 4);
    w.end();
    w.key("shard_determinism").begin_object(Layout::Inline);
    w.key("jobs").uint(det_jobs_n as u64);
    w.key("shard_counts").begin_array(Layout::Inline);
    shard_counts.iter().for_each(|&s| w.uint(s as u64));
    w.end();
    w.key("reports_identical").bool(identical);
    w.end();
    w.end();
    let json = w.finish();

    // A record that fails its gate or its audit, or whose report is not
    // even well-formed, is never written.
    failures.extend(gates::gate_text(&report.to_json(), gates::gate_finite));
    failures.extend(gates::gate_text(&json, gates::gate_bench_sched));
    gates::exit_on_failures(&failures);
    provenance::write_artifact("BENCH_sched.json", &json);
}
