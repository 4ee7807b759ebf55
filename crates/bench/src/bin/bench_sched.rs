//! Scheduler-scale record: drive a committed synthetic campaign of up to
//! one million jobs through `hemocloud-sched` and persist the throughput
//! numbers to `BENCH_sched.json`, so every PR carries a comparable
//! events/sec trajectory alongside `BENCH_lbm.json` (ROADMAP item 2:
//! "scale the campaign" needs a number to hold it to).
//!
//! The campaign is synthetic but exercises every subsystem at scale:
//! four capacity-limited pools, 32 shared workloads over four vascular
//! geometries, batched arrivals (64 jobs share each submit tick, so the
//! batched-admission path actually batches), seeded node faults with
//! checkpoint-rollback retries, a sprinkle of guard-killed runaways and
//! admission-rejected doomed jobs, and bounded report logs
//! (`max_placement_log`) so memory stays flat while the MAPE accounting
//! stays exact.
//!
//! Besides timing, the binary *proves* the tentpole determinism claim on
//! every run: a smoke-sized subset is re-run at shard counts 1, 2, and 4
//! and the three reports must be byte-identical — `gates::gate_bench_sched`
//! fails on the record otherwise (`shard_determinism.reports_identical`),
//! and the binary exits non-zero and refuses to write a baseline. The
//! shard-1 render also passes `gates::gate_finite` first.
//!
//! * `RT_BENCH_FAST=1` runs 20,000 jobs instead of 1,000,000, so CI can
//!   smoke-run it in seconds.
//! * `OUT_DIR=<dir>` is where `BENCH_sched.json` goes (default: the
//!   current directory).

use std::sync::Arc;
use std::time::Instant;

use hemocloud_bench::{gates, provenance};
use hemocloud_cluster::exec::Overheads;
use hemocloud_cluster::platform::Platform;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
use hemocloud_obs::json::{Layout, Writer};
use hemocloud_rt::bench::fast_mode;
use hemocloud_rt::rng::SplitMix64;
use hemocloud_sched::{Campaign, CampaignConfig, CampaignReport, JobSpec, PoolSpec};

/// The campaign seed.
const SEED: u64 = 42;
/// The headline run's event-queue shard count.
const SHARDS: usize = 4;

/// The four pools the synthetic campaign runs against — wider than the
/// demo's so a million jobs drain in reasonable virtual time.
fn bench_pools() -> Vec<PoolSpec> {
    vec![
        PoolSpec {
            platform: Platform::trc(),
            nodes: 50,
            overheads: Overheads::default(),
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp1(),
            nodes: 3,
            overheads: Overheads {
                lbm_bandwidth_efficiency: 0.80,
                ..Overheads::default()
            },
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp2_small(),
            nodes: 16,
            overheads: Overheads {
                message_software_overhead_us: 2.5,
                ..Overheads::default()
            },
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp2(),
            nodes: 4,
            overheads: Overheads {
                lbm_bandwidth_efficiency: 0.72,
                ..Overheads::default()
            },
            topology: None,
        },
    ]
}

fn bench_config(shards: usize) -> CampaignConfig {
    CampaignConfig {
        seed: SEED,
        characterization_seed: 2023,
        rank_options: vec![8, 16, 32, 36],
        slice_steps: 800_000,
        fault_rate_per_node_hour: 0.5,
        retry_backoff_s: 30.0,
        max_retry_backoff_s: 1800.0,
        min_calibration_obs: 6,
        prices: Default::default(),
        shards,
        // Bounded logs: the aggregates (MAPEs, costs, outcome counts) are
        // exact over all jobs regardless; only the per-row logs are capped.
        max_placement_log: 10_000,
        max_job_reports: 10_000,
    }
}

/// The 32 shared workloads: four geometry classes × eight step counts.
/// Jobs hold `Arc`s into this table — a million jobs, 32 grids.
fn bench_workloads() -> Vec<(String, Arc<Workload>)> {
    let geoms = vec![
        ("cyl6", CylinderSpec::default().with_resolution(6).build()),
        ("cyl8", CylinderSpec::default().with_resolution(8).build()),
        ("aorta6", AortaSpec::default().with_resolution(6).build()),
        (
            "cereb6",
            CerebralSpec::default()
                .with_resolution(6)
                .with_generations(3)
                .build(),
        ),
    ];
    let mut out = Vec::with_capacity(32);
    for (key, grid) in &geoms {
        for s in 0..8u64 {
            let steps = 150_000 + 50_000 * s;
            out.push((key.to_string(), Arc::new(Workload::harvey(grid, steps))));
        }
    }
    out
}

/// Deterministic synthetic job mix: honest jobs with batched arrivals,
/// ~0.5% runaways (3× hidden steps against a tight tolerance) and ~0.2%
/// doomed-budget jobs the admission filter must reject.
fn bench_jobs(n: usize) -> Vec<JobSpec> {
    let workloads = bench_workloads();
    let objectives = [
        Objective::MinCost,
        Objective::MaxThroughput,
        Objective::Deadline(24.0 * 3600.0),
    ];
    let mut sm = SplitMix64::new(SEED ^ 0xBE9C_4A11);
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let (key, workload) = &workloads[(sm.next_u64() % workloads.len() as u64) as usize];
        let runaway = i % 211 == 0;
        let doomed = !runaway && i % 503 == 0;
        jobs.push(JobSpec {
            name: format!(
                "{}-{i:07}-{key}",
                if runaway {
                    "runaway"
                } else if doomed {
                    "doomed"
                } else {
                    "job"
                }
            ),
            workload: Arc::clone(workload),
            model_key: key.clone(),
            objective: objectives[i % objectives.len()],
            tolerance: if runaway { 0.5 } else { 7.0 },
            // Doomed budget: below the cheapest conceivable per-second
            // bill for even the smallest workload, so admission must
            // reject (a cent would actually buy these short jobs).
            budget_dollars: if doomed { 1.0e-6 } else { 500.0 },
            max_retries: 3,
            checkpoint_steps: 400_000,
            hidden_steps_factor: if runaway { 3.0 } else { 1.0 },
            // 64 jobs share each submit tick: arrivals come in bursts the
            // batched-admission path sweeps in one dispatch.
            submit_s: (i / 64) as f64 * 30.0,
        });
    }
    jobs
}

fn run_campaign(jobs: &[JobSpec], shards: usize) -> CampaignReport {
    Campaign::run_jobs(bench_config(shards), bench_pools(), jobs.iter().cloned()).0
}

/// Peak resident set (VmHWM) in MiB from `/proc/self/status`; `None` off
/// Linux.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let n_jobs = if fast_mode() { 20_000 } else { 1_000_000 };

    // Headline run first (the biggest allocation), so the recorded VmHWM
    // is the campaign's and the later smoke-sized determinism runs cannot
    // raise it.
    println!("bench_sched: {n_jobs} jobs, {SHARDS} shards, seed {SEED}");
    let jobs = bench_jobs(n_jobs);
    let start = Instant::now();
    let report = run_campaign(&jobs, SHARDS);
    let elapsed = start.elapsed().as_secs_f64();
    let events_per_sec = report.events_processed as f64 / elapsed;
    let jobs_per_sec = report.jobs as f64 / elapsed;
    let peak_rss = peak_rss_mib();
    drop(jobs);

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
        peak_rss.map_or("n/a".to_string(), |m| format!("{m:.0} MiB")),
    );

    // Determinism proof: a smoke-sized subset at shard counts 1, 2, 4
    // must render byte-identical reports.
    let det_jobs_n = n_jobs.min(20_000);
    let det_jobs = bench_jobs(det_jobs_n);
    let shard_counts = [1usize, 2, 4];
    let renders: Vec<String> = shard_counts
        .iter()
        .map(|&s| run_campaign(&det_jobs, s).to_json())
        .collect();
    let identical = renders.iter().all(|r| r == &renders[0]);
    println!(
        "  shard determinism ({det_jobs_n} jobs @ shards {shard_counts:?}): {}",
        if identical { "byte-identical" } else { "DIVERGED" }
    );

    let mut w = Writer::new();
    w.begin_object(Layout::Block);
    w.key("report").string("hemocloud_bench_sched");
    w.key("provenance").members(&provenance::stamp());
    w.key("seed").uint(SEED);
    w.key("jobs").uint(report.jobs as u64);
    w.key("shards").uint(SHARDS as u64);
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

    // A record that fails its gate, or whose determinism report is not
    // even well-formed, is never written.
    let mut failures = gates::gate_text(&renders[0], gates::gate_finite);
    failures.extend(gates::gate_text(&json, gates::gate_bench_sched));
    gates::exit_on_failures(&failures);
    provenance::write_artifact("BENCH_sched.json", &json);
}
