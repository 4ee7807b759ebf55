//! `campaign_scale` / `campaign_routed`: `Campaign::run` over a
//! synthetic job mix drawn from the seed.
//!
//! Set-up builds the shared workloads, draws the jobs, constructs the
//! campaign and submits every job. A repetition runs the campaign to
//! completion and renders its report; repetitions see the same inputs,
//! so their reports must be byte-identical. `scale` is `bench_sched`'s
//! campaign (four scalar pools, planted runaways and doomed budgets,
//! bounded logs); `routed` puts every job across nodes of two routed
//! pools, so each slice is priced through the shared fabric.

use std::sync::Arc;
use std::time::Instant;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::{CommModel, TopologyVariant};
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
use hemocloud_obs::{Sample, Snapshot};
use hemocloud_rt::rng::SplitMix64;
use hemocloud_sched::{Campaign, CampaignConfig, CampaignReport, JobSpec, PoolSpec};

use super::{probes, set_up, Outcome, RunCfg};
use crate::stats::{describe, median};
use crate::trace::Tracer;

pub struct Sizes {
    pub routed: bool,
    pub jobs: usize,
    /// Geometries the shared workloads are built on (each is fitted once
    /// per pool inside every campaign).
    pub geometries: usize,
    /// Jobs of the fault-free campaign whose delivered fabric bytes must
    /// equal the Eq. 9 total (routed only).
    pub reconcile_jobs: usize,
}

impl Sizes {
    pub fn scale() -> Self {
        Self {
            routed: false,
            jobs: 300_000,
            geometries: 4,
            reconcile_jobs: 0,
        }
    }

    pub fn routed() -> Self {
        Self {
            routed: true,
            jobs: 2_000,
            geometries: 4,
            reconcile_jobs: 200,
        }
    }

    #[cfg(test)]
    pub fn tiny(routed: bool) -> Self {
        Self {
            routed,
            jobs: 150,
            geometries: 1,
            reconcile_jobs: if routed { 16 } else { 0 },
        }
    }
}

fn pool(
    platform: Platform,
    nodes: usize,
    overheads: Overheads,
    topology: Option<TopologyVariant>,
) -> PoolSpec {
    PoolSpec {
        platform,
        nodes,
        overheads,
        topology,
    }
}

fn pools(routed: bool) -> Vec<PoolSpec> {
    let d = Overheads::default();
    if routed {
        return vec![
            pool(Platform::csp2_small(), 32, d, Some(TopologyVariant::Spread)),
            pool(Platform::csp2_ec(), 16, d, Some(TopologyVariant::FatTree)),
        ];
    }
    vec![
        pool(Platform::trc(), 50, d, None),
        pool(
            Platform::csp1(),
            3,
            Overheads {
                lbm_bandwidth_efficiency: 0.80,
                ..d
            },
            None,
        ),
        pool(
            Platform::csp2_small(),
            16,
            Overheads {
                message_software_overhead_us: 2.5,
                ..d
            },
            None,
        ),
        pool(
            Platform::csp2(),
            4,
            Overheads {
                lbm_bandwidth_efficiency: 0.72,
                ..d
            },
            None,
        ),
    ]
}

fn config(
    routed: bool,
    seed: u64,
    characterization_seed: u64,
    faults_per_node_hour: f64,
) -> CampaignConfig {
    CampaignConfig {
        seed,
        characterization_seed,
        // Routed: every option spans nodes on both pools (8 and 36 cores a node).
        rank_options: if routed {
            vec![40, 48, 64, 72]
        } else {
            vec![8, 16, 32, 36]
        },
        slice_steps: 800_000,
        fault_rate_per_node_hour: faults_per_node_hour,
        retry_backoff_s: 30.0,
        max_retry_backoff_s: 1800.0,
        min_calibration_obs: 6,
        prices: Default::default(),
        shards: 4,
        // Bounded logs: aggregates stay exact over every job.
        max_placement_log: 10_000,
        max_job_reports: 10_000,
    }
}

/// The shared workloads: eight step counts on each of the first
/// `geometries` of four geometries (32 at full size).
fn workloads(geometries: usize) -> Vec<(String, Arc<Workload>)> {
    let grids = [
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
    let mut out = Vec::with_capacity(8 * geometries);
    for (key, grid) in grids.iter().take(geometries) {
        for s in 0..8u64 {
            out.push((
                key.to_string(),
                Arc::new(Workload::harvey(grid, 150_000 + 50_000 * s)),
            ));
        }
    }
    out
}

/// `n` jobs drawn from the seed: 64 share each submit tick; one in 211
/// is a runaway the guard must kill and one in 503 carries a budget
/// admission must refuse (`planted` off leaves every job honest).
fn jobs(n: usize, seed: u64, shared: &[(String, Arc<Workload>)], planted: bool) -> Vec<JobSpec> {
    let objectives = [
        Objective::MinCost,
        Objective::MaxThroughput,
        Objective::Deadline(24.0 * 3600.0),
    ];
    let mut sm = SplitMix64::new(seed ^ 0xBE9C_4A11);
    (0..n)
        .map(|i| {
            let (key, workload) = &shared[(sm.next_u64() % shared.len() as u64) as usize];
            let runaway = planted && i % 211 == 0;
            let doomed = planted && !runaway && i % 503 == 0;
            let kind = if runaway {
                "runaway"
            } else if doomed {
                "doomed"
            } else {
                "job"
            };
            JobSpec {
                name: format!("{kind}-{i:07}-{key}"),
                workload: Arc::clone(workload),
                model_key: key.clone(),
                objective: objectives[i % objectives.len()],
                tolerance: if runaway { 0.5 } else { 20.0 },
                budget_dollars: if doomed { 1.0e-6 } else { 500.0 },
                max_retries: 3,
                checkpoint_steps: 400_000,
                hidden_steps_factor: if runaway { 3.0 } else { 1.0 },
                submit_s: (i / 64) as f64 * 30.0,
            }
        })
        .collect()
}

fn planted_counts(n: usize) -> (u64, u64) {
    let runaways = (0..n).filter(|i| i % 211 == 0).count() as u64;
    let doomed = (0..n).filter(|i| i % 211 != 0 && i % 503 == 0).count() as u64;
    (runaways, doomed)
}

fn family_total(snapshot: &Snapshot, prefix: &str) -> u64 {
    (0..)
        .map_while(|i| match snapshot.get(&format!("{prefix}.{i}")) {
            Some(Sample::Counter(v)) => Some(*v),
            _ => None,
        })
        .sum()
}

/// Fault-free, all-honest routed campaign: every slice runs to its end,
/// so the bytes the fabric delivered must equal each job's Eq. 9
/// internodal bytes per step times its steps, exactly.
fn reconcile_delivered_bytes(
    out: &mut Outcome,
    sizes: &Sizes,
    seed: u64,
    characterization_seed: u64,
    shared: &[(String, Arc<Workload>)],
) {
    let specs = jobs(sizes.reconcile_jobs, seed, shared, false);
    let pools = pools(true);
    let mut campaign = Campaign::new(
        config(true, seed, characterization_seed, 0.0),
        pools.clone(),
    );
    for spec in &specs {
        campaign.submit(spec.clone());
    }
    let report = campaign.run();
    let snapshot = campaign.obs_snapshot();
    let clean = report.completed == specs.len() && report.faults == 0;
    out.check(clean, || {
        format!(
            "reconcile campaign: {} of {} completed",
            report.completed,
            specs.len()
        )
    });
    let mut expected = 0u64;
    for record in &report.placements {
        let spec = &specs[record.job];
        let pool = pools
            .iter()
            .find(|p| p.platform.abbrev == record.platform)
            .expect("placements land on offered pools");
        let comm = CommModel::Routed(pool.topology.expect("routed pools only"));
        let prepared = PreparedRun::new_with_comm(
            &pool.platform,
            &spec.workload.grid,
            &spec.workload.kernel,
            record.ranks,
            &pool.overheads,
            comm,
        )
        .expect("a placed option is feasible");
        let identity: Vec<usize> = (0..prepared.nodes()).collect();
        let per_step: u64 = prepared
            .flows(&identity, 0)
            .iter()
            .map(|f| f.bytes as u64)
            .sum();
        out.check(per_step > 0, || {
            format!("{} does not span nodes", spec.name)
        });
        expected += per_step * spec.true_steps();
    }
    let delivered: u64 = (0..pools.len())
        .map(|p| family_total(&snapshot, &format!("fabric.pool{p}.link.delivered_bytes")))
        .sum();
    out.check(delivered == expected && expected > 0, || {
        format!("fabric delivered {delivered} bytes, Eq. 9 total {expected}")
    });
}

pub fn run(sizes: &Sizes, cfg: &RunCfg, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut sm = SplitMix64::new(cfg.seed ^ 0x6361_6d70);
    let characterization_seed = sm.next_u64();
    let faults = if sizes.routed { 0.25 } else { 0.5 };
    let make_config = || config(sizes.routed, cfg.seed, characterization_seed, faults);
    let build = |specs: &[JobSpec]| {
        let mut campaign = t.time("sched.campaign_new", || {
            Campaign::new(make_config(), pools(sizes.routed))
        });
        t.time_n("sched.submit", specs.len() as u64, || {
            for spec in specs {
                campaign.submit(spec.clone());
            }
        });
        campaign
    };

    let (shared, specs, first_campaign) = set_up(cfg, t, &mut out, || {
        let shared = t.time("core.workload_new", || workloads(sizes.geometries));
        let specs = jobs(sizes.jobs, cfg.seed, &shared, !sizes.routed);
        let campaign = build(&specs);
        (shared, specs, campaign)
    });
    let mut next_campaign = Some(first_campaign);

    // At least two repetitions (the identity check needs a pair), then
    // as many as finish inside the time.
    let mut run_s: Vec<f64> = Vec::new();
    let mut rep_s: Vec<f64> = Vec::new();
    let mut reference: Option<(CampaignReport, String, Snapshot)> = None;
    let window = Instant::now();
    t.time("perf.window", || loop {
        t.set_run(run_s.len() as u32);
        let rep_start = Instant::now();
        let (report, json, snapshot, seconds) = t.time("perf.unit", || {
            let mut campaign = next_campaign.take().unwrap_or_else(|| build(&specs));
            let start = Instant::now();
            let report = t.time("sched.run", || campaign.run());
            let seconds = start.elapsed().as_secs_f64();
            let json = t.time("sched.report_render", || report.to_json());
            let snapshot = t.time("obs.snapshot", || campaign.obs_snapshot());
            t.time("sched.campaign_drop", || drop(campaign));
            (report, json, snapshot, seconds)
        });
        run_s.push(seconds);
        match &reference {
            Some((_, first_json, _)) => {
                let same = t.time("perf.check", || *first_json == json);
                out.check(same, || {
                    format!("repetition {} rendered a different report", run_s.len())
                });
            }
            None => reference = Some((report, json, snapshot)),
        }
        rep_s.push(rep_start.elapsed().as_secs_f64());
        let enough = run_s.len() >= 2 || !cfg.full;
        if enough && window.elapsed().as_secs_f64() + median(&rep_s) > cfg.seconds {
            break;
        }
    });
    out.window_s = window.elapsed().as_secs_f64();
    out.samples = run_s.len();
    let (report, json, snapshot) = reference.expect("at least one repetition");
    // Every repetition processes the same events.
    out.throughput = report.events_processed as f64 / median(&run_s);
    out.notes.push(format!(
        "{} jobs, {} events a run; Campaign::run: {}",
        report.jobs,
        report.events_processed,
        describe(&run_s, 1.0, "s")
    ));
    let outcomes = report.completed + report.guard_kills + report.failed + report.rejected;
    out.check(
        outcomes == report.jobs && report.jobs == specs.len(),
        || format!("{outcomes} outcomes for {} submitted jobs", specs.len()),
    );
    out.check(report.events_processed > 0 && report.completed > 0, || {
        "nothing ran".to_string()
    });
    // Planted runaway kills and doomed rejections are the design, not failures.
    let (runaways, doomed) = if sizes.routed {
        (0, 0)
    } else {
        planted_counts(specs.len())
    };
    out.attempted = report.jobs as u64;
    out.failed = report.failed as u64
        + (report.guard_kills as u64).saturating_sub(runaways)
        + (report.rejected as u64).saturating_sub(doomed);
    if sizes.routed {
        t.time("perf.check", || {
            reconcile_delivered_bytes(&mut out, sizes, cfg.seed, characterization_seed, &shared)
        });
    }

    if t.enabled() {
        let count = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
        let run_median = median(&run_s);
        out.set("sched.events_per_s", out.throughput);
        out.set(
            "sched.placement_mape_pct",
            report.mape_calibrated_pct.unwrap_or(0.0),
        );
        out.set_seconds(t, &["sched.campaign_new", "sched.report_render"]);
        out.set("sched.submit_jobs_per_s", 1.0 / t.median_s("sched.submit"));
        out.set("sched.run_s", run_median);
        out.set(
            "sched.us_per_event",
            run_median / count("sched.events.processed") * 1e6,
        );
        out.set(
            "sched.us_per_slice",
            run_median / count("sched.slices").max(1.0) * 1e6,
        );
        out.set("sched.report_bytes", json.len() as f64);
        out.set("sched.events", count("sched.events.processed"));
        out.set("sched.slices", count("sched.slices"));
        out.set("sched.placements", count("sched.placements"));
        out.set("sched.faults", count("sched.faults"));
        out.set("sched.retries", count("sched.retries"));
        out.set("sched.guard_kills", count("sched.guard_kills"));
        out.set("sched.rejected", count("sched.jobs.rejected"));
        out.set_span(
            t,
            "core.workload_new_s",
            "core.workload_new",
            1.0 / shared.len() as f64,
        );

        let pool_specs = pools(sizes.routed);
        probes::event_queue(t, &mut out, pool_specs.len() + 1, 4);
        let (_, workload) = &shared[shared.len() / 4]; // at full size: cyl8, 150k steps
        let platform = pool_specs[0].platform.abbrev;
        probes::core(t, &mut out, workload, platform, 16, characterization_seed);
        if sizes.routed {
            probes::cluster_fabric(t, &mut out, workload, platform, 64, cfg.seed);
        }
        probes::obs(t, &mut out);
        // The campaign's own registry, not the probe's.
        out.set_seconds(t, &["obs.snapshot"]);
    }
    out
}
