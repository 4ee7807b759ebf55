//! One campaign, fully specified: a [`Scenario`] bundles a stable key,
//! the [`CampaignConfig`], the pools and the jobs in submission order.
//!
//! Every campaign the repo runs is one of these: the evaluation grid's
//! cells ([`SweepGrid::scenarios`]), the routed contention cell beside
//! the grid ([`Scenario::contention`]) and the million-job scheduler
//! record ([`Scenario::scale`], `bench_sched`). Each runs through
//! [`Scenario::run`] and is judged through [`Scenario::judge`] (in
//! [`sweep`], beside the checkers it runs): the eight [`audit`]
//! checkers, the noise-free regret oracle and the pooled placement
//! errors.
//!
//! [`SweepGrid::scenarios`]: crate::SweepGrid::scenarios
//! [`sweep`]: crate::sweep
//! [`audit`]: crate::audit

use std::sync::Arc;

use hemocloud_cluster::exec::Overheads;
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::TopologyVariant;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
use hemocloud_obs::Snapshot;
use hemocloud_rt::rng::SplitMix64;

use crate::job::JobSpec;
use crate::report::CampaignReport;
use crate::scheduler::{Campaign, CampaignConfig, PoolSpec};

/// One campaign: what to run it with, on and for, under one name.
#[derive(Clone)]
pub struct Scenario {
    /// Stable name: prefixes the scenario's violations and names it in
    /// JSON. A grid cell's key is its axis values, `/`-separated
    /// (`s42/cyl8/scalar/f0.25/aa_stress`).
    pub key: String,
    /// The campaign configuration.
    pub config: CampaignConfig,
    /// The capacity-limited pools, in the order placements index them.
    pub pools: Vec<PoolSpec>,
    /// The jobs, in submission order.
    pub jobs: Vec<JobSpec>,
}

impl Scenario {
    /// Run the campaign to its end: the report and the metrics snapshot.
    pub fn run(&self) -> (CampaignReport, Snapshot) {
        self.run_with(self.config.clone())
    }

    fn run_with(&self, config: CampaignConfig) -> (CampaignReport, Snapshot) {
        Campaign::run_jobs(config, self.pools.clone(), self.jobs.iter().cloned())
    }

    /// Whether the report renders byte-identical at every event-queue
    /// shard count in `shards` (one run per count).
    pub fn shard_invariant(&self, shards: &[usize]) -> bool {
        let mut renders = shards.iter().map(|&shards| {
            self.run_with(CampaignConfig { shards, ..self.config.clone() }).0.to_json()
        });
        let first = renders.next();
        renders.all(|render| Some(render) == first)
    }

    /// The routed contention cell, `s42/cyl10/spread4/f0.00/contention`:
    /// ten identical honest cyl10 jobs at t = 0 on one 4-node CSP-2
    /// Small allocation behind a **spread** topology (2 racks,
    /// oversubscribed trunks).
    ///
    /// Spread scatters consecutive node ids across racks
    /// (`rack = id % 2`), so the pool's lowest-free-first allocation gives
    /// every 2-node job one node in each rack: two co-scheduled jobs route
    /// all their internodal halo traffic over the *same* two trunk links
    /// and contend for them. The pool holds two jobs at a time, so the
    /// campaign runs as contending pairs; the scalar-calibrated model has
    /// never seen routed-plus-contended comm, so the first placements
    /// mispredict and the calibrators close the gap. Faults are off (the
    /// per-link byte accounting must reconcile exactly against the Eq. 9
    /// graph, so no slice may be cut short), and the single 2-node rank
    /// option gives every job the same contention footprint.
    pub fn contention() -> Self {
        let grid = CylinderSpec::default().with_resolution(10).build();
        let jobs = (0..10u64).map(|i| JobSpec {
            name: format!("fabric-{i:02}-cyl10"),
            workload: Arc::new(Workload::harvey(&grid, 14_000_000 + 2_000_000 * (i % 4))),
            model_key: "cyl10".to_string(),
            objective: Objective::MinCost,
            tolerance: 7.0,
            budget_dollars: 200.0,
            max_retries: 0,
            checkpoint_steps: 4_000_000,
            hidden_steps_factor: 1.0,
            submit_s: 0.0,
        });
        Self {
            key: "s42/cyl10/spread4/f0.00/contention".to_string(),
            config: CampaignConfig {
                seed: 42,
                characterization_seed: 2023,
                rank_options: vec![16],
                slice_steps: 2_000_000,
                fault_rate_per_node_hour: 0.0,
                retry_backoff_s: 60.0,
                max_retry_backoff_s: 3600.0,
                min_calibration_obs: 6,
                prices: Default::default(),
                shards: 1,
                max_placement_log: usize::MAX,
                max_job_reports: usize::MAX,
            },
            pools: vec![PoolSpec {
                platform: Platform::csp2_small(),
                nodes: 4,
                overheads: Overheads::default(),
                topology: Some(TopologyVariant::Spread),
            }],
            jobs: jobs.collect(),
        }
    }

    /// The scheduler-scale campaign of `jobs` jobs that `bench_sched`
    /// times (`BENCH_sched.json` runs a million): four scalar pools wide
    /// enough to drain it in reasonable virtual time, 32 shared workloads
    /// (four geometries × eight step counts — a million jobs, 32 grids),
    /// batched arrivals (64 jobs share each submit tick, so the
    /// batched-admission path actually batches), seeded node faults with
    /// checkpoint-rollback retries, ~0.5% runaways (3× hidden steps
    /// against a tight tolerance) the guard must kill, ~0.2%
    /// doomed-budget jobs admission must reject, 4 event-queue shards,
    /// and report logs capped at 10,000 rows so memory stays flat while
    /// the aggregates stay exact. A smaller campaign is the first `jobs`
    /// jobs of a larger one.
    pub fn scale(jobs: usize) -> Self {
        let config = CampaignConfig {
            seed: 42,
            characterization_seed: 2023,
            rank_options: vec![8, 16, 32, 36],
            slice_steps: 800_000,
            fault_rate_per_node_hour: 0.5,
            retry_backoff_s: 30.0,
            max_retry_backoff_s: 1800.0,
            min_calibration_obs: 6,
            prices: Default::default(),
            shards: 4,
            // Bounded logs: the aggregates (MAPEs, costs, outcome counts)
            // are exact over all jobs regardless; only the per-row logs
            // are capped.
            max_placement_log: 10_000,
            max_job_reports: 10_000,
        };
        let pool =
            |platform, nodes, overheads| PoolSpec { platform, nodes, overheads, topology: None };
        let pools = vec![
            pool(Platform::trc(), 50, Overheads::default()),
            pool(
                Platform::csp1(),
                3,
                Overheads { lbm_bandwidth_efficiency: 0.80, ..Overheads::default() },
            ),
            pool(
                Platform::csp2_small(),
                16,
                Overheads { message_software_overhead_us: 2.5, ..Overheads::default() },
            ),
            pool(
                Platform::csp2(),
                4,
                Overheads { lbm_bandwidth_efficiency: 0.72, ..Overheads::default() },
            ),
        ];
        let geometries = [
            ("cyl6", CylinderSpec::default().with_resolution(6).build()),
            ("cyl8", CylinderSpec::default().with_resolution(8).build()),
            ("aorta6", AortaSpec::default().with_resolution(6).build()),
            ("cereb6", CerebralSpec::default().with_resolution(6).with_generations(3).build()),
        ];
        let mut workloads = Vec::with_capacity(32);
        for (key, grid) in &geometries {
            for s in 0..8u64 {
                let steps = 150_000 + 50_000 * s;
                workloads.push((key.to_string(), Arc::new(Workload::harvey(grid, steps))));
            }
        }
        let objectives = [
            Objective::MinCost,
            Objective::MaxThroughput,
            Objective::Deadline(24.0 * 3600.0),
        ];
        let key = format!("s{}/scale{jobs}", config.seed);
        let mut sm = SplitMix64::new(config.seed ^ 0xBE9C_4A11);
        let jobs = (0..jobs).map(|i| {
            let (key, workload) = &workloads[(sm.next_u64() % workloads.len() as u64) as usize];
            let runaway = i % 211 == 0;
            let doomed = !runaway && i % 503 == 0;
            let kind = if runaway { "runaway" } else if doomed { "doomed" } else { "job" };
            JobSpec {
                name: format!("{kind}-{i:07}-{key}"),
                workload: Arc::clone(workload),
                model_key: key.clone(),
                objective: objectives[i % objectives.len()],
                tolerance: if runaway { 0.5 } else { 7.0 },
                // Doomed budget: below the cheapest conceivable
                // per-second bill for even the smallest workload, so
                // admission must reject (a cent would actually buy these
                // short jobs).
                budget_dollars: if doomed { 1.0e-6 } else { 500.0 },
                max_retries: 3,
                checkpoint_steps: 400_000,
                hidden_steps_factor: if runaway { 3.0 } else { 1.0 },
                // 64 jobs share each submit tick: arrivals come in bursts
                // the batched-admission path sweeps in one dispatch.
                submit_s: (i / 64) as f64 * 30.0,
            }
        });
        Self { key, config, pools, jobs: jobs.collect() }
    }
}
