//! The fabric contention demo: a seeded, fully reproducible campaign of
//! identical 2-node jobs on one spread-topology pool, so co-scheduled
//! pairs contend for the same rack trunks and the calibrators learn the
//! routed, contended comm term the scalar model cannot see.
//!
//! The bench driver (`fabric_demo`) and the fabric acceptance tests run
//! *this* campaign, so its invariants are pinned in one place.

use std::sync::Arc;

use hemocloud_cluster::exec::Overheads;
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::TopologyVariant;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::CylinderSpec;

use crate::job::JobSpec;
use crate::report::CampaignReport;
use crate::scheduler::{Campaign, CampaignConfig, PoolSpec};

/// The fabric demo pool: one 4-node CSP-2 Small allocation behind a
/// **spread** topology (2 racks, oversubscribed trunks). Spread scatters
/// consecutive node ids across racks (`rack = id % 2`), so the pool's
/// lowest-free-first allocation gives every 2-node job one node in each
/// rack — two co-scheduled jobs route all their internodal halo traffic
/// over the *same* two trunk links and contend for them.
pub fn fabric_demo_pools() -> Vec<PoolSpec> {
    vec![PoolSpec {
        platform: Platform::csp2_small(),
        nodes: 4,
        overheads: Overheads::default(),
        topology: Some(TopologyVariant::Spread),
    }]
}

/// The fabric demo configuration: faults off (the per-link byte
/// accounting must reconcile exactly against the Eq. 9 graph, so no
/// slice may be cut short) and a single 2-node rank option (every job
/// has the same contention footprint).
pub fn fabric_demo_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
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
    }
}

/// The fabric demo job mix: ten identical honest jobs at t = 0. The pool
/// holds two at a time, so the campaign runs as concurrent contending
/// pairs; the scalar-calibrated model has never seen routed-plus-
/// contended comm, so the first placements mispredict and the
/// calibrators close the gap — the MAPE trajectory under contention.
pub fn fabric_demo_jobs() -> Vec<JobSpec> {
    let grid = CylinderSpec::default().with_resolution(10).build();
    (0..10u64)
        .map(|i| JobSpec {
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
        })
        .collect()
}

/// Build and run the fabric contention campaign under `seed`; returns
/// the report and the obs snapshot (whose `fabric.pool0.link.*` counter
/// families carry the per-link byte accounting).
pub fn run_fabric_demo(seed: u64) -> (CampaignReport, hemocloud_obs::Snapshot) {
    Campaign::run_jobs(fabric_demo_config(seed), fabric_demo_pools(), fabric_demo_jobs())
}
