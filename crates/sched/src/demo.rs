//! The reference campaign: a seeded, fully reproducible demonstration of
//! the scheduler that exercises every subsystem — multi-platform pools,
//! queueing under contention, fault retries, a guard-killed runaway, an
//! admission rejection, and the calibration-driven MAPE drop.
//!
//! The bench driver (`campaign`), the `campaign_planner` example, and the
//! acceptance tests all run *this* campaign, so its invariants are pinned
//! in one place.

use std::sync::Arc;

use hemocloud_cluster::exec::Overheads;
use hemocloud_cluster::platform::Platform;
use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
use hemocloud_geometry::voxel::VoxelGrid;

use hemocloud_cluster::topology::TopologyVariant;

use crate::job::JobSpec;
use crate::report::CampaignReport;
use crate::scheduler::{Campaign, CampaignConfig, PoolSpec};

/// The four capacity-limited pools the demo campaign runs against.
///
/// Each pool's overheads differ slightly — per-platform biases the raw
/// model cannot see, which is exactly what the per-platform calibrators
/// must learn.
pub fn demo_pools() -> Vec<PoolSpec> {
    vec![
        PoolSpec {
            platform: Platform::csp1(),
            nodes: 3,
            overheads: Overheads::default(),
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp2(),
            nodes: 2,
            overheads: Overheads {
                lbm_bandwidth_efficiency: 0.72,
                ..Overheads::default()
            },
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp2_small(),
            nodes: 8,
            overheads: Overheads {
                message_software_overhead_us: 2.5,
                ..Overheads::default()
            },
            topology: None,
        },
        PoolSpec {
            platform: Platform::csp2_ec(),
            nodes: 2,
            overheads: Overheads {
                lbm_bandwidth_efficiency: 0.85,
                ..Overheads::default()
            },
            topology: None,
        },
    ]
}

/// The demo campaign's configuration under `seed`.
pub fn demo_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        characterization_seed: 2023,
        rank_options: vec![8, 16, 32, 36, 64, 72],
        slice_steps: 2_000_000,
        fault_rate_per_node_hour: 0.15,
        retry_backoff_s: 60.0,
        max_retry_backoff_s: 3600.0,
        min_calibration_obs: 6,
        prices: Default::default(),
        shards: 1,
        max_placement_log: usize::MAX,
        max_job_reports: usize::MAX,
    }
}

struct Geometry {
    key: &'static str,
    grid: VoxelGrid,
}

fn demo_geometries() -> Vec<Geometry> {
    vec![
        Geometry {
            key: "cyl8",
            grid: CylinderSpec::default().with_resolution(8).build(),
        },
        Geometry {
            key: "cyl10",
            grid: CylinderSpec::default().with_resolution(10).build(),
        },
        Geometry {
            key: "aorta8",
            grid: AortaSpec::default().with_resolution(8).build(),
        },
        Geometry {
            key: "cereb6",
            grid: CerebralSpec::default()
                .with_resolution(6)
                .with_generations(3)
                .build(),
        },
    ]
}

/// The demo job mix: 26 jobs over 4 geometry classes.
///
/// * An initial wave of 8 jobs at t = 0 — they place on the raw
///   (uncalibrated) model and populate the report's "before" MAPE.
/// * A staggered stream of 15 more jobs arriving every 10 minutes, placed
///   with progressively calibrated predictions under contention.
/// * Two **runaway** jobs whose hidden step factor (3×) dwarfs any guard
///   tolerance — the guard must kill them mid-run.
/// * One **doomed** job whose budget can't buy its cheapest option — the
///   admission filter must reject it.
pub fn demo_jobs() -> Vec<JobSpec> {
    let geoms = demo_geometries();
    let objectives = [
        Objective::MinCost,
        Objective::MaxThroughput,
        Objective::Deadline(6.0 * 3600.0),
    ];
    let mut jobs = Vec::new();
    let mut push = |name: String,
                    geom: &Geometry,
                    steps: u64,
                    objective: Objective,
                    tolerance: f64,
                    budget: f64,
                    hidden: f64,
                    submit_s: f64| {
        jobs.push(JobSpec {
            name,
            workload: Arc::new(Workload::harvey(&geom.grid, steps)),
            model_key: geom.key.to_string(),
            objective,
            tolerance,
            budget_dollars: budget,
            max_retries: 3,
            checkpoint_steps: 4_000_000,
            hidden_steps_factor: hidden,
            submit_s,
        })
    };

    // Wave 1: eight honest jobs at t = 0. They place on the raw model,
    // which underpredicts by several-fold (the deliberately unmodeled
    // overheads), so their operators grant bootstrap-era tolerance until
    // calibration has data.
    for i in 0..8u64 {
        let geom = &geoms[(i as usize) % geoms.len()];
        let steps = 18_000_000 + 3_000_000 * i;
        push(
            format!("wave1-{i:02}-{}", geom.key),
            geom,
            steps,
            objectives[(i as usize) % objectives.len()],
            7.0,
            150.0,
            1.0,
            0.0,
        );
    }
    // Stream: fifteen honest jobs, one every 10 simulated minutes. By now
    // placements run on calibrated predictions, so tolerance tightens.
    for i in 0..15u64 {
        let geom = &geoms[(i as usize + 1) % geoms.len()];
        let steps = 16_000_000 + 2_500_000 * (i % 7);
        push(
            format!("stream-{i:02}-{}", geom.key),
            geom,
            steps,
            objectives[(i as usize + 1) % objectives.len()],
            1.5,
            150.0,
            1.0,
            600.0 * (i + 1) as f64,
        );
    }
    // Runaways: declared steps are a third of what they truly need, so
    // even a calibrated guard budget runs dry mid-run.
    push(
        "runaway-00-cyl8".to_string(),
        &geoms[0],
        20_000_000,
        Objective::MinCost,
        0.50,
        150.0,
        3.0,
        300.0,
    );
    push(
        "runaway-01-aorta8".to_string(),
        &geoms[2],
        24_000_000,
        Objective::MaxThroughput,
        0.50,
        150.0,
        3.0,
        4_500.0,
    );
    // Doomed: no option can run 40M steps for five cents.
    push(
        "doomed-budget".to_string(),
        &geoms[1],
        40_000_000,
        Objective::MinCost,
        1.0,
        0.05,
        1.0,
        900.0,
    );
    jobs
}

/// Build and run the whole demo campaign under `seed`; returns the
/// report.
pub fn run_demo(seed: u64) -> CampaignReport {
    run_demo_with_obs(seed).0
}

/// [`run_demo`], also returning the campaign's metrics snapshot
/// (admission/guard/retry/fault counters, per-event-type virtual-time
/// spans, calibration gauges). Deterministic: same seed, same snapshot,
/// byte for byte.
pub fn run_demo_with_obs(seed: u64) -> (CampaignReport, hemocloud_obs::Snapshot) {
    Campaign::run_jobs(demo_config(seed), demo_pools(), demo_jobs())
}

// ---- fabric contention demo -------------------------------------------

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_mix_has_the_advertised_shape() {
        let jobs = demo_jobs();
        assert!(jobs.len() >= 20, "acceptance floor: >= 20 jobs");
        assert!(demo_pools().len() >= 3, "acceptance floor: >= 3 platforms");
        assert_eq!(
            jobs.iter().filter(|j| j.hidden_steps_factor > 2.0).count(),
            2,
            "two runaways"
        );
        assert_eq!(
            jobs.iter().filter(|j| j.budget_dollars < 1.0).count(),
            1,
            "one doomed-budget job"
        );
        assert!(demo_config(42).fault_rate_per_node_hour > 0.0, "faults on");
    }
}
