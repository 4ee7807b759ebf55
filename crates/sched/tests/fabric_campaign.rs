//! Acceptance tests for the routed-fabric campaign: the fabric demo must
//! be byte-for-byte reproducible across reruns and shard counts, its
//! per-link delivered-byte counters must reconcile *exactly* against the
//! Eq. 9 halo message graph, co-scheduled jobs must run measurably
//! slower than an isolated run, and calibration must close the
//! contention-induced prediction gap.

use std::sync::OnceLock;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::{CommModel, TopologyVariant};
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::CylinderSpec;
use hemocloud_obs::{Render, Snapshot};
use hemocloud_sched::{
    fabric_demo_config, fabric_demo_jobs, fabric_demo_pools, run_fabric_demo, Campaign,
    CampaignReport,
};

/// The fabric demo is expensive in debug builds; run it once and share
/// the report, its JSON, and the obs snapshot across tests.
fn fabric_demo() -> &'static (CampaignReport, String, Snapshot) {
    static DEMO: OnceLock<(CampaignReport, String, Snapshot)> = OnceLock::new();
    DEMO.get_or_init(|| {
        let (report, snapshot) = run_fabric_demo(42);
        let json = report.to_json();
        (report, json, snapshot)
    })
}

#[test]
fn fabric_demo_completes_cleanly_on_the_spread_pool() {
    let (report, json, _) = fabric_demo();
    assert_eq!(report.jobs, 10, "{json}");
    assert_eq!(report.completed, 10, "every honest fault-free job lands");
    assert_eq!(report.faults, 0, "fault injection is off in the demo");
    assert_eq!(report.guard_kills, 0);
    assert_eq!(report.rejected, 0);
    // Every placement ran routed on the spread topology, and the report
    // says so per row.
    assert_eq!(report.placements.len(), 10);
    for rec in &report.placements {
        assert_eq!(rec.topology.name(), "spread", "placement {} mislabelled", rec.job);
        assert_eq!(rec.nodes, 2, "16 ranks on 8-core nodes is 2 nodes");
    }
}

#[test]
fn fabric_demo_is_reproducible_and_shard_invariant() {
    let (_, json, snapshot) = fabric_demo();
    // Rerun at the same seed: report AND the full obs render (per-link
    // byte counters included) must not move by a byte.
    let (again_report, again_snap) = run_fabric_demo(42);
    assert_eq!(*json, again_report.to_json(), "rerun changed the report");
    assert_eq!(
        snapshot.to_json(Render::Full),
        again_snap.to_json(Render::Full),
        "rerun changed the obs snapshot"
    );
    // Shard count is pure event-queue layout: the shared-fabric
    // contention context is gathered in job-index order from the pool's
    // active set, so the report must be byte-identical at any shard
    // count even though co-scheduled jobs price each other's traffic.
    let run = |shards: usize| {
        let mut config = fabric_demo_config(42);
        config.shards = shards;
        let mut campaign = Campaign::new(config, fabric_demo_pools());
        for job in fabric_demo_jobs() {
            campaign.submit(job);
        }
        campaign.run().to_json()
    };
    for shards in [2, 4] {
        assert_eq!(*json, run(shards), "report changed at {shards} shards");
    }
}

#[test]
fn per_link_delivered_bytes_reconcile_exactly_with_eq9() {
    let (report, _, snapshot) = fabric_demo();
    assert_eq!(report.completed, 10, "reconciliation needs fault-free runs");

    // Independently rebuild the Eq. 9 graph for the demo's one prepared
    // shape (cyl10, 16 ranks, CSP-2 Small) and price a single step's
    // internodal bytes from its flows.
    let grid = CylinderSpec::default().with_resolution(10).build();
    let workload = Workload::harvey(&grid, 1);
    let prepared = PreparedRun::new_with_comm(
        &Platform::csp2_small(),
        &grid,
        &workload.kernel,
        16,
        &Overheads::default(),
        CommModel::Routed(TopologyVariant::Spread),
    )
    .expect("demo shape is feasible");
    let per_step_bytes: u64 = prepared
        .flows(&[0, 1], 0)
        .iter()
        .map(|f| {
            assert_eq!(f.bytes.fract(), 0.0, "Eq. 9 bytes are integral");
            f.bytes as u64
        })
        .sum();
    assert!(per_step_bytes > 0, "2-node cyl10 must cross the interconnect");

    // Total steps actually delivered: all jobs honest (hidden factor 1)
    // and fault-free, so each completes exactly its declared steps.
    let expected: u64 = fabric_demo_jobs()
        .iter()
        .map(|j| j.workload.steps * per_step_bytes)
        .sum();

    let delivered = snapshot.counter_family_total("fabric.pool0.link.delivered_bytes");
    assert_eq!(
        delivered, expected,
        "per-link delivered bytes must sum exactly to the Eq. 9 total"
    );
    // Forwarded counts every hop, delivered only the last: spread routes
    // are 2 hops same-rack and 4 hops cross-rack, so strictly more bytes
    // are forwarded than delivered whenever any flow crosses a rack.
    let forwarded = snapshot.counter_family_total("fabric.pool0.link.forwarded_bytes");
    assert!(
        forwarded > delivered,
        "cross-rack routes must forward through intermediate links \
         (forwarded {forwarded} vs delivered {delivered})"
    );
    // And the roll-up gauge agrees with the family sum.
    match snapshot.get("fabric.pool0.delivered_bytes_total") {
        Some(hemocloud_obs::Sample::Gauge(v)) => {
            assert_eq!(*v, expected as f64, "roll-up gauge disagrees with family sum");
        }
        other => panic!("delivered_bytes_total: expected gauge, got {other:?}"),
    }
}

#[test]
fn co_scheduled_jobs_run_measurably_slower_than_isolated() {
    let (report, _, _) = fabric_demo();
    // Solo baseline: the same first job, alone on the same pool, same
    // seed — its noise stream (seeded by job index / attempt / slice) is
    // identical, so any runtime difference is contention.
    let mut solo = Campaign::new(fabric_demo_config(42), fabric_demo_pools());
    solo.submit(fabric_demo_jobs().remove(0));
    let solo_report = solo.run();
    assert_eq!(solo_report.completed, 1);

    let solo_job = &solo_report.job_reports[0];
    let demo_job = report
        .job_reports
        .iter()
        .find(|j| j.name == solo_job.name)
        .expect("job 0 present in the demo report");
    assert!(
        demo_job.run_seconds > solo_job.run_seconds * 1.01,
        "co-scheduled run {} s not measurably slower than isolated {} s",
        demo_job.run_seconds,
        solo_job.run_seconds
    );
}

#[test]
fn calibration_closes_the_contention_gap() {
    let (report, json, _) = fabric_demo();
    let before = report
        .mape_first_quartile_uncalibrated_pct
        .expect("uncalibrated placements exist");
    let after = report.mape_calibrated_pct.expect("calibrated placements exist");
    assert!(
        after < before,
        "calibrated MAPE {after}% must beat uncalibrated {before}%\n{json}"
    );
    assert!(report.mape_calibrated_count > 0);
}
