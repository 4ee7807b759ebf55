//! Acceptance tests for the routed-fabric contention cell the evaluation
//! sweep runs beside its grid: it must be byte-for-byte reproducible and
//! shard-invariant, its per-link delivered-byte counters must reconcile
//! *exactly* against the Eq. 9 halo message graph, co-scheduled jobs
//! must run measurably slower than an isolated run, and calibration must
//! close the contention-induced prediction gap.

use std::sync::OnceLock;

use hemocloud_cluster::exec::{Overheads, PreparedRun};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::topology::{CommModel, TopologyVariant};
use hemocloud_core::workload::Workload;
use hemocloud_geometry::anatomy::CylinderSpec;
use hemocloud_obs::Render;
use hemocloud_sched::{run_contention, ContentionCell};

/// The contention cell is expensive in debug builds; run it once and
/// share it across tests.
fn contention() -> &'static ContentionCell {
    static CELL: OnceLock<ContentionCell> = OnceLock::new();
    CELL.get_or_init(run_contention)
}

#[test]
fn contention_cell_completes_cleanly_on_the_spread_pool() {
    let cell = contention();
    let report = &cell.cell.report;
    let violations: Vec<String> = cell.cell.violations().collect();
    assert_eq!(violations, Vec::<String>::new(), "the audit finds nothing");
    assert_eq!(report.jobs, 10, "{}", report.to_json());
    assert_eq!(report.completed, 10, "every honest fault-free job lands");
    assert_eq!(report.faults, 0, "fault injection is off in the cell");
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
fn contention_cell_is_reproducible_and_shard_invariant() {
    let cell = contention();
    // Rerun: report AND the full obs render (per-link byte counters
    // included) must not move by a byte.
    let again = run_contention();
    assert_eq!(cell.cell.report.to_json(), again.cell.report.to_json(), "rerun changed the report");
    assert_eq!(
        cell.snapshot.to_json(Render::Full),
        again.snapshot.to_json(Render::Full),
        "rerun changed the obs snapshot"
    );
    // Shard count is pure event-queue layout: the shared-fabric
    // contention context is gathered in job-index order from the pool's
    // active set, so the report is byte-identical at 1, 2 and 4 shards
    // even though co-scheduled jobs price each other's traffic.
    assert!(cell.shard_invariant, "report changed across 1/2/4 shards");
}

#[test]
fn per_link_delivered_bytes_reconcile_exactly_with_eq9() {
    let cell = contention();
    assert_eq!(cell.cell.report.completed, 10, "reconciliation needs fault-free runs");

    // Independently rebuild the Eq. 9 graph for the cell's one prepared
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
    .expect("the cell's shape is feasible");
    let per_step_bytes: u64 = prepared
        .flows(&[0, 1], 0)
        .iter()
        .map(|f| {
            assert_eq!(f.bytes.fract(), 0.0, "Eq. 9 bytes are integral");
            f.bytes as u64
        })
        .sum();
    assert!(per_step_bytes > 0, "2-node cyl10 must cross the interconnect");

    // Total steps actually delivered: all ten jobs honest (hidden factor
    // 1) and fault-free, so each completes exactly its declared
    // 14M + 2M·(i mod 4) steps.
    let steps: u64 = (0..10u64).map(|i| 14_000_000 + 2_000_000 * (i % 4)).sum();
    let expected = steps * per_step_bytes;

    let snapshot = &cell.snapshot;
    let delivered = snapshot.counter_family_total("fabric.pool0.link.delivered_bytes");
    assert_eq!(
        delivered, expected,
        "per-link delivered bytes must sum exactly to the Eq. 9 total"
    );
    // The witnesses the evaluation report renders are these same totals.
    let audit = &cell.cell.audit;
    assert!(audit.eq9_checked);
    assert_eq!((audit.eq9_expected_bytes, audit.eq9_delivered_bytes), (expected, delivered));
    // Forwarded counts every hop, delivered only the last: spread routes
    // are 2 hops same-rack and 4 hops cross-rack, so strictly more bytes
    // are forwarded than delivered whenever any flow crosses a rack.
    let forwarded = snapshot.counter_family_total("fabric.pool0.link.forwarded_bytes");
    assert_eq!(cell.forwarded_bytes, forwarded);
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
    let cell = contention();
    // The isolated run is the same first job, alone on the same pool,
    // same seed — its noise stream (seeded by job index / attempt /
    // slice) is identical, so any runtime difference is contention.
    assert_eq!(cell.contended_run_s, cell.cell.report.job_reports[0].run_seconds);
    assert!(
        cell.slowdown() > 1.01,
        "co-scheduled run {} s not measurably slower than isolated {} s",
        cell.contended_run_s,
        cell.isolated_run_s
    );
    // The ten jobs run as recurring pairs: contention is priced per
    // distinct active set, so far fewer fabric exchanges than slices.
    let counter = |name: &str| cell.snapshot.counter(name).unwrap_or(0);
    assert_eq!(cell.priced_slices, counter("sched.contention.slices"));
    assert_eq!(cell.exchanges, counter("sched.contention.exchanges"));
    assert!(0 < cell.exchanges && cell.exchanges < cell.priced_slices);
}

#[test]
fn calibration_closes_the_contention_gap() {
    let report = &contention().cell.report;
    let before = report
        .mape_first_quartile_uncalibrated_pct
        .expect("uncalibrated placements exist");
    let after = report.mape_calibrated_pct.expect("calibrated placements exist");
    assert!(
        after < before,
        "calibrated MAPE {after}% must beat uncalibrated {before}%\n{}",
        report.to_json()
    );
    assert!(report.mape_calibrated_count > 0);
}
