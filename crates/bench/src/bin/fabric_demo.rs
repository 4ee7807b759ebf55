//! Fabric-contention record: run the seeded fabric demo campaign — ten
//! identical 2-node jobs contending pairwise on a spread topology's
//! oversubscribed trunks — and persist its [`CampaignReport`] JSON as
//! `CAMPAIGN_fabric.json`, the committed evidence that routed contention
//! is deterministic, exactly accounted, and calibratable.
//!
//! * `OUT_DIR=<dir>` is where `CAMPAIGN_fabric.json` and
//!   `OBS_fabric.json` go (default: the current directory). The latter is
//!   the campaign's metrics snapshot — including the
//!   `fabric.pool0.link.*` per-link byte counter families — as
//!   deterministic JSON, which `check` compares across reruns.
//!
//! The binary exits non-zero unless every acceptance property holds
//! (all but 3 and 6 are `gates::gate_fabric`, run on the record it
//! writes; the shard comparison is not serialized and the contention
//! counters live in the obs snapshot, so those two stay here):
//!
//! 1. every job completes fault-free (the byte reconciliation needs
//!    uncut slices);
//! 2. the per-link delivered-byte counters sum **exactly** to the Eq. 9
//!    message-graph total (integer equality, no tolerance);
//! 3. the report is byte-identical across 1/2/4 event-queue shards;
//! 4. a co-scheduled job runs measurably slower than the same job
//!    isolated on the same pool at the same seed;
//! 5. the calibrated placement MAPE beats the uncalibrated one — the
//!    refinement loop closes the contention-induced gap;
//! 6. contention is priced per distinct active set, not per slice:
//!    `sched.contention.exchanges` < `sched.contention.slices`.
//!
//! The run also goes through `hemocloud_sched::audit`, the sweep's
//! checker table: any violation fails the binary, and the Eq. 9 total of
//! property 2 is the one the audit rebuilt from the submitted jobs.
//!
//! [`CampaignReport`]: hemocloud_sched::CampaignReport

use hemocloud_bench::{gates, provenance};
use hemocloud_obs::json::Value;
use hemocloud_obs::Render;
use hemocloud_sched::{
    audit, fabric_demo_config, fabric_demo_jobs, fabric_demo_pools, run_fabric_demo, Campaign,
};

/// The campaign seed of the committed `CAMPAIGN_fabric.json`.
const SEED: u64 = 42;

fn main() {
    let (report, obs) = run_fabric_demo(SEED);

    // The sweep's checker table judges this run too; its Eq. 9 checker
    // rebuilds the byte expectation from the submitted jobs.
    let audit = audit(&report, &fabric_demo_jobs(), &fabric_demo_pools(), &obs);
    let found = audit.violations.iter();
    let mut failures: Vec<String> = found
        .map(|v| format!("fabric_demo: audit {}: {}", v.checker, v.what))
        .collect();
    let eq9_bytes = audit.eq9_expected_bytes;
    let delivered = audit.eq9_delivered_bytes;
    let forwarded = obs.counter_family_total("fabric.pool0.link.forwarded_bytes");
    let topology = report.placements.first().map_or("?", |r| r.topology.name());

    // Shard invariance: the shared-fabric contention context must not
    // observe event-queue layout.
    let run_sharded = |shards: usize| {
        let mut config = fabric_demo_config(SEED);
        config.shards = shards;
        let (sharded, _) = Campaign::run_jobs(config, fabric_demo_pools(), fabric_demo_jobs());
        sharded.to_json()
    };
    let reference = report.to_json();
    for shards in [2usize, 4] {
        if run_sharded(shards) != reference {
            failures.push(format!("fabric_demo: report changed at {shards} shards"));
        }
    }

    // Set-level pricing: the ten jobs run as recurring pairs, so far
    // fewer fabric exchanges than priced slices.
    let priced_slices = obs.counter("sched.contention.slices").unwrap_or(0);
    let exchanges = obs.counter("sched.contention.exchanges").unwrap_or(0);
    if !(0 < exchanges && exchanges < priced_slices) {
        failures.push(format!(
            "fabric_demo: {exchanges} fabric exchanges for {priced_slices} priced slices"
        ));
    }

    // Contention slowdown: the same first job, alone on the same pool at
    // the same seed, shares its noise stream — any difference is trunk
    // contention.
    let first = fabric_demo_jobs().into_iter().take(1);
    let (solo_report, _) = Campaign::run_jobs(fabric_demo_config(SEED), fabric_demo_pools(), first);
    let solo_job = &solo_report.job_reports[0];
    let demo_job = report
        .job_reports
        .iter()
        .find(|j| j.name == solo_job.name)
        .expect("job 0 present in demo report");
    let slowdown = demo_job.run_seconds / solo_job.run_seconds;

    let mut stamp = provenance::stamp();
    stamp.extend([
        ("fabric_topology", Value::Str(topology.into())),
        ("fabric_eq9_bytes", Value::UInt(eq9_bytes)),
        ("fabric_delivered_bytes", Value::UInt(delivered)),
        ("fabric_forwarded_bytes", Value::UInt(forwarded)),
        ("fabric_isolated_run_s", Value::Float(solo_job.run_seconds)),
        ("fabric_contended_run_s", Value::Float(demo_job.run_seconds)),
        ("fabric_contention_slowdown", Value::Float(slowdown)),
    ]);
    let json = report.to_json_stamped(&stamp);
    failures.extend(gates::gate_text(&json, gates::gate_fabric));

    println!(
        "fabric demo seed {SEED}: {} jobs -> {} completed on '{topology}' topology",
        report.jobs, report.completed
    );
    println!(
        "  Eq. 9 bytes {eq9_bytes} == delivered {delivered} (forwarded {forwarded}), \
         contention slowdown {slowdown:.3}x"
    );
    println!("  {priced_slices} slices priced from {exchanges} fabric exchanges");
    let mape = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.1}%"));
    println!(
        "  placement MAPE under contention: uncalibrated Q1 {} -> calibrated {}",
        mape(report.mape_first_quartile_uncalibrated_pct),
        mape(report.mape_calibrated_pct)
    );
    provenance::write_artifact("CAMPAIGN_fabric.json", &json);
    provenance::write_artifact("OBS_fabric.json", &obs.to_json(Render::Deterministic));

    gates::exit_on_failures(&failures);
}
