//! The campaign report: what the paper's Discussion says an operational
//! deployment must surface — per-platform utilization and cost, SLO
//! attainment, guard activity, retry accounting, and the model-refinement
//! trajectory (placement MAPE dropping as observations accumulate).
//!
//! [`CampaignReport::to_json`] renders a stable JSON document through
//! the workspace's one writer (`hemocloud_obs::json`): same campaign
//! seed, same bytes. Statistics that have no defined value on a
//! degenerate campaign — a MAPE with zero measured placements, a
//! percentile over an empty error set — are `Option`s rendered as JSON
//! `null`, never `NaN` (which is not valid JSON at all); each MAPE
//! carries its sample count so a consumer can tell "no data" from
//! "averaged over two placements".

use hemocloud_cluster::topology::CommModel;
use hemocloud_obs::json::{Layout, Value, Writer};

use crate::job::JobOutcome;

/// One placement decision and how reality answered it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRecord {
    /// Job index in submission order.
    pub job: usize,
    /// Job name.
    pub job_name: String,
    /// Attempt number this placement started (1 = first run).
    pub attempt: u32,
    /// Abbreviation of the platform `Objective::pick` chose.
    pub platform: String,
    /// That platform's pool: its index in [`CampaignReport::platforms`]
    /// (and in the `PoolSpec` list the campaign was built over).
    pub pool: usize,
    /// Ranks of the chosen option.
    pub ranks: usize,
    /// Whole nodes occupied.
    pub nodes: usize,
    /// Whether the prediction behind this placement was calibrated (a
    /// platform or global `ModelCalibrator` had enough observations).
    pub calibrated: bool,
    /// The step time the placement decision believed, seconds.
    pub predicted_step_s: f64,
    /// The first measured step time of the attempt, seconds. `None` only
    /// if the attempt died before its first slice finished.
    pub measured_step_s: Option<f64>,
    /// Campaign clock at dispatch, seconds.
    pub time_s: f64,
    /// Communication pricing of the chosen pool: scalar, or the routed
    /// topology variant the job's messages were forwarded over.
    pub topology: CommModel,
}

impl PlacementRecord {
    /// Absolute percentage error of the placement prediction, if
    /// measured.
    pub fn abs_pct_error(&self) -> Option<f64> {
        self.measured_step_s.map(|m| {
            100.0 * (self.predicted_step_s - m).abs() / m
        })
    }
}

/// Mean absolute percentage error over a set of placements; `None` when
/// no placement in the set has a measurement.
pub fn placement_mape(records: &[&PlacementRecord]) -> Option<f64> {
    let errs: Vec<f64> = records.iter().filter_map(|r| r.abs_pct_error()).collect();
    if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

/// Nearest-rank percentile (`pct` in (0, 100]) of an unsorted sample;
/// `None` on an empty sample. Nearest-rank keeps the result an actual
/// member of the sample, so a p99 over one element is that element, not
/// an interpolation artifact.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Per-platform campaign accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformReport {
    /// Platform abbreviation.
    pub platform: String,
    /// Pool size, nodes.
    pub nodes_total: usize,
    /// High-water mark of simultaneously busy nodes — how much of the
    /// reserved allocation the campaign ever needed at once.
    pub peak_nodes_busy: usize,
    /// Attempts dispatched here.
    pub attempts: usize,
    /// Node preemptions/failures injected here.
    pub faults: usize,
    /// Guard kills here.
    pub guard_kills: usize,
    /// Dollars billed here.
    pub cost_dollars: f64,
    /// Busy node-seconds accumulated.
    pub busy_node_seconds: f64,
    /// Integer billed node-seconds: every attempt's occupancy rounded up
    /// to the billing granularity independently (saturating at
    /// `u64::MAX`). Per-attempt round-up makes this ≥ `busy_node_seconds`
    /// always — an invariant the sweep harness checks per cell.
    pub billed_node_seconds: u64,
    /// busy node-seconds / (nodes × makespan).
    pub utilization: f64,
}

/// Per-job campaign accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// How the job left the system; rendered as its
    /// [`JobOutcome::label`].
    pub outcome: JobOutcome,
    /// Dollars billed across all attempts.
    pub cost_dollars: f64,
    /// Node-occupancy wall seconds across all attempts.
    pub run_seconds: f64,
    /// Attempts started.
    pub attempts: u32,
    /// Faults suffered.
    pub faults: u32,
    /// Steps lost to checkpoint rollback and killed slices.
    pub wasted_steps: u64,
    /// Campaign clock when the job left the system.
    pub finish_s: f64,
    /// Deadline-SLO verdict: `None` for jobs without a deadline
    /// objective.
    pub slo_met: Option<bool>,
}

/// The full campaign summary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs killed by their guard.
    pub guard_kills: usize,
    /// Jobs that exhausted retries.
    pub failed: usize,
    /// Jobs admission rejected.
    pub rejected: usize,
    /// Faults injected.
    pub faults: usize,
    /// Retry attempts dispatched.
    pub retries: usize,
    /// Jobs that faulted at least once and still completed — successful
    /// retries.
    pub retried_jobs_completed: usize,
    /// Campaign makespan, seconds (last event processed).
    pub makespan_s: f64,
    /// Total dollars billed.
    pub total_cost_dollars: f64,
    /// Steps lost to rollback/kills, campaign-wide.
    pub wasted_steps: u64,
    /// Deadline jobs that met their deadline.
    pub slo_attained: usize,
    /// Deadline jobs total.
    pub slo_total: usize,
    /// MAPE (%) of measured uncalibrated placements within the first
    /// quartile of all placements — the "before" of the refinement loop.
    /// `None` when no such placement was measured (e.g. an all-rejected
    /// campaign, or one so small calibration never engaged and nothing
    /// finished a slice).
    pub mape_first_quartile_uncalibrated_pct: Option<f64>,
    /// Measured placements behind the uncalibrated MAPE.
    pub mape_first_quartile_uncalibrated_count: usize,
    /// MAPE (%) of measured calibrated placements — the "after". `None`
    /// when no calibrated placement was measured.
    pub mape_calibrated_pct: Option<f64>,
    /// Measured placements behind the calibrated MAPE.
    pub mape_calibrated_count: usize,
    /// Median absolute placement error (%) over the retained placement
    /// log, calibrated or not; `None` when nothing was measured.
    pub error_p50_pct: Option<f64>,
    /// 99th-percentile (nearest-rank) absolute placement error (%) over
    /// the retained placement log; `None` when nothing was measured.
    pub error_p99_pct: Option<f64>,
    /// Placements dispatched over the whole campaign. May exceed
    /// `placements.len()` when the retained log was capped
    /// (`CampaignConfig::max_placement_log`); the MAPE fields always
    /// cover all of them.
    pub placements_total: usize,
    /// Events the scheduler processed (arrivals, retries, slice ends) —
    /// identical at any shard count.
    pub events_processed: u64,
    /// Per-platform accounting.
    pub platforms: Vec<PlatformReport>,
    /// Per-job accounting, submission order (possibly capped by
    /// `CampaignConfig::max_job_reports`).
    pub job_reports: Vec<JobReport>,
    /// Retained placements in dispatch order (possibly capped).
    pub placements: Vec<PlacementRecord>,
}

impl CampaignReport {
    /// Recompute the refinement-trajectory MAPEs from the *retained*
    /// placement log: the measured uncalibrated slice of the
    /// chronologically first quartile versus all measured calibrated
    /// placements. Sets the MAPE and count fields and returns
    /// `(first_quartile_uncalibrated, calibrated)`.
    ///
    /// The scheduler fills these fields from exact online accumulators
    /// that cover *every* placement; calling this on a report whose log
    /// was capped recomputes them over the retained subset only. It is a
    /// consumer-side utility (and the cross-check the campaign tests use
    /// on uncapped reports), not part of report construction.
    pub fn compute_mapes(&mut self) -> (Option<f64>, Option<f64>) {
        let n = self.placements.len();
        let q1 = n.div_ceil(4);
        let first_q: Vec<&PlacementRecord> = self
            .placements
            .iter()
            .take(q1)
            .filter(|r| !r.calibrated && r.measured_step_s.is_some())
            .collect();
        let calibrated: Vec<&PlacementRecord> = self
            .placements
            .iter()
            .filter(|r| r.calibrated && r.measured_step_s.is_some())
            .collect();
        self.mape_first_quartile_uncalibrated_pct = placement_mape(&first_q);
        self.mape_first_quartile_uncalibrated_count = first_q.len();
        self.mape_calibrated_pct = placement_mape(&calibrated);
        self.mape_calibrated_count = calibrated.len();
        (
            self.mape_first_quartile_uncalibrated_pct,
            self.mape_calibrated_pct,
        )
    }

    /// Compute the p50/p99 absolute-error percentiles over every measured
    /// placement in the retained log and set the fields. `None`s (and
    /// leaves `None`) when nothing was measured.
    pub fn compute_error_percentiles(&mut self) {
        let errs: Vec<f64> = self
            .placements
            .iter()
            .filter_map(|r| r.abs_pct_error())
            .collect();
        self.error_p50_pct = percentile(&errs, 50.0);
        self.error_p99_pct = percentile(&errs, 99.0);
    }

    /// The campaign-wide figures the scheduler accumulates over every job
    /// and placement whatever the log caps
    /// ([`CampaignConfig::max_placement_log`],
    /// [`CampaignConfig::max_job_reports`]): `(name, value)`, a float by
    /// its bits, an undefined one `None`. Two runs of one scenario that
    /// differ only in their caps agree on every entry. The error
    /// percentiles are not among them: they are taken over the retained
    /// log.
    ///
    /// [`CampaignConfig::max_placement_log`]: crate::CampaignConfig::max_placement_log
    /// [`CampaignConfig::max_job_reports`]: crate::CampaignConfig::max_job_reports
    pub fn exact_aggregates(&self) -> [(&'static str, Option<u64>); 19] {
        let n = |v: usize| Some(v as u64);
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        [
            ("jobs", n(self.jobs)),
            ("events_processed", Some(self.events_processed)),
            ("makespan_s", bits(Some(self.makespan_s))),
            ("total_cost_dollars", bits(Some(self.total_cost_dollars))),
            ("wasted_steps", Some(self.wasted_steps)),
            ("completed", n(self.completed)),
            ("guard_kills", n(self.guard_kills)),
            ("failed", n(self.failed)),
            ("rejected", n(self.rejected)),
            ("faults", n(self.faults)),
            ("retries", n(self.retries)),
            ("retried_jobs_completed", n(self.retried_jobs_completed)),
            ("slo_attained", n(self.slo_attained)),
            ("slo_total", n(self.slo_total)),
            ("placements_total", n(self.placements_total)),
            ("mape_q1_uncalibrated_pct", bits(self.mape_first_quartile_uncalibrated_pct)),
            ("mape_q1_uncalibrated_count", n(self.mape_first_quartile_uncalibrated_count)),
            ("mape_calibrated_pct", bits(self.mape_calibrated_pct)),
            ("mape_calibrated_count", n(self.mape_calibrated_count)),
        ]
    }

    /// Render the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        self.to_json_stamped(&[])
    }

    /// [`CampaignReport::to_json`] with a leading `"provenance"` object
    /// of typed `(key, value)` fields (e.g. the git revision and
    /// `rustc -V` of the run that produced the report, or a binary's
    /// witness values). With no fields the rendering is exactly
    /// `to_json`'s, so an artifact only changes when a caller opts in.
    pub fn to_json_stamped(&self, provenance: &[(&str, Value)]) -> String {
        // An undefined statistic renders as JSON null, and so does a
        // non-finite one (`Writer::fixed`): NaN is not JSON at all.
        let mut w = Writer::new();
        w.begin_object(Layout::Block);
        if !provenance.is_empty() {
            w.key("provenance").members(provenance);
        }
        w.key("report").string("hemocloud_campaign");
        w.key("seed").uint(self.seed);
        w.key("jobs").uint(self.jobs as u64);
        w.key("completed").uint(self.completed as u64);
        w.key("guard_kills").uint(self.guard_kills as u64);
        w.key("failed").uint(self.failed as u64);
        w.key("rejected").uint(self.rejected as u64);
        w.key("faults").uint(self.faults as u64);
        w.key("retries").uint(self.retries as u64);
        w.key("retried_jobs_completed").uint(self.retried_jobs_completed as u64);
        w.key("makespan_s").fixed(self.makespan_s, 3);
        w.key("total_cost_dollars").fixed(self.total_cost_dollars, 6);
        w.key("wasted_steps").uint(self.wasted_steps);
        w.key("slo").begin_object(Layout::Inline);
        w.key("attained").uint(self.slo_attained as u64);
        w.key("total").uint(self.slo_total as u64);
        w.end();
        w.key("refinement").begin_object(Layout::Inline);
        w.key("mape_first_quartile_uncalibrated_pct")
            .opt_fixed(self.mape_first_quartile_uncalibrated_pct, 4);
        w.key("mape_first_quartile_uncalibrated_count")
            .uint(self.mape_first_quartile_uncalibrated_count as u64);
        w.key("mape_calibrated_pct").opt_fixed(self.mape_calibrated_pct, 4);
        w.key("mape_calibrated_count").uint(self.mape_calibrated_count as u64);
        w.key("error_p50_pct").opt_fixed(self.error_p50_pct, 4);
        w.key("error_p99_pct").opt_fixed(self.error_p99_pct, 4);
        w.end();
        w.key("placements_total").uint(self.placements_total as u64);
        w.key("events_processed").uint(self.events_processed);
        w.key("platforms").begin_array(Layout::Block);
        for p in &self.platforms {
            w.begin_object(Layout::Inline);
            w.key("platform").string(&p.platform);
            w.key("nodes_total").uint(p.nodes_total as u64);
            w.key("peak_nodes_busy").uint(p.peak_nodes_busy as u64);
            w.key("attempts").uint(p.attempts as u64);
            w.key("faults").uint(p.faults as u64);
            w.key("guard_kills").uint(p.guard_kills as u64);
            w.key("cost_dollars").fixed(p.cost_dollars, 6);
            w.key("busy_node_seconds").fixed(p.busy_node_seconds, 3);
            w.key("billed_node_seconds").uint(p.billed_node_seconds);
            w.key("utilization").fixed(p.utilization, 6);
            w.end();
        }
        w.end();
        w.key("job_reports").begin_array(Layout::Block);
        for j in &self.job_reports {
            w.begin_object(Layout::Inline);
            w.key("name").string(&j.name);
            w.key("outcome").string(j.outcome.label());
            w.key("cost_dollars").fixed(j.cost_dollars, 6);
            w.key("run_seconds").fixed(j.run_seconds, 3);
            w.key("attempts").uint(j.attempts.into());
            w.key("faults").uint(j.faults.into());
            w.key("wasted_steps").uint(j.wasted_steps);
            w.key("finish_s").fixed(j.finish_s, 3);
            match j.slo_met {
                None => w.key("slo_met").null(),
                Some(met) => w.key("slo_met").bool(met),
            }
            w.end();
        }
        w.end();
        w.key("placements").begin_array(Layout::Block);
        for r in &self.placements {
            w.begin_object(Layout::Inline);
            w.key("job").uint(r.job as u64);
            w.key("name").string(&r.job_name);
            w.key("attempt").uint(r.attempt.into());
            w.key("platform").string(&r.platform);
            w.key("topology").string(r.topology.name());
            w.key("ranks").uint(r.ranks as u64);
            w.key("nodes").uint(r.nodes as u64);
            w.key("calibrated").bool(r.calibrated);
            w.key("predicted_step_s").fixed(r.predicted_step_s, 9);
            w.key("measured_step_s").opt_fixed(r.measured_step_s, 9);
            w.key("time_s").fixed(r.time_s, 3);
            w.end();
        }
        w.end();
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_obs::json::parse;

    fn record(order: usize, calibrated: bool, pred: f64, meas: Option<f64>) -> PlacementRecord {
        PlacementRecord {
            job: order,
            job_name: format!("job-{order}"),
            attempt: 1,
            platform: "CSP-2".into(),
            pool: 0,
            ranks: 16,
            nodes: 1,
            calibrated,
            predicted_step_s: pred,
            measured_step_s: meas,
            time_s: order as f64,
            topology: CommModel::Scalar,
        }
    }

    fn empty_report(placements: Vec<PlacementRecord>) -> CampaignReport {
        CampaignReport {
            seed: 1,
            jobs: placements.len(),
            completed: placements.len(),
            guard_kills: 0,
            failed: 0,
            rejected: 0,
            faults: 0,
            retries: 0,
            retried_jobs_completed: 0,
            makespan_s: 8.0,
            total_cost_dollars: 1.0,
            wasted_steps: 0,
            slo_attained: 0,
            slo_total: 0,
            mape_first_quartile_uncalibrated_pct: None,
            mape_first_quartile_uncalibrated_count: 0,
            mape_calibrated_pct: None,
            mape_calibrated_count: 0,
            error_p50_pct: None,
            error_p99_pct: None,
            placements_total: placements.len(),
            events_processed: 0,
            platforms: vec![],
            job_reports: vec![],
            placements,
        }
    }

    #[test]
    fn abs_pct_error_is_relative_to_measurement() {
        let r = record(0, false, 0.5, Some(1.0));
        assert!((r.abs_pct_error().unwrap() - 50.0).abs() < 1e-12);
        assert!(record(0, false, 0.5, None).abs_pct_error().is_none());
    }

    #[test]
    fn mapes_split_first_quartile_uncalibrated_vs_calibrated() {
        // 8 placements: first 2 (= ceil(8/4)) uncalibrated with 50% error,
        // the rest calibrated with 10% error.
        let mut placements = Vec::new();
        for i in 0..8 {
            let calibrated = i >= 2;
            let err = if calibrated { 0.9 } else { 0.5 };
            placements.push(record(i, calibrated, err, Some(1.0)));
        }
        let mut report = empty_report(placements);
        let (q1, cal) = report.compute_mapes();
        let (q1, cal) = (q1.unwrap(), cal.unwrap());
        assert!((q1 - 50.0).abs() < 1e-9, "q1 {q1}");
        assert!((cal - 10.0).abs() < 1e-9, "cal {cal}");
        assert!(cal < q1);
        assert_eq!(report.mape_first_quartile_uncalibrated_count, 2);
        assert_eq!(report.mape_calibrated_count, 6);
    }

    #[test]
    fn degenerate_mapes_are_none_not_nan() {
        // No placements at all (e.g. an all-rejected campaign).
        let mut report = empty_report(vec![]);
        let (q1, cal) = report.compute_mapes();
        assert!(q1.is_none() && cal.is_none());
        assert_eq!(report.mape_first_quartile_uncalibrated_count, 0);

        // One placement that died before its first slice measured: still
        // no NaN anywhere, and the single-entry percentile is None too.
        let mut report = empty_report(vec![record(0, false, 0.5, None)]);
        let (q1, cal) = report.compute_mapes();
        assert!(q1.is_none() && cal.is_none());
        report.compute_error_percentiles();
        assert!(report.error_p50_pct.is_none() && report.error_p99_pct.is_none());

        // The rendered JSON must carry null, and parse: a NaN or inf
        // token anywhere would not.
        let doc = parse(&report.to_json()).expect("valid JSON");
        for stat in [
            "mape_first_quartile_uncalibrated_pct",
            "mape_calibrated_pct",
            "error_p50_pct",
        ] {
            assert_eq!(doc.at(&format!("refinement.{stat}")), Some(&Value::Null));
        }
        assert_eq!(
            doc.get("placements").and_then(Value::as_array).unwrap()[0].get("measured_step_s"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 50.0), None);
        // Single sample: every percentile is that sample.
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        // 1..=100: pNN is exactly NN under nearest-rank.
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        // Unsorted input is handled; the result is a sample member.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));

        let mut report = empty_report(vec![
            record(0, false, 1.5, Some(1.0)), // 50% error
            record(1, true, 1.1, Some(1.0)),  // 10% error
            record(2, true, 1.2, Some(1.0)),  // 20% error
        ]);
        report.compute_error_percentiles();
        assert!((report.error_p50_pct.unwrap() - 20.0).abs() < 1e-9);
        assert!((report.error_p99_pct.unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_deterministic_and_tagged() {
        let mut report = CampaignReport {
            seed: 7,
            jobs: 1,
            completed: 1,
            guard_kills: 0,
            failed: 0,
            rejected: 0,
            faults: 0,
            retries: 0,
            retried_jobs_completed: 0,
            makespan_s: 10.0,
            total_cost_dollars: 0.5,
            wasted_steps: 0,
            slo_attained: 0,
            slo_total: 0,
            mape_first_quartile_uncalibrated_pct: None,
            mape_first_quartile_uncalibrated_count: 0,
            mape_calibrated_pct: None,
            mape_calibrated_count: 0,
            error_p50_pct: None,
            error_p99_pct: None,
            placements_total: 1,
            events_processed: 2,
            platforms: vec![PlatformReport {
                platform: "CSP-1".into(),
                nodes_total: 2,
                peak_nodes_busy: 1,
                attempts: 1,
                faults: 0,
                guard_kills: 0,
                cost_dollars: 0.5,
                busy_node_seconds: 10.0,
                billed_node_seconds: 10,
                utilization: 0.5,
            }],
            job_reports: vec![JobReport {
                name: "only".into(),
                outcome: JobOutcome::Completed,
                cost_dollars: 0.5,
                run_seconds: 10.0,
                attempts: 1,
                faults: 0,
                wasted_steps: 0,
                finish_s: 10.0,
                slo_met: None,
            }],
            placements: vec![record(0, false, 0.5, Some(1.0))],
        };
        report.compute_mapes();
        report.compute_error_percentiles();
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"report\": \"hemocloud_campaign\""));
        assert!(a.contains("\"slo_met\": null"));
        assert!(a.contains("\"placements_total\": 1"));
        assert!(a.contains("\"events_processed\": 2"));
        assert!(a.contains("\"peak_nodes_busy\": 1"));
        assert!(a.contains("\"mape_first_quartile_uncalibrated_pct\": 50.0000"));
        assert!(a.starts_with('{') && a.ends_with("}\n"));

        // Provenance prepends one object right after the opening brace and
        // leaves the rest of the rendering byte-identical.
        assert_eq!(report.to_json_stamped(&[]), a);
        let p = report.to_json_stamped(&[
            ("git_rev", Value::Str("abc123".into())),
            ("bytes", Value::UInt(u64::MAX)),
        ]);
        let expected_head =
            "{\n  \"provenance\": {\"git_rev\": \"abc123\", \"bytes\": 18446744073709551615},\n";
        assert!(p.starts_with(expected_head), "got head: {}", &p[..120.min(p.len())]);
        assert_eq!(&p[expected_head.len()..], &a[2..]);
    }
    #[test]
    fn hostile_strings_and_non_finite_numbers_render_valid_json() {
        let hostile = "a\"b\\\u{1}\n";
        let mut rec = record(0, false, f64::NAN, Some(f64::INFINITY));
        rec.job_name = hostile.into();
        rec.platform = hostile.into();
        let mut report = empty_report(vec![rec]);
        report.makespan_s = f64::NEG_INFINITY;
        report.job_reports.push(JobReport {
            name: hostile.into(),
            outcome: JobOutcome::Rejected { reason: hostile.into() },
            cost_dollars: f64::NAN,
            run_seconds: 1.0,
            attempts: 1,
            faults: 0,
            wasted_steps: 0,
            finish_s: 1.0,
            slo_met: Some(true),
        });
        let doc = parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.get("makespan_s"), Some(&Value::Null));
        let job = &doc.get("job_reports").and_then(Value::as_array).unwrap()[0];
        assert_eq!(job.get("name").and_then(Value::as_str), Some(hostile));
        assert_eq!(job.get("outcome").and_then(Value::as_str), Some("rejected"));
        assert_eq!(job.get("cost_dollars"), Some(&Value::Null));
        let placed = &doc.get("placements").and_then(Value::as_array).unwrap()[0];
        for key in ["name", "platform"] {
            assert_eq!(placed.get(key).and_then(Value::as_str), Some(hostile), "{key}");
        }
        assert_eq!(placed.get("predicted_step_s"), Some(&Value::Null));
        assert_eq!(placed.get("measured_step_s"), Some(&Value::Null));
    }
}
