//! Campaign jobs: what a user submits and how a run can end.

use std::sync::Arc;

use hemocloud_core::dashboard::Objective;
use hemocloud_core::workload::Workload;

/// One simulation job submitted to the campaign scheduler.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name.
    pub name: String,
    /// The simulation to run: geometry, kernel and *declared* step count.
    ///
    /// Shared, not owned: a `Workload` embeds its whole voxel grid, so a
    /// million-job campaign whose jobs draw from a few dozen geometries
    /// must not clone the grid per job. Submitters build each distinct
    /// workload once and hand every job an `Arc` to it.
    pub workload: Arc<Workload>,
    /// Key identifying the job's geometry for model caching: jobs that
    /// share a `model_key` (same grid) share fitted [`GeneralModel`]s per
    /// platform instead of re-sweeping the decomposition.
    ///
    /// [`GeneralModel`]: hemocloud_core::general::GeneralModel
    pub model_key: String,
    /// Placement objective: its `Objective::pick` chooses among the
    /// in-budget options on every placement try.
    pub objective: Objective,
    /// Guard tolerance fraction on the placement-time prediction (the
    /// paper's "10% tolerance" dial).
    pub tolerance: f64,
    /// Hard dollar budget for the whole job, all attempts included. An
    /// admission filter (options predicted to cost more are never
    /// offered) *and* a cap on the guard's dollar limit.
    pub budget_dollars: f64,
    /// Fault retries allowed before the job is declared failed.
    pub max_retries: u32,
    /// Steps between durable checkpoints: after a fault the job restarts
    /// from the last multiple of this, losing the work since.
    pub checkpoint_steps: u64,
    /// Hidden multiplier on the declared step count — the user's
    /// convergence misestimate. The scheduler predicts, prices, and
    /// guards with the *declared* steps; the simulation actually needs
    /// `declared × hidden_steps_factor`. Values well above the guard
    /// tolerance make the job a runaway the guard must kill mid-run.
    pub hidden_steps_factor: f64,
    /// Submission time, campaign seconds.
    pub submit_s: f64,
}

impl JobSpec {
    /// The number of steps the job *actually* needs before it converges.
    pub fn true_steps(&self) -> u64 {
        assert!(
            self.hidden_steps_factor > 0.0,
            "non-positive hidden_steps_factor"
        );
        (self.workload.steps as f64 * self.hidden_steps_factor).round() as u64
    }
}

/// How a job's campaign life ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to convergence within its limits.
    Completed,
    /// A guard limit was hit mid-run and the scheduler killed the job:
    /// *at* the wall-clock limit (the slice in flight is cut short), or
    /// after the slice that took it past the dollar limit.
    GuardKilled,
    /// Faulted more times than `max_retries` allowed.
    Failed,
    /// Never ran: no (platform, ranks) option satisfied the job's
    /// objective and budget, even on an empty pool.
    Rejected {
        /// Why admission refused the job.
        reason: String,
    },
}

impl JobOutcome {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::GuardKilled => "guard_killed",
            JobOutcome::Failed => "failed",
            JobOutcome::Rejected { .. } => "rejected",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_geometry::anatomy::CylinderSpec;

    #[test]
    fn true_steps_applies_the_hidden_factor() {
        let grid = CylinderSpec::default().with_resolution(8).build();
        let spec = JobSpec {
            name: "j".into(),
            workload: Arc::new(Workload::harvey(&grid, 10_000)),
            model_key: "cyl8".into(),
            objective: Objective::MinCost,
            tolerance: 0.1,
            budget_dollars: 10.0,
            max_retries: 2,
            checkpoint_steps: 1_000,
            hidden_steps_factor: 2.5,
            submit_s: 0.0,
        };
        assert_eq!(spec.true_steps(), 25_000);
        let honest = JobSpec {
            hidden_steps_factor: 1.0,
            ..spec
        };
        assert_eq!(honest.true_steps(), 10_000);
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(JobOutcome::Completed.label(), "completed");
        assert_eq!(JobOutcome::GuardKilled.label(), "guard_killed");
        assert_eq!(JobOutcome::Failed.label(), "failed");
        assert_eq!(
            JobOutcome::Rejected {
                reason: "x".into()
            }
            .label(),
            "rejected"
        );
    }
}
