//! `hemocloud-sched` — a discrete-event cloud campaign scheduler that
//! closes the paper's predict → run → guard → refine loop.
//!
//! The paper's Discussion sketches an operational deployment: a
//! performance model prices every (platform, ranks) option, a dashboard
//! recommends one under the user's objective, guards kill runs that blow
//! past their predicted budgets, and every measured run feeds back into
//! the model. The other crates in this workspace each build one of those
//! pieces; this crate is the control loop that runs them *together*,
//! against many jobs at once, on capacity-limited pools, over simulated
//! time:
//!
//! * [`events`] — the deterministic discrete-event clock.
//! * [`job`] — what users submit ([`JobSpec`]) and how runs end
//!   ([`JobOutcome`]).
//! * [`scheduler`] — the [`Campaign`] engine: admission, model-driven
//!   placement through `Objective::pick`, sliced execution through
//!   `cluster::exec`, guard enforcement mid-run, seeded fault injection
//!   with checkpoint-rollback retries, and continuous model calibration.
//! * [`report`] — the [`CampaignReport`]: utilization, cost, SLO
//!   attainment, guard/retry accounting, and the placement-MAPE
//!   refinement trajectory, with deterministic JSON output.
//! * [`scenario`] — the [`Scenario`]: one campaign's key, config, pools
//!   and jobs. Every campaign the repo runs is one — the sweep's grid
//!   cells, its routed-contention cell ([`Scenario::contention`]) and
//!   `bench_sched`'s million-job run ([`Scenario::scale`]) — and each is
//!   run by [`Scenario::run`] and judged by [`Scenario::judge`]: the one
//!   [`audit`] (budget/SLO/billing/Eq. 9/guard checkers over the
//!   report's typed fields), the regret oracle and the pooled errors.
//!   The million-job run is audited too.
//! * [`sweep`] — the scenario-sweep evaluation harness: the grid's
//!   scenarios across seeds × geometries × platform mixes × fault rates
//!   × kernel configurations, plus the contention cell outside the grid
//!   ([`run_contention`]), judged and aggregated into one deterministic
//!   JSON report.
//!
//! Everything is reproducible: same seed, same report, byte for byte.

pub mod events;
pub mod job;
pub mod report;
pub mod scenario;
pub mod scheduler;
pub mod sweep;

pub use events::{Event, ShardedEventQueue};
pub use job::{JobOutcome, JobSpec};
pub use report::{
    percentile, placement_mape, CampaignReport, JobReport, PlacementRecord, PlatformReport,
};
pub use scheduler::{
    expected_faults, fault_probability, retry_backoff_s, Campaign, CampaignConfig, PoolSpec,
};
pub use scenario::Scenario;
pub use sweep::{
    audit, run_contention, run_sweep, Audit, AxisAggregate, CellResult, ContentionCell,
    GeometryCase, SweepGrid, SweepReport, Violation, WorkloadCase,
};
