//! The paper's contribution: performance-model-driven optimization of
//! cloud resource usage for hemodynamic (LBM) simulation.
//!
//! The pipeline mirrors the framework of the paper's Fig. 1:
//!
//! 1. **Characterize** ([`characterize()`]) — run the microbenchmarks on a
//!    platform (STREAM thread sweep, PingPong message sweep) and fit the
//!    two-line bandwidth model (Eq. 8) and linear communication model
//!    (Eq. 12).
//! 2. **Predict** — estimate runtime as `max_j(t_mem) + max_j(t_comm)`
//!    (Eq. 6) two ways: the [`direct`] model uses the actual parallel
//!    decomposition's byte counts and message lists (Eq. 9); the
//!    [`general`] model estimates them *a priori* from the task count via
//!    the load-imbalance fit (Eqs. 10-11), the surface-area halo estimate
//!    (Eqs. 13-14) and the event-count fit (Eq. 15), combined in Eq. 16.
//! 3. **Decide** ([`dashboard`], [`value`]) — build the CSP Option
//!    Dashboard: predicted throughput, time-to-solution and cost per
//!    instance type, relative-value heatmaps (Eq. 17), and
//!    objective-driven recommendations.
//! 4. **Guard** ([`guard`]) — turn a prediction plus tolerance into hard
//!    job limits that flag runs "vastly out of line with the prediction".
//! 5. **Refine** ([`refine`]) — store measured-vs-predicted pairs and
//!    iteratively calibrate the model.

pub mod characterize;
pub mod composition;
pub mod dashboard;
pub mod direct;
pub mod general;
pub mod guard;
pub mod refine;
pub mod value;
pub mod workload;

pub use characterize::{characterize, PlatformCharacterization};
pub use composition::{Composition, Prediction};
pub use dashboard::{Dashboard, DashboardEntry, Objective};
pub use direct::DirectModel;
pub use general::GeneralModel;
pub use guard::{GuardVerdict, JobGuard};
pub use refine::ModelCalibrator;
pub use workload::Workload;
