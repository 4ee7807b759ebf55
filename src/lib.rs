//! # hemocloud
//!
//! A Rust reproduction of *"Optimizing Cloud Computing Resource Usage for
//! Hemodynamic Simulation"* (Ladd et al.): an iteratively-refined
//! performance model that lets users of lattice-Boltzmann blood-flow codes
//! choose cloud instances — and bound job cost — before running.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geometry`] — voxelized vascular geometries (cylinder, aorta,
//!   cerebral vasculature).
//! * [`lbm`] — the D3Q19 lattice Boltzmann solver (AA/AB propagation,
//!   SoA/AoS layouts) and its memory-access profiles.
//! * [`decomp`] — domain decomposition, halo exchange structure, load
//!   imbalance measurement.
//! * [`fitting`] — least squares, two-line bandwidth fits, Nelder-Mead.
//! * [`cluster`] — the simulated cloud/traditional platforms, their
//!   microbenchmarks and the workload timing engine.
//! * [`microbench`] — real host STREAM and ping-pong microbenchmarks.
//! * [`core`] — the paper's contribution: direct and generalized
//!   performance models, the CSP Option Dashboard, cost optimizers, job
//!   guards and the iterative refinement loop.
//! * [`fabric`] — the route-aware interconnect fabric: fat-tree,
//!   placement-group, and spread topologies with per-link bandwidth and
//!   deterministic fair-share contention for the Eq. 9 halo traffic.
//! * [`sched`] — the discrete-event campaign scheduler that runs the
//!   predict → run → guard → refine loop end-to-end over many jobs on
//!   capacity-limited platform pools (with shared-fabric cross-job
//!   contention on routed pools).
//! * [`obs`] — the deterministic metrics + tracing layer the runtime,
//!   solver, and scheduler record into (byte-reproducible snapshots).
//!
//! ## Quickstart
//!
//! ```
//! use hemocloud::prelude::*;
//!
//! // Voxelize an idealized vessel and describe the LBM workload.
//! let geo = CylinderSpec::default().with_resolution(24).build();
//! let workload = Workload::harvey(&geo, 100);
//!
//! // Characterize a (simulated) cloud platform from its microbenchmarks.
//! let platform = Platform::csp2();
//! let character = characterize(&platform, 42);
//!
//! // Predict throughput with the generalized model.
//! let model = GeneralModel::from_characterization(&character, &workload);
//! let prediction = model.predict(64);
//! assert!(prediction.mflups > 0.0);
//! ```

pub use hemocloud_cluster as cluster;
pub use hemocloud_core as core;
pub use hemocloud_decomp as decomp;
pub use hemocloud_fabric as fabric;
pub use hemocloud_fitting as fitting;
pub use hemocloud_geometry as geometry;
pub use hemocloud_lbm as lbm;
pub use hemocloud_microbench as microbench;
pub use hemocloud_obs as obs;
pub use hemocloud_sched as sched;

/// Commonly used items, re-exported for one-line imports.
pub mod prelude {
    pub use hemocloud_cluster::{
        exec::SimulatedRun,
        platform::Platform,
        pricing::PriceSheet,
        topology::{build_topology, CommModel, TopologyVariant},
    };
    pub use hemocloud_fabric::{exchange, Flow, LinkId, Topology};
    pub use hemocloud_core::{
        characterize::{characterize, PlatformCharacterization},
        dashboard::{Dashboard, DashboardEntry, Objective},
        direct::DirectModel,
        general::GeneralModel,
        guard::JobGuard,
        refine::ModelCalibrator,
        value::relative_value_matrix,
        workload::Workload,
    };
    pub use hemocloud_decomp::partition::BlockPartition;
    pub use hemocloud_geometry::anatomy::{AortaSpec, CerebralSpec, CylinderSpec};
    pub use hemocloud_geometry::voxel::{CellType, VoxelGrid};
    pub use hemocloud_lbm::{
        kernel::{KernelConfig, Layout, Propagation},
        solver::Solver,
    };
    pub use hemocloud_obs::{Registry, Render, Snapshot};
    pub use hemocloud_sched::{
        Campaign, CampaignConfig, CampaignReport, JobOutcome, JobSpec, PoolSpec,
    };
}
