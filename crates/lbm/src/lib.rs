//! D3Q19 lattice Boltzmann solvers for hemodynamic simulation.
//!
//! Two implementations mirror the two codes the paper studies:
//!
//! * [`solver::Solver`] — the HARVEY analog: sparse indirect-addressed
//!   mesh ([`mesh::FluidMesh`]), AB or AA streaming in AoS or SoA storage
//!   at f64 or f32, BGK collision, Poiseuille inlets / zero-pressure
//!   outlets / halfway bounce-back walls — one lane-generic collide–stream
//!   body, thread-parallel on `hemocloud_rt::pool`.
//! * [`proxy::ProxyApp`] — the `lbm-proxy-app` analog: a dense hardcoded
//!   cylinder scanning the kernel-variant space (AA/AB propagation ×
//!   SoA/AoS layout × rolled/unrolled loops) that the paper's Figs. 4 and
//!   8 evaluate.
//!
//! [`access_profile`] counts the bytes each variant touches per fluid
//! point — the raw input to the paper's Eq. 9 performance model. The
//! [`ranked`] module runs the HARVEY analog as a set of communicating
//! "ranks" with explicit halo exchange — the same body, with cross-rank
//! reads pointed at halo rows by the slot table — validating that the decomposed
//! execution reproduces the global solution.

pub mod access_profile;
pub mod equilibrium;
pub mod kernel;
pub mod lattice;
pub mod mesh;
pub mod proxy;
pub mod ranked;
pub mod real;
pub mod solver;

pub use access_profile::AccessProfile;
pub use kernel::{KernelConfig, Layout, Precision, Propagation, SimdPath, StreamReference};
pub use real::Real;
pub use mesh::FluidMesh;
pub use proxy::ProxyApp;
pub use solver::{RunStats, Solver, SolverConfig};
