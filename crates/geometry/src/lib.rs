//! Voxelized vascular geometries for hemodynamic simulation.
//!
//! The paper evaluates three increasingly complex geometries (its Fig. 2):
//!
//! 1. an **idealized cylindrical vessel** — easily divided for parallel
//!    simulation but with high communication cost (large contiguous
//!    cross-sections);
//! 2. an **aorta** — anatomically realistic, typical communication and
//!    load balancing;
//! 3. a **cerebral vasculature** — many thin vessels, many wall points,
//!    low communication.
//!
//! The original geometries come from the Vascular Model Repository, which
//! is not available here; [`anatomy`] provides parametric synthetic
//! equivalents tuned to land in the same regimes (see DESIGN.md §0). All
//! geometries are represented as a [`voxel::VoxelGrid`] of cell types
//! (solid, bulk fluid, wall fluid, inlet, outlet) built from signed
//! distance fields ([`shapes`]) swept along centerlines ([`tube`]) and then
//! classified ([`classify`]). [`stats`] summarizes the point-type census
//! that drives the performance model's byte counting.

pub mod anatomy;
pub mod classify;
pub mod shapes;
pub mod stats;
pub mod tube;
pub mod voxel;

pub use stats::GeometryStats;
pub use voxel::{CellType, VoxelGrid};
