//! Domain decomposition and its communication structure.
//!
//! The performance model's inputs (paper Eqs. 9-11, 13-15) all come from
//! how the voxel domain is split among tasks:
//!
//! * [`partition`] — block-grid and slab partitions of the bounding box,
//!   plus the fluid-cell ownership vectors the ranked solver consumes.
//! * [`halo`] — per-task fluid-point counts, boundary points, and the
//!   message graph (who sends how many points to whom) for a given
//!   partition: the *direct* model's raw data.
//! * [`imbalance`] — measured load-imbalance factors `z` over task-count
//!   sweeps and their Eq. 11 fits.
//! * [`events`] — maximum communication-event counts over (tasks, nodes)
//!   sweeps and their Eq. 15 fits.
//! * [`placement`] — mapping tasks onto nodes, which splits messages into
//!   intranodal and internodal.
//! * [`rcb`] — fluid-balanced recursive coordinate bisection, the
//!   decomposition the solver and the timing engine use.
//! * [`census`] — one lazily filled `ranks → census` map per geometry,
//!   shared by every model, dashboard and prepared run of a workload.

pub mod census;
pub mod events;
pub mod halo;
pub mod imbalance;
pub mod partition;
pub mod placement;
pub mod rcb;

pub use census::{Census, CensusEntry};
pub use halo::DecompAnalysis;
pub use partition::{BlockPartition, BoxRegion, SlabPartition};
pub use placement::Placement;
pub use rcb::RcbPartition;

use hemocloud_obs::Counter;
use std::sync::{Arc, OnceLock};

/// RCB bisection trees built in this process (`decomp.rcb_trees` in the
/// global [`hemocloud_obs`] registry).
pub fn rcb_trees() -> &'static Counter {
    static TREES: OnceLock<Arc<Counter>> = OnceLock::new();
    TREES.get_or_init(|| hemocloud_obs::global().counter("decomp.rcb_trees"))
}

/// Halo censuses taken in this process (one per level of every
/// [`halo::walk`]; `decomp.censuses` in the global registry).
pub fn censuses() -> &'static Counter {
    static CENSUSES: OnceLock<Arc<Counter>> = OnceLock::new();
    CENSUSES.get_or_init(|| hemocloud_obs::global().counter("decomp.censuses"))
}

/// Passes over a grid those censuses cost ([`halo::walk`] calls;
/// `decomp.census_walks` in the global registry).
pub fn census_walks() -> &'static Counter {
    static WALKS: OnceLock<Arc<Counter>> = OnceLock::new();
    WALKS.get_or_init(|| hemocloud_obs::global().counter("decomp.census_walks"))
}
