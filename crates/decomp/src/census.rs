//! One decomposition census per geometry, taken once per rank count.
//!
//! `c1, c2` (Eq. 11) and the message graph behind `k1, k2` (Eq. 15) are
//! properties of the geometry, not of the platform: every model, dashboard
//! row and prepared run that asks how a grid splits into `n` ranks must
//! get the same answer, so they all read it from a [`Census`] that
//! computes it on first request and keeps it. An entry keeps what the
//! consumers read — the halo census and the per-task byte sums — and not
//! the partition: no reader asks an owner once the walk is done, and the
//! bisection tree's row runs are dropped with it.

use crate::halo::{self, DecompAnalysis};
use crate::imbalance::{fit_sweep, ImbalanceSample};
use crate::rcb::{self, RcbError};
use hemocloud_fitting::models::ImbalanceModel;
use hemocloud_geometry::voxel::VoxelGrid;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Task counts the generalized model calibrates against. They are powers
/// of two, so one bisection tree yields all nine partitions.
pub const CALIBRATION_COUNTS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// What one rank count's decomposition leaves behind.
#[derive(Debug, Clone)]
pub struct CensusEntry {
    /// Points, boundary points and the message graph per task.
    pub analysis: DecompAnalysis,
    /// Per-task memory-access bytes per step (the Eq. 9 sums).
    pub task_bytes: Vec<f64>,
}

impl CensusEntry {
    /// The census of `grid` at each of `task_counts`, in order, weighting
    /// bulk points by `bulk_bytes` and wall, inlet and outlet points by
    /// `wall_bytes`: the partitions of [`rcb::sweep`], each bisection tree
    /// read in one [`halo::walk`] that serves every view of it.
    pub fn sweep(
        grid: &VoxelGrid,
        task_counts: &[usize],
        bulk_bytes: f64,
        wall_bytes: f64,
    ) -> Vec<Result<Self, RcbError>> {
        rcb::sweep_with(grid, task_counts, |leaves, shifts| {
            halo::walk(grid, leaves, shifts, bulk_bytes, wall_bytes)
        })
    }

    /// The census of `grid` at `ranks` alone.
    pub fn take(
        grid: &VoxelGrid,
        ranks: usize,
        bulk_bytes: f64,
        wall_bytes: f64,
    ) -> Result<Self, RcbError> {
        Self::sweep(grid, &[ranks], bulk_bytes, wall_bytes).remove(0)
    }
}

type Entry = Result<Arc<CensusEntry>, RcbError>;

/// The lazily filled, thread-safe `ranks → entry` map of one geometry
/// under one kernel's Eq. 9 byte weights. A slot is filled under the map's lock
/// by whichever thread asks first, so it is filled once; so is the Eq. 11
/// fit over the calibration entries.
#[derive(Debug)]
pub struct Census {
    grid: Arc<VoxelGrid>,
    bulk_bytes: f64,
    wall_bytes: f64,
    slots: Mutex<BTreeMap<usize, Entry>>,
    imbalance: OnceLock<ImbalanceModel>,
}

impl Census {
    /// An empty census of `grid`; nothing is decomposed until asked for.
    pub fn new(grid: Arc<VoxelGrid>, bulk_bytes: f64, wall_bytes: f64) -> Self {
        Self {
            grid,
            bulk_bytes,
            wall_bytes,
            slots: Mutex::default(),
            imbalance: OnceLock::new(),
        }
    }

    /// The grid the census decomposes.
    pub fn grid(&self) -> &Arc<VoxelGrid> {
        &self.grid
    }

    /// The entry for `ranks` RCB subdomains, or why the grid cannot be
    /// split that far. The first request for any of
    /// [`CALIBRATION_COUNTS`] fills all nine from one bisection tree.
    pub fn entry(&self, ranks: usize) -> Entry {
        let mut slots = self.slots.lock().expect("a census fill panicked");
        if !slots.contains_key(&ranks) {
            let counts = if CALIBRATION_COUNTS.contains(&ranks) {
                &CALIBRATION_COUNTS[..]
            } else {
                std::slice::from_ref(&ranks)
            };
            let taken = CensusEntry::sweep(&self.grid, counts, self.bulk_bytes, self.wall_bytes);
            for (&n, entry) in counts.iter().zip(taken) {
                slots.insert(n, entry.map(Arc::new));
            }
        }
        slots[&ranks].clone()
    }

    /// `c1, c2` (Eq. 11) fitted to the `z` of every
    /// [`CALIBRATION_COUNTS`] entry the grid can host, or
    /// [`ImbalanceModel::perfect`] where no fit exists. `z` is the
    /// geometry's, not a platform's: the fit is made on first request and
    /// kept.
    pub fn imbalance_model(&self) -> ImbalanceModel {
        *self.imbalance.get_or_init(|| {
            let samples: Vec<_> = CALIBRATION_COUNTS
                .iter()
                .filter_map(|&n| self.entry(n).ok())
                .map(|e| ImbalanceSample::of(&e.analysis))
                .collect();
            fit_sweep(&samples).unwrap_or_else(ImbalanceModel::perfect)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imbalance::imbalance_sweep_rcb;
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_geometry::voxel::CellType;

    #[test]
    fn the_eq11_fit_is_the_sweeps_and_is_made_once() {
        let grid = Arc::new(CylinderSpec::default().with_resolution(10).build());
        let census = Census::new(Arc::clone(&grid), 380.5, 301.25);
        assert!(census.imbalance.get().is_none());
        let got = census.imbalance_model();
        let want = fit_sweep(&imbalance_sweep_rcb(&grid, &CALIBRATION_COUNTS)).expect("a fit");
        let bits = |m: ImbalanceModel| [m.c1, m.c2, m.sse].map(f64::to_bits);
        assert_eq!(bits(got), bits(want));
        assert_eq!(census.imbalance.get(), Some(&got));
        assert_eq!(bits(census.imbalance_model()), bits(want));
    }

    #[test]
    fn a_grid_too_small_to_fit_is_perfectly_balanced() {
        let mut grid = VoxelGrid::solid(3, 3, 3, 1.0);
        grid.set(1, 1, 1, CellType::Bulk);
        let census = Census::new(Arc::new(grid), 1.0, 1.0);
        assert_eq!(census.imbalance_model(), ImbalanceModel::perfect());
    }
}
