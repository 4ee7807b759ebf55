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
use crate::rcb::{self, RcbError};
use hemocloud_geometry::voxel::VoxelGrid;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

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
/// by whichever thread asks first, so it is filled once.
#[derive(Debug)]
pub struct Census {
    grid: Arc<VoxelGrid>,
    bulk_bytes: f64,
    wall_bytes: f64,
    slots: Mutex<BTreeMap<usize, Entry>>,
}

impl Census {
    /// An empty census of `grid`; nothing is decomposed until asked for.
    pub fn new(grid: Arc<VoxelGrid>, bulk_bytes: f64, wall_bytes: f64) -> Self {
        Self {
            grid,
            bulk_bytes,
            wall_bytes,
            slots: Mutex::default(),
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
}
