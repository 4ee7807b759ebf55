//! Spatial partitions of the voxel bounding box.
//!
//! HARVEY decomposes its domain into near-cubic blocks; the paper's
//! generalized model assumes exactly this ("the sub-cube assigned to each
//! task", Eq. 13). [`BlockPartition`] factorizes the task count into a 3-D
//! process grid proportioned to the domain; [`SlabPartition`] (1-D cuts)
//! is kept as the ablation baseline — it balances equally well but
//! communicates far more at scale.

use hemocloud_geometry::voxel::VoxelGrid;

/// Anything that assigns the voxels of a `dims` box to tasks, each task a
/// box of its own.
pub trait Ownership {
    /// Task owning voxel `(x, y, z)`: defined for every voxel of the
    /// grid, solid ones included (`halo::walk` asks about the voxel
    /// across a box face whatever it holds).
    fn owner(&self, x: usize, y: usize, z: usize) -> usize;
    /// Total number of tasks.
    fn task_count(&self) -> usize;
    /// Shape of the grid the partition was cut from.
    fn dims(&self) -> (usize, usize, usize);
    /// The box `task` owns: `owner` is `task` on every voxel inside it and
    /// on none outside.
    fn region(&self, task: usize) -> BoxRegion;
}

/// The task of every fluid voxel of `grid` under `partition`, in
/// fluid-compaction order (memory order — the order `FluidMesh::build`
/// uses): the one body behind every `assign_fluid_cells`. Along a row the
/// owner is looked up again only where `x` leaves the last owner's box.
///
/// # Panics
/// Panics when `partition` was cut from a grid of another shape.
pub(crate) fn fluid_owners(partition: &impl Ownership, grid: &VoxelGrid) -> Vec<u32> {
    assert_eq!(
        partition.dims(),
        grid.dims(),
        "partition's and grid's shape"
    );
    let mut owners = Vec::new();
    for (y, z, row) in grid.fluid_rows() {
        let (mut task, mut task_x1) = (0, 0);
        for (x, c) in row.iter().enumerate() {
            if c.is_fluid() {
                if x >= task_x1 {
                    task = partition.owner(x, y, z);
                    task_x1 = partition.region(task).x1;
                }
                owners.push(task as u32);
            }
        }
    }
    owners
}

impl Ownership for BlockPartition {
    fn owner(&self, x: usize, y: usize, z: usize) -> usize {
        self.owner_of(x, y, z)
    }
    fn task_count(&self) -> usize {
        self.n_tasks()
    }
    fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }
    fn region(&self, task: usize) -> BoxRegion {
        self.region(task)
    }
}

impl Ownership for SlabPartition {
    fn owner(&self, x: usize, y: usize, z: usize) -> usize {
        self.owner_of(x, y, z)
    }
    fn task_count(&self) -> usize {
        self.n_tasks()
    }
    fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }
    fn region(&self, task: usize) -> BoxRegion {
        let mut lo = [0; 3];
        let mut hi = [self.dims.0, self.dims.1, self.dims.2];
        (lo[self.axis], hi[self.axis]) = self.cuts[task];
        BoxRegion {
            x0: lo[0],
            x1: hi[0],
            y0: lo[1],
            y1: hi[1],
            z0: lo[2],
            z1: hi[2],
        }
    }
}

/// A half-open axis-aligned box `[x0,x1) × [y0,y1) × [z0,z1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxRegion {
    /// x range start (inclusive).
    pub x0: usize,
    /// x range end (exclusive).
    pub x1: usize,
    /// y range start.
    pub y0: usize,
    /// y range end.
    pub y1: usize,
    /// z range start.
    pub z0: usize,
    /// z range end.
    pub z1: usize,
}

impl BoxRegion {
    /// Voxel count of the region.
    pub fn volume(&self) -> usize {
        (self.x1 - self.x0) * (self.y1 - self.y0) * (self.z1 - self.z0)
    }

    /// The smallest box containing both regions.
    pub fn hull(&self, other: &BoxRegion) -> BoxRegion {
        BoxRegion {
            x0: self.x0.min(other.x0),
            x1: self.x1.max(other.x1),
            y0: self.y0.min(other.y0),
            y1: self.y1.max(other.y1),
            z0: self.z0.min(other.z0),
            z1: self.z1.max(other.z1),
        }
    }

    /// Whether the region contains `(x, y, z)`.
    #[inline]
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        (self.x0..self.x1).contains(&x)
            && (self.y0..self.y1).contains(&y)
            && (self.z0..self.z1).contains(&z)
    }
}

/// Factor `n` into three factors `(a, b, c)` with `a·b·c = n`, chosen to
/// make per-task blocks of an `dims`-proportioned domain as close to cubic
/// as possible (minimizing predicted block surface area).
pub fn factorize3(n: usize, dims: (usize, usize, usize)) -> (usize, usize, usize) {
    assert!(n > 0);
    let (nx, ny, nz) = (dims.0 as f64, dims.1 as f64, dims.2 as f64);
    let mut best = (n, 1, 1);
    let mut best_surface = f64::INFINITY;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let m = n / a;
        for b in 1..=m {
            if !m.is_multiple_of(b) {
                continue;
            }
            let c = m / b;
            // Surface area of one block of an (nx/a, ny/b, nz/c) grid.
            let (sx, sy, sz) = (nx / a as f64, ny / b as f64, nz / c as f64);
            let surface = 2.0 * (sx * sy + sy * sz + sx * sz);
            if surface < best_surface {
                best_surface = surface;
                best = (a, b, c);
            }
        }
    }
    best
}

/// Split `[0, len)` into `parts` near-equal half-open intervals.
fn cuts(len: usize, parts: usize) -> Vec<(usize, usize)> {
    (0..parts)
        .map(|i| (i * len / parts, (i + 1) * len / parts))
        .collect()
}

/// A 3-D block-grid partition.
#[derive(Debug, Clone)]
pub struct BlockPartition {
    dims: (usize, usize, usize),
    grid: (usize, usize, usize),
    x_cuts: Vec<(usize, usize)>,
    y_cuts: Vec<(usize, usize)>,
    z_cuts: Vec<(usize, usize)>,
}

impl BlockPartition {
    /// Partition a `dims` domain among `n_tasks` tasks.
    ///
    /// # Panics
    /// Panics when `n_tasks` is 0 or when any factor exceeds its axis
    /// extent (more cuts than voxels).
    pub fn new(dims: (usize, usize, usize), n_tasks: usize) -> Self {
        let grid = factorize3(n_tasks, dims);
        assert!(
            grid.0 <= dims.0 && grid.1 <= dims.1 && grid.2 <= dims.2,
            "process grid {grid:?} exceeds domain {dims:?}"
        );
        Self {
            dims,
            grid,
            x_cuts: cuts(dims.0, grid.0),
            y_cuts: cuts(dims.1, grid.1),
            z_cuts: cuts(dims.2, grid.2),
        }
    }

    /// The process-grid shape `(px, py, pz)`.
    pub fn grid(&self) -> (usize, usize, usize) {
        self.grid
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.grid.0 * self.grid.1 * self.grid.2
    }

    /// Task index owning voxel `(x, y, z)`.
    #[inline]
    pub fn owner_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.0 && y < self.dims.1 && z < self.dims.2);
        let ix = self.x_cuts.partition_point(|&(_, end)| end <= x);
        let iy = self.y_cuts.partition_point(|&(_, end)| end <= y);
        let iz = self.z_cuts.partition_point(|&(_, end)| end <= z);
        ix + self.grid.0 * (iy + self.grid.1 * iz)
    }

    /// The box of a task.
    pub fn region(&self, task: usize) -> BoxRegion {
        let ix = task % self.grid.0;
        let iy = (task / self.grid.0) % self.grid.1;
        let iz = task / (self.grid.0 * self.grid.1);
        BoxRegion {
            x0: self.x_cuts[ix].0,
            x1: self.x_cuts[ix].1,
            y0: self.y_cuts[iy].0,
            y1: self.y_cuts[iy].1,
            z0: self.z_cuts[iz].0,
            z1: self.z_cuts[iz].1,
        }
    }

    /// Ownership of each *fluid* cell of `grid`, in fluid-compaction order
    /// (memory-order scan — the same order `FluidMesh::build` uses), ready
    /// for the ranked solver.
    pub fn assign_fluid_cells(&self, grid: &VoxelGrid) -> Vec<u32> {
        fluid_owners(self, grid)
    }
}

/// A 1-D slab partition along the longest axis (the ablation baseline).
#[derive(Debug, Clone)]
pub struct SlabPartition {
    dims: (usize, usize, usize),
    axis: usize,
    cuts: Vec<(usize, usize)>,
}

impl SlabPartition {
    /// Partition `dims` into `n_tasks` slabs along the longest axis.
    ///
    /// # Panics
    /// Panics when `n_tasks` is 0 or exceeds the longest axis length.
    pub fn new(dims: (usize, usize, usize), n_tasks: usize) -> Self {
        assert!(n_tasks > 0);
        let extents = [dims.0, dims.1, dims.2];
        let axis = (0..3).max_by_key(|&a| extents[a]).expect("three axes");
        assert!(
            n_tasks <= extents[axis],
            "more slabs than voxels along axis {axis}"
        );
        Self {
            dims,
            axis,
            cuts: cuts(extents[axis], n_tasks),
        }
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.cuts.len()
    }

    /// The slab axis (0 = x, 1 = y, 2 = z).
    pub fn axis(&self) -> usize {
        self.axis
    }

    /// Task index owning voxel `(x, y, z)`.
    #[inline]
    pub fn owner_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.0 && y < self.dims.1 && z < self.dims.2);
        let v = [x, y, z][self.axis];
        self.cuts.partition_point(|&(_, end)| end <= v)
    }

    /// Ownership of each fluid cell, in fluid-compaction order.
    pub fn assign_fluid_cells(&self, grid: &VoxelGrid) -> Vec<u32> {
        fluid_owners(self, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_geometry::voxel::{CellType, VoxelGrid};

    #[test]
    fn factorize3_products_are_exact() {
        for n in [1usize, 2, 3, 4, 6, 8, 12, 16, 36, 64, 100, 128, 2048] {
            let (a, b, c) = factorize3(n, (100, 100, 100));
            assert_eq!(a * b * c, n, "n = {n}");
        }
    }

    #[test]
    fn factorize3_prefers_cubic_blocks_on_cubic_domains() {
        let (a, b, c) = factorize3(8, (64, 64, 64));
        let mut f = [a, b, c];
        f.sort_unstable();
        assert_eq!(f, [2, 2, 2]);
        let (a, b, c) = factorize3(64, (64, 64, 64));
        let mut f = [a, b, c];
        f.sort_unstable();
        assert_eq!(f, [4, 4, 4]);
    }

    #[test]
    fn factorize3_follows_domain_anisotropy() {
        // A long-z domain should take its cuts along z.
        let (a, b, c) = factorize3(4, (10, 10, 1000));
        assert_eq!((a, b), (1, 1));
        assert_eq!(c, 4);
    }

    #[test]
    fn block_partition_tiles_exactly() {
        let p = BlockPartition::new((13, 7, 9), 6);
        let total: usize = (0..p.n_tasks()).map(|t| p.region(t).volume()).sum();
        assert_eq!(total, 13 * 7 * 9);
        // Every voxel's owner region contains it.
        for z in 0..9 {
            for y in 0..7 {
                for x in 0..13 {
                    let t = p.owner_of(x, y, z);
                    assert!(p.region(t).contains(x, y, z), "({x},{y},{z}) -> {t}");
                }
            }
        }
    }

    #[test]
    fn block_regions_are_disjoint() {
        let p = BlockPartition::new((8, 8, 8), 8);
        for t1 in 0..8 {
            for t2 in (t1 + 1)..8 {
                let r1 = p.region(t1);
                let r2 = p.region(t2);
                let overlap = r1.x0.max(r2.x0) < r1.x1.min(r2.x1)
                    && r1.y0.max(r2.y0) < r1.y1.min(r2.y1)
                    && r1.z0.max(r2.z0) < r1.z1.min(r2.z1);
                assert!(!overlap, "{t1} and {t2} overlap");
            }
        }
    }

    #[test]
    fn slab_cuts_longest_axis() {
        let p = SlabPartition::new((4, 100, 8), 10);
        assert_eq!(p.axis(), 1);
        assert_eq!(p.owner_of(0, 0, 0), 0);
        assert_eq!(p.owner_of(0, 99, 0), 9);
    }

    #[test]
    fn fluid_assignment_matches_compaction_order() {
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        g.set(0, 0, 0, CellType::Solid);
        let p = BlockPartition::new((4, 4, 4), 4);
        let owner = p.assign_fluid_cells(&g);
        assert_eq!(owner.len(), 63);
        // The first fluid cell in memory order is (1,0,0).
        assert_eq!(owner[0] as usize, p.owner_of(1, 0, 0));
    }

    #[test]
    fn single_task_owns_everything() {
        let p = BlockPartition::new((5, 5, 5), 1);
        for z in 0..5 {
            for y in 0..5 {
                for x in 0..5 {
                    assert_eq!(p.owner_of(x, y, z), 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds domain")]
    fn oversubscribed_partition_panics() {
        let _ = BlockPartition::new((2, 2, 2), 1024);
    }
}
