//! Recursive coordinate bisection (RCB): fluid-balanced partitioning.
//!
//! HARVEY load-balances *fluid points*, not bounding-box volume; a naive
//! block grid assigns near-empty corner blocks on sparse anatomies (the
//! cerebral tree especially) and its imbalance factor explodes. RCB
//! recursively splits the current box at the plane, along whichever of
//! the three axes does it best, that divides the *fluid count* closest to
//! the proportion of the task split, producing box-shaped subdomains (the
//! generalized model's sub-cube assumption still holds) with near-perfect
//! balance. The fluid is carried as maximal x-runs, so a level costs the
//! runs and the boxes' extents, not the fluid points.
//!
//! The block partition remains available as the ablation baseline
//! (DESIGN.md §5, "Block vs. slab decomposition" extends to RCB).

use crate::partition::{fluid_owners, BoxRegion, Ownership};
use hemocloud_geometry::voxel::VoxelGrid;
use std::fmt;
use std::sync::Arc;

/// Why a grid cannot be cut into the requested number of tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcbError {
    /// Zero tasks were requested.
    ZeroTasks,
    /// More tasks than fluid points: some task would own nothing.
    TooManyTasks { n_tasks: usize, fluid_points: usize },
    /// A lumpy cut left the one-voxel `region` with more than one task.
    Unsplittable { region: BoxRegion, n_tasks: usize },
}

impl fmt::Display for RcbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroTasks => write!(f, "zero tasks"),
            Self::TooManyTasks {
                n_tasks,
                fluid_points,
            } => {
                write!(
                    f,
                    "more tasks than fluid points ({n_tasks} > {fluid_points})"
                )
            }
            Self::Unsplittable { region, n_tasks } => {
                write!(f, "one-voxel region {region:?} was handed {n_tasks} tasks")
            }
        }
    }
}

impl std::error::Error for RcbError {}

/// A fluid-balanced RCB partition. Ownership is kept per x-row of the grid
/// as the runs of the leaf boxes the row crosses, so it costs the leaves'
/// y–z footprints, never the bounding box (DESIGN.md §19); an owner query
/// searches its row's few runs.
#[derive(Debug, Clone)]
pub struct RcbPartition {
    dims: (usize, usize, usize),
    /// Leaf task of every voxel in the bisection tree this partition was
    /// cut from; [`RcbPartition::coarsened`] views share it.
    runs: Arc<RowRuns>,
    /// Tree levels between this partition and the leaves: the task of a
    /// voxel is its leaf `>> shift`.
    shift: u32,
    n_tasks: usize,
    regions: Vec<BoxRegion>,
}

/// The leaf of every voxel, row by row. The leaf boxes tile the grid, so
/// row `y + ny·z` is a short list of `(x0, leaf)` runs in ascending `x0`,
/// the first at 0: `leaf` owns the row from `x0` up to the next run's.
#[derive(Debug)]
struct RowRuns {
    /// Row `r`'s runs are `runs[start[r]..start[r + 1]]`.
    start: Vec<u32>,
    runs: Vec<(u32, u32)>,
}

impl RowRuns {
    /// The runs of the leaves of a bisection tree over a `dims` grid, by a
    /// counting sort on the row. Appending the leaves in tree order puts
    /// each row's runs in x order: a cut along x numbers the lower half
    /// first, and a cut along y or z leaves a row whole on one side. Fewer
    /// runs than voxels, so `u32` indexes them wherever it indexes the
    /// grid.
    fn new(dims: (usize, usize, usize), leaves: &[BoxRegion]) -> Self {
        let rows = dims.1 * dims.2;
        let rows_of = |r: BoxRegion| {
            (r.z0..r.z1).flat_map(move |z| (r.y0..r.y1).map(move |y| y + dims.1 * z))
        };
        let mut start = vec![0u32; rows + 1];
        for &leaf in leaves {
            for row in rows_of(leaf) {
                start[row + 1] += 1;
            }
        }
        for row in 0..rows {
            start[row + 1] += start[row];
        }
        let mut next = start.clone();
        let mut runs = vec![(0, 0); start[rows] as usize];
        for (leaf, &r) in leaves.iter().enumerate() {
            for row in rows_of(r) {
                runs[next[row] as usize] = (r.x0 as u32, leaf as u32);
                next[row] += 1;
            }
        }
        Self { start, runs }
    }

    /// The runs of row `y + ny·z`.
    #[inline]
    fn row(&self, row: usize) -> &[(u32, u32)] {
        &self.runs[self.start[row] as usize..self.start[row + 1] as usize]
    }
}

impl RcbPartition {
    /// Partition `grid` into `n_tasks` fluid-balanced boxes.
    ///
    /// # Panics
    /// Panics where [`RcbPartition::try_new`] returns an error.
    pub fn new(grid: &VoxelGrid, n_tasks: usize) -> Self {
        Self::try_new(grid, n_tasks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Partition `grid` into `n_tasks` fluid-balanced boxes, or say why it
    /// cannot be done.
    pub fn try_new(grid: &VoxelGrid, n_tasks: usize) -> Result<Self, RcbError> {
        if n_tasks == 0 {
            return Err(RcbError::ZeroTasks);
        }
        let dims = grid.dims();
        assert!(
            u32::try_from(grid.len()).is_ok(),
            "a {dims:?} grid has {} voxels, more than the u32 fluid and row runs index",
            grid.len()
        );
        // The maximal fluid x-runs: a bisection level costs one pass over
        // them plus the node's extents, not the fluid points or the box.
        let mut runs = Vec::new();
        for (y, z, row) in grid.fluid_rows() {
            let mut x = 0;
            while let Some(gap) = row[x..].iter().position(|c| c.is_fluid()) {
                let x0 = x + gap;
                x = x0 + row[x0..].iter().take_while(|c| c.is_fluid()).count();
                let [x0, x1, y, z] = [x0, x, y, z].map(|v| v as u32);
                runs.push(Run { x0, x1, y, z });
            }
        }
        let fluid = runs.iter().map(|r| (r.x1 - r.x0) as usize).sum();
        if n_tasks > fluid {
            return Err(RcbError::TooManyTasks {
                n_tasks,
                fluid_points: fluid,
            });
        }
        crate::rcb_trees().inc();
        let whole = BoxRegion {
            x0: 0,
            x1: dims.0,
            y0: 0,
            y1: dims.1,
            z0: 0,
            z1: dims.2,
        };
        let mut regions = vec![whole; n_tasks];
        bisect(whole, runs, fluid, 0, n_tasks, &mut regions)?;
        Ok(Self {
            dims,
            runs: Arc::new(RowRuns::new(dims, &regions)),
            shift: 0,
            n_tasks,
            regions,
        })
    }

    /// The partition `halvings` levels up this one's bisection tree:
    /// exactly what [`RcbPartition::new`] builds for `n_tasks >> halvings`
    /// tasks (a power-of-two count asks every node for exactly half its
    /// fluid, so the smaller tree is the larger one truncated — DESIGN.md
    /// §19), as a view sharing this partition's row runs.
    ///
    /// # Panics
    /// Panics unless `halvings` is 0 or the task count is a power of two
    /// with at least `halvings` levels.
    pub fn coarsened(&self, halvings: u32) -> Self {
        assert!(
            halvings == 0
                || self.n_tasks.is_power_of_two() && halvings <= self.n_tasks.trailing_zeros(),
            "cannot halve {} tasks {halvings} times",
            self.n_tasks
        );
        let regions = self
            .regions
            .chunks(1 << halvings)
            .map(|leaves| {
                leaves[1..]
                    .iter()
                    .fold(leaves[0], |hull, leaf| hull.hull(leaf))
            })
            .collect();
        Self {
            dims: self.dims,
            runs: Arc::clone(&self.runs),
            shift: self.shift + halvings,
            n_tasks: self.n_tasks >> halvings,
            regions,
        }
    }

    /// The box assigned to a task.
    pub fn region(&self, task: usize) -> BoxRegion {
        self.regions[task]
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// Task owning voxel `(x, y, z)`.
    #[inline]
    pub fn owner_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.0 && y < self.dims.1 && z < self.dims.2);
        let runs = self.runs.row(y + self.dims.1 * z);
        let at = runs.partition_point(|&(x0, _)| x0 as usize <= x) - 1;
        (runs[at].1 >> self.shift) as usize
    }

    /// Ownership of each fluid cell, in fluid-compaction order (the order
    /// `FluidMesh::build` uses).
    pub fn assign_fluid_cells(&self, grid: &VoxelGrid) -> Vec<u32> {
        fluid_owners(self, grid)
    }
}

impl Ownership for RcbPartition {
    fn owner(&self, x: usize, y: usize, z: usize) -> usize {
        self.owner_of(x, y, z)
    }
    fn task_count(&self) -> usize {
        self.n_tasks
    }
    fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }
    fn region(&self, task: usize) -> BoxRegion {
        self.regions[task]
    }
}

/// The partition of `grid` at each of `task_counts`, in order, with a
/// typed error where the grid cannot host the count. All power-of-two
/// counts are views ([`RcbPartition::coarsened`]) of **one** bisection
/// tree, built at the largest of them the grid can host; every other
/// count builds its own.
pub fn sweep(grid: &VoxelGrid, task_counts: &[usize]) -> Vec<Result<RcbPartition, RcbError>> {
    sweep_with(grid, task_counts, |leaves, halvings| {
        halvings.iter().map(|&h| leaves.coarsened(h)).collect()
    })
}

/// [`sweep`] for a reader of whole trees: `read(leaves, halvings)` is
/// called once per bisection tree and answers for each of its requested
/// views — `leaves.coarsened(h)` for every `h` of `halvings`, which
/// ascend — in that order; the answers come back in `task_counts` order.
pub fn sweep_with<T>(
    grid: &VoxelGrid,
    task_counts: &[usize],
    mut read: impl FnMut(&RcbPartition, &[u32]) -> Vec<T>,
) -> Vec<Result<T, RcbError>> {
    let mut pow2: Vec<usize> = task_counts
        .iter()
        .copied()
        .filter(|n| n.is_power_of_two())
        .collect();
    pow2.sort_unstable();
    let tree = pow2
        .iter()
        .rev()
        .find_map(|&n| RcbPartition::try_new(grid, n).ok());
    let mut answers: Vec<Option<T>> = task_counts.iter().map(|_| None).collect();
    if let Some(tree) = &tree {
        let mut views: Vec<(u32, usize)> = task_counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n.is_power_of_two() && n <= tree.n_tasks)
            .map(|(i, &n)| ((tree.n_tasks / n).trailing_zeros(), i))
            .collect();
        views.sort_unstable();
        let halvings: Vec<u32> = views.iter().map(|&(h, _)| h).collect();
        for (&(_, i), answer) in views.iter().zip(read(tree, &halvings)) {
            answers[i] = Some(answer);
        }
    }
    answers
        .into_iter()
        .zip(task_counts)
        .map(|(shared, &n)| match shared {
            Some(answer) => Ok(answer),
            None => RcbPartition::try_new(grid, n).map(|own| read(&own, &[0]).remove(0)),
        })
        .collect()
}

/// A maximal x-run of fluid, `[x0, x1)` in row `(y, z)`, or the part of
/// one that an x cut left in a node.
#[derive(Debug, Clone, Copy)]
struct Run {
    x0: u32,
    x1: u32,
    y: u32,
    z: u32,
}

/// Recursively assign `[task0, task0 + n_tasks)` within `region`, whose
/// `fluid` points are `runs`.
fn bisect(
    region: BoxRegion,
    runs: Vec<Run>,
    fluid: usize,
    task0: usize,
    n_tasks: usize,
    regions: &mut [BoxRegion],
) -> Result<(), RcbError> {
    if n_tasks == 1 {
        regions[task0] = region;
        return Ok(());
    }

    let n_left = n_tasks / 2;
    let n_right = n_tasks - n_left;

    // Try every axis with at least two slices; take the cut whose left
    // fluid share lands closest to the target n_left/n_tasks fraction.
    // Slice granularity makes long axes usually — but not always — best,
    // so measuring beats the classic longest-axis heuristic on lumpy
    // anatomies.
    let lo = [region.x0, region.y0, region.z0];
    let extents = [
        region.x1 - region.x0,
        region.y1 - region.y0,
        region.z1 - region.z0,
    ];
    // A run adds its length to its y and z slices, and one to each of
    // its x slices: +1 where it opens and −1 where it closes, summed up.
    let mut counts = extents.map(|len| vec![0usize; len]);
    let mut x_edges = vec![0isize; extents[0] + 1];
    for run in &runs {
        x_edges[run.x0 as usize - lo[0]] += 1;
        x_edges[run.x1 as usize - lo[0]] -= 1;
        counts[1][run.y as usize - lo[1]] += (run.x1 - run.x0) as usize;
        counts[2][run.z as usize - lo[2]] += (run.x1 - run.x0) as usize;
    }
    let mut open = 0;
    for (count, edge) in counts[0].iter_mut().zip(&x_edges) {
        open += edge;
        *count = open as usize;
    }
    let want = fluid as f64 * n_left as f64 / n_tasks as f64;
    let mut best: Option<(usize, usize, usize, f64)> = None; // (axis, cut, below, error)
    for (axis, counts) in counts.iter().enumerate() {
        let mut acc = 0usize;
        for (i, &c) in counts.iter().enumerate().take(counts.len() - 1) {
            acc += c;
            let err = (acc as f64 - want).abs();
            if best.as_ref().is_none_or(|&(.., e)| err < e) {
                best = Some((axis, i + 1, acc, err));
            }
        }
    }
    let (axis, cut, below, _) = best.ok_or(RcbError::Unsplittable { region, n_tasks })?;

    let (mut left, mut right) = (region, region);
    match axis {
        0 => (left.x1, right.x0) = (lo[0] + cut, lo[0] + cut),
        1 => (left.y1, right.y0) = (lo[1] + cut, lo[1] + cut),
        _ => (left.z1, right.z0) = (lo[2] + cut, lo[2] + cut),
    }
    // A y or z cut moves whole runs; an x cut splits the runs it crosses.
    let plane = (lo[axis] + cut) as u32;
    let capacity = runs.len();
    let (mut lower, mut upper) = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
    for run in runs {
        let (start, end) = [(run.x0, run.x1), (run.y, run.y + 1), (run.z, run.z + 1)][axis];
        if end <= plane {
            lower.push(run);
        } else if start >= plane {
            upper.push(run);
        } else {
            lower.push(Run { x1: plane, ..run });
            upper.push(Run { x0: plane, ..run });
        }
    }
    let above = fluid - below;
    bisect(left, lower, below, task0, n_left, regions)?;
    bisect(right, upper, above, task0 + n_left, n_right, regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CALIBRATION_COUNTS;
    use crate::halo::DecompAnalysis;
    use crate::partition::BlockPartition;
    use hemocloud_geometry::anatomy::{
        AneurysmSpec, AortaSpec, CerebralSpec, CylinderSpec, StenosisSpec,
    };
    use hemocloud_geometry::voxel::{CellType, VoxelGrid};
    use hemocloud_rt::check::{self, Config};
    use hemocloud_rt::rng::Rng;

    #[test]
    fn tiles_the_grid_exactly() {
        let g = VoxelGrid::filled(8, 9, 10, 1.0, CellType::Bulk);
        let p = RcbPartition::new(&g, 6);
        let total: usize = (0..6).map(|t| p.region(t).volume()).sum();
        assert_eq!(total, 8 * 9 * 10);
        for z in 0..10 {
            for y in 0..9 {
                for x in 0..8 {
                    let t = p.owner_of(x, y, z);
                    assert!(p.region(t).contains(x, y, z));
                }
            }
        }
    }

    #[test]
    fn balances_a_uniform_cube() {
        let g = VoxelGrid::filled(16, 16, 16, 1.0, CellType::Bulk);
        let p = RcbPartition::new(&g, 8);
        let a = DecompAnalysis::analyze(&g, &p);
        assert!(a.z_factor() < 1.01, "z = {}", a.z_factor());
    }

    #[test]
    fn balances_sparse_anatomy_far_better_than_blocks() {
        let g = CerebralSpec::default()
            .with_generations(4)
            .with_resolution(8)
            .build();
        let rcb = DecompAnalysis::analyze(&g, &RcbPartition::new(&g, 32));
        let block = DecompAnalysis::analyze(&g, &BlockPartition::new(g.dims(), 32));
        assert!(
            rcb.z_factor() < 1.4,
            "RCB z = {} should be near 1",
            rcb.z_factor()
        );
        assert!(
            rcb.z_factor() < 0.6 * block.z_factor(),
            "RCB {} vs block {}",
            rcb.z_factor(),
            block.z_factor()
        );
    }

    #[test]
    fn works_for_odd_task_counts() {
        let g = CylinderSpec::default().with_resolution(10).build();
        for n in [3usize, 5, 7, 13] {
            let p = RcbPartition::new(&g, n);
            let a = DecompAnalysis::analyze(&g, &p);
            assert_eq!(a.points_per_task.iter().sum::<usize>(), g.fluid_count());
            assert!(a.z_factor() < 1.8, "n={n}: z={}", a.z_factor());
        }
    }

    #[test]
    fn fluid_assignment_is_compaction_ordered() {
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        g.set(0, 0, 0, CellType::Solid);
        let p = RcbPartition::new(&g, 2);
        let owner = p.assign_fluid_cells(&g);
        assert_eq!(owner.len(), 63);
        assert_eq!(owner[0] as usize, p.owner_of(1, 0, 0));
    }

    /// The box-scanning bisection this module used before slice counts
    /// came from the fluid (first its cells, now its x-runs), with the
    /// errors `try_new` gives — kept as the oracle for the cuts.
    fn reference(grid: &VoxelGrid, n_tasks: usize) -> Result<Vec<BoxRegion>, RcbError> {
        if n_tasks == 0 {
            return Err(RcbError::ZeroTasks);
        }
        let fluid_points = grid.fluid_count();
        if n_tasks > fluid_points {
            return Err(RcbError::TooManyTasks {
                n_tasks,
                fluid_points,
            });
        }
        let (x1, y1, z1) = grid.dims();
        let whole = BoxRegion {
            x0: 0,
            x1,
            y0: 0,
            y1,
            z0: 0,
            z1,
        };
        let mut out = vec![whole; n_tasks];
        reference_bisect(grid, whole, 0, n_tasks, &mut out)?;
        Ok(out)
    }

    fn reference_bisect(
        grid: &VoxelGrid,
        region: BoxRegion,
        task0: usize,
        n_tasks: usize,
        out: &mut [BoxRegion],
    ) -> Result<(), RcbError> {
        if n_tasks == 1 {
            out[task0] = region;
            return Ok(());
        }
        let n_left = n_tasks / 2;
        let lo = [region.x0, region.y0, region.z0];
        let hi = [region.x1, region.y1, region.z1];
        let mut best: Option<(usize, usize, f64)> = None;
        for axis in 0..3 {
            let mut counts = vec![0usize; hi[axis] - lo[axis]];
            for z in region.z0..region.z1 {
                for y in region.y0..region.y1 {
                    for x in region.x0..region.x1 {
                        if grid.get(x, y, z).is_fluid() {
                            counts[[x, y, z][axis] - lo[axis]] += 1;
                        }
                    }
                }
            }
            let total: usize = counts.iter().sum();
            let want = total as f64 * n_left as f64 / n_tasks as f64;
            let mut acc = 0usize;
            for (i, &c) in counts.iter().enumerate().take(counts.len() - 1) {
                acc += c;
                let err = (acc as f64 - want).abs();
                if best.as_ref().is_none_or(|&(_, _, e)| err < e) {
                    best = Some((axis, lo[axis] + i + 1, err));
                }
            }
        }
        let (axis, plane, _) = best.ok_or(RcbError::Unsplittable { region, n_tasks })?;
        let (mut left, mut right) = (region, region);
        match axis {
            0 => (left.x1, right.x0) = (plane, plane),
            1 => (left.y1, right.y0) = (plane, plane),
            _ => (left.z1, right.z0) = (plane, plane),
        }
        reference_bisect(grid, left, task0, n_left, out)?;
        reference_bisect(grid, right, task0 + n_left, n_tasks - n_left, out)
    }

    /// `try_new` on `g` at 0 to 40 tasks and at the calibration counts:
    /// the reference's regions, or its error.
    fn assert_cuts_match_reference(g: &VoxelGrid) {
        for n in (0..=40).chain(CALIBRATION_COUNTS) {
            let got = RcbPartition::try_new(g, n).map(|p| p.regions);
            assert_eq!(got, reference(g, n), "{:?} grid, {n} tasks", g.dims());
        }
    }

    fn assert_matches_reference(g: &VoxelGrid, n: usize) {
        let p = RcbPartition::new(g, n);
        let expect = reference(g, n).expect("the reference cuts where try_new does");
        assert_eq!(p.regions, expect, "{n} tasks");
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            assert!(expect[p.owner_of(x, y, z)].contains(x, y, z));
        }
    }

    #[test]
    fn fluid_indexed_cuts_match_the_box_scanning_reference() {
        let cyl = CylinderSpec::default().with_resolution(8).build();
        let tree = CerebralSpec::default()
            .with_generations(3)
            .with_resolution(5)
            .build();
        for g in [&cyl, &tree] {
            for n in [1usize, 2, 3, 7, 16, 36, 64] {
                assert_matches_reference(g, n);
            }
        }
    }

    /// Lumpy grids from 5% to 95% fluid, with one-voxel axes and solid
    /// rows and slabs; full boxes, whose every row is one run from x = 0
    /// to x = nx; and checkerboards, a run per fluid point.
    #[test]
    fn run_cuts_match_the_box_scanning_reference_on_lumpy_grids() {
        check::run(
            "run_cuts_match_the_box_scanning_reference_on_lumpy_grids",
            Config::cases(64),
            |rng| {
                let fluid_pct = rng.range_u64(5, 96);
                assert_cuts_match_reference(&lumpy_grid(rng, fluid_pct));
                let mut side = || rng.range_usize(1, 10);
                let (nx, ny, nz) = (side(), side(), side());
                assert_cuts_match_reference(&VoxelGrid::filled(nx, ny, nz, 1.0, CellType::Bulk));
                let mut board = VoxelGrid::solid(nx, ny, nz, 1.0);
                for i in 0..board.len() {
                    let (x, y, z) = board.coords(i);
                    if (x + y + z) % 2 == 0 {
                        board.set_linear(i, CellType::Bulk);
                    }
                }
                assert_cuts_match_reference(&board);
            },
        );
    }

    /// The owner array `bisect` filled before owners became row runs —
    /// every leaf box written with its leaf, voxel by voxel — kept as the
    /// oracle for them.
    fn reference_owner(dims: (usize, usize, usize), leaves: &[BoxRegion]) -> Vec<u32> {
        let mut owner = vec![0u32; dims.0 * dims.1 * dims.2];
        for (leaf, r) in leaves.iter().enumerate() {
            for z in r.z0..r.z1 {
                for y in r.y0..r.y1 {
                    let row = dims.0 * (y + dims.1 * z);
                    owner[row + r.x0..row + r.x1].fill(leaf as u32);
                }
            }
        }
        owner
    }

    /// Every view of every tree [`sweep_with`] builds for the calibration
    /// counts and a handful of odd ones answers `owner_of` on every voxel,
    /// fluid or solid, and `assign_fluid_cells`, as the box array did.
    fn assert_runs_match_the_box_array(g: &VoxelGrid) {
        let mut counts = CALIBRATION_COUNTS.to_vec();
        counts.extend([3, 5, 6, 7, 13, 36]);
        sweep_with(g, &counts, |leaves, halvings| {
            let owner = reference_owner(g.dims(), &leaves.regions);
            for &h in halvings {
                let view = leaves.coarsened(h);
                for (i, &leaf) in owner.iter().enumerate() {
                    let (x, y, z) = g.coords(i);
                    assert_eq!(
                        view.owner_of(x, y, z),
                        (leaf >> h) as usize,
                        "{} leaves >> {h} at ({x}, {y}, {z})",
                        leaves.n_tasks
                    );
                }
                let fluid: Vec<u32> = owner
                    .iter()
                    .zip(g.cells())
                    .filter(|(_, c)| c.is_fluid())
                    .map(|(&leaf, _)| leaf >> h)
                    .collect();
                assert_eq!(view.assign_fluid_cells(g), fluid);
            }
            vec![(); halvings.len()]
        });
    }

    /// A random grid of 1 to 11 voxels a side — an axis one voxel thick a
    /// fifth of the time, `nx == 1` among them — about `fluid_pct` percent
    /// fluid, with a few whole rows and perhaps a z-slab made solid.
    fn lumpy_grid(rng: &mut Rng, fluid_pct: u64) -> VoxelGrid {
        let mut side = || match rng.range_u64(0, 5) {
            0 => 1,
            _ => rng.range_usize(2, 12),
        };
        let (nx, ny, nz) = (side(), side(), side());
        let mut g = VoxelGrid::solid(nx, ny, nz, 1.0);
        for i in 0..g.len() {
            if rng.range_u64(0, 100) < fluid_pct {
                g.set_linear(i, CellType::Bulk);
            }
        }
        for _ in 0..rng.range_usize(0, 4) {
            let (y, z) = (rng.range_usize(0, ny), rng.range_usize(0, nz));
            for x in 0..nx {
                g.set(x, y, z, CellType::Solid);
            }
        }
        if rng.range_u64(0, 2) == 0 {
            let z = rng.range_usize(0, nz);
            for y in 0..ny {
                for x in 0..nx {
                    g.set(x, y, z, CellType::Solid);
                }
            }
        }
        g
    }

    #[test]
    fn row_runs_match_the_box_owner_array() {
        check::run(
            "row_runs_match_the_box_owner_array",
            Config::cases(64),
            |rng| {
                let fluid_pct = rng.range_u64(0, 101);
                assert_runs_match_the_box_array(&lumpy_grid(rng, fluid_pct));
            },
        );
        let mut rng = Rng::new(27);
        let unsplittable = loop {
            let g = lumpy_grid(&mut rng, 70);
            if matches!(
                RcbPartition::try_new(&g, 256),
                Err(RcbError::Unsplittable { .. })
            ) {
                break g;
            }
        };
        assert_runs_match_the_box_array(&unsplittable);
        for g in [
            AortaSpec::default().with_resolution(10).build(),
            CerebralSpec::default()
                .with_generations(3)
                .with_resolution(5)
                .build(),
            CylinderSpec::default().with_resolution(8).build(),
            StenosisSpec::default().build(),
            AneurysmSpec::default().build(),
        ] {
            assert_runs_match_the_box_array(&g);
        }
    }

    #[test]
    fn coarsened_view_is_the_smaller_tree() {
        let g = CylinderSpec::default().with_resolution(8).build();
        let fine = RcbPartition::new(&g, 64);
        for k in 0..=6u32 {
            let view = fine.coarsened(6 - k);
            let direct = RcbPartition::new(&g, 1 << k);
            assert_eq!(view.n_tasks(), 1 << k);
            assert_eq!(view.regions, direct.regions);
            assert_eq!(view.assign_fluid_cells(&g), direct.assign_fluid_cells(&g));
        }
    }

    #[test]
    fn sweep_builds_one_tree_for_the_powers_of_two_and_keeps_request_order() {
        let g = CylinderSpec::default().with_resolution(8).build();
        let counts = [4usize, 0, 6, 64, 1, 1 << 30, 16];
        let swept = sweep(&g, &counts);
        assert_eq!(swept.len(), counts.len());
        for (&n, p) in counts.iter().zip(&swept) {
            match p {
                Ok(p) => {
                    assert_eq!(p.n_tasks(), n);
                    assert_eq!(p.regions, RcbPartition::new(&g, n).regions);
                }
                Err(e) => assert_eq!(Some(*e), RcbPartition::try_new(&g, n).err()),
            }
        }
        assert_eq!(swept[1].as_ref().err(), Some(&RcbError::ZeroTasks));
        assert!(matches!(swept[5], Err(RcbError::TooManyTasks { .. })));
        // 4, 1 and 16 are views of the 64-task tree.
        for i in [0, 4, 6] {
            let view = swept[i].as_ref().unwrap();
            assert!(Arc::ptr_eq(&view.runs, &swept[3].as_ref().unwrap().runs));
        }
    }

    #[test]
    fn one_voxel_handed_two_tasks_is_a_typed_error() {
        // Five fluid points, five tasks — but the 2|3 task split meets a
        // 2|3 fluid cut only on paper: the z cut gives the lower slab one
        // point and two tasks (found by the `try_new` property test).
        let mut g = VoxelGrid::filled(2, 1, 3, 1.0, CellType::Bulk);
        g.set(1, 0, 0, CellType::Solid);
        assert!(matches!(
            RcbPartition::try_new(&g, 5),
            Err(RcbError::Unsplittable { n_tasks: 2, region }) if region.volume() == 1
        ));
        assert!(RcbPartition::try_new(&g, 4).is_ok());
        assert_eq!(
            RcbPartition::try_new(&g, 6).err(),
            Some(RcbError::TooManyTasks {
                n_tasks: 6,
                fluid_points: 5
            })
        );
        assert_eq!(
            RcbPartition::try_new(&g, 0).err(),
            Some(RcbError::ZeroTasks)
        );
    }

    #[test]
    #[should_panic(expected = "more tasks than fluid")]
    fn oversubscription_panics() {
        let mut g = VoxelGrid::solid(3, 3, 3, 1.0);
        g.set(1, 1, 1, CellType::Bulk);
        let _ = RcbPartition::new(&g, 2);
    }
}
