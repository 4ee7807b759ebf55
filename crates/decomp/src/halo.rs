//! Per-task communication structure of a decomposed geometry.
//!
//! For a given partition of a voxel grid, this module measures everything
//! the *direct* performance model needs (paper §II-D):
//!
//! * fluid points per task (memory-side load, Eq. 9's outer sum);
//! * boundary points per task and the exact message graph — for every
//!   ordered task pair, how many boundary points' distributions cross it
//!   (halo message sizes, Eq. 5);
//! * the per-task message count (communication events, the measured
//!   counterpart of Eq. 15).
//!
//! A fluid point is a *boundary point toward task B* if any of its D3Q19
//! neighbors is a fluid point owned by B. Each such point contributes
//! `n_point_comm_bytes` to the A→B message, sent once per timestep.

use crate::census::CensusEntry;
use crate::partition::Ownership;
use hemocloud_geometry::classify::D3Q19_DIRECTIONS;
use hemocloud_geometry::voxel::{CellType, VoxelGrid};
use std::collections::BTreeMap;

/// Full communication census of one decomposition.
#[derive(Debug, Clone)]
pub struct DecompAnalysis {
    /// Number of tasks in the partition.
    pub n_tasks: usize,
    /// Fluid points owned by each task.
    pub points_per_task: Vec<usize>,
    /// Points on each task that border at least one other task.
    pub boundary_points_per_task: Vec<usize>,
    /// `messages[a]` maps peer task `b` to the number of boundary points
    /// task `a` sends to `b` each step.
    pub messages: Vec<BTreeMap<usize, usize>>,
    /// Total fluid points in the geometry.
    pub total_points: usize,
}

impl DecompAnalysis {
    /// Analyze `grid` under `partition`: the one-level [`walk`].
    pub fn analyze<P: Ownership>(grid: &VoxelGrid, partition: &P) -> Self {
        walk(grid, partition, &[0], 0.0, 0.0).remove(0).analysis
    }

    /// Load-imbalance factor `z`: the maximum per-task point count divided
    /// by the perfectly balanced share (paper Eq. 10 rearranged). Tasks
    /// owning no fluid still count toward the denominator — an empty task
    /// is wasted capacity, exactly what `z` measures.
    pub fn z_factor(&self) -> f64 {
        let max = *self.points_per_task.iter().max().unwrap_or(&0);
        if self.total_points == 0 {
            return 1.0;
        }
        let ideal = self.total_points as f64 / self.n_tasks as f64;
        max as f64 / ideal
    }

    /// Maximum number of messages sent by any task (its neighbor count).
    pub fn max_messages(&self) -> usize {
        self.messages.iter().map(|m| m.len()).max().unwrap_or(0)
    }

    /// Maximum total points any task sends per step (sum over its
    /// messages): the halo volume of the worst task.
    pub fn max_send_points(&self) -> usize {
        self.messages
            .iter()
            .map(|m| m.values().sum::<usize>())
            .max()
            .unwrap_or(0)
    }

    /// Check the message graph is symmetric in peers: A sends to B iff B
    /// sends to A (sizes may differ at ragged fluid boundaries only by the
    /// points each side counts; peer sets must match exactly).
    pub fn is_peer_symmetric(&self) -> bool {
        for (a, msgs) in self.messages.iter().enumerate() {
            for &b in msgs.keys() {
                if !self.messages[b].contains_key(&a) {
                    return false;
                }
            }
        }
        true
    }
}

/// The census of `partition` at every level of `shifts` (ascending) from
/// one pass over `grid`: level `s` is the partition whose task of a voxel
/// is `partition.owner(..) >> s` — for an RCB tree the
/// [`crate::RcbPartition::coarsened`] view `s` levels up. An entry's
/// `task_bytes` are the per-task memory-access byte totals (the direct
/// model's Eq. 9 sums): every fluid point contributes `bulk_bytes`, or
/// `wall_bytes` if it touches solid or is an inlet/outlet cell (they also
/// skip remote reads) — a running sum per level in memory order, because
/// `wall_bytes` is not a whole number and `count × weight` would round
/// differently.
///
/// Only the directions that leave the point's own leaf box (and stay in
/// the grid) are probed: a neighbour inside it has the point's task at
/// every level. The distinct foreign *leaf* owners found, shifted by `s`,
/// are the point's peers at level `s`, and once none is foreign none is
/// further up (DESIGN.md §19). Only the rows that hold fluid are visited,
/// and `partition.owner` is asked only where a box check cannot answer: a
/// point's owner is kept along its row until `x` leaves that owner's box
/// (a *segment*, whose task and byte sum at every level are taken once),
/// a neighbour's is the owner last found in the same direction from the
/// same task while its box contains the neighbour. Consecutive points of
/// one task with the same foreign leaves are carried up the levels once.
///
/// # Panics
/// Panics when `partition` was cut from a grid of another shape.
pub fn walk<P: Ownership>(
    grid: &VoxelGrid,
    partition: &P,
    shifts: &[u32],
    bulk_bytes: f64,
    wall_bytes: f64,
) -> Vec<CensusEntry> {
    assert_eq!(
        partition.dims(),
        grid.dims(),
        "partition's and grid's shape"
    );
    assert!(shifts.is_sorted(), "levels {shifts:?} must ascend");
    crate::census_walks().inc();
    crate::censuses().add(shifts.len() as u64);

    let leaves = partition.task_count();
    let regions: Vec<_> = (0..leaves).map(|t| partition.region(t)).collect();
    let mut leaf_points = vec![0usize; leaves];
    let mut levels: Vec<Level> = shifts
        .iter()
        .map(|&shift| {
            let n_tasks = leaves.div_ceil(1 << shift);
            Level {
                shift,
                task: 0,
                bytes: vec![0.0; n_tasks],
                boundary: vec![0; n_tasks],
                tallies: vec![Vec::new(); n_tasks],
            }
        })
        .collect();
    // Per level, the byte sum of the current segment's task, stored back
    // when the segment ends: every sum still adds its points in memory
    // order.
    let mut sums = vec![0.0; levels.len()];
    // For every set of box faces a point can sit on (per axis a low bit,
    // then a high bit), the directions (bits over `D3Q19_DIRECTIONS`)
    // that cross one of them.
    let crossing: Vec<u32> = (0..64)
        .map(|faces: usize| {
            let crosses =
                |d: i32, axis: usize| d != 0 && faces >> (2 * axis + usize::from(d > 0)) & 1 == 1;
            (0..D3Q19_DIRECTIONS.len())
                .filter(|&d| {
                    let (dx, dy, dz) = D3Q19_DIRECTIONS[d];
                    crosses(dx, 0) || crosses(dy, 1) || crosses(dz, 2)
                })
                .fold(0, |bits, d| bits | 1 << d)
        })
        .collect();
    let (nx, ny, nz) = grid.dims();
    let offsets = D3Q19_DIRECTIONS
        .map(|(dx, dy, dz)| dx as isize + nx as isize * (dy as isize + ny as isize * dz as isize));
    // Per task and direction, the owner last found that way from a point
    // of that task: its next point's neighbour that way is usually in the
    // same box. (One hint per direction alone misses far more often: a
    // row crosses several tasks, and each points it elsewhere.)
    let mut hints = vec![[0usize; D3Q19_DIRECTIONS.len()]; leaves];
    let mut run = PeerRun::default();

    for (y, z, cells) in grid.fluid_rows() {
        let row = nx * (y + ny * z);
        let grid_yz = faces(y, 0, ny) << 2 | faces(z, 0, nz) << 4;
        // The point's owner holds the row up to its box's `x1`.
        let (mut me, mut me_x1, mut box_yz) = (0, 0, 0);
        for (x, &c) in cells.iter().enumerate() {
            if !c.is_fluid() {
                continue;
            }
            if x >= me_x1 {
                me = partition.owner(x, y, z);
                let r = &regions[me];
                me_x1 = r.x1;
                box_yz = faces(y, r.y0, r.y1) << 2 | faces(z, r.z0, r.z1) << 4;
                for (level, sum) in levels.iter_mut().zip(&mut sums) {
                    level.bytes[level.task] = *sum;
                    level.task = me >> level.shift;
                    *sum = level.bytes[level.task];
                }
            }
            leaf_points[me] += 1;
            let weight = match c {
                CellType::Bulk => bulk_bytes,
                _ => wall_bytes,
            };
            for sum in &mut sums {
                *sum += weight;
            }

            // Which foreign leaves does this point border? A direction that
            // leaves the grid has no neighbour, and the rest have an index.
            let mut probe = crossing[box_yz | faces(x, regions[me].x0, me_x1)]
                & !crossing[grid_yz | faces(x, 0, nx)];
            let mut peers = [0usize; D3Q19_DIRECTIONS.len()];
            let mut n_peers = 0;
            while probe != 0 {
                let d = probe.trailing_zeros() as usize;
                probe &= probe - 1;
                if grid.cells()[(row + x).wrapping_add_signed(offsets[d])].is_fluid() {
                    let (dx, dy, dz) = D3Q19_DIRECTIONS[d];
                    let (qx, qy, qz) = (
                        x.wrapping_add_signed(dx as isize),
                        y.wrapping_add_signed(dy as isize),
                        z.wrapping_add_signed(dz as isize),
                    );
                    let hint = &mut hints[me][d];
                    if !regions[*hint].contains(qx, qy, qz) {
                        *hint = partition.owner(qx, qy, qz);
                    }
                    let owner = *hint;
                    if owner != me && !peers[..n_peers].contains(&owner) {
                        peers[n_peers] = owner;
                        n_peers += 1;
                    }
                }
            }
            if n_peers == 0 {
                continue;
            }
            // Along a box face, point after point borders the same leaves.
            if run.me == me && run.peers[..run.n_peers] == peers[..n_peers] {
                run.points += 1;
            } else {
                run.carry(&mut levels);
                (run.me, run.peers, run.n_peers, run.points) = (me, peers, n_peers, 1);
            }
        }
    }
    run.carry(&mut levels);
    for (level, sum) in levels.iter_mut().zip(&sums) {
        level.bytes[level.task] = *sum;
    }

    let total_points = leaf_points.iter().sum();
    levels
        .into_iter()
        .map(|level| {
            let n_tasks = level.bytes.len();
            let mut points_per_task = vec![0; n_tasks];
            for (leaf, &points) in leaf_points.iter().enumerate() {
                points_per_task[leaf >> level.shift] += points;
            }
            CensusEntry {
                analysis: DecompAnalysis {
                    n_tasks,
                    points_per_task,
                    boundary_points_per_task: level.boundary,
                    messages: level.tallies.into_iter().map(BTreeMap::from_iter).collect(),
                    total_points,
                },
                task_bytes: level.bytes,
            }
        })
        .collect()
}

/// The faces of `[lo, hi)` that `v` sits on: bit 0 the low, bit 1 the high.
#[inline]
fn faces(v: usize, lo: usize, hi: usize) -> usize {
    usize::from(v == lo) | usize::from(v + 1 == hi) << 1
}

/// One level of a [`walk`] in progress: its tasks' byte sums, boundary
/// points and `(peer, points)` tallies.
struct Level {
    shift: u32,
    /// The current segment's task at this level.
    task: usize,
    bytes: Vec<f64>,
    boundary: Vec<usize>,
    tallies: Vec<Vec<(usize, usize)>>,
}

/// Consecutive boundary points of leaf `me` that border the same foreign
/// leaves, in the order the walk found them.
#[derive(Default)]
struct PeerRun {
    me: usize,
    peers: [usize; D3Q19_DIRECTIONS.len()],
    n_peers: usize,
    points: usize,
}

impl PeerRun {
    /// Count the run's points at every level where a peer is still
    /// foreign, merging peers as they coincide.
    fn carry(&mut self, levels: &mut [Level]) {
        let (peers, mut n_peers, mut at) = (&mut self.peers, self.n_peers, 0);
        for level in levels {
            let me = self.me >> level.shift;
            let mut kept = 0;
            for i in 0..n_peers {
                let peer = peers[i] >> (level.shift - at);
                if peer != me && !peers[..kept].contains(&peer) {
                    peers[kept] = peer;
                    kept += 1;
                }
            }
            (n_peers, at) = (kept, level.shift);
            if n_peers == 0 {
                break;
            }
            level.boundary[me] += self.points;
            for &peer in &peers[..n_peers] {
                let tally = &mut level.tallies[me];
                match tally.iter_mut().find(|(p, _)| *p == peer) {
                    Some((_, points)) => *points += self.points,
                    None => tally.push((peer, self.points)),
                }
            }
        }
    }
}

/// Per-task *resident-memory* byte totals: every fluid point owned by a
/// task contributes `point_bytes` of storage (distribution arrays plus the
/// streaming-index row — the kernel's `resident_bytes_per_point`, not its
/// per-step traffic). This is what capacity planning compares against a
/// node's memory, and it depends on the propagation pattern: AA kernels
/// never allocate the second distribution array, so their footprint is
/// computed from a smaller `point_bytes` than AB's — the accounting can no
/// longer silently assume two arrays. A product, not a per-point sum: byte
/// counts are whole numbers, so the two agree to the last bit.
pub fn resident_bytes_per_task(analysis: &DecompAnalysis, point_bytes: f64) -> Vec<f64> {
    analysis
        .points_per_task
        .iter()
        .map(|&points| points as f64 * point_bytes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CALIBRATION_COUNTS;
    use crate::partition::{BlockPartition, SlabPartition};
    use crate::rcb::{self, RcbError, RcbPartition};
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_rt::check::{self, Config};
    use hemocloud_rt::rng::Rng;

    fn full_box(n: usize) -> VoxelGrid {
        VoxelGrid::filled(n, n, n, 1.0, CellType::Bulk)
    }

    /// The one-partition census this module took before [`walk`] — every
    /// fluid point probed, one pass for the halo and one for the bytes —
    /// kept as the oracle for it.
    fn reference<P: Ownership>(
        grid: &VoxelGrid,
        partition: &P,
        bulk_bytes: f64,
        wall_bytes: f64,
    ) -> CensusEntry {
        let n_tasks = partition.task_count();
        let mut points = vec![0usize; n_tasks];
        let mut boundary = vec![0usize; n_tasks];
        let mut messages: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); n_tasks];
        let mut total = 0usize;

        for (x, y, z, c) in grid.iter_cells() {
            if !c.is_fluid() {
                continue;
            }
            total += 1;
            let me = partition.owner(x, y, z);
            points[me] += 1;

            // Which foreign tasks does this point border?
            let mut peers: Vec<usize> = Vec::new();
            for &(dx, dy, dz) in &D3Q19_DIRECTIONS {
                if grid.get_offset(x, y, z, dx, dy, dz).is_fluid() {
                    let nx = (x as i64 + dx as i64) as usize;
                    let ny = (y as i64 + dy as i64) as usize;
                    let nz = (z as i64 + dz as i64) as usize;
                    let owner = partition.owner(nx, ny, nz);
                    if owner != me && !peers.contains(&owner) {
                        peers.push(owner);
                    }
                }
            }
            if !peers.is_empty() {
                boundary[me] += 1;
                for peer in peers {
                    *messages[me].entry(peer).or_insert(0) += 1;
                }
            }
        }

        let mut bytes = vec![0.0; n_tasks];
        for (x, y, z, c) in grid.iter_cells() {
            if !c.is_fluid() {
                continue;
            }
            let task = partition.owner(x, y, z);
            bytes[task] += match c {
                CellType::Bulk => bulk_bytes,
                _ => wall_bytes,
            };
        }

        let analysis = DecompAnalysis {
            n_tasks,
            points_per_task: points,
            boundary_points_per_task: boundary,
            messages,
            total_points: total,
        };
        CensusEntry {
            analysis,
            task_bytes: bytes,
        }
    }

    /// Weights that are not whole numbers, as a measured k̄ makes them.
    const WEIGHTS: (f64, f64) = (380.5, 301.25);

    fn assert_same(got: &CensusEntry, want: &CensusEntry, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (a, b) = (&got.analysis, &want.analysis);
        assert_eq!(a.n_tasks, b.n_tasks, "{what}: n_tasks");
        assert_eq!(a.points_per_task, b.points_per_task, "{what}: points");
        assert_eq!(
            a.boundary_points_per_task, b.boundary_points_per_task,
            "{what}: boundary points"
        );
        assert_eq!(a.messages, b.messages, "{what}: messages");
        assert_eq!(a.total_points, b.total_points, "{what}: total");
        assert_eq!(
            bits(&got.task_bytes),
            bits(&want.task_bytes),
            "{what}: byte sums"
        );
    }

    /// The walk against the reference on `g`: every calibration view of
    /// the shared RCB tree and a handful of odd counts through
    /// [`CensusEntry::sweep`] (same errors where the grid cannot host a
    /// count), and block and slab partitions at shift 0.
    fn assert_walk_matches_reference(g: &VoxelGrid) {
        let (bulk, wall) = WEIGHTS;
        let mut counts = CALIBRATION_COUNTS.to_vec();
        counts.extend([3, 5, 6, 7, 13, 36]);
        let swept = CensusEntry::sweep(g, &counts, bulk, wall);
        assert_eq!(swept.len(), counts.len());
        for ((&n, got), partition) in counts.iter().zip(swept).zip(rcb::sweep(g, &counts)) {
            match (got, partition) {
                (Ok(got), Ok(p)) => {
                    assert_same(&got, &reference(g, &p, bulk, wall), &format!("rcb {n}"))
                }
                (got, p) => assert_eq!(got.err(), p.err(), "rcb {n}"),
            }
        }
        // Levels with gaps between them: peers carried over skipped ones.
        if let Ok(tree) = RcbPartition::try_new(g, 256) {
            let shifts = [1, 4, 5, 8];
            for (got, &s) in walk(g, &tree, &shifts, bulk, wall).iter().zip(&shifts) {
                let want = reference(g, &tree.coarsened(s), bulk, wall);
                assert_same(got, &want, &format!("256 leaves >> {s}"));
            }
        }
        let (nx, ny, nz) = g.dims();
        for n in [1, 4, nx.min(ny).min(nz)] {
            let block = BlockPartition::new(g.dims(), n);
            let got = walk(g, &block, &[0], bulk, wall).remove(0);
            assert_same(
                &got,
                &reference(g, &block, bulk, wall),
                &format!("block {n}"),
            );
            let slab = SlabPartition::new(g.dims(), n);
            let got = walk(g, &slab, &[0], bulk, wall).remove(0);
            assert_same(&got, &reference(g, &slab, bulk, wall), &format!("slab {n}"));
        }
    }

    /// A random grid of 6 to 9 voxels a side, about `fluid_pct` percent
    /// fluid of every fluid cell type; with `shell`, fluid on all six grid
    /// faces too, so probes that would leave the grid are everywhere.
    fn lumpy_grid(rng: &mut Rng, fluid_pct: u64, shell: bool) -> VoxelGrid {
        let mut side = || rng.range_usize(6, 10);
        let mut g = VoxelGrid::solid(side(), side(), side(), 1.0);
        let (nx, ny, nz) = g.dims();
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            let on_face = x % (nx - 1) == 0 || y % (ny - 1) == 0 || z % (nz - 1) == 0;
            if shell && on_face || rng.range_u64(0, 100) < fluid_pct {
                let kind = [
                    CellType::Bulk,
                    CellType::Wall,
                    CellType::Inlet,
                    CellType::Outlet,
                ];
                g.set_linear(i, kind[rng.range_usize(0, 4)]);
            }
        }
        g
    }

    #[test]
    fn walk_matches_the_reference_on_random_lumpy_grids() {
        // 216 to 729 voxels at 0-90% fluid straddle 256 fluid points: the
        // shared tree is built at 256 tasks, below it, or not at all.
        check::run(
            "walk_matches_the_reference_on_random_lumpy_grids",
            Config::cases(48),
            |rng| {
                let fluid_pct = rng.range_u64(0, 91);
                let shell = rng.range_u64(0, 2) == 0;
                assert_walk_matches_reference(&lumpy_grid(rng, fluid_pct, shell));
            },
        );
    }

    #[test]
    fn walk_matches_the_reference_where_the_tree_stops_short() {
        assert_walk_matches_reference(&VoxelGrid::solid(4, 5, 6, 1.0));
        let mut rng = Rng::new(22);
        let mut first = |wanted: fn(&VoxelGrid) -> bool| loop {
            let g = lumpy_grid(&mut rng, 60, false);
            if wanted(&g) {
                break g;
            }
        };
        assert_walk_matches_reference(&first(|g| (1..256).contains(&g.fluid_count())));
        assert_walk_matches_reference(&first(|g| {
            matches!(
                RcbPartition::try_new(g, 256),
                Err(RcbError::Unsplittable { .. })
            )
        }));
        assert_walk_matches_reference(&CylinderSpec::default().with_resolution(8).build());
    }

    #[test]
    fn walk_matches_the_reference_on_full_and_hollow_boxes() {
        assert_walk_matches_reference(&VoxelGrid::filled(7, 8, 9, 1.0, CellType::Wall));
        let mut rng = Rng::new(40);
        assert_walk_matches_reference(&lumpy_grid(&mut rng, 0, true));
        assert_walk_matches_reference(&lumpy_grid(&mut rng, 50, true));
    }

    #[test]
    #[should_panic(expected = "partition's and grid's shape\n  left: (4, 4, 8)\n right: (8, 4, 4)")]
    fn a_partition_of_another_grid_is_refused_by_name() {
        let cut_from = VoxelGrid::filled(4, 4, 8, 1.0, CellType::Bulk);
        let handed = VoxelGrid::filled(8, 4, 4, 1.0, CellType::Bulk);
        let _ = DecompAnalysis::analyze(&handed, &RcbPartition::new(&cut_from, 4));
    }

    #[test]
    fn single_task_has_no_messages() {
        let g = full_box(6);
        let p = BlockPartition::new(g.dims(), 1);
        let a = DecompAnalysis::analyze(&g, &p);
        assert_eq!(a.max_messages(), 0);
        assert_eq!(a.boundary_points_per_task, vec![0]);
        assert_eq!(a.z_factor(), 1.0);
        assert_eq!(a.points_per_task, vec![216]);
    }

    #[test]
    fn two_slabs_exchange_one_face() {
        let g = full_box(8);
        let p = SlabPartition::new(g.dims(), 2);
        let a = DecompAnalysis::analyze(&g, &p);
        assert_eq!(a.n_tasks, 2);
        assert_eq!(a.points_per_task, vec![256, 256]);
        // Each slab's boundary is one 8×8 face.
        assert_eq!(a.boundary_points_per_task, vec![64, 64]);
        assert_eq!(a.messages[0][&1], 64);
        assert_eq!(a.messages[1][&0], 64);
        assert_eq!(a.max_messages(), 1);
    }

    #[test]
    fn eight_blocks_have_seven_peers_each() {
        // 2×2×2 blocks of a full cube: every block touches the other 7
        // (faces, edges and corners all carry D3Q19 edge directions —
        // corners only via shared edge-diagonal paths, so check ≥3).
        let g = full_box(8);
        let p = BlockPartition::new(g.dims(), 8);
        let a = DecompAnalysis::analyze(&g, &p);
        for m in &a.messages {
            assert!(m.len() >= 3, "block with {} peers", m.len());
        }
        assert!(a.is_peer_symmetric());
    }

    #[test]
    fn message_totals_are_pairwise_equal_on_uniform_cube() {
        let g = full_box(8);
        let p = BlockPartition::new(g.dims(), 8);
        let a = DecompAnalysis::analyze(&g, &p);
        for (t, msgs) in a.messages.iter().enumerate() {
            for (&peer, &pts) in msgs {
                assert_eq!(
                    a.messages[peer][&t], pts,
                    "asymmetric exchange {t} <-> {peer}"
                );
            }
        }
    }

    #[test]
    fn z_grows_on_sparse_geometry() {
        // A cylinder split into blocks: corner blocks catch little fluid,
        // so z > 1.
        let g = CylinderSpec::default().with_resolution(12).build();
        let p = BlockPartition::new(g.dims(), 8);
        let a = DecompAnalysis::analyze(&g, &p);
        assert!(a.z_factor() > 1.0, "z = {}", a.z_factor());
        let total: usize = a.points_per_task.iter().sum();
        assert_eq!(total, a.total_points);
    }

    #[test]
    fn slab_beats_block_on_message_count_but_not_volume() {
        // Slabs have at most 2 peers but huge faces; blocks have more peers
        // with smaller total halo at high task counts.
        let g = full_box(16);
        let slab = DecompAnalysis::analyze(&g, &SlabPartition::new(g.dims(), 8));
        let block = DecompAnalysis::analyze(&g, &BlockPartition::new(g.dims(), 8));
        assert!(slab.max_messages() <= 2);
        assert!(block.max_messages() > slab.max_messages());
        assert!(
            block.max_send_points() < slab.max_send_points(),
            "block {} vs slab {}",
            block.max_send_points(),
            slab.max_send_points()
        );
    }

    #[test]
    fn bytes_per_task_weights_cell_types() {
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        g.set(0, 0, 0, CellType::Wall);
        let p = BlockPartition::new(g.dims(), 1);
        let bytes = walk(&g, &p, &[0], 10.0, 3.0).remove(0).task_bytes;
        assert_eq!(bytes, vec![63.0 * 10.0 + 3.0]);
    }

    #[test]
    fn bytes_per_task_totals_are_partition_invariant() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let p1 = BlockPartition::new(g.dims(), 1);
        let p8 = BlockPartition::new(g.dims(), 8);
        let t1: f64 = walk(&g, &p1, &[0], 380.0, 320.0)[0].task_bytes.iter().sum();
        let t8: f64 = walk(&g, &p8, &[0], 380.0, 320.0)[0].task_bytes.iter().sum();
        assert!((t1 - t8).abs() < 1e-6);
    }

    #[test]
    fn resident_bytes_count_every_fluid_point_once() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let p = BlockPartition::new(g.dims(), 8);
        let a = DecompAnalysis::analyze(&g, &p);
        let resident = resident_bytes_per_task(&a, 228.0);
        assert_eq!(resident.len(), 8);
        let total: f64 = resident.iter().sum();
        assert!((total - a.total_points as f64 * 228.0).abs() < 1e-6);
        // Per task, the footprint is exactly points × point_bytes.
        for (task, &b) in resident.iter().enumerate() {
            assert_eq!(b, a.points_per_task[task] as f64 * 228.0);
        }
    }

    #[test]
    fn resident_bytes_scale_linearly_with_point_cost() {
        // The AB→AA memory saving flows straight through: a kernel whose
        // per-point footprint is 228/380 of AB's yields per-task footprints
        // scaled by the same ratio on every task.
        let g = CylinderSpec::default().with_resolution(10).build();
        let p = BlockPartition::new(g.dims(), 4);
        let a = DecompAnalysis::analyze(&g, &p);
        let ab = resident_bytes_per_task(&a, 380.0);
        let aa = resident_bytes_per_task(&a, 228.0);
        for (a, b) in ab.iter().zip(&aa) {
            assert!((b / a - 228.0 / 380.0).abs() < 1e-12);
        }
    }

    #[test]
    fn resident_bytes_pinned_for_single_precision_kernels() {
        // The f32 storage points the lbm kernels now actually allocate:
        //   AB f32: 2 arrays × 19 × 4 B + 19 × 4 B index = 228 B/point
        //   AA f32: 1 array  × 19 × 4 B + 19 × 4 B index = 152 B/point
        // (`KernelConfig::resident_bytes_per_point` values; decomp takes
        // them as plain numbers, so pin the end-to-end totals here.)
        let g = full_box(6);
        let p = BlockPartition::new(g.dims(), 2);
        let a = DecompAnalysis::analyze(&g, &p);
        let ab_f32 = resident_bytes_per_task(&a, 228.0);
        let aa_f32 = resident_bytes_per_task(&a, 152.0);
        let points = 6.0 * 6.0 * 6.0;
        assert_eq!(ab_f32.iter().sum::<f64>(), points * 228.0);
        assert_eq!(aa_f32.iter().sum::<f64>(), points * 152.0);
        // Same byte totals as AA/AB double scaled by 4/8 on the array
        // part: AB f32 == AA f64 (228), and AA f32 sits strictly below.
        let aa_f64 = resident_bytes_per_task(&a, 228.0);
        assert_eq!(ab_f32, aa_f64);
        for (s, d) in aa_f32.iter().zip(&aa_f64) {
            assert!(s < d);
        }
    }

    #[test]
    fn peer_symmetry_on_anatomy() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let p = BlockPartition::new(g.dims(), 6);
        let a = DecompAnalysis::analyze(&g, &p);
        assert!(a.is_peer_symmetric());
    }
}
