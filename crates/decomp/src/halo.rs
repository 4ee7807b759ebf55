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
use crate::partition::{BoxRegion, Ownership};
use hemocloud_geometry::classify::D3Q19_DIRECTIONS;
use hemocloud_geometry::voxel::{CellType, VoxelGrid};
use std::collections::BTreeMap;
use std::ops::Range;

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
/// Only the rows that hold fluid are visited, a *segment* at a time: the
/// row's stretch inside one leaf box, whose owner is asked once and whose
/// point count, task and byte sum at every level are taken once. A
/// neighbour inside the point's own leaf box has the point's task at every
/// level, so only points on a face of that box can border another leaf;
/// the distinct foreign *leaf* owners a point borders, shifted by `s`, are
/// its peers at level `s`, and once none is foreign none is further up
/// (DESIGN.md §4). Between a segment's two x-face points every point sits
/// on the same y/z faces of its box, and the walk takes that *stretch*
/// whole:
///
/// * on no box face but the grid's, no point borders another leaf, and
///   none is probed;
/// * on one y/z box face that is not a grid face, each box across is
///   found once: the box last found straight across from the same task,
///   or else `partition.owner` of the voxel across the face, which may be
///   solid — an [`Ownership`] answers for every voxel of its grid. Where
///   that box holds all five neighbours that cross the face, a point
///   borders it alone iff one of them is fluid, and the stretch's count of
///   such points is tallied in one step.
///
/// An x-face point on no other face of its box takes the same test
/// alone. Every other point — on a box edge or corner, on a face cut by
/// the grid, or beside a neighbour box narrower than the stencil — probes
/// each direction that crosses a face of its box and stays in the grid.
/// A neighbour's owner is first the one last found in that direction from
/// the same task, taken while that task's box holds what is asked of it;
/// only then is `owner` asked.
///
/// Boundary points are grouped per leaf by the foreign leaves they border,
/// and each group is carried up the levels once, when the pass ends.
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
    let mut probe = Probe::new(grid, partition, &regions);
    let mut sets = PeerSets::new(leaves);
    let (nx, ny, nz) = grid.dims();

    for (y, z, cells) in grid.fluid_rows() {
        let grid_yz = faces(y, 0, ny) << 2 | faces(z, 0, nz) << 4;
        let mut x = 0;
        while let Some(solid) = cells[x..].iter().position(|c| c.is_fluid()) {
            x += solid;
            let me = partition.owner(x, y, z);
            let r = regions[me];
            for (level, sum) in levels.iter_mut().zip(&mut sums) {
                level.bytes[level.task] = *sum;
                level.task = me >> level.shift;
                *sum = level.bytes[level.task];
            }
            let mut points = 0;
            for &c in &cells[x..r.x1] {
                if c.is_fluid() {
                    points += 1;
                    let weight = match c {
                        CellType::Bulk => bulk_bytes,
                        _ => wall_bytes,
                    };
                    for sum in &mut sums {
                        *sum += weight;
                    }
                }
            }
            leaf_points[me] += points;

            let seg = Segment {
                me,
                r,
                y,
                z,
                row: nx * (y + ny * z),
                box_yz: faces(y, r.y0, r.y1) << 2 | faces(z, r.z0, r.z1) << 4,
                grid_yz,
            };
            // The low x face, the stretch, the high x face.
            if x == r.x0 {
                probe.x_face(&seg, x, &mut sets, &mut levels);
            }
            let stretch = x.max(r.x0 + 1)..r.x1 - 1;
            let own_faces = seg.box_yz & !grid_yz;
            if own_faces == 0 || stretch.is_empty() {
                // Nothing in the stretch crosses into another box.
            } else if own_faces == seg.box_yz && own_faces.is_power_of_two() {
                probe.face_stretch(&seg, stretch, &mut sets, &mut levels);
            } else {
                for x in stretch {
                    probe.point(&seg, x, &mut sets, &mut levels);
                }
            }
            if r.x1 - 1 > r.x0 {
                probe.x_face(&seg, r.x1 - 1, &mut sets, &mut levels);
            }
            x = r.x1;
        }
    }
    sets.carry(&mut levels);
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

/// The part of a row inside leaf `me`'s box `r`, with the y/z faces of the
/// box and of the grid the row sits on (per axis a low bit, then a high
/// bit; y at bit 2, z at bit 4).
struct Segment {
    me: usize,
    r: BoxRegion,
    y: usize,
    z: usize,
    /// Linear index of the row's `x = 0`.
    row: usize,
    box_yz: usize,
    grid_yz: usize,
}

/// What finds a point's foreign leaves: the partition, its leaf boxes, and
/// per task and direction the owner last found that way from a point of
/// that task — its next point's neighbour that way is usually in the same
/// box. (One hint per direction alone misses far more often: a row crosses
/// several tasks, and each points it elsewhere.)
struct Probe<'a, P> {
    partition: &'a P,
    regions: &'a [BoxRegion],
    cells: &'a [CellType],
    dims: (usize, usize, usize),
    /// For every set of box faces a point can sit on, the directions (bits
    /// over `D3Q19_DIRECTIONS`) that cross one of them.
    crossing: [u32; 64],
    /// Per direction, the step in linear index.
    offsets: [isize; D3Q19_DIRECTIONS.len()],
    hints: Vec<[usize; D3Q19_DIRECTIONS.len()]>,
}

impl<'a, P: Ownership> Probe<'a, P> {
    fn new(grid: &'a VoxelGrid, partition: &'a P, regions: &'a [BoxRegion]) -> Self {
        let crossing = std::array::from_fn(|faces: usize| {
            let crosses =
                |d: i32, axis: usize| d != 0 && faces >> (2 * axis + usize::from(d > 0)) & 1 == 1;
            (0..D3Q19_DIRECTIONS.len())
                .filter(|&d| {
                    let (dx, dy, dz) = D3Q19_DIRECTIONS[d];
                    crosses(dx, 0) || crosses(dy, 1) || crosses(dz, 2)
                })
                .fold(0, |bits, d| bits | 1 << d)
        });
        let (nx, ny, _) = grid.dims();
        let offsets = D3Q19_DIRECTIONS.map(|(dx, dy, dz)| {
            dx as isize + nx as isize * (dy as isize + ny as isize * dz as isize)
        });
        Self {
            partition,
            regions,
            cells: grid.cells(),
            dims: grid.dims(),
            crossing,
            offsets,
            hints: vec![[0; D3Q19_DIRECTIONS.len()]; regions.len()],
        }
    }

    /// Tally the point at `x` of `seg`, if fluid, toward the foreign leaves
    /// it borders: a direction is probed if it crosses a face of the box
    /// and not one of the grid, so every probe has an index.
    fn point(&mut self, seg: &Segment, x: usize, sets: &mut PeerSets, levels: &mut [Level]) {
        let at = seg.row + x;
        if !self.cells[at].is_fluid() {
            return;
        }
        let mut probe = self.crossing[seg.box_yz | faces(x, seg.r.x0, seg.r.x1)]
            & !self.crossing[seg.grid_yz | faces(x, 0, self.dims.0)];
        let mut peers = [0usize; D3Q19_DIRECTIONS.len()];
        let mut n_peers = 0;
        while probe != 0 {
            let d = probe.trailing_zeros() as usize;
            probe &= probe - 1;
            if self.cells[at.wrapping_add_signed(self.offsets[d])].is_fluid() {
                let (dx, dy, dz) = D3Q19_DIRECTIONS[d];
                let (qx, qy, qz) = (
                    x.wrapping_add_signed(dx as isize),
                    seg.y.wrapping_add_signed(dy as isize),
                    seg.z.wrapping_add_signed(dz as isize),
                );
                let hint = &mut self.hints[seg.me][d];
                if !self.regions[*hint].contains(qx, qy, qz) {
                    *hint = self.partition.owner(qx, qy, qz);
                }
                let owner = *hint;
                if owner != seg.me && !peers[..n_peers].contains(&owner) {
                    peers[n_peers] = owner;
                    n_peers += 1;
                }
            }
        }
        sets.add(seg.me, &peers[..n_peers], 1, levels);
    }

    /// Tally the point at `x` of `seg`, one of its box's x faces. On that
    /// face alone, and it not a grid face, the box across holds the
    /// point's five neighbours that cross it if it spans `y ± 1` and
    /// `z ± 1`: the box last found across from the same task, or else the
    /// owner of the voxel across. Then the point borders it alone iff one
    /// of them is fluid; otherwise it is [`Probe::point`]'s.
    fn x_face(&mut self, seg: &Segment, x: usize, sets: &mut PeerSets, levels: &mut [Level]) {
        let low = x == seg.r.x0;
        let across = if low { x.wrapping_sub(1) } else { x + 1 };
        if seg.box_yz != 0 || low == (x + 1 == seg.r.x1) || across >= self.dims.0 {
            return self.point(seg, x, sets, levels);
        }
        let at = seg.row + x;
        if !self.cells[at].is_fluid() {
            return;
        }
        let holds = |b: &BoxRegion| {
            (b.x0..b.x1).contains(&across)
                && b.y0 < seg.y
                && seg.y + 1 < b.y1
                && b.z0 < seg.z
                && seg.z + 1 < b.z1
        };
        // `D3Q19_DIRECTIONS[0]` is +x, `[1]` is −x.
        let d = usize::from(low);
        let hint = &mut self.hints[seg.me][d];
        if !holds(&self.regions[*hint]) {
            *hint = self.partition.owner(across, seg.y, seg.z);
            if !holds(&self.regions[*hint]) {
                return self.point(seg, x, sets, levels);
            }
        }
        let nb = *hint;
        let (nx, plane) = (self.dims.0, self.dims.0 * self.dims.1);
        let (i, c) = (at.wrapping_add_signed(self.offsets[d]), self.cells);
        if c[i] as u8 | c[i - nx] as u8 | c[i + nx] as u8 | c[i - plane] as u8 | c[i + plane] as u8
            != 0
        {
            sets.add(seg.me, &[nb], 1, levels);
        }
    }

    /// Tally the points of `stretch` of `seg`, which sit on its box's one
    /// y/z face, not a grid face, and on none of its x faces. Each box
    /// across the face is found once — the one last found straight across
    /// from the same task if it holds the voxel across, else its owner —
    /// and where it holds all five neighbours across (`x − 1 ..= x + 1` on
    /// the row across, and the rows beside that one on the face's other
    /// axis), a fluid point borders that box iff one of them is fluid.
    /// Points beside a narrower box are [`Probe::point`]'s.
    fn face_stretch(
        &mut self,
        seg: &Segment,
        stretch: Range<usize>,
        sets: &mut PeerSets,
        levels: &mut [Level],
    ) {
        let (nx, ny, _) = self.dims;
        let plane = nx * ny;
        // The direction straight across (`D3Q19_DIRECTIONS[2..6]` are ±y,
        // ±z), the row across, and the step along the face's other axis.
        let (d, (ay, az), side) = match seg.box_yz {
            0b00_0100 => (3, (seg.y - 1, seg.z), plane),
            0b00_1000 => (2, (seg.y + 1, seg.z), plane),
            0b01_0000 => (5, (seg.y, seg.z - 1), nx),
            _ => (4, (seg.y, seg.z + 1), nx),
        };
        let across = self.offsets[d];
        let mut x = stretch.start;
        while x < stretch.end {
            let hint = &mut self.hints[seg.me][d];
            if !self.regions[*hint].contains(x, ay, az) {
                *hint = self.partition.owner(x, ay, az);
            }
            let nb = *hint;
            let b = self.regions[nb];
            let next = b.x1.min(stretch.end);
            let spans = if side == plane {
                b.z0 < seg.z && seg.z + 1 < b.z1
            } else {
                b.y0 < seg.y && seg.y + 1 < b.y1
            };
            let (from, to) = if spans {
                let from = (b.x0 + 1).max(x);
                (from, (b.x1 - 1).min(stretch.end).max(from))
            } else {
                (next, next)
            };
            for x in x..from {
                self.point(seg, x, sets, levels);
            }
            let cells = self.cells;
            let borders = (from..to)
                .filter(|&x| {
                    let i = (seg.row + x).wrapping_add_signed(across);
                    cells[seg.row + x].is_fluid()
                        && (cells[i - 1] as u8
                            | cells[i] as u8
                            | cells[i + 1] as u8
                            | cells[i - side] as u8
                            | cells[i + side] as u8)
                            != 0
                })
                .count();
            sets.add(seg.me, &[nb], borders, levels);
            for x in to..next {
                self.point(seg, x, sets, levels);
            }
            x = next;
        }
    }
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

/// Per leaf, its boundary points so far, grouped by the set of foreign
/// leaves they border: a group is carried up the levels once, where a
/// carry per point (or per run of points with one set) would climb the
/// same levels again and again. Sets of one leaf and of two to four
/// (unused slots `usize::MAX`) are kept apart — the first are most of
/// them and compare in one word; larger sets, rare, are carried at once.
struct PeerSets {
    ones: Vec<Vec<(usize, usize)>>,
    few: Vec<Vec<([usize; 4], usize)>>,
}

impl PeerSets {
    fn new(leaves: usize) -> Self {
        Self {
            ones: vec![Vec::new(); leaves],
            few: vec![Vec::new(); leaves],
        }
    }

    /// Count `points` more boundary points of leaf `me` that border the
    /// leaves `peers` (distinct, none of them `me`).
    fn add(&mut self, me: usize, peers: &[usize], points: usize, levels: &mut [Level]) {
        if points == 0 {
            return;
        }
        match *peers {
            [] => {}
            [peer] => match self.ones[me].iter_mut().find(|(p, _)| *p == peer) {
                Some((_, n)) => *n += points,
                None => self.ones[me].push((peer, points)),
            },
            _ if peers.len() <= 4 => {
                let mut key = [usize::MAX; 4];
                key[..peers.len()].copy_from_slice(peers);
                match self.few[me].iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += points,
                    None => self.few[me].push((key, points)),
                }
            }
            _ => carry(levels, me, peers, points),
        }
    }

    /// Carry every group up the levels.
    fn carry(self, levels: &mut [Level]) {
        for (me, (ones, few)) in self.ones.into_iter().zip(self.few).enumerate() {
            for (peer, points) in ones {
                carry(levels, me, &[peer], points);
            }
            for (key, points) in few {
                let n = key.iter().take_while(|&&p| p != usize::MAX).count();
                carry(levels, me, &key[..n], points);
            }
        }
    }
}

/// Count `points` boundary points of leaf `leaf` that border the leaves
/// `peers` at every level where one of them is still foreign, merging
/// peers as they coincide.
fn carry(levels: &mut [Level], leaf: usize, peers: &[usize], points: usize) {
    let mut merged = [0usize; D3Q19_DIRECTIONS.len()];
    merged[..peers.len()].copy_from_slice(peers);
    let (mut n_peers, mut at) = (peers.len(), 0);
    for level in levels {
        let me = leaf >> level.shift;
        let mut kept = 0;
        for i in 0..n_peers {
            let peer = merged[i] >> (level.shift - at);
            if peer != me && !merged[..kept].contains(&peer) {
                merged[kept] = peer;
                kept += 1;
            }
        }
        (n_peers, at) = (kept, level.shift);
        if n_peers == 0 {
            break;
        }
        level.boundary[me] += points;
        for &peer in &merged[..n_peers] {
            let tally = &mut level.tallies[me];
            match tally.iter_mut().find(|(p, _)| *p == peer) {
                Some((_, p)) => *p += points,
                None => tally.push((peer, points)),
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

    /// Boxes laid by hand or by [`guillotine`], numbered so that
    /// `leaf >> shift` is the box `shift` cuts up — how an RCB tree's
    /// views number theirs. `owner` searches the leaves.
    struct Boxes {
        dims: (usize, usize, usize),
        leaves: Vec<BoxRegion>,
        shift: u32,
    }

    impl Boxes {
        fn view(&self, shift: u32) -> Self {
            Self {
                dims: self.dims,
                leaves: self.leaves.clone(),
                shift,
            }
        }
    }

    impl Ownership for Boxes {
        fn owner(&self, x: usize, y: usize, z: usize) -> usize {
            let leaf = self.leaves.iter().position(|b| b.contains(x, y, z));
            leaf.expect("the boxes tile the grid") >> self.shift
        }
        fn task_count(&self) -> usize {
            self.leaves.len() >> self.shift
        }
        fn dims(&self) -> (usize, usize, usize) {
            self.dims
        }
        fn region(&self, task: usize) -> BoxRegion {
            let n = 1 << self.shift;
            let leaves = &self.leaves[task * n..(task + 1) * n];
            leaves[1..].iter().fold(leaves[0], |hull, b| hull.hull(b))
        }
    }

    /// The grid's box cut `depth` times over into `2^depth` leaves, each
    /// cut at a random place along a random axis the box can be cut on:
    /// slabs one voxel thick, neighbours narrower than a stencil and
    /// faces on the grid's faces all come up. `None` where a box ran out
    /// of voxels to cut.
    fn guillotine(rng: &mut Rng, dims: (usize, usize, usize), depth: u32) -> Option<Boxes> {
        fn cut(rng: &mut Rng, b: BoxRegion, depth: u32, out: &mut Vec<BoxRegion>) -> Option<()> {
            if depth == 0 {
                out.push(b);
                return Some(());
            }
            let extents = [(b.x0, b.x1), (b.y0, b.y1), (b.z0, b.z1)];
            let axes: Vec<usize> = (0..3)
                .filter(|&a| extents[a].1 - extents[a].0 > 1)
                .collect();
            let axis = *axes.get(rng.range_usize(0, axes.len().max(1)))?;
            let at = rng.range_usize(extents[axis].0 + 1, extents[axis].1);
            let (mut lo, mut hi) = (b, b);
            match axis {
                0 => (lo.x1, hi.x0) = (at, at),
                1 => (lo.y1, hi.y0) = (at, at),
                _ => (lo.z1, hi.z0) = (at, at),
            }
            cut(rng, lo, depth - 1, out)?;
            cut(rng, hi, depth - 1, out)
        }
        let mut leaves = Vec::new();
        let (nx, ny, nz) = dims;
        let whole = BoxRegion {
            x0: 0,
            x1: nx,
            y0: 0,
            y1: ny,
            z0: 0,
            z1: nz,
        };
        cut(rng, whole, depth, &mut leaves)?;
        Some(Boxes {
            dims,
            leaves,
            shift: 0,
        })
    }

    #[test]
    fn walk_matches_the_reference_on_random_guillotine_boxes() {
        // Grids large enough for long stretches, mostly fluid so that the
        // points across a face are, with fluid on the grid's faces half
        // the time; every level of a random cut of up to 32 leaves.
        let (bulk, wall) = WEIGHTS;
        check::run(
            "walk_matches_the_reference_on_random_guillotine_boxes",
            Config::cases(48),
            |rng| {
                let mut side = || rng.range_usize(8, 15);
                let (nx, ny, nz) = (side(), side(), side());
                let fluid_pct = rng.range_u64(40, 101);
                let shell = rng.range_u64(0, 2) == 0;
                let mut g = VoxelGrid::solid(nx, ny, nz, 1.0);
                for i in 0..g.len() {
                    let (x, y, z) = g.coords(i);
                    let on_face = x % (nx - 1) == 0 || y % (ny - 1) == 0 || z % (nz - 1) == 0;
                    if shell && on_face || rng.range_u64(0, 100) < fluid_pct {
                        let bulk = rng.range_u64(0, 4) != 0;
                        g.set_linear(i, if bulk { CellType::Bulk } else { CellType::Wall });
                    }
                }
                let depth = rng.range_u64(0, 6) as u32;
                let Some(boxes) = guillotine(rng, g.dims(), depth) else {
                    return;
                };
                let shifts: Vec<u32> = (0..=depth).collect();
                for (got, &s) in walk(&g, &boxes, &shifts, bulk, wall).iter().zip(&shifts) {
                    let want = reference(&g, &boxes.view(s), bulk, wall);
                    assert_same(got, &want, &format!("{} leaves >> {s}", 1 << depth));
                }
            },
        );
    }

    #[test]
    fn walk_matches_the_reference_beside_boxes_narrower_than_the_stencil() {
        // A full 12-voxel cube cut at y = 6. Above the cut, x is cut at 5
        // and 6 (a box one voxel wide) and, in the far half of z, at 7
        // and 9 (two wide): the lower box's high-y stretch meets boxes
        // that do not span x ± 1, and its z = 6 row meets a box that does
        // not span z ± 1. The lower box's x and z faces at 0 and 12 are
        // the grid's.
        let g = full_box(12);
        let b = |x0, x1, y0, y1, z0, z1| BoxRegion {
            x0,
            x1,
            y0,
            y1,
            z0,
            z1,
        };
        let boxes = Boxes {
            dims: g.dims(),
            leaves: vec![
                b(0, 12, 0, 6, 0, 12),
                b(0, 5, 6, 12, 0, 6),
                b(5, 6, 6, 12, 0, 6),
                b(6, 12, 6, 12, 0, 6),
                b(0, 7, 6, 12, 6, 12),
                b(7, 9, 6, 12, 6, 12),
                b(9, 10, 6, 12, 6, 12),
                b(10, 12, 6, 12, 6, 12),
            ],
            shift: 0,
        };
        let (bulk, wall) = WEIGHTS;
        let got = walk(&g, &boxes, &[0], bulk, wall).remove(0);
        assert_same(&got, &reference(&g, &boxes, bulk, wall), "hand-laid boxes");
        // Every point of the lower box's top layer borders a box above;
        // the one-wide box is reached from x = 4, 5 and 6 on its six
        // rows, and from (5, 5, 6) across the z = 6 edge.
        assert_eq!(got.analysis.boundary_points_per_task[0], 144);
        assert_eq!(got.analysis.messages[0][&2], 3 * 6 + 1);
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
