//! Cell classification: identifying wall fluid points.
//!
//! After voxelization every lumen cell is [`CellType::Bulk`]; this pass
//! demotes cells that touch solid (or the grid boundary) through any of the
//! 18 nonzero D3Q19 lattice directions to [`CellType::Wall`]. Inlet and
//! outlet cells keep their designation — their boundary condition already
//! overrides streaming.

use crate::voxel::{CellType, VoxelGrid};

/// The 18 nonzero D3Q19 lattice directions (6 axis + 12 edge vectors).
///
/// Duplicated from the LBM crate's lattice to keep the dependency pointing
/// the right way (lbm depends on geometry); the LBM crate asserts the two
/// sets agree.
pub const D3Q19_DIRECTIONS: [(i32, i32, i32); 18] = [
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];

/// Demote bulk cells adjacent to solid (through any D3Q19 direction) to
/// wall cells. Inlet/outlet cells are left untouched.
pub fn classify_walls(grid: &mut VoxelGrid) {
    let mut walls = Vec::new();
    solid_links_of(grid, CellType::Bulk, |i, links| {
        if links > 0 {
            walls.push(i);
        }
    });
    for idx in walls {
        grid.set_linear(idx, CellType::Wall);
    }
}

/// Number of solid neighbors (over D3Q19 directions) of the cell at
/// `(x, y, z)` — the count of bounce-back links a wall cell carries.
pub fn solid_link_count(grid: &VoxelGrid, x: usize, y: usize, z: usize) -> usize {
    D3Q19_DIRECTIONS
        .iter()
        .filter(|&&(dx, dy, dz)| grid.get_offset(x, y, z, dx, dy, dz) == CellType::Solid)
        .count()
}

/// Average solid-link count over the wall cells of a grid, 0 when it has
/// none (`hemocloud_lbm::access_profile::average_solid_links` is the
/// mesh-side equivalent).
pub fn measured_avg_solid_links(grid: &VoxelGrid) -> f64 {
    let mut total = 0usize;
    let mut walls = 0usize;
    solid_links_of(grid, CellType::Wall, |_, links| {
        total += links;
        walls += 1;
    });
    if walls == 0 {
        0.0
    } else {
        total as f64 / walls as f64
    }
}

/// Call `visit(index, solid links)` for every cell of type `kind`, in
/// memory order, going through [`VoxelGrid::fluid_rows`]. A cell off the
/// grid's faces reads its neighbours at fixed linear offsets; one on a
/// face goes through [`solid_link_count`], where a step off the grid
/// counts as solid.
fn solid_links_of(grid: &VoxelGrid, kind: CellType, mut visit: impl FnMut(usize, usize)) {
    let (nx, ny, nz) = grid.dims();
    let offsets = D3Q19_DIRECTIONS
        .map(|(dx, dy, dz)| dx as isize + nx as isize * (dy as isize + ny as isize * dz as isize));
    let cells = grid.cells();
    for (y, z, row) in grid.fluid_rows() {
        let start = nx * (y + ny * z);
        let inside_yz = (1..ny - 1).contains(&y) && (1..nz - 1).contains(&z);
        for (x, &c) in row.iter().enumerate() {
            if c != kind {
                continue;
            }
            let i = start + x;
            let links = if inside_yz && (1..nx - 1).contains(&x) {
                offsets
                    .iter()
                    .filter(|&&o| cells[i.wrapping_add_signed(o)] == CellType::Solid)
                    .count()
            } else {
                solid_link_count(grid, x, y, z)
            };
            visit(i, links);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_rt::check::{self, Config};
    use hemocloud_rt::rng::Rng;

    /// `classify_walls` as it was: every voxel of the box, `get_offset`
    /// for each direction.
    fn reference_classify_walls(grid: &mut VoxelGrid) {
        let (nx, ny, nz) = grid.dims();
        let mut walls = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if grid.get(x, y, z) != CellType::Bulk {
                        continue;
                    }
                    let touches_solid = D3Q19_DIRECTIONS.iter().any(|&(dx, dy, dz)| {
                        grid.get_offset(x, y, z, dx, dy, dz) == CellType::Solid
                    });
                    if touches_solid {
                        walls.push(grid.index(x, y, z));
                    }
                }
            }
        }
        for idx in walls {
            grid.set_linear(idx, CellType::Wall);
        }
    }

    /// `measured_avg_solid_links` as it was: `solid_link_count` on every
    /// wall cell.
    fn reference_avg_solid_links(grid: &VoxelGrid) -> f64 {
        let (mut total, mut walls) = (0usize, 0usize);
        for (x, y, z, c) in grid.iter_cells() {
            if c == CellType::Wall {
                total += solid_link_count(grid, x, y, z);
                walls += 1;
            }
        }
        if walls == 0 {
            0.0
        } else {
            total as f64 / walls as f64
        }
    }

    /// A random grid of 1 to 11 voxels a side (one-voxel axes a fifth of
    /// the time each), about `fluid_pct` percent fluid of every fluid type
    /// and, half the time, fluid on all six grid faces.
    fn lumpy_grid(rng: &mut Rng) -> VoxelGrid {
        let mut side = || match rng.range_u64(0, 5) {
            0 => 1,
            _ => rng.range_usize(2, 12),
        };
        let mut g = VoxelGrid::solid(side(), side(), side(), 1.0);
        let (nx, ny, nz) = g.dims();
        let fluid_pct = rng.range_u64(0, 101);
        let shell = rng.range_u64(0, 2) == 0;
        let kinds = [
            CellType::Bulk,
            CellType::Wall,
            CellType::Inlet,
            CellType::Outlet,
        ];
        for i in 0..g.len() {
            let (x, y, z) = g.coords(i);
            let on_face = [(x, nx), (y, ny), (z, nz)]
                .iter()
                .any(|&(v, n)| v == 0 || v + 1 == n);
            if shell && on_face || rng.range_u64(0, 100) < fluid_pct {
                g.set_linear(i, kinds[rng.range_usize(0, 4)]);
            }
        }
        g
    }

    #[test]
    fn neighbourhood_scans_match_their_full_box_loops() {
        check::run(
            "neighbourhood_scans_match_their_full_box_loops",
            Config::cases(256),
            |rng| {
                let g = lumpy_grid(rng);
                assert_eq!(
                    measured_avg_solid_links(&g).to_bits(),
                    reference_avg_solid_links(&g).to_bits(),
                    "{:?}",
                    g.dims()
                );
                let (mut got, mut want) = (g.clone(), g);
                classify_walls(&mut got);
                reference_classify_walls(&mut want);
                assert!(got == want, "{:?}", got.dims());
                assert_eq!(
                    measured_avg_solid_links(&got).to_bits(),
                    reference_avg_solid_links(&want).to_bits()
                );
            },
        );
    }

    fn all_fluid_box() -> VoxelGrid {
        VoxelGrid::filled(5, 5, 5, 1.0, CellType::Bulk)
    }

    #[test]
    fn open_box_boundary_becomes_wall() {
        // No padding: cells on the grid boundary see out-of-grid as solid.
        let mut g = all_fluid_box();
        classify_walls(&mut g);
        assert_eq!(g.get(0, 0, 0), CellType::Wall);
        assert_eq!(g.get(2, 2, 2), CellType::Bulk);
        // Exactly the interior 3x3x3 block stays bulk.
        assert_eq!(g.count(CellType::Bulk), 27);
        assert_eq!(g.count(CellType::Wall), 125 - 27);
    }

    #[test]
    fn diagonal_adjacency_counts() {
        // A solid cell at a face-diagonal neighbor makes a cell a wall even
        // though no axis neighbor is solid.
        let mut g = VoxelGrid::filled(7, 7, 7, 1.0, CellType::Bulk);
        g.set(4, 4, 3, CellType::Solid);
        classify_walls(&mut g);
        // (3,3,3) has offset (1,1,0) to the solid: a D3Q19 edge direction.
        assert_eq!(g.get(3, 3, 3), CellType::Wall);
        // (2,2,3) is two steps away; but it is interior otherwise? It's at
        // distance >1 from both solid and boundary... boundary of 7-grid is
        // at 0 and 6, so (2,2,3) is interior and stays bulk.
        assert_eq!(g.get(2, 2, 3), CellType::Bulk);
    }

    #[test]
    fn corner_diagonal_is_not_a_d3q19_direction() {
        // (1,1,1) offsets are NOT part of D3Q19; a solid cell there must not
        // demote the fluid cell.
        let mut g = VoxelGrid::filled(7, 7, 7, 1.0, CellType::Bulk);
        g.set(4, 4, 4, CellType::Solid);
        classify_walls(&mut g);
        assert_eq!(g.get(3, 3, 3), CellType::Bulk);
    }

    #[test]
    fn inlet_outlet_cells_keep_role() {
        let mut g = all_fluid_box();
        g.set(0, 2, 2, CellType::Inlet);
        g.set(4, 2, 2, CellType::Outlet);
        classify_walls(&mut g);
        assert_eq!(g.get(0, 2, 2), CellType::Inlet);
        assert_eq!(g.get(4, 2, 2), CellType::Outlet);
    }

    #[test]
    fn solid_link_count_in_corner() {
        let g = all_fluid_box();
        // The corner cell (0,0,0) has 3 axis directions and 6 edge
        // directions leaving the grid... count them directly against the
        // direction table for robustness.
        let expect = D3Q19_DIRECTIONS
            .iter()
            .filter(|&&(dx, dy, dz)| dx < 0 || dy < 0 || dz < 0)
            .count();
        assert_eq!(solid_link_count(&g, 0, 0, 0), expect);
        assert_eq!(solid_link_count(&g, 2, 2, 2), 0);
    }

    #[test]
    fn avg_solid_links_zero_for_all_bulk() {
        let g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        assert_eq!(measured_avg_solid_links(&g), 0.0);
    }

    #[test]
    fn direction_table_is_symmetric() {
        // Every direction's opposite is also in the table.
        for &(dx, dy, dz) in &D3Q19_DIRECTIONS {
            assert!(
                D3Q19_DIRECTIONS.contains(&(-dx, -dy, -dz)),
                "missing opposite of ({dx},{dy},{dz})"
            );
        }
        assert_eq!(D3Q19_DIRECTIONS.len(), 18);
    }
}
