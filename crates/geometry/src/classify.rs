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
    let (nx, ny, nz) = grid.dims();
    let mut walls = Vec::new();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if grid.get(x, y, z) != CellType::Bulk {
                    continue;
                }
                let touches_solid = D3Q19_DIRECTIONS
                    .iter()
                    .any(|&(dx, dy, dz)| grid.get_offset(x, y, z, dx, dy, dz) == CellType::Solid);
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
    for (y, z, row) in grid.fluid_rows() {
        for (x, &c) in row.iter().enumerate() {
            if c == CellType::Wall {
                total += solid_link_count(grid, x, y, z);
                walls += 1;
            }
        }
    }
    if walls == 0 {
        0.0
    } else {
        total as f64 / walls as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
