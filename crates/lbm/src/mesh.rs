//! Indirect-addressing fluid mesh (HARVEY-style sparse representation).
//!
//! Realistic arterial domains are sparse in their bounding boxes, so HARVEY
//! stores only fluid points and a per-point neighbor index array. This
//! matters for performance modeling: every fluid update reads the 19-entry
//! neighbor list in addition to the distributions (paper Eq. 9 counts these
//! accesses), and wall points — whose solid-direction entries short-circuit
//! to bounce-back — touch fewer distribution values.

use crate::lattice::{C19, Q19};
use hemocloud_geometry::voxel::{CellType, VoxelGrid};

/// Sentinel neighbor index meaning "solid or outside: bounce back".
pub const SOLID: u32 = u32::MAX;

/// A compacted list of fluid cells with per-cell neighbor indices.
#[derive(Debug, Clone)]
pub struct FluidMesh {
    dims: (usize, usize, usize),
    dx_mm: f64,
    /// Fluid cell → linear index in the originating grid.
    grid_index: Vec<u32>,
    /// Fluid cell → cell type (never `Solid`).
    cell_type: Vec<CellType>,
    /// `neighbors[cell * 19 + q]` = fluid index of the cell at offset
    /// `C19[q]`, or [`SOLID`].
    neighbors: Vec<u32>,
}

impl FluidMesh {
    /// Compact a voxel grid into a fluid mesh.
    ///
    /// # Panics
    /// Panics if the grid has no fluid cells or more than `u32::MAX - 1`.
    pub fn build(grid: &VoxelGrid) -> Self {
        let n_total = grid.len();
        assert!(n_total < SOLID as usize, "grid too large for u32 indexing");

        // First pass: map grid linear index → fluid index.
        let mut grid_to_fluid = vec![SOLID; n_total];
        let mut grid_index = Vec::new();
        let mut cell_type = Vec::new();
        for (i, &c) in grid.cells().iter().enumerate() {
            if c.is_fluid() {
                grid_to_fluid[i] = grid_index.len() as u32;
                grid_index.push(i as u32);
                cell_type.push(c);
            }
        }
        assert!(!grid_index.is_empty(), "no fluid cells in grid");

        // Second pass: neighbor table.
        let n_fluid = grid_index.len();
        let mut neighbors = vec![SOLID; n_fluid * Q19];
        for (cell, &gi) in grid_index.iter().enumerate() {
            let (x, y, z) = grid.coords(gi as usize);
            for (q, &(dx, dy, dz)) in C19.iter().enumerate() {
                let nt = grid.get_offset(x, y, z, dx, dy, dz);
                if nt.is_fluid() {
                    let nxl = (x as i64 + dx as i64) as usize;
                    let nyl = (y as i64 + dy as i64) as usize;
                    let nzl = (z as i64 + dz as i64) as usize;
                    neighbors[cell * Q19 + q] = grid_to_fluid[grid.index(nxl, nyl, nzl)];
                }
            }
        }

        Self {
            dims: grid.dims(),
            dx_mm: grid.dx_mm(),
            grid_index,
            cell_type,
            neighbors,
        }
    }

    /// Number of fluid cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.grid_index.len()
    }

    /// Whether the mesh is empty (never true after construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.grid_index.is_empty()
    }

    /// Originating grid dimensions.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Lattice spacing (mm).
    #[inline]
    pub fn dx_mm(&self) -> f64 {
        self.dx_mm
    }

    /// Grid coordinates of a fluid cell.
    #[inline]
    pub fn coords(&self, cell: usize) -> (usize, usize, usize) {
        let gi = self.grid_index[cell] as usize;
        let (nx, ny, _) = self.dims;
        let x = gi % nx;
        let y = (gi / nx) % ny;
        let z = gi / (nx * ny);
        (x, y, z)
    }

    /// Cell type of a fluid cell.
    #[inline]
    pub fn cell_type(&self, cell: usize) -> CellType {
        self.cell_type[cell]
    }

    /// Neighbor fluid index of `cell` in direction `q`, or [`SOLID`].
    #[inline]
    pub fn neighbor(&self, cell: usize, q: usize) -> u32 {
        self.neighbors[cell * Q19 + q]
    }

    /// The 19 neighbor entries of `cell`.
    #[inline]
    pub fn neighbor_row(&self, cell: usize) -> &[u32] {
        &self.neighbors[cell * Q19..(cell + 1) * Q19]
    }

    /// Give up the neighbor rows (`neighbors[cell * 19 + q]`): the solver
    /// rewrites them in place into its slot table.
    pub(crate) fn into_neighbors(self) -> Vec<u32> {
        self.neighbors
    }

    /// Indices of all cells of the given type.
    pub fn cells_of_type(&self, t: CellType) -> Vec<usize> {
        self.cell_type
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of solid-facing (bounce-back) links at a cell.
    pub fn solid_link_count(&self, cell: usize) -> usize {
        self.neighbor_row(cell)
            .iter()
            .skip(1) // rest direction has no link
            .filter(|&&n| n == SOLID)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::opposite;
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_geometry::classify::classify_walls;

    fn small_box() -> FluidMesh {
        // 4×4×4 all-bulk grid; after wall classification the outer shell is
        // wall, the inner 2×2×2 is bulk.
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        classify_walls(&mut g);
        FluidMesh::build(&g)
    }

    #[test]
    fn compaction_keeps_all_fluid() {
        let mesh = small_box();
        assert_eq!(mesh.len(), 64);
        assert_eq!(mesh.cells_of_type(CellType::Bulk).len(), 8);
        assert_eq!(mesh.cells_of_type(CellType::Wall).len(), 56);
    }

    #[test]
    fn neighbor_links_are_reciprocal() {
        let mesh = small_box();
        for cell in 0..mesh.len() {
            for q in 1..Q19 {
                let n = mesh.neighbor(cell, q);
                if n != SOLID {
                    assert_eq!(
                        mesh.neighbor(n as usize, opposite(q)),
                        cell as u32,
                        "cell {cell} dir {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn rest_direction_is_self() {
        let mesh = small_box();
        for cell in 0..mesh.len() {
            assert_eq!(mesh.neighbor(cell, 0), cell as u32);
        }
    }

    #[test]
    fn bulk_cells_have_no_solid_links() {
        let mesh = small_box();
        for cell in mesh.cells_of_type(CellType::Bulk) {
            assert_eq!(mesh.solid_link_count(cell), 0);
        }
        for cell in mesh.cells_of_type(CellType::Wall) {
            assert!(mesh.solid_link_count(cell) > 0);
        }
    }

    #[test]
    fn coords_roundtrip_against_grid() {
        let g = CylinderSpec::default().with_resolution(8).build();
        let mesh = FluidMesh::build(&g);
        for cell in (0..mesh.len()).step_by(7) {
            let (x, y, z) = mesh.coords(cell);
            assert!(g.get(x, y, z).is_fluid());
            assert_eq!(g.get(x, y, z), mesh.cell_type(cell));
        }
    }

    #[test]
    #[should_panic(expected = "no fluid cells")]
    fn all_solid_grid_panics() {
        let g = VoxelGrid::solid(3, 3, 3, 1.0);
        let _ = FluidMesh::build(&g);
    }
}
