//! Dense voxel grids of typed cells.
//!
//! The solver and the performance model both see geometry only through this
//! representation: a box of `nx × ny × nz` voxels, each one of the
//! [`CellType`] variants. Linear indexing is x-fastest (`x + nx*(y + ny*z)`),
//! matching the memory layout the LBM kernels stream through.

/// Classification of a single lattice site.
///
/// The distinction between [`CellType::Bulk`] and [`CellType::Wall`] fluid
/// matters for performance modeling: wall fluid points touch solid
/// neighbors, so their update reads fewer distributions (paper §III-D notes
/// that "updates for wall fluid points require fewer memory accesses").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CellType {
    /// Outside the vessel lumen; never updated.
    Solid = 0,
    /// Interior fluid with a full fluid neighborhood.
    Bulk = 1,
    /// Fluid adjacent to at least one solid (or out-of-grid) site;
    /// bounce-back applies on the missing directions.
    Wall = 2,
    /// Fluid on an inflow cap; a Poiseuille velocity profile is imposed.
    Inlet = 3,
    /// Fluid on an outflow cap; a zero-pressure condition is imposed.
    Outlet = 4,
}

impl CellType {
    /// Whether a lattice update is performed at this site.
    #[inline]
    pub fn is_fluid(self) -> bool {
        !matches!(self, CellType::Solid)
    }
}

/// A dense, axis-aligned grid of typed voxels with a physical spacing.
#[derive(Debug, Clone, PartialEq)]
pub struct VoxelGrid {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Physical lattice spacing in millimetres (uniform in all axes).
    dx_mm: f64,
    cells: Vec<CellType>,
}

impl VoxelGrid {
    /// Create a grid with every cell set to `fill`.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn filled(nx: usize, ny: usize, nz: usize, dx_mm: f64, fill: CellType) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "zero-sized grid");
        assert!(dx_mm > 0.0, "non-positive spacing");
        Self {
            nx,
            ny,
            nz,
            dx_mm,
            cells: vec![fill; nx * ny * nz],
        }
    }

    /// Create an all-solid grid (the usual starting point for voxelization).
    pub fn solid(nx: usize, ny: usize, nz: usize, dx_mm: f64) -> Self {
        Self::filled(nx, ny, nz, dx_mm, CellType::Solid)
    }

    /// Grid dimensions `(nx, ny, nz)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Number of voxels along x.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of voxels along y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of voxels along z.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Physical lattice spacing in millimetres.
    #[inline]
    pub fn dx_mm(&self) -> f64 {
        self.dx_mm
    }

    /// Total voxel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid contains no voxels (never true for a constructed
    /// grid; kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Linear index of `(x, y, z)`; x varies fastest.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Inverse of [`Self::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// Cell type at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> CellType {
        self.cells[self.index(x, y, z)]
    }

    /// Set the cell type at `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, t: CellType) {
        let i = self.index(x, y, z);
        self.cells[i] = t;
    }

    /// Set the cell type by linear index.
    #[inline]
    pub fn set_linear(&mut self, idx: usize, t: CellType) {
        self.cells[idx] = t;
    }

    /// Cell type at a signed offset from `(x, y, z)`, or `Solid` when the
    /// offset leaves the grid. Treating out-of-grid as solid gives walls a
    /// uniform bounce-back treatment at the domain boundary.
    #[inline]
    pub fn get_offset(&self, x: usize, y: usize, z: usize, dx: i32, dy: i32, dz: i32) -> CellType {
        let nx = x as i64 + dx as i64;
        let ny = y as i64 + dy as i64;
        let nz = z as i64 + dz as i64;
        if nx < 0
            || ny < 0
            || nz < 0
            || nx >= self.nx as i64
            || ny >= self.ny as i64
            || nz >= self.nz as i64
        {
            return CellType::Solid;
        }
        self.get(nx as usize, ny as usize, nz as usize)
    }

    /// Iterator over `(x, y, z, cell)` for every voxel, in memory order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (usize, usize, usize, CellType)> + '_ {
        self.cells.iter().enumerate().map(|(i, &c)| {
            let (x, y, z) = self.coords(i);
            (x, y, z, c)
        })
    }

    /// The x-rows that hold at least one fluid voxel, as `(y, z, cells)`
    /// in memory order. A scan that only looks at fluid goes through
    /// this: on a sparse anatomy nearly every row of the bounding box is
    /// solid and is skipped after one OR over its bytes (`Solid` is the
    /// only zero), which vectorizes.
    pub fn fluid_rows(&self) -> impl Iterator<Item = (usize, usize, &[CellType])> + '_ {
        let ny = self.ny;
        self.cells
            .chunks_exact(self.nx)
            .enumerate()
            .filter(|(_, cells)| cells.iter().fold(0u8, |any, &c| any | c as u8) != 0)
            .map(move |(row, cells)| (row % ny, row / ny, cells))
    }

    /// Number of fluid (non-solid) voxels.
    pub fn fluid_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_fluid()).count()
    }

    /// Count of voxels of a specific type.
    pub fn count(&self, t: CellType) -> usize {
        self.cells.iter().filter(|&&c| c == t).count()
    }

    /// Raw cell slice (read-only), for bulk scans.
    #[inline]
    pub fn cells(&self) -> &[CellType] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let g = VoxelGrid::solid(4, 5, 6, 0.1);
        for z in 0..6 {
            for y in 0..5 {
                for x in 0..4 {
                    let i = g.index(x, y, z);
                    assert_eq!(g.coords(i), (x, y, z));
                }
            }
        }
    }

    #[test]
    fn x_is_fastest_axis() {
        let g = VoxelGrid::solid(4, 5, 6, 0.1);
        assert_eq!(g.index(1, 0, 0), g.index(0, 0, 0) + 1);
        assert_eq!(g.index(0, 1, 0), g.index(0, 0, 0) + 4);
        assert_eq!(g.index(0, 0, 1), g.index(0, 0, 0) + 20);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = VoxelGrid::solid(3, 3, 3, 0.1);
        g.set(1, 2, 0, CellType::Bulk);
        assert_eq!(g.get(1, 2, 0), CellType::Bulk);
        assert_eq!(g.get(0, 0, 0), CellType::Solid);
    }

    #[test]
    fn out_of_grid_reads_as_solid() {
        let mut g = VoxelGrid::filled(2, 2, 2, 0.1, CellType::Bulk);
        g.set(0, 0, 0, CellType::Bulk);
        assert_eq!(g.get_offset(0, 0, 0, -1, 0, 0), CellType::Solid);
        assert_eq!(g.get_offset(1, 1, 1, 1, 1, 1), CellType::Solid);
        assert_eq!(g.get_offset(0, 0, 0, 1, 0, 0), CellType::Bulk);
    }

    #[test]
    fn fluid_census() {
        let mut g = VoxelGrid::solid(2, 2, 1, 0.1);
        g.set(0, 0, 0, CellType::Bulk);
        g.set(1, 0, 0, CellType::Wall);
        g.set(0, 1, 0, CellType::Inlet);
        assert_eq!(g.fluid_count(), 3);
        assert_eq!(g.count(CellType::Solid), 1);
    }

    #[test]
    fn cell_type_fluid_predicate() {
        assert!(!CellType::Solid.is_fluid());
        for t in [
            CellType::Bulk,
            CellType::Wall,
            CellType::Inlet,
            CellType::Outlet,
        ] {
            assert!(t.is_fluid());
        }
    }

    #[test]
    #[should_panic(expected = "zero-sized grid")]
    fn zero_dim_panics() {
        let _ = VoxelGrid::solid(0, 2, 2, 0.1);
    }
}
