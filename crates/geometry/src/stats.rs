//! Geometry census statistics.
//!
//! The performance model sees a geometry only through a handful of numbers:
//! how many fluid points there are, how they split into bulk/wall/boundary
//! types (different byte costs, paper Eq. 9), and how "spread out" the
//! domain is (communication surface). This module computes that census.

use crate::voxel::{CellType, VoxelGrid};

/// Summary statistics of a voxelized geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryStats {
    /// Total voxels in the bounding grid.
    pub total_voxels: usize,
    /// All fluid voxels (bulk + wall + inlet + outlet).
    pub fluid_points: usize,
    /// Interior fluid voxels.
    pub bulk_points: usize,
    /// Fluid voxels adjacent to solid.
    pub wall_points: usize,
    /// Inlet-cap voxels.
    pub inlet_points: usize,
    /// Outlet-cap voxels.
    pub outlet_points: usize,
    /// Fraction of the bounding grid that is fluid — the paper's notion of
    /// how "efficiently packed" a geometry is (the cylinder packs well and
    /// therefore communicates heavily when split).
    pub fluid_fraction: f64,
    /// Ratio of bulk to wall fluid points. High for the cylinder, low for
    /// the cerebral tree.
    pub bulk_wall_ratio: f64,
}

impl GeometryStats {
    /// Compute the census of a grid.
    pub fn measure(grid: &VoxelGrid) -> Self {
        let mut bulk = 0usize;
        let mut wall = 0usize;
        let mut inlet = 0usize;
        let mut outlet = 0usize;
        for (_, _, row) in grid.fluid_rows() {
            for &c in row {
                bulk += usize::from(c == CellType::Bulk);
                wall += usize::from(c == CellType::Wall);
                inlet += usize::from(c == CellType::Inlet);
                outlet += usize::from(c == CellType::Outlet);
            }
        }
        let fluid = bulk + wall + inlet + outlet;
        Self {
            total_voxels: grid.len(),
            fluid_points: fluid,
            bulk_points: bulk,
            wall_points: wall,
            inlet_points: inlet,
            outlet_points: outlet,
            fluid_fraction: fluid as f64 / grid.len() as f64,
            bulk_wall_ratio: if wall == 0 {
                f64::INFINITY
            } else {
                bulk as f64 / wall as f64
            },
        }
    }

    /// Fraction of fluid points that are walls (have bounce-back links).
    pub fn wall_fraction(&self) -> f64 {
        if self.fluid_points == 0 {
            0.0
        } else {
            self.wall_points as f64 / self.fluid_points as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify_walls;

    #[test]
    fn census_adds_up() {
        let mut g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        g.set(0, 0, 0, CellType::Solid);
        g.set(1, 0, 0, CellType::Inlet);
        g.set(2, 0, 0, CellType::Outlet);
        classify_walls(&mut g);
        let s = GeometryStats::measure(&g);
        assert_eq!(s.total_voxels, 64);
        assert_eq!(
            s.fluid_points,
            s.bulk_points + s.wall_points + s.inlet_points + s.outlet_points
        );
        assert_eq!(s.fluid_points, 63);
        assert_eq!(s.inlet_points, 1);
        assert_eq!(s.outlet_points, 1);
        assert!((s.fluid_fraction - 63.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn all_solid_grid() {
        let g = VoxelGrid::solid(3, 3, 3, 1.0);
        let s = GeometryStats::measure(&g);
        assert_eq!(s.fluid_points, 0);
        assert_eq!(s.fluid_fraction, 0.0);
        assert_eq!(s.wall_fraction(), 0.0);
        assert!(s.bulk_wall_ratio.is_infinite());
    }

    #[test]
    fn wall_fraction_of_thin_slab() {
        // A 1-voxel-thick fluid slab is all wall.
        let mut g = VoxelGrid::solid(5, 5, 3, 1.0);
        for y in 0..5 {
            for x in 0..5 {
                g.set(x, y, 1, CellType::Bulk);
            }
        }
        classify_walls(&mut g);
        let s = GeometryStats::measure(&g);
        assert_eq!(s.wall_points, 25);
        assert_eq!(s.bulk_points, 0);
        assert_eq!(s.wall_fraction(), 1.0);
    }
}
