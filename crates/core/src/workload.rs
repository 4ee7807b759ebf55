//! Workload descriptors: everything a performance model needs to know
//! about a simulation before it runs.

use hemocloud_decomp::census::{Census, CensusEntry};
use hemocloud_decomp::rcb::RcbError;
use hemocloud_fitting::models::ImbalanceModel;
use hemocloud_geometry::classify::measured_avg_solid_links;
use hemocloud_geometry::stats::GeometryStats;
use hemocloud_geometry::voxel::VoxelGrid;
use hemocloud_lbm::access_profile::AccessProfile;
use hemocloud_lbm::kernel::KernelConfig;
use std::sync::Arc;

/// A fully described LBM simulation campaign input.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (geometry + code).
    pub name: String,
    /// Point-type census of the geometry.
    pub stats: GeometryStats,
    /// Kernel variant to run.
    pub kernel: KernelConfig,
    /// Byte costs of that kernel on this geometry.
    pub profile: AccessProfile,
    /// Timesteps the campaign needs.
    pub steps: u64,
    /// Total bytes a serial run accesses per timestep — the
    /// `n_bytes_serial` of paper Eq. 10.
    pub serial_bytes: f64,
    /// The voxel grid, retained for exact decomposition analysis. Shared
    /// and immutable: clones of a workload cost nothing, and the grid
    /// cannot change under a filled census.
    pub grid: Arc<VoxelGrid>,
    /// Every RCB decomposition of `grid` anyone has asked for, shared by
    /// all clones of this workload (including [`Workload::scaled`] ones).
    census: Arc<Census>,
}

impl Workload {
    /// Describe a workload for a kernel configuration.
    pub fn new(
        name: impl Into<String>,
        grid: &VoxelGrid,
        kernel: KernelConfig,
        steps: u64,
    ) -> Self {
        let stats = GeometryStats::measure(grid);
        let avg_links = measured_avg_solid_links(grid);
        let profile = AccessProfile::for_kernel(&kernel, avg_links);
        let serial_bytes = profile.mesh_bytes(&stats);
        let grid = Arc::new(grid.clone());
        let census = Census::new(Arc::clone(&grid), profile.bulk_bytes, profile.wall_bytes);
        Self {
            name: name.into(),
            stats,
            kernel,
            profile,
            steps,
            serial_bytes,
            grid,
            census: Arc::new(census),
        }
    }

    /// The decomposition census of the grid at `ranks` fluid-balanced RCB
    /// subdomains, or why the grid cannot be split that far. Taken on
    /// first request, then shared: both models, the routed dashboard and
    /// the campaign's prepared runs get their decomposition here.
    ///
    /// # Panics
    /// Panics if `grid` was replaced after construction.
    pub fn census(&self, ranks: usize) -> Result<Arc<CensusEntry>, RcbError> {
        self.checked_census().entry(ranks)
    }

    /// The Eq. 11 fit over the calibration censuses
    /// ([`Census::imbalance_model`]): a property of the grid, made once
    /// and shared like the censuses.
    ///
    /// # Panics
    /// Panics if `grid` was replaced after construction.
    pub fn imbalance_model(&self) -> ImbalanceModel {
        self.checked_census().imbalance_model()
    }

    fn checked_census(&self) -> &Census {
        assert!(
            Arc::ptr_eq(&self.grid, self.census.grid()),
            "workload grid replaced under its census; build a new Workload"
        );
        &self.census
    }

    /// A HARVEY-style workload (indirect AoS/AB, double precision).
    pub fn harvey(grid: &VoxelGrid, steps: u64) -> Self {
        Self::new("HARVEY", grid, KernelConfig::harvey(), steps)
    }

    /// Total fluid points.
    pub fn points(&self) -> usize {
        self.stats.fluid_points
    }

    /// A resolution-scaled copy for generalized-model extrapolation: bulk
    /// points scale with the cube of the linear `factor`, wall/inlet/outlet
    /// points with its square (they are surfaces). The grid is **not**
    /// rescaled — the direct model (which reads the grid) must not be used
    /// on a scaled workload; the generalized model and dashboard (which
    /// read only the census) are the intended consumers. This mirrors the
    /// paper's "high-resolution" evaluation geometries, whose censuses are
    /// extrapolated here rather than voxelized at full size.
    ///
    /// # Panics
    /// Panics for a non-positive factor.
    pub fn scaled(&self, factor: f64) -> Workload {
        assert!(factor > 0.0, "non-positive scale factor");
        let f2 = factor * factor;
        let f3 = f2 * factor;
        let mut stats = self.stats;
        stats.bulk_points = (stats.bulk_points as f64 * f3).round() as usize;
        stats.wall_points = (stats.wall_points as f64 * f2).round() as usize;
        stats.inlet_points = (stats.inlet_points as f64 * f2).round() as usize;
        stats.outlet_points = (stats.outlet_points as f64 * f2).round() as usize;
        stats.fluid_points =
            stats.bulk_points + stats.wall_points + stats.inlet_points + stats.outlet_points;
        stats.total_voxels = (stats.total_voxels as f64 * f3).round() as usize;
        stats.fluid_fraction = stats.fluid_points as f64 / stats.total_voxels.max(1) as f64;
        stats.bulk_wall_ratio = if stats.wall_points == 0 {
            f64::INFINITY
        } else {
            stats.bulk_points as f64 / stats.wall_points as f64
        };
        let serial_bytes = self.profile.mesh_bytes(&stats);
        Workload {
            name: format!("{} (census x{factor:.2} linear)", self.name),
            stats,
            serial_bytes,
            ..self.clone()
        }
    }

    /// Total fluid-point updates of the whole campaign.
    pub fn total_updates(&self) -> f64 {
        self.points() as f64 * self.steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_lbm::kernel::{Layout, Propagation};

    #[test]
    fn harvey_workload_census() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let w = Workload::harvey(&g, 500);
        assert_eq!(w.points(), g.fluid_count());
        assert!(w.serial_bytes > 0.0);
        assert_eq!(w.total_updates(), w.points() as f64 * 500.0);
    }

    #[test]
    fn serial_bytes_consistent_with_profile() {
        let g = CylinderSpec::default().with_resolution(8).build();
        let w = Workload::harvey(&g, 1);
        let expect = w.profile.mesh_bytes(&w.stats);
        assert_eq!(w.serial_bytes, expect);
    }

    #[test]
    fn scaled_census_grows_bulk_faster_than_wall() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let w = Workload::harvey(&g, 1);
        let s = w.scaled(3.0);
        let bulk_ratio = s.stats.bulk_points as f64 / w.stats.bulk_points as f64;
        let wall_ratio = s.stats.wall_points as f64 / w.stats.wall_points as f64;
        assert!((bulk_ratio - 27.0).abs() < 0.1, "bulk {bulk_ratio}");
        assert!((wall_ratio - 9.0).abs() < 0.1, "wall {wall_ratio}");
        // Serial bytes grow between the wall (×9) and bulk (×27) factors —
        // at this coarse resolution wall points carry much of the census.
        assert!(s.serial_bytes > w.serial_bytes * 9.0);
        assert!(s.serial_bytes < w.serial_bytes * 27.0);
        assert_eq!(
            s.stats.fluid_points,
            s.stats.bulk_points + s.stats.wall_points + s.stats.inlet_points
                + s.stats.outlet_points
        );
    }

    #[test]
    fn new_prices_the_configured_kernel_not_ab() {
        let g = CylinderSpec::default().with_resolution(8).build();
        let aa_kernel = KernelConfig::sparse(Propagation::Aa, Layout::Soa);
        let aa = Workload::new("aa", &g, aa_kernel, 10);
        let ab = Workload::harvey(&g, 10);
        assert_eq!(aa.kernel, aa_kernel);
        assert_eq!(ab.kernel, KernelConfig::harvey());
        // The configured kernel drives both traffic and footprint.
        assert!(aa.serial_bytes < ab.serial_bytes);
        assert!(aa.kernel.resident_bytes_per_point() < ab.kernel.resident_bytes_per_point());
    }

    #[test]
    fn new_prices_single_precision_end_to_end() {
        use hemocloud_lbm::kernel::Precision;
        let g = CylinderSpec::default().with_resolution(8).build();
        let f32_kernel =
            KernelConfig::sparse_with_precision(Propagation::Ab, Layout::Soa, Precision::Single);
        let f64_kernel = KernelConfig::sparse(Propagation::Ab, Layout::Soa);
        let single = Workload::new("f32", &g, f32_kernel, 10);
        let double = Workload::new("f64", &g, f64_kernel, 10);
        // Pinned resident footprints: AB f32 = 2×19×4 + 19×4 = 228 B/point
        // (exactly AA f64), AB f64 = 380 B/point.
        assert_eq!(single.kernel.resident_bytes_per_point(), 228.0);
        assert_eq!(double.kernel.resident_bytes_per_point(), 380.0);
        // Distribution traffic halves; index traffic (19 × 4 B per bulk
        // point, both reads) does not — so per-step bytes shrink by
        // exactly 19 × 8 × points' worth on bulk cells.
        assert!(single.serial_bytes < double.serial_bytes);
        let bulk_delta = double.profile.bulk_bytes - single.profile.bulk_bytes;
        assert!((bulk_delta - 19.0 * 8.0).abs() < 1e-12);
        assert_eq!(single.profile.boundary_point_bytes, 20.0);
    }

    #[test]
    fn aa_workload_reads_fewer_bytes_than_ab() {
        let g = CylinderSpec::default().with_resolution(8).build();
        let proxy = |propagation| KernelConfig::proxy(Layout::Soa, propagation, true);
        let ab = Workload::new("proxy ab", &g, proxy(Propagation::Ab), 1);
        let aa = Workload::new("proxy aa", &g, proxy(Propagation::Aa), 1);
        assert!(aa.serial_bytes < ab.serial_bytes);
    }
}
