//! Memory-access accounting for LBM kernels — the inputs to the paper's
//! Eq. 9.
//!
//! The performance model estimates per-task update time as *bytes accessed
//! / sustained bandwidth*, so it needs the bytes each fluid-point update
//! touches. Counting rules (matching the paper's conventions — plain reads
//! plus writes, no write-allocate traffic, since the STREAM bandwidths the
//! model divides by are reported under the same convention):
//!
//! * **AB**: every step reads 19 distributions, writes 19, and reads the
//!   19-entry streaming index row (4 bytes/entry; both HARVEY's sparse mesh
//!   and `lbm-proxy-app` use a precomputed neighbor/offset array).
//! * **AA**: the even step touches no index array and only the cell's own
//!   19 values; averaged over a step pair the index traffic halves — the
//!   source of the paper's "AA shifted upwards from AB".
//! * **Wall points**: a solid link needs no index entry and its
//!   bounce-back read comes from the cell's own row (cache-resident), so
//!   each solid link removes one remote read and one index read — the
//!   reason the wall-heavy cerebral geometry performs best (paper §III-D).
//!
//! **Which STREAM rate divides the bytes matters.** The byte counts above
//! are stream-shape-agnostic, but the *sustained bandwidth* they are
//! divided by is not: AB pull (and the AA odd step) runs two load streams
//! against one store stream — the shape STREAM **Triad** measures — while
//! the AA even step is one load + one store, the shape STREAM **Copy**
//! measures. On machines whose memcpy uses non-temporal stores, Triad can
//! exceed Copy, so referencing everything to Copy (the old behavior)
//! understates the bound for every gather/scatter loop. The benchmark
//! therefore resolves the reference per pattern via
//! [`crate::kernel::Propagation::stream_reference`]: Triad for AB, the
//! Copy/Triad mean for AA's alternating pair.

use crate::kernel::{KernelConfig, Propagation};
use crate::lattice::Q19;
use crate::mesh::{FluidMesh, SOLID};
use hemocloud_geometry::stats::GeometryStats;

/// Bytes of a streaming-index entry (u32 neighbor index).
pub const INDEX_BYTES: f64 = 4.0;

/// Lattice directions whose motion crosses an axis-aligned subdomain face
/// (out of the 18 moving directions, 5 cross any given face: 1 axis + 4
/// edge vectors).
pub const FACE_CROSSING_DIRECTIONS: usize = 5;

/// Per-point, per-timestep byte costs of a kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Bytes to update one bulk fluid point.
    pub bulk_bytes: f64,
    /// Bytes to update one wall fluid point (with the average solid-link
    /// count used at construction).
    pub wall_bytes: f64,
    /// Bytes exchanged per subdomain-boundary point per halo exchange
    /// (send or receive, one direction) — the paper's
    /// `n_point_comm_bytes`.
    pub boundary_point_bytes: f64,
}

impl AccessProfile {
    /// Build the profile for a kernel, assuming `avg_solid_links` solid
    /// directions per wall point (typically 4-6 for voxelized vessels).
    pub fn for_kernel(config: &KernelConfig, avg_solid_links: f64) -> Self {
        let d = config.precision.bytes() as f64;
        let q = Q19 as f64;
        let k = avg_solid_links.clamp(0.0, q - 1.0);

        // Index traffic per step: AB reads the full row every step; AA only
        // on odd steps.
        let index_factor = match config.propagation {
            Propagation::Ab => 1.0,
            Propagation::Aa => 0.5,
        };

        let bulk_reads = q * d;
        let bulk_writes = q * d;
        let bulk_index = q * INDEX_BYTES * index_factor;
        let bulk_bytes = bulk_reads + bulk_writes + bulk_index;

        // A solid link removes one remote distribution read and one index
        // entry; the bounce-back value comes from the cell's own row.
        let wall_reads = (q - k) * d;
        let wall_index = (q - k) * INDEX_BYTES * index_factor;
        let wall_bytes = wall_reads + bulk_writes + wall_index;

        let boundary_point_bytes = FACE_CROSSING_DIRECTIONS as f64 * d;

        Self {
            bulk_bytes,
            wall_bytes,
            boundary_point_bytes,
        }
    }

    /// Total bytes per timestep for a geometry census (the Eq. 9 sum with
    /// inlet/outlet points costed as wall points — they also skip remote
    /// reads).
    pub fn mesh_bytes(&self, stats: &GeometryStats) -> f64 {
        self.bulk_bytes * stats.bulk_points as f64
            + self.wall_bytes
                * (stats.wall_points + stats.inlet_points + stats.outlet_points) as f64
    }

    /// Average bytes per fluid point for a census.
    pub fn bytes_per_point(&self, stats: &GeometryStats) -> f64 {
        if stats.fluid_points == 0 {
            0.0
        } else {
            self.mesh_bytes(stats) / stats.fluid_points as f64
        }
    }
}

/// Measure the average solid-link count of a mesh's wall points — the
/// `avg_solid_links` input to [`AccessProfile::for_kernel`], measured
/// rather than assumed.
pub fn average_solid_links(mesh: &FluidMesh) -> f64 {
    let mut links = 0usize;
    let mut walls = 0usize;
    for cell in 0..mesh.len() {
        let k = mesh
            .neighbor_row(cell)
            .iter()
            .skip(1)
            .filter(|&&n| n == SOLID)
            .count();
        if k > 0 {
            links += k;
            walls += 1;
        }
    }
    if walls == 0 {
        0.0
    } else {
        links as f64 / walls as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Layout, Precision};
    use hemocloud_geometry::anatomy::CylinderSpec;

    #[test]
    fn harvey_bulk_bytes() {
        // AB double: 19 reads + 19 writes at 8 B plus 19 index entries.
        let p = AccessProfile::for_kernel(&KernelConfig::harvey(), 5.0);
        assert!((p.bulk_bytes - (19.0 * 8.0 * 2.0 + 19.0 * 4.0)).abs() < 1e-12);
        assert!(p.wall_bytes < p.bulk_bytes);
        // Any solid-link count, clamped or not, prices a wall point between
        // the writes alone and a bulk point.
        for k in [0.0, 5.0, 18.0, 30.0] {
            let wall = AccessProfile::for_kernel(&KernelConfig::harvey(), k).wall_bytes;
            assert!(wall >= 19.0 * 8.0 && wall <= p.bulk_bytes, "k = {k}: {wall}");
        }
    }

    #[test]
    fn aa_halves_index_traffic() {
        let ab = AccessProfile::for_kernel(
            &KernelConfig::proxy(Layout::Soa, Propagation::Ab, true),
            0.0,
        );
        let aa = AccessProfile::for_kernel(
            &KernelConfig::proxy(Layout::Soa, Propagation::Aa, true),
            0.0,
        );
        let saved = ab.bulk_bytes - aa.bulk_bytes;
        assert!((saved - 19.0 * INDEX_BYTES * 0.5).abs() < 1e-12);
        assert!(aa.bulk_bytes < ab.bulk_bytes);
    }

    #[test]
    fn precision_scales_distribution_traffic() {
        let mut cfg = KernelConfig::harvey();
        cfg.precision = Precision::Single;
        let single = AccessProfile::for_kernel(&cfg, 5.0);
        cfg.precision = Precision::Double;
        let double = AccessProfile::for_kernel(&cfg, 5.0);
        // f traffic doubles, index traffic does not.
        assert!((double.bulk_bytes - single.bulk_bytes - 19.0 * 8.0).abs() < 1e-12);
        assert_eq!(double.boundary_point_bytes, 2.0 * single.boundary_point_bytes);
    }

    #[test]
    fn mesh_bytes_weights_point_types() {
        let p = AccessProfile::for_kernel(&KernelConfig::harvey(), 5.0);
        let stats = GeometryStats {
            total_voxels: 1000,
            fluid_points: 100,
            bulk_points: 60,
            wall_points: 30,
            inlet_points: 5,
            outlet_points: 5,
            fluid_fraction: 0.1,
            bulk_wall_ratio: 2.0,
        };
        let expect = 60.0 * p.bulk_bytes + 40.0 * p.wall_bytes;
        assert!((p.mesh_bytes(&stats) - expect).abs() < 1e-9);
        assert!((p.bytes_per_point(&stats) - expect / 100.0).abs() < 1e-12);
    }

    #[test]
    fn measured_solid_links_are_plausible() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let mesh = FluidMesh::build(&g);
        let k = average_solid_links(&mesh);
        assert!(k > 1.0 && k < 12.0, "avg solid links = {k}");
    }

    #[test]
    fn boundary_point_bytes_is_five_directions() {
        let p = AccessProfile::for_kernel(&KernelConfig::harvey(), 5.0);
        assert_eq!(p.boundary_point_bytes, 40.0);
    }

    #[test]
    fn aa_wall_bytes_pinned_at_reference_solid_link_counts() {
        // Pin the AA double-precision profile at the solid-link extremes
        // and a typical vessel value, per link count k:
        //   reads (19-k)·8 + writes 19·8 + index (19-k)·4·0.5
        let aa = KernelConfig::sparse(Propagation::Aa, Layout::Aos);
        for (k, bulk, wall) in [(0.0, 342.0, 342.0), (5.0, 342.0, 292.0), (18.0, 342.0, 162.0)] {
            let p = AccessProfile::for_kernel(&aa, k);
            assert_eq!(p.bulk_bytes, bulk, "bulk at k={k}");
            assert_eq!(p.wall_bytes, wall, "wall at k={k}");
        }
    }

    #[test]
    fn aa_is_cheaper_than_ab_for_every_precision_and_layout() {
        // The AA advantage (halved index traffic) must hold across the
        // whole kernel space the model prices, at bulk and wall points.
        for precision in [Precision::Single, Precision::Double, Precision::Quad] {
            for layout in [Layout::Aos, Layout::Soa] {
                for k in [0.0, 5.0, 18.0] {
                    let mut ab = KernelConfig::sparse(Propagation::Ab, layout);
                    ab.precision = precision;
                    let mut aa = KernelConfig::sparse(Propagation::Aa, layout);
                    aa.precision = precision;
                    let pab = AccessProfile::for_kernel(&ab, k);
                    let paa = AccessProfile::for_kernel(&aa, k);
                    assert!(
                        paa.bulk_bytes < pab.bulk_bytes,
                        "{precision:?}/{layout:?} bulk: AA {} !< AB {}",
                        paa.bulk_bytes,
                        pab.bulk_bytes
                    );
                    if k < 18.0 {
                        assert!(paa.wall_bytes < pab.wall_bytes, "{precision:?}/{layout:?} k={k}");
                    } else {
                        // One remaining fluid link still carries half an
                        // index entry's saving.
                        assert!(paa.wall_bytes <= pab.wall_bytes);
                    }
                }
            }
        }
    }
}
