//! Load-imbalance sweeps and the Eq. 11 fit.
//!
//! The paper derives its imbalance parameters `c1, c2` "from fits of
//! Eq. 11 to prior HARVEY decomposition data ... wherein each task's memory
//! accesses were counted for a sweep of task counts". [`imbalance_sweep_rcb`]
//! performs exactly that sweep on a geometry; [`fit_sweep`] produces the
//! fitted [`ImbalanceModel`].

use crate::census::CensusEntry;
use crate::halo::DecompAnalysis;
use hemocloud_fitting::models::{fit_imbalance, ImbalanceModel};
use hemocloud_geometry::voxel::VoxelGrid;

/// One sample of a sweep: task count and its measured `z`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalanceSample {
    /// Number of tasks the domain was split into.
    pub n_tasks: usize,
    /// Measured deviation from perfect balance (paper Eq. 10).
    pub z: f64,
}

impl ImbalanceSample {
    /// The sample one decomposition's census yields.
    pub fn of(analysis: &DecompAnalysis) -> Self {
        Self {
            n_tasks: analysis.n_tasks,
            z: analysis.z_factor(),
        }
    }
}

/// Measure `z` over a sweep of task counts using fluid-balanced RCB
/// partitions — the decomposition the HARVEY-analog solver actually uses.
/// Task counts the grid cannot host are skipped.
pub fn imbalance_sweep_rcb(grid: &VoxelGrid, task_counts: &[usize]) -> Vec<ImbalanceSample> {
    CensusEntry::sweep(grid, task_counts, 0.0, 0.0)
        .iter()
        .flatten()
        .map(|entry| ImbalanceSample::of(&entry.analysis))
        .collect()
}

/// Fit the Eq. 11 model to a sweep.
pub fn fit_sweep(samples: &[ImbalanceSample]) -> Option<ImbalanceModel> {
    let ns: Vec<usize> = samples.iter().map(|s| s.n_tasks).collect();
    let zs: Vec<f64> = samples.iter().map(|s| s.z).collect();
    fit_imbalance(&ns, &zs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_geometry::anatomy::{CerebralSpec, CylinderSpec};
    use hemocloud_geometry::voxel::{CellType, VoxelGrid};

    #[test]
    fn full_cube_stays_balanced() {
        // A solid cube of fluid splits evenly: z stays near 1 for divisors
        // of the axis lengths.
        let g = VoxelGrid::filled(16, 16, 16, 1.0, CellType::Bulk);
        let samples = imbalance_sweep_rcb(&g, &[1, 2, 4, 8]);
        for s in &samples {
            assert!(s.z < 1.05, "n={} z={}", s.n_tasks, s.z);
        }
    }

    #[test]
    fn sweep_skips_oversubscription() {
        let g = VoxelGrid::filled(4, 4, 4, 1.0, CellType::Bulk);
        let samples = imbalance_sweep_rcb(&g, &[1, 2, 4096]);
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn anatomy_imbalance_grows_with_tasks() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let samples = imbalance_sweep_rcb(&g, &[1, 8, 64]);
        assert!(samples[0].z <= samples[2].z + 1e-9);
        // Whole-slice cuts cannot halve a round cross-section exactly, so
        // even fluid-balanced bisection drifts off 1 as tasks multiply.
        assert!(samples[2].z > 1.05, "z(64) = {}", samples[2].z);
    }

    #[test]
    fn fit_tracks_measured_sweep() {
        let g = CerebralSpec::default()
            .with_generations(4)
            .with_resolution(6)
            .build();
        let samples = imbalance_sweep_rcb(&g, &[1, 2, 4, 8, 16, 32, 64]);
        let model = fit_sweep(&samples).expect("fit");
        // The fit should track the measured z within ~35% everywhere (the
        // log model is an approximation the paper accepts).
        for s in &samples {
            let pred = model.eval(s.n_tasks);
            assert!(
                (pred - s.z).abs() / s.z < 0.35,
                "n={}: pred {pred} vs measured {}",
                s.n_tasks,
                s.z
            );
        }
    }
}
