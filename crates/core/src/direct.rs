//! The **direct** performance model (paper §II-D): predictions from the
//! actual parallel decomposition.
//!
//! For each rank count the workload's grid is decomposed exactly as the
//! ranked solver would decompose it; per-task byte counts (Eq. 9) and the
//! real message lists then give
//!
//! ```text
//! T ≈ max_j(t_mem_j) + max_j(t_comm_j)           (Eq. 6)
//! t_mem_j  = bytes_j / (B_NODE(n)/n)             (Eqs. 8-9)
//! t_comm_j = Σ_messages (m/b + l)                (Eqs. 5, 12)
//! ```
//!
//! using only *fitted* hardware parameters — never the simulator's ground
//! truth or its unmodeled overheads. The direct model separates model
//! error from decomposition-estimation error: it shares Eq. 6 with the
//! generalized model but replaces all a-priori estimates with measured
//! decomposition data.

use crate::characterize::PlatformCharacterization;
use crate::composition::{Composition, Prediction};
use crate::workload::Workload;
use hemocloud_cluster::network::LinkKind;
use hemocloud_decomp::census::CensusEntry;
use hemocloud_decomp::halo::resident_bytes_per_task;
use hemocloud_decomp::placement::Placement;
use std::sync::Arc;

/// The direct model: a characterization plus a workload.
#[derive(Debug, Clone)]
pub struct DirectModel {
    character: PlatformCharacterization,
    workload: Workload,
}

impl DirectModel {
    /// Bind a characterization to a workload.
    pub fn new(character: PlatformCharacterization, workload: Workload) -> Self {
        Self {
            character,
            workload,
        }
    }

    /// The workload's census at `ranks`, or `None` when the rank count is
    /// zero, exceeds the platform allocation, or the grid cannot be split
    /// that far.
    fn census(&self, ranks: usize) -> Option<Arc<CensusEntry>> {
        if ranks > self.character.platform.total_cores {
            return None;
        }
        self.workload.census(ranks).ok()
    }

    /// Predict performance at `ranks` tasks (one per core, contiguous
    /// node placement), decomposing exactly as the execution engine does
    /// (fluid-balanced RCB). Returns `None` when the rank count exceeds
    /// the platform allocation or the fluid-point count.
    pub fn predict(&self, ranks: usize) -> Option<Prediction> {
        let census = self.census(ranks)?;
        let (analysis, task_bytes) = (&census.analysis, &census.task_bytes);
        let placement = Placement::contiguous(ranks, self.character.platform.cores_per_node);

        let tasks_per_node = placement.tasks_per_node();

        // max_j t_mem (Eq. 9 / fitted Eq. 8).
        let mut max_mem = 0.0f64;
        for (task, &bytes) in task_bytes.iter().enumerate() {
            let on_node = tasks_per_node[placement.node_of(task)].max(1);
            let bw = self.character.per_task_bandwidth(on_node); // MB/s
            let t = bytes / (bw * 1e6);
            max_mem = max_mem.max(t);
        }

        // max_j t_comm with the critical task's intra/inter split.
        let mut max_comm = 0.0f64;
        let mut critical = (0.0f64, 0.0f64);
        for (task, msgs) in analysis.messages.iter().enumerate() {
            let mut intra = 0.0;
            let mut inter = 0.0;
            for (&peer, &points) in msgs {
                let bytes = points as f64 * self.workload.profile.boundary_point_bytes;
                let kind = if placement.is_internodal(task, peer) {
                    LinkKind::Internodal
                } else {
                    LinkKind::Intranodal
                };
                // Send plus matching receive (the Eq. 13 factor of two).
                let t = 2.0 * self.character.message_time_s(kind, bytes);
                match kind {
                    LinkKind::Internodal => inter += t,
                    LinkKind::Intranodal => intra += t,
                }
            }
            if intra + inter > max_comm {
                max_comm = intra + inter;
                critical = (intra, inter);
            }
        }

        let composition = Composition {
            mem_s: max_mem,
            intra_s: critical.0,
            inter_s: critical.1,
            ..Default::default()
        };
        Some(Prediction::from_composition(
            ranks,
            self.workload.points(),
            composition,
        ))
    }

    /// Per-task *resident* memory at `ranks` tasks, decomposed exactly as
    /// [`DirectModel::predict`] decomposes: each task's fluid points times
    /// the configured kernel's `resident_bytes_per_point`. AA kernels
    /// report half the distribution storage of AB (no second array) — the
    /// footprint that decides whether a subdomain fits in a node's memory.
    /// Returns `None` for the same infeasible rank counts as `predict`.
    pub fn resident_task_bytes(&self, ranks: usize) -> Option<Vec<f64>> {
        Some(resident_bytes_per_task(
            &self.census(ranks)?.analysis,
            self.workload.kernel.resident_bytes_per_point(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use hemocloud_cluster::exec::{simulate_geometry, Overheads};
    use hemocloud_cluster::platform::Platform;
    use hemocloud_geometry::anatomy::CylinderSpec;

    fn setup() -> DirectModel {
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 100);
        let character = characterize(&Platform::csp2(), 42);
        DirectModel::new(character, workload)
    }

    #[test]
    fn single_rank_has_no_communication() {
        let m = setup();
        let p = m.predict(1).unwrap();
        assert_eq!(p.composition.intra_s, 0.0);
        assert_eq!(p.composition.inter_s, 0.0);
        assert!(p.composition.mem_s > 0.0);
        assert!(p.mflups > 0.0);
    }

    #[test]
    fn multi_node_runs_have_internodal_time() {
        let m = setup();
        let p = m.predict(72).unwrap(); // 2 CSP-2 nodes
        assert!(p.composition.inter_s > 0.0);
    }

    #[test]
    fn infeasible_ranks_are_none() {
        let m = setup();
        assert!(m.predict(0).is_none());
        assert!(m.predict(100_000).is_none());
    }

    #[test]
    fn prediction_overestimates_simulated_measurement() {
        // The paper's central observation: the model (no unmodeled
        // overheads) overpredicts what the machine (with overheads)
        // delivers — consistently, not wildly.
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 100);
        let platform = Platform::csp2();
        let model = DirectModel::new(characterize(&platform, 42), workload);
        for ranks in [1usize, 8, 36] {
            let predicted = model.predict(ranks).unwrap();
            let measured = simulate_geometry(
                &platform,
                &grid,
                &hemocloud_lbm::kernel::KernelConfig::harvey(),
                ranks,
                100,
                &Overheads::default(),
                1,
                0.0,
            )
            .unwrap();
            let ratio = predicted.mflups / measured.mflups;
            assert!(
                (1.05..3.0).contains(&ratio),
                "ranks {ranks}: predicted {} vs measured {} (ratio {ratio})",
                predicted.mflups,
                measured.mflups
            );
        }
    }

    #[test]
    fn aa_kernel_halves_resident_distribution_storage_per_task() {
        let grid = CylinderSpec::default().with_resolution(12).build();
        let character = characterize(&Platform::csp2(), 42);
        let mut aa_kernel = hemocloud_lbm::kernel::KernelConfig::harvey();
        aa_kernel.propagation = hemocloud_lbm::kernel::Propagation::Aa;
        let ab = DirectModel::new(
            character.clone(),
            Workload::harvey(&grid, 100),
        );
        let aa = DirectModel::new(
            character,
            Workload::new("HARVEY-AA", &grid, aa_kernel, 100),
        );
        for ranks in [1usize, 8] {
            let ab_bytes = ab.resident_task_bytes(ranks).unwrap();
            let aa_bytes = aa.resident_task_bytes(ranks).unwrap();
            assert_eq!(ab_bytes.len(), ranks);
            for (b, a) in ab_bytes.iter().zip(&aa_bytes) {
                // AB: 2×19×8 + 19×4 = 380 B/point; AA drops one 152-byte
                // array → 228 B/point.
                assert!((a / b - 228.0 / 380.0).abs() < 1e-12, "{a} vs {b}");
            }
        }
        assert!(aa.resident_task_bytes(0).is_none());
    }
}
