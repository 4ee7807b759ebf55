//! Communication-event counting and the Eq. 15 fit.
//!
//! The generalized model needs the maximum number of *internodal* messages
//! a task participates in per step, as a function of task and node counts.
//! [`count_max_events`] measures it for a real decomposition+placement;
//! [`event_sweep_rcb`] collects the `(n_tasks, n_nodes, events)` samples the
//! paper fits Eq. 15 against.

use crate::census::CensusEntry;
use crate::halo::DecompAnalysis;
use crate::placement::Placement;
use hemocloud_fitting::models::{fit_events, EventModel};
use hemocloud_geometry::voxel::VoxelGrid;

/// Maximum number of internodal send events of any task, counting each
/// send and its matching receive (LBM halo exchanges are bidirectional —
/// the factor-of-two convention of paper Eq. 13).
pub fn count_max_events(analysis: &DecompAnalysis, placement: &Placement) -> usize {
    analysis
        .messages
        .iter()
        .enumerate()
        .map(|(task, msgs)| {
            2 * msgs
                .keys()
                .filter(|&&peer| placement.is_internodal(task, peer))
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventSample {
    /// Task count.
    pub n_tasks: usize,
    /// Node count (contiguous placement).
    pub n_nodes: usize,
    /// Measured maximum internodal events per task per step.
    pub max_events: usize,
}

impl EventSample {
    /// The sample one decomposition's census yields under contiguous
    /// placement at `tasks_per_node` — the only per-platform input.
    pub fn of(analysis: &DecompAnalysis, tasks_per_node: usize) -> Self {
        let placement = Placement::contiguous(analysis.n_tasks, tasks_per_node);
        Self {
            n_tasks: analysis.n_tasks,
            n_nodes: placement.n_nodes(),
            max_events: count_max_events(analysis, &placement),
        }
    }
}

/// Measure maximum event counts over task-count sweeps using RCB
/// partitions and contiguous placement — matching the decomposition the
/// solver and timing engine use. Task counts the grid cannot host are
/// skipped.
pub fn event_sweep_rcb(
    grid: &VoxelGrid,
    task_counts: &[usize],
    tasks_per_node: usize,
) -> Vec<EventSample> {
    CensusEntry::sweep(grid, task_counts, 0.0, 0.0)
        .iter()
        .flatten()
        .map(|entry| EventSample::of(&entry.analysis, tasks_per_node))
        .collect()
}

/// Fit the Eq. 15 event model to sweep samples.
pub fn fit_event_sweep(samples: &[EventSample]) -> Option<EventModel> {
    let triples: Vec<(usize, usize, f64)> = samples
        .iter()
        .map(|s| (s.n_tasks, s.n_nodes, s.max_events as f64))
        .collect();
    fit_events(&triples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::BlockPartition;
    use hemocloud_geometry::anatomy::CylinderSpec;
    use hemocloud_geometry::voxel::{CellType, VoxelGrid};

    #[test]
    fn all_tasks_on_one_node_is_zero_events() {
        let g = VoxelGrid::filled(8, 8, 8, 1.0, CellType::Bulk);
        let p = BlockPartition::new(g.dims(), 8);
        let analysis = DecompAnalysis::analyze(&g, &p);
        let placement = Placement::contiguous(8, 8);
        assert_eq!(count_max_events(&analysis, &placement), 0);
    }

    #[test]
    fn events_double_count_send_and_receive() {
        // Two slabs on two nodes: each task exchanges with one peer, so 2
        // events (one send + one receive).
        let g = VoxelGrid::filled(8, 8, 8, 1.0, CellType::Bulk);
        let p = crate::partition::SlabPartition::new(g.dims(), 2);
        let analysis = DecompAnalysis::analyze(&g, &p);
        let placement = Placement::contiguous(2, 1);
        assert_eq!(count_max_events(&analysis, &placement), 2);
    }

    #[test]
    fn sweep_monotone_in_tasks_at_fixed_node_size() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let samples = event_sweep_rcb(&g, &[4, 16, 64], 4);
        assert_eq!(samples.len(), 3);
        assert!(samples[2].max_events >= samples[0].max_events);
        assert!(samples[2].max_events > 0);
    }

    #[test]
    fn fit_reproduces_sweep_shape() {
        let g = CylinderSpec::default().with_resolution(10).build();
        let samples = event_sweep_rcb(&g, &[2, 4, 8, 16, 32, 64], 4);
        let model = fit_event_sweep(&samples).expect("fit");
        // The fitted curve must grow with task count like the measurements.
        let lo = model.eval(4, 1);
        let hi = model.eval(64, 16);
        assert!(hi >= lo, "events model not increasing: {lo} vs {hi}");
        // And stay in the right order of magnitude at the measured points.
        for s in &samples {
            if s.max_events > 0 {
                let pred = model.eval(s.n_tasks, s.n_nodes);
                assert!(
                    pred > 0.2 * s.max_events as f64 && pred < 5.0 * s.max_events as f64,
                    "n={} nodes={}: pred {pred} vs measured {}",
                    s.n_tasks,
                    s.n_nodes,
                    s.max_events
                );
            }
        }
    }
}
