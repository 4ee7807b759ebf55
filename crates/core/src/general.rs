//! The **generalized** performance model (paper Eqs. 10-16): predictions
//! from the task count alone, with data and halo sizes estimated
//! *a priori*.
//!
//! Where the direct model consumes an actual decomposition, this model
//! estimates it:
//!
//! ```text
//! max_j(bytes_j) ≈ z · bytes_serial / n_tasks                  (Eq. 10)
//! z = c1·ln(c2(n_tasks − 1) + 1) + 1                           (Eq. 11)
//! m_max = (w/6)·(z·N/n_tasks)^(2/3) · 2 · point_bytes          (Eq. 13)
//! w = min(log2(n_tasks), 6)                                    (Eq. 14)
//! events = 4·log2((k1/n_n + k2)(n_tasks − n_n) + 1)            (Eq. 15)
//! t_comm = m_max/b + events·l                                  (Eq. 16)
//! ```
//!
//! `c1, c2, k1, k2` are empirical, fit against decomposition sweeps of
//! prior geometry data — reproduced here by sweeping the workload's own
//! grid. The model needs **no grid at prediction time**, so it can
//! extrapolate to allocations larger than any tested instance (the
//! paper's Fig. 11 predicts 2048 cores on platforms that offered 144) —
//! that reach is exactly what makes it the dashboard's engine.
//!
//! Per the paper, only *internodal* communication is modeled; intranodal
//! messages are neglected (its direct-model data shows they are
//! negligible — our Fig. 9 reproduction confirms).

use crate::characterize::{per_task_bandwidth, PlatformCharacterization};
use crate::composition::{Composition, Prediction};
use crate::workload::Workload;
use hemocloud_cluster::platform::Platform;
use hemocloud_decomp::census::CALIBRATION_COUNTS;
use hemocloud_decomp::events::{fit_event_sweep, EventSample};
use hemocloud_fitting::models::{EventModel, ImbalanceModel};

/// The generalized model.
#[derive(Debug, Clone)]
pub struct GeneralModel {
    platform: Platform,
    /// The characterization's Eq. 8 fit (node bandwidth).
    memory_fit: hemocloud_fitting::two_line::TwoLineFit,
    /// The characterization's internodal Eq. 12 fit.
    internodal_fit: hemocloud_fitting::sweep::CommFit,
    /// Fluid points of the workload (`N`).
    points: f64,
    /// Serial byte count per step (`n_bytes_serial`).
    serial_bytes: f64,
    /// Bytes exchanged per boundary point (`n_point_comm_bytes`).
    point_comm_bytes: f64,
    /// Eq. 11 fit.
    imbalance: ImbalanceModel,
    /// Eq. 15 fit.
    events: EventModel,
}

impl GeneralModel {
    /// Build the model, calibrating `c1, c2, k1, k2` against the
    /// workload's own decomposition census (the "prior HARVEY
    /// decomposition data" role). The census and the Eq. 11 fit to it
    /// are properties of the geometry, shared by every platform; only the
    /// contiguous placement at `cores_per_node` behind the event samples,
    /// and so the Eq. 15 fit, is this platform's.
    pub fn from_characterization(
        character: &PlatformCharacterization,
        workload: &Workload,
    ) -> Self {
        let ev_samples: Vec<_> = CALIBRATION_COUNTS
            .iter()
            .filter_map(|&n| workload.census(n).ok())
            .map(|e| EventSample::of(&e.analysis, character.platform.cores_per_node))
            .collect();
        let imbalance = workload.imbalance_model();
        let events = fit_event_sweep(&ev_samples).unwrap_or(EventModel {
            k1: 0.0,
            k2: 1.0,
            sse: 0.0,
        });
        Self::with_models(character, workload, imbalance, events)
    }

    /// Build with explicit (externally calibrated) empirical models.
    pub fn with_models(
        character: &PlatformCharacterization,
        workload: &Workload,
        imbalance: ImbalanceModel,
        events: EventModel,
    ) -> Self {
        Self {
            platform: character.platform.clone(),
            memory_fit: character.memory_fit,
            internodal_fit: character.internodal_fit,
            points: workload.points() as f64,
            serial_bytes: workload.serial_bytes,
            point_comm_bytes: workload.profile.boundary_point_bytes,
            imbalance,
            events,
        }
    }

    /// The imbalance fit in use.
    pub fn imbalance_model(&self) -> &ImbalanceModel {
        &self.imbalance
    }

    /// The event fit in use.
    pub fn event_model(&self) -> &EventModel {
        &self.events
    }

    /// Predict at `ranks` tasks (one per core, whole nodes). Unlike the
    /// direct model this never needs the grid, so any positive rank count
    /// is predictable — including hypothetical allocations beyond the
    /// platform's tested size.
    ///
    /// # Panics
    /// Panics at zero ranks.
    pub fn predict(&self, ranks: usize) -> Prediction {
        assert!(ranks > 0, "zero ranks");
        let cores_per_node = self.platform.cores_per_node;
        let n_nodes = ranks.div_ceil(cores_per_node);
        let tasks_per_node = ranks.min(cores_per_node);

        // Memory side: Eqs. 10-11 over the fitted Eq. 8 curve.
        let z = self.imbalance.eval(ranks);
        let max_bytes = z * self.serial_bytes / ranks as f64;
        let bw = per_task_bandwidth(&self.memory_fit, tasks_per_node); // MB/s
        let mem_s = max_bytes / (bw * 1e6);

        // Communication side: Eqs. 13-16, internodal only.
        let (comm_bandwidth_s, comm_latency_s) = if n_nodes > 1 {
            let w = (ranks as f64).log2().min(6.0);
            let m_max = (w / 6.0)
                * (z * self.points / ranks as f64).powf(2.0 / 3.0)
                * 2.0
                * self.point_comm_bytes;
            let events = self.events.eval(ranks, n_nodes);
            let fit = &self.internodal_fit;
            (
                m_max / fit.bandwidth_mb_s * 1e-6,
                events * fit.latency_us * 1e-6,
            )
        } else {
            (0.0, 0.0)
        };

        let composition = Composition {
            mem_s,
            comm_bandwidth_s,
            comm_latency_s,
            ..Default::default()
        };
        Prediction::from_composition(ranks, self.points as usize, composition)
    }

    /// The options this platform can sell among `rank_options`: for each
    /// rank count in `1..=total_cores` whose prediction has a finite
    /// positive step time, the whole nodes it bills and the raw
    /// prediction (which carries the rank count). Every table of
    /// (platform, ranks) options — the dashboard's rows, the campaign
    /// scheduler's per-pool cache — is this iterator plus the caller's
    /// own constraints.
    pub fn options<'a>(
        &'a self,
        rank_options: &'a [usize],
    ) -> impl Iterator<Item = (usize, Prediction)> + 'a {
        let platform = &self.platform;
        rank_options
            .iter()
            .filter(|&&ranks| (1..=platform.total_cores).contains(&ranks))
            .map(|&ranks| (platform.nodes_for_ranks(ranks), self.predict(ranks)))
            .filter(|(_, raw)| raw.step_time_s > 0.0 && raw.step_time_s.is_finite())
    }

    /// Shared-node prediction (paper Discussion): assume
    /// `cotenant_cores_per_node` of each node's cores are saturated by
    /// other tenants, so our tasks receive an even share of the node
    /// bandwidth evaluated at the *total* active core count. The
    /// communication terms are unchanged (the paper leaves co-tenant
    /// network interference to future work).
    ///
    /// # Panics
    /// Panics at zero ranks.
    pub fn predict_shared(&self, ranks: usize, cotenant_cores_per_node: usize) -> Prediction {
        assert!(ranks > 0, "zero ranks");
        let base = self.predict(ranks);
        let cores_per_node = self.platform.cores_per_node;
        let our_tasks = ranks.min(cores_per_node);
        let active = (our_tasks + cotenant_cores_per_node).min(cores_per_node);
        if active == our_tasks {
            return base;
        }
        let dedicated_bw = per_task_bandwidth(&self.memory_fit, our_tasks);
        let shared_bw = per_task_bandwidth(&self.memory_fit, active);
        let composition = Composition {
            mem_s: base.composition.mem_s * dedicated_bw / shared_bw,
            ..base.composition
        };
        Prediction::from_composition(ranks, self.points as usize, composition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::characterize;
    use crate::direct::DirectModel;
    use hemocloud_cluster::platform::Platform;
    use hemocloud_geometry::anatomy::CylinderSpec;

    fn setup(platform: &Platform) -> (GeneralModel, Workload) {
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 100);
        let character = characterize(platform, 42);
        (
            GeneralModel::from_characterization(&character, &workload),
            workload,
        )
    }

    #[test]
    fn single_node_prediction_has_no_comm() {
        let (m, _) = setup(&Platform::csp2());
        let p = m.predict(36);
        assert_eq!(p.composition.comm_latency_s, 0.0);
        assert_eq!(p.composition.comm_bandwidth_s, 0.0);
        assert!(p.composition.mem_s > 0.0);
    }

    #[test]
    fn multi_node_prediction_is_latency_dominated_on_csp2() {
        // The paper's Fig. 10 finding: on CSP-2's slow interconnect, "the
        // bulk of the internodal communication time is due to latency and
        // not due to insufficient bandwidth".
        let (m, _) = setup(&Platform::csp2());
        let p = m.predict(144);
        assert!(
            p.composition.comm_latency_s > p.composition.comm_bandwidth_s,
            "latency {} !> bandwidth {}",
            p.composition.comm_latency_s,
            p.composition.comm_bandwidth_s
        );
    }

    #[test]
    fn extrapolates_beyond_platform_allocation() {
        let (m, _) = setup(&Platform::csp2()); // 144 cores tested
        let p = m.predict(2048);
        assert!(p.mflups > 0.0);
        assert_eq!(p.ranks, 2048);
    }

    #[test]
    fn tracks_direct_model_at_moderate_scale() {
        // The generalized estimates should stay within ~2.5x of the direct
        // model's predictions where both are defined (the paper's Figs.
        // 7-8 show them close, with the general model drifting somewhat).
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 100);
        let character = characterize(&Platform::csp2(), 42);
        let general = GeneralModel::from_characterization(&character, &workload);
        let direct = DirectModel::new(character, workload);
        for ranks in [1usize, 8, 36, 72] {
            let g = general.predict(ranks);
            let d = direct.predict(ranks).unwrap();
            let ratio = g.mflups / d.mflups;
            assert!(
                (0.4..2.5).contains(&ratio),
                "ranks {ranks}: general {} vs direct {} (ratio {ratio})",
                g.mflups,
                d.mflups
            );
        }
    }

    #[test]
    fn cold_warm_and_grid_sweep_calibrations_agree_bitwise() {
        use hemocloud_decomp::census::CALIBRATION_COUNTS;
        use hemocloud_decomp::events::{event_sweep_rcb, fit_event_sweep};
        use hemocloud_decomp::imbalance::{fit_sweep, imbalance_sweep_rcb};

        let grid = CylinderSpec::default().with_resolution(12).build();
        for platform in [Platform::csp2(), Platform::csp2_small(), Platform::trc()] {
            let character = characterize(&platform, 42);
            let cold = Workload::harvey(&grid, 100);
            let warm = Workload::harvey(&grid, 100);
            // Warm the census out of calibration order, through the other
            // readers, before the fit sees it.
            let direct = DirectModel::new(character.clone(), warm.clone());
            for ranks in [64usize, 36, 1, 256] {
                let _ = direct.predict(ranks);
            }
            let from_cold = GeneralModel::from_characterization(&character, &cold);
            let from_warm = GeneralModel::from_characterization(&character, &warm);
            let from_grid = GeneralModel::with_models(
                &character,
                &cold,
                fit_sweep(&imbalance_sweep_rcb(&grid, &CALIBRATION_COUNTS)).unwrap(),
                fit_event_sweep(&event_sweep_rcb(
                    &grid,
                    &CALIBRATION_COUNTS,
                    platform.cores_per_node,
                ))
                .unwrap(),
            );
            let constants = |m: &GeneralModel| {
                let (imb, ev) = (m.imbalance_model(), m.event_model());
                [imb.c1, imb.c2, ev.k1, ev.k2].map(f64::to_bits)
            };
            for other in [&from_warm, &from_grid] {
                assert_eq!(constants(&from_cold), constants(other));
                for ranks in [1usize, 16, 36, 144, 2048] {
                    assert_eq!(
                        from_cold.predict(ranks).step_time_s.to_bits(),
                        other.predict(ranks).step_time_s.to_bits(),
                        "{} at {ranks} ranks",
                        platform.abbrev
                    );
                }
            }
        }
    }

    #[test]
    fn strong_scaling_helps_within_a_node_then_latency_bites() {
        // Within one node, more ranks tap more of the two-line bandwidth
        // curve; across nodes on this small workload, internodal latency
        // inverts the trend — the paper's high-rank drop.
        let (m, _) = setup(&Platform::csp2());
        let p16 = m.predict(16);
        let p36 = m.predict(36);
        let p144 = m.predict(144);
        assert!(
            p36.step_time_s < p16.step_time_s,
            "36 ranks {} !< 16 ranks {}",
            p36.step_time_s,
            p16.step_time_s
        );
        assert!(
            p144.step_time_s > p36.step_time_s,
            "rollover expected on a small workload: {} vs {}",
            p144.step_time_s,
            p36.step_time_s
        );
    }

    #[test]
    #[should_panic(expected = "zero ranks")]
    fn zero_ranks_panics() {
        let (m, _) = setup(&Platform::csp2());
        let _ = m.predict(0);
    }

    #[test]
    fn shared_node_prediction_is_slower_and_tracks_the_engine() {
        use hemocloud_cluster::exec::{simulate_geometry, Overheads};
        let platform = Platform::csp2();
        let grid = CylinderSpec::default().with_resolution(12).build();
        let workload = Workload::harvey(&grid, 100);
        let character = characterize(&platform, 42);
        let model = GeneralModel::from_characterization(&character, &workload);

        let ranks = 8;
        let cotenants = 28;
        let dedicated = model.predict(ranks);
        let shared = model.predict_shared(ranks, cotenants);
        assert!(shared.mflups < dedicated.mflups);
        // No spare cores → no change.
        assert_eq!(model.predict_shared(36, cotenants).mflups, model.predict(36).mflups);

        // Direction agrees with the timing engine's co-tenant mode, and the
        // predicted slowdown ratio is in the same ballpark.
        let cfg = hemocloud_lbm::kernel::KernelConfig::harvey();
        let m_ded =
            simulate_geometry(&platform, &grid, &cfg, ranks, 100, &Overheads::default(), 1, 0.0)
                .unwrap();
        let m_shared = simulate_geometry(
            &platform,
            &grid,
            &cfg,
            ranks,
            100,
            &Overheads {
                cotenant_cores_per_node: cotenants,
                ..Default::default()
            },
            1,
            0.0,
        )
        .unwrap();
        let predicted_slowdown = dedicated.mflups / shared.mflups;
        let measured_slowdown = m_ded.mflups / m_shared.mflups;
        assert!(predicted_slowdown > 1.2);
        assert!(
            (predicted_slowdown / measured_slowdown - 1.0).abs() < 0.5,
            "slowdowns diverge: predicted {predicted_slowdown} vs measured {measured_slowdown}"
        );
    }
}
