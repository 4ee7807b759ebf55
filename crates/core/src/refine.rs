//! Iterative model refinement from observed runs.
//!
//! The paper: "Storing all measured performance along with the estimated
//! performance model prediction will be critical to iteratively refining
//! the performance models to correctly capture retrospective values as
//! well as predict future behavior with sufficient accuracy."
//!
//! [`ModelCalibrator`] is that store plus the simplest useful refinement:
//! a multiplicative efficiency factor fit by least squares through the
//! origin (measured time ≈ factor × predicted time). Because the
//! simulator's unmodeled overheads are *consistent* — the paper's own
//! observation — one scalar recovers most of the bias; the residual MAPE
//! quantifies what a richer model would have to explain.

use crate::composition::{Composition, Prediction};
use hemocloud_fitting::linear::ProportionalAccumulator;
use hemocloud_fitting::metrics::mape;

/// One observation: a model prediction and the measured outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Ranks the run used.
    pub ranks: usize,
    /// Predicted step time, seconds.
    pub predicted_step_s: f64,
    /// Measured step time, seconds.
    pub measured_step_s: f64,
}

/// A store of observations and the calibration fit over them.
///
/// The fit itself is **incremental**: every [`ModelCalibrator::record`]
/// folds the observation into running sums
/// ([`ProportionalAccumulator`]), so [`correction_factor`] is O(1) no
/// matter how many slices a campaign has recorded — and bitwise equal to
/// refitting the whole history, because the batch fit accumulates the
/// same sums in the same order. The observation *store* is a diagnostic
/// window: [`ModelCalibrator::bounded`] caps it (keeping the most recent
/// observations) so a million-slice campaign doesn't hold a million
/// `Observation`s; the fit always covers the full history regardless.
///
/// [`correction_factor`]: ModelCalibrator::correction_factor
#[derive(Debug, Clone)]
pub struct ModelCalibrator {
    observations: Vec<Observation>,
    /// Ring cursor into `observations` once the window is full.
    next_slot: usize,
    max_stored: usize,
    total: usize,
    fit: ProportionalAccumulator,
}

impl Default for ModelCalibrator {
    fn default() -> Self {
        Self {
            observations: Vec::new(),
            next_slot: 0,
            max_stored: usize::MAX,
            total: 0,
            fit: ProportionalAccumulator::new(),
        }
    }
}

impl ModelCalibrator {
    /// An empty calibrator retaining every observation.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty calibrator retaining at most `max_stored` observations
    /// (the most recent ones) for the diagnostic error metrics. The fit
    /// is exact over the *full* history either way.
    ///
    /// # Panics
    /// Panics on a zero window.
    pub fn bounded(max_stored: usize) -> Self {
        assert!(max_stored > 0, "zero-observation window");
        Self {
            max_stored,
            ..Self::default()
        }
    }

    /// Record an observation.
    ///
    /// # Panics
    /// Panics on non-positive times.
    pub fn record(&mut self, ranks: usize, predicted_step_s: f64, measured_step_s: f64) {
        assert!(
            predicted_step_s > 0.0 && measured_step_s > 0.0,
            "non-positive step time"
        );
        self.total += 1;
        self.fit.push(predicted_step_s, measured_step_s);
        let obs = Observation {
            ranks,
            predicted_step_s,
            measured_step_s,
        };
        if self.observations.len() < self.max_stored {
            self.observations.push(obs);
        } else {
            self.observations[self.next_slot] = obs;
            self.next_slot = (self.next_slot + 1) % self.max_stored;
        }
    }

    /// Number of observations **recorded** over the calibrator's lifetime
    /// (not the retained-window size — see [`ModelCalibrator::bounded`]).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The retained observation window (all observations unless the
    /// calibrator is [`bounded`](ModelCalibrator::bounded); the ring
    /// order is oldest-slot-overwritten, not chronological).
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// The fitted efficiency factor `measured ≈ factor × predicted`,
    /// over the **full** recorded history in O(1). Returns 1 (identity)
    /// with no data or a degenerate fit.
    pub fn correction_factor(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.fit.slope().unwrap_or(1.0)
    }

    /// Apply the calibration to a raw predicted step time.
    pub fn corrected_step_s(&self, predicted_step_s: f64) -> f64 {
        predicted_step_s * self.correction_factor()
    }

    /// Apply the calibration to a whole model [`Prediction`] — the hook a
    /// scheduler uses so that *placement* decisions (dashboard entries,
    /// guards, deadlines) run on refined numbers, closing the paper's
    /// predict → run → refine loop.
    ///
    /// The calibration is one multiplicative efficiency factor, so every
    /// composition term scales uniformly and the breakdown's *shape* is
    /// preserved; throughput scales by the inverse. With no observations
    /// the prediction is returned unchanged.
    pub fn corrected_prediction(&self, prediction: &Prediction) -> Prediction {
        let k = self.correction_factor();
        let c = prediction.composition;
        Prediction {
            ranks: prediction.ranks,
            step_time_s: prediction.step_time_s * k,
            mflups: if k > 0.0 { prediction.mflups / k } else { 0.0 },
            composition: Composition {
                mem_s: c.mem_s * k,
                intra_s: c.intra_s * k,
                inter_s: c.inter_s * k,
                comm_bandwidth_s: c.comm_bandwidth_s * k,
                comm_latency_s: c.comm_latency_s * k,
            },
        }
    }

    /// MAPE (%) of the raw model over the **retained** observation
    /// window.
    pub fn raw_error_pct(&self) -> f64 {
        let pred: Vec<f64> = self.observations.iter().map(|o| o.predicted_step_s).collect();
        let meas: Vec<f64> = self.observations.iter().map(|o| o.measured_step_s).collect();
        mape(&pred, &meas)
    }

    /// MAPE (%) of the calibrated model over the **retained**
    /// observation window (the factor itself covers the full history).
    pub fn calibrated_error_pct(&self) -> f64 {
        let k = self.correction_factor();
        let pred: Vec<f64> = self
            .observations
            .iter()
            .map(|o| o.predicted_step_s * k)
            .collect();
        let meas: Vec<f64> = self.observations.iter().map(|o| o.measured_step_s).collect();
        mape(&pred, &meas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_calibrator_is_identity() {
        let c = ModelCalibrator::new();
        assert_eq!(c.correction_factor(), 1.0);
        assert_eq!(c.corrected_step_s(2.0), 2.0);
        assert!(c.is_empty());
    }

    #[test]
    fn recovers_constant_bias_exactly() {
        // Measurements exactly 1.6x the predictions: calibration should
        // drive the error to ~0.
        let mut c = ModelCalibrator::new();
        for (ranks, pred) in [(8usize, 0.010), (16, 0.006), (32, 0.004)] {
            c.record(ranks, pred, pred * 1.6);
        }
        assert!((c.correction_factor() - 1.6).abs() < 1e-9);
        assert!(c.raw_error_pct() > 30.0);
        assert!(c.calibrated_error_pct() < 1e-9);
    }

    #[test]
    fn calibration_reduces_error_under_noise() {
        let mut c = ModelCalibrator::new();
        let biases = [1.5, 1.7, 1.6, 1.55, 1.65];
        for (i, &b) in biases.iter().enumerate() {
            let pred = 0.01 / (i + 1) as f64;
            c.record(8 << i, pred, pred * b);
        }
        assert!(
            c.calibrated_error_pct() < c.raw_error_pct(),
            "calibrated {} !< raw {}",
            c.calibrated_error_pct(),
            c.raw_error_pct()
        );
    }

    #[test]
    #[should_panic(expected = "non-positive step time")]
    fn rejects_zero_times() {
        ModelCalibrator::new().record(1, 0.0, 1.0);
    }

    #[test]
    fn corrected_prediction_scales_uniformly() {
        let mut c = ModelCalibrator::new();
        for pred in [0.010, 0.006, 0.004] {
            c.record(8, pred, pred * 1.6);
        }
        let raw = Prediction::from_composition(
            16,
            1_000_000,
            Composition {
                mem_s: 0.002,
                comm_bandwidth_s: 0.0005,
                comm_latency_s: 0.0015,
                ..Default::default()
            },
        );
        let cal = c.corrected_prediction(&raw);
        assert_eq!(cal.ranks, raw.ranks);
        assert!((cal.step_time_s - raw.step_time_s * 1.6).abs() < 1e-12);
        assert!((cal.mflups - raw.mflups / 1.6).abs() < 1e-9);
        // The breakdown shape is preserved: every term scales by the same k.
        assert!((cal.composition.mem_s - raw.composition.mem_s * 1.6).abs() < 1e-12);
        assert!(
            (cal.composition.comm_latency_s - raw.composition.comm_latency_s * 1.6).abs() < 1e-12
        );
        assert!((cal.composition.total_s() - cal.step_time_s).abs() < 1e-12);
    }

    #[test]
    fn bounded_window_caps_storage_but_not_the_fit() {
        // Two calibrators fed the same stream: the bounded one retains a
        // 4-observation window but its correction factor — running sums
        // over the full history — stays bitwise equal to the unbounded
        // one's at every step.
        let mut full = ModelCalibrator::new();
        let mut ring = ModelCalibrator::bounded(4);
        for i in 1..=64usize {
            let pred = 0.01 / i as f64;
            let meas = pred * (1.4 + 0.3 * ((i % 5) as f64) / 5.0);
            full.record(8, pred, meas);
            ring.record(8, pred, meas);
            assert_eq!(
                full.correction_factor().to_bits(),
                ring.correction_factor().to_bits(),
                "factor diverged at observation {i}"
            );
            assert_eq!(ring.len(), i, "len() counts the full history");
            assert!(ring.observations().len() <= 4);
        }
        assert_eq!(ring.observations().len(), 4);
        assert_eq!(full.observations().len(), 64);
    }

    #[test]
    #[should_panic(expected = "zero-observation window")]
    fn bounded_rejects_zero_window() {
        let _ = ModelCalibrator::bounded(0);
    }

    #[test]
    fn corrected_prediction_is_identity_without_data() {
        let c = ModelCalibrator::new();
        let raw = Prediction::from_composition(
            4,
            10_000,
            Composition {
                mem_s: 0.001,
                ..Default::default()
            },
        );
        assert_eq!(c.corrected_prediction(&raw), raw);
    }
}
