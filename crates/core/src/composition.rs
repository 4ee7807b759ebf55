//! Prediction outputs and runtime-composition breakdowns.
//!
//! Figs. 9 and 10 of the paper plot "the composition of maximum task
//! runtimes": how much of the predicted step time is memory access versus
//! intranodal versus internodal communication (direct model), or memory
//! versus communication bandwidth versus communication latency (general
//! model). [`Composition`] carries both decompositions; unused fields are
//! zero.

/// Breakdown of one predicted timestep, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Composition {
    /// Memory-access time of the slowest task.
    pub mem_s: f64,
    /// Intranodal communication time (direct model; Fig. 9's green band).
    pub intra_s: f64,
    /// Internodal communication time (direct model; Fig. 9's purple band).
    pub inter_s: f64,
    /// Communication time attributable to bandwidth, `m/b` (general
    /// model; Fig. 10).
    pub comm_bandwidth_s: f64,
    /// Communication time attributable to latency, `events · l` (general
    /// model; Fig. 10).
    pub comm_latency_s: f64,
}

impl Composition {
    /// Total predicted step time.
    pub fn total_s(&self) -> f64 {
        self.mem_s
            + self.intra_s
            + self.inter_s
            + self.comm_bandwidth_s
            + self.comm_latency_s
    }
}

/// One model prediction at a given rank count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// MPI ranks (one per core).
    pub ranks: usize,
    /// Predicted seconds per timestep.
    pub step_time_s: f64,
    /// Predicted throughput, MFLUPS (Eq. 7).
    pub mflups: f64,
    /// Where the time goes.
    pub composition: Composition,
}

impl Prediction {
    /// Assemble a prediction from a composition and workload size.
    pub fn from_composition(ranks: usize, points: usize, composition: Composition) -> Self {
        let step_time_s = composition.total_s();
        Self {
            ranks,
            step_time_s,
            mflups: if step_time_s > 0.0 {
                points as f64 / step_time_s / 1e6
            } else {
                0.0
            },
            composition,
        }
    }

    /// Predicted wall-clock seconds for `steps` timesteps.
    pub fn time_for_steps(&self, steps: u64) -> f64 {
        self.step_time_s * steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_fields() {
        let c = Composition {
            mem_s: 1.0,
            intra_s: 0.5,
            inter_s: 0.25,
            ..Default::default()
        };
        assert!((c.total_s() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn prediction_mflups_inverts_step_time() {
        let c = Composition {
            mem_s: 0.001,
            ..Default::default()
        };
        let p = Prediction::from_composition(8, 100_000, c);
        assert!((p.mflups - 100.0).abs() < 1e-9);
        assert!((p.time_for_steps(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_composition_is_safe() {
        let p = Prediction::from_composition(1, 100, Composition::default());
        assert_eq!(p.mflups, 0.0);
    }
}
