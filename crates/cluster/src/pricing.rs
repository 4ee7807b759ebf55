//! Instance pricing and run-cost accounting.
//!
//! The paper's framework weighs throughput against cost ("one could weight
//! these ratios by the relative cost of each instance") but never states
//! rates; the per-platform `price_per_node_hour` values are **synthetic**
//! plausible on-demand rates (documented in [`crate::platform`]) and all
//! conclusions drawn from them are relative.

use crate::exec::SimulatedRun;
use crate::platform::Platform;

/// Billing granularity of the provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Billing {
    /// Pay for exact seconds used (modern cloud default).
    PerSecond,
    /// Round each node's usage up to whole hours (legacy cloud / typical
    /// cluster accounting).
    PerHour,
}

/// A pricing view over a set of platforms.
#[derive(Debug, Clone)]
pub struct PriceSheet {
    /// Billing granularity applied to every platform.
    pub billing: Billing,
}

impl Default for PriceSheet {
    fn default() -> Self {
        Self {
            billing: Billing::PerSecond,
        }
    }
}

impl PriceSheet {
    /// Dollar cost of occupying `nodes` nodes for `seconds` on `platform`.
    pub fn cost(&self, platform: &Platform, nodes: usize, seconds: f64) -> f64 {
        assert!(seconds >= 0.0);
        let hours = match self.billing {
            Billing::PerSecond => seconds / 3600.0,
            Billing::PerHour => (seconds / 3600.0).ceil().max(1.0),
        };
        platform.price_per_node_hour * nodes as f64 * hours
    }

    /// Cost of a simulated run.
    pub fn run_cost(&self, platform: &Platform, run: &SimulatedRun) -> f64 {
        self.cost(platform, run.nodes_used, run.total_time_s)
    }

    /// Cost of a job whose node occupancy was split into several separate
    /// *attempts* (a preempted-and-retried run releases its nodes and
    /// re-acquires them later).
    ///
    /// Billing is per attempt, because that is how providers meter: each
    /// attempt is its own allocation, so under [`Billing::PerHour`] every
    /// attempt's partial final hour rounds up **independently** — two
    /// 30-minute attempts bill two node-hours, not one. The job never gets
    /// to sum its attempts before rounding. Under [`Billing::PerSecond`]
    /// the split changes nothing. Zero-length attempts (a node lost at the
    /// instant of acquisition) are not billed.
    pub fn attempts_cost(
        &self,
        platform: &Platform,
        nodes: usize,
        attempt_seconds: &[f64],
    ) -> f64 {
        attempt_seconds
            .iter()
            .filter(|&&s| s > 0.0)
            .map(|&s| self.cost(platform, nodes, s))
            .sum()
    }

    /// Whole seconds billed for one attempt of `seconds` wall-seconds on
    /// **one** node — the integer second counter the sweep harness
    /// reconciles against busy time ("billed ≥ busy").
    ///
    /// Providers meter whole seconds, so a partial second rounds up; under
    /// [`Billing::PerHour`] the attempt rounds up to whole hours with a
    /// one-hour minimum (matching [`PriceSheet::cost`]). All arithmetic is
    /// checked/saturating: an attempt longer than `u64::MAX` seconds (a
    /// synthetic-campaign extreme, ~585 billion years) pins to `u64::MAX`
    /// instead of wrapping, so very long campaigns can never under-bill
    /// through integer overflow.
    ///
    /// # Panics
    /// Panics on NaN or negative `seconds`.
    pub fn billed_seconds(&self, seconds: f64) -> u64 {
        assert!(seconds >= 0.0, "bad attempt seconds {seconds}");
        let whole = if seconds >= u64::MAX as f64 {
            u64::MAX
        } else {
            seconds.ceil() as u64
        };
        match self.billing {
            Billing::PerSecond => whole,
            Billing::PerHour => whole.div_ceil(3600).max(1).saturating_mul(3600),
        }
    }

    /// Total billed node-seconds of a job split into several attempts on
    /// `nodes` nodes: each attempt rounds up independently (the same
    /// per-attempt metering as [`PriceSheet::attempts_cost`]), zero-length
    /// attempts are not billed, and the node multiply and running sum
    /// saturate at `u64::MAX` rather than wrapping.
    pub fn attempts_billed_node_seconds(&self, nodes: usize, attempt_seconds: &[f64]) -> u64 {
        attempt_seconds
            .iter()
            .filter(|&&s| s > 0.0)
            .fold(0u64, |acc, &s| {
                acc.saturating_add(self.billed_seconds(s).saturating_mul(nodes as u64))
            })
    }

    /// Throughput per dollar: MFLUPS-seconds of work per dollar spent —
    /// the paper's "flops/dollar"-style decision metric.
    pub fn updates_per_dollar(&self, platform: &Platform, run: &SimulatedRun) -> f64 {
        let cost = self.run_cost(platform, run);
        if cost == 0.0 {
            return f64::INFINITY;
        }
        run.mflups * run.total_time_s * 1e6 / cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_run(nodes: usize, seconds: f64, mflups: f64) -> SimulatedRun {
        SimulatedRun {
            step_time_s: seconds,
            total_time_s: seconds,
            mflups,
            critical_mem_s: 0.0,
            critical_intra_s: 0.0,
            critical_inter_s: 0.0,
            nodes_used: nodes,
            noise_factor: 1.0,
        }
    }

    #[test]
    fn per_second_is_proportional() {
        let sheet = PriceSheet::default();
        let p = Platform::csp2();
        let c1 = sheet.cost(&p, 2, 1800.0);
        let c2 = sheet.cost(&p, 2, 3600.0);
        assert!((c2 - 2.0 * c1).abs() < 1e-9);
        assert!((c2 - 2.0 * p.price_per_node_hour).abs() < 1e-9);
    }

    #[test]
    fn per_hour_rounds_up() {
        let sheet = PriceSheet {
            billing: Billing::PerHour,
        };
        let p = Platform::csp1();
        // 30 minutes bills as a full hour.
        assert!((sheet.cost(&p, 1, 1800.0) - p.price_per_node_hour).abs() < 1e-9);
        // 61 minutes bills as two hours.
        assert!((sheet.cost(&p, 1, 3660.0) - 2.0 * p.price_per_node_hour).abs() < 1e-9);
    }

    #[test]
    fn updates_per_dollar_favors_cheap_equal_throughput() {
        let sheet = PriceSheet::default();
        let run = dummy_run(1, 3600.0, 100.0);
        let cheap = Platform::csp2_small();
        let pricey = Platform::csp2_ec();
        assert!(sheet.updates_per_dollar(&cheap, &run) > sheet.updates_per_dollar(&pricey, &run));
    }

    #[test]
    fn zero_time_run_is_free() {
        let sheet = PriceSheet::default();
        let run = dummy_run(4, 0.0, 0.0);
        assert_eq!(sheet.run_cost(&Platform::trc(), &run), 0.0);
    }

    #[test]
    fn per_hour_attempts_round_up_independently() {
        // The interrupted-job semantics: a job preempted at 30 minutes and
        // rerun for 30 more bills TWO node-hours under per-hour billing —
        // each attempt is a fresh allocation whose partial hour rounds up.
        let sheet = PriceSheet {
            billing: Billing::PerHour,
        };
        let p = Platform::csp1();
        let split = sheet.attempts_cost(&p, 1, &[1800.0, 1800.0]);
        let whole = sheet.cost(&p, 1, 3600.0);
        assert!((split - 2.0 * p.price_per_node_hour).abs() < 1e-9);
        assert!((whole - p.price_per_node_hour).abs() < 1e-9);
        assert!(split > whole, "per-attempt rounding must cost more");
    }

    #[test]
    fn per_hour_attempts_scale_with_nodes_and_count() {
        let sheet = PriceSheet {
            billing: Billing::PerHour,
        };
        let p = Platform::csp2();
        // Three attempts (90 min + 10 s + 59 min) on 2 nodes:
        // 2 + 1 + 1 hours × 2 nodes.
        let cost = sheet.attempts_cost(&p, 2, &[5400.0, 10.0, 3540.0]);
        assert!((cost - 4.0 * 2.0 * p.price_per_node_hour).abs() < 1e-9);
    }

    #[test]
    fn per_second_attempts_sum_exactly() {
        // Per-second billing is indifferent to how the job was split.
        let sheet = PriceSheet::default();
        let p = Platform::trc();
        let split = sheet.attempts_cost(&p, 3, &[100.0, 250.0, 3.5]);
        let whole = sheet.cost(&p, 3, 353.5);
        assert!((split - whole).abs() < 1e-9);
    }

    #[test]
    fn zero_length_attempts_are_not_billed() {
        let sheet = PriceSheet {
            billing: Billing::PerHour,
        };
        let p = Platform::csp1();
        // cost() bills a minimum hour even at 0 s (cluster-style minimum),
        // but a zero-length *attempt* never acquired usable time.
        assert_eq!(sheet.attempts_cost(&p, 1, &[0.0, 0.0]), 0.0);
        assert!((sheet.attempts_cost(&p, 1, &[0.0, 60.0]) - p.price_per_node_hour).abs() < 1e-9);
        assert_eq!(sheet.attempts_cost(&p, 1, &[]), 0.0);
    }

    #[test]
    fn billed_seconds_round_up_per_attempt() {
        let per_second = PriceSheet::default();
        // Partial seconds round up; whole seconds bill exactly.
        assert_eq!(per_second.billed_seconds(0.4), 1);
        assert_eq!(per_second.billed_seconds(1.0), 1);
        assert_eq!(per_second.billed_seconds(1800.5), 1801);
        assert_eq!(per_second.billed_seconds(0.0), 0);
        // Two sub-second attempts bill two seconds, not one.
        assert_eq!(per_second.attempts_billed_node_seconds(1, &[0.4, 0.6]), 2);

        let per_hour = PriceSheet { billing: Billing::PerHour };
        // One-hour minimum, whole-hour round-up — matching cost().
        assert_eq!(per_hour.billed_seconds(0.0), 3600);
        assert_eq!(per_hour.billed_seconds(1800.0), 3600);
        assert_eq!(per_hour.billed_seconds(3600.0), 3600);
        assert_eq!(per_hour.billed_seconds(3660.0), 7200);
        // Two half-hour attempts bill two node-hours on 2 nodes each.
        assert_eq!(per_hour.attempts_billed_node_seconds(2, &[1800.0, 1800.0]), 4 * 3600);
        // Zero-length attempts never acquired usable time.
        assert_eq!(per_hour.attempts_billed_node_seconds(4, &[0.0, 0.0]), 0);
    }

    #[test]
    fn billed_seconds_saturate_at_the_u64_boundary() {
        let per_second = PriceSheet::default();
        let per_hour = PriceSheet { billing: Billing::PerHour };
        // An attempt past u64::MAX seconds pins to the boundary (for both
        // granularities), never wraps to a tiny bill.
        for sheet in [&per_second, &per_hour] {
            assert_eq!(sheet.billed_seconds(2e19), u64::MAX);
            assert_eq!(sheet.billed_seconds(f64::MAX), u64::MAX);
            assert_eq!(sheet.billed_seconds(f64::INFINITY), u64::MAX);
        }
        // Exactly at the boundary the per-hour round-up must not overflow:
        // ceil(u64::MAX / 3600) hours still fits in u64 seconds.
        let at_max = per_hour.billed_seconds(u64::MAX as f64);
        assert!(at_max >= u64::MAX - 3600 && at_max >= per_second.billed_seconds(u64::MAX as f64) - 3600);
        // The node multiply and the running sum saturate instead of
        // wrapping: a wrap here would report a near-zero bill for the
        // longest campaigns — exactly the silent failure the sweep's
        // "billed ≥ busy" invariant exists to catch.
        assert_eq!(per_second.attempts_billed_node_seconds(8, &[1e19]), u64::MAX);
        assert_eq!(per_second.attempts_billed_node_seconds(1, &[1e19, 1e19, 1e19]), u64::MAX);
        // Monotonicity survives saturation.
        let a = per_second.attempts_billed_node_seconds(1, &[1e18]);
        let b = per_second.attempts_billed_node_seconds(1, &[1e18, 1e18]);
        assert!(b >= a);
    }

    #[test]
    #[should_panic(expected = "bad attempt seconds")]
    fn billed_seconds_reject_nan() {
        PriceSheet::default().billed_seconds(f64::NAN);
    }
}
