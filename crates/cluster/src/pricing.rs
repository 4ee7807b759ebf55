//! Instance pricing and run-cost accounting.
//!
//! The paper's framework weighs throughput against cost ("one could weight
//! these ratios by the relative cost of each instance") but never states
//! rates; the per-platform `price_per_node_hour` values are **synthetic**
//! plausible on-demand rates (documented in [`crate::platform`]) and all
//! conclusions drawn from them are relative.

use crate::platform::Platform;

/// The one billing rule, per attempt and per second: each attempt (a
/// preempted-and-retried run releases its nodes and re-acquires them
/// later) is its own allocation, billed for the seconds it held its
/// nodes. It holds no state; it names the rule for the callers that
/// price and meter, which build it with `PriceSheet::default()`.
#[derive(Debug, Clone, Default)]
pub struct PriceSheet {}

impl PriceSheet {
    /// Dollar cost of occupying `nodes` nodes for `seconds` on `platform`.
    /// A zero-length attempt (a node lost at the instant of acquisition)
    /// costs 0.
    ///
    /// # Panics
    /// Panics on NaN or negative `seconds`.
    pub fn cost(&self, platform: &Platform, nodes: usize, seconds: f64) -> f64 {
        assert!(seconds >= 0.0);
        platform.price_per_node_hour * nodes as f64 * (seconds / 3600.0)
    }

    /// Whole node-seconds billed for one attempt of `seconds`
    /// wall-seconds on `nodes` nodes — the integer second counter the
    /// sweep harness reconciles against busy time ("billed ≥ busy").
    ///
    /// Providers meter whole seconds, so each node's partial second
    /// rounds up. An attempt longer than `u64::MAX` seconds (a
    /// synthetic-campaign extreme, ~585 billion years) pins to
    /// `u64::MAX`, and so does the node multiply, instead of wrapping:
    /// very long campaigns can never under-bill through integer overflow,
    /// and a caller's running total stays exact under `saturating_add`.
    ///
    /// # Panics
    /// Panics on NaN or negative `seconds`.
    pub fn billed_node_seconds(&self, nodes: usize, seconds: f64) -> u64 {
        assert!(seconds >= 0.0, "bad attempt seconds {seconds}");
        let per_node = if seconds >= u64::MAX as f64 {
            u64::MAX
        } else {
            seconds.ceil() as u64
        };
        per_node.saturating_mul(nodes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_length_attempts_are_free() {
        let sheet = PriceSheet::default();
        assert_eq!(sheet.cost(&Platform::trc(), 4, 0.0), 0.0);
        assert_eq!(sheet.billed_node_seconds(4, 0.0), 0);
    }

    #[test]
    fn per_second_attempts_sum_exactly() {
        // Per-second billing is indifferent to how the job was split.
        let sheet = PriceSheet::default();
        let p = Platform::trc();
        let split: f64 = [100.0, 250.0, 3.5].iter().map(|&s| sheet.cost(&p, 3, s)).sum();
        let whole = sheet.cost(&p, 3, 353.5);
        assert!((split - whole).abs() < 1e-9);
    }

    #[test]
    fn billed_seconds_round_up_per_attempt() {
        let sheet = PriceSheet::default();
        // Partial seconds round up; whole seconds bill exactly.
        assert_eq!(sheet.billed_node_seconds(1, 0.4), 1);
        assert_eq!(sheet.billed_node_seconds(1, 1.0), 1);
        assert_eq!(sheet.billed_node_seconds(1, 1800.5), 1801);
        // Each node rounds up its own partial second.
        assert_eq!(sheet.billed_node_seconds(3, 0.4), 3);
        assert_eq!(sheet.billed_node_seconds(2, 1800.5), 3602);
        // Two sub-second attempts bill two seconds, not one.
        assert_eq!(sheet.billed_node_seconds(1, 0.4) + sheet.billed_node_seconds(1, 0.6), 2);
    }

    #[test]
    fn billed_seconds_saturate_at_the_u64_boundary() {
        let sheet = PriceSheet::default();
        // An attempt past u64::MAX seconds pins to the boundary, never
        // wraps to a tiny bill.
        for seconds in [2e19, f64::MAX, f64::INFINITY, u64::MAX as f64] {
            assert_eq!(sheet.billed_node_seconds(1, seconds), u64::MAX);
        }
        // The node multiply saturates instead of wrapping: a wrap here
        // would report a near-zero bill for the longest campaigns — the
        // silent failure the sweep's "billed ≥ busy" invariant exists to
        // catch.
        assert_eq!(sheet.billed_node_seconds(8, 1e19), u64::MAX);
        assert_eq!(sheet.billed_node_seconds(usize::MAX, 2.0), u64::MAX);
        // A pool's running total of attempts (the scheduler sums them
        // with `saturating_add`) pins too, and stays monotone.
        let total = |attempts: &[f64]| {
            attempts.iter().fold(0u64, |acc, &s| {
                acc.saturating_add(sheet.billed_node_seconds(1, s))
            })
        };
        assert_eq!(total(&[1e19, 1e19, 1e19]), u64::MAX);
        assert!(total(&[1e18, 1e18]) >= total(&[1e18]));
        assert!(total(&[1e19, 1e19]) >= total(&[1e19]));
    }

    #[test]
    #[should_panic(expected = "bad attempt seconds")]
    fn billed_seconds_reject_nan() {
        PriceSheet::default().billed_node_seconds(1, f64::NAN);
    }
}
