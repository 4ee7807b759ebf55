//! The continuous two-line bandwidth model of paper Eq. 8.
//!
//! Node memory bandwidth over `n` active cores follows two regimes:
//!
//! ```text
//! B(n) = a1 * n                      for n <  a3   (core-limited)
//! B(n) = a2 * n + a3 * (a1 - a2)     for n >= a3   (subsystem-limited)
//! ```
//!
//! The two branches meet at `n = a3` (both evaluate to `a1 * a3`), so the
//! model is continuous. The fit minimizes SSE over `(a1, a2, a3)`: for a
//! *fixed* breakpoint the two slopes have a closed-form least-squares
//! solution, so we search the breakpoint over a fine grid and solve the
//! inner problem exactly — more robust than a joint 3-parameter simplex.

use crate::linear::fit_proportional;

/// Fitted parameters of the two-line model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoLineFit {
    /// Slope of the core-limited regime (`MB/s` per thread).
    pub a1: f64,
    /// Slope of the subsystem-limited regime (`MB/s` per thread).
    pub a2: f64,
    /// Breakpoint between the regimes, in threads (may be fractional).
    pub a3: f64,
    /// Sum of squared errors at the optimum.
    pub sse: f64,
}

impl TwoLineFit {
    /// Evaluate the fitted bandwidth model at a (possibly fractional) thread
    /// count `n`.
    #[inline]
    pub fn eval(&self, n: f64) -> f64 {
        if n < self.a3 {
            self.a1 * n
        } else {
            self.a2 * n + self.a3 * (self.a1 - self.a2)
        }
    }
}

fn sse_for_breakpoint(ns: &[f64], bs: &[f64], a1: f64, a2: f64, a3: f64) -> f64 {
    ns.iter()
        .zip(bs)
        .map(|(&n, &b)| {
            let pred = if n < a3 {
                a1 * n
            } else {
                a2 * n + a3 * (a1 - a2)
            };
            let r = pred - b;
            r * r
        })
        .sum()
}

/// Closed-form least squares for the two slopes given a fixed breakpoint.
///
/// With `a3` fixed the model is linear in `(a1, a2)`:
/// below the knee the basis is `(n, 0)`, at or above it is `(a3, n - a3)`.
fn solve_slopes(ns: &[f64], bs: &[f64], a3: f64) -> Option<(f64, f64)> {
    // Normal equations for a 2-parameter linear model.
    let (mut s11, mut s12, mut s22, mut s1y, mut s2y) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (&n, &b) in ns.iter().zip(bs) {
        let (phi1, phi2) = if n < a3 { (n, 0.0) } else { (a3, n - a3) };
        s11 += phi1 * phi1;
        s12 += phi1 * phi2;
        s22 += phi2 * phi2;
        s1y += phi1 * b;
        s2y += phi2 * b;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-12 * (s11 * s22).max(1.0) {
        // Degenerate: all points on one side of the knee. Fit a single
        // proportional line for whichever side has data.
        if s22 == 0.0 && s11 > 0.0 {
            let a1 = s1y / s11;
            return Some((a1, a1));
        }
        return None;
    }
    let a1 = (s1y * s22 - s2y * s12) / det;
    let a2 = (s2y * s11 - s1y * s12) / det;
    Some((a1, a2))
}

/// Fit the two-line model to `(threads, bandwidth)` measurements.
///
/// The breakpoint is searched over a fine grid spanning the measured thread
/// range; for each candidate the slopes are solved exactly. Returns `None`
/// for fewer than three points (the model has three parameters).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn fit_two_line(threads: &[f64], bandwidths: &[f64]) -> Option<TwoLineFit> {
    assert_eq!(threads.len(), bandwidths.len(), "length mismatch");
    if threads.len() < 3 {
        return None;
    }
    // NaN samples would slip through the min/max fold below (`f64::min`
    // ignores NaN) and poison every slope solve, so refuse them outright.
    if !crate::linear::all_finite(threads) || !crate::linear::all_finite(bandwidths) {
        return None;
    }
    let min_n = threads.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_n = threads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !(min_n.is_finite() && max_n.is_finite()) || min_n == max_n {
        return None;
    }

    // Grid over candidate breakpoints. Sub-thread resolution matters: the
    // paper reports fractional knees (e.g. a3 = 6.39 for TRC).
    let steps = 400usize;
    let mut best: Option<TwoLineFit> = None;
    for i in 0..=steps {
        let a3 = min_n + (max_n - min_n) * (i as f64) / (steps as f64);
        if a3 <= 0.0 {
            continue;
        }
        let Some((a1, a2)) = solve_slopes(threads, bandwidths, a3) else {
            continue;
        };
        let sse = sse_for_breakpoint(threads, bandwidths, a1, a2, a3);
        if best.as_ref().is_none_or(|b| sse < b.sse) {
            best = Some(TwoLineFit { a1, a2, a3, sse });
        }
    }

    // Refine the winning breakpoint with a local golden-section pass.
    if let Some(b) = best {
        let span = (max_n - min_n) / steps as f64;
        let (mut lo, mut hi) = ((b.a3 - span).max(min_n), (b.a3 + span).min(max_n));
        for _ in 0..40 {
            let m1 = lo + (hi - lo) * 0.382;
            let m2 = lo + (hi - lo) * 0.618;
            let f = |a3: f64| {
                solve_slopes(threads, bandwidths, a3)
                    .map(|(a1, a2)| sse_for_breakpoint(threads, bandwidths, a1, a2, a3))
                    .unwrap_or(f64::INFINITY)
            };
            if f(m1) < f(m2) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        let a3 = 0.5 * (lo + hi);
        if let Some((a1, a2)) = solve_slopes(threads, bandwidths, a3) {
            let sse = sse_for_breakpoint(threads, bandwidths, a1, a2, a3);
            if sse < b.sse {
                return Some(TwoLineFit { a1, a2, a3, sse });
            }
        }
        return Some(b);
    }

    // Fallback: a single proportional line (degenerate but defined).
    fit_proportional(threads, bandwidths).map(|l| TwoLineFit {
        a1: l.slope,
        a2: l.slope,
        a3: max_n,
        sse: l.sse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a1: f64, a2: f64, a3: f64, max_threads: usize) -> (Vec<f64>, Vec<f64>) {
        let ns: Vec<f64> = (1..=max_threads).map(|n| n as f64).collect();
        let truth = TwoLineFit {
            a1,
            a2,
            a3,
            sse: 0.0,
        };
        let bs: Vec<f64> = ns.iter().map(|&n| truth.eval(n)).collect();
        (ns, bs)
    }

    #[test]
    fn model_is_continuous_at_breakpoint() {
        let fit = TwoLineFit {
            a1: 7000.0,
            a2: 1200.0,
            a3: 9.0,
            sse: 0.0,
        };
        let below = fit.eval(fit.a3 - 1e-9);
        let at = fit.eval(fit.a3);
        assert!((below - at).abs() < 1e-3);
    }

    #[test]
    fn recovers_exact_two_line_data() {
        let (ns, bs) = synth(6768.0, 369.0, 6.39, 40);
        let fit = fit_two_line(&ns, &bs).unwrap();
        assert!((fit.a1 - 6768.0).abs() / 6768.0 < 0.02, "a1={}", fit.a1);
        assert!((fit.a2 - 369.0).abs() / 369.0 < 0.05, "a2={}", fit.a2);
        assert!((fit.a3 - 6.39).abs() < 0.6, "a3={}", fit.a3);
    }

    #[test]
    fn recovers_negative_second_slope() {
        // CSP-1 and the hyperthreaded CSP-2 instance have a2 < 0: bandwidth
        // *declines* past the knee.
        let (ns, bs) = synth(18092.0, -62.8, 4.15, 16);
        let fit = fit_two_line(&ns, &bs).unwrap();
        assert!(fit.a2 < 0.0, "a2={}", fit.a2);
        assert!((fit.a1 - 18092.0).abs() / 18092.0 < 0.05);
    }

    #[test]
    fn tolerates_noise() {
        let (ns, bs) = synth(7790.0, 1264.0, 9.0, 36);
        let noisy: Vec<f64> = bs
            .iter()
            .enumerate()
            .map(|(i, &b)| b * (1.0 + if i % 2 == 0 { 0.01 } else { -0.01 }))
            .collect();
        let fit = fit_two_line(&ns, &noisy).unwrap();
        assert!((fit.a1 - 7790.0).abs() / 7790.0 < 0.1);
        assert!((fit.a3 - 9.0).abs() < 2.0);
    }

    #[test]
    fn too_few_points_is_none() {
        assert!(fit_two_line(&[1.0, 2.0], &[10.0, 20.0]).is_none());
    }

    #[test]
    fn non_finite_samples_return_none() {
        let ns: Vec<f64> = (1..=10).map(|n| n as f64).collect();
        let bs: Vec<f64> = ns.iter().map(|&n| 100.0 * n).collect();
        // NaN in the thread axis used to slip past the range check (the
        // min/max folds skip NaN) and poison every slope solve.
        let mut bad_ns = ns.clone();
        bad_ns[3] = f64::NAN;
        assert!(fit_two_line(&bad_ns, &bs).is_none());
        let mut bad_bs = bs.clone();
        bad_bs[7] = f64::NAN;
        assert!(fit_two_line(&ns, &bad_bs).is_none());
        assert!(fit_two_line(&[1.0, 2.0, f64::INFINITY], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn coincident_thread_counts_return_none() {
        // All-equal x: the breakpoint range is empty and no slope is
        // identifiable.
        assert!(fit_two_line(&[4.0, 4.0, 4.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn single_regime_data_degenerates_gracefully() {
        // Pure line through origin: both slopes should match, knee anywhere.
        let ns: Vec<f64> = (1..=10).map(|n| n as f64).collect();
        let bs: Vec<f64> = ns.iter().map(|&n| 100.0 * n).collect();
        let fit = fit_two_line(&ns, &bs).unwrap();
        for &n in &ns {
            assert!((fit.eval(n) - 100.0 * n).abs() < 1.0, "n={n}");
        }
    }

    #[test]
    fn eval_matches_paper_full_node_bandwidths() {
        // Table III TRC parameters must reproduce Table II's ~55,625 MB/s
        // at the full 40-core node.
        let trc = TwoLineFit {
            a1: 6768.24,
            a2: 369.16,
            a3: 6.39,
            sse: 0.0,
        };
        let b40 = trc.eval(40.0);
        assert!((b40 - 55_625.0).abs() < 150.0, "B(40)={b40}");
    }
}
