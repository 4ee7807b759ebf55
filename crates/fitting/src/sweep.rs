//! The two microbenchmark sample schemas and the paper's fits of them.
//!
//! A STREAM sweep is `(threads, MB/s)` samples fitted by Eq. 8's two-line
//! model; a PingPong sweep is `(bytes, µs)` samples fitted by Eq. 12's
//! line `t = m/b + l`. The simulated platforms (`hemocloud-cluster`) and
//! the host (`hemocloud-microbench`) both produce these types, so one fit
//! serves both.

use crate::linear::{fit_line_fixed_intercept, LineFit};
use crate::two_line::{fit_two_line, TwoLineFit};

/// One STREAM measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSample {
    /// OpenMP threads used (one per core, or per vCPU when hyperthreaded).
    pub threads: usize,
    /// Measured bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
}

/// One PingPong measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongSample {
    /// Message size, bytes.
    pub bytes: usize,
    /// One-way time, microseconds.
    pub time_us: f64,
}

/// Fit Eq. 8 to a STREAM sweep: bandwidth against thread count.
///
/// Returns `None` when [`fit_two_line`] does (too few samples).
pub fn fit_stream(samples: &[StreamSample]) -> Option<TwoLineFit> {
    let (threads, bandwidths): (Vec<f64>, Vec<f64>) = samples
        .iter()
        .map(|s| (s.threads as f64, s.bandwidth_mb_s))
        .unzip();
    fit_two_line(&threads, &bandwidths)
}

/// Fitted communication parameters in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommFit {
    /// Bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
    /// Latency, microseconds (the zero-byte time, per the paper's
    /// convention).
    pub latency_us: f64,
    /// The underlying line fit (time in µs vs. bytes).
    pub line: LineFit,
}

/// Fit Eq. 12 to a PingPong sweep with the paper's convention: "latency is
/// the communication time for 0 bytes and bandwidth depends on all data
/// points".
///
/// Returns `None` if the sweep lacks a zero-byte sample, has no nonzero
/// sizes, or fits a non-positive slope.
pub fn fit_pingpong(samples: &[PingPongSample]) -> Option<CommFit> {
    let latency_us = samples.iter().find(|s| s.bytes == 0)?.time_us;
    let xs: Vec<f64> = samples.iter().map(|s| s.bytes as f64).collect();
    let ys: Vec<f64> = samples.iter().map(|s| s.time_us).collect();
    let line = fit_line_fixed_intercept(&xs, &ys, latency_us)?;
    if line.slope <= 0.0 {
        return None;
    }
    Some(CommFit {
        bandwidth_mb_s: 1.0 / line.slope, // µs/byte → bytes/µs == MB/s
        latency_us,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_fit_refuses_a_sweep_that_does_not_slow_with_size() {
        let at = |bytes: usize, time_us: f64| PingPongSample { bytes, time_us };
        assert!(fit_pingpong(&[at(0, 3.0), at(2048, 4.0)]).is_some());
        assert!(fit_pingpong(&[at(0, 3.0), at(2048, 2.0)]).is_none());
        assert!(fit_pingpong(&[at(0, 3.0), at(2048, 3.0)]).is_none());
    }
}
