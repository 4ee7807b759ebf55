//! Thread-pair PingPong: message latency and bandwidth between two OS
//! threads.
//!
//! The in-process analog of the Intel MPI Benchmark's PingPong used by the
//! paper for intranodal measurements: two threads bounce a byte buffer
//! through a pair of channels; half the round-trip time is the one-way
//! message time. Buffers are copied on each hop (like an MPI eager-path
//! send), so large messages measure memcpy bandwidth and small ones
//! measure synchronization latency.

use std::sync::mpsc;

/// One PingPong measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PingPongMeasurement {
    /// Message size, bytes.
    pub bytes: usize,
    /// One-way time, microseconds (half the mean round trip).
    pub time_us: f64,
}

/// Measure one-way message time for each size in `sizes`, averaging over
/// `round_trips` bounces per size.
///
/// # Panics
/// Panics if `round_trips` is zero.
pub fn pingpong_sweep(sizes: &[usize], round_trips: usize) -> Vec<PingPongMeasurement> {
    assert!(round_trips > 0, "need at least one round trip");
    sizes
        .iter()
        .map(|&bytes| PingPongMeasurement {
            bytes,
            time_us: one_way_time_us(bytes, round_trips),
        })
        .collect()
}

fn one_way_time_us(bytes: usize, round_trips: usize) -> f64 {
    let (to_echo, echo_in) = mpsc::sync_channel::<Vec<u8>>(1);
    let (echo_out, from_echo) = mpsc::sync_channel::<Vec<u8>>(1);

    let echoer = std::thread::spawn(move || {
        while let Ok(msg) = echo_in.recv() {
            // Copy on the return hop, like an eager-path receive.
            let reply = msg.clone();
            if echo_out.send(reply).is_err() {
                break;
            }
        }
    });

    let payload = vec![0u8; bytes];
    // Warm up the channel pair.
    to_echo.send(payload.clone()).expect("echo thread alive");
    let _ = from_echo.recv().expect("echo thread alive");

    let start = std::time::Instant::now();
    for _ in 0..round_trips {
        to_echo.send(payload.clone()).expect("echo thread alive");
        let back = from_echo.recv().expect("echo thread alive");
        std::hint::black_box(&back);
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(to_echo);
    echoer.join().expect("echo thread join");

    elapsed / round_trips as f64 / 2.0 * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_all_sizes() {
        let sweep = pingpong_sweep(&[0, 1024, 65_536], 20);
        assert_eq!(sweep.len(), 3);
        for m in &sweep {
            assert!(m.time_us > 0.0, "{} bytes", m.bytes);
        }
    }

    /// Each size's fastest one-way time over five sweeps: one preempted
    /// sweep on a loaded host cannot lift it, while a slope that holds on
    /// every quiet sweep survives.
    fn min_over_sweeps(sizes: &[usize], round_trips: usize) -> Vec<f64> {
        let mut best = vec![f64::INFINITY; sizes.len()];
        for _ in 0..5 {
            for (b, m) in best.iter_mut().zip(pingpong_sweep(sizes, round_trips)) {
                *b = b.min(m.time_us);
            }
        }
        best
    }

    #[test]
    fn large_messages_cost_more_than_small() {
        let t = min_over_sweeps(&[0, 4 * 1024 * 1024], 5);
        assert!(t[1] > t[0], "4 MB {} µs !> 0 B {} µs", t[1], t[0]);
    }

    #[test]
    fn fits_the_linear_model() {
        // The host measurement must be consumable by the same fit the
        // simulated PingPong uses: latency pinned at the 0-byte time.
        let sizes = [0, 4096, 65_536, 1_048_576];
        let xs: Vec<f64> = sizes.iter().map(|&b| b as f64).collect();
        let ys = min_over_sweeps(&sizes, 20);
        let fit = hemocloud_fitting::linear::fit_line_fixed_intercept(&xs, &ys, ys[0])
            .expect("finite samples with a nonzero size");
        assert!(fit.slope > 0.0, "non-positive fitted slope {}", fit.slope);
    }
}
