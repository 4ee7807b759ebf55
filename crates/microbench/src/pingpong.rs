//! Thread-pair PingPong: message latency and bandwidth between two OS
//! threads.
//!
//! The in-process analog of the Intel MPI Benchmark's PingPong used by the
//! paper for intranodal measurements: two threads bounce a byte buffer
//! through a pair of channels; half the round-trip time is the one-way
//! message time. Buffers are copied on each hop (like an MPI eager-path
//! send), so large messages measure memcpy bandwidth and small ones
//! measure synchronization latency.

use hemocloud_fitting::sweep::PingPongSample;
use std::sync::mpsc;

/// Measure one-way message time for each size in `sizes`: half the mean
/// round trip over `round_trips` bounces per size.
///
/// # Panics
/// Panics if `round_trips` is zero.
pub fn pingpong_sweep(sizes: &[usize], round_trips: usize) -> Vec<PingPongSample> {
    assert!(round_trips > 0, "need at least one round trip");
    sizes
        .iter()
        .map(|&bytes| PingPongSample {
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
    use hemocloud_fitting::sweep::fit_pingpong;

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
    fn min_over_sweeps(sizes: &[usize], round_trips: usize) -> Vec<PingPongSample> {
        let mut best = pingpong_sweep(sizes, round_trips);
        for _ in 1..5 {
            for (b, m) in best.iter_mut().zip(pingpong_sweep(sizes, round_trips)) {
                b.time_us = b.time_us.min(m.time_us);
            }
        }
        best
    }

    #[test]
    fn large_messages_cost_more_than_small() {
        let t = min_over_sweeps(&[0, 4 * 1024 * 1024], 5);
        let (small, large) = (t[0].time_us, t[1].time_us);
        assert!(large > small, "4 MB {large} µs !> 0 B {small} µs");
    }

    #[test]
    fn fits_the_linear_model() {
        // The host sweep is consumed by the fit the simulated PingPong
        // uses: latency pinned at the 0-byte time, positive slope.
        let samples = min_over_sweeps(&[0, 4096, 65_536, 1_048_576], 20);
        let fit = fit_pingpong(&samples).expect("a zero-byte sample and a positive slope");
        assert_eq!(fit.latency_us, samples[0].time_us);
        assert!(fit.bandwidth_mb_s > 0.0, "{fit:?}");
    }
}
