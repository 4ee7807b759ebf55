//! Simulated Intel-MPI-Benchmark-style PingPong (paper Fig. 6 / Table III
//! data source).
//!
//! Generates round-trip-halved communication times over a message-size
//! sweep for intranodal and internodal rank pairs, with measurement noise.
//! `hemocloud_fitting::sweep::fit_pingpong` then recovers the linear
//! `t = m/b + l` model exactly the way the paper does: latency pinned to
//! the zero-byte measurement, bandwidth fit to all points.

use crate::network::LinkKind;
use crate::noise::NoiseProcess;
use crate::platform::Platform;
use hemocloud_fitting::sweep::PingPongSample;

/// The IMB default message-size ladder: 0 plus powers of two through 4 MB.
pub fn default_message_sizes() -> Vec<usize> {
    let mut sizes = vec![0usize];
    let mut s = 1usize;
    while s <= 4 * 1024 * 1024 {
        sizes.push(s);
        s *= 2;
    }
    sizes
}

/// Simulate a PingPong sweep over `sizes` for the given link kind.
pub fn pingpong_sweep(
    platform: &Platform,
    kind: LinkKind,
    sizes: &[usize],
    seed: u64,
) -> Vec<PingPongSample> {
    let mut noise = NoiseProcess::new(0.02, seed ^ 0x5049_4e47);
    let link = crate::network::link_of(platform, kind);
    sizes
        .iter()
        .map(|&bytes| PingPongSample {
            bytes,
            time_us: link.transfer_time_us(bytes as f64) * noise.independent_factor(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_fitting::sweep::fit_pingpong;

    #[test]
    fn ladder_starts_at_zero_and_doubles() {
        let sizes = default_message_sizes();
        assert_eq!(sizes[0], 0);
        assert_eq!(sizes[1], 1);
        assert_eq!(*sizes.last().unwrap(), 4 * 1024 * 1024);
        for w in sizes[1..].windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn sweep_is_monotone_in_size_modulo_noise() {
        let p = Platform::csp2();
        let samples = pingpong_sweep(&p, LinkKind::Internodal, &default_message_sizes(), 3);
        // Large messages take much longer than small ones (4 MB at ~1.8
        // GB/s is ~2.3 ms against a ~24 µs zero-byte latency).
        assert!(samples.last().unwrap().time_us > 50.0 * samples[0].time_us);
    }

    #[test]
    fn fit_recovers_link_ground_truth() {
        let p = Platform::csp2();
        let samples = pingpong_sweep(&p, LinkKind::Internodal, &default_message_sizes(), 17);
        let fit = fit_pingpong(&samples).expect("fit");
        let truth = &p.internodal;
        assert!(
            (fit.bandwidth_mb_s - truth.bandwidth_mb_s).abs() / truth.bandwidth_mb_s < 0.12,
            "bandwidth {} vs {}",
            fit.bandwidth_mb_s,
            truth.bandwidth_mb_s
        );
        assert!(
            (fit.latency_us - truth.latency_us).abs() / truth.latency_us < 0.15,
            "latency {} vs {}",
            fit.latency_us,
            truth.latency_us
        );
    }

    #[test]
    fn ec_fit_beats_non_ec_fit() {
        // The paper's interconnect comparison must survive the noisy
        // measurement + fit pipeline.
        let sizes = default_message_sizes();
        let ec = fit_pingpong(&pingpong_sweep(
            &Platform::csp2_ec(),
            LinkKind::Internodal,
            &sizes,
            5,
        ))
        .unwrap();
        let no_ec = fit_pingpong(&pingpong_sweep(
            &Platform::csp2(),
            LinkKind::Internodal,
            &sizes,
            5,
        ))
        .unwrap();
        assert!(ec.bandwidth_mb_s > no_ec.bandwidth_mb_s);
        assert!(ec.latency_us < no_ec.latency_us);
    }

    #[test]
    fn fit_requires_zero_byte_sample() {
        let p = Platform::trc();
        let samples = pingpong_sweep(&p, LinkKind::Internodal, &[1024, 2048], 1);
        assert!(fit_pingpong(&samples).is_none());
    }

    #[test]
    fn pinned_latency_underestimates_large_messages() {
        // The paper: defining latency as the zero-byte time underestimates
        // at larger sizes (the real curve is convex) but avoids
        // overestimating small messages.
        let p = Platform::csp2();
        let sizes = default_message_sizes();
        let samples = pingpong_sweep(&p, LinkKind::Internodal, &sizes, 23);
        let fit = fit_pingpong(&samples).unwrap();
        let largest = samples.last().unwrap();
        let predicted = fit.line.eval(largest.bytes as f64);
        assert!(
            predicted < largest.time_us * 1.02,
            "prediction {predicted} should not exceed measured {}",
            largest.time_us
        );
    }
}
