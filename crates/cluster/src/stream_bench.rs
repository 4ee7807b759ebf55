//! Simulated STREAM benchmark (paper Fig. 5 / Table II data source).
//!
//! Samples the platform's ground-truth two-line bandwidth curve over an
//! OpenMP-style thread sweep, with measurement noise and — for cloud
//! platforms — extra variance past the saturation knee (the paper observes
//! that CSP-2 "demonstrates large variance after its inflection point,
//! suggesting that not all cores ... have separate memory access bandwidth
//! channels").

use crate::noise::NoiseProcess;
use crate::platform::Platform;
use hemocloud_fitting::sweep::StreamSample;

/// Simulate a STREAM Copy sweep from 1 thread to every core on the node.
pub fn stream_sweep(platform: &Platform, seed: u64) -> Vec<StreamSample> {
    let mut base_noise = NoiseProcess::new(0.01, seed ^ 0x5742_4e43);
    let mut knee_noise = NoiseProcess::new(
        platform.shared_channel_variance.min(0.5),
        seed ^ 0x4b4e_4545,
    );
    (1..=platform.cores_per_node)
        .map(|threads| {
            let truth = platform.memory.bandwidth(threads as f64);
            let mut factor = base_noise.independent_factor();
            if (threads as f64) > platform.memory.a3 {
                // Channel contention past the knee: asymmetric, mostly
                // downward excursions.
                let k = knee_noise.independent_factor();
                factor *= k.min(1.02);
            }
            StreamSample {
                threads,
                bandwidth_mb_s: truth * factor,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_fitting::sweep::fit_stream;

    #[test]
    fn sweep_covers_all_cores() {
        let p = Platform::trc();
        let sweep = stream_sweep(&p, 1);
        assert_eq!(sweep.len(), 40);
        assert_eq!(sweep[0].threads, 1);
        assert_eq!(sweep[39].threads, 40);
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let p = Platform::csp2();
        assert_eq!(stream_sweep(&p, 9), stream_sweep(&p, 9));
        assert_ne!(stream_sweep(&p, 9), stream_sweep(&p, 10));
    }

    #[test]
    fn measurements_track_truth() {
        let p = Platform::trc();
        for s in stream_sweep(&p, 4) {
            let truth = p.memory.bandwidth(s.threads as f64);
            assert!(
                (s.bandwidth_mb_s - truth).abs() / truth < 0.15,
                "threads {}: {} vs {}",
                s.threads,
                s.bandwidth_mb_s,
                truth
            );
        }
    }

    #[test]
    fn fit_recovers_ground_truth_from_simulated_sweep() {
        // The full paper pipeline: simulate STREAM, fit Eq. 8, compare to
        // the generating parameters.
        let p = Platform::csp2();
        let fit = fit_stream(&stream_sweep(&p, 42)).expect("fit");
        assert!((fit.a1 - p.memory.a1).abs() / p.memory.a1 < 0.15, "a1 {}", fit.a1);
        assert!((fit.a3 - p.memory.a3).abs() < 3.0, "a3 {}", fit.a3);
        // Full-node bandwidth reproduced within a few percent.
        let full = fit.eval(36.0);
        let truth = p.full_node_bandwidth();
        assert!((full - truth).abs() / truth < 0.06, "{full} vs {truth}");
    }

    #[test]
    fn csp2_noisier_past_knee_than_trc() {
        // Compare residual spread above the knee across many seeds.
        let spread = |p: &Platform| -> f64 {
            let mut total = 0.0;
            let mut count = 0;
            for seed in 0..30 {
                for s in stream_sweep(p, seed) {
                    if (s.threads as f64) > p.memory.a3 + 1.0 {
                        let truth = p.memory.bandwidth(s.threads as f64);
                        total += ((s.bandwidth_mb_s - truth) / truth).abs();
                        count += 1;
                    }
                }
            }
            total / count as f64
        };
        assert!(spread(&Platform::csp2()) > spread(&Platform::trc()));
    }

    #[test]
    fn hyperthreaded_sweep_extends_to_72() {
        let p = Platform::csp2_hyperthreaded();
        let sweep = stream_sweep(&p, 2);
        assert_eq!(sweep.last().unwrap().threads, 72);
        // Bandwidth at 72 threads is below the knee's peak.
        let knee = p.memory.bandwidth(p.memory.a3);
        assert!(sweep.last().unwrap().bandwidth_mb_s < knee * 1.05);
    }
}
