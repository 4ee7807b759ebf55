//! Platform characterization: microbenchmark → fit (the top half of the
//! paper's Fig. 1 framework, producing the "CSP Option Dashboard" inputs
//! and the Table III parameters).

use std::sync::Arc;

use hemocloud_cluster::network::LinkKind;
use hemocloud_cluster::pingpong::{default_message_sizes, pingpong_sweep};
use hemocloud_cluster::platform::Platform;
use hemocloud_cluster::stream_bench::stream_sweep;
use hemocloud_fitting::sweep::{fit_pingpong, fit_stream, CommFit, PingPongSample, StreamSample};
use hemocloud_fitting::two_line::TwoLineFit;

/// The microbenchmark sweeps a characterization is fitted from: Fig. 5's
/// STREAM samples and Fig. 6's PingPong samples per link kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweeps {
    /// STREAM Copy bandwidth from one thread to every core on the node.
    pub stream: Vec<StreamSample>,
    /// PingPong between two ranks on one node.
    pub intranodal: Vec<PingPongSample>,
    /// PingPong between two ranks on different nodes.
    pub internodal: Vec<PingPongSample>,
}

/// Fitted hardware parameters of one platform — a row of the paper's
/// Table III — and the sweeps they are the fits of.
#[derive(Debug, Clone)]
pub struct PlatformCharacterization {
    /// The platform measured.
    pub platform: Platform,
    /// Two-line STREAM fit (`a1, a2, a3` of Eq. 8).
    pub memory_fit: TwoLineFit,
    /// Internodal PingPong fit (`b, l` of Eq. 12).
    pub internodal_fit: CommFit,
    /// Intranodal PingPong fit.
    pub intranodal_fit: CommFit,
    /// The samples the three fits were fitted from, shared by every clone
    /// (each model and pool state keeps one).
    pub sweeps: Arc<Sweeps>,
}

impl PlatformCharacterization {
    /// Fitted node bandwidth (MB/s) with `threads` active.
    pub fn node_bandwidth(&self, threads: usize) -> f64 {
        self.memory_fit.eval(threads as f64)
    }

    /// Fitted per-task bandwidth share with `tasks_on_node` tasks
    /// saturating the node (the paper's even-split assumption), MB/s.
    pub fn per_task_bandwidth(&self, tasks_on_node: usize) -> f64 {
        assert!(tasks_on_node > 0);
        self.node_bandwidth(tasks_on_node) / tasks_on_node as f64
    }

    /// Communication fit for a link kind.
    fn link_fit(&self, kind: LinkKind) -> &CommFit {
        match kind {
            LinkKind::Internodal => &self.internodal_fit,
            LinkKind::Intranodal => &self.intranodal_fit,
        }
    }

    /// Seconds to move `bytes` through a link per the fitted model:
    /// `m/b + l` (Eq. 12).
    pub fn message_time_s(&self, kind: LinkKind, bytes: f64) -> f64 {
        let fit = self.link_fit(kind);
        (bytes / fit.bandwidth_mb_s + fit.latency_us) * 1e-6
    }
}

/// Characterize a platform by running its (simulated) microbenchmarks and
/// fitting the paper's models. `seed` controls the measurement-noise
/// streams, making characterizations reproducible.
///
/// # Panics
/// Panics if any fit fails — on these platforms the sweeps are always
/// fittable, so a failure indicates a broken measurement pipeline.
pub fn characterize(platform: &Platform, seed: u64) -> PlatformCharacterization {
    let sizes = default_message_sizes();
    let sweeps = Sweeps {
        stream: stream_sweep(platform, seed),
        intranodal: pingpong_sweep(platform, LinkKind::Intranodal, &sizes, seed ^ 0x17a4),
        internodal: pingpong_sweep(platform, LinkKind::Internodal, &sizes, seed ^ 0x1e7e),
    };
    fit(platform, Arc::new(sweeps))
}

/// The characterization of `platform` that `sweeps` measured.
fn fit(platform: &Platform, sweeps: Arc<Sweeps>) -> PlatformCharacterization {
    PlatformCharacterization {
        platform: platform.clone(),
        memory_fit: fit_stream(&sweeps.stream).expect("STREAM sweep is fittable"),
        internodal_fit: fit_pingpong(&sweeps.internodal).expect("internodal PingPong is fittable"),
        intranodal_fit: fit_pingpong(&sweeps.intranodal).expect("intranodal PingPong is fittable"),
        sweeps,
    }
}

/// Characterize every Table I platform.
pub fn characterize_all(seed: u64) -> Vec<PlatformCharacterization> {
    Platform::all()
        .iter()
        .map(|p| characterize(p, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_recovers_table3_parameters() {
        // The full pipeline must land near the paper's Table III values
        // for CSP-2: a1 ≈ 7790, a3 ≈ 9, b ≈ 1805 MB/s, l ≈ 23.6 µs.
        let c = characterize(&Platform::csp2(), 42);
        assert!(
            (c.memory_fit.a1 - 7790.0).abs() / 7790.0 < 0.15,
            "a1 = {}",
            c.memory_fit.a1
        );
        assert!((c.memory_fit.a3 - 9.0).abs() < 3.0, "a3 = {}", c.memory_fit.a3);
        assert!(
            (c.internodal_fit.bandwidth_mb_s - 1804.84).abs() / 1804.84 < 0.15,
            "b = {}",
            c.internodal_fit.bandwidth_mb_s
        );
        assert!(
            (c.internodal_fit.latency_us - 23.59).abs() / 23.59 < 0.2,
            "l = {}",
            c.internodal_fit.latency_us
        );
    }

    /// Table III has two negative `a2` rows. On the hyperthreaded CSP-2
    /// (paper −93.43 on an `a1` of 8,629, fitted over some 60 post-knee points)
    /// every seed recovers the sign. On CSP-1 (paper −62.79 on an `a1` of
    /// 18,093, fitted over the 12 points a 16-core node has past its knee)
    /// the sign is seed luck: what the data supports there is a *flat*
    /// post-knee slope — which is what `repro table3` checks, with `a1`
    /// and `a3` in their bands — not a declining one.
    #[test]
    fn a_negative_a2_keeps_its_sign_on_every_seed_only_on_the_hyperthreaded_curve() {
        let fits = |p: Platform| (0..40).map(move |seed| characterize(&p, seed).memory_fit);
        let declining = |p: Platform| fits(p).filter(|fit| fit.a2 < 0.0).count();
        assert_eq!(declining(Platform::csp2_hyperthreaded()), 40);
        assert_eq!(declining(Platform::csp1()), 27);
        let truth = Platform::csp1().memory; // seeded from the paper's row
        for fit in fits(Platform::csp1()) {
            assert!(fit.a2.abs() / fit.a1 < 0.02, "not flat: {fit:?}");
            assert!((fit.a1 - truth.a1).abs() / truth.a1 < 0.15, "{fit:?}");
            assert!((fit.a3 - truth.a3).abs() < 3.0, "{fit:?}");
        }
    }

    #[test]
    fn per_task_bandwidth_shrinks_with_contention() {
        let c = characterize(&Platform::trc(), 7);
        assert!(c.per_task_bandwidth(4) > c.per_task_bandwidth(40));
    }

    #[test]
    fn intranodal_messages_are_cheaper() {
        let c = characterize(&Platform::csp2(), 11);
        for bytes in [0.0, 1e4, 1e6] {
            assert!(
                c.message_time_s(LinkKind::Intranodal, bytes)
                    < c.message_time_s(LinkKind::Internodal, bytes)
            );
        }
    }

    #[test]
    fn characterize_all_covers_table1() {
        let all = characterize_all(3);
        assert_eq!(all.len(), 5);
        let abbrevs: Vec<_> = all.iter().map(|c| c.platform.abbrev).collect();
        assert!(abbrevs.contains(&"TRC"));
        assert!(abbrevs.contains(&"CSP-2 EC"));
    }

    fn comm_bits(fit: &CommFit) -> [u64; 5] {
        let line = fit.line;
        [
            fit.bandwidth_mb_s,
            fit.latency_us,
            line.slope,
            line.intercept,
            line.sse,
        ]
        .map(f64::to_bits)
    }

    /// Table III's CSP-2 row at the record's seed, as `REPRO.json` holds
    /// it: the sweeps and the fit arithmetic are the ones every model
    /// reads.
    #[test]
    fn csp2_internodal_fit_is_the_committed_table3_row() {
        let fit = characterize(&Platform::csp2(), 2023).internodal_fit;
        assert_eq!(
            fit.bandwidth_mb_s.to_bits(),
            1764.7830809282168f64.to_bits()
        );
        assert_eq!(fit.latency_us.to_bits(), 24.00794245127288f64.to_bits());
    }

    /// A characterization is the fit of the samples it carries.
    #[test]
    fn refitting_the_carried_sweeps_reproduces_every_fit_bitwise() {
        for platform in Platform::all() {
            let c = characterize(&platform, 2023);
            let refit = fit(&c.platform, c.sweeps.clone());
            let two_line = |f: &TwoLineFit| [f.a1, f.a2, f.a3, f.sse].map(f64::to_bits);
            assert_eq!(two_line(&refit.memory_fit), two_line(&c.memory_fit));
            let links = [
                (&refit.internodal_fit, &c.internodal_fit),
                (&refit.intranodal_fit, &c.intranodal_fit),
            ];
            for (refit, fit) in links {
                assert_eq!(comm_bits(refit), comm_bits(fit));
            }
            assert_eq!(refit.sweeps, c.sweeps);
            assert_eq!(c.sweeps.stream.len(), platform.cores_per_node);
        }
    }

    #[test]
    fn characterization_is_deterministic_per_seed() {
        let a = characterize(&Platform::csp1(), 5);
        let b = characterize(&Platform::csp1(), 5);
        assert_eq!(a.memory_fit, b.memory_fit);
        assert_eq!(a.internodal_fit, b.internodal_fit);
    }
}
