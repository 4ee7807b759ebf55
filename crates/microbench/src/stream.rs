//! The STREAM memory-bandwidth benchmark (McCalpin), threaded.
//!
//! Four kernels over large arrays, with the canonical byte accounting:
//!
//! | kernel | operation        | bytes/element |
//! |--------|------------------|---------------|
//! | Copy   | `c[i] = a[i]`    | 16 |
//! | Scale  | `b[i] = s*c[i]`  | 16 |
//! | Add    | `c[i] = a[i]+b[i]` | 24 |
//! | Triad  | `a[i] = b[i]+s*c[i]` | 24 |
//!
//! The paper uses the Copy measurement as the sustained bandwidth its
//! performance model divides by ("it best reflects the bandwidth
//! achievable by LBM kernels"). The thread sweep reproduces the Fig. 5
//! methodology on the host machine: one thread per core, arrays much
//! larger than cache.
//!
//! Workers come from the persistent shared pool (`hemocloud_rt::pool`) —
//! STREAM numbers must measure memory bandwidth, not thread spawn/join
//! overhead, and the solver whose MFLUPS the model divides against runs
//! on the same pool.

use crate::timing::best_of;
use hemocloud_rt::pool;
use std::sync::Mutex;

/// The four STREAM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

impl StreamKernel {
    /// Bytes moved per element under STREAM's counting convention.
    pub fn bytes_per_element(self) -> usize {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// Canonical kernel name.
    pub fn name(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
        }
    }
}

/// One measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamMeasurement {
    /// Kernel measured.
    pub kernel: StreamKernel,
    /// Threads used.
    pub threads: usize,
    /// Array length (elements per array).
    pub elements: usize,
    /// Best-of-N bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
}

/// Run one STREAM kernel with `threads` threads over arrays of
/// `elements` doubles, best of `reps` repetitions.
///
/// # Panics
/// Panics for zero threads, zero reps, or arrays smaller than the thread
/// count.
pub fn stream_kernel(
    kernel: StreamKernel,
    threads: usize,
    elements: usize,
    reps: usize,
) -> StreamMeasurement {
    assert!(threads > 0, "zero threads");
    assert!(elements >= threads, "array smaller than thread count");
    let scalar = 3.0f64;
    let mut a = vec![1.0f64; elements];
    let mut b = vec![2.0f64; elements];
    let mut c = vec![0.0f64; elements];

    // Worker w's share of all three arrays, split once before timing and
    // executed as one job on the persistent shared pool per repetition —
    // STREAM must measure memory bandwidth, not per-measurement thread
    // spawn/join overhead. Each share sits behind its own lock, which only
    // its run takes, once per repetition.
    let pool = pool::global();
    let shares: Vec<_> = shares(&mut a, threads)
        .into_iter()
        .zip(shares(&mut b, threads))
        .zip(shares(&mut c, threads))
        .map(|((a, b), c)| Mutex::new((a, b, c)))
        .collect();
    let seconds = best_of(reps, || {
        pool.run(threads, &|w: usize| {
            let mut share = shares[w]
                .lock()
                .expect("a STREAM share is locked by its run only");
            let (ca, cb, cc) = &mut *share;
            match kernel {
                StreamKernel::Copy => {
                    for (x, y) in cc.iter_mut().zip(ca.iter()) {
                        *x = *y;
                    }
                }
                StreamKernel::Scale => {
                    for (x, y) in cb.iter_mut().zip(cc.iter()) {
                        *x = scalar * *y;
                    }
                }
                StreamKernel::Add => {
                    for ((x, y), z) in cc.iter_mut().zip(ca.iter()).zip(cb.iter()) {
                        *x = *y + *z;
                    }
                }
                StreamKernel::Triad => {
                    for ((x, y), z) in ca.iter_mut().zip(cb.iter()).zip(cc.iter()) {
                        *x = *y + scalar * *z;
                    }
                }
            }
        });
    });
    drop(shares);
    std::hint::black_box((&a, &b, &c));

    let bytes = kernel.bytes_per_element() * elements;
    StreamMeasurement {
        kernel,
        threads,
        elements,
        bandwidth_mb_s: bytes as f64 / seconds / 1e6,
    }
}

/// `data` cut into `workers` consecutive shares: the balanced runs of
/// [`pool::balanced_runs`].
fn shares(mut data: &mut [f64], workers: usize) -> Vec<&mut [f64]> {
    let n = data.len();
    (0..workers)
        .map(|w| {
            let (_, len) = pool::balanced_runs(n, workers, w);
            let (share, rest) = std::mem::take(&mut data).split_at_mut(len);
            data = rest;
            share
        })
        .collect()
}

/// Copy-kernel sweep over thread counts — the host-machine analog of the
/// paper's Fig. 5 data collection, ready for the two-line fit.
pub fn stream_sweep(
    thread_counts: &[usize],
    elements: usize,
    reps: usize,
) -> Vec<StreamMeasurement> {
    thread_counts
        .iter()
        .map(|&t| stream_kernel(StreamKernel::Copy, t, elements, reps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small arrays in unit tests: these verify plumbing, not peak numbers
    // (the bench crate measures with cache-busting sizes).
    const N: usize = 200_000;

    #[test]
    fn copy_produces_positive_bandwidth() {
        let m = stream_kernel(StreamKernel::Copy, 1, N, 2);
        assert!(m.bandwidth_mb_s > 0.0);
        assert_eq!(m.kernel, StreamKernel::Copy);
    }

    #[test]
    fn all_kernels_run() {
        for k in [
            StreamKernel::Copy,
            StreamKernel::Scale,
            StreamKernel::Add,
            StreamKernel::Triad,
        ] {
            let m = stream_kernel(k, 2, N, 1);
            assert!(m.bandwidth_mb_s > 0.0, "{}", k.name());
        }
    }

    #[test]
    fn byte_accounting() {
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
    }

    #[test]
    fn sweep_returns_requested_counts() {
        let sweep = stream_sweep(&[1, 2], N, 1);
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].threads, 1);
        assert_eq!(sweep[1].threads, 2);
    }

    #[test]
    #[should_panic(expected = "zero threads")]
    fn zero_threads_panics() {
        let _ = stream_kernel(StreamKernel::Copy, 0, N, 1);
    }
}
