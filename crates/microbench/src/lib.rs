//! Real host microbenchmarks.
//!
//! The simulated platforms (the `hemocloud-cluster` crate) stand in for
//! the paper's cloud instances, but the benchmark *programs* themselves
//! are real: [`stream`] implements the four STREAM kernels
//! (Copy, Scale, Add, Triad) with a thread sweep, and [`pingpong`]
//! measures thread-pair message latency/bandwidth — the in-process analog
//! of intranodal MPI PingPong. They return the sample types the simulated
//! microbenchmarks return (`hemocloud_fitting::sweep::{StreamSample,
//! PingPongSample}`), so the Eq. 8 and Eq. 12 fits of a characterization
//! apply to this machine's sweeps unchanged. Predicting on the host needs
//! a `Platform` that describes it, which does not exist yet.

pub mod pingpong;
pub mod stream;
pub mod timing;

pub use pingpong::pingpong_sweep;
pub use stream::{stream_kernel, stream_sweep, StreamKernel};
