//! Simulated execution platforms: the paper's cloud instances and
//! traditional cluster, reproduced as parameterized timing models.
//!
//! The paper's experiments ran on AWS/Azure HPC instances and an on-premise
//! Intel cluster; none of that hardware is available here, so this crate
//! *is* the substituted testbed (DESIGN.md §0). Each [`platform::Platform`]
//! carries the paper's own measured constants as ground truth — Table I
//! (topology), Table II (sustained bandwidths) and Table III (two-line
//! memory fits, interconnect bandwidth/latency) — so that simulated
//! microbenchmarks and workload runs have the published shape.
//!
//! Crucially, the execution engine ([`exec`]) includes effects the
//! performance model deliberately does **not** know about: LBM kernels
//! sustain less than STREAM-copy bandwidth, each message pays a software
//! overhead beyond wire latency, every step pays a synchronization cost,
//! and throughput carries temporally correlated noise ([`noise`]). Those
//! unmodeled terms reproduce the paper's headline observation that both
//! performance models consistently overpredict (its Figs. 7-8).

pub mod exec;
pub mod memory;
pub mod network;
pub mod noise;
pub mod pingpong;
pub mod platform;
pub mod pool;
pub mod pricing;
pub mod stream_bench;
pub mod topology;

pub use exec::{PreparedRun, SimulatedRun};
pub use platform::Platform;
pub use pool::NodePool;
pub use pricing::PriceSheet;
pub use topology::{build_topology, CommModel, TopologyVariant};
