//! # hemocloud-fabric
//!
//! Route-aware interconnect modeling for the cluster simulator. The
//! paper prices every message with one scalar latency/bandwidth pair per
//! platform (Eq. 12), which makes the 2.01 µs vs 23.59 µs internodal
//! latency gap the *only* network effect the model can express. This
//! crate adds what that model cannot: explicit node/switch topologies
//! with per-link bandwidth, per-message routes, and contention between
//! concurrent transfers — including transfers owned by *different
//! campaign jobs* whose placements share links.
//!
//! Two layers:
//!
//! * [`topology`] — one [`Topology`] struct (links plus a dense route
//!   table, `get_route(from, to) -> &[LinkId]`) with three constructors:
//!   [`Topology::fat_tree`] (two tiers, configurable radix — the TRC
//!   InfiniBand fabric), [`Topology::placement_group`] (one non-blocking
//!   switch — the CSP "cluster placement group" guarantee), and
//!   [`Topology::spread`] (racks behind oversubscribed trunk links — CSP
//!   spread placement).
//! * [`fabric`] — a deterministic discrete-time store-and-forward
//!   engine: inject one exchange's worth of messages ([`fabric::Flow`]s,
//!   in practice the Eq. 9 halo message graph), forward each hop-by-hop
//!   along its route, charge per-link serialization at that link's
//!   bandwidth, and fair-share every link among the flows currently
//!   serializing on it. Completion order is deterministic
//!   (`(time, link, flow seq)`), the whole engine is pure sequential
//!   float arithmetic, and per-link byte counters are exact: delivered
//!   bytes sum to exactly the injected message-graph bytes. Flows with
//!   one route and one payload form a *class* that the engine advances
//!   as one state (a class moves a link's occupancy by its member
//!   count, completions still add bytes and set deliveries one member
//!   at a time in `(link, seq)` order, and busy time is charged only to
//!   occupied links), so every output has the bits a flow-at-a-time
//!   engine gives — the `#[cfg(test)]` reference it is checked against.
//!
//! Zero dependencies; everything is seed-free and replayable — the same
//! flow list against the same topology produces bit-identical results on
//! every run, worker count, and shard count.

pub mod fabric;
pub mod topology;

pub use fabric::{exchange, ExchangeOutcome, Flow};
pub use topology::{Link, LinkId, LinkRates, NodeId, Topology};
