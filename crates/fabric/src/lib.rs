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
//! * [`fabric`] — a deterministic event-driven store-and-forward
//!   engine: inject one exchange's worth of messages ([`fabric::Flow`]s,
//!   in practice the Eq. 9 halo message graph), forward each hop-by-hop
//!   along its route, charge per-link serialization at that link's
//!   bandwidth, fair-share every link among the flows currently
//!   serializing on it, and return each flow's delivery time — the one
//!   output, and the whole contract. A flow occupies one link at a time,
//!   so each link is its own fair-share server: it keeps a virtual clock
//!   of the bytes served per flow and finishes a flow when the clock
//!   reaches that flow's finish tag. Routes are loop-free and
//!   route-ordered, so the engine runs each link to completion in
//!   [`Topology::link_order`], its departures feeding the next hop's
//!   arrivals. Flows with one route and one
//!   payload form a *class* that moves a link's occupancy by its member
//!   count. The engine is pure sequential float arithmetic, a delivery
//!   time follows its flow under any reordering of the input, and the
//!   tests hold every delivery equal bit for bit to the network-wide
//!   instant loop it replaced (at a positive hop latency) and within
//!   1e-12 (relative) of the discrete-time per-flow engine before that,
//!   both kept as `#[cfg(test)]` oracles. The per-link byte ledger of a
//!   campaign is the scheduler's integer one, not the fabric's.
//!
//! Zero dependencies; everything is seed-free and replayable — the same
//! flow list against the same topology produces bit-identical results on
//! every run, worker count, and shard count.

pub mod fabric;
pub mod topology;

pub use fabric::{exchange, Flow};
pub use topology::{Link, LinkId, LinkRates, NodeId, Topology};
