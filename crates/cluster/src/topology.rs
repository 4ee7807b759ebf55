//! Platform-level topology selection and the routed communication path.
//!
//! This module is the bridge between the abstract interconnect shapes in
//! `hemocloud-fabric` and the paper's platforms: it decides which
//! topology variant a platform runs ([`TopologyVariant`]), instantiates
//! it from the platform's measured link ground truth
//! ([`build_topology`]), converts the Eq. 9 halo message graph into
//! fabric [`Flow`]s with physical node endpoints ([`job_flows`]), and
//! reduces a fabric exchange back into the per-task internodal
//! communication seconds the timing engine consumes — for every member
//! of a co-scheduled set at once ([`routed_set_comm`], one exchange per
//! set), or for one victim against caller-supplied background flows
//! ([`routed_task_comm`], the single-member case of the same fold).
//!
//! The scalar Eq. 12 model stays the default and the calibration
//! baseline; [`CommModel::Routed`] is the opt-in fabric-backed path (see
//! `exec::PreparedRun::new_with_comm`).
//!
//! Rate mapping: every node-facing link runs at the platform's measured
//! internodal bandwidth, and per-hop latency is half the measured
//! internodal latency — so a placement-group route (2 hops) reproduces
//! the scalar zero-byte latency exactly, while deeper routes (fat-tree
//! cross-leaf, spread cross-rack) pay proportionally more. Serialization
//! is store-and-forward per hop, which the scalar model has no concept
//! of — one of the effects `ModelCalibrator` gets to discover.

use crate::exec::PreparedRun;
use crate::platform::Platform;
use hemocloud_decomp::halo::DecompAnalysis;
use hemocloud_decomp::placement::Placement;
use hemocloud_fabric::{exchange, Flow, LinkRates, Topology};

/// Which interconnect shape a pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyVariant {
    /// Full-bisection Clos — the TRC InfiniBand fabric.
    FatTree,
    /// One non-blocking switch — the CSP cluster-placement-group
    /// guarantee (best latency, priced accordingly).
    PlacementGroup,
    /// Racks behind 2:1-oversubscribed trunks — CSP spread placement
    /// (cheap, availability-first, slow across racks).
    Spread,
}

impl TopologyVariant {
    /// Stable name used in dashboards, reports and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyVariant::FatTree => "fat-tree",
            TopologyVariant::PlacementGroup => "placement-group",
            TopologyVariant::Spread => "spread",
        }
    }
}

/// How `PreparedRun` prices communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommModel {
    /// The paper's scalar Eq. 12 latency/bandwidth model — the default
    /// and the calibration baseline.
    #[default]
    Scalar,
    /// Route messages through an explicit topology with per-link
    /// fair-share contention.
    Routed(TopologyVariant),
}

impl CommModel {
    /// Stable name for reports: "scalar" or the routed variant's name.
    pub fn name(&self) -> &'static str {
        match self {
            CommModel::Scalar => "scalar",
            CommModel::Routed(v) => v.name(),
        }
    }
}

/// Fat-tree switch radix used for platform fabrics (8 nodes per leaf,
/// 8 spines — comfortably covers the TRC's 50-node allocation in two
/// tiers).
pub const FAT_TREE_RADIX: usize = 16;

/// Trunk capacity of spread placement relative to node bandwidth (2:1
/// oversubscription).
pub const SPREAD_TRUNK_CAPACITY: f64 = 0.5;

/// Instantiate `variant` over `n_nodes` nodes of `platform`, mapping the
/// platform's measured internodal link truth onto per-link rates (see
/// the module docs for the mapping).
pub fn build_topology(platform: &Platform, variant: TopologyVariant, n_nodes: usize) -> Topology {
    let rates = LinkRates {
        bandwidth_mb_s: platform.internodal.bandwidth_mb_s,
        hop_latency_us: platform.internodal.latency_us / 2.0,
    };
    match variant {
        TopologyVariant::FatTree => Topology::fat_tree(n_nodes, FAT_TREE_RADIX, rates),
        TopologyVariant::PlacementGroup => Topology::placement_group(n_nodes, rates),
        TopologyVariant::Spread => {
            // Half as many racks as nodes (min 2): spread scatters
            // consecutive allocations across racks, so two co-scheduled
            // jobs land rack-interleaved and share trunk links.
            let racks = (n_nodes / 2).max(2);
            Topology::spread(n_nodes, racks, SPREAD_TRUNK_CAPACITY, rates)
        }
    }
}

/// One job's halo graph pinned to physical nodes of a shared topology:
/// what [`job_flows`] turns into flows and [`routed_set_comm`] prices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member<'a> {
    pub(crate) analysis: &'a DecompAnalysis,
    pub(crate) placement: &'a Placement,
    /// `node_map[local] = physical`.
    pub(crate) node_map: &'a [usize],
    pub(crate) comm_bytes_per_point: f64,
    pub(crate) software_overhead_us: f64,
}

impl Member<'_> {
    /// Call `emit(sender, receiver, flow)` for each internodal message —
    /// by sending task, then by receiving peer (the `BTreeMap` order of
    /// the message graph) — with the flow's tag counting from `tag_base`.
    /// Intranodal messages (same node) stay out of the fabric: they ride
    /// the scalar shared-memory link.
    fn for_each_flow(&self, tag_base: u64, mut emit: impl FnMut(usize, usize, Flow)) {
        assert_eq!(
            self.node_map.len(),
            self.placement.n_nodes(),
            "node map must cover the placement's nodes"
        );
        let mut tag = tag_base;
        for task in 0..self.analysis.n_tasks {
            let src = self.placement.physical_node_of(task, self.node_map);
            for (&peer, &points) in &self.analysis.messages[task] {
                let dst = self.placement.physical_node_of(peer, self.node_map);
                if src == dst {
                    continue;
                }
                let bytes = points as f64 * self.comm_bytes_per_point;
                emit(task, peer, Flow { src, dst, bytes, tag });
                tag += 1;
            }
        }
    }
}

/// The Eq. 9 *internodal* halo message graph of one job as fabric flows,
/// with local nodes mapped to physical topology nodes through
/// `node_map` (`node_map[local] = physical`). Flow order is
/// deterministic: by sending task, then by receiving peer. `tag_base` is
/// folded into each flow's tag so concurrent jobs' flows stay
/// distinguishable in debugging dumps; the fabric itself never reads
/// tags.
pub fn job_flows(
    analysis: &DecompAnalysis,
    placement: &Placement,
    node_map: &[usize],
    comm_bytes_per_point: f64,
    tag_base: u64,
) -> Vec<Flow> {
    let member = Member {
        analysis,
        placement,
        node_map,
        comm_bytes_per_point,
        software_overhead_us: 0.0,
    };
    let mut flows = Vec::new();
    member.for_each_flow(tag_base, |_, _, flow| flows.push(flow));
    flows
}

/// One exchange over every member's flows plus `background`, folded back
/// into each member's internodal seconds per task per step: the only
/// place deliveries become per-task seconds.
///
/// A task's exchange completes when its last sent *and* received message
/// is delivered; on top of that wire time each message charges the
/// scalar model's per-message software overhead to both endpoints
/// (CPU-side cost the fabric does not model). Background deliveries are
/// computed but not reported — they only shape contention.
fn route_members(
    topology: &Topology,
    members: &[Member<'_>],
    background: &[Flow],
) -> Vec<Vec<f64>> {
    // Members' flows first (so delivery indexes line up), background
    // after; `own[m]` is member `m`'s index range, and its tags count
    // from `m << 32`.
    let mut flows = Vec::new();
    let mut endpoints = Vec::new();
    let mut own = Vec::with_capacity(members.len());
    for (m, member) in members.iter().enumerate() {
        let first = flows.len();
        member.for_each_flow((m as u64) << 32, |sender, receiver, flow| {
            endpoints.push((sender, receiver));
            flows.push(flow);
        });
        own.push(first..flows.len());
    }
    flows.extend_from_slice(background);

    let delivery_s = exchange(topology, &flows);

    members
        .iter()
        .zip(own)
        .map(|(member, own)| {
            let n_tasks = member.analysis.n_tasks;
            let mut per_task_inter_s = vec![0.0f64; n_tasks];
            let mut messages = vec![0usize; n_tasks];
            for (&(sender, receiver), &t) in endpoints[own.clone()].iter().zip(&delivery_s[own]) {
                per_task_inter_s[sender] = per_task_inter_s[sender].max(t);
                per_task_inter_s[receiver] = per_task_inter_s[receiver].max(t);
                messages[sender] += 1;
                messages[receiver] += 1;
            }
            let overhead_s = member.software_overhead_us * 1e-6;
            for (inter, &count) in per_task_inter_s.iter_mut().zip(&messages) {
                *inter += count as f64 * overhead_s;
            }
            per_task_inter_s
        })
        .collect()
}

/// Route one step's halo exchange of a job through `topology`, sharing
/// links with `background` flows (other concurrent jobs' exchanges),
/// and reduce to internodal comm seconds per task per step: the
/// single-victim case of [`routed_set_comm`], and the oracle it is
/// tested against.
#[allow(clippy::too_many_arguments)] // the timing engine's free variables
pub fn routed_task_comm(
    topology: &Topology,
    analysis: &DecompAnalysis,
    placement: &Placement,
    node_map: &[usize],
    comm_bytes_per_point: f64,
    software_overhead_us: f64,
    background: &[Flow],
) -> Vec<f64> {
    let member = Member {
        analysis,
        placement,
        node_map,
        comm_bytes_per_point,
        software_overhead_us,
    };
    route_members(topology, &[member], background)
        .pop()
        .expect("one member, one result")
}

/// Price a whole set of co-scheduled runs with **one** exchange: member
/// `m` is a prepared run on physical nodes `members[m].1` of `topology`
/// (node sets pairwise disjoint), and entry `m` of the result is what
/// [`routed_task_comm`] returns with `m` as the victim and every other
/// member's [`PreparedRun::flows`] as background — bit for bit, in any
/// member order, because `fabric::exchange` is permutation-equivariant
/// in its flow list (see its module docs). Halo traffic repeats every
/// step, so the result is a function of the set alone; a campaign
/// memoises it by set.
pub fn routed_set_comm(
    topology: &Topology,
    members: &[(&PreparedRun, &[usize])],
) -> Vec<Vec<f64>> {
    let members: Vec<Member<'_>> = members
        .iter()
        .map(|&(run, node_map)| run.member(node_map))
        .collect();
    route_members(topology, &members, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemocloud_decomp::rcb::RcbPartition;
    use hemocloud_geometry::anatomy::CylinderSpec;

    fn analysis_and_placement(ranks: usize, per_node: usize) -> (DecompAnalysis, Placement) {
        let grid = CylinderSpec::default().with_resolution(10).build();
        let partition = RcbPartition::new(&grid, ranks);
        let analysis = DecompAnalysis::analyze(&grid, &partition);
        let placement = Placement::contiguous(ranks, per_node);
        (analysis, placement)
    }

    /// `TopologyVariant::name` is the one name table reports read. The
    /// fabric constructor names its shape too (that crate cannot see this
    /// one), so pin the two to each other, to `CommModel::name`, and to
    /// the strings `CAMPAIGN_fabric.json` placements and dashboard rows
    /// already carry.
    #[test]
    fn names_agree_across_variant_topology_and_comm_model() {
        let p = Platform::csp2();
        for (variant, name) in [
            (TopologyVariant::FatTree, "fat-tree"),
            (TopologyVariant::PlacementGroup, "placement-group"),
            (TopologyVariant::Spread, "spread"),
        ] {
            assert_eq!(variant.name(), name);
            assert_eq!(build_topology(&p, variant, 4).name(), name);
            assert_eq!(CommModel::Routed(variant).name(), name);
        }
        assert_eq!(CommModel::Scalar.name(), "scalar");
        assert_eq!(CommModel::default(), CommModel::Scalar);
    }

    #[test]
    fn placement_group_route_reproduces_scalar_latency() {
        let p = Platform::csp2();
        let topo = build_topology(&p, TopologyVariant::PlacementGroup, 4);
        let route = topo.get_route(0, 3);
        let total_latency_us: f64 = route.iter().map(|&l| topo.links()[l].latency_us).sum();
        hemocloud_rt::float::assert_close(total_latency_us, p.internodal.latency_us, 0.0, 2);
    }

    #[test]
    fn job_flows_cover_exactly_the_internodal_graph() {
        let (analysis, placement) = analysis_and_placement(16, 4);
        let bpp = 152.0;
        let node_map: Vec<usize> = (0..placement.n_nodes()).collect();
        let flows = job_flows(&analysis, &placement, &node_map, bpp, 0);
        let mut expect = 0.0;
        for task in 0..analysis.n_tasks {
            for (&peer, &points) in &analysis.messages[task] {
                if placement.is_internodal(task, peer) {
                    expect += points as f64 * bpp;
                }
            }
        }
        assert_eq!(flows.iter().map(|f| f.bytes).sum::<f64>(), expect);
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn node_map_moves_flows_onto_physical_nodes() {
        let (analysis, placement) = analysis_and_placement(8, 4);
        assert_eq!(placement.n_nodes(), 2);
        let flows = job_flows(&analysis, &placement, &[5, 9], 152.0, 0);
        assert!(!flows.is_empty());
        for f in &flows {
            assert!(f.src == 5 || f.src == 9);
            assert!(f.dst == 5 || f.dst == 9);
        }
    }

    #[test]
    fn background_traffic_slows_routed_comm() {
        let p = Platform::csp2();
        let (analysis, placement) = analysis_and_placement(8, 4);
        // Pool of 4 nodes, spread across 2 racks; our job on physical
        // nodes {0, 1} (different racks), the background tenant on
        // {2, 3} (the same racks — shares both trunks).
        let topo = build_topology(&p, TopologyVariant::Spread, 4);
        let node_map = [0usize, 1];
        let isolated =
            routed_task_comm(&topo, &analysis, &placement, &node_map, 152.0, 1.5, &[]);
        let tenant = job_flows(&analysis, &placement, &[2, 3], 152.0, 1 << 32);
        let contended =
            routed_task_comm(&topo, &analysis, &placement, &node_map, 152.0, 1.5, &tenant);
        let worst_iso = isolated.iter().fold(0.0f64, |a, &b| a.max(b));
        let worst_con = contended.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!(worst_con > worst_iso, "{worst_con} !> {worst_iso}");
    }

    #[test]
    fn routed_comm_is_deterministic() {
        let p = Platform::trc();
        let (analysis, placement) = analysis_and_placement(80, 40);
        let topo = build_topology(&p, TopologyVariant::FatTree, 2);
        let node_map: Vec<usize> = (0..placement.n_nodes()).collect();
        let a = routed_task_comm(&topo, &analysis, &placement, &node_map, 152.0, 1.5, &[]);
        let b = routed_task_comm(&topo, &analysis, &placement, &node_map, 152.0, 1.5, &[]);
        assert_eq!(a, b);
    }
}
