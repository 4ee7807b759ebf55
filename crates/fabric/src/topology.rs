//! Interconnect topologies: explicit node/switch graphs with per-link
//! bandwidth and precomputed routes.
//!
//! A [`Topology`] is a directed multigraph over *vertices* (compute nodes
//! first, then switches) whose edges are [`Link`]s, plus a route table:
//! `get_route(from, to)` returns the ordered list of link ids a message
//! traverses from node `from` to node `to`. Routes are precomputed at
//! construction (node counts are pool-sized, ≤ a few dozen), so route
//! lookup is allocation-free and the fabric engine can borrow routes for
//! the whole exchange.
//!
//! It is one concrete struct; the shapes differ only in how they are
//! built. Three constructors cover the paper's platforms:
//!
//! * [`Topology::fat_tree`] — the TRC InfiniBand fabric: a two-tier k-ary
//!   Clos with configurable radix, full bisection (every leaf has as many
//!   up-ports as down-ports), deterministic spine selection.
//! * [`Topology::placement_group`] — the CSP "cluster placement group"
//!   guarantee: every node one hop from a single non-blocking switch.
//! * [`Topology::spread`] — CSP spread placement: consecutive node ids
//!   scatter round-robin across racks, and all cross-rack traffic
//!   squeezes through one trunk link pair per rack whose capacity is a
//!   configurable fraction of node bandwidth (the oversubscription).
//!
//! All route tables are symmetric in length (`|route(a,b)| ==
//! |route(b,a)|`), loop-free and route-ordered, and empty for `a == b`.
//! Route-ordered: every constructor lays up/down routes (node port up,
//! then switch tiers, then node port down), so the links have an order,
//! [`Topology::link_order`], in which every link comes after each link
//! that precedes it on any route. The fabric engine runs each link to
//! completion in that order; a route table whose consecutive hops close
//! a cycle of links has no such order and panics at construction,
//! naming the cycle.

/// Index of a compute node (0-based, `< n_nodes`).
pub type NodeId = usize;

/// Index into [`Topology::links`].
pub type LinkId = usize;

/// Bandwidth/latency to assign to node-facing links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRates {
    /// Per-link bandwidth, MB/s (== bytes/µs).
    pub bandwidth_mb_s: f64,
    /// Per-hop wire latency, µs.
    pub hop_latency_us: f64,
}

/// One directed edge of the interconnect graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Source vertex (node id, or switch vertex id `>= n_nodes`).
    pub from: usize,
    /// Destination vertex.
    pub to: usize,
    /// Serialization bandwidth of this link, MB/s.
    pub bandwidth_mb_s: f64,
    /// Propagation latency of this hop, µs.
    pub latency_us: f64,
}

impl Link {
    /// Bandwidth in bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        self.bandwidth_mb_s * 1e6
    }

    /// Latency in seconds.
    pub fn latency_s(&self) -> f64 {
        self.latency_us * 1e-6
    }
}

/// The two directions of one cable, as [`Topology::add_duplex`] laid
/// them: `(a → b, b → a)`.
type Duplex = (LinkId, LinkId);

/// A routed interconnect: links plus a dense per-node-pair route table.
#[derive(Debug, Clone)]
pub struct Topology {
    name: &'static str,
    n_nodes: usize,
    links: Vec<Link>,
    /// Route for `(a, b)` at `a * n_nodes + b`.
    routes: Vec<Vec<LinkId>>,
    /// Every link, each after every link that precedes it on a route.
    order: Vec<LinkId>,
}

impl Topology {
    /// k-ary fat tree (folded Clos) of two tiers, full bisection, all
    /// links at `rates`.
    ///
    /// With radix `k` (≥ 2), each leaf switch serves `k/2` nodes and
    /// carries `k/2` uplinks, one to each spine. Spine selection for a
    /// pair is deterministic and symmetric, `(leaf_a + leaf_b) mod k/2`,
    /// so route lengths are symmetric and the same pair always shares the
    /// same path — the deterministic analogue of static routing.
    pub fn fat_tree(n_nodes: usize, radix: usize, rates: LinkRates) -> Self {
        assert!(radix >= 2, "fat-tree radix must be >= 2");
        let width = (radix / 2).max(1); // nodes per leaf == spines
        let n_leaves = n_nodes.div_ceil(width);
        let (bw, lat) = (rates.bandwidth_mb_s, rates.hop_latency_us);
        let leaf_v = |l: usize| n_nodes + l;
        let spine_v = |s: usize| n_nodes + n_leaves + s;

        let mut t = Self::unwired("fat-tree", n_nodes);
        let ports: Vec<Duplex> = (0..n_nodes)
            .map(|n| t.add_duplex(n, leaf_v(n / width), bw, lat))
            .collect();
        let uplinks: Vec<Vec<Duplex>> = (0..n_leaves)
            .map(|l| {
                (0..width)
                    .map(|s| t.add_duplex(leaf_v(l), spine_v(s), bw, lat))
                    .collect()
            })
            .collect();
        t.set_routes(|a, b| {
            let (la, lb) = (a / width, b / width);
            if la == lb {
                vec![ports[a].0, ports[b].1]
            } else {
                let s = (la + lb) % width;
                vec![ports[a].0, uplinks[la][s].0, uplinks[lb][s].1, ports[b].1]
            }
        });
        t
    }

    /// One non-blocking switch: every node pair is exactly one switch
    /// hop apart and only the endpoints' own up/down links are ever
    /// shared.
    pub fn placement_group(n_nodes: usize, rates: LinkRates) -> Self {
        let switch = n_nodes;
        let mut t = Self::unwired("placement-group", n_nodes);
        let ports: Vec<Duplex> = (0..n_nodes)
            .map(|n| t.add_duplex(n, switch, rates.bandwidth_mb_s, rates.hop_latency_us))
            .collect();
        t.set_routes(|a, b| vec![ports[a].0, ports[b].1]);
        t
    }

    /// Spread placement: `n_racks` racks (≥ 1) behind oversubscribed
    /// trunks.
    ///
    /// Node `n` lives in rack `n % n_racks` — consecutive node ids
    /// scatter across racks, which is exactly the availability-first
    /// placement a cloud "spread" policy produces. Same-rack traffic
    /// crosses only the rack's top-of-rack switch; cross-rack traffic
    /// additionally traverses the source rack's trunk uplink and the
    /// destination rack's trunk downlink, each running at
    /// `trunk_capacity` (> 0) times node bandwidth. Every cross-rack flow
    /// in the rack shares those two trunks — the oversubscription that
    /// makes spread placement cheap and slow.
    pub fn spread(n_nodes: usize, n_racks: usize, trunk_capacity: f64, rates: LinkRates) -> Self {
        assert!(n_racks >= 1, "spread needs at least one rack");
        assert!(
            trunk_capacity > 0.0 && trunk_capacity.is_finite(),
            "trunk capacity must be positive and finite"
        );
        let (bw, lat) = (rates.bandwidth_mb_s, rates.hop_latency_us);
        let tor_v = |r: usize| n_nodes + r;
        let core = n_nodes + n_racks;

        let mut t = Self::unwired("spread", n_nodes);
        let ports: Vec<Duplex> = (0..n_nodes)
            .map(|n| t.add_duplex(n, tor_v(n % n_racks), bw, lat))
            .collect();
        let trunk_bw = rates.bandwidth_mb_s * trunk_capacity;
        let trunks: Vec<Duplex> = (0..n_racks)
            .map(|r| t.add_duplex(tor_v(r), core, trunk_bw, lat))
            .collect();
        t.set_routes(|a, b| {
            let (ra, rb) = (a % n_racks, b % n_racks);
            if ra == rb {
                vec![ports[a].0, ports[b].1]
            } else {
                vec![ports[a].0, trunks[ra].0, trunks[rb].1, ports[b].1]
            }
        });
        t
    }

    /// Number of compute nodes attached to the fabric.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Every directed link in the graph, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Ordered links a message traverses from node `from` to node `to`.
    /// Empty when `from == to` (intranode traffic never enters the
    /// fabric).
    pub fn get_route(&self, from: NodeId, to: NodeId) -> &[LinkId] {
        assert!(
            from < self.n_nodes && to < self.n_nodes,
            "node id out of range"
        );
        &self.routes[from * self.n_nodes + to]
    }

    /// Every link id once, each after every link that precedes it on
    /// some route: the order in which a link's arrivals are all known
    /// once the links before it have run (see the module docs).
    pub fn link_order(&self) -> &[LinkId] {
        &self.order
    }

    /// Name of the shape for reports: `"fat-tree"`, `"placement-group"`
    /// or `"spread"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `n_nodes` nodes, no links, every route empty: what each
    /// constructor starts from.
    fn unwired(name: &'static str, n_nodes: usize) -> Self {
        assert!(n_nodes >= 1, "topology needs at least one node");
        Self {
            name,
            n_nodes,
            links: Vec::new(),
            routes: vec![Vec::new(); n_nodes * n_nodes],
            order: Vec::new(),
        }
    }

    /// Lay one cable between vertices `a` and `b`: link `a → b`, then
    /// `b → a`, both at the given rates. Every constructor lays its links
    /// here, so this is the one check of their [`LinkRates`]: the fabric
    /// divides by a link's bandwidth and adds its latency.
    fn add_duplex(&mut self, a: usize, b: usize, bandwidth_mb_s: f64, latency_us: f64) -> Duplex {
        assert!(
            bandwidth_mb_s > 0.0 && bandwidth_mb_s.is_finite(),
            "bandwidth_mb_s must be positive and finite, got {bandwidth_mb_s}"
        );
        assert!(
            latency_us >= 0.0 && latency_us.is_finite(),
            "hop_latency_us must be non-negative and finite, got {latency_us}"
        );
        let id = self.links.len();
        for (from, to) in [(a, b), (b, a)] {
            self.links.push(Link {
                from,
                to,
                bandwidth_mb_s,
                latency_us,
            });
        }
        (id, id + 1)
    }

    /// Fill the route table from `route(a, b)` for every ordered pair of
    /// distinct nodes, then order the links by depth over the routes'
    /// consecutive hops. Panics naming a cycle if there is one.
    fn set_routes(&mut self, route: impl Fn(NodeId, NodeId) -> Vec<LinkId>) {
        let n = self.n_nodes;
        for a in 0..n {
            for b in (0..n).filter(|&b| b != a) {
                self.routes[a * n + b] = route(a, b);
            }
        }
        // A link's depth: the most hops before it on any route. Relaxing
        // every route's hops until no depth rises settles it (in two
        // passes for up/down routes); on a cycle of links depths rise
        // without end, and walking back from one past `n_links` along
        // the hops that raised it lands on the cycle.
        let n_links = self.links.len();
        let (mut depth, mut raised_by) = (vec![0; n_links], vec![0; n_links]);
        loop {
            let mut raised = None;
            for hop in self.routes.iter().flat_map(|r| r.windows(2)) {
                if depth[hop[1]] <= depth[hop[0]] {
                    depth[hop[1]] = depth[hop[0]] + 1;
                    raised_by[hop[1]] = hop[0];
                    raised = Some(hop[1]);
                }
            }
            match raised {
                None => break,
                Some(mut l) if depth[l] > n_links => {
                    for _ in 0..n_links {
                        l = raised_by[l];
                    }
                    let mut cycle = vec![l, raised_by[l]];
                    while cycle[cycle.len() - 1] != l {
                        cycle.push(raised_by[cycle[cycle.len() - 1]]);
                    }
                    cycle.reverse();
                    panic!("{}: route table has a link cycle {cycle:?}", self.name);
                }
                Some(_) => {}
            }
        }
        let mut order: Vec<LinkId> = (0..n_links).collect();
        order.sort_by_key(|&l| depth[l]);
        self.order = order;
    }
}

#[cfg(test)]
impl Topology {
    /// A topology laid by hand: `cables` as `(a, b, bandwidth_mb_s,
    /// hop_latency_us)`, each laid by [`Topology::add_duplex`] (cable `i`
    /// is links `2i` and `2i + 1`), routed by `route`.
    pub(crate) fn hand_laid(
        n_nodes: usize,
        cables: &[(usize, usize, f64, f64)],
        route: impl Fn(NodeId, NodeId) -> Vec<LinkId>,
    ) -> Self {
        let mut t = Self::unwired("hand-laid", n_nodes);
        for &(a, b, bandwidth_mb_s, latency_us) in cables {
            t.add_duplex(a, b, bandwidth_mb_s, latency_us);
        }
        t.set_routes(route);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATES: LinkRates = LinkRates {
        bandwidth_mb_s: 1000.0,
        hop_latency_us: 1.0,
    };

    /// Route chains vertex-to-vertex from `a` to `b` with no repeats.
    fn check_route(topo: &Topology, a: NodeId, b: NodeId) {
        let route = topo.get_route(a, b);
        if a == b {
            assert!(route.is_empty(), "self-route must be empty");
            return;
        }
        assert!(!route.is_empty(), "distinct nodes must be connected");
        let links = topo.links();
        assert_eq!(links[route[0]].from, a);
        assert_eq!(links[*route.last().unwrap()].to, b);
        for w in route.windows(2) {
            assert_eq!(links[w[0]].to, links[w[1]].from, "route must chain");
        }
        let mut seen = std::collections::BTreeSet::new();
        for &l in route {
            assert!(seen.insert(l), "route repeats link {l}");
        }
        assert_eq!(
            route.len(),
            topo.get_route(b, a).len(),
            "route lengths must be symmetric"
        );
    }

    #[test]
    fn placement_group_is_one_hop() {
        let t = Topology::placement_group(5, RATES);
        for a in 0..5 {
            for b in 0..5 {
                check_route(&t, a, b);
                if a != b {
                    assert_eq!(t.get_route(a, b).len(), 2);
                }
            }
        }
        assert_eq!(t.links().len(), 10);
        assert_eq!(t.name(), "placement-group");
    }

    #[test]
    fn fat_tree_two_level_route_shapes() {
        // radix 4 → 2 nodes/leaf, 2 spines.
        let t = Topology::fat_tree(6, 4, RATES);
        for a in 0..6 {
            for b in 0..6 {
                check_route(&t, a, b);
            }
        }
        assert_eq!(t.get_route(0, 1).len(), 2, "same leaf");
        assert_eq!(t.get_route(0, 2).len(), 4, "cross leaf via spine");
        assert_eq!(t.name(), "fat-tree");
    }

    #[test]
    fn spread_scatters_consecutive_nodes_across_racks() {
        let t = Topology::spread(4, 2, 1.0, RATES);
        for a in 0..4 {
            for b in 0..4 {
                check_route(&t, a, b);
            }
        }
        // Consecutive ids land in different racks → cross-rack 4-link route.
        assert_eq!(t.get_route(0, 1).len(), 4);
        assert_eq!(t.get_route(0, 2).len(), 2);
        // Two distinct cross-rack pairs share the same trunk links — the
        // contention surface the demo leans on.
        let r01 = t.get_route(0, 1);
        let r23 = t.get_route(2, 3);
        assert_eq!(r01[1], r23[1], "shared trunk uplink");
        assert_eq!(r01[2], r23[2], "shared trunk downlink");
        assert_eq!(t.name(), "spread");
    }

    #[test]
    fn spread_trunk_capacity_scales_bandwidth() {
        let t = Topology::spread(4, 2, 0.5, RATES);
        let trunk = t.get_route(0, 1)[1];
        assert_eq!(t.links()[trunk].bandwidth_mb_s, 500.0);
        let node_link = t.get_route(0, 1)[0];
        assert_eq!(t.links()[node_link].bandwidth_mb_s, 1000.0);
    }

    /// Every constructor refuses every bad rate, naming the field and
    /// the value.
    #[test]
    fn bad_link_rates_are_rejected_naming_the_field() {
        type Build = fn(LinkRates) -> Topology;
        let builds: [(&str, Build); 3] = [
            ("fat_tree", |r| Topology::fat_tree(4, 4, r)),
            ("placement_group", |r| Topology::placement_group(4, r)),
            ("spread", |r| Topology::spread(4, 2, 0.5, r)),
        ];
        let mut cases = Vec::new();
        for b in [0.0, -0.0, -1000.0, f64::NAN, f64::INFINITY] {
            let mut rates = RATES;
            rates.bandwidth_mb_s = b;
            cases.push(("bandwidth_mb_s", b, rates));
        }
        for l in [-1.0, f64::NAN, f64::INFINITY] {
            let mut rates = RATES;
            rates.hop_latency_us = l;
            cases.push(("hop_latency_us", l, rates));
        }
        for (field, value, rates) in cases {
            for (name, build) in builds {
                let err = std::panic::catch_unwind(|| build(rates))
                    .expect_err(&format!("{name} accepted {field} = {value}"));
                let msg = err
                    .downcast_ref::<String>()
                    .unwrap_or_else(|| panic!("{name}: panic payload is not a message"));
                assert!(
                    msg.starts_with(field) && msg.ends_with(&format!("got {value}")),
                    "{name}, {field} = {value}: {msg}"
                );
            }
        }
        // Zero latency is a rate, not an error.
        let mut zero_latency = RATES;
        zero_latency.hop_latency_us = 0.0;
        for (_, build) in builds {
            let _ = build(zero_latency);
        }
    }

    /// Each route's links stand in ascending positions of the link
    /// order, which holds every link once.
    fn assert_route_ordered(topo: &Topology) {
        let mut position = vec![usize::MAX; topo.links().len()];
        for (i, &l) in topo.link_order().iter().enumerate() {
            assert_eq!(
                position[l],
                usize::MAX,
                "{}: link {l} ordered twice",
                topo.name()
            );
            position[l] = i;
        }
        assert!(
            position.iter().all(|&p| p != usize::MAX),
            "{}: a link is unordered",
            topo.name()
        );
        for a in 0..topo.n_nodes() {
            for b in 0..topo.n_nodes() {
                let route = topo.get_route(a, b);
                assert!(
                    route.windows(2).all(|w| position[w[0]] < position[w[1]]),
                    "{} on {} nodes: route {a} -> {b} {route:?} descends in the link order",
                    topo.name(),
                    topo.n_nodes()
                );
            }
        }
    }

    /// Every constructor, 1..=64 nodes. Radix 16 and `(n / 2).max(2)`
    /// racks are `cluster::topology::build_topology`'s shapes, so n = 16
    /// and n = 32 lay exactly `campaign_routed`'s two pools (CSP-2 EC
    /// fat tree ×16, CSP-2 small spread ×32).
    #[test]
    fn every_constructor_orders_each_route_ascending() {
        for n in 1..=64 {
            assert_route_ordered(&Topology::placement_group(n, RATES));
            for radix in [2, 4, 6, 8, 16] {
                assert_route_ordered(&Topology::fat_tree(n, radix, RATES));
            }
            for racks in [1, 2, 3, 5, (n / 2).max(2)] {
                assert_route_ordered(&Topology::spread(n, racks, 0.5, RATES));
            }
        }
    }

    /// Three switches in a ring, every route taken clockwise: each ring
    /// link precedes the next one on some route, 6 -> 8 -> 10 -> 6 (the
    /// textbook cyclic channel dependency), so no link order exists.
    #[test]
    #[should_panic(expected = "hand-laid: route table has a link cycle [8, 10, 6, 8]")]
    fn a_route_table_with_a_link_cycle_panics_naming_it() {
        // Node `i` hangs off switch `3 + i` (links 2i up, 2i + 1 down);
        // the clockwise ring links are 6, 8 and 10.
        let cables =
            [(0, 3), (1, 4), (2, 5), (3, 4), (4, 5), (5, 3)].map(|(a, b)| (a, b, 1000.0, 1.0));
        let _ = Topology::hand_laid(3, &cables, |a, b| {
            let mut route = vec![2 * a];
            route.extend((a..a + (b + 3 - a) % 3).map(|s| [6, 8, 10][s % 3]));
            route.push(2 * b + 1);
            route
        });
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Topology::placement_group(0, RATES);
    }
}
