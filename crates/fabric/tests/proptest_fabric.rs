//! Property tests for topology routing and the fabric engine, in the
//! style of the PR 7 event-lane properties: seeded generation via
//! `rt::check`, replayable with `RT_CHECK_SEED`.

use hemocloud_fabric::{exchange, Flow, LinkRates, Topology};
use hemocloud_rt::rng::Rng;
use hemocloud_rt::{check, float};

/// Zero-latency links one case in four: `add_duplex` accepts them, and
/// they put `dt == 0` events between a flow's serializations.
fn rates(rng: &mut Rng) -> LinkRates {
    LinkRates {
        bandwidth_mb_s: rng.range_f64(100.0, 10_000.0),
        hop_latency_us: if rng.range_usize(0, 4) == 0 {
            0.0
        } else {
            rng.range_f64(0.1, 30.0)
        },
    }
}

/// Random topology of a random shape.
fn random_topology(rng: &mut Rng) -> Topology {
    let n_nodes = rng.range_usize(1, 24);
    match rng.range_usize(0, 3) {
        0 => Topology::placement_group(n_nodes, rates(rng)),
        1 => {
            let radix = 2 * rng.range_usize(1, 5);
            Topology::fat_tree(n_nodes, radix, rates(rng))
        }
        _ => {
            let racks = rng.range_usize(1, 6);
            let capacity = rng.range_f64(0.25, 2.0);
            Topology::spread(n_nodes, racks, capacity, rates(rng))
        }
    }
}

#[test]
fn routes_connect_endpoints_without_repeats() {
    check::run(
        "routes_connect_endpoints_without_repeats",
        check::Config::cases(16),
        |rng| {
            let topo = random_topology(rng);
            let links = topo.links();
            for a in 0..topo.n_nodes() {
                for b in 0..topo.n_nodes() {
                    let route = topo.get_route(a, b);
                    if a == b {
                        assert!(route.is_empty(), "{}: self-route not empty", topo.name());
                        continue;
                    }
                    assert!(!route.is_empty(), "{}: {a}->{b} unconnected", topo.name());
                    assert_eq!(links[route[0]].from, a, "{}: route must leave src", topo.name());
                    assert_eq!(
                        links[*route.last().unwrap()].to,
                        b,
                        "{}: route must reach dst",
                        topo.name()
                    );
                    for w in route.windows(2) {
                        assert_eq!(
                            links[w[0]].to, links[w[1]].from,
                            "{}: route must chain hop-to-hop",
                            topo.name()
                        );
                    }
                    let mut seen = std::collections::BTreeSet::new();
                    for &l in route {
                        assert!(seen.insert(l), "{}: repeated link on route", topo.name());
                    }
                }
            }
        },
    );
}

#[test]
fn route_lengths_are_symmetric() {
    check::run(
        "route_lengths_are_symmetric",
        check::Config::cases(16),
        |rng| {
            let topo = random_topology(rng);
            for a in 0..topo.n_nodes() {
                for b in 0..topo.n_nodes() {
                    assert_eq!(
                        topo.get_route(a, b).len(),
                        topo.get_route(b, a).len(),
                        "{}: asymmetric route length {a}<->{b}",
                        topo.name()
                    );
                }
            }
        },
    );
}

/// Each flow's delivery time with nothing else on the fabric: every hop's
/// latency, then its payload at that hop's full bandwidth, added in route
/// order — the sum the engine's events add for a lone flow.
fn zero_load_s(topo: &Topology, flow: &Flow) -> f64 {
    let links = topo.links();
    topo.get_route(flow.src, flow.dst).iter().fold(0.0, |t, &l| {
        t + links[l].latency_s() + flow.bytes / links[l].bytes_per_s()
    })
}

fn random_flows(rng: &mut Rng, n_nodes: usize, max: usize) -> Vec<Flow> {
    (0..rng.range_usize(0, max))
        .map(|i| Flow {
            src: rng.range_usize(0, n_nodes),
            dst: rng.range_usize(0, n_nodes),
            bytes: match rng.range_usize(0, 4) {
                0 => 0.0,
                1 => rng.range_usize(0, 1 << 22) as f64,
                _ => rng.range_f64(0.0, 4.0e6),
            },
            tag: i as u64,
        })
        .collect()
}

/// Every flow walks its whole route: alone, it delivers at exactly its
/// route's zero-load time; in a crowd, never earlier, and a node-local
/// flow at 0. A skipped hop or a flow that is never delivered (its time
/// stays 0) fails one or the other. In a crowd the same seconds are
/// added as more, smaller steps (every other flow's events split them),
/// so the sum may round a few ULPs below the zero-load one: over 20,000
/// cases 1 at most for the per-link pass that runs each link to
/// completion in route order (as for the network-wide instant loop it
/// replaced; 13 for the class-stepping loop before that), bounded here
/// at 64 — far below the hop latency or payload time a skipped hop would
/// remove. The crowd reruns bit for bit.
#[test]
fn exchange_delivers_every_flow_and_is_deterministic() {
    check::run(
        "exchange_delivers_every_flow_and_is_deterministic",
        check::Config::cases(32),
        |rng| {
            let topo = random_topology(rng);
            let flows = random_flows(rng, topo.n_nodes(), 48);
            for f in &flows {
                let alone = exchange(&topo, std::slice::from_ref(f))[0];
                assert_eq!(
                    alone.to_bits(),
                    zero_load_s(&topo, f).to_bits(),
                    "{}: {f:?} alone",
                    topo.name()
                );
            }
            let crowd = exchange(&topo, &flows);
            assert_eq!(crowd.len(), flows.len());
            for (f, &d) in flows.iter().zip(&crowd) {
                if f.src == f.dst {
                    assert_eq!(d, 0.0, "{}: a node-local flow touches no link", topo.name());
                    continue;
                }
                let floor = zero_load_s(&topo, f);
                assert!(
                    d.is_finite() && (d >= floor || float::approx_eq_ulps(d, floor, 64)),
                    "{}: {f:?} delivered at {d}, before its zero-load {floor}",
                    topo.name()
                );
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&crowd), bits(&exchange(&topo, &flows)));
        },
    );
}

/// The property per-set contention pricing rests on: an exchange's
/// per-flow outcome does not depend on where the flow sits in the list.
#[test]
fn exchange_is_permutation_equivariant_bitwise() {
    check::run(
        "exchange_is_permutation_equivariant_bitwise",
        check::Config::cases(32),
        |rng| {
            let topo = random_topology(rng);
            // `src == dst` happens by chance (always on one node).
            let mut flows: Vec<Flow> = Vec::new();
            for flow in random_flows(rng, topo.n_nodes(), 48) {
                flows.push(flow);
                if rng.range_usize(0, 4) == 0 {
                    flows.push(flow); // exact duplicate: ties on every event
                }
            }
            // Fisher-Yates: `perm[i]` is where input flow `i` goes.
            let mut perm: Vec<usize> = (0..flows.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.range_usize(0, i + 1));
            }
            let mut shuffled = flows.clone();
            for (i, &to) in perm.iter().enumerate() {
                shuffled[to] = flows[i];
            }

            let a = exchange(&topo, &flows);
            let b = exchange(&topo, &shuffled);
            for (i, &to) in perm.iter().enumerate() {
                assert_eq!(
                    a[i].to_bits(),
                    b[to].to_bits(),
                    "{}: flow {i} delivered at {} in place, {} at position {to}",
                    topo.name(),
                    a[i],
                    b[to]
                );
            }
        },
    );
}

#[test]
fn extra_tenants_never_speed_up_a_lone_flow_pair_on_shared_trunks() {
    // Focused monotonicity check on the contention surface the demo
    // uses: a spread topology where a second tenant's cross-rack flows
    // share the victim's trunk links.
    check::run(
        "extra_tenants_never_speed_up_a_lone_flow_pair_on_shared_trunks",
        check::Config::cases(16),
        |rng| {
            let n_nodes = 4;
            let topo = Topology::spread(n_nodes, 2, rng.range_f64(0.25, 1.5), rates(rng));
            let b = rng.range_usize(1, 1 << 22) as f64;
            let victim = [
                Flow { src: 0, dst: 1, bytes: b, tag: 0 },
                Flow { src: 1, dst: 0, bytes: b, tag: 1 },
            ];
            let isolated = exchange(&topo, &victim);
            let mut crowded = victim.to_vec();
            for i in 0..rng.range_usize(1, 4) {
                crowded.push(Flow {
                    src: 2,
                    dst: 3,
                    bytes: rng.range_usize(1, 1 << 22) as f64,
                    tag: 10 + i as u64,
                });
            }
            let contended = exchange(&topo, &crowded);
            for i in 0..victim.len() {
                // Extra events subdivide the remaining-bytes arithmetic
                // differently, so a flow untouched by the tenants can
                // drift by a few ULPs — anything beyond that would be a
                // genuine (impossible) speedup.
                assert!(
                    contended[i] >= isolated[i]
                        || float::approx_eq_ulps(contended[i], isolated[i], 8),
                    "tenant traffic sped up the victim: {} < {}",
                    contended[i],
                    isolated[i]
                );
            }
        },
    );
}
