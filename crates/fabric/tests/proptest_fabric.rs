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

#[test]
fn exchange_conserves_bytes_and_is_deterministic() {
    check::run(
        "exchange_conserves_bytes_and_is_deterministic",
        check::Config::cases(16),
        |rng| {
            let topo = random_topology(rng);
            let n = topo.n_nodes();
            let n_flows = rng.range_usize(0, 40);
            // Integral byte payloads so float sums are exact.
            let flows: Vec<Flow> = (0..n_flows)
                .map(|i| Flow {
                    src: rng.range_usize(0, n),
                    dst: rng.range_usize(0, n),
                    bytes: rng.range_usize(0, 1 << 22) as f64,
                    tag: i as u64,
                })
                .collect();
            let out = exchange(&topo, &flows);

            // Delivered bytes across links sum exactly to the injected
            // internode bytes (the Eq. 9 cross-check shape).
            let injected: f64 = flows
                .iter()
                .filter(|f| f.src != f.dst)
                .map(|f| f.bytes)
                .sum();
            assert_eq!(out.link_delivered_bytes.iter().sum::<f64>(), injected);

            // Forwarded bytes per link match the route table exactly.
            let mut expect = vec![0.0; topo.links().len()];
            for f in &flows {
                for &l in topo.get_route(f.src, f.dst) {
                    expect[l] += f.bytes;
                }
            }
            assert_eq!(out.link_forwarded_bytes, expect);

            // Deliveries are finite, non-negative, and bounded by span.
            for &d in &out.delivery_s {
                assert!(d.is_finite() && d >= 0.0 && d <= out.span_s);
            }

            // Bit-identical on rerun.
            assert_eq!(out, exchange(&topo, &flows));
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
            let n = topo.n_nodes();
            let integral = rng.next_bool();
            let mut flows: Vec<Flow> = Vec::new();
            for _ in 0..rng.range_usize(0, 48) {
                let bytes = match rng.range_usize(0, 8) {
                    0 => 0.0,
                    _ if integral => rng.range_usize(0, 1 << 22) as f64,
                    _ => rng.range_f64(0.0, 4.0e6),
                };
                // `src == dst` happens by chance (always on one node).
                let flow = Flow {
                    src: rng.range_usize(0, n),
                    dst: rng.range_usize(0, n),
                    bytes,
                    tag: flows.len() as u64,
                };
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
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            for (i, &to) in perm.iter().enumerate() {
                assert_eq!(
                    a.delivery_s[i].to_bits(),
                    b.delivery_s[to].to_bits(),
                    "{}: flow {i} delivered at {} in place, {} at position {to}",
                    topo.name(),
                    a.delivery_s[i],
                    b.delivery_s[to]
                );
            }
            assert_eq!(bits(&a.link_busy_s), bits(&b.link_busy_s), "{}", topo.name());
            assert_eq!(a.span_s.to_bits(), b.span_s.to_bits());
            if integral {
                assert_eq!(a.link_forwarded_bytes, b.link_forwarded_bytes);
                assert_eq!(a.link_delivered_bytes, b.link_delivered_bytes);
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
                    contended.delivery_s[i] >= isolated.delivery_s[i]
                        || float::approx_eq_ulps(contended.delivery_s[i], isolated.delivery_s[i], 8),
                    "tenant traffic sped up the victim: {} < {}",
                    contended.delivery_s[i],
                    isolated.delivery_s[i]
                );
            }
        },
    );
}
