//! Deterministic discrete-time store-and-forward message fabric.
//!
//! [`exchange`] simulates one exchange phase: every [`Flow`] (in
//! practice one directed halo message from the Eq. 9 message graph)
//! traverses its route hop-by-hop. On each hop a flow first pays the
//! link's propagation latency, then serializes its full payload at that
//! link's bandwidth. A link serializing `k` flows at once gives each a
//! fair share `bandwidth / k`; shares are recomputed every time any flow
//! anywhere finishes a phase, so contention is piecewise-constant
//! max-min fair sharing per link.
//!
//! Determinism: the engine is pure sequential float arithmetic over the
//! input order — no clocks, no randomness, no hashing. The event loop
//! advances to the earliest phase completion; simultaneous completions
//! are resolved in `(time, link, flow seq)` order, where `seq` is the
//! flow's index in the input slice. The same flow list against the same
//! topology is bit-identical on every run, worker count, and shard
//! count.
//!
//! Flow classes: flows with the same route (the same `src` and `dst`)
//! and the same sanitized payload bits start in the same state, and at
//! every event each flow reads only its own `(hop, phase, rem)`, the step
//! `dt` and its link's integer occupancy `occ` — so they follow one
//! bit-identical trajectory. The engine therefore groups the flows once
//! into *classes* (members in ascending seq) and advances one state per
//! class; a class starting or finishing on a link moves that link's
//! `occ` by its multiplicity, the integer the flows would have reached
//! one at a time. Every output keeps its bits: a completion still
//! expands to one `(link, seq)` entry per member, sorted, so each
//! per-link byte sum adds the same floats in the same order as a
//! per-flow engine would (which matters for non-integral bytes), and
//! each member's `delivery_s` is set on its own. Live classes sit in two
//! lists — those paying a hop latency (`dt` candidate: the seconds left)
//! and those serializing (`rem * occ / bandwidth`, computed once per
//! event and reused by the advance) — and busy time is charged over a
//! list of the links with `occ > 0` only; each `busy[l] += dt` is
//! independent of the others, so that list's order is free. The
//! `#[cfg(test)]` per-flow engine this replaced is kept in the tests and
//! compared by `to_bits` on every output.
//!
//! Permutation equivariance: `delivery_s` follows its flow under any
//! reordering of the input — permute the flows by `π` and
//! `delivery_s[π(i)]` has the bits `delivery_s[i]` had. Classes are
//! keyed by a flow's contents, not its position, so a permutation maps
//! each class onto one with the same route, payload and multiplicity;
//! the step `dt` is a `min` over the live classes (order-free); each
//! class's advance reads only its own state, `dt` and its link's `occ`;
//! and a completion batch only increments or decrements the integer
//! `occ` and never reads it, so the `(link, seq)` order inside a batch
//! cannot reach a float. The same holds for `link_busy_s` and `span_s`;
//! the per-link byte sums add floats in batch order, so they are
//! order-free only for integral bytes. This is what lets a caller price
//! a *set* of co-scheduled jobs with one exchange, whichever member asks
//! and however the members are ordered
//! (`cluster::topology::routed_set_comm`), and is pinned by
//! `tests/proptest_fabric.rs`.
//!
//! Byte accounting is exact: a flow's bytes are added to a link's
//! forwarded counter only when its serialization on that link completes,
//! and to the final link's delivered counter on delivery — so with
//! integral byte values, `sum(link_delivered_bytes) ==
//! sum(flow.bytes)` holds exactly (the Eq. 9 cross-check).

use std::ops::Range;

use crate::topology::{Link, LinkId, NodeId, Topology};

/// One message to push through the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload bytes. Non-finite or negative values are clamped to 0
    /// (debug builds assert first) — same hygiene as
    /// `cluster::network::message_time_s`.
    pub bytes: f64,
    /// Caller-defined label (job/task ids); the fabric never reads it.
    pub tag: u64,
}

/// Result of one [`exchange`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeOutcome {
    /// Delivery time of each flow, seconds, in input order. Flows with
    /// `src == dst` deliver at 0 without touching any link.
    pub delivery_s: Vec<f64>,
    /// Bytes that finished serializing on each link (every hop counts).
    pub link_forwarded_bytes: Vec<f64>,
    /// Bytes delivered by each link as the *final* hop of a route.
    pub link_delivered_bytes: Vec<f64>,
    /// Seconds each link spent serializing at least one flow.
    pub link_busy_s: Vec<f64>,
    /// Completion time of the whole exchange (max delivery).
    pub span_s: f64,
}

/// The flows sharing one route and one sanitized payload, in flight
/// together (see the module docs).
#[derive(Debug, Clone)]
struct Class<'t> {
    route: &'t [LinkId],
    /// Index of the current hop in `route`; `link == route[hop]`.
    hop: usize,
    link: LinkId,
    /// Seconds of latency, or bytes of payload, left on the current hop.
    rem: f64,
    bytes: f64,
    /// The members' seqs, ascending, as a range of the member table.
    members: Range<usize>,
}

impl Class<'_> {
    /// How many flows the class stands for: what it adds to `occ`.
    fn multiplicity(&self) -> u32 {
        self.members.len() as u32
    }
}

/// Sanitize every flow's payload and group the flows that leave the node
/// into classes: the classes, each starting to pay its first hop's
/// latency, and the member table their `members` ranges index.
fn classify<'t>(topo: &'t Topology, flows: &[Flow]) -> (Vec<Class<'t>>, Vec<usize>) {
    let n = topo.n_nodes();
    // (src, dst, payload bits, seq): sorting groups a class and orders
    // its members by seq.
    let mut keyed: Vec<(NodeId, NodeId, u64, usize)> = Vec::with_capacity(flows.len());
    for (i, f) in flows.iter().enumerate() {
        assert!(
            f.src < n && f.dst < n,
            "flow {i} endpoint out of range: {} -> {} on a {n}-node topology",
            f.src,
            f.dst
        );
        debug_assert!(
            f.bytes.is_finite() && f.bytes >= 0.0,
            "flow bytes must be finite and non-negative, got {}",
            f.bytes
        );
        let b = if f.bytes.is_finite() { f.bytes.max(0.0) } else { 0.0 };
        // Flows on empty routes never enter the fabric: delivered at 0.
        if !topo.get_route(f.src, f.dst).is_empty() {
            keyed.push((f.src, f.dst, b.to_bits(), i));
        }
    }
    keyed.sort_unstable();

    let links = topo.links();
    let mut classes = Vec::new();
    let mut start = 0;
    for run in keyed.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
        let (src, dst, bits, _) = run[0];
        let route = topo.get_route(src, dst);
        classes.push(Class {
            route,
            hop: 0,
            link: route[0],
            rem: links[route[0]].latency_s(),
            bytes: f64::from_bits(bits),
            members: start..start + run.len(),
        });
        start += run.len();
    }
    (classes, keyed.into_iter().map(|k| k.3).collect())
}

/// Run one exchange of `flows` over `topo`. See the module docs for the
/// contention and determinism rules.
pub fn exchange(topo: &Topology, flows: &[Flow]) -> ExchangeOutcome {
    let links = topo.links();
    let n_links = links.len();
    let bytes_per_s: Vec<f64> = links.iter().map(Link::bytes_per_s).collect();
    let mut forwarded = vec![0.0; n_links];
    let mut delivered = vec![0.0; n_links];
    let mut busy = vec![0.0; n_links];
    let mut delivery = vec![0.0; flows.len()];

    let (mut classes, members) = classify(topo, flows);
    // Flows currently serializing per link (the fair-share divisor), and
    // the links where that is more than zero, in no particular order.
    let mut occ = vec![0u32; n_links];
    let mut occupied: Vec<LinkId> = Vec::new();
    // Live classes paying a hop latency, and serializing; `xfer_dt[k]`
    // is `serializing[k]`'s `dt` candidate this event. A class leaves
    // both in the event that delivers it.
    let mut in_latency: Vec<usize> = (0..classes.len()).collect();
    let mut serializing: Vec<usize> = Vec::new();
    let mut xfer_dt: Vec<f64> = Vec::new();
    let mut started: Vec<usize> = Vec::new();
    let mut finished: Vec<usize> = Vec::new();
    let mut completions: Vec<(LinkId, usize, usize)> = Vec::new();

    let mut t = 0.0f64;
    while !(in_latency.is_empty() && serializing.is_empty()) {
        // Earliest phase completion across all classes, under the shares
        // implied by the current occupancy.
        let mut dt = f64::INFINITY;
        for &c in &in_latency {
            if classes[c].rem < dt {
                dt = classes[c].rem;
            }
        }
        xfer_dt.clear();
        for &c in &serializing {
            let class = &classes[c];
            let cand = class.rem * occ[class.link] as f64 / bytes_per_s[class.link];
            xfer_dt.push(cand);
            if cand < dt {
                dt = cand;
            }
        }
        debug_assert!(dt.is_finite() && dt >= 0.0);

        // Charge busy time under the pre-advance occupancy.
        if dt > 0.0 {
            for &l in &occupied {
                busy[l] += dt;
            }
        }
        t += dt;

        // Advance every class; those whose phase ends leave their list.
        started.clear();
        in_latency.retain(|&c| {
            let class = &mut classes[c];
            let left = class.rem - dt;
            if class.rem == dt || left <= 0.0 {
                started.push(c);
                false
            } else {
                class.rem = left;
                true
            }
        });
        finished.clear();
        let mut cands = xfer_dt.iter();
        serializing.retain(|&c| {
            let class = &mut classes[c];
            let cand = *cands.next().expect("one candidate per serializing class");
            let share = bytes_per_s[class.link] / occ[class.link] as f64;
            let left = (class.rem - dt * share).max(0.0);
            if cand == dt || left <= 0.0 {
                finished.push(c);
                false
            } else {
                class.rem = left;
                true
            }
        });
        debug_assert!(
            !(started.is_empty() && finished.is_empty()),
            "fabric event loop must progress"
        );

        // Byte counters take each member's bytes in (link, seq) order, so
        // simultaneous events resolve in (time, link, seq) order.
        completions.clear();
        for &c in &finished {
            let class = &classes[c];
            completions.extend(
                members[class.members.clone()]
                    .iter()
                    .map(|&i| (class.link, i, c)),
            );
        }
        completions.sort_unstable();
        for &(link, _, c) in &completions {
            let class = &classes[c];
            forwarded[link] += class.bytes;
            if class.hop + 1 == class.route.len() {
                delivered[link] += class.bytes;
            }
        }

        // Finished serializing: leave the link, then deliver or start the
        // next hop's latency.
        let mut vacated = false;
        for &c in &finished {
            let class = &mut classes[c];
            occ[class.link] -= class.multiplicity();
            vacated |= occ[class.link] == 0;
            class.hop += 1;
            if class.hop == class.route.len() {
                for &i in &members[class.members.clone()] {
                    delivery[i] = t;
                }
            } else {
                class.link = class.route[class.hop];
                class.rem = links[class.link].latency_s();
                in_latency.push(c);
            }
        }
        if vacated {
            occupied.retain(|&l| occ[l] > 0);
        }
        // Wire latency paid: start serializing on this link. Vacated
        // links left `occupied` first, so none is listed twice.
        for &c in &started {
            let class = &mut classes[c];
            class.rem = class.bytes;
            if occ[class.link] == 0 {
                occupied.push(class.link);
            }
            occ[class.link] += class.multiplicity();
            serializing.push(c);
        }
    }

    let span_s = delivery.iter().fold(0.0f64, |a, &b| a.max(b));
    ExchangeOutcome {
        delivery_s: delivery,
        link_forwarded_bytes: forwarded,
        link_delivered_bytes: delivered,
        link_busy_s: busy,
        span_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkRates;
    use hemocloud_rt::check;
    use hemocloud_rt::rng::Rng;

    const RATES: LinkRates = LinkRates {
        bandwidth_mb_s: 1000.0, // 1e9 B/s
        hop_latency_us: 1.0,
    };

    fn flow(src: usize, dst: usize, bytes: f64) -> Flow {
        Flow {
            src,
            dst,
            bytes,
            tag: 0,
        }
    }

    /// Per-flow progress through its route.
    #[derive(Debug, Clone, Copy)]
    enum Phase {
        /// Paying the current hop's propagation latency (seconds left).
        Latency(f64),
        /// Serializing on the current hop's link (bytes left).
        Xfer(f64),
        Done,
    }

    /// The engine `exchange` ran before flows were grouped into classes,
    /// kept verbatim as the reference the class engine is compared
    /// against: every live flow visited twice per event, busy time
    /// charged by a walk over every link.
    fn reference_exchange(topo: &Topology, flows: &[Flow]) -> ExchangeOutcome {
        let links = topo.links();
        let n_links = links.len();
        let mut forwarded = vec![0.0; n_links];
        let mut delivered = vec![0.0; n_links];
        let mut busy = vec![0.0; n_links];
        let mut delivery = vec![0.0; flows.len()];

        // Resolve routes and sanitized payloads up front.
        let mut routes: Vec<&[LinkId]> = Vec::with_capacity(flows.len());
        let mut bytes: Vec<f64> = Vec::with_capacity(flows.len());
        for f in flows {
            assert!(
                f.src < topo.n_nodes() && f.dst < topo.n_nodes(),
                "flow endpoint out of range"
            );
            debug_assert!(
                f.bytes.is_finite() && f.bytes >= 0.0,
                "flow bytes must be finite and non-negative, got {}",
                f.bytes
            );
            let b = if f.bytes.is_finite() { f.bytes.max(0.0) } else { 0.0 };
            routes.push(topo.get_route(f.src, f.dst));
            bytes.push(b);
        }

        // hop index + phase per flow; flows on empty routes are born Done.
        let mut hop = vec![0usize; flows.len()];
        let mut phase: Vec<Phase> = routes
            .iter()
            .map(|r| {
                if r.is_empty() {
                    Phase::Done
                } else {
                    Phase::Latency(links[r[0]].latency_s())
                }
            })
            .collect();
        // Flows currently serializing per link (the fair-share divisor).
        let mut occ = vec![0u32; n_links];
        // Flows still in flight, ascending by seq; a flow leaves the list in
        // the event that delivers it, so no loop below ever meets `Done`.
        let mut live: Vec<usize> = (0..flows.len())
            .filter(|&i| !matches!(phase[i], Phase::Done))
            .collect();
        let mut completions: Vec<(LinkId, usize)> = Vec::new();

        let mut t = 0.0f64;
        while !live.is_empty() {
            // Earliest phase completion across all flows, under the shares
            // implied by the current occupancy.
            let mut dt = f64::INFINITY;
            for &i in &live {
                let cand = match phase[i] {
                    Phase::Done => unreachable!("delivered flow left in the live list"),
                    Phase::Latency(rem) => rem,
                    Phase::Xfer(rem) => {
                        let link = routes[i][hop[i]];
                        rem * occ[link] as f64 / links[link].bytes_per_s()
                    }
                };
                if cand < dt {
                    dt = cand;
                }
            }
            debug_assert!(dt.is_finite() && dt >= 0.0);

            // Charge busy time under the pre-advance occupancy.
            if dt > 0.0 {
                for (l, b) in busy.iter_mut().enumerate() {
                    if occ[l] > 0 {
                        *b += dt;
                    }
                }
            }
            t += dt;

            // Advance every flow; collect completions as (link, seq) so
            // simultaneous events resolve in (time, link, seq) order.
            completions.clear();
            for &i in &live {
                match phase[i] {
                    Phase::Done => unreachable!("delivered flow left in the live list"),
                    Phase::Latency(rem) => {
                        let left = rem - dt;
                        if rem == dt || left <= 0.0 {
                            completions.push((routes[i][hop[i]], i));
                        } else {
                            phase[i] = Phase::Latency(left);
                        }
                    }
                    Phase::Xfer(rem) => {
                        let link = routes[i][hop[i]];
                        let share = links[link].bytes_per_s() / occ[link] as f64;
                        let cand = rem * occ[link] as f64 / links[link].bytes_per_s();
                        let left = (rem - dt * share).max(0.0);
                        if cand == dt || left <= 0.0 {
                            completions.push((link, i));
                        } else {
                            phase[i] = Phase::Xfer(left);
                        }
                    }
                }
            }
            completions.sort_unstable();
            debug_assert!(!completions.is_empty(), "fabric event loop must progress");

            let mut delivered_any = false;
            for &(link, i) in &completions {
                match phase[i] {
                    Phase::Done => unreachable!(),
                    Phase::Latency(_) => {
                        // Wire latency paid: start serializing on this link.
                        phase[i] = Phase::Xfer(bytes[i]);
                        occ[link] += 1;
                    }
                    Phase::Xfer(_) => {
                        forwarded[link] += bytes[i];
                        occ[link] -= 1;
                        hop[i] += 1;
                        if hop[i] == routes[i].len() {
                            delivered[link] += bytes[i];
                            delivery[i] = t;
                            phase[i] = Phase::Done;
                            delivered_any = true;
                        } else {
                            phase[i] = Phase::Latency(links[routes[i][hop[i]]].latency_s());
                        }
                    }
                }
            }
            if delivered_any {
                live.retain(|&i| !matches!(phase[i], Phase::Done));
            }
        }

        let span_s = delivery.iter().fold(0.0f64, |a, &b| a.max(b));
        ExchangeOutcome {
            delivery_s: delivery,
            link_forwarded_bytes: forwarded,
            link_delivered_bytes: delivered,
            link_busy_s: busy,
            span_s,
        }
    }

    /// Every output of `a` and `b`, bit for bit.
    fn assert_same_bits(a: &ExchangeOutcome, b: &ExchangeOutcome, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&a.delivery_s),
            bits(&b.delivery_s),
            "{what}: delivery_s"
        );
        assert_eq!(
            bits(&a.link_forwarded_bytes),
            bits(&b.link_forwarded_bytes),
            "{what}: link_forwarded_bytes"
        );
        assert_eq!(
            bits(&a.link_delivered_bytes),
            bits(&b.link_delivered_bytes),
            "{what}: link_delivered_bytes"
        );
        assert_eq!(
            bits(&a.link_busy_s),
            bits(&b.link_busy_s),
            "{what}: link_busy_s"
        );
        assert_eq!(a.span_s.to_bits(), b.span_s.to_bits(), "{what}: span_s");
    }

    #[test]
    fn classes_match_the_per_flow_engine_bitwise() {
        check::run(
            "classes_match_the_per_flow_engine_bitwise",
            check::Config::cases(64),
            |rng| {
                let rates = LinkRates {
                    bandwidth_mb_s: rng.range_f64(100.0, 10_000.0),
                    // Zero-latency links (one case in four) put `dt == 0`
                    // events between serializations.
                    hop_latency_us: if rng.range_usize(0, 4) == 0 {
                        0.0
                    } else {
                        rng.range_f64(0.1, 30.0)
                    },
                };
                let n = rng.range_usize(1, 20);
                let topo = match rng.range_usize(0, 3) {
                    0 => Topology::placement_group(n, rates),
                    1 => Topology::fat_tree(n, 2 * rng.range_usize(1, 5), rates),
                    _ => {
                        Topology::spread(n, rng.range_usize(1, 6), rng.range_f64(0.25, 2.0), rates)
                    }
                };
                let payload = |rng: &mut Rng| match rng.range_usize(0, 4) {
                    0 => 0.0,
                    1 => rng.range_usize(0, 1 << 22) as f64,
                    _ => rng.range_f64(0.0, 4.0e6),
                };
                let mut flows: Vec<Flow> = Vec::new();
                for _ in 0..rng.range_usize(0, 40) {
                    let src = rng.range_usize(0, n);
                    // `src == dst` one flow in five, and by chance.
                    let dst = if rng.range_usize(0, 5) == 0 {
                        src
                    } else {
                        rng.range_usize(0, n)
                    };
                    let f = Flow {
                        src,
                        dst,
                        bytes: payload(rng),
                        tag: flows.len() as u64,
                    };
                    flows.push(f);
                    match rng.range_usize(0, 4) {
                        // Exact duplicates: a class of up to 8.
                        0 => {
                            for _ in 0..rng.range_usize(1, 8) {
                                flows.push(f);
                            }
                        }
                        // The same pair with another payload: two classes
                        // on one route.
                        1 => flows.push(Flow {
                            bytes: payload(rng),
                            ..f
                        }),
                        _ => {}
                    }
                }
                // Interleave the classes' members.
                for i in (1..flows.len()).rev() {
                    flows.swap(i, rng.range_usize(0, i + 1));
                }
                assert_same_bits(
                    &exchange(&topo, &flows),
                    &reference_exchange(&topo, &flows),
                    topo.name(),
                );
            },
        );
    }

    /// Two classes finishing on one link in one event, their members
    /// interleaved in seq: the link's byte counters must add the members
    /// in seq order, which differs in the last bit from adding either
    /// class's members together.
    #[test]
    fn interleaved_classes_add_bytes_in_seq_order() {
        // Zero latency, 1 MB/s ports and 0.5 MB/s trunks keep every step
        // exact. Class A (seqs 0, 1, 2, 4) crosses racks 1 -> 0 over four
        // hops; class B (seq 3) stays in rack 0 over two. B reaches node
        // 2's port first and has exactly A's payload left when A arrives,
        // so all five members finish on that port together.
        let rates = LinkRates {
            bandwidth_mb_s: 1.0,
            hop_latency_us: 0.0,
        };
        let t = Topology::spread(4, 2, 0.5, rates);
        let x = 15625.0 * 23_484_935_499.0 / 8.0;
        let y = x * 10.5;
        let flows = [
            flow(1, 2, x),
            flow(1, 2, x),
            flow(1, 2, x),
            flow(0, 2, y),
            flow(1, 2, x),
        ];
        let port = *t.get_route(0, 2).last().unwrap();
        assert_eq!(port, *t.get_route(1, 2).last().unwrap());

        let out = exchange(&t, &flows);
        assert!(
            out.delivery_s.iter().all(|&d| d == out.delivery_s[0]),
            "{:?}",
            out.delivery_s
        );
        let sum = |v: &[f64]| v.iter().fold(0.0f64, |a, &b| a + b);
        let in_seq = sum(&[x, x, x, y, x]);
        for per_class in [
            sum(&[x, x, x, x, y]),
            sum(&[y, x, x, x, x]),
            4.0 * x + y,
            y + 4.0 * x,
        ] {
            assert_ne!(
                in_seq.to_bits(),
                per_class.to_bits(),
                "the payloads must be order-sensitive"
            );
        }
        assert_eq!(out.link_forwarded_bytes[port].to_bits(), in_seq.to_bits());
        assert_eq!(out.link_delivered_bytes[port].to_bits(), in_seq.to_bits());
        assert_same_bits(&out, &reference_exchange(&t, &flows), "interleaved");
    }

    #[test]
    #[should_panic(expected = "flow 1 endpoint out of range: 0 -> 2 on a 2-node topology")]
    fn out_of_range_endpoints_name_the_flow() {
        let t = Topology::placement_group(2, RATES);
        let _ = exchange(&t, &[flow(0, 1, 1.0), flow(0, 2, 1.0)]);
    }

    #[test]
    fn single_flow_pays_latency_and_serialization_per_hop() {
        let t = Topology::placement_group(2, RATES);
        let out = exchange(&t, &[flow(0, 1, 1_000_000.0)]);
        // Two hops, each 1 µs latency + 1 MB at 1 GB/s = 1 ms.
        let expect = 2.0 * (1.0e-6 + 1.0e6 / 1.0e9);
        assert!((out.delivery_s[0] - expect).abs() < 1e-12);
        assert_eq!(out.span_s, out.delivery_s[0]);
    }

    #[test]
    fn two_flows_on_the_same_path_halve_the_share() {
        let t = Topology::placement_group(2, RATES);
        let b = 1_000_000.0;
        let out = exchange(&t, &[flow(0, 1, b), flow(0, 1, b)]);
        // Phase-aligned: both serialize together on both hops at bw/2.
        let expect = 2.0 * (1.0e-6 + 2.0 * b / 1.0e9);
        for d in &out.delivery_s {
            assert!((d - expect).abs() < 1e-12, "{d} vs {expect}");
        }
        // Contention slows the pair down vs a lone flow.
        let solo = exchange(&t, &[flow(0, 1, b)]).delivery_s[0];
        assert!(out.delivery_s[0] > solo);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let t = Topology::placement_group(4, RATES);
        let solo = exchange(&t, &[flow(0, 1, 5e5)]).delivery_s[0];
        let out = exchange(&t, &[flow(0, 1, 5e5), flow(2, 3, 9e5)]);
        assert_eq!(out.delivery_s[0], solo);
    }

    #[test]
    fn byte_counters_are_exact_and_conserved() {
        let t = Topology::spread(6, 2, 0.5, RATES);
        let flows: Vec<Flow> = (0..6)
            .flat_map(|a| (0..6).filter(move |&b| b != a).map(move |b| flow(a, b, ((a * 7 + b) * 1024) as f64)))
            .collect();
        let out = exchange(&t, &flows);
        let total: f64 = flows.iter().map(|f| f.bytes).sum();
        assert_eq!(out.link_delivered_bytes.iter().sum::<f64>(), total);
        // Forwarded bytes per link == sum of bytes of flows routed over it.
        let mut expect = vec![0.0; t.links().len()];
        for f in &flows {
            for &l in t.get_route(f.src, f.dst) {
                expect[l] += f.bytes;
            }
        }
        assert_eq!(out.link_forwarded_bytes, expect);
    }

    #[test]
    fn intranode_flows_deliver_instantly() {
        let t = Topology::placement_group(2, RATES);
        let out = exchange(&t, &[flow(1, 1, 1e9)]);
        assert_eq!(out.delivery_s[0], 0.0);
        assert!(out.link_delivered_bytes.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn zero_and_negative_bytes_are_clamped() {
        let t = Topology::placement_group(2, RATES);
        let out = exchange(&t, &[flow(0, 1, 0.0)]);
        // Zero payload still pays per-hop latency.
        assert!((out.delivery_s[0] - 2.0e-6).abs() < 1e-15);
        #[cfg(not(debug_assertions))]
        {
            let neg = exchange(&t, &[flow(0, 1, -5.0)]);
            assert_eq!(neg.link_delivered_bytes.iter().sum::<f64>(), 0.0);
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let t = Topology::spread(5, 2, 0.7, RATES);
        let flows: Vec<Flow> = (0..5)
            .flat_map(|a| (0..5).filter(move |&b| b != a).map(move |b| flow(a, b, 1.0 + (a * 31 + b * 17) as f64 * 123.25)))
            .collect();
        let a = exchange(&t, &flows);
        let b = exchange(&t, &flows);
        assert_eq!(a, b);
    }

    #[test]
    fn trunk_contention_from_a_second_tenant_slows_delivery() {
        // Nodes 0,1 belong to "job A" (racks 0 and 1); nodes 2,3 to
        // "job B". Cross-rack flows of both jobs share the same trunk
        // pair, so adding B's traffic must slow A down.
        let t = Topology::spread(4, 2, 1.0, RATES);
        let a_flows = [flow(0, 1, 2e6), flow(1, 0, 2e6)];
        let isolated = exchange(&t, &a_flows);
        let mut both = a_flows.to_vec();
        both.push(flow(2, 3, 2e6));
        both.push(flow(3, 2, 2e6));
        let contended = exchange(&t, &both);
        assert!(contended.delivery_s[0] > isolated.delivery_s[0]);
        assert!(contended.span_s > isolated.span_s);
    }
}
