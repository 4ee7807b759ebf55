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
//! Permutation equivariance: `delivery_s` follows its flow under any
//! reordering of the input — permute the flows by `π` and
//! `delivery_s[π(i)]` has the bits `delivery_s[i]` had. The step `dt` is
//! a `min` over the live flows (order-free); each flow's advance reads
//! only its own phase, `dt` and its link's `occ`; and a completion batch
//! only increments or decrements the integer `occ` and never reads it,
//! so the `(link, seq)` order inside a batch cannot reach a float. The
//! same holds for `link_busy_s` and `span_s`; the per-link byte sums add
//! floats in batch order, so they are order-free only for integral
//! bytes. This is what lets a caller price a *set* of co-scheduled jobs
//! with one exchange, whichever member asks and however the members are
//! ordered (`cluster::topology::routed_set_comm`), and is pinned by
//! `tests/proptest_fabric.rs`.
//!
//! Byte accounting is exact: a flow's bytes are added to a link's
//! forwarded counter only when its serialization on that link completes,
//! and to the final link's delivered counter on delivery — so with
//! integral byte values, `sum(link_delivered_bytes) ==
//! sum(flow.bytes)` holds exactly (the Eq. 9 cross-check).

use crate::topology::{LinkId, NodeId, Topology};

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

/// Per-flow progress through its route.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Paying the current hop's propagation latency (seconds left).
    Latency(f64),
    /// Serializing on the current hop's link (bytes left).
    Xfer(f64),
    Done,
}

/// Run one exchange of `flows` over `topo`. See the module docs for the
/// contention and determinism rules.
pub fn exchange(topo: &Topology, flows: &[Flow]) -> ExchangeOutcome {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkRates;

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
