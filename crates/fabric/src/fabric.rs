//! Deterministic event-driven store-and-forward message fabric.
//!
//! [`exchange`] simulates one exchange phase and returns each flow's
//! delivery time, in input order — the one thing its callers read, the
//! per-task communication term of the step time. Every [`Flow`] (in
//! practice one directed halo message from the Eq. 9 message graph)
//! traverses its route hop-by-hop. On each hop a flow first pays the
//! link's propagation latency, then serializes its full payload at that
//! link's bandwidth. A link serializing `k` flows at once gives each a
//! fair share `bandwidth / k`, recomputed whenever a flow starts or
//! finishes on it, so contention is piecewise-constant max-min fair
//! sharing per link.
//!
//! Per-link virtual clocks: store-and-forward holds a flow on one link
//! at a time, so each link is an independent fair-share
//! (processor-sharing) server and sharing is exact per link — no
//! network-wide water-filling. A busy link keeps a virtual clock `v`,
//! the bytes served to each of its flows since it was last idle: over a
//! stretch of constant occupancy `occ` it advances by `Δt · bandwidth /
//! occ`, and it resets to 0 when `occ` reaches 0 (so a lone flow pays
//! exactly `bytes / bandwidth`). A flow starting at `v` finishes when the
//! clock reaches its *finish tag* `v + bytes`, which never changes, so
//! the link's next finish is its lowest tag at `(tag - v) · occ /
//! bandwidth` from now.
//!
//! Links run to completion in route order: the only thing that couples
//! two links is that one link's departures become the next hop's
//! arrivals, and every route table is route-ordered
//! ([`Topology::link_order`]: each link comes after every link that
//! precedes it on a route). So the engine visits the links in that
//! order, and when it reaches a link every arrival there is known: each
//! class's latency end, `t + latency` of the hop, written when the class
//! left its previous link at `t` (its first hop's from 0). It sorts
//! them by `(end, class)` and serves them: the link's next instant is
//! the earlier of its next finish and its next latency end; at that
//! instant it finishes every class holding the lowest tag (the clock is
//! set to exactly that tag), then starts every class whose latency ends
//! there (the clock is brought up to the instant once, clamped at the
//! lowest tag). A start can leave a finish at the same instant (a
//! zero-byte payload, a clamped clock); the next turn takes it. A
//! departing class joins its next hop's arrivals, or is delivered. Hops
//! may carry different latencies: each link sorts its own arrivals.
//!
//! Per link this is the arithmetic of the network-wide instant loop it
//! replaced (kept as the `#[cfg(test)]` `event_exchange`), which found
//! the next instant across every busy link and one FIFO of latency ends:
//! at a positive hop latency every start on a link at an instant is
//! known before the instant's first finish there, so each link performs
//! the same float operations at the same instants in the same order and
//! deliveries are equal bit for bit. Behind a zero-latency hop, a class
//! the old loop started a pass later, after a same-instant finish,
//! starts in the same turn; the two can round apart only if that finish
//! emptied a link whose clock was clamped at the instant, and none of
//! 875,028 zero-latency deliveries over 20,000 random cases did. Both are
//! the model of the per-flow discrete-time engine before them (every
//! live flow advanced by the global step `dt` at every event, kept as
//! `reference_exchange`): they integrate the same fair shares between
//! the same events, but the clocks add the seconds in fewer, larger
//! steps, so a delivery time may round differently. The tests bound the
//! difference at 1e-12 relative per delivery, with zero deliveries
//! exact; 3.9e-14 (188 ULPs) is the worst seen over 20,000 random cases.
//! A flow alone on the fabric delivers at exactly its route's zero-load
//! sum — every hop's latency, then its payload over the hop's bandwidth,
//! added in route order.
//!
//! Determinism: the engine is pure sequential float arithmetic — no wall
//! clocks, no randomness, no hashing. The same flow list against the same
//! topology is bit-identical on every run, worker count, and shard count.
//!
//! Flow classes: flows with the same route (the same `src` and `dst`)
//! and the same sanitized payload bits start together and follow one
//! trajectory, so the engine groups them once into *classes*; a class
//! starting or finishing on a link moves that link's `occ` by its
//! multiplicity, and a delivered class sets each member's delivery time.
//!
//! Permutation equivariance: a delivery time follows its flow under any
//! reordering of the input — permute the flows by `π` and entry `π(i)`
//! has the bits entry `i` had. Classes are keyed and ordered by a flow's
//! contents, not its position, so a permutation yields the same class
//! list, and the engine reads only that list. Within an instant the
//! order of events cannot reach a float either: every start on a link
//! reads the clock brought up to the instant once, and finishes only set
//! the clock to a tag and move the integer `occ`. This is what lets a
//! caller price a *set* of co-scheduled jobs with one exchange, whichever
//! member asks and however the members are ordered
//! (`cluster::topology::routed_set_comm`), and is pinned by
//! `tests/proptest_fabric.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

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

/// The flows sharing one route and one sanitized payload, in flight
/// together (see the module docs).
#[derive(Debug, Clone)]
struct Class<'t> {
    route: &'t [LinkId],
    /// Index of the current hop in `route`.
    hop: usize,
    bytes: f64,
    /// The members' seqs, ascending, as a range of the member table; its
    /// length is what the class adds to a link's `occ`.
    members: Range<usize>,
}

/// Sanitize every flow's payload and group the flows that leave the node
/// into classes: the classes, each on its first hop, and the member table
/// their `members` ranges index.
fn classify<'t>(topo: &'t Topology, flows: &[Flow]) -> (Vec<Class<'t>>, Vec<usize>) {
    let n = topo.n_nodes();
    // One key per flow, `(src · n + dst) << 96 | payload bits << 32 |
    // seq`: sorting groups a class and orders its members by seq (seqs,
    // like class indices, fit in 32 bits).
    let mut keyed: Vec<u128> = Vec::with_capacity(flows.len());
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
            let pair = (f.src * n + f.dst) as u128;
            keyed.push((pair << 96) | (u128::from(b.to_bits()) << 32) | i as u128);
        }
    }
    keyed.sort_unstable();

    let mut classes = Vec::new();
    let mut start = 0;
    for run in keyed.chunk_by(|a, b| a >> 32 == b >> 32) {
        let pair = (run[0] >> 96) as usize;
        classes.push(Class {
            route: topo.get_route(pair / n, pair % n),
            hop: 0,
            bytes: f64::from_bits((run[0] >> 32) as u64),
            members: start..start + run.len(),
        });
        start += run.len();
    }
    (classes, keyed.iter().map(|&k| k as u32 as usize).collect())
}

/// One link as a fair-share server (see the module docs).
#[derive(Debug, Default)]
struct Server {
    /// Flows serializing: the fair-share divisor.
    occ: u32,
    /// Virtual clock: bytes served per flow since the link was last idle.
    v: f64,
    /// The instant `v` was last brought up to.
    t_v: f64,
    /// The serializing classes as a min-heap of `(finish tag bits,
    /// class)`: tags are non-negative, so their bits order as they do,
    /// and the class index breaks ties in a content-defined order.
    tags: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Server {
    fn min_tag(&self) -> f64 {
        let min = self.tags.peek().expect("a busy link serializes a class");
        f64::from_bits(min.0 .0)
    }

    /// Bring the clock up to `t` under the occupancy that held since it
    /// was last brought up; never past the lowest tag, whose finish the
    /// engine has not taken yet.
    fn advance(&mut self, t: f64, bytes_per_s: f64) {
        if self.t_v != t {
            if self.occ > 0 {
                let served = (t - self.t_v) * bytes_per_s / self.occ as f64;
                self.v = (self.v + served).min(self.min_tag());
            }
            self.t_v = t;
        }
    }

    /// When the lowest tag finishes at the current occupancy.
    fn next_finish(&self, bytes_per_s: f64) -> f64 {
        if self.occ == 0 {
            f64::INFINITY
        } else {
            self.t_v + (self.min_tag() - self.v) * self.occ as f64 / bytes_per_s
        }
    }
}

/// Run one exchange of `flows` over `topo` and return each flow's
/// delivery time, seconds, in input order. Flows with `src == dst`
/// deliver at 0 without touching any link. See the module docs for the
/// contention and determinism rules.
pub fn exchange(topo: &Topology, flows: &[Flow]) -> Vec<f64> {
    let links = topo.links();
    let mut delivery = vec![0.0; flows.len()];

    let (mut classes, members) = classify(topo, flows);
    // Every link's `(latency end, class)` arrivals in one buffer: a class
    // crosses each link of its route once, so counting sizes link `l`'s
    // slice, `first[l]..first[l + 1]`, and `filled[l]` is its end so far.
    // Every class starts paying its first hop's latency at 0, and a
    // link's departures fill the next hop's slice before that link runs.
    let mut first = vec![0; links.len() + 1];
    for &l in classes.iter().flat_map(|class| class.route) {
        first[l + 1] += 1;
    }
    for l in 0..links.len() {
        first[l + 1] += first[l];
    }
    let mut filled = first.clone();
    let mut arrivals = vec![(0.0, 0); first[links.len()]];
    for (c, class) in classes.iter().enumerate() {
        let l = class.route[0];
        arrivals[filled[l]] = (links[l].latency_s(), c as u32);
        filled[l] += 1;
    }
    // One server, idle (no tags, `v` reset) between links.
    let mut server = Server::default();
    for &l in topo.link_order() {
        let bytes_per_s = links[l].bytes_per_s();
        let (mut next, end) = (first[l], first[l + 1]);
        arrivals[next..end].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        loop {
            // The link's next instant: its next finish or its next start.
            let finish = server.next_finish(bytes_per_s);
            let start = arrivals[next..end].first().map_or(f64::INFINITY, |a| a.0);
            let t = if start <= finish { start } else { finish };
            if t == f64::INFINITY {
                break;
            }
            // Finishes: the clock reaches the lowest tag, and every class
            // holding it leaves the link.
            if finish == t {
                let tag = server.tags.peek().expect("a finishing link is busy").0 .0;
                server.v = f64::from_bits(tag);
                server.t_v = t;
                while let Some(&Reverse((bits, c))) = server.tags.peek() {
                    if bits != tag {
                        break;
                    }
                    server.tags.pop();
                    let class = &mut classes[c as usize];
                    server.occ -= class.members.len() as u32;
                    class.hop += 1;
                    if let Some(&hop) = class.route.get(class.hop) {
                        arrivals[filled[hop]] = (t + links[hop].latency_s(), c);
                        filled[hop] += 1;
                    } else {
                        for &i in &members[class.members.clone()] {
                            delivery[i] = t;
                        }
                    }
                }
                if server.occ == 0 {
                    server.v = 0.0;
                }
            }
            // Starts: wire latency paid, serialize from the link's clock.
            // A start can leave a finish at `t` (a zero-byte payload, or a
            // clock clamped at its lowest tag): the next turn takes it.
            while next < end && arrivals[next].0 == t {
                let class = &classes[arrivals[next].1 as usize];
                server.advance(t, bytes_per_s);
                let tag = server.v + class.bytes;
                server.tags.push(Reverse((tag.to_bits(), arrivals[next].1)));
                server.occ += class.members.len() as u32;
                next += 1;
            }
        }
    }
    delivery
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkRates;
    use hemocloud_rt::check;
    use hemocloud_rt::rng::Rng;
    use std::collections::VecDeque;

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

    /// The discrete-time engine `exchange` ran before flows were grouped
    /// into classes and links got virtual clocks, kept as the reference
    /// the event engine is compared against: every live flow advanced by
    /// the global step `dt` at every event, one flow moving `occ` at a
    /// time, simultaneous completions taken in `(link, seq)` order.
    fn reference_exchange(topo: &Topology, flows: &[Flow]) -> Vec<f64> {
        let links = topo.links();
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
        let mut occ = vec![0u32; links.len()];
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
                        occ[link] -= 1;
                        hop[i] += 1;
                        if hop[i] == routes[i].len() {
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
        delivery
    }

    /// The network-wide instant loop `exchange` ran before each link ran
    /// to completion in route order, kept as the bitwise oracle of the
    /// per-link pass: the same servers, but the next instant is the
    /// earliest of every busy link's cached finish and one FIFO of
    /// latency ends (sorted because every link shares one hop latency),
    /// and an instant takes every ending link's finishes, then every
    /// start, then recomputes the links it touched.
    fn event_exchange(topo: &Topology, flows: &[Flow]) -> Vec<f64> {
        let links = topo.links();
        let bytes_per_s: Vec<f64> = links.iter().map(|l| l.bytes_per_s()).collect();
        let latency_s: Vec<f64> = links.iter().map(|l| l.latency_s()).collect();
        let mut delivery = vec![0.0; flows.len()];

        let (mut classes, members) = classify(topo, flows);
        let mut servers: Vec<Server> = (0..links.len()).map(|_| Server::default()).collect();
        // Each busy link's cached next finish, and whether it is listed
        // in `busy` / `touched`.
        let mut next = vec![f64::INFINITY; links.len()];
        let mut listed = vec![false; links.len()];
        let mut in_touched = vec![false; links.len()];
        let mut arrivals: VecDeque<(f64, u32)> = VecDeque::new();
        let push = |arrivals: &mut VecDeque<(f64, u32)>, end: f64, class: u32| {
            assert!(
                arrivals.back().is_none_or(|back| back.0 <= end),
                "latency ends out of order: every link must share one hop latency"
            );
            arrivals.push_back((end, class));
        };
        for (c, class) in classes.iter().enumerate() {
            push(&mut arrivals, latency_s[class.route[0]], c as u32);
        }
        let mut busy: Vec<LinkId> = Vec::new();
        let mut ending: Vec<LinkId> = Vec::new();
        let mut touched: Vec<LinkId> = Vec::new();

        loop {
            let mut t = arrivals.front().map_or(f64::INFINITY, |e| e.0);
            ending.clear();
            for &l in &busy {
                if next[l] < t {
                    t = next[l];
                    ending.clear();
                }
                if next[l] == t {
                    ending.push(l);
                }
            }
            if t == f64::INFINITY {
                break;
            }
            touched.clear();
            for &l in &ending {
                let server = &mut servers[l];
                let tag = server.tags.peek().expect("an ending link is busy").0 .0;
                server.v = f64::from_bits(tag);
                server.t_v = t;
                while let Some(&Reverse((bits, c))) = server.tags.peek() {
                    if bits != tag {
                        break;
                    }
                    server.tags.pop();
                    let class = &mut classes[c as usize];
                    server.occ -= class.members.len() as u32;
                    class.hop += 1;
                    if class.hop == class.route.len() {
                        for &i in &members[class.members.clone()] {
                            delivery[i] = t;
                        }
                    } else {
                        push(&mut arrivals, t + latency_s[class.route[class.hop]], c);
                    }
                }
                if server.occ == 0 {
                    server.v = 0.0;
                }
                in_touched[l] = true;
                touched.push(l);
            }
            while let Some(&(end, c)) = arrivals.front() {
                if end != t {
                    break;
                }
                arrivals.pop_front();
                let class = &classes[c as usize];
                let l = class.route[class.hop];
                let server = &mut servers[l];
                server.advance(t, bytes_per_s[l]);
                let tag = server.v + class.bytes;
                server.tags.push(Reverse((tag.to_bits(), c)));
                server.occ += class.members.len() as u32;
                if !in_touched[l] {
                    in_touched[l] = true;
                    touched.push(l);
                }
            }
            let mut idled = false;
            for &l in &touched {
                in_touched[l] = false;
                next[l] = servers[l].next_finish(bytes_per_s[l]);
                if servers[l].occ == 0 {
                    idled = true;
                } else if !listed[l] {
                    listed[l] = true;
                    busy.push(l);
                }
            }
            if idled {
                busy.retain(|&l| {
                    listed[l] = servers[l].occ > 0;
                    listed[l]
                });
            }
        }
        delivery
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// How far a delivery may sit from the reference's, relative to it.
    /// The virtual clocks add each link's seconds in fewer, larger steps
    /// than the reference's global `dt`, so the two round differently:
    /// 3.9e-14 (188 ULPs) at worst over 20,000 cases of the generator below.
    const REFERENCE_REL_BOUND: f64 = 1e-12;

    /// `exchange` against `reference_exchange` on every delivery: within
    /// [`REFERENCE_REL_BOUND`], and a zero delivery exactly.
    fn assert_matches_reference(topo: &Topology, flows: &[Flow]) {
        let got = exchange(topo, flows);
        let want = reference_exchange(topo, flows);
        assert_eq!(got.len(), want.len());
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            let close = if w == 0.0 {
                g.to_bits() == w.to_bits()
            } else {
                (g - w).abs() <= REFERENCE_REL_BOUND * w
            };
            assert!(
                close,
                "{}: flow {i} {:?} delivered at {g}, reference {w}",
                topo.name(),
                flows[i]
            );
        }
    }

    /// Random flows among `n` nodes: payloads zero, whole or fractional,
    /// `src == dst` one flow in five (and by chance), classes of up to 8
    /// exact duplicates, two classes on one route, members interleaved.
    fn random_flows(rng: &mut Rng, n: usize) -> Vec<Flow> {
        let payload = |rng: &mut Rng| match rng.range_usize(0, 4) {
            0 => 0.0,
            1 => rng.range_usize(0, 1 << 22) as f64,
            _ => rng.range_f64(0.0, 4.0e6),
        };
        let mut flows: Vec<Flow> = Vec::new();
        for _ in 0..rng.range_usize(0, 40) {
            let src = rng.range_usize(0, n);
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
                0 => {
                    for _ in 0..rng.range_usize(1, 8) {
                        flows.push(f);
                    }
                }
                1 => flows.push(Flow {
                    bytes: payload(rng),
                    ..f
                }),
                _ => {}
            }
        }
        for i in (1..flows.len()).rev() {
            flows.swap(i, rng.range_usize(0, i + 1));
        }
        flows
    }

    /// A topology of a random shape and size at `rates`, with random
    /// flows on it.
    fn random_exchange(rng: &mut Rng, rates: LinkRates) -> (Topology, Vec<Flow>) {
        let n = rng.range_usize(1, 20);
        let topo = match rng.range_usize(0, 3) {
            0 => Topology::placement_group(n, rates),
            1 => Topology::fat_tree(n, 2 * rng.range_usize(1, 5), rates),
            _ => Topology::spread(n, rng.range_usize(1, 6), rng.range_f64(0.25, 2.0), rates),
        };
        let flows = random_flows(rng, n);
        (topo, flows)
    }

    #[test]
    fn exchange_matches_the_per_flow_engine_within_bound() {
        check::run(
            "exchange_matches_the_per_flow_engine_within_bound",
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
                let (topo, flows) = random_exchange(rng, rates);
                assert_matches_reference(&topo, &flows);
            },
        );
    }

    /// At a positive hop latency every start on a link at an instant is
    /// known before the instant's first finish there, so the per-link
    /// pass performs each link's float operations at the same instants
    /// in the same order as the network-wide instant loop.
    #[test]
    fn per_link_engine_matches_the_event_engine_bitwise() {
        check::run(
            "per_link_engine_matches_the_event_engine_bitwise",
            check::Config::cases(64),
            |rng| {
                let rates = LinkRates {
                    bandwidth_mb_s: rng.range_f64(100.0, 10_000.0),
                    hop_latency_us: rng.range_f64(0.1, 30.0),
                };
                let (topo, flows) = random_exchange(rng, rates);
                assert_eq!(
                    bits(&exchange(&topo, &flows)),
                    bits(&event_exchange(&topo, &flows)),
                    "{}: {flows:?}",
                    topo.name()
                );
            },
        );
    }

    /// A spread-shaped fabric laid by hand whose every cable has its own
    /// bandwidth and hop latency (zero one cable in four): the per-link
    /// pass sorts each link's arrivals, so it needs no shared latency.
    #[test]
    fn mixed_hop_latencies_match_the_per_flow_engine_within_bound() {
        check::run(
            "mixed_hop_latencies_match_the_per_flow_engine_within_bound",
            check::Config::cases(64),
            |rng| {
                let n = rng.range_usize(1, 12);
                let racks = rng.range_usize(1, 4);
                let mut cable = |a: usize, b: usize| {
                    let latency = if rng.range_usize(0, 4) == 0 {
                        0.0
                    } else {
                        rng.range_f64(0.1, 30.0)
                    };
                    (a, b, rng.range_f64(100.0, 10_000.0), latency)
                };
                // Ports are cables 0..n, trunks n..n + racks; tor `r` is
                // vertex `n + r`, the core `n + racks`.
                let mut cables: Vec<_> = (0..n).map(|v| cable(v, n + v % racks)).collect();
                cables.extend((0..racks).map(|r| cable(n + r, n + racks)));
                let topo = Topology::hand_laid(n, &cables, |a, b| {
                    let (ra, rb) = (a % racks, b % racks);
                    if ra == rb {
                        vec![2 * a, 2 * b + 1]
                    } else {
                        vec![2 * a, 2 * (n + ra), 2 * (n + rb) + 1, 2 * b + 1]
                    }
                });
                let flows = random_flows(rng, n);
                assert_matches_reference(&topo, &flows);
            },
        );
    }

    /// Two classes finishing on one link in one event, their members
    /// interleaved in seq: both leave the link together, so the one
    /// event's `occ` update must not reach either class's delivery.
    #[test]
    fn classes_finishing_together_on_one_link_deliver_together() {
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
        assert_eq!(t.get_route(0, 2).last(), t.get_route(1, 2).last());

        let out = exchange(&t, &flows);
        assert!(out.iter().all(|&d| d == out[0]), "{out:?}");
        assert_eq!(bits(&out), bits(&reference_exchange(&t, &flows)));
    }

    /// Zero-latency hops carrying zero-byte and equal-size classes: a
    /// finish at `t` starts the next hop at `t`, and a zero-byte start
    /// finishes at `t` again, so one instant runs several passes.
    #[test]
    fn same_instant_cascades_settle_within_the_instant() {
        let rates = LinkRates {
            bandwidth_mb_s: 1.0,
            hop_latency_us: 0.0,
        };
        // Racks {0, 2} and {1, 3}: cross-rack routes are four hops.
        let t = Topology::spread(4, 2, 1.0, rates);
        let x = 3.0e5;
        let mut flows = Vec::new();
        for (src, dst) in [(0, 1), (0, 3), (2, 3), (1, 0), (0, 2)] {
            flows.push(flow(src, dst, 0.0));
            flows.push(flow(src, dst, x));
        }
        // A class of three beside the single ones on node 0's port.
        flows.extend([flow(0, 1, x), flow(0, 1, x)]);

        let out = exchange(&t, &flows);
        for (f, &d) in flows.iter().zip(&out) {
            assert!(d.is_finite(), "{f:?} delivered at {d}");
            if f.bytes == 0.0 {
                assert_eq!(d.to_bits(), 0.0f64.to_bits(), "{f:?}: an all-zero chain");
            } else {
                assert!(d > 0.0, "{f:?} delivered at {d}");
            }
        }
        // The five `x` flows leaving node 0 share its port and leave it
        // together; the one to node 2 then crosses node 2's port alone.
        assert_eq!(t.get_route(0, 1)[0], t.get_route(0, 3)[0]);
        let port_done = 5.0 * x / 1.0e6;
        assert!(out[1] > port_done && out[3] > port_done);
        assert_eq!(out[9], port_done + x / 1.0e6);
        assert_matches_reference(&t, &flows);
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
        assert!((out[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn two_flows_on_the_same_path_halve_the_share() {
        let t = Topology::placement_group(2, RATES);
        let b = 1_000_000.0;
        let out = exchange(&t, &[flow(0, 1, b), flow(0, 1, b)]);
        // Phase-aligned: both serialize together on both hops at bw/2.
        let expect = 2.0 * (1.0e-6 + 2.0 * b / 1.0e9);
        for d in &out {
            assert!((d - expect).abs() < 1e-12, "{d} vs {expect}");
        }
        // Contention slows the pair down vs a lone flow.
        let solo = exchange(&t, &[flow(0, 1, b)])[0];
        assert!(out[0] > solo);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let t = Topology::placement_group(4, RATES);
        let solo = exchange(&t, &[flow(0, 1, 5e5)])[0];
        let out = exchange(&t, &[flow(0, 1, 5e5), flow(2, 3, 9e5)]);
        assert_eq!(out[0], solo);
    }

    #[test]
    fn intranode_flows_deliver_instantly() {
        let t = Topology::placement_group(2, RATES);
        assert_eq!(exchange(&t, &[flow(1, 1, 1e9)]), [0.0]);
    }

    #[test]
    fn zero_and_negative_bytes_are_clamped() {
        let t = Topology::placement_group(2, RATES);
        let zero = exchange(&t, &[flow(0, 1, 0.0)]);
        // Zero payload still pays per-hop latency.
        assert!((zero[0] - 2.0e-6).abs() < 1e-15);
        #[cfg(not(debug_assertions))]
        {
            let neg = exchange(&t, &[flow(0, 1, -5.0)]);
            assert_eq!(bits(&neg), bits(&zero));
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let t = Topology::spread(5, 2, 0.7, RATES);
        let flows: Vec<Flow> = (0..5)
            .flat_map(|a| (0..5).filter(move |&b| b != a).map(move |b| flow(a, b, 1.0 + (a * 31 + b * 17) as f64 * 123.25)))
            .collect();
        assert_eq!(bits(&exchange(&t, &flows)), bits(&exchange(&t, &flows)));
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
        assert!(contended[0] > isolated[0]);
        assert!(contended[1] > isolated[1]);
    }
}
