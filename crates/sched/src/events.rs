//! The discrete-event clock: a deterministic priority queue of campaign
//! events, optionally sharded.
//!
//! Determinism is the whole point — a campaign must be byte-for-byte
//! reproducible from its seed **at any shard count**, the same guarantee
//! `rt::pool` gives the LBM solver at any worker width. The total order
//! popped by the queue is
//!
//! ```text
//! (time_s  via total_cmp,  lane,  per-lane seq)
//! ```
//!
//! where a *lane* is a stable logical event source (lane 0 = job intake,
//! lanes 1..=P = one per platform pool). Each lane numbers its own events
//! with a monotone sequence counter, so the key of an event depends only
//! on *what produced it and in what order* — never on how lanes are
//! interleaved into shards. Sharding (lane → `lane % shards` heaps, pop =
//! min across shard heads) is therefore pure layout: the popped order is
//! provably identical at 1, 2, 4, or any number of shards.
//!
//! The earlier single-queue design used one global seq counter; reusing
//! that across sharded heaps would have made equal-time ordering depend
//! on push interleaving — exactly the bug the per-lane seq space fixes.
//! No wall clock, no hash-order, no thread interleaving anywhere in the
//! scheduler.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A campaign event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A job enters the waiting queue: its first submission, or its
    /// return after a fault-retry backoff.
    Arrive {
        /// Index of the job in the campaign's job table.
        job: usize,
    },
    /// The current slice of a running job's attempt finishes (or is cut
    /// short by a fault that was pre-drawn when the slice was scheduled).
    SliceDone {
        /// Index of the job in the campaign's job table.
        job: usize,
        /// The attempt the slice belongs to — asserted against the job's
        /// live attempt, since an aborted attempt must never leave a
        /// stale slice behind.
        attempt: u32,
    },
}

#[derive(Debug, Clone)]
struct Scheduled {
    time_s: f64,
    lane: u32,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time_s.total_cmp(&other.time_s) == Ordering::Equal
            && self.lane == other.lane
            && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time_s
            .total_cmp(&other.time_s)
            .then(self.lane.cmp(&other.lane))
            .then(self.seq.cmp(&other.seq))
    }
}

/// Sharded min-queue of events totally ordered by
/// `(time, lane, per-lane seq)`.
///
/// The pop order is independent of the shard count — see the module docs
/// for the argument. `shards` only controls how many heaps share the
/// load; each heap holds the lanes congruent to its index.
#[derive(Debug)]
pub struct ShardedEventQueue {
    shards: Vec<BinaryHeap<Reverse<Scheduled>>>,
    lane_seq: Vec<u64>,
    len: usize,
}

impl ShardedEventQueue {
    /// An empty queue with `lanes` event sources spread over `shards`
    /// heaps.
    ///
    /// # Panics
    /// Panics when either count is zero.
    pub fn new(lanes: usize, shards: usize) -> Self {
        assert!(lanes > 0, "zero lanes");
        assert!(shards > 0, "zero shards");
        Self {
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            lane_seq: vec![0; lanes],
            len: 0,
        }
    }

    /// Number of shard heaps.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Schedule `event` on `lane` at absolute campaign time `time_s`.
    ///
    /// # Panics
    /// Panics on a non-finite or negative time (events like that would
    /// silently corrupt the clock), on an out-of-range lane, and on
    /// per-lane sequence exhaustion (2^64 events from one source — the
    /// clock refuses to wrap and reorder rather than corrupt the total
    /// order).
    pub fn push(&mut self, lane: usize, time_s: f64, event: Event) {
        assert!(
            time_s.is_finite() && time_s >= 0.0,
            "bad event time {time_s}"
        );
        let seq = self.lane_seq[lane];
        self.lane_seq[lane] = seq.checked_add(1).expect("lane seq overflow");
        let shard = lane % self.shards.len();
        self.shards[shard].push(Reverse(Scheduled {
            time_s,
            lane: lane as u32,
            seq,
            event,
        }));
        self.len += 1;
    }

    /// Time of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<f64> {
        self.min_shard().map(|i| {
            let Reverse(s) = self.shards[i].peek().expect("nonempty shard");
            s.time_s
        })
    }

    /// Pop the earliest event under `(time, lane, seq)` order, returning
    /// the lane it was scheduled on.
    pub fn pop(&mut self) -> Option<(f64, usize, Event)> {
        let i = self.min_shard()?;
        let Reverse(s) = self.shards[i].pop().expect("nonempty shard");
        self.len -= 1;
        Some((s.time_s, s.lane as usize, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the shard holding the globally minimal head. The scan is
    /// O(shards); shard counts are small (≈ pool counts) so the merge
    /// stays cheap while each heap's O(log n) operates on `1/shards` of
    /// the events.
    fn min_shard(&self) -> Option<usize> {
        let mut best: Option<(usize, &Scheduled)> = None;
        for (i, heap) in self.shards.iter().enumerate() {
            if let Some(Reverse(head)) = heap.peek() {
                match best {
                    Some((_, b)) if b.cmp(head) != Ordering::Greater => {}
                    _ => best = Some((i, head)),
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Test hook: jump a lane's sequence counter (e.g. near `u64::MAX`)
    /// to exercise the overflow guard without 2^64 pushes.
    #[cfg(test)]
    fn force_lane_seq(&mut self, lane: usize, seq: u64) {
        self.lane_seq[lane] = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = ShardedEventQueue::new(1, 1);
        q.push(0, 5.0, Event::Arrive { job: 0 });
        q.push(0, 1.0, Event::Arrive { job: 1 });
        q.push(0, 3.0, Event::SliceDone { job: 2, attempt: 1 });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _, _)| t)).collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = ShardedEventQueue::new(1, 1);
        for job in 0..5 {
            q.push(0, 2.0, Event::Arrive { job });
        }
        let jobs: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, _, e)| match e {
                Event::Arrive { job } => job,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(jobs, vec![0, 1, 2, 3, 4], "FIFO among simultaneous events");
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = ShardedEventQueue::new(1, 1);
        assert!(q.is_empty());
        q.push(0, 0.0, Event::Arrive { job: 0 });
        q.push(0, 0.0, Event::Arrive { job: 1 });
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_times() {
        ShardedEventQueue::new(1, 1).push(0, f64::NAN, Event::Arrive { job: 0 });
    }

    /// Deterministic pseudo-random pushes drained from queues at several
    /// shard counts must pop the identical sequence: the merge key
    /// `(time, lane, per-lane seq)` never mentions shards.
    #[test]
    fn pop_order_is_shard_count_invariant() {
        let lanes = 5;
        let mut rng = hemocloud_rt::rng::SplitMix64::new(7);
        let pushes: Vec<(usize, f64, usize)> = (0..4000)
            .map(|job| {
                let lane = (rng.next_u64() % lanes as u64) as usize;
                // Coarse times force plenty of exact ties.
                let t = (rng.next_u64() % 50) as f64;
                (lane, t, job)
            })
            .collect();
        let drain = |shards: usize| -> Vec<(f64, usize, usize)> {
            let mut q = ShardedEventQueue::new(lanes, shards);
            for &(lane, t, job) in &pushes {
                q.push(lane, t, Event::Arrive { job });
            }
            std::iter::from_fn(|| {
                q.pop().map(|(t, lane, e)| match e {
                    Event::Arrive { job } => (t, lane, job),
                    _ => unreachable!(),
                })
            })
            .collect()
        };
        let reference = drain(1);
        assert_eq!(reference.len(), pushes.len());
        for shards in [2, 3, 4, 8] {
            assert_eq!(drain(shards), reference, "diverged at {shards} shards");
        }
    }

    #[test]
    fn lane_breaks_equal_time_ties_before_seq() {
        let mut q = ShardedEventQueue::new(3, 2);
        // Lane 2 pushed first, then lane 0: at equal time, lane 0 pops
        // first regardless of push order or per-lane seq values.
        q.push(2, 1.0, Event::Arrive { job: 20 });
        q.push(2, 1.0, Event::Arrive { job: 21 });
        q.push(0, 1.0, Event::Arrive { job: 0 });
        let jobs: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, _, e)| match e {
                Event::Arrive { job } => job,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(jobs, vec![0, 20, 21]);
    }

    #[test]
    fn next_time_tracks_global_minimum() {
        let mut q = ShardedEventQueue::new(4, 2);
        assert_eq!(q.next_time(), None);
        q.push(3, 9.0, Event::Arrive { job: 3 });
        q.push(1, 4.0, Event::Arrive { job: 1 });
        assert_eq!(q.next_time(), Some(4.0));
        q.pop();
        assert_eq!(q.next_time(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "lane seq overflow")]
    fn lane_seq_overflow_is_a_panic_not_a_wrap() {
        let mut q = ShardedEventQueue::new(2, 2);
        q.force_lane_seq(1, u64::MAX);
        q.push(1, 0.0, Event::Arrive { job: 0 });
        q.push(1, 0.0, Event::Arrive { job: 1 });
    }

    /// `PartialOrd` is derived from `Ord` (`Some(self.cmp(other))`), so the
    /// two orders can never diverge — a divergence would silently break the
    /// shard-invariant pop order, since `BinaryHeap` uses `Ord` while any
    /// future comparison through `PartialOrd` would disagree. Pinned on
    /// random keys including the `total_cmp` specials (NaN, ±0.0, ±inf);
    /// `push` rejects non-finite times, but the key type itself must stay
    /// total regardless of how it is constructed.
    #[test]
    fn partial_cmp_always_agrees_with_cmp() {
        use hemocloud_rt::check::{self, Config};
        let specials = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
        check::run("partial_cmp_always_agrees_with_cmp", Config::cases(16), |rng| {
            let draw = |rng: &mut hemocloud_rt::rng::Rng| {
                let time_s = if rng.next_u64().is_multiple_of(4) {
                    specials[(rng.next_u64() % specials.len() as u64) as usize]
                } else {
                    // Coarse grid so exact time ties exercise the lane/seq arms.
                    (rng.next_u64() % 8) as f64 - 3.0
                };
                Scheduled {
                    time_s,
                    lane: (rng.next_u64() % 3) as u32,
                    seq: rng.next_u64() % 4,
                    event: Event::Arrive { job: 0 },
                }
            };
            for _ in 0..256 {
                let a = draw(rng);
                let b = draw(rng);
                assert_eq!(a.partial_cmp(&b), Some(a.cmp(&b)));
                assert_eq!(b.partial_cmp(&a), Some(b.cmp(&a)));
                assert_eq!(a.partial_cmp(&a), Some(std::cmp::Ordering::Equal));
                // PartialEq must match the Equal arm of the same key.
                assert_eq!(a == b, a.cmp(&b) == std::cmp::Ordering::Equal);
            }
        });
    }
}
