//! Capacity-limited node pools: how many whole nodes of a platform a
//! campaign may occupy at once.
//!
//! The paper's dashboard prices *one* job against an unlimited provider;
//! an operational campaign (Discussion §IV) runs many jobs against a
//! bounded allocation — a reserved-instance block, a quota, or a cluster
//! partition. [`NodePool`] tracks free/busy nodes and accumulates
//! busy-node-seconds so a campaign report can state per-platform
//! utilization.

use crate::platform::Platform;
use std::collections::BTreeSet;

/// A bounded allocation of whole nodes on one platform.
///
/// Nodes carry stable *physical ids* `0..nodes_total` so a route-aware
/// fabric can map a job's ranks onto concrete topology nodes:
/// [`NodePool::try_alloc_ids`] hands out the lowest free ids first
/// (deterministic across reruns and shard counts) and
/// [`NodePool::release_ids`] takes them back.
#[derive(Debug, Clone)]
pub struct NodePool {
    /// The platform the nodes belong to.
    pub platform: Platform,
    nodes_total: usize,
    free: BTreeSet<usize>,
    busy_node_seconds: f64,
    peak_nodes_busy: usize,
}

impl NodePool {
    /// A pool of `nodes_total` nodes, capped at the platform's maximum
    /// allocation ([`Platform::max_nodes`]).
    ///
    /// # Panics
    /// Panics on a zero-node pool.
    pub fn new(platform: Platform, nodes_total: usize) -> Self {
        assert!(nodes_total > 0, "zero-node pool on {}", platform.abbrev);
        let capped = nodes_total.min(platform.max_nodes());
        Self {
            platform,
            nodes_total: capped,
            free: (0..capped).collect(),
            busy_node_seconds: 0.0,
            peak_nodes_busy: 0,
        }
    }

    /// Total nodes in the pool.
    pub fn nodes_total(&self) -> usize {
        self.nodes_total
    }

    /// Nodes currently free.
    pub fn nodes_free(&self) -> usize {
        self.free.len()
    }

    /// Nodes currently allocated to jobs.
    pub fn nodes_busy(&self) -> usize {
        self.nodes_total - self.free.len()
    }

    /// Whether `nodes` nodes could ever fit in this pool (ignoring the
    /// current occupancy).
    pub fn can_host(&self, nodes: usize) -> bool {
        nodes > 0 && nodes <= self.nodes_total
    }

    /// Try to allocate `nodes` specific physical nodes now, lowest free
    /// ids first. Returns `None` (and changes nothing) when fewer are
    /// free. The returned ids are sorted ascending.
    pub fn try_alloc_ids(&mut self, nodes: usize) -> Option<Vec<usize>> {
        if nodes == 0 || nodes > self.free.len() {
            return None;
        }
        let ids: Vec<usize> = self.free.iter().take(nodes).copied().collect();
        for id in &ids {
            self.free.remove(id);
        }
        self.peak_nodes_busy = self.peak_nodes_busy.max(self.nodes_busy());
        Some(ids)
    }

    /// High-water mark of simultaneously busy nodes over the pool's
    /// lifetime — how much of a reserved allocation the campaign ever
    /// actually needed at once.
    pub fn peak_nodes_busy(&self) -> usize {
        self.peak_nodes_busy
    }

    /// Return specific physical nodes held for `held_seconds` of
    /// simulated time.
    ///
    /// # Panics
    /// Panics when an id is already free (double release) or on a
    /// negative hold time.
    pub fn release_ids(&mut self, ids: &[usize], held_seconds: f64) {
        assert!(
            held_seconds >= 0.0 && held_seconds.is_finite(),
            "bad hold time {held_seconds}"
        );
        for &id in ids {
            assert!(id < self.nodes_total, "node id {id} out of range");
            assert!(
                self.free.insert(id),
                "releasing node {id} twice on {}",
                self.platform.abbrev
            );
        }
        self.busy_node_seconds += ids.len() as f64 * held_seconds;
    }

    /// Accumulated busy node-seconds over every completed allocation.
    pub fn busy_node_seconds(&self) -> f64 {
        self.busy_node_seconds
    }

    /// Fraction of the pool's node-seconds used over a horizon (e.g. the
    /// campaign makespan). Zero for a zero-length horizon.
    pub fn utilization(&self, horizon_seconds: f64) -> f64 {
        let capacity = self.nodes_total as f64 * horizon_seconds;
        if capacity <= 0.0 {
            0.0
        } else {
            self.busy_node_seconds / capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_release_round_trip() {
        let mut pool = NodePool::new(Platform::csp2(), 3);
        assert_eq!(pool.nodes_total(), 3);
        let ids = pool.try_alloc_ids(2).unwrap();
        assert_eq!(pool.nodes_free(), 1);
        assert_eq!(pool.nodes_busy(), 2);
        assert!(pool.try_alloc_ids(2).is_none(), "only one node free");
        pool.release_ids(&ids, 100.0);
        assert_eq!(pool.nodes_free(), 3);
        hemocloud_rt::float::assert_close(pool.busy_node_seconds(), 200.0, 0.0, 2);
    }

    #[test]
    fn peak_busy_is_a_high_water_mark() {
        let mut pool = NodePool::new(Platform::csp2(), 4);
        assert_eq!(pool.peak_nodes_busy(), 0);
        let a = pool.try_alloc_ids(1).unwrap();
        let b = pool.try_alloc_ids(2).unwrap();
        assert_eq!(pool.peak_nodes_busy(), 3);
        pool.release_ids(&[a, b].concat(), 10.0);
        assert!(pool.try_alloc_ids(1).is_some());
        assert_eq!(pool.peak_nodes_busy(), 3, "peak survives release");
    }

    #[test]
    fn pool_is_capped_at_platform_allocation() {
        // CSP-2 offers 144 cores at 36/node = 4 nodes.
        let pool = NodePool::new(Platform::csp2(), 100);
        assert_eq!(pool.nodes_total(), 4);
        assert!(pool.can_host(4));
        assert!(!pool.can_host(5));
        assert!(!pool.can_host(0));
    }

    #[test]
    fn utilization_over_a_horizon() {
        let mut pool = NodePool::new(Platform::csp1(), 2);
        let ids = pool.try_alloc_ids(1).unwrap();
        pool.release_ids(&ids, 50.0);
        // 50 node-seconds of 2 nodes × 100 s capacity.
        hemocloud_rt::float::assert_close(pool.utilization(100.0), 0.25, 0.0, 2);
        assert_eq!(pool.utilization(0.0), 0.0);
    }

    #[test]
    fn zero_alloc_is_refused() {
        let mut pool = NodePool::new(Platform::trc(), 2);
        assert!(pool.try_alloc_ids(0).is_none());
        assert_eq!(pool.nodes_free(), 2);
    }

    #[test]
    fn id_allocation_hands_out_lowest_free_ids_first() {
        let mut pool = NodePool::new(Platform::csp2_small(), 6);
        let a = pool.try_alloc_ids(2).unwrap();
        assert_eq!(a, vec![0, 1]);
        let b = pool.try_alloc_ids(3).unwrap();
        assert_eq!(b, vec![2, 3, 4]);
        // Releasing A makes its ids the lowest free again.
        pool.release_ids(&a, 10.0);
        let c = pool.try_alloc_ids(3).unwrap();
        assert_eq!(c, vec![0, 1, 5]);
        assert_eq!(pool.nodes_busy(), 6);
        assert!(pool.try_alloc_ids(1).is_none());
        hemocloud_rt::float::assert_close(pool.busy_node_seconds(), 20.0, 0.0, 2);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_release_of_an_id_panics() {
        let mut pool = NodePool::new(Platform::csp1(), 2);
        let ids = pool.try_alloc_ids(1).unwrap();
        pool.release_ids(&ids, 0.0);
        pool.release_ids(&ids, 0.0);
    }
}
