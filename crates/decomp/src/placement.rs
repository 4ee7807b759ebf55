//! Task-to-node placement.
//!
//! Whether a message is intranodal (shared memory) or internodal
//! (interconnect) depends on where its endpoint tasks live. The paper
//! assumes node-based allocation — "the user is allocated all cores on a
//! node" — with ranks filling nodes contiguously; [`Placement`] models
//! that and classifies messages.

/// Assignment of tasks to nodes.
#[derive(Debug, Clone)]
pub struct Placement {
    node_of: Vec<usize>,
    n_nodes: usize,
}

impl Placement {
    /// Contiguous block placement: the first `tasks_per_node` tasks on node
    /// 0, the next on node 1, and so on (MPI's default rank order).
    ///
    /// # Panics
    /// Panics if `tasks_per_node` is 0.
    pub fn contiguous(n_tasks: usize, tasks_per_node: usize) -> Self {
        assert!(tasks_per_node > 0, "empty nodes");
        let node_of: Vec<usize> = (0..n_tasks).map(|t| t / tasks_per_node).collect();
        let n_nodes = n_tasks.div_ceil(tasks_per_node);
        Self { node_of, n_nodes }
    }

    /// Node of a task.
    #[inline]
    pub fn node_of(&self, task: usize) -> usize {
        self.node_of[task]
    }

    /// Number of nodes in use.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.node_of.len()
    }

    /// Whether a message between two tasks crosses nodes.
    #[inline]
    pub fn is_internodal(&self, a: usize, b: usize) -> bool {
        self.node_of[a] != self.node_of[b]
    }

    /// Physical node of a task, given a map from this placement's local
    /// node indices (`0..n_nodes`) to physical node ids on a shared pool
    /// — e.g. the ids a `NodePool` allocation handed out. A route-aware
    /// fabric addresses endpoints by physical id, so internodal messages
    /// go through this map before they become flows.
    ///
    /// # Panics
    /// Panics when `node_map` has fewer entries than the placement has
    /// nodes.
    #[inline]
    pub fn physical_node_of(&self, task: usize, node_map: &[usize]) -> usize {
        assert!(
            node_map.len() >= self.n_nodes,
            "node map covers {} nodes, placement uses {}",
            node_map.len(),
            self.n_nodes
        );
        node_map[self.node_of[task]]
    }

    /// Tasks resident on each node.
    pub fn tasks_per_node(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_nodes];
        for &n in &self.node_of {
            counts[n] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_fills_nodes_in_order() {
        let p = Placement::contiguous(10, 4);
        assert_eq!(p.n_nodes(), 3);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.node_of(4), 1);
        assert_eq!(p.node_of(9), 2);
        assert_eq!(p.tasks_per_node(), vec![4, 4, 2]);
    }

    #[test]
    fn intranodal_messages_detected() {
        let p = Placement::contiguous(8, 4);
        assert!(!p.is_internodal(0, 3));
        assert!(p.is_internodal(3, 4));
    }

    #[test]
    fn exact_fill() {
        let p = Placement::contiguous(8, 4);
        assert_eq!(p.n_nodes(), 2);
        assert_eq!(p.n_tasks(), 8);
    }

    #[test]
    fn physical_node_mapping_relabels_local_nodes() {
        let p = Placement::contiguous(8, 4);
        // Local nodes {0, 1} allocated physical ids {5, 9} on a pool.
        assert_eq!(p.physical_node_of(0, &[5, 9]), 5);
        assert_eq!(p.physical_node_of(3, &[5, 9]), 5);
        assert_eq!(p.physical_node_of(4, &[5, 9]), 9);
        // A longer map is fine; only the first n_nodes entries are used.
        assert_eq!(p.physical_node_of(7, &[5, 9, 11]), 9);
    }

    #[test]
    #[should_panic(expected = "node map covers")]
    fn short_node_map_panics() {
        let p = Placement::contiguous(8, 4);
        p.physical_node_of(0, &[3]);
    }
}
