//! `k`-hop neighborhoods — the node side of the paper's data blocks
//! `G_z̄` — and [`NodeSet`], the sorted node-id set that also scopes a
//! simulation.
//!
//! §5.2: the data block of a pivot candidate `σ(z_i)` of a GFD with
//! pivot vector `PV(ϕ) = ((z_1, c¹_Q), …)` is everything within
//! `c^i_Q` hops. "Hops" are undirected: by the locality of subgraph
//! isomorphism, every node of a match is within radius hops of the
//! pivot's image along undirected paths.
//!
//! No detection path builds a block: a pinned search cannot leave it,
//! so the matcher never consults one, and work units are priced — and
//! `disVal`'s shipments sized — from their pivots' class candidate
//! space instead. [`khop_nodes`] serves the skew statistic of Fig. 8
//! ([`skew_ratio`]) and tests.

use crate::graph::{Graph, NodeId};

/// A sorted set of node ids; the node side of a data block `G_z̄`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    sorted: Vec<NodeId>,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from an arbitrary list (sorts and dedups).
    pub fn from_vec(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        NodeSet { sorted: nodes }
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.sorted.binary_search(&node).is_ok()
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Iterates in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sorted.iter().copied()
    }

    /// The sorted ids as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.sorted
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        NodeSet::from_vec(iter.into_iter().collect())
    }
}

/// All nodes within `k` undirected hops of any seed (including seeds),
/// by a dense-bitmap BFS.
pub fn khop_nodes(g: &Graph, seeds: &[NodeId], k: usize) -> NodeSet {
    let mut visited = vec![false; g.node_count()];
    let mut reached: Vec<NodeId> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        if !std::mem::replace(&mut visited[s.index()], true) {
            reached.push(s);
        }
    }
    // `reached[lo..]` is the current frontier; appending extends the
    // next one in place.
    let mut lo = 0;
    for _ in 0..k {
        let hi = reached.len();
        if lo == hi {
            break;
        }
        for i in lo..hi {
            let u = reached[i];
            for v in g.neighbors(u) {
                if !std::mem::replace(&mut visited[v.index()], true) {
                    reached.push(v);
                }
            }
        }
        lo = hi;
    }
    NodeSet::from_vec(reached)
}

/// Skew ratio as defined for Fig. 8: average size of the 10% smallest
/// `d`-hop neighborhoods over the 10% largest (smaller ⇒ more skewed),
/// over about `sample` nodes evenly spaced by id.
pub fn skew_ratio(g: &Graph, d: usize, sample: usize) -> f64 {
    let n = g.node_count();
    if n == 0 {
        return 1.0;
    }
    let step = (n / sample.max(1)).max(1);
    let mut sizes: Vec<usize> = (0..n)
        .step_by(step)
        .map(|i| khop_nodes(g, &[NodeId(i as u32)], d).len())
        .collect();
    sizes.sort_unstable();
    let decile = (sizes.len() / 10).max(1);
    let small: usize = sizes[..decile].iter().sum();
    let large: usize = sizes[sizes.len() - decile..].iter().sum();
    if large == 0 {
        1.0
    } else {
        small as f64 / large as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A directed path a -> b -> c -> d plus an edge e -> c.
    fn path_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::with_fresh_vocab();
        let ns: Vec<NodeId> = (0..5)
            .map(|i| b.add_node_labeled(&format!("l{i}")))
            .collect();
        b.add_edge_labeled(ns[0], ns[1], "e");
        b.add_edge_labeled(ns[1], ns[2], "e");
        b.add_edge_labeled(ns[2], ns[3], "e");
        b.add_edge_labeled(ns[4], ns[2], "e");
        (b.freeze(), ns)
    }

    #[test]
    fn zero_hop_is_seed_only() {
        let (g, ns) = path_graph();
        let set = khop_nodes(&g, &[ns[1]], 0);
        assert_eq!(set.as_slice(), &[ns[1]]);
    }

    #[test]
    fn one_hop_is_undirected() {
        let (g, ns) = path_graph();
        let set = khop_nodes(&g, &[ns[2]], 1);
        // In-neighbors b and e, out-neighbor d, plus c itself.
        assert_eq!(set.len(), 4);
        assert!(set.contains(ns[1]) && set.contains(ns[3]) && set.contains(ns[4]));
        assert!(!set.contains(ns[0]));
    }

    #[test]
    fn khop_is_monotone_in_k() {
        let (g, ns) = path_graph();
        let mut prev = 0;
        for k in 0..4 {
            let set = khop_nodes(&g, &[ns[0]], k);
            assert!(set.len() >= prev);
            prev = set.len();
        }
        assert_eq!(khop_nodes(&g, &[ns[0]], 4).len(), 5);
    }

    #[test]
    fn skew_ratio_of_uniform_graph_near_one() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let ns: Vec<_> = (0..40).map(|_| b.add_node_labeled("v")).collect();
        for i in 0..40 {
            b.add_edge_labeled(ns[i], ns[(i + 1) % 40], "e");
        }
        let g = b.freeze();
        let ratio = skew_ratio(&g, 2, 40);
        assert!(
            ratio > 0.9,
            "uniform ring should have ratio ≈ 1, got {ratio}"
        );
    }
}
