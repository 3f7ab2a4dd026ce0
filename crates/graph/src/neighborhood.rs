//! `k`-hop neighborhoods and induced subgraphs — the data blocks `G_z̄`.
//!
//! §5.2: a work unit for a GFD `ϕ` with pivot vector
//! `PV(ϕ) = ((z_1, c¹_Q), …)` carries, for each pivot candidate
//! `σ(z_i)`, the subgraph induced by all nodes within `c^i_Q` hops.
//! "Hops" are undirected: by the locality of subgraph isomorphism,
//! every node of a match is within radius hops of the pivot's image
//! along undirected paths.
//!
//! Data blocks are represented as [`NodeSet`]s (sorted node-id sets)
//! instead of copied graphs. A search pinned at the pivot cannot leave
//! the block, so the matcher never consults it: a block is what a work
//! unit *costs* (its size, the bytes shipped for it). An
//! explicit [`induced_subgraph`] is provided for when a standalone
//! graph is needed (tests, shipping blocks between fragments).

use std::collections::HashMap;

use crate::graph::{Graph, GraphBuilder, NodeId};

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

    /// Set union.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut merged = Vec::with_capacity(self.len() + other.len());
        merged.extend_from_slice(&self.sorted);
        merged.extend_from_slice(&other.sorted);
        NodeSet::from_vec(merged)
    }

    /// Number of edges of `g` with both endpoints inside the set.
    pub fn internal_edge_count(&self, g: &Graph) -> usize {
        self.iter()
            .map(|u| {
                g.out_slice(u)
                    .iter()
                    .filter(|a| self.contains(a.node))
                    .count()
            })
            .sum()
    }

    /// `|G_z̄| = nodes + internal edges` — the block-size measure used by
    /// workload estimation (Example 11).
    pub fn block_size(&self, g: &Graph) -> usize {
        self.len() + self.internal_edge_count(g)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        NodeSet::from_vec(iter.into_iter().collect())
    }
}

/// All nodes within `k` undirected hops of any seed (including seeds).
///
/// Dense-bitmap BFS: one `|V|`-byte visited array beats hash-map
/// bookkeeping for the small, frequent blocks workload estimation
/// builds (one per pivot candidate).
pub fn khop_nodes(g: &Graph, seeds: &[NodeId], k: usize) -> NodeSet {
    let mut visited = vec![false; g.node_count()];
    khop_nodes_scratch(g, seeds, k, &mut visited)
}

/// Scratch-reusing variant of [`khop_nodes`] for callers that build
/// many blocks: `visited` must be all-`false` and is restored to
/// all-`false` on return (only the entries the BFS touched are reset,
/// so reuse costs `O(|block|)`, not `O(|V|)`).
pub fn khop_nodes_scratch(g: &Graph, seeds: &[NodeId], k: usize, visited: &mut [bool]) -> NodeSet {
    debug_assert!(visited.len() >= g.node_count());
    debug_assert!(visited.iter().all(|&b| !b), "scratch must start clear");
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
    for &u in &reached {
        visited[u.index()] = false;
    }
    NodeSet::from_vec(reached)
}

/// Materializes the subgraph of `g` induced by `nodes`.
///
/// Returns the new graph and the mapping from original node ids to ids
/// in the new graph. Labels/attributes are preserved; the new graph
/// shares `g`'s vocabulary.
pub fn induced_subgraph(g: &Graph, nodes: &NodeSet) -> (Graph, HashMap<NodeId, NodeId>) {
    let mut sub = GraphBuilder::new(g.vocab().clone());
    let mut map = HashMap::with_capacity(nodes.len());
    for u in nodes.iter() {
        let nu = sub.add_node(g.label(u));
        for (a, v) in g.attrs(u).iter() {
            sub.set_attr(nu, a, v.clone());
        }
        map.insert(u, nu);
    }
    for u in nodes.iter() {
        for a in g.out_slice(u) {
            if let Some(&nv) = map.get(&a.node) {
                sub.add_edge(map[&u], nv, a.label);
            }
        }
    }
    (sub.freeze(), map)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn block_size_counts_nodes_and_internal_edges() {
        let (g, ns) = path_graph();
        let set = khop_nodes(&g, &[ns[2]], 1); // {b, c, d, e}
                                               // Internal edges: b->c, c->d, e->c.
        assert_eq!(set.internal_edge_count(&g), 3);
        assert_eq!(set.block_size(&g), 7);
    }

    #[test]
    fn induced_subgraph_preserves_structure() {
        let (g, ns) = path_graph();
        let set = khop_nodes(&g, &[ns[2]], 1);
        let (sub, map) = induced_subgraph(&g, &set);
        assert_eq!(sub.node_count(), 4);
        assert_eq!(sub.edge_count(), 3);
        let e = g.vocab().lookup("e").unwrap();
        assert!(sub.has_edge(map[&ns[1]], map[&ns[2]], e));
        assert!(sub.has_edge(map[&ns[4]], map[&ns[2]], e));
        assert_eq!(sub.label(map[&ns[2]]), g.label(ns[2]));
    }

    #[test]
    fn nodeset_union_and_membership() {
        let a = NodeSet::from_vec(vec![NodeId(1), NodeId(3)]);
        let b = NodeSet::from_vec(vec![NodeId(2), NodeId(3)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        assert!(u.contains(NodeId(1)) && u.contains(NodeId(2)) && u.contains(NodeId(3)));
        assert!(!u.contains(NodeId(0)));
    }
}
