//! Graph fragmentation for the distributed setting of §6.2.
//!
//! A fragmentation `(F_1, …, F_n)` of `G` assigns every node to exactly
//! one fragment (edges belong to the fragment of their source), and it
//! is that owner map and nothing more. The paper's border sets `F_i.I`
//! and `F_i.O` are not built: `disVal` prices a unit's shipment by the
//! owner of each node its footprint reads, which is all it reads of a
//! fragmentation.

use std::fmt;

use crate::graph::{Graph, NodeId};

/// Identifier of a fragment (processor site `S_i`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FragmentId(pub u16);

impl FragmentId {
    /// The fragment id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for FragmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// How nodes are distributed over fragments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Node id modulo `n` — maximal edge cut, worst case for
    /// communication; useful as an adversarial baseline.
    Hash,
    /// Contiguous id ranges — what bulk loaders typically produce.
    Contiguous,
    /// Greedy BFS clustering filling one fragment at a time — a cheap
    /// locality-preserving stand-in for a min-cut partitioner.
    BfsClustered,
}

/// A complete fragmentation of a graph: the fragment owning each node.
pub struct Fragmentation {
    owner: Vec<FragmentId>,
    n: usize,
}

impl Fragmentation {
    /// Partitions `g` into `n` fragments with the given strategy.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn partition(g: &Graph, n: usize, strategy: PartitionStrategy) -> Self {
        assert!(n > 0, "cannot partition into zero fragments");
        let owner = match strategy {
            PartitionStrategy::Hash => g
                .nodes()
                .map(|u| FragmentId((u.0 as usize % n) as u16))
                .collect(),
            PartitionStrategy::Contiguous => {
                let per = g.node_count().div_ceil(n).max(1);
                g.nodes()
                    .map(|u| FragmentId(((u.index() / per).min(n - 1)) as u16))
                    .collect()
            }
            PartitionStrategy::BfsClustered => bfs_clustered(g, n),
        };
        Self::from_owner(g, n, owner)
    }

    /// Builds a fragmentation from an explicit node → fragment map.
    ///
    /// # Panics
    /// Panics unless `owner` names a fragment below `n` for each node
    /// of `g`.
    pub fn from_owner(g: &Graph, n: usize, owner: Vec<FragmentId>) -> Self {
        assert_eq!(owner.len(), g.node_count());
        assert!(owner.iter().all(|f| f.index() < n), "a fragment id past n");
        Fragmentation { owner, n }
    }

    /// Number of fragments `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fragment owning `node`.
    pub fn owner(&self, node: NodeId) -> FragmentId {
        self.owner[node.index()]
    }
}

/// Greedy BFS clustering: repeatedly grow a fragment from an unassigned
/// seed until it reaches `|V|/n` nodes, then move to the next fragment.
fn bfs_clustered(g: &Graph, n: usize) -> Vec<FragmentId> {
    let capacity = g.node_count().div_ceil(n).max(1);
    let mut owner = vec![FragmentId(u16::MAX); g.node_count()];
    let mut current = 0usize;
    let mut filled = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for seed in g.nodes() {
        if owner[seed.index()].0 != u16::MAX {
            continue;
        }
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            if owner[u.index()].0 != u16::MAX {
                continue;
            }
            owner[u.index()] = FragmentId(current as u16);
            filled += 1;
            if filled >= capacity && current + 1 < n {
                current += 1;
                filled = 0;
                queue.clear();
                break;
            }
            for v in g.neighbors(u) {
                if owner[v.index()].0 == u16::MAX {
                    queue.push_back(v);
                }
            }
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of cross-fragment edges (the edge cut).
    fn edge_cut(frag: &Fragmentation, g: &Graph) -> usize {
        let cut = g.edges().filter(|e| frag.owner(e.src) != frag.owner(e.dst));
        cut.count()
    }

    fn ring(n: usize) -> Graph {
        let mut b = crate::graph::GraphBuilder::with_fresh_vocab();
        let ns: Vec<NodeId> = (0..n).map(|_| b.add_node_labeled("v")).collect();
        for i in 0..n {
            b.add_edge_labeled(ns[i], ns[(i + 1) % n], "e");
        }
        b.freeze()
    }

    #[test]
    fn every_node_owned_exactly_once() {
        let g = ring(20);
        for strategy in [
            PartitionStrategy::Hash,
            PartitionStrategy::Contiguous,
            PartitionStrategy::BfsClustered,
        ] {
            let frag = Fragmentation::partition(&g, 4, strategy);
            assert_eq!(frag.n(), 4, "{strategy:?}");
            assert_eq!(frag.owner.len(), 20, "{strategy:?}");
            assert!(g.nodes().all(|u| frag.owner(u).index() < 4), "{strategy:?}");
        }
    }

    #[test]
    fn contiguous_ring_cuts_one_edge_per_arc() {
        let g = ring(12);
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Contiguous);
        assert_eq!(edge_cut(&frag, &g), 3);
    }

    #[test]
    fn bfs_clustering_cuts_less_than_hash() {
        let g = ring(64);
        let hash = Fragmentation::partition(&g, 4, PartitionStrategy::Hash);
        let bfs = Fragmentation::partition(&g, 4, PartitionStrategy::BfsClustered);
        assert!(edge_cut(&bfs, &g) < edge_cut(&hash, &g));
    }

    #[test]
    fn fragment_sizes_roughly_balanced() {
        let g = ring(100);
        let frag = Fragmentation::partition(&g, 4, PartitionStrategy::BfsClustered);
        let mut sizes = [0usize; 4];
        for u in g.nodes() {
            sizes[frag.owner(u).index()] += 1;
        }
        assert!(
            sizes.iter().all(|&size| (20..=30).contains(&size)),
            "{sizes:?}"
        );
    }
}
