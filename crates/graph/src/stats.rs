//! Graph statistics: degree statistics and the `d`-hop skew ratio of
//! Fig. 8. Label frequencies `|C(µ(z))|` — the candidates of a pivot
//! variable `z` (§6.1) — are the lengths of the snapshot's label
//! extents ([`Graph::extent`]), so none are kept here.

use crate::graph::{Graph, NodeId};

/// Precomputed summary statistics of a graph.
#[derive(Clone, Debug, Default)]
pub struct GraphStats {
    max_degree: usize,
    avg_degree: f64,
}

impl GraphStats {
    /// Scans `g` once and records degree stats.
    pub fn compute(g: &Graph) -> Self {
        let mut max_degree = 0usize;
        let mut total_degree = 0usize;
        for u in g.nodes() {
            let d = g.degree(u);
            max_degree = max_degree.max(d);
            total_degree += d;
        }
        let avg_degree = if g.node_count() == 0 {
            0.0
        } else {
            total_degree as f64 / g.node_count() as f64
        };
        GraphStats {
            max_degree,
            avg_degree,
        }
    }

    /// Largest total degree in the graph.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Mean total degree.
    pub fn avg_degree(&self) -> f64 {
        self.avg_degree
    }

    /// Skew ratio as defined for Fig. 8: average size of the 10% smallest
    /// `d`-hop neighborhoods over the 10% largest (smaller ⇒ more skewed).
    pub fn skew_ratio(g: &Graph, d: usize, sample: usize) -> f64 {
        let n = g.node_count();
        if n == 0 {
            return 1.0;
        }
        let step = (n / sample.max(1)).max(1);
        let mut sizes: Vec<usize> = (0..n)
            .step_by(step)
            .map(|i| crate::neighborhood::khop_nodes(g, &[NodeId(i as u32)], d).len())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// A label's frequency is the length of its extent.
    #[test]
    fn label_frequencies() {
        let mut b = GraphBuilder::with_fresh_vocab();
        for _ in 0..3 {
            b.add_node_labeled("flight");
        }
        b.add_node_labeled("city");
        let g = b.freeze();
        let flight = g.vocab().lookup("flight").unwrap();
        let city = g.vocab().lookup("city").unwrap();
        assert_eq!(g.extent(flight).len(), 3);
        assert_eq!(g.extent(city).len(), 1);
        assert_eq!(g.extent(g.vocab().intern("nope")).len(), 0);
    }

    #[test]
    fn degree_stats() {
        let mut bld = GraphBuilder::with_fresh_vocab();
        let a = bld.add_node_labeled("a");
        let b = bld.add_node_labeled("b");
        let c = bld.add_node_labeled("c");
        bld.add_edge_labeled(a, b, "e");
        bld.add_edge_labeled(a, c, "e");
        let g = bld.freeze();
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.max_degree(), 2);
        assert!((stats.avg_degree() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn skew_ratio_of_uniform_graph_near_one() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let ns: Vec<_> = (0..40).map(|_| b.add_node_labeled("v")).collect();
        for i in 0..40 {
            b.add_edge_labeled(ns[i], ns[(i + 1) % 40], "e");
        }
        let g = b.freeze();
        let ratio = GraphStats::skew_ratio(&g, 2, 40);
        assert!(
            ratio > 0.9,
            "uniform ring should have ratio ≈ 1, got {ratio}"
        );
    }
}
