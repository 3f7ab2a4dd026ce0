//! The BigDansing-style baseline \[28\]: GFDs as relational joins.
//!
//! BigDansing cleans *relations*; to run GFDs it must "represent
//! graphs as tables and encode isomorphic functions beyond relational
//! query languages" (§1). This module implements that strategy: the
//! graph becomes a node table and per-label edge tables, and a GFD's
//! pattern is evaluated as a left-deep sequence of hash joins over the
//! edge tables — one join per pattern edge, label-extent scans for
//! isolated pattern nodes — followed by an injectivity filter (the
//! isomorphism encoding) and the dependency check.
//!
//! The answers are identical to the graph engine's; the cost is not:
//! joins materialize intermediate assignments without any pivot
//! locality, which is exactly why the paper measures BigDansing at
//! 4.6× slower with the same accuracy.

use std::collections::HashMap;

use gfd_core::validate::match_satisfies;
use gfd_core::{GfdSet, Violation};
use gfd_graph::{Graph, NodeId, Sym};
use gfd_match::Match;
use gfd_pattern::{PatLabel, Pattern, PatternEdge, VarId};

/// Per-variable constant predicate: `Some((attr, value))` keeps only
/// nodes where `node.attr = value`.
type VarFilter = Option<(gfd_graph::Sym, gfd_graph::Value)>;

/// Relational encoding of a property graph.
pub struct RelationalValidator<'a> {
    g: &'a Graph,
    /// `edge_table[label] = (src, dst)` rows.
    edge_table: HashMap<Sym, Vec<(NodeId, NodeId)>>,
    /// All edges regardless of label (wildcard pattern edges).
    all_edges: Vec<(NodeId, NodeId)>,
}

impl<'a> RelationalValidator<'a> {
    /// Builds the node/edge tables from a graph.
    pub fn new(g: &'a Graph) -> Self {
        let mut edge_table: HashMap<Sym, Vec<(NodeId, NodeId)>> = HashMap::new();
        let mut all_edges = Vec::with_capacity(g.edge_count());
        for e in g.edges() {
            edge_table.entry(e.label).or_default().push((e.src, e.dst));
            all_edges.push((e.src, e.dst));
        }
        RelationalValidator {
            g,
            edge_table,
            all_edges,
        }
    }

    fn rows(&self, label: PatLabel) -> &[(NodeId, NodeId)] {
        match label {
            PatLabel::Sym(s) => self.edge_table.get(&s).map(Vec::as_slice).unwrap_or(&[]),
            PatLabel::Wildcard => &self.all_edges,
        }
    }

    fn node_ok(&self, q: &Pattern, var: VarId, node: NodeId) -> bool {
        q.label(var).admits(self.g.label(node))
    }

    /// Violation detection needs `h ⊨ X`, so constant literals of `X`
    /// act as per-variable selection predicates that a UDF coding
    /// would push below the joins. Returns, per variable, an optional
    /// `(attr, value)` filter.
    fn constant_filters(dep: &gfd_core::Dependency, nvars: usize) -> Vec<VarFilter> {
        let mut filters: Vec<VarFilter> = vec![None; nvars];
        for lit in &dep.x {
            if let gfd_core::Literal::Const { var, attr, value } = lit {
                filters[var.index()] = Some((*attr, value.clone()));
            }
        }
        filters
    }

    fn passes_filter(&self, filters: &[VarFilter], var: VarId, node: NodeId) -> bool {
        match &filters[var.index()] {
            Some((attr, value)) => self.g.attr(node, *attr) == Some(value),
            None => true,
        }
    }

    /// Enumerates all pattern assignments by joining edge tables, with
    /// per-variable constant predicates pushed below the joins; no
    /// locality, no pivoting — the BigDansing evaluation strategy.
    fn assignments_filtered(&self, q: &Pattern, filters: &[VarFilter]) -> Vec<Vec<NodeId>> {
        let nvars = q.node_count();
        // Join order: pattern edges as given, then isolated nodes.
        let mut partial: Vec<Vec<NodeId>> = vec![vec![NodeId(u32::MAX); nvars]];
        let mut bound = vec![false; nvars];
        for PatternEdge { src, dst, label } in q.edges() {
            let rows = self.rows(*label);
            let mut next: Vec<Vec<NodeId>> = Vec::new();
            for p in &partial {
                for &(s, d) in rows {
                    if !self.node_ok(q, *src, s) || !self.node_ok(q, *dst, d) {
                        continue;
                    }
                    if !self.passes_filter(filters, *src, s)
                        || !self.passes_filter(filters, *dst, d)
                    {
                        continue;
                    }
                    let sp = p[src.index()];
                    let dp = p[dst.index()];
                    if sp.0 != u32::MAX && sp != s {
                        continue;
                    }
                    if dp.0 != u32::MAX && dp != d {
                        continue;
                    }
                    let mut np = p.clone();
                    np[src.index()] = s;
                    np[dst.index()] = d;
                    next.push(np);
                }
            }
            bound[src.index()] = true;
            bound[dst.index()] = true;
            partial = next;
            if partial.is_empty() {
                return partial;
            }
        }
        // Isolated pattern nodes: cartesian with their label extents.
        for v in q.vars() {
            if bound[v.index()] {
                continue;
            }
            let extent: Vec<NodeId> = match q.label(v) {
                PatLabel::Sym(s) => self.g.extent(s).to_vec(),
                PatLabel::Wildcard => self.g.nodes().collect(),
            };
            let mut next = Vec::with_capacity(partial.len() * extent.len());
            for p in &partial {
                for &n in &extent {
                    if !self.passes_filter(filters, v, n) {
                        continue;
                    }
                    let mut np = p.clone();
                    np[v.index()] = n;
                    next.push(np);
                }
            }
            partial = next;
            if partial.is_empty() {
                return partial;
            }
        }
        // Injectivity filter — the "isomorphic function" encoded on top
        // of the joins.
        partial.retain(|p| {
            for i in 0..p.len() {
                for j in i + 1..p.len() {
                    if p[i] == p[j] {
                        return false;
                    }
                }
            }
            true
        });
        partial
    }

    /// Computes `Vio(Σ, G)` via relational evaluation (joins as
    /// written, no predicate pushdown — the naive UDF coding).
    pub fn detect_violations(&self, sigma: &GfdSet) -> Vec<Violation> {
        self.detect(sigma, false)
    }

    /// Computes `Vio(Σ, G)` with the antecedent's constant literals
    /// pushed below the joins (the tuned UDF coding). Same answers;
    /// how far BigDansing's measured slowdown moves between the two
    /// codings is reported by the Fig. 9 harness.
    pub fn detect_violations_pushdown(&self, sigma: &GfdSet) -> Vec<Violation> {
        self.detect(sigma, true)
    }

    fn detect(&self, sigma: &GfdSet, pushdown: bool) -> Vec<Violation> {
        let mut out = Vec::new();
        for (rule, gfd) in sigma.iter().enumerate() {
            let filters = if pushdown {
                Self::constant_filters(&gfd.dep, gfd.pattern.node_count())
            } else {
                vec![None; gfd.pattern.node_count()]
            };
            for assignment in self.assignments_filtered(&gfd.pattern, &filters) {
                if !match_satisfies(&gfd.dep, self.g, &assignment) {
                    out.push(Violation {
                        rule,
                        mapping: Match(assignment),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::validate::detect_violations;
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_graph::{Value, Vocab};
    use gfd_pattern::PatternBuilder;

    /// Every assignment of `q`, no predicate pushed below the joins.
    fn assignments(v: &RelationalValidator, q: &Pattern) -> Vec<Vec<NodeId>> {
        v.assignments_filtered(q, &vec![None; q.node_count()])
    }

    fn flights(dups: usize) -> Graph {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..6 {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            let to = b.add_node_labeled("city");
            b.add_edge_labeled(f, id, "number");
            b.add_edge_labeled(f, to, "to");
            let idv = if i < dups {
                "DUP".into()
            } else {
                format!("F{i}")
            };
            b.set_attr_named(id, "val", Value::str(&idv));
            b.set_attr_named(to, "val", Value::str(&format!("C{i}")));
        }
        b.freeze()
    }

    fn phi(vocab: std::sync::Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        let x2 = b.node("x2", "city");
        b.edge(x, x1, "number");
        b.edge(x, x2, "to");
        let y = b.node("y", "flight");
        let y1 = b.node("y1", "id");
        let y2 = b.node("y2", "city");
        b.edge(y, y1, "number");
        b.edge(y, y2, "to");
        let q = b.build();
        let val = vocab.intern("val");
        Gfd::new(
            "flight-dest",
            q,
            Dependency::new(
                vec![Literal::var_eq(x1, val, y1, val)],
                vec![Literal::var_eq(x2, val, y2, val)],
            ),
        )
    }

    #[test]
    fn relational_matches_graph_engine() {
        let g = flights(3);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        let validator = RelationalValidator::new(&g);
        let mut got = validator.detect_violations(&sigma);
        let key = |v: &Violation| (v.rule, v.mapping.nodes().to_vec());
        expected.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got, expected);
        assert_eq!(got.len(), 6);
    }

    #[test]
    fn wildcard_edges_join_all() {
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        let a = gb.add_node_labeled("a");
        let b_n = gb.add_node_labeled("b");
        gb.add_edge_labeled(a, b_n, "e1");
        gb.add_edge_labeled(b_n, a, "e2");
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let gfd = Gfd::new("w", q, Dependency::new(vec![], vec![]));
        let sigma = GfdSet::new(vec![gfd]);
        let v = RelationalValidator::new(&g);
        // Dependency ∅→∅ is never violated; but the joins must see
        // both edges.
        assert_eq!(assignments(&v, &sigma.get(0).pattern).len(), 2);
        assert!(v.detect_violations(&sigma).is_empty());
    }

    #[test]
    fn isolated_pattern_nodes_cartesian() {
        let g = flights(0);
        let mut b = PatternBuilder::new(g.vocab().clone());
        b.node("x", "flight");
        b.node("y", "flight");
        let q = b.build();
        let v = RelationalValidator::new(&g);
        // 6 flights: ordered injective pairs = 30.
        assert_eq!(assignments(&v, &q).len(), 30);
    }

    #[test]
    fn empty_extent_short_circuits() {
        let g = flights(0);
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "flight");
        let y = b.node("y", "spaceship");
        b.edge(x, y, "number");
        let q = b.build();
        let v = RelationalValidator::new(&g);
        assert!(assignments(&v, &q).is_empty());
    }
}
