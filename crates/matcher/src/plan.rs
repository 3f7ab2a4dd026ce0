//! Decomposition plans: the variable order that makes the one
//! enumerator ([`crate::component`]) worst-case optimal on cyclic
//! pattern components.
//!
//! An edge-at-a-time search can pay the worst intermediate-result
//! blowup of a bad branch order on cyclic patterns — a skewed triangle
//! enumerates every `(x, y)` edge pair before discovering that almost
//! none close the cycle. A [`QueryPlan`] instead orders the variables
//! along a tree decomposition of the pattern ([`gfd_pattern::decomp`]):
//!
//! * bags are visited in parent-before-child order and each bag places
//!   only its *fresh* variables, so a variable bound by an earlier bag
//!   stays fixed and every parent binding constrains the child's
//!   pools directly — the plan's `order` is that sequence flattened;
//! * by the running-intersection property every pattern edge from a
//!   fresh variable to an already-placed one lies inside the current
//!   bag, so the enumerator's space-mode pool — the multiway
//!   intersection of *all* placed neighbors' candidate-adjacency runs
//!   — is exactly the bag's worst-case-optimal multiway step.
//!   (Materializing bag tables and equi-joining them was measured
//!   strictly worse: a child bag enumerated *independently* pays its
//!   full unconstrained frontier, which on cyclic benches costs more
//!   than all per-binding residual solves combined.)
//! * the order only replaces the enumerator's greedy one for unpinned
//!   searches of cyclic components (width ≥ 2); forests and pinned
//!   searches are already well served by pins-first greedy order.
//!
//! Plans are a pure function of the pattern — no graph statistics —
//! and therefore isomorphism-invariant: the registry computes one plan
//! per canonical class, on the representative, and every member
//! enumerates through it in representative variable numbering,
//! exactly like candidate spaces.

use gfd_pattern::{tree_decomposition, Pattern, TreeDecomposition, VarId};

/// A decomposition-based execution plan for one connected pattern.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// The enumerator's variable order: each bag's variables in
    /// placement order — greedy most-constrained-first (most
    /// already-placed bag neighbors, then highest bag-internal degree,
    /// then smallest id — fully deterministic) — concatenated along the
    /// bags' parent-before-child (DFS) order, each variable at its
    /// first occurrence. With the running-intersection property the
    /// DFS order guarantees that at the first-visited bag containing
    /// both endpoints of an edge, at least one endpoint is still fresh,
    /// so every edge is enforced exactly where it first becomes local.
    pub(crate) order: Vec<VarId>,
    width: usize,
    pub(crate) n_vars: usize,
}

impl QueryPlan {
    /// Plans `q` from scratch (tree decomposition + per-bag orders).
    pub fn new(q: &Pattern) -> QueryPlan {
        let td = tree_decomposition(q);
        let mut order = Vec::with_capacity(q.node_count());
        for bi in dfs_order(&td) {
            for v in bag_order(q, &td.bags[bi as usize].vars) {
                if !order.contains(&v) {
                    order.push(v);
                }
            }
        }
        QueryPlan {
            order,
            width: td.width(),
            n_vars: q.node_count(),
        }
    }

    /// The decomposition's width — the planner's cost signal: width ≤ 1
    /// means the component is a forest and the greedy variable order
    /// is the right one; width ≥ 2 marks a cyclic component worth
    /// ordering along its bags.
    pub fn width(&self) -> usize {
        self.width
    }

    /// True if the plan has any cyclic bag (width ≥ 2).
    pub fn is_cyclic(&self) -> bool {
        self.width() >= 2
    }
}

/// Bag indices in parent-before-child order: roots first, then each
/// bag immediately after its parent's subtree is entered (iterative
/// DFS; deterministic — children visit in ascending index order).
fn dfs_order(td: &TreeDecomposition) -> Vec<u32> {
    let n = td.bags.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack = Vec::new();
    for root in 0..n {
        if td.bags[root].parent.is_some() || visited[root] {
            continue;
        }
        stack.push(root);
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut visited[b], true) {
                continue;
            }
            order.push(b as u32);
            // Push children in descending order so they pop ascending.
            for c in (0..n).rev() {
                if td.bags[c].parent == Some(b) && !visited[c] {
                    stack.push(c);
                }
            }
        }
    }
    // Defensive: a malformed parent cycle would strand bags; append
    // them in index order rather than silently dropping coverage.
    for (b, seen) in visited.iter().enumerate() {
        if !seen {
            order.push(b as u32);
        }
    }
    order
}

/// Deterministic placement order for one bag's variables, judged by
/// the pattern edges with both endpoints in the bag.
fn bag_order(q: &Pattern, vars: &[VarId]) -> Vec<VarId> {
    let edges: Vec<_> = q
        .edges()
        .iter()
        .filter(|e| vars.contains(&e.src) && vars.contains(&e.dst))
        .collect();
    let mut order: Vec<VarId> = Vec::with_capacity(vars.len());
    let internal_degree = |v: VarId| {
        edges
            .iter()
            .filter(|e| (e.src == v || e.dst == v) && e.src != e.dst)
            .count()
    };
    while order.len() < vars.len() {
        let next = vars
            .iter()
            .copied()
            .filter(|v| !order.contains(v))
            .max_by_key(|&v| {
                let constrained = edges
                    .iter()
                    .filter(|e| {
                        (e.src == v && order.contains(&e.dst))
                            || (e.dst == v && order.contains(&e.src))
                    })
                    .count();
                (constrained, internal_degree(v), std::cmp::Reverse(v.0))
            })
            .expect("unplaced variable exists");
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{ComponentSearch, SearchScratch, StopReason};
    use crate::simulation::dual_simulation;
    use crate::types::{Flow, Pin};
    use gfd_graph::{Graph, GraphBuilder, NodeId};
    use gfd_pattern::PatternBuilder;

    fn triangle_pattern(vocab: &std::sync::Arc<gfd_graph::Vocab>) -> Pattern {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        let z = b.node("z", "c");
        b.edge(x, y, "e1");
        b.edge(y, z, "e2");
        b.edge(z, x, "e3");
        b.build()
    }

    /// A skewed triangle workload: dense a→b layer, sparse cycle
    /// closures — the shape where edge-at-a-time enumeration drowns.
    fn skewed_graph(per_layer: usize, closures: usize) -> Graph {
        let mut b = GraphBuilder::with_fresh_vocab();
        let al: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("a")).collect();
        let bl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("b")).collect();
        let cl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("c")).collect();
        for &a in &al {
            for &x in &bl {
                b.add_edge_labeled(a, x, "e1");
            }
        }
        for i in 0..per_layer {
            b.add_edge_labeled(bl[i], cl[i], "e2");
        }
        for i in 0..closures.min(per_layer) {
            b.add_edge_labeled(cl[i], al[i], "e3");
        }
        b.freeze()
    }

    /// The enumerator in space mode under the plan's order.
    fn run_plan(q: &Pattern, g: &Graph, pins: &[Pin]) -> Vec<Vec<NodeId>> {
        let cs = dual_simulation(q, g, None);
        let plan = QueryPlan::new(q);
        let mut search = ComponentSearch::new(q, g)
            .candidate_space(&cs)
            .plan_order(&plan)
            .pins(pins);
        let mut out = Vec::new();
        let reason = search.for_each(&mut |m| {
            out.push(m.to_vec());
            Flow::Continue
        });
        assert_eq!(reason, StopReason::Exhausted);
        out.sort();
        out
    }

    /// The enumerator in raw mode under greedy order.
    fn run_oracle(q: &Pattern, g: &Graph, pins: &[Pin]) -> Vec<Vec<NodeId>> {
        let mut out = ComponentSearch::new(q, g).pins(pins).collect_all();
        out.sort();
        out
    }

    #[test]
    fn triangle_plan_matches_oracle() {
        let g = skewed_graph(12, 4);
        let q = triangle_pattern(g.vocab());
        assert_eq!(tree_decomposition(&q).bag_count(), 1);
        assert_eq!(run_plan(&q, &g, &[]), run_oracle(&q, &g, &[]));
        assert_eq!(run_plan(&q, &g, &[]).len(), 4);
    }

    #[test]
    fn four_cycle_plan_fuses_two_bags() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let n: Vec<NodeId> = (0..8).map(|_| b.add_node_labeled("t")).collect();
        // Two 4-cycles sharing structure plus noise edges.
        for c in [[0usize, 1, 2, 3], [4, 5, 6, 7], [0, 5, 2, 7]] {
            for i in 0..4 {
                b.add_edge_labeled(n[c[i]], n[c[(i + 1) % 4]], "e");
            }
        }
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let vs: Vec<VarId> = (0..4).map(|i| pb.node(&format!("v{i}"), "t")).collect();
        for i in 0..4 {
            pb.edge(vs[i], vs[(i + 1) % 4], "e");
        }
        let q = pb.build();
        assert_eq!(tree_decomposition(&q).bag_count(), 2);
        assert_eq!(QueryPlan::new(&q).width(), 2);
        assert_eq!(run_plan(&q, &g, &[]), run_oracle(&q, &g, &[]));
        assert!(!run_plan(&q, &g, &[]).is_empty());
    }

    #[test]
    fn pins_restrict_plan_output() {
        let g = skewed_graph(8, 3);
        let q = triangle_pattern(g.vocab());
        let x = q.var_by_name("x").unwrap();
        // Pin x to each closure anchor and to a non-anchor.
        let all = run_oracle(&q, &g, &[]);
        for m in &all {
            let pins = [Pin::at(x, m[x.index()])];
            assert_eq!(run_plan(&q, &g, &pins), run_oracle(&q, &g, &pins));
        }
        // A colliding pin pair yields nothing.
        let y = q.var_by_name("y").unwrap();
        let node = all[0][x.index()];
        assert!(run_plan(&q, &g, &[Pin::at(x, node), Pin::at(y, node)]).is_empty());
    }

    #[test]
    fn full_pins_respected() {
        let g = skewed_graph(6, 6);
        let q = triangle_pattern(g.vocab());
        let cs = dual_simulation(&q, &g, None);
        let plan = QueryPlan::new(&q);
        let full = run_plan(&q, &g, &[]);
        // Pin every variable at the nodes of the first match only.
        let pins: Vec<Pin> = q.vars().map(|v| Pin::at(v, full[0][v.index()])).collect();
        let out = ComponentSearch::new(&q, &g)
            .candidate_space(&cs)
            .plan_order(&plan)
            .pins(&pins)
            .collect_all();
        assert_eq!(out, vec![full[0].clone()]);
    }

    #[test]
    fn budget_and_break_stop_the_plan() {
        let g = skewed_graph(8, 8);
        let q = triangle_pattern(g.vocab());
        let cs = dual_simulation(&q, &g, None);
        let plan = QueryPlan::new(&q);
        let search = || {
            ComponentSearch::new(&q, &g)
                .candidate_space(&cs)
                .plan_order(&plan)
        };
        let reason = search().max_steps(2).for_each(&mut |_| Flow::Continue);
        assert_eq!(reason, StopReason::BudgetExhausted);
        let mut n = 0;
        let reason = search().for_each(&mut |_| {
            n += 1;
            Flow::Break
        });
        assert_eq!(reason, StopReason::CallbackBreak);
        assert_eq!(n, 1);
    }

    #[test]
    fn self_loop_enforced_by_plan() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node_labeled("t")).collect();
        for i in 0..3 {
            b.add_edge_labeled(n[i], n[(i + 1) % 3], "e");
        }
        b.add_edge_labeled(n[0], n[0], "s");
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let vs: Vec<VarId> = (0..3).map(|i| pb.node(&format!("v{i}"), "t")).collect();
        for i in 0..3 {
            pb.edge(vs[i], vs[(i + 1) % 3], "e");
        }
        pb.edge(vs[0], vs[0], "s");
        let q = pb.build();
        assert_eq!(run_plan(&q, &g, &[]), run_oracle(&q, &g, &[]));
        assert_eq!(run_plan(&q, &g, &[]).len(), 1);
    }

    /// The scratch is genuinely reusable: repeated executions agree
    /// and reuse the same buffers (the zero-allocation claim itself is
    /// asserted with the counting allocator in `gfd-bench`).
    #[test]
    fn scratch_reuse_across_patterns_of_different_arity() {
        let g = skewed_graph(6, 2);
        let tri = triangle_pattern(g.vocab());
        // An undirected 4-cycle inside the dense bipartite a→b layer:
        // two `a` variables each pointing at the same two `b`s.
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let a0 = pb.node("a0", "a");
        let b0 = pb.node("b0", "b");
        let a1 = pb.node("a1", "a");
        let b1 = pb.node("b1", "b");
        pb.edge(a0, b0, "e1");
        pb.edge(a1, b0, "e1");
        pb.edge(a1, b1, "e1");
        pb.edge(a0, b1, "e1");
        let square = pb.build();
        let mut scratch = SearchScratch::default();
        for q in [&tri, &square, &tri] {
            let cs = dual_simulation(q, &g, None);
            let plan = QueryPlan::new(q);
            let mut search = ComponentSearch::new(q, &g)
                .with_scratch(scratch)
                .candidate_space(&cs)
                .plan_order(&plan);
            let mut out = search.collect_all();
            scratch = search.into_scratch();
            out.sort();
            assert_eq!(out, run_oracle(q, &g, &[]));
        }
    }
}
