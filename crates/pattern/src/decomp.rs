//! Tree decompositions of pattern graphs — the planner's structure
//! analysis.
//!
//! Mined GFD rule sets are full of small cyclic components (triangles,
//! 4-cycles, diamonds); enumerating them edge-at-a-time pays the worst
//! intermediate-result blowup of a bad branch order. Decomposition-
//! based plans (Abo Khamis/Ngo/Suciu's FAQ/submodular-width line)
//! instead bound enumeration by the width of a *tree decomposition* of
//! the pattern's undirected skeleton: each bag is solved as one
//! multiway join, and bags are stitched along the tree, where the
//! running-intersection property makes the stitch a plain equi-join.
//!
//! Decompositions here come from *elimination orders*: eliminating
//! variable `v` creates the bag `{v} ∪ N(v)` over the current fill
//! graph, then turns `N(v)` into a clique. For the ≤[`EXACT_MAX_VARS`]
//! -variable components mined rules produce we find a minimum-width
//! order exactly (depth-first branch-and-bound over orders, ~8! leaves
//! before pruning); larger patterns fall back to the min-fill greedy
//! heuristic. Both searches break ties toward the smallest variable
//! id, so the result is a pure deterministic function of the pattern —
//! the property the per-class plan cache in the matcher's registry
//! relies on. Connected acyclic patterns always get width 1.

use crate::pattern::{Pattern, VarId};

/// Patterns with at most this many variables get an exact
/// minimum-width elimination order; larger ones use min-fill.
pub const EXACT_MAX_VARS: usize = 8;

/// Adjacency bitmasks cap the pattern size the decomposition handles;
/// beyond it a trivial one-bag decomposition is returned (callers
/// treat its width as "too wide to plan").
const MAX_VARS: usize = 128;

/// One bag of a tree decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bag {
    /// Variables in the bag, ascending.
    pub vars: Vec<VarId>,
    /// Parent bag index (`None` for each tree root — disconnected
    /// patterns yield a forest, one tree per component).
    pub parent: Option<usize>,
}

/// A tree decomposition of a pattern's undirected skeleton: every
/// variable and every edge is covered by some bag, and the bags
/// containing any fixed variable form a connected subtree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// The bags; subset bags are contracted away, so tree-adjacent
    /// bags are always incomparable.
    pub bags: Vec<Bag>,
    width: usize,
}

impl TreeDecomposition {
    /// The width: largest bag size minus one. Width ≤ 1 means the
    /// pattern is a forest and a greedy variable order is already
    /// worst-case optimal; width ≥ 2 marks a cyclic pattern worth
    /// ordering along its bags.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of bags.
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }
}

/// Undirected adjacency bitmasks of the pattern (self-loops dropped —
/// a self-loop constrains one variable and never widens a bag).
fn adjacency(q: &Pattern) -> Vec<u128> {
    let n = q.node_count();
    let mut adj = vec![0u128; n];
    for e in q.edges() {
        if e.src != e.dst {
            adj[e.src.index()] |= 1u128 << e.dst.index();
            adj[e.dst.index()] |= 1u128 << e.src.index();
        }
    }
    adj
}

/// Eliminates `v`: connects its remaining neighbors into a clique.
fn absorb_clique(adj: &mut [u128], nbrs: u128) {
    let mut m = nbrs;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        adj[i] |= nbrs & !(1u128 << i);
    }
}

/// Min-fill greedy elimination order: repeatedly eliminate the
/// variable whose remaining neighborhood needs the fewest fill edges
/// to become a clique, ties broken toward the smallest variable id.
fn min_fill_order(mut adj: Vec<u128>, n: usize) -> Vec<usize> {
    let mut remaining: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best_v = usize::MAX;
        let mut best_fill = usize::MAX;
        for v in 0..n {
            if remaining >> v & 1 == 0 {
                continue;
            }
            let nbrs = adj[v] & remaining & !(1u128 << v);
            let mut fill = 0usize;
            let mut m = nbrs;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                // Missing edges from i to later members of nbrs.
                fill += (m & !adj[i]).count_ones() as usize;
            }
            if fill < best_fill {
                best_fill = fill;
                best_v = v;
            }
        }
        let nbrs = adj[best_v] & remaining & !(1u128 << best_v);
        absorb_clique(&mut adj, nbrs);
        remaining &= !(1u128 << best_v);
        order.push(best_v);
    }
    order
}

/// Depth-first branch-and-bound over all elimination orders, keeping
/// the first order achieving each strictly better width — with the
/// ascending variable sweep that makes the winner deterministic.
fn exact_order(adj: &[u128], n: usize) -> Vec<usize> {
    let full: u128 = (1u128 << n) - 1;
    let mut best = (usize::MAX, Vec::new());
    let mut order = Vec::with_capacity(n);
    fn bb(
        adj: &[u128],
        n: usize,
        remaining: u128,
        cur_max: usize,
        order: &mut Vec<usize>,
        best: &mut (usize, Vec<usize>),
    ) {
        if remaining == 0 {
            if cur_max < best.0 {
                *best = (cur_max, order.clone());
            }
            return;
        }
        for v in 0..n {
            if remaining >> v & 1 == 0 {
                continue;
            }
            let nbrs = adj[v] & remaining & !(1u128 << v);
            let new_max = cur_max.max(nbrs.count_ones() as usize + 1);
            if new_max >= best.0 {
                continue;
            }
            let mut next = adj.to_vec();
            absorb_clique(&mut next, nbrs);
            order.push(v);
            bb(&next, n, remaining & !(1u128 << v), new_max, order, best);
            order.pop();
        }
    }
    bb(adj, n, full, 0, &mut order, &mut best);
    debug_assert_eq!(best.1.len(), n);
    best.1
}

/// Replays an elimination order into bags and tree edges, then
/// contracts subset bags (a bag that is a subset of a tree-adjacent
/// bag is merged into it — elimination orders of chordal fragments
/// produce runs of shrinking bags that collapse this way, e.g. a
/// triangle's `{x,y,z} ⊇ {y,z} ⊇ {z}` becomes the single bag
/// `{x,y,z}`).
fn decomposition_from_order(q: &Pattern, order: &[usize]) -> TreeDecomposition {
    let n = order.len();
    let mut adj = adjacency(q);
    let mut remaining: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    // One provisional bag per eliminated variable; parent = home bag
    // of the earliest-eliminated remaining neighbor.
    let mut masks = Vec::with_capacity(n);
    let mut parents: Vec<Option<usize>> = Vec::with_capacity(n);
    for &v in order {
        let nbrs = adj[v] & remaining & !(1u128 << v);
        masks.push(nbrs | (1u128 << v));
        let mut parent_var = None;
        let mut m = nbrs;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if parent_var.is_none_or(|p: usize| pos[i] < pos[p]) {
                parent_var = Some(i);
            }
        }
        // The parent bag is where that neighbor is later eliminated —
        // its index in `masks` is its elimination position.
        parents.push(parent_var.map(|u| pos[u]));
        absorb_clique(&mut adj, nbrs);
        remaining &= !(1u128 << v);
    }
    // Contract: merge any bag into a tree-adjacent superset until no
    // comparable adjacent pair remains. (From an elimination order the
    // superset is always the child, but the loop handles both ways.)
    let mut alive = vec![true; n];
    loop {
        let mut merged = false;
        for b in 0..n {
            if !alive[b] {
                continue;
            }
            let Some(p) = parents[b] else { continue };
            debug_assert!(alive[p]);
            let (keep, drop) = if masks[p] & !masks[b] == 0 {
                (b, p) // parent ⊆ child: child absorbs parent.
            } else if masks[b] & !masks[p] == 0 {
                (p, b) // child ⊆ parent.
            } else {
                continue;
            };
            if keep == b {
                parents[b] = parents[p];
            }
            for other in 0..n {
                if alive[other] && other != drop && parents[other] == Some(drop) {
                    parents[other] = Some(keep);
                }
            }
            alive[drop] = false;
            merged = true;
        }
        if !merged {
            break;
        }
    }
    // Compact the surviving bags.
    let mut new_index = vec![usize::MAX; n];
    let mut count = 0usize;
    for b in 0..n {
        if alive[b] {
            new_index[b] = count;
            count += 1;
        }
    }
    let mut bags = Vec::with_capacity(count);
    let mut width = 0usize;
    for b in 0..n {
        if !alive[b] {
            continue;
        }
        let mut vars = Vec::with_capacity(masks[b].count_ones() as usize);
        let mut m = masks[b];
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            vars.push(VarId(i as u32));
        }
        width = width.max(vars.len().saturating_sub(1));
        bags.push(Bag {
            vars,
            parent: parents[b].map(|p| new_index[p]),
        });
    }
    TreeDecomposition { bags, width }
}

/// Computes a tree decomposition of the pattern's undirected skeleton.
///
/// Exact minimum width for patterns of up to [`EXACT_MAX_VARS`]
/// variables, min-fill greedy beyond; both deterministic. Disconnected
/// patterns yield a forest (one root bag per component). Patterns
/// larger than 128 variables get a trivial single-bag decomposition
/// whose width (`n − 1`) callers read as "unplannable".
pub fn tree_decomposition(q: &Pattern) -> TreeDecomposition {
    let n = q.node_count();
    if n == 0 {
        return TreeDecomposition {
            bags: Vec::new(),
            width: 0,
        };
    }
    if n > MAX_VARS {
        let vars: Vec<VarId> = q.vars().collect();
        return TreeDecomposition {
            width: n - 1,
            bags: vec![Bag { vars, parent: None }],
        };
    }
    let adj = adjacency(q);
    let order = if n <= EXACT_MAX_VARS {
        exact_order(&adj, n)
    } else {
        min_fill_order(adj, n)
    };
    decomposition_from_order(q, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use gfd_graph::Vocab;

    /// Structural validity: every variable covered, every edge inside
    /// some bag, and per-variable bag occurrences form a connected
    /// subtree (running intersection).
    fn verify(td: &TreeDecomposition, q: &Pattern) {
        for v in q.vars() {
            assert!(
                td.bags.iter().any(|b| b.vars.contains(&v)),
                "variable {v:?} not covered by any bag"
            );
        }
        for e in q.edges() {
            assert!(
                td.bags
                    .iter()
                    .any(|b| b.vars.contains(&e.src) && b.vars.contains(&e.dst)),
                "edge {:?}→{:?} not covered",
                e.src,
                e.dst
            );
        }
        for v in q.vars() {
            let holders: Vec<usize> = (0..td.bags.len())
                .filter(|&i| td.bags[i].vars.contains(&v))
                .collect();
            // Each holder except the one closest to the root must have
            // a parent that also holds v.
            let root_holders = holders
                .iter()
                .filter(|&&i| {
                    td.bags[i]
                        .parent
                        .is_none_or(|p| !td.bags[p].vars.contains(&v))
                })
                .count();
            assert_eq!(root_holders, 1, "occurrences of {v:?} are not a subtree");
        }
    }

    fn cycle(n: usize) -> Pattern {
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..n).map(|i| b.node(&format!("v{i}"), "t")).collect();
        for i in 0..n {
            b.edge(vs[i], vs[(i + 1) % n], "e");
        }
        b.build()
    }

    #[test]
    fn triangle_is_one_bag_of_width_two() {
        let q = cycle(3);
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 2);
        assert_eq!(td.bag_count(), 1);
        assert_eq!(td.bags[0].vars, vec![VarId(0), VarId(1), VarId(2)]);
        assert_eq!(td.bags[0].parent, None);
    }

    #[test]
    fn four_cycle_is_two_overlapping_bags() {
        let q = cycle(4);
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 2);
        assert_eq!(td.bag_count(), 2);
        // The two bags share exactly the chord pair.
        let shared: Vec<VarId> = td.bags[0]
            .vars
            .iter()
            .copied()
            .filter(|v| td.bags[1].vars.contains(v))
            .collect();
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn trees_have_width_one() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let hub = b.node("hub", "t");
        for i in 0..5 {
            let v = b.node(&format!("v{i}"), "t");
            b.edge(hub, v, "l");
        }
        let star = b.build();
        let td = tree_decomposition(&star);
        verify(&td, &star);
        assert_eq!(td.width(), 1);

        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..6).map(|i| b.node(&format!("p{i}"), "t")).collect();
        for w in vs.windows(2) {
            b.edge(w[0], w[1], "e");
        }
        let path = b.build();
        let td = tree_decomposition(&path);
        verify(&td, &path);
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn single_node_and_empty() {
        let mut b = PatternBuilder::new(Vocab::shared());
        b.node("x", "t");
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 0);
        assert_eq!(td.bag_count(), 1);

        let empty = PatternBuilder::new(Vocab::shared()).build();
        assert_eq!(tree_decomposition(&empty).bag_count(), 0);
        assert_eq!(tree_decomposition(&empty).width(), 0);
    }

    #[test]
    fn k4_is_width_three() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..4).map(|i| b.node(&format!("v{i}"), "t")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.edge(vs[i], vs[j], "e");
            }
        }
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 3);
        assert_eq!(td.bag_count(), 1);
    }

    /// The 3×3 grid graph has treewidth 3 — the exact search must not
    /// settle for min-fill's answer if a better order exists (both
    /// give 3 here, but the exact bound is what the assertion pins).
    #[test]
    fn grid_3x3_width_three() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..9).map(|i| b.node(&format!("g{i}"), "t")).collect();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    b.edge(vs[3 * r + c], vs[3 * r + c + 1], "e");
                }
                if r + 1 < 3 {
                    b.edge(vs[3 * r + c], vs[3 * (r + 1) + c], "e");
                }
            }
        }
        let q = b.build();
        // 9 vars > EXACT_MAX_VARS → min-fill path; still valid and
        // width 3 on a grid this small.
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 3);
    }

    #[test]
    fn diamond_width_two() {
        // 4-cycle plus one chord: chordal, width 2.
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..4).map(|i| b.node(&format!("v{i}"), "t")).collect();
        for i in 0..4 {
            b.edge(vs[i], vs[(i + 1) % 4], "e");
        }
        b.edge(vs[0], vs[2], "c");
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 2);
        assert_eq!(td.bag_count(), 2);
    }

    #[test]
    fn disconnected_pattern_yields_forest() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "t");
        let y = b.node("y", "t");
        b.edge(x, y, "e");
        let z = b.node("z", "t");
        let w = b.node("w", "t");
        b.edge(z, w, "e");
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 1);
        let roots = td.bags.iter().filter(|b| b.parent.is_none()).count();
        assert_eq!(roots, 2);
    }

    #[test]
    fn decomposition_is_deterministic() {
        let q = cycle(5);
        let a = tree_decomposition(&q);
        let b = tree_decomposition(&q);
        assert_eq!(a, b);
    }

    #[test]
    fn self_loops_do_not_widen() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "t");
        let y = b.node("y", "t");
        b.edge(x, x, "s");
        b.edge(x, y, "e");
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q);
        assert_eq!(td.width(), 1);
    }
}
