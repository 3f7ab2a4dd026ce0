//! Tree decompositions of pattern graphs — the structure signal that
//! prices work units, and nothing else.
//!
//! Mined GFD rule sets are full of small cyclic components (triangles,
//! 4-cycles, diamonds). The width of a *tree decomposition* of a
//! pattern's undirected skeleton (the FAQ/submodular-width line of Abo
//! Khamis, Ngo and Suciu) measures how hard such a component is to
//! enumerate: width 1 for trees, 2 for a triangle or a 4-cycle.
//! `gfd-parallel`'s workload estimation folds each part's width into
//! its unit costs. No search reads a decomposition: the matcher's one
//! enumerator orders every search from candidate-set sizes, which see
//! the data where a width sees only the pattern.
//!
//! A decomposition here *is* an elimination order and its width:
//! eliminating variable `v` stands for the bag `{v} ∪ N(v)` over the
//! current fill graph, then turns `N(v)` into a clique, and the width
//! is the largest `|N(v)|` met on the way. The bags themselves are not
//! built, nor contracted into their supersets — a subset bag changes
//! no width. For the ≤[`EXACT_MAX_VARS`]
//! -variable components mined rules produce we find a minimum-width
//! order exactly (depth-first branch-and-bound over orders, ~8! leaves
//! before pruning); larger patterns fall back to the min-fill greedy
//! heuristic. Both searches break ties toward the smallest variable
//! id, so the result is a pure deterministic function of the pattern.
//! Connected acyclic patterns always get width 1.

use crate::pattern::{Pattern, VarId};

/// Patterns with at most this many variables get an exact
/// minimum-width elimination order; larger ones use min-fill.
pub const EXACT_MAX_VARS: usize = 8;

/// Adjacency bitmasks cap the pattern size the decomposition handles;
/// beyond it the width is the pattern's size minus one (a single bag,
/// the most expensive price).
const MAX_VARS: usize = 128;

/// A tree decomposition of a pattern's undirected skeleton, kept as
/// the elimination order it comes from: eliminating `order[i]` over
/// the fill graph makes the bag `{order[i]} ∪ N(order[i])`, whose
/// parent is the bag of the earliest-eliminated member of that `N`.
/// The bags are never built — a bag inside a larger neighbour never
/// raises the width, and the width is all a work unit's price reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeDecomposition {
    /// The elimination order: every variable once; the tests derive
    /// its bags to check the width against.
    order: Vec<VarId>,
    width: usize,
}

impl TreeDecomposition {
    /// The width: the largest `|N(v)|` met while eliminating, i.e. the
    /// largest bag size minus one. Width ≤ 1 means the pattern is a
    /// forest; width ≥ 2 marks a cyclic pattern, whose pinned searches
    /// cost more per pool entry.
    pub fn width(&self) -> usize {
        self.width
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

/// Min-fill greedy elimination order and its width: repeatedly
/// eliminate the variable whose remaining neighborhood needs the
/// fewest fill edges to become a clique, ties broken toward the
/// smallest variable id.
fn min_fill_order(mut adj: Vec<u128>, n: usize) -> (Vec<usize>, usize) {
    let mut remaining: u128 = if n == 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    };
    let mut order = Vec::with_capacity(n);
    let mut width = 0;
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
        width = width.max(nbrs.count_ones() as usize);
        absorb_clique(&mut adj, nbrs);
        remaining &= !(1u128 << best_v);
        order.push(best_v);
    }
    (order, width)
}

/// Depth-first branch-and-bound over all elimination orders, keeping
/// the first order achieving each strictly better width — with the
/// ascending variable sweep that makes the winner deterministic.
/// Returns the order and its width (`n ≥ 1`).
fn exact_order(adj: &[u128], n: usize) -> (Vec<usize>, usize) {
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
    // `best.0` is the largest bag, `{v} ∪ N(v)`.
    (best.1, best.0 - 1)
}

/// Computes a tree decomposition of the pattern's undirected skeleton.
///
/// Exact minimum width for patterns of up to [`EXACT_MAX_VARS`]
/// variables, min-fill greedy beyond; both deterministic. Patterns
/// larger than 128 variables get the identity order priced at width
/// `n − 1`, the hardest shape, whatever that order's own width.
pub fn tree_decomposition(q: &Pattern) -> TreeDecomposition {
    let n = q.node_count();
    let (order, width) = if n == 0 {
        (Vec::new(), 0)
    } else if n > MAX_VARS {
        ((0..n).collect(), n - 1)
    } else if n <= EXACT_MAX_VARS {
        exact_order(&adjacency(q), n)
    } else {
        min_fill_order(adjacency(q), n)
    };
    TreeDecomposition {
        order: order.into_iter().map(|v| VarId(v as u32)).collect(),
        width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use gfd_graph::Vocab;
    use gfd_util::prop::{cases, check};
    use gfd_util::Rng;

    /// The pattern's undirected skeleton as neighbour masks, self-loops
    /// dropped — built here, not by the module's `adjacency`.
    fn skeleton(q: &Pattern) -> Vec<u32> {
        let mut adj = vec![0u32; q.node_count()];
        for e in q.edges() {
            let (s, d) = (e.src.index(), e.dst.index());
            if s != d {
                adj[s] |= 1 << d;
                adj[d] |= 1 << s;
            }
        }
        adj
    }

    /// The bags `order` stands for, as masks with parent links: the bag
    /// of `v` is `v` plus its fill-graph neighbours eliminated after it,
    /// and its parent is the bag of the earliest of those neighbours.
    fn bags(q: &Pattern, order: &[VarId]) -> Vec<(u32, Option<usize>)> {
        let mut adj = skeleton(q);
        let mut pos = vec![usize::MAX; adj.len()];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let mut out = Vec::with_capacity(order.len());
        for (i, v) in order.iter().enumerate() {
            let v = v.index();
            let later: Vec<usize> = (0..adj.len())
                .filter(|&u| adj[v] >> u & 1 == 1 && pos[u] > i)
                .collect();
            for &a in &later {
                for &b in &later {
                    if a != b {
                        adj[a] |= 1 << b;
                    }
                }
            }
            let mask = later.iter().fold(1u32 << v, |m, &u| m | 1 << u);
            out.push((mask, later.iter().map(|&u| pos[u]).min()));
        }
        out
    }

    /// Structural validity of the decomposition's order: it lists every
    /// variable once, every edge lies inside some bag, the bags holding
    /// any variable form a connected subtree (running intersection),
    /// and the width is the largest bag minus one.
    fn verify(td: &TreeDecomposition, q: &Pattern) -> Result<(), String> {
        let n = q.node_count();
        let mut seen = td.order.clone();
        seen.sort();
        if seen != q.vars().collect::<Vec<_>>() {
            return Err(format!("order {:?} is not a permutation", td.order));
        }
        let bags = bags(q, &td.order);
        for e in q.edges() {
            let pair = 1u32 << e.src.index() | 1 << e.dst.index();
            if !bags.iter().any(|&(m, _)| m & pair == pair) {
                return Err(format!("edge {:?}→{:?} not covered", e.src, e.dst));
            }
        }
        for v in 0..n {
            let holds = |b: usize| bags[b].0 >> v & 1 == 1;
            let tops = (0..bags.len())
                .filter(|&b| holds(b) && bags[b].1.is_none_or(|p| !holds(p)))
                .count();
            if tops != 1 {
                return Err(format!("the bags of v{v} form {tops} subtrees"));
            }
        }
        let largest = bags.iter().map(|&(m, _)| m.count_ones() as usize).max();
        if td.width() != largest.map_or(0, |l| l - 1) {
            return Err(format!("width {} vs largest bag {largest:?}", td.width()));
        }
        Ok(())
    }

    /// The minimum width over every elimination order of the remaining
    /// variables (`cur` is the largest `|N(v)|` met so far).
    fn min_width(adj: &[u32], remaining: u32, cur: usize) -> usize {
        if remaining == 0 {
            return cur;
        }
        let mut best = usize::MAX;
        for v in 0..adj.len() {
            if remaining >> v & 1 == 0 {
                continue;
            }
            let nbrs = adj[v] & remaining & !(1 << v);
            let mut next = adj.to_vec();
            for (u, row) in next.iter_mut().enumerate() {
                if nbrs >> u & 1 == 1 {
                    *row |= nbrs & !(1 << u);
                }
            }
            let w = cur.max(nbrs.count_ones() as usize);
            best = best.min(min_width(&next, remaining & !(1 << v), w));
        }
        best
    }

    /// A random pattern on a drawn number of variables: each ordered
    /// pair an edge with one drawn density, plus the odd self-loop.
    fn random_pattern(rng: &mut Rng, vars: std::ops::Range<usize>) -> Pattern {
        let n = rng.gen_range(vars);
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..n).map(|i| b.node(&format!("v{i}"), "t")).collect();
        let p = rng.gen_f64_range(0.1, 0.6);
        for &s in &vs {
            for &d in &vs {
                if rng.gen_bool(if s == d { 0.1 } else { p }) {
                    b.edge(s, d, "e");
                }
            }
        }
        b.build()
    }

    /// Up to 7 variables the exact search's width is the minimum over
    /// all orders, found by brute force; at 9–12 the min-fill order is
    /// a valid decomposition of its stated width.
    #[test]
    fn random_patterns_get_valid_orders_of_minimum_width() {
        check("exact width is minimum", cases(300, 40), |rng| {
            let q = random_pattern(rng, 1..8);
            let td = tree_decomposition(&q);
            verify(&td, &q)?;
            let n = q.node_count();
            let least = min_width(&skeleton(&q), (1 << n) - 1, 0);
            if td.width() != least {
                return Err(format!("width {} vs minimum {least}", td.width()));
            }
            Ok(())
        });
        check("min-fill order is valid", cases(300, 40), |rng| {
            let q = random_pattern(rng, 9..13);
            verify(&tree_decomposition(&q), &q)
        });
    }

    /// A 7-variable skeleton (seed 8567 of a 7-variable run of the
    /// generator above) where min-fill settles for width 5: the exact
    /// search is what finds 4. Random patterns this small almost never
    /// separate the two, so this case pins the exact path.
    #[test]
    fn exact_search_beats_min_fill() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..7).map(|i| b.node(&format!("v{i}"), "t")).collect();
        for (s, d) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 6),
            (1, 3),
            (1, 4),
            (1, 5),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 6),
            (4, 6),
            (5, 6),
        ] {
            b.edge(vs[s], vs[d], "e");
        }
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 4);
        assert_eq!(min_fill_order(adjacency(&q), 7).1, 5);
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
    fn triangle_is_width_two() {
        let q = cycle(3);
        let td = tree_decomposition(&q);
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn four_cycle_is_width_two() {
        let q = cycle(4);
        let td = tree_decomposition(&q);
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 2);
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
        verify(&td, &star).unwrap();
        assert_eq!(td.width(), 1);

        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<VarId> = (0..6).map(|i| b.node(&format!("p{i}"), "t")).collect();
        for w in vs.windows(2) {
            b.edge(w[0], w[1], "e");
        }
        let path = b.build();
        let td = tree_decomposition(&path);
        verify(&td, &path).unwrap();
        assert_eq!(td.width(), 1);
    }

    #[test]
    fn single_node_and_empty() {
        let mut b = PatternBuilder::new(Vocab::shared());
        b.node("x", "t");
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 0);

        let empty = PatternBuilder::new(Vocab::shared()).build();
        assert!(tree_decomposition(&empty).order.is_empty());
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
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 3);
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
        verify(&td, &q).unwrap();
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
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 2);
    }

    #[test]
    fn disconnected_pattern_is_width_one() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "t");
        let y = b.node("y", "t");
        b.edge(x, y, "e");
        let z = b.node("z", "t");
        let w = b.node("w", "t");
        b.edge(z, w, "e");
        let q = b.build();
        let td = tree_decomposition(&q);
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 1);
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
        verify(&td, &q).unwrap();
        assert_eq!(td.width(), 1);
    }
}
