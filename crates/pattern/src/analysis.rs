//! Structural analyses: connected components, eccentricities, pivots.
//!
//! §5.2 defines, for a GFD pattern `Q` with connected components
//! `(Q_1, …, Q_k)`, the *pivot* `z_i` of each `Q_i` as a node of
//! minimum radius (eccentricity over undirected shortest paths), and
//! the *pivot vector* `PV(ϕ) = ((z_1, c¹_Q), …, (z_k, c^k_Q))` pairing
//! each pivot with its radius. By the locality of subgraph
//! isomorphism, every node of a match is within `c^i_Q` undirected
//! hops of the pivot's image — the basis of the work-unit model.

use std::collections::VecDeque;

use crate::pattern::{Pattern, VarId};

/// One connected component of a pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentInfo {
    /// Variables in the component, ascending.
    pub vars: Vec<VarId>,
    /// The chosen pivot `z_i` (minimum eccentricity, ties broken by
    /// smaller variable id for determinism).
    pub pivot: VarId,
    /// The radius `c^i_Q` at the pivot.
    pub radius: usize,
}

/// The pivot vector `PV(ϕ)` of a pattern: one entry per component.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PivotVector {
    /// Per-component info, in ascending order of smallest member var.
    pub components: Vec<ComponentInfo>,
}

/// Undirected connected components of `q`, each sorted ascending;
/// components ordered by their smallest variable.
pub fn connected_components(q: &Pattern) -> Vec<Vec<VarId>> {
    let n = q.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0usize;
    for start in q.vars() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        let id = count;
        count += 1;
        let mut queue = VecDeque::from([start]);
        comp[start.index()] = id;
        while let Some(u) = queue.pop_front() {
            for v in q.neighbors(u) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = id;
                    queue.push_back(v);
                }
            }
        }
    }
    let mut out = vec![Vec::new(); count];
    for v in q.vars() {
        out[comp[v.index()]].push(v);
    }
    out
}

/// Eccentricity of `v` within its component (undirected BFS); `None`
/// if some component member is unreachable (cannot happen for members
/// of the same component).
fn eccentricity(q: &Pattern, v: VarId, members: &[VarId]) -> usize {
    let mut dist = vec![usize::MAX; q.node_count()];
    dist[v.index()] = 0;
    let mut queue = VecDeque::from([v]);
    while let Some(u) = queue.pop_front() {
        for w in q.neighbors(u) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[u.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    members.iter().map(|m| dist[m.index()]).max().unwrap_or(0)
}

/// Computes the pivot vector `PV(ϕ)` of a pattern (paper: `O(|Q|²)`).
pub fn pivot_vector(q: &Pattern) -> PivotVector {
    let components = connected_components(q)
        .into_iter()
        .map(|vars| {
            let (pivot, radius) = vars
                .iter()
                .map(|&v| (v, eccentricity(q, v, &vars)))
                .min_by_key(|&(v, ecc)| (ecc, v))
                .expect("components are non-empty");
            ComponentInfo {
                vars,
                pivot,
                radius,
            }
        })
        .collect();
    PivotVector { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use gfd_graph::Vocab;

    /// The largest component radius.
    fn max_radius(pv: &PivotVector) -> usize {
        pv.components.iter().map(|c| c.radius).max().unwrap_or(0)
    }

    /// Q1 of Fig. 2: two star-shaped flight entities (disconnected).
    fn q1() -> Pattern {
        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "flight");
        let leaves = ["id", "city", "city2", "time", "time2"];
        let edges = ["number", "from", "to", "depart", "arrive"];
        for (i, (leaf, edge)) in leaves.iter().zip(edges).enumerate() {
            let v = b.node(&format!("x{}", i + 1), leaf);
            b.edge(x, v, edge);
        }
        let y = b.node("y", "flight");
        for (i, (leaf, edge)) in leaves.iter().zip(edges).enumerate() {
            let v = b.node(&format!("y{}", i + 1), leaf);
            b.edge(y, v, edge);
        }
        b.build()
    }

    #[test]
    fn q1_has_two_components() {
        let q = q1();
        let comps = connected_components(&q);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 6);
        assert_eq!(comps[1].len(), 6);
    }

    #[test]
    fn q1_pivots_are_the_flight_hubs_with_radius_one() {
        // Example 9: PV(ϕ1) = ((x, 1), (y, 1)).
        let q = q1();
        let pv = pivot_vector(&q);
        assert_eq!(pv.components.len(), 2);
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        assert_eq!(pv.components[0].pivot, x);
        assert_eq!(pv.components[0].radius, 1);
        assert_eq!(pv.components[1].pivot, y);
        assert_eq!(pv.components[1].radius, 1);
        assert_eq!(max_radius(&pv), 1);
    }

    #[test]
    fn single_node_pattern_radius_zero() {
        // Q4's components (Example 9): PV(ϕ4) = ((x,0),(y,0)).
        let mut b = PatternBuilder::new(Vocab::shared());
        b.node("x", "R");
        b.node("y", "R");
        let q = b.build();
        let pv = pivot_vector(&q);
        assert_eq!(pv.components.len(), 2);
        assert!(pv.components.iter().all(|c| c.radius == 0));
    }

    #[test]
    fn path_pivot_is_middle() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let a = b.node("a", "t");
        let c = b.node("c", "t");
        let m = b.node("m", "t");
        b.edge(a, m, "e");
        b.edge(m, c, "e");
        let q = b.build();
        let pv = pivot_vector(&q);
        assert_eq!(pv.components[0].pivot, m);
        assert_eq!(pv.components[0].radius, 1);
    }

    #[test]
    fn radius_of_cycle() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let vs: Vec<_> = (0..4).map(|i| b.node(&format!("v{i}"), "t")).collect();
        for i in 0..4 {
            b.edge(vs[i], vs[(i + 1) % 4], "e");
        }
        let q = b.build();
        let pv = pivot_vector(&q);
        assert_eq!(pv.components[0].radius, 2, "4-cycle has radius 2");
    }
}
