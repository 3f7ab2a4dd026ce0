//! Isomorphism-invariant variable colors and the component
//! decomposition.
//!
//! The multi-query optimization of the appendix ("extracting common
//! sub-patterns", following \[31\]) groups the patterns of Σ into
//! isomorphism classes so that match enumeration is done once per
//! class. The grouping keys on complete canonical forms
//! ([`crate::canon`]); the 1-dimensional Weisfeiler–Leman colors here
//! supply the color partition the canonical search respects. They are
//! invariant under isomorphism but not complete: non-isomorphic
//! patterns can share a sorted color multiset.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::analysis::connected_components;
use crate::pattern::{PatLabel, Pattern, VarId};

/// A small, collision-free code per pattern label (shared with the
/// canonical-form encoder in [`crate::canon`]).
pub(crate) fn label_code(l: PatLabel) -> u64 {
    match l {
        PatLabel::Sym(s) => 2 + s.0 as u64,
        PatLabel::Wildcard => 1,
    }
}

fn hash_one<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The final 1-WL color of every variable: up to `|V_Q|` rounds of
/// color refinement over labeled directed adjacency (enough for
/// convergence on patterns this small), stopping one round after the
/// partition turns discrete — with all colors distinct a node's color
/// identifies it, so the following round already encodes its exact
/// labeled neighborhood and further rounds cannot distinguish more.
/// The stopping round is determined by an isomorphism-invariant
/// property of the color multiset, so corresponding variables of
/// isomorphic patterns still get equal colors; that makes the colors
/// the cell partition the canonical form's permutation search
/// respects.
pub(crate) fn wl_colors(q: &Pattern) -> Vec<u64> {
    let n = q.node_count();
    let mut colors: Vec<u64> = q.vars().map(|v| label_code(q.label(v))).collect();
    let discrete = |cs: &[u64]| {
        let mut sorted = cs.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    };
    for _ in 0..n {
        let was_discrete = discrete(&colors);
        let mut next = Vec::with_capacity(n);
        for v in q.vars() {
            let mut out_sig: Vec<u64> = q
                .out(v)
                .iter()
                .map(|&(u, l)| hash_one(&(colors[u.index()], label_code(l), 0u8)))
                .collect();
            out_sig.sort_unstable();
            let mut in_sig: Vec<u64> = q
                .inn(v)
                .iter()
                .map(|&(u, l)| hash_one(&(colors[u.index()], label_code(l), 1u8)))
                .collect();
            in_sig.sort_unstable();
            next.push(hash_one(&(colors[v.index()], out_sig, in_sig)));
        }
        colors = next;
        if was_discrete {
            break;
        }
    }
    colors
}

/// Splits a pattern into its connected components (as standalone
/// patterns) with, per component, the original variable of each new
/// variable — the decomposition step shared by the matcher and the
/// multi-query optimizer.
pub fn decompose(q: &Pattern) -> Vec<(Pattern, Vec<VarId>)> {
    connected_components(q)
        .into_iter()
        .map(|vars| q.restrict(&vars))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use gfd_graph::Vocab;

    /// The sorted 1-WL color multiset: equal for isomorphic patterns.
    fn sorted_colors(q: &Pattern) -> Vec<u64> {
        let mut colors = wl_colors(q);
        colors.sort_unstable();
        colors
    }

    #[test]
    fn isomorphic_patterns_share_signature() {
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        b.edge(x, y, "e");
        let p1 = b.build();

        let mut b = PatternBuilder::new(vocab);
        let y = b.node("q", "b");
        let x = b.node("p", "a");
        b.edge(x, y, "e");
        let p2 = b.build();

        assert_eq!(sorted_colors(&p1), sorted_colors(&p2));
    }

    #[test]
    fn different_shapes_differ() {
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "a");
        let y = b.node("y", "a");
        b.edge(x, y, "e");
        let path = b.build();

        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "a");
        let y = b.node("y", "a");
        b.edge(y, x, "e"); // reversed direction
        let rev = b.build();

        // Reversed edge on same labels IS isomorphic (rename x↔y), so
        // the colors must agree…
        assert_eq!(sorted_colors(&path), sorted_colors(&rev));

        // …but a 2-path differs from a single edge.
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "a");
        let y = b.node("y", "a");
        let z = b.node("z", "a");
        b.edge(x, y, "e");
        b.edge(y, z, "e");
        let p2 = b.build();
        assert_ne!(sorted_colors(&path), sorted_colors(&p2));
    }

    #[test]
    fn direction_matters_when_labels_pin_roles() {
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        b.edge(x, y, "e");
        let ab = b.build();

        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        b.edge(y, x, "e");
        let ba = b.build();

        assert_ne!(sorted_colors(&ab), sorted_colors(&ba));
        assert!(crate::canon::iso_witness(&ab, &ba).is_none());
    }

    /// Class representative per input, as the canonical grouping
    /// assigns it.
    fn group_reps(patterns: &[&Pattern]) -> Vec<usize> {
        crate::canon::group_isomorphic_with_witnesses(patterns)
            .into_iter()
            .map(|(rep, _)| rep)
            .collect()
    }

    #[test]
    fn grouping_collapses_duplicates() {
        let vocab = Vocab::shared();
        let mk = |names: [&str; 2]| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node(names[0], "acct");
            let y = b.node(names[1], "blog");
            b.edge(x, y, "post");
            b.build()
        };
        let p1 = mk(["x", "y"]);
        let p2 = mk(["u", "v"]);
        let mut b = PatternBuilder::new(vocab);
        b.node("solo", "acct");
        let p3 = b.build();
        let classes = group_reps(&[&p1, &p2, &p3]);
        assert_eq!(classes[0], classes[1]);
        assert_ne!(classes[0], classes[2]);
    }

    /// Regression: two non-isomorphic patterns engineered to collide
    /// on their 1-WL colors (uniform labels, every node with in- and
    /// out-degree 1 — refinement never splits the colors, so two
    /// disjoint directed triangles color exactly like one directed
    /// 6-cycle). Grouping keys on canonical codes, so the classes stay
    /// apart anyway.
    #[test]
    fn signature_collision_does_not_merge_classes() {
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let vs: Vec<VarId> = (0..6).map(|i| b.node(&format!("v{i}"), "n")).collect();
        for c in 0..2 {
            for i in 0..3 {
                b.edge(vs[3 * c + i], vs[3 * c + (i + 1) % 3], "e");
            }
        }
        let two_triangles = b.build();
        let mut b = PatternBuilder::new(vocab);
        let vs: Vec<VarId> = (0..6).map(|i| b.node(&format!("v{i}"), "n")).collect();
        for i in 0..6 {
            b.edge(vs[i], vs[(i + 1) % 6], "e");
        }
        let hexagon = b.build();

        assert_eq!(
            sorted_colors(&two_triangles),
            sorted_colors(&hexagon),
            "premise: the pair collides on the colors"
        );
        let classes = group_reps(&[&two_triangles, &hexagon]);
        assert_ne!(classes[0], classes[1], "collision merged distinct classes");
    }

    #[test]
    fn decompose_round_trips_vars() {
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "R");
        let y = b.node("y", "R");
        let z = b.node("z", "S");
        b.edge(x, z, "e");
        let q = b.build();
        let parts = decompose(&q);
        assert_eq!(parts.len(), 2);
        let all_vars: Vec<VarId> = parts.iter().flat_map(|(_, vs)| vs.clone()).collect();
        assert_eq!(all_vars.len(), 3);
        assert!(all_vars.contains(&x) && all_vars.contains(&y) && all_vars.contains(&z));
        // Component containing x also contains z.
        let comp_x = parts.iter().find(|(_, vs)| vs.contains(&x)).unwrap();
        assert!(comp_x.1.contains(&z));
        assert_eq!(comp_x.0.node_count(), 2);
    }
}
