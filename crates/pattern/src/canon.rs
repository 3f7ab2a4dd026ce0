//! Canonical forms and explicit isomorphism witnesses.
//!
//! The 1-WL colors of [`crate::signature`] are *invariant* under
//! isomorphism but not *complete*: non-isomorphic patterns can share
//! them, both by hash accident and structurally (color refinement
//! cannot separate, e.g., two directed triangles from one directed
//! 6-cycle). The canonical form closes that gap: two
//! patterns over one vocabulary have equal [`CanonicalForm::code`]s
//! **iff** they are isomorphic under exact label equality, and the
//! canonical variable order turns code equality into an explicit
//! [`IsoWitness`] bijection — the permutation through which the
//! candidate-space registry (`gfd-match`) lets every isomorphic
//! pattern component read its class representative's simulation
//! result instead of re-simulating (the paper's Example 10
//! observation, generalized from symmetric pairs to whole rule sets).
//!
//! Exact label equality — not the directional order in which a
//! wildcard variable lands on a labeled one — is deliberate: a
//! wildcard variable and a labeled variable have different match sets,
//! so sharing a candidate space between them would be unsound even
//! where one pattern matches in the other.
//!
//! ## Algorithm
//!
//! Variables are partitioned by their final 1-WL color (an
//! isomorphism-invariant partition, so corresponding variables of
//! isomorphic patterns land in corresponding cells), cells are ordered
//! by color value, and the canonical order is the cell-respecting
//! permutation whose structure encoding is lexicographically smallest.
//! The encoding is built position-major (see `Search`) so the DFS
//! prunes every branch whose prefix already exceeds the incumbent —
//! symmetric uniform-label patterns (one big WL cell, `n!` orders)
//! collapse to near-linear work instead of `n!` full encodings. GFD
//! patterns are tiny anyway (`|Q| ≤ ~12` throughout the paper's
//! workloads) and WL refinement leaves singleton cells on anything
//! with non-uniform structure.

use std::collections::HashMap;

use crate::pattern::{Pattern, VarId};
use crate::signature::{label_code, wl_colors};

/// An explicit isomorphism between two patterns: `map[a_var] = b_var`
/// with exact label equality on nodes and edges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IsoWitness {
    map: Vec<VarId>,
}

impl IsoWitness {
    /// The identity witness on `n` variables.
    pub fn identity(n: usize) -> Self {
        IsoWitness {
            map: (0..n as u32).map(VarId).collect(),
        }
    }

    /// The image of variable `v` under the bijection.
    #[inline]
    pub fn map(&self, v: VarId) -> VarId {
        self.map[v.index()]
    }

    /// The full mapping, indexed by source variable.
    pub fn as_slice(&self) -> &[VarId] {
        &self.map
    }

    /// True if the witness is the identity mapping.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, v)| v.index() == i)
    }

    /// Structural verification: is this really an exact-label
    /// isomorphism from `a` onto `b`? Used in debug assertions and by
    /// tests of the grouping.
    pub fn verify(&self, a: &Pattern, b: &Pattern) -> bool {
        let n = a.node_count();
        if n != b.node_count() || a.edge_count() != b.edge_count() || self.map.len() != n {
            return false;
        }
        // Bijectivity.
        let mut hit = vec![false; n];
        for &v in &self.map {
            if v.index() >= n || hit[v.index()] {
                return false;
            }
            hit[v.index()] = true;
        }
        // Exact node labels.
        for v in a.vars() {
            if a.label(v) != b.label(self.map(v)) {
                return false;
            }
        }
        // Every edge of `a` maps onto an equally labeled edge of `b`;
        // with equal (deduplicated) edge counts and an injective node
        // map this hits every edge of `b` exactly once.
        for e in a.edges() {
            let (s, d) = (self.map(e.src), self.map(e.dst));
            if !b.out(s).iter().any(|&(t, l)| t == d && l == e.label) {
                return false;
            }
        }
        true
    }
}

/// A pattern's canonical form: a complete structure encoding plus the
/// variable order that achieves it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    /// Structure encoding; equal across two patterns (sharing a
    /// vocabulary) iff the patterns are isomorphic with exact labels.
    code: Vec<u64>,
    /// `order[p]` is the original variable at canonical position `p`.
    order: Vec<VarId>,
}

impl CanonicalForm {
    /// The canonical encoding (hashable registry key).
    pub fn code(&self) -> &[u64] {
        &self.code
    }

    /// Composes the two canonical orders into a witness from this
    /// form's pattern onto `other`'s pattern: the variables at equal
    /// canonical positions correspond.
    ///
    /// # Panics
    /// Panics if the codes differ (the patterns are not isomorphic).
    pub fn witness_onto(&self, other: &CanonicalForm) -> IsoWitness {
        assert_eq!(
            self.code, other.code,
            "witness_onto requires equal canonical codes"
        );
        let mut map = vec![VarId(u32::MAX); self.order.len()];
        for (p, v) in self.order.iter().enumerate() {
            map[v.index()] = other.order[p];
        }
        IsoWitness { map }
    }
}

/// The DFS state of the canonical search. The encoding is built
/// **position-major** so prefixes are placement-monotone: after the
/// fixed header `[n, e, labels in cell order…]` (the label section is
/// identical for every cell-respecting order — refinement only ever
/// splits the initial label partition, so a cell's members share one
/// label), each placed position `p` appends one *block* describing all
/// edges between `order[p]` and already-placed positions:
/// `[block_len, sorted (tag, other_pos, label) triples…]` with tag 0 =
/// self-loop, 1 = incoming from `other_pos`, 2 = outgoing to
/// `other_pos`. Every edge lands in exactly one block (its later
/// endpoint's), so the total code determines the pattern up to
/// renaming, its length is the same for every order — and a prefix
/// that already compares greater than the best-so-far can never lead
/// to a smaller code, which is what lets the search prune instead of
/// encoding all `Π |cell|!` orders (the fix for uniform-label
/// symmetric patterns, where one big cell would otherwise mean `n!`
/// full encodings).
struct Search<'a> {
    q: &'a Pattern,
    cells: Vec<Vec<VarId>>,
    used: Vec<bool>,
    /// `pos_of[var] = canonical position` for placed vars.
    pos_of: Vec<u32>,
    order: Vec<VarId>,
    code: Vec<u64>,
    best: Option<(Vec<u64>, Vec<VarId>)>,
}

impl Search<'_> {
    /// The edge block contributed by placing `v` at the next position.
    fn block(&self, v: VarId) -> Vec<(u64, u64, u64)> {
        let mut entries = Vec::new();
        for &(t, l) in self.q.out(v) {
            if t == v {
                entries.push((0, 0, label_code(l)));
            } else if self.used[t.index()] {
                entries.push((2, self.pos_of[t.index()] as u64, label_code(l)));
            }
        }
        for &(s, l) in self.q.inn(v) {
            if s != v && self.used[s.index()] {
                entries.push((1, self.pos_of[s.index()] as u64, label_code(l)));
            }
        }
        entries.sort_unstable();
        entries
    }

    fn run(&mut self, ci: usize) {
        if ci == self.cells.len() {
            if self
                .best
                .as_ref()
                .is_none_or(|(b, _)| self.code.as_slice() < b.as_slice())
            {
                self.best = Some((self.code.clone(), self.order.clone()));
            }
            return;
        }
        let placed = self.order.len() - self.cells[..ci].iter().map(Vec::len).sum::<usize>();
        if placed == self.cells[ci].len() {
            self.run(ci + 1);
            return;
        }
        for i in 0..self.cells[ci].len() {
            let v = self.cells[ci][i];
            if self.used[v.index()] {
                continue;
            }
            let mark = self.code.len();
            self.used[v.index()] = true;
            self.pos_of[v.index()] = self.order.len() as u32;
            self.order.push(v);
            let block = self.block(v);
            self.code.push(block.len() as u64);
            for (a, b, c) in block {
                self.code.extend([a, b, c]);
            }
            // Prune: final codes all have equal length, so a prefix
            // lexicographically above the incumbent cannot complete
            // into anything smaller.
            let viable = self.best.as_ref().is_none_or(|(b, _)| {
                let len = self.code.len().min(b.len());
                self.code.as_slice() <= &b[..len]
            });
            if viable {
                self.run(ci);
            }
            self.code.truncate(mark);
            self.order.pop();
            self.used[v.index()] = false;
        }
    }
}

/// Computes the canonical form of a pattern. See the module docs for
/// the algorithm and the private `Search` for the prefix-pruned
/// encoding.
pub fn canonical_form(q: &Pattern) -> CanonicalForm {
    let n = q.node_count();
    let colors = wl_colors(q);
    // Cells: variables grouped by final WL color, cells ordered by
    // color value (isomorphism-invariant given a shared vocabulary).
    let mut vars: Vec<VarId> = q.vars().collect();
    vars.sort_by_key(|v| (colors[v.index()], v.0));
    let mut cells: Vec<Vec<VarId>> = Vec::new();
    for v in vars {
        match cells.last_mut() {
            Some(c) if colors[c[0].index()] == colors[v.index()] => c.push(v),
            _ => cells.push(vec![v]),
        }
    }
    let mut code = Vec::with_capacity(2 + n + n + 3 * q.edge_count());
    code.push(n as u64);
    code.push(q.edge_count() as u64);
    for cell in &cells {
        for &v in cell {
            code.push(label_code(q.label(v)));
        }
    }
    let mut s = Search {
        q,
        cells,
        used: vec![false; n],
        pos_of: vec![0; n],
        order: Vec::with_capacity(n),
        code,
        best: None,
    };
    s.run(0);
    let (code, order) = s.best.expect("at least one ordering exists");
    CanonicalForm { code, order }
}

/// Finds an exact-label isomorphism from `a` onto `b`, if one exists —
/// the structural check that is immune to 1-WL color collisions, and
/// the witness the candidate-space registry's members read through.
pub fn iso_witness(a: &Pattern, b: &Pattern) -> Option<IsoWitness> {
    if a.node_count() != b.node_count() || a.edge_count() != b.edge_count() {
        return None;
    }
    let fa = canonical_form(a);
    let fb = canonical_form(b);
    if fa.code != fb.code {
        return None;
    }
    let w = fa.witness_onto(&fb);
    debug_assert!(w.verify(a, b), "canonical witness failed verification");
    Some(w)
}

/// Groups patterns into exact-label isomorphism classes using
/// canonical codes directly (no hash-collision exposure); returns, per
/// input index, the class representative's index and the witness
/// mapping the pattern onto that representative.
pub fn group_isomorphic_with_witnesses(patterns: &[&Pattern]) -> Vec<(usize, IsoWitness)> {
    let mut by_code: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut forms: Vec<CanonicalForm> = Vec::with_capacity(patterns.len());
    let mut out = Vec::with_capacity(patterns.len());
    for (i, q) in patterns.iter().enumerate() {
        let form = canonical_form(q);
        let rep = *by_code.entry(form.code.clone()).or_insert(i);
        let witness = match forms.get(rep) {
            Some(rep_form) => form.witness_onto(rep_form),
            None => IsoWitness::identity(q.node_count()),
        };
        forms.push(form);
        out.push((rep, witness));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternBuilder;
    use gfd_graph::Vocab;

    fn sorted_colors(q: &Pattern) -> Vec<u64> {
        let mut colors = wl_colors(q);
        colors.sort_unstable();
        colors
    }

    fn tri_pair(vocab: std::sync::Arc<Vocab>) -> Pattern {
        // Two disjoint directed 3-cycles, uniform labels.
        let mut b = PatternBuilder::new(vocab);
        let vs: Vec<VarId> = (0..6).map(|i| b.node(&format!("v{i}"), "n")).collect();
        for c in 0..2 {
            for i in 0..3 {
                b.edge(vs[3 * c + i], vs[3 * c + (i + 1) % 3], "e");
            }
        }
        b.build()
    }

    fn hexagon(vocab: std::sync::Arc<Vocab>) -> Pattern {
        // One directed 6-cycle, uniform labels.
        let mut b = PatternBuilder::new(vocab);
        let vs: Vec<VarId> = (0..6).map(|i| b.node(&format!("v{i}"), "n")).collect();
        for i in 0..6 {
            b.edge(vs[i], vs[(i + 1) % 6], "e");
        }
        b.build()
    }

    #[test]
    fn renamed_patterns_share_canonical_code() {
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

        let (f1, f2) = (canonical_form(&p1), canonical_form(&p2));
        assert_eq!(f1.code(), f2.code());
        let w = f1.witness_onto(&f2);
        assert!(w.verify(&p1, &p2));
        assert!(f2.witness_onto(&f1).verify(&p2, &p1));
    }

    #[test]
    fn witness_maps_labels_exactly() {
        let vocab = Vocab::shared();
        let mk = |names: [&str; 3], order_swapped: bool| {
            let mut b = PatternBuilder::new(vocab.clone());
            let ids: Vec<VarId> = if order_swapped {
                let z = b.node(names[2], "c");
                let x = b.node(names[0], "a");
                let y = b.node(names[1], "b");
                vec![x, y, z]
            } else {
                names
                    .iter()
                    .zip(["a", "b", "c"])
                    .map(|(n, l)| b.node(n, l))
                    .collect()
            };
            b.edge(ids[0], ids[1], "e");
            b.edge(ids[1], ids[2], "f");
            b.build()
        };
        let p = mk(["x", "y", "z"], false);
        let q = mk(["u", "v", "w"], true);
        let w = iso_witness(&p, &q).expect("isomorphic");
        // Labels pin every variable: x(a)→u(a), y(b)→v(b), z(c)→w(c).
        for v in p.vars() {
            assert_eq!(p.label(v), q.label(w.map(v)));
        }
        assert!(w.verify(&p, &q));
    }

    #[test]
    fn wl_collision_pair_is_separated() {
        // Two directed triangles vs one directed 6-cycle: same node
        // count, edge count, uniform labels and uniform 1-WL colors —
        // a *structural* collision (not a hash accident)…
        let vocab = Vocab::shared();
        let two_tri = tri_pair(vocab.clone());
        let c6 = hexagon(vocab);
        assert_eq!(
            sorted_colors(&two_tri),
            sorted_colors(&c6),
            "premise: 1-WL cannot separate the pair"
        );
        // …but canonical codes (and hence witnesses) tell them apart.
        assert_ne!(canonical_form(&two_tri).code(), canonical_form(&c6).code());
        assert!(iso_witness(&two_tri, &c6).is_none());
    }

    #[test]
    fn wildcard_and_labeled_do_not_transport() {
        // Embeddable both ways is not the transport relation: a
        // wildcard node has a different match set than a labeled one.
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        b.wildcard_node("x");
        let wild = b.build();
        let mut b = PatternBuilder::new(vocab);
        b.node("x", "a");
        let labeled = b.build();
        assert!(iso_witness(&wild, &labeled).is_none());
        assert!(iso_witness(&wild, &wild.clone()).is_some());
    }

    /// Regression for the permutation blowup: a uniform-label directed
    /// 12-cycle has one WL cell of 12 (`12! ≈ 4.8×10⁸` orders); the
    /// prefix-pruned search must canonicalize it instantly, and two
    /// rotated declarations must land on one code.
    #[test]
    fn uniform_cycle_canonicalizes_fast() {
        let vocab = Vocab::shared();
        let cycle = |rot: usize| {
            let mut b = PatternBuilder::new(vocab.clone());
            let vs: Vec<VarId> = (0..12).map(|i| b.node(&format!("v{i}"), "n")).collect();
            for i in 0..12 {
                b.edge(vs[(i + rot) % 12], vs[(i + rot + 1) % 12], "e");
            }
            b.build()
        };
        let t = std::time::Instant::now();
        let (a, b) = (cycle(0), cycle(5));
        assert_eq!(canonical_form(&a).code(), canonical_form(&b).code());
        let w = iso_witness(&a, &b).expect("rotations are isomorphic");
        assert!(w.verify(&a, &b));
        assert!(
            t.elapsed().as_secs() < 5,
            "canonical search must prune, not enumerate 12!"
        );
    }

    /// Grouping keys on complete canonical codes: renamed twins share a
    /// class (with a witness onto the representative), and the 2×C3 /
    /// C6 pair — one 1-WL color multiset, two shapes — never merges.
    #[test]
    fn grouping_with_witnesses() {
        let vocab = Vocab::shared();
        let mk = |names: [&str; 2]| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node(names[0], "acct");
            let y = b.node(names[1], "blog");
            b.edge(x, y, "post");
            b.build()
        };
        let p1 = mk(["x", "y"]);
        let p2 = mk(["v", "u"]);
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("solo", "acct");
        let p3 = b.build();
        let (two_tri, c6) = (tri_pair(vocab.clone()), hexagon(vocab));
        assert_eq!(
            sorted_colors(&two_tri),
            sorted_colors(&c6),
            "premise: the pair collides on the colors"
        );
        let classes = group_isomorphic_with_witnesses(&[&p1, &p2, &p3, &two_tri, &c6]);
        let reps: Vec<usize> = classes.iter().map(|(rep, _)| *rep).collect();
        assert_eq!(reps, [0, 0, 2, 3, 4], "the collision pair stays apart");
        assert!(classes[0].1.is_identity());
        assert!(classes[1].1.verify(&p2, &p1));
        assert!(classes[4].1.verify(&c6, &c6));
    }

    #[test]
    fn self_loops_and_parallel_labels_round_trip() {
        let vocab = Vocab::shared();
        let mk = |swap: bool| {
            let mut b = PatternBuilder::new(vocab.clone());
            let (x, y) = if swap {
                let y = b.node("y", "t");
                let x = b.node("x", "t");
                (x, y)
            } else {
                (b.node("x", "t"), b.node("y", "t"))
            };
            b.edge(x, x, "loop");
            b.edge(x, y, "e");
            b.wildcard_edge(x, y);
            b.build()
        };
        let (a, b) = (mk(false), mk(true));
        let w = iso_witness(&a, &b).expect("isomorphic under swap");
        assert!(w.verify(&a, &b));
    }
}
