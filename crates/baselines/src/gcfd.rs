//! The GCFD baseline \[23\]: CFDs over conjunctive path patterns.
//!
//! GCFDs specify value dependencies along *paths* — they "do not allow
//! general graph patterns" (§7 appendix). Concretely, a GFD is
//! expressible as a GCFD here iff its pattern is one connected simple
//! directed chain: cyclic patterns (GFD 1 of Fig. 7), branching type
//! patterns (GFD 2) and cross-branch tests (GFD 3's `z.val = z'.val`)
//! all fall outside the class. Validation reuses the GFD engine on the
//! expressible subset, so accuracy differences measure expressiveness,
//! not implementation quality.

use gfd_core::{Gfd, GfdSet};
use gfd_pattern::{analysis::connected_components, Pattern};

/// Is the pattern a single simple directed chain `v₀ → v₁ → … → v_k`?
fn is_directed_chain(q: &Pattern) -> bool {
    if q.node_count() == 0 || connected_components(q).len() != 1 {
        return false;
    }
    if q.edge_count() != q.node_count() - 1 {
        return false;
    }
    // Exactly one source (in-degree 0), one sink (out-degree 0), and
    // every node with in/out degree ≤ 1.
    let mut sources = 0;
    let mut sinks = 0;
    for v in q.vars() {
        let ind = q.inn(v).len();
        let outd = q.out(v).len();
        if ind > 1 || outd > 1 {
            return false;
        }
        if ind == 0 {
            sources += 1;
        }
        if outd == 0 {
            sinks += 1;
        }
    }
    sources == 1 && sinks == 1
}

/// Cross-branch (non-adjacent) variable tests are not expressible in
/// path-based GCFDs: every variable literal must relate variables that
/// are adjacent on the chain (or the same variable).
fn literals_path_local(gfd: &Gfd) -> bool {
    gfd.dep.literals().all(|lit| match lit {
        gfd_core::Literal::Const { .. } => true,
        gfd_core::Literal::Vars { x, y, .. } => {
            if x == y {
                return true;
            }
            gfd.pattern.out(*x).iter().any(|&(t, _)| t == *y)
                || gfd.pattern.inn(*x).iter().any(|&(s, _)| s == *y)
        }
    })
}

/// Can this GFD be written as a GCFD?
pub fn expressible_as_gcfd(gfd: &Gfd) -> bool {
    is_directed_chain(&gfd.pattern) && literals_path_local(gfd)
}

/// The GCFD-expressible subset of `Σ`, plus how many rules were
/// dropped (the paper keeps 7 of 10).
pub fn gcfd_subset(sigma: &GfdSet) -> (GfdSet, usize) {
    let kept: Vec<Gfd> = sigma
        .iter()
        .filter(|g| expressible_as_gcfd(g))
        .cloned()
        .collect();
    let dropped = sigma.len() - kept.len();
    (GfdSet::new(kept), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{Dependency, Literal};
    use gfd_graph::Vocab;
    use gfd_pattern::PatternBuilder;

    fn chain_gfd(vocab: std::sync::Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "person");
        let y = b.node("y", "city");
        let z = b.node("z", "country");
        b.edge(x, y, "mayor_of");
        b.edge(y, z, "in");
        let q = b.build();
        let val = vocab.intern("val");
        Gfd::new(
            "chain",
            q,
            Dependency::new(
                vec![Literal::var_eq(x, val, y, val)],
                vec![Literal::var_eq(y, val, z, val)],
            ),
        )
    }

    #[test]
    fn chains_are_expressible() {
        let vocab = Vocab::shared();
        assert!(expressible_as_gcfd(&chain_gfd(vocab)));
    }

    #[test]
    fn cycles_are_not_expressible() {
        // GFD 1 of Fig. 7 (child/parent cycle).
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "person");
        let y = b.node("y", "person");
        b.edge(x, y, "hasChild");
        b.edge(y, x, "hasChild");
        let q = b.build();
        let val = vocab.intern("val");
        let gfd = Gfd::new(
            "cycle",
            q,
            Dependency::always(vec![Literal::const_eq(x, val, "c")]),
        );
        assert!(!expressible_as_gcfd(&gfd));
    }

    #[test]
    fn branching_trees_are_not_expressible() {
        // GFD 3 of Fig. 7: mayor_of/affiliated branches with a
        // cross-branch test.
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "person");
        let city = b.node("city", "city");
        let party = b.node("party", "party");
        let z = b.node("z", "country");
        let z2 = b.node("z2", "country");
        b.edge(x, city, "mayor_of");
        b.edge(x, party, "affiliated");
        b.edge(city, z, "in");
        b.edge(party, z2, "in");
        let q = b.build();
        let val = vocab.intern("val");
        let gfd = Gfd::new(
            "mayor-party-country",
            q,
            Dependency::always(vec![Literal::var_eq(z, val, z2, val)]),
        );
        assert!(!expressible_as_gcfd(&gfd));
    }

    #[test]
    fn cross_chain_tests_are_not_expressible() {
        // A 3-chain whose literal relates the two END points (skipping
        // the middle) — path-local restriction rejects it.
        let vocab = Vocab::shared();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        let z = b.node("z", "c");
        b.edge(x, y, "e");
        b.edge(y, z, "e");
        let q = b.build();
        let val = vocab.intern("val");
        let gfd = Gfd::new(
            "ends",
            q,
            Dependency::always(vec![Literal::var_eq(x, val, z, val)]),
        );
        assert!(!expressible_as_gcfd(&gfd));
    }

    #[test]
    fn subset_counts_dropped() {
        let vocab = Vocab::shared();
        let good = chain_gfd(vocab.clone());
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "t");
        let y = b.node("y", "t");
        b.edge(x, y, "e");
        b.edge(y, x, "e");
        let q = b.build();
        let bad = Gfd::new("bad", q, Dependency::new(vec![], vec![]));
        let sigma = GfdSet::new(vec![good, bad]);
        let (subset, dropped) = gcfd_subset(&sigma);
        assert_eq!(subset.len(), 1);
        assert_eq!(dropped, 1);
    }
}
