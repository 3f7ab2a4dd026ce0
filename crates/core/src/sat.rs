//! The satisfiability problem for GFDs (§4.1; coNP-complete, Thm. 1).
//!
//! `Σ` is satisfiable iff it has a *model*: a graph `G ⊨ Σ` containing
//! a match of every pattern in `Σ`. Lemma 3 characterizes this via
//! conflicts of embedded GFDs; we implement the characterization as a
//! **canonical-model chase**:
//!
//! 1. materialize `G₀`, the disjoint union of all patterns of `Σ`
//!    (wildcard nodes/edges get fresh private labels, so they admit
//!    matches without accidentally enabling others);
//! 2. enumerate every match of every `ϕ ∈ Σ` in `G₀` — components of a
//!    pattern may map into *different* pattern copies, which is exactly
//!    the paper's interaction of GFDs "defined with different graph
//!    patterns" (Example 7);
//! 3. run the `enforced` fixpoint (module [`crate::closure`]) over the
//!    resulting ground dependencies.
//!
//! A conflict (one node attribute forced to two distinct constants)
//! transfers into *any* prospective model — every model contains a
//! match of each pattern, and every `G₀`-match factors through those —
//! so a conflict proves unsatisfiability. Conversely, a conflict-free
//! chase materializes attribute values (class constants, fresh values
//! for unconstrained classes) and yields an explicit model, which the
//! checker returns and which `G₀ ⊨ Σ` tests can verify independently.
//! The chase decides every case, the tractable ones of Corollary 4
//! (variable-only `Σ`, no `∅ → Y` rules, tree patterns) included.
//! Callers read the verdict off [`SatOutcome`]; it has no boolean
//! form, which would have to fold a budgeted run's `Unknown` into one
//! of the other two answers.

use gfd_graph::{Graph, GraphBuilder, NodeId, Value};
use gfd_match::SearchBudget;
use gfd_pattern::{PatLabel, Pattern};

use crate::closure::{chase, ground_deps_of_matches};
use crate::gfd::GfdSet;

/// Result of a satisfiability check.
#[derive(Debug)]
pub enum SatOutcome {
    /// Satisfiable, with an explicit model (a graph that satisfies `Σ`
    /// and matches every pattern).
    Satisfiable(Graph),
    /// Unsatisfiable, with the two conflicting constants forced onto
    /// one node attribute.
    Unsatisfiable {
        /// First conflicting constant.
        left: Value,
        /// Second conflicting constant.
        right: Value,
    },
    /// The match-enumeration budget ran out before an answer was found
    /// (only with [`check_satisfiability_budgeted`]).
    Unknown,
}

/// Builds the canonical graph of `patterns`: one copy of each, in
/// order, with pattern `k`'s variable `i` at node `i` plus the node
/// counts of the patterns before it (so a single pattern's variable
/// `i` is node `i`). Every wildcard node and edge gets a fresh label
/// of its own, so a labeled variable of another pattern never matches
/// it while a wildcard one does.
pub fn canonical_graph<'a>(patterns: impl IntoIterator<Item = &'a Pattern>) -> Graph {
    let mut patterns = patterns.into_iter().peekable();
    let vocab = match patterns.peek() {
        Some(q) => q.vocab().clone(),
        None => gfd_graph::Vocab::shared(),
    };
    let mut g0 = GraphBuilder::new(vocab.clone());
    let mut fresh = 0usize;
    let mut fresh_label = |kind: &str| {
        fresh += 1;
        vocab.intern(&format!("__wild_{kind}_{fresh}"))
    };
    for q in patterns {
        let base = g0.node_count() as u32;
        for v in q.vars() {
            let label = match q.label(v) {
                PatLabel::Sym(s) => s,
                PatLabel::Wildcard => fresh_label("node"),
            };
            g0.add_node(label);
        }
        for e in q.edges() {
            let label = match e.label {
                PatLabel::Sym(s) => s,
                PatLabel::Wildcard => fresh_label("edge"),
            };
            g0.add_edge(NodeId(base + e.src.0), NodeId(base + e.dst.0), label);
        }
    }
    g0.freeze()
}

/// Checks satisfiability with an explicit match-enumeration budget.
pub fn check_satisfiability_budgeted(sigma: &GfdSet, budget: SearchBudget) -> SatOutcome {
    if sigma.is_empty() {
        return SatOutcome::Satisfiable(GraphBuilder::with_fresh_vocab().freeze());
    }
    let g0 = canonical_graph(sigma.iter().map(|g| &g.pattern));
    let Some(deps) = ground_deps_of_matches(sigma, &g0, budget) else {
        return SatOutcome::Unknown;
    };
    let rel = chase(&deps, &[]);
    if rel.has_conflict() {
        let (l, r) = rel.conflict_witness().expect("conflict recorded");
        return SatOutcome::Unsatisfiable {
            left: l.clone(),
            right: r.clone(),
        };
    }
    // Materialize the model: every enforced attribute term gets its
    // class constant, or a fresh value private to its class. Fresh
    // values use a reserved prefix so they can never equal a rule
    // constant (rule constants with this prefix are rejected upstream
    // only by convention; collisions would merely make the model
    // satisfy more antecedents, which the chase already fired).
    let model = g0.edit(|b| {
        for (owner, attr, class, constant) in rel.attr_assignments() {
            let value = match constant {
                Some(v) => v,
                None => Value::Str(format!("__fresh_{:?}", class).into()),
            };
            b.set_attr(NodeId(owner), attr, value);
        }
    });
    SatOutcome::Satisfiable(model)
}

/// Default budget for reasoning chases: generous, but bounded so
/// adversarial rule sets cannot hang the analysis.
pub const DEFAULT_REASONING_BUDGET: SearchBudget = SearchBudget {
    max_steps: Some(50_000_000),
};

/// The satisfiability check of Theorem 1 (with the default budget).
pub fn check_satisfiability(sigma: &GfdSet) -> SatOutcome {
    check_satisfiability_budgeted(sigma, DEFAULT_REASONING_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use crate::literal::{Dependency, Literal};
    use crate::validate::graph_satisfies;
    use gfd_graph::Vocab;
    use gfd_pattern::{Pattern, PatternBuilder, VarId};
    use std::sync::Arc;

    /// The chase found a model.
    fn satisfiable(sigma: &GfdSet) -> bool {
        matches!(check_satisfiability(sigma), SatOutcome::Satisfiable(_))
    }

    /// The chase found a conflict — `Unknown` is neither verdict.
    fn unsatisfiable(sigma: &GfdSet) -> bool {
        matches!(
            check_satisfiability(sigma),
            SatOutcome::Unsatisfiable { .. }
        )
    }

    fn q7(vocab: Arc<Vocab>) -> Pattern {
        let mut b = PatternBuilder::new(vocab);
        b.node("x", "tau");
        b.build()
    }

    fn q8(vocab: Arc<Vocab>) -> Pattern {
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "tau");
        let y = b.node("y", "tau");
        let z = b.node("z", "tau");
        b.edge(x, y, "l");
        b.edge(x, z, "l");
        b.edge(y, z, "l");
        b.build()
    }

    fn q9(vocab: Arc<Vocab>) -> Pattern {
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "tau");
        let y = b.node("y", "tau");
        let z = b.node("z", "tau");
        let w = b.node("w", "tau");
        b.edge(x, y, "l");
        b.edge(x, z, "l");
        b.edge(y, z, "l");
        b.edge(y, w, "l");
        b.edge(z, w, "l");
        b.build()
    }

    #[test]
    fn example7_same_pattern_conflict() {
        // ϕ7 = (Q7, ∅ → x.A = c), ϕ7' = (Q7, ∅ → x.A = d): unsatisfiable.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let phi7 = Gfd::new(
            "phi7",
            q7(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let phi7p = Gfd::new(
            "phi7p",
            q7(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "d")]),
        );
        let sigma = GfdSet::new(vec![phi7.clone(), phi7p]);
        assert!(unsatisfiable(&sigma));

        // Each alone is satisfiable.
        assert!(satisfiable(&GfdSet::new(vec![phi7])));
    }

    #[test]
    fn example7_cross_pattern_conflict() {
        // ϕ8 = (Q8, ∅ → x.A = c), ϕ9 = (Q9, ∅ → x.A = d): Q8 embeds in
        // Q9 so any Q9 match carries both constraints — unsatisfiable.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let phi8 = Gfd::new(
            "phi8",
            q8(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let phi9 = Gfd::new(
            "phi9",
            q9(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "d")]),
        );
        assert!(satisfiable(&GfdSet::new(vec![phi8.clone()])));
        assert!(satisfiable(&GfdSet::new(vec![phi9.clone()])));
        assert!(unsatisfiable(&GfdSet::new(vec![phi8, phi9])));
    }

    #[test]
    fn produced_model_satisfies_sigma() {
        // A satisfiable chain: x.A = c → x.B = d (plus ∅ → x.A = c).
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let b_attr = vocab.intern("B");
        let g1 = Gfd::new(
            "base",
            q7(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let g2 = Gfd::new(
            "step",
            q7(vocab.clone()),
            Dependency::new(
                vec![Literal::const_eq(VarId(0), a, "c")],
                vec![Literal::const_eq(VarId(0), b_attr, "d")],
            ),
        );
        let sigma = GfdSet::new(vec![g1, g2]);
        match check_satisfiability(&sigma) {
            SatOutcome::Satisfiable(model) => {
                assert!(graph_satisfies(&sigma, &model), "chase must emit a model");
                // The model's τ node carries both enforced attributes.
                let n = model.nodes().next().unwrap();
                assert_eq!(model.attr(n, a), Some(&Value::str("c")));
                assert_eq!(model.attr(n, b_attr), Some(&Value::str("d")));
            }
            other => panic!("expected satisfiable, got {other:?}"),
        }
    }

    #[test]
    fn variable_only_sets_are_satisfiable() {
        // Corollary 4, case 1.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let phi = Gfd::new(
            "var",
            q8(vocab.clone()),
            Dependency::always(vec![Literal::var_eq(VarId(0), a, VarId(1), a)]),
        );
        let sigma = GfdSet::new(vec![phi]);
        assert!(satisfiable(&sigma));
    }

    #[test]
    fn no_empty_lhs_sets_are_satisfiable() {
        // Corollary 4, case 2: conflicting consequents guarded by
        // non-empty antecedents never fire in the no-attribute model.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let g1 = Gfd::new(
            "guarded-c",
            q7(vocab.clone()),
            Dependency::new(
                vec![Literal::const_eq(VarId(0), a, "trigger")],
                vec![Literal::const_eq(VarId(0), a, "c")],
            ),
        );
        let g2 = Gfd::new(
            "guarded-d",
            q7(vocab.clone()),
            Dependency::new(
                vec![Literal::const_eq(VarId(0), a, "trigger")],
                vec![Literal::const_eq(VarId(0), a, "d")],
            ),
        );
        let sigma = GfdSet::new(vec![g1, g2]);
        assert!(satisfiable(&sigma));
    }

    #[test]
    fn guarded_chain_conflict_detected() {
        // ∅ → x.A = t;  x.A = t → x.B = c;  x.A = t → x.B = d: the
        // guards fire, so the consequents collide.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let b_attr = vocab.intern("B");
        let base = Gfd::new(
            "base",
            q7(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "t")]),
        );
        let c1 = Gfd::new(
            "c1",
            q7(vocab.clone()),
            Dependency::new(
                vec![Literal::const_eq(VarId(0), a, "t")],
                vec![Literal::const_eq(VarId(0), b_attr, "c")],
            ),
        );
        let c2 = Gfd::new(
            "c2",
            q7(vocab.clone()),
            Dependency::new(
                vec![Literal::const_eq(VarId(0), a, "t")],
                vec![Literal::const_eq(VarId(0), b_attr, "d")],
            ),
        );
        let out = check_satisfiability(&GfdSet::new(vec![base, c1, c2]));
        match out {
            SatOutcome::Unsatisfiable { left, right } => assert_ne!(left, right),
            other => panic!("expected unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn empty_sigma_is_satisfiable() {
        assert!(satisfiable(&GfdSet::default()));
    }

    #[test]
    fn disconnected_pattern_components_interact() {
        // ϕa on pattern {two isolated τ nodes}: ∅ → x.A = y.A.
        // ϕb on single τ node: ∅ → x.A = c.
        // ϕc on single τ' node: nothing. Canonical model: the match of
        // ϕa's two components can land on the two τ copies, chaining
        // them to the same class as c — still satisfiable.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("x", "tau");
        b.node("y", "tau");
        let two = b.build();
        let phi_a = Gfd::new(
            "pair",
            two,
            Dependency::always(vec![Literal::var_eq(VarId(0), a, VarId(1), a)]),
        );
        let phi_b = Gfd::new(
            "const-c",
            q7(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let sigma = GfdSet::new(vec![phi_a.clone(), phi_b.clone()]);
        assert!(satisfiable(&sigma));

        // Now add a second constant rule with d ≠ c on the same τ
        // label; the pair rule forces all τ nodes' A equal, and the two
        // constant rules disagree → unsatisfiable.
        let phi_d = Gfd::new(
            "const-d",
            q7(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "d")]),
        );
        let sigma2 = GfdSet::new(vec![phi_a, phi_b, phi_d]);
        assert!(unsatisfiable(&sigma2));
    }

    #[test]
    fn exhausted_budget_is_unknown() {
        // Example 7's ϕ8 and ϕ9: their patterns have several candidate
        // nodes in G₀, so one backtracking step cannot decide.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let sigma = GfdSet::new(vec![
            Gfd::new(
                "phi8",
                q8(vocab.clone()),
                Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
            ),
            Gfd::new(
                "phi9",
                q9(vocab),
                Dependency::always(vec![Literal::const_eq(VarId(0), a, "d")]),
            ),
        ]);
        let one_step = SearchBudget { max_steps: Some(1) };
        assert!(matches!(
            check_satisfiability_budgeted(&sigma, one_step),
            SatOutcome::Unknown
        ));
        assert!(matches!(
            check_satisfiability_budgeted(&sigma, DEFAULT_REASONING_BUDGET),
            SatOutcome::Unsatisfiable { .. }
        ));
    }
}
