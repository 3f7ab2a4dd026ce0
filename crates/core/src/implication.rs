//! The implication problem for GFDs (§4.2; NP-complete, Thm. 5).
//!
//! `Σ ⊨ ϕ` iff every graph satisfying `Σ` also satisfies `ϕ`. Lemma 7
//! characterizes this by *deducibility*: for `ϕ = (Q[x̄], X → Y)` in
//! normal form, `Σ ⊨ ϕ` iff `Y ∈ closure(Σ_Q, X)` for some set `Σ_Q`
//! of GFDs embedded in `Q` and derived from `Σ`.
//!
//! The paper's NP algorithm guesses the subset `Σ' ⊆ Σ` and the
//! embeddings; closure is monotone in the embedded set, so the
//! deterministic version grounds **every** rule on **every** embedding
//! and computes one maximal closure. Embeddings are matches in `Q`'s
//! canonical graph ([`canonical_graph`]: node `i` is variable `i`, a
//! wildcard gets a fresh label of its own), so `Σ` is grounded by
//! [`ground_deps_of_matches`] — the enumerator and the budget
//! satisfiability uses — and the exponential stays confined to
//! matching. Grounding stays per rule, not per isomorphism class as in
//! detection; [`crate::closure`] says why.
//!
//! Conventions following §4.2:
//! * `Y = ∅` or a tautology `x.A = x.A` ⟹ trivially implied;
//! * if `closure(Σ_Q, X)` is conflicting, no graph can satisfy `Σ`
//!   and `X` on a match of `Q` simultaneously, so the implication
//!   holds vacuously;
//! * `Σ` is assumed satisfiable ([`implies_checked`] verifies it
//!   first and follows the paper's extended algorithm).

use gfd_match::SearchBudget;

use crate::closure::{chase, ground_deps_of_matches, ground_literal, GroundLiteral};
use crate::gfd::{Gfd, GfdSet};
use crate::literal::Literal;
use crate::sat::{
    canonical_graph, check_satisfiability, check_satisfiability_budgeted, SatOutcome,
    DEFAULT_REASONING_BUDGET,
};

/// Result of the checked implication analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImplicationOutcome {
    /// `Σ ⊨ ϕ`.
    Implied,
    /// `Σ ⊭ ϕ` (a counterexample model exists).
    NotImplied,
    /// `Σ` itself is unsatisfiable — the paper's algorithm reports the
    /// input as invalid.
    SigmaUnsatisfiable,
    /// The reasoning budget ran out (while checking `Σ`'s
    /// satisfiability or grounding `Σ` in `Q`) before an answer.
    Unknown,
}

fn identity_grounding(lit: &Literal) -> GroundLiteral {
    ground_literal(lit, &|v| v.0)
}

/// Decides `Σ ⊨ ϕ`, assuming `Σ` is satisfiable (§4.2's standing
/// assumption). True only when the implication is established within
/// the default reasoning budget.
pub fn implies(sigma: &GfdSet, phi: &Gfd) -> bool {
    decide(sigma, phi, DEFAULT_REASONING_BUDGET) == ImplicationOutcome::Implied
}

/// Lemma 7 under `budget`: `Implied`, `NotImplied`, or `Unknown` when
/// grounding `Σ` in `Q`'s canonical graph runs out of budget.
fn decide(sigma: &GfdSet, phi: &Gfd, budget: SearchBudget) -> ImplicationOutcome {
    // Normal form: each consequent literal separately; ∅ → trivially true.
    if phi.dep.y.is_empty() {
        return ImplicationOutcome::Implied;
    }

    let g = canonical_graph([&phi.pattern]);
    let Some(deps) = ground_deps_of_matches(sigma, &g, budget) else {
        return ImplicationOutcome::Unknown;
    };
    let base: Vec<GroundLiteral> = phi.dep.x.iter().map(identity_grounding).collect();
    let rel = chase(&deps, &base);

    // Conflicting closure: X cannot hold on any Σ-satisfying match of
    // Q, so the implication is vacuous.
    let implied = rel.has_conflict()
        || phi.dep.y.iter().all(|lit| {
            // §4.2 treats tautologies as trivially implied. (Note the
            // subtlety: under the attribute-existence semantics of §3 a
            // tautology in Y is not vacuous; the implication analysis
            // follows the paper's normal-form convention regardless.)
            lit.is_tautology() || identity_grounding(lit).entailed_by(&rel)
        });
    if implied {
        ImplicationOutcome::Implied
    } else {
        ImplicationOutcome::NotImplied
    }
}

/// The paper's extended algorithm: first check that `Σ` is satisfiable
/// and that `X` is satisfiable, then decide — all within the default
/// reasoning budget.
pub fn implies_checked(sigma: &GfdSet, phi: &Gfd) -> ImplicationOutcome {
    implies_checked_budgeted(sigma, phi, DEFAULT_REASONING_BUDGET)
}

fn implies_checked_budgeted(sigma: &GfdSet, phi: &Gfd, budget: SearchBudget) -> ImplicationOutcome {
    match check_satisfiability_budgeted(sigma, budget) {
        SatOutcome::Unsatisfiable { .. } => return ImplicationOutcome::SigmaUnsatisfiable,
        SatOutcome::Unknown => return ImplicationOutcome::Unknown,
        SatOutcome::Satisfiable(_) => {}
    }
    // X unsatisfiable on its own ⇒ ϕ holds trivially.
    let base: Vec<GroundLiteral> = phi.dep.x.iter().map(identity_grounding).collect();
    if chase(&[], &base).has_conflict() {
        return ImplicationOutcome::Implied;
    }
    decide(sigma, phi, budget)
}

/// Removes rules implied by the rest of the set — the *workload
/// reduction* optimization of the appendix: if `Σ \ {ϕ} ⊨ ϕ`, then
/// dropping `ϕ` preserves `G ⊨ Σ` (not `Vio(Σ, G)`, which lists `ϕ`'s
/// own violations). A rule whose check runs out of budget is kept.
/// [`implies`] assumes `Σ` is satisfiable, so `Σ` is checked once up
/// front and returned unchanged unless it is `Satisfiable`; one check
/// covers every candidate, since a model of `Σ` is a model of each
/// subset.
pub fn minimize(sigma: &GfdSet) -> GfdSet {
    if !matches!(check_satisfiability(sigma), SatOutcome::Satisfiable(_)) {
        return sigma.clone();
    }
    // Each candidate is taken out of the one kept set, checked against
    // the rest in place, and put back where it was unless implied.
    let mut kept = sigma.clone();
    let mut i = 0;
    while i < kept.len() {
        let candidate = kept.remove(i);
        if kept.is_empty() || !implies(&kept, &candidate) {
            kept.insert(i, candidate);
            i += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Dependency;
    use gfd_graph::Vocab;
    use gfd_pattern::{Pattern, PatternBuilder, VarId};
    use std::sync::Arc;

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

    /// Example 8: Σ = { (Q8, x.A=y.A → x.B=y.B), (Q9, x.B=y.B → z.C=w.C) }
    /// implies ϕ11 = (Q9, x.A=y.A → z.C=w.C).
    #[test]
    fn example8_implication_holds() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let b_at = vocab.intern("B");
        let c_at = vocab.intern("C");
        let g8 = Gfd::new(
            "s1",
            q8(vocab.clone()),
            Dependency::new(
                vec![Literal::var_eq(VarId(0), a, VarId(1), a)],
                vec![Literal::var_eq(VarId(0), b_at, VarId(1), b_at)],
            ),
        );
        let g9 = Gfd::new(
            "s2",
            q9(vocab.clone()),
            Dependency::new(
                vec![Literal::var_eq(VarId(0), b_at, VarId(1), b_at)],
                vec![Literal::var_eq(VarId(2), c_at, VarId(3), c_at)],
            ),
        );
        let sigma = GfdSet::new(vec![g8, g9]);
        let phi11 = Gfd::new(
            "phi11",
            q9(vocab.clone()),
            Dependency::new(
                vec![Literal::var_eq(VarId(0), a, VarId(1), a)],
                vec![Literal::var_eq(VarId(2), c_at, VarId(3), c_at)],
            ),
        );
        assert!(implies(&sigma, &phi11));
        assert_eq!(implies_checked(&sigma, &phi11), ImplicationOutcome::Implied);

        // The reverse direction does not hold.
        let phi_rev = Gfd::new(
            "rev",
            q9(vocab),
            Dependency::new(
                vec![Literal::var_eq(VarId(2), c_at, VarId(3), c_at)],
                vec![Literal::var_eq(VarId(0), a, VarId(1), a)],
            ),
        );
        assert!(!implies(&sigma, &phi_rev));
    }

    #[test]
    fn empty_consequent_trivially_implied() {
        let vocab = Vocab::shared();
        let phi = Gfd::new("e", q8(vocab), Dependency::new(vec![], vec![]));
        assert!(implies(&GfdSet::default(), &phi));
    }

    #[test]
    fn tautology_trivially_implied() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let phi = Gfd::new(
            "taut",
            q8(vocab),
            Dependency::always(vec![Literal::var_eq(VarId(0), a, VarId(0), a)]),
        );
        assert!(implies(&GfdSet::default(), &phi));
    }

    #[test]
    fn unsatisfiable_x_is_vacuous() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let b_at = vocab.intern("B");
        let phi = Gfd::new(
            "vacuous",
            q8(vocab),
            Dependency::new(
                vec![
                    Literal::const_eq(VarId(0), a, "c"),
                    Literal::const_eq(VarId(0), a, "d"),
                ],
                vec![Literal::const_eq(VarId(1), b_at, "whatever")],
            ),
        );
        assert_eq!(
            implies_checked(&GfdSet::default(), &phi),
            ImplicationOutcome::Implied
        );
    }

    #[test]
    fn unsatisfiable_sigma_reported() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("x", "tau");
        let q = b.build();
        let c1 = Gfd::new(
            "c",
            q.clone(),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let d1 = Gfd::new(
            "d",
            q.clone(),
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "d")]),
        );
        let sigma = GfdSet::new(vec![c1, d1]);
        let phi = Gfd::new(
            "any",
            q,
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "e")]),
        );
        assert_eq!(
            implies_checked(&sigma, &phi),
            ImplicationOutcome::SigmaUnsatisfiable
        );
    }

    #[test]
    fn constant_transitivity_implication() {
        // Σ: (τ, ∅ → x.A = c). ϕ: (τ→τ edge pattern, ∅ → x.A = y.A):
        // both endpoints' A are forced to c, hence equal.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("x", "tau");
        let single = b.build();
        let rule = Gfd::new(
            "all-c",
            single,
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "tau");
        let y = b.node("y", "tau");
        b.edge(x, y, "l");
        let edge_q = b.build();
        let phi = Gfd::new(
            "equal",
            edge_q,
            Dependency::always(vec![Literal::var_eq(VarId(0), a, VarId(1), a)]),
        );
        assert!(implies(&GfdSet::new(vec![rule]), &phi));
    }

    #[test]
    fn minimize_drops_implied_rules() {
        // Same-pattern duplicate: the second copy is implied.
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mk = |name: &str| {
            Gfd::new(
                name,
                q8(vocab.clone()),
                Dependency::new(
                    vec![Literal::var_eq(VarId(0), a, VarId(1), a)],
                    vec![Literal::var_eq(VarId(1), a, VarId(2), a)],
                ),
            )
        };
        let sigma = GfdSet::new(vec![mk("one"), mk("two")]);
        let minimized = minimize(&sigma);
        assert_eq!(minimized.len(), 1);

        // Unrelated rules are kept.
        let other = Gfd::new(
            "other",
            q9(vocab.clone()),
            Dependency::always(vec![Literal::const_eq(VarId(3), a, "v")]),
        );
        let sigma2 = GfdSet::new(vec![mk("one"), other]);
        assert_eq!(minimize(&sigma2).len(), 2);
    }

    /// An unsatisfiable Σ is returned whole: `implies` would count its
    /// conflict as implying every rule, and drop `x.C = 7` on the word
    /// of `x.A = 1` and `x.A = 2`.
    #[test]
    fn minimize_keeps_an_unsatisfiable_sigma() {
        let vocab = Vocab::shared();
        let [a, c] = ["A", "C"].map(|name| vocab.intern(name));
        let rule = |name: &str, attr, value: i64| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node("x", "tau");
            let lit = Literal::const_eq(x, attr, gfd_graph::Value::Int(value));
            Gfd::new(name, b.build(), Dependency::always(vec![lit]))
        };
        let sigma = GfdSet::new(vec![rule("a1", a, 1), rule("a2", a, 2), rule("c7", c, 7)]);
        let kept = minimize(&sigma);
        let names: Vec<&str> = kept.iter().map(|gfd| gfd.name.as_str()).collect();
        assert_eq!(names, ["a1", "a2", "c7"]);
    }

    /// A one-rule Σ over `sigma_q` and a ϕ over `phi_q`, both of the
    /// form `∅ → y`, where `y` grounds on each pattern's variables.
    fn single(sigma_q: Pattern, sy: Literal, phi_q: Pattern, py: Literal) -> (GfdSet, Gfd) {
        let rule = Gfd::new("rule", sigma_q, Dependency::always(vec![sy]));
        let phi = Gfd::new("phi", phi_q, Dependency::always(vec![py]));
        (GfdSet::new(vec![rule]), phi)
    }

    /// Regression: a wildcard self-loop and a labeled self-loop of Σ's
    /// pattern both land on ϕ's one labeled self-loop — Σ's pattern has
    /// more edges than ϕ's and still matches in every match of ϕ's.
    #[test]
    fn wildcard_parallel_edge_shares_a_target_edge() {
        let vocab = Vocab::shared();
        let b_at = vocab.intern("B");
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.wildcard_node("x");
        b.edge(x, x, "e");
        b.wildcard_edge(x, x);
        let loops = b.build();
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "t");
        b.edge(x, x, "e");
        let one_loop = b.build();
        let lit = Literal::const_eq(VarId(0), b_at, "c");
        let (sigma, phi) = single(loops, lit.clone(), one_loop, lit);
        assert!(implies(&sigma, &phi));
        assert_eq!(implies_checked(&sigma, &phi), ImplicationOutcome::Implied);
    }

    /// A wildcard variable of Σ lands on a labeled one of ϕ, never the
    /// other way round.
    #[test]
    fn wildcard_direction() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.edge(y, x, "is_a");
        let wild = b.build();
        let mut b = PatternBuilder::new(vocab);
        let bird = b.node("bird", "bird");
        let peng = b.node("peng", "penguin");
        b.edge(peng, bird, "is_a");
        let labeled = b.build();
        let lit = Literal::const_eq(VarId(0), a, "c");
        let (sigma, phi) = single(wild.clone(), lit.clone(), labeled.clone(), lit.clone());
        assert!(implies(&sigma, &phi), "wildcards land on labels");
        let (sigma, phi) = single(labeled, lit.clone(), wild, lit);
        assert!(!implies(&sigma, &phi), "labels don't land on wildcards");
    }

    #[test]
    fn edge_label_must_match() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let edge = |label: &str| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node("x", "t");
            let y = b.node("y", "t");
            b.edge(x, y, label);
            b.build()
        };
        let lit = Literal::const_eq(VarId(1), a, "c");
        let (sigma, phi) = single(edge("likes"), lit.clone(), edge("follows"), lit.clone());
        assert!(!implies(&sigma, &phi));
        let (sigma, phi) = single(edge("follows"), lit.clone(), edge("likes"), lit.clone());
        assert!(!implies(&sigma, &phi));
        let (sigma, phi) = single(edge("likes"), lit.clone(), edge("likes"), lit);
        assert!(implies(&sigma, &phi));
    }

    /// Two variables of Σ's pattern never land on one node of ϕ's.
    #[test]
    fn injectivity_is_enforced() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("a", "tau");
        b.node("b", "tau");
        let two = b.build();
        let mut b = PatternBuilder::new(vocab);
        b.node("only", "tau");
        let one = b.build();
        let lit = Literal::const_eq(VarId(0), a, "c");
        let (sigma, phi) = single(two.clone(), lit.clone(), one.clone(), lit.clone());
        assert!(!implies(&sigma, &phi));
        let (sigma, phi) = single(one, lit.clone(), two, lit);
        assert!(implies(&sigma, &phi));
    }

    /// The components of a disconnected Σ pattern land on different
    /// parts of ϕ's pattern; a connected one does not split.
    #[test]
    fn disconnected_sub_embeds_across_sup() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("a", "tau");
        b.node("b", "tau");
        let two = b.build();
        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "tau");
        let y = b.node("y", "tau");
        b.edge(x, y, "l");
        let edge = b.build();
        let lit = Literal::var_eq(VarId(0), a, VarId(1), a);
        let (sigma, phi) = single(two.clone(), lit.clone(), edge.clone(), lit.clone());
        assert!(implies(&sigma, &phi));
        let (sigma, phi) = single(edge, lit.clone(), two, lit);
        assert!(!implies(&sigma, &phi));
    }

    /// `∅ → v.A = c` for the variable named `v` of `q`.
    fn const_rule(q: Pattern, v: &str) -> Gfd {
        let a = q.vocab().intern("A");
        let var = q.var_by_name(v).unwrap();
        Gfd::new(
            v,
            q,
            Dependency::always(vec![Literal::const_eq(var, a, "c")]),
        )
    }

    /// Q8 is a subgraph of Q9 (Example 7's interaction): a Q8 rule
    /// grounds in every match of Q9.
    #[test]
    fn q8_rules_ground_in_q9() {
        let vocab = Vocab::shared();
        let sigma = GfdSet::new(vec![const_rule(q8(vocab.clone()), "x")]);
        assert!(implies(&sigma, &const_rule(q9(vocab), "x")));
    }

    #[test]
    fn q9_rules_do_not_ground_in_q8() {
        let vocab = Vocab::shared();
        let sigma = GfdSet::new(vec![const_rule(q9(vocab.clone()), "x")]);
        assert!(!implies(&sigma, &const_rule(q8(vocab), "x")));
    }

    /// Q8's `x` needs two out-neighbors joined by an edge: in Q9 it
    /// lands on `x` or on `y` (via `y → z`, `y → w`, `z → w`), never on
    /// `z` (one out-neighbor) or `w` (none).
    #[test]
    fn a_variable_lands_only_where_its_pattern_fits() {
        let vocab = Vocab::shared();
        let sigma = GfdSet::new(vec![const_rule(q8(vocab.clone()), "x")]);
        for (v, fits) in [("x", true), ("y", true), ("z", false), ("w", false)] {
            assert_eq!(
                implies(&sigma, &const_rule(q9(vocab.clone()), v)),
                fits,
                "{v}"
            );
        }
    }

    /// Example 8's Σ and ϕ11, whose grounding enumerates more than one
    /// candidate.
    fn example8() -> (GfdSet, Gfd) {
        let vocab = Vocab::shared();
        let (a, b_at, c_at) = (vocab.intern("A"), vocab.intern("B"), vocab.intern("C"));
        let rule = |name: &str, q: Pattern, x: Literal, y: Literal| {
            Gfd::new(name, q, Dependency::new(vec![x], vec![y]))
        };
        let sigma = GfdSet::new(vec![
            rule(
                "s1",
                q8(vocab.clone()),
                Literal::var_eq(VarId(0), a, VarId(1), a),
                Literal::var_eq(VarId(0), b_at, VarId(1), b_at),
            ),
            rule(
                "s2",
                q9(vocab.clone()),
                Literal::var_eq(VarId(0), b_at, VarId(1), b_at),
                Literal::var_eq(VarId(2), c_at, VarId(3), c_at),
            ),
        ]);
        let phi = rule(
            "phi11",
            q9(vocab),
            Literal::var_eq(VarId(0), a, VarId(1), a),
            Literal::var_eq(VarId(2), c_at, VarId(3), c_at),
        );
        (sigma, phi)
    }

    #[test]
    fn exhausted_budget_is_unknown() {
        let (sigma, phi) = example8();
        let one_step = SearchBudget { max_steps: Some(1) };
        assert_eq!(decide(&sigma, &phi, one_step), ImplicationOutcome::Unknown);
        assert_eq!(
            implies_checked_budgeted(&sigma, &phi, one_step),
            ImplicationOutcome::Unknown
        );
        assert_eq!(
            implies_checked_budgeted(&sigma, &phi, DEFAULT_REASONING_BUDGET),
            ImplicationOutcome::Implied
        );
    }
}
