//! Embedded GFDs and equality closures (§4).
//!
//! For a pattern `Q` and a set `Σ`, the GFDs *embedded in `Q` and
//! derived from `Σ`* are `(Q, f(X') → f(Y'))` for every `ϕ' = (Q', X'
//! → Y')` in `Σ` and every embedding `f` of `Q'` into `Q`. An
//! embedding is a match of `Q'` in `Q` frozen as a graph (the
//! canonical graph of [`crate::sat::canonical_graph`]), so both static
//! analyses ground `Σ` through one function on the one enumerator,
//! [`ground_deps_of_matches`], and compute closures over the result:
//!
//! * `enforced(Σ_Q)` — the fixpoint starting from nothing, used by
//!   satisfiability (owners are the nodes of all of `Σ`'s patterns);
//! * `closure(Σ_Q, X)` — the fixpoint starting from `X`, used by
//!   implication (owners are `Q`'s variables).
//!
//! Either way the literal form here is "ground": owners are plain
//! `u32` indices.
//!
//! Grounding enumerates rule by rule, not once per isomorphism class
//! as detection does ([`crate::group`]). A reasoning call grounds Σ in
//! a canonical graph of a handful of nodes, where most rules are
//! skipped by their label counts before any search; grouping Σ first
//! (a canonical form per rule) would cost several times what the
//! grounding itself does, on every `implies` call.

use gfd_graph::{Graph, Sym, Value};
use gfd_match::api::EnumOutcome;
use gfd_match::{for_each_match_with, types::Flow, MatchOptions, MatchScratch, SearchBudget};
use gfd_pattern::{PatLabel, Pattern};

use crate::eqrel::EqRel;
use crate::gfd::GfdSet;
use crate::literal::{Dependency, Literal};

/// A literal whose variables have been resolved to owner indices
/// (nodes of a canonical graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GroundLiteral {
    /// `o.A = c`.
    Const {
        /// Owner index.
        owner: u32,
        /// Attribute.
        attr: Sym,
        /// The constant.
        value: Value,
    },
    /// `o1.A = o2.B`.
    Vars {
        /// Left owner.
        o1: u32,
        /// Left attribute.
        a1: Sym,
        /// Right owner.
        o2: u32,
        /// Right attribute.
        a2: Sym,
    },
}

impl GroundLiteral {
    /// Is the literal already derivable from `rel`?
    pub fn entailed_by(&self, rel: &EqRel) -> bool {
        match self {
            GroundLiteral::Const { owner, attr, value } => rel.entails_const(*owner, *attr, value),
            GroundLiteral::Vars { o1, a1, o2, a2 } => rel.entails_var(*o1, *a1, *o2, *a2),
        }
    }

    /// Asserts the literal into `rel` (creating terms as needed).
    pub fn assert_into(&self, rel: &mut EqRel) {
        match self {
            GroundLiteral::Const { owner, attr, value } => {
                let t = rel.attr_term(*owner, *attr);
                let c = rel.const_term(value);
                rel.union(t, c);
            }
            GroundLiteral::Vars { o1, a1, o2, a2 } => {
                let t1 = rel.attr_term(*o1, *a1);
                let t2 = rel.attr_term(*o2, *a2);
                rel.union(t1, t2);
            }
        }
    }
}

/// A dependency with ground literals.
#[derive(Clone, Debug)]
pub struct GroundDep {
    /// Antecedent.
    pub x: Vec<GroundLiteral>,
    /// Consequent.
    pub y: Vec<GroundLiteral>,
}

/// Grounds a literal through an owner assignment.
pub fn ground_literal(
    lit: &Literal,
    owner_of: &dyn Fn(gfd_pattern::VarId) -> u32,
) -> GroundLiteral {
    match lit {
        Literal::Const { var, attr, value } => GroundLiteral::Const {
            owner: owner_of(*var),
            attr: *attr,
            value: value.clone(),
        },
        Literal::Vars { x, a, y, b } => GroundLiteral::Vars {
            o1: owner_of(*x),
            a1: *a,
            o2: owner_of(*y),
            a2: *b,
        },
    }
}

/// Grounds a whole dependency.
pub fn ground_dep(dep: &Dependency, owner_of: &dyn Fn(gfd_pattern::VarId) -> u32) -> GroundDep {
    GroundDep {
        x: dep.x.iter().map(|l| ground_literal(l, owner_of)).collect(),
        y: dep.y.iter().map(|l| ground_literal(l, owner_of)).collect(),
    }
}

/// Grounds every rule of `Σ` on each of its matches in `graph`: one
/// [`GroundDep`] per (rule, match) pair, owners are node indices.
/// Returns `None` if a rule's enumeration ran out of `budget`, which
/// caps each rule's enumeration on its own. Every enumeration runs
/// through one scratch, and a rule with more variables of some label
/// than `graph` has nodes of it is skipped unsearched: matches are
/// injective, so it has none.
pub fn ground_deps_of_matches(
    sigma: &GfdSet,
    graph: &Graph,
    budget: SearchBudget,
) -> Option<Vec<GroundDep>> {
    let opts = MatchOptions::unrestricted().with_budget(budget);
    let mut scratch = MatchScratch::default();
    let mut deps = Vec::new();
    for gfd in sigma
        .iter()
        .filter(|gfd| !outnumbers_extents(&gfd.pattern, graph))
    {
        let outcome =
            for_each_match_with(&gfd.pattern, graph, &opts, None, &mut scratch, &mut |m| {
                deps.push(ground_dep(&gfd.dep, &|v| m[v.index()].0));
                Flow::Continue
            });
        if outcome != EnumOutcome::Complete {
            return None;
        }
    }
    Some(deps)
}

/// Does `q` have more variables of some label than `g` has nodes of it?
fn outnumbers_extents(q: &Pattern, g: &Graph) -> bool {
    q.vars().any(|v| match q.label(v) {
        PatLabel::Sym(s) => {
            let same = q.vars().filter(|&w| q.label(w) == PatLabel::Sym(s));
            same.count() > g.extent(s).len()
        }
        PatLabel::Wildcard => false,
    })
}

/// Runs the equality chase: asserts `base`, then fires every
/// dependency whose antecedent is derivable, to fixpoint. Returns the
/// resulting relation (check [`EqRel::has_conflict`] afterwards).
///
/// With `base = []` this computes `enforced(Σ_Q)`; with `base = X` it
/// computes `closure(Σ_Q, X)`.
pub fn chase(deps: &[GroundDep], base: &[GroundLiteral]) -> EqRel {
    let mut rel = EqRel::new();
    for lit in base {
        lit.assert_into(&mut rel);
    }
    let mut fired = vec![false; deps.len()];
    loop {
        let mut progress = false;
        for (i, dep) in deps.iter().enumerate() {
            if fired[i] {
                continue;
            }
            if dep.x.iter().all(|l| l.entailed_by(&rel)) {
                fired[i] = true;
                progress = true;
                for lit in &dep.y {
                    lit.assert_into(&mut rel);
                }
            }
        }
        if !progress {
            return rel;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use crate::sat::canonical_graph;
    use gfd_graph::Vocab;
    use gfd_pattern::{PatternBuilder, VarId};

    fn sym(v: &Vocab, s: &str) -> Sym {
        v.intern(s)
    }

    #[test]
    fn chase_base_only() {
        let v = Vocab::shared();
        let a = sym(&v, "A");
        let base = vec![GroundLiteral::Const {
            owner: 0,
            attr: a,
            value: Value::str("c"),
        }];
        let rel = chase(&[], &base);
        assert!(rel.entails_const(0, a, &Value::str("c")));
        assert!(!rel.has_conflict());
    }

    #[test]
    fn chase_fires_transitively() {
        // dep1: o0.A = c → o1.B = c; dep2: o1.B = c → o2.C = d.
        let v = Vocab::shared();
        let (a, b, c_attr) = (sym(&v, "A"), sym(&v, "B"), sym(&v, "C"));
        let deps = vec![
            GroundDep {
                x: vec![GroundLiteral::Const {
                    owner: 0,
                    attr: a,
                    value: Value::str("c"),
                }],
                y: vec![GroundLiteral::Const {
                    owner: 1,
                    attr: b,
                    value: Value::str("c"),
                }],
            },
            GroundDep {
                x: vec![GroundLiteral::Const {
                    owner: 1,
                    attr: b,
                    value: Value::str("c"),
                }],
                y: vec![GroundLiteral::Const {
                    owner: 2,
                    attr: c_attr,
                    value: Value::str("d"),
                }],
            },
        ];
        let base = vec![GroundLiteral::Const {
            owner: 0,
            attr: a,
            value: Value::str("c"),
        }];
        let rel = chase(&deps, &base);
        assert!(rel.entails_const(2, c_attr, &Value::str("d")));
    }

    #[test]
    fn chase_detects_conflict() {
        // Example 7: ∅ → x.A = c and ∅ → x.A = d conflict.
        let v = Vocab::shared();
        let a = sym(&v, "A");
        let deps = vec![
            GroundDep {
                x: vec![],
                y: vec![GroundLiteral::Const {
                    owner: 0,
                    attr: a,
                    value: Value::str("c"),
                }],
            },
            GroundDep {
                x: vec![],
                y: vec![GroundLiteral::Const {
                    owner: 0,
                    attr: a,
                    value: Value::str("d"),
                }],
            },
        ];
        let rel = chase(&deps, &[]);
        assert!(rel.has_conflict());
    }

    #[test]
    fn unfired_deps_do_not_leak() {
        let v = Vocab::shared();
        let a = sym(&v, "A");
        let deps = vec![GroundDep {
            x: vec![GroundLiteral::Const {
                owner: 0,
                attr: a,
                value: Value::str("never"),
            }],
            y: vec![GroundLiteral::Const {
                owner: 1,
                attr: a,
                value: Value::str("x"),
            }],
        }];
        let rel = chase(&deps, &[]);
        assert!(!rel.entails_const(1, a, &Value::str("x")));
    }

    #[test]
    fn grounding_follows_matches() {
        // Σ = { (single τ node, ∅ → x.A = c) }; Q = τ → τ edge.
        // The single node matches Q's canonical graph twice, so both
        // Q-variables get the dep.
        let vocab = Vocab::shared();
        let a = sym(&vocab, "A");
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("x", "tau");
        let q_single = b.build();
        let phi = Gfd::new(
            "c",
            q_single,
            Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
        );
        let sigma = GfdSet::new(vec![phi]);

        let mut b = PatternBuilder::new(vocab);
        let x = b.node("x", "tau");
        let y = b.node("y", "tau");
        b.edge(x, y, "l");
        let q = b.build();

        let g = canonical_graph([&q]);
        let deps = ground_deps_of_matches(&sigma, &g, SearchBudget::UNLIMITED).unwrap();
        assert_eq!(deps.len(), 2);
        let rel = chase(&deps, &[]);
        assert!(rel.entails_const(0, a, &Value::str("c")));
        assert!(rel.entails_const(1, a, &Value::str("c")));
    }

    #[test]
    fn variable_literal_grounding() {
        let v = Vocab::shared();
        let a = sym(&v, "A");
        let lit = Literal::var_eq(VarId(0), a, VarId(1), a);
        let g = ground_literal(&lit, &|vid| vid.0 + 10);
        assert_eq!(
            g,
            GroundLiteral::Vars {
                o1: 10,
                a1: a,
                o2: 11,
                a2: a
            }
        );
    }
}
