//! GFD validation and error detection (§5.1).
//!
//! A match `h(x̄)` of `Q` in `G` is a *violation* of
//! `ϕ = (Q[x̄], X → Y)` if `h ⊨ X` but `h ⊭ Y`. `Vio(Σ, G)` collects
//! the violations of all rules; `G ⊨ Σ` iff it is empty.
//!
//! Literal satisfaction follows §3 exactly:
//! * `h ⊨ x.A = c` iff node `h(x)` **has** attribute `A` and its value
//!   is `c`; similarly for `x.A = y.B`;
//! * a missing attribute in `X` makes the GFD hold trivially for that
//!   match (semi-structured data!), while a missing attribute in `Y`
//!   is a violation (when `X` held).
//!
//! The sequential algorithm `detVio` enumerates all matches once per
//! group of isomorphic rule patterns ([`crate::group`]) and checks every
//! member's dependency on each — a two-part group's member on the rows
//! of the join on its cross-part `X` equality, as on every other path —
//! exponential in the worst case (validation is coNP-complete, Prop. 9),
//! which is why the parallel crate exists. Each part of a group
//! enumerates in its registry class space when the one size gate
//! ([`gfd_match::auto_simulate`]) fires for it, and on the raw CSR
//! otherwise.
//!
//! That one loop, [`detect_violations_with`], is all of detection here:
//! the budgeted variant runs it with a step budget in its scratch, and
//! the validation problem `G ⊨ Σ` asks whether its result is empty.

use gfd_graph::{Graph, NodeId};
use gfd_match::{auto_simulate, ClassRegistry, ClassView, Match, SearchBudget};

use crate::gfd::GfdSet;
use crate::group::{for_each_group_violation, GroupScratch, RuleGroups};
use crate::literal::{Dependency, Literal};

/// One violation: which rule, and the violating match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated GFD in `Σ`.
    pub rule: usize,
    /// The violating match `h(x̄)`.
    pub mapping: Match,
}

/// Does `h ⊨ lit` in `g`? (`m` is indexed by variable id.)
pub fn literal_holds(lit: &Literal, g: &Graph, m: &[NodeId]) -> bool {
    match lit {
        Literal::Const { var, attr, value } => g.attr(m[var.index()], *attr) == Some(value),
        Literal::Vars { x, a, y, b } => {
            match (g.attr(m[x.index()], *a), g.attr(m[y.index()], *b)) {
                (Some(va), Some(vb)) => va == vb,
                _ => false,
            }
        }
    }
}

/// Does `h ⊨ X → Y` (i.e. `h ⊨ Y` whenever `h ⊨ X`)?
pub fn match_satisfies(dep: &Dependency, g: &Graph, m: &[NodeId]) -> bool {
    let x_holds = dep.x.iter().all(|l| literal_holds(l, g, m));
    if !x_holds {
        return true;
    }
    dep.y.iter().all(|l| literal_holds(l, g, m))
}

/// The sequential algorithm `detVio` (§5.1): computes `Vio(Σ, G)` with
/// a single processor by full match enumeration — once per group of
/// isomorphic rule patterns ([`RuleGroups`]), every member checked on
/// each row — sharing simulation work across isomorphic rules through
/// a call-local [`ClassRegistry`].
pub fn detect_violations(sigma: &GfdSet, g: &Graph) -> Vec<Violation> {
    detect_violations_shared(sigma, g, &ClassRegistry::new())
}

/// `detVio` borrowing a caller-owned [`ClassRegistry`] shared across
/// the whole Σ (and, if the caller wishes, with workload estimation or
/// an incremental detector): each part of a group that passes the size
/// gate [`auto_simulate`] — cyclic, with large entry pools — registers
/// as a class and enumerates through its candidate space, simulated
/// once per class and read through the representative's permutation;
/// every other part searches the raw CSR and registers nothing. The
/// classes are connected parts, the same ones the detector and the
/// work units register.
pub fn detect_violations_shared(
    sigma: &GfdSet,
    g: &Graph,
    registry: &ClassRegistry,
) -> Vec<Violation> {
    detect_violations_with(sigma, g, registry, &mut DetScratch::default())
}

/// Caller-owned reusable state for repeated `detVio` runs: the
/// enumeration primitive's buffers and the group in flight's class
/// views. Keep one alive — next to the shared [`ClassRegistry`] —
/// across detection iterations and the steady state is allocation-free
/// up to the grouping and the violations output.
#[derive(Default)]
pub struct DetScratch {
    group: GroupScratch,
    /// Per part of the group in flight: its class view, or `None`.
    views: Vec<Option<ClassView>>,
}

impl DetScratch {
    /// Component searches run through this scratch so far.
    pub fn enumerations(&self) -> u64 {
        self.group.enumerations()
    }
}

/// [`detect_violations_shared`] with caller-owned scratch.
pub fn detect_violations_with(
    sigma: &GfdSet,
    g: &Graph,
    registry: &ClassRegistry,
    scratch: &mut DetScratch,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let DetScratch {
        group: primitive,
        views,
    } = scratch;
    for group in RuleGroups::new(sigma).iter().filter(|group| group.checks()) {
        let view = |q| auto_simulate(q, g).then(|| registry.space(registry.register(q), g));
        views.extend(group.parts.iter().map(|(q, _)| view(q)));
        for_each_group_violation(group, g, views, &[], primitive, &mut |rule, m| {
            out.push(Violation {
                rule,
                mapping: Match(m.to_vec()),
            })
        });
        views.clear();
    }
    out
}

/// Budgeted `detVio`: [`detect_violations_with`] under `budget`, which
/// caps the backtracking steps of each component search — not of the
/// call: every part of every group's enumeration gets the whole budget.
/// The boolean is `true` when no search was cut off, so the violations
/// are all of `Vio(Σ, G)`.
pub fn detect_violations_budgeted(
    sigma: &GfdSet,
    g: &Graph,
    budget: SearchBudget,
) -> (Vec<Violation>, bool) {
    let mut scratch = DetScratch {
        group: GroupScratch::with_budget(budget),
        views: Vec::new(),
    };
    let vio = detect_violations_with(sigma, g, &ClassRegistry::new(), &mut scratch);
    (vio, scratch.group.cut_off() == 0)
}

/// The validation problem: does `G ⊨ Σ`, i.e. is `Vio(Σ, G)` empty?
pub fn graph_satisfies(sigma: &GfdSet, g: &Graph) -> bool {
    detect_violations(sigma, g).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use gfd_graph::{Value, Vocab};
    use gfd_match::{for_each_match, types::Flow, MatchOptions};
    use gfd_pattern::{PatternBuilder, VarId};
    use std::sync::Arc;

    /// The per-rule oracle, independent of the grouping: each rule's
    /// own enumeration, every match checked against its `X → Y`.
    fn per_rule_violations(sigma: &GfdSet, g: &Graph) -> Vec<Violation> {
        let mut out = Vec::new();
        for (rule, gfd) in sigma.iter().enumerate() {
            for_each_match(&gfd.pattern, g, &MatchOptions::unrestricted(), &mut |m| {
                if !match_satisfies(&gfd.dep, g, m) {
                    out.push(Violation {
                        rule,
                        mapping: Match(m.to_vec()),
                    });
                }
                Flow::Continue
            });
        }
        out
    }

    /// Builds G1 of Fig. 1 plus ϕ1 of Example 5 (flights with same id
    /// must share destination).
    fn flights_fixture() -> (Graph, GfdSet) {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let mut mk = |id: &str, from: &str, to: &str| {
            let f = b.add_node_labeled("flight");
            let idn = b.add_node_labeled("id");
            let fr = b.add_node_labeled("city");
            let tn = b.add_node_labeled("city");
            let dp = b.add_node_labeled("time");
            let ar = b.add_node_labeled("time");
            b.add_edge_labeled(f, idn, "number");
            b.add_edge_labeled(f, fr, "from");
            b.add_edge_labeled(f, tn, "to");
            b.add_edge_labeled(f, dp, "depart");
            b.add_edge_labeled(f, ar, "arrive");
            for (n, v) in [
                (idn, id),
                (fr, from),
                (tn, to),
                (dp, "14:50"),
                (ar, "22:35"),
            ] {
                b.set_attr_named(n, "val", Value::str(v));
            }
        };
        mk("DL1", "Paris", "NYC");
        mk("DL1", "Paris", "Singapore");
        let g = b.freeze();
        let sigma = GfdSet::new(vec![phi1(g.vocab().clone())]);
        (g, sigma)
    }

    /// ϕ1 = (Q1[x,…,y,…], x1.val = y1.val → x2.val = y2.val ∧ x3.val = y3.val).
    fn phi1(vocab: Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let mut sides = Vec::new();
        for side in ["x", "y"] {
            let hub = b.node(side, "flight");
            let mut leaves = Vec::new();
            for (i, (leaf, edge)) in [
                ("id", "number"),
                ("city", "from"),
                ("city", "to"),
                ("time", "depart"),
                ("time", "arrive"),
            ]
            .iter()
            .enumerate()
            {
                let v = b.node(&format!("{side}{}", i + 1), leaf);
                b.edge(hub, v, edge);
            }
            let _ = hub;
            for i in 1..=5 {
                leaves.push(format!("{side}{i}"));
            }
            sides.push(leaves);
        }
        let q = b.build();
        let val = vocab.intern("val");
        let var = |n: &str| q.var_by_name(n).unwrap();
        let dep = Dependency::new(
            vec![Literal::var_eq(var("x1"), val, var("y1"), val)],
            vec![
                Literal::var_eq(var("x2"), val, var("y2"), val),
                Literal::var_eq(var("x3"), val, var("y3"), val),
            ],
        );
        Gfd::new("phi1-flight", q, dep)
    }

    #[test]
    fn example6_g1_violates_phi1() {
        let (g, sigma) = flights_fixture();
        let vio = detect_violations(&sigma, &g);
        // Both orderings (x↦flight1,y↦flight2) and the swap violate.
        assert_eq!(vio.len(), 2);
        assert!(!graph_satisfies(&sigma, &g));
    }

    #[test]
    fn fixing_the_error_clears_violations() {
        let (g, sigma) = flights_fixture();
        // Make the second flight's destination NYC as well.
        let val = g.vocab().lookup("val").unwrap();
        let to_node = g
            .nodes()
            .find(|&n| g.attr(n, val) == Some(&Value::str("Singapore")))
            .unwrap();
        let g = g.edit(|b| b.set_attr(to_node, val, Value::str("NYC")));
        assert!(graph_satisfies(&sigma, &g));
        assert!(detect_violations(&sigma, &g).is_empty());
    }

    #[test]
    fn missing_attribute_in_x_is_trivial_satisfaction() {
        let (g, sigma) = flights_fixture();
        // Remove the id value from one flight: X no longer holds for
        // any match, so ϕ1 is trivially satisfied.
        let val = g.vocab().lookup("val").unwrap();
        let id_node = g
            .nodes()
            .find(|&n| g.attr(n, val) == Some(&Value::str("DL1")))
            .unwrap();
        let g = g.edit(|b| {
            b.remove_attr(id_node, val);
        });
        assert!(graph_satisfies(&sigma, &g));
    }

    #[test]
    fn missing_attribute_in_y_is_a_violation() {
        // Example 6 logic: Y requires the attribute to exist.
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        let n = gb.add_node_labeled("item");
        let _ = n;
        let g = gb.freeze();
        let mut b = PatternBuilder::new(vocab.clone());
        b.node("x", "item");
        let q = b.build();
        let a = vocab.intern("A");
        // ∅ → x.A = x.A: forces attribute A to exist (§3, type info).
        let gfd = Gfd::new(
            "must-have-A",
            q,
            Dependency::always(vec![Literal::var_eq(
                gfd_pattern::VarId(0),
                a,
                gfd_pattern::VarId(0),
                a,
            )]),
        );
        let sigma = GfdSet::new(vec![gfd]);
        assert!(!graph_satisfies(&sigma, &g));
        // Give it the attribute: satisfied.
        let mut gb2 = gfd_graph::GraphBuilder::new(vocab);
        let n2 = gb2.add_node_labeled("item");
        gb2.set_attr_named(n2, "A", Value::Int(1));
        assert!(graph_satisfies(&sigma, &gb2.freeze()));
    }

    #[test]
    fn example6b_no_match_means_satisfied() {
        // G3 ⊨ ϕ2: the single-capital country has no match of Q2.
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        let country = gb.add_node_labeled("country");
        let city = gb.add_node_labeled("city");
        gb.add_edge_labeled(country, city, "capital");
        let g = gb.freeze();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "country");
        let y = b.node("y", "city");
        let z = b.node("z", "city");
        b.edge(x, y, "capital");
        b.edge(x, z, "capital");
        let q2 = b.build();
        let val = vocab.intern("val");
        let phi2 = Gfd::new(
            "capital",
            q2,
            Dependency::always(vec![Literal::var_eq(y, val, z, val)]),
        );
        assert!(graph_satisfies(&GfdSet::new(vec![phi2]), &g));
    }

    #[test]
    fn denial_style_gfd_flags_every_match() {
        // GFD 1 of Fig. 7: ∅ → x.val = c ∧ y.val = d with c ≠ d chosen
        // unsatisfiable: every match of the child/parent cycle violates.
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        let p1 = gb.add_node_labeled("person");
        let p2 = gb.add_node_labeled("person");
        gb.add_edge_labeled(p1, p2, "hasChild");
        gb.add_edge_labeled(p2, p1, "hasChild");
        gb.set_attr_named(p1, "val", Value::str("Alice"));
        gb.set_attr_named(p2, "val", Value::str("Bob"));
        let g = gb.freeze();

        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "person");
        let y = b.node("y", "person");
        b.edge(x, y, "hasChild");
        b.edge(y, x, "hasChild");
        let q10 = b.build();
        let val = vocab.intern("val");
        let gfd1 = Gfd::new(
            "no-child-parent-cycle",
            q10,
            Dependency::always(vec![
                Literal::const_eq(x, val, "__impossible_c"),
                Literal::const_eq(y, val, "__impossible_d"),
            ]),
        );
        let vio = detect_violations(&GfdSet::new(vec![gfd1]), &g);
        assert_eq!(vio.len(), 2); // both orientations of the cycle
    }

    /// The keyed joins of a two-part group must equal the per-rule
    /// reference path on random attribute worlds — including rows with
    /// missing attributes (X fails ⇒ no violation) and equal values
    /// spread across many nodes. One group of three isomorphic
    /// two-star members, one declared in another variable order: one
    /// joined on the leaves' values, one on the hubs', and one with no
    /// cross-part `X` literal (the plain join), through detVio and the
    /// incremental detector's first pass alike.
    #[test]
    fn indexed_disconnected_join_equals_generic_enumeration() {
        use crate::incremental::IncrementalDetector;
        use gfd_util::{prop::check, Rng};
        check(
            "keyed joins ≡ per-rule enumeration",
            60,
            |rng: &mut Rng| {
                let vocab = Vocab::shared();
                let mut b = gfd_graph::GraphBuilder::new(vocab.clone());
                let n = rng.gen_range(4..10);
                let mut hubs = Vec::new();
                for _ in 0..n {
                    let h = b.add_node_labeled("hub");
                    let l = b.add_node_labeled("leaf");
                    b.add_edge_labeled(h, l, "owns");
                    hubs.push((h, l));
                    // Sparse attributes: some nodes miss them entirely.
                    if rng.gen_bool(0.8) {
                        b.set_attr_named(h, "val", Value::Int(rng.gen_range(0..3) as i64));
                    }
                    if rng.gen_bool(0.8) {
                        b.set_attr_named(l, "val", Value::Int(rng.gen_range(0..3) as i64));
                    }
                }
                // A few hubs own a second leaf.
                for _ in 0..rng.gen_range(0..n) {
                    let (h, _) = hubs[rng.gen_range(0..n)];
                    let (_, l) = hubs[rng.gen_range(0..n)];
                    b.add_edge_labeled(h, l, "owns");
                }
                let g = b.freeze();
                let val = vocab.intern("val");
                // Two disconnected hub→leaf stars, declared in `order`.
                let stars = |order: [&'static str; 4]| {
                    let mut pb = PatternBuilder::new(vocab.clone());
                    let ids = order.map(|name| {
                        pb.node(name, if name.ends_with('l') { "leaf" } else { "hub" })
                    });
                    let v = move |name: &str| ids[order.iter().position(|&o| o == name).unwrap()];
                    pb.edge(v("x"), v("xl"), "owns");
                    pb.edge(v("y"), v("yl"), "owns");
                    let eq = move |p: &str, r: &str| Literal::var_eq(v(p), val, v(r), val);
                    (pb.build(), eq)
                };
                let (q0, eq0) = stars(["x", "xl", "y", "yl"]);
                let (q1, eq1) = stars(["yl", "y", "xl", "x"]);
                let (q2, eq2) = stars(["x", "xl", "y", "yl"]);
                let sigma = GfdSet::new(vec![
                    // Joined on the leaves' values.
                    Gfd::new(
                        "leaves",
                        q0,
                        Dependency::new(vec![eq0("xl", "yl")], vec![eq0("x", "xl")]),
                    ),
                    // Joined on the hubs' values.
                    Gfd::new(
                        "hubs",
                        q1,
                        Dependency::new(vec![eq1("y", "x")], vec![eq1("yl", "y")]),
                    ),
                    // No cross-part X literal: the plain disjoint join.
                    Gfd::new(
                        "plain",
                        q2,
                        Dependency::new(vec![eq2("x", "xl")], vec![eq2("xl", "yl")]),
                    ),
                ]);
                // `Y` never repeats another member's key, so a member checked
                // on another key's rows reports duplicates.
                let groups = RuleGroups::new(&sigma);
                assert_eq!(groups.len(), 1, "one isomorphism class");
                let keys: Vec<_> = groups[0].members.iter().map(|m| m.key).collect();
                assert!(keys[0].is_some() && keys[1].is_some() && keys[0] != keys[1]);
                assert_eq!(keys[2], None);

                // Oracle: each rule's own unbudgeted pair enumeration.
                let mut want = per_rule_violations(&sigma, &g);
                let key = |v: &Violation| (v.rule, v.mapping.nodes().to_vec());
                want.sort_by_key(key);
                let det =
                    IncrementalDetector::with_registry(&sigma, &g, Arc::new(ClassRegistry::new()));
                for (path, mut got) in [
                    ("detVio", detect_violations(&sigma, &g)),
                    ("first pass", det.violations()),
                ] {
                    got.sort_by_key(key);
                    if got != want {
                        return Err(format!(
                            "{path}: {} keyed vs {} generic",
                            got.len(),
                            want.len()
                        ));
                    }
                }
                Ok(())
            },
        );
    }

    /// Person nodes enough for a cyclic pattern over `person` to pass
    /// the simulation size gate ([`gfd_match::auto_simulate`]).
    const GATED_PERSONS: usize = 128;

    /// Two rules sharing a cyclic (triangle) pattern class must route
    /// through the registry's one class space, simulated once and
    /// enumerated once per run, and agree with the per-rule reference
    /// path — and a warm registry + scratch must keep agreeing across
    /// repeated runs.
    #[test]
    fn shared_cyclic_rules_use_cached_plan_and_agree() {
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        // Two directed triangles over "person" plus a dangling edge,
        // among enough isolated persons for the size gate to fire.
        let ps: Vec<_> = (0..GATED_PERSONS)
            .map(|_| gb.add_node_labeled("person"))
            .collect();
        for tri in [[0, 1, 2], [3, 4, 5]] {
            for k in 0..3 {
                gb.add_edge_labeled(ps[tri[k]], ps[tri[(k + 1) % 3]], "knows");
            }
        }
        gb.add_edge_labeled(ps[6], ps[0], "knows");
        for (i, &p) in ps.iter().enumerate() {
            gb.set_attr_named(p, "val", Value::Int(i as i64));
        }
        let g = gb.freeze();

        let triangle = |names: [&str; 3]| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node(names[0], "person");
            let y = b.node(names[1], "person");
            let z = b.node(names[2], "person");
            b.edge(x, y, "knows");
            b.edge(y, z, "knows");
            b.edge(z, x, "knows");
            b.build()
        };
        let val = vocab.intern("val");
        let mk = |name: &str, q: gfd_pattern::Pattern| {
            Gfd::new(
                name,
                q,
                Dependency::always(vec![Literal::const_eq(VarId(0), val, "__never")]),
            )
        };
        let sigma = GfdSet::new(vec![
            mk("phi-a", triangle(["x", "y", "z"])),
            mk("phi-b", triangle(["p", "q", "r"])),
        ]);

        // Baseline: the per-rule reference path.
        let mut want = per_rule_violations(&sigma, &g);
        // Every triangle rotation violates, for both rules.
        assert_eq!(want.len(), 12);

        let reg = ClassRegistry::new();
        let mut scratch = DetScratch::default();
        for _ in 0..3 {
            let mut got = detect_violations_with(&sigma, &g, &reg, &mut scratch);
            let key = |v: &Violation| (v.rule, v.mapping.nodes().to_vec());
            got.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(got, want);
        }
        assert_eq!(scratch.enumerations(), 3, "one search of the class per run");
        assert_eq!(reg.class_count(), 1, "both rules share one class");
        assert_eq!(reg.simulations(), 1, "one simulation across three runs");
    }

    /// Two shared triangle rules whose constant `Y` holds for every
    /// node: detection finds no violations, and both rules are checked
    /// on one enumeration of their class per run. The sibling test
    /// `shared_cyclic_rules_use_cached_plan_and_agree` covers the rules
    /// whose constant never holds.
    #[test]
    fn shared_const_y_rules_skip_enumeration_via_marginals() {
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        let ps: Vec<_> = (0..GATED_PERSONS)
            .map(|_| gb.add_node_labeled("person"))
            .collect();
        for tri in [[0, 1, 2], [3, 4, 5]] {
            for k in 0..3 {
                gb.add_edge_labeled(ps[tri[k]], ps[tri[(k + 1) % 3]], "knows");
            }
        }
        for &p in &ps {
            gb.set_attr_named(p, "kind", Value::str("human"));
        }
        let g = gb.freeze();

        let triangle = |names: [&str; 3]| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node(names[0], "person");
            let y = b.node(names[1], "person");
            let z = b.node(names[2], "person");
            b.edge(x, y, "knows");
            b.edge(y, z, "knows");
            b.edge(z, x, "knows");
            b.build()
        };
        let kind = vocab.intern("kind");
        let mk = |name: &str, q: gfd_pattern::Pattern, v: VarId| {
            Gfd::new(
                name,
                q,
                Dependency::always(vec![Literal::const_eq(v, kind, "human")]),
            )
        };
        let sigma = GfdSet::new(vec![
            mk("phi-a", triangle(["x", "y", "z"]), VarId(0)),
            mk("phi-b", triangle(["p", "q", "r"]), VarId(2)),
        ]);

        let reg = ClassRegistry::new();
        let mut scratch = DetScratch::default();
        for _ in 0..3 {
            let got = detect_violations_with(&sigma, &g, &reg, &mut scratch);
            assert!(got.is_empty(), "every node satisfies kind = human");
        }
        assert_eq!(reg.class_count(), 1, "both rules share one class");
        assert_eq!(scratch.enumerations(), 3, "one search of the class per run");
    }

    /// A two-member group over a tree pattern fails the size gate
    /// however large its pools: detVio searches it on the raw CSR,
    /// registers no class, and agrees with the per-rule reference path.
    #[test]
    fn detvio_simulates_only_gated_parts() {
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        let ps: Vec<_> = (0..GATED_PERSONS)
            .map(|_| gb.add_node_labeled("person"))
            .collect();
        for (i, w) in ps.windows(2).enumerate() {
            gb.add_edge_labeled(w[0], w[1], "knows");
            gb.set_attr_named(w[0], "val", Value::Int((i % 3) as i64));
        }
        let g = gb.freeze();

        // x -knows-> y, declared in both variable orders.
        let edge = |names: [&str; 2]| {
            let mut b = PatternBuilder::new(vocab.clone());
            let a = b.node(names[0], "person");
            let c = b.node(names[1], "person");
            if names[0] == "x" {
                b.edge(a, c, "knows");
            } else {
                b.edge(c, a, "knows");
            }
            b.build()
        };
        let val = vocab.intern("val");
        let sigma = GfdSet::new(vec![
            Gfd::new(
                "src-zero",
                edge(["x", "y"]),
                Dependency::always(vec![Literal::const_eq(VarId(0), val, Value::Int(0))]),
            ),
            Gfd::new(
                "dst-zero",
                edge(["y", "x"]),
                Dependency::always(vec![Literal::const_eq(VarId(0), val, Value::Int(0))]),
            ),
        ]);
        assert_eq!(RuleGroups::new(&sigma).len(), 1, "one two-member group");

        let mut want = per_rule_violations(&sigma, &g);
        assert!(!want.is_empty());
        let reg = ClassRegistry::new();
        let mut got = detect_violations_shared(&sigma, &g, &reg);
        let key = |v: &Violation| (v.rule, v.mapping.nodes().to_vec());
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
        assert_eq!(reg.class_count(), 0, "a tree part registers no class");
        assert_eq!(reg.simulations(), 0);
    }

    #[test]
    fn budgeted_detection_reports_incompleteness() {
        let (g, sigma) = flights_fixture();
        let (all, complete) = detect_violations_budgeted(&sigma, &g, SearchBudget::UNLIMITED);
        assert!(complete && !all.is_empty());
        assert_eq!(all, detect_violations(&sigma, &g), "unlimited is detVio");
        let one_step = SearchBudget { max_steps: Some(1) };
        let (vio, complete) = detect_violations_budgeted(&sigma, &g, one_step);
        assert!(vio.len() < all.len());
        assert!(!complete);
    }
}
