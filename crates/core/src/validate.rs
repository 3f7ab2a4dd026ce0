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
//! member's dependency on each — exponential in the worst case
//! (validation is coNP-complete, Prop. 9), which is why the parallel
//! crate exists. [`for_each_violation`] is the per-rule reference path,
//! independent of the grouping; a budgeted variant is provided so
//! callers can bound the effort.

use gfd_graph::{Graph, NodeId};
use gfd_match::component::ComponentSearch;
use gfd_match::table::MatchTable;
use gfd_match::{for_each_match, types::Flow, ClassRegistry, Match, MatchOptions, SearchBudget};
use gfd_pattern::VarId;
use gfd_util::FxHashMap;

use crate::gfd::{Gfd, GfdSet};
use crate::group::{
    for_each_group_violation, GroupMember, GroupScratch, Pools, RuleGroup, RuleGroups,
};
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

/// Enumerates the violations of a single GFD, streaming them to `f`;
/// returns `true` if the enumeration was complete.
pub fn for_each_violation(
    gfd: &Gfd,
    g: &Graph,
    opts: &MatchOptions,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> bool {
    if gfd.dep.y.is_empty() {
        // `X → ∅` holds for every match — skip the enumeration.
        return true;
    }
    let outcome = for_each_match(&gfd.pattern, g, opts, &mut |m| {
        if match_satisfies(&gfd.dep, g, m) {
            Flow::Continue
        } else {
            f(m)
        }
    });
    matches!(outcome, gfd_match::api::EnumOutcome::Complete)
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
/// the whole Σ (and, if the caller wishes, with workload estimation):
/// a **connected** group of ≥ 2 rules of this Σ enumerates through its
/// class's candidate space — simulated once, read through the
/// representative's permutation — instead of re-deriving its own
/// filter. Singleton groups and disconnected patterns keep the per-call
/// size-gated filter of [`gfd_match::for_each_match_with`], so sharing
/// costs at most one simulation per multi-member group, amortized over
/// that group's rules, and registers nothing else.
pub fn detect_violations_shared(
    sigma: &GfdSet,
    g: &Graph,
    registry: &ClassRegistry,
) -> Vec<Violation> {
    detect_violations_with(sigma, g, registry, &mut DetScratch::default())
}

/// Caller-owned reusable state for repeated `detVio` runs: the
/// enumeration primitive's buffers. Keep one alive — next to the shared
/// [`ClassRegistry`] — across detection iterations and the steady state
/// is allocation-free up to the grouping and the violations output.
pub type DetScratch = GroupScratch;

/// [`detect_violations_shared`] with caller-owned scratch. One
/// per-member pre-filter takes a member out of the group's row loop:
/// the value-indexed join of disconnected two-component groups.
pub fn detect_violations_with(
    sigma: &GfdSet,
    g: &Graph,
    registry: &ClassRegistry,
    scratch: &mut DetScratch,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for group in RuleGroups::new(sigma).iter() {
        let shared = group.is_connected() && group.members.len() >= 2;
        let view = shared.then(|| {
            let h = registry.register(&sigma.get(group.rep).pattern);
            registry.space(h, g)
        });
        // A two-component rule with a cross-component X literal is
        // joined on the literal's attribute values instead.
        let any = scratch.select(group, |m| {
            !detect_disconnected_indexed(group, m, g, &mut out)
        });
        if !any {
            continue;
        }
        let pools = match &view {
            Some(view) => Pools::Classes(std::slice::from_ref(view)),
            None => Pools::Gated,
        };
        for_each_group_violation(group, g, pools, &[], scratch, &mut |rule, m| {
            out.push(Violation {
                rule,
                mapping: Match(m.to_vec()),
            })
        });
    }
    out
}

/// Value-indexed join fast path for `detVio` on **disconnected**
/// two-component rules: when `X` carries a cross-component literal
/// `x.A = y.B`, a match can only violate `ϕ` if `X` holds — so instead
/// of forming every disjoint pair of component matches (quadratic) and
/// filtering, the two flat match tables are joined *on that literal*:
/// the smaller side is indexed by attribute value, the larger side
/// probes, and rows whose attribute is missing are skipped outright
/// (`X` fails ⇒ no violation). This is the FDB/FAQ line of work's
/// predicate-into-the-join move applied to `Vio(Σ, G)`: cost is
/// output-proportional in value-agreeing pairs rather than in all
/// pairs. Reads the group's decomposition and the member's dependency
/// in representative numbering; violations come out in the member's
/// own order. Returns `false` (and emits nothing) when the rule lacks
/// the shape, leaving the group's enumeration to handle it.
/// Kept over the generic join: without it `detVio` (`--seed 1`, 2-vCPU
/// host) takes 0.0149 s instead of 0.0062 on the benchmark's `kb-trees`
/// and 0.0163 instead of 0.0096 on `wide-sigma`, though it allocates
/// 0.98 / 2.02 MiB instead of 1.17 / 2.60.
fn detect_disconnected_indexed(
    group: &RuleGroup,
    member: &GroupMember,
    g: &Graph,
    out: &mut Vec<Violation>,
) -> bool {
    let parts = &group.parts;
    if parts.len() != 2 {
        return false;
    }
    // A cross-component equality literal in X to join on.
    let comp_of = |v: VarId| parts[0].1.contains(&v);
    let Some((jx, ja, jy, jb)) = member.dep.x.iter().find_map(|l| match *l {
        Literal::Vars { x, a, y, b } if comp_of(x) != comp_of(y) => Some((x, a, y, b)),
        _ => None,
    }) else {
        return false;
    };
    // Orient so that (vx, va) lives in component 0.
    let ((vx, va), (vy, vb)) = if comp_of(jx) {
        ((jx, ja), (jy, jb))
    } else {
        ((jy, jb), (jx, ja))
    };

    // Enumerate both components into flat tables.
    let mut tables = Vec::with_capacity(2);
    for (cq, _) in parts {
        let mut t = MatchTable::new(cq.node_count());
        ComponentSearch::new(cq, g).collect_into(&mut t);
        if t.is_empty() {
            return true; // no match of this component → none of Q
        }
        tables.push(t);
    }
    let local = |part: usize, v: VarId| {
        parts[part]
            .1
            .iter()
            .position(|&ov| ov == v)
            .expect("literal var is in its component")
    };
    let (c0, c1) = (local(0, vx), local(1, vy));

    // Index the smaller side by its join-attribute value; probe with
    // the larger. Rows missing the attribute never satisfy X.
    let (build, probe, bcol, pcol, battr, pattr, build_is_0) = if tables[0].len() <= tables[1].len()
    {
        (&tables[0], &tables[1], c0, c1, va, vb, true)
    } else {
        (&tables[1], &tables[0], c1, c0, vb, va, false)
    };
    let mut index: FxHashMap<&gfd_graph::Value, Vec<u32>> = FxHashMap::default();
    for (r, row) in build.iter().enumerate() {
        if let Some(v) = g.attr(row[bcol], battr) {
            index.entry(v).or_default().push(r as u32);
        }
    }
    let vars0 = &parts[0].1;
    let vars1 = &parts[1].1;
    let mut assignment = vec![NodeId(u32::MAX); group.arity];
    let mut row = Vec::new();
    for prow in probe.iter() {
        let Some(v) = g.attr(prow[pcol], pattr) else {
            continue;
        };
        let Some(partners) = index.get(v) else {
            continue;
        };
        'pair: for &br in partners {
            let brow = build.row(br as usize);
            let (row0, row1) = if build_is_0 {
                (brow, prow)
            } else {
                (prow, brow)
            };
            // Disjointness (h is injective across components).
            for &n in row0 {
                if row1.contains(&n) {
                    continue 'pair;
                }
            }
            for (j, &n) in row0.iter().enumerate() {
                assignment[vars0[j].index()] = n;
            }
            for (j, &n) in row1.iter().enumerate() {
                assignment[vars1[j].index()] = n;
            }
            if !match_satisfies(&member.dep, g, &assignment) {
                out.push(Violation {
                    rule: member.rule,
                    mapping: Match(member.member_row(&assignment, &mut row).to_vec()),
                });
            }
        }
    }
    true
}

/// Budgeted `detVio`; the boolean is `true` when the enumeration was
/// exhaustive (no budget cut-off).
pub fn detect_violations_budgeted(
    sigma: &GfdSet,
    g: &Graph,
    budget: SearchBudget,
) -> (Vec<Violation>, bool) {
    let mut out = Vec::new();
    let mut complete = true;
    for (i, gfd) in sigma.iter().enumerate() {
        let opts = MatchOptions::unrestricted().with_budget(budget);
        let c = for_each_violation(gfd, g, &opts, &mut |m| {
            out.push(Violation {
                rule: i,
                mapping: Match(m.to_vec()),
            });
            Flow::Continue
        });
        complete &= c;
    }
    (out, complete)
}

/// The validation problem: does `G ⊨ Σ`? Early-exits on the first
/// violation.
pub fn graph_satisfies(sigma: &GfdSet, g: &Graph) -> bool {
    for gfd in sigma {
        let mut violated = false;
        for_each_violation(gfd, g, &MatchOptions::unrestricted(), &mut |_| {
            violated = true;
            Flow::Break
        });
        if violated {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use gfd_graph::{Value, Vocab};
    use gfd_pattern::PatternBuilder;
    use std::sync::Arc;

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

    /// The value-indexed disconnected join must equal the generic
    /// pair-enumeration path on random attribute worlds — including
    /// rows with missing attributes (X fails ⇒ skipped) and equal
    /// values spread across many nodes.
    #[test]
    fn indexed_disconnected_join_equals_generic_enumeration() {
        use gfd_util::{prop::check, Rng};
        check("indexed join ≡ generic detVio", 60, |rng: &mut Rng| {
            let vocab = Vocab::shared();
            let mut b = gfd_graph::GraphBuilder::new(vocab.clone());
            let n = rng.gen_range(4..10);
            for _ in 0..n {
                let h = b.add_node_labeled("hub");
                let l = b.add_node_labeled("leaf");
                b.add_edge_labeled(h, l, "owns");
                // Sparse attributes: some nodes miss them entirely.
                if rng.gen_bool(0.8) {
                    b.set_attr_named(h, "val", Value::Int(rng.gen_range(0..3) as i64));
                }
                if rng.gen_bool(0.8) {
                    b.set_attr_named(l, "val", Value::Int(rng.gen_range(0..3) as i64));
                }
            }
            let g = b.freeze();
            let val = vocab.intern("val");
            // Two disconnected hub→leaf stars; X joins the leaves'
            // values across components, Y constrains the hubs.
            let mut pb = PatternBuilder::new(vocab.clone());
            let x = pb.node("x", "hub");
            let xl = pb.node("xl", "leaf");
            pb.edge(x, xl, "owns");
            let y = pb.node("y", "hub");
            let yl = pb.node("yl", "leaf");
            pb.edge(y, yl, "owns");
            let gfd = Gfd::new(
                "pair",
                pb.build(),
                Dependency::new(
                    vec![Literal::var_eq(xl, val, yl, val)],
                    vec![Literal::var_eq(x, val, y, val)],
                ),
            );
            let sigma = GfdSet::new(vec![gfd.clone()]);

            let mut fast = detect_violations(&sigma, &g);
            // Generic oracle: unbudgeted full pair enumeration.
            let mut slow = Vec::new();
            for_each_violation(&gfd, &g, &MatchOptions::unrestricted(), &mut |m| {
                slow.push(Violation {
                    rule: 0,
                    mapping: Match(m.to_vec()),
                });
                Flow::Continue
            });
            let key = |v: &Violation| (v.rule, v.mapping.nodes().to_vec());
            fast.sort_by_key(key);
            slow.sort_by_key(key);
            if fast != slow {
                return Err(format!("{} indexed vs {} generic", fast.len(), slow.len()));
            }
            Ok(())
        });
    }

    /// Two rules sharing a cyclic (triangle) pattern class must route
    /// through the registry's one class space, simulated once and
    /// enumerated once per run, and agree with the per-rule reference
    /// path — and a warm registry + scratch must keep agreeing across
    /// repeated runs.
    #[test]
    fn shared_cyclic_rules_use_cached_plan_and_agree() {
        let vocab = Vocab::shared();
        let mut gb = gfd_graph::GraphBuilder::new(vocab.clone());
        // Two directed triangles over "person" plus a dangling edge.
        let ps: Vec<_> = (0..7).map(|_| gb.add_node_labeled("person")).collect();
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
        let mut want = Vec::new();
        for (rule, gfd) in sigma.iter().enumerate() {
            for_each_violation(gfd, &g, &MatchOptions::unrestricted(), &mut |m| {
                want.push(Violation {
                    rule,
                    mapping: Match(m.to_vec()),
                });
                Flow::Continue
            });
        }
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
        let ps: Vec<_> = (0..6).map(|_| gb.add_node_labeled("person")).collect();
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

    #[test]
    fn budgeted_detection_reports_incompleteness() {
        let (g, sigma) = flights_fixture();
        let (vio, complete) = detect_violations_budgeted(
            &sigma,
            &g,
            SearchBudget {
                max_matches: Some(1),
                max_steps: None,
            },
        );
        assert!(vio.len() <= 1);
        assert!(!complete);
    }
}
