//! Property-based tests for the factorized match representation
//! ([`gfd_match::factorize`]).
//!
//! The oracle is the brute-force matcher from `prop_plan.rs`: every
//! injective assignment over a random graph, checked edge by edge.
//! Against it we drive random **cyclic** patterns through the
//! factorization — counting, pins, lazy expansion, and twins
//! factorized through their [`ClassRegistry`] views across random
//! 50-step edit scripts.
//!
//! Two layers of guarantee are pinned separately:
//! - the **represented set is a superset of the match set** always
//!   (`raw_count() ≥ oracle`), and
//! - when the exactness precondition held (`count()` is `Some`), the
//!   count equals the oracle exactly.
//!
//! Expansion re-applies global injectivity per binding, so it must
//! equal the oracle — and [`ComponentSearch`]'s `collect_into` rows —
//! *unconditionally*, exact or not.

use gfd_graph::{Graph, GraphBuilder, NodeId};
use gfd_match::types::Flow;
use gfd_match::{
    dual_simulation, ClassRegistry, ComponentSearch, FactorScratch, MatchTable, QueryPlan,
};
use gfd_pattern::{PatLabel, Pattern, PatternBuilder, VarId};
use gfd_util::{prop::check, prop_assert, Rng};

/// `BENCH_SMOKE=1` shrinks the seed budget (CI fail-fast gate).
fn cases(full: u64) -> u64 {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        (full / 8).max(4)
    } else {
        full
    }
}

const NODE_LABELS: usize = 3;
const EDGE_LABELS: usize = 2;

/// A random graph over the fixed small label vocabulary, dense enough
/// for cycles to close.
fn random_graph(rng: &mut Rng, max_nodes: usize) -> Graph {
    let n = rng.gen_range(3..max_nodes + 1);
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % NODE_LABELS)))
        .collect();
    let m = rng.gen_range(n..4 * n + 1);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        let e = format!("e{}", rng.gen_range(0..EDGE_LABELS));
        b.add_edge_labeled(ids[s], ids[d], &e);
    }
    b.freeze()
}

/// A structural pattern description, buildable under any variable
/// declaration order — the twin generator for witness transport.
struct PatternSpec {
    /// `None` = wildcard node, `Some(l)` = label `l{l}`.
    labels: Vec<Option<usize>>,
    edges: Vec<(usize, usize, usize)>,
}

/// A random connected pattern with at least one closing edge: a
/// random spanning tree over `3..=6` variables plus `1..=2` extra
/// edges between distinct variables.
fn random_cyclic_spec(rng: &mut Rng) -> PatternSpec {
    let k = rng.gen_range(3..7);
    let labels = (0..k)
        .map(|_| {
            if rng.gen_bool(0.2) {
                None
            } else {
                Some(rng.gen_range(0..NODE_LABELS))
            }
        })
        .collect();
    let mut edges = Vec::new();
    for i in 1..k {
        let p = rng.gen_range(0..i);
        let l = rng.gen_range(0..EDGE_LABELS);
        if rng.gen_bool(0.5) {
            edges.push((p, i, l));
        } else {
            edges.push((i, p, l));
        }
    }
    for _ in 0..rng.gen_range(1..3) {
        let s = rng.gen_range(0..k);
        let d = rng.gen_range(0..k);
        if s != d {
            edges.push((s, d, rng.gen_range(0..EDGE_LABELS)));
        }
    }
    PatternSpec { labels, edges }
}

/// Builds the spec with its variables declared in `order` (a
/// permutation of `0..k`); specs built under different orders are
/// isomorphic twins.
fn build_pattern(spec: &PatternSpec, order: &[usize], g: &Graph) -> Pattern {
    let mut b = PatternBuilder::new(g.vocab().clone());
    let mut vars = vec![VarId(0); spec.labels.len()];
    for &i in order {
        vars[i] = match spec.labels[i] {
            Some(l) => b.node(&format!("v{i}"), &format!("l{l}")),
            None => b.wildcard_node(&format!("v{i}")),
        };
    }
    for &(s, d, l) in &spec.edges {
        b.edge(vars[s], vars[d], &format!("e{l}"));
    }
    b.build()
}

/// A random permutation of `0..k`.
fn random_order(rng: &mut Rng, k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    for i in (1..k).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

fn oracle_edge_ok(g: &Graph, u: NodeId, v: NodeId, label: PatLabel) -> bool {
    match label {
        PatLabel::Sym(s) => g.has_edge(u, v, s),
        PatLabel::Wildcard => g.has_edge_any(u, v),
    }
}

/// Brute force: every injective assignment, filtered by labels and
/// pattern edges. Returns sorted match vectors.
fn oracle_matches(q: &Pattern, g: &Graph) -> Vec<Vec<NodeId>> {
    let k = q.node_count();
    let mut out = Vec::new();
    let mut assign = vec![NodeId(u32::MAX); k];
    fn rec(
        q: &Pattern,
        g: &Graph,
        depth: usize,
        assign: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if depth == q.node_count() {
            for e in q.edges() {
                if !oracle_edge_ok(g, assign[e.src.index()], assign[e.dst.index()], e.label) {
                    return;
                }
            }
            out.push(assign.clone());
            return;
        }
        let v = VarId(depth as u32);
        for u in g.nodes() {
            if !q.label(v).admits(g.label(u)) || assign[..depth].contains(&u) {
                continue;
            }
            assign[depth] = u;
            rec(q, g, depth + 1, assign, out);
            assign[depth] = NodeId(u32::MAX);
        }
    }
    rec(q, g, 0, &mut assign, &mut out);
    out.sort();
    out
}

/// Builds the unrestricted factorization of `q` into `scratch`;
/// `None` when the plan shape is declined (caller skips the case).
fn build_fact<'a>(
    q: &Pattern,
    g: &Graph,
    scratch: &'a mut FactorScratch,
    pins: &[(VarId, NodeId)],
) -> Option<&'a gfd_match::Factorization> {
    let cs = dual_simulation(q, g, None);
    let plan = QueryPlan::new(q);
    scratch
        .build(q, g, &cs, &plan, pins)
        .then(|| scratch.fact())
}

/// Sorted rows of the factorization's lazy expansion.
fn expanded(fact: &gfd_match::Factorization) -> Vec<Vec<NodeId>> {
    let mut rows = Vec::new();
    fact.for_each_expanded(&mut |m| {
        rows.push(m.to_vec());
        Flow::Continue
    });
    rows.sort();
    rows
}

/// Counting: exact counts match the oracle; the represented set is a
/// superset of the match set whether or not exactness held.
#[test]
fn factorized_count_equals_brute_force_on_cyclic_patterns() {
    let mut scratch = FactorScratch::new();
    let mut exact_seen = 0u32;
    check(
        "factorized count ≡ brute force (cyclic)",
        cases(150),
        |rng| {
            let g = random_graph(rng, 9);
            let spec = random_cyclic_spec(rng);
            let order: Vec<usize> = (0..spec.labels.len()).collect();
            let q = build_pattern(&spec, &order, &g);
            let Some(fact) = build_fact(&q, &g, &mut scratch, &[]) else {
                return Ok(()); // declined plan shape: fallback path, not ours
            };
            let expected = oracle_matches(&q, &g).len() as u64;
            prop_assert!(
                fact.raw_count() >= expected,
                "represented set must be a superset: raw {} < oracle {expected} for {q:?}",
                fact.raw_count()
            );
            if let Some(c) = fact.count() {
                exact_seen += 1;
                prop_assert!(
                    c == expected,
                    "exact count {c} vs oracle {expected} for {q:?}"
                );
            }
            Ok(())
        },
    );
    // A fifth of the seed budget (30 of 150; 3 of the smoke run's 18).
    assert!(
        u64::from(exact_seen) > cases(150) / 5,
        "exact path starved: {exact_seen} cases"
    );
}

/// Pins: a pinned factorization counts exactly the pinned oracle
/// matches (when exact) and never undercounts.
#[test]
fn pinned_factorized_count_equals_filtered_oracle() {
    let mut scratch = FactorScratch::new();
    check(
        "pinned factorized count ≡ filtered oracle",
        cases(120),
        |rng| {
            let g = random_graph(rng, 8);
            let spec = random_cyclic_spec(rng);
            let order: Vec<usize> = (0..spec.labels.len()).collect();
            let q = build_pattern(&spec, &order, &g);
            let pin_var = VarId(rng.gen_range(0..q.node_count()) as u32);
            let pin_node = NodeId(rng.gen_range(0..g.node_count()) as u32);
            let Some(fact) = build_fact(&q, &g, &mut scratch, &[(pin_var, pin_node)]) else {
                return Ok(());
            };
            let expected = oracle_matches(&q, &g)
                .into_iter()
                .filter(|m| m[pin_var.index()] == pin_node)
                .count() as u64;
            prop_assert!(
                fact.raw_count() >= expected,
                "pinned raw {} < oracle {expected} for {q:?}",
                fact.raw_count()
            );
            if let Some(c) = fact.count() {
                prop_assert!(
                    c == expected,
                    "pinned exact count {c} vs oracle {expected} for {q:?}"
                );
            }
            Ok(())
        },
    );
}

/// Lazy expansion re-applies global injectivity, so it equals the
/// oracle — and the backtracking matcher's `collect_into` rows —
/// unconditionally, exactness or not.
#[test]
fn lazy_expansion_equals_oracle_and_collect_into_rows() {
    let mut scratch = FactorScratch::new();
    check("expansion ≡ oracle ≡ collect_into", cases(120), |rng| {
        let g = random_graph(rng, 8);
        let spec = random_cyclic_spec(rng);
        let order: Vec<usize> = (0..spec.labels.len()).collect();
        let q = build_pattern(&spec, &order, &g);
        let Some(fact) = build_fact(&q, &g, &mut scratch, &[]) else {
            return Ok(());
        };
        let rows = expanded(fact);
        let expected = oracle_matches(&q, &g);
        prop_assert!(
            rows == expected,
            "expansion: {} rows vs oracle {} for {q:?}",
            rows.len(),
            expected.len()
        );
        let mut table = MatchTable::new(q.node_count());
        ComponentSearch::new(&q, &g).collect_into(&mut table);
        let mut search_rows: Vec<Vec<NodeId>> =
            (0..table.len()).map(|i| table.row(i).to_vec()).collect();
        search_rows.sort();
        prop_assert!(
            rows == search_rows,
            "expansion {} vs collect_into {} rows for {q:?}",
            rows.len(),
            search_rows.len()
        );
        Ok(())
    });
}

/// Permuted-declaration twins across 50-step edit scripts: each twin
/// factorizes its class through its registry view — the class's
/// repaired space and plan, in representative numbering — and what it
/// reads through its permutation must still bound (and, when exact,
/// equal) brute force on the twin's own pattern over the *current*
/// graph, with expansion permuted back equal to it. The brute-force
/// checks run on a sample of epochs.
#[test]
fn factorizations_through_twin_views_survive_edit_scripts() {
    // Non-identity members checked against a non-empty oracle.
    let mut permuted_twins_checked = 0u32;
    let mut scratch = FactorScratch::new();
    check(
        "twin-view factorizations ≡ oracle under edits",
        cases(6),
        |rng| {
            let spec = random_cyclic_spec(rng);
            // One planted copy of the pattern keeps the oracle
            // non-empty until an edit happens to cut it.
            let mut g = random_graph(rng, 7).edit(|b| {
                let nodes: Vec<NodeId> = spec
                    .labels
                    .iter()
                    .map(|l| b.add_node_labeled(&format!("l{}", l.unwrap_or(0))))
                    .collect();
                for &(s, d, l) in &spec.edges {
                    b.add_edge_labeled(nodes[s], nodes[d], &format!("e{l}"));
                }
            });
            let k = spec.labels.len();
            let identity: Vec<usize> = (0..k).collect();
            let members = [
                build_pattern(&spec, &identity, &g),
                build_pattern(&spec, &random_order(rng, k), &g),
                build_pattern(&spec, &random_order(rng, k), &g),
            ];
            let reg = ClassRegistry::new();
            let handles: Vec<_> = members.iter().map(|q| reg.register(q)).collect();
            prop_assert!(
                reg.class_count() == 1,
                "twins of one spec must share a class"
            );
            for step in 0..50 {
                if step % 10 == 0 {
                    for (q, &h) in members.iter().zip(&handles) {
                        let view = reg.space_and_plan(h, &g);
                        let plan = view.plan.as_deref().expect("asked for a plan");
                        if !scratch.build(&view.rep, &g, &view.space, plan, &[]) {
                            continue; // declined plan shape: fallback path, not ours
                        }
                        let fact = scratch.fact();
                        let oracle = oracle_matches(q, &g);
                        prop_assert!(
                            fact.raw_count() >= oracle.len() as u64,
                            "step {step}: raw {} < oracle {} for {q:?}",
                            fact.raw_count(),
                            oracle.len()
                        );
                        if let Some(c) = fact.count() {
                            prop_assert!(
                                c == oracle.len() as u64,
                                "step {step}: exact {c} vs oracle {} for {q:?}",
                                oracle.len()
                            );
                        }
                        // Expansion yields representative-order rows.
                        let mut rows: Vec<Vec<NodeId>> = expanded(fact)
                            .iter()
                            .map(|r| q.vars().map(|v| r[view.rep_var(v).index()]).collect())
                            .collect();
                        rows.sort();
                        prop_assert!(
                            rows == oracle,
                            "step {step}: expansion {} vs oracle {} for {q:?}",
                            rows.len(),
                            oracle.len()
                        );
                        if view.perm.is_some() && !oracle.is_empty() {
                            permuted_twins_checked += 1;
                        }
                    }
                }
                // One random edit: add or remove a labeled edge.
                let n = g.node_count();
                let s = NodeId(rng.gen_range(0..n) as u32);
                let d = NodeId(rng.gen_range(0..n) as u32);
                let lbl = format!("e{}", rng.gen_range(0..EDGE_LABELS));
                let remove = rng.gen_bool(0.4);
                let (g2, delta) = g.edit_with_delta(|b| {
                    if remove {
                        b.remove_edge_labeled(s, d, &lbl);
                    } else {
                        b.add_edge_labeled(s, d, &lbl);
                    }
                });
                reg.apply(&g2, &delta);
                g = g2;
            }
            prop_assert!(
                reg.plans_built() == 1,
                "plans survive deltas: one decomposition per class"
            );
            Ok(())
        },
    );
    assert!(
        permuted_twins_checked > 0,
        "premise: no twin was checked through a non-trivial permutation"
    );
}
