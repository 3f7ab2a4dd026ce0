//! Property-based tests for the enumerator's space mode on cyclic
//! patterns.
//!
//! The oracle is the same brute-force matcher that guards
//! `prop_match.rs`: every injective assignment over a random graph,
//! checked edge by edge. Against it we drive random **cyclic**
//! patterns (a random spanning tree plus closing edges) through
//! [`for_each_match_with`] with a candidate space — plain,
//! pinned at a node or a node-id interval, and pinned under a
//! neighborhood-sized step budget — and permuted-declaration twins
//! through their [`ClassRegistry`] views ([`for_each_match_in`]), plain
//! and pinned at a node or an interval, across random edit scripts
//! with incrementally repaired spaces. Counting
//! ([`count_matches_with`], [`count_matches`]) is held to the oracle's
//! length on the same cases.

mod common;

use common::{oracle_matches, random_graph, EDGE_LABELS, NODE_LABELS};
use gfd_graph::{Graph, GraphBuilder, NodeId};
use gfd_match::api::EnumOutcome;
use gfd_match::types::Flow;
use gfd_match::{
    count_matches, count_matches_with, dual_simulation, for_each_match_in, for_each_match_with,
    ClassRegistry, MatchOptions, MatchScratch, Pin, SearchBudget,
};
use gfd_pattern::{Pattern, PatternBuilder, VarId};
use gfd_util::{prop::check, prop_assert, Rng};

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

/// Runs the enumerator inside `cs` through the public entry point and
/// returns how it ended plus the sorted matches.
fn space_matches_with(
    q: &Pattern,
    g: &Graph,
    cs: &gfd_match::CandidateSpace,
    opts: &MatchOptions,
    scratch: &mut MatchScratch,
) -> (EnumOutcome, Vec<Vec<NodeId>>) {
    let mut out = Vec::new();
    let outcome = for_each_match_with(q, g, opts, Some(cs), scratch, &mut |m| {
        out.push(m.to_vec());
        Flow::Continue
    });
    out.sort();
    (outcome, out)
}

/// [`space_matches_with`] to completion under pins only.
fn space_matches(
    q: &Pattern,
    g: &Graph,
    cs: &gfd_match::CandidateSpace,
    pins: &[Pin],
    scratch: &mut MatchScratch,
) -> Vec<Vec<NodeId>> {
    let mut opts = MatchOptions::unrestricted();
    opts.pins.extend_from_slice(pins);
    space_matches_with(q, g, cs, &opts, scratch).1
}

#[test]
fn plan_executor_equals_brute_force_on_cyclic_patterns() {
    let mut scratch = MatchScratch::default();
    check("space mode ≡ brute force (cyclic)", 150, |rng| {
        let g = random_graph(rng, 3..=9, 1..=4);
        let spec = random_cyclic_spec(rng);
        let order: Vec<usize> = (0..spec.labels.len()).collect();
        let q = build_pattern(&spec, &order, &g);
        let expected = oracle_matches(&q, &g, &[]);
        let cs = dual_simulation(&q, &g, None);
        let got = space_matches(&q, &g, &cs, &[], &mut scratch);
        prop_assert!(
            got == expected,
            "space mode: {} matches vs oracle {} for {q:?}",
            got.len(),
            expected.len()
        );
        let opts = MatchOptions::unrestricted();
        let counted = count_matches_with(&q, &g, &opts, Some(&cs), &mut scratch);
        // No space: the per-call filter decides the pool source.
        let filtered = count_matches(&q, &g, &opts);
        prop_assert!(
            counted == expected.len() && filtered == expected.len(),
            "counts {counted} (space), {filtered} (per-call) vs oracle {} for {q:?}",
            expected.len()
        );
        Ok(())
    });
}

/// A random interval pin on `var`: `lo ≤ hi`, both within the graph.
fn random_interval(rng: &mut Rng, var: VarId, g: &Graph) -> Pin {
    let (a, b) = (
        rng.gen_range(0..g.node_count()),
        rng.gen_range(0..g.node_count()),
    );
    Pin {
        var,
        lo: NodeId(a.min(b) as u32),
        hi: NodeId(a.max(b) as u32),
    }
}

#[test]
fn pinned_plan_execution_equals_filtered_oracle() {
    let mut scratch = MatchScratch::default();
    check("pinned space mode ≡ filtered oracle", 120, |rng| {
        let g = random_graph(rng, 3..=8, 1..=4);
        let spec = random_cyclic_spec(rng);
        let order: Vec<usize> = (0..spec.labels.len()).collect();
        let q = build_pattern(&spec, &order, &g);
        let pin_var = VarId(rng.gen_range(0..q.node_count()) as u32);
        let pin_node = NodeId(rng.gen_range(0..g.node_count()) as u32);
        let cs = dual_simulation(&q, &g, None);
        for pin in [
            Pin::at(pin_var, pin_node),
            random_interval(rng, pin_var, &g),
        ] {
            let expected = oracle_matches(&q, &g, &[pin]);
            let got = space_matches(&q, &g, &cs, &[pin], &mut scratch);
            prop_assert!(
                got == expected,
                "space mode pinned at {pin:?}: {} vs oracle {} for {q:?}",
                got.len(),
                expected.len()
            );
            let opts = MatchOptions {
                pins: vec![pin],
                ..MatchOptions::unrestricted()
            };
            let counted = count_matches_with(&q, &g, &opts, Some(&cs), &mut scratch);
            prop_assert!(
                counted == expected.len(),
                "count pinned at {pin:?}: {counted} vs oracle {} for {q:?}",
                expected.len()
            );
        }
        Ok(())
    });
}

/// Permuted-declaration twins across a random edit script: the
/// registry simulates the class once and repairs its space
/// incrementally, in representative numbering; after every edit, each
/// member's enumeration through its view — plain, and pinned at a node
/// or an interval on a random variable of the member — must still
/// equal brute force on the member's own pattern over the *current*
/// graph, and so must the unpinned count of the representative inside
/// the view's space.
#[test]
fn transported_plans_survive_edit_scripts() {
    let mut scratch = MatchScratch::default();
    check("registry spaces ≡ oracle under edits", 60, |rng| {
        let mut g = random_graph(rng, 3..=8, 1..=4);
        let spec = random_cyclic_spec(rng);
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
        for step in 0..3 {
            for (q, &h) in members.iter().zip(&handles) {
                let view = reg.space(h, &g);
                let pin_var = VarId(rng.gen_range(0..k) as u32);
                let pin_node = NodeId(rng.gen_range(0..g.node_count()) as u32);
                let interval = MatchOptions {
                    pins: vec![random_interval(rng, pin_var, &g)],
                    ..MatchOptions::unrestricted()
                };
                for opts in [
                    MatchOptions::unrestricted(),
                    MatchOptions::unrestricted().pin(pin_var, pin_node),
                    interval,
                ] {
                    let expected = oracle_matches(q, &g, &opts.pins);
                    let mut got = Vec::new();
                    for_each_match_in(&view, &g, &opts, &mut scratch, &mut |m| {
                        got.push(m.to_vec());
                        Flow::Continue
                    });
                    got.sort();
                    prop_assert!(
                        got == expected,
                        "step {step}, pins {:?}: {} vs oracle {} for {q:?}",
                        opts.pins,
                        got.len(),
                        expected.len()
                    );
                    if opts.pins.is_empty() {
                        let space = Some(&*view.space);
                        let counted = count_matches_with(&view.rep, &g, &opts, space, &mut scratch);
                        prop_assert!(
                            counted == expected.len(),
                            "step {step}: representative count {counted} vs oracle {} for {q:?}",
                            expected.len()
                        );
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
            reg.advance(&g2, &delta, reg.version() + 1);
            g = g2;
        }
        prop_assert!(reg.simulations() == 1, "one simulation per class");
        Ok(())
    });
}

/// Pinned locality: a pinned enumeration must stay inside the pin's
/// neighborhood. The graph is a small dense blob (`d` nodes per label,
/// consecutive labels completely wired into `k`-cycles) plus a far
/// region of many disjoint `k`-cycles that all survive simulation.
/// Pinning any variable at a blob node under a step budget of
/// `2 · deg²` — far less than the far region's size — must still run
/// to completion and equal the brute-force pinned match set: the
/// search starts at the pin, never at a simulation set. The same holds
/// for an interval pin over the variable's `d` blob nodes (consecutive
/// ids) under `d` times that budget, the far region larger still: the
/// pinned pool is the seed set clipped to the interval.
#[test]
fn pinned_enumeration_is_neighborhood_bounded() {
    let mut scratch = MatchScratch::default();
    check("pinned × cyclic stays local", 24, |rng| {
        let k = rng.gen_range(3..5);
        let d = rng.gen_range(1..if k == 3 { 4 } else { 3 });
        let deg = 2 * d;
        let budget = 2 * (deg * deg) as u64;
        let interval_budget = d as u64 * budget;
        let far = interval_budget as usize + rng.gen_range(4..12);
        let mut b = GraphBuilder::with_fresh_vocab();
        let mut layer = |count: usize| -> Vec<Vec<NodeId>> {
            (0..k)
                .map(|i| {
                    (0..count)
                        .map(|_| b.add_node_labeled(&format!("l{i}")))
                        .collect()
                })
                .collect()
        };
        let blob = layer(d);
        let cycles = layer(far);
        for i in 0..k {
            for &s in &blob[i] {
                for &t in &blob[(i + 1) % k] {
                    b.add_edge_labeled(s, t, "e0");
                }
            }
            for (&s, &t) in cycles[i].iter().zip(&cycles[(i + 1) % k]) {
                b.add_edge_labeled(s, t, "e0");
            }
        }
        let g = b.freeze();
        let spec = PatternSpec {
            labels: (0..k).map(Some).collect(),
            edges: (0..k).map(|i| (i, (i + 1) % k, 0)).collect(),
        };
        let order: Vec<usize> = (0..k).collect();
        let q = build_pattern(&spec, &order, &g);
        let cs = dual_simulation(&q, &g, None);
        prop_assert!(
            cs.of(VarId(0)).len() == far + d,
            "premise: the far region survives simulation"
        );
        let all = oracle_matches(&q, &g, &[]);
        for (j, nodes) in blob.iter().enumerate() {
            let var = VarId(j as u32);
            let node = Pin::at(var, nodes[0]);
            let interval = Pin {
                var,
                lo: nodes[0],
                hi: nodes[d - 1],
            };
            prop_assert!(
                nodes.windows(2).all(|w| w[1].0 == w[0].0 + 1),
                "premise: a label's blob nodes are consecutive ids"
            );
            for (pin, steps) in [(node, budget), (interval, interval_budget)] {
                let expected: Vec<Vec<NodeId>> = (all.iter())
                    .filter(|m| (pin.lo..=pin.hi).contains(&m[j]))
                    .cloned()
                    .collect();
                let opts = MatchOptions {
                    pins: vec![pin],
                    budget: SearchBudget {
                        max_steps: Some(steps),
                    },
                };
                let (outcome, got) = space_matches_with(&q, &g, &cs, &opts, &mut scratch);
                prop_assert!(
                    outcome == EnumOutcome::Complete,
                    "pin {pin:?}: {outcome:?} within {steps} steps (far region {far})"
                );
                prop_assert!(
                    got == expected,
                    "pin {pin:?}: {} vs oracle {}",
                    got.len(),
                    expected.len()
                );
            }
        }
        Ok(())
    });
}
