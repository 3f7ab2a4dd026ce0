//! Property-based tests for the filter-and-refine matcher.
//!
//! Two oracles guard the engine:
//!
//! * a **brute-force matcher** — every injective variable assignment
//!   over a random graph, checked edge by edge — must produce exactly
//!   the match set of the enumerator with no space supplied (the
//!   per-call filter rule decides), with a caller-supplied space
//!   (filter forced on), and with a caller-supplied space through the
//!   full-form entry point — unpinned, pinned
//!   at a node, and under random node-id interval pins;
//! * a **naive fixpoint dual simulation** — the dense
//!   `rounds × vars × nodes` re-scan the worklist algorithm replaced —
//!   must compute exactly the same relation and the same candidate
//!   adjacency in both directions: unscoped, within a random scope,
//!   on snapshots whose extents `apply_delta` rebuilt, and on a long
//!   path that a cascade of removals empties end to end; and one
//!   reused simulation workspace must compute exactly the space a
//!   fresh one does, whatever ran in it before.
//!
//! On top of them sits the **locality lemma** of §5.2 as a property:
//! a component's matches pinned at its pivot lie inside the pivot
//! image's radius-hop neighborhood — the reason the unit executor needs
//! no data block to search in.
//!
//! (The offline toolchain has no `proptest`; the in-repo harness
//! `gfd_util::prop` runs each property over a seed range and reports
//! the failing seed.)

mod common;

use common::{
    oracle_edge_ok, oracle_matches, random_graph, random_pattern, EDGE_LABELS, NODE_LABELS,
};
use gfd_graph::neighborhood::khop_nodes;
use gfd_graph::{Graph, GraphBuilder, NodeId, NodeSet};
use gfd_match::simulation::{dual_simulation, dual_simulation_with, SimScratch};
use gfd_match::types::Flow;
use gfd_match::{
    for_each_match_with, ComponentSearch, MatchOptions, MatchScratch, MatchTable, Pin,
};
use gfd_pattern::analysis::pivot_vector;
use gfd_pattern::{PatLabel, Pattern, PatternBuilder, VarId};
use gfd_util::{prop::check, prop_assert, Rng};

/// The dense fixpoint algorithm the worklist version replaced, kept
/// here as the simulation oracle — over the whole graph, or over the
/// nodes of `scope` alone.
fn oracle_dual_simulation(q: &Pattern, g: &Graph, scope: Option<&NodeSet>) -> Vec<Vec<NodeId>> {
    let nvars = q.node_count();
    let mut member: Vec<Vec<bool>> = vec![vec![false; g.node_count()]; nvars];
    for v in q.vars() {
        for u in g.nodes() {
            let in_scope = scope.is_none_or(|s| s.contains(u));
            if in_scope && q.label(v).admits(g.label(u)) {
                member[v.index()][u.index()] = true;
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for v in q.vars() {
            for ui in 0..g.node_count() {
                if !member[v.index()][ui] {
                    continue;
                }
                let u = NodeId(ui as u32);
                let ok = q.out(v).iter().all(|&(t, l)| match l {
                    PatLabel::Sym(s) => g
                        .neighbors_labeled(u, s)
                        .iter()
                        .any(|a| member[t.index()][a.node.index()]),
                    PatLabel::Wildcard => g
                        .out_slice(u)
                        .iter()
                        .any(|a| member[t.index()][a.node.index()]),
                }) && q.inn(v).iter().all(|&(s, l)| match l {
                    PatLabel::Sym(sym) => g
                        .in_neighbors_labeled(u, sym)
                        .iter()
                        .any(|a| member[s.index()][a.node.index()]),
                    PatLabel::Wildcard => g
                        .in_slice(u)
                        .iter()
                        .any(|a| member[s.index()][a.node.index()]),
                });
                if !ok {
                    member[v.index()][ui] = false;
                    changed = true;
                }
            }
        }
    }
    member
        .into_iter()
        .map(|bits| {
            bits.iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| NodeId(i as u32))
                .collect()
        })
        .collect()
}

/// How the enumerator gets its pool source: filter-off, filter-on, and
/// filter-on through the entry point must all agree with brute force.
#[derive(Clone, Copy, Debug)]
enum Source {
    /// No space supplied: the per-call rule decides (raw mode on
    /// graphs this small).
    NoSpace,
    /// A caller-supplied space attached to the engine type directly.
    Space,
    /// A caller-supplied space through the full-form entry point.
    EntrySpace,
}

const SOURCES: [Source; 3] = [Source::NoSpace, Source::Space, Source::EntrySpace];

/// Sorted matches of `q` under `opts` via `source`. A supplied space
/// only applies to connected patterns (the documented contract), so
/// disconnected ones take the per-component path in every mode.
fn engine_matches(q: &Pattern, g: &Graph, opts: &MatchOptions, source: Source) -> Vec<Vec<NodeId>> {
    let mut ms: Vec<Vec<NodeId>> = Vec::new();
    let mut push = |m: &[NodeId]| {
        ms.push(m.to_vec());
        Flow::Continue
    };
    let mut scratch = MatchScratch::default();
    match source {
        Source::Space if q.is_connected() => {
            let cs = dual_simulation(q, g, None);
            ComponentSearch::new(q, g)
                .candidate_space(&cs)
                .pins(&opts.pins)
                .for_each(&mut push);
        }
        Source::EntrySpace => {
            let cs = dual_simulation(q, g, None);
            for_each_match_with(q, g, opts, Some(&cs), &mut scratch, &mut push);
        }
        _ => {
            for_each_match_with(q, g, opts, None, &mut scratch, &mut push);
        }
    }
    ms.sort();
    ms
}

#[test]
fn matcher_equals_brute_force_oracle() {
    check("filter-and-refine ≡ brute force", 150, |rng| {
        let g = random_graph(rng, 1..=10, 0..=3);
        let q = random_pattern(rng, &g);
        let expected = oracle_matches(&q, &g, &[]);
        for source in SOURCES {
            let got = engine_matches(&q, &g, &MatchOptions::unrestricted(), source);
            prop_assert!(
                got == expected,
                "{source:?}: got {} matches, oracle {} for {q:?}",
                got.len(),
                expected.len()
            );
        }
        Ok(())
    });
}

/// The candidate adjacency the oracle relation implies for pattern edge
/// `ei` read from its source (`out`) or its target: per candidate of
/// the near end, the far end's candidates it has an admitted edge with,
/// ascending.
fn oracle_runs(
    q: &Pattern,
    g: &Graph,
    sets: &[Vec<NodeId>],
    ei: usize,
    out: bool,
) -> Vec<(NodeId, Vec<NodeId>)> {
    let e = q.edges()[ei];
    let (near, far) = if out { (e.src, e.dst) } else { (e.dst, e.src) };
    let edge_ok = |u, w| match out {
        true => oracle_edge_ok(g, u, w, e.label),
        false => oracle_edge_ok(g, w, u, e.label),
    };
    sets[near.index()]
        .iter()
        .map(|&u| {
            let run = sets[far.index()].iter().copied();
            (u, run.filter(|&w| edge_ok(u, w)).collect())
        })
        .collect()
}

/// `dual_simulation` over `scope` equals the oracle: every candidate
/// set, and every pattern edge's runs in both directions.
fn simulation_matches_oracle(
    q: &Pattern,
    g: &Graph,
    scope: Option<&NodeSet>,
) -> Result<(), String> {
    let cs = dual_simulation(q, g, scope);
    let expected = oracle_dual_simulation(q, g, scope);
    for v in q.vars() {
        prop_assert!(
            cs.of(v) == expected[v.index()].as_slice(),
            "sim({v:?}) mismatch for {q:?} in {scope:?}: {:?} vs {:?}",
            cs.of(v),
            expected[v.index()]
        );
    }
    for ei in 0..q.edge_count() {
        for (adj, out) in [(&cs.forward[ei], true), (&cs.reverse[ei], false)] {
            let got: Vec<(NodeId, Vec<NodeId>)> =
                adj.runs().map(|(u, run)| (u, run.to_vec())).collect();
            let want = oracle_runs(q, g, &expected, ei, out);
            prop_assert!(
                got == want,
                "edge {ei} (out: {out}) runs mismatch for {q:?} in {scope:?}: {got:?} vs {want:?}"
            );
        }
    }
    Ok(())
}

/// Graphs whose three label extents interleave in id order (node `i`
/// carries `l{i % 3}`), so no extent is a contiguous id range, and
/// patterns mixing wildcard and labelled variables: the ranks the
/// worklist indexes by must land where the oracle's node ids do.
#[test]
fn worklist_simulation_equals_fixpoint_oracle() {
    check("worklist sim ≡ dense fixpoint", 200, |rng| {
        let g = random_graph(rng, 1..=12, 0..=3);
        let q = random_pattern(rng, &g);
        simulation_matches_oracle(&q, &g, None)
    });
}

/// A scoped simulation ranks by binary search in the scope-narrowed
/// seeds: it must equal the oracle restricted to the scope.
#[test]
fn scoped_simulation_equals_restricted_oracle() {
    check("scoped sim ≡ scope-restricted fixpoint", 200, |rng| {
        let g = random_graph(rng, 1..=12, 0..=3);
        let q = random_pattern(rng, &g);
        let picked = g.nodes().filter(|_| rng.gen_range(0..3) > 0).collect();
        simulation_matches_oracle(&q, &g, Some(&NodeSet::from_vec(picked)))
    });
}

/// Snapshots from `apply_delta` scripts that add nodes and relabel
/// old ones rebuild the extents and their ranks: the unscoped
/// simulation on every step's snapshot must still equal the oracle.
#[test]
fn simulation_after_relabels_and_added_nodes_equals_oracle() {
    check("sim on patched snapshots ≡ dense fixpoint", 100, |rng| {
        let mut g = random_graph(rng, 1..=10, 0..=3);
        let q = random_pattern(rng, &g);
        for _ in 0..4 {
            g = g.edit(|b| {
                for _ in 0..rng.gen_range(0..4) {
                    b.add_node_labeled(&format!("l{}", rng.gen_range(0..NODE_LABELS)));
                }
                let n = b.node_count();
                for _ in 0..rng.gen_range(1..4) {
                    let u = NodeId(rng.gen_range(0..n) as u32);
                    let label = b
                        .vocab()
                        .intern(&format!("l{}", rng.gen_range(0..NODE_LABELS)));
                    b.set_label(u, label);
                }
                for _ in 0..rng.gen_range(0..2 * n) {
                    let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    let e = format!("e{}", rng.gen_range(0..EDGE_LABELS));
                    b.add_edge_labeled(NodeId(s as u32), NodeId(d as u32), &e);
                }
            });
            simulation_matches_oracle(&q, &g, None)?;
        }
        Ok(())
    });
}

/// A deep cascade: on a 2 000-node directed path the 2-cycle
/// `x -e-> y -e-> x` simulates nowhere, yet the seeding leaves only
/// the path's two ends without support — every other candidate is
/// removed by a cascade that runs the length of the path. Over
/// labelled and over wildcard variables, the relation must be empty
/// and equal the oracle's.
#[test]
fn a_deep_cascade_empties_a_path_like_the_oracle() {
    const N: usize = 2000;
    let mut gb = GraphBuilder::with_fresh_vocab();
    let ns: Vec<NodeId> = (0..N).map(|_| gb.add_node_labeled("v")).collect();
    for w in ns.windows(2) {
        gb.add_edge_labeled(w[0], w[1], "e");
    }
    let g = gb.freeze();
    for wildcard in [false, true] {
        let mut b = PatternBuilder::new(g.vocab().clone());
        let (x, y) = match wildcard {
            true => (b.wildcard_node("x"), b.wildcard_node("y")),
            false => (b.node("x", "v"), b.node("y", "v")),
        };
        b.edge(x, y, "e");
        b.edge(y, x, "e");
        let q = b.build();
        assert_eq!(dual_simulation(&q, &g, None).total_size(), 0);
        simulation_matches_oracle(&q, &g, None).unwrap();
    }
}

/// One [`SimScratch`] runs eight simulations in a row, over graphs
/// that alternate between 20–40 nodes and 1–6, so the seeds grow and
/// shrink from one call to the next; a third of the calls are scoped
/// to a random subset and a sixth to the empty scope. Every space must
/// equal a fresh [`dual_simulation`]'s. Across the cases, each way a
/// seed ranks — labelled, wildcard, scoped — and an empty seed must
/// have come up.
#[test]
fn a_reused_workspace_simulates_like_a_fresh_one() {
    let (mut labelled, mut wildcard, mut scoped, mut empty) = (0, 0, 0, 0);
    check("reused SimScratch ≡ fresh dual_simulation", 60, |rng| {
        let mut ws = SimScratch::default();
        for step in 0..8 {
            let nodes = if step % 2 == 0 { 20..=40 } else { 1..=6 };
            let g = random_graph(rng, nodes, 0..=3);
            let q = random_pattern(rng, &g);
            let scope = match rng.gen_range(0..6) {
                0 | 1 => {
                    let picked = g.nodes().filter(|_| rng.gen_range(0..3) > 0).collect();
                    Some(NodeSet::from_vec(picked))
                }
                2 => Some(NodeSet::from_vec(Vec::new())),
                _ => None,
            };
            let labels = q.vars().map(|v| q.label(v));
            match &scope {
                Some(r) if r.is_empty() => empty += 1,
                Some(_) => scoped += 1,
                None => {
                    for label in labels {
                        match label {
                            PatLabel::Sym(s) => {
                                labelled += 1;
                                empty += usize::from(g.extent(s).is_empty());
                            }
                            PatLabel::Wildcard => wildcard += 1,
                        }
                    }
                }
            }
            let got = dual_simulation_with(&q, &g, scope.as_ref(), &mut ws);
            let want = dual_simulation(&q, &g, scope.as_ref());
            prop_assert!(
                got == want,
                "step {step}: the reused workspace diverged for {q:?} in {scope:?}: \
                 {:?} vs {:?}",
                got.sets,
                want.sets
            );
        }
        Ok(())
    });
    for (kind, seen) in [
        ("labelled", labelled),
        ("wildcard", wildcard),
        ("scoped", scoped),
        ("empty", empty),
    ] {
        assert!(seen > 0, "premise: a {kind} seed came up");
    }
}

#[test]
fn simulation_contains_every_match() {
    check("sim ⊇ matches", 120, |rng| {
        let g = random_graph(rng, 1..=10, 0..=3);
        let q = random_pattern(rng, &g);
        let cs = dual_simulation(&q, &g, None);
        for m in engine_matches(&q, &g, &MatchOptions::unrestricted(), Source::NoSpace) {
            for v in q.vars() {
                prop_assert!(
                    cs.of(v).binary_search(&m[v.index()]).is_ok(),
                    "match image {:?} of {v:?} missing from simulation",
                    m[v.index()]
                );
            }
        }
        Ok(())
    });
}

/// Zero to three random interval pins on random variables, over ids up
/// to one past the last node. A quarter of them are inverted (empty),
/// and two pins often land on one variable, where they must intersect.
fn random_pins(rng: &mut Rng, q: &Pattern, g: &Graph) -> Vec<Pin> {
    let n = g.node_count() + 1;
    (0..rng.gen_range(0..4))
        .map(|_| {
            let var = VarId(rng.gen_range(0..q.node_count()) as u32);
            let (a, b) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
            let (lo, hi) = match rng.gen_range(0..4) {
                0 => (a.max(b), a.min(b)),
                _ => (a.min(b), a.max(b)),
            };
            Pin {
                var,
                lo: NodeId(lo),
                hi: NodeId(hi),
            }
        })
        .collect()
}

/// A node pin, then random interval pins, in every pool source: the
/// brute-force matches inside every pin's interval. A wildcard-labeled
/// pinned variable, an inverted interval and two pins on one variable
/// all occur (counted, so the generator cannot silently stop covering
/// them).
#[test]
fn pinned_enumeration_agrees_with_oracle() {
    let (mut wildcard, mut inverted, mut doubled) = (0, 0, 0);
    check("pin ≡ filtered oracle", 100, |rng| {
        let g = random_graph(rng, 1..=10, 0..=3);
        let q = random_pattern(rng, &g);
        let pin_var = VarId(rng.gen_range(0..q.node_count()) as u32);
        let pin_node = NodeId(rng.gen_range(0..g.node_count()) as u32);
        let intervals = random_pins(rng, &q, &g);
        wildcard += intervals
            .iter()
            .any(|p| q.label(p.var) == PatLabel::Wildcard) as usize;
        inverted += intervals.iter().any(|p| p.lo > p.hi) as usize;
        doubled += intervals
            .iter()
            .enumerate()
            .any(|(i, p)| intervals[..i].iter().any(|o| o.var == p.var))
            as usize;
        for pins in [vec![Pin::at(pin_var, pin_node)], intervals] {
            let expected = oracle_matches(&q, &g, &pins);
            let opts = MatchOptions {
                pins,
                ..MatchOptions::unrestricted()
            };
            for source in SOURCES {
                let got = engine_matches(&q, &g, &opts, source);
                prop_assert!(
                    got == expected,
                    "{source:?} under {:?}: {} vs oracle {} for {q:?}",
                    opts.pins,
                    got.len(),
                    expected.len()
                );
            }
        }
        Ok(())
    });
    assert!(
        wildcard > 0 && inverted > 0 && doubled > 0,
        "premise: every pin shape occurs"
    );
}

/// The locality of subgraph isomorphism (§5.2), which lets the unit
/// executor search the whole graph pinned at the pivot instead of a
/// data block: for every component of `Q` with pivot `z` of radius
/// `c`, every match pinned at `z ↦ v` — by brute force, in raw mode and
/// in space mode alike — lies inside `v`'s `c`-hop neighborhood. Some
/// generated match must sit at distance exactly `c`, so the property
/// fails for a radius that is off by one.
#[test]
fn pivot_pinned_matches_stay_within_the_pivot_radius() {
    let mut reached_radius = false;
    check("pinned at pivot ⊆ radius-hop block", 150, |rng| {
        let g = random_graph(rng, 1..=10, 0..=3);
        let q = random_pattern(rng, &g);
        for c in &pivot_vector(&q).components {
            let (cq, orig_vars) = q.restrict(&c.vars);
            let z = orig_vars
                .iter()
                .position(|&v| v == c.pivot)
                .expect("the pivot is in its component");
            let all = oracle_matches(&cq, &g, &[]);
            let cs = dual_simulation(&cq, &g, None);
            let sorted_rows = |search: &mut ComponentSearch| {
                let mut table = MatchTable::new(cq.node_count());
                search.collect_into(&mut table);
                let mut rows: Vec<Vec<NodeId>> = table.iter().map(<[NodeId]>::to_vec).collect();
                rows.sort();
                rows
            };
            for v in g.nodes() {
                let pins = [Pin::at(VarId(z as u32), v)];
                let expected: Vec<Vec<NodeId>> =
                    all.iter().filter(|m| m[z] == v).cloned().collect();
                let raw = sorted_rows(&mut ComponentSearch::new(&cq, &g).pins(&pins));
                let space = sorted_rows(
                    &mut ComponentSearch::new(&cq, &g)
                        .candidate_space(&cs)
                        .pins(&pins),
                );
                prop_assert!(raw == expected, "raw mode pinned at {v:?} for {cq:?}");
                prop_assert!(space == expected, "space mode pinned at {v:?} for {cq:?}");
                let block = khop_nodes(&g, &[v], c.radius);
                let inner = c.radius.checked_sub(1).map(|r| khop_nodes(&g, &[v], r));
                for m in &expected {
                    prop_assert!(
                        m.iter().all(|&u| block.contains(u)),
                        "match {m:?} pinned at {v:?} leaves the {}-hop block for {cq:?}",
                        c.radius
                    );
                    if let Some(inner) = &inner {
                        reached_radius |= m.iter().any(|&u| !inner.contains(u));
                    }
                }
            }
        }
        Ok(())
    });
    assert!(
        reached_radius,
        "premise: some match reaches distance exactly the radius"
    );
}
