//! The incremental-vs-scratch oracle: an [`IncrementalSpace`]
//! repaired across a random 50-step edit script must be *identical* —
//! candidate sets and per-edge candidate adjacency — to a from-scratch
//! `dual_simulation` of the edited snapshot at every step.
//!
//! Edit steps cover every delta kind the storage layer records: edge
//! insertion/deletion, node addition, relabeling, and attribute writes
//! (which must be invisible to simulation). CI runs this under
//! `BENCH_SMOKE=1` with a reduced case budget as a fast PR gate; the
//! full budget runs in the regular test job.
//!
//! The small graphs above fit one run page; the `paged` scripts run
//! the same oracle on graphs of ≥ 200 nodes (see `common`), where a
//! repair edits some pages and must share the rest with the snapshot a
//! reader still holds. Two scripts aim at the paths a repair takes when
//! deletions settle before insertions: `rewired` takes a member's only
//! support away and replaces it in the same delta (by another member,
//! or by a node that enters with it), and `edgeless` keeps a variable
//! with no pattern edge — the one whose membership no run records —
//! under relabelings and node additions. The `cyclic` scripts close
//! wildcard cycles through an added edge, with a chain of non-members
//! hanging off them that can only enter one round after another.

mod common;

use std::collections::BTreeSet;

use common::{
    random_edit_of, random_graph, random_pattern, Edit, ALL_EDITS, EDGE_LABELS, NODE_LABELS,
};
use gfd_graph::{Graph, NodeId, NodeSet};
use gfd_match::simulation::{dual_simulation, EdgeCandidates};
use gfd_match::{CandidateSpace, IncrementalSpace, RepairReport};
use gfd_pattern::{Pattern, PatternBuilder, VarId};
use gfd_util::prop::{cases, check};
use gfd_util::{prop_assert, Rng};

const SCRIPT_STEPS: usize = 50;

/// Same runs: as values (which also rejects a kept empty page), one
/// run per source candidate in order, and by lookup of every source.
fn adjacency_equal(a: &EdgeCandidates, b: &EdgeCandidates, sources: &[NodeId]) -> bool {
    a == b
        && a.runs().map(|(u, _)| u).eq(sources.iter().copied())
        && sources.iter().all(|&u| a.run(u) == b.run(u))
}

fn spaces_equal(
    inc: &IncrementalSpace,
    scratch: &CandidateSpace,
    step: usize,
) -> Result<(), String> {
    if inc.space().sets != scratch.sets {
        return Err(format!(
            "sets diverged at step {step}: {:?} vs {:?}",
            inc.space().sets,
            scratch.sets
        ));
    }
    for (ei, e) in inc.pattern().edges().iter().enumerate() {
        let (f1, f2) = (&inc.space().forward[ei], &scratch.forward[ei]);
        if !adjacency_equal(f1, f2, scratch.of(e.src)) {
            return Err(format!("forward adjacency of edge {ei} diverged at {step}"));
        }
        let (r1, r2) = (&inc.space().reverse[ei], &scratch.reverse[ei]);
        if !adjacency_equal(r1, r2, scratch.of(e.dst)) {
            return Err(format!("reverse adjacency of edge {ei} diverged at {step}"));
        }
    }
    Ok(())
}

/// A space's relation as `(var, node)` pairs, with its byte estimate:
/// the side of a repair a report is checked against, taken without
/// holding the space (which would turn an in-place repair into a
/// copy).
struct Relation {
    pairs: BTreeSet<(VarId, NodeId)>,
    bytes: usize,
}

impl Relation {
    fn of(space: &CandidateSpace) -> Self {
        let vars = (0..).map(VarId).zip(&space.sets);
        let pairs = vars
            .flat_map(|(v, set)| set.iter().map(move |&u| (v, u)))
            .collect();
        let bytes = space.approx_bytes();
        Relation { pairs, bytes }
    }
}

/// The report against the from-scratch relations on both sides of the
/// repair: `added` and `removed` count exactly the two set
/// differences — so a pair that left and re-entered within the repair
/// counts in neither — and its byte delta is the difference of the two
/// spaces' byte estimates.
fn report_is_exact(
    report: &RepairReport,
    before: &Relation,
    after: &CandidateSpace,
) -> Result<(), String> {
    let after = Relation::of(after);
    let moved = after.bytes as isize - before.bytes as isize;
    prop_assert!(
        report.byte_delta() == moved,
        "report.byte_delta() is {}, the spaces' estimates differ by {moved}",
        report.byte_delta()
    );
    for (what, counted, from, to) in [
        ("added", report.added, &after, before),
        ("removed", report.removed, before, &after),
    ] {
        let want: Vec<_> = from.pairs.difference(&to.pairs).collect();
        prop_assert!(
            counted == want.len(),
            "report.{what} is {counted}, the relations differ by {want:?}"
        );
    }
    Ok(())
}

#[test]
fn incremental_repair_equals_scratch_over_edit_scripts() {
    check(
        "IncrementalSpace ≡ dual_simulation over 50-step scripts",
        cases(40, 5),
        |rng| {
            let mut g = random_graph(rng, 2..=12, 0..=3);
            let q = random_pattern(rng, &g);
            let mut inc = IncrementalSpace::new(&q, &g, None);
            for step in 0..SCRIPT_STEPS {
                let (g2, delta) = random_edit_of(rng, &g, &ALL_EDITS);
                let before = Relation::of(inc.space());
                let report = inc.apply_normalized(&g2, &delta);
                let scratch = dual_simulation(&q, &g2, None);
                // The report must count exactly the set difference.
                spaces_equal(&inc, &scratch, step)
                    .and_then(|()| report_is_exact(&report, &before, &scratch))
                    .map_err(|m| format!("{m}; delta {delta:?}; pattern {q:?}"))?;
                g = g2;
            }
            Ok(())
        },
    );
}

#[test]
fn scoped_incremental_repair_equals_scratch() {
    check(
        "scoped IncrementalSpace ≡ scoped dual_simulation",
        cases(24, 3),
        |rng| {
            let mut g = random_graph(rng, 2..=12, 0..=3);
            let q = random_pattern(rng, &g);
            // A fixed scope of about half the initial nodes; nodes
            // added later fall outside it, as block-local consumers
            // expect.
            let scope = NodeSet::from_vec(
                g.nodes()
                    .filter(|_| rng.gen_range(0..2) == 0)
                    .collect::<Vec<_>>(),
            );
            let mut inc = IncrementalSpace::new(&q, &g, Some(&scope));
            for step in 0..SCRIPT_STEPS / 2 {
                let (g2, delta) = random_edit_of(rng, &g, &ALL_EDITS);
                inc.apply_normalized(&g2, &delta);
                let scratch = dual_simulation(&q, &g2, Some(&scope));
                spaces_equal(&inc, &scratch, step)
                    .map_err(|m| format!("scoped: {m}; delta {delta:?}; pattern {q:?}"))?;
                g = g2;
            }
            Ok(())
        },
    );
}

#[test]
fn paged_repair_equals_scratch_over_edit_scripts() {
    check(
        "IncrementalSpace ≡ dual_simulation across run pages",
        cases(12, 2),
        |rng| {
            let mut g = common::paged_graph(rng);
            let q = common::paged_pattern(rng, &g);
            let mut inc = IncrementalSpace::new(&q, &g, None);
            for step in 0..SCRIPT_STEPS {
                let (g2, delta) = common::paged_edit(rng, &g);
                inc.apply_normalized(&g2, &delta);
                let scratch = dual_simulation(&q, &g2, None);
                spaces_equal(&inc, &scratch, step)
                    .map_err(|m| format!("{m}; delta {delta:?}; pattern {q:?}"))?;
                g = g2;
            }
            Ok(())
        },
    );
}

/// The runs of the page of node ids starting at `first`, by lookup.
/// (A member's run is never empty — it has support on every incident
/// pattern edge — so an empty answer means "no run".)
fn page_runs(a: &EdgeCandidates, first: usize) -> Vec<&[NodeId]> {
    (first..first + common::PAGE_NODES)
        .map(|i| a.run(NodeId(i as u32)))
        .collect()
}

#[test]
fn held_snapshot_survives_repairs_and_shares_untouched_pages() {
    check(
        "copy-on-write: held snapshots stay at their epoch, untouched pages are shared",
        cases(12, 2),
        |rng| {
            let mut g = common::paged_graph(rng);
            let q = common::paged_pattern(rng, &g);
            let mut inc = IncrementalSpace::new(&q, &g, None);
            // One reader pins the first snapshot across the whole
            // script; another re-pins before every repair.
            let first = inc.space_arc();
            let scratch_at_0 = dual_simulation(&q, &g, None);
            let (mut shared, mut copied) = (0usize, 0usize);
            for step in 0..SCRIPT_STEPS {
                let before = inc.space_arc();
                let (g2, delta) = common::paged_edit(rng, &g);
                inc.apply_normalized(&g2, &delta);
                prop_assert!(
                    *before == dual_simulation(&q, &g, None),
                    "step {step}: the snapshot held across the repair moved; delta {delta:?}"
                );
                let after = inc.space();
                let pairs = (before.forward.iter().zip(&after.forward))
                    .chain(before.reverse.iter().zip(&after.reverse));
                for (old, new) in pairs {
                    for page in (0..g.node_count()).step_by(common::PAGE_NODES) {
                        let runs = page_runs(old, page);
                        if runs != page_runs(new, page) {
                            copied += 1;
                        } else if runs.iter().any(|r| !r.is_empty()) {
                            prop_assert!(
                                old.shares_page(new, NodeId(page as u32)),
                                "step {step}: untouched page {page} was copied; delta {delta:?}; pattern {q:?}"
                            );
                            shared += 1;
                        }
                    }
                }
                g = g2;
            }
            prop_assert!(
                *first == scratch_at_0,
                "the snapshot pinned at epoch 0 moved"
            );
            spaces_equal(&inc, &dual_simulation(&q, &g, None), SCRIPT_STEPS)?;
            prop_assert!(
                copied == 0 || shared > copied,
                "repairs copied {copied} pages and shared {shared}"
            );
            Ok(())
        },
    );
}

/// Every step takes a member's *only* support on some pattern edge
/// away and replaces it in the same delta. On even steps the
/// replacement is another member: the run is rewired before anything
/// cascades and the member never leaves. On odd steps it is a
/// non-member that enters on the strength of the new edge: the member
/// leaves with the deletions and re-enters with the frontier, which
/// the report must net out. Either way a reader's snapshot stays put
/// and most pages stay shared with it — not every page with unchanged
/// runs: one that held a run of a pair that left and came back, or
/// took a target from an added edge whose endpoint then left, was
/// written twice and reads as before.
#[test]
fn rewired_support_repairs_equal_scratch_across_pages() {
    let (mut rewired, mut entered) = (0usize, 0usize);
    let (mut shared, mut copied) = (0usize, 0usize);
    check(
        "IncrementalSpace ≡ dual_simulation when only supports are rewired",
        cases(12, 2),
        |rng| {
            let mut g = common::paged_graph(rng);
            let q = common::paged_pattern(rng, &g);
            let mut inc = IncrementalSpace::new(&q, &g, None);
            for step in 0..SCRIPT_STEPS {
                let to_member = step % 2 == 0;
                let before = inc.space_arc();
                // A relation with no member hanging by one edge gets an
                // ordinary step, which usually produces some.
                let rewire = common::rewire_edit(rng, &g, &q, &before, to_member);
                let hung = rewire.is_some();
                let (g2, delta) = rewire.unwrap_or_else(|| common::paged_edit(rng, &g));
                let report = inc.apply_normalized(&g2, &delta);
                let scratch = dual_simulation(&q, &g2, None);
                spaces_equal(&inc, &scratch, step)
                    .and_then(|()| report_is_exact(&report, &Relation::of(&before), &scratch))
                    .map_err(|m| format!("step {step}: {m}; delta {delta:?}; pattern {q:?}"))?;
                prop_assert!(
                    *before == dual_simulation(&q, &g, None),
                    "step {step}: the snapshot held across the repair moved; delta {delta:?}"
                );
                for (old, new) in (before.forward.iter().zip(&inc.space().forward))
                    .chain(before.reverse.iter().zip(&inc.space().reverse))
                {
                    for page in (0..g.node_count()).step_by(common::PAGE_NODES) {
                        if old.shares_page(new, NodeId(page as u32)) {
                            prop_assert!(page_runs(old, page) == page_runs(new, page));
                            shared += 1;
                        } else if page_runs(old, page).iter().any(|r| !r.is_empty()) {
                            copied += 1;
                        }
                    }
                }
                rewired += usize::from(hung);
                entered += usize::from(hung && !to_member && report.added > 0);
                g = g2;
            }
            Ok(())
        },
    );
    assert!(
        rewired > 0 && entered > 0,
        "premise: {rewired} rewire steps, {entered} of them rescued by an entering pair"
    );
    assert!(
        shared > copied,
        "repairs copied {copied} pages and shared {shared}"
    );
}

/// A variable with no pattern edge has no run to read its membership
/// off — its candidates are its seeds, kept in the sorted set alone —
/// and a single-node component next to a connected one is a legal
/// two-component pattern. Relabelings and node additions are what
/// moves such a set.
#[test]
fn edgeless_variable_repairs_equal_scratch() {
    check(
        "IncrementalSpace ≡ dual_simulation with a variable on no pattern edge",
        cases(24, 3),
        |rng| {
            let mut g = random_graph(rng, 2..=12, 0..=3);
            let mut b = PatternBuilder::new(g.vocab().clone());
            let x = b.node("x", &format!("l{}", rng.gen_range(0..NODE_LABELS)));
            let y = b.wildcard_node("y");
            b.edge(x, y, "e0");
            if rng.gen_range(0..2) == 0 {
                b.node("alone", &format!("l{}", rng.gen_range(0..NODE_LABELS)));
            } else {
                b.wildcard_node("alone");
            }
            let q = b.build();
            let mut inc = IncrementalSpace::new(&q, &g, None);
            for step in 0..SCRIPT_STEPS {
                // Node additions and relabelings, an edge toggle now
                // and then.
                let (g2, delta) = random_edit_of(
                    rng,
                    &g,
                    &[
                        Edit::AddNode,
                        Edit::Relabel,
                        Edit::AddNode,
                        Edit::Relabel,
                        Edit::AddEdge,
                        Edit::RemoveEdge,
                    ],
                );
                let before = inc.space_arc();
                let report = inc.apply_normalized(&g2, &delta);
                let scratch = dual_simulation(&q, &g2, None);
                spaces_equal(&inc, &scratch, step)
                    .and_then(|()| report_is_exact(&report, &Relation::of(&before), &scratch))
                    .map_err(|m| format!("step {step}: {m}; delta {delta:?}; pattern {q:?}"))?;
                g = g2;
            }
            Ok(())
        },
    );
}

/// A wildcard cycle `v0 → v1 → … → v(k-1) → v0` of 3–4 variables whose
/// closing pattern edge is a wildcard (the others are labeled half the
/// time), as `social-cycles` draws its rules; with each pattern edge's
/// label, `None` for a wildcard.
fn cycle_pattern(rng: &mut Rng, g: &Graph) -> (Pattern, Vec<Option<String>>) {
    let k = rng.gen_range(3..5);
    let mut b = PatternBuilder::new(g.vocab().clone());
    let vars: Vec<VarId> = (0..k).map(|i| b.wildcard_node(&format!("v{i}"))).collect();
    let mut labels = Vec::with_capacity(k);
    for i in 0..k {
        let (s, d) = (vars[i], vars[(i + 1) % k]);
        if i + 1 == k || rng.gen_range(0..2) == 0 {
            b.wildcard_edge(s, d);
            labels.push(None);
        } else {
            let label = format!("e{}", rng.gen_range(0..EDGE_LABELS));
            b.edge(s, d, &label);
            labels.push(Some(label));
        }
    }
    (b.build(), labels)
}

/// One planted cycle: the edge that closes the chain `c` into a cycle
/// through `a`'s node at `v0`, and the tail nodes that can enter only
/// after it — `tail[0]` in the second round, `tail[1]` in the third —
/// at the variables they are planted at.
struct Planted {
    closing: (NodeId, NodeId, String),
    tail: [(VarId, NodeId); 2],
}

/// Plants, in one edit, a complete cycle `a` (a match, so its nodes
/// become members), a copy `c` of it that shares `a`'s node at `v0` and
/// lacks one pattern edge, and a tail of two nodes: `t` at `v0`, tied to
/// `c`'s node at `v1` and to `a`'s at `v(k-1)`, and `s` at `v(k-1)`,
/// tied to `t` and to `a`'s node at `v(k-2)`. Closing `c` admits it in
/// the first round; `t` lies behind an end of `c`'s node at `v1` that
/// `a`'s member at `v0` satisfies, so it is a trigger of the second
/// round, and `s`, behind an end of `t`'s that `a` satisfies, of the
/// third.
fn plant_cycle(
    rng: &mut Rng,
    g: &Graph,
    q: &Pattern,
    labels: &[Option<String>],
) -> (Graph, gfd_graph::GraphDelta, Planted) {
    let k = q.node_count();
    // A graph label for each planted copy of each pattern edge.
    let drawn: Vec<String> = (0..3 * k)
        .map(|i| match &labels[i % k] {
            Some(label) => label.clone(),
            None => format!("e{}", rng.gen_range(0..EDGE_LABELS)),
        })
        .collect();
    let missing = rng.gen_range(0..k);
    let (v0, v1, last) = (VarId(0), VarId(1), VarId(k as u32 - 1));
    let mut planted = None;
    let (g2, delta) = g.edit_with_delta(|b| {
        let mut fresh = |n: usize| -> Vec<NodeId> {
            (0..n)
                .map(|i| b.add_node_labeled(&format!("l{}", i % NODE_LABELS)))
                .collect()
        };
        let a = fresh(k);
        let mut c = fresh(k);
        c[0] = a[0];
        let tail = fresh(2);
        let (t, s) = (tail[0], tail[1]);
        // Where each tail node finds its neighbour at variable `w`.
        let t_at = |w: VarId| if w == v1 { c[1] } else { a[w.index()] };
        let s_at = |w: VarId| if w == v0 { t } else { a[w.index()] };
        for (ei, pe) in q.edges().iter().enumerate() {
            let (src, dst) = (pe.src.index(), pe.dst.index());
            b.add_edge_labeled(a[src], a[dst], &drawn[ei]);
            if ei != missing {
                b.add_edge_labeled(c[src], c[dst], &drawn[k + ei]);
            }
            for (node, var, at) in [(t, v0, &t_at as &dyn Fn(VarId) -> NodeId), (s, last, &s_at)] {
                if pe.src == var {
                    b.add_edge_labeled(node, at(pe.dst), &drawn[2 * k + ei]);
                } else if pe.dst == var {
                    b.add_edge_labeled(at(pe.src), node, &drawn[2 * k + ei]);
                }
            }
        }
        let pe = &q.edges()[missing];
        planted = Some(Planted {
            closing: (
                c[pe.src.index()],
                c[pe.dst.index()],
                drawn[k + missing].clone(),
            ),
            tail: [(v0, t), (last, s)],
        });
    });
    (g2, delta, planted.expect("the edit ran"))
}

/// The round oracle: scripts that plant wildcard cycles and close them
/// through an added edge, interleaved with random edge churn, repair to
/// exactly `dual_simulation` with an exact report. A planted cycle's
/// tail needs the closed cycle and then each other, so a closing repair
/// that admits the tail's second node ran at least three rounds.
#[test]
fn cyclic_closing_edges_admit_in_rounds() {
    let (mut closed, mut third_round) = (0usize, 0usize);
    check(
        "IncrementalSpace ≡ dual_simulation when an added edge closes a cycle",
        cases(24, 3),
        |rng| {
            let mut g = random_graph(rng, 2..=12, 0..=3);
            let (q, labels) = cycle_pattern(rng, &g);
            let mut inc = IncrementalSpace::new(&q, &g, None);
            let mut pending: Option<Planted> = None;
            for step in 0..SCRIPT_STEPS {
                let closing = pending.take();
                let (g2, delta) = match &closing {
                    Some(p) => {
                        let (src, dst, label) = &p.closing;
                        g.edit_with_delta(|b| {
                            b.add_edge_labeled(*src, *dst, label);
                        })
                    }
                    None if rng.gen_range(0..2) == 0 => {
                        let (g2, delta, p) = plant_cycle(rng, &g, &q, &labels);
                        pending = Some(p);
                        (g2, delta)
                    }
                    None => random_edit_of(
                        rng,
                        &g,
                        &[
                            Edit::AddEdge,
                            Edit::Rewire,
                            Edit::RemoveEdge,
                            Edit::RemoveEdge,
                        ],
                    ),
                };
                let before = inc.space_arc();
                let report = inc.apply_normalized(&g2, &delta);
                let scratch = dual_simulation(&q, &g2, None);
                spaces_equal(&inc, &scratch, step)
                    .and_then(|()| report_is_exact(&report, &Relation::of(&before), &scratch))
                    .map_err(|m| format!("step {step}: {m}; delta {delta:?}; pattern {q:?}"))?;
                if let Some(p) = closing {
                    closed += 1;
                    let (v, u) = p.tail[1];
                    let entered = before.of(v).binary_search(&u).is_err() && inc.contains(v, u);
                    third_round += usize::from(entered);
                }
                g = g2;
            }
            Ok(())
        },
    );
    assert!(
        closed > 0 && third_round > 0,
        "premise: {closed} closing edges, {third_round} of them admitted a tail in a third round"
    );
}
