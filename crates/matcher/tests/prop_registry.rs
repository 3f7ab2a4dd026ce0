//! The permutation oracle: for random patterns and random
//! declaration-order twins, what a member reads through its
//! [`ClassRegistry`] view must be *identical* to what its own pattern
//! yields from scratch — candidate sets and per-edge candidate
//! adjacency against `dual_simulation` of the member, and enumeration
//! through the view (plain, and pinned at a member variable) against
//! brute force on the member — including after random 50-step edit
//! scripts repaired through the class representative's
//! `IncrementalSpace`. The `paged` script repeats the set and run
//! comparison on graphs of ≥ 200 nodes (see `common`), with a reader
//! holding the previous view across every repair — once over ordinary
//! edits, once over steps that rewire a member's only support.

mod common;

use gfd_graph::{Graph, GraphBuilder, NodeId};
use gfd_match::simulation::dual_simulation;
use gfd_match::types::Flow;
use gfd_match::{for_each_match_in, ClassRegistry, ClassView, MatchOptions, MatchScratch, Pin};
use gfd_pattern::{PatLabel, Pattern, PatternBuilder, VarId};
use gfd_util::{prop::check, Rng};

const NODE_LABELS: usize = 3;
const EDGE_LABELS: usize = 2;
const SCRIPT_STEPS: usize = 50;

fn case_budget(full: u64) -> u64 {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        (full / 8).max(2)
    } else {
        full
    }
}

fn random_graph(rng: &mut Rng, max_nodes: usize) -> Graph {
    let n = rng.gen_range(2..max_nodes + 1);
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % NODE_LABELS)))
        .collect();
    let m = rng.gen_range(0..3 * n + 1);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        let e = format!("e{}", rng.gen_range(0..EDGE_LABELS));
        b.add_edge_labeled(ids[s], ids[d], &e);
    }
    b.freeze()
}

fn random_pattern(rng: &mut Rng, g: &Graph) -> Pattern {
    let k = rng.gen_range(1..5);
    let mut b = PatternBuilder::new(g.vocab().clone());
    let vars: Vec<VarId> = (0..k)
        .map(|i| {
            let name = format!("v{i}");
            if rng.gen_range(0..10) < 3 {
                b.wildcard_node(&name)
            } else {
                b.node(&name, &format!("l{}", rng.gen_range(0..NODE_LABELS)))
            }
        })
        .collect();
    for _ in 0..rng.gen_range(0..5) {
        let s = vars[rng.gen_range(0..k)];
        let d = vars[rng.gen_range(0..k)];
        if rng.gen_range(0..10) < 2 {
            b.wildcard_edge(s, d);
        } else {
            b.edge(s, d, &format!("e{}", rng.gen_range(0..EDGE_LABELS)));
        }
    }
    b.build()
}

/// Rebuilds `q` with its variables declared in a random order under
/// fresh names — an exact-label isomorphic twin the registry must map
/// into `q`'s class.
fn declaration_twin(rng: &mut Rng, q: &Pattern, tag: usize) -> Pattern {
    let n = q.node_count();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        perm.swap(i, j);
    }
    let vocab = q.vocab().clone();
    let mut b = PatternBuilder::new(vocab.clone());
    let mut new_of_old = vec![VarId(u32::MAX); n];
    for (p, &old) in perm.iter().enumerate() {
        let v = VarId(old as u32);
        let name = format!("m{tag}_{p}");
        new_of_old[old] = match q.label(v) {
            PatLabel::Sym(s) => b.node(&name, &vocab.resolve(s)),
            PatLabel::Wildcard => b.wildcard_node(&name),
        };
    }
    for e in q.edges() {
        let (s, d) = (new_of_old[e.src.index()], new_of_old[e.dst.index()]);
        match e.label {
            PatLabel::Sym(l) => {
                b.edge(s, d, &vocab.resolve(l));
            }
            PatLabel::Wildcard => {
                b.wildcard_edge(s, d);
            }
        }
    }
    b.build()
}

/// The view, read through the member's permutation, against a
/// from-scratch simulation of the member's own pattern.
fn view_equals_scratch(view: &ClassView, q: &Pattern, g: &Graph, what: &str) -> Result<(), String> {
    let want = dual_simulation(q, g, None);
    for v in q.vars() {
        if view.of(v) != want.of(v) {
            return Err(format!(
                "{what}: set of {v:?} diverged: {:?} vs {:?}",
                view.of(v),
                want.of(v)
            ));
        }
    }
    for (ei, e) in q.edges().iter().enumerate() {
        let (rs, rd) = (view.rep_var(e.src), view.rep_var(e.dst));
        let ri = view
            .rep
            .edges()
            .iter()
            .position(|re| re.src == rs && re.dst == rd && re.label == e.label)
            .ok_or_else(|| format!("{what}: member edge {ei} has no representative edge"))?;
        if view.space.forward[ri] != want.forward[ei] {
            return Err(format!("{what}: forward adjacency of edge {ei} diverged"));
        }
        if view.space.reverse[ri] != want.reverse[ei] {
            return Err(format!("{what}: reverse adjacency of edge {ei} diverged"));
        }
    }
    Ok(())
}

/// Brute force on the member's own pattern: every injective
/// assignment honoring `pins`, checked label by label and edge by
/// edge. Sorted.
fn oracle_matches(q: &Pattern, g: &Graph, pins: &[Pin]) -> Vec<Vec<NodeId>> {
    fn rec(
        q: &Pattern,
        g: &Graph,
        pins: &[Pin],
        assign: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let v = VarId(assign.len() as u32);
        if assign.len() == q.node_count() {
            let edge_ok = |e: &gfd_pattern::PatternEdge| {
                let (s, d) = (assign[e.src.index()], assign[e.dst.index()]);
                match e.label {
                    PatLabel::Sym(l) => g.has_edge(s, d, l),
                    PatLabel::Wildcard => g.has_edge_any(s, d),
                }
            };
            if q.edges().iter().all(edge_ok) {
                out.push(assign.clone());
            }
            return;
        }
        for u in g.nodes() {
            let pinned_elsewhere = pins
                .iter()
                .any(|p| p.var == v && !(p.lo..=p.hi).contains(&u));
            if pinned_elsewhere || !q.label(v).admits(g.label(u)) || assign.contains(&u) {
                continue;
            }
            assign.push(u);
            rec(q, g, pins, assign, out);
            assign.pop();
        }
    }
    let mut out = Vec::new();
    rec(q, g, pins, &mut Vec::new(), &mut out);
    out.sort();
    out
}

/// Enumeration through the view — unpinned, and pinned at a random
/// variable of the member — against [`oracle_matches`].
fn view_enumerates_the_member(
    rng: &mut Rng,
    view: &ClassView,
    q: &Pattern,
    g: &Graph,
    scratch: &mut MatchScratch,
    what: &str,
) -> Result<(), String> {
    let pin_var = VarId(rng.gen_range(0..q.node_count()) as u32);
    let pin_node = NodeId(rng.gen_range(0..g.node_count()) as u32);
    for opts in [
        MatchOptions::unrestricted(),
        MatchOptions::unrestricted().pin(pin_var, pin_node),
    ] {
        let mut got = Vec::new();
        for_each_match_in(view, g, &opts, scratch, &mut |m| {
            got.push(m.to_vec());
            Flow::Continue
        });
        got.sort();
        let want = oracle_matches(q, g, &opts.pins);
        if got != want {
            return Err(format!(
                "{what}, pins {:?}: {} matches vs oracle {}",
                opts.pins,
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// One edit step, mirroring `prop_incremental.rs`: a batch of 1–3
/// random mutations recorded through `edit_with_delta`.
fn random_edit(rng: &mut Rng, g: &Graph) -> (Graph, gfd_graph::GraphDelta) {
    let ops = rng.gen_range(1..4);
    let mut plan: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(ops);
    for _ in 0..ops {
        plan.push((
            rng.gen_range(0..5),
            rng.gen_range(0..usize::MAX),
            rng.gen_range(0..usize::MAX),
            rng.gen_range(0..usize::MAX),
        ));
    }
    g.edit_with_delta(move |b| {
        for (kind, r1, r2, r3) in plan {
            let n = b.node_count();
            match kind {
                0 => {
                    let s = NodeId((r1 % n) as u32);
                    let d = NodeId((r2 % n) as u32);
                    b.add_edge_labeled(s, d, &format!("e{}", r3 % EDGE_LABELS));
                }
                1 => {
                    let s = NodeId((r1 % n) as u32);
                    let d = NodeId((r2 % n) as u32);
                    b.remove_edge_labeled(s, d, &format!("e{}", r3 % EDGE_LABELS));
                }
                2 => {
                    let u = b.add_node_labeled(&format!("l{}", r1 % NODE_LABELS));
                    if r2 % 2 == 0 {
                        let d = NodeId((r3 % n) as u32);
                        b.add_edge_labeled(u, d, &format!("e{}", r3 % EDGE_LABELS));
                    }
                }
                3 => {
                    let u = NodeId((r1 % n) as u32);
                    let l = b.vocab().intern(&format!("l{}", r2 % NODE_LABELS));
                    b.set_label(u, l);
                }
                _ => {
                    // Rewire in one delta: deletion + replacing insertion.
                    let s = NodeId((r1 % n) as u32);
                    let d = NodeId((r2 % n) as u32);
                    let d2 = NodeId(((r2 + 1) % n) as u32);
                    let e = format!("e{}", r3 % EDGE_LABELS);
                    b.remove_edge_labeled(s, d, &e);
                    b.add_edge_labeled(s, d2, &e);
                }
            }
        }
    })
}

#[test]
fn transported_spaces_equal_scratch_simulation() {
    check(
        "ClassRegistry view ≡ dual_simulation + brute force on the member",
        case_budget(40),
        |rng| {
            let g = random_graph(rng, 12);
            let base = random_pattern(rng, &g);
            let members: Vec<Pattern> = std::iter::once(base.clone())
                .chain((0..rng.gen_range(1..4)).map(|t| declaration_twin(rng, &base, t)))
                .collect();
            let reg = ClassRegistry::new();
            let mut scratch = MatchScratch::default();
            for (m, q) in members.iter().enumerate() {
                let view = reg.space(reg.register(q), &g);
                view_equals_scratch(&view, q, &g, &format!("member {m}"))
                    .and_then(|()| {
                        view_enumerates_the_member(rng, &view, q, &g, &mut scratch, "enumeration")
                    })
                    .map_err(|e| format!("{e}; base {base:?}; member {q:?}"))?;
            }
            if reg.simulations() != 1 {
                return Err(format!(
                    "{} simulations for one class of {} members",
                    reg.simulations(),
                    members.len()
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn repaired_representative_retransports_over_edit_scripts() {
    check(
        "ClassRegistry repair + view ≡ scratch over 50-step scripts",
        case_budget(16),
        |rng| {
            let mut g = random_graph(rng, 10);
            let base = random_pattern(rng, &g);
            let members: Vec<Pattern> = std::iter::once(base.clone())
                .chain((0..2).map(|t| declaration_twin(rng, &base, t)))
                .collect();
            let reg = ClassRegistry::new();
            let handles: Vec<_> = members.iter().map(|q| reg.register(q)).collect();
            for &h in &handles {
                reg.space(h, &g);
            }
            let mut scratch = MatchScratch::default();
            for step in 0..SCRIPT_STEPS {
                let (g2, delta) = random_edit(rng, &g);
                reg.advance(&g2, &delta, reg.version() + 1);
                for (m, (q, &h)) in members.iter().zip(&handles).enumerate() {
                    let view = reg.space(h, &g2);
                    let what = format!("step {step}, member {m}");
                    view_equals_scratch(&view, q, &g2, &what)
                        .and_then(|()| {
                            view_enumerates_the_member(rng, &view, q, &g2, &mut scratch, &what)
                        })
                        .map_err(|e| format!("{e}; delta {delta:?}; member {q:?}"))?;
                }
                g = g2;
            }
            if reg.simulations() != 1 {
                return Err(format!(
                    "repairs re-simulated: {} fixpoints",
                    reg.simulations()
                ));
            }
            Ok(())
        },
    );
}

/// The paged twin-view script. With `rewire` every step takes a
/// member's only support away and replaces it in the same delta (see
/// `common::rewire_edit`), alternately by another member and by a node
/// that enters with it; a relation with no such member, like every step
/// without `rewire`, gets an ordinary paged edit.
fn paged_views_script(name: &str, rewire: bool) {
    check(name, case_budget(8), |rng| {
        let mut g = common::paged_graph(rng);
        let base = common::paged_pattern(rng, &g);
        let members = [base.clone(), declaration_twin(rng, &base, 0)];
        let reg = ClassRegistry::new();
        let handles: Vec<_> = members.iter().map(|q| reg.register(q)).collect();
        // A reader pins each epoch's view across the next repair,
        // so every repair copies on write. The first member is the
        // representative: its view's space is in its own numbering.
        let mut held = reg.space(handles[0], &g);
        for step in 0..SCRIPT_STEPS {
            let rewired = match rewire {
                true => common::rewire_edit(rng, &g, &base, &held.space, step % 2 == 0),
                false => None,
            };
            let (g2, delta) = rewired.unwrap_or_else(|| common::paged_edit(rng, &g));
            reg.advance(&g2, &delta, reg.version() + 1);
            view_equals_scratch(&held, &members[0], &g, &format!("held at step {step}"))?;
            for (m, (q, &h)) in members.iter().zip(&handles).enumerate() {
                let view = reg.space(h, &g2);
                view_equals_scratch(&view, q, &g2, &format!("step {step}, member {m}"))
                    .map_err(|e| format!("{e}; delta {delta:?}; member {q:?}"))?;
            }
            held = reg.space(handles[0], &g2);
            g = g2;
        }
        if reg.simulations() != 1 {
            return Err(format!(
                "repairs re-simulated: {} fixpoints",
                reg.simulations()
            ));
        }
        Ok(())
    });
}

#[test]
fn repaired_views_equal_scratch_across_pages() {
    paged_views_script(
        "ClassRegistry repair + view ≡ scratch across run pages",
        false,
    );
}

#[test]
fn rewired_views_equal_scratch_across_pages() {
    paged_views_script(
        "ClassRegistry repair + view ≡ scratch when only supports are rewired",
        true,
    );
}
