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

use common::{oracle_matches, random_edit_of, random_graph, random_pattern, Edit};
use gfd_graph::{Graph, NodeId};
use gfd_match::simulation::dual_simulation;
use gfd_match::types::Flow;
use gfd_match::{for_each_match_in, ClassRegistry, ClassView, MatchOptions, MatchScratch};
use gfd_pattern::{PatLabel, Pattern, PatternBuilder, VarId};
use gfd_util::prop::{cases, check};
use gfd_util::Rng;

const SCRIPT_STEPS: usize = 50;

/// Every mutation kind but attribute writes, which a candidate space
/// never reads, in the order this suite's seed stream draws them.
const REGISTRY_EDITS: [Edit; 5] = [
    Edit::AddEdge,
    Edit::RemoveEdge,
    Edit::AddNode,
    Edit::Relabel,
    Edit::Rewire,
];

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

#[test]
fn transported_spaces_equal_scratch_simulation() {
    check(
        "ClassRegistry view ≡ dual_simulation + brute force on the member",
        cases(40, 5),
        |rng| {
            let g = random_graph(rng, 2..=12, 0..=3);
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
        cases(16, 2),
        |rng| {
            let mut g = random_graph(rng, 2..=10, 0..=3);
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
                let (g2, delta) = random_edit_of(rng, &g, &REGISTRY_EDITS);
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
    check(name, cases(8, 2), |rng| {
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
