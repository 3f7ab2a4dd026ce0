//! Top-level matching API over full (possibly disconnected) patterns.
//!
//! Enumeration is filter-and-refine, and every connected component is
//! enumerated by the one recursion in [`crate::component`], which
//! orders every search itself. The one full-form entry point,
//! [`for_each_match_with`], only decides that recursion's **pool
//! source**: a caller-supplied [`CandidateSpace`] (the registry's,
//! maintained across edits) selects space mode; without one, the
//! size-gated rule below decides per component whether to compute the
//! filter via [`dual_simulation`] (which either proves the component
//! matchless or hands the refiner its pruned space) or to search the
//! raw CSR.
//!
//! A pin is a node-id interval on one variable ([`Pin`]); a
//! disconnected pattern hands each component the pins on its own
//! variables ([`Pin::restrict`]).
//!
//! Connected patterns stream their matches straight to the callback;
//! only genuinely disconnected patterns buffer per-component matches
//! for the disjointness join. [`for_each_match`], [`count_matches`],
//! [`find_matches`] and [`has_match`] are one-line wrappers, and
//! [`count_matches_with`] counts the rows [`for_each_match_with`]
//! streams; a
//! caller-owned [`MatchScratch`] makes repeated calls allocation-free
//! in steady state. [`for_each_match_in`] is the streaming form for a
//! [`ClassRegistry`](crate::registry::ClassRegistry) member: it
//! enumerates the class representative and translates pins and rows
//! through the member's permutation.

use gfd_graph::{Graph, NodeId};
use gfd_pattern::{signature::decompose, PatLabel, Pattern};

use crate::component::{ComponentSearch, SearchScratch, StopReason};
use crate::join::{join_tables, JoinScratch};
use crate::registry::{rep_var, ClassView};
use crate::simulation::{dual_simulation, CandidateSpace};
use crate::table::MatchTable;
use crate::types::{Flow, Match, MatchOptions, Pin};

/// Caller-owned reusable buffers for the matching API: the
/// enumerator's [`SearchScratch`], the disconnected-pattern join
/// state, and the pin and row buffers of [`for_each_match_in`]'s
/// variable translation. A fresh default is always valid; keeping one
/// alive across calls removes the per-call heap traffic of
/// `for_each_match`/`count_matches`.
#[derive(Default)]
pub struct MatchScratch {
    search: SearchScratch,
    join: JoinScratch,
    tables: Vec<MatchTable>,
    rep_pins: Vec<Pin>,
    member_row: Vec<NodeId>,
}

/// Outcome of a streaming enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnumOutcome {
    /// All matches were visited.
    Complete,
    /// Stopped early: by callback or step budget.
    Stopped(StopReason),
}

impl From<StopReason> for EnumOutcome {
    fn from(reason: StopReason) -> Self {
        match reason {
            StopReason::Exhausted => EnumOutcome::Complete,
            reason => EnumOutcome::Stopped(reason),
        }
    }
}

/// Smallest seed pool at which the per-call filter turns simulation
/// on: below this, a raw scan is cheaper than computing the filter.
///
/// Measured on the mined-rule corpus after pools moved to
/// `CandidateSpace`: the filter's payoff is proving components
/// *matchless* before enumeration — on matchable cyclic components it
/// is overhead at every pool size, so the corpus-level winner is flat
/// for thresholds 128–1024 (filtered ≈ unfiltered within noise,
/// filtered ahead when empty components occur) and distinctly worse at
/// 32 (~25% slower on 3-node rules). 128 is the start of that plateau;
/// keep it.
const SIM_AUTO_MIN_POOL: usize = 128;

/// The one size gate on simulation: filter a connected component when
/// it is *cyclic* (edges ≥ nodes — includes parallel-edge
/// multi-constraints) and its cheapest entry pool holds at least
/// `SIM_AUTO_MIN_POOL` (128) nodes, so the filter pays for itself. On
/// trees the raw search already expands only adjacency intersections,
/// and measured mined-rule workloads run faster unfiltered; cycles are
/// where simulation prunes what backtracking discovers late.
///
/// The per-call filter of [`for_each_match_with`] reads it, and so
/// does `detVio`, to decide per part whether to enumerate in the
/// part's registry class space or to search the raw CSR. A caller who
/// wants the filter regardless passes a space.
pub fn auto_simulate(cq: &Pattern, g: &Graph) -> bool {
    if cq.edge_count() < cq.node_count() {
        return false;
    }
    let pool = |v| match cq.label(v) {
        PatLabel::Sym(s) => g.extent(s).len(),
        PatLabel::Wildcard => g.node_count(),
    };
    cq.vars().map(pool).min().unwrap_or(0) >= SIM_AUTO_MIN_POOL
}

/// Computes a connected component's own candidate space when
/// [`auto_simulate`] asks for the filter; `None` means "search raw".
fn filter_component(cq: &Pattern, g: &Graph) -> Option<CandidateSpace> {
    auto_simulate(cq, g).then(|| dual_simulation(cq, g, None))
}

/// Enumerates matches of `q` in `g`, calling `f` for each match
/// `h(x̄)` (node images indexed by variable id). Respects pins and
/// budget from `opts`.
pub fn for_each_match(
    q: &Pattern,
    g: &Graph,
    opts: &MatchOptions,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> EnumOutcome {
    for_each_match_with(q, g, opts, None, &mut MatchScratch::default(), f)
}

/// The full form of [`for_each_match`]: caller-owned scratch buffers —
/// repeated calls (detection loops, benchmarks) reuse every pool,
/// table and join arena — and, optionally, a candidate space for a
/// *connected* `q` (what `ClassRegistry::space` hands out for its class
/// representative, maintained across graph edits) instead of the
/// per-call filter. Disconnected patterns ignore
/// `space`: it indexes full-pattern variables, which the per-component
/// searches cannot consume.
pub fn for_each_match_with(
    q: &Pattern,
    g: &Graph,
    opts: &MatchOptions,
    space: Option<&CandidateSpace>,
    scratch: &mut MatchScratch,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> EnumOutcome {
    enumerate(q, g, opts, &opts.pins, space, scratch, f).into()
}

/// [`for_each_match_with`] for a registry member: enumerates the
/// class **representative** in the class's space — the one translation
/// point between member and representative variable numbering. The
/// caller's pins (member variables) are mapped through the view's
/// permutation, and each row reaches `f` permuted back into member
/// order through one buffer kept in `scratch`. An identity member calls
/// straight through.
pub fn for_each_match_in(
    view: &ClassView,
    g: &Graph,
    opts: &MatchOptions,
    scratch: &mut MatchScratch,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> EnumOutcome {
    let space = Some(&*view.space);
    let Some(perm) = view.perm.as_deref() else {
        return for_each_match_with(&view.rep, g, opts, space, scratch, f);
    };
    let mut pins = std::mem::take(&mut scratch.rep_pins);
    pins.clear();
    pins.extend(opts.pins.iter().map(|&pin| Pin {
        var: rep_var(Some(perm), pin.var),
        ..pin
    }));
    let mut row = std::mem::take(&mut scratch.member_row);
    row.clear();
    row.resize(perm.len(), NodeId(0));
    let reason = enumerate(&view.rep, g, opts, &pins, space, scratch, &mut |m| {
        for (image, &p) in row.iter_mut().zip(perm) {
            *image = m[p as usize];
        }
        f(&row)
    });
    scratch.rep_pins = pins;
    scratch.member_row = row;
    reason.into()
}

/// [`for_each_match_with`] with the pins passed beside `opts` (whose
/// own are ignored): pins and the step budget are honored here, for
/// every path below.
fn enumerate(
    q: &Pattern,
    g: &Graph,
    opts: &MatchOptions,
    pins: &[Pin],
    space: Option<&CandidateSpace>,
    scratch: &mut MatchScratch,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> StopReason {
    debug_assert!(
        std::sync::Arc::ptr_eq(q.vocab(), g.vocab()),
        "pattern and graph must share a vocabulary"
    );
    if q.node_count() == 0 {
        return StopReason::Exhausted; // the empty pattern has no matches
    }
    let step_cap = opts.budget.max_steps.unwrap_or(u64::MAX);

    // A connected pattern streams matches straight from the component
    // search — no buffering, no join, and (unlike `decompose`) no
    // pattern clone to check.
    if q.is_connected() {
        let own = match space {
            Some(_) => None,
            None => filter_component(q, g),
        };
        let space = space.or(own.as_ref());
        let mut search = component_search(q, g, pins, space, step_cap, &mut scratch.search);
        let reason = search.for_each(f);
        scratch.search = search.into_scratch();
        return reason;
    }

    // Disconnected: enumerate matches per component (mapping pins into
    // local vars) into flat tables, then join under global injectivity
    // — the buffer is one scratch arena per component, not one `Vec`
    // per match.
    let parts = decompose(q);
    let mut steps_left = step_cap;
    let MatchScratch {
        search,
        join,
        tables,
        ..
    } = scratch;
    if tables.len() < parts.len() {
        tables.resize_with(parts.len(), MatchTable::default);
    }
    let mut local_pins = Vec::new();
    for ((cq, orig_vars), table) in parts.iter().zip(tables.iter_mut()) {
        let own = filter_component(cq, g);
        Pin::restrict(pins, orig_vars, &mut local_pins);
        table.reset(cq.node_count());
        let mut part = component_search(cq, g, &local_pins, own.as_ref(), steps_left, search);
        let reason = part.collect_into(table);
        steps_left = steps_left.saturating_sub(part.steps());
        *search = part.into_scratch();
        if reason == StopReason::BudgetExhausted {
            return reason;
        }
        if table.is_empty() {
            return StopReason::Exhausted; // no match of this component → none of Q
        }
    }
    let tables = &tables[..parts.len()];
    if join_tables(&parts, tables, q.node_count(), None, join, f) {
        StopReason::Exhausted
    } else {
        StopReason::CallbackBreak
    }
}

/// Configures the one enumerator for a connected component with the
/// inputs the caller resolved: pins in the component's own variable
/// ids, the pool source (`space`), and the step budget. The
/// scratch is adopted; recover it with `into_scratch`.
fn component_search<'a>(
    cq: &'a Pattern,
    g: &'a Graph,
    pins: &'a [Pin],
    space: Option<&'a CandidateSpace>,
    max_steps: u64,
    scratch: &mut SearchScratch,
) -> ComponentSearch<'a> {
    let mut search = ComponentSearch::new(cq, g)
        .with_scratch(std::mem::take(scratch))
        .pins(pins)
        .max_steps(max_steps);
    if let Some(cs) = space {
        search = search.candidate_space(cs);
    }
    search
}

/// Collects all matches (subject to `opts.budget`).
pub fn find_matches(q: &Pattern, g: &Graph, opts: &MatchOptions) -> Vec<Match> {
    let mut out = Vec::new();
    for_each_match(q, g, opts, &mut |m| {
        out.push(Match(m.to_vec()));
        Flow::Continue
    });
    out
}

/// Counts matches (subject to `opts.budget`).
pub fn count_matches(q: &Pattern, g: &Graph, opts: &MatchOptions) -> usize {
    count_matches_with(q, g, opts, None, &mut MatchScratch::default())
}

/// The full form of [`count_matches`]: counts the rows that
/// [`for_each_match_with`], the one full form, streams under the same
/// `space` and `scratch` contract.
pub fn count_matches_with(
    q: &Pattern,
    g: &Graph,
    opts: &MatchOptions,
    space: Option<&CandidateSpace>,
    scratch: &mut MatchScratch,
) -> usize {
    let mut n = 0usize;
    for_each_match_with(q, g, opts, space, scratch, &mut |_| {
        n += 1;
        Flow::Continue
    });
    n
}

/// True if at least one match exists.
pub fn has_match(q: &Pattern, g: &Graph, opts: &MatchOptions) -> bool {
    let mut found = false;
    for_each_match(q, g, opts, &mut |_| {
        found = true;
        Flow::Break
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{Value, Vocab};
    use gfd_pattern::PatternBuilder;

    /// G1 of Fig. 1: two flight entities with equal ids but different
    /// destinations.
    fn flights() -> (Graph, [NodeId; 2]) {
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
            b.set_attr_named(idn, "val", Value::str(id));
            b.set_attr_named(fr, "val", Value::str(from));
            b.set_attr_named(tn, "val", Value::str(to));
            b.set_attr_named(dp, "val", Value::str("14:50"));
            b.set_attr_named(ar, "val", Value::str("22:35"));
            f
        };
        let f1 = mk("DL1", "Paris", "NYC");
        let f2 = mk("DL1", "Paris", "Singapore");
        (b.freeze(), [f1, f2])
    }

    /// Q1 of Fig. 2 (two disconnected flight stars).
    fn q1(vocab: std::sync::Arc<Vocab>) -> Pattern {
        let mut b = PatternBuilder::new(vocab);
        for side in ["x", "y"] {
            let hub = b.node(side, "flight");
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
        }
        b.build()
    }

    /// The Auto gate, on both sides of each half of its conjunction
    /// (cyclic component ∧ smallest pool ≥ `SIM_AUTO_MIN_POOL`).
    #[test]
    fn auto_gate_boundary() {
        // A graph with exactly SIM_AUTO_MIN_POOL "big" nodes and one
        // "small" node, all wired into e-cycles.
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let big: Vec<NodeId> = (0..SIM_AUTO_MIN_POOL)
            .map(|_| b.add_node_labeled("big"))
            .collect();
        for w in big.windows(2) {
            b.add_edge_labeled(w[0], w[1], "e");
        }
        b.add_edge_labeled(*big.last().unwrap(), big[0], "e");
        let small = b.add_node_labeled("small");
        b.add_edge_labeled(small, big[0], "e");
        b.add_edge_labeled(big[0], small, "e");
        let g = b.freeze();

        let cyclic = |labels: [&str; 2]| {
            let mut pb = PatternBuilder::new(g.vocab().clone());
            let x = pb.node("x", labels[0]);
            let y = pb.node("y", labels[1]);
            pb.edge(x, y, "e");
            pb.edge(y, x, "e");
            pb.build()
        };
        // Cyclic + every pool at the threshold: filter on.
        assert!(auto_simulate(&cyclic(["big", "big"]), &g));
        // Cyclic, but the cheapest pool (1 < threshold): filter off.
        assert!(!auto_simulate(&cyclic(["big", "small"]), &g));

        // Acyclic (tree) with huge pools: filter off.
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.node("x", "big");
        let y = pb.node("y", "big");
        pb.edge(x, y, "e");
        let tree = pb.build();
        assert!(!auto_simulate(&tree, &g));

        // Wildcard pools are the whole graph, and pins do not shrink
        // them: a pinned search still runs behind the filter and finds
        // the one two-cycle through `small`.
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.wildcard_node("x");
        let y = pb.wildcard_node("y");
        pb.wildcard_edge(x, y);
        pb.wildcard_edge(y, x);
        let wild = pb.build();
        assert!(auto_simulate(&wild, &g));
        let pinned = find_matches(&wild, &g, &MatchOptions::unrestricted().pin(x, small));
        assert_eq!(pinned, vec![Match(vec![small, big[0]])]);
    }

    #[test]
    fn disconnected_pattern_matches_across_entities() {
        let (g, [f1, f2]) = flights();
        let q = q1(g.vocab().clone());
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let ms = find_matches(&q, &g, &MatchOptions::unrestricted());
        // x and y each range over the two flights, disjointly: 2 matches.
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert_ne!(m.get(x), m.get(y));
            assert!([f1, f2].contains(&m.get(x)));
        }
    }

    #[test]
    fn pinned_disconnected_pattern() {
        let (g, [f1, f2]) = flights();
        let q = q1(g.vocab().clone());
        let x = q.var_by_name("x").unwrap();
        let ms = find_matches(&q, &g, &MatchOptions::unrestricted().pin(x, f1));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].get(x), f1);
        assert_eq!(ms[0].get(q.var_by_name("y").unwrap()), f2);
    }

    #[test]
    fn count_and_has_match_agree() {
        let (g, _) = flights();
        let q = q1(g.vocab().clone());
        assert_eq!(count_matches(&q, &g, &MatchOptions::unrestricted()), 2);
        assert!(has_match(&q, &g, &MatchOptions::unrestricted()));
    }

    #[test]
    fn no_match_when_pattern_absent() {
        // Q2 (country with two capitals) has no match in the flights graph.
        let (g, _) = flights();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "country");
        let y = b.node("y", "city");
        let z = b.node("z", "city");
        b.edge(x, y, "capital");
        b.edge(x, z, "capital");
        let q2 = b.build();
        assert!(!has_match(&q2, &g, &MatchOptions::unrestricted()));
        assert_eq!(count_matches(&q2, &g, &MatchOptions::unrestricted()), 0);
    }

    #[test]
    fn single_node_pattern_matches_extent() {
        let (g, _) = flights();
        let mut b = PatternBuilder::new(g.vocab().clone());
        b.node("x", "city");
        let q = b.build();
        assert_eq!(count_matches(&q, &g, &MatchOptions::unrestricted()), 4);
    }
}
