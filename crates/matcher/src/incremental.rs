//! Incremental maintenance of a [`CandidateSpace`] under graph edits.
//!
//! `Graph::thaw`/`edit` used to invalidate every simulation result:
//! each edit recomputed dual simulation from scratch even when it
//! touched one edge. The worklist fixpoint's per-edge support counters
//! (see [`crate::simulation::SimCore`]) are exactly the bookkeeping an
//! incremental algorithm needs, so [`IncrementalSpace`] keeps them
//! alive across edits and *repairs* the relation against a recorded
//! [`GraphDelta`] instead:
//!
//! * **deletions** drive the existing worklist — each removed graph
//!   edge decrements the support counters of its (pattern-edge,
//!   endpoint) pairs, and a counter hitting zero cascades through
//!   [`SimCore::drain`] in `O(affected)`, exactly like a from-scratch
//!   removal;
//! * **insertions** (and relabelings/new nodes) can only *grow* the
//!   relation — dual simulation is monotone in the edge set. Every
//!   pair that can newly enter the relation is product-reachable from
//!   a delta site, so the repair re-admits an optimistic *frontier*
//!   (a BFS over seed-admissible non-members starting at the touched
//!   label extents), recomputes support only for the frontier, and
//!   lets the same worklist prune the over-approximation back to the
//!   maximal fixpoint.
//!
//! With the relation settled, the packaged [`CandidateSpace`] is
//! *patched*, never rebuilt: the sorted candidate sets are merged in
//! place, and the candidate adjacency — runs keyed by node id in
//! 64-node pages, see [`crate::simulation`] — receives one run edit per
//! thing the repair already knows changed. An added or removed graph
//! edge between two members inserts or removes one target in one
//! forward and one reverse run (under a wildcard pattern edge a
//! parallel edge with another label keeps the target); a pair that
//! entered or left the relation gains or loses its own run on every
//! pattern edge at its variable, and its node enters or leaves the
//! runs of its member neighbors. Each edit writes the one page it
//! touches — in place when the page's cells have no other holder, in a
//! private copy of that page otherwise — and the working storage lives
//! in a scratch struct the space keeps between calls, so a repair costs
//! the runs the delta moved (nothing from the allocator once the
//! touched pages have grown), and a reader holding the pre-repair
//! `Arc<CandidateSpace>` forces a copy of the sets, the page
//! directories and the edited pages, not of the space.
//!
//! The repaired space is *identical* to `dual_simulation` on the
//! edited graph (the oracle property tests in
//! `crates/matcher/tests/prop_incremental.rs` replay random 50-step
//! edit scripts against the from-scratch result, on one-page graphs
//! and on graphs that cross pages), but the work done is proportional
//! to the affected neighborhood — the update-time discipline of
//! Berkholz et al.'s FO-query maintenance under updates, made
//! addressable here by CSR label extents, the counters and id-keyed
//! run pages.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use gfd_graph::{Edge, Graph, GraphDelta, NodeId, NodeSet};
use gfd_pattern::{PatLabel, Pattern, VarId};

use crate::simulation::{
    admitted_in, admitted_out, harvest_space, simulate_core, surviving_targets, CandidateSpace,
    Direction, EdgeCandidates, SimCore,
};

/// What one [`IncrementalSpace::apply`] changed in the relation.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Pairs `(var, node)` that entered the relation.
    pub added: Vec<(VarId, NodeId)>,
    /// Pairs `(var, node)` that left the relation.
    pub removed: Vec<(VarId, NodeId)>,
    /// True when some run of the per-pattern-edge candidate adjacency
    /// was edited — runs can move even when no pair entered or left
    /// the relation (e.g. a new graph edge between two surviving
    /// candidates). Consumers that derive from the *full* space (the
    /// tables and factorizations of `gfd_match::ClassRegistry`) must
    /// refresh on this; consumers that only read candidate sets (pivot
    /// feasibility) can key off [`is_unchanged`](Self::is_unchanged).
    pub adjacency_changed: bool,
}

impl RepairReport {
    /// True if the repair left every candidate set unchanged.
    pub fn is_unchanged(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A [`CandidateSpace`] that stays valid across graph edits: the
/// worklist state survives between calls, and [`apply`] repairs it
/// against a [`GraphDelta`] in time proportional to the affected
/// neighborhood.
///
/// ```
/// use gfd_graph::GraphBuilder;
/// use gfd_match::{dual_simulation, IncrementalSpace};
/// use gfd_pattern::PatternBuilder;
///
/// let mut b = GraphBuilder::with_fresh_vocab();
/// let a = b.add_node_labeled("a");
/// let c = b.add_node_labeled("b");
/// b.add_edge_labeled(a, c, "e");
/// let g = b.freeze();
/// let mut p = PatternBuilder::new(g.vocab().clone());
/// let x = p.node("x", "a");
/// let y = p.node("y", "b");
/// p.edge(x, y, "e");
/// let q = p.build();
///
/// let mut inc = IncrementalSpace::new(&q, &g, None);
/// let (g2, delta) = g.edit_with_delta(|b| {
///     b.remove_edge_labeled(a, c, "e");
/// });
/// inc.apply(&g2, &delta);
/// assert_eq!(inc.space().sets, dual_simulation(&q, &g2, None).sets);
/// ```
///
/// [`apply`]: IncrementalSpace::apply
pub struct IncrementalSpace {
    q: Pattern,
    scope: Option<NodeSet>,
    core: SimCore,
    /// The space behind an `Arc`, so registry consumers can hold the
    /// current snapshot across later repairs: a repair goes through
    /// [`Arc::make_mut`], which repairs in place when nobody else
    /// holds the `Arc`; when someone does it copies the candidate sets
    /// and the page directories, and then only the run pages it edits
    /// — a held snapshot never mutates under its reader.
    space: Arc<CandidateSpace>,
    scratch: RepairScratch,
}

/// The working storage of one repair, kept across calls (cleared, not
/// reallocated): a warm repair that moves no set requests no memory.
#[derive(Default)]
struct RepairScratch {
    /// The re-admission frontier as a set, for `is_tent` probes.
    tent: HashSet<(u32, u32)>,
    tqueue: VecDeque<(VarId, NodeId)>,
    /// The frontier in BFS order.
    tentative: Vec<(VarId, NodeId)>,
    /// Members a relabeling no longer seeds.
    forced: Vec<(VarId, NodeId)>,
    /// Members whose support a deletion zeroed.
    pending: Vec<(VarId, NodeId)>,
    removed_pairs: Vec<(VarId, NodeId)>,
    /// Per variable: nodes that entered its set, and whether any left.
    added_by_var: Vec<Vec<NodeId>>,
    lost_any: Vec<bool>,
    /// One freshly built run.
    run: Vec<NodeId>,
}

impl RepairScratch {
    fn clear(&mut self, nvars: usize) {
        self.tent.clear();
        self.tqueue.clear();
        self.tentative.clear();
        self.forced.clear();
        self.pending.clear();
        self.removed_pairs.clear();
        self.added_by_var.resize_with(nvars, Vec::new);
        self.added_by_var.iter_mut().for_each(Vec::clear);
        self.lost_any.clear();
        self.lost_any.resize(nvars, false);
    }

    /// Admits `(v, u)` into the tentative frontier if it is a
    /// seed-admissible non-member not yet enqueued.
    fn consider(
        &mut self,
        q: &Pattern,
        g: &Graph,
        scope: Option<&NodeSet>,
        member: &[Vec<bool>],
        v: VarId,
        u: NodeId,
    ) {
        if member[v.index()][u.index()]
            || !q.label(v).admits(g.label(u))
            || scope.is_some_and(|r| !r.contains(u))
        {
            return;
        }
        if self.tent.insert((v.0, u.0)) {
            self.tqueue.push_back((v, u));
        }
    }

    fn is_tent(&self, v: VarId, u: NodeId) -> bool {
        self.tent.contains(&(v.0, u.0))
    }
}

/// Drops from the ascending `set` what `keep` rejects and merges the
/// ascending `adds` in, in place.
fn merge_set(set: &mut Vec<NodeId>, adds: &[NodeId], keep: impl Fn(NodeId) -> bool) {
    set.retain(|&u| keep(u));
    let mut i = set.len();
    let mut j = adds.len();
    set.resize(i + j, NodeId(0));
    // Back to front: the write position never overtakes the unread
    // part of the old set.
    for w in (0..i + j).rev() {
        if j == 0 {
            break; // the rest of the old set is already in place
        }
        if i == 0 || adds[j - 1] > set[i - 1] {
            j -= 1;
            set[w] = adds[j];
        } else {
            i -= 1;
            set[w] = set[i];
        }
    }
}

/// Drops the run of `u` from `own` and `u` from the runs of `mirror`
/// (the same pattern edge read the other way) that list it — exactly
/// the owners of the targets of `u`'s run.
fn drop_run(own: &mut EdgeCandidates, mirror: &mut EdgeCandidates, u: NodeId) {
    for &w in own.run(u) {
        mirror.remove_target(w, u);
    }
    own.remove_run(u);
}

/// Gives `u` the run `run` in `own` and lists `u` in the mirrored run
/// of every target that has one.
fn add_run(own: &mut EdgeCandidates, mirror: &mut EdgeCandidates, u: NodeId, run: &[NodeId]) {
    own.insert_run(u, run);
    for &w in run {
        mirror.insert_target(w, u);
    }
}

/// True if the removed graph edge `e` no longer supports pattern label
/// `label` between its endpoints in the new snapshot `g`: always for a
/// labeled pattern edge, and for a wildcard one unless a parallel edge
/// under another label remains.
fn edge_gone(g: &Graph, e: &Edge, label: PatLabel) -> bool {
    !(matches!(label, PatLabel::Wildcard) && g.has_edge_any(e.src, e.dst))
}

impl IncrementalSpace {
    /// Runs the from-scratch fixpoint once, retaining the worklist
    /// state for later repairs. `scope` (block-/fragment-local
    /// simulation) is fixed for the lifetime of the space.
    pub fn new(q: &Pattern, g: &Graph, scope: Option<&NodeSet>) -> Self {
        let (core, sets) = simulate_core(q, g, scope);
        let space = harvest_space(q, g, &core, sets);
        IncrementalSpace {
            q: q.clone(),
            scope: scope.cloned(),
            core,
            space: Arc::new(space),
            scratch: RepairScratch::default(),
        }
    }

    /// The pattern this space simulates.
    pub fn pattern(&self) -> &Pattern {
        &self.q
    }

    /// The current (repaired) candidate space.
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// The current space as a shared handle: the returned `Arc` stays
    /// valid (and immutable) across later repairs — a repair that
    /// finds the `Arc` shared copies-on-write instead of mutating the
    /// held snapshot.
    pub fn space_arc(&self) -> Arc<CandidateSpace> {
        Arc::clone(&self.space)
    }

    /// The shared space handle by reference, for refcount probes (the
    /// registry's pin-aware eviction).
    pub(crate) fn space_arc_ref(&self) -> &Arc<CandidateSpace> {
        &self.space
    }

    /// True if `u` currently simulates `v`.
    pub fn contains(&self, v: VarId, u: NodeId) -> bool {
        self.space.sets[v.index()].binary_search(&u).is_ok()
    }

    /// Repairs the relation against `delta`, where `g` is the edited
    /// snapshot and `delta` the recorded difference from the snapshot
    /// this space was last synchronized with. Normalizes the delta
    /// first; callers that already hold a normalized delta (anything
    /// produced by
    /// [`Graph::edit_with_delta`](gfd_graph::Graph::edit_with_delta)
    /// or [`GraphDelta::normalize`]) should use
    /// [`apply_normalized`](IncrementalSpace::apply_normalized) and
    /// skip the re-normalization clone. Returns which pairs
    /// entered/left the relation.
    pub fn apply(&mut self, g: &Graph, delta: &GraphDelta) -> RepairReport {
        self.apply_normalized(g, &delta.clone().normalize())
    }

    /// [`apply`](IncrementalSpace::apply) for a delta that is already
    /// in normalized form — the counter arithmetic relies on the
    /// normalization invariants (net edge ops, coalesced label
    /// changes), so passing a raw mutation log here corrupts the
    /// relation.
    pub fn apply_normalized(&mut self, g: &Graph, d: &GraphDelta) -> RepairReport {
        let Self {
            ref q,
            ref scope,
            ref mut core,
            space: ref mut space_arc,
            scratch: ref mut sc,
        } = *self;
        // In-place repair when nobody shares the space; copy-on-write
        // (sets, directories, then only the edited pages) when a
        // consumer still holds the pre-repair snapshot.
        let space = Arc::make_mut(space_arc);
        let scope = scope.as_ref();
        let nnodes = g.node_count();
        let nvars = q.node_count();
        sc.clear(nvars);

        // Phase 0 — make room for nodes added at the end of the id
        // space (ids are stable across refreeze).
        for row in &mut core.member {
            row.resize(nnodes, false);
        }
        for row in core.fwd.iter_mut().chain(core.bwd.iter_mut()) {
            row.resize(nnodes, 0);
        }
        for adj in space.forward.iter_mut().chain(space.reverse.iter_mut()) {
            adj.grow(nnodes);
        }

        // Phase 1 — optimistic re-admission frontier: every pair that
        // can newly enter the (monotone-growing) relation is product-
        // reachable from an insertion site, so BFS from those sites
        // over seed-admissible non-members.
        for &(u, _) in &d.added_nodes {
            for v in q.vars() {
                sc.consider(q, g, scope, &core.member, v, u);
            }
        }
        for c in &d.label_changes {
            for v in q.vars() {
                if core.member[v.index()][c.node.index()] {
                    if !q.label(v).admits(c.new) {
                        // The relabeled node no longer seeds v.
                        sc.forced.push((v, c.node));
                    }
                } else {
                    sc.consider(q, g, scope, &core.member, v, c.node);
                }
            }
        }
        for e in &d.added_edges {
            for pe in q.edges() {
                if pe.label.admits(e.label) {
                    sc.consider(q, g, scope, &core.member, pe.src, e.src);
                    sc.consider(q, g, scope, &core.member, pe.dst, e.dst);
                }
            }
        }
        while let Some((v, u)) = sc.tqueue.pop_front() {
            sc.tentative.push((v, u));
            for pe in q.edges() {
                if pe.dst == v {
                    for a in admitted_in(g, u, pe.label) {
                        sc.consider(q, g, scope, &core.member, pe.src, a.node);
                    }
                }
                if pe.src == v {
                    for a in admitted_out(g, u, pe.label) {
                        sc.consider(q, g, scope, &core.member, pe.dst, a.node);
                    }
                }
            }
        }

        // Phase 2 — deletions: decrement support of the (still
        // pre-commit) members on both sides of each removed edge.
        // Removals are only *collected* here; flags flip after every
        // counter is settled, so later drain decrements stay exact.
        for e in &d.removed_edges {
            for (ei, pe) in q.edges().iter().enumerate() {
                if pe.label.admits(e.label)
                    && core.member[pe.src.index()][e.src.index()]
                    && core.member[pe.dst.index()][e.dst.index()]
                {
                    let c = &mut core.fwd[ei][e.src.index()];
                    debug_assert!(*c > 0, "deleted edge was not counted (fwd)");
                    *c -= 1;
                    if *c == 0 {
                        sc.pending.push((pe.src, e.src));
                    }
                    let c = &mut core.bwd[ei][e.dst.index()];
                    debug_assert!(*c > 0, "deleted edge was not counted (bwd)");
                    *c -= 1;
                    if *c == 0 {
                        sc.pending.push((pe.dst, e.dst));
                    }
                }
            }
        }

        // Phase 3 — commit the frontier, then restore the counter
        // invariant for the enlarged membership: frontier pairs get
        // fresh counts over the edited graph; surviving old members
        // adjacent to the frontier (or to an inserted edge) gain the
        // new support units.
        for &(v, u) in &sc.tentative {
            core.member[v.index()][u.index()] = true;
        }
        for &(v, u) in &sc.tentative {
            for (ei, pe) in q.edges().iter().enumerate() {
                if pe.src == v {
                    core.fwd[ei][u.index()] = admitted_out(g, u, pe.label)
                        .iter()
                        .filter(|a| core.member[pe.dst.index()][a.node.index()])
                        .count() as u32;
                }
                if pe.dst == v {
                    core.bwd[ei][u.index()] = admitted_in(g, u, pe.label)
                        .iter()
                        .filter(|a| core.member[pe.src.index()][a.node.index()])
                        .count() as u32;
                }
            }
        }
        for e in &d.added_edges {
            for (ei, pe) in q.edges().iter().enumerate() {
                if pe.label.admits(e.label)
                    && core.member[pe.src.index()][e.src.index()]
                    && !sc.is_tent(pe.src, e.src)
                    && core.member[pe.dst.index()][e.dst.index()]
                    && !sc.is_tent(pe.dst, e.dst)
                {
                    core.fwd[ei][e.src.index()] += 1;
                    core.bwd[ei][e.dst.index()] += 1;
                }
            }
        }
        for &(v, u) in &sc.tentative {
            for (ei, pe) in q.edges().iter().enumerate() {
                if pe.dst == v {
                    for a in admitted_in(g, u, pe.label) {
                        let t = a.node;
                        if core.member[pe.src.index()][t.index()] && !sc.is_tent(pe.src, t) {
                            core.fwd[ei][t.index()] += 1;
                        }
                    }
                }
                if pe.src == v {
                    for a in admitted_out(g, u, pe.label) {
                        let w = a.node;
                        if core.member[pe.dst.index()][w.index()] && !sc.is_tent(pe.dst, w) {
                            core.bwd[ei][w.index()] += 1;
                        }
                    }
                }
            }
        }

        // Phase 4 — schedule every removal (flags flip here, after all
        // counters are consistent) and drain the worklist to fixpoint.
        for &(v, u) in &sc.forced {
            core.remove(v, u);
        }
        // Pending pairs zeroed by a deletion may have been *restored*
        // by a same-delta insertion in phase 3 (the rewire shape:
        // remove a node's only support edge, add a replacement), so
        // they — like the frontier — are removed only if some incident
        // edge still has no support against the settled counters.
        for &(v, u) in sc.pending.iter().chain(&sc.tentative) {
            for (ei, pe) in q.edges().iter().enumerate() {
                if (pe.src == v && core.fwd[ei][u.index()] == 0)
                    || (pe.dst == v && core.bwd[ei][u.index()] == 0)
                {
                    core.remove(v, u);
                    break;
                }
            }
        }
        core.drain(q, g, Some(&mut sc.removed_pairs));

        // Phase 5 — repair the sorted candidate sets in place.
        let mut report = RepairReport::default();
        for &(v, u) in &sc.tentative {
            if core.member[v.index()][u.index()] {
                sc.added_by_var[v.index()].push(u);
                report.added.push((v, u));
            }
        }
        for &(v, u) in &sc.removed_pairs {
            if !sc.is_tent(v, u) {
                // Frontier pairs that failed the fixpoint were never
                // visible; only old members count as removed.
                sc.lost_any[v.index()] = true;
                report.removed.push((v, u));
            }
        }
        for v in 0..nvars {
            let adds = &mut sc.added_by_var[v];
            if sc.lost_any[v] || !adds.is_empty() {
                adds.sort_unstable();
                merge_set(&mut space.sets[v], adds, |u| core.member[v][u.index()]);
            }
        }

        // Phase 6 — edit the candidate adjacency run by run. A run
        // lists exactly the neighbors whose mirrored run lists its
        // owner, every edit is a no-op when already in effect or when
        // the run it names does not exist (yet, or any more), and runs
        // of entering pairs are read off the new snapshot under the
        // new membership — so the edits below commute.
        let mut changed = false;
        // A pair that left: its own run goes on every pattern edge at
        // the variable, and its node leaves the mirrored runs.
        for &(v, u) in &report.removed {
            for (ei, pe) in q.edges().iter().enumerate() {
                let (fwd, rev) = (&mut space.forward[ei], &mut space.reverse[ei]);
                if pe.src == v {
                    drop_run(fwd, rev, u);
                    changed = true;
                }
                if pe.dst == v {
                    drop_run(rev, fwd, u);
                    changed = true;
                }
            }
        }
        // A removed graph edge between two members leaves one forward
        // and one reverse run.
        for e in &d.removed_edges {
            for (ei, pe) in q.edges().iter().enumerate() {
                if pe.label.admits(e.label) && edge_gone(g, e, pe.label) {
                    changed |= space.forward[ei].remove_target(e.src, e.dst);
                    space.reverse[ei].remove_target(e.dst, e.src);
                }
            }
        }
        // A pair that entered: its own run on every pattern edge at
        // the variable, and its node enters the mirrored runs.
        for &(v, u) in &report.added {
            for (ei, pe) in q.edges().iter().enumerate() {
                let (fwd, rev) = (&mut space.forward[ei], &mut space.reverse[ei]);
                if pe.src == v {
                    sc.run.clear();
                    let targets = &core.member[pe.dst.index()];
                    surviving_targets(g, u, targets, pe.label, Direction::Out, &mut sc.run);
                    add_run(fwd, rev, u, &sc.run);
                    changed = true;
                }
                if pe.dst == v {
                    sc.run.clear();
                    let sources = &core.member[pe.src.index()];
                    surviving_targets(g, u, sources, pe.label, Direction::In, &mut sc.run);
                    add_run(rev, fwd, u, &sc.run);
                    changed = true;
                }
            }
        }
        // An added graph edge between two members enters one forward
        // and one reverse run.
        for e in &d.added_edges {
            for (ei, pe) in q.edges().iter().enumerate() {
                if pe.label.admits(e.label)
                    && core.member[pe.src.index()][e.src.index()]
                    && core.member[pe.dst.index()][e.dst.index()]
                {
                    changed |= space.forward[ei].insert_target(e.src, e.dst);
                    space.reverse[ei].insert_target(e.dst, e.src);
                }
            }
        }
        report.adjacency_changed = changed;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::dual_simulation;
    use gfd_graph::GraphBuilder;
    use gfd_pattern::PatternBuilder;

    fn chain() -> (Graph, [NodeId; 6]) {
        // a1 -> b1 -> c1 ; a2 -> b2 (no c); orphan c2
        let mut b = GraphBuilder::with_fresh_vocab();
        let a1 = b.add_node_labeled("a");
        let b1 = b.add_node_labeled("b");
        let c1 = b.add_node_labeled("c");
        let a2 = b.add_node_labeled("a");
        let b2 = b.add_node_labeled("b");
        let c2 = b.add_node_labeled("c");
        b.add_edge_labeled(a1, b1, "e");
        b.add_edge_labeled(b1, c1, "e");
        b.add_edge_labeled(a2, b2, "e");
        (b.freeze(), [a1, b1, c1, a2, b2, c2])
    }

    fn chain_pattern(g: &Graph) -> Pattern {
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        let z = b.node("z", "c");
        b.edge(x, y, "e");
        b.edge(y, z, "e");
        b.build()
    }

    fn assert_matches_scratch(inc: &IncrementalSpace, g: &Graph) {
        let scratch = dual_simulation(inc.pattern(), g, None);
        assert_eq!(inc.space().sets, scratch.sets, "candidate sets diverged");
        for ei in 0..inc.pattern().edge_count() {
            assert_eq!(
                inc.space().forward[ei],
                scratch.forward[ei],
                "forward runs of edge {ei}"
            );
            assert_eq!(
                inc.space().reverse[ei],
                scratch.reverse[ei],
                "reverse runs of edge {ei}"
            );
        }
    }

    #[test]
    fn deletion_cascades_removals() {
        let (g, [a1, b1, c1, ..]) = chain();
        let q = chain_pattern(&g);
        let mut inc = IncrementalSpace::new(&q, &g, None);
        assert_eq!(inc.space().sets, vec![vec![a1], vec![b1], vec![c1]]);
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge_labeled(b1, c1, "e");
        });
        let report = inc.apply(&g2, &delta);
        // Killing the b1→c1 edge empties the whole relation.
        assert_eq!(report.removed.len(), 3);
        assert!(report.added.is_empty());
        assert!(inc.space().is_empty_anywhere());
        assert_matches_scratch(&inc, &g2);
    }

    #[test]
    fn insertion_readmits_candidates() {
        let (g, [_, _, _, a2, b2, c2]) = chain();
        let q = chain_pattern(&g);
        let mut inc = IncrementalSpace::new(&q, &g, None);
        // Completing the a2 chain re-admits a2, b2 and the orphan c2.
        let (g2, delta) = g.edit_with_delta(|b| {
            b.add_edge_labeled(b2, c2, "e");
        });
        let report = inc.apply(&g2, &delta);
        assert!(report.removed.is_empty());
        assert!(report.added.contains(&(VarId(0), a2)));
        assert!(report.added.contains(&(VarId(1), b2)));
        assert!(report.added.contains(&(VarId(2), c2)));
        assert_matches_scratch(&inc, &g2);
    }

    #[test]
    fn relabel_and_new_nodes_repair() {
        let (g, [_, b1, _, _, _, c2]) = chain();
        let q = chain_pattern(&g);
        let mut inc = IncrementalSpace::new(&q, &g, None);
        let (g2, delta) = g.edit_with_delta(|b| {
            // c1 stops being a c: the original chain dies…
            let c_label = b.vocab().intern("x");
            b.set_label(NodeId(2), c_label);
            // …but a fresh chain appears: a1 -> b1 -> c2 via new edge.
            b.add_edge_labeled(b1, c2, "e");
        });
        let report = inc.apply(&g2, &delta);
        assert!(!report.is_unchanged());
        assert_matches_scratch(&inc, &g2);
    }

    /// Regression (found by an external API drive): one delta that
    /// removes a node's only support edge AND inserts a replacement.
    /// The deletion zeroes the support counter — but the insertion
    /// restores it, so the node must survive the repair.
    #[test]
    fn rewire_within_one_delta_keeps_support() {
        let (g, [a1, b1, _, _, _, c2]) = chain();
        let q = chain_pattern(&g);
        let mut inc = IncrementalSpace::new(&q, &g, None);
        let (g2, delta) = g.edit_with_delta(|b| {
            // b1 loses its c-support edge but gains one to c2, and a1's
            // edge to b1 is rewired through a fresh b node to c2 too.
            b.remove_edge_labeled(b1, NodeId(2), "e");
            b.add_edge_labeled(b1, c2, "e");
            let b3 = b.add_node_labeled("b");
            b.add_edge_labeled(a1, b3, "e");
            b.add_edge_labeled(b3, c2, "e");
        });
        let report = inc.apply(&g2, &delta);
        assert!(inc.contains(VarId(0), a1), "a1 must keep its support");
        assert!(inc.contains(VarId(1), b1), "b1 was rewired, not orphaned");
        assert!(report.added.contains(&(VarId(2), c2)));
        assert_matches_scratch(&inc, &g2);
    }

    #[test]
    fn noop_delta_reports_unchanged() {
        let (g, _) = chain();
        let q = chain_pattern(&g);
        let mut inc = IncrementalSpace::new(&q, &g, None);
        let (g2, delta) = g.edit_with_delta(|_| {});
        let report = inc.apply(&g2, &delta);
        assert!(report.is_unchanged());
        assert_matches_scratch(&inc, &g2);
    }

    #[test]
    fn scoped_space_ignores_outside_growth() {
        let (g, [a1, b1, c1, _, b2, c2]) = chain();
        let q = chain_pattern(&g);
        let scope = NodeSet::from_vec(vec![a1, b1, c1]);
        let mut inc = IncrementalSpace::new(&q, &g, Some(&scope));
        let (g2, delta) = g.edit_with_delta(|b| {
            b.add_edge_labeled(b2, c2, "e");
        });
        let report = inc.apply(&g2, &delta);
        assert!(
            report.is_unchanged(),
            "growth outside the scope is invisible"
        );
        let scratch = dual_simulation(&q, &g2, Some(&scope));
        assert_eq!(inc.space().sets, scratch.sets);
    }
}
