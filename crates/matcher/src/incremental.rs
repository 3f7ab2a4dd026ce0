//! Incremental maintenance of a [`CandidateSpace`] under graph edits.
//!
//! `Graph::thaw`/`edit` used to invalidate every simulation result:
//! each edit recomputed dual simulation from scratch even when it
//! touched one edge. An [`IncrementalSpace`] *repairs* the relation
//! against a recorded [`GraphDelta`] instead, and the relation has one
//! representation: the [`CandidateSpace`] itself. Runs are keyed by
//! node id and editable in place (see [`crate::simulation`]), so the
//! space answers what a worklist needs to know — `u` simulates `v`
//! exactly when `u` has a run on a pattern edge at `v`, and `u` has
//! support on a pattern edge exactly while its run there is non-empty
//! — and nothing sized by the graph is kept next to it. A repair has
//! five stages:
//!
//! 1. **Edge ops between current members become run edits.** An added
//!    graph edge between two members enters one forward and one
//!    reverse run; a removed one leaves them (under a wildcard pattern
//!    edge a parallel edge with another label keeps the target).
//!    Members a relabeling no longer seeds, and members whose run an
//!    edit emptied, are queued to leave.
//! 2. **The deletion cascade runs on the live structure.** A queued
//!    member loses its own run on every pattern edge at its variable
//!    and its node leaves the mirrored runs; a mirrored run that
//!    empties queues its owner. What is left is the greatest
//!    simulation on the edited graph *inside the old relation*.
//! 3. **Re-admission frontier.** Dual simulation is monotone in the
//!    edge set, so the final relation contains the one stage 2 left,
//!    and every pair of the difference is product-reachable from an
//!    insertion site (an added or relabeled node, an endpoint of an
//!    added edge) through pairs of the difference: a group of such
//!    pairs touching no site had the same support before the delta,
//!    so it was in the old relation and stage 2 would have kept it.
//!    The frontier is the BFS closure of the sites over
//!    seed-admissible non-members.
//! 4. **The frontier is pruned to its greatest fixpoint in scratch**:
//!    support counters for frontier pairs only, counted against
//!    members ∪ live frontier. Members cannot lose support here, so
//!    nothing outside the frontier is touched and a frontier pair
//!    that fails never writes a page.
//! 5. **Survivors are written** — their own run on every pattern edge
//!    at the variable, their node into the mirrored runs — and the
//!    sorted sets are merged in place. The report is netted: a member
//!    that lost its only support in stage 2 and is rescued by a
//!    frontier pair left and re-entered, and appears in neither list;
//!    one rescued by an added edge to another *member* never left,
//!    because stage 1 applies additions before stage 2 cascades.
//!
//! Each run edit writes the one page it touches — in place when the
//! page's cells have no other holder, in a private copy of that page
//! otherwise — and the working storage lives in a scratch struct the
//! space keeps between calls, so a repair costs the runs the delta
//! moved (nothing from the allocator once the touched pages have
//! grown), and a reader holding the pre-repair `Arc<CandidateSpace>`
//! forces a copy of the sets, the page directories and the edited
//! pages, not of the space.
//!
//! The repaired space is *identical* to `dual_simulation` on the
//! edited graph (the oracle property tests in
//! `crates/matcher/tests/prop_incremental.rs` replay random 50-step
//! edit scripts against the from-scratch result, on one-page graphs
//! and on graphs that cross pages), but the work done is proportional
//! to the affected neighborhood and the state kept to the answer —
//! the update-time discipline of Berkholz et al.'s FO-query
//! maintenance under updates, made addressable here by CSR label
//! extents and id-keyed run pages.

use std::sync::Arc;

use gfd_graph::{Edge, Graph, GraphDelta, NodeId, NodeSet};
use gfd_pattern::{PatLabel, Pattern, VarId};
use gfd_util::FxHashMap;

use crate::simulation::{
    admitted, dual_simulation, surviving_targets, CandidateSpace, Direction, EdgeCandidates,
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
    /// byte accounting of `gfd_match::ClassRegistry`) must refresh on
    /// this; consumers that only read candidate sets (pivot
    /// feasibility) can key off [`is_unchanged`](Self::is_unchanged).
    pub adjacency_changed: bool,
}

impl RepairReport {
    /// True if the repair left every candidate set unchanged.
    pub fn is_unchanged(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A [`CandidateSpace`] that stays valid across graph edits:
/// [`apply`] repairs it against a [`GraphDelta`] in time proportional
/// to the affected neighborhood, and it retains the space and nothing
/// sized by the graph.
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
    /// Members queued to leave, and the pairs that did.
    leaving: Vec<(VarId, NodeId)>,
    left: Vec<(VarId, NodeId)>,
    /// The re-admission frontier in BFS order, and each pair's position
    /// in it.
    frontier: Vec<(VarId, NodeId)>,
    position: FxHashMap<(VarId, NodeId), u32>,
    /// Per frontier pair: whether it is still in the fixpoint, and
    /// `stride` support counters — one per pattern-edge end at its
    /// variable, at the end's `ordinal` there (see [`Self::slot`]).
    live: Vec<bool>,
    support: Vec<u32>,
    stride: usize,
    ordinal: Vec<usize>,
    dead: Vec<u32>,
    /// Per variable: nodes that entered its set, nodes that left it.
    added_by_var: Vec<Vec<NodeId>>,
    lost_by_var: Vec<Vec<NodeId>>,
    /// One freshly built run.
    run: Vec<NodeId>,
}

impl RepairScratch {
    /// Empties every buffer and lays out the support counters for `q`.
    fn reset(&mut self, q: &Pattern) {
        let nvars = q.node_count();
        self.stride = 0;
        self.ordinal.clear();
        self.ordinal.resize(2 * q.edge_count(), 0);
        for v in q.vars() {
            for (k, end) in ends(q, v).enumerate() {
                self.ordinal[2 * end.edge + end.dir as usize] = k;
                self.stride = self.stride.max(k + 1);
            }
        }
        self.leaving.clear();
        self.left.clear();
        self.frontier.clear();
        self.position.clear();
        self.dead.clear();
        for by_var in [&mut self.added_by_var, &mut self.lost_by_var] {
            by_var.resize_with(nvars, Vec::new);
            by_var.iter_mut().for_each(Vec::clear);
        }
    }

    /// Index of the support counter of frontier pair `i` on the
    /// pattern-edge end `(edge, dir)`.
    fn slot(&self, i: usize, edge: usize, dir: Direction) -> usize {
        i * self.stride + self.ordinal[2 * edge + dir as usize]
    }

    /// True if `(v, u)` is a frontier pair still in the fixpoint.
    fn is_live(&self, v: VarId, u: NodeId) -> bool {
        (self.position.get(&(v, u))).is_some_and(|&i| self.live[i as usize])
    }

    /// Takes frontier pair `i` out of the fixpoint.
    fn kill(&mut self, i: usize) {
        if std::mem::replace(&mut self.live[i], false) {
            self.dead.push(i as u32);
        }
    }
}

/// One end of a pattern edge: the edge read from the variable at
/// `dir`'s near end towards `far`.
#[derive(Clone, Copy)]
struct End {
    edge: usize,
    dir: Direction,
    far: VarId,
    label: PatLabel,
}

/// The pattern-edge ends at `v` (a self-loop has both of its ends
/// there).
fn ends(q: &Pattern, v: VarId) -> impl Iterator<Item = End> + '_ {
    q.edges().iter().enumerate().flat_map(move |(edge, pe)| {
        let end = |dir, far| End {
            edge,
            dir,
            far,
            label: pe.label,
        };
        let out = (pe.src == v).then(|| end(Direction::Out, pe.dst));
        let inn = (pe.dst == v).then(|| end(Direction::In, pe.src));
        out.into_iter().chain(inn)
    })
}

/// True if `u` simulates `v` in `space`, read off the run `u` has on
/// one pattern edge at `v` (a member has a run on every one; between
/// the stages of a repair a pair has all of its runs or none), and off
/// the sorted set — which a repair merges last — for a variable with
/// no pattern edge.
fn is_member(q: &Pattern, space: &CandidateSpace, v: VarId, u: NodeId) -> bool {
    match ends(q, v).next() {
        Some(End {
            edge,
            dir: Direction::Out,
            ..
        }) => space.forward[edge].has_run(u),
        Some(End { edge, .. }) => space.reverse[edge].has_run(u),
        None => space.sets[v.index()].binary_search(&u).is_ok(),
    }
}

/// Drops from the ascending `set` the ascending `drops` and merges the
/// ascending `adds` in, in place.
fn merge_set(set: &mut Vec<NodeId>, adds: &[NodeId], drops: &[NodeId]) {
    if !drops.is_empty() {
        set.retain(|u| drops.binary_search(u).is_err());
    }
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
/// the owners of the targets of `u`'s run. An owner whose run empties
/// has lost its support on this edge: it is queued in `leaving` as a
/// candidate of `far`.
fn drop_run(
    own: &mut EdgeCandidates,
    mirror: &mut EdgeCandidates,
    u: NodeId,
    far: VarId,
    leaving: &mut Vec<(VarId, NodeId)>,
) {
    for &w in own.run(u) {
        if mirror.remove_target(w, u) && mirror.run(w).is_empty() {
            leaving.push((far, w));
        }
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
    /// Runs the from-scratch fixpoint once ([`dual_simulation`]) and
    /// keeps its result repairable. `scope` (block-/fragment-local
    /// simulation) is fixed for the lifetime of the space.
    pub fn new(q: &Pattern, g: &Graph, scope: Option<&NodeSet>) -> Self {
        IncrementalSpace {
            q: q.clone(),
            scope: scope.cloned(),
            space: Arc::new(dual_simulation(q, g, scope)),
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
    /// in normalized form — the run edits rely on the normalization
    /// invariants (net edge ops, coalesced label changes), so passing
    /// a raw mutation log here corrupts the relation.
    pub fn apply_normalized(&mut self, g: &Graph, d: &GraphDelta) -> RepairReport {
        let (q, scope, sc) = (&self.q, self.scope.as_ref(), &mut self.scratch);
        // In-place repair when nobody shares the space; copy-on-write
        // (sets, directories, then only the edited pages) when a
        // consumer still holds the pre-repair snapshot.
        let space = Arc::make_mut(&mut self.space);
        sc.reset(q);
        // Node ids are stable across refreeze; nodes added at the end
        // of the id space get directory room.
        for adj in space.forward.iter_mut().chain(space.reverse.iter_mut()) {
            adj.grow(g.node_count());
        }
        let mut changed = false;

        // Stage 1 — edge ops between current members are run edits.
        // Additions go first, so a member whose only support is
        // rewired to another member never sees its run empty.
        for e in &d.added_edges {
            for (ei, pe) in q.edges().iter().enumerate() {
                let (fwd, rev) = (&mut space.forward[ei], &mut space.reverse[ei]);
                if pe.label.admits(e.label) && fwd.has_run(e.src) && rev.has_run(e.dst) {
                    changed |= fwd.insert_target(e.src, e.dst);
                    rev.insert_target(e.dst, e.src);
                }
            }
        }
        for e in &d.removed_edges {
            for (ei, pe) in q.edges().iter().enumerate() {
                let (fwd, rev) = (&mut space.forward[ei], &mut space.reverse[ei]);
                if pe.label.admits(e.label)
                    && edge_gone(g, e, pe.label)
                    && fwd.remove_target(e.src, e.dst)
                {
                    rev.remove_target(e.dst, e.src);
                    changed = true;
                    if fwd.run(e.src).is_empty() {
                        sc.leaving.push((pe.src, e.src));
                    }
                    if rev.run(e.dst).is_empty() {
                        sc.leaving.push((pe.dst, e.dst));
                    }
                }
            }
        }
        for c in &d.label_changes {
            for v in q.vars() {
                if !q.label(v).admits(c.new) && is_member(q, space, v, c.node) {
                    sc.leaving.push((v, c.node));
                }
            }
        }

        // Stage 2 — the deletion cascade. A pair can be queued more
        // than once (two of its runs emptied); it leaves once.
        while let Some((v, u)) = sc.leaving.pop() {
            if !is_member(q, space, v, u) {
                continue;
            }
            sc.left.push((v, u));
            for end in ends(q, v) {
                let (own, mirror) = space.sides_mut(end.edge, end.dir);
                drop_run(own, mirror, u, end.far, &mut sc.leaving);
                changed = true;
            }
        }

        // Stage 3 — the re-admission frontier: BFS from the insertion
        // sites over seed-admissible non-members.
        let consider = |sc: &mut RepairScratch, space: &CandidateSpace, v: VarId, u: NodeId| {
            if q.label(v).admits(g.label(u))
                && scope.is_none_or(|r| r.contains(u))
                && !is_member(q, space, v, u)
                && !sc.position.contains_key(&(v, u))
            {
                sc.position.insert((v, u), sc.frontier.len() as u32);
                sc.frontier.push((v, u));
            }
        };
        let relabeled = d.label_changes.iter().map(|c| c.node);
        for u in d.added_nodes.iter().map(|&(u, _)| u).chain(relabeled) {
            for v in q.vars() {
                consider(sc, space, v, u);
            }
        }
        for e in &d.added_edges {
            for pe in q.edges() {
                if pe.label.admits(e.label) {
                    consider(sc, space, pe.src, e.src);
                    consider(sc, space, pe.dst, e.dst);
                }
            }
        }
        let mut next = 0;
        while let Some(&(v, u)) = sc.frontier.get(next) {
            next += 1;
            for end in ends(q, v) {
                for a in admitted(g, u, end.label, end.dir) {
                    consider(sc, space, end.far, a.node);
                }
            }
        }

        // Stage 4 — prune the frontier to its greatest fixpoint, in
        // scratch. Support is counted against members and the whole
        // frontier, pairs already found dead included: their deaths
        // are still queued, so every later decrement is exact.
        let n = sc.frontier.len();
        sc.live.clear();
        sc.live.resize(n, true);
        sc.support.clear();
        sc.support.resize(n * sc.stride, 0);
        for i in 0..n {
            let (v, u) = sc.frontier[i];
            for end in ends(q, v) {
                let supports =
                    |w| is_member(q, space, end.far, w) || sc.position.contains_key(&(end.far, w));
                let neighbors = admitted(g, u, end.label, end.dir).iter();
                let count = neighbors.filter(|a| supports(a.node)).count();
                let slot = sc.slot(i, end.edge, end.dir);
                sc.support[slot] = count as u32;
                if count == 0 {
                    sc.kill(i);
                }
            }
        }
        while let Some(i) = sc.dead.pop() {
            let (v, u) = sc.frontier[i as usize];
            for end in ends(q, v) {
                for a in admitted(g, u, end.label, end.dir) {
                    let Some(&j) = sc.position.get(&(end.far, a.node)) else {
                        continue;
                    };
                    let j = j as usize;
                    if sc.live[j] {
                        let slot = sc.slot(j, end.edge, end.dir.flip());
                        sc.support[slot] -= 1;
                        if sc.support[slot] == 0 {
                            sc.kill(j);
                        }
                    }
                }
            }
        }

        // Stage 5 — write the survivors, net the report, merge the
        // sets. A run lists exactly the neighbors whose mirrored run
        // lists its owner; a survivor written later finds the earlier
        // one's node already in its run, so the writes commute.
        let mut report = RepairReport::default();
        for i in 0..n {
            let (v, u) = sc.frontier[i];
            if !sc.live[i] {
                continue;
            }
            for end in ends(q, v) {
                let mut run = std::mem::take(&mut sc.run);
                run.clear();
                let survives = |w| is_member(q, space, end.far, w) || sc.is_live(end.far, w);
                surviving_targets(g, u, survives, end.label, end.dir, &mut run);
                let (own, mirror) = space.sides_mut(end.edge, end.dir);
                add_run(own, mirror, u, &run);
                sc.run = run;
                changed = true;
            }
            // A pair the cascade dropped and the frontier brought back
            // is still in its (not yet merged) set: it never moved.
            if space.sets[v.index()].binary_search(&u).is_err() {
                sc.added_by_var[v.index()].push(u);
                report.added.push((v, u));
            }
        }
        for &(v, u) in &sc.left {
            if !sc.is_live(v, u) {
                sc.lost_by_var[v.index()].push(u);
                report.removed.push((v, u));
            }
        }
        for (v, set) in space.sets.iter_mut().enumerate() {
            let (adds, drops) = (&mut sc.added_by_var[v], &mut sc.lost_by_var[v]);
            if !adds.is_empty() || !drops.is_empty() {
                adds.sort_unstable();
                drops.sort_unstable();
                merge_set(set, adds, drops);
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
    /// The deletion empties the node's run and it leaves — but the
    /// insertion brings its new support in and the node back with it,
    /// so it must survive the repair and the report must not list it.
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
        // Netted: a1 and b1 left with the deletion and re-entered with
        // the frontier, so only what really moved is listed.
        assert_eq!(report.removed, vec![(VarId(2), NodeId(2))]);
        assert_eq!(report.added.len(), 2, "the fresh b node and c2");
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
