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
//! 3. **Re-admission by demand.** Dual simulation is monotone in the
//!    edge set, so the final relation F contains the members M that
//!    stage 2 left, and what is missing is found in rounds. A round
//!    starts from its *triggers* — in the first, the insertion sites:
//!    added and relabeled nodes at every variable, and the endpoints
//!    of an added edge at every pattern edge that admits it — and
//!    closes them under one rule. A pair `(v, u)` is *satisfied* on a
//!    pattern-edge end at `v` when `u` has an admitted neighbour there
//!    that is a member at the far variable; on an unsatisfied end every
//!    seed-admissible non-member neighbour joins the round's closure,
//!    and a satisfied end adds nothing.
//! 4. **The closure is pruned to its greatest fixpoint in scratch**.
//!    Members cannot lose support here, so a satisfied end keeps its
//!    support and only an unsatisfied one is counted: its neighbours in
//!    the round. Nothing outside the closure is touched, and a closure
//!    pair that fails never writes a page.
//! 5. **Survivors are written** — their own run on every pattern edge
//!    at the variable, their node into the mirrored runs — and are
//!    members from then on. The next round's triggers are their
//!    non-member neighbours that no closure has held yet, met in the
//!    same scan that builds the runs; the rounds stop when one admits
//!    nothing. Then the sorted sets are merged in place. The report is
//!    netted: a member that lost its only support in stage 2 and is
//!    rescued by a closure pair left and re-entered, and counts in
//!    neither direction; one rescued by an added edge to another *member*
//!    never left, because stage 1 applies additions before stage 2
//!    cascades.
//!
//! The rounds admit exactly F \ M:
//!
//! - *Every pair that enters reaches a trigger through pairs that
//!   enter.* Take the pairs of F \ M that no such path reaches. They
//!   touch no insertion site and no admitted pair, so each is supported
//!   by them and by M through edges the delta did not add; with the
//!   old relation they were a simulation of the old graph, hence in the
//!   old relation, and stage 2 — which keeps the greatest simulation
//!   inside it — would have kept them.
//! - *A trigger that can enter survives its closure's fixpoint.* On
//!   each end a pair of F is satisfied or supported by a non-member of
//!   F, and the closure holds every seed-admissible non-member
//!   neighbour of an unsatisfied end (one an earlier closure held and
//!   killed is, by induction, not in F). So the closure's pairs of F
//!   are a post-fixpoint over M, and the prune keeps them: a closure
//!   pair that dies is not in F, and stays out.
//! - *A pair downstream of pairs that entered becomes a trigger of the
//!   next round*, so when a round admits nothing no pair of F \ M is
//!   left unreached.
//!
//! A closure follows only the ends a pair still needs, so it stays near
//! the edit where the reach of its sites spans a dense neighbourhood.
//!
//! Each run edit writes the one page it touches — in place when the
//! page's cells have no other holder, in a private copy of that page
//! otherwise — so a reader holding the pre-repair `Arc<CandidateSpace>`
//! forces a copy of the sets, the page directories and the edited
//! pages, not of the space.
//!
//! A repair's working storage (queues, closures, support counters) is
//! a scratch struct kept between calls. The standalone
//! [`IncrementalSpace`] keeps its own, so a warm repair costs the runs
//! the delta moved (nothing from the allocator once the touched pages
//! have grown); a [`ClassRegistry`](crate::ClassRegistry) repairs every
//! class's bare space in one of its own.
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

/// What one [`IncrementalSpace::apply_normalized`] changed in the relation.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// How many pairs `(var, node)` entered the relation.
    pub added: usize,
    /// How many pairs `(var, node)` left the relation.
    pub removed: usize,
    /// Payload cells the run edits wrote and dropped, one per run and
    /// one per target, as [`CandidateSpace::approx_bytes`] counts them.
    pub cells_added: usize,
    pub cells_removed: usize,
}

impl RepairReport {
    /// True if the repair left every candidate set unchanged.
    pub fn is_unchanged(&self) -> bool {
        self.added == 0 && self.removed == 0
    }

    /// How far the repair moved the space's
    /// [`CandidateSpace::approx_bytes`] — a run cell and a set entry
    /// are one [`NodeId`] each — so a consumer keeps that count current
    /// without walking the pages.
    pub fn byte_delta(&self) -> isize {
        let grew = self.cells_added + self.added;
        let shrank = self.cells_removed + self.removed;
        (grew as isize - shrank as isize) * std::mem::size_of::<NodeId>() as isize
    }
}

/// A [`CandidateSpace`] that stays valid across graph edits:
/// [`apply_normalized`] repairs it against a [`GraphDelta`] in time
/// proportional to the affected neighborhood, and it retains the space
/// and nothing sized by the graph.
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
/// inc.apply_normalized(&g2, &delta);
/// assert_eq!(inc.space().sets, dual_simulation(&q, &g2, None).sets);
/// ```
///
/// [`apply_normalized`]: IncrementalSpace::apply_normalized
pub struct IncrementalSpace {
    q: Pattern,
    scope: Option<NodeSet>,
    /// The space behind an `Arc`, so a reader can hold the current
    /// snapshot across later repairs ([`space_arc`](Self::space_arc)).
    space: Arc<CandidateSpace>,
    scratch: RepairScratch,
}

/// The working storage of one repair, kept across calls and patterns
/// (cleared, not reallocated): a warm repair that moves no set requests
/// no memory.
#[derive(Default)]
pub(crate) struct RepairScratch {
    /// Members queued to leave, and the pairs that did.
    leaving: Vec<(VarId, NodeId)>,
    left: Vec<(VarId, NodeId)>,
    /// The demand closures of the repair's rounds, one after another
    /// (a round is a suffix), and each pair's position in them.
    closure: Vec<(VarId, NodeId)>,
    position: FxHashMap<(VarId, NodeId), u32>,
    /// Per closure pair: whether it is still in its round's fixpoint
    /// (once the round is over, whether it entered), and `stride`
    /// support counters — one per pattern-edge end at its variable, at
    /// the end's `ordinal` there (see [`Self::slot`]), or
    /// [`SATISFIED`].
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
    /// Empties every buffer and lays out the support counters for `q`;
    /// a smaller pattern after a larger one frees no per-variable list.
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
        self.closure.clear();
        self.position.clear();
        self.live.clear();
        self.support.clear();
        self.dead.clear();
        for by_var in [&mut self.added_by_var, &mut self.lost_by_var] {
            by_var.resize_with(nvars.max(by_var.len()), Vec::new);
            by_var.iter_mut().for_each(Vec::clear);
        }
    }

    /// Index of the support counter of closure pair `i` on the
    /// pattern-edge end `(edge, dir)`.
    fn slot(&self, i: usize, edge: usize, dir: Direction) -> usize {
        i * self.stride + self.ordinal[2 * edge + dir as usize]
    }

    /// True if `(v, u)` is a closure pair still in its round's
    /// fixpoint, or one that entered in an earlier round (a trigger of
    /// the next round, not counted yet, is not).
    fn is_live(&self, v: VarId, u: NodeId) -> bool {
        let i = self.position.get(&(v, u));
        i.is_some_and(|&i| self.live.get(i as usize) == Some(&true))
    }

    /// Takes closure pair `i` out of its round's fixpoint.
    fn kill(&mut self, i: usize) {
        if std::mem::replace(&mut self.live[i], false) {
            self.dead.push(i as u32);
        }
    }
}

/// The support counter of a closure pair's satisfied end: it has a
/// member neighbour, so it is set beyond what the closure's deaths can
/// take off (at most one per admitted edge).
const SATISFIED: u32 = u32::MAX;

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

/// Drops the run of `u` (which has one) from `own` and `u` from the
/// runs of `mirror` (the same pattern edge read the other way) that
/// list it — exactly the owners of the targets of `u`'s run. An owner
/// whose run empties has lost its support on this edge: it is queued in
/// `leaving` as a candidate of `far`. Returns the cells dropped.
fn drop_run(
    own: &mut EdgeCandidates,
    mirror: &mut EdgeCandidates,
    u: NodeId,
    far: VarId,
    leaving: &mut Vec<(VarId, NodeId)>,
) -> usize {
    let mut cells = 1 + own.run(u).len();
    for &w in own.run(u) {
        if mirror.remove_target(w, u) {
            cells += 1;
            if mirror.run(w).is_empty() {
                leaving.push((far, w));
            }
        }
    }
    own.remove_run(u);
    cells
}

/// Gives `u` the run `run` in `own` and lists `u` in the mirrored run
/// of every target that has one. Returns the cells written.
fn add_run(
    own: &mut EdgeCandidates,
    mirror: &mut EdgeCandidates,
    u: NodeId,
    run: &[NodeId],
) -> usize {
    own.insert_run(u, run);
    let listed = run.iter().filter(|&&w| mirror.insert_target(w, u)).count();
    1 + run.len() + listed
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

    /// Repairs the relation against `d`, where `g` is the edited
    /// snapshot and `d` the difference from the snapshot this space
    /// was last synchronized with, taken as it is: its producer
    /// ([`GraphBuilder::take_delta`](gfd_graph::GraphBuilder::take_delta),
    /// [`Graph::edit_with_delta`](gfd_graph::Graph::edit_with_delta),
    /// [`GraphDelta::merge`] or [`GraphDelta::compact`]) made it
    /// normalized. The run edits rely on the normalization invariants
    /// (net edge ops, coalesced label changes), so a raw mutation log
    /// here corrupts the relation. Returns how many pairs entered and
    /// left the relation, and how many run cells moved.
    pub fn apply_normalized(&mut self, g: &Graph, d: &GraphDelta) -> RepairReport {
        let sc = &mut self.scratch;
        repair(&self.q, self.scope.as_ref(), g, d, &mut self.space, sc)
    }
}

/// Repairs `space`, the simulation of `q` within `scope`, against the
/// normalized `d` that produced `g` (see
/// [`IncrementalSpace::apply_normalized`]), with `sc` as its working
/// storage — the standalone form's own, or the one a
/// [`ClassRegistry`](crate::ClassRegistry) repairs all its classes in.
pub(crate) fn repair(
    q: &Pattern,
    scope: Option<&NodeSet>,
    g: &Graph,
    d: &GraphDelta,
    space: &mut Arc<CandidateSpace>,
    sc: &mut RepairScratch,
) -> RepairReport {
    // In-place repair when nobody shares the space; copy-on-write
    // (sets, directories, then only the edited pages) when a
    // consumer still holds the pre-repair snapshot, so a held
    // snapshot never mutates under its reader.
    let space = Arc::make_mut(space);
    sc.reset(q);
    // Node ids are stable across refreeze; nodes added at the end
    // of the id space get directory room.
    for adj in space.forward.iter_mut().chain(space.reverse.iter_mut()) {
        adj.grow(g.node_count());
    }
    let mut report = RepairReport::default();

    // Stage 1 — edge ops between current members are run edits.
    // Additions go first, so a member whose only support is
    // rewired to another member never sees its run empty.
    for e in &d.added_edges {
        for (ei, pe) in q.edges().iter().enumerate() {
            let (fwd, rev) = (&mut space.forward[ei], &mut space.reverse[ei]);
            if pe.label.admits(e.label) && rev.has_run(e.dst) && fwd.insert_target(e.src, e.dst) {
                rev.insert_target(e.dst, e.src);
                report.cells_added += 2;
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
                report.cells_removed += 2;
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
            report.cells_removed += drop_run(own, mirror, u, end.far, &mut sc.leaving);
        }
    }

    // Stages 3–5 run in rounds, each a suffix of `sc.closure`
    // starting at `round`, until a round admits nothing. `consider`
    // gives a pair its place in the closure if it is a
    // seed-admissible non-member that no closure has held, and
    // returns the place it has, if any. The first round's triggers
    // are the insertion sites.
    let consider = |sc: &mut RepairScratch, space: &CandidateSpace, v: VarId, u: NodeId| {
        if let Some(&i) = sc.position.get(&(v, u)) {
            return Some(i as usize);
        }
        let admissible = q.label(v).admits(g.label(u)) && scope.is_none_or(|r| r.contains(u));
        (admissible && !is_member(q, space, v, u)).then(|| {
            sc.position.insert((v, u), sc.closure.len() as u32);
            sc.closure.push((v, u));
            sc.closure.len() - 1
        })
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
    let mut round = 0;
    while round < sc.closure.len() {
        // Stage 3 — close the triggers under demand: an end with a
        // member neighbour is satisfied, an unsatisfied end brings
        // in every seed-admissible non-member neighbour and counts
        // those of the round as its support — pairs already found
        // dead included: their deaths are still queued, so every
        // later decrement is exact. A satisfied end is set to
        // `SATISFIED`, not counted: members never leave here, so it
        // cannot lose its support.
        let mut i = round;
        while let Some(&(v, u)) = sc.closure.get(i) {
            if sc.live.len() == i {
                // Room for every pair the closure holds so far.
                sc.live.resize(sc.closure.len(), true);
                sc.support.resize(sc.closure.len() * sc.stride, 0);
            }
            for end in ends(q, v) {
                let neighbors = admitted(g, u, end.label, end.dir);
                let slot = sc.slot(i, end.edge, end.dir);
                if neighbors
                    .iter()
                    .any(|a| is_member(q, space, end.far, a.node))
                {
                    sc.support[slot] = SATISFIED;
                    continue;
                }
                for a in neighbors {
                    let j = consider(sc, space, end.far, a.node);
                    sc.support[slot] += u32::from(j.is_some_and(|j| j >= round));
                }
                if sc.support[slot] == 0 {
                    sc.kill(i);
                }
            }
            i += 1;
        }

        // Stage 4 — prune the round's closure to its greatest
        // fixpoint, in scratch: a death takes one off the counter of
        // every unsatisfied end it supported.
        let n = sc.closure.len();
        while let Some(i) = sc.dead.pop() {
            let (v, u) = sc.closure[i as usize];
            for end in ends(q, v) {
                for a in admitted(g, u, end.label, end.dir) {
                    let Some(&j) = sc.position.get(&(end.far, a.node)) else {
                        continue;
                    };
                    let j = j as usize;
                    let slot = sc.slot(j, end.edge, end.dir.flip());
                    if j >= round && sc.live[j] {
                        sc.support[slot] -= 1;
                        if sc.support[slot] == 0 {
                            sc.kill(j);
                        }
                    }
                }
            }
        }

        // Stage 5 — write the survivors, which makes them members.
        // A run lists exactly the neighbors whose mirrored run lists
        // its owner; a survivor written later finds the earlier
        // one's node already in its run, so the writes commute.
        for i in round..n {
            let (v, u) = sc.closure[i];
            if !sc.live[i] {
                continue;
            }
            for end in ends(q, v) {
                let mut run = std::mem::take(&mut sc.run);
                run.clear();
                // A neighbour is a target if it is a member or a
                // survivor; a non-member no closure has held becomes
                // a trigger of the next round.
                let survives = |w| {
                    is_member(q, space, end.far, w)
                        || consider(sc, space, end.far, w)
                            .is_some_and(|j| sc.live.get(j) == Some(&true))
                };
                surviving_targets(g, u, survives, end.label, end.dir, &mut run);
                let (own, mirror) = space.sides_mut(end.edge, end.dir);
                report.cells_added += add_run(own, mirror, u, &run);
                sc.run = run;
            }
            // A pair the cascade dropped and a closure brought back
            // is still in its (not yet merged) set: it never moved.
            if space.sets[v.index()].binary_search(&u).is_err() {
                sc.added_by_var[v.index()].push(u);
                report.added += 1;
            }
        }
        round = n;
    }

    for &(v, u) in &sc.left {
        if !sc.is_live(v, u) {
            sc.lost_by_var[v.index()].push(u);
            report.removed += 1;
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
    report
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

    fn assert_matches_scratch(q: &Pattern, inc: &IncrementalSpace, g: &Graph) {
        let scratch = dual_simulation(q, g, None);
        assert_eq!(inc.space().sets, scratch.sets, "candidate sets diverged");
        for ei in 0..q.edge_count() {
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
        let report = inc.apply_normalized(&g2, &delta);
        // Killing the b1→c1 edge empties the whole relation.
        assert_eq!((report.added, report.removed), (0, 3));
        assert!(inc.space().is_empty_anywhere());
        assert_matches_scratch(&q, &inc, &g2);
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
        let report = inc.apply_normalized(&g2, &delta);
        assert_eq!((report.added, report.removed), (3, 0));
        assert!(inc.space().of(VarId(0)).contains(&a2));
        assert!(inc.space().of(VarId(1)).contains(&b2));
        assert!(inc.space().of(VarId(2)).contains(&c2));
        assert_matches_scratch(&q, &inc, &g2);
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
        let report = inc.apply_normalized(&g2, &delta);
        assert!(!report.is_unchanged());
        assert_matches_scratch(&q, &inc, &g2);
    }

    /// Regression (found by an external API drive): one delta that
    /// removes a node's only support edge AND inserts a replacement.
    /// The deletion empties the node's run and it leaves — but the
    /// insertion brings its new support in and the node back with it,
    /// so it must survive the repair and the report must not count it.
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
        let report = inc.apply_normalized(&g2, &delta);
        assert!(
            inc.space().of(VarId(0)).contains(&a1),
            "a1 must keep its support"
        );
        assert!(
            inc.space().of(VarId(1)).contains(&b1),
            "b1 was rewired, not orphaned"
        );
        assert!(inc.space().of(VarId(2)).contains(&c2));
        assert!(!inc.space().of(VarId(2)).contains(&NodeId(2)));
        // Netted: a1 and b1 left with the deletion and re-entered with
        // a closure, so only what really moved is counted: c1 left, the
        // fresh b node and c2 entered.
        assert_eq!((report.added, report.removed), (2, 1));
        assert_matches_scratch(&q, &inc, &g2);
    }

    /// Two rounds, and a closure that follows demand only. Adding
    /// b2→c1 completes b2, whose other end already has the member a1;
    /// adding a1→b6 gives b6 its x-neighbour but no z-neighbour. The
    /// first round's closure is the two endpoints alone — a7 hangs off
    /// b6's satisfied end and is never looked at. b2 enters, and only
    /// then does its other a-neighbour a2, a trigger of the second
    /// round, find the support it lacked.
    #[test]
    fn a_neighbour_of_an_entrant_enters_in_the_next_round() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let [a1, b1, c1] = ["a", "b", "c"].map(|l| b.add_node_labeled(l));
        let [a2, b2, b6, a7] = ["a", "b", "b", "a"].map(|l| b.add_node_labeled(l));
        for (s, d) in [(a1, b1), (b1, c1), (a1, b2), (a2, b2), (a7, b6)] {
            b.add_edge_labeled(s, d, "e");
        }
        let g = b.freeze();
        let q = chain_pattern(&g);
        let (x, y) = (VarId(0), VarId(1));
        let mut inc = IncrementalSpace::new(&q, &g, None);
        assert_eq!(inc.space().sets, vec![vec![a1], vec![b1], vec![c1]]);
        let (g2, delta) = g.edit_with_delta(|b| {
            b.add_edge_labeled(b2, c1, "e");
            b.add_edge_labeled(a1, b6, "e");
        });
        let report = inc.apply_normalized(&g2, &delta);
        let (first, second) = inc.scratch.closure.split_at(2);
        assert!(first.contains(&(y, b2)) && first.contains(&(y, b6)));
        assert_eq!(second, [(x, a2)]);
        assert_eq!((report.added, report.removed), (2, 0));
        assert!(inc.space().of(y).contains(&b2) && inc.space().of(x).contains(&a2));
        assert!(!inc.space().of(y).contains(&b6));
        assert_matches_scratch(&q, &inc, &g2);
    }

    #[test]
    fn noop_delta_reports_unchanged() {
        let (g, _) = chain();
        let q = chain_pattern(&g);
        let mut inc = IncrementalSpace::new(&q, &g, None);
        let (g2, delta) = g.edit_with_delta(|_| {});
        let report = inc.apply_normalized(&g2, &delta);
        assert!(report.is_unchanged());
        assert_matches_scratch(&q, &inc, &g2);
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
        let report = inc.apply_normalized(&g2, &delta);
        assert!(
            report.is_unchanged(),
            "growth outside the scope is invisible"
        );
        let scratch = dual_simulation(&q, &g2, Some(&scope));
        assert_eq!(inc.space().sets, scratch.sets);
    }

    /// One scratch serves patterns of any arity in turn: resetting it
    /// for a smaller pattern keeps the larger one's per-variable lists
    /// and their room, so the next larger repair grows nothing.
    #[test]
    fn a_smaller_pattern_keeps_the_larger_ones_lists() {
        let (g, _) = chain();
        let chain = chain_pattern(&g);
        let mut b = PatternBuilder::new(g.vocab().clone());
        b.node("solo", "a");
        let solo = b.build();
        let mut sc = RepairScratch::default();
        sc.reset(&chain);
        sc.added_by_var[2].push(NodeId(2));
        sc.lost_by_var[2].push(NodeId(2));
        sc.reset(&solo);
        sc.reset(&chain);
        for by_var in [&sc.added_by_var, &sc.lost_by_var] {
            assert!(by_var[2].is_empty() && by_var[2].capacity() > 0);
        }
    }
}
