//! Graph (dual) simulation as a worklist fixpoint, producing the
//! [`CandidateSpace`] that drives the exact matcher.
//!
//! `disVal`'s *partial detection* scheme (§6.2) estimates the number of
//! partial matches "via graph simulation from pattern `Q[x̄]` to `F_i`"
//! before deciding whether to ship partial matches or data blocks.
//! Dual simulation is the standard polynomial relaxation of subgraph
//! isomorphism: a relation `sim ⊆ V_Q × V` such that `(v, u) ∈ sim`
//! implies every pattern edge at `v` (both directions) can be followed
//! from `u` to some simulated partner. Every subgraph-isomorphism match
//! is contained in the simulation, so `|sim(v)|` upper-bounds the
//! candidates of `v` — which also makes simulation a sound pruning
//! filter for the exact matcher (the *filter* half of filter-and-refine).
//!
//! ## Algorithm
//!
//! Instead of re-scanning the dense `vars × nodes` membership matrix to
//! fixpoint, the computation is edge-local: per directed pattern edge
//! `e = (a, b, l)` it keeps, for every candidate `u` of `a`, the count
//! of admitted graph edges `u → w` with `w` still simulating `b` (and
//! the mirror count for candidates of `b`). Seeding reads only label
//! extents; when a counter hits zero its node is removed and pushed on
//! a worklist, and each removal only touches the removed node's own
//! adjacency — `O(affected)` per removal, `O(Σ_e Σ_{u∈cand} deg_l(u))`
//! in total rather than `rounds × vars × |V|`.

use std::collections::VecDeque;

use gfd_graph::{Graph, NodeId, NodeSet};
use gfd_pattern::{PatLabel, Pattern, VarId};

/// Per-pattern-edge candidate adjacency: for every candidate of the
/// edge's source variable (by its index in the source candidate set),
/// the admitted neighbors that survive in the target candidate set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeCandidates {
    /// `targets[offsets[i]..offsets[i+1]]` is the run of candidate
    /// `i` of the source variable; runs are ascending by node id.
    pub offsets: Vec<u32>,
    /// Flattened runs of admitted, simulation-surviving neighbors.
    pub targets: Vec<NodeId>,
}

impl EdgeCandidates {
    /// The admitted target run of source-candidate index `i`.
    #[inline]
    pub fn run(&self, i: usize) -> &[NodeId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The simulation relation, packaged for reuse: per pattern variable
/// the sorted set of data nodes simulating it, plus per pattern edge
/// the candidate-to-candidate adjacency (both directions).
///
/// This is the pruned search space the exact matcher refines: root
/// pools come from [`CandidateSpace::of`], expansion pools from
/// intersecting [`EdgeCandidates`] runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CandidateSpace {
    /// `sets[v] = sim(v)`, sorted ascending, indexed by variable id.
    pub sets: Vec<Vec<NodeId>>,
    /// Forward adjacency per pattern edge `(src → dst)`, indexed like
    /// `Pattern::edges()`.
    pub forward: Vec<EdgeCandidates>,
    /// Reverse adjacency per pattern edge (`dst → src`).
    pub reverse: Vec<EdgeCandidates>,
}

impl CandidateSpace {
    /// Candidate set of a variable.
    pub fn of(&self, v: VarId) -> &[NodeId] {
        &self.sets[v.index()]
    }

    /// True if some variable has an empty simulation set — then the
    /// pattern has no match at all (in the searched scope).
    pub fn is_empty_anywhere(&self) -> bool {
        self.sets.iter().any(|s| s.is_empty())
    }

    /// Total size of the relation (the paper's partial-match size
    /// estimate).
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Approximate heap bytes held by the relation — candidate sets
    /// plus both per-edge adjacency CSRs. The byte-budget size key of
    /// [`crate::registry::ClassRegistry`]; an estimate (`Vec` headers
    /// and spare capacity are ignored), which is all eviction needs.
    pub fn approx_bytes(&self) -> usize {
        let node = std::mem::size_of::<NodeId>();
        let sets: usize = self.sets.iter().map(|s| s.len() * node).sum();
        let adj: usize = self
            .forward
            .iter()
            .chain(&self.reverse)
            .map(|e| e.offsets.len() * std::mem::size_of::<u32>() + e.targets.len() * node)
            .sum();
        sets + adj
    }
}

/// Dense per-variable membership bitmaps plus per-edge support
/// counters — the worklist state. Shared between the from-scratch
/// driver [`dual_simulation`] and the delta-repair driver
/// [`crate::incremental::IncrementalSpace`], which keeps a `SimCore`
/// alive across graph edits: the support counters are exactly the
/// bookkeeping an incremental algorithm needs to propagate removals in
/// `O(affected)`.
pub(crate) struct SimCore {
    /// `member[v][u]` — is node `u` currently simulating variable `v`?
    pub(crate) member: Vec<Vec<bool>>,
    /// `fwd[e][u]` — admitted out-edges of `u` into `sim(dst(e))`,
    /// maintained for `u ∈ sim(src(e))`.
    pub(crate) fwd: Vec<Vec<u32>>,
    /// `bwd[e][w]` — admitted in-edges of `w` from `sim(src(e))`,
    /// maintained for `w ∈ sim(dst(e))`.
    pub(crate) bwd: Vec<Vec<u32>>,
    pub(crate) queue: VecDeque<(VarId, NodeId)>,
}

impl SimCore {
    /// Flags `(v, u)` as removed and schedules the propagation; no-op
    /// if already removed.
    pub(crate) fn remove(&mut self, v: VarId, u: NodeId) {
        let m = &mut self.member[v.index()][u.index()];
        if *m {
            *m = false;
            self.queue.push_back((v, u));
        }
    }

    /// Drains the removal worklist to fixpoint: each pop touches only
    /// the removed node's own admitted adjacency per incident pattern
    /// edge, decrementing the support counters of surviving neighbors
    /// and cascading when one hits zero. When `removed` is given,
    /// every removed pair is appended to it (callers repairing sorted
    /// candidate sets need the list; from-scratch harvesting passes
    /// `None` and pays nothing for the log).
    pub(crate) fn drain(
        &mut self,
        q: &Pattern,
        g: &Graph,
        mut removed: Option<&mut Vec<(VarId, NodeId)>>,
    ) {
        while let Some((v, u)) = self.queue.pop_front() {
            if let Some(log) = removed.as_deref_mut() {
                log.push((v, u));
            }
            for (ei, e) in q.edges().iter().enumerate() {
                if e.src == v {
                    // u left sim(src): admitted edges u → w lose one
                    // unit of `bwd` support at w.
                    for a in admitted_out(g, u, e.label) {
                        let w = a.node;
                        if self.member[e.dst.index()][w.index()] {
                            let c = &mut self.bwd[ei][w.index()];
                            debug_assert!(*c > 0, "bwd support underflow at {w:?}");
                            *c -= 1;
                            if *c == 0 {
                                self.remove(e.dst, w);
                            }
                        }
                    }
                }
                if e.dst == v {
                    // u left sim(dst): admitted edges t → u lose one
                    // unit of `fwd` support at t.
                    for a in admitted_in(g, u, e.label) {
                        let t = a.node;
                        if self.member[e.src.index()][t.index()] {
                            let c = &mut self.fwd[ei][t.index()];
                            debug_assert!(*c > 0, "fwd support underflow at {t:?}");
                            *c -= 1;
                            if *c == 0 {
                                self.remove(e.src, t);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Iterates the admitted out-adjacency of `u` for a pattern label.
#[inline]
pub(crate) fn admitted_out(g: &Graph, u: NodeId, label: PatLabel) -> &[gfd_graph::Adj] {
    match label {
        PatLabel::Sym(s) => g.neighbors_labeled(u, s),
        PatLabel::Wildcard => g.out_slice(u),
    }
}

/// Iterates the admitted in-adjacency of `w` for a pattern label.
#[inline]
pub(crate) fn admitted_in(g: &Graph, w: NodeId, label: PatLabel) -> &[gfd_graph::Adj] {
    match label {
        PatLabel::Sym(s) => g.in_neighbors_labeled(w, s),
        PatLabel::Wildcard => g.in_slice(w),
    }
}

/// The seed candidate list of one variable: its label extent narrowed
/// by the optional scope (ascending — extents and scopes both are).
pub(crate) fn seed_candidates(
    q: &Pattern,
    g: &Graph,
    scope: Option<&NodeSet>,
    v: VarId,
) -> Vec<NodeId> {
    match (q.label(v), scope) {
        (PatLabel::Sym(s), None) => g.extent(s).to_vec(),
        (PatLabel::Sym(s), Some(r)) => {
            let extent = g.extent(s);
            if r.len() < extent.len() {
                r.iter().filter(|&u| g.label(u) == s).collect()
            } else {
                extent.iter().copied().filter(|&u| r.contains(u)).collect()
            }
        }
        (PatLabel::Wildcard, Some(r)) => r.iter().collect(),
        (PatLabel::Wildcard, None) => g.nodes().collect(),
    }
}

/// Runs the worklist fixpoint from the seed sets, returning the final
/// core state and the (ascending) surviving candidate sets.
pub(crate) fn simulate_core(
    q: &Pattern,
    g: &Graph,
    scope: Option<&NodeSet>,
) -> (SimCore, Vec<Vec<NodeId>>) {
    let nvars = q.node_count();
    let nnodes = g.node_count();
    let nedges = q.edge_count();

    // Seed candidate lists and membership bitmaps from label extents.
    let mut cands: Vec<Vec<NodeId>> = Vec::with_capacity(nvars);
    let mut member: Vec<Vec<bool>> = vec![vec![false; nnodes]; nvars];
    for v in q.vars() {
        let seed = seed_candidates(q, g, scope, v);
        for &u in &seed {
            member[v.index()][u.index()] = true;
        }
        cands.push(seed);
    }

    let mut core = SimCore {
        member,
        fwd: vec![Vec::new(); nedges],
        bwd: vec![Vec::new(); nedges],
        queue: VecDeque::new(),
    };

    // Phase 1: counters against the full seed membership. Removals are
    // only *scheduled* here so every later decrement is exact.
    for (ei, e) in q.edges().iter().enumerate() {
        let mut fwd = vec![0u32; nnodes];
        let mut bwd = vec![0u32; nnodes];
        for &u in &cands[e.src.index()] {
            fwd[u.index()] = admitted_out(g, u, e.label)
                .iter()
                .filter(|a| core.member[e.dst.index()][a.node.index()])
                .count() as u32;
        }
        for &w in &cands[e.dst.index()] {
            bwd[w.index()] = admitted_in(g, w, e.label)
                .iter()
                .filter(|a| core.member[e.src.index()][a.node.index()])
                .count() as u32;
        }
        core.fwd[ei] = fwd;
        core.bwd[ei] = bwd;
    }
    for (ei, e) in q.edges().iter().enumerate() {
        for &u in &cands[e.src.index()] {
            if core.fwd[ei][u.index()] == 0 {
                core.remove(e.src, u);
            }
        }
        for &w in &cands[e.dst.index()] {
            if core.bwd[ei][w.index()] == 0 {
                core.remove(e.dst, w);
            }
        }
    }

    // Phase 2: propagate removals to fixpoint.
    core.drain(q, g, None);

    // Harvest the surviving sets (seeds were ascending, so sets are).
    let sets: Vec<Vec<NodeId>> = cands
        .iter()
        .zip(&core.member)
        .map(|(seed, m)| seed.iter().copied().filter(|u| m[u.index()]).collect())
        .collect();
    (core, sets)
}

/// Builds the per-edge candidate adjacency (both directions) over the
/// final sets and packages the [`CandidateSpace`].
pub(crate) fn harvest_space(
    q: &Pattern,
    g: &Graph,
    core: &SimCore,
    sets: Vec<Vec<NodeId>>,
) -> CandidateSpace {
    let nedges = q.edge_count();
    let mut forward = Vec::with_capacity(nedges);
    let mut reverse = Vec::with_capacity(nedges);
    for e in q.edges() {
        forward.push(edge_adjacency(
            g,
            &sets[e.src.index()],
            &core.member[e.dst.index()],
            e.label,
            Direction::Out,
        ));
        reverse.push(edge_adjacency(
            g,
            &sets[e.dst.index()],
            &core.member[e.src.index()],
            e.label,
            Direction::In,
        ));
    }
    CandidateSpace {
        sets,
        forward,
        reverse,
    }
}

/// Computes the maximal dual simulation of `q` in `g`, optionally
/// restricted to a node set (fragment-/block-local simulation), and
/// packages it as a [`CandidateSpace`].
pub fn dual_simulation(q: &Pattern, g: &Graph, scope: Option<&NodeSet>) -> CandidateSpace {
    let (core, sets) = simulate_core(q, g, scope);
    harvest_space(q, g, &core, sets)
}

pub(crate) enum Direction {
    Out,
    In,
}

/// Builds one CSR of admitted, surviving neighbors per source
/// candidate. Labeled runs arrive sorted by node; wildcard runs span
/// labels and are re-sorted per run.
pub(crate) fn edge_adjacency(
    g: &Graph,
    sources: &[NodeId],
    target_member: &[bool],
    label: PatLabel,
    dir: Direction,
) -> EdgeCandidates {
    let mut offsets = Vec::with_capacity(sources.len() + 1);
    let mut targets = Vec::new();
    offsets.push(0u32);
    for &u in sources {
        let run = match dir {
            Direction::Out => admitted_out(g, u, label),
            Direction::In => admitted_in(g, u, label),
        };
        let start = targets.len();
        targets.extend(
            run.iter()
                .map(|a| a.node)
                .filter(|w| target_member[w.index()]),
        );
        if matches!(label, PatLabel::Wildcard) && targets.len() > start + 1 {
            // Wildcard runs span labels: re-sort by node and drop the
            // repeats that parallel edges under distinct labels leave.
            targets[start..].sort_unstable();
            let mut w = start + 1;
            for i in start + 1..targets.len() {
                if targets[i] != targets[w - 1] {
                    targets[w] = targets[i];
                    w += 1;
                }
            }
            targets.truncate(w);
        }
        offsets.push(targets.len() as u32);
    }
    EdgeCandidates { offsets, targets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_pattern::PatternBuilder;

    fn chain_graph() -> Graph {
        // a1 -> b1 -> c1 ; a2 -> b2 (no c); c_orphan
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let a1 = b.add_node_labeled("a");
        let b1 = b.add_node_labeled("b");
        let c1 = b.add_node_labeled("c");
        let a2 = b.add_node_labeled("a");
        let b2 = b.add_node_labeled("b");
        b.add_node_labeled("c");
        b.add_edge_labeled(a1, b1, "e");
        b.add_edge_labeled(b1, c1, "e");
        b.add_edge_labeled(a2, b2, "e");
        b.freeze()
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

    #[test]
    fn simulation_prunes_dead_branches() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let sim = dual_simulation(&q, &g, None);
        // Only the a1->b1->c1 chain survives: a2/b2 lack the c
        // continuation, orphan c lacks the incoming b.
        assert_eq!(sim.of(VarId(0)), &[NodeId(0)]);
        assert_eq!(sim.of(VarId(1)), &[NodeId(1)]);
        assert_eq!(sim.of(VarId(2)), &[NodeId(2)]);
        assert!(!sim.is_empty_anywhere());
        assert_eq!(sim.total_size(), 3);
    }

    #[test]
    fn edge_candidate_runs_follow_the_relation() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let sim = dual_simulation(&q, &g, None);
        // Edge 0 is x -> y: candidate a1 reaches exactly b1.
        assert_eq!(sim.forward[0].run(0), &[NodeId(1)]);
        // Reverse of edge 1 (y -> z): candidate c1 is reached from b1.
        assert_eq!(sim.reverse[1].run(0), &[NodeId(1)]);
    }

    #[test]
    fn simulation_superset_of_matches() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        let sim = dual_simulation(&q, &g, None);
        let ms = crate::api::find_matches(&q, &g, &crate::types::MatchOptions::unrestricted());
        for m in &ms {
            for v in q.vars() {
                assert!(sim.of(v).contains(&m.get(v)));
            }
        }
    }

    #[test]
    fn empty_simulation_means_no_match() {
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        gb.add_node_labeled("a");
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "a");
        let y = b.node("y", "zzz");
        b.edge(x, y, "e");
        let q = b.build();
        let sim = dual_simulation(&q, &g, None);
        assert!(sim.is_empty_anywhere());
        assert!(!crate::api::has_match(
            &q,
            &g,
            &crate::types::MatchOptions::unrestricted()
        ));
    }

    #[test]
    fn scoped_simulation_restricts() {
        let g = chain_graph();
        let q = chain_pattern(&g);
        // Scope excluding c1 kills the whole chain.
        let scope = NodeSet::from_vec(vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4)]);
        let sim = dual_simulation(&q, &g, Some(&scope));
        assert!(sim.is_empty_anywhere());
    }

    #[test]
    fn wildcard_simulation_covers_everything_cycle() {
        // A 3-cycle with wildcard pattern edge x->y: every node simulates.
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        let ns: Vec<_> = (0..3).map(|_| gb.add_node_labeled("v")).collect();
        for i in 0..3 {
            gb.add_edge_labeled(ns[i], ns[(i + 1) % 3], "e");
        }
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let sim = dual_simulation(&q, &g, None);
        assert_eq!(sim.of(x).len(), 3);
        assert_eq!(sim.of(y).len(), 3);
    }

    #[test]
    fn self_loop_pattern_edge() {
        // x -[e]-> x matches only nodes with a self-loop.
        let mut gb = gfd_graph::GraphBuilder::with_fresh_vocab();
        let a = gb.add_node_labeled("v");
        let b2 = gb.add_node_labeled("v");
        gb.add_edge_labeled(a, a, "e");
        gb.add_edge_labeled(a, b2, "e");
        let g = gb.freeze();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "v");
        b.edge(x, x, "e");
        let q = b.build();
        let sim = dual_simulation(&q, &g, None);
        assert_eq!(sim.of(x), &[a]);
    }
}
