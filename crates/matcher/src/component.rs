//! The one recursive enumerator for matches of a *connected* pattern
//! component in a data graph.
//!
//! The search is candidate-driven: after the first variable, every
//! variable is expanded from the adjacency of already-matched pattern
//! neighbors, so the search never scans the whole graph once it is
//! anchored — this is what makes pivoted work-unit processing local
//! (§5.2: matches are enumerated "by only accessing `G_z̄`").
//!
//! One recursion serves every caller; its two real decisions are data:
//!
//! * the **pool source** — a variable's candidate pool is always the
//!   sorted-slice intersection of the runs of *all* assigned pattern
//!   neighbors (merge or galloping via [`gfd_graph::intersect`]), not
//!   just the single smallest list. In *space mode* the runs are the
//!   per-edge candidate adjacency of a [`CandidateSpace`] from
//!   [`crate::simulation::dual_simulation`] — every candidate already
//!   survives dual simulation and every constraining edge is enforced
//!   by the intersection itself (filter-and-refine, worst-case
//!   optimal per step), so candidates only need a light check. In
//!   *raw mode* the runs are the graph's labeled CSR runs and each
//!   candidate passes the full `compatible` check;
//! * the **variable order** — pins first, then greedily the most
//!   constrained variable; unpinned searches of cyclic patterns take
//!   a [`QueryPlan`]'s flattened bag order instead.
//!
//! All pools are written into per-depth scratch buffers owned by the
//! search and reused across the whole enumeration — steady-state
//! candidate generation performs no heap allocation.

use gfd_graph::intersect::{intersect_in_place, intersect_k};
use gfd_graph::{Adj, Graph, NodeId};
use gfd_pattern::{distinct_neighbors, PatLabel, Pattern, VarId};

use crate::plan::QueryPlan;
use crate::simulation::CandidateSpace;
use crate::table::MatchTable;
use crate::types::Flow;

/// True if `g` has an edge `u → v` admitted by the pattern label.
#[inline]
pub(crate) fn edge_ok(g: &Graph, u: NodeId, v: NodeId, label: PatLabel) -> bool {
    match label {
        PatLabel::Sym(s) => g.has_edge(u, v, s),
        PatLabel::Wildcard => g.has_edge_any(u, v),
    }
}

/// Connectivity-aware static variable order: pinned variables first,
/// then always the unvisited variable with the most visited neighbors
/// (ties: smallest candidate count, then higher degree, then lower
/// id). `cand_counts` comes from the simulation when available; pass
/// `usize::MAX` entries to fall back to pure degree ordering.
///
/// The order is **fully deterministic**: every tie chain ends in the
/// stable secondary key `Reverse(v.0)` (variable ids are unique), so
/// two calls over the same inputs — across processes, thread
/// schedules, or repeated detection passes — always produce the same
/// order. Plan caches and regression baselines rely on this.
#[cfg(test)]
pub(crate) fn search_order(q: &Pattern, pinned: &[VarId], cand_counts: &[usize]) -> Vec<VarId> {
    let mut visited = Vec::new();
    let mut order = Vec::new();
    search_order_into(q, pinned, cand_counts, &mut visited, &mut order);
    order
}

/// [`search_order`] writing into caller-owned buffers (`visited` and
/// `order` are cleared first) — the allocation-free form the search
/// hot path uses via [`SearchScratch`].
pub(crate) fn search_order_into(
    q: &Pattern,
    pinned: &[VarId],
    cand_counts: &[usize],
    visited: &mut Vec<bool>,
    order: &mut Vec<VarId>,
) {
    let n = q.node_count();
    visited.clear();
    visited.resize(n, false);
    order.clear();
    for &p in pinned {
        if !visited[p.index()] {
            visited[p.index()] = true;
            order.push(p);
        }
    }
    while order.len() < n {
        let next = q
            .vars()
            .filter(|v| !visited[v.index()])
            .max_by_key(|&v| {
                let connected = q.neighbors(v).filter(|u| visited[u.index()]).count();
                (
                    connected,
                    std::cmp::Reverse(cand_counts[v.index()]),
                    q.degree(v),
                    std::cmp::Reverse(v.0),
                )
            })
            .expect("unvisited variable exists");
        visited[next.index()] = true;
        order.push(next);
    }
}

/// Constraining runs are gathered into a stack batch of this size
/// before intersecting — no variable of a mined rule has anywhere near
/// 16 constraining edges, and [`push_run`] flushes correctly if one
/// does. Keeping the batch on the stack (instead of a heap `Vec`) is
/// what makes a warm enumeration loop genuinely allocation-free.
const MAX_RUNS: usize = 16;

/// Appends a run to the stack batch, folding the batch into the pool
/// first when it is full.
#[inline]
fn push_run<'a, T>(
    pool: &mut Vec<NodeId>,
    runs: &mut [&'a [T]; MAX_RUNS],
    n: &mut usize,
    seeded: &mut bool,
    run: &'a [T],
    fold: fn(&mut Vec<NodeId>, &mut [&[T]], bool),
) {
    if *n == MAX_RUNS {
        fold(pool, &mut runs[..], *seeded);
        *seeded = true;
        *n = 0;
    }
    runs[*n] = run;
    *n += 1;
}

/// Folds a batch of candidate-adjacency runs into the pool: the first
/// batch seeds via smallest-first k-way intersection, later batches
/// (only under pathological fan-in) refine pairwise.
fn fold_space_runs(pool: &mut Vec<NodeId>, runs: &mut [&[NodeId]], seeded: bool) {
    if !seeded {
        intersect_k(pool, runs);
    } else {
        for run in runs.iter() {
            if pool.is_empty() {
                return;
            }
            intersect_in_place(pool, run, |&x| x);
        }
    }
}

/// [`fold_space_runs`] for single-label CSR runs (sorted by node
/// within the label).
fn fold_csr_runs(pool: &mut Vec<NodeId>, runs: &mut [&[Adj]], seeded: bool) {
    runs.sort_unstable_by_key(|r| r.len());
    let rest = if seeded {
        &runs[..]
    } else {
        pool.extend(runs[0].iter().map(|a| a.node));
        &runs[1..]
    };
    for run in rest {
        if pool.is_empty() {
            return;
        }
        intersect_in_place(pool, run, |a| a.node);
    }
}

/// The pin on `sv`, if any.
#[inline]
fn pin_of(pins: &[(VarId, NodeId)], sv: VarId) -> Option<NodeId> {
    pins.iter().find(|&&(pv, _)| pv == sv).map(|&(_, n)| n)
}

/// The **space-mode** pool source: fills `pool` with the
/// worst-case-optimal candidate pool for `sv` — the k-way intersection
/// of the candidate-adjacency runs of *every* already-assigned pattern
/// neighbor (every constraining edge at once), so the work at each
/// level is bounded by the smallest constraining run. An unconstrained
/// variable seeds from its simulation set. A pinned variable never
/// builds a pool: the pin is probed in each run by binary search and
/// survives or not — a pinned enumeration stays local to the pin's
/// neighborhood.
fn fill_space_pool(
    q: &Pattern,
    cs: &CandidateSpace,
    pins: &[(VarId, NodeId)],
    sv: VarId,
    assigned: &[NodeId],
    pool: &mut Vec<NodeId>,
) {
    pool.clear();
    let pin = pin_of(pins, sv);
    let mut runs: [&[NodeId]; MAX_RUNS] = [&[]; MAX_RUNS];
    let mut n = 0usize;
    let mut seeded = false;
    for (ei, e) in q.edges().iter().enumerate() {
        // Self-loops are checked per candidate.
        let (other, adj) = if e.src == sv && e.dst != sv {
            (e.dst, &cs.reverse[ei])
        } else if e.dst == sv && e.src != sv {
            (e.src, &cs.forward[ei])
        } else {
            continue;
        };
        let image = assigned[other.index()];
        if image.0 == u32::MAX {
            continue;
        }
        // Runs are keyed by node id: no rank lookup in the other set.
        // Assigned images always come from the space's own sets (pins
        // are screened up front); an image outside them has the empty
        // run, and an empty pool is the sound answer.
        let run = adj.run(image);
        match pin {
            Some(p) if run.binary_search(&p).is_err() => return,
            Some(_) => {}
            None => push_run(pool, &mut runs, &mut n, &mut seeded, run, fold_space_runs),
        }
    }
    if let Some(p) = pin {
        if cs.of(sv).binary_search(&p).is_ok() {
            pool.push(p);
        }
        return;
    }
    if n > 0 {
        fold_space_runs(pool, &mut runs[..n], seeded);
    } else {
        // No constraining edge yet (component start): the simulation set.
        pool.extend_from_slice(cs.of(sv));
    }
}

/// The space-mode per-candidate check — what the runs cannot express:
/// injectivity against the partial assignment and self-loop edges.
fn space_candidate_ok(q: &Pattern, g: &Graph, sv: VarId, gv: NodeId, assigned: &[NodeId]) -> bool {
    !assigned.contains(&gv)
        && q.out(sv)
            .iter()
            .all(|&(t, l)| t != sv || edge_ok(g, gv, gv, l))
}

/// Caller-owned reusable buffers for [`ComponentSearch`]: per-depth
/// candidate pools, the assignment array, and all ordering state.
/// Detection loops run one search per rule group and pin; threading one
/// `SearchScratch` through them (via
/// [`ComponentSearch::with_scratch`], recovered by
/// [`ComponentSearch::into_scratch`]) makes repeated searches
/// allocation-free in steady state. A fresh default is always valid —
/// buffers are cleared and resized per search.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// One pool buffer per search depth.
    pools: Vec<Vec<NodeId>>,
    assigned: Vec<NodeId>,
    counts: Vec<usize>,
    order: Vec<VarId>,
    visited: Vec<bool>,
    pinned: Vec<VarId>,
    /// Raw mode only — per-variable lower bounds on a viable image's
    /// out-/in-degree: the number of *distinct* out-/in-neighbor
    /// variables. Distinct neighbor variables map to distinct nodes
    /// (injectivity), so each needs its own graph edge — but several
    /// pattern edges to the *same* neighbor (e.g. a labeled and a
    /// wildcard edge) can share one graph edge, so counting edges
    /// would over-prune.
    min_out: Vec<usize>,
    min_in: Vec<usize>,
}

/// Single-component matcher: one recursion whose two real decisions
/// are data — the pool source ([`ComponentSearch::candidate_space`]
/// attached or not) and the variable order (pins, then greedy; or a
/// supplied [`ComponentSearch::plan_order`]).
pub struct ComponentSearch<'a> {
    q: &'a Pattern,
    g: &'a Graph,
    cand: Option<&'a CandidateSpace>,
    plan: Option<&'a QueryPlan>,
    pins: &'a [(VarId, NodeId)],
    max_steps: u64,
    steps: u64,
    /// Reusable buffers, possibly adopted from a previous search.
    scratch: SearchScratch,
}

/// Why an enumeration stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The search space was exhausted: the enumeration is complete.
    Exhausted,
    /// The callback asked to stop.
    CallbackBreak,
    /// The step budget ran out: results may be incomplete.
    BudgetExhausted,
}

impl<'a> ComponentSearch<'a> {
    /// Creates a search for `q` (which must be connected) in `g`.
    pub fn new(q: &'a Pattern, g: &'a Graph) -> Self {
        ComponentSearch {
            q,
            g,
            cand: None,
            plan: None,
            pins: &[],
            max_steps: u64::MAX,
            steps: 0,
            scratch: SearchScratch::default(),
        }
    }

    /// Adopts reusable buffers from a previous search (of any pattern
    /// — everything is cleared and resized per enumeration).
    pub fn with_scratch(mut self, scratch: SearchScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Recovers the scratch buffers (and their capacity) for the next
    /// search.
    pub fn into_scratch(self) -> SearchScratch {
        self.scratch
    }

    /// Selects the **space-mode** pool source: pools are multiway
    /// intersections of the simulation's pruned per-edge adjacency
    /// (`fill_space_pool`) under the light per-candidate check, and
    /// any pin outside its sets short-circuits to an empty
    /// enumeration. Without a space the search runs in **raw mode**:
    /// labeled CSR runs under the full `compatible` check.
    pub fn candidate_space(mut self, cs: &'a CandidateSpace) -> Self {
        self.cand = Some(cs);
        self
    }

    /// Supplies a decomposition plan whose flattened bag order
    /// replaces the greedy variable order for *unpinned* searches of
    /// cyclic patterns: measured on the skewed-closure bench graph,
    /// greedy order ties it on the triangle but trails it 4.5× on the
    /// four-cycle (`match/wcoj_4cycle(plan)`). Pinned searches always
    /// start at their pins.
    pub fn plan_order(mut self, plan: &'a QueryPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Pins `h(var) = node` for every listed pair. Pins on variables
    /// the component does not have are ignored (the component mapping
    /// of a disconnected pattern drops them the same way).
    pub fn pins(mut self, pins: &'a [(VarId, NodeId)]) -> Self {
        self.pins = pins;
        self
    }

    /// Caps backtracking steps.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Raw mode's full check: is `gv` a viable image for `sv`, given
    /// partial `assigned`?
    fn compatible(&self, assigned: &[NodeId], sv: VarId, gv: NodeId) -> bool {
        if !self.q.label(sv).admits(self.g.label(gv)) {
            return false;
        }
        if self.scratch.min_out[sv.index()] > self.g.out_degree(gv)
            || self.scratch.min_in[sv.index()] > self.g.in_degree(gv)
        {
            return false;
        }
        // Injectivity within the component.
        if assigned.contains(&gv) {
            return false;
        }
        for &(t, l) in self.q.out(sv) {
            if t == sv {
                if !edge_ok(self.g, gv, gv, l) {
                    return false;
                }
                continue;
            }
            let ta = assigned[t.index()];
            if ta.0 != u32::MAX && !edge_ok(self.g, gv, ta, l) {
                return false;
            }
        }
        for &(s, l) in self.q.inn(sv) {
            if s == sv {
                continue;
            }
            let sa = assigned[s.index()];
            if sa.0 != u32::MAX && !edge_ok(self.g, sa, gv, l) {
                return false;
            }
        }
        true
    }

    /// The **raw-mode** pool source: the intersection of every
    /// assigned pattern neighbor's labeled CSR run, falling back to
    /// label extent / all nodes at a component start. A pinned
    /// variable's pool is its pin. `pool` comes out sorted and
    /// duplicate-free; `compatible` decides membership.
    fn fill_raw_pool(&self, assigned: &[NodeId], sv: VarId, pool: &mut Vec<NodeId>) {
        pool.clear();
        if let Some(p) = pin_of(self.pins, sv) {
            pool.push(p);
            return;
        }
        let g = self.g;
        let mut runs: [&'a [Adj]; MAX_RUNS] = [&[]; MAX_RUNS];
        let mut n = 0usize;
        let mut seeded = false;
        // Wildcard-edge runs span labels (unsorted by node), so they
        // only serve as a last-resort pool; `compatible` enforces
        // those edges regardless.
        let mut wildcard: Option<&[Adj]> = None;
        let consider_wildcard = |run: &'a [Adj], cur: &mut Option<&'a [Adj]>| {
            if cur.is_none_or(|c| run.len() < c.len()) {
                *cur = Some(run);
            }
        };
        for &(t, l) in self.q.out(sv) {
            let ta = assigned[t.index()];
            if t != sv && ta.0 != u32::MAX {
                match l {
                    PatLabel::Sym(el) => {
                        let run = g.in_neighbors_labeled(ta, el);
                        push_run(pool, &mut runs, &mut n, &mut seeded, run, fold_csr_runs);
                    }
                    PatLabel::Wildcard => consider_wildcard(g.in_slice(ta), &mut wildcard),
                }
            }
        }
        for &(s, l) in self.q.inn(sv) {
            let sa = assigned[s.index()];
            if s != sv && sa.0 != u32::MAX {
                match l {
                    PatLabel::Sym(el) => {
                        let run = g.neighbors_labeled(sa, el);
                        push_run(pool, &mut runs, &mut n, &mut seeded, run, fold_csr_runs);
                    }
                    PatLabel::Wildcard => consider_wildcard(g.out_slice(sa), &mut wildcard),
                }
            }
        }
        if n > 0 {
            fold_csr_runs(pool, &mut runs[..n], seeded);
        } else if let Some(run) = wildcard {
            pool.extend(run.iter().map(|a| a.node));
            pool.sort_unstable();
            pool.dedup();
        } else {
            // Component start: label extent / all.
            match self.q.label(sv) {
                PatLabel::Sym(s) => pool.extend_from_slice(g.extent(s)),
                PatLabel::Wildcard => pool.extend(g.nodes()),
            }
        }
    }

    /// The one recursion: places `order[depth]`, drawing its pool from
    /// the selected source and vetting each candidate with that
    /// source's check.
    fn run(
        &mut self,
        order: &[VarId],
        depth: usize,
        assigned: &mut Vec<NodeId>,
        f: &mut dyn FnMut(&[NodeId]) -> Flow,
    ) -> Result<(), StopReason> {
        if depth == order.len() {
            return match f(assigned) {
                Flow::Continue => Ok(()),
                Flow::Break => Err(StopReason::CallbackBreak),
            };
        }
        let sv = order[depth];
        let mut pool = std::mem::take(&mut self.scratch.pools[depth]);
        match self.cand {
            Some(cs) => fill_space_pool(self.q, cs, self.pins, sv, assigned, &mut pool),
            None => self.fill_raw_pool(assigned, sv, &mut pool),
        }
        let mut result = Ok(());
        for &gv in &pool {
            self.steps += 1;
            if self.steps > self.max_steps {
                result = Err(StopReason::BudgetExhausted);
                break;
            }
            let ok = match self.cand {
                Some(_) => space_candidate_ok(self.q, self.g, sv, gv, assigned),
                None => self.compatible(assigned, sv, gv),
            };
            if !ok {
                continue;
            }
            assigned[sv.index()] = gv;
            let r = self.run(order, depth + 1, assigned, f);
            assigned[sv.index()] = NodeId(u32::MAX);
            if r.is_err() {
                result = r;
                break;
            }
        }
        // Hand the buffer (and its capacity) back for the next visit
        // of this depth.
        self.scratch.pools[depth] = pool;
        result
    }

    /// Enumerates matches, invoking `f` per match (images indexed by
    /// this component's variable ids). Returns how the search ended.
    pub fn for_each(&mut self, f: &mut dyn FnMut(&[NodeId]) -> Flow) -> StopReason {
        let q = self.q;
        let n = q.node_count();
        let pins = self.pins;
        let in_range = move || pins.iter().copied().filter(move |&(v, _)| v.index() < n);
        // Contradictory pins anchor nothing: two variables on one node
        // (injectivity) or one variable on two nodes.
        for (i, (v1, n1)) in in_range().enumerate() {
            if in_range()
                .skip(i + 1)
                .any(|(v2, n2)| (v1 == v2) != (n1 == n2))
            {
                return StopReason::Exhausted;
            }
        }
        if let Some(cs) = self.cand {
            // An empty simulation set proves the component matchless,
            // and a pin outside the relation cannot anchor any match
            // (sim contains every match).
            if cs.is_empty_anywhere()
                || in_range().any(|(v, node)| cs.of(v).binary_search(&node).is_err())
            {
                return StopReason::Exhausted;
            }
        }
        // Refill the per-pattern caches inside the (possibly adopted)
        // scratch, then fix the variable order.
        let s = &mut self.scratch;
        if self.cand.is_none() {
            s.min_out.clear();
            s.min_out
                .extend(q.vars().map(|v| distinct_neighbors(q.out(v))));
            s.min_in.clear();
            s.min_in
                .extend(q.vars().map(|v| distinct_neighbors(q.inn(v))));
        }
        s.pinned.clear();
        s.pinned.extend(in_range().map(|(v, _)| v));
        let mut order = std::mem::take(&mut s.order);
        match self.plan {
            Some(plan) if s.pinned.is_empty() && plan.is_cyclic() => {
                debug_assert_eq!(plan.n_vars, n, "plan built for another pattern");
                order.clear();
                order.extend_from_slice(&plan.order);
            }
            _ => {
                s.counts.clear();
                match self.cand {
                    Some(cs) => s.counts.extend(cs.sets.iter().map(Vec::len)),
                    None => s.counts.resize(n, usize::MAX),
                }
                search_order_into(q, &s.pinned, &s.counts, &mut s.visited, &mut order);
            }
        }
        let mut assigned = std::mem::take(&mut s.assigned);
        assigned.clear();
        assigned.resize(n, NodeId(u32::MAX));
        if s.pools.len() < n {
            s.pools.resize_with(n, Vec::new);
        }
        let result = self.run(&order, 0, &mut assigned, f);
        self.scratch.order = order;
        self.scratch.assigned = assigned;
        match result {
            Ok(()) => StopReason::Exhausted,
            Err(reason) => reason,
        }
    }

    /// Collects all matches (component-local variable indexing).
    pub fn collect_all(&mut self) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        self.for_each(&mut |m| {
            out.push(m.to_vec());
            Flow::Continue
        });
        out
    }

    /// Streams every match into a flat [`MatchTable`] row — the
    /// allocation-free bulk-collection fast path (one arena instead of
    /// one `Vec` per match). The table's stride must equal the
    /// pattern's variable count. Returns how the search ended.
    pub fn collect_into(&mut self, table: &mut MatchTable) -> StopReason {
        debug_assert_eq!(
            table.arity(),
            self.q.node_count(),
            "table stride must equal the component arity"
        );
        self.for_each(&mut |m| {
            table.push_row(m);
            Flow::Continue
        })
    }

    /// Steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::dual_simulation;
    use gfd_pattern::PatternBuilder;

    /// G2 of Fig. 1 (the fake-accounts graph), reduced: acct1 posts p5,
    /// acct2 posts p6, both like p1 p2.
    fn social() -> (Graph, Vec<NodeId>) {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let a1 = b.add_node_labeled("account");
        let a2 = b.add_node_labeled("account");
        let p1 = b.add_node_labeled("blog");
        let p2 = b.add_node_labeled("blog");
        let p5 = b.add_node_labeled("blog");
        let p6 = b.add_node_labeled("blog");
        for a in [a1, a2] {
            b.add_edge_labeled(a, p1, "like");
            b.add_edge_labeled(a, p2, "like");
        }
        b.add_edge_labeled(a1, p5, "post");
        b.add_edge_labeled(a2, p6, "post");
        (b.freeze(), vec![a1, a2, p1, p2, p5, p6])
    }

    #[test]
    fn single_edge_pattern() {
        let (g, ns) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y = b.node("y", "blog");
        b.edge(x, y, "post");
        let q = b.build();
        let matches = ComponentSearch::new(&q, &g).collect_all();
        assert_eq!(matches.len(), 2);
        assert!(matches.contains(&vec![ns[0], ns[4]]));
        assert!(matches.contains(&vec![ns[1], ns[5]]));
    }

    #[test]
    fn pinned_search_is_local() {
        let (g, ns) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y = b.node("y", "blog");
        b.edge(x, y, "post");
        let q = b.build();
        let matches = ComponentSearch::new(&q, &g)
            .pins(&[(x, ns[1])])
            .collect_all();
        assert_eq!(matches, vec![vec![ns[1], ns[5]]]);
        // Pin to a non-account node: no matches.
        let matches = ComponentSearch::new(&q, &g)
            .pins(&[(x, ns[2])])
            .collect_all();
        assert!(matches.is_empty());
    }

    #[test]
    fn injectivity_within_component() {
        // Pattern: account likes two distinct blogs.
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y1 = b.node("y1", "blog");
        let y2 = b.node("y2", "blog");
        b.edge(x, y1, "like");
        b.edge(x, y2, "like");
        let q = b.build();
        let matches = ComponentSearch::new(&q, &g).collect_all();
        // Per account: ordered pairs (p1,p2) and (p2,p1) → 2 each.
        assert_eq!(matches.len(), 4);
        for m in &matches {
            assert_ne!(m[1], m[2], "y1 and y2 must be distinct nodes");
        }
    }

    /// Pinning every variable at one match's nodes admits exactly that
    /// match; a fully pinned non-match admits nothing.
    #[test]
    fn pins_exclude_outside_nodes() {
        let (g, ns) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y = b.node("y", "blog");
        b.edge(x, y, "post");
        let q = b.build();
        let matches = ComponentSearch::new(&q, &g)
            .pins(&[(x, ns[0]), (y, ns[4])])
            .collect_all();
        assert_eq!(matches, vec![vec![ns[0], ns[4]]]);
        // acct1 did not post p6.
        let matches = ComponentSearch::new(&q, &g)
            .pins(&[(x, ns[0]), (y, ns[5])])
            .collect_all();
        assert!(matches.is_empty());
    }

    #[test]
    fn wildcard_pattern_matches_all_edges() {
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let matches = ComponentSearch::new(&q, &g).collect_all();
        assert_eq!(matches.len(), g.edge_count());
    }

    #[test]
    fn budget_stops_search() {
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let mut search = ComponentSearch::new(&q, &g).max_steps(2);
        let mut n = 0usize;
        let reason = search.for_each(&mut |_| {
            n += 1;
            Flow::Continue
        });
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert!(n < g.edge_count());
    }

    #[test]
    fn callback_break_stops_early() {
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        b.node("x", "account");
        let q = b.build();
        let mut search = ComponentSearch::new(&q, &g);
        let mut n = 0usize;
        let reason = search.for_each(&mut |_| {
            n += 1;
            Flow::Break
        });
        assert_eq!(reason, StopReason::CallbackBreak);
        assert_eq!(n, 1);
    }

    #[test]
    fn candidate_space_preserves_matches() {
        // The same enumeration with and without the simulation filter.
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y1 = b.node("y1", "blog");
        let y2 = b.node("y2", "blog");
        b.edge(x, y1, "like");
        b.edge(x, y2, "post");
        let q = b.build();
        let plain = ComponentSearch::new(&q, &g).collect_all();
        let cs = dual_simulation(&q, &g, None);
        let mut filtered = ComponentSearch::new(&q, &g)
            .candidate_space(&cs)
            .collect_all();
        let mut plain = plain;
        plain.sort();
        filtered.sort();
        assert_eq!(plain, filtered);
        assert!(!plain.is_empty());
    }

    /// Satellite regression: `search_order` must be fully
    /// deterministic under ties. A wildcard 4-cycle makes every
    /// primary key (visited-neighbor count, candidate count, degree)
    /// tie, so the order is decided purely by the stable secondary key
    /// on the variable id.
    #[test]
    fn search_order_breaks_ties_deterministically() {
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let v0 = b.wildcard_node("v0");
        let v1 = b.wildcard_node("v1");
        let v2 = b.wildcard_node("v2");
        let v3 = b.wildcard_node("v3");
        b.wildcard_edge(v0, v1);
        b.wildcard_edge(v1, v2);
        b.wildcard_edge(v2, v3);
        b.wildcard_edge(v3, v0);
        let q = b.build();
        let counts = vec![usize::MAX; 4];
        let first = search_order(&q, &[], &counts);
        // All primary keys tie at every step, so `Reverse(v.0)` must
        // pick the smallest id among the most-connected candidates:
        // v0, then its smaller neighbor v1, then v2 (now adjacent to
        // a visited var), then v3.
        assert_eq!(first, vec![v0, v1, v2, v3]);
        for _ in 0..10 {
            assert_eq!(search_order(&q, &[], &counts), first);
        }
        // Pinning reorders the prefix but stays deterministic.
        let pinned = search_order(&q, &[v2], &counts);
        assert_eq!(pinned[0], v2);
        for _ in 0..10 {
            assert_eq!(search_order(&q, &[v2], &counts), pinned);
        }
    }

    /// Scratch buffers survive recycling across searches of different
    /// patterns and keep results identical.
    #[test]
    fn scratch_reuse_across_searches() {
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y1 = b.node("y1", "blog");
        let y2 = b.node("y2", "blog");
        b.edge(x, y1, "like");
        b.edge(x, y2, "like");
        let two_likes = b.build();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y = b.node("y", "blog");
        b.edge(x, y, "post");
        let post = b.build();

        let baseline_a = ComponentSearch::new(&two_likes, &g).collect_all();
        let baseline_b = ComponentSearch::new(&post, &g).collect_all();

        let mut scratch = SearchScratch::default();
        for _ in 0..3 {
            let mut s = ComponentSearch::new(&two_likes, &g).with_scratch(scratch);
            assert_eq!(s.collect_all(), baseline_a);
            let mut t = ComponentSearch::new(&post, &g).with_scratch(s.into_scratch());
            assert_eq!(t.collect_all(), baseline_b);
            scratch = t.into_scratch();
        }
    }

    #[test]
    fn pin_outside_candidate_space_is_empty() {
        let (g, ns) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y = b.node("y", "blog");
        b.edge(x, y, "post");
        let q = b.build();
        let cs = dual_simulation(&q, &g, None);
        // ns[2] is a blog that nobody posts: not in sim(x).
        let matches = ComponentSearch::new(&q, &g)
            .candidate_space(&cs)
            .pins(&[(x, ns[2])])
            .collect_all();
        assert!(matches.is_empty());
    }
}
