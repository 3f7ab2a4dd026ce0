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
//!   candidate passes the full `compatible` check. A pinned variable's
//!   pool is built the same way, every source first clipped to its pin
//!   interval ([`Pin`]) by two binary searches, so a node pin yields at
//!   most the node and a work unit's pivot exactly its range;
//! * the **variable order** — pins first, then greedily the most
//!   constrained variable, ties going to the smallest candidate set —
//!   an order that reads the data, not only the pattern's shape.
//!
//! All pools are written into per-depth scratch buffers owned by the
//! search and reused across the whole enumeration — steady-state
//! candidate generation performs no heap allocation.

use gfd_graph::intersect::{intersect_in_place, intersect_k};
use gfd_graph::{Adj, Graph, NodeId};
use gfd_pattern::{distinct_neighbors, PatLabel, Pattern, VarId};

use crate::simulation::CandidateSpace;
use crate::table::MatchTable;
use crate::types::{Flow, Pin};

/// True if `g` has an edge `u → v` admitted by the pattern label.
#[inline]
pub(crate) fn edge_ok(g: &Graph, u: NodeId, v: NodeId, label: PatLabel) -> bool {
    match label {
        PatLabel::Sym(s) => g.has_edge(u, v, s),
        PatLabel::Wildcard => g.has_edge_any(u, v),
    }
}

/// Connectivity-aware static variable order, written into
/// caller-owned buffers (`visited` and `order` are cleared first, and
/// the search hot path reuses them via [`SearchScratch`]): pinned
/// variables first, then always the unvisited variable with the most
/// visited neighbors (ties: smallest candidate count, then higher
/// degree, then lower id). `cand_counts` comes from the simulation when
/// available; pass `usize::MAX` entries to fall back to pure degree
/// ordering.
///
/// The order is **fully deterministic**: every tie chain ends in the
/// stable secondary key `Reverse(v.0)` (variable ids are unique), so
/// two calls over the same inputs — across processes, thread
/// schedules, or repeated detection passes — always produce the same
/// order. Regression baselines rely on this.
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

/// The interval the pins on `sv` leave it — their intersection — or
/// `None` when `sv` is unpinned.
fn interval(pins: &[Pin], sv: VarId) -> Option<(NodeId, NodeId)> {
    let on_sv = pins.iter().filter(|p| p.var == sv);
    on_sv.fold(None, |acc, p| {
        let (lo, hi) = acc.unwrap_or((p.lo, p.hi));
        Some((lo.max(p.lo), hi.min(p.hi)))
    })
}

/// The entries of `run` (sorted by `node`) inside `bounds`: two binary
/// searches, and the run itself when unbounded.
fn clip<T>(run: &[T], bounds: Option<(NodeId, NodeId)>, node: impl Fn(&T) -> NodeId) -> &[T] {
    let Some((lo, hi)) = bounds else {
        return run;
    };
    let start = run.partition_point(|x| node(x) < lo);
    let len = run[start..].partition_point(|x| node(x) <= hi);
    &run[start..start + len]
}

/// The **space-mode** pool source: fills `pool` with the
/// worst-case-optimal candidate pool for `sv` — the k-way intersection
/// of the candidate-adjacency runs of *every* already-assigned pattern
/// neighbor (every constraining edge at once), so the work at each
/// level is bounded by the smallest constraining run. An unconstrained
/// variable seeds from its simulation set. Every source is first
/// clipped to `sv`'s pin interval, so a pinned enumeration stays local
/// to the pinned nodes' neighborhoods.
fn fill_space_pool(
    q: &Pattern,
    cs: &CandidateSpace,
    pins: &[Pin],
    sv: VarId,
    assigned: &[NodeId],
    pool: &mut Vec<NodeId>,
) {
    pool.clear();
    let bounds = interval(pins, sv);
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
        let run = clip(adj.run(image), bounds, |&x| x);
        push_run(pool, &mut runs, &mut n, &mut seeded, run, fold_space_runs);
    }
    if n > 0 {
        fold_space_runs(pool, &mut runs[..n], seeded);
    } else {
        // No constraining edge yet (component start): the simulation set.
        pool.extend_from_slice(clip(cs.of(sv), bounds, |&x| x));
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
/// attached or not) and the variable order (pins, then greedy).
pub struct ComponentSearch<'a> {
    q: &'a Pattern,
    g: &'a Graph,
    cand: Option<&'a CandidateSpace>,
    pins: &'a [Pin],
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
    /// (`fill_space_pool`) under the light per-candidate check. Without
    /// a space the search runs in **raw mode**: labeled CSR runs under
    /// the full `compatible` check.
    pub fn candidate_space(mut self, cs: &'a CandidateSpace) -> Self {
        self.cand = Some(cs);
        self
    }

    /// Confines each pinned variable to the intersection of its pins'
    /// intervals. Pins on variables the component does not have are
    /// ignored ([`Pin::restrict`] drops them the same way).
    pub fn pins(mut self, pins: &'a [Pin]) -> Self {
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
    /// label extent / all nodes at a component start, each clipped to
    /// `sv`'s pin interval. `pool` comes out sorted and duplicate-free;
    /// `compatible` decides membership.
    fn fill_raw_pool(&self, assigned: &[NodeId], sv: VarId, pool: &mut Vec<NodeId>) {
        pool.clear();
        let bounds = interval(self.pins, sv);
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
                        let run = clip(g.in_neighbors_labeled(ta, el), bounds, |a| a.node);
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
                        let run = clip(g.neighbors_labeled(sa, el), bounds, |a| a.node);
                        push_run(pool, &mut runs, &mut n, &mut seeded, run, fold_csr_runs);
                    }
                    PatLabel::Wildcard => consider_wildcard(g.out_slice(sa), &mut wildcard),
                }
            }
        }
        if n > 0 {
            fold_csr_runs(pool, &mut runs[..n], seeded);
            return;
        }
        let (lo, hi) = bounds.unwrap_or((NodeId(0), NodeId(u32::MAX)));
        if let Some(run) = wildcard {
            pool.extend(run.iter().map(|a| a.node).filter(|u| (lo..=hi).contains(u)));
            pool.sort_unstable();
            pool.dedup();
        } else {
            // Component start: label extent / all.
            match self.q.label(sv) {
                PatLabel::Sym(s) => pool.extend_from_slice(clip(g.extent(s), bounds, |&x| x)),
                PatLabel::Wildcard => {
                    let end = (hi.index() + 1).min(g.node_count()) as u32;
                    pool.extend((lo.0..end).map(NodeId));
                }
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
        // An empty simulation set proves the component matchless.
        if self.cand.is_some_and(CandidateSpace::is_empty_anywhere) {
            return StopReason::Exhausted;
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
        s.pinned
            .extend(self.pins.iter().map(|p| p.var).filter(|v| v.index() < n));
        let mut order = std::mem::take(&mut s.order);
        s.counts.clear();
        match self.cand {
            Some(cs) => s.counts.extend(cs.sets.iter().map(Vec::len)),
            None => s.counts.resize(n, usize::MAX),
        }
        search_order_into(q, &s.pinned, &s.counts, &mut s.visited, &mut order);
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

    /// Every match of `search`, one `Vec` per row, read off the table
    /// [`ComponentSearch::collect_into`] fills.
    fn rows(search: &mut ComponentSearch<'_>) -> Vec<Vec<NodeId>> {
        let mut table = MatchTable::new(search.q.node_count());
        search.collect_into(&mut table);
        table.iter().map(<[NodeId]>::to_vec).collect()
    }

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
        let matches = rows(&mut ComponentSearch::new(&q, &g));
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
        let matches = rows(&mut ComponentSearch::new(&q, &g).pins(&[Pin::at(x, ns[1])]));
        assert_eq!(matches, vec![vec![ns[1], ns[5]]]);
        // Pin to a non-account node: no matches.
        let matches = rows(&mut ComponentSearch::new(&q, &g).pins(&[Pin::at(x, ns[2])]));
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
        let matches = rows(&mut ComponentSearch::new(&q, &g));
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
        let matches =
            rows(&mut ComponentSearch::new(&q, &g).pins(&[Pin::at(x, ns[0]), Pin::at(y, ns[4])]));
        assert_eq!(matches, vec![vec![ns[0], ns[4]]]);
        // acct1 did not post p6.
        let matches =
            rows(&mut ComponentSearch::new(&q, &g).pins(&[Pin::at(x, ns[0]), Pin::at(y, ns[5])]));
        assert!(matches.is_empty());
    }

    /// Raw mode draws a variable constrained only by wildcard edges
    /// from a run that spans labels; its pin must filter that run.
    #[test]
    fn wildcard_edge_pool_is_clipped_to_the_pin() {
        let (g, ns) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "account");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let pins = [Pin::at(x, ns[0]), Pin::at(y, ns[4])];
        let matches = rows(&mut ComponentSearch::new(&q, &g).pins(&pins));
        assert_eq!(matches, vec![vec![ns[0], ns[4]]]);
    }

    #[test]
    fn wildcard_pattern_matches_all_edges() {
        let (g, _) = social();
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.wildcard_edge(x, y);
        let q = b.build();
        let matches = rows(&mut ComponentSearch::new(&q, &g));
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
        let plain = rows(&mut ComponentSearch::new(&q, &g));
        let cs = dual_simulation(&q, &g, None);
        let mut filtered = rows(&mut ComponentSearch::new(&q, &g).candidate_space(&cs));
        let mut plain = plain;
        plain.sort();
        filtered.sort();
        assert_eq!(plain, filtered);
        assert!(!plain.is_empty());
    }

    /// [`search_order_into`] into fresh buffers.
    fn search_order(q: &Pattern, pinned: &[VarId], cand_counts: &[usize]) -> Vec<VarId> {
        let mut visited = Vec::new();
        let mut order = Vec::new();
        search_order_into(q, pinned, cand_counts, &mut visited, &mut order);
        order
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

        let baseline_a = rows(&mut ComponentSearch::new(&two_likes, &g));
        let baseline_b = rows(&mut ComponentSearch::new(&post, &g));

        let mut scratch = SearchScratch::default();
        for _ in 0..3 {
            let mut s = ComponentSearch::new(&two_likes, &g).with_scratch(scratch);
            assert_eq!(rows(&mut s), baseline_a);
            let mut t = ComponentSearch::new(&post, &g).with_scratch(s.into_scratch());
            assert_eq!(rows(&mut t), baseline_b);
            scratch = t.into_scratch();
        }
    }

    fn triangle_pattern(vocab: &std::sync::Arc<gfd_graph::Vocab>) -> Pattern {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        let z = b.node("z", "c");
        b.edge(x, y, "e1");
        b.edge(y, z, "e2");
        b.edge(z, x, "e3");
        b.build()
    }

    /// A skewed triangle workload: dense a→b layer, sparse cycle
    /// closures — the shape where edge-at-a-time enumeration drowns.
    fn skewed_graph(per_layer: usize, closures: usize) -> Graph {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let al: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("a")).collect();
        let bl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("b")).collect();
        let cl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("c")).collect();
        for &a in &al {
            for &x in &bl {
                b.add_edge_labeled(a, x, "e1");
            }
        }
        for i in 0..per_layer {
            b.add_edge_labeled(bl[i], cl[i], "e2");
        }
        for i in 0..closures.min(per_layer) {
            b.add_edge_labeled(cl[i], al[i], "e3");
        }
        b.freeze()
    }

    /// The enumerator in space mode, sorted.
    fn run_space(q: &Pattern, g: &Graph, pins: &[Pin]) -> Vec<Vec<NodeId>> {
        let cs = dual_simulation(q, g, None);
        let mut search = ComponentSearch::new(q, g).candidate_space(&cs).pins(pins);
        let mut out = Vec::new();
        let reason = search.for_each(&mut |m| {
            out.push(m.to_vec());
            Flow::Continue
        });
        assert_eq!(reason, StopReason::Exhausted);
        out.sort();
        out
    }

    /// The enumerator in raw mode, sorted.
    fn run_oracle(q: &Pattern, g: &Graph, pins: &[Pin]) -> Vec<Vec<NodeId>> {
        let mut out = rows(&mut ComponentSearch::new(q, g).pins(pins));
        out.sort();
        out
    }

    #[test]
    fn skewed_triangle_space_mode_matches_oracle() {
        let g = skewed_graph(12, 4);
        let q = triangle_pattern(g.vocab());
        assert_eq!(run_space(&q, &g, &[]), run_oracle(&q, &g, &[]));
        assert_eq!(run_space(&q, &g, &[]).len(), 4);
    }

    #[test]
    fn pins_restrict_space_mode_output() {
        let g = skewed_graph(8, 3);
        let q = triangle_pattern(g.vocab());
        let x = q.var_by_name("x").unwrap();
        // Pin x to each closure anchor.
        let all = run_oracle(&q, &g, &[]);
        for m in &all {
            let pins = [Pin::at(x, m[x.index()])];
            assert_eq!(run_space(&q, &g, &pins), run_oracle(&q, &g, &pins));
        }
        // A colliding pin pair yields nothing.
        let y = q.var_by_name("y").unwrap();
        let node = all[0][x.index()];
        assert!(run_space(&q, &g, &[Pin::at(x, node), Pin::at(y, node)]).is_empty());
    }

    #[test]
    fn full_pins_respected_in_space_mode() {
        let g = skewed_graph(6, 6);
        let q = triangle_pattern(g.vocab());
        let cs = dual_simulation(&q, &g, None);
        let full = run_space(&q, &g, &[]);
        // Pin every variable at the nodes of the first match only.
        let pins: Vec<Pin> = q.vars().map(|v| Pin::at(v, full[0][v.index()])).collect();
        let out = rows(
            &mut ComponentSearch::new(&q, &g)
                .candidate_space(&cs)
                .pins(&pins),
        );
        assert_eq!(out, vec![full[0].clone()]);
    }

    #[test]
    fn budget_and_break_stop_space_mode() {
        let g = skewed_graph(8, 8);
        let q = triangle_pattern(g.vocab());
        let cs = dual_simulation(&q, &g, None);
        let search = || ComponentSearch::new(&q, &g).candidate_space(&cs);
        let reason = search().max_steps(2).for_each(&mut |_| Flow::Continue);
        assert_eq!(reason, StopReason::BudgetExhausted);
        let mut n = 0;
        let reason = search().for_each(&mut |_| {
            n += 1;
            Flow::Break
        });
        assert_eq!(reason, StopReason::CallbackBreak);
        assert_eq!(n, 1);
    }

    #[test]
    fn self_loop_enforced_in_space_mode() {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node_labeled("t")).collect();
        for i in 0..3 {
            b.add_edge_labeled(n[i], n[(i + 1) % 3], "e");
        }
        b.add_edge_labeled(n[0], n[0], "s");
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let vs: Vec<VarId> = (0..3).map(|i| pb.node(&format!("v{i}"), "t")).collect();
        for i in 0..3 {
            pb.edge(vs[i], vs[(i + 1) % 3], "e");
        }
        pb.edge(vs[0], vs[0], "s");
        let q = pb.build();
        assert_eq!(run_space(&q, &g, &[]), run_oracle(&q, &g, &[]));
        assert_eq!(run_space(&q, &g, &[]).len(), 1);
    }

    /// The scratch is genuinely reusable in space mode: repeated
    /// executions of patterns of different arity agree with raw mode
    /// (the zero-allocation claim itself is asserted with the counting
    /// allocator in `gfd-bench`).
    #[test]
    fn scratch_reuse_across_patterns_of_different_arity() {
        let g = skewed_graph(6, 2);
        let tri = triangle_pattern(g.vocab());
        // An undirected 4-cycle inside the dense bipartite a→b layer:
        // two `a` variables each pointing at the same two `b`s.
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let a0 = pb.node("a0", "a");
        let b0 = pb.node("b0", "b");
        let a1 = pb.node("a1", "a");
        let b1 = pb.node("b1", "b");
        pb.edge(a0, b0, "e1");
        pb.edge(a1, b0, "e1");
        pb.edge(a1, b1, "e1");
        pb.edge(a0, b1, "e1");
        let square = pb.build();
        let mut scratch = SearchScratch::default();
        for q in [&tri, &square, &tri] {
            let cs = dual_simulation(q, &g, None);
            let mut search = ComponentSearch::new(q, &g)
                .with_scratch(scratch)
                .candidate_space(&cs);
            let mut out = rows(&mut search);
            scratch = search.into_scratch();
            out.sort();
            assert_eq!(out, run_oracle(q, &g, &[]));
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
        let matches = rows(
            &mut ComponentSearch::new(&q, &g)
                .candidate_space(&cs)
                .pins(&[Pin::at(x, ns[2])]),
        );
        assert!(matches.is_empty());
    }
}
