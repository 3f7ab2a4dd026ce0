//! Factorized match representations: count and aggregate in
//! width-polynomial time, never materializing the match set.
//!
//! A [`Factorization`] is a *d-representation* (FDB, Olteanu et al.)
//! of one connected component's match set, laid out over the
//! [`QueryPlan`]'s bag tree:
//!
//! * **union nodes** enumerate the alternatives of one variable under
//!   a fixed context — per-bag tries over each bag's fresh variables,
//!   with pools drawn from the exact same [`CandidateSpace`] adjacency
//!   the fused WCOJ executor intersects ([`crate::plan`]);
//! * **product nodes** stitch child bags along the tree: once a bag is
//!   fully bound, each child bag's residual solve depends only on its
//!   *separator* binding (running intersection), so the children are
//!   independent and combine as a Cartesian product;
//! * child solves are **memoized on (bag, separator binding)** — the
//!   sharing that makes the representation polynomial in the
//!   decomposition width while the flat match set is exponential.
//!
//! Every node carries its subtree count, so counting is a single
//! bottom-up fold (done during construction — [`Factorization::count`]
//! is `O(1)`), and per-binding *marginal* counts come from one
//! root-to-leaf walk ([`Factorization::compute_marginals`], the FAQ
//! variable-elimination pass).
//!
//! ## Exactness
//!
//! A bag-local evaluation enforces injectivity only among variables
//! that co-occur in some bag; the enumerator enforces it globally.
//! The factorized counts are therefore an **upper bound**
//! ([`Factorization::raw_count`]) that is *exact* precisely when every
//! variable pair sharing no bag has disjoint candidate sets — a cheap
//! sorted-merge precondition checked at build time
//! ([`Factorization::is_exact`]). Single-bag plans (triangles, K4 —
//! most mined cyclic rules) are trivially exact. Counting consumers
//! fall back to enumeration when the precondition fails; *emptiness*
//! and marginal-zero tests stay valid unconditionally (the represented
//! set is a superset of the match set), which is what the validation
//! fast paths rely on.
//!
//! ## Expansion
//!
//! Consumers that genuinely need tuples expand lazily
//! ([`Factorization::for_each_expanded`]): the walk re-applies global
//! injectivity per binding, so expansion yields exactly the match set
//! even when the counts are inexact — the oracle suite pins expansion
//! against [`crate::component::ComponentSearch::collect_into`].

use gfd_graph::{Graph, NodeId};
use gfd_pattern::{Pattern, VarId};
use gfd_util::FxHashMap;

use crate::component::{fill_space_pool, space_candidate_ok};
use crate::plan::QueryPlan;
use crate::simulation::CandidateSpace;
use crate::types::Flow;

/// Largest separator the memo key holds inline; plans whose
/// decomposition has a wider separator are declined (callers fall back
/// to enumeration). Mined rules never get near this.
const MAX_SEP: usize = 8;

/// Sentinel for "no node" (an empty factorization's root).
const NO_NODE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// All variables of this branch are bound; count 1.
    Leaf,
    /// Alternatives of one variable: `edges[lo..hi]` holds
    /// `(binding, child)` pairs; count = Σ child counts.
    Union,
    /// Independent child-bag solves: `parts[lo..hi]` holds child node
    /// indices; count = Π part counts.
    Product,
}

#[derive(Clone, Copy, Debug)]
struct FNode {
    kind: Kind,
    /// The bound variable (`Union` only; `u32::MAX` otherwise).
    var: u32,
    lo: u32,
    hi: u32,
}

/// Memo key: one bag under one separator binding. Separator values
/// appear in the bag's ascending variable order, so the key is a pure
/// function of the binding.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    bag: u32,
    len: u8,
    sep: [u32; MAX_SEP],
}

/// A factorized d-representation of one connected pattern's match set.
/// Built by [`factorize`] / [`FactorScratch::build`]; immutable
/// afterwards (marginals attach via
/// [`compute_marginals`](Factorization::compute_marginals) before the
/// value is shared).
#[derive(Clone, Debug, Default)]
pub struct Factorization {
    nodes: Vec<FNode>,
    /// Subtree count per node (represented assignments, saturating).
    counts: Vec<u64>,
    /// Union alternatives: `(binding, child node)`.
    edges: Vec<(NodeId, u32)>,
    /// Product parts: child node indices.
    parts: Vec<u32>,
    root: u32,
    n_vars: usize,
    /// True when `raw_count` equals the injective match count: every
    /// variable pair sharing no bag has disjoint candidate sets, and
    /// no count saturated.
    exact: bool,
    /// True when some count saturated at `u64::MAX`: subtree counts
    /// and marginals are then unreliable even as upper-bound *sums*
    /// (a saturated total breaks `Σ marginal = raw_count`), so
    /// aggregate consumers must decline. Inexactness without overflow
    /// keeps those identities — only injectivity is over-counted.
    overflow: bool,
    /// Per-`(var, node)` marginal counts — how many represented
    /// assignments bind `var` to `node`. `None` until
    /// [`compute_marginals`](Factorization::compute_marginals) runs.
    marginals: Option<FxHashMap<(u32, u32), u64>>,
}

impl Factorization {
    /// Number of represented assignments (saturating). An upper bound
    /// on the match count; equal to it iff
    /// [`is_exact`](Factorization::is_exact). A zero here is *always*
    /// conclusive: the represented set contains every match.
    pub fn raw_count(&self) -> u64 {
        if self.root == NO_NODE {
            0
        } else {
            self.counts[self.root as usize]
        }
    }

    /// The exact match count, when the factorization is exact.
    pub fn count(&self) -> Option<u64> {
        self.exact.then(|| self.raw_count())
    }

    /// True when the subtree counts equal injective match counts (see
    /// the module docs' exactness precondition).
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// True when counting saturated: every derived aggregate
    /// (`raw_count`, marginals) is garbage beyond "huge". Superset
    /// arguments that compare marginal sums against `raw_count` must
    /// check this — mere inexactness preserves those identities,
    /// saturation does not.
    pub fn overflowed(&self) -> bool {
        self.overflow
    }

    /// Number of variables of the factorized pattern.
    pub fn arity(&self) -> usize {
        self.n_vars
    }

    /// Number of union/product nodes — the size counting actually
    /// touches, versus `raw_count()` flat rows.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate resident bytes — the registry's accounting measure,
    /// same contract as `CandidateSpace::approx_bytes`.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FNode>()
            + self.counts.len() * 8
            + self.edges.len() * std::mem::size_of::<(NodeId, u32)>()
            + self.parts.len() * 4
            + self.marginals.as_ref().map_or(0, |m| {
                m.len() * (std::mem::size_of::<((u32, u32), u64)>() + 8)
            })
    }

    /// Computes all per-binding marginal counts in one root-to-leaf
    /// pass (down-weights × subtree counts): `marginal(v, n)` is the
    /// number of represented assignments with `h(v) = n` — the FAQ
    /// answer for every singleton free variable at once. A no-op when
    /// already computed or when a count saturated (marginals would be
    /// meaningless).
    pub fn compute_marginals(&mut self) {
        if self.marginals.is_some() || self.root == NO_NODE {
            if self.marginals.is_none() {
                self.marginals = Some(FxHashMap::default());
            }
            return;
        }
        let mut marginals: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        // Children always precede parents in the arena (post-order
        // construction), so a descending sweep sees every parent
        // before its children.
        let mut outer = vec![0u128; self.nodes.len()];
        outer[self.root as usize] = 1;
        for idx in (0..self.nodes.len()).rev() {
            let o = outer[idx];
            if o == 0 {
                continue;
            }
            let node = self.nodes[idx];
            match node.kind {
                Kind::Leaf => {}
                Kind::Union => {
                    for &(gv, child) in &self.edges[node.lo as usize..node.hi as usize] {
                        outer[child as usize] += o;
                        let add = o.saturating_mul(self.counts[child as usize] as u128);
                        let m = marginals.entry((node.var, gv.0)).or_insert(0);
                        *m = m.saturating_add(add.min(u64::MAX as u128) as u64);
                    }
                }
                Kind::Product => {
                    let parts = &self.parts[node.lo as usize..node.hi as usize];
                    // Reachable products have no zero-count part (they
                    // would have been pruned), so sibling weight is an
                    // exact division of the total.
                    let total: u128 = parts.iter().fold(1u128, |a, &p| {
                        a.saturating_mul(self.counts[p as usize] as u128)
                    });
                    for &p in parts {
                        let siblings = total / (self.counts[p as usize] as u128).max(1);
                        outer[p as usize] += o.saturating_mul(siblings);
                    }
                }
            }
        }
        self.marginals = Some(marginals);
    }

    /// The marginal count of `h(var) = node` over represented
    /// assignments — exact match marginals iff
    /// [`is_exact`](Factorization::is_exact), an upper bound otherwise
    /// (a zero is always conclusive). `None` until
    /// [`compute_marginals`](Factorization::compute_marginals) ran.
    pub fn marginal(&self, var: VarId, node: NodeId) -> Option<u64> {
        self.marginals
            .as_ref()
            .map(|m| m.get(&(var.0, node.0)).copied().unwrap_or(0))
    }

    /// True once [`compute_marginals`](Factorization::compute_marginals)
    /// ran (the registry computes them before sharing a factorization).
    pub fn has_marginals(&self) -> bool {
        self.marginals.is_some()
    }

    /// Lazily expands the factorization into flat matches, re-applying
    /// **global** injectivity per binding — the stream is exactly the
    /// match set even when the counts are inexact. Returns `false` if
    /// the callback broke early.
    pub fn for_each_expanded(&self, f: &mut dyn FnMut(&[NodeId]) -> Flow) -> bool {
        if self.root == NO_NODE {
            return true;
        }
        let mut assigned = vec![NodeId(u32::MAX); self.n_vars];
        let mut pending: Vec<u32> = Vec::new();
        self.walk(self.root, &mut pending, &mut assigned, f).is_ok()
    }

    fn walk(
        &self,
        idx: u32,
        pending: &mut Vec<u32>,
        assigned: &mut Vec<NodeId>,
        f: &mut dyn FnMut(&[NodeId]) -> Flow,
    ) -> Result<(), ()> {
        let node = self.nodes[idx as usize];
        match node.kind {
            Kind::Leaf => {
                // Continue with the next pending product part, or emit.
                if let Some(next) = pending.pop() {
                    let r = self.walk(next, pending, assigned, f);
                    pending.push(next);
                    r
                } else {
                    match f(assigned) {
                        Flow::Continue => Ok(()),
                        Flow::Break => Err(()),
                    }
                }
            }
            Kind::Union => {
                for &(gv, child) in &self.edges[node.lo as usize..node.hi as usize] {
                    if assigned.contains(&gv) {
                        continue; // global injectivity
                    }
                    assigned[node.var as usize] = gv;
                    let r = self.walk(child, pending, assigned, f);
                    assigned[node.var as usize] = NodeId(u32::MAX);
                    r?;
                }
                Ok(())
            }
            Kind::Product => {
                let parts = &self.parts[node.lo as usize..node.hi as usize];
                for &p in parts[1..].iter().rev() {
                    pending.push(p);
                }
                let r = self.walk(parts[0], pending, assigned, f);
                for _ in 1..parts.len() {
                    pending.pop();
                }
                r
            }
        }
    }
}

/// Caller-owned reusable state for [`FactorScratch::build`]: the
/// output arenas, the memo table, and the per-depth pool/alternative
/// buffers. A warm caller re-factorizes (and re-counts) with zero
/// steady-state heap allocation — the property `alloc_probe` pins.
#[derive(Default)]
pub struct FactorScratch {
    fact: Factorization,
    memo: FxHashMap<MemoKey, u32>,
    pools: Vec<Vec<NodeId>>,
    alts: Vec<Vec<(NodeId, u32)>>,
    childbuf: Vec<Vec<u32>>,
    assigned: Vec<NodeId>,
    saved: Vec<(u32, NodeId)>,
    masks: Vec<u128>,
}

impl FactorScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The factorization of the last successful
    /// [`build`](FactorScratch::build) — borrow it for counting; clone
    /// it (or use [`factorize`]) for an owned copy to share.
    pub fn fact(&self) -> &Factorization {
        &self.fact
    }

    /// Builds the factorization of `q`'s match set in `g` under `cs`
    /// into this scratch, honoring pins exactly like
    /// [`crate::component::ComponentSearch`]. Returns `false` (leaving the
    /// scratch untouched for counting purposes) when the plan has no
    /// bag, more than one root (disconnected pattern), or a separator
    /// wider than the memo key — callers then fall back to
    /// enumeration.
    pub fn build(
        &mut self,
        q: &Pattern,
        g: &Graph,
        cs: &CandidateSpace,
        plan: &QueryPlan,
        pins: &[(VarId, NodeId)],
    ) -> bool {
        debug_assert_eq!(
            plan.n_vars,
            q.node_count(),
            "plan built for another pattern"
        );
        let n = q.node_count();
        if plan.bag_orders.is_empty()
            || plan.td.bags.iter().filter(|b| b.parent.is_none()).count() != 1
            || plan.td.max_separator() > MAX_SEP
        {
            return false;
        }
        // Reset arenas; node 0 is the shared leaf.
        let fact = &mut self.fact;
        fact.nodes.clear();
        fact.counts.clear();
        fact.edges.clear();
        fact.parts.clear();
        fact.marginals = None;
        fact.overflow = false;
        fact.n_vars = n;
        fact.nodes.push(FNode {
            kind: Kind::Leaf,
            var: u32::MAX,
            lo: 0,
            hi: 0,
        });
        fact.counts.push(1);
        // Exactness precondition: pairs sharing no bag must have
        // disjoint candidate sets (single-bag plans pass vacuously).
        let exact = if plan.td.var_bag_masks_into(n, &mut self.masks) {
            let masks = &self.masks;
            let mut ok = true;
            'outer: for u in 0..n {
                for v in u + 1..n {
                    if masks[u] & masks[v] == 0 && !disjoint(&cs.sets[u], &cs.sets[v]) {
                        ok = false;
                        break 'outer;
                    }
                }
            }
            ok
        } else {
            false
        };
        // Pin screening, mirroring `ComponentSearch`: colliding pins (or
        // pins outside the simulation relation) anchor nothing.
        for (i, &(v1, n1)) in pins.iter().enumerate() {
            for &(v2, n2) in &pins[i + 1..] {
                if v1 != v2 && n1 == n2 {
                    fact.root = NO_NODE;
                    fact.exact = true;
                    return true;
                }
            }
        }
        for &(v, node) in pins {
            if cs.sets[v.index()].binary_search(&node).is_err() {
                fact.root = NO_NODE;
                fact.exact = true;
                return true;
            }
        }
        self.memo.clear();
        if self.pools.len() < n + 1 {
            self.pools.resize_with(n + 1, Vec::new);
        }
        if self.alts.len() < n + 1 {
            self.alts.resize_with(n + 1, Vec::new);
        }
        if self.childbuf.len() < n + 1 {
            self.childbuf.resize_with(n + 1, Vec::new);
        }
        self.assigned.clear();
        self.assigned.resize(n, NodeId(u32::MAX));
        self.saved.clear();

        let root_bag = plan.seq[0] as usize;
        debug_assert!(plan.td.bags[root_bag].parent.is_none());
        let mut b = Builder {
            q,
            g,
            cs,
            pins,
            plan,
            fact: &mut self.fact,
            memo: &mut self.memo,
            pools: &mut self.pools,
            alts: &mut self.alts,
            childbuf: &mut self.childbuf,
            assigned: &mut self.assigned,
            saved: &mut self.saved,
            overflow: false,
        };
        let root = b.trie(root_bag, 0, 0);
        let overflow = b.overflow;
        self.fact.root = root;
        self.fact.exact = exact && !overflow;
        self.fact.overflow = overflow;
        true
    }

    /// One-shot exact count: builds into the scratch and reads the
    /// root fold. `None` when the plan was declined or the exactness
    /// precondition fails — the caller falls back to enumeration.
    pub fn count(
        &mut self,
        q: &Pattern,
        g: &Graph,
        cs: &CandidateSpace,
        plan: &QueryPlan,
        pins: &[(VarId, NodeId)],
    ) -> Option<u64> {
        if !self.build(q, g, cs, plan, pins) {
            return None;
        }
        self.fact.count()
    }
}

/// Builds an owned [`Factorization`] of `q`'s unpinned match set — the
/// registry's per-class artifact (marginals included).
/// `None` when the plan shape is declined (see [`FactorScratch::build`]).
pub fn factorize(
    q: &Pattern,
    g: &Graph,
    cs: &CandidateSpace,
    plan: &QueryPlan,
) -> Option<Factorization> {
    let mut scratch = FactorScratch::new();
    if !scratch.build(q, g, cs, plan, &[]) {
        return None;
    }
    let mut fact = scratch.fact;
    fact.compute_marginals();
    Some(fact)
}

/// Sorted-slice disjointness (merge walk).
fn disjoint(a: &[NodeId], b: &[NodeId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

struct Builder<'a> {
    q: &'a Pattern,
    g: &'a Graph,
    cs: &'a CandidateSpace,
    pins: &'a [(VarId, NodeId)],
    plan: &'a QueryPlan,
    fact: &'a mut Factorization,
    memo: &'a mut FxHashMap<MemoKey, u32>,
    pools: &'a mut Vec<Vec<NodeId>>,
    alts: &'a mut Vec<Vec<(NodeId, u32)>>,
    childbuf: &'a mut Vec<Vec<u32>>,
    assigned: &'a mut Vec<NodeId>,
    saved: &'a mut Vec<(u32, NodeId)>,
    overflow: bool,
}

impl Builder<'_> {
    /// The union-trie over bag `bi`'s fresh variables, entered with
    /// `assigned` holding exactly the bag's separator binding.
    /// `gdepth` is the number of variables bound along the current
    /// root-to-here path (indexes the per-depth scratch buffers).
    fn trie(&mut self, bi: usize, d: usize, gdepth: usize) -> u32 {
        let order = &self.plan.bag_orders[bi];
        let mut d = d;
        // Separator variables are already bound — skip them. Only
        // bag-visible bindings are ever assigned here (see
        // `solve_child`), so the shared pool filler's "every assigned
        // neighbor" is exactly "every assigned bag neighbor".
        while d < order.len() && self.assigned[order[d].index()].0 != u32::MAX {
            d += 1;
        }
        if d == order.len() {
            return self.product(bi, gdepth);
        }
        let sv = order[d];
        let mut pool = std::mem::take(&mut self.pools[gdepth]);
        fill_space_pool(self.q, self.cs, self.pins, sv, self.assigned, &mut pool);
        let mut alts = std::mem::take(&mut self.alts[gdepth]);
        alts.clear();
        let mut total = 0u64;
        for &gv in &pool {
            if !space_candidate_ok(self.q, self.g, sv, gv, self.assigned) {
                continue;
            }
            self.assigned[sv.index()] = gv;
            let child = self.trie(bi, d + 1, gdepth + 1);
            self.assigned[sv.index()] = NodeId(u32::MAX);
            let c = self.fact.counts[child as usize];
            if c == 0 {
                continue; // dead branch: prune
            }
            total = match total.checked_add(c) {
                Some(t) => t,
                None => {
                    self.overflow = true;
                    u64::MAX
                }
            };
            alts.push((gv, child));
        }
        let lo = self.fact.edges.len() as u32;
        self.fact.edges.extend_from_slice(&alts);
        let hi = self.fact.edges.len() as u32;
        self.fact.nodes.push(FNode {
            kind: Kind::Union,
            var: sv.0,
            lo,
            hi,
        });
        self.fact.counts.push(total);
        self.pools[gdepth] = pool;
        self.alts[gdepth] = alts;
        (self.fact.nodes.len() - 1) as u32
    }

    /// Bag `bi` is fully bound: combine its children's residual solves
    /// as a product, each child memoized on its separator binding.
    fn product(&mut self, bi: usize, gdepth: usize) -> u32 {
        let nbags = self.plan.td.bags.len();
        let mut buf = std::mem::take(&mut self.childbuf[gdepth]);
        buf.clear();
        let mut zero = false;
        for child in 0..nbags {
            if self.plan.td.bags[child].parent != Some(bi) {
                continue;
            }
            let node = self.solve_child(child, bi, gdepth);
            if self.fact.counts[node as usize] == 0 {
                zero = true;
                break;
            }
            buf.push(node);
        }
        let idx = if zero {
            // A dead child kills the whole binding: an empty union
            // (count 0) that the parent trie prunes.
            self.fact.nodes.push(FNode {
                kind: Kind::Union,
                var: u32::MAX,
                lo: 0,
                hi: 0,
            });
            self.fact.counts.push(0);
            (self.fact.nodes.len() - 1) as u32
        } else if buf.is_empty() {
            0 // the shared leaf
        } else if buf.len() == 1 {
            buf[0] // a product of one collapses to its part
        } else {
            let lo = self.fact.parts.len() as u32;
            self.fact.parts.extend_from_slice(&buf);
            let hi = self.fact.parts.len() as u32;
            let mut total = 1u64;
            for &p in &buf {
                total = match total.checked_mul(self.fact.counts[p as usize]) {
                    Some(t) => t,
                    None => {
                        self.overflow = true;
                        u64::MAX
                    }
                };
            }
            self.fact.nodes.push(FNode {
                kind: Kind::Product,
                var: u32::MAX,
                lo,
                hi,
            });
            self.fact.counts.push(total);
            (self.fact.nodes.len() - 1) as u32
        };
        self.childbuf[gdepth] = buf;
        idx
    }

    /// Solves child bag `c` under its separator binding (projected
    /// from the parent's full binding), memoized on
    /// `(c, separator values)` — the d-representation's sharing.
    fn solve_child(&mut self, c: usize, parent: usize, gdepth: usize) -> u32 {
        let mut key = MemoKey {
            bag: c as u32,
            len: 0,
            sep: [0; MAX_SEP],
        };
        for v in &self.plan.td.bags[c].vars {
            let a = self.assigned[v.index()];
            if a.0 != u32::MAX {
                key.sep[key.len as usize] = a.0;
                key.len += 1;
            }
        }
        if let Some(&node) = self.memo.get(&key) {
            return node;
        }
        // Clear everything the child cannot see (the parent's
        // non-separator variables), so the solve is a pure function of
        // the memo key — and bag-local injectivity inside the child is
        // checked against exactly its own visible binding.
        let mark = self.saved.len();
        for vi in 0..self.plan.td.bags[parent].vars.len() {
            let v = self.plan.td.bags[parent].vars[vi];
            if self.assigned[v.index()].0 != u32::MAX && !self.plan.td.bags[c].vars.contains(&v) {
                self.saved.push((v.0, self.assigned[v.index()]));
                self.assigned[v.index()] = NodeId(u32::MAX);
            }
        }
        let node = self.trie(c, 0, gdepth);
        for k in (mark..self.saved.len()).rev() {
            let (v, a) = self.saved[k];
            self.assigned[v as usize] = a;
        }
        self.saved.truncate(mark);
        self.memo.insert(key, node);
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSearch;
    use crate::simulation::dual_simulation;
    use gfd_graph::GraphBuilder;
    use gfd_pattern::PatternBuilder;

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

    fn skewed_graph(per_layer: usize, closures: usize) -> Graph {
        let mut b = GraphBuilder::with_fresh_vocab();
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

    fn oracle(q: &Pattern, g: &Graph) -> Vec<Vec<NodeId>> {
        let mut out = ComponentSearch::new(q, g).collect_all();
        out.sort();
        out
    }

    fn build(q: &Pattern, g: &Graph) -> Factorization {
        let cs = dual_simulation(q, g, None);
        let plan = QueryPlan::new(q);
        factorize(q, g, &cs, &plan).expect("plan shape is factorizable")
    }

    #[test]
    fn triangle_count_is_exact() {
        let g = skewed_graph(12, 4);
        let q = triangle_pattern(g.vocab());
        let f = build(&q, &g);
        assert!(f.is_exact(), "single-bag plan is always exact");
        assert_eq!(f.count(), Some(oracle(&q, &g).len() as u64));
        assert_eq!(f.count(), Some(4));
    }

    #[test]
    fn four_cycle_count_and_expansion() {
        // Distinct labels per variable: the cross-bag pair has
        // disjoint candidate sets, so two-bag counting is exact.
        let mut b = GraphBuilder::with_fresh_vocab();
        let al: Vec<NodeId> = (0..4).map(|_| b.add_node_labeled("a")).collect();
        let bl: Vec<NodeId> = (0..4).map(|_| b.add_node_labeled("b")).collect();
        let cl: Vec<NodeId> = (0..4).map(|_| b.add_node_labeled("c")).collect();
        let dl: Vec<NodeId> = (0..4).map(|_| b.add_node_labeled("d")).collect();
        for i in 0..4 {
            for j in 0..4 {
                b.add_edge_labeled(al[i], bl[j], "e1");
                b.add_edge_labeled(cl[i], dl[j], "f3");
            }
            b.add_edge_labeled(bl[i], cl[i], "e2");
            b.add_edge_labeled(dl[i], al[i], "f4");
        }
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.node("x", "a");
        let y = pb.node("y", "b");
        let z = pb.node("z", "c");
        let w = pb.node("w", "d");
        pb.edge(x, y, "e1");
        pb.edge(y, z, "e2");
        pb.edge(z, w, "f3");
        pb.edge(w, x, "f4");
        let q = pb.build();
        let plan = QueryPlan::new(&q);
        assert_eq!(plan.bag_count(), 2, "4-cycle splits into two bags");
        let f = build(&q, &g);
        let want = oracle(&q, &g);
        assert!(f.is_exact());
        assert_eq!(f.count(), Some(want.len() as u64));
        let mut got = Vec::new();
        f.for_each_expanded(&mut |m| {
            got.push(m.to_vec());
            Flow::Continue
        });
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn sharing_beats_materialization() {
        // Dense bipartite a→b layer under a 2-bag pattern: the match
        // count is quadratic in the layer while the factorization
        // stays linear — the whole point of the representation.
        let g = skewed_graph(40, 40);
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.node("x", "a");
        let y = pb.node("y", "b");
        let z = pb.node("z", "c");
        pb.edge(x, y, "e1");
        pb.edge(y, z, "e2");
        let q = pb.build();
        let f = build(&q, &g);
        assert!(f.is_exact());
        assert_eq!(f.count(), Some(40 * 40));
        assert!(
            (f.node_count() as u64) < f.raw_count(),
            "{} nodes must undercut {} rows",
            f.node_count(),
            f.raw_count()
        );
    }

    #[test]
    fn marginals_sum_to_total_per_variable() {
        let g = skewed_graph(10, 5);
        let q = triangle_pattern(g.vocab());
        let f = build(&q, &g);
        assert!(f.has_marginals());
        let total = f.raw_count();
        for v in q.vars() {
            let sum: u64 = g.nodes().filter_map(|n| f.marginal(v, n)).sum();
            assert_eq!(sum, total, "marginals of {v:?} must fold to the total");
        }
        // And each pinned enumeration agrees with its marginal.
        for n in g.nodes() {
            let x = q.var_by_name("x").unwrap();
            let pinned = ComponentSearch::new(&q, &g)
                .pins(&[(x, n)])
                .collect_all()
                .len();
            assert_eq!(f.marginal(x, n), Some(pinned as u64));
        }
    }

    #[test]
    fn pins_flow_through_build() {
        let g = skewed_graph(8, 3);
        let q = triangle_pattern(g.vocab());
        let cs = dual_simulation(&q, &g, None);
        let plan = QueryPlan::new(&q);
        let x = q.var_by_name("x").unwrap();
        let all = oracle(&q, &g);
        let mut scratch = FactorScratch::new();
        for m in &all {
            let pins = [(x, m[x.index()])];
            let got = scratch.count(&q, &g, &cs, &plan, &pins);
            let want = ComponentSearch::new(&q, &g).pins(&pins).collect_all().len() as u64;
            assert_eq!(got, Some(want));
        }
        // Colliding pins are empty; pinning every variable at one
        // match's nodes counts exactly that match.
        let y = q.var_by_name("y").unwrap();
        let node = all[0][x.index()];
        assert_eq!(
            scratch.count(&q, &g, &cs, &plan, &[(x, node), (y, node)]),
            Some(0)
        );
        let full: Vec<(VarId, NodeId)> = q.vars().map(|v| (v, all[0][v.index()])).collect();
        assert_eq!(scratch.count(&q, &g, &cs, &plan, &full), Some(1));
    }

    #[test]
    fn shared_label_overcount_is_detected_not_returned() {
        // All variables share one label: the cross-bag pair of a
        // 4-cycle has overlapping candidate sets, so bag-local
        // injectivity can overcount — `count()` must refuse.
        let mut b = GraphBuilder::with_fresh_vocab();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node_labeled("t")).collect();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    b.add_edge_labeled(n[i], n[j], "e");
                }
            }
        }
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let vs: Vec<VarId> = (0..4).map(|i| pb.node(&format!("v{i}"), "t")).collect();
        for i in 0..4 {
            pb.edge(vs[i], vs[(i + 1) % 4], "e");
        }
        let q = pb.build();
        let plan = QueryPlan::new(&q);
        assert!(plan.bag_count() >= 2, "premise: a multi-bag plan");
        let f = build(&q, &g);
        assert!(!f.is_exact(), "overlapping cross-bag sets are inexact");
        assert_eq!(f.count(), None);
        assert!(f.raw_count() >= oracle(&q, &g).len() as u64, "upper bound");
        // Expansion re-applies global injectivity and stays exact.
        let mut got = Vec::new();
        f.for_each_expanded(&mut |m| {
            got.push(m.to_vec());
            Flow::Continue
        });
        got.sort();
        assert_eq!(got, oracle(&q, &g));
    }

    #[test]
    fn empty_space_counts_zero() {
        let g = skewed_graph(4, 0); // no closures: no triangle
        let q = triangle_pattern(g.vocab());
        let f = build(&q, &g);
        assert_eq!(f.count(), Some(0));
        let mut rows = 0;
        f.for_each_expanded(&mut |_| {
            rows += 1;
            Flow::Continue
        });
        assert_eq!(rows, 0);
    }
}
