//! The workload model of §5.2: pivot vectors, work units, `W(Σ, G)`.
//!
//! For each GFD `ϕ` with pivot vector `PV(ϕ) = ((z_1, c¹_Q), …,
//! (z_k, c^k_Q))`, the paper's *work unit* is `w = ⟨v̄_z, G_z̄⟩`: a pivot
//! candidate per connected component together with the candidates'
//! `c^i_Q`-hop data blocks. By the locality of subgraph isomorphism,
//! a match pinned at a pivot candidate cannot leave that candidate's
//! block, so validating `ϕ` reduces to enumerating matches pinned at
//! the pivots of its work units (each pivot tuple checked exactly
//! once).
//!
//! A [`WorkUnit`] here is a *batch* of the paper's units whose pivots
//! form contiguous ranges: each component's sorted feasible-candidate
//! list is cut into a few near-equal ranges, and a unit is one cell of
//! a rule group's range grid — every pivot tuple drawn from the cell's
//! ranges, checked exactly once for every rule of the group, at most 64
//! units per group whatever the graph's size. Rules with isomorphic
//! patterns form one group ([`RuleGroups`]) and share its
//! representative's grid: executing a cell checks every member on each
//! row. The cell's data block `G_z̄`
//! (one multi-source `c^i_Q`-hop BFS per range) is what a unit *costs*
//! — the load estimate here, the bytes `disVal` ships — and never an
//! input of the search.
//!
//! Following Example 10, symmetric pivot tuples of *isomorphic*
//! components are deduplicated — only cells `i ≤ j` of the grid exist,
//! and the unit checks both pivot orientations internally — and pivots
//! that cannot locally match their component are pruned during
//! estimation.

use std::sync::Arc;

use gfd_core::{GfdSet, RuleGroups};
use gfd_graph::{neighborhood, Graph, NodeId, NodeSet};
use gfd_match::simulation::simulation_sets;
use gfd_match::ClassRegistry;
use gfd_pattern::{
    analysis::pivot_vector, iso_witness, tree_decomposition, PatLabel, Pattern, VarId,
};
use gfd_util::FxHashMap;

/// Per-rule pivot metadata, precomputed once from `Σ`.
#[derive(Clone, Debug)]
pub struct PivotedRule {
    /// Index of the rule in `Σ`.
    pub rule: usize,
    /// Component patterns (renumbered) with their original variables.
    pub components: Vec<ComponentPlan>,
    /// True if the rule has exactly two components and they are
    /// isomorphic (Example 10's dedup applies). Component 1's pivot is
    /// then the isomorphic image of component 0's, so both components
    /// draw their pivot candidates from one list.
    pub symmetric_pair: bool,
}

/// One connected component of a rule's pattern, ready for matching.
#[derive(Clone, Debug)]
pub struct ComponentPlan {
    /// The component as a standalone pattern.
    pub pattern: Pattern,
    /// Original pattern variable of each component variable.
    pub orig_vars: Vec<VarId>,
    /// The pivot, as a component-local variable.
    pub local_pivot: VarId,
    /// The pivot's label constraint.
    pub pivot_label: PatLabel,
    /// The component radius `c^i_Q`.
    pub radius: usize,
    /// Width of the component's tree decomposition (0 for a single
    /// node, 1 for trees, ≥ 2 for cyclic components) — the planner's
    /// difficulty signal, folded into unit costs: enumerating a block
    /// gets more expensive per node as the component's width grows.
    pub width: usize,
}

/// One component's share of a work unit: a contiguous range of the
/// component's sorted pivot-candidate list, and the range's data block.
#[derive(Clone, Debug)]
pub struct UnitSlot {
    /// The component's sorted feasible pivot candidates — one list per
    /// (isomorphism class, representative pivot variable), shared by
    /// every slot cut from it, across rule groups too.
    pub pivots: Arc<[NodeId]>,
    /// Start of the slot's range of `pivots`.
    pub lo: u32,
    /// End (exclusive) of the slot's range of `pivots`.
    pub hi: u32,
    /// The `c^i_Q`-hop data block around the range's pivots, shared by
    /// every slot over the same range. A cost input only: the size
    /// term of the unit's load estimate and the byte model of
    /// `disVal`'s shipment; execution never searches inside it.
    pub block: Arc<NodeSet>,
}

impl UnitSlot {
    /// The pivot candidates `v_z` of this component — all that
    /// executing the unit reads.
    #[inline]
    pub fn range(&self) -> &[NodeId] {
        &self.pivots[self.lo as usize..self.hi as usize]
    }
}

/// A work unit — one cell of its rule group's range grid — as a
/// `(rule, offset, len, flags)` descriptor over the [`Workload`]'s flat
/// slot arena: a 24-byte `Copy` record, so splitting, shipping and
/// re-assembling units copies descriptors, never slot vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkUnit {
    /// Index in `Σ` of the group's representative, whose pattern the
    /// unit enumerates; the unit checks every rule of the group.
    pub rule: u32,
    /// First slot in the owning arena.
    pub slot_offset: u32,
    /// Number of slots (= components `k`), in component order.
    pub slot_len: u32,
    /// Check both pivot orientations (symmetric-pair dedup).
    pub check_both_orientations: bool,
    /// The unit's load estimate: the sum of block sizes `|G_z̄|`
    /// (Example 11), with each block weighted by its component's
    /// decomposition width — a width-`w` component enumerates more
    /// per block node than a tree, so its blocks count `max(w, 1)`
    /// times.
    pub cost: u64,
}

impl WorkUnit {
    /// Number of components `k` of the unit's pattern.
    pub fn k(&self) -> usize {
        self.slot_len as usize
    }

    /// The rule index as a `usize` (for indexing `Σ` / plans).
    #[inline]
    pub fn rule(&self) -> usize {
        self.rule as usize
    }

    /// The unit's slots, resolved against the owning arena.
    #[inline]
    pub fn slots<'a>(&self, arena: &'a [UnitSlot]) -> &'a [UnitSlot] {
        &arena[self.slot_offset as usize..self.slot_offset as usize + self.slot_len as usize]
    }
}

/// Knobs for workload estimation.
#[derive(Clone, Debug)]
pub struct WorkloadOptions {
    /// Prune pivot candidates outside the component's dual-simulation
    /// relation (one worklist simulation per component instead of a
    /// backtracking probe per candidate).
    pub prune_empty_pivots: bool,
}

impl Default for WorkloadOptions {
    fn default() -> Self {
        WorkloadOptions {
            prune_empty_pivots: true,
        }
    }
}

/// The estimated workload `W(Σ, G)` plus estimation bookkeeping.
#[derive(Debug, Default)]
pub struct Workload {
    /// The pivoted rules the units were assembled from
    /// ([`plan_rules`] of the estimated Σ) — what executing the units
    /// takes, so callers plan once per run.
    pub plans: Vec<PivotedRule>,
    /// All work units — descriptors into [`Workload::slots`].
    pub units: Vec<WorkUnit>,
    /// The flat slot arena all units index into (the ROADMAP's
    /// "unit-slot arena"): estimation is allocation-free per unit, and
    /// every consumer resolves a unit via [`WorkUnit::slots`].
    pub slots: Vec<UnitSlot>,
    /// Wall-clock seconds spent estimating (parallelizable; the
    /// simulator divides it by `n`).
    pub estimation_seconds: f64,
    /// Units pruned by the emptiness probe.
    pub pruned: usize,
    /// Worklist simulations run *during the estimating call* — with
    /// the shared [`ClassRegistry`], at most one per component
    /// isomorphism class of Σ; 0 when pruning is off or the borrowed
    /// registry already held the classes warm. The probe behind the
    /// "simulate once per class" guarantee.
    pub simulations: usize,
}

impl Workload {
    /// Total load `t(|Σ|, W)` — the sum of unit costs.
    pub fn total_cost(&self) -> u64 {
        self.units.iter().map(|u| u.cost).sum()
    }
}

/// Precomputes pivots and component plans for every rule of `Σ`
/// (`PV(ϕ)` is `O(|Q|²)`; §5.2).
pub fn plan_rules(sigma: &GfdSet) -> Vec<PivotedRule> {
    sigma
        .iter()
        .enumerate()
        .map(|(rule, gfd)| {
            let pv = pivot_vector(&gfd.pattern);
            let mut components: Vec<ComponentPlan> = pv
                .components
                .iter()
                .map(|c| {
                    let (pattern, orig_vars) = gfd.pattern.restrict(&c.vars);
                    // Invariant: component decomposition picks each
                    // pivot from the component's own variable set, so
                    // the restriction must contain it.
                    let local_pivot = VarId(
                        orig_vars
                            .iter()
                            .position(|&v| v == c.pivot)
                            .expect("pivot is in its component") as u32,
                    );
                    let pivot_label = pattern.label(local_pivot);
                    let width = tree_decomposition(&pattern).width();
                    ComponentPlan {
                        pattern,
                        orig_vars,
                        local_pivot,
                        pivot_label,
                        radius: c.radius,
                        width,
                    }
                })
                .collect();
            // Example 10's dedup pairs *indices* of the two components'
            // candidate lists, which are one list only if the pivots
            // correspond: take component 1's pivot to be the isomorphic
            // image of component 0's (the radius is
            // isomorphism-invariant, so it is still a minimum-radius
            // pivot) rather than whatever the tie-break on declaration
            // order picked.
            let witness = match &components[..] {
                [c0, c1] => iso_witness(&c0.pattern, &c1.pattern),
                _ => None,
            };
            if let Some(w) = &witness {
                let image = w.map(components[0].local_pivot);
                components[1].local_pivot = image;
                components[1].pivot_label = components[1].pattern.label(image);
            }
            let symmetric_pair = witness.is_some();
            PivotedRule {
                rule,
                components,
                symmetric_pair,
            }
        })
        .collect()
}

/// Number of pivot candidates the component's label constraint admits
/// before any pruning.
fn pivot_universe(g: &Graph, plan: &ComponentPlan) -> usize {
    match plan.pivot_label {
        PatLabel::Sym(s) => g.extent(s).len(),
        PatLabel::Wildcard => g.node_count(),
    }
}

/// Extracts a component's feasible pivot candidates from
/// already-computed (whole-graph) simulation sets: the set of `pivot`
/// — the component's pivot in the sets' own variable numbering — or
/// nothing when the component is provably matchless.
/// Returns the sorted candidate list and how many raw candidates the
/// filter pruned.
fn pivots_from_sets<'s>(
    g: &Graph,
    plan: &ComponentPlan,
    sets: &'s [Vec<NodeId>],
    pivot: VarId,
) -> (&'s [NodeId], usize) {
    let universe = pivot_universe(g, plan);
    if sets.iter().any(Vec::is_empty) {
        return (&[], universe);
    }
    let cands = &sets[pivot.index()];
    (cands, universe - cands.len())
}

/// Pivot candidates for a component, optionally pruned by one dual
/// simulation of the component pattern over the whole graph. Returns
/// the sorted candidate list and how many raw candidates were pruned.
///
/// Replaces the per-candidate backtracking probe: a pivot candidate
/// outside `sim(z)` cannot anchor any match (the simulation contains
/// every match) — the unscoped check is exactly the whole-graph,
/// pivot-pinned search the unit will run.
///
/// This is the standalone (one component, own simulation) entry point;
/// [`estimate_workload`] draws the same information from a
/// [`ClassRegistry`] shared across the whole Σ instead, so isomorphic
/// components pay for one simulation — and share one list — together.
pub fn feasible_pivots(g: &Graph, plan: &ComponentPlan, prune: bool) -> (Vec<NodeId>, usize) {
    if !prune {
        let all = match plan.pivot_label {
            PatLabel::Sym(s) => g.extent(s).to_vec(),
            PatLabel::Wildcard => g.nodes().collect(),
        };
        return (all, 0);
    }
    let sets = simulation_sets(&plan.pattern, g, None);
    let (cands, pruned) = pivots_from_sets(g, plan, &sets, plan.local_pivot);
    (cands.to_vec(), pruned)
}

/// Upper bound on the units of one rule group: each of its `k`
/// candidate lists is cut into at most `⌊64^{1/k}⌋` ranges (64, 8, 4,
/// 2, …), so the group's range grid never has more cells than this.
const MAX_UNITS_PER_GROUP: usize = 64;

/// Ranges per candidate list for a pattern of `k` components: the
/// largest `c` with `c^k ≤` [`MAX_UNITS_PER_GROUP`].
fn cuts_per_list(k: usize) -> usize {
    (1..=MAX_UNITS_PER_GROUP)
        .take_while(|c| {
            c.checked_pow(k as u32)
                .is_some_and(|cells| cells <= MAX_UNITS_PER_GROUP)
        })
        .last()
        .unwrap_or(1)
}

/// What determines a component's candidate list, so components that
/// must draw the same list — isomorphic components of different groups
/// — share one `Arc`, and with it ranges and blocks.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ListKey {
    /// Pruned: the simulation set of a class representative's variable.
    Class(usize, VarId),
    /// Unpruned: a pivot label's extent.
    Label(PatLabel),
}

/// One deduplicated candidate list and how many raw candidates the
/// feasibility filter pruned from it.
struct PivotList {
    pivots: Arc<[NodeId]>,
    pruned: usize,
}

/// `(list, lo, hi, radius)`: a range of a candidate list and the hop
/// count of the block around it.
type BlockKey = (usize, u32, u32, usize);

/// The per-call state of [`estimate_workload_in`]: candidate lists by
/// [`ListKey`], and the data blocks of their ranges by `(list, lo, hi,
/// radius)` — blocks repeat across rules that share lists, and are
/// handed out as [`Arc`]s with their `|G_z̄|` size computed once.
struct Estimator<'a> {
    g: &'a Graph,
    registry: &'a ClassRegistry,
    prune: bool,
    list_of: FxHashMap<ListKey, usize>,
    lists: Vec<PivotList>,
    blocks: FxHashMap<BlockKey, (Arc<NodeSet>, u64)>,
    /// Reusable BFS visited bitmap (cleared after every block).
    visited: Vec<bool>,
}

impl Estimator<'_> {
    /// The index of `plan`'s candidate list, computed on first use:
    /// with pruning on, its pivot's set in the class's candidate space
    /// (one simulation per class, read at the representative's
    /// variable); the pivot label's whole extent otherwise.
    fn list(&mut self, plan: &ComponentPlan) -> usize {
        let g = self.g;
        let (key, set) = if self.prune {
            let h = self.registry.register(&plan.pattern);
            let view = self.registry.space(h, g);
            let pivot = view.rep_var(plan.local_pivot);
            let key = ListKey::Class(self.registry.class_of(h), pivot);
            (key, Some((view, pivot)))
        } else {
            (ListKey::Label(plan.pivot_label), None)
        };
        if let Some(&list) = self.list_of.get(&key) {
            return list;
        }
        let (pivots, pruned) = match &set {
            Some((view, pivot)) => {
                let (cands, pruned) = pivots_from_sets(g, plan, &view.space.sets, *pivot);
                (cands.into(), pruned)
            }
            None => (feasible_pivots(g, plan, false).0.into(), 0),
        };
        self.lists.push(PivotList { pivots, pruned });
        self.list_of.insert(key, self.lists.len() - 1);
        self.lists.len() - 1
    }

    /// Cuts `list` into at most `cuts` near-equal ranges (never more
    /// ranges than candidates) and returns one slot per range with its
    /// cost share `|block| × width`.
    fn slots(
        &mut self,
        list: usize,
        cuts: usize,
        radius: usize,
        width: u64,
    ) -> Vec<(UnitSlot, u64)> {
        let g = self.g;
        let pivots = &self.lists[list].pivots;
        let n = pivots.len();
        let cuts = cuts.min(n);
        if self.visited.len() < g.node_count() {
            self.visited.resize(g.node_count(), false);
        }
        let mut out = Vec::with_capacity(cuts);
        for i in 0..cuts {
            let (lo, hi) = (i * n / cuts, (i + 1) * n / cuts);
            let visited = &mut self.visited;
            let (block, size) = self
                .blocks
                .entry((list, lo as u32, hi as u32, radius))
                .or_insert_with(|| {
                    let block =
                        neighborhood::khop_nodes_scratch(g, &pivots[lo..hi], radius, visited);
                    let size = block.block_size(g) as u64;
                    (Arc::new(block), size)
                });
            let slot = UnitSlot {
                pivots: Arc::clone(pivots),
                lo: lo as u32,
                hi: hi as u32,
                block: Arc::clone(block),
            };
            out.push((slot, *size * width));
        }
        out
    }
}

/// Estimates `W(Σ, G)` (procedure `bPar`'s estimation phase / the
/// workload part of `disPar`) with a registry local to the call.
pub fn estimate_workload(sigma: &GfdSet, g: &Graph, opts: &WorkloadOptions) -> Workload {
    estimate_workload_in(sigma, g, opts, &ClassRegistry::new())
}

/// [`estimate_workload`] borrowing a caller-owned [`ClassRegistry`]:
/// every component of every rule registers into it and pivot
/// feasibility reads the **per-isomorphism-class** candidate spaces —
/// one simulation per class instead of one per component (Example 10's
/// reuse, applied to the whole Σ; each component reads its pivot's set
/// at the class representative's variable). Callers that validate
/// repeatedly (or also run detection) pass the same registry so the
/// classes stay warm across calls.
///
/// Σ is grouped by pattern isomorphism class ([`RuleGroups`]) and only
/// a group's representative gets a grid: each of its `k` candidate
/// lists is cut into at most `⌊64^{1/k}⌋` ranges and one unit is
/// emitted per cell of the range grid, so `units ≤ 64 · groups`; a
/// symmetric pair draws both components from one list and keeps only
/// the cells `i ≤ j`.
pub fn estimate_workload_in(
    sigma: &GfdSet,
    g: &Graph,
    opts: &WorkloadOptions,
    registry: &ClassRegistry,
) -> Workload {
    let start = std::time::Instant::now();
    let sims_before = registry.simulations();
    let rules = plan_rules(sigma);
    let groups = RuleGroups::new(sigma);
    let mut est = Estimator {
        g,
        registry,
        prune: opts.prune_empty_pivots,
        list_of: FxHashMap::default(),
        lists: Vec::new(),
        blocks: FxHashMap::default(),
        visited: Vec::new(),
    };
    let mut wl = Workload::default();

    for rule in groups.iter().map(|group| &rules[group.rep]) {
        let k = rule.components.len();
        let cuts = cuts_per_list(k);
        let mut per_component: Vec<Vec<(UnitSlot, u64)>> = Vec::with_capacity(k);
        // A symmetric pair's second component holds the same candidates
        // as its first (its pivot is the isomorphic image of component
        // 0's, and simulation sets are automorphism-invariant), so
        // Example 10's index pairing runs over component 0's ranges.
        let (drawn, copies) = if rule.symmetric_pair { (1, 2) } else { (k, 1) };
        for plan in &rule.components[..drawn] {
            let list = est.list(plan);
            // Pruned candidates count once per component.
            wl.pruned += est.lists[list].pruned * copies;
            let width = plan.width.max(1) as u64;
            per_component.push(est.slots(list, cuts, plan.radius, width));
        }
        if rule.symmetric_pair {
            per_component.push(per_component[0].clone());
        }
        // The empty pattern has no matches; an empty list no pivots.
        if k == 0 || per_component.iter().any(Vec::is_empty) {
            continue;
        }
        // One unit per cell of the range grid, in odometer order.
        let mut cell = vec![0usize; k];
        loop {
            // Unordered pairs: second range at or above the first
            // (Example 10's duplicate removal).
            if !rule.symmetric_pair || cell[0] <= cell[1] {
                let offset = wl.slots.len();
                assert!(offset <= u32::MAX as usize, "slot arena exceeds u32 range");
                let mut cost = 0u64;
                for (ranges, &i) in per_component.iter().zip(&cell) {
                    let (slot, slot_cost) = &ranges[i];
                    cost += slot_cost;
                    wl.slots.push(slot.clone());
                }
                wl.units.push(WorkUnit {
                    rule: rule.rule as u32,
                    slot_offset: offset as u32,
                    slot_len: k as u32,
                    check_both_orientations: rule.symmetric_pair,
                    cost,
                });
            }
            let Some(c) = (0..k).rfind(|&c| cell[c] + 1 < per_component[c].len()) else {
                break;
            };
            cell[c] += 1;
            cell[c + 1..].fill(0);
        }
    }
    wl.plans = rules;
    wl.estimation_seconds = start.elapsed().as_secs_f64();
    wl.simulations = registry.simulations() - sims_before;
    wl
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_graph::{Value, Vocab};
    use gfd_pattern::PatternBuilder;
    use std::sync::Arc;

    /// Nine flights as in Example 10 (flat star entities).
    fn nine_flights() -> Graph {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..9 {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            b.add_edge_labeled(f, id, "number");
            b.set_attr_named(id, "val", Value::str(&format!("FL{i}")));
        }
        b.freeze()
    }

    fn flight_pair_gfd(vocab: Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        b.edge(x, x1, "number");
        let y = b.node("y", "flight");
        let y1 = b.node("y1", "id");
        b.edge(y, y1, "number");
        let q = b.build();
        let val = vocab.intern("val");
        Gfd::new(
            "pair",
            q,
            Dependency::new(vec![Literal::var_eq(VarId(1), val, VarId(3), val)], vec![]),
        )
    }

    #[test]
    fn plan_detects_symmetric_pair() {
        let g = nine_flights();
        let sigma = GfdSet::new(vec![flight_pair_gfd(g.vocab().clone())]);
        let rules = plan_rules(&sigma);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].components.len(), 2);
        assert!(rules[0].symmetric_pair);
        for c in &rules[0].components {
            assert_eq!(c.radius, 1, "flight star has radius 1 at the hub");
        }
    }

    /// The unordered pivot pairs a symmetric-pair workload covers: a
    /// diagonal cell every pair inside its range, an off-diagonal cell
    /// every pair across its two ranges.
    fn covered_pairs(wl: &Workload) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::new();
        for u in &wl.units {
            let [a, b] = u.slots(&wl.slots) else {
                panic!("two components")
            };
            for &x in a.range() {
                for &y in b.range() {
                    if a.lo != b.lo || x < y {
                        pairs.push((x.min(y), x.max(y)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn example10_unordered_pairs() {
        // 9 flights, symmetric 2-component rule → C(9,2) = 36 pivot
        // pairs, each covered by exactly one unit.
        let g = nine_flights();
        let sigma = GfdSet::new(vec![flight_pair_gfd(g.vocab().clone())]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let pairs = covered_pairs(&wl);
        assert_eq!(pairs.len(), 36);
        assert!(pairs.windows(2).all(|w| w[0] != w[1]), "no pair twice");
        assert!(wl.units.iter().all(|u| u.check_both_orientations));
        // 9 candidates cut 8 ways: seven one-flight ranges and one of
        // two, cells i ≤ j only.
        assert_eq!(wl.units.len(), 8 * 9 / 2);
        // A one-flight range's 1-hop block is {flight, id} + 1 edge =
        // 3; a cell costs the sum of its two blocks.
        let mut costs: Vec<u64> = wl.units.iter().map(|u| u.cost).collect();
        costs.sort_unstable();
        costs.dedup();
        assert_eq!(costs, [6, 9, 12]);
    }

    /// Lists longer than the cut count: ranges hold several pivots, a
    /// rule never exceeds its unit bound, and the pairs still come out
    /// exactly once.
    #[test]
    fn long_lists_are_cut_into_bounded_grids() {
        assert_eq!(
            [1, 2, 3, 4, 6, 7].map(cuts_per_list),
            [64, 8, 4, 2, 2, 1],
            "⌊64^(1/k)⌋"
        );
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for _ in 0..100 {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            b.add_edge_labeled(f, id, "number");
        }
        let g = b.freeze();
        let sigma = GfdSet::new(vec![flight_pair_gfd(g.vocab().clone())]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert_eq!(wl.units.len(), 36, "8 ranges, cells i ≤ j");
        assert!(wl
            .slots
            .iter()
            .all(|s| (12..=13).contains(&s.range().len())));
        let pairs = covered_pairs(&wl);
        assert_eq!(pairs.len(), 100 * 99 / 2);
        assert!(pairs.windows(2).all(|w| w[0] != w[1]), "no pair twice");
    }

    #[test]
    fn single_component_rule_units() {
        let g = nine_flights();
        let vocab = g.vocab().clone();
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        b.edge(x, x1, "number");
        let q = b.build();
        let val = vocab.intern("val");
        let gfd = Gfd::new(
            "single",
            q,
            Dependency::always(vec![Literal::var_eq(VarId(1), val, VarId(1), val)]),
        );
        let wl = estimate_workload(&GfdSet::new(vec![gfd]), &g, &WorkloadOptions::default());
        assert_eq!(wl.units.len(), 9);
        assert!(wl.units.iter().all(|u| !u.check_both_orientations));
    }

    #[test]
    fn infeasible_pivots_pruned() {
        // A flight without an id leaf can never match the component.
        let g = nine_flights().edit(|b| {
            b.add_node_labeled("flight");
        });
        let sigma = GfdSet::new(vec![flight_pair_gfd(g.vocab().clone())]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert_eq!(wl.units.len(), 36, "the id-less flight contributes nothing");
        assert!(wl.pruned >= 2, "pruned once per component");
    }

    /// The PR's acceptance probe: on a mined Σ whose rules share
    /// isomorphic component classes, `estimate_workload` runs exactly
    /// one worklist simulation per class — never one per component.
    #[test]
    fn estimate_simulates_once_per_isomorphism_class() {
        use gfd_datagen::{reallife_graph, RealLifeConfig, RealLifeKind};
        use gfd_pattern::canonical_form;

        let g = reallife_graph(&RealLifeConfig {
            scale: 0.02,
            ..RealLifeConfig::new(RealLifeKind::Yago2)
        });
        // Mine 8 rules, then pair each with an isomorphic twin whose
        // variables are declared in reverse order under fresh names —
        // the Example 10 shape at Σ scale: 16 rules, ≤ 8 + shared
        // classes among the mined half already.
        let mined = gfd_datagen::mine_gfds(
            &g,
            &gfd_datagen::RuleGenConfig {
                count: 8,
                pattern_nodes: 3,
                two_component_fraction: 0.25,
                ..Default::default()
            },
        );
        let mut rules: Vec<Gfd> = mined.iter().cloned().collect();
        for (i, gfd) in mined.iter().enumerate() {
            let twin = gfd_datagen::isomorphic_twin(&gfd.pattern, i);
            rules.push(Gfd::new(format!("twin-{i}"), twin, gfd.dep.clone()));
        }
        let sigma = GfdSet::new(rules);
        assert!(sigma.len() >= 16, "Σ must hold at least 16 rules");

        // Independently count the component isomorphism classes.
        let plans = plan_rules(&sigma);
        let components: Vec<&Pattern> = plans
            .iter()
            .flat_map(|r| r.components.iter().map(|c| &c.pattern))
            .collect();
        let mut codes: Vec<Vec<u64>> = components
            .iter()
            .map(|q| canonical_form(q).code().to_vec())
            .collect();
        codes.sort();
        codes.dedup();
        let classes = codes.len();
        assert!(
            classes < components.len(),
            "premise: the mined Σ must share component classes \
             ({classes} classes over {} components)",
            components.len()
        );

        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert_eq!(
            wl.simulations,
            classes,
            "one simulation per isomorphism class, not per component ({} components)",
            components.len()
        );
    }

    /// Unit costs weight each block by its component's decomposition
    /// width: a triangle (width 2) counts its blocks twice, while the
    /// star rules above (width 1) keep cost = |G_z̄| exactly.
    #[test]
    fn cyclic_components_weight_unit_costs_by_width() {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let ns: Vec<_> = (0..3).map(|_| b.add_node_labeled("person")).collect();
        for k in 0..3 {
            b.add_edge_labeled(ns[k], ns[(k + 1) % 3], "knows");
        }
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.node("x", "person");
        let y = pb.node("y", "person");
        let z = pb.node("z", "person");
        pb.edge(x, y, "knows");
        pb.edge(y, z, "knows");
        pb.edge(z, x, "knows");
        let val = g.vocab().intern("val");
        let gfd = Gfd::new(
            "tri",
            pb.build(),
            Dependency::always(vec![Literal::var_eq(x, val, y, val)]),
        );
        let sigma = GfdSet::new(vec![gfd]);
        let rules = plan_rules(&sigma);
        assert_eq!(rules[0].components[0].width, 2, "triangle has width 2");
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        // Radius-1 block around any pivot is the whole 3-node triangle
        // plus its 3 edges → |G_z̄| = 6, weighted ×2 by the width.
        assert_eq!(wl.units.len(), 3);
        assert!(wl.units.iter().all(|u| u.cost == 12));
    }

    /// Estimation prices and prunes by dual simulation alone: a 4-cycle
    /// fools it (its checks are degree-local, blind to cycle length),
    /// so the 4-cycle's pivots become units at the ordinary
    /// `|block| × width` cost; executing them finds no match.
    #[test]
    fn simulation_admitted_pivots_all_become_units_at_proxy_cost() {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let tri: Vec<_> = (0..3).map(|_| b.add_node_labeled("person")).collect();
        for k in 0..3 {
            b.add_edge_labeled(tri[k], tri[(k + 1) % 3], "knows");
        }
        let cyc: Vec<_> = (0..4).map(|_| b.add_node_labeled("person")).collect();
        for k in 0..4 {
            b.add_edge_labeled(cyc[k], cyc[(k + 1) % 4], "knows");
        }
        let g = b.freeze();
        let mut pb = PatternBuilder::new(g.vocab().clone());
        let x = pb.node("x", "person");
        let y = pb.node("y", "person");
        let z = pb.node("z", "person");
        pb.edge(x, y, "knows");
        pb.edge(y, z, "knows");
        pb.edge(z, x, "knows");
        let val = g.vocab().intern("val");
        let gfd = Gfd::new(
            "tri",
            pb.build(),
            Dependency::always(vec![Literal::var_eq(x, val, y, val)]),
        );
        let wl = estimate_workload(&GfdSet::new(vec![gfd]), &g, &WorkloadOptions::default());
        assert_eq!(wl.units.len(), 7, "dual simulation admits the 4-cycle");
        assert_eq!(wl.pruned, 0);
        // Radius-1 blocks: the whole triangle (3 nodes + 3 edges), or
        // a 4-cycle node with its two neighbours (3 nodes + 2 edges);
        // both weighted ×2 by the triangle pattern's width.
        let mut costs: Vec<u64> = wl.units.iter().map(|u| u.cost).collect();
        costs.sort_unstable();
        assert_eq!(costs, [10, 10, 10, 10, 12, 12, 12]);
    }

    /// Twin rules share one grid: units name the group's representative
    /// only. A component of another group that is isomorphic to one of
    /// the representative's draws the same candidate list, and with it
    /// one block per range: its slots are the representative's, by
    /// pointer.
    #[test]
    fn block_cache_reuses() {
        let g = nine_flights();
        let vocab = g.vocab().clone();
        // The pair's star beside a lone id: a two-component pattern of
        // its own class whose first component is the pair's star.
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        b.edge(x, x1, "number");
        let z = b.node("z", "id");
        let val = vocab.intern("val");
        let star_and_id = Gfd::new(
            "star-and-id",
            b.build(),
            Dependency::always(vec![Literal::var_eq(x1, val, z, val)]),
        );
        let sigma = GfdSet::new(vec![
            flight_pair_gfd(vocab.clone()),
            star_and_id,
            flight_pair_gfd(vocab),
        ]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert!(
            wl.units.iter().all(|u| u.rule != 2),
            "the twin is checked on its representative's grid"
        );
        let first_slots = |rule: u32| -> Vec<&UnitSlot> {
            let units = wl.units.iter().filter(|u| u.rule == rule);
            units.map(|u| &u.slots(&wl.slots)[0]).collect()
        };
        let (pair, star) = (first_slots(0), first_slots(1));
        assert_eq!((pair.len(), star.len()), (36, 64), "8 ranges per list");
        for s in &star {
            let t = pair.iter().find(|t| (t.lo, t.hi) == (s.lo, s.hi));
            let t = t.expect("one cut of one list");
            assert!(Arc::ptr_eq(&s.pivots, &t.pivots), "one list");
            assert!(Arc::ptr_eq(&s.block, &t.block), "one block per range");
        }
        let mut blocks: Vec<_> = wl.slots.iter().map(|s| Arc::as_ptr(&s.block)).collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len(), 16, "one BFS per range of the two lists");
    }
}
