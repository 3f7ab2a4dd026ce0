//! The workload model of §5.2: pivot vectors, work units, `W(Σ, G)`.
//!
//! For each GFD `ϕ` with pivot vector `PV(ϕ) = ((z_1, c¹_Q), …,
//! (z_k, c^k_Q))`, the paper's *work unit* is `w = ⟨v̄_z, G_z̄⟩`: a pivot
//! candidate per connected component together with the candidates'
//! `c^i_Q`-hop data blocks. By the locality of subgraph isomorphism,
//! a match pinned at a pivot candidate cannot leave that candidate's
//! block, so validating `ϕ` reduces to enumerating the matches whose
//! pivots lie in its work units (each pivot tuple checked exactly
//! once).
//!
//! Σ is planned once per run ([`plan_rules`]): grouped by pattern
//! isomorphism class ([`RuleGroups`]), and per group the pivot and
//! decomposition width of each part of its representative plus
//! Example 10's symmetric-pair flag ([`GroupPlan`]). Estimation, the
//! unit executor, `disVal`'s byte model and the service all read that
//! one [`SigmaPlan`], so a part's class view, its pin and its rows come
//! from one [`RuleGroup::parts`] entry.
//!
//! A [`WorkUnit`] here is a *batch* of the paper's units whose pivots
//! form contiguous ranges: each part's sorted feasible-candidate list
//! is cut into a few near-equal ranges, and a unit is one cell of a
//! rule group's range grid — every pivot tuple drawn from the cell's
//! ranges, checked exactly once for every rule of the group, at most 64
//! units per group whatever the graph's size. Executing a cell — one
//! search per part, its pivot pinned at the node-id interval the cell's
//! range spans — checks every member on each row. A unit is priced from
//! the candidate space estimation already reads, not from its data
//! block `G_z̄`: each pivot weighs its root pools (`root_pools`) — the
//! runs a search pinned there intersects first — and a `k ≥ 2` cell
//! adds its join count. No code builds a data block: `disVal` sizes the
//! bytes it ships from the same root pools.
//!
//! Following Example 10, symmetric pivot tuples of a group whose two
//! parts are isomorphic are deduplicated — only cells `i ≤ j` of the
//! grid exist, and the executor checks both pivot orientations of an
//! off-diagonal cell — and pivots that cannot locally match their part
//! are pruned during estimation.

use std::sync::Arc;

use gfd_core::group::RuleGroup;
use gfd_core::{GfdSet, RuleGroups};
use gfd_graph::{Graph, NodeId};
use gfd_match::simulation::simulation_sets;
use gfd_match::{ClassRegistry, ClassView};
use gfd_pattern::{
    analysis::pivot_vector, iso_witness, tree_decomposition, PatLabel, Pattern, VarId,
};
use gfd_util::FxHashMap;

/// Σ planned for the parallel path: its rule groups and, group for
/// group, their [`GroupPlan`]s. Built once per run by [`plan_rules`].
#[derive(Clone, Debug)]
pub struct SigmaPlan {
    /// Σ grouped by pattern isomorphism class, in the order of the
    /// groups' representatives.
    pub groups: RuleGroups,
    /// One plan per group, in group order.
    plans: Vec<GroupPlan>,
}

/// The pivots of one rule group's representative (`PV(ϕ)`, §5.2).
#[derive(Clone, Debug)]
pub struct GroupPlan {
    /// Per part of the representative, in [`RuleGroup::parts`] order:
    /// its pivot, a representative variable.
    pub pivots: Vec<VarId>,
    /// Per part: the width of its tree decomposition (0 for a single
    /// node, 1 for trees, ≥ 2 for cyclic parts) — the planner's
    /// difficulty signal, folded into unit costs: a pinned search gets
    /// more expensive per pool entry as the part's width grows.
    pub widths: Vec<usize>,
    /// True if the representative has exactly two parts and they are
    /// isomorphic (Example 10's dedup applies). Part 1's pivot is then
    /// the isomorphic image of part 0's, so both parts draw their pivot
    /// candidates from one list.
    pub symmetric_pair: bool,
}

impl GroupPlan {
    /// Part `i`'s pivot in the part's own variable numbering.
    pub fn local_pivot(&self, group: &RuleGroup, i: usize) -> VarId {
        let vars = &group.parts[i].1;
        // Invariant: a pivot is picked from its part's variables, which
        // `connected_components` lists in ascending order.
        let local = vars.binary_search(&self.pivots[i]);
        VarId(local.expect("a pivot is in its part") as u32)
    }
}

impl SigmaPlan {
    /// The groups with their plans, in group order.
    pub fn iter(&self) -> impl Iterator<Item = (&RuleGroup, &GroupPlan)> {
        self.groups.iter().zip(&self.plans)
    }

    /// The index of the group whose representative is `rep` — the rule
    /// a [`WorkUnit`] names.
    pub fn group_index(&self, rep: usize) -> usize {
        let found = self.groups.binary_search_by_key(&rep, |group| group.rep);
        found.expect("units are cut for group representatives")
    }

    /// The group at `index` with its plan.
    pub fn group(&self, index: usize) -> (&RuleGroup, &GroupPlan) {
        (&self.groups[index], &self.plans[index])
    }
}

/// One part's share of a work unit: a contiguous range of the part's
/// sorted pivot-candidate list.
#[derive(Clone, Debug)]
pub struct UnitSlot {
    /// The part's sorted feasible pivot candidates — one list per
    /// (isomorphism class, representative pivot variable), shared by
    /// every slot cut from it, across rule groups too.
    pub pivots: Arc<[NodeId]>,
    /// Start of the slot's range of `pivots`.
    pub lo: u32,
    /// End (exclusive) of the slot's range of `pivots`.
    pub hi: u32,
}

impl UnitSlot {
    /// The pivot candidates `v_z` of this part — all that
    /// executing the unit reads.
    #[inline]
    pub fn range(&self) -> &[NodeId] {
        &self.pivots[self.lo as usize..self.hi as usize]
    }
}

/// A work unit — one cell of its rule group's range grid — as a
/// `(rule, offset, len, cost)` descriptor over the [`Workload`]'s flat
/// slot arena: a 24-byte `Copy` record, so splitting, shipping and
/// re-assembling units copies descriptors, never slot vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkUnit {
    /// Index in `Σ` of the group's representative, whose pattern the
    /// unit enumerates; the unit checks every rule of the group.
    pub rule: u32,
    /// First slot in the owning arena.
    pub slot_offset: u32,
    /// Number of slots (= parts `k`), in part order.
    pub slot_len: u32,
    /// The unit's load estimate, in place of Example 11's `|G_z̄|`: per
    /// slot, the sum over its pivots `v` of `1 +` the size of `v`'s
    /// root expansion pool in the class's candidate space, times
    /// `max(width, 1)` of the part (a width-`w` part enumerates more
    /// per pool entry than a tree); for `k ≥ 2` plus
    /// the cell's join count `orientations × Π |range_i|`.
    pub cost: u64,
}

impl WorkUnit {
    /// Number of parts `k` of the unit's pattern.
    pub fn k(&self) -> usize {
        self.slot_len as usize
    }

    /// The rule index as a `usize` (for indexing `Σ`).
    #[inline]
    pub fn rule(&self) -> usize {
        self.rule as usize
    }

    /// The unit's entries of an arena indexed like the workload's slots
    /// — the slots themselves, or anything built per slot.
    #[inline]
    pub fn slots<'a, T>(&self, arena: &'a [T]) -> &'a [T] {
        &arena[self.slot_offset as usize..self.slot_offset as usize + self.slot_len as usize]
    }
}

/// Knobs for workload estimation.
#[derive(Clone, Debug)]
pub struct WorkloadOptions {
    /// Prune pivot candidates outside the part's dual-simulation
    /// relation (one worklist simulation per part instead of a
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
#[derive(Debug)]
pub struct Workload {
    /// The plan the units were assembled from ([`plan_rules`] of the
    /// estimated Σ) — what executing the units takes, so callers plan
    /// once per run.
    pub plan: SigmaPlan,
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
    /// the shared [`ClassRegistry`], at most one per part isomorphism
    /// class of Σ; 0 when pruning is off or the borrowed
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

/// Plans Σ for one run: groups it ([`RuleGroups`]) and gives each
/// group's representative parts their pivots and widths (`PV(ϕ)` is
/// `O(|Q|²)`; §5.2).
pub fn plan_rules(sigma: &GfdSet) -> SigmaPlan {
    let groups = RuleGroups::new(sigma);
    let plans = groups
        .iter()
        .map(|group| {
            let pv = pivot_vector(&sigma.get(group.rep).pattern);
            // `pivot_vector` and `RuleGroup::parts` both cut the
            // pattern along `connected_components`, in one order.
            debug_assert!(pv
                .components
                .iter()
                .zip(&group.parts)
                .all(|(c, p)| c.vars == p.1));
            let mut plan = GroupPlan {
                pivots: pv.components.iter().map(|c| c.pivot).collect(),
                widths: group
                    .parts
                    .iter()
                    .map(|(q, _)| tree_decomposition(q).width())
                    .collect(),
                symmetric_pair: false,
            };
            // Example 10's dedup pairs *indices* of the two parts'
            // candidate lists, which are one list only if the pivots
            // correspond: take part 1's pivot to be the isomorphic image
            // of part 0's (the radius is isomorphism-invariant, so it is
            // still a minimum-radius pivot) rather than whatever the
            // tie-break on declaration order picked.
            if let [(q0, _), (q1, vars1)] = &group.parts[..] {
                if let Some(w) = iso_witness(q0, q1) {
                    plan.pivots[1] = vars1[w.map(plan.local_pivot(group, 0)).index()];
                    plan.symmetric_pair = true;
                }
            }
            plan
        })
        .collect();
    SigmaPlan { groups, plans }
}

/// Number of pivot candidates a pivot label admits before any pruning.
fn pivot_universe(g: &Graph, label: PatLabel) -> usize {
    match label {
        PatLabel::Sym(s) => g.extent(s).len(),
        PatLabel::Wildcard => g.node_count(),
    }
}

/// Extracts a part's feasible pivot candidates from already-computed
/// (whole-graph) simulation sets: the set of `pivot` — the part's pivot
/// in the sets' own variable numbering, labeled `label` — or nothing
/// when the part is provably matchless. Returns the sorted candidate
/// list and how many raw candidates the filter pruned.
fn pivots_from_sets<'s>(
    g: &Graph,
    label: PatLabel,
    sets: &'s [Vec<NodeId>],
    pivot: VarId,
) -> (&'s [NodeId], usize) {
    let universe = pivot_universe(g, label);
    if sets.iter().any(Vec::is_empty) {
        return (&[], universe);
    }
    let cands = &sets[pivot.index()];
    (cands, universe - cands.len())
}

/// Pivot candidates of `part` at its variable `pivot`, optionally
/// pruned by one dual simulation of the part over the whole graph.
/// Returns the sorted candidate list and how many raw candidates were
/// pruned.
///
/// Replaces the per-candidate backtracking probe: a pivot candidate
/// outside `sim(z)` cannot anchor any match (the simulation contains
/// every match) — the unscoped check is exactly the whole-graph,
/// pivot-pinned search the unit will run.
///
/// This is the standalone (one part, own simulation) reference;
/// [`estimate_workload`] draws the same information from a
/// [`ClassRegistry`] shared across the whole Σ instead, so isomorphic
/// parts pay for one simulation — and share one list — together.
pub fn feasible_pivots(
    g: &Graph,
    part: &Pattern,
    pivot: VarId,
    prune: bool,
) -> (Vec<NodeId>, usize) {
    let label = part.label(pivot);
    if !prune {
        let all = match label {
            PatLabel::Sym(s) => g.extent(s).to_vec(),
            PatLabel::Wildcard => g.nodes().collect(),
        };
        return (all, 0);
    }
    let sets = simulation_sets(part, g, None);
    let (cands, pruned) = pivots_from_sets(g, label, &sets, pivot);
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

/// What determines a part's candidate list, so parts that must draw
/// the same list — isomorphic parts of different groups — share one
/// `Arc`, and with it ranges and prices.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ListKey {
    /// Pruned: the simulation set of a class representative's variable.
    Class(usize, VarId),
    /// Unpruned: a pivot label's extent.
    Label(PatLabel),
}

/// One deduplicated candidate list, the prefix sums of its pivots'
/// weights, and how many raw candidates the feasibility filter pruned
/// from it.
struct PivotList {
    pivots: Arc<[NodeId]>,
    /// `weights[i]` = the summed weights of `pivots[..i]`.
    weights: Vec<u64>,
    pruned: usize,
}

/// The root pools of pivot `v` of the class's representative variable
/// `pivot`: the runs at `v` of every pattern edge at `pivot` (out-edges,
/// then in-edges) — the pools a search pinned at `v` intersects first.
/// What a unit is priced from and what `disVal`'s byte model ships.
pub(crate) fn root_pools(
    view: &ClassView,
    pivot: VarId,
    v: NodeId,
) -> impl Iterator<Item = &[NodeId]> + '_ {
    let (space, edges) = (&view.space, view.rep.edges().iter().enumerate());
    let out = edges.clone().filter(move |(_, e)| e.src == pivot);
    let into = edges.filter(move |(_, e)| e.dst == pivot);
    let fwd = out.map(move |(e, _)| space.forward[e].run(v));
    let rev = into.map(move |(e, _)| space.reverse[e].run(v));
    fwd.chain(rev)
}

/// The weight of pivot `v` of the class's representative variable
/// `pivot`: `1 +` the summed sizes of its [`root_pools`].
fn root_pool_weight(view: &ClassView, pivot: VarId, v: NodeId) -> u64 {
    1 + root_pools(view, pivot, v)
        .map(<[NodeId]>::len)
        .sum::<usize>() as u64
}

/// The per-call state of [`estimate_workload_in`]: candidate lists by
/// [`ListKey`], each with its pivots' weights.
struct Estimator<'a> {
    g: &'a Graph,
    registry: &'a ClassRegistry,
    prune: bool,
    list_of: FxHashMap<ListKey, usize>,
    lists: Vec<PivotList>,
}

impl Estimator<'_> {
    /// The index of the candidate list of `part`'s variable `pivot`,
    /// computed on first use: with pruning on, its set in the class's
    /// candidate space (one simulation per class, read at the
    /// representative's variable), each pivot weighing its root
    /// expansion pool; the pivot label's whole extent otherwise, each
    /// pivot weighing `1 + degree` (there is no space to read).
    fn list(&mut self, part: &Pattern, local_pivot: VarId) -> usize {
        let (g, label) = (self.g, part.label(local_pivot));
        let (key, set) = if self.prune {
            let h = self.registry.register(part);
            let view = self.registry.space(h, g);
            let pivot = view.rep_var(local_pivot);
            let key = ListKey::Class(self.registry.class_of(h), pivot);
            (key, Some((view, pivot)))
        } else {
            (ListKey::Label(label), None)
        };
        if let Some(&list) = self.list_of.get(&key) {
            return list;
        }
        let (pivots, pruned): (Arc<[NodeId]>, _) = match &set {
            Some((view, pivot)) => {
                let (cands, pruned) = pivots_from_sets(g, label, &view.space.sets, *pivot);
                (cands.into(), pruned)
            }
            None => (feasible_pivots(g, part, local_pivot, false).0.into(), 0),
        };
        let weight = |v: NodeId| match &set {
            Some((view, pivot)) => root_pool_weight(view, *pivot, v),
            None => 1 + g.degree(v) as u64,
        };
        let mut sum = 0;
        let sums = pivots.iter().map(|&v| {
            sum += weight(v);
            sum
        });
        let weights = std::iter::once(0).chain(sums).collect();
        self.lists.push(PivotList {
            pivots,
            weights,
            pruned,
        });
        self.list_of.insert(key, self.lists.len() - 1);
        self.lists.len() - 1
    }

    /// Cuts `list` into at most `cuts` near-equal ranges (never more
    /// ranges than candidates) and returns one slot per range with its
    /// price: the range's summed pivot weights × `width`.
    fn slots(&self, list: usize, cuts: usize, width: u64) -> Vec<(UnitSlot, u64)> {
        let PivotList {
            pivots, weights, ..
        } = &self.lists[list];
        let n = pivots.len();
        let cuts = cuts.min(n);
        (0..cuts)
            .map(|i| {
                let (lo, hi) = (i * n / cuts, (i + 1) * n / cuts);
                let slot = UnitSlot {
                    pivots: Arc::clone(pivots),
                    lo: lo as u32,
                    hi: hi as u32,
                };
                (slot, (weights[hi] - weights[lo]) * width)
            })
            .collect()
    }
}

/// Estimates `W(Σ, G)` (procedure `bPar`'s estimation phase / the
/// workload part of `disPar`) with a registry local to the call.
pub fn estimate_workload(sigma: &GfdSet, g: &Graph, opts: &WorkloadOptions) -> Workload {
    estimate_workload_in(sigma, g, opts, &ClassRegistry::new())
}

/// [`estimate_workload`] borrowing a caller-owned [`ClassRegistry`]:
/// every part of every group representative registers into it and
/// pivot feasibility reads the **per-isomorphism-class** candidate
/// spaces — one simulation per class instead of one per part (Example
/// 10's reuse, applied to the whole Σ; each part reads its pivot's set
/// at the class representative's variable). Callers that validate
/// repeatedly (or also run detection) pass the same registry so the
/// classes stay warm across calls.
///
/// Σ is planned once ([`plan_rules`]) and only a group's
/// representative gets a grid: each of its `k` candidate
/// lists is cut into at most `⌊64^{1/k}⌋` ranges and one unit is
/// emitted per cell of the range grid, so `units ≤ 64 · groups`; a
/// symmetric pair draws both parts from one list and keeps only the
/// cells `i ≤ j`.
pub fn estimate_workload_in(
    sigma: &GfdSet,
    g: &Graph,
    opts: &WorkloadOptions,
    registry: &ClassRegistry,
) -> Workload {
    let start = std::time::Instant::now();
    let sims_before = registry.simulations();
    let plan = plan_rules(sigma);
    let mut est = Estimator {
        g,
        registry,
        prune: opts.prune_empty_pivots,
        list_of: FxHashMap::default(),
        lists: Vec::new(),
    };
    let (mut units, mut slots, mut pruned) = (Vec::new(), Vec::new(), 0);

    for (group, gp) in plan.iter() {
        let k = group.parts.len();
        let cuts = cuts_per_list(k);
        let mut per_part: Vec<Vec<(UnitSlot, u64)>> = Vec::with_capacity(k);
        // A symmetric pair's second part holds the same candidates as
        // its first (its pivot is the isomorphic image of part 0's, and
        // simulation sets are automorphism-invariant), so Example 10's
        // index pairing runs over part 0's ranges.
        let (drawn, copies) = if gp.symmetric_pair { (1, 2) } else { (k, 1) };
        for (i, (part, _)) in group.parts[..drawn].iter().enumerate() {
            let list = est.list(part, gp.local_pivot(group, i));
            // Pruned candidates count once per part.
            pruned += est.lists[list].pruned * copies;
            let width = gp.widths[i].max(1) as u64;
            per_part.push(est.slots(list, cuts, width));
        }
        if gp.symmetric_pair {
            per_part.push(per_part[0].clone());
        }
        // The empty pattern has no matches; an empty list no pivots.
        if k == 0 || per_part.iter().any(Vec::is_empty) {
            continue;
        }
        // One unit per cell of the range grid, in odometer order.
        let mut cell = vec![0usize; k];
        loop {
            // Unordered pairs: second range at or above the first
            // (Example 10's duplicate removal).
            if !gp.symmetric_pair || cell[0] <= cell[1] {
                let offset = slots.len();
                assert!(offset <= u32::MAX as usize, "slot arena exceeds u32 range");
                let mut cost = 0u64;
                let mut joins = 1u64;
                for (ranges, &i) in per_part.iter().zip(&cell) {
                    let (slot, price) = &ranges[i];
                    cost += price;
                    joins *= slot.range().len() as u64;
                    slots.push(slot.clone());
                }
                // The cell's join count for k ≥ 2: both orientations
                // off a symmetric pair's diagonal.
                let orientations = 1 + u64::from(gp.symmetric_pair && cell[0] != cell[1]);
                cost += u64::from(k >= 2) * orientations * joins;
                units.push(WorkUnit {
                    rule: group.rep as u32,
                    slot_offset: offset as u32,
                    slot_len: k as u32,
                    cost,
                });
            }
            let Some(c) = (0..k).rfind(|&c| cell[c] + 1 < per_part[c].len()) else {
                break;
            };
            cell[c] += 1;
            cell[c + 1..].fill(0);
        }
    }
    Workload {
        plan,
        units,
        slots,
        estimation_seconds: start.elapsed().as_secs_f64(),
        pruned,
        simulations: registry.simulations() - sims_before,
    }
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
        let plan = plan_rules(&sigma);
        let [(group, gp)] = &plan.iter().collect::<Vec<_>>()[..] else {
            panic!("one group")
        };
        assert_eq!(group.parts.len(), 2);
        assert!(gp.symmetric_pair);
        // Each star's flight: the tie-broken minimum-radius pivot of
        // part 0, and its isomorphic image in part 1.
        assert_eq!(gp.pivots, [VarId(0), VarId(2)]);
        assert_eq!(gp.widths, [1, 1]);
        assert_eq!(
            (gp.local_pivot(group, 0), gp.local_pivot(group, 1)),
            (VarId(0), VarId(0))
        );
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
        assert!(wl.plan.iter().all(|(_, gp)| gp.symmetric_pair));
        // 9 candidates cut 8 ways: seven one-flight ranges and one of
        // two, cells i ≤ j only.
        assert_eq!(wl.units.len(), 8 * 9 / 2);
        // A flight weighs 1 + its one `number` run entry = 2, so a
        // range prices 2 per flight; a cell adds its join count, both
        // orientations off the diagonal: 2+2+1, 2+2+2, 2+4+2·2, 4+4+4.
        let mut costs: Vec<u64> = wl.units.iter().map(|u| u.cost).collect();
        costs.sort_unstable();
        costs.dedup();
        assert_eq!(costs, [5, 6, 10, 12]);
    }

    /// Every slot is priced by its pivots' root pools in the class's
    /// candidate space — `1 +` the run lengths at the representative's
    /// pivot variable — and a symmetric pair's cell adds one join per
    /// pivot pair on the diagonal and two off it.
    #[test]
    fn unit_price_is_the_pivots_root_pools() {
        // Flight i has 1 + i % 3 ids, so pivots weigh 2, 3 or 4.
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..40 {
            let f = b.add_node_labeled("flight");
            for _ in 0..=i % 3 {
                let id = b.add_node_labeled("id");
                b.add_edge_labeled(f, id, "number");
            }
        }
        let g = b.freeze();
        let sigma = GfdSet::new(vec![flight_pair_gfd(g.vocab().clone())]);
        let registry = ClassRegistry::new();
        let wl = estimate_workload_in(&sigma, &g, &WorkloadOptions::default(), &registry);
        let (group, gp) = wl.plan.group(0);
        let view = registry.space(registry.register(&group.parts[0].0), &g);
        let pivot = view.rep_var(gp.local_pivot(group, 0));
        let weight = |v: NodeId| -> u64 {
            let edges = view.rep.edges().iter().enumerate();
            let runs = edges.map(|(e, edge)| {
                let fwd = (edge.src == pivot).then(|| view.space.forward[e].run(v).len());
                let rev = (edge.dst == pivot).then(|| view.space.reverse[e].run(v).len());
                fwd.unwrap_or(0) + rev.unwrap_or(0)
            });
            1 + runs.sum::<usize>() as u64
        };
        assert_eq!(
            (0..3)
                .map(|i| weight(g.extent(g.label(NodeId(0)))[i]))
                .collect::<Vec<_>>(),
            [2, 3, 4],
            "premise: pivots differ in weight"
        );
        let (mut diagonal, mut off_diagonal) = (0, 0);
        for u in &wl.units {
            let [a, b] = u.slots(&wl.slots) else {
                panic!("two components")
            };
            let price = |s: &UnitSlot| s.range().iter().map(|&v| weight(v)).sum::<u64>();
            let pairs = (a.range().len() * b.range().len()) as u64;
            let orientations = if a.lo == b.lo {
                diagonal += 1;
                1
            } else {
                off_diagonal += 1;
                2
            };
            assert_eq!(u.cost, price(a) + price(b) + orientations * pairs);
        }
        assert_eq!((diagonal, off_diagonal), (8, 28), "8 ranges, cells i ≤ j");
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
        assert!(wl.plan.iter().all(|(_, gp)| !gp.symmetric_pair));
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
        assert!(wl.pruned >= 2, "pruned once per part");
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
        let components: Vec<Pattern> = (sigma.iter())
            .flat_map(|gfd| gfd_pattern::signature::decompose(&gfd.pattern))
            .map(|(q, _)| q)
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

    /// Unit costs weight each slot by its component's decomposition
    /// width: a triangle (width 2) counts its pivots' pools twice, while
    /// the star rules above (width 1) count them once.
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
        let plan = plan_rules(&sigma);
        assert_eq!(plan.group(0).1.widths, [2], "triangle has width 2");
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        // A pivot weighs 1 + one out-run entry + one in-run entry = 3
        // (the pivot sits on two pattern edges), weighted ×2 by the
        // width.
        assert_eq!(wl.units.len(), 3);
        assert!(wl.units.iter().all(|u| u.cost == 6));
    }

    /// Estimation prices and prunes by dual simulation alone: a 4-cycle
    /// fools it (its checks are degree-local, blind to cycle length),
    /// so the 4-cycle's pivots become units at the same price as the
    /// triangle's — their candidate-space pools look alike; executing
    /// them finds no match.
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
        // Every person, on the triangle or the 4-cycle, has one
        // admitted out-neighbour and one admitted in-neighbour: weight
        // 3, ×2 by the triangle pattern's width.
        assert!(wl.units.iter().all(|u| u.cost == 6));
    }

    /// Twin rules share one grid: units name the group's representative
    /// only. A component of another group that is isomorphic to one of
    /// the representative's draws the same candidate list, and with it
    /// the same ranges: its slots are the representative's, by pointer.
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
        }
    }
}
