//! The workload model of §5.2: pivot vectors, work units, `W(Σ, G)`.
//!
//! For each GFD `ϕ` with pivot vector `PV(ϕ) = ((z_1, c¹_Q), …,
//! (z_k, c^k_Q))`, a *work unit* is `w = ⟨v̄_z, G_z̄⟩`: a pivot
//! candidate per connected component together with the candidates'
//! `c^i_Q`-hop data blocks. By the locality of subgraph isomorphism,
//! a match pinned at a pivot candidate cannot leave that candidate's
//! block, so validating `ϕ` reduces to enumerating matches pinned at
//! the pivots of its work units (each pivot tuple checked exactly
//! once). The block itself is what a unit *costs* — the load estimate
//! here, the bytes `disVal` ships — and never an input of the search.
//!
//! Following Example 10, symmetric pivot tuples of *isomorphic*
//! components are deduplicated (the unit then checks both pivot
//! orientations internally), and units whose pivots cannot locally
//! match their component are pruned during estimation.

use std::sync::Arc;

use gfd_core::GfdSet;
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

/// One component's share of a work unit: the pivot candidate and its
/// data block.
#[derive(Clone, Debug)]
pub struct UnitSlot {
    /// The pivot candidate `v_z` of this component — all that
    /// executing the unit reads.
    pub pivot: NodeId,
    /// Its `c^i_Q`-hop data block, shared with the [`BlockCache`] —
    /// cloning a slot never deep-copies a block. A cost input only:
    /// the size term of the unit's load estimate and the byte model of
    /// `disVal`'s shipment; execution never searches inside it.
    pub block: Arc<NodeSet>,
}

/// A work unit `w = ⟨v̄_z, G_z̄⟩`, as a `(rule, offset, len, flags)`
/// descriptor over the [`Workload`]'s flat slot arena.
///
/// Units used to own a per-unit slot `Vec` — one heap allocation per
/// unit, materialized by the thousand during estimation. Now all slots
/// of a workload live in one arena (`Workload::slots`) and a unit is a
/// 24-byte `Copy` record pointing into it: estimation appends to two
/// flat vectors, splitting/cloning units is a register copy, and the
/// whole workload is two contiguous buffers (mmap-able modulo the
/// `Arc` blocks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkUnit {
    /// Index of the rule in `Σ`.
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
    /// Number of components `k` of the unit's rule.
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

    /// The pivot vector `v̄_z` in component order.
    pub fn pivots<'a>(&self, arena: &'a [UnitSlot]) -> impl Iterator<Item = NodeId> + 'a {
        self.slots(arena).iter().map(|s| s.pivot)
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
fn pivots_from_sets(
    g: &Graph,
    plan: &ComponentPlan,
    sets: &[Vec<NodeId>],
    pivot: VarId,
) -> (Vec<NodeId>, usize) {
    let universe = pivot_universe(g, plan);
    if sets.iter().any(Vec::is_empty) {
        return (Vec::new(), universe);
    }
    let cands = sets[pivot.index()].clone();
    let pruned = universe - cands.len();
    (cands, pruned)
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
/// components pay for one simulation together.
pub fn feasible_pivots(g: &Graph, plan: &ComponentPlan, prune: bool) -> (Vec<NodeId>, usize) {
    if !prune {
        let all = match plan.pivot_label {
            PatLabel::Sym(s) => g.extent(s).to_vec(),
            PatLabel::Wildcard => g.nodes().collect(),
        };
        return (all, 0);
    }
    let sets = simulation_sets(&plan.pattern, g, None);
    pivots_from_sets(g, plan, &sets, plan.local_pivot)
}

/// A cache of `c`-hop data blocks keyed by `(node, radius)` — blocks
/// repeat across rules that share pivots. Blocks are handed out as
/// [`Arc`]s (with their `|G_z̄|` size computed once), so work units
/// share them instead of deep-cloning per candidate.
#[derive(Default)]
pub struct BlockCache {
    cache: FxHashMap<(NodeId, usize), (Arc<NodeSet>, u64)>,
    /// Reusable BFS visited bitmap (cleared after every block).
    scratch: Vec<bool>,
}

impl BlockCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `radius`-hop block around `pivot` (computed once).
    pub fn block(&mut self, g: &Graph, pivot: NodeId, radius: usize) -> Arc<NodeSet> {
        self.block_and_size(g, pivot, radius).0
    }

    /// The block together with its `|G_z̄|` size measure (Example 11),
    /// both computed once per `(pivot, radius)`.
    pub fn block_and_size(
        &mut self,
        g: &Graph,
        pivot: NodeId,
        radius: usize,
    ) -> (Arc<NodeSet>, u64) {
        let scratch = &mut self.scratch;
        let (block, size) = self.cache.entry((pivot, radius)).or_insert_with(|| {
            if scratch.len() < g.node_count() {
                scratch.resize(g.node_count(), false);
            }
            let block = neighborhood::khop_nodes_scratch(g, &[pivot], radius, scratch);
            let size = block.block_size(g) as u64;
            (Arc::new(block), size)
        });
        (block.clone(), *size)
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
pub fn estimate_workload_in(
    sigma: &GfdSet,
    g: &Graph,
    opts: &WorkloadOptions,
    registry: &ClassRegistry,
) -> Workload {
    let start = std::time::Instant::now();
    let sims_before = registry.simulations();
    let rules = plan_rules(sigma);
    let mut cache = BlockCache::new();
    let mut wl = Workload::default();

    for rule in &rules {
        // Per-component feasible candidates with their blocks. One
        // simulation per component *class* prunes infeasible pivots up
        // front; blocks are shared `Arc`s sized once in the cache.
        let mut per_component: Vec<Vec<(NodeId, Arc<NodeSet>, u64)>> = Vec::new();
        for plan in &rule.components {
            let (cands, pruned) = if opts.prune_empty_pivots {
                let view = registry.space(registry.register(&plan.pattern), g);
                pivots_from_sets(g, plan, &view.space.sets, view.rep_var(plan.local_pivot))
            } else {
                feasible_pivots(g, plan, false)
            };
            wl.pruned += pruned;
            let width = plan.width.max(1) as u64;
            let mut feasible = Vec::with_capacity(cands.len());
            for cand in cands {
                let (block, size) = cache.block_and_size(g, cand, plan.radius);
                feasible.push((cand, block, size * width));
            }
            per_component.push(feasible);
        }
        // Assemble pivot tuples (k ≤ 2 in practice, §5.2; general k
        // supported via recursion). Reserving the tuple-count upper
        // bound up front keeps the units vector from re-growing while
        // thousands of units stream in.
        let expected = per_component
            .iter()
            .map(Vec::len)
            .try_fold(1usize, |a, b| a.checked_mul(b))
            .unwrap_or(usize::MAX)
            .min(1 << 20);
        wl.units.reserve(expected);
        wl.slots
            .reserve(expected.saturating_mul(rule.components.len()));
        let mut tuple = Vec::new();
        assemble(rule, &per_component, 0, &mut tuple, &mut wl);
    }
    wl.plans = rules;
    wl.estimation_seconds = start.elapsed().as_secs_f64();
    wl.simulations = registry.simulations() - sims_before;
    wl
}

/// Recursively builds pivot tuples.
fn assemble(
    rule: &PivotedRule,
    per_component: &[Vec<(NodeId, Arc<NodeSet>, u64)>],
    depth: usize,
    tuple: &mut Vec<usize>,
    wl: &mut Workload,
) {
    if depth == per_component.len() {
        // Injectivity first (component pivots must be distinct nodes)
        // so rejected tuples never allocate.
        for (c, &i) in tuple.iter().enumerate() {
            let a = per_component[c][i].0;
            if tuple[..c]
                .iter()
                .enumerate()
                .any(|(c2, &i2)| per_component[c2][i2].0 == a)
            {
                return;
            }
        }
        let mut cost = 0u64;
        let offset = wl.slots.len();
        assert!(offset <= u32::MAX as usize, "slot arena exceeds u32 range");
        for (c, &i) in tuple.iter().enumerate() {
            // The tuple's third element is the candidate's unit-cost
            // contribution (`|block| × width`), precomputed once per
            // candidate instead of once per tuple.
            let (pivot, ref block, cost_c) = per_component[c][i];
            cost += cost_c;
            wl.slots.push(UnitSlot {
                pivot,
                block: block.clone(),
            });
        }
        wl.units.push(WorkUnit {
            rule: rule.rule as u32,
            slot_offset: offset as u32,
            slot_len: tuple.len() as u32,
            check_both_orientations: rule.symmetric_pair,
            cost,
        });
        return;
    }
    let start = if rule.symmetric_pair && depth == 1 {
        // Unordered pairs: second index strictly above the first
        // (Example 10's duplicate removal).
        tuple[0] + 1
    } else {
        0
    };
    for i in start..per_component[depth].len() {
        tuple.push(i);
        assemble(rule, per_component, depth + 1, tuple, wl);
        tuple.pop();
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
        let rules = plan_rules(&sigma);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].components.len(), 2);
        assert!(rules[0].symmetric_pair);
        for c in &rules[0].components {
            assert_eq!(c.radius, 1, "flight star has radius 1 at the hub");
        }
    }

    #[test]
    fn example10_unordered_pairs() {
        // 9 flights, symmetric 2-component rule → C(9,2) = 36 units.
        let g = nine_flights();
        let sigma = GfdSet::new(vec![flight_pair_gfd(g.vocab().clone())]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert_eq!(wl.units.len(), 36);
        assert!(wl.units.iter().all(|u| u.check_both_orientations));
        // Every unit's cost is the sum of two 1-hop star blocks: each
        // block = {flight, id} + 1 edge = 3 → cost 6.
        assert!(wl.units.iter().all(|u| u.cost == 6));
        assert_eq!(wl.total_cost(), 216);
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
    /// `|block| × width` cost. Screening such provably matchless
    /// pivots is the executor's job (`UnitExecutor::run`'s
    /// cached-factorization probe), not the estimator's.
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

    #[test]
    fn block_cache_reuses() {
        let g = nine_flights();
        let mut cache = BlockCache::new();
        let b1 = cache.block(&g, NodeId(0), 1).clone();
        let b2 = cache.block(&g, NodeId(0), 1).clone();
        assert_eq!(b1, b2);
        assert_eq!(cache.cache.len(), 1);
    }
}
