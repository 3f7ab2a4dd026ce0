//! Executing a work unit: local error detection (`localVio`, §6.1).
//!
//! For a unit `⟨v̄_z, G_z̄⟩` of rule `ϕ`, enumerate matches `h(x̄)` of
//! `ϕ`'s pattern that include `v̄_z` — each component pinned at its
//! pivot candidate — and record every match with `h ⊨ X`, `h ⊭ Y`. By
//! the locality of subgraph isomorphism a search pinned at the pivot
//! cannot leave the pivot's `c^i_Q`-hop block, so execution reads only
//! the pivots of a unit: its blocks are cost inputs (the load estimate,
//! `disVal`'s byte model), never search inputs.
//!
//! When a unit stems from the symmetric-pair dedup (Example 10), both
//! pivot orientations are checked here, so the deduplication never
//! loses violations.
//!
//! The *multi-query* optimization (appendix, following \[31\]) reads
//! per-(component-isomorphism-class, pivot) match **tables** from the
//! shared [`ClassRegistry`] serving tier: rules mined from shared
//! frequent features share components, and the registry lets all of
//! them — across *all workers and tenants*, not per worker — reuse one
//! enumeration. Everything the registry holds for a class is in the
//! class *representative's* variable numbering, and a component is a
//! permutation onto it: a miss enumerates the representative pinned
//! at the component pivot's representative variable
//! (`MqiEntry::rep_pin`) into a flat [`MatchTable`] shared behind
//! `Arc`; every member — the one that missed included — reads it
//! through a precomputed column-permutation [`TableView`] — an
//! `O(arity)` header rewrite, never a row copy — and the disjointness
//! join streams straight over the shared rows. The dead-pivot screen
//! reads the class's factorization at the same `rep_pin`. Eviction is
//! the registry's LRU + refcount-aware pass: a view held by an
//! in-flight unit is never invalidated under it. Together with the
//! per-worker [`UnitScratch`], a warm [`UnitExecutor::run`] call
//! performs **zero heap allocations** (asserted by the `alloc_probe`
//! test and the `alloc/unit_exec_steady_state` bench sample).

use std::sync::Arc;

use gfd_core::validate::match_satisfies;
use gfd_core::{GfdSet, Violation};
use gfd_graph::{Graph, NodeId};
use gfd_match::component::ComponentSearch;
use gfd_match::join::{join_tables, JoinInputs, JoinScratch};
use gfd_match::table::{MatchTable, TableView};
use gfd_match::types::Flow;
use gfd_match::{ClassRegistry, Match, SpaceHandle};
use gfd_pattern::VarId;

pub use gfd_match::CacheStats;

use crate::workload::{ComponentPlan, PivotedRule, UnitSlot, WorkUnit};

/// Cross-rule index of isomorphic components for the multi-query
/// optimization: per `(rule, component)`, the component's
/// [`ClassRegistry`] handle plus the precomputed symmetric-pair
/// metadata (class id, representative pin, column permutation).
#[derive(Debug)]
pub struct MultiQueryIndex {
    /// One entry per `(rule, component)`.
    entries: Vec<Vec<MqiEntry>>,
    /// Distinct isomorphism classes among this Σ's components (the
    /// shared registry may hold more, from other tenants).
    classes: usize,
}

/// One component's multi-query metadata. The registry owns the cache
/// keys and permutations; this caches the lookups that the symmetric
/// fast path needs without taking the registry lock.
#[derive(Debug)]
struct MqiEntry {
    handle: SpaceHandle,
    class: usize,
    rep_pin: VarId,
    perm: Option<Arc<[u32]>>,
}

impl MultiQueryIndex {
    /// Registers all components of all rules into the shared registry,
    /// which groups them into exact-label isomorphism classes keyed by
    /// complete canonical codes — no 64-bit signature-collision
    /// exposure, and the canonical orders compose into the comp-var →
    /// rep-var witness that becomes each member's cached **column
    /// permutation**: built once here, a cache hit reuses it as a
    /// shared view header with no per-hit work.
    pub fn build(plans: &[PivotedRule], registry: &ClassRegistry) -> Self {
        let mut entries: Vec<Vec<MqiEntry>> = Vec::with_capacity(plans.len());
        let mut classes: Vec<usize> = Vec::new();
        for rule in plans {
            let mut per_comp = Vec::with_capacity(rule.components.len());
            for comp in &rule.components {
                let handle = registry.register(&comp.pattern);
                let (class, perm) = registry.class_and_perm(handle);
                let rep_pin = match &perm {
                    Some(p) => VarId(p[comp.local_pivot.index()]),
                    None => comp.local_pivot,
                };
                if !classes.contains(&class) {
                    classes.push(class);
                }
                per_comp.push(MqiEntry {
                    handle,
                    class,
                    rep_pin,
                    perm,
                });
            }
            entries.push(per_comp);
        }
        MultiQueryIndex {
            entries,
            classes: classes.len(),
        }
    }

    /// Number of isomorphism classes among this Σ's components
    /// (≤ total components).
    pub fn class_count(&self) -> usize {
        self.classes
    }
}

/// Per-worker reusable execution state: the per-component table views
/// of the unit in flight, the join's backtracking scratch, and the
/// orientation buffer. One instance per worker makes warm
/// [`UnitExecutor::run`] calls allocation-free.
#[derive(Default)]
pub struct UnitScratch {
    views: Vec<TableView>,
    join: JoinScratch,
    orient_buf: Vec<usize>,
}

impl UnitScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The join's zero-allocation adapter: component `i` contributes its
/// original variables and the (possibly permuted) view of its cached
/// table.
struct UnitJoin<'a> {
    comps: &'a [ComponentPlan],
    views: &'a [TableView],
}

impl JoinInputs for UnitJoin<'_> {
    fn count(&self) -> usize {
        self.views.len()
    }
    fn vars(&self, i: usize) -> &[VarId] {
        &self.comps[i].orig_vars
    }
    fn table(&self, i: usize) -> &MatchTable {
        self.views[i].table()
    }
    fn perm(&self, i: usize) -> Option<&[u32]> {
        self.views[i].perm()
    }
}

/// Everything one validation run's units execute against, fixed for
/// the run: the snapshot, `Σ`, its pivoted plans, the workload's slot
/// arena, the shared registry and — with the multi-query optimization
/// on — the index of `Σ`'s components in it. Built once per run and
/// shared by every worker; the per-worker state is the
/// [`CacheStats`], [`UnitScratch`] and output passed to
/// [`run`](Self::run).
pub struct UnitExecutor<'a> {
    g: &'a Graph,
    sigma: &'a GfdSet,
    plans: &'a [PivotedRule],
    slots: &'a [UnitSlot],
    registry: &'a ClassRegistry,
    mqi: Option<MultiQueryIndex>,
}

impl<'a> UnitExecutor<'a> {
    /// The context for running units of `plans` (= `plan_rules(sigma)`)
    /// over `g`, their slots resolved against `slots`. `multi_query`
    /// registers every component in `registry` and serves pinned
    /// enumerations from its shared table cache; without it every
    /// enumeration runs privately.
    pub fn new(
        g: &'a Graph,
        sigma: &'a GfdSet,
        plans: &'a [PivotedRule],
        slots: &'a [UnitSlot],
        registry: &'a ClassRegistry,
        multi_query: bool,
    ) -> Self {
        UnitExecutor {
            g,
            sigma,
            plans,
            slots,
            registry,
            mqi: multi_query.then(|| MultiQueryIndex::build(plans, registry)),
        }
    }

    /// Enumerates the matches of one component pinned at `pivot`, via
    /// the shared registry when the multi-query index is on. The
    /// returned view shares the cached table (column-permuted for
    /// non-representative members) — no rows are copied on either hits
    /// or misses, and the registry's refcount-aware eviction keeps the
    /// view valid for as long as it is held.
    fn pinned_matches(
        &self,
        rule: usize,
        comp: usize,
        pivot: NodeId,
        stats: &mut CacheStats,
    ) -> TableView {
        let plan = &self.plans[rule].components[comp];
        if let Some(mqi) = &self.mqi {
            let entry = &mqi.entries[rule][comp];
            return self.registry.pinned_table(
                entry.handle,
                self.g,
                plan.local_pivot,
                pivot,
                stats,
            );
        }
        let mut table = MatchTable::new(plan.pattern.node_count());
        ComponentSearch::new(&plan.pattern, self.g)
            .pins(&[(plan.local_pivot, pivot)])
            .collect_into(&mut table);
        TableView::identity(Arc::new(table))
    }

    /// Probe-only dead-pivot screen: a *resident* factorization whose
    /// pivot marginal is zero proves the component has no match pinned
    /// there — the represented set is a superset of the match set — so
    /// the orientation can be dropped before any table work.
    /// Overflowed counts prove nothing and are ignored. The
    /// factorization is the class's, so the marginal is read at the
    /// component pivot's representative variable. Never builds: a warm
    /// [`run`](Self::run) stays allocation-free.
    fn pivot_provably_dead(&self, entry: &MqiEntry, pivot: NodeId) -> bool {
        self.registry
            .cached_factorization(entry.handle)
            .is_some_and(|f| !f.overflowed() && f.marginal(entry.rep_pin, pivot) == Some(0))
    }

    /// Executes one work unit, appending its violations to `out`.
    /// Table probes go through the shared registry; `stats` receives
    /// this caller's share of the hit/miss counters.
    pub fn run(
        &self,
        unit: &WorkUnit,
        stats: &mut CacheStats,
        scratch: &mut UnitScratch,
        out: &mut Vec<Violation>,
    ) {
        let g = self.g;
        let rule = &self.plans[unit.rule()];
        let gfd = self.sigma.get(unit.rule());
        let k = rule.components.len();
        debug_assert_eq!(k, unit.k(), "one slot per component");
        let unit_slots = unit.slots(self.slots);
        let nvars = gfd.pattern.node_count();
        let UnitScratch {
            views,
            join,
            orient_buf,
        } = scratch;

        let emit = |views: &[TableView], join: &mut JoinScratch, out: &mut Vec<Violation>| {
            let inputs = UnitJoin {
                comps: &rule.components,
                views,
            };
            join_tables(&inputs, nvars, join, &mut |assignment| {
                if !match_satisfies(&gfd.dep, g, assignment) {
                    out.push(Violation {
                        rule: unit.rule(),
                        mapping: Match(assignment.to_vec()),
                    });
                }
                Flow::Continue
            });
        };

        // Symmetric-pair fast path: both components are in one isomorphism
        // class with one rep pin, so orientation 2's cached tables are
        // exactly orientation 1's *swapped* — swap the shared tables and
        // re-wrap them in each component's own column permutation instead
        // of paying two more cache probes and view builds.
        if unit.check_both_orientations && k == 2 {
            if let Some(mqi) = &self.mqi {
                let e0 = &mqi.entries[unit.rule()][0];
                let e1 = &mqi.entries[unit.rule()][1];
                if e0.class == e1.class && e0.rep_pin == e1.rep_pin {
                    let (p0, p1) = (unit_slots[0].pivot, unit_slots[1].pivot);
                    // Both orientations pin both pivots, so either pivot
                    // being provably dead kills the whole unit.
                    if self.pivot_provably_dead(e0, p0) || self.pivot_provably_dead(e1, p1) {
                        return;
                    }
                    let v0 = self.pinned_matches(unit.rule(), 0, p0, stats);
                    let v1 = self.pinned_matches(unit.rule(), 1, p1, stats);
                    let rewrap = |t: &Arc<MatchTable>, perm: &Option<Arc<[u32]>>| match perm {
                        Some(p) => TableView::permuted(t.clone(), p.clone()),
                        None => TableView::identity(t.clone()),
                    };
                    if !v0.is_empty() && !v1.is_empty() {
                        views.clear();
                        views.push(v0.clone());
                        views.push(v1.clone());
                        emit(views, join, out);
                        // Orientation (1, 0): component 0 reads the table
                        // cached at pivot 1 and vice versa.
                        views.clear();
                        views.push(rewrap(v1.table(), &e0.perm));
                        views.push(rewrap(v0.table(), &e1.perm));
                        emit(views, join, out);
                    }
                    views.clear();
                    return;
                }
            }
        }

        // Pivot orientations to check within this unit.
        const BOTH: [&[usize]; 2] = [&[0, 1], &[1, 0]];
        orient_buf.clear();
        orient_buf.extend(0..k);
        let identity = [orient_buf.as_slice()];
        let orientations: &[&[usize]] = if unit.check_both_orientations && k == 2 {
            &BOTH
        } else {
            &identity
        };

        for &orient in orientations {
            // Component i is pinned at pivot orient[i].
            views.clear();
            let mut dead = false;
            for (i, &slot) in orient.iter().enumerate() {
                let pivot = unit_slots[slot].pivot;
                if let Some(mqi) = &self.mqi {
                    if self.pivot_provably_dead(&mqi.entries[unit.rule()][i], pivot) {
                        dead = true;
                        break;
                    }
                }
                let view = self.pinned_matches(unit.rule(), i, pivot, stats);
                if view.is_empty() {
                    dead = true;
                    break;
                }
                views.push(view);
            }
            if dead {
                continue;
            }
            emit(views, join, out);
        }
        views.clear();
    }
}

/// Canonical ordering for violation sets, so different schedules can
/// be compared for equality. (Unstable sort: the `(rule, nodes)` key
/// is total — equal keys mean equal violations.)
pub fn sort_violations(v: &mut [Violation]) {
    v.sort_unstable_by(|a, b| {
        a.rule
            .cmp(&b.rule)
            .then_with(|| a.mapping.nodes().cmp(b.mapping.nodes()))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{estimate_workload, plan_rules, WorkloadOptions};
    use gfd_core::validate::detect_violations;
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_graph::{Value, Vocab};
    use gfd_pattern::PatternBuilder;
    use std::sync::Arc;

    /// Flights with duplicate ids but mismatched destinations.
    fn flights(n_dup: usize) -> Graph {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..6 {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            let to = b.add_node_labeled("city");
            b.add_edge_labeled(f, id, "number");
            b.add_edge_labeled(f, to, "to");
            let idv = if i < n_dup {
                "DUP".to_string()
            } else {
                format!("FL{i}")
            };
            b.set_attr_named(id, "val", Value::str(&idv));
            b.set_attr_named(to, "val", Value::str(&format!("City{i}")));
        }
        b.freeze()
    }

    fn phi_same_id_same_dest(vocab: Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x1 = b.node("x1", "id");
        let x2 = b.node("x2", "city");
        b.edge(x, x1, "number");
        b.edge(x, x2, "to");
        let y = b.node("y", "flight");
        let y1 = b.node("y1", "id");
        let y2 = b.node("y2", "city");
        b.edge(y, y1, "number");
        b.edge(y, y2, "to");
        let q = b.build();
        let val = vocab.intern("val");
        Gfd::new(
            "same-id-same-dest",
            q,
            Dependency::new(
                vec![Literal::var_eq(x1, val, y1, val)],
                vec![Literal::var_eq(x2, val, y2, val)],
            ),
        )
    }

    fn run_all_units_in(
        g: &Graph,
        sigma: &GfdSet,
        mq: bool,
        registry: &ClassRegistry,
    ) -> (Vec<Violation>, CacheStats) {
        let wl = estimate_workload(sigma, g, &WorkloadOptions::default());
        let exec = UnitExecutor::new(g, sigma, &wl.plans, &wl.slots, registry, mq);
        let mut scratch = UnitScratch::new();
        let mut stats = CacheStats::default();
        let mut out = Vec::new();
        for u in &wl.units {
            exec.run(u, &mut stats, &mut scratch, &mut out);
        }
        (out, stats)
    }

    fn run_all_units(g: &Graph, sigma: &GfdSet, mq: bool) -> (Vec<Violation>, CacheStats) {
        run_all_units_in(g, sigma, mq, &ClassRegistry::new())
    }

    #[test]
    fn unit_execution_equals_detvio() {
        let g = flights(3);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        let (mut got, _) = run_all_units(&g, &sigma, false);
        sort_violations(&mut expected);
        sort_violations(&mut got);
        assert_eq!(expected.len(), 6, "3 duplicate flights, ordered pairs");
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_query_cache_gives_same_answers_and_hits() {
        let g = flights(3);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let (mut plain, _) = run_all_units(&g, &sigma, false);
        let (mut cached, stats) = run_all_units(&g, &sigma, true);
        sort_violations(&mut plain);
        sort_violations(&mut cached);
        assert_eq!(plain, cached);
        assert!(
            stats.hits > 0,
            "isomorphic components must share enumerations"
        );
    }

    #[test]
    fn multi_query_index_collapses_shared_components() {
        let g = flights(0);
        let vocab = g.vocab().clone();
        // Two distinct rules over the same star component.
        let sigma = GfdSet::new(vec![
            phi_same_id_same_dest(vocab.clone()),
            phi_same_id_same_dest(vocab),
        ]);
        let plans = plan_rules(&sigma);
        let mqi = MultiQueryIndex::build(&plans, &ClassRegistry::new());
        // 4 components total, all isomorphic → 1 class.
        assert_eq!(mqi.class_count(), 1);
    }

    /// `class_count` counts *this Σ's* classes even when the shared
    /// registry already holds classes from other tenants.
    #[test]
    fn class_count_ignores_foreign_tenants() {
        let g = flights(0);
        let registry = ClassRegistry::new();
        // A foreign tenant registers an unrelated pattern first.
        let mut b = PatternBuilder::new(g.vocab().clone());
        b.node("solo", "city");
        registry.register(&b.build());
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let plans = plan_rules(&sigma);
        let mqi = MultiQueryIndex::build(&plans, &registry);
        assert_eq!(mqi.class_count(), 1);
        assert_eq!(registry.class_count(), 2);
    }

    #[test]
    fn no_false_positives_on_clean_graph() {
        let g = flights(0);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let (got, _) = run_all_units(&g, &sigma, true);
        assert!(got.is_empty());
    }

    /// A byte-capped registry keeps answers identical and records
    /// evictions; an uncapped run of the same workload evicts nothing.
    #[test]
    fn capped_registry_evicts_but_stays_correct() {
        let g = flights(3);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let big_reg = ClassRegistry::new();
        let (mut plain, big) = run_all_units_in(&g, &sigma, true, &big_reg);
        assert_eq!(
            big_reg.stats().evicted_cold,
            0,
            "default budget must hold this workload"
        );
        // Budget below a single table's bytes: every insert evicts.
        let tiny_reg = ClassRegistry::with_budget_bytes(16);
        let (mut tiny_out, tiny) = run_all_units_in(&g, &sigma, true, &tiny_reg);
        sort_violations(&mut plain);
        sort_violations(&mut tiny_out);
        assert_eq!(plain, tiny_out);
        assert!(tiny_reg.stats().evicted_cold > 0, "tiny budget must evict");
        // At most the budget plus the always-kept newest table.
        assert!(tiny_reg.bytes() <= 16 + 12);
        assert!(
            tiny.misses > big.misses,
            "evicted entries must be re-enumerated"
        );
    }

    /// The satellite regression for refcount-aware eviction: a view
    /// held across an eviction storm must keep reading correct rows —
    /// the registry defers the pinned table instead of dropping it —
    /// and the deferral drains once the view goes away.
    #[test]
    fn view_held_across_eviction_storm_reads_correct_rows() {
        let g = flights(0);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let plans = plan_rules(&sigma);
        // Every star table is 1 row × 3 cols × 4 bytes = 12 bytes; a
        // 12-byte budget forces an eviction on every further pivot.
        let registry = ClassRegistry::with_budget_bytes(12);
        let exec = UnitExecutor::new(&g, &sigma, &plans, &[], &registry, true);
        let mut stats = CacheStats::default();
        // Flights are nodes 0, 3, 6, …: each adds (flight, id, city).
        let held = exec.pinned_matches(0, 0, NodeId(0), &mut stats);
        for f in [1u32, 2, 3, 4, 5] {
            exec.pinned_matches(0, 0, NodeId(3 * f), &mut stats);
        }
        assert!(registry.stats().evicted_cold > 0, "the storm did evict");
        assert!(registry.deferred_pending() > 0, "the held view defers");
        assert_eq!(held.len(), 1);
        assert_eq!(held.get(0, 0), NodeId(0), "x = flight 0");
        assert_eq!(held.get(0, 1), NodeId(1), "x1 = its id node");
        assert_eq!(held.get(0, 2), NodeId(2), "x2 = its city node");
        drop(held);
        registry.sweep();
        assert_eq!(registry.deferred_pending(), 0, "pin dropped ⇒ drained");
        assert!(registry.bytes() <= 12);
    }

    /// The dead-pivot screen: with a resident factorization, units
    /// whose pivot carries zero marginal mass skip table work
    /// entirely. The 4-cycle survives dual simulation — its checks are
    /// degree-local, blind to cycle length — so the workload still
    /// schedules its pivots; the probe-only screen is what kills them.
    #[test]
    fn resident_factorization_screens_dead_pivots() {
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
            Dependency::always(vec![Literal::const_eq(x, val, "__never")]),
        );
        let sigma = GfdSet::new(vec![gfd]);
        let plans = plan_rules(&sigma);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert_eq!(wl.units.len(), 7, "dual simulation admits the 4-cycle");

        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(&g, &sigma, &plans, &wl.slots, &registry, true);
        // Warm the class factorization, as a planner or validator
        // sharing the registry would have.
        let h = registry.register(&plans[0].components[0].pattern);
        assert!(registry.factorization(h, &g).is_some());

        let mut scratch = UnitScratch::new();
        let mut stats = CacheStats::default();
        let mut out = Vec::new();
        for u in &wl.units {
            exec.run(u, &mut stats, &mut scratch, &mut out);
        }
        let mut expected = detect_violations(&sigma, &g);
        sort_violations(&mut expected);
        sort_violations(&mut out);
        assert_eq!(out, expected);
        assert_eq!(expected.len(), 3, "one rotation per triangle pivot");
        assert_eq!(
            stats.hits + stats.misses,
            3,
            "dead 4-cycle pivots must never touch the table cache"
        );
    }

    /// The multi-query regression the flat tables exist for: a cache
    /// hit whose member has a **non-identity** witness must reuse the
    /// cached table by pointer (a permuted view), not re-materialize
    /// the rows.
    #[test]
    fn non_identity_witness_hit_copies_no_table() {
        // A path graph s → m → t: the path pattern's pivot is forced to
        // the middle variable (radius 1 vs 2), so twin rules share the
        // cache key whatever their declaration order.
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let s = b.add_node_labeled("src");
        let m = b.add_node_labeled("mid");
        let t = b.add_node_labeled("dst");
        b.add_edge_labeled(s, m, "e1");
        b.add_edge_labeled(m, t, "e2");
        let g = b.freeze();
        let vocab = g.vocab().clone();
        // Twin single-component rules whose variables are declared in
        // opposite orders, so the canonical witness between them is a
        // non-identity permutation.
        let path_fwd = {
            let mut pb = PatternBuilder::new(vocab.clone());
            let a = pb.node("a", "src");
            let bb = pb.node("b", "mid");
            let c = pb.node("c", "dst");
            pb.edge(a, bb, "e1");
            pb.edge(bb, c, "e2");
            pb.build()
        };
        let path_rev = {
            let mut pb = PatternBuilder::new(vocab.clone());
            let c = pb.node("c", "dst");
            let bb = pb.node("b", "mid");
            let a = pb.node("a", "src");
            pb.edge(a, bb, "e1");
            pb.edge(bb, c, "e2");
            pb.build()
        };
        let val = vocab.intern("val");
        let mk = |name: &str, q: gfd_pattern::Pattern| {
            let v = q.var_by_name("a").unwrap();
            Gfd::new(
                name,
                q,
                Dependency::always(vec![Literal::var_eq(v, val, v, val)]),
            )
        };
        let sigma = GfdSet::new(vec![mk("fwd", path_fwd), mk("rev", path_rev)]);
        let plans = plan_rules(&sigma);
        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(&g, &sigma, &plans, &[], &registry, true);
        let mqi = exec.mqi.as_ref().expect("multi-query is on");
        assert_eq!(mqi.class_count(), 1, "twins must share a class");
        assert!(
            mqi.entries[1][0].perm.is_some(),
            "reversed declaration ⇒ non-identity witness"
        );

        let mut stats = CacheStats::default();
        let v1 = exec.pinned_matches(0, 0, m, &mut stats);
        let v2 = exec.pinned_matches(1, 0, m, &mut stats);
        assert_eq!(stats.hits, 1, "second call must hit");
        assert!(
            Arc::ptr_eq(v1.table(), v2.table()),
            "hit must share the cached table, not copy it"
        );
        assert!(v2.perm().is_some(), "twin reads through a permuted view");
        assert_eq!(v1.len(), 1, "premise: the path matches once");
        // And the permuted view really is the remapped enumeration:
        // rule 0 reads (a=s, b=m, c=t); rule 1 declared (c, b, a), so
        // its logical columns are (c=t, b=m, a=s).
        let q0 = &plans[0].components[0].pattern;
        let q1 = &plans[1].components[0].pattern;
        assert_eq!(v1.get(0, q0.var_by_name("a").unwrap().index()), s);
        assert_eq!(v1.get(0, q0.var_by_name("b").unwrap().index()), m);
        assert_eq!(v1.get(0, q0.var_by_name("c").unwrap().index()), t);
        assert_eq!(v2.get(0, q1.var_by_name("a").unwrap().index()), s);
        assert_eq!(v2.get(0, q1.var_by_name("b").unwrap().index()), m);
        assert_eq!(v2.get(0, q1.var_by_name("c").unwrap().index()), t);
    }
}
