//! Executing a work unit: local error detection (`localVio`, §6.1).
//!
//! A unit is one cell of a rule group's range grid (module
//! [`workload`](crate::workload)): per part of the group's
//! representative, a contiguous range of the part's sorted pivot
//! candidates. Executing it enumerates the matches `h(x̄)` of the
//! representative whose pivots lie in the cell — one search of each
//! part, its pivot pinned at the interval `[pivots[lo], pivots[hi − 1]]`
//! (raw mode may admit pruned nodes; they have no matches) — and checks
//! every member rule of the group on each row, recording every match
//! with `h ⊨ X`, `h ⊭ Y` in the member's own variable order
//! ([`for_each_group_violation`], the one detection primitive). By the
//! locality of subgraph isomorphism a match cannot leave its pivot's
//! `c^i_Q`-hop block, so a unit is its pivot ranges and nothing more: no
//! code builds a block, and `disVal` sizes what it ships from the
//! pivots' root pools in the class candidate space.
//!
//! Everything a unit reads of Σ comes from the run's one
//! [`SigmaPlan`]: the group's parts (what is registered, pinned and
//! enumerated), their pivots, and Example 10's symmetric-pair flag. A
//! one-part group streams its rows to the members' dependency checks; a
//! `k ≥ 2` group collects each part's rows in a scratch
//! [`MatchTable`](gfd_match::MatchTable) and joins the tables under
//! global injectivity. When the group is a symmetric pair and the
//! unit's two ranges differ, the swapped orientation is joined too, so
//! the deduplication never loses violations (a diagonal cell's one join
//! already holds both orders of every pair).
//!
//! Units share **no state**: everything a unit builds lives in the
//! worker's [`UnitScratch`] and is reset by the next unit. What units
//! of a run share is the read-only serving tier — with the
//! *multi-query* optimization (appendix, following \[31\]) on, every
//! part enumerates through its isomorphism class's candidate space and
//! query plan in the shared [`ClassRegistry`], one registry lookup per
//! unit and part. Without it every enumeration searches the raw graph
//! privately.
//! Either way a warm [`UnitExecutor::run`] call performs **zero heap
//! allocations** (asserted by the `alloc_probe` test and the
//! `alloc/unit_exec_steady_state` bench sample).

use gfd_core::group::{for_each_group_violation, GroupScratch, Pools, RuleGroup};
use gfd_core::Violation;
use gfd_graph::Graph;
use gfd_match::{ClassRegistry, ClassView, Match, Pin, SpaceHandle};

pub use gfd_match::CacheStats;

use crate::workload::{SigmaPlan, UnitSlot, WorkUnit};

/// Per-worker reusable execution state: the detection primitive's
/// buffers, and the class views of the unit in flight. One instance
/// per worker makes warm [`UnitExecutor::run`] calls allocation-free.
#[derive(Default)]
pub struct UnitScratch {
    group: GroupScratch,
    /// Per part of the unit in flight (multi-query on): its class view,
    /// released when the unit ends.
    views: Vec<ClassView>,
    /// Per part: its pivot's interval.
    pins: Vec<Pin>,
}

impl UnitScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Part searches run through this scratch so far — one per part and
    /// orientation of each unit, however many pivots its ranges hold and
    /// rules its group holds. Public for `tests/end_to_end.rs`, which
    /// checks that count.
    pub fn enumerations(&self) -> u64 {
        self.group.enumerations()
    }
}

/// Everything one validation run's units execute against, fixed for
/// the run: the snapshot, Σ's plan, the workload's slot arena, the
/// shared registry and — with the multi-query optimization on — the
/// handle of every representative part in it. Built once per run and
/// shared by every worker; the per-worker state is the [`UnitScratch`]
/// and output passed to [`run`](Self::run).
pub struct UnitExecutor<'a> {
    g: &'a Graph,
    plan: &'a SigmaPlan,
    slots: &'a [UnitSlot],
    pub(crate) registry: &'a ClassRegistry,
    /// Per group, per part of its representative, with multi-query on.
    handles: Option<Vec<Vec<SpaceHandle>>>,
}

impl<'a> UnitExecutor<'a> {
    /// The context for running units cut from `plan` over `g`, their
    /// slots resolved against `slots`. `multi_query` registers every
    /// part of every group representative in `registry` and enumerates
    /// through its classes' shared spaces and plans; without it every
    /// enumeration runs privately on the raw graph.
    pub fn new(
        g: &'a Graph,
        plan: &'a SigmaPlan,
        slots: &'a [UnitSlot],
        registry: &'a ClassRegistry,
        multi_query: bool,
    ) -> Self {
        let handles = multi_query.then(|| {
            let register = |group: &RuleGroup| {
                let parts = group.parts.iter();
                parts.map(|(q, _)| registry.register(q)).collect()
            };
            plan.groups.iter().map(register).collect()
        });
        UnitExecutor {
            g,
            plan,
            slots,
            registry,
            handles,
        }
    }

    /// Executes one work unit — a cell of the grid of the group whose
    /// representative `unit.rule` is — appending the violations of
    /// every member rule to `out`.
    pub fn run(&self, unit: &WorkUnit, scratch: &mut UnitScratch, out: &mut Vec<Violation>) {
        let index = self.plan.group_index(unit.rule());
        let (group, gp) = self.plan.group(index);
        let unit_slots = unit.slots(self.slots);
        debug_assert_eq!(unit_slots.len(), group.parts.len(), "one slot per part");
        let UnitScratch {
            group: primitive,
            views,
            pins,
        } = scratch;
        if !primitive.select(group, |_| true) {
            return; // X → ∅ can never be violated
        }
        // With multi-query on, each part's class space and plan are
        // fetched once for the unit.
        let pools = match &self.handles {
            Some(handles) => {
                let fetch = |&h: &SpaceHandle| self.registry.space_and_plan(h, self.g);
                views.extend(handles[index].iter().map(fetch));
                Pools::Classes(views)
            }
            None => Pools::Raw,
        };
        // Part `i`'s pivot pinned at slot `i`'s interval — and, for a
        // symmetric pair's off-diagonal cell, at the other slot's.
        let both = gp.symmetric_pair && unit_slots[0].lo != unit_slots[1].lo;
        for swap in [false, true].into_iter().take(1 + usize::from(both)) {
            pins.clear();
            for (i, &var) in gp.pivots.iter().enumerate() {
                let range = unit_slots[if swap { 1 - i } else { i }].range();
                let (lo, hi) = (range[0], range[range.len() - 1]);
                pins.push(Pin { var, lo, hi });
            }
            for_each_group_violation(group, self.g, pools, pins, primitive, &mut |rule, m| {
                out.push(Violation {
                    rule,
                    mapping: Match(m.to_vec()),
                })
            });
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
    use crate::workload::{estimate_workload_in, plan_rules, WorkloadOptions};
    use gfd_core::validate::detect_violations;
    use gfd_core::{Dependency, Gfd, GfdSet, Literal};
    use gfd_graph::{NodeId, Value, Vocab};
    use gfd_match::types::Flow;
    use gfd_match::{for_each_match_with, MatchOptions, MatchScratch};
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

    /// Estimates and executes `W(Σ, G)` against `registry`; returns the
    /// violations and how many component searches ran.
    fn run_all_units_in(
        g: &Graph,
        sigma: &GfdSet,
        mq: bool,
        registry: &ClassRegistry,
    ) -> (Vec<Violation>, u64) {
        let wl = estimate_workload_in(sigma, g, &WorkloadOptions::default(), registry);
        let exec = UnitExecutor::new(g, &wl.plan, &wl.slots, registry, mq);
        let mut scratch = UnitScratch::new();
        let mut out = Vec::new();
        for u in &wl.units {
            exec.run(u, &mut scratch, &mut out);
        }
        sort_violations(&mut out);
        (out, scratch.enumerations())
    }

    fn run_all_units(g: &Graph, sigma: &GfdSet, mq: bool) -> Vec<Violation> {
        run_all_units_in(g, sigma, mq, &ClassRegistry::new()).0
    }

    #[test]
    fn unit_execution_equals_detvio() {
        let g = flights(3);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        let got = run_all_units(&g, &sigma, false);
        sort_violations(&mut expected);
        assert_eq!(expected.len(), 6, "3 duplicate flights, ordered pairs");
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_query_cache_gives_same_answers_and_hits() {
        let g = flights(3);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        let plain = run_all_units(&g, &sigma, false);
        let registry = ClassRegistry::new();
        let (shared, _) = run_all_units_in(&g, &sigma, true, &registry);
        assert_eq!(plain, shared);
        assert_eq!(
            registry.simulations(),
            1,
            "isomorphic components must share one class space"
        );
        assert!(registry.stats().hits > 0);
    }

    #[test]
    fn no_false_positives_on_clean_graph() {
        let g = flights(0);
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(g.vocab().clone())]);
        assert!(run_all_units(&g, &sigma, true).is_empty());
    }

    /// A byte-capped registry keeps answers identical and records
    /// evictions; an uncapped run of the same workload evicts nothing.
    #[test]
    fn capped_registry_evicts_but_stays_correct() {
        let g = flights(3);
        let vocab = g.vocab().clone();
        // A second, one-component rule over another class, so the two
        // classes' spaces compete for the budget.
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "flight");
        let x2 = b.node("x2", "city");
        b.edge(x, x2, "to");
        let val = vocab.intern("val");
        let solo = Gfd::new(
            "dest-named",
            b.build(),
            Dependency::always(vec![Literal::const_eq(x2, val, "City0")]),
        );
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(vocab), solo]);
        let big = ClassRegistry::new();
        let (plain, _) = run_all_units_in(&g, &sigma, true, &big);
        assert!(!plain.is_empty());
        assert_eq!(
            big.stats().evicted_cold,
            0,
            "default budget must hold this workload"
        );
        // Budget below a single space's bytes: every other class's
        // arrival evicts.
        let tiny = ClassRegistry::with_budget_bytes(16);
        let (tiny_out, _) = run_all_units_in(&g, &sigma, true, &tiny);
        assert_eq!(plain, tiny_out);
        assert!(tiny.stats().evicted_cold > 0, "tiny budget must evict");
        assert!(
            tiny.simulations() > big.simulations(),
            "evicted classes must be re-simulated"
        );
        // At most the always-kept newest space.
        tiny.sweep();
        assert!(tiny.bytes() <= 16);
    }

    /// The satellite regression for refcount-aware eviction: a class
    /// view held across an eviction storm — as a unit in flight holds
    /// it — must keep enumerating correct rows: the registry defers the
    /// pinned space instead of dropping it, and the deferral drains once
    /// the view goes away.
    #[test]
    fn view_held_across_eviction_storm_reads_correct_rows() {
        let g = flights(0);
        let vocab = g.vocab().clone();
        let sigma = GfdSet::new(vec![phi_same_id_same_dest(vocab.clone())]);
        let plan = plan_rules(&sigma);
        let (group, gp) = plan.group(0);
        let registry = ClassRegistry::with_budget_bytes(16);
        let h = registry.register(&group.parts[0].0);
        let held = registry.space_and_plan(h, &g);
        // The storm: other classes' spaces arrive over the budget.
        let others = ["number", "to"].map(|label| {
            let mut b = PatternBuilder::new(vocab.clone());
            let x = b.node("x", "flight");
            let y = b.wildcard_node("y");
            b.edge(x, y, label);
            registry.register(&b.build())
        });
        for _ in 0..3 {
            for o in others {
                registry.space(o, &g);
            }
        }
        assert!(registry.stats().evicted_cold > 0, "the storm did evict");
        assert!(registry.deferred_pending() > 0, "the held view defers");
        // Flights are nodes 0, 3, 6, …: each adds (flight, id, city).
        // The star is its class's representative: pins and rows are in
        // the view's numbering.
        assert!(held.perm.is_none());
        let opts = MatchOptions::unrestricted().pin(gp.local_pivot(group, 0), NodeId(0));
        let space = held.plan.as_deref().map(|plan| (&*held.space, plan));
        let mut rows = Vec::new();
        let mut scratch = MatchScratch::default();
        for_each_match_with(&held.rep, &g, &opts, space, &mut scratch, &mut |m| {
            rows.push(m.to_vec());
            Flow::Continue
        });
        assert_eq!(rows, [[NodeId(0), NodeId(1), NodeId(2)]], "x, x1, x2");
        drop(held);
        registry.sweep();
        assert_eq!(registry.deferred_pending(), 0, "pin dropped ⇒ drained");
        assert!(registry.bytes() <= 16);
    }
}
