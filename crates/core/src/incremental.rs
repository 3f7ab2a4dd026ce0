//! Incremental violation detection: maintaining `Vio(Σ, G)` across
//! graph edits.
//!
//! The sequential `detVio` (module [`crate::validate`]) re-enumerates
//! every match of every rule group per run. When the graph evolves by
//! small deltas (noise injection, repair loops, live updates), almost
//! all of that work re-derives unchanged facts. [`IncrementalDetector`]
//! keeps state across edits:
//!
//! * one shared [`ClassRegistry`] handle per rule group
//!   ([`RuleGroups`]: Σ grouped by pattern isomorphism class) — each
//!   class's dual-simulation candidate space is computed once and
//!   *repaired* (not recomputed) against each [`GraphDelta`] at its
//!   representative, and a group reads it through its view
//!   ([`ClassView`]: pin screens look up the class variable). The
//!   registry is `Arc`-shared and versioned: several detectors (and the
//!   threaded executor) can serve off one registry; the first detector
//!   to reach an epoch repairs, and a later `advance` at an epoch the
//!   registry already passed is a no-op;
//! * the current violating matches of each rule.
//!
//! On a delta, Σ is re-examined only around the *affected nodes*
//! (delta edge endpoints, relabeled/attribute-touched nodes, added
//! nodes):
//!
//! * stored violations that touch no affected node are still matches
//!   and still violating (their edges, labels and attribute values
//!   are untouched) and survive without re-enumeration;
//! * stored violations touching affected nodes are re-checked
//!   directly, per rule (edges + labels + dependency), in `O(|Q|)`
//!   each;
//! * new violations must contain an affected node (a match that
//!   gained violation status either changed structurally or had an
//!   attribute change on one of its images), so the detector
//!   enumerates only matches *pinned* at affected candidate nodes —
//!   once per group and pin, using the repaired candidate space as the
//!   search filter — and checks every member of the group on each.

use std::collections::HashSet;
use std::sync::Arc;

use gfd_graph::{Graph, GraphDelta, NodeId};
use gfd_match::types::Flow;
use gfd_match::{ClassRegistry, ClassView, Match, MatchOptions, SpaceHandle};
use gfd_pattern::VarId;

use crate::gfd::GfdSet;
use crate::group::{for_each_group_violation, GroupScratch, Pins, Pools, RuleGroup, RuleGroups};
use crate::validate::{detect_violations, for_each_violation, match_satisfies, Violation};

/// The change `apply_diff` made to `Vio(Σ, G)` in one edit step: what
/// a standing-violation service pushes to subscribers instead of the
/// absolute set. Added and retracted are disjoint (a match that stops
/// violating cannot be re-found by the same step's pinned
/// enumeration, which only yields currently-violating matches).
#[derive(Clone, Debug, Default)]
pub struct VioDiff {
    /// Violations that appeared in this step.
    pub added: Vec<Violation>,
    /// Violations that disappeared in this step.
    pub retracted: Vec<Violation>,
}

impl VioDiff {
    /// True if the step changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.retracted.is_empty()
    }
}

/// A group's view of its class space in `registry`, with the class's
/// cached plan when the pattern is connected. A disconnected group only
/// screens pins against the space — its components enumerate under the
/// per-call filter — so no plan is built.
fn class_view(registry: &ClassRegistry, group: &RuleGroup, h: SpaceHandle, g: &Graph) -> ClassView {
    if group.is_connected() {
        registry.space_and_plan(h, g)
    } else {
        registry.space(h, g)
    }
}

/// Maintains `Vio(Σ, G)` across graph edits; see the module docs.
///
/// The maintained set is always identical to what
/// [`detect_violations`] computes from scratch on the current
/// snapshot (asserted by the oracle test below and the end-to-end
/// inject→detect→fix loop in `gfd-datagen`).
pub struct IncrementalDetector {
    sigma: GfdSet,
    /// Candidate spaces for all rules, keyed by isomorphism class —
    /// one simulation and one per-delta repair per class, however many
    /// isomorphic rules Σ holds. The registry may be shared with other
    /// detectors, services and the threaded executor.
    registry: Arc<ClassRegistry>,
    /// The registry repair epoch this detector is synchronized with.
    version: u64,
    /// Σ grouped by pattern isomorphism class: one enumeration per
    /// group and pin, every member checked on the row.
    groups: RuleGroups,
    /// Each group's representative, registered in `registry`.
    handles: Vec<SpaceHandle>,
    /// The current violating matches of each rule.
    violations: Vec<HashSet<Match>>,
    /// Enumeration buffers, reused by every enumeration.
    scratch: GroupScratch,
}

impl IncrementalDetector {
    /// Full detection pass over `g`, retaining all per-rule state for
    /// later [`apply`](IncrementalDetector::apply) calls, over a
    /// private registry.
    pub fn new(sigma: &GfdSet, g: &Graph) -> Self {
        Self::with_registry(sigma, g, Arc::new(ClassRegistry::new()))
    }

    /// [`new`](IncrementalDetector::new) over a shared registry:
    /// several detectors over one `ClassRegistry` share simulations,
    /// plans and repairs across tenants.
    pub fn with_registry(sigma: &GfdSet, g: &Graph, registry: Arc<ClassRegistry>) -> Self {
        let mut det = Self::from_violations_in(sigma, &[], registry);
        let Self {
            ref registry,
            ref groups,
            ref handles,
            ref mut violations,
            ref mut scratch,
            ..
        } = det;
        for (group, &h) in groups.iter().zip(handles) {
            let view = class_view(registry, group, h, g);
            if view.space.is_empty_anywhere() || !scratch.select(group, |_| true) {
                continue;
            }
            let pools = if group.is_connected() {
                Pools::Classes(std::slice::from_ref(&view))
            } else {
                Pools::Gated
            };
            for_each_group_violation(group, g, pools, Pins::None, scratch, &mut |rule, m| {
                violations[rule].insert(Match(m.to_vec()));
            });
        }
        det
    }

    /// The current violation set, in rule order (match order within a
    /// rule is unspecified).
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (rule, set) in self.violations.iter().enumerate() {
            for m in set {
                out.push(Violation {
                    rule,
                    mapping: m.clone(),
                });
            }
        }
        out
    }

    /// The incremental validation answer: does the current snapshot
    /// satisfy `Σ`?
    pub fn satisfied(&self) -> bool {
        self.violations.iter().all(HashSet::is_empty)
    }

    /// Total number of current violations.
    pub fn violation_count(&self) -> usize {
        self.violations.iter().map(HashSet::len).sum()
    }

    /// Component searches this detector has run — one per group and
    /// pin, however many rules a group holds (the probe behind "one
    /// enumeration per group").
    pub fn enumerations(&self) -> u64 {
        self.scratch.enumerations()
    }

    /// Seeds a detector from an externally computed violation set
    /// (e.g. a parallel from-scratch recompute) instead of running the
    /// sequential full pass [`new`](IncrementalDetector::new) does.
    /// The caller asserts `violations` *is* `Vio(Σ, g)`; candidate
    /// spaces register lazily and simulate against the then-current
    /// snapshot on first use, so the handoff carries no stale state.
    ///
    /// This is the graceful-degradation re-entry point: after a
    /// divergence or a repair-path panic, a service recomputes from
    /// scratch (on panic-isolated workers) and resumes incremental
    /// maintenance from the recomputed truth.
    pub fn from_violations(sigma: &GfdSet, violations: &[Violation]) -> Self {
        Self::from_violations_in(sigma, violations, Arc::new(ClassRegistry::new()))
    }

    /// [`from_violations`](IncrementalDetector::from_violations) over
    /// a shared registry. The caller is responsible for the registry's
    /// cached state being valid for the snapshot `violations` was
    /// computed on — a degraded service calls
    /// [`ClassRegistry::invalidate_all`] first, so every space
    /// re-simulates lazily against the recovered snapshot.
    pub fn from_violations_in(
        sigma: &GfdSet,
        violations: &[Violation],
        registry: Arc<ClassRegistry>,
    ) -> Self {
        let groups = RuleGroups::new(sigma);
        let handles = groups
            .iter()
            .map(|group| registry.register(&sigma.get(group.rep).pattern))
            .collect();
        let mut sets = vec![HashSet::new(); sigma.len()];
        for v in violations {
            sets[v.rule].insert(v.mapping.clone());
        }
        let version = registry.version();
        IncrementalDetector {
            sigma: sigma.clone(),
            registry,
            version,
            groups,
            handles,
            violations: sets,
            scratch: GroupScratch::default(),
        }
    }

    /// Sampled repair-invariant check for one rule: re-derives the
    /// rule's violation set from scratch — a fresh enumeration that
    /// shares none of the detector's incremental state — and compares
    /// it with the maintained set. `true` means the maintained state
    /// is still exact for this rule.
    ///
    /// One rule's worth of work, so a long-running service can afford
    /// it at a sampling cadence per epoch; a `false` is the signal to
    /// degrade to a full recompute instead of serving drifted answers.
    pub fn verify_rule(&self, rule: usize, g: &Graph) -> bool {
        let gfd = self.sigma.get(rule);
        let mut scratch: HashSet<Match> = HashSet::new();
        for_each_violation(gfd, g, &MatchOptions::unrestricted(), &mut |m| {
            scratch.insert(Match(m.to_vec()));
            Flow::Continue
        });
        scratch == self.violations[rule]
    }

    /// Fault-injection hook: perturbs the stored state of one rule
    /// (drops a stored violation, or plants an impossible one if the
    /// rule has none) to model repair-invariant drift. Only the
    /// robustness harness calls this — it exists so the
    /// sampled-oracle → degradation path can be exercised
    /// deterministically in soak tests.
    #[doc(hidden)]
    pub fn inject_drift(&mut self, rule: usize) {
        let set = &mut self.violations[rule];
        if let Some(m) = set.iter().next().cloned() {
            set.remove(&m);
        } else {
            let arity = self.sigma.get(rule).pattern.node_count();
            set.insert(Match(vec![NodeId(u32::MAX); arity.max(1)]));
        }
    }

    /// Repairs the detector against one edit step: `g` is the edited
    /// snapshot, `delta` the recorded difference from the snapshot the
    /// detector was last synchronized with.
    pub fn apply(&mut self, g: &Graph, delta: &GraphDelta) {
        self.apply_diff(g, delta);
    }

    /// [`apply`](IncrementalDetector::apply), additionally reporting
    /// exactly which violations appeared and disappeared — the
    /// subscriber-facing change stream of a standing-violation
    /// service (`Vio(Σ, G)` *changes*, not absolute sets).
    pub fn apply_diff(&mut self, g: &Graph, delta: &GraphDelta) -> VioDiff {
        let mut diff = VioDiff::default();
        let d = delta.clone().normalize();
        if d.is_empty() {
            return diff;
        }
        let affected = d.touched_nodes();
        let is_affected = |u: NodeId| affected.binary_search(&u).is_ok();

        // Repair the candidate spaces first — one repair per
        // isomorphism class, shared by every rule of the class; pinned
        // re-enumeration below draws pools from the repaired spaces.
        // `advance` is epoch-aware: if another tenant of the shared
        // registry already repaired this step, the call is a no-op.
        self.version += 1;
        let Self {
            ref sigma,
            ref registry,
            ref groups,
            ref handles,
            ref mut violations,
            version,
            ref mut scratch,
        } = *self;
        registry.advance(g, &d, version);

        // 1. Re-check stored violations that touch the delta; the rest
        //    are untouched matches with untouched attribute values and
        //    survive as-is. Failures are retractions.
        for (rule, set) in violations.iter_mut().enumerate() {
            let gfd = sigma.get(rule);
            set.retain(|m| {
                if !m.nodes().iter().copied().any(is_affected) || still_violates(gfd, g, m) {
                    return true;
                }
                diff.retracted.push(Violation {
                    rule,
                    mapping: m.clone(),
                });
                false
            });
        }

        // 2. New violations contain an affected node: enumerate each
        //    group's matches pinned there (per representative variable
        //    whose candidate set admits the node), via the repaired
        //    class space and the class's cached plan — fetched once per
        //    group — and check every member on each row.
        for (group, &h) in groups.iter().zip(handles) {
            if !scratch.select(group, |_| true) {
                continue; // X → ∅ can never be violated
            }
            let view = class_view(registry, group, h, g);
            if view.space.is_empty_anywhere() {
                debug_assert!(group.members.iter().all(|m| violations[m.rule].is_empty()));
                continue;
            }
            let pools = if group.is_connected() {
                Pools::Classes(std::slice::from_ref(&view))
            } else {
                Pools::Gated
            };
            for &u in &affected {
                for v in (0..group.arity as u32).map(VarId) {
                    if view.of(v).binary_search(&u).is_err() {
                        continue;
                    }
                    let pins = Pins::Node(v, u);
                    for_each_group_violation(group, g, pools, pins, scratch, &mut |rule, m| {
                        // First sighting only: the same match can be
                        // re-found via several pins.
                        if violations[rule].insert(Match(m.to_vec())) {
                            diff.added.push(Violation {
                                rule,
                                mapping: Match(m.to_vec()),
                            });
                        }
                    });
                }
            }
        }
        diff
    }
}

/// Direct `O(|Q|)` re-check of a previously stored violating match:
/// still a structural match, and still violating?
fn still_violates(gfd: &crate::gfd::Gfd, g: &Graph, m: &Match) -> bool {
    let q = &gfd.pattern;
    let images = m.nodes();
    if images.iter().any(|u| u.index() >= g.node_count()) {
        return false;
    }
    for v in q.vars() {
        if !q.label(v).admits(g.label(images[v.index()])) {
            return false;
        }
    }
    for e in q.edges() {
        let (s, t) = (images[e.src.index()], images[e.dst.index()]);
        let ok = match e.label {
            gfd_pattern::PatLabel::Sym(l) => g.has_edge(s, t, l),
            gfd_pattern::PatLabel::Wildcard => g.has_edge_any(s, t),
        };
        if !ok {
            return false;
        }
    }
    !match_satisfies(&gfd.dep, g, images)
}

/// Convenience oracle used by tests and callers that want to
/// cross-check: the from-scratch violation set as a comparable form.
pub fn violation_set(sigma: &GfdSet, g: &Graph) -> HashSet<(usize, Match)> {
    detect_violations(sigma, g)
        .into_iter()
        .map(|v| (v.rule, v.mapping))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use crate::literal::{Dependency, Literal};
    use gfd_graph::{GraphBuilder, Value};
    use gfd_pattern::PatternBuilder;
    use gfd_util::{prop::check, Rng};

    fn detector_set(det: &IncrementalDetector) -> HashSet<(usize, Match)> {
        det.violations()
            .into_iter()
            .map(|v| (v.rule, v.mapping))
            .collect()
    }

    /// A small random property-graph world with attribute values and a
    /// same-label/same-val ⇒ same-peer rule that noise can break.
    fn random_world(rng: &mut Rng) -> (Graph, GfdSet) {
        let mut b = GraphBuilder::with_fresh_vocab();
        let n = rng.gen_range(4..10);
        let hubs: Vec<_> = (0..n).map(|_| b.add_node_labeled("hub")).collect();
        for &h in &hubs {
            let leaf = b.add_node_labeled("leaf");
            b.add_edge_labeled(h, leaf, "owns");
            b.set_attr_named(leaf, "val", Value::Int(rng.gen_range(0..3) as i64));
            b.set_attr_named(h, "val", Value::Int(rng.gen_range(0..2) as i64));
        }
        let g = b.freeze();
        let vocab = g.vocab().clone();
        let val = vocab.intern("val");

        // Connected rule: hub → leaf, hub.val determines leaf.val.
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node("x", "hub");
        let y = pb.node("y", "leaf");
        pb.edge(x, y, "owns");
        let q1 = pb.build();
        let phi1 = Gfd::new(
            "hub-leaf",
            q1,
            Dependency::new(
                vec![Literal::const_eq(x, val, Value::Int(0))],
                vec![Literal::const_eq(y, val, Value::Int(0))],
            ),
        );

        // Disconnected rule: two hubs with equal val must carry val 0
        // (Example 5 shape — two independent pivots far apart).
        let mut pb = PatternBuilder::new(vocab.clone());
        let a = pb.node("a", "hub");
        let c = pb.node("c", "hub");
        let q2 = pb.build();
        let phi2 = Gfd::new(
            "hub-pair",
            q2,
            Dependency::new(
                vec![Literal::var_eq(a, val, c, val)],
                vec![Literal::const_eq(a, val, Value::Int(0))],
            ),
        );
        (g, GfdSet::new(vec![phi1, phi2]))
    }

    #[test]
    fn initial_state_matches_scratch() {
        check("IncrementalDetector::new ≡ detVio", 40, |rng| {
            let (g, sigma) = random_world(rng);
            let det = IncrementalDetector::new(&sigma, &g);
            let scratch = violation_set(&sigma, &g);
            if detector_set(&det) != scratch {
                return Err(format!(
                    "initial sets diverge: {} vs {}",
                    det.violation_count(),
                    scratch.len()
                ));
            }
            if det.satisfied() != scratch.is_empty() {
                return Err("satisfied() disagrees".into());
            }
            Ok(())
        });
    }

    #[test]
    fn diff_stream_folds_to_maintained_set() {
        // A subscriber that only ever sees VioDiffs must be able to
        // reconstruct the absolute set: baseline + Σ diffs ≡ scratch.
        // Added/retracted must also be disjoint and non-redundant.
        check("Σ VioDiff ≡ detVio over edit scripts", 25, |rng| {
            let (mut g, sigma) = random_world(rng);
            let mut det = IncrementalDetector::new(&sigma, &g);
            let mut folded = detector_set(&det);
            for step in 0..12 {
                let r1 = rng.gen_range(0..g.node_count());
                let r2 = rng.gen_range(0..g.node_count());
                let (g2, delta) = g.edit_with_delta(|b| {
                    if rng.gen_bool(0.5) {
                        b.add_edge_labeled(NodeId(r1 as u32), NodeId(r2 as u32), "owns");
                    } else {
                        let a = b.vocab().intern("val");
                        b.set_attr(NodeId(r1 as u32), a, Value::Int(rng.gen_range(0..3) as i64));
                    }
                });
                let diff = det.apply_diff(&g2, &delta);
                for v in &diff.retracted {
                    if !folded.remove(&(v.rule, v.mapping.clone())) {
                        return Err(format!("step {step}: retraction of absent violation"));
                    }
                }
                for v in &diff.added {
                    if !folded.insert((v.rule, v.mapping.clone())) {
                        return Err(format!("step {step}: re-added live violation"));
                    }
                }
                if folded != violation_set(&sigma, &g2) {
                    return Err(format!("step {step}: folded diff diverges from scratch"));
                }
                g = g2;
            }
            Ok(())
        });
    }

    #[test]
    fn verify_rule_accepts_sound_state_and_catches_drift() {
        check("verify_rule soundness + drift detection", 20, |rng| {
            let (g, sigma) = random_world(rng);
            let mut det = IncrementalDetector::new(&sigma, &g);
            for rule in 0..sigma.len() {
                if !det.verify_rule(rule, &g) {
                    return Err(format!("sound rule {rule} flagged as drifted"));
                }
            }
            let rule = rng.gen_range(0..sigma.len());
            det.inject_drift(rule);
            if det.verify_rule(rule, &g) {
                return Err(format!("injected drift on rule {rule} not detected"));
            }
            Ok(())
        });
    }

    #[test]
    fn from_violations_resumes_incremental_maintenance() {
        check("from_violations ≡ new, then keeps repairing", 20, |rng| {
            let (g, sigma) = random_world(rng);
            let scratch = detect_violations(&sigma, &g);
            let mut det = IncrementalDetector::from_violations(&sigma, &scratch);
            if detector_set(&det) != violation_set(&sigma, &g) {
                return Err("seeded state diverges from scratch".into());
            }
            // And it must keep maintaining correctly from there.
            let r1 = rng.gen_range(0..g.node_count());
            let (g2, delta) = g.edit_with_delta(|b| {
                let a = b.vocab().intern("val");
                b.set_attr(NodeId(r1 as u32), a, Value::Int(1));
            });
            det.apply(&g2, &delta);
            if detector_set(&det) != violation_set(&sigma, &g2) {
                return Err("post-handoff repair diverges".into());
            }
            Ok(())
        });
    }

    #[test]
    fn repaired_detector_equals_scratch_over_edit_scripts() {
        check(
            "IncrementalDetector ≡ detVio over edit scripts",
            25,
            |rng| {
                let (mut g, sigma) = random_world(rng);
                let mut det = IncrementalDetector::new(&sigma, &g);
                for step in 0..12 {
                    let kind = rng.gen_range(0..5);
                    let r1 = rng.gen_range(0..g.node_count());
                    let r2 = rng.gen_range(0..g.node_count());
                    let r3 = rng.gen_range(0..4);
                    let (g2, delta) = g.edit_with_delta(|b| match kind {
                        0 => {
                            b.add_edge_labeled(NodeId(r1 as u32), NodeId(r2 as u32), "owns");
                        }
                        1 => {
                            b.remove_edge_labeled(NodeId(r1 as u32), NodeId(r2 as u32), "owns");
                        }
                        2 => {
                            let a = b.vocab().intern("val");
                            b.set_attr(NodeId(r1 as u32), a, Value::Int(r3 as i64));
                        }
                        3 => {
                            let a = b.vocab().intern("val");
                            b.remove_attr(NodeId(r1 as u32), a);
                        }
                        _ => {
                            let h = b.add_node_labeled("hub");
                            let a = b.vocab().intern("val");
                            b.set_attr(h, a, Value::Int(r3 as i64));
                            b.add_edge_labeled(h, NodeId(r2 as u32), "owns");
                        }
                    });
                    det.apply(&g2, &delta);
                    let scratch = violation_set(&sigma, &g2);
                    if detector_set(&det) != scratch {
                        return Err(format!(
                            "step {step} (kind {kind}): {} maintained vs {} scratch",
                            det.violation_count(),
                            scratch.len()
                        ));
                    }
                    g = g2;
                }
                Ok(())
            },
        );
    }
}
