//! Incremental violation detection: maintaining `Vio(Σ, G)` across
//! graph edits.
//!
//! The sequential `detVio` (module [`crate::validate`]) re-enumerates
//! every match of every rule group per run. When the graph evolves by
//! small deltas (noise injection, repair loops, live updates), almost
//! all of that work re-derives unchanged facts. [`IncrementalDetector`]
//! keeps state across edits:
//!
//! * one shared [`ClassRegistry`] handle per connected part of each
//!   rule group ([`RuleGroups`]: Σ grouped by pattern isomorphism
//!   class), registered exactly as the work units register them — each
//!   class's dual-simulation candidate space is computed once and
//!   *repaired* (not recomputed) against each [`GraphDelta`] at its
//!   representative, and a part reads it through its view
//!   ([`ClassView`]: pin screens look up the class variable). The
//!   registry is `Arc`-shared and versioned: several detectors (and the
//!   threaded executor) can serve off one registry; the first detector
//!   to reach an epoch repairs, and a later `advance` at an epoch the
//!   registry already passed is a no-op;
//! * the current violating matches of each rule.
//!
//! On a delta, Σ is re-examined only around what the delta's ops can
//! change:
//!
//! * stored violations that touch no *affected node* (delta edge
//!   endpoints, relabeled/attribute-touched nodes, added nodes) are
//!   still matches and still violating (their edges, labels and
//!   attribute values are untouched) and survive without
//!   re-enumeration;
//! * stored violations touching affected nodes are re-checked
//!   directly, per rule (edges + labels + dependency), in `O(|Q|)`
//!   each;
//! * a new violation is a new match, or an old match whose dependency
//!   check flipped, so the detector enumerates only matches *pinned*
//!   where the delta's ops can have made one, by op kind. Patterns are
//!   positive, so a removed edge pins nothing; an added edge pins both
//!   endpoints at each pattern edge whose label admits it; an attribute
//!   write pins its node only at the variables whose attribute some
//!   checked member's `X ∪ Y` reads; an added node or a relabel pins
//!   the node at every variable. A pin counts where its part's view
//!   admits the node; each search runs once per group, every part in
//!   its repaired class space (not fetched for a group no op reaches),
//!   and checks every member of the group on each row.
//!
//! An epoch is [`IncrementalDetector::diff`], which only reads the
//! maintained set, then [`IncrementalDetector::commit`], its one
//! writer. The sampled oracle [`IncrementalDetector::verify_rule`]
//! re-derives one rule group's violations on the raw CSR, in the
//! detector's own buffers; [`IncrementalDetector::inject_drift`] feeds
//! it a wrong diff.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use gfd_graph::{Graph, GraphDelta, NodeId, Sym};
use gfd_match::{ClassRegistry, ClassView, Match, Pin, SpaceHandle};
use gfd_pattern::VarId;
use gfd_util::fxhash::FxHasher;

use crate::gfd::GfdSet;
use crate::group::{for_each_group_violation, GroupScratch, RuleGroup, RuleGroups};
use crate::validate::{match_satisfies, Violation};

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

/// One rule's stored violations, under a fixed key so that what the
/// set allocates is a function of the edit stream alone. [`FxHasher`]
/// is not DoS-resistant and needs not be: a row holds node ids of the
/// snapshot, from batches [`GraphDelta::check_ids`] and
/// [`GraphDelta::check_against`] have validated.
type Rows = HashSet<Match, BuildHasherDefault<FxHasher>>;

/// Maintains `Vio(Σ, G)` across graph edits; see the module docs.
///
/// The maintained set is the one store of `Vio(Σ, G)` — a service
/// serves it as it is — written only by [`commit`](Self::commit) and
/// the constructors. After each commit it is identical to what
/// [`detect_violations`](crate::validate::detect_violations) computes
/// from scratch on the current snapshot (asserted by the oracle test
/// below and the end-to-end inject→detect→fix loop in `gfd-datagen`).
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
    /// Per group, each part of its representative, registered in
    /// `registry`.
    handles: Vec<Vec<SpaceHandle>>,
    /// The store: the current violating matches of each rule.
    violations: Vec<Rows>,
    /// Per rule, the rows the epoch in flight found that the store
    /// lacks: `diff`'s first-sighting dedup, which `commit` moves in.
    fresh: Vec<Rows>,
    /// Enumeration buffers, reused by every enumeration, the oracle's
    /// too.
    scratch: GroupScratch,
    /// The group in flight's class views, one per part (all `None` for
    /// the oracle's raw enumeration); emptied after each group so no
    /// view outlives it.
    views: Vec<Option<ClassView>>,
    /// The epoch in flight's touched nodes, kept across epochs.
    affected: Vec<NodeId>,
    /// [`RuleGroups::reads`]: where an attribute write can flip a
    /// member's check.
    reads: Vec<(usize, VarId, Sym)>,
}

impl IncrementalDetector {
    /// Full detection pass over `g`, retaining all per-rule state for
    /// later [`apply_diff`](IncrementalDetector::apply_diff) calls,
    /// over a private registry.
    pub fn new(sigma: &GfdSet, g: &Graph) -> Self {
        Self::with_registry(sigma, g, Arc::new(ClassRegistry::new()))
    }

    /// [`new`](IncrementalDetector::new) over a shared registry:
    /// several detectors over one `ClassRegistry` share simulations and
    /// repairs across tenants.
    pub fn with_registry(sigma: &GfdSet, g: &Graph, registry: Arc<ClassRegistry>) -> Self {
        let mut det = Self::from_violations_in(sigma, &[], registry);
        let Self {
            ref registry,
            ref groups,
            ref handles,
            ref mut violations,
            ref mut scratch,
            ref mut views,
            ..
        } = det;
        for (group, handles) in groups.iter().zip(handles) {
            if group.checks() && fetch_views(registry, handles, g, views) {
                for_each_group_violation(group, g, views, &[], scratch, &mut |rule, m| {
                    violations[rule].insert(Match(m.to_vec()));
                });
            }
            views.clear();
        }
        det
    }

    /// The rule set this detector maintains.
    pub fn sigma(&self) -> &GfdSet {
        &self.sigma
    }

    /// The candidate-space registry this detector reads through —
    /// possibly shared with other detectors and executors.
    pub fn registry(&self) -> &Arc<ClassRegistry> {
        &self.registry
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

    /// What a holder of `before`'s violation set must add and retract
    /// to hold this detector's. Clones only the rows that differ.
    pub fn changes_since(&self, before: &IncrementalDetector) -> VioDiff {
        let mut diff = VioDiff::default();
        for (rule, (now, then)) in self.violations.iter().zip(&before.violations).enumerate() {
            let row = |m: &Match| Violation {
                rule,
                mapping: m.clone(),
            };
            diff.added.extend(now.difference(then).map(row));
            diff.retracted.extend(then.difference(now).map(row));
        }
        diff
    }

    /// Total number of current violations.
    pub fn violation_count(&self) -> usize {
        self.violations.iter().map(Rows::len).sum()
    }

    /// Component searches this detector has run — one per component
    /// of each group's pinned search, however many rules a group holds
    /// (the probe behind "one enumeration per group"), plus the
    /// unpinned ones of every [`verify_rule`](Self::verify_rule).
    pub fn enumerations(&self) -> u64 {
        self.scratch.enumerations()
    }

    /// Seeds a detector over `registry` from an externally computed
    /// violation set (e.g. a parallel from-scratch recompute) instead of
    /// running the sequential full pass [`new`](IncrementalDetector::new)
    /// does. The caller asserts `violations` *is* `Vio(Σ, g)`; candidate
    /// spaces register lazily and simulate against the then-current
    /// snapshot on first use, so the handoff carries no stale state.
    /// The caller is responsible for the registry's cached state being
    /// valid for that snapshot — a degraded service calls
    /// [`ClassRegistry::invalidate_all`] first.
    ///
    /// This is the graceful-degradation and recovery re-entry point: a
    /// service recomputes from scratch and resumes incremental
    /// maintenance from the recomputed truth.
    pub fn from_violations_in(
        sigma: &GfdSet,
        violations: &[Violation],
        registry: Arc<ClassRegistry>,
    ) -> Self {
        let groups = RuleGroups::new(sigma);
        let handles = groups
            .iter()
            .map(|group| {
                let parts = group.parts.iter();
                parts.map(|(q, _)| registry.register(q)).collect()
            })
            .collect();
        let mut sets = vec![Rows::default(); sigma.len()];
        for v in violations {
            sets[v.rule].insert(v.mapping.clone());
        }
        let version = registry.version();
        let reads = groups.reads();
        IncrementalDetector {
            sigma: sigma.clone(),
            registry,
            version,
            groups,
            handles,
            violations: sets,
            fresh: vec![Rows::default(); sigma.len()],
            scratch: GroupScratch::default(),
            views: Vec::new(),
            affected: Vec::new(),
            reads,
        }
    }

    /// Sampled repair-invariant check for one rule: re-derives the
    /// violation sets of the rule's group — the rule and its
    /// isomorphic twins, in one enumeration — on the raw CSR, reading
    /// neither the registry nor any maintained candidate space, and
    /// compares them with the maintained sets: every violation found
    /// must be stored, and as many found as stored. `true` means the
    /// maintained state is still exact for every rule of the group.
    ///
    /// One group's worth of work in the detector's own buffers (a warm
    /// call allocates nothing), so a long-running service can afford
    /// it at a sampling cadence per epoch; a `false` is the signal to
    /// degrade to a full recompute instead of serving drifted answers.
    pub fn verify_rule(&mut self, rule: usize, g: &Graph) -> bool {
        let Self {
            ref groups,
            ref violations,
            ref mut scratch,
            ref mut views,
            ..
        } = *self;
        let group = groups.of(rule);
        views.clear();
        views.extend(group.parts.iter().map(|_| None));
        let (mut found, mut stored) = (0, true);
        for_each_group_violation(group, g, views, &[], scratch, &mut |rule, m| {
            found += 1;
            stored &= violations[rule].contains(m);
        });
        views.clear();
        let members = group.members.iter();
        stored && found == members.map(|m| violations[m.rule].len()).sum::<usize>()
    }

    /// Fault-injection hook: makes `diff` wrong for one rule, as a
    /// repair bug would (it publishes what it stores): the diff also
    /// retracts a stored row of `rule` it kept, or, if there is none,
    /// adds an impossible row. Only the robustness harness calls this
    /// — it exists so the sampled-oracle → rollback → degradation path
    /// can be exercised deterministically in soak tests.
    #[doc(hidden)]
    pub fn inject_drift(&self, rule: usize, diff: &mut VioDiff) {
        let retracted = &diff.retracted;
        let kept = |m: &&Match| !retracted.iter().any(|v| v.rule == rule && v.mapping == **m);
        match self.violations[rule].iter().find(kept).cloned() {
            Some(mapping) => diff.retracted.push(Violation { rule, mapping }),
            None => {
                let arity = self.sigma.get(rule).pattern.node_count();
                let mapping = Match(vec![NodeId(u32::MAX); arity.max(1)]);
                diff.added.push(Violation { rule, mapping });
            }
        }
    }

    /// [`diff`](Self::diff), then [`commit`](Self::commit).
    pub fn apply_diff(&mut self, g: &Graph, delta: &GraphDelta) -> VioDiff {
        let diff = self.diff(g, delta);
        self.commit(&diff);
        diff
    }

    /// Writes `diff` into the store — its retractions leave, its
    /// additions enter — the store's one writer after construction.
    pub fn commit(&mut self, diff: &VioDiff) {
        for v in &diff.retracted {
            self.violations[v.rule].remove(&v.mapping);
        }
        for v in &diff.added {
            let row = self.fresh[v.rule].take(&v.mapping);
            self.violations[v.rule].insert(row.unwrap_or_else(|| v.mapping.clone()));
        }
    }

    /// Repairs the candidate spaces against one edit step and returns
    /// which violations appear and disappear, reading the store but not
    /// writing it; commit each diff before the next. `g` is the edited
    /// snapshot, `delta` the difference from the snapshot the detector
    /// was last synchronized with, taken as it is: its producer made it
    /// normalized (see [`GraphDelta`]). A warm call allocates only for
    /// what it finds and what the registry's repair moves.
    pub fn diff(&mut self, g: &Graph, delta: &GraphDelta) -> VioDiff {
        let mut diff = VioDiff::default();
        if delta.is_empty() {
            return diff;
        }
        delta.touched_nodes(&mut self.affected);

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
            ref violations,
            ref mut fresh,
            version,
            ref mut scratch,
            ref mut views,
            ref affected,
            ref reads,
        } = *self;
        registry.advance(g, delta, version);
        let is_affected = |u: NodeId| affected.binary_search(&u).is_ok();
        fresh.iter_mut().for_each(Rows::clear);

        // 1. Re-check stored violations that touch the delta; the rest
        //    are untouched matches with untouched attribute values and
        //    survive as-is. Failures are retractions, copied into the
        //    diff.
        for (rule, set) in violations.iter().enumerate() {
            let gfd = sigma.get(rule);
            let failed = |m: &&Match| {
                m.nodes().iter().copied().any(is_affected) && !still_violates(gfd, g, m)
            };
            let retracted = set.iter().filter(failed).cloned();
            diff.retracted
                .extend(retracted.map(|mapping| Violation { rule, mapping }));
        }

        // 2. New violations come from the ops that can create one (see
        //    `for_each_seed`): per group, the pinned searches its ops
        //    call for, each screened by its part's repaired class space
        //    — fetched at the group's first search, so a group no op
        //    reaches reads none — and every member checked on each row.
        for (i, (group, handles)) in groups.iter().zip(handles).enumerate() {
            // X → ∅ is never violated.
            if !group.checks() {
                continue;
            }
            // The group's own slice of the read set: a lookup in it is
            // a few steps, not a search over all of Σ per op and
            // variable.
            let reads = &reads[reads.partition_point(|r| r.0 < i)..];
            let reads = &reads[..reads.partition_point(|r| r.0 == i)];
            let reads_at = |v: VarId, attr: Sym| reads.binary_search(&(i, v, attr)).is_ok();
            let mut live = None;
            for_each_seed(group, reads_at, g, delta, &mut |part, (x, u), also| {
                // A matchless part leaves the group's pattern without a
                // match.
                if !*live.get_or_insert_with(|| fetch_views(registry, handles, g, views)) {
                    return;
                }
                let (Some(view), (_, vars)) = (&views[part], &group.parts[part]) else {
                    return;
                };
                let admitted = |(x, u): At| view.of(x).binary_search(&u).is_ok();
                if !admitted((x, u)) || !also.is_none_or(admitted) {
                    return;
                }
                let (y, v) = also.unwrap_or((x, u));
                let pins = [Pin::at(vars[x.index()], u), Pin::at(vars[y.index()], v)];
                let pins = &pins[..1 + usize::from(also.is_some())];
                for_each_group_violation(group, g, views, pins, scratch, &mut |rule, m| {
                    // First sighting only: the same match can be
                    // re-found via several searches, or be stored.
                    if !violations[rule].contains(m) && !fresh[rule].contains(m) {
                        let mapping = Match(m.to_vec());
                        fresh[rule].insert(mapping.clone());
                        diff.added.push(Violation { rule, mapping });
                    }
                });
            });
            // A group without a match anywhere retracts every stored row.
            let retracted = |rule| diff.retracted.iter().filter(|v| v.rule == rule).count();
            debug_assert!(
                live != Some(false)
                    || (group.members.iter())
                        .all(|m| retracted(m.rule) == violations[m.rule].len())
            );
            views.clear();
        }
        diff
    }
}

/// `(x, u)`: the pin `h(x) = u` on a variable in its part's own
/// numbering.
type At = (VarId, NodeId);

/// Calls `f(part, (x, u), also)` for each search `delta`'s ops call for
/// in `group`, screened by label only (the class views screen them
/// again): pin `h(x) = u` in `part`'s own variables, and `h(y) = v` too
/// where `also` is `Some((y, v))`. `reads(v, A)` says whether some
/// checked member's `X ∪ Y` reads attribute `A` of representative
/// variable `v`. A new violation is a match that is new, or an old
/// match whose dependency check flipped; patterns are positive, so by
/// op kind:
///
/// * a removed edge creates neither and calls for none;
/// * an added edge `(u, v, l)` creates only matches mapping some
///   pattern edge `x → y` that admits `l` onto it: one search pinned
///   at both endpoints — one pin for a self-loop `x → x`, and only
///   when `u = v`; none for `x ≠ y` with `u = v` (matches are
///   injective);
/// * an attribute write or removal on `(u, A)` flips only members that
///   read `A`: `u` is pinned only at the variables `v` where `reads(v,
///   A)`;
/// * an added node or a relabel may complete a match at any variable:
///   the node is pinned at every variable whose label admits it, which
///   covers every search its edges and attribute writes call for.
fn for_each_seed(
    group: &RuleGroup,
    reads: impl Fn(VarId, Sym) -> bool,
    g: &Graph,
    delta: &GraphDelta,
    f: &mut dyn FnMut(usize, At, Option<At>),
) {
    let relabeled = |u: NodeId| {
        let changes = &delta.label_changes;
        changes.binary_search_by_key(&u, |c| c.node).is_ok()
    };
    let placed = |u: NodeId| u.index() >= delta.base_nodes || relabeled(u);
    for (part, (q, vars)) in group.parts.iter().enumerate() {
        let admits = |x: VarId, u: NodeId| q.label(x).admits(g.label(u));
        let added = delta.added_nodes.iter().map(|&(u, _)| u);
        for u in added.chain(delta.label_changes.iter().map(|c| c.node)) {
            q.vars()
                .filter(|&x| admits(x, u))
                .for_each(|x| f(part, (x, u), None));
        }
        for e in delta
            .added_edges
            .iter()
            .filter(|e| !placed(e.src) && !placed(e.dst))
        {
            for pe in q.edges().iter().filter(|pe| pe.label.admits(e.label)) {
                let fits = (pe.src == pe.dst) == (e.src == e.dst);
                if fits && admits(pe.src, e.src) && admits(pe.dst, e.dst) {
                    let also = (pe.src != pe.dst).then_some((pe.dst, e.dst));
                    f(part, (pe.src, e.src), also);
                }
            }
        }
        for op in delta.attr_ops.iter().filter(|op| !placed(op.node)) {
            let read = |&x: &VarId| reads(vars[x.index()], op.attr) && admits(x, op.node);
            q.vars()
                .filter(read)
                .for_each(|x| f(part, (x, op.node), None));
        }
    }
}

/// Fills `views` with the class view over `g` of each part of a group,
/// registered as `handles`; `false` if some part has no match anywhere,
/// so neither has the group's pattern.
fn fetch_views(
    registry: &ClassRegistry,
    handles: &[SpaceHandle],
    g: &Graph,
    views: &mut Vec<Option<ClassView>>,
) -> bool {
    views.extend(handles.iter().map(|&h| Some(registry.space(h, g))));
    views
        .iter()
        .flatten()
        .all(|view| !view.space.is_empty_anywhere())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfd::Gfd;
    use crate::literal::{Dependency, Literal};
    use crate::validate::detect_violations;
    use gfd_graph::{GraphBuilder, Value};
    use gfd_pattern::PatternBuilder;
    use gfd_util::{prop::check, Rng};

    /// The from-scratch violation set, in [`detector_set`]'s form.
    fn scratch_set(sigma: &GfdSet, g: &Graph) -> HashSet<(usize, Match)> {
        detect_violations(sigma, g)
            .into_iter()
            .map(|v| (v.rule, v.mapping))
            .collect()
    }

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
            let scratch = scratch_set(&sigma, &g);
            if detector_set(&det) != scratch {
                return Err(format!(
                    "initial sets diverge: {} vs {}",
                    det.violation_count(),
                    scratch.len()
                ));
            }
            if (det.violation_count() == 0) != scratch.is_empty() {
                return Err("violation_count() == 0 disagrees".into());
            }
            Ok(())
        });
    }

    #[test]
    fn diff_stream_folds_to_maintained_set() {
        // A subscriber that only ever sees VioDiffs must be able to
        // reconstruct the absolute set: baseline + Σ diffs ≡ scratch.
        // Added/retracted must also be disjoint and non-redundant. The
        // store changes only at commit, and committing the inverse diff
        // takes it back to the set before the epoch.
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
                let before = detector_set(&det);
                let diff = det.diff(&g2, &delta);
                if detector_set(&det) != before {
                    return Err(format!("step {step}: diff wrote the store"));
                }
                det.commit(&diff);
                let mut inverse = diff.clone();
                std::mem::swap(&mut inverse.added, &mut inverse.retracted);
                det.commit(&inverse);
                if detector_set(&det) != before {
                    return Err(format!("step {step}: the inverse diff did not undo"));
                }
                det.commit(&diff);
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
                if folded != scratch_set(&sigma, &g2) {
                    return Err(format!("step {step}: folded diff diverges from scratch"));
                }
                if detector_set(&det) != folded {
                    return Err(format!("step {step}: the store diverges from the fold"));
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
            let mut diff = VioDiff::default();
            det.inject_drift(rule, &mut diff);
            det.commit(&diff);
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
            let registry = Arc::new(ClassRegistry::new());
            let mut det = IncrementalDetector::from_violations_in(&sigma, &scratch, registry);
            if detector_set(&det) != scratch_set(&sigma, &g) {
                return Err("seeded state diverges from scratch".into());
            }
            // And it must keep maintaining correctly from there.
            let r1 = rng.gen_range(0..g.node_count());
            let (g2, delta) = g.edit_with_delta(|b| {
                let a = b.vocab().intern("val");
                b.set_attr(NodeId(r1 as u32), a, Value::Int(1));
            });
            det.apply_diff(&g2, &delta);
            if detector_set(&det) != scratch_set(&sigma, &g2) {
                return Err("post-handoff repair diverges".into());
            }
            Ok(())
        });
    }

    /// Hubs owning one leaf each, `val` on most nodes, and a Σ that
    /// gives each op kind a violation only its own pins find: a keyed
    /// two-part rule over two lone hubs (found only by pinning a
    /// relabeled node or a written `val`), a lone hub that must carry
    /// `val` (the same, or an added node without one), a wildcard edge,
    /// a self-loop pattern edge and a pair of parallel pattern edges
    /// (found only by pinning an added edge's endpoints).
    fn op_kind_world(rng: &mut Rng) -> (Graph, GfdSet) {
        let mut b = GraphBuilder::with_fresh_vocab();
        for _ in 0..rng.gen_range(4..8) {
            let hub = b.add_node_labeled("hub");
            let leaf = b.add_node_labeled("leaf");
            b.add_edge_labeled(hub, leaf, "owns");
            for node in [hub, leaf] {
                if rng.gen_bool(0.8) {
                    b.set_attr_named(node, "val", Value::Int(rng.gen_range(0..3) as i64));
                }
            }
        }
        let g = b.freeze();
        let vocab = g.vocab().clone();
        let val = vocab.intern("val");
        let rule = |name: &str, build: &dyn Fn(&mut PatternBuilder) -> Dependency| {
            let mut pb = PatternBuilder::new(vocab.clone());
            let dep = build(&mut pb);
            Gfd::new(name, pb.build(), dep)
        };
        let sigma = GfdSet::new(vec![
            rule("hub-pair", &|pb| {
                let (a, c) = (pb.node("a", "hub"), pb.node("c", "hub"));
                let x = vec![Literal::var_eq(a, val, c, val)];
                Dependency::new(x, vec![Literal::const_eq(a, val, Value::Int(0))])
            }),
            rule("every-hub-has-val", &|pb| {
                let a = pb.node("a", "hub");
                Dependency::always(vec![Literal::var_eq(a, val, a, val)])
            }),
            rule("any-edge-to-a-leaf-with-val", &|pb| {
                let (x, y) = (pb.node("x", "hub"), pb.node("y", "leaf"));
                pb.wildcard_edge(x, y);
                Dependency::always(vec![Literal::var_eq(y, val, y, val)])
            }),
            rule("self-liker-is-zero", &|pb| {
                let x = pb.node("x", "hub");
                pb.edge(x, x, "likes");
                Dependency::always(vec![Literal::const_eq(x, val, Value::Int(0))])
            }),
            rule("owns-and-likes", &|pb| {
                let (x, y) = (pb.node("x", "hub"), pb.node("y", "leaf"));
                pb.edge(x, y, "owns").edge(x, y, "likes");
                let x_eq = vec![Literal::var_eq(x, val, y, val)];
                Dependency::new(x_eq, vec![Literal::const_eq(x, val, Value::Int(0))])
            }),
        ]);
        (g, sigma)
    }

    #[test]
    fn every_op_kind_finds_the_violations_it_makes() {
        const KINDS: [&str; 8] = [
            "add an edge",
            "add a self-loop",
            "remove an edge",
            "write a read attribute",
            "write an unread attribute",
            "remove an attribute",
            "relabel",
            "add a node with edges",
        ];
        check(
            "IncrementalDetector ≡ detVio, one op kind per step",
            40,
            |rng| {
                let (mut g, sigma) = op_kind_world(rng);
                let vocab = g.vocab().clone();
                let [hub, leaf, owns, likes, val, stamp] =
                    ["hub", "leaf", "owns", "likes", "val", "stamp"].map(|s| vocab.intern(s));
                let mut det = IncrementalDetector::new(&sigma, &g);
                for step in 0..16 {
                    let kind = rng.gen_range(0..KINDS.len());
                    let n = g.node_count();
                    let u = NodeId(rng.gen_range(0..n) as u32);
                    // Any node but `u`: a self-loop is its own op kind.
                    let v = NodeId(((u.index() + 1 + rng.gen_range(0..n - 1)) % n) as u32);
                    let label = if rng.gen_bool(0.5) { owns } else { likes };
                    let value = Value::Int(rng.gen_range(0..3) as i64);
                    let edges: Vec<_> = g.edges().collect();
                    let gone = *rng.choose(&edges).expect("every hub owns a leaf");
                    let (g2, delta) = g.edit_with_delta(|b| match KINDS[kind] {
                        "add an edge" => {
                            b.add_edge(u, v, label);
                        }
                        "add a self-loop" => {
                            b.add_edge(u, u, label);
                        }
                        "remove an edge" => {
                            b.remove_edge(gone.src, gone.dst, gone.label);
                        }
                        "write a read attribute" => b.set_attr(u, val, value),
                        "write an unread attribute" => b.set_attr(u, stamp, value),
                        "remove an attribute" => {
                            b.remove_attr(u, val);
                        }
                        "relabel" => {
                            b.set_label(u, if b.label(u) == hub { leaf } else { hub });
                        }
                        _ => {
                            let n = b.add_node(if rng.gen_bool(0.5) { hub } else { leaf });
                            if rng.gen_bool(0.5) {
                                b.set_attr(n, val, value);
                            }
                            b.add_edge(n, u, label);
                            b.add_edge(v, n, owns);
                        }
                    });
                    let diff = det.apply_diff(&g2, &delta);
                    let scratch = scratch_set(&sigma, &g2);
                    if detector_set(&det) != scratch {
                        return Err(format!(
                            "step {step} ({}): {} maintained vs {} scratch",
                            KINDS[kind],
                            det.violation_count(),
                            scratch.len()
                        ));
                    }
                    if KINDS[kind] == "write an unread attribute" && !diff.is_empty() {
                        return Err(format!("step {step}: an unread write changed Vio"));
                    }
                    g = g2;
                }
                Ok(())
            },
        );
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
                    det.apply_diff(&g2, &delta);
                    let scratch = scratch_set(&sigma, &g2);
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
