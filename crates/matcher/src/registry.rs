//! The unified serving-tier class registry: one bounded, concurrently
//! shared cache of candidate spaces.
//!
//! Rule sets mined from real graphs are full of isomorphic pattern
//! components (the paper's Example 10), yet every consumer of
//! [`dual_simulation`](crate::simulation::dual_simulation) used to run
//! one worklist fixpoint *per component per rule* — `k` identical
//! simulations for a class with `k` members. [`ClassRegistry`] keys
//! every per-class artifact by **canonical isomorphism class**
//! ([`gfd_pattern::canonical_form`], complete — no hash-collision
//! exposure), computes each class once, and keeps every artifact in
//! **representative variable numbering**:
//!
//! * the first registered member of a class becomes the
//!   *representative*; its space is computed by the worklist fixpoint
//!   (lazily — classes that are never queried cost nothing beyond the
//!   canonical form) and kept as the bare [`CandidateSpace`], which a
//!   repair edits in place — a class is its representative and its
//!   space;
//! * a member is a **permutation** and nothing else: its class plus
//!   the [`IsoWitness`] onto the representative as `perm` (member var
//!   `j` ↦ rep var `perm[j]`, `None` = identity), immutable from
//!   [`ClassRegistry::register`] on. Every member of a class is handed
//!   the *same* space `Arc` in a [`ClassView`] next to its own `perm`,
//!   and translates variables at the edge: a
//!   candidate set of member var `v` is read at `perm[v]`
//!   ([`ClassView::rep_var`]), enumeration runs on the
//!   representative and rows come back permuted
//!   ([`for_each_match_in`](crate::api::for_each_match_in));
//! * the space is the class's only artifact: the enumerator orders
//!   every search from it (candidate-set sizes), so no per-class
//!   variable order is cached beside it;
//! * under graph edits, [`ClassRegistry::advance`] repairs **one**
//!   representative per class. Repair maintains
//!   what a standing query reads — the candidate spaces behind
//!   `Vio(Σ, G)` — and reports nothing: workloads are estimated from
//!   the repaired spaces, never maintained alongside them.
//!
//! One registry is shared across a whole rule set Σ — workload
//! estimation (`gfd-parallel`), violation detection (`gfd-core`),
//! their incremental maintainers, the threaded unit executor's
//! workers, and any number of standing-violation-service tenants all
//! share one `Arc<ClassRegistry>`. The registry is internally
//! synchronized (every method takes `&self`), in the spirit of
//! factorised / shared evaluation engines (FDB, FAQ) and of standing
//! indexes maintained under updates (Berkholz et al.): compute a
//! shared representation once, serve it to many readers.
//!
//! # The eviction / pinning contract
//!
//! The registry is **byte-budgeted**
//! ([`ClassRegistry::with_budget_bytes`]; default
//! [`DEFAULT_REGISTRY_BUDGET_BYTES`]). The one evictable kind is a
//! class's space ([`CandidateSpace::approx_bytes`]). A class retains
//! exactly what that figure accounts — the candidate sets and run
//! pages, nothing sized by the graph — plus its representative, so
//! the figure misses only page headers, directories and spare
//! capacity (`alloc_probe` holds held ÷ accounted bytes under a small
//! constant). The figure is counted once, when the space is simulated,
//! and then moved by each repair's net
//! ([`RepairReport::byte_delta`](crate::RepairReport::byte_delta)).
//! Representatives, canonical forms and member permutations are tiny
//! and exempt.
//!
//! When the budget is exceeded, entries are evicted **least recently
//! used first** (every hit touches its entry), with one hard rule: *an
//! artifact whose `Arc` is still held outside the registry is never
//! dropped* — eviction is refcount-aware, so a [`ClassView`] held
//! across an eviction storm keeps reading correct data, and a space
//! handle held across a repair keeps its snapshot (repairs
//! copy-on-write when shared). Pinned entries the evictor
//! had to skip while over budget are counted in
//! [`CacheStats::eviction_deferred_pinned`]; once the pins drop, the
//! next insertion — or an explicit [`ClassRegistry::sweep`] — drains
//! them and the budget holds again. A class's space is
//! reclaimable once unpinned; a later query re-simulates against the
//! then-current snapshot.
//!
//! # One workspace per registry
//!
//! The registry owns the working storage of simulation and repair, and
//! no class owns any: every class it simulates — a first query, or a
//! re-query after an eviction or [`ClassRegistry::invalidate_all`] —
//! runs its fixpoint in the registry's [`SimScratch`], and every class
//! [`ClassRegistry::advance`] repairs runs in its one repair scratch
//! (see [`crate::incremental`]). A class so allocates the space it
//! keeps, and an eviction drops nothing a re-simulated class must grow
//! again. Each buffer keeps the room the largest call so far needed,
//! across classes of any arity: for a simulation, a flag byte per seed
//! entry, a four-byte counter per seed entry per incident pattern edge
//! end, four bytes per removal of the deepest cascade and per cell of
//! the longest edge direction's runs — by the seeds, never by the
//! graph; for a repair, by the pairs the largest delta moved. Both sit
//! outside the byte budget (no class's, never evicted) and are dropped
//! with the registry.
//!
//! Lock discipline: simulation and repair run under the registry lock
//! (that is what guarantees "one simulation per class" even under
//! concurrent first queries, and what makes one workspace enough);
//! enumeration never does — consumers enumerate through the `Arc`s a
//! [`ClassView`] hands out, with no lock held.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use gfd_graph::{Graph, GraphDelta, NodeId};
use gfd_pattern::{canonical_form, CanonicalForm, IsoWitness, Pattern, VarId};

use crate::incremental::{repair, RepairScratch};
use crate::simulation::{dual_simulation_with, CandidateSpace, SimScratch};

/// Handle to a pattern registered in a [`ClassRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpaceHandle(usize);

/// Default [`ClassRegistry`] byte budget: generous enough that no test
/// or benchmark workload in the suite evicts, small enough that a
/// long-lived multi-tenant service stays bounded (64 MiB of spaces for
/// the whole Σ, shared — not per worker; what the registry holds is
/// within a small factor of what it counts).
pub const DEFAULT_REGISTRY_BUDGET_BYTES: usize = 64 << 20;

/// Hit/miss/eviction counters of the registry, counted inside it (all
/// tenants' and workers' requests combined); a caller wanting its own
/// call's share subtracts two [`ClassRegistry::stats`] readings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Class-space requests served from a resident space.
    pub hits: u64,
    /// Class-space requests that had to simulate (first query of a
    /// class, or its first after an eviction).
    pub misses: u64,
    /// Unpinned class spaces dropped by the byte budget (LRU order).
    pub evicted_cold: u64,
    /// Eviction attempts skipped because the space's `Arc` was still
    /// held outside the registry (one count per pinned entry per
    /// enforcement pass that ended over budget).
    pub eviction_deferred_pinned: u64,
}

impl std::ops::Sub for CacheStats {
    type Output = CacheStats;
    /// The counters accrued since an `earlier` reading of the same
    /// registry.
    fn sub(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evicted_cold: self.evicted_cold - earlier.evicted_cold,
            eviction_deferred_pinned: self.eviction_deferred_pinned
                - earlier.eviction_deferred_pinned,
        }
    }
}

/// One isomorphism class: its representative and its space.
struct ClassState {
    rep: Arc<Pattern>,
    form: CanonicalForm,
    /// `None` until some member's space is first queried, and again
    /// after the class is evicted; repaired by
    /// [`ClassRegistry::advance`] while present (in place unless a
    /// [`ClassView`] still holds it).
    space: Option<Arc<CandidateSpace>>,
    /// Accounted bytes of `space` ([`CandidateSpace::approx_bytes`]).
    bytes: usize,
    last_used: u64,
}

/// One registered pattern: its class and the witness onto the class
/// representative. Immutable once [`ClassRegistry::register`] returns.
struct MemberState {
    class: usize,
    /// The witness as a permutation (member var `j` ↦ rep var
    /// `perm[j]`), shared with every [`ClassView`] handed out for this
    /// member. `None` for identity members.
    perm: Option<Arc<[u32]>>,
}

/// What a member reads: its class's shared space — in
/// **representative** variable numbering, the same `Arc` for every
/// member of the class — plus the member's own permutation.
/// [`for_each_match_in`](crate::api::for_each_match_in) enumerates
/// through a view; everything else translates with
/// [`rep_var`](ClassView::rep_var).
#[derive(Clone, Debug)]
pub struct ClassView {
    /// The class representative, the pattern `space` indexes.
    pub rep: Arc<Pattern>,
    /// The class's candidate space over the queried snapshot. Stays
    /// valid across repairs and evictions (see the pinning contract in
    /// the module docs).
    pub space: Arc<CandidateSpace>,
    /// Member var `j` ↦ rep var `perm[j]`; `None` = the member is in
    /// representative order.
    pub perm: Option<Arc<[u32]>>,
}

impl ClassView {
    /// The representative variable that member variable `v` reads
    /// (variables outside the pattern map to themselves).
    #[inline]
    pub fn rep_var(&self, v: VarId) -> VarId {
        rep_var(self.perm.as_deref(), v)
    }

    /// Candidate set of *member* variable `v`.
    pub fn of(&self, v: VarId) -> &[NodeId] {
        self.space.of(self.rep_var(v))
    }
}

/// `v` through an optional member permutation; variables outside it
/// map to themselves.
#[inline]
pub(crate) fn rep_var(perm: Option<&[u32]>, v: VarId) -> VarId {
    perm.and_then(|p| p.get(v.index())).map_or(v, |&r| VarId(r))
}

#[derive(Default)]
struct RegistryInner {
    classes: Vec<ClassState>,
    members: Vec<MemberState>,
    by_code: HashMap<Vec<u64>, usize>,
    /// Dedup of member registrations: a witness determines the member
    /// pattern up to variable names (member = rep relabeled along the
    /// inverse), so `(class, witness)` identifies a member
    /// — re-registering returns the existing handle instead of growing
    /// state, which keeps long-lived shared registries bounded across
    /// repeated `estimate_workload_in`/`detect_violations_shared`
    /// calls over one Σ.
    member_by_witness: HashMap<(usize, Vec<VarId>), usize>,
    stats: CacheStats,
    /// Accounted bytes over class spaces.
    bytes: usize,
    budget: usize,
    /// Global LRU clock; bumped on every touch.
    tick: u64,
    /// Repair epoch — bumped once per non-empty applied delta.
    version: u64,
    /// The workspaces every class simulation and repair run in, under
    /// the lock and outside the budget (see the module docs).
    sim: SimScratch,
    repair: RepairScratch,
}

/// The shared, bounded, per-Σ cache of candidate spaces, keyed by
/// canonical isomorphism class. See
/// the module docs for the sharing model and the eviction / pinning
/// contract.
#[derive(Default)]
pub struct ClassRegistry {
    inner: Mutex<RegistryInner>,
}

impl ClassRegistry {
    /// An empty registry with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget_bytes(DEFAULT_REGISTRY_BUDGET_BYTES)
    }

    /// An empty registry holding at most `budget` accounted bytes (the
    /// most recently touched entry is always kept, so a single
    /// artifact larger than the budget still serves).
    pub fn with_budget_bytes(budget: usize) -> Self {
        ClassRegistry {
            inner: Mutex::new(RegistryInner {
                budget,
                ..RegistryInner::default()
            }),
        }
    }

    /// Survives lock poisoning: the lock is held only across in-memory
    /// cache maintenance, and every invariant the cache relies on for
    /// *correctness* (as opposed to byte accounting) is re-established
    /// by the next repair or re-enumeration, so a worker that panicked
    /// mid-update must not wedge every other tenant of the registry.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a pattern, resolving its isomorphism class (new
    /// classes make the pattern the representative; structurally
    /// identical re-registrations return the existing handle). Cheap —
    /// the simulation itself is deferred until [`space`](Self::space)
    /// is first called for the class.
    pub fn register(&self, q: &Pattern) -> SpaceHandle {
        let form = canonical_form(q);
        let mut inner = self.lock();
        let inner = &mut *inner;
        let (class, witness) = match inner.by_code.get(form.code()) {
            Some(&c) => (c, form.witness_onto(&inner.classes[c].form)),
            None => {
                let c = inner.classes.len();
                inner.by_code.insert(form.code().to_vec(), c);
                let witness = IsoWitness::identity(q.node_count());
                inner.classes.push(ClassState {
                    rep: Arc::new(q.clone()),
                    form,
                    space: None,
                    bytes: 0,
                    last_used: 0,
                });
                (c, witness)
            }
        };
        debug_assert!(
            Arc::ptr_eq(q.vocab(), inner.classes[class].rep.vocab()),
            "patterns in one registry must share a vocabulary"
        );
        let key = (class, witness.as_slice().to_vec());
        if let Some(&existing) = inner.member_by_witness.get(&key) {
            return SpaceHandle(existing);
        }
        let perm: Option<Arc<[u32]>> =
            (!witness.is_identity()).then(|| witness.as_slice().iter().map(|v| v.0).collect());
        let id = inner.members.len();
        inner.members.push(MemberState { class, perm });
        inner.member_by_witness.insert(key, id);
        SpaceHandle(id)
    }

    /// The member's view of its class's candidate space over `g`:
    /// simulated once per class (on first query), the same `Arc` for
    /// every member. `g` must be the snapshot the registry is
    /// synchronized with (the one passed to the last
    /// [`advance`](Self::advance), or the initial graph).
    pub fn space(&self, h: SpaceHandle, g: &Graph) -> ClassView {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let class = inner.members[h.0].class;
        inner.tick += 1;
        inner.classes[class].last_used = inner.tick;
        inner.ensure_space(class, g);
        let cls = &inner.classes[class];
        let view = ClassView {
            rep: Arc::clone(&cls.rep),
            space: Arc::clone(cls.space.as_ref().expect("simulated above")),
            perm: inner.members[h.0].perm.clone(),
        };
        inner.enforce_budget();
        view
    }

    /// Multi-tenant repair against one edit step: the *first* tenant to
    /// reach epoch `target` (`target == version() + 1`) applies the
    /// delta; a tenant arriving later at an epoch the registry already
    /// passed finds the work done and returns at once. Applying means
    /// **one** repair per simulated class, each in the registry's one
    /// repair workspace (classes never queried are skipped — a later
    /// first query simulates against the then-current snapshot).
    ///
    /// The registry's one repair entry point. `d` is taken as it is:
    /// its producer made it normalized (see [`GraphDelta`]). Tenants
    /// must ingest the same delta stream and bump their cursor once per
    /// *non-empty* delta — normalization is deterministic, so every
    /// tenant skips exactly the same empties (an empty delta is a no-op
    /// here and does **not** advance the repair epoch). A single tenant
    /// passes `version() + 1`.
    pub fn advance(&self, g: &Graph, d: &GraphDelta, target: u64) {
        self.lock().advance(g, d, target);
    }

    /// The repair epoch: how many non-empty deltas have been applied.
    /// A new tenant initializes its cursor from this.
    pub fn version(&self) -> u64 {
        self.lock().version
    }

    /// Drops every class space, so every later query re-simulates
    /// against the then-current snapshot. Sound at any point (the
    /// spaces are pure derivations); used by detectors re-seeding after
    /// a degraded epoch, where a mid-repair panic may have torn the
    /// incremental state.
    pub fn invalidate_all(&self) {
        let mut inner = self.lock();
        let inner = &mut *inner;
        for cls in &mut inner.classes {
            if cls.space.take().is_some() {
                inner.bytes -= std::mem::take(&mut cls.bytes);
            }
        }
    }

    /// Runs one budget-enforcement pass without inserting anything —
    /// the hook for draining evictions that were deferred while their
    /// entries were pinned.
    pub fn sweep(&self) {
        let mut inner = self.lock();
        // Advance the clock so nothing counts as "just inserted" — a
        // sweep has no in-flight caller to protect.
        inner.tick += 1;
        inner.enforce_budget();
    }

    /// The class a registered pattern belongs to.
    pub fn class_of(&self, h: SpaceHandle) -> usize {
        self.lock().members[h.0].class
    }

    /// Number of distinct isomorphism classes registered.
    pub fn class_count(&self) -> usize {
        self.lock().classes.len()
    }

    /// From-scratch worklist simulations run so far — the probe that
    /// asserts "one simulation per isomorphism class" in tests and
    /// benchmarks (a class evicted and re-queried simulates again).
    pub fn simulations(&self) -> usize {
        self.lock().stats.misses as usize
    }

    /// The registry's counters (every tenant's and worker's requests
    /// combined).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Accounted bytes currently held (class spaces).
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The configured byte budget. Public for `reasoning_micro`, which
    /// checks a capped registry stays within it.
    pub fn budget_bytes(&self) -> usize {
        self.lock().budget
    }
}

impl RegistryInner {
    /// Serves the class's space, simulating it if absent — the one
    /// place [`CacheStats::hits`] and [`CacheStats::misses`] count.
    fn ensure_space(&mut self, class: usize, g: &Graph) {
        let cls = &mut self.classes[class];
        if cls.space.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            let space = dual_simulation_with(&cls.rep, g, None, &mut self.sim);
            cls.bytes = space.approx_bytes();
            cls.space = Some(Arc::new(space));
            self.bytes += cls.bytes;
        }
    }

    /// [`ClassRegistry::advance`] under the lock: a no-op for an empty
    /// delta or an epoch already passed, one repair pass over every
    /// class otherwise.
    fn advance(&mut self, g: &Graph, d: &GraphDelta, target: u64) {
        if d.is_empty() || target <= self.version {
            return;
        }
        debug_assert_eq!(
            target,
            self.version + 1,
            "tenant cursors must advance the shared registry in lockstep"
        );
        for cls in &mut self.classes {
            let Some(space) = cls.space.as_mut() else {
                continue;
            };
            // The repair counts the run cells and set entries it wrote
            // and dropped, so the class's bytes move by their net
            // without a walk over the space's pages.
            let delta = repair(&cls.rep, None, g, d, space, &mut self.repair).byte_delta();
            let nb = (cls.bytes.checked_add_signed(delta))
                .expect("a repair drops no more bytes than the space held");
            self.bytes = self.bytes + nb - cls.bytes;
            cls.bytes = nb;
        }
        self.version = target;
        self.enforce_budget();
    }

    /// Evicts least-recently-used unpinned class spaces until the
    /// budget holds; pinned spaces are skipped (and counted) — see the
    /// module-level contract.
    fn enforce_budget(&mut self) {
        loop {
            if self.bytes <= self.budget {
                return;
            }
            let mut victim: Option<(u64, usize)> = None;
            let mut pinned = 0u64;
            for (c, cls) in self.classes.iter().enumerate() {
                // Never evict what was touched at the current tick —
                // that is what the caller just asked for.
                let Some(space) = cls.space.as_ref().filter(|_| cls.last_used != self.tick) else {
                    continue;
                };
                if Arc::strong_count(space) > 1 {
                    pinned += 1;
                } else if victim.is_none_or(|(t, _)| cls.last_used < t) {
                    victim = Some((cls.last_used, c));
                }
            }
            match victim {
                Some((_, c)) => {
                    self.classes[c].space = None;
                    self.bytes -= std::mem::take(&mut self.classes[c].bytes);
                    self.stats.evicted_cold += 1;
                }
                None => {
                    // Everything left is pinned (or just inserted):
                    // record the deferral and let a later sweep or
                    // insertion drain it once the pins drop.
                    self.stats.eviction_deferred_pinned += pinned;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentSearch;
    use crate::simulation::dual_simulation;
    use gfd_graph::GraphBuilder;
    use gfd_pattern::PatternBuilder;
    use gfd_util::Rng;

    /// True if no two of `handles` are the same registered pattern.
    fn distinct(handles: &[SpaceHandle]) -> bool {
        let set: std::collections::HashSet<_> = handles.iter().collect();
        set.len() == handles.len()
    }

    fn chain_graph() -> Graph {
        let mut b = GraphBuilder::with_fresh_vocab();
        let a1 = b.add_node_labeled("a");
        let b1 = b.add_node_labeled("b");
        let c1 = b.add_node_labeled("c");
        let a2 = b.add_node_labeled("a");
        let b2 = b.add_node_labeled("b");
        b.add_node_labeled("c");
        b.add_edge_labeled(a1, b1, "e");
        b.add_edge_labeled(b1, c1, "e");
        b.add_edge_labeled(a2, b2, "e");
        b.freeze()
    }

    /// The chain pattern with its variables declared in `order`.
    fn chain_pattern(g: &Graph, order: [usize; 3]) -> Pattern {
        let labels = ["a", "b", "c"];
        let names = ["x", "y", "z"];
        let mut b = PatternBuilder::new(g.vocab().clone());
        let mut vars = [VarId(0); 3];
        for &i in &order {
            vars[i] = b.node(names[i], labels[i]);
        }
        b.edge(vars[0], vars[1], "e");
        b.edge(vars[1], vars[2], "e");
        b.build()
    }

    /// The served view — sets and per-edge adjacency, read through the
    /// member's permutation — must equal a from-scratch simulation of
    /// the member's own pattern over `g`.
    fn assert_matches_scratch(reg: &ClassRegistry, h: SpaceHandle, q: &Pattern, g: &Graph) {
        let view = reg.space(h, g);
        let want = dual_simulation(q, g, None);
        for v in q.vars() {
            assert_eq!(view.of(v), want.of(v), "candidate set of {v:?}");
        }
        for (ei, e) in q.edges().iter().enumerate() {
            let (rs, rd) = (view.rep_var(e.src), view.rep_var(e.dst));
            let ri = view
                .rep
                .edges()
                .iter()
                .position(|re| re.src == rs && re.dst == rd && re.label == e.label)
                .expect("the permutation maps every member edge onto a rep edge");
            assert_eq!(view.space.forward[ri], want.forward[ei]);
            assert_eq!(view.space.reverse[ri], want.reverse[ei]);
        }
    }

    #[test]
    fn one_simulation_serves_the_whole_class() {
        let g = chain_graph();
        let members = [
            chain_pattern(&g, [0, 1, 2]),
            chain_pattern(&g, [2, 0, 1]),
            chain_pattern(&g, [1, 2, 0]),
        ];
        let reg = ClassRegistry::new();
        let handles: Vec<SpaceHandle> = members.iter().map(|q| reg.register(q)).collect();
        assert_eq!(reg.class_count(), 1);
        assert!(
            distinct(&handles),
            "three declaration orders, three members"
        );
        assert_eq!(reg.simulations(), 0, "registration alone never simulates");
        for (q, &h) in members.iter().zip(&handles) {
            assert_matches_scratch(&reg, h, q, &g);
        }
        assert_eq!(reg.simulations(), 1, "one fixpoint for three members");
        let spaces: Vec<_> = handles.iter().map(|&h| reg.space(h, &g).space).collect();
        assert!(
            spaces.iter().all(|cs| Arc::ptr_eq(cs, &spaces[0])),
            "every member reads the class's one space"
        );
    }

    #[test]
    fn distinct_shapes_get_distinct_classes() {
        let g = chain_graph();
        let reg = ClassRegistry::new();
        let h1 = reg.register(&chain_pattern(&g, [0, 1, 2]));
        let mut b = PatternBuilder::new(g.vocab().clone());
        b.node("solo", "a");
        let h2 = reg.register(&b.build());
        assert_ne!(reg.class_of(h1), reg.class_of(h2));
        assert_eq!(reg.class_count(), 2);
        assert_ne!(h1, h2);
    }

    #[test]
    fn repair_is_per_class_and_members_follow() {
        let g = chain_graph();
        let members = [chain_pattern(&g, [0, 1, 2]), chain_pattern(&g, [2, 1, 0])];
        let reg = ClassRegistry::new();
        let handles: Vec<SpaceHandle> = members.iter().map(|q| reg.register(q)).collect();
        for &h in &handles {
            reg.space(h, &g);
        }
        assert_eq!(reg.simulations(), 1);

        // Killing the b1→c1 edge empties the relation for the class.
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge_labeled(NodeId(1), NodeId(2), "e");
        });
        reg.advance(&g2, &delta, reg.version() + 1);
        assert_eq!(reg.version(), 1);
        for (q, &h) in members.iter().zip(&handles) {
            assert_matches_scratch(&reg, h, q, &g2);
            assert!(reg.space(h, &g2).space.is_empty_anywhere());
        }
        assert_eq!(reg.simulations(), 1, "repair must not re-simulate");
    }

    /// Re-registering a pattern (or its structural twin under other
    /// names) must return the existing handle — a registry shared
    /// across repeated estimation/detection calls stays bounded.
    #[test]
    fn reregistration_is_deduplicated() {
        let g = chain_graph();
        let q = chain_pattern(&g, [0, 1, 2]);
        let reg = ClassRegistry::new();
        let h1 = reg.register(&q);
        let h2 = reg.register(&q);
        assert_eq!(h1, h2);
        // Same structure, different variable names: same handle too.
        let renamed = {
            let mut b = PatternBuilder::new(g.vocab().clone());
            let x = b.node("p", "a");
            let y = b.node("q", "b");
            let z = b.node("r", "c");
            b.edge(x, y, "e");
            b.edge(y, z, "e");
            b.build()
        };
        assert_eq!(reg.register(&renamed), h1);
        // A different declaration order is a different member…
        let h3 = reg.register(&chain_pattern(&g, [2, 0, 1]));
        assert_ne!(h3, h1);
        assert_eq!(reg.class_of(h3), reg.class_of(h1));
        // …and ten rounds of re-registration hand back the same two
        // handles (a new member would get a new one).
        for _ in 0..10 {
            assert_eq!(reg.register(&q), h1);
            assert_eq!(reg.register(&chain_pattern(&g, [2, 0, 1])), h3);
        }
        assert_eq!(reg.class_count(), 1);
        assert_eq!(reg.simulations(), 0);
    }

    /// The triangle pattern with its variables declared in `order`.
    fn triangle_pattern(g: &Graph, order: [usize; 3]) -> Pattern {
        let labels = ["a", "b", "c"];
        let names = ["x", "y", "z"];
        let mut b = PatternBuilder::new(g.vocab().clone());
        let mut vars = [VarId(0); 3];
        for &i in &order {
            vars[i] = b.node(names[i], labels[i]);
        }
        b.edge(vars[0], vars[1], "e");
        b.edge(vars[1], vars[2], "e");
        b.edge(vars[2], vars[0], "e");
        b.build()
    }

    fn triangle_graph() -> Graph {
        let mut b = GraphBuilder::with_fresh_vocab();
        let a1 = b.add_node_labeled("a");
        let b1 = b.add_node_labeled("b");
        let c1 = b.add_node_labeled("c");
        let a2 = b.add_node_labeled("a");
        let b2 = b.add_node_labeled("b");
        let c2 = b.add_node_labeled("c");
        for (x, y, z) in [(a1, b1, c1), (a2, b2, c2)] {
            b.add_edge_labeled(x, y, "e");
            b.add_edge_labeled(y, z, "e");
            b.add_edge_labeled(z, x, "e");
        }
        // A dangling a→b edge that closes no triangle.
        b.add_edge_labeled(a1, b2, "e");
        b.freeze()
    }

    /// Enumerating through the view — the representative in the
    /// class's space, rows permuted back — must equal raw
    /// enumeration of the member's own pattern, plain and pinned at a
    /// member variable.
    #[test]
    fn transported_plan_enumerates_the_member_exactly() {
        use crate::api::{for_each_match_in, MatchScratch};
        use crate::types::{Flow, MatchOptions};

        let g = triangle_graph();
        let members = [
            triangle_pattern(&g, [0, 1, 2]),
            triangle_pattern(&g, [2, 0, 1]),
        ];
        let reg = ClassRegistry::new();
        let handles: Vec<SpaceHandle> = members.iter().map(|q| reg.register(q)).collect();
        let mut scratch = MatchScratch::default();
        for (q, &h) in members.iter().zip(&handles) {
            let view = reg.space(h, &g);
            let y = q.var_by_name("y").unwrap();
            for opts in [
                MatchOptions::unrestricted(),
                MatchOptions::unrestricted().pin(y, NodeId(1)),
            ] {
                let mut got = Vec::new();
                for_each_match_in(&view, &g, &opts, &mut scratch, &mut |m| {
                    got.push(m.to_vec());
                    Flow::Continue
                });
                let mut want = Vec::new();
                ComponentSearch::new(q, &g)
                    .pins(&opts.pins)
                    .for_each(&mut |m| {
                        want.push(m.to_vec());
                        Flow::Continue
                    });
                got.sort();
                want.sort();
                assert_eq!(got, want, "view enumeration must equal raw mode");
                assert_eq!(
                    got.len(),
                    2 - opts.pins.len(),
                    "two triangles, one through b1"
                );
            }
        }
        assert_eq!(reg.simulations(), 1);
    }

    #[test]
    fn lazy_class_simulates_against_current_snapshot() {
        let g = chain_graph();
        let q = chain_pattern(&g, [0, 1, 2]);
        let reg = ClassRegistry::new();
        let h = reg.register(&q);
        // Edit before ever querying: advance skips the unsimulated class…
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge_labeled(NodeId(1), NodeId(2), "e");
        });
        reg.advance(&g2, &delta, reg.version() + 1);
        assert_eq!(reg.simulations(), 0);
        // …and the first query simulates against the edited snapshot.
        assert_matches_scratch(&reg, h, &q, &g2);
        assert_eq!(reg.simulations(), 1);
    }

    /// A single `e` edge `a → b`: with the chain and the triangle, a
    /// third class over the same graphs.
    fn edge_pattern(g: &Graph) -> Pattern {
        let mut b = PatternBuilder::new(g.vocab().clone());
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        b.edge(x, y, "e");
        b.build()
    }

    /// Three classes over the triangle graph and the accounted bytes of
    /// each one's space.
    fn three_classes(g: &Graph) -> ([Pattern; 3], [usize; 3]) {
        let qs = [
            chain_pattern(g, [0, 1, 2]),
            triangle_pattern(g, [0, 1, 2]),
            edge_pattern(g),
        ];
        let sizes = [0, 1, 2].map(|i| dual_simulation(&qs[i], g, None).approx_bytes());
        assert!(sizes.iter().all(|&b| b > 0));
        (qs, sizes)
    }

    /// LRU eviction: over budget, the *least recently touched*
    /// unpinned class space goes first — a touch-on-hit keeps hot
    /// classes.
    #[test]
    fn eviction_is_lru_with_touch_on_hit() {
        let g = triangle_graph();
        let (qs, sizes) = three_classes(&g);
        // One byte short of all three: any two spaces fit.
        let budget = sizes.iter().sum::<usize>() - 1;
        let reg = ClassRegistry::with_budget_bytes(budget);
        let [a, b, c] = [0, 1, 2].map(|i| reg.register(&qs[i]));
        reg.space(a, &g);
        reg.space(b, &g);
        // Touch `a` so `b` becomes the LRU victim.
        reg.space(a, &g);
        assert_eq!((reg.stats().hits, reg.stats().misses), (1, 2));
        reg.space(c, &g);
        assert!(reg.bytes() <= budget, "budget must hold after insertion");
        assert_eq!(reg.stats().evicted_cold, 1);
        reg.space(a, &g);
        assert_eq!(reg.stats().hits, 2, "the touched class survived");
        reg.space(b, &g);
        assert_eq!(reg.stats().misses, 4, "the cold class was evicted");
    }

    /// The pinning contract: a [`ClassView`] held across an eviction
    /// storm pins its space — never dropped, deferred instead — and
    /// keeps reading correct sets; once the view drops, a sweep drains
    /// the deferral.
    #[test]
    fn pinned_spaces_defer_eviction_and_drain_after_release() {
        let g = triangle_graph();
        let (qs, sizes) = three_classes(&g);
        let reg = ClassRegistry::with_budget_bytes(sizes[0]);
        let [a, b, c] = [0, 1, 2].map(|i| reg.register(&qs[i]));
        let held = reg.space(a, &g);
        // Storm: other classes keep arriving while `held` pins the
        // first; each arrival evicts its cold predecessor but can never
        // reach the budget because of the pin.
        for _ in 0..3 {
            reg.space(b, &g);
            reg.space(c, &g);
        }
        assert!(reg.stats().evicted_cold > 0, "the storm did evict");
        assert!(reg.stats().eviction_deferred_pinned > 0);
        assert!(reg.bytes() > reg.budget_bytes(), "the held pin must defer");
        // The held view still reads the class's simulation.
        let want = dual_simulation(&qs[0], &g, None);
        for v in qs[0].vars() {
            assert_eq!(held.of(v), want.of(v));
        }
        drop(held);
        reg.sweep();
        assert!(reg.bytes() <= reg.budget_bytes(), "pins dropped ⇒ drained");
    }

    /// Twins cost no bytes: whatever `k` declaration-order twins of one
    /// class query, the registry holds what it held
    /// after the first.
    #[test]
    fn twins_share_the_class_artifacts_byte_for_byte() {
        let g = triangle_graph();
        let members = [
            triangle_pattern(&g, [0, 1, 2]),
            triangle_pattern(&g, [2, 0, 1]),
            triangle_pattern(&g, [1, 2, 0]),
            triangle_pattern(&g, [2, 1, 0]),
        ];
        let reg = ClassRegistry::new();
        let handles: Vec<SpaceHandle> = members.iter().map(|q| reg.register(q)).collect();
        assert_eq!(reg.class_count(), 1);
        assert!(distinct(&handles), "four declaration orders, four members");
        let first = reg.space(handles[0], &g);
        let after_one = reg.bytes();
        assert!(after_one > 0);
        for &h in &handles[1..] {
            let view = reg.space(h, &g);
            assert!(Arc::ptr_eq(&view.space, &first.space));
        }
        assert_eq!(
            reg.bytes(),
            after_one,
            "a twin is a permutation, not a copy"
        );
        assert_eq!(reg.simulations(), 1);
    }

    /// A whole evicted class is skipped by `advance` (there is nothing to
    /// repair) and re-simulates against the current snapshot on the
    /// next query.
    #[test]
    fn evicted_class_is_conservative_and_resimulates() {
        let g = chain_graph();
        let q = chain_pattern(&g, [0, 1, 2]);
        let reg = ClassRegistry::with_budget_bytes(0);
        let h = reg.register(&q);
        drop(reg.space(h, &g));
        assert_eq!(reg.simulations(), 1);
        reg.sweep();
        assert!(reg.stats().evicted_cold >= 1, "zero budget must evict");
        assert_eq!(reg.bytes(), 0);
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge_labeled(NodeId(1), NodeId(2), "e");
        });
        reg.advance(&g2, &delta, reg.version() + 1);
        assert_eq!(reg.simulations(), 1, "nothing to repair, nothing simulated");
        assert_matches_scratch(&reg, h, &q, &g2);
        assert_eq!(reg.simulations(), 2, "re-query re-simulates");
    }

    /// Multi-tenant `advance`: two tenants ingest one random edit
    /// script at their own pace. Whoever reaches an epoch first
    /// repairs; the other's `advance` at that epoch — with the stale
    /// snapshot and delta of an epoch the registry has since left
    /// behind — changes nothing.
    #[test]
    fn advance_applies_each_epoch_once() {
        let g0 = chain_graph();
        let members = [
            chain_pattern(&g0, [0, 1, 2]),
            chain_pattern(&g0, [2, 1, 0]),
            triangle_pattern(&g0, [0, 1, 2]),
        ];
        let reg = ClassRegistry::new();
        let handles: Vec<SpaceHandle> = members.iter().map(|q| reg.register(q)).collect();
        let check = |g: &Graph| {
            for (q, &h) in members.iter().zip(&handles) {
                assert_matches_scratch(&reg, h, q, g);
            }
        };
        check(&g0);
        assert_eq!(reg.simulations(), 2, "two classes");

        // The shared stream: every step toggles one `e` edge, so every
        // normalized delta is non-empty and epoch = step index + 1.
        let e = g0.vocab().intern("e");
        let mut rng = Rng::seed_from_u64(0x5eed);
        let mut script: Vec<(Graph, GraphDelta)> = Vec::new();
        for _ in 0..24 {
            let g = script.last().map_or(&g0, |(g, _)| g);
            let (src, dst) = loop {
                let s = NodeId(rng.gen_range(0..g.node_count()) as u32);
                let d = NodeId(rng.gen_range(0..g.node_count()) as u32);
                if s != d {
                    break (s, d);
                }
            };
            let (next, delta) = g.edit_with_delta(|b| {
                if g.has_edge(src, dst, e) {
                    b.remove_edge_labeled(src, dst, "e");
                } else {
                    b.add_edge_labeled(src, dst, "e");
                }
            });
            assert!(!delta.is_empty());
            script.push((next, delta));
        }

        // An empty delta advances nobody.
        let (same, d_empty) = script[0].0.edit_with_delta(|_| {});
        reg.advance(&same, &d_empty, 1);
        assert_eq!(reg.version(), 0);

        let mut cursors = [0usize; 2];
        let mut lagging_calls = 0;
        while cursors.iter().any(|&c| c < script.len()) {
            let t = rng.gen_range(0..2);
            if cursors[t] == script.len() {
                continue;
            }
            let (snapshot, delta) = &script[cursors[t]];
            cursors[t] += 1;
            let (version, sims) = (reg.version(), reg.simulations());
            reg.advance(snapshot, delta, cursors[t] as u64);
            let head = *cursors.iter().max().unwrap();
            assert_eq!(reg.version(), head as u64);
            if cursors[t] as u64 <= version {
                lagging_calls += 1;
                assert_eq!(reg.version(), version, "a passed epoch is a no-op");
            }
            assert_eq!(reg.simulations(), sims, "repair never re-simulates");
            check(&script[head - 1].0);
        }
        assert!(lagging_calls >= 8, "premise: the laggard path ran");
    }

    /// `advance` moves a class's bytes by its repair's net, never by a
    /// recount; the running total must still equal a from-scratch
    /// recount after every epoch — edits that move sets, edits that
    /// move only runs, and edits no class admits (`f` edges).
    #[test]
    fn accounted_bytes_equal_a_recount_over_random_epochs() {
        let mut g = triangle_graph();
        let members = [
            chain_pattern(&g, [0, 1, 2]),
            triangle_pattern(&g, [0, 1, 2]),
        ];
        let reg = ClassRegistry::new();
        let handles: Vec<SpaceHandle> = members.iter().map(|q| reg.register(q)).collect();
        for &h in &handles {
            reg.space(h, &g);
        }
        let mut rng = Rng::seed_from_u64(0xb17e5);
        let (mut moved, mut runs_only) = (0, 0);
        for epoch in 0..50 {
            // Node `i` has label `i % 3`; toggle an edge into the next
            // label, the direction both patterns admit.
            let s = rng.gen_range(0..6);
            let d = (s % 3 + 1) % 3 + 3 * rng.gen_range(0..2);
            let (s, d) = (NodeId(s as u32), NodeId(d as u32));
            let label = if rng.gen_range(0..4) == 0 { "f" } else { "e" };
            let (next, delta) = g.edit_with_delta(|b| {
                if !b.remove_edge_labeled(s, d, label) {
                    b.add_edge_labeled(s, d, label);
                }
            });
            let before = reg.bytes();
            let sizes = |g: &Graph| -> usize {
                let spaces = members.iter().map(|q| dual_simulation(q, g, None));
                spaces.map(|cs| cs.total_size()).sum()
            };
            let sets_before = sizes(&g);
            reg.advance(&next, &delta, reg.version() + 1);
            g = next;
            let recount: usize = members
                .iter()
                .map(|q| dual_simulation(q, &g, None).approx_bytes())
                .sum();
            assert_eq!(reg.bytes(), recount, "epoch {epoch}");
            moved += usize::from(recount != before);
            runs_only += usize::from(recount != before && sizes(&g) == sets_before);
        }
        assert!(moved >= 5, "premise: some epochs moved the byte count");
        assert!(runs_only >= 1, "premise: some epoch moved runs but no set");
    }

    /// `invalidate_all` drops every class space; later queries
    /// re-simulate against the current snapshot.
    #[test]
    fn invalidate_all_rebuilds_from_current_snapshot() {
        let g = chain_graph();
        let q = chain_pattern(&g, [0, 1, 2]);
        let reg = ClassRegistry::new();
        let h = reg.register(&q);
        let held = reg.space(h, &g).space;
        assert!(reg.bytes() > 0);
        reg.invalidate_all();
        assert_eq!(reg.bytes(), 0);
        let fresh = reg.space(h, &g).space;
        assert!(!Arc::ptr_eq(&held, &fresh), "the space was dropped");
        assert_eq!(reg.simulations(), 2, "and re-simulated");
        reg.invalidate_all();
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge_labeled(NodeId(1), NodeId(2), "e");
        });
        reg.advance(&g2, &delta, reg.version() + 1);
        assert_matches_scratch(&reg, h, &q, &g2);
        assert_eq!(reg.simulations(), 3);
    }

    /// A space handle held across a repair keeps its pre-repair
    /// snapshot (copy-on-write), while fresh queries see the repair.
    #[test]
    fn held_space_snapshot_survives_repair() {
        let g = chain_graph();
        let q = chain_pattern(&g, [0, 1, 2]);
        let reg = ClassRegistry::new();
        let h = reg.register(&q);
        let before = reg.space(h, &g).space;
        let sets_before = before.sets.clone();
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge_labeled(NodeId(1), NodeId(2), "e");
        });
        reg.advance(&g2, &delta, reg.version() + 1);
        assert_eq!(before.sets, sets_before, "held snapshot is immutable");
        assert!(
            reg.space(h, &g2).space.is_empty_anywhere(),
            "fresh queries see the repair"
        );
    }
}
