//! The standing-violation service: a long-lived, epoch-pinned
//! edit-stream engine over the incremental detection stack.
//!
//! The one-shot stack (delta → space repair → detector → workload)
//! answers "what does this edit change?" per call. A deployment where
//! every user action is an edit needs the *standing* shape of
//! Berkholz/Keppeler/Schweikardt's FO+MOD maintenance under updates:
//! ingest a stream of edit batches, keep `Vio(Σ, G)` current with
//! bounded per-update work, and push *changes* (added / retracted
//! violations) to subscribers. [`ViolationService`] is that engine,
//! built robust by construction:
//!
//! * **Batch compaction** — a batch of per-edit [`GraphDelta`]s folds
//!   into one normalized delta ([`GraphDelta::compact`]): opposing ops
//!   cancel before any repair work happens, and re-enumerations
//!   pinned at nodes touched by several edits of the batch run once
//!   (the detector sees each affected node once per epoch).
//! * **Epoch/snapshot pinning** — each committed batch is an epoch.
//!   Readers pin the current [`Arc<Graph>`] ([`ViolationService::
//!   snapshot`]) and keep serving it while the next batch applies: the
//!   service never mutates a snapshot anyone else holds. A commit
//!   edits the snapshot in place when the service holds it alone
//!   ([`Graph::apply_delta_in_place`]) and patches a copy that shares
//!   the untouched pages when a reader holds it too. A pin is the
//!   snapshot itself: the service keeps no per-epoch log in memory and
//!   tracks no pins — the write-ahead log below is the one place
//!   epochs persist.
//! * **Durability** — with [`ViolationService::with_durable_log`] every
//!   committed epoch is also appended to an on-disk write-ahead log
//!   ([`crate::wal`]) as a checksummed frame, fsynced per
//!   [`crate::wal::SyncPolicy`]; [`ViolationService::recover`]
//!   restarts a crashed service from that file, truncating torn or
//!   corrupt tails and replaying every surviving epoch. The log counts
//!   its own frames and fsyncs ([`ViolationService::durable_log`]).
//! * **Ingest validation** — a malformed batch (out-of-range node
//!   ids, phantom edge removals, stale labels …) is rejected with an
//!   [`IngestError`] *before* anything is touched: no epoch, no log
//!   entry, no detector work.
//! * **Self-healing repair** — diff → commit → oracle → rollback:
//!   [`IncrementalDetector::diff`] runs under `catch_unwind` and writes
//!   nothing, the service commits its diff, and the sampled invariant
//!   check ([`IncrementalDetector::verify_rule`] on a seed-chosen rule:
//!   its group re-derived on the raw CSR) reads the committed set; a
//!   divergence commits the inverse diff. After a panic or a divergence
//!   the detector's set is thus the set subscribers hold, and the epoch
//!   degrades: a full recompute on panic-isolated workers
//!   ([`run_units_threaded_report`]), quarantined units re-derived
//!   sequentially, and a detector seeded from the truth
//!   ([`IncrementalDetector::from_violations_in`]) whose difference from
//!   the old one is the epoch's update, logged in [`ServiceStats`].
//! * **No torn epochs** — subscribers receive one [`VioUpdate`] per
//!   committed epoch, after commit, with strictly consecutive epoch
//!   numbers; folding the updates over the epoch-0 baseline always
//!   reproduces the service's absolute violation set, the detector's.

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc};

use gfd_core::group::{for_each_group_violation, GroupScratch};
use gfd_core::validate::detect_violations;
use gfd_core::{GfdSet, IncrementalDetector, VioDiff, Violation};
use gfd_graph::{DeltaError, Graph, GraphDelta};
use gfd_match::{ClassRegistry, Match};
use gfd_util::Rng;

use crate::fault::FaultPlan;
use crate::threaded::run_units_threaded_report;
use crate::unitexec::sort_violations;
use crate::wal::{self, RecoveryReport, SyncPolicy, WalError, WalWriter};
use crate::workload::{estimate_workload_in, WorkloadOptions};

/// A reader's pinned epoch: the epoch number and the frozen snapshot
/// it refers to. Holding one keeps the snapshot alive (it is an
/// `Arc`); the service never mutates a snapshot anyone else holds, so
/// a pin stays valid and consistent forever. The next commit patches a
/// copy that shares every page no edit touched
/// ([`Graph::apply_delta_in_place`] on a shared snapshot), so a pin
/// costs the pages rewritten since its epoch, not a copy of the graph;
/// an epoch no reader pinned is edited in place and costs no copy.
#[derive(Clone, Debug)]
pub struct PinnedEpoch {
    /// The pinned epoch number (0 = the service's initial snapshot).
    pub epoch: u64,
    /// The snapshot as of that epoch.
    pub graph: Arc<Graph>,
}

/// Why a batch was rejected. Rejection is total: the epoch, the log,
/// the detector and every subscriber are untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// A delta inside the batch failed structural validation (id
    /// ranges, density, chaining onto its predecessor).
    MalformedDelta {
        /// Index of the offending delta within the batch.
        index: usize,
        /// What was wrong with it.
        error: DeltaError,
    },
    /// The compacted batch contradicts the current snapshot (adding a
    /// present edge, removing an absent one, a stale label change).
    MalformedBatch {
        /// What was wrong with it.
        error: DeltaError,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::MalformedDelta { index, error } => {
                write!(f, "batch delta #{index} malformed: {error}")
            }
            IngestError::MalformedBatch { error } => {
                write!(f, "compacted batch contradicts snapshot: {error}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The per-epoch change pushed to subscribers: added and retracted
/// violations, both canonically sorted. Epoch numbers on one
/// subscription are strictly consecutive — a gap or repeat would mean
/// a torn epoch, and the soak test asserts neither ever happens.
#[derive(Clone, Debug)]
pub struct VioUpdate {
    /// The epoch this update commits.
    pub epoch: u64,
    /// Violations that appeared at this epoch.
    pub added: Vec<Violation>,
    /// Violations that disappeared at this epoch.
    pub retracted: Vec<Violation>,
    /// True if the epoch was served by the degradation path (full
    /// recompute) instead of incremental repair.
    pub degraded: bool,
}

/// Service tuning; [`Default`] is production-shaped (no fault
/// injection, light oracle sampling).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// OS threads for degraded-path recomputes.
    pub threads: usize,
    /// Per-epoch probability of running the sampled repair-invariant
    /// oracle: one random rule's group (the rule and its isomorphic
    /// twins) re-derived by one raw enumeration and compared.
    pub oracle_sample_p: f64,
    /// Seed for the service's deterministic sampling stream.
    pub seed: u64,
    /// Fault injection plan (soak harness only; `None` in production).
    pub faults: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 4,
            oracle_sample_p: 0.02,
            seed: 0x5EED_5EED,
            faults: None,
        }
    }
}

/// Operational counters of what the service decides: every failure
/// it absorbed is visible here. The durable log counts its own frames
/// and fsyncs ([`ViolationService::durable_log`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Epochs committed: the service's one epoch number.
    pub epochs: u64,
    /// Individual edit deltas accepted (before compaction).
    pub edits_ingested: u64,
    /// Batches rejected at ingest validation.
    pub batches_rejected: u64,
    /// Incremental-repair panics caught.
    pub repair_panics: u64,
    /// Sampled invariant checks run.
    pub oracle_checks: u64,
    /// Divergences the sampled oracle caught.
    pub divergences_detected: u64,
    /// Epochs served via the full-recompute degradation path.
    pub degraded_epochs: u64,
    /// Worker panics caught during degraded recomputes.
    pub unit_panics: u64,
    /// Units that succeeded after panicked attempts.
    pub units_retried: u64,
    /// Units quarantined (and then recovered sequentially).
    pub units_quarantined: u64,
    /// Always 0: the service keeps no per-epoch log in memory; the
    /// write-ahead log holds the epochs.
    pub retained_epochs: u64,
    /// Durable-log append/sync failures absorbed. A failed append
    /// drops the service to in-memory-only operation (it keeps
    /// serving; durability is gone until re-created) — this counter
    /// is how that degradation stays visible.
    pub log_write_errors: u64,
}

/// The long-lived standing-violation engine; see the module docs.
/// Its violation set, Σ and registry are its detector's, its epoch is
/// [`ServiceStats::epochs`], and every update it publishes is a diff
/// the detector committed.
pub struct ViolationService {
    current: Arc<Graph>,
    /// Holds Σ, `Vio(Σ, G)` and the serving-tier cache that degraded
    /// recomputes read through too
    /// ([`registry`](IncrementalDetector::registry)) — possibly shared
    /// with other tenants.
    detector: IncrementalDetector,
    /// The durable write-ahead log, if the service was constructed
    /// with one ([`with_durable_log`](Self::with_durable_log) /
    /// [`recover`](Self::recover)).
    wal: Option<WalWriter>,
    subscribers: Vec<mpsc::Sender<VioUpdate>>,
    rng: Rng,
    cfg: ServiceConfig,
    stats: ServiceStats,
}

impl ViolationService {
    /// Starts the service on a snapshot: one full detection pass
    /// establishes the epoch-0 baseline, over a private registry.
    pub fn new(sigma: GfdSet, g: Arc<Graph>, cfg: ServiceConfig) -> Self {
        Self::with_registry(sigma, g, cfg, Arc::new(ClassRegistry::new()))
    }

    /// Multi-tenant construction: starts the service over a **shared**
    /// [`ClassRegistry`]. N services (plus threaded executors and
    /// workload maintainers) can serve off one registry — simulations
    /// are paid once across all of them,
    /// under the registry's single byte budget. Tenants sharing a
    /// registry must ingest the same edit stream (the first tenant to
    /// reach an epoch repairs the registry; a later `advance` at an
    /// epoch already passed is a no-op).
    pub fn with_registry(
        sigma: GfdSet,
        g: Arc<Graph>,
        cfg: ServiceConfig,
        registry: Arc<ClassRegistry>,
    ) -> Self {
        let detector = IncrementalDetector::with_registry(&sigma, &g, registry);
        ViolationService {
            current: g,
            detector,
            wal: None,
            subscribers: Vec::new(),
            rng: Rng::seed_from_u64(cfg.seed),
            cfg,
            stats: ServiceStats::default(),
        }
    }

    /// Starts the service with a **durable** write-ahead log at
    /// `path` (truncating any previous file there): the epoch-0
    /// snapshot is written and fsynced immediately, and every
    /// committed epoch is appended as a checksummed frame, forced to
    /// stable storage per `policy` and counted by the log itself
    /// ([`durable_log`](Self::durable_log)). After a crash,
    /// [`recover`](Self::recover) rebuilds the service from this file.
    pub fn with_durable_log(
        sigma: GfdSet,
        g: Arc<Graph>,
        cfg: ServiceConfig,
        path: &Path,
        policy: SyncPolicy,
    ) -> Result<Self, WalError> {
        let mut svc = Self::new(sigma, g, cfg);
        svc.wal = Some(WalWriter::create(path, 0, &svc.current, policy)?);
        Ok(svc)
    }

    /// Restarts a crashed service from its durable log: replays every
    /// intact epoch onto the base snapshot (truncating the file at the
    /// first torn or corrupt frame — hostile bytes degrade recovery,
    /// they never panic it), re-derives `Vio(Σ, G)` on the recovered
    /// snapshot, re-seeds the incremental detector from that truth
    /// ([`IncrementalDetector::from_violations_in`]), and resumes
    /// ingest at the recovered epoch. The
    /// [`RecoveryReport`] accounts for every replayed epoch and every
    /// truncated frame.
    pub fn recover(
        sigma: GfdSet,
        path: &Path,
        cfg: ServiceConfig,
        policy: SyncPolicy,
    ) -> Result<(Self, RecoveryReport), WalError> {
        Self::recover_in(sigma, path, cfg, policy, Arc::new(ClassRegistry::new()))
    }

    /// [`recover`](Self::recover) onto a shared [`ClassRegistry`]
    /// (the multi-tenant counterpart of
    /// [`with_registry`](Self::with_registry)).
    pub fn recover_in(
        sigma: GfdSet,
        path: &Path,
        cfg: ServiceConfig,
        policy: SyncPolicy,
        registry: Arc<ClassRegistry>,
    ) -> Result<(Self, RecoveryReport), WalError> {
        // Replay into the rule set's own vocabulary so the recovered
        // graph and Σ's patterns share one `Vocab` by `Arc` identity
        // (the matcher insists on it). An empty Σ constrains nothing —
        // any fresh vocabulary serves.
        let (g, writer, report) = match sigma.iter().next().map(|gfd| gfd.pattern.vocab()) {
            Some(v) => wal::recover_in(path, policy, v)?,
            None => wal::recover(path, policy)?,
        };
        // Not `detect_violations_shared` on `registry`: the spaces it
        // keeps cost more RSS than the simulation it saves (ROADMAP ledger 6).
        let violations = detect_violations(&sigma, &g);
        let detector = IncrementalDetector::from_violations_in(&sigma, &violations, registry);
        let svc = ViolationService {
            current: Arc::new(g),
            detector,
            stats: ServiceStats {
                epochs: report.recovered_epoch,
                ..ServiceStats::default()
            },
            wal: Some(writer),
            subscribers: Vec::new(),
            rng: Rng::seed_from_u64(cfg.seed),
            cfg,
        };
        Ok((svc, report))
    }

    /// Pins the current epoch: the returned snapshot stays valid and
    /// immutable while later batches commit.
    pub fn snapshot(&self) -> PinnedEpoch {
        PinnedEpoch {
            epoch: self.stats.epochs,
            graph: Arc::clone(&self.current),
        }
    }

    /// The current absolute violation set, canonically sorted (the
    /// fold of every update over the baseline).
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = self.detector.violations();
        sort_violations(&mut out);
        out
    }

    /// Registers a subscriber. The receiver sees one [`VioUpdate`]
    /// per epoch committed *after* this call, in epoch order with no
    /// gaps; its baseline is [`violations`](Self::violations) /
    /// [`snapshot`](Self::snapshot) as of now. Dropped receivers are
    /// pruned on the next commit.
    pub fn subscribe(&mut self) -> mpsc::Receiver<VioUpdate> {
        let (tx, rx) = mpsc::channel();
        self.subscribers.push(tx);
        rx
    }

    /// Operational counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The durable write-ahead log, if this service has one; it counts
    /// its own frames and fsyncs.
    pub fn durable_log(&self) -> Option<&WalWriter> {
        self.wal.as_ref()
    }

    /// Forces every committed epoch onto stable storage now —
    /// subscriber-demand durability for [`SyncPolicy::EveryN`] /
    /// [`SyncPolicy::OnDemand`] services. A no-op without a durable
    /// log (which counts the fsync itself); an fsync failure drops the
    /// service to in-memory operation (counted in
    /// [`ServiceStats::log_write_errors`]) and is returned.
    pub fn flush_log(&mut self) -> Result<(), WalError> {
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.sync() {
                self.stats.log_write_errors += 1;
                self.wal = None;
                return Err(e);
            }
        }
        Ok(())
    }

    /// The rule set the service maintains: its detector's.
    pub fn sigma(&self) -> &GfdSet {
        self.detector.sigma()
    }

    /// Ingests one batch of edit deltas (delta `i+1` based on the
    /// result of delta `i`, the chain [`Graph::edit_with_delta`]
    /// sessions produce). On success the batch commits as one epoch:
    /// compaction → page patch (in place unless a reader pins the
    /// snapshot) → repair (or degradation) → log append → subscriber
    /// updates; returns the committed epoch. On rejection **nothing**
    /// changed.
    pub fn ingest(&mut self, batch: &[GraphDelta]) -> Result<u64, IngestError> {
        // 1. Validate structurally + fold the batch into one delta.
        //    Hostile ids must be caught BEFORE compaction (normalize's
        //    added-node folding indexes by id), so each delta's id
        //    ranges are checked against the running node count first.
        let mut expected_base = self.current.node_count();
        for (index, delta) in batch.iter().enumerate() {
            if let Err(error) = delta.check_ids(expected_base) {
                self.stats.batches_rejected += 1;
                return Err(IngestError::MalformedDelta { index, error });
            }
            expected_base += delta.added_nodes.len();
        }
        let compacted = GraphDelta::compact(batch)
            .unwrap_or_else(|| GraphDelta::new(self.current.node_count()));

        // 2. Semantic validation of the net delta against the pinned
        //    current snapshot; rejection leaves the epoch untouched.
        if let Err(error) = compacted.check_against(&self.current) {
            self.stats.batches_rejected += 1;
            return Err(IngestError::MalformedBatch { error });
        }

        // 3. Patch the snapshot. Held by the service alone it is
        //    edited where it lies; a reader's pin makes it shared, and
        //    then `make_mut` patches a shallow copy that shares every
        //    page the net delta does not touch, so the pinned snapshot
        //    never changes.
        let next_epoch = self.stats.epochs + 1;
        if !compacted.is_empty() {
            Arc::make_mut(&mut self.current).apply_delta_in_place(&compacted);
        }

        // 4. Repair under catch_unwind. A panic here (injected or
        //    real) must not take the service down: `diff` writes
        //    nothing, and the epoch degrades.
        let faults = self.cfg.faults.clone();
        let rules = self.detector.sigma().len();
        let injected_repair_panic = faults.as_ref().is_some_and(|f| f.repair_panics(next_epoch));
        let repair = {
            let detector = &mut self.detector;
            let (g, d) = (&*self.current, &compacted);
            panic::catch_unwind(AssertUnwindSafe(move || {
                if injected_repair_panic {
                    panic!("injected repair fault (epoch {next_epoch})");
                }
                detector.diff(g, d)
            }))
        };

        let (diff, degraded) = match repair {
            Ok(mut diff) => {
                // Fault injection: a wrong diff, then the sampled oracle
                // pointed at the drifted rule, so every injected drift
                // is caught, rolled back and healed (an UNdetected one
                // is what the sampling trade-off accepts).
                let drifted = match &faults {
                    Some(f) if rules > 0 && f.drifts(next_epoch) => {
                        let rule = self.rng.gen_range(0..rules);
                        self.detector.inject_drift(rule, &mut diff);
                        Some(rule)
                    }
                    _ => None,
                };
                self.detector.commit(&diff);
                let check_rule = drifted.or_else(|| {
                    (rules > 0 && self.rng.next_f64() < self.cfg.oracle_sample_p)
                        .then(|| self.rng.gen_range(0..rules))
                });
                let diverged = match check_rule {
                    Some(rule) => {
                        self.stats.oracle_checks += 1;
                        let ok = self.detector.verify_rule(rule, &self.current);
                        if !ok {
                            self.stats.divergences_detected += 1;
                        }
                        !ok
                    }
                    None => false,
                };
                if diverged {
                    // Roll back: the inverse diff swaps the two lists.
                    std::mem::swap(&mut diff.added, &mut diff.retracted);
                    self.detector.commit(&diff);
                    (self.degraded_refresh(next_epoch), true)
                } else {
                    (diff, false)
                }
            }
            Err(_) => {
                self.stats.repair_panics += 1;
                (self.degraded_refresh(next_epoch), true)
            }
        };
        let (mut added, mut retracted) = (diff.added, diff.retracted);
        sort_violations(&mut added);
        sort_violations(&mut retracted);

        // 5. Commit: advance the epoch, append it to the write-ahead
        //    log, then — and only then — publish. Subscribers can never
        //    observe a half-applied epoch because nothing is published
        //    until every service structure agrees on `next_epoch`.
        self.stats.epochs = next_epoch;
        self.stats.edits_ingested += batch.len() as u64;
        if let Some(w) = self.wal.as_mut() {
            let cut = faults.as_ref().and_then(|f| f.short_write(next_epoch));
            if w.append_cut(next_epoch, &compacted, self.current.vocab(), cut)
                .is_err()
            {
                // Serving beats durability: a failed append (disk
                // full, I/O error) drops the service to in-memory
                // operation — visibly, via the stats counter — and
                // the epoch still commits.
                self.stats.log_write_errors += 1;
                self.wal = None;
            }
        }
        let mut update = Some(VioUpdate {
            epoch: next_epoch,
            added,
            retracted,
            degraded,
        });
        // Every subscriber but the last gets a copy; the last takes the
        // update itself.
        let mut rest = self.subscribers.len();
        self.subscribers.retain(|tx| {
            rest -= 1;
            let update = if rest == 0 {
                update.take()
            } else {
                update.clone()
            };
            tx.send(update.expect("taken by the last subscriber"))
                .is_ok()
        });
        Ok(next_epoch)
    }

    /// Graceful degradation: recompute `Vio(Σ, G)` from scratch on
    /// panic-isolated workers, recover quarantined units by
    /// re-deriving their rule groups sequentially (quarantine is
    /// *reported work*, never lost work), re-seed the incremental
    /// detector from the recomputed truth, and return its difference
    /// from the detector it replaces, which holds what subscribers do.
    fn degraded_refresh(&mut self, next_epoch: u64) -> VioDiff {
        self.stats.degraded_epochs += 1;
        // The recompute's workers share the snapshot by `Arc`.
        let next = Arc::clone(&self.current);
        // The repair that just failed (or drifted) may have torn the
        // registry's incremental state mid-update: drop every cached
        // artifact so the recompute — and every later query — derives
        // from the recovered snapshot. Sound for co-tenants too (the
        // caches are pure derivations; they re-simulate lazily).
        let registry = self.detector.registry();
        registry.invalidate_all();
        let sigma = self.detector.sigma();
        let wl = estimate_workload_in(sigma, &next, &WorkloadOptions::default(), registry);
        let report = run_units_threaded_report(
            &next,
            sigma,
            &wl.plan,
            &wl.units,
            &wl.slots,
            registry,
            self.cfg.threads,
            self.cfg.faults.as_ref(),
            next_epoch,
        );
        self.stats.unit_panics += report.unit_panics;
        self.stats.units_retried += report.units_retried;
        self.stats.units_quarantined += report.quarantined.len() as u64;

        let mut violations = report.violations;
        if !report.quarantined.is_empty() {
            // The rule group of every quarantined unit is re-derived
            // from scratch on the coordinator — one enumeration per
            // group on the raw CSR, outside the unit machinery, so an
            // injected per-unit fault cannot recur here. Drop its
            // members' partial results first: other units of the same
            // group completed fine, but re-derivation covers the whole
            // group, so keeping them would duplicate rows.
            let groups = &wl.plan.groups;
            let mut reps: Vec<usize> = report
                .quarantined
                .iter()
                .map(|&i| groups.of(wl.units[i].rule()).rep)
                .collect();
            reps.sort_unstable();
            reps.dedup();
            violations.retain(|v| reps.binary_search(&groups.of(v.rule).rep).is_err());
            let mut scratch = GroupScratch::default();
            for &rep in &reps {
                let group = groups.of(rep);
                let raw = vec![None; group.parts.len()];
                for_each_group_violation(group, &next, &raw, &[], &mut scratch, &mut |rule, m| {
                    violations.push(Violation {
                        rule,
                        mapping: Match(m.to_vec()),
                    });
                });
            }
        }

        let truth =
            IncrementalDetector::from_violations_in(sigma, &violations, Arc::clone(registry));
        let diff = truth.changes_since(&self.detector);
        self.detector = truth;
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::silence_injected_panics;
    use gfd_core::validate::detect_violations;
    use gfd_core::Gfd;
    use gfd_graph::graph::same_snapshot;
    use gfd_graph::{NodeId, Value, Vocab};
    use std::collections::HashSet;
    use std::sync::Barrier;

    /// Readers may share a service across threads: `snapshot` and
    /// `violations` take `&self` and nothing behind them is
    /// thread-local.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<ViolationService>();
    };

    /// The service suites' social graph and rules, read from their
    /// kit file.
    #[allow(dead_code)]
    mod common {
        include!("../tests/common/mod.rs");
    }
    use common::{social, vio_set};

    /// The kit's first rule: a spam blog's poster must be fake.
    fn spam_rule(vocab: Arc<Vocab>) -> Gfd {
        common::rules(vocab).get(0).clone()
    }

    fn scratch(sigma: &GfdSet, g: &Graph) -> Vec<Violation> {
        let mut v = detect_violations(sigma, g);
        sort_violations(&mut v);
        v
    }

    /// Folds every update `rx` has received over `baseline`, the set
    /// its subscriber held when it subscribed: epochs run 1, 2, … with
    /// no gap, and no update retracts a row the fold lacks or adds one
    /// it holds. Returns the fold and each update's `degraded` flag.
    fn fold(
        baseline: Vec<Violation>,
        rx: &mpsc::Receiver<VioUpdate>,
    ) -> (HashSet<(usize, Match)>, Vec<bool>) {
        let mut folded = vio_set(baseline);
        let mut degraded = Vec::new();
        for update in rx.try_iter() {
            let epoch = update.epoch;
            assert_eq!(epoch, degraded.len() as u64 + 1, "torn or skipped epoch");
            degraded.push(update.degraded);
            for v in update.retracted {
                assert!(
                    folded.remove(&(v.rule, v.mapping)),
                    "epoch {epoch}: retraction of a violation the subscriber does not hold"
                );
            }
            for v in update.added {
                assert!(
                    folded.insert((v.rule, v.mapping)),
                    "epoch {epoch}: re-add of a violation the subscriber already holds"
                );
            }
        }
        (folded, degraded)
    }

    /// One batch of chained edit deltas on the shadow snapshot, biased
    /// toward toggling a small slot pool so batches carry opposing ops
    /// for compaction to cancel.
    fn random_batch(rng: &mut Rng, g: &Graph, len: usize) -> (Graph, Vec<GraphDelta>) {
        let mut cur = g.edit(|_| {});
        let mut deltas = Vec::with_capacity(len);
        for _ in 0..len {
            let n = cur.node_count();
            let s = NodeId(rng.gen_range(0..n) as u32);
            let d = NodeId(rng.gen_range(0..n) as u32);
            let kind = rng.gen_range(0..4);
            let spam = rng.gen_bool(0.5);
            let fake = rng.gen_bool(0.5);
            let (next, delta) = cur.edit_with_delta(|b| match kind {
                0 => {
                    b.add_edge_labeled(s, d, "post");
                }
                1 => {
                    b.remove_edge_labeled(s, d, "post");
                }
                2 => {
                    let a = b.vocab().intern("keyword");
                    b.set_attr(s, a, Value::str(if spam { "spam" } else { "ok" }));
                }
                _ => {
                    let a = b.vocab().intern("is_fake");
                    b.set_attr(s, a, Value::Bool(fake));
                }
            });
            cur = next;
            deltas.push(delta);
        }
        (cur, deltas)
    }

    fn service(n: usize, cfg: ServiceConfig) -> (Arc<Graph>, ViolationService) {
        let g = Arc::new(social(n));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let svc = ViolationService::new(sigma, Arc::clone(&g), cfg);
        (g, svc)
    }

    #[test]
    fn epoch_pins_survive_commits() {
        let (g0, mut svc) = service(12, ServiceConfig::default());
        let pin0 = svc.snapshot();
        assert_eq!(pin0.epoch, 0);
        assert_eq!(svc.violations(), scratch(svc.sigma(), &g0));

        let mut rng = Rng::seed_from_u64(11);
        let mut shadow = g0.edit(|_| {});
        // A pin on every third epoch, held beside the shadow graph at
        // that epoch, so ingest takes both branches: the epoch after a
        // pin commits on a snapshot a reader holds and copies it, the
        // others on one the service holds alone and edit it where it
        // lies.
        let mut pins = Vec::new();
        let (mut copied, mut in_place) = (0, 0);
        for round in 0..9u64 {
            let (next, batch) = random_batch(&mut rng, &shadow, 1 + (round as usize % 3));
            shadow = next;
            let changes = GraphDelta::compact(&batch).is_some_and(|d| !d.is_empty());
            // A pin taken and dropped at once: the address alone.
            let before = Arc::as_ptr(&svc.snapshot().graph);
            let pinned = std::iter::once(&pin0)
                .chain(pins.iter().map(|(pin, _)| pin))
                .any(|pin| Arc::as_ptr(&pin.graph) == before);
            let epoch = svc
                .ingest(&batch)
                .expect("recorded batches are well-formed");
            assert_eq!(epoch, round + 1, "epochs must be consecutive");
            assert_eq!(
                svc.violations(),
                scratch(svc.sigma(), &shadow),
                "epoch {epoch} diverges from scratch detection"
            );
            let after = Arc::as_ptr(&svc.snapshot().graph);
            match (changes, pinned) {
                (true, false) => {
                    assert_eq!(after, before, "epoch {epoch}: unpinned, edited in place");
                    in_place += 1;
                }
                (true, true) => {
                    assert_ne!(after, before, "epoch {epoch}: pinned, copied");
                    copied += 1;
                }
                (false, _) => assert_eq!(after, before, "epoch {epoch}: nothing to patch"),
            }
            if round % 3 == 2 {
                let pin = svc.snapshot();
                assert_eq!(pin.epoch, epoch);
                pins.push((pin, shadow.edit(|_| {})));
            }
        }
        assert!(
            copied > 1 && in_place > 1,
            "{copied} copied, {in_place} in place"
        );

        // An empty batch still commits a (trivial) epoch, on the same
        // snapshot.
        assert_eq!(svc.ingest(&[]).unwrap(), 10);
        assert!(Arc::ptr_eq(&svc.snapshot().graph, &pins[2].0.graph));

        // Every pin still addresses its own epoch's snapshot, however
        // many epochs committed after it.
        assert!(Arc::ptr_eq(&pin0.graph, &g0), "pinned snapshot was swapped");
        for (pin, at) in &pins {
            assert!(
                same_snapshot(&pin.graph, at).is_ok(),
                "the pin at epoch {} changed under later commits",
                pin.epoch
            );
        }
        assert_eq!(svc.stats().epochs, 10);
        assert_eq!(svc.stats().retained_epochs, 0);
    }

    #[test]
    fn readers_share_the_service_across_threads_between_ingests() {
        let (g0, mut svc) = service(12, ServiceConfig::default());
        let mut rng = Rng::seed_from_u64(71);
        let mut shadow = g0.edit(|_| {});
        for round in 0..4u64 {
            if round > 0 {
                let (next, batch) = random_batch(&mut rng, &shadow, 2);
                shadow = next;
                svc.ingest(&batch).unwrap();
            }
            let reader = &svc;
            // Both readers hold the service at once: the barrier keeps
            // either from finishing before the other has started.
            let both = Barrier::new(2);
            let reads: Vec<(PinnedEpoch, Vec<Violation>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            both.wait();
                            (reader.snapshot(), reader.violations())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a reader panicked"))
                    .collect()
            });
            let expected = scratch(svc.sigma(), &shadow);
            for (pin, violations) in &reads {
                assert_eq!(pin.epoch, round);
                assert!(Arc::ptr_eq(&pin.graph, &svc.snapshot().graph));
                assert_eq!(*violations, expected, "epoch {round}");
            }
        }
    }

    #[test]
    fn malformed_batches_are_rejected_with_the_epoch_untouched() {
        let (g0, mut svc) = service(9, ServiceConfig::default());
        let before = svc.violations();

        // Structurally hostile: an attr write on a node id far out of
        // range (would panic normalize/merge if it got that far).
        let mut bad = GraphDelta::new(g0.node_count());
        bad.attr_ops.push(gfd_graph::AttrOp {
            node: NodeId(g0.node_count() as u32 + 40),
            attr: gfd_graph::Sym(0),
            value: None,
        });
        assert!(matches!(
            svc.ingest(&[bad]).unwrap_err(),
            IngestError::MalformedDelta { index: 0, .. }
        ));

        // Chaining violation mid-batch: the second delta claims a base
        // the first delta's result does not have.
        let ok = GraphDelta::new(g0.node_count());
        let wrong_base = GraphDelta::new(g0.node_count() + 5);
        assert!(matches!(
            svc.ingest(&[ok, wrong_base]).unwrap_err(),
            IngestError::MalformedDelta { index: 1, .. }
        ));

        // Semantically hostile: removing an edge the snapshot does not
        // have (blogs have no "post" out-edges).
        let post = g0.vocab().lookup("post").expect("post is interned");
        let mut rem = GraphDelta::new(g0.node_count());
        rem.removed_edges.push(gfd_graph::Edge {
            src: NodeId(0),
            dst: NodeId(0),
            label: post,
        });
        assert!(matches!(
            svc.ingest(&[rem]).unwrap_err(),
            IngestError::MalformedBatch { .. }
        ));

        // Rejection is total: no epoch, no diff.
        assert_eq!(svc.snapshot().epoch, 0);
        assert_eq!(svc.stats().epochs, 0);
        assert_eq!(svc.violations(), before);
        assert_eq!(svc.stats().batches_rejected, 3);

        // And the service is not wedged: a good batch still commits.
        let (_, batch) = random_batch(&mut Rng::seed_from_u64(4), &g0, 3);
        assert_eq!(svc.ingest(&batch).unwrap(), 1);
    }

    #[test]
    fn subscribers_see_every_epoch_exactly_once_and_fold_to_the_absolute_set() {
        let (g0, mut svc) = service(10, ServiceConfig::default());
        let receivers = [svc.subscribe(), svc.subscribe()];
        let start = svc.violations();

        let mut rng = Rng::seed_from_u64(23);
        let mut shadow = g0.edit(|_| {});
        for round in 0..8 {
            if round == 4 {
                // A rejected batch must not leak an update.
                let stale = GraphDelta::new(shadow.node_count() + 1);
                assert!(svc.ingest(&[stale]).is_err());
            }
            let (next, batch) = random_batch(&mut rng, &shadow, 2);
            shadow = next;
            svc.ingest(&batch).unwrap();
        }
        drop(svc);

        let scratch_set = vio_set(scratch(
            &GfdSet::new(vec![spam_rule(shadow.vocab().clone())]),
            &shadow,
        ));
        for rx in receivers {
            let (folded, updates) = fold(start.clone(), &rx);
            assert_eq!(updates.len(), 8, "one update per committed epoch");
            assert_eq!(folded, scratch_set, "folded stream diverges from scratch");
        }
    }

    #[test]
    fn repair_panics_degrade_gracefully_and_heal() {
        silence_injected_panics();
        let cfg = ServiceConfig {
            threads: 2,
            faults: Some(FaultPlan {
                seed: 3,
                repair_panic_p: 1.0,
                ..FaultPlan::default()
            }),
            ..ServiceConfig::default()
        };
        let (g0, mut svc) = service(12, cfg);
        let rx = svc.subscribe();
        let baseline = svc.violations();
        let mut rng = Rng::seed_from_u64(31);
        let mut shadow = g0.edit(|_| {});
        for _ in 0..4 {
            let (next, batch) = random_batch(&mut rng, &shadow, 2);
            shadow = next;
            svc.ingest(&batch).unwrap();
        }
        assert_eq!(svc.violations(), scratch(svc.sigma(), &shadow));
        assert_eq!(svc.stats().repair_panics, 4);
        assert_eq!(svc.stats().degraded_epochs, 4);
        // A panicked repair wrote nothing: each degraded update takes
        // the subscriber from exactly the set it held to the truth.
        let (folded, degraded) = fold(baseline, &rx);
        assert_eq!(folded, vio_set(svc.violations()));
        assert_eq!(degraded, [true; 4], "an epoch hid its degradation");
    }

    #[test]
    fn injected_drift_is_caught_by_the_sampled_oracle() {
        let cfg = ServiceConfig {
            threads: 2,
            faults: Some(FaultPlan {
                seed: 5,
                drift_p: 1.0,
                ..FaultPlan::default()
            }),
            ..ServiceConfig::default()
        };
        let (g0, mut svc) = service(12, cfg);
        let rx = svc.subscribe();
        let baseline = svc.violations();
        let mut rng = Rng::seed_from_u64(41);
        let mut shadow = g0.edit(|_| {});
        for _ in 0..4 {
            let (next, batch) = random_batch(&mut rng, &shadow, 2);
            shadow = next;
            svc.ingest(&batch).unwrap();
        }
        // Drift makes every epoch's diff wrong; the paired oracle must
        // catch it every time, the rollback must leave the set the
        // subscriber holds, and the degraded recompute must heal the
        // service back to the scratch truth.
        assert_eq!(svc.violations(), scratch(svc.sigma(), &shadow));
        assert_eq!(svc.stats().oracle_checks, 4);
        assert_eq!(svc.stats().divergences_detected, 4);
        assert_eq!(svc.stats().degraded_epochs, 4);
        let (folded, degraded) = fold(baseline, &rx);
        assert_eq!(folded, vio_set(svc.violations()));
        assert_eq!(degraded, [true; 4], "an epoch hid its degradation");
    }

    #[test]
    fn degraded_recompute_recovers_quarantined_units_sequentially() {
        silence_injected_panics();
        let cfg = ServiceConfig {
            threads: 3,
            faults: Some(FaultPlan {
                seed: 9,
                repair_panic_p: 1.0, // force the degradation path...
                unit_panic_p: 0.6,   // ...then fault its workers too
                sticky_p: 0.5,
                ..FaultPlan::default()
            }),
            ..ServiceConfig::default()
        };
        // More accounts than the rule has ranges: the quarantined
        // units hold several pivots each.
        let (g0, mut svc) = service(150, cfg);
        let mut rng = Rng::seed_from_u64(51);
        let mut shadow = g0.edit(|_| {});
        for _ in 0..4 {
            let (next, batch) = random_batch(&mut rng, &shadow, 2);
            shadow = next;
            svc.ingest(&batch).unwrap();
        }
        // Quarantined units were recovered sequentially, so the final
        // set is still oracle-identical despite sticky worker faults.
        assert_eq!(svc.violations(), scratch(svc.sigma(), &shadow));
        let stats = svc.stats();
        assert!(stats.unit_panics > 0, "plan injected no worker faults");
        assert!(
            stats.units_quarantined > 0,
            "plan produced no sticky faults; pick a different seed"
        );
    }

    #[test]
    fn durable_service_survives_restart_with_identical_violations() {
        let dir = gfd_util::TempDir::new("gfd-svc-durable").unwrap();
        let path = dir.file("svc.wal");
        let (g0, sigma) = {
            let g = Arc::new(social(12));
            let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
            (g, sigma)
        };
        let mut svc = ViolationService::with_durable_log(
            sigma.clone(),
            Arc::clone(&g0),
            ServiceConfig::default(),
            &path,
            SyncPolicy::EveryEpoch,
        )
        .unwrap();

        let mut rng = Rng::seed_from_u64(81);
        let mut shadow = g0.edit(|_| {});
        for _ in 0..5 {
            let (next, batch) = random_batch(&mut rng, &shadow, 3);
            shadow = next;
            svc.ingest(&batch).unwrap();
        }
        let live_violations = svc.violations();
        assert_eq!(
            svc.durable_log().unwrap().frames(),
            6,
            "snapshot + 5 delta frames"
        );
        // "Crash": drop without any shutdown courtesy.
        drop(svc);

        let (mut svc2, report) = ViolationService::recover(
            sigma,
            &path,
            ServiceConfig::default(),
            SyncPolicy::EveryEpoch,
        )
        .unwrap();
        assert_eq!(report.recovered_epoch, 5);
        assert_eq!(report.replayed_epochs, 5);
        assert!(report.corruption.is_none());
        assert_eq!(svc2.snapshot().epoch, 5);
        assert_eq!(svc2.stats().epochs, report.recovered_epoch);
        assert_eq!(svc2.violations(), live_violations);
        assert_eq!(svc2.violations(), scratch(svc2.sigma(), &shadow));

        // The recovered service resumes ingest where the old one died.
        let (next, batch) = random_batch(&mut rng, &shadow, 2);
        shadow = next;
        assert_eq!(svc2.ingest(&batch).unwrap(), 6);
        assert_eq!(svc2.violations(), scratch(svc2.sigma(), &shadow));
    }

    #[test]
    fn on_demand_policy_flushes_on_subscriber_demand() {
        let dir = gfd_util::TempDir::new("gfd-svc-ondemand").unwrap();
        let path = dir.file("svc.wal");
        let g = Arc::new(social(8));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let mut svc = ViolationService::with_durable_log(
            sigma,
            Arc::clone(&g),
            ServiceConfig::default(),
            &path,
            SyncPolicy::OnDemand,
        )
        .unwrap();
        let mut rng = Rng::seed_from_u64(91);
        let mut shadow = g.edit(|_| {});
        for _ in 0..3 {
            let (next, batch) = random_batch(&mut rng, &shadow, 2);
            shadow = next;
            svc.ingest(&batch).unwrap();
        }
        {
            let w = svc.durable_log().unwrap();
            assert_eq!(w.synced_epoch(), 0, "OnDemand must not fsync on its own");
            assert!(w.synced_bytes() < w.bytes());
        }
        svc.flush_log().unwrap();
        let w = svc.durable_log().unwrap();
        assert_eq!(w.synced_epoch(), 3);
        assert_eq!(w.synced_bytes(), w.bytes());
    }
}
