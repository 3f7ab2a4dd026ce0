//! The unit loop: real-thread execution of work units, isolated
//! against panics — the one place a work unit runs.
//!
//! This module runs units across OS threads (std scoped threads that
//! claim unit indices off one atomic cursor — no external thread-pool
//! dependency), sharing one [`ClassRegistry`] serving tier across all
//! workers (and any other tenants of the same registry), and records
//! each unit's measured run time and violation count. The simulated
//! cluster (module [`cluster`](crate::cluster)) executes its units here
//! on one thread and replays those times on its virtual workers.
//!
//! Every worker shares the *same* frozen CSR snapshot through one
//! `Arc<Graph>` — the whole point of the builder/snapshot split: no
//! per-worker graph clone, no synchronization on the read path. A
//! worker owns the unit it claims and keeps its own rows and failure
//! ledger, merged into one [`ThreadedReport`] after the join: workers
//! share only the cursor, the executor and the registry.
//!
//! ## Panic isolation
//!
//! Each unit executes under [`std::panic::catch_unwind`]. A panic
//! poisons nothing shared: the panicked unit's partial output is
//! truncated, the worker's scratch (whose invariants the unwind may
//! have torn mid-update) is rebuilt — the shared registry needs no
//! rebuild (its lock is never held across enumeration, a poisoned
//! lock is absorbed, and its counters live inside it, out of a dying
//! worker's reach) — and the same worker **retries** the unit in place
//! after a bounded backoff. After [`MAX_UNIT_ATTEMPTS`] failed attempts
//! the unit is **quarantined and reported** in the [`ThreadedReport`];
//! it is never silently dropped, and sibling workers' results always
//! survive.
//!
//! The optional [`FaultPlan`] injects deterministic panics and
//! stragglers at chosen `(epoch, unit, attempt)` coordinates — the soak
//! harness drives this path; production callers pass `None` and pay
//! only the `catch_unwind` frame.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gfd_core::{GfdSet, Violation};
use gfd_graph::Graph;

use crate::fault::FaultPlan;
use crate::unitexec::{sort_violations, CacheStats, UnitExecutor, UnitScratch};
use crate::workload::{SigmaPlan, UnitSlot, WorkUnit};
use gfd_match::ClassRegistry;

/// Total attempts a unit gets (1 initial + 2 retries) before it is
/// quarantined.
pub const MAX_UNIT_ATTEMPTS: u32 = 3;

/// Base backoff before re-running a previously panicked unit; attempt
/// `k` waits `k × RETRY_BACKOFF`, so a worker whose unit keeps failing
/// sleeps between attempts instead of hot-looping.
const RETRY_BACKOFF: Duration = Duration::from_micros(200);

/// Everything a fault-isolated threaded run reports: the violations
/// of every unit that completed, plus the failure ledger.
#[derive(Debug, Default)]
pub struct ThreadedReport {
    /// Canonically sorted violations from all completed units.
    pub violations: Vec<Violation>,
    /// Worker panics caught (every attempt counts, retries included).
    pub unit_panics: u64,
    /// Units that completed only after ≥ 1 panicked attempt.
    pub units_retried: u64,
    /// Unit indices abandoned after [`MAX_UNIT_ATTEMPTS`] panics,
    /// sorted ascending. Their violations are missing from
    /// [`violations`](ThreadedReport::violations) — the caller must
    /// recover them (re-derive every rule of each unit's group) or
    /// surface the gap; the standing-violation service does the
    /// former.
    pub quarantined: Vec<usize>,
    /// The registry's counters across this call: every worker's
    /// class-space requests (and those of any co-tenant that raced the
    /// call), whatever became of the worker's later units.
    pub cache: CacheStats,
    /// Per unit index, what its successful attempt measured; a
    /// quarantined unit reads zero.
    pub unit_runs: Vec<UnitRun>,
}

/// One unit's successful attempt.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitRun {
    /// Seconds of the [`UnitExecutor::run`] call.
    pub seconds: f64,
    /// Violations it found.
    pub violations: u64,
}

/// Executes all units (descriptors over the `slots` arena, cut from
/// `plan`) across `threads` OS threads sharing one `Arc<Graph>`, every
/// unit isolated against panics: the worker that claimed a panicked unit
/// rebuilds its scratch and retries it in place with bounded retries and
/// backoff, and an exhausted one is quarantined and reported — a caller that cannot recover it
/// must treat a non-empty [`ThreadedReport::quarantined`] as an
/// incomplete result. `faults` (with its `epoch` coordinate) injects
/// deterministic panics/stragglers for the soak harness; pass `None` in
/// production.
///
/// Everything the units read of Σ comes from `plan`; `sigma` is only
/// debug-checked to be as long as the Σ `plan` was planned from (the
/// parameter stays for callers that pass it positionally).
#[allow(clippy::too_many_arguments)]
pub fn run_units_threaded_report(
    g: &Arc<Graph>,
    sigma: &GfdSet,
    plan: &SigmaPlan,
    units: &[WorkUnit],
    slots: &[UnitSlot],
    registry: &ClassRegistry,
    threads: usize,
    faults: Option<&FaultPlan>,
    epoch: u64,
) -> ThreadedReport {
    debug_assert_eq!(
        plan.groups
            .iter()
            .map(|group| group.members.len())
            .sum::<usize>(),
        sigma.len(),
        "plan is plan_rules(sigma)"
    );
    let exec = UnitExecutor::new(g, plan, slots, registry, true);
    run_units(&exec, units, threads, faults, epoch)
}

/// What one worker gathered from the units it claimed; merged into the
/// [`ThreadedReport`] after the join.
#[derive(Default)]
struct WorkerReport {
    violations: Vec<Violation>,
    runs: Vec<(usize, UnitRun)>,
    unit_panics: u64,
    units_retried: u64,
    quarantined: Vec<usize>,
}

/// The unit loop behind [`run_units_threaded_report`], over a prebuilt
/// executor — so whether units enumerate through the registry's class
/// spaces stays the caller's choice.
pub(crate) fn run_units(
    exec: &UnitExecutor,
    units: &[WorkUnit],
    threads: usize,
    faults: Option<&FaultPlan>,
    epoch: u64,
) -> ThreadedReport {
    let cache_before = exec.registry.stats();
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(|| run_worker(exec, units, &cursor, faults, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Invariant: worker bodies catch every unit panic, so
                // a join failure means the executor itself is broken —
                // that is a bug worth aborting on, not a data fault.
                h.join()
                    .expect("worker bodies are panic-isolated; join can only fail on executor bugs")
            })
            .collect()
    });

    // Merge with an exact capacity reservation, then establish the
    // canonical order in one unstable sort over the concatenation.
    let total = per_worker.iter().map(|w| w.violations.len()).sum();
    let mut report = ThreadedReport {
        violations: Vec::with_capacity(total),
        unit_runs: vec![UnitRun::default(); units.len()],
        ..ThreadedReport::default()
    };
    for mut w in per_worker {
        report.violations.append(&mut w.violations);
        report.unit_panics += w.unit_panics;
        report.units_retried += w.units_retried;
        report.quarantined.append(&mut w.quarantined);
        for (i, run) in w.runs {
            report.unit_runs[i] = run;
        }
    }
    sort_violations(&mut report.violations);
    report.quarantined.sort_unstable();
    report.cache = exec.registry.stats() - cache_before;
    report
}

/// One worker: claims the next unit index off `cursor` and runs that
/// unit to success or quarantine before it claims another, until the
/// cursor passes the last unit.
fn run_worker(
    exec: &UnitExecutor,
    units: &[WorkUnit],
    cursor: &AtomicUsize,
    faults: Option<&FaultPlan>,
    epoch: u64,
) -> WorkerReport {
    let mut w = WorkerReport::default();
    let mut scratch = UnitScratch::new();
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(unit) = units.get(i) else {
            return w;
        };
        for attempt in 0..MAX_UNIT_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(RETRY_BACKOFF * attempt);
            }
            if let Some(d) = faults.and_then(|f| f.straggle_for(epoch, i)) {
                std::thread::sleep(d);
            }
            let checkpoint = w.violations.len();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = faults {
                    if attempt < f.panic_attempts(epoch, i) {
                        panic!("injected worker fault (unit {i}, attempt {attempt})");
                    }
                }
                let start = Instant::now();
                exec.run(unit, &mut scratch, &mut w.violations);
                UnitRun {
                    seconds: start.elapsed().as_secs_f64(),
                    violations: (w.violations.len() - checkpoint) as u64,
                }
            }));
            match result {
                Ok(run) => {
                    w.runs.push((i, run));
                    w.units_retried += u64::from(attempt > 0);
                    break;
                }
                Err(_) => {
                    w.unit_panics += 1;
                    // The unwind may have left the unit's partial
                    // output and the scratch mid-update: drop the
                    // partial rows and rebuild the scratch.
                    w.violations.truncate(checkpoint);
                    scratch = UnitScratch::new();
                    if attempt + 1 == MAX_UNIT_ATTEMPTS {
                        w.quarantined.push(i);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{estimate_workload, plan_rules, WorkloadOptions};
    use gfd_core::validate::detect_violations;
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_graph::{GraphBuilder, Value, Vocab};
    use gfd_pattern::PatternBuilder;
    use std::sync::Arc;

    fn social(n: usize) -> Graph {
        let mut g = GraphBuilder::with_fresh_vocab();
        let blogs: Vec<_> = (0..n)
            .map(|i| {
                let b = g.add_node_labeled("blog");
                g.set_attr_named(
                    b,
                    "keyword",
                    Value::str(if i % 3 == 0 { "spam" } else { "ok" }),
                );
                b
            })
            .collect();
        for i in 0..n {
            let a = g.add_node_labeled("account");
            g.set_attr_named(a, "is_fake", Value::Bool(i % 4 == 0));
            g.add_edge_labeled(a, blogs[i], "post");
            g.add_edge_labeled(a, blogs[(i + 1) % n], "like");
        }
        g.freeze()
    }

    fn spam_rule(vocab: Arc<Vocab>) -> Gfd {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "account");
        let y = b.node("y", "blog");
        b.edge(x, y, "post");
        let q = b.build();
        let keyword = vocab.intern("keyword");
        let is_fake = vocab.intern("is_fake");
        Gfd::new(
            "spam-poster-is-fake",
            q,
            Dependency::new(
                vec![Literal::const_eq(y, keyword, "spam")],
                vec![Literal::const_eq(x, is_fake, true)],
            ),
        )
    }

    use crate::fault::silence_injected_panics;

    /// Accounts in the fault-injection graphs: more pivot candidates
    /// than a rule has ranges, so every unit holds several pivots.
    const ACCOUNTS: usize = 200;

    #[test]
    fn threaded_equals_sequential() {
        let g = Arc::new(social(ACCOUNTS));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        sort_violations(&mut expected);

        let plan = plan_rules(&sigma);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        assert!(wl.slots.iter().all(|s| s.range().len() >= 2));
        for threads in [1usize, 2, 4] {
            let registry = ClassRegistry::new();
            let report = run_units_threaded_report(
                &g, &sigma, &plan, &wl.units, &wl.slots, &registry, threads, None, 0,
            );
            assert!(report.quarantined.is_empty());
            assert_eq!(report.violations, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_units_empty_result() {
        let g = Arc::new(social(4));
        let sigma = GfdSet::default();
        let plan = plan_rules(&sigma);
        let registry = ClassRegistry::new();
        let report = run_units_threaded_report(&g, &sigma, &plan, &[], &[], &registry, 2, None, 0);
        assert!(report.quarantined.is_empty() && report.violations.is_empty());
    }

    #[test]
    fn transient_panics_retry_to_the_sequential_result() {
        silence_injected_panics();
        let g = Arc::new(social(ACCOUNTS));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        sort_violations(&mut expected);

        let plan = plan_rules(&sigma);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        // Transient-only faults: every panicked unit must succeed on
        // retry, so the result is complete and nothing is quarantined.
        let faults = FaultPlan {
            seed: 42,
            unit_panic_p: 0.5,
            sticky_p: 0.0,
            ..Default::default()
        };
        for threads in [1usize, 4] {
            let report = run_units_threaded_report(
                &g,
                &sigma,
                &plan,
                &wl.units,
                &wl.slots,
                &ClassRegistry::new(),
                threads,
                Some(&faults),
                3,
            );
            assert_eq!(report.violations, expected, "threads={threads}");
            assert!(report.quarantined.is_empty());
            assert!(report.unit_panics > 0, "plan injected nothing");
            assert_eq!(report.units_retried as usize, {
                (0..wl.units.len())
                    .filter(|&i| faults.panic_attempts(3, i) > 0)
                    .count()
            });
        }
    }

    #[test]
    fn sticky_panics_quarantine_and_spare_siblings() {
        silence_injected_panics();
        let g = Arc::new(social(ACCOUNTS));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let plan = plan_rules(&sigma);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let faults = FaultPlan {
            seed: 7,
            unit_panic_p: 0.4,
            sticky_p: 1.0, // every injected fault recurs on retry
            ..Default::default()
        };
        let expected_quarantine: Vec<usize> = (0..wl.units.len())
            .filter(|&i| faults.panic_attempts(9, i) == u32::MAX)
            .collect();
        assert!(
            !expected_quarantine.is_empty() && expected_quarantine.len() < wl.units.len(),
            "seed must fault some but not all of the {} units",
            wl.units.len()
        );
        let report = run_units_threaded_report(
            &g,
            &sigma,
            &plan,
            &wl.units,
            &wl.slots,
            &ClassRegistry::new(),
            4,
            Some(&faults),
            9,
        );
        // Every sticky unit is reported — never silently dropped —
        // after exactly MAX_UNIT_ATTEMPTS panics; sibling units all
        // completed (their violations are exactly the sequential
        // result minus the quarantined units' shares).
        assert_eq!(report.quarantined, expected_quarantine);
        assert_eq!(
            report.unit_panics,
            expected_quarantine.len() as u64 * MAX_UNIT_ATTEMPTS as u64
        );
        let mut surviving = Vec::new();
        let mut scratch = UnitScratch::new();
        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(&g, &plan, &wl.slots, &registry, false);
        for (i, unit) in wl.units.iter().enumerate() {
            if !expected_quarantine.contains(&i) {
                exec.run(unit, &mut scratch, &mut surviving);
            }
        }
        sort_violations(&mut surviving);
        assert_eq!(report.violations, surviving);
    }

    /// The per-unit record: a unit's violation count is its successful
    /// attempt's alone — the counts sum to the violations returned at
    /// every thread count — and a quarantined unit reads zero.
    #[test]
    fn unit_runs_record_each_units_successful_attempt() {
        silence_injected_panics();
        let g = Arc::new(social(ACCOUNTS));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let plan = plan_rules(&sigma);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(&g, &plan, &wl.slots, &registry, true);
        let mut scratch = UnitScratch::new();
        let sequential: Vec<u64> = (wl.units.iter())
            .map(|unit| {
                let mut out = Vec::new();
                exec.run(unit, &mut scratch, &mut out);
                out.len() as u64
            })
            .collect();
        let run = |faults: &FaultPlan, threads, epoch| {
            let registry = ClassRegistry::new();
            run_units_threaded_report(
                &g,
                &sigma,
                &plan,
                &wl.units,
                &wl.slots,
                &registry,
                threads,
                Some(faults),
                epoch,
            )
        };
        let transient = FaultPlan {
            seed: 42,
            unit_panic_p: 0.5,
            sticky_p: 0.0,
            ..Default::default()
        };
        for threads in [1usize, 2, 4] {
            let report = run(&transient, threads, 3);
            assert!(report.unit_panics > 0, "plan injected nothing");
            let counts: Vec<u64> = report.unit_runs.iter().map(|r| r.violations).collect();
            assert_eq!(counts, sequential, "threads={threads}");
            assert_eq!(counts.iter().sum::<u64>(), report.violations.len() as u64);
        }
        let sticky = FaultPlan {
            seed: 7,
            unit_panic_p: 0.4,
            sticky_p: 1.0,
            ..Default::default()
        };
        let report = run(&sticky, 4, 9);
        assert!(report.quarantined.iter().any(|&i| sequential[i] > 0));
        for (i, r) in report.unit_runs.iter().enumerate() {
            if report.quarantined.contains(&i) {
                assert_eq!((r.seconds, r.violations), (0.0, 0), "unit {i}");
            } else {
                assert_eq!(r.violations, sequential[i], "unit {i}");
            }
        }
    }

    /// Satellite regression: the report's cache counters must include
    /// requests made by workers whose later units panicked or were
    /// quarantined. Injected faults fire *before* the unit's registry
    /// requests, so every non-quarantined unit asks exactly as often
    /// as in a fault-free sequential replay — a report that lost a
    /// dying worker's share would come up short.
    #[test]
    fn cache_stats_survive_quarantined_workers() {
        silence_injected_panics();
        let g = Arc::new(social(ACCOUNTS));
        let sigma = GfdSet::new(vec![spam_rule(g.vocab().clone())]);
        let plan = plan_rules(&sigma);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let faults = FaultPlan {
            seed: 7,
            unit_panic_p: 0.4,
            sticky_p: 1.0, // injected faults stick: panics + quarantine
            ..Default::default()
        };
        let report = run_units_threaded_report(
            &g,
            &sigma,
            &plan,
            &wl.units,
            &wl.slots,
            &ClassRegistry::new(),
            3,
            Some(&faults),
            9,
        );
        assert!(report.unit_panics > 0 && !report.quarantined.is_empty());

        // Sequential replay of exactly the units that completed, on a
        // fresh registry: the probe volume must match the faulty run.
        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(&g, &plan, &wl.slots, &registry, true);
        let mut scratch = UnitScratch::new();
        let mut sink = Vec::new();
        for (i, unit) in wl.units.iter().enumerate() {
            if !report.quarantined.contains(&i) {
                exec.run(unit, &mut scratch, &mut sink);
            }
        }
        let stats = registry.stats();
        assert_eq!(
            report.cache.hits + report.cache.misses,
            stats.hits + stats.misses,
            "panic handling must not lose cache counters"
        );
    }
}
