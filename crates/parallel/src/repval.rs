//! `repVal` — parallel error detection with a replicated graph
//! (§6.1, Fig. 4, Theorem 10).
//!
//! The graph is available at every processor, so the only problem is
//! **workload balancing**: estimate `W(Σ, G)` (procedure `bPar`),
//! partition it 2-approximately over the `n` workers, run `localVio`
//! per worker, and union the local violation sets at the coordinator.
//!
//! Communication is limited to shipping work-unit descriptors out and
//! violations back — which is why `repVal` beats `disVal` on wall
//! clock at the price of replicating `G` (§7, Exp-1 observation (3)).

use std::sync::Arc;

use gfd_core::GfdSet;
use gfd_graph::Graph;

use crate::balance::assign;
use crate::cluster::{CostModel, SimClocks};
use crate::metrics::ParallelReport;
use crate::opt::{reduce_workload, split_large_units, REDUCTION_CAP};
use crate::unitexec::{sort_violations, UnitExecutor, UnitScratch};
use crate::workload::{estimate_workload_in, WorkloadOptions};
use crate::Assignment;
use gfd_match::ClassRegistry;

/// Configuration of a `repVal` run.
#[derive(Clone, Debug)]
pub struct RepValConfig {
    /// Number of virtual processors.
    pub n: usize,
    /// Unit-assignment strategy (LPT or random).
    pub assignment: Assignment,
    /// Multi-query optimization (common sub-patterns enumerate through
    /// one shared class space and plan).
    pub multi_query: bool,
    /// Workload reduction via implication. **Semantics note**: dropping
    /// an implied rule preserves whether inconsistencies are detected
    /// (`Vio = ∅` is unchanged), but the reported violation set lists
    /// only the surviving rules — so this is off by default and
    /// exercised by the ablation benchmarks.
    pub reduce_workload: bool,
    /// Replicate-and-split threshold for skewed blocks.
    pub split_threshold: Option<u64>,
    /// Workload-estimation knobs.
    pub workload: WorkloadOptions,
}

impl RepValConfig {
    /// The full algorithm (`repVal` in the figures).
    pub fn val(n: usize) -> Self {
        RepValConfig {
            n,
            assignment: Assignment::Balanced,
            multi_query: true,
            reduce_workload: false,
            split_threshold: None,
            workload: WorkloadOptions::default(),
        }
    }

    /// `repnop`: no optimization strategies (multi-query processing,
    /// workload reduction, skew splitting) — balancing still on.
    pub fn nop(n: usize) -> Self {
        RepValConfig {
            multi_query: false,
            reduce_workload: false,
            ..Self::val(n)
        }
    }

    /// `repran`: random work-unit assignment (optimizations on).
    pub fn ran(n: usize, seed: u64) -> Self {
        RepValConfig {
            assignment: Assignment::Random { seed },
            ..Self::val(n)
        }
    }

    /// Enables skew splitting with threshold `theta`.
    pub fn with_split(mut self, theta: u64) -> Self {
        self.split_threshold = Some(theta);
        self
    }
}

/// Runs `repVal` and reports violations plus simulated timings.
///
/// The graph is "replicated at every processor" in the paper's model;
/// here every virtual worker reads the *same* frozen CSR snapshot
/// through one shared `Arc` — replication without copies.
pub fn rep_val(sigma: &GfdSet, g: &Arc<Graph>, cfg: &RepValConfig) -> ParallelReport {
    assert!(cfg.n > 0, "need at least one processor");
    let g: &Graph = g;
    let algo = match (cfg.assignment, cfg.multi_query || cfg.reduce_workload) {
        (Assignment::Balanced, true) => "repVal",
        (Assignment::Balanced, false) => "repnop",
        (Assignment::Random { .. }, _) => "repran",
    };

    // (0) Optional workload reduction at the coordinator.
    let (sigma_red, reduce_seconds) = if cfg.reduce_workload {
        reduce_workload(sigma, REDUCTION_CAP)
    } else {
        (sigma.clone(), 0.0)
    };

    // (1) bPar: estimate W(Σ, G) — parallelized, so charge /n. One
    // registry serves the whole run: the classes estimation simulates
    // are the ones execution enumerates through.
    let registry = ClassRegistry::new();
    let wl = estimate_workload_in(&sigma_red, g, &cfg.workload, &registry);
    let plans = &wl.plans;
    let estimation_seconds = wl.estimation_seconds / cfg.n as f64;

    // (1b) Skew handling. Units are arena descriptors, so splitting
    // copies 24-byte records; the slot arena stays where it is.
    let split = split_large_units(&wl.units, cfg.split_threshold);
    let slots = &wl.slots;

    // (2) Partition the workload.
    let t0 = std::time::Instant::now();
    let costs: Vec<u64> = split.iter().map(|s| s.cost()).collect();
    let assignment = assign(cfg.assignment, &costs, cfg.n);
    let partition_seconds = t0.elapsed().as_secs_f64();

    // (3) localVio at each worker, every worker reading the run's one
    // registry — the paper's multi-query sharing, at the serving tier.
    let mut clocks = SimClocks::new(cfg.n);
    let cost_model = CostModel::default();
    let exec = UnitExecutor::new(g, &sigma_red, plans, slots, &registry, cfg.multi_query);
    let mut violations = Vec::new();
    // Reused across workers: per-unit execution scratch (each worker
    // would own one in a real deployment).
    let mut scratch = UnitScratch::new();
    // Pass 1 — execute the primary share of every unit at its owner
    // and record the measured enumeration time per unit.
    let mut unit_elapsed: Vec<f64> =
        vec![0.0; split.iter().map(|s| s.unit_index + 1).max().unwrap_or(0)];
    for worker in 0..cfg.n {
        // Messages are batched per worker: one shipment of unit
        // descriptors in (W_i(Σ, G), Fig. 4 line 2), one of violations
        // out (line 4), one of partial matches for split shares.
        let mut descriptor_bytes = 0u64;
        let mut violation_bytes = 0u64;
        let mut partial_bytes = 0u64;
        // One clock read per executed unit: each unit's elapsed time is
        // the span since the previous unit finished (the inter-unit
        // bookkeeping it absorbs is nanoseconds; reading the clock
        // twice per unit was a measurable share of the loop).
        let mut mark = std::time::Instant::now();
        for (i, su) in split.iter().enumerate() {
            if assignment[i] != worker {
                continue;
            }
            descriptor_bytes += 16 + 8 * su.unit.k() as u64;
            if su.share == 0 {
                let before = violations.len();
                exec.run(&su.unit, &mut scratch, &mut violations);
                let now = std::time::Instant::now();
                unit_elapsed[su.unit_index] = (now - mark).as_secs_f64();
                mark = now;
                let found = (violations.len() - before) as u64;
                violation_bytes += found * 8 * su.unit.k().max(1) as u64;
            } else {
                mark = std::time::Instant::now();
            }
            if su.of > 1 {
                // Split shares ship partial matches instead of blocks
                // (appendix, replicate-and-split).
                partial_bytes += su.cost() * 8;
            }
        }
        if descriptor_bytes > 0 {
            clocks.charge_message(worker, descriptor_bytes, &cost_model);
        }
        if violation_bytes > 0 {
            clocks.charge_message(worker, violation_bytes, &cost_model);
        }
        if partial_bytes > 0 {
            clocks.charge_message(worker, partial_bytes, &cost_model);
        }
    }
    // Pass 2 — every share (primary included) carries 1/of of the
    // unit's measured enumeration time: splitting spreads a skewed
    // unit's work across processors.
    for (i, su) in split.iter().enumerate() {
        clocks.charge_compute(assignment[i], unit_elapsed[su.unit_index] / su.of as f64);
    }

    sort_violations(&mut violations);
    ParallelReport::from_clocks(
        algo,
        cfg.n,
        violations,
        &clocks,
        reduce_seconds,
        estimation_seconds,
        partition_seconds,
        split.len(),
        registry.stats(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_core::validate::detect_violations;
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_graph::{Value, Vocab};
    use gfd_pattern::PatternBuilder;
    use std::sync::Arc;

    fn flights(n: usize, dup: usize) -> Arc<Graph> {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..n {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            let to = b.add_node_labeled("city");
            b.add_edge_labeled(f, id, "number");
            b.add_edge_labeled(f, to, "to");
            let idv = if i < dup {
                "DUP".into()
            } else {
                format!("FL{i}")
            };
            b.set_attr_named(id, "val", Value::str(&idv));
            b.set_attr_named(to, "val", Value::str(&format!("City{i}")));
        }
        Arc::new(b.freeze())
    }

    fn phi(vocab: Arc<Vocab>) -> Gfd {
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
            "flight-dest",
            q,
            Dependency::new(
                vec![Literal::var_eq(x1, val, y1, val)],
                vec![Literal::var_eq(x2, val, y2, val)],
            ),
        )
    }

    #[test]
    fn repval_matches_sequential_detvio() {
        let g = flights(8, 3);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let mut expected = detect_violations(&sigma, &g);
        crate::unitexec::sort_violations(&mut expected);
        for cfg in [
            RepValConfig::val(4),
            RepValConfig::nop(4),
            RepValConfig::ran(4, 7),
            RepValConfig::val(1),
        ] {
            let report = rep_val(&sigma, &g, &cfg);
            assert_eq!(report.violations, expected, "config {:?}", cfg.assignment);
        }
    }

    #[test]
    fn balanced_beats_random_makespan() {
        // Units long enough that a neighbouring test thread's
        // preemption does not decide the measured makespan.
        let g = flights(160, 6);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let val = rep_val(&sigma, &g, &RepValConfig::val(4));
        let ran = rep_val(&sigma, &g, &RepValConfig::ran(4, 99));
        // Same violations either way.
        assert_eq!(val.violations.len(), ran.violations.len());
        // LPT's imbalance should not exceed random's by more than noise.
        assert!(val.imbalance() <= ran.imbalance() * 1.5 + 0.5);
    }

    #[test]
    fn multi_query_reports_hits() {
        let g = flights(10, 2);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let with = rep_val(&sigma, &g, &RepValConfig::val(2));
        let without = rep_val(&sigma, &g, &RepValConfig::nop(2));
        // Without the optimization only estimation reads the registry.
        assert!(with.cache_hits > without.cache_hits);
        assert_eq!(with.cache_misses, 1, "one class, simulated once");
        assert_eq!(with.violations, without.violations);
    }

    #[test]
    fn split_preserves_violations() {
        let g = flights(10, 4);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let plain = rep_val(&sigma, &g, &RepValConfig::val(3));
        let split = rep_val(&sigma, &g, &RepValConfig::val(3).with_split(4));
        assert_eq!(plain.violations, split.violations);
        assert!(split.units > plain.units, "splitting adds shares");
    }

    #[test]
    fn report_fields_populated() {
        let g = flights(6, 2);
        let sigma = GfdSet::new(vec![phi(g.vocab().clone())]);
        let r = rep_val(&sigma, &g, &RepValConfig::val(2));
        assert_eq!(r.algo, "repVal");
        assert_eq!(r.n, 2);
        assert!(r.units > 0);
        assert!(r.total_seconds() > 0.0);
        assert!(r.bytes_shipped > 0, "unit descriptors count as traffic");
        assert_eq!(r.per_worker_busy.len(), 2);
    }
}
