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
use crate::cluster::{drive, Protocol, Run, Setup, Traffic};
use crate::metrics::ParallelReport;
use crate::opt::SplitUnit;
use crate::workload::WorkloadOptions;
use crate::Assignment;

/// Configuration of a `repVal` run.
#[derive(Clone, Debug)]
pub struct RepValConfig {
    /// Number of virtual processors.
    pub n: usize,
    /// Unit-assignment strategy (LPT or random).
    pub assignment: Assignment,
    /// Multi-query optimization: units enumerate through the run's
    /// shared class spaces (class-space pools) instead of
    /// searching the raw graph (raw pools). Rules sharing a pattern
    /// class are grouped either way.
    pub multi_query: bool,
    /// Replicate-and-split threshold on a unit's estimated cost.
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
            split_threshold: None,
            workload: WorkloadOptions::default(),
        }
    }

    /// `repnop`: no optimization strategies (multi-query processing,
    /// skew splitting) — balancing still on.
    pub fn nop(n: usize) -> Self {
        RepValConfig {
            multi_query: false,
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
    let algo = match (cfg.assignment, cfg.multi_query) {
        (Assignment::Balanced, true) => "repVal",
        (Assignment::Balanced, false) => "repnop",
        (Assignment::Random { .. }, _) => "repran",
    };
    let setup = Setup {
        algo,
        n: cfg.n,
        multi_query: cfg.multi_query,
        split_threshold: cfg.split_threshold,
        workload: &cfg.workload,
    };
    drive(sigma, g, setup, &mut Replicated(cfg.assignment))
}

/// `repVal`'s protocol: a 2-approximate makespan partition (or random
/// placement) of the shares' estimated costs, and one message of unit
/// descriptors to each worker (`W_i(Σ, G)`, Fig. 4 line 2).
struct Replicated(Assignment);

impl Protocol for Replicated {
    fn assign(&self, run: &Run) -> Vec<usize> {
        let costs: Vec<u64> = run.split.iter().map(SplitUnit::cost).collect();
        assign(self.0, &costs, run.n)
    }

    fn ship(&self, _: &Run, _: usize, shares: &[SplitUnit], traffic: &mut Traffic) {
        traffic.data += shares
            .iter()
            .map(|su| 16 + 8 * su.unit.k() as u64)
            .sum::<u64>();
    }
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
        let g = flights(640, 6);
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
