//! Reports produced by the parallel detection algorithms.

use gfd_core::Violation;

use crate::cluster::SimClocks;
use crate::unitexec::CacheStats;

/// Everything a `repVal`/`disVal` run reports: the violations plus the
/// simulated-time breakdown the figures plot.
#[derive(Debug)]
pub struct ParallelReport {
    /// Algorithm label (`repVal`, `repnop`, `disran`, …).
    pub algo: String,
    /// Number of (virtual) processors.
    pub n: usize,
    /// The violations `Vio(Σ, G)` found.
    pub violations: Vec<Violation>,
    /// Seconds the coordinator spent minimizing `Σ` (workload
    /// reduction) — zero when the optimization is off.
    pub reduce_seconds: f64,
    /// Workload-estimation seconds, already divided by `n`
    /// (estimation is parallelized across processors).
    pub estimation_seconds: f64,
    /// Coordinator partition/assignment seconds.
    pub partition_seconds: f64,
    /// Compute makespan `max_i busy_i` over the virtual workers.
    pub compute_seconds: f64,
    /// Communication makespan (parallel shipment).
    pub comm_seconds: f64,
    /// Total bytes shipped between sites.
    pub bytes_shipped: u64,
    /// Number of messages.
    pub messages: u64,
    /// Work units executed.
    pub units: usize,
    /// Per-worker busy seconds (for balance inspection).
    pub per_worker_busy: Vec<f64>,
    /// Class-space requests of the run (estimation, and execution with
    /// the multi-query optimization on) its registry served resident.
    pub cache_hits: u64,
    /// Class-space requests that had to simulate.
    pub cache_misses: u64,
    /// Cold artifacts reclaimed by the run's registry's LRU pass.
    pub cache_evicted_cold: u64,
    /// Eviction candidates skipped because a worker still held them
    /// (refcount-aware deferral); they drain once pins drop.
    pub cache_evictions_deferred: u64,
}

impl ParallelReport {
    /// Assembles a report from clocks and bookkeeping.
    #[allow(clippy::too_many_arguments)]
    pub fn from_clocks(
        algo: impl Into<String>,
        n: usize,
        violations: Vec<Violation>,
        clocks: &SimClocks,
        reduce_seconds: f64,
        estimation_seconds: f64,
        partition_seconds: f64,
        units: usize,
        cache: CacheStats,
    ) -> Self {
        ParallelReport {
            algo: algo.into(),
            n,
            violations,
            reduce_seconds,
            estimation_seconds,
            partition_seconds,
            compute_seconds: clocks.compute_makespan(),
            comm_seconds: clocks.comm_makespan(),
            bytes_shipped: clocks.total_bytes(),
            messages: clocks.total_messages(),
            units,
            per_worker_busy: clocks.busy.clone(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evicted_cold: cache.evicted_cold,
            cache_evictions_deferred: cache.eviction_deferred_pinned,
        }
    }

    /// The simulated parallel response time
    /// `T(|Σ|, |G|, n) = reduce + est/n + partition + makespan + comm`.
    pub fn total_seconds(&self) -> f64 {
        self.reduce_seconds
            + self.estimation_seconds
            + self.partition_seconds
            + self.compute_seconds
            + self.comm_seconds
    }

    /// Imbalance ratio: makespan over mean busy time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let mean =
            self.per_worker_busy.iter().sum::<f64>() / self.per_worker_busy.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            self.compute_seconds / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::CostModel;

    #[test]
    fn totals_add_up() {
        let mut clocks = SimClocks::new(2);
        clocks.charge_compute(0, 1.0);
        clocks.charge_compute(1, 3.0);
        clocks.charge_message(
            0,
            1_000,
            &CostModel {
                bandwidth: 1000.0,
                latency: 0.0,
            },
        );
        let r = ParallelReport::from_clocks(
            "test",
            2,
            vec![],
            &clocks,
            0.5,
            0.25,
            0.25,
            7,
            CacheStats::default(),
        );
        assert!((r.compute_seconds - 3.0).abs() < 1e-9);
        assert!((r.comm_seconds - 1.0).abs() < 1e-9);
        assert!((r.total_seconds() - 5.0).abs() < 1e-9);
        assert_eq!(r.units, 7);
    }

    #[test]
    fn imbalance_of_even_load_is_one() {
        let mut clocks = SimClocks::new(4);
        for w in 0..4 {
            clocks.charge_compute(w, 2.0);
        }
        let r = ParallelReport::from_clocks(
            "t",
            4,
            vec![],
            &clocks,
            0.0,
            0.0,
            0.0,
            0,
            CacheStats::default(),
        );
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
    }
}
