//! Reports produced by the parallel detection algorithms.

use gfd_core::Violation;

use crate::cluster::SimClocks;

/// Everything a `repVal`/`disVal` run reports: the violations plus the
/// simulated-time breakdown the figures plot.
#[derive(Debug, Default)]
pub struct ParallelReport {
    /// Algorithm label (`repVal`, `repnop`, `disran`, …).
    pub algo: String,
    /// Number of (virtual) processors.
    pub n: usize,
    /// The violations `Vio(Σ, G)` found.
    pub violations: Vec<Violation>,
    /// Seconds spent minimizing `Σ` (workload reduction), filled by a
    /// caller that reduced `Σ` first; `rep_val`/`dis_val` leave it 0.
    pub reduce_seconds: f64,
    /// Workload-estimation seconds, already divided by `n`
    /// (estimation is parallelized across processors).
    pub estimation_seconds: f64,
    /// Coordinator partition/assignment seconds.
    pub partition_seconds: f64,
    /// Compute makespan `max_i busy_i` over the virtual workers.
    pub compute_seconds: f64,
    /// Communication makespan: shipments proceed in parallel per
    /// worker, matching §7's observation that communication time "is
    /// not very sensitive to n due to parallel shipment".
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
}

/// A report carrying the clocks' makespans, traffic and per-worker
/// busy time; the coordinator fills in the rest.
impl From<SimClocks> for ParallelReport {
    fn from(clocks: SimClocks) -> Self {
        ParallelReport {
            n: clocks.busy.len(),
            compute_seconds: clocks.busy.iter().copied().fold(0.0, f64::max),
            comm_seconds: clocks.comm.iter().copied().fold(0.0, f64::max),
            bytes_shipped: clocks.bytes.iter().sum(),
            messages: clocks.messages.iter().sum(),
            per_worker_busy: clocks.busy,
            ..Default::default()
        }
    }
}

impl ParallelReport {
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
    use crate::cluster::{BANDWIDTH, LATENCY};

    #[test]
    fn totals_add_up() {
        let mut clocks = SimClocks::new(2);
        clocks.charge_compute(0, 1.0);
        clocks.charge_compute(1, 3.0);
        clocks.charge_message(0, 1_000);
        let comm = LATENCY + 1_000.0 / BANDWIDTH;
        let r = ParallelReport {
            reduce_seconds: 0.5,
            estimation_seconds: 0.25,
            partition_seconds: 0.25,
            units: 7,
            ..clocks.into()
        };
        assert!((r.compute_seconds - 3.0).abs() < 1e-9);
        assert!((r.comm_seconds - comm).abs() < 1e-12);
        assert!((r.total_seconds() - (4.0 + comm)).abs() < 1e-9);
        assert_eq!(
            (r.n, r.units, r.bytes_shipped, r.messages),
            (2, 7, 1_000, 1)
        );
    }

    #[test]
    fn imbalance_of_even_load_is_one() {
        let mut clocks = SimClocks::new(4);
        for w in 0..4 {
            clocks.charge_compute(w, 2.0);
        }
        let r = ParallelReport::from(clocks);
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
    }
}
