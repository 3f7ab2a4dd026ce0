//! The simulated cluster: virtual workers, virtual clocks, a
//! communication cost model — and the coordinator that `repVal` and
//! `disVal` share.
//!
//! See the crate docs for why simulation: the paper's notion of
//! parallel scalability is about `T(|Σ|, |G|, n) = c·t/n + …` — a
//! *cost*, which we compute exactly from real measured unit execution
//! times instead of pretending one machine is a 20-machine cluster.
//! Every unit runs once through the threaded unit loop (module
//! [`threaded`](crate::threaded)); its measured time is *replayed* on
//! the virtual worker that owns it. Messages are charged
//! `latency + bytes/bandwidth`, the standard α-β model; §6.2's
//! `CC(w) = c_s · |M|` is the β term.

use std::time::Instant;

use gfd_core::GfdSet;
use gfd_graph::Graph;
use gfd_match::ClassRegistry;

use crate::metrics::ParallelReport;
use crate::opt::{split_large_units, SplitUnit};
use crate::threaded::{run_units, UnitRun};
use crate::unitexec::UnitExecutor;
use crate::workload::{estimate_workload_in, Workload, WorkloadOptions};

/// Effective bandwidth of a simulated link in bytes per second:
/// 125 MB/s, a 1 Gbps link (the paper's EC2-era interconnect).
pub(crate) const BANDWIDTH: f64 = 125.0e6;

/// Latency of one simulated message in seconds (50 µs).
pub(crate) const LATENCY: f64 = 50.0e-6;

/// Seconds to ship one message of `bytes` bytes.
fn message_seconds(bytes: u64) -> f64 {
    LATENCY + bytes as f64 / BANDWIDTH
}

/// Per-worker virtual clocks: compute and communication are tracked
/// separately (Fig. 5(j–l) plots communication time alone).
#[derive(Clone, Debug)]
pub struct SimClocks {
    /// Busy seconds per worker (compute).
    pub busy: Vec<f64>,
    /// Communication seconds per worker.
    pub comm: Vec<f64>,
    /// Bytes shipped per worker.
    pub bytes: Vec<u64>,
    /// Messages per worker.
    pub messages: Vec<u64>,
}

impl SimClocks {
    /// Clocks for `n` workers, all at zero.
    pub fn new(n: usize) -> Self {
        SimClocks {
            busy: vec![0.0; n],
            comm: vec![0.0; n],
            bytes: vec![0u64; n],
            messages: vec![0u64; n],
        }
    }

    /// Charges `seconds` of compute to `worker`.
    pub fn charge_compute(&mut self, worker: usize, seconds: f64) {
        self.busy[worker] += seconds;
    }

    /// Charges a message of `bytes` to `worker`.
    pub fn charge_message(&mut self, worker: usize, bytes: u64) {
        self.comm[worker] += message_seconds(bytes);
        self.bytes[worker] += bytes;
        self.messages[worker] += 1;
    }

    /// Charges share `i` of `split` to worker `assignment[i]`: `1/of`
    /// of its unit's measured run, so splitting spreads a skewed unit's
    /// work across processors.
    pub(crate) fn replay(&mut self, split: &[SplitUnit], assignment: &[usize], runs: &[UnitRun]) {
        for (su, &worker) in split.iter().zip(assignment) {
            self.charge_compute(worker, runs[su.unit_index].seconds / su.of as f64);
        }
    }
}

/// The knobs `RepValConfig` and `DisValConfig` share.
pub(crate) struct Setup<'a> {
    /// Report label (`repVal`, `disnop`, …).
    pub algo: &'static str,
    pub n: usize,
    pub multi_query: bool,
    pub split_threshold: Option<u64>,
    pub workload: &'a WorkloadOptions,
}

/// What a [`Protocol`] reads: the snapshot, the worker count, the
/// estimated workload, its shares after skew splitting, and the
/// registry estimation simulated the classes in.
pub(crate) struct Run<'a> {
    pub g: &'a Graph,
    pub n: usize,
    pub wl: &'a Workload,
    pub split: &'a [SplitUnit],
    pub registry: &'a ClassRegistry,
}

/// Bytes one worker ships, batched per kind into one message each.
#[derive(Default)]
pub(crate) struct Traffic {
    /// Unit descriptors (`repVal`) or prefetched nodes (`disVal`).
    pub data: u64,
    /// Partial matches: split shares', and `disVal`'s partial detection.
    pub partial: u64,
    /// Violations returned to the coordinator.
    pub violations: u64,
}

/// What `repVal` and `disVal` do differently — how shares are assigned
/// and what is shipped; [`drive`] does the rest.
pub(crate) trait Protocol {
    /// Work the fragments do while estimating (timed into the
    /// estimation charge) and the messages it sends.
    fn prepare(&mut self, _run: &Run, _clocks: &mut SimClocks) {}
    /// The worker of every share of `run.split`.
    fn assign(&self, run: &Run) -> Vec<usize>;
    /// Adds what `worker` ships for its `shares` (in index order) to
    /// `traffic`; split shares' partial matches and the violations are
    /// added by the driver.
    fn ship(&self, run: &Run, worker: usize, shares: &[SplitUnit], traffic: &mut Traffic);
}

/// One simulated run: estimate `W(Σ, G)` with the time charged ÷ n,
/// split skewed units, let `protocol` assign the shares (timed as the
/// partition step), execute every unit once through the threaded unit
/// loop on one thread — a dedicated machine per worker has no
/// contention to pick up — and replay the measured unit times and
/// `protocol`'s traffic on the virtual clocks.
///
/// # Panics
/// Panics if a unit panics on every attempt: the result would be
/// incomplete.
pub(crate) fn drive(
    sigma: &GfdSet,
    g: &Graph,
    setup: Setup,
    protocol: &mut impl Protocol,
) -> ParallelReport {
    let n = setup.n;
    assert!(n > 0, "need at least one processor");
    // One registry serves the whole run: the classes estimation
    // simulates are the ones execution enumerates through.
    let registry = &ClassRegistry::new();
    let wl = &estimate_workload_in(sigma, g, setup.workload, registry);
    let split = &split_large_units(&wl.units, setup.split_threshold);
    let run = Run {
        g,
        n,
        wl,
        split,
        registry,
    };
    let mut clocks = SimClocks::new(n);
    let start = Instant::now();
    protocol.prepare(&run, &mut clocks);
    let estimation_seconds = (wl.estimation_seconds + start.elapsed().as_secs_f64()) / n as f64;
    let start = Instant::now();
    let assignment = protocol.assign(&run);
    let partition_seconds = start.elapsed().as_secs_f64();

    let exec = UnitExecutor::new(g, &wl.plan, &wl.slots, registry, setup.multi_query);
    let executed = run_units(&exec, &wl.units, 1, None, 0);
    assert!(
        executed.quarantined.is_empty(),
        "units {:?} panicked on every attempt — the result would be incomplete",
        executed.quarantined
    );
    let runs = &executed.unit_runs;
    clocks.replay(split, &assignment, runs);
    let mut shares = vec![Vec::new(); n];
    for (su, &worker) in split.iter().zip(&assignment) {
        shares[worker].push(*su);
    }
    for (worker, shares) in shares.iter().enumerate() {
        let mut traffic = Traffic::default();
        protocol.ship(&run, worker, shares, &mut traffic);
        for su in shares {
            if su.share == 0 {
                traffic.violations +=
                    runs[su.unit_index].violations * 8 * su.unit.k().max(1) as u64;
            }
            if su.of > 1 {
                // Split shares ship partial matches instead of their
                // unit's footprint (appendix, replicate-and-split).
                traffic.partial += su.cost() * 8;
            }
        }
        for bytes in [traffic.data, traffic.partial, traffic.violations] {
            if bytes > 0 {
                clocks.charge_message(worker, bytes);
            }
        }
    }

    let cache = registry.stats();
    ParallelReport {
        algo: setup.algo.into(),
        violations: executed.violations,
        estimation_seconds,
        partition_seconds,
        units: split.len(),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        ..clocks.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkUnit;

    #[test]
    fn cost_model_linear_in_bytes() {
        assert_eq!(message_seconds(0), LATENCY);
        let two_seconds_of_bytes = 2 * BANDWIDTH as u64;
        assert!((message_seconds(two_seconds_of_bytes) - (LATENCY + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn clocks_track_makespans() {
        let mut c = SimClocks::new(3);
        c.charge_compute(0, 1.0);
        c.charge_compute(1, 2.5);
        c.charge_compute(1, 0.5);
        c.charge_message(2, 400);
        let r = ParallelReport::from(c);
        assert!((r.compute_seconds - 3.0).abs() < 1e-12);
        assert!((r.comm_seconds - (LATENCY + 400.0 / BANDWIDTH)).abs() < 1e-12);
        assert_eq!((r.bytes_shipped, r.messages), (400, 1));
    }

    #[test]
    fn default_model_sane() {
        assert!(message_seconds(1_000_000) < 0.01, "1MB under 10ms at 1Gbps");
        assert!(message_seconds(0) > 0.0, "latency is nonzero");
    }

    /// The replay arithmetic on hand-made shares: unit 0 split into
    /// `of = 4` shares over two workers, unit 1 whole on worker 1.
    #[test]
    fn replay_charges_each_share_its_fraction_of_the_unit() {
        let unit = |cost| WorkUnit {
            rule: 0,
            slot_offset: 0,
            slot_len: 1,
            cost,
        };
        let split = split_large_units(&[unit(100), unit(10)], Some(25));
        assert_eq!(
            split.iter().map(|su| su.of).collect::<Vec<_>>(),
            [4, 4, 4, 4, 1]
        );
        let assignment = [0, 1, 0, 0, 1];
        let runs = [0.8, 0.3].map(|seconds| UnitRun {
            seconds,
            violations: 0,
        });
        let mut clocks = SimClocks::new(2);
        clocks.replay(&split, &assignment, &runs);
        for worker in 0..2 {
            let shares: f64 = split
                .iter()
                .zip(&assignment)
                .filter(|&(_, &w)| w == worker)
                .map(|(su, _)| runs[su.unit_index].seconds / su.of as f64)
                .sum();
            assert!(
                (clocks.busy[worker] - shares).abs() < 1e-12,
                "worker {worker}"
            );
        }
        assert!(
            (clocks.busy[0] - 0.6).abs() < 1e-12,
            "three quarters of unit 0"
        );
        assert!(
            (clocks.busy[1] - 0.5).abs() < 1e-12,
            "a quarter of unit 0, all of unit 1"
        );
        let total: f64 = clocks.busy.iter().sum();
        assert!(
            (total - 1.1).abs() < 1e-12,
            "the measured unit times, no more"
        );
    }
}
