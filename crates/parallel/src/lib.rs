//! # gfd-parallel — parallel scalable GFD error detection
//!
//! Implements Sections 5.2 and 6 of *Functional Dependencies for
//! Graphs* (Fan, Wu & Xu, SIGMOD 2016): the workload model, the
//! load-balancing and bi-criteria assignment strategies, and the two
//! parallel scalable algorithms
//!
//! * [`repval::rep_val`] — graph replicated at every processor
//!   (Fig. 4 / Theorem 10): balance the workload `W(Σ, G)` with a
//!   2-approximate makespan partition, detect locally, union;
//! * [`disval::dis_val`] — graph fragmented across processors
//!   (Theorem 11): estimate partial work units per fragment, assemble
//!   at the coordinator, assign bi-criterially (balance × data
//!   shipment), detect locally with *prefetch* or *partial-match*
//!   evaluation per unit;
//!
//! plus the appendix optimizations: replicate-and-split for skewed
//! work units, multi-query processing over common sub-patterns, and
//! workload reduction via implication (module [`opt`]).
//!
//! ## The cluster substitute
//!
//! The paper evaluates on 20 EC2 instances. This reproduction runs on
//! a single machine, so the "cluster" is a **simulator with virtual
//! clocks** (module [`cluster`]) over one real executor. The threaded
//! unit loop (module [`threaded`], std scoped threads claiming units
//! off one atomic cursor) is the only code that runs a work unit: it
//! measures each unit's time, and the simulator executes every unit
//! there once and *replays* the measured times on the virtual worker
//! each unit is assigned to, while message traffic is charged to a
//! communication clock under a fixed bandwidth/latency model.
//! Simulated parallel time is
//! `estimation/n + partition + max_i busy_i + comm` — exactly the
//! quantity the paper's parallel-scalability definition measures — so
//! speedup-vs-`n` shapes, balanced-vs-random gaps and
//! repVal-vs-disVal comparisons reproduce faithfully. All workers
//! share one `Arc<Graph>` CSR snapshot — never per-worker copies — and
//! read one [`gfd_match::ClassRegistry`] serving tier for candidate
//! spaces, so a simulation paid by any
//! worker (or co-tenant service) serves every other. Workers are
//! **panic-isolated**: a unit that panics is caught, retried in place
//! by the worker that claimed it (on a rebuilt scratch, with bounded
//! backoff), and quarantined-and-reported if the fault is sticky —
//! never silently dropped.
//!
//! ## The standing-violation service
//!
//! Module [`service`] lifts the one-shot detectors into a long-lived
//! engine over an **edit stream**: batches of [`gfd_graph::GraphDelta`]s
//! compact (opposing ops cancel), commit as epoch-pinned snapshots
//! readers can hold across later commits, persist to the write-ahead
//! log (module [`wal`]), and push violation *changes* to
//! subscribers. Its robustness story — malformed-batch rejection,
//! `catch_unwind` repair with graceful degradation to a panic-isolated
//! full recompute, and a sampled per-epoch repair-invariant oracle —
//! is exercised by the deterministic fault-injection harness (module
//! [`fault`]) and the 10k-edit soak test.
//!
//! Under the edit stream the service maintains exactly what its
//! standing query reads — the shared registry's candidate spaces and
//! `Vio(Σ, G)`. The workload `W(Σ, G)` is *estimated* (module
//! [`workload`]) once per validation run, as in the paper, and again
//! from scratch by a degraded epoch's full recompute; nothing keeps it
//! fresh between runs.

pub mod balance;
pub mod cluster;
pub mod disval;
pub mod fault;
pub mod metrics;
pub mod opt;
pub mod repval;
pub mod service;
pub mod threaded;
pub mod unitexec;
pub mod wal;
pub mod workload;

pub use disval::{dis_val, DisValConfig};
pub use fault::{CrashKind, FaultPlan};
pub use gfd_match::ClassRegistry;
pub use metrics::ParallelReport;
pub use repval::{rep_val, RepValConfig};
pub use service::{
    IngestError, PinnedEpoch, ServiceConfig, ServiceStats, VioUpdate, ViolationService,
};
pub use threaded::{run_units_threaded_report, ThreadedReport, MAX_UNIT_ATTEMPTS};
pub use unitexec::{CacheStats, UnitExecutor, UnitScratch};
pub use wal::{FrameFault, RecoveryReport, SyncPolicy, WalError, WalWriter};
pub use workload::{
    estimate_workload, estimate_workload_in, UnitSlot, WorkUnit, Workload, WorkloadOptions,
};

/// Assignment strategy for distributing work units over processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// Greedy LPT — the 2-approximation of Prop. 12 (and the balance
    /// half of the bi-criteria strategy of Prop. 13).
    Balanced,
    /// Uniform random assignment — the `repran`/`disran` baseline of §7.
    Random {
        /// RNG seed, for reproducibility.
        seed: u64,
    },
}
