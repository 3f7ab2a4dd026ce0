//! The untraced pass: the system's whole lifecycle through its public
//! API, timed end to end.
//!
//! set-up → one-shot detection (4 algorithms) → durable service start
//! → edit stream → crash → recovery → cross-path verification.
//! Closed loop, one client, 2 threads wherever a thread count is
//! asked for. Verification runs outside every timed window.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gfd_core::{detect_violations, detect_violations_shared, GfdSet, Violation};
use gfd_graph::{Fragmentation, Graph, PartitionStrategy};
use gfd_match::{ClassRegistry, Match};
use gfd_parallel::unitexec::sort_violations;
use gfd_parallel::workload::plan_rules;
use gfd_parallel::{
    dis_val, estimate_workload_in, rep_val, run_units_threaded_report, DisValConfig, RepValConfig,
    ServiceConfig, ServiceStats, ThreadedReport, VioUpdate, ViolationService, WorkloadOptions,
};

use gfd_util::alloc::allocated_bytes;

use crate::report::{peak_rss_mib, Metrics, Ops};
use crate::stats::percentile;
use crate::workloads::{generate, shadow_at, Inputs, Spec};

pub const THREADS: usize = 2;
/// Virtual processors of the simulated `repVal`/`disVal` clusters.
pub const SIM_WORKERS: usize = 8;

/// Most repetitions of one quick op in one block.
const MAX_QUICK_REPS: usize = 20;

/// Samples `once` at least once, then while `budget_s` lasts, at most
/// [`MAX_QUICK_REPS`] times.
fn repeat(budget_s: f64, mut once: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = vec![once()];
    while samples.len() < MAX_QUICK_REPS && start.elapsed().as_secs_f64() < budget_s {
        samples.push(once());
    }
    samples
}

pub fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        threads: THREADS,
        oracle_sample_p: 0.02,
        seed,
        faults: None,
    }
}

pub fn fresh_registry(spec: &Spec) -> ClassRegistry {
    match spec.registry_budget {
        Some(bytes) => ClassRegistry::with_budget_bytes(bytes),
        None => ClassRegistry::new(),
    }
}

pub fn sorted(mut v: Vec<Violation>) -> Vec<Violation> {
    sort_violations(&mut v);
    v
}

/// The real-thread path: plan, estimate, execute on [`THREADS`] OS
/// threads over one registry.
fn threaded_detect(sigma: &GfdSet, g: &Arc<Graph>, registry: &ClassRegistry) -> ThreadedReport {
    let plans = plan_rules(sigma);
    let wl = estimate_workload_in(sigma, g, &WorkloadOptions::default(), registry);
    run_units_threaded_report(
        g, sigma, &plans, &wl.units, &wl.slots, registry, THREADS, None, 0,
    )
}

/// A log path unique to this process. The pid is padded so the path's
/// length — and with it the allocator bytes of everything that copies
/// the path — does not change from run to run.
pub fn wal_path(out_dir: &Path, spec: &Spec, tag: &str) -> PathBuf {
    out_dir.join(format!(
        "{}.{:010}.{tag}.wal",
        spec.name,
        std::process::id()
    ))
}

/// What one pass of the edit stream through a durable service left
/// behind: per-epoch latencies, the subscriber's updates, and the
/// durable log's state at the moment of the crash.
pub struct StreamRun {
    pub latencies_us: Vec<f64>,
    /// One entry per subscriber-demand `flush_log()`.
    pub flushes_us: Vec<f64>,
    /// Bytes requested from the allocator inside the `ingest` calls.
    pub ingest_alloc_bytes: u64,
    pub wall_s: f64,
    pub baseline: Vec<Violation>,
    pub updates: Vec<VioUpdate>,
    pub served: Vec<Violation>,
    pub stats: ServiceStats,
    /// Log bytes past the snapshot frame.
    pub wal_bytes: u64,
    pub synced_bytes: u64,
    pub synced_epoch: u64,
}

/// Drives the whole stream through `svc` (one `ingest` per epoch, the
/// update awaited on the subscriber channel), then "crashes" it: the
/// service is dropped without a final sync.
pub fn run_stream(
    mut svc: ViolationService,
    spec: &Spec,
    inputs: &Inputs,
    ops: &mut Ops,
) -> StreamRun {
    let rx = svc.subscribe();
    let baseline = svc.violations();
    let mut latencies_us = Vec::with_capacity(inputs.batches.len());
    let mut updates = Vec::with_capacity(inputs.batches.len());
    let mut flushes_us = Vec::new();
    let mut ingest_alloc_bytes = 0;
    let start = Instant::now();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let (t, before) = (Instant::now(), allocated_bytes());
        let committed = svc.ingest(batch);
        let update = rx.try_recv();
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        ingest_alloc_bytes += allocated_bytes() - before;
        let epoch = i as u64 + 1;
        match (committed, update) {
            (Ok(e), Ok(u)) if e == epoch && u.epoch == epoch => {
                ops.check(true, "ingest");
                updates.push(u);
            }
            (committed, _) => ops.check(
                false,
                &format!("{}: ingest of epoch {epoch} gave {committed:?}", spec.name),
            ),
        }
        if spec.flush_every.is_some_and(|k| (i + 1) % k == 0) {
            let t = Instant::now();
            let flushed = svc.flush_log();
            flushes_us.push(t.elapsed().as_secs_f64() * 1e6);
            ops.check(flushed.is_ok(), "flush_log");
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let wal = svc
        .durable_log()
        .expect("the service keeps its durable log");
    StreamRun {
        latencies_us,
        flushes_us,
        ingest_alloc_bytes,
        wall_s,
        baseline,
        updates,
        served: svc.violations(),
        stats: svc.stats().clone(),
        wal_bytes: wal.bytes() - wal.base_bytes(),
        synced_bytes: wal.synced_bytes(),
        synced_epoch: wal.synced_epoch(),
    }
}

/// Discards what the crash would: everything past the fsynced prefix
/// (plus `torn` bytes of the first unsynced frame, a torn tail).
pub fn crash_truncate(path: &Path, synced_bytes: u64, torn: u64) {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("the log file exists");
    let len = file.metadata().expect("log metadata").len();
    file.set_len((synced_bytes + torn).min(len))
        .expect("truncate the log");
    file.sync_all().expect("sync the truncated log");
}

fn vio_set(vs: &[Violation]) -> HashSet<(usize, Match)> {
    vs.iter().map(|v| (v.rule, v.mapping.clone())).collect()
}

/// Folding the subscriber's updates over the baseline must reproduce
/// the service's absolute set and from-scratch detection on the
/// shadow head.
pub fn verify_stream(spec: &Spec, run: &StreamRun, inputs: &Inputs, ops: &mut Ops) {
    let mut folded = vio_set(&run.baseline);
    let mut churn = 0;
    for u in &run.updates {
        churn += u.added.len() + u.retracted.len();
        for v in &u.retracted {
            folded.remove(&(v.rule, v.mapping.clone()));
        }
        for v in &u.added {
            folded.insert((v.rule, v.mapping.clone()));
        }
    }
    ops.check(
        folded == vio_set(&run.served),
        "folded update stream != service.violations()",
    );
    let head = shadow_at(inputs, inputs.batches.len());
    ops.check(
        sorted(detect_violations(&inputs.sigma, &head)) == run.served,
        "service.violations() != detect_violations(shadow head)",
    );
    ops.check(run.stats.degraded_epochs == 0, "service degraded an epoch");
    ops.check(run.stats.batches_rejected == 0, "service rejected a batch");
    ops.check(
        run.baseline.len() >= spec.min_vio_initial,
        "workload starts with too few violations",
    );
    ops.check(churn > 0, "workload ends with vio_churn == 0");
}

/// Set-up, `detVio` and the durable service start take milliseconds,
/// so one spell of host interference can cover every repetition of
/// them. They are sampled in short blocks spread over the whole run
/// instead, between the long phases.
struct QuickOps<'a> {
    spec: &'a Spec,
    seed: u64,
    smoke: bool,
    inputs: &'a Inputs,
    /// Log of the services started only to time the start.
    scratch_log: PathBuf,
    /// Time one block gives each of the three ops.
    budget_s: f64,
    setup: Vec<f64>,
    detvio: Vec<f64>,
    service_start: Vec<f64>,
}

impl QuickOps<'_> {
    /// Starts a durable service on `log`; the start time is a sample.
    fn start_service(&mut self, log: &Path) -> ViolationService {
        let (sigma, g) = (self.inputs.sigma.clone(), Arc::clone(&self.inputs.graph));
        let cfg = service_config(self.seed);
        let t = Instant::now();
        let svc = ViolationService::with_durable_log(sigma, g, cfg, log, self.spec.policy);
        self.service_start.push(t.elapsed().as_secs_f64());
        svc.unwrap_or_else(|e| panic!("cannot create the log at {}: {e}", log.display()))
    }

    fn block(&mut self) {
        let (spec, seed, smoke) = (self.spec, self.seed, self.smoke);
        self.setup.extend(repeat(self.budget_s, || {
            let t = Instant::now();
            let inputs = generate(spec, seed, smoke);
            let elapsed = t.elapsed().as_secs_f64();
            drop(inputs);
            elapsed
        }));
        let (sigma, g) = (&self.inputs.sigma, &self.inputs.graph);
        self.detvio.extend(repeat(self.budget_s, || {
            let registry = fresh_registry(spec);
            let t = Instant::now();
            std::hint::black_box(detect_violations_shared(sigma, g, &registry));
            t.elapsed().as_secs_f64()
        }));
        // `start_service` records its own samples.
        let (log, started) = (self.scratch_log.clone(), Instant::now());
        for _ in 0..MAX_QUICK_REPS {
            drop(self.start_service(&log));
            if started.elapsed().as_secs_f64() >= self.budget_s {
                break;
            }
        }
    }
}

/// The quiet-machine value of a repeated measurement: its minimum.
/// The sandbox's host slows memory-bound code by 1.4–1.7× for seconds
/// at a time, so a median reads whichever state the phase happened to
/// meet; the floor repeats.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn fold_best(best: &mut Vec<f64>, pass: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
    }
    for (b, &x) in best.iter_mut().zip(pass) {
        *b = b.min(x);
    }
}

/// Samples of the second-scale phases, one per round.
#[derive(Default)]
struct Samples {
    threaded: Vec<f64>,
    repval_sim: Vec<f64>,
    disval_sim: Vec<f64>,
    recover: Vec<f64>,
    /// Per-epoch and per-flush latencies, each at its best over the
    /// stream passes (the work of epoch *i* is the same in every pass).
    latencies_us: Vec<f64>,
    flushes_us: Vec<f64>,
    /// Log bytes past the snapshot frame (the same in every pass).
    wal_bytes: u64,
    /// Allocator bytes of one service start, of the ingest calls of
    /// one pass, and of one recovery (functions of the seed, not of the
    /// clock).
    ingest_alloc_bytes: u64,
    start_alloc_bytes: u64,
    recover_alloc_bytes: u64,
}

/// The three parallel algorithms, once each, checked against `detVio`.
fn parallel_detection(
    spec: &Spec,
    inputs: &Inputs,
    frag: &Fragmentation,
    det: &[Violation],
    samples: &mut Samples,
    ops: &mut Ops,
) {
    let (sigma, g) = (&inputs.sigma, &inputs.graph);
    let t = Instant::now();
    let registry = fresh_registry(spec);
    let threaded = threaded_detect(sigma, g, &registry);
    samples.threaded.push(t.elapsed().as_secs_f64());
    ops.check(
        threaded.quarantined.is_empty(),
        "threaded executor quarantined units",
    );
    ops.check(sorted(threaded.violations) == det, "threaded != detVio");

    let rep = rep_val(sigma, g, &RepValConfig::val(SIM_WORKERS));
    samples.repval_sim.push(rep.total_seconds());
    ops.check(sorted(rep.violations) == det, "repVal != detVio");

    let dis = dis_val(sigma, g, frag, &DisValConfig::val(SIM_WORKERS));
    samples.disval_sim.push(dis.total_seconds());
    ops.check(sorted(dis.violations) == det, "disVal != detVio");
}

/// The whole untraced pass. Returns the end-to-end metrics — set-up
/// time plus the costs that repeat for a seed: allocator bytes, log
/// bytes, peak memory — and, separately, the timings of the run.
///
/// The lifecycle runs in rounds — quick ops, the three parallel
/// algorithms, quick ops, one pass of the edit stream through a fresh
/// durable service, crash, recovery — for as many rounds as fit in
/// `seconds` (at least one, at most five), so every metric's samples
/// are spread over the whole run.
pub fn run(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    seconds: f64,
    out_dir: &Path,
    ops: &mut Ops,
) -> (Metrics, Metrics) {
    let started = Instant::now();
    let inputs = generate(spec, seed, smoke);
    let first_setup = started.elapsed().as_secs_f64();
    let (sigma, g) = (&inputs.sigma, &inputs.graph);
    let before = allocated_bytes();
    let det = detect_violations_shared(sigma, g, &fresh_registry(spec));
    let detvio_alloc_bytes = allocated_bytes() - before;
    let det = sorted(det);
    let frag = Fragmentation::partition(g, SIM_WORKERS, PartitionStrategy::BfsClustered);
    let log = wal_path(out_dir, spec, "e2e");
    let mut quick = QuickOps {
        spec,
        seed,
        smoke,
        inputs: &inputs,
        scratch_log: wal_path(out_dir, spec, "start"),
        budget_s: seconds * 0.008,
        setup: vec![first_setup],
        detvio: Vec::new(),
        service_start: Vec::new(),
    };
    let mut samples = Samples::default();

    let mut rounds = 0u32;
    loop {
        quick.block();
        parallel_detection(spec, &inputs, &frag, &det, &mut samples, ops);
        quick.block();

        let before = allocated_bytes();
        let svc = quick.start_service(&log);
        let start_alloc_bytes = allocated_bytes() - before;
        let run = run_stream(svc, spec, &inputs, ops);
        fold_best(&mut samples.latencies_us, &run.latencies_us);
        fold_best(&mut samples.flushes_us, &run.flushes_us);
        samples.wal_bytes = run.wal_bytes;
        samples.ingest_alloc_bytes = run.ingest_alloc_bytes;
        samples.start_alloc_bytes = start_alloc_bytes;

        crash_truncate(&log, run.synced_bytes, 0);
        let (s, cfg) = (sigma.clone(), service_config(seed));
        let (t, before) = (Instant::now(), allocated_bytes());
        let recovered = ViolationService::recover(s, &log, cfg, spec.policy);
        samples.recover.push(t.elapsed().as_secs_f64());
        samples.recover_alloc_bytes = allocated_bytes() - before;

        // Verification, outside every timed window.
        verify_stream(spec, &run, &inputs, ops);
        match recovered {
            Ok((svc, report)) => {
                ops.check(
                    report.recovered_epoch == run.synced_epoch,
                    "recovered epoch != synced epoch",
                );
                let shadow = shadow_at(&inputs, run.synced_epoch as usize);
                ops.check(
                    svc.violations() == sorted(detect_violations(sigma, &shadow)),
                    "recovered Vio != detect_violations(shadow at the synced epoch)",
                );
            }
            Err(e) => ops.check(false, &format!("recovery failed: {e}")),
        }

        rounds += 1;
        let spent = started.elapsed().as_secs_f64();
        if rounds == 5 || spent + spent / f64::from(rounds) > seconds {
            break;
        }
    }
    // One round is one sample of the parallel algorithms: take a
    // second, a whole stream pass away from the first.
    if rounds == 1 {
        parallel_detection(spec, &inputs, &frag, &det, &mut samples, ops);
    }
    quick.block();
    let _ = std::fs::remove_file(&quick.scratch_log);
    let _ = std::fs::remove_file(&log);

    ops.attempted += (quick.detvio.len()
        + quick.service_start.len()
        + samples.threaded.len()
        + samples.repval_sim.len()
        + samples.disval_sim.len()
        + samples.recover.len()) as u64;
    let edits = inputs.edits() as f64;
    let stream_us =
        samples.latencies_us.iter().sum::<f64>() + samples.flushes_us.iter().sum::<f64>();
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let mut m = Metrics::default();
    m.push("setup_s", best(&quick.setup), "s");
    m.push("detvio_alloc_mib", mib(detvio_alloc_bytes), "MiB");
    m.push(
        "service_start_alloc_mib",
        mib(samples.start_alloc_bytes),
        "MiB",
    );
    m.push(
        "ingest_alloc_kib_per_edit",
        samples.ingest_alloc_bytes as f64 / 1024.0 / edits,
        "KiB",
    );
    m.push("recover_alloc_mib", mib(samples.recover_alloc_bytes), "MiB");
    m.push("wal_bytes_per_edit", samples.wal_bytes as f64 / edits, "B");
    m.push("peak_rss_mb", peak_rss_mib(), "MiB");

    let mut t = Metrics::default();
    t.push("detvio_s", best(&quick.detvio), "s");
    t.push("threaded_s", best(&samples.threaded), "s");
    t.push("repval_sim_s", best(&samples.repval_sim), "s");
    t.push("disval_sim_s", best(&samples.disval_sim), "s");
    t.push("service_start_s", best(&quick.service_start), "s");
    t.push(
        "ingest_p50_us",
        percentile(&samples.latencies_us, 50.0),
        "us",
    );
    t.push(
        "ingest_p95_us",
        percentile(&samples.latencies_us, 95.0),
        "us",
    );
    t.push("ingest_edits_per_s", edits / (stream_us * 1e-6), "1/s");
    t.push("recover_s", best(&samples.recover), "s");
    eprintln!(
        "{rounds} rounds in {:.1} s; samples: setup {} detvio {} service_start {} \
         threaded/repval/disval {} stream passes {rounds} x {} epochs, recover {}",
        started.elapsed().as_secs_f64(),
        quick.setup.len(),
        quick.detvio.len(),
        quick.service_start.len(),
        samples.threaded.len(),
        samples.latencies_us.len(),
        samples.recover.len()
    );
    (m, t)
}
