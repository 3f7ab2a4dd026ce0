//! Kill-and-recover soak: the standing-violation service runs over a
//! durable write-ahead log while a deterministic [`FaultPlan`] crashes
//! it at seed-chosen commits and damages the log file the way real
//! crashes do — un-fsynced tail lost wholesale, a frame torn
//! mid-payload or mid-header, a bit flipped by media rot. After every
//! crash the service recovers from the damaged file and must land on
//! an epoch whose graph **and violation set** are identical to an
//! independently maintained shadow — and then keep ingesting.
//!
//! The crash *decisions* are pure seed arithmetic
//! ([`FaultPlan::crashes`] keyed by a monotone commit tick, so
//! re-reaching an epoch after rollback cannot re-crash forever); the
//! *damage* is performed here, on the file, byte by byte. Recovery must
//! absorb all of it: zero panics on hostile bytes, every truncated
//! frame and replayed epoch visible in the [`RecoveryReport`].
//!
//! A second soak runs the short-write family ([`FaultPlan::short_write`]):
//! the disk fills mid-append, the service keeps committing without its
//! log, and recovering what the log holds lands on its last whole frame.
//!
//! Under `BENCH_SMOKE` the run shrinks to ~20 target epochs for CI.

mod common;

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use common::{random_batch, rules, social, vio_set};
use gfd_core::validate::detect_violations;
use gfd_graph::graph::same_snapshot;
use gfd_graph::Graph;
use gfd_parallel::wal::frame_bounds;
use gfd_parallel::{CrashKind, FaultPlan, ServiceConfig, SyncPolicy, ViolationService};
use gfd_util::prop::cases;
use gfd_util::{Rng, TempDir};

/// Damages the log at `path` the way `kind` says a crash would, with
/// positions drawn from the plan at `tick`. `synced_len` is the prefix
/// the last fsync made durable; `base_len` the end of the snapshot
/// frame (damage is aimed past the recovery floor — a destroyed floor
/// is the hard-error case, tested separately in the wal unit tests).
fn mangle(
    path: &Path,
    kind: CrashKind,
    plan: &FaultPlan,
    tick: u64,
    synced_len: u64,
    base_len: u64,
) {
    let bytes = std::fs::read(path).unwrap();
    let cut = plan.crash_cut_point(tick);
    match kind {
        CrashKind::KillBeforeFsync => {
            // The page cache dies with the process: only the fsynced
            // prefix survives.
            std::fs::write(path, &bytes[..synced_len as usize]).unwrap();
        }
        CrashKind::TornTail => {
            // The final frame made it partially to disk: header
            // readable, payload/checksum cut short.
            let last = *frame_bounds(path).unwrap().last().unwrap();
            let body = last.len - last.header_len - 1;
            let at = last.offset + last.header_len + (cut * body as f64) as u64;
            std::fs::write(path, &bytes[..at as usize]).unwrap();
        }
        CrashKind::ShortRead => {
            // Cut strictly inside the final frame's header — shorter
            // than any parseable record. A delta's header is 2 to 6
            // bytes (the kind byte and the `payload_len` varint), so
            // the cut keeps its kind byte and at most all but its last
            // byte.
            let last = *frame_bounds(path).unwrap().last().unwrap();
            let at = last.offset + 1 + (cut * (last.header_len - 1) as f64) as u64;
            std::fs::write(path, &bytes[..at as usize]).unwrap();
        }
        CrashKind::BitFlip => {
            // Media rot: one bit somewhere past the snapshot frame.
            let mut bytes = bytes;
            let span = bytes.len() as u64 - base_len;
            let at = (base_len + (cut * span as f64) as u64) as usize;
            bytes[at] ^= 1u8 << plan.crash_flip_bit(tick);
            std::fs::write(path, &bytes).unwrap();
        }
    }
}

#[test]
fn kill_and_recover_soak_lands_on_oracle_identical_epochs() {
    let target_epochs = cases(60, 20);

    // The plan only decides *crashes* here; the service itself runs
    // fault-free so every divergence the oracle catches is recovery's.
    let plan = FaultPlan {
        seed: 0xDEAD_BEEF,
        crash_p: 0.25,
        ..FaultPlan::default()
    };
    let cfg = ServiceConfig {
        threads: 2,
        oracle_sample_p: 0.0,
        seed: 11,
        faults: None,
    };

    let dir = TempDir::new("gfd-crash-soak").unwrap();
    let path = dir.file("edits.wal");

    let g0 = Arc::new(social(12));
    let sigma = rules(g0.vocab().clone());
    let mut svc = ViolationService::with_durable_log(
        sigma.clone(),
        Arc::clone(&g0),
        cfg.clone(),
        &path,
        SyncPolicy::EveryN(4),
    )
    .unwrap();

    // shadows[e] = the oracle's graph after epoch e; rolled back in
    // lockstep with every recovery.
    let mut shadows: Vec<Graph> = vec![g0.edit(|_| {})];
    let mut rng = Rng::seed_from_u64(2024);
    let mut tick = 0u64; // monotone across crashes — epochs are not
    let mut crashes = 0u64;
    let mut kinds_seen = HashSet::new();
    let mut total_replayed = 0u64;
    let mut total_truncated_frames = 0u64;

    while svc.stats().epochs < target_epochs {
        let len = 1 + rng.gen_range(0..5);
        let shadow = shadows.last().unwrap();
        let (next, batch) = random_batch(&mut rng, shadow, len);
        let epoch = svc.ingest(&batch).expect("batches are well-formed");
        shadows.push(next);
        assert_eq!(epoch + 1, shadows.len() as u64, "shadow/service desync");
        tick += 1;

        let Some(kind) = plan.crashes(tick) else {
            continue;
        };
        crashes += 1;
        kinds_seen.insert(kind);

        // Kill: remember what was durable, drop the service (the
        // writer deliberately does not fsync on drop), damage the file.
        let w = svc.durable_log().expect("service is durable");
        let (synced_len, synced_epoch, base_len) =
            (w.synced_bytes(), w.synced_epoch(), w.base_bytes());
        drop(svc);
        mangle(&path, kind, &plan, tick, synced_len, base_len);

        // Predict where recovery must land: the intact frames of the
        // damaged file, independently of the recovery code under test.
        let intact = frame_bounds(&path).unwrap();
        let expect_epoch = (intact.len() - 1) as u64;
        let intact_end = intact.last().map(|f| f.offset + f.len).unwrap();
        let damaged_len = std::fs::metadata(&path).unwrap().len();

        let (recovered, report) =
            ViolationService::recover(sigma.clone(), &path, cfg.clone(), SyncPolicy::EveryN(4))
                .unwrap();
        svc = recovered;

        assert_eq!(
            report.recovered_epoch, expect_epoch,
            "tick {tick} ({kind:?}): recovery landed on the wrong epoch"
        );
        assert_eq!(report.replayed_epochs, expect_epoch);
        if kind == CrashKind::KillBeforeFsync {
            // Losing the un-fsynced tail is clean truncation at a frame
            // boundary: nothing to report as corruption, and the floor
            // is exactly the last fsync.
            assert_eq!(report.recovered_epoch, synced_epoch);
            assert!(report.corruption.is_none(), "tick {tick}: phantom fault");
            assert_eq!(report.truncated_bytes, 0);
        } else {
            // Torn or flipped bytes: the fault and the cut are visible.
            assert!(
                report.corruption.is_some(),
                "tick {tick} ({kind:?}): absorbed fault not reported"
            );
            assert!(report.truncated_frames >= 1);
            assert_eq!(report.truncated_bytes, damaged_len - intact_end);
        }
        total_replayed += report.replayed_epochs;
        total_truncated_frames += report.truncated_frames;

        // The oracle: recovered graph and violation set must equal the
        // shadow at the recovered epoch — then the timeline rewinds.
        shadows.truncate(expect_epoch as usize + 1);
        let shadow = shadows.last().unwrap();
        if let Err(msg) = same_snapshot(svc.snapshot().graph.as_ref(), shadow) {
            panic!("tick {tick} ({kind:?}): recovered graph diverges from the shadow: {msg}");
        }
        assert_eq!(
            vio_set(svc.violations()),
            vio_set(detect_violations(&sigma, shadow)),
            "tick {tick} ({kind:?}): recovered violations diverge from scratch"
        );
        assert_eq!(svc.stats().epochs, expect_epoch);
    }

    assert!(crashes > 0, "seed never crashed the service; retune");
    assert!(
        kinds_seen.len() >= 3,
        "only {kinds_seen:?} crash kinds fired; retune the seed"
    );
    assert!(total_replayed > 0, "no crash ever had epochs to replay");
    assert!(
        total_truncated_frames > 0,
        "no crash ever cost a frame; the damage model is too gentle"
    );

    // Clean shutdown: force the tail down, recover once more, and the
    // whole run must come back byte-for-byte.
    svc.flush_log().unwrap();
    let head = svc.stats().epochs;
    drop(svc);
    let (svc, report) =
        ViolationService::recover(sigma.clone(), &path, cfg, SyncPolicy::EveryEpoch).unwrap();
    assert_eq!(report.recovered_epoch, head);
    assert!(report.corruption.is_none());
    let shadow = shadows.last().unwrap();
    same_snapshot(svc.snapshot().graph.as_ref(), shadow).unwrap();
    assert_eq!(
        vio_set(svc.violations()),
        vio_set(detect_violations(&sigma, shadow))
    );
}

/// The short-write family: an epoch's append writes a seed-chosen prefix
/// of its frame and fails, as on a full disk. The failure is counted in
/// `log_write_errors`, the service drops its log and keeps committing
/// and publishing every later epoch; recovering the file lands on the
/// last whole frame — the graph and violation set of the shadow there —
/// with the partial frame reported as truncated. The recovered service
/// meets the same fault at the same epoch again: the plan replays.
#[test]
fn a_short_write_keeps_serving_and_recovers_to_the_last_whole_frame() {
    let dir = TempDir::new("gfd-short-write").unwrap();
    let path = dir.file("edits.wal");
    let g0 = Arc::new(social(12));
    let sigma = rules(g0.vocab().clone());
    let policy = SyncPolicy::EveryN(4);
    let mut cuts = HashSet::new();

    for trial in 0..cases(8, 3) {
        let plan = FaultPlan {
            seed: 0x5_0F7 + trial,
            short_write_p: 0.15,
            ..FaultPlan::default()
        };
        let cfg = ServiceConfig {
            threads: 2,
            oracle_sample_p: 0.0,
            seed: 11,
            faults: Some(plan.clone()),
        };
        let failed = (1..).find(|&e| plan.short_write(e).is_some()).unwrap();
        let mut svc = ViolationService::with_durable_log(
            sigma.clone(),
            Arc::clone(&g0),
            cfg.clone(),
            &path,
            policy,
        )
        .unwrap();
        let updates = svc.subscribe();
        let mut shadows: Vec<Graph> = vec![g0.edit(|_| {})];
        let mut rng = Rng::seed_from_u64(trial);
        for epoch in 1..=failed + 3 {
            let len = 1 + rng.gen_range(0..5);
            let (next, batch) = random_batch(&mut rng, shadows.last().unwrap(), len);
            assert_eq!(svc.ingest(&batch).unwrap(), epoch, "trial {trial}");
            shadows.push(next);
            let update = updates.recv().unwrap();
            assert_eq!(
                update.epoch, epoch,
                "trial {trial}: epoch {epoch} unpublished"
            );
            let lost = epoch >= failed;
            assert_eq!(svc.stats().log_write_errors, lost as u64, "trial {trial}");
            assert_eq!(svc.durable_log().is_none(), lost, "trial {trial}");
        }
        assert_eq!(
            vio_set(svc.violations()),
            vio_set(detect_violations(&sigma, shadows.last().unwrap())),
            "trial {trial}: the service without its log diverged"
        );
        drop(svc);

        // The file holds every frame before the failed epoch whole, and
        // a strict prefix of the failed one.
        let intact = frame_bounds(&path).unwrap();
        assert_eq!(intact.len() as u64, failed, "trial {trial}");
        let intact_end = intact.last().map(|f| f.offset + f.len).unwrap();
        let damaged_len = std::fs::metadata(&path).unwrap().len();
        assert!(damaged_len > intact_end, "trial {trial}: nothing written");
        cuts.insert(damaged_len - intact_end);

        let (mut svc, report) =
            ViolationService::recover(sigma.clone(), &path, cfg.clone(), policy).unwrap();
        assert_eq!(report.recovered_epoch, failed - 1, "trial {trial}");
        assert_eq!(report.replayed_epochs, failed - 1, "trial {trial}");
        assert_eq!(report.truncated_frames, 1, "trial {trial}");
        assert_eq!(report.truncated_bytes, damaged_len - intact_end);
        let fault = report.corruption.expect("the partial frame is reported");
        assert!(fault.what.starts_with("torn"), "trial {trial}: {fault:?}");
        assert_eq!(fault.offset, intact_end, "trial {trial}");
        let shadow = &shadows[failed as usize - 1];
        if let Err(msg) = same_snapshot(svc.snapshot().graph.as_ref(), shadow) {
            panic!("trial {trial}: recovered graph diverges from the shadow: {msg}");
        }
        assert_eq!(
            vio_set(svc.violations()),
            vio_set(detect_violations(&sigma, shadow)),
            "trial {trial}: recovered violations diverge from scratch"
        );

        let (_, batch) = random_batch(&mut rng, shadow, 1);
        assert_eq!(svc.ingest(&batch).unwrap(), failed);
        assert_eq!(svc.stats().log_write_errors, 1, "trial {trial}: no replay");
    }
    assert!(cuts.len() > 1, "every trial cut at {cuts:?}; retune");
}
