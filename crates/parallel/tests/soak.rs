//! Fault-injection soak: a 10k-edit stream through the standing-
//! violation service with every failure family firing — transient and
//! sticky worker panics, stragglers, repair panics, silent detector
//! drift, and malformed batches — driven by one deterministic
//! [`FaultPlan`] seed, so a failure here replays exactly.
//!
//! The oracle is total: after the stream drains, the service's
//! violation set must be identical to a from-scratch
//! `detect_violations` over the independently maintained shadow graph,
//! the subscriber's folded diff stream must reproduce that same set
//! with strictly consecutive epochs (no torn epoch, ever), every held
//! pin must still equal the shadow graph at its own epoch, and every
//! injected fault family must be visible in the service stats —
//! absorbed and counted, never silently dropped.
//!
//! Under `BENCH_SMOKE` the stream shrinks to ~1.5k edits for CI.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{random_batch, rules, social, vio_set};
use gfd_core::validate::detect_violations;
use gfd_graph::graph::same_snapshot;
use gfd_graph::{AttrOp, NodeId, Value};
use gfd_parallel::fault::silence_injected_panics;
use gfd_parallel::{ClassRegistry, FaultPlan, ServiceConfig, ViolationService};
use gfd_util::prop::cases;
use gfd_util::Rng;

#[test]
fn soak_10k_edit_stream_survives_every_fault_family() {
    silence_injected_panics();
    let edit_budget = cases(10_000, 1_500) as usize;

    let plan = FaultPlan {
        seed: 0xF00D,
        unit_panic_p: 0.30,
        sticky_p: 0.30,
        straggle_p: 0.05,
        straggle: Duration::from_micros(200),
        repair_panic_p: 0.02,
        drift_p: 0.01,
        malformed_batch_p: 0.01,
        crash_p: 0.0,
    };
    let cfg = ServiceConfig {
        threads: 3,
        oracle_sample_p: 0.02,
        seed: 7,
        faults: Some(plan.clone()),
    };

    // More accounts than a rule has ranges, so the units a degraded
    // epoch faults, retries and quarantines hold several pivots each.
    let g0 = Arc::new(social(160));
    let sigma = rules(g0.vocab().clone());
    // The service runs over an explicitly budgeted serving tier so the
    // soak also exercises the registry's memory contract: bounded
    // bytes at every epoch, and deferred (pin-protected) evictions
    // that fully drain once no worker holds a class view.
    let budget: usize = 256 << 10;
    let registry = Arc::new(ClassRegistry::with_budget_bytes(budget));
    let mut svc =
        ViolationService::with_registry(sigma.clone(), Arc::clone(&g0), cfg, Arc::clone(&registry));
    let rx = svc.subscribe();
    let pin0 = svc.snapshot();
    let baseline = vio_set(svc.violations());

    let mut rng = Rng::seed_from_u64(99);
    let mut shadow = g0.edit(|_| {});
    let mut edits = 0usize;
    let mut rejected = 0u64;
    let mut mid_pin = None;
    while edits < edit_budget {
        let len = 1 + rng.gen_range(0..8);
        let (next, batch) = random_batch(&mut rng, &shadow, len);
        let next_epoch = svc.snapshot().epoch + 1;
        if plan.corrupts_batch(next_epoch) {
            // The driver-side malformed-batch injection: a copy of the
            // batch with a far out-of-range node id spliced into a
            // random delta. The service must reject it wholesale and
            // then accept the genuine batch at the same epoch.
            let mut bad = batch.clone();
            let idx = rng.gen_range(0..bad.len());
            bad[idx].attr_ops.push(AttrOp {
                node: NodeId(shadow.node_count() as u32 + 10_000),
                attr: gfd_graph::Sym(0),
                value: Some(Value::Int(1)),
            });
            assert!(
                svc.ingest(&bad).is_err(),
                "service accepted a corrupted batch at epoch {next_epoch}"
            );
            rejected += 1;
        }
        let epoch = svc
            .ingest(&batch)
            .expect("recorded batches are well-formed");
        assert_eq!(epoch, next_epoch, "rejection must not consume an epoch");
        shadow = next;
        edits += len;
        if mid_pin.is_none() && epoch >= 10 {
            mid_pin = Some((svc.snapshot(), shadow.edit(|_| {})));
        }
        // The memory contract holds at every epoch boundary: no worker
        // is mid-unit here, so nothing is pinned and the byte budget is
        // strict.
        assert!(
            registry.bytes() <= budget,
            "epoch {epoch}: registry at {} bytes exceeds its {budget}-byte budget",
            registry.bytes()
        );
    }

    // Satellite invariant: with every pin dropped, a sweep drains all
    // deferred evictions — nothing stays resident on a stale refcount.
    registry.sweep();
    assert_eq!(
        registry.deferred_pending(),
        0,
        "deferred evictions must drain to zero once pins drop"
    );
    assert!(registry.bytes() <= budget);

    // Oracle 1: the maintained set is identical to from-scratch
    // detection over the independently evolved shadow graph.
    let scratch = vio_set(detect_violations(&sigma, &shadow));
    assert_eq!(
        vio_set(svc.violations()),
        scratch,
        "service diverged from scratch detection after {edits} edits"
    );

    // Oracle 2: every held pin still equals the shadow graph at its
    // own epoch — later commits swapped snapshots, never mutated one.
    assert!(Arc::ptr_eq(&pin0.graph, &g0), "the epoch-0 pin was swapped");
    let (mid_pin, mid_shadow) = mid_pin.as_ref().expect("stream ran past epoch 10");
    if let Err(msg) = same_snapshot(&mid_pin.graph, mid_shadow) {
        let epoch = mid_pin.epoch;
        panic!("the pin at epoch {epoch} diverges from its epoch's shadow: {msg}");
    }

    // Every fault family fired and was absorbed — visible in stats,
    // with quarantined work recovered (oracle 1 already proves no
    // quarantined unit's violations were lost).
    let stats = svc.stats().clone();
    assert_eq!(stats.edits_ingested as usize, edits);
    assert_eq!(stats.batches_rejected, rejected);
    assert!(
        rejected > 0,
        "seed never corrupted a batch; retune the plan"
    );
    assert!(stats.repair_panics > 0, "seed never panicked a repair");
    assert!(
        stats.divergences_detected > 0,
        "seed never drifted the detector"
    );
    assert!(
        stats.degraded_epochs >= stats.repair_panics + stats.divergences_detected,
        "every caught fault must degrade its epoch"
    );
    assert!(stats.unit_panics > 0, "seed never panicked a worker");
    assert!(
        stats.units_quarantined > 0,
        "seed never produced a sticky worker fault"
    );

    // Oracle 3: the subscriber stream has no torn epochs and folds to
    // the same absolute set.
    drop(svc);
    let mut folded = baseline;
    let mut expected_epoch = 1;
    for update in rx.iter() {
        assert_eq!(update.epoch, expected_epoch, "torn or skipped epoch");
        expected_epoch += 1;
        for v in &update.retracted {
            assert!(
                folded.remove(&(v.rule, v.mapping.clone())),
                "epoch {}: retraction of an unheld violation",
                update.epoch
            );
        }
        for v in &update.added {
            assert!(
                folded.insert((v.rule, v.mapping.clone())),
                "epoch {}: re-add of a held violation",
                update.epoch
            );
        }
    }
    assert_eq!(expected_epoch - 1, stats.epochs, "missing updates");
    assert_eq!(folded, scratch, "folded stream diverges from scratch");
}
