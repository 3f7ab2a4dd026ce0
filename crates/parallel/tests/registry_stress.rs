//! Concurrent serving-tier stress: one shared [`ClassRegistry`]
//! serving two [`ViolationService`] tenants (racing each other on
//! every `advance`) plus the panic-isolated threaded executor (N
//! workers racing on every class-space request), over an edit stream
//! replayed from a fixed seed, so a failure here reproduces exactly.
//!
//! Oracles:
//! - Every epoch, both tenants and the threaded executor agree, and
//!   after the stream drains the shared set is identical to a
//!   from-scratch `detect_violations` over the independently
//!   maintained shadow graph.
//! - The `simulations()` probe never exceeds the class count at any
//!   epoch boundary: each isomorphism class runs its worklist fixpoint
//!   exactly once for the whole run — read by co-members through
//!   their permutations, repaired (never re-simulated) across epochs,
//!   and never duplicated by a racing tenant (the version-cursor
//!   `advance` makes the first arrival apply the repair; the
//!   laggard's call at an epoch already passed is a no-op).

mod common;

use std::sync::Arc;
use std::thread;

use common::{random_batch, social, vio_set};
use gfd_core::validate::detect_violations;
use gfd_core::{Dependency, Gfd, GfdSet, Literal};
use gfd_graph::Vocab;
use gfd_parallel::workload::plan_rules;
use gfd_parallel::{
    estimate_workload_in, run_units_threaded_report, ClassRegistry, ServiceConfig,
    ViolationService, WorkloadOptions,
};
use gfd_pattern::PatternBuilder;
use gfd_util::Rng;

/// Three rules in two isomorphism classes, chosen so the registry's
/// sharing machinery is all load-bearing: the two-component symmetric
/// rule's halves and the spam rule's pattern are isomorphic (one
/// class, three members, two of them a symmetric pair sharing one
/// candidate list), the liker rule is the second class.
fn rules(vocab: Arc<Vocab>) -> GfdSet {
    let keyword = vocab.intern("keyword");
    let is_fake = vocab.intern("is_fake");

    let mut b = PatternBuilder::new(vocab.clone());
    let x = b.node("x", "account");
    let y = b.node("y", "blog");
    b.edge(x, y, "post");
    let spam = Gfd::new(
        "spam-poster-is-fake",
        b.build(),
        Dependency::new(
            vec![Literal::const_eq(y, keyword, "spam")],
            vec![Literal::const_eq(x, is_fake, true)],
        ),
    );

    let mut b = PatternBuilder::new(vocab.clone());
    let x = b.node("x", "account");
    let y = b.node("y", "blog");
    b.edge(x, y, "like");
    let liker = Gfd::new(
        "spam-liker-is-real",
        b.build(),
        Dependency::new(
            vec![Literal::const_eq(y, keyword, "spam")],
            vec![Literal::const_eq(x, is_fake, false)],
        ),
    );

    let mut b = PatternBuilder::new(vocab);
    let x = b.node("x", "account");
    let y = b.node("y", "blog");
    b.edge(x, y, "post");
    let x2 = b.node("x2", "account");
    let y2 = b.node("y2", "blog");
    b.edge(x2, y2, "post");
    let twins = Gfd::new(
        "same-keyword-same-standing",
        b.build(),
        Dependency::new(
            vec![Literal::var_eq(y, keyword, y2, keyword)],
            vec![Literal::var_eq(x, is_fake, x2, is_fake)],
        ),
    );
    GfdSet::new(vec![spam, liker, twins])
}

#[test]
fn shared_registry_serves_racing_tenants_and_executor() {
    let epochs: usize = if std::env::var_os("BENCH_SMOKE").is_some() {
        12
    } else {
        40
    };
    let g0 = Arc::new(social(12));
    let sigma = rules(g0.vocab().clone());
    let plans = plan_rules(&sigma);
    let registry = Arc::new(ClassRegistry::new());
    let cfg = |seed| ServiceConfig {
        threads: 2,
        oracle_sample_p: 0.0,
        seed,
        faults: None,
    };
    let mut svc_a = ViolationService::with_registry(
        sigma.clone(),
        Arc::clone(&g0),
        cfg(1),
        Arc::clone(&registry),
    );
    let mut svc_b = ViolationService::with_registry(
        sigma.clone(),
        Arc::clone(&g0),
        cfg(2),
        Arc::clone(&registry),
    );
    // Two classes, both connected parts: the shared account→blog
    // "post" star (spam rule + both halves of the symmetric rule) and
    // the "like" star.
    assert_eq!(registry.class_count(), 2);
    assert_eq!(
        registry.simulations(),
        registry.class_count(),
        "seeding both tenants must simulate each class exactly once \
         (the second tenant reads the first's spaces, it recomputes nothing)"
    );

    let mut rng = Rng::seed_from_u64(0x5EED);
    let mut shadow = g0.edit(|_| {});
    let mut exec_hits = 0u64;
    for _ in 0..epochs {
        let len = 1 + rng.gen_range(0..6);
        let (next, batch) = random_batch(&mut rng, &shadow, len);
        shadow = next;

        // Both tenants race the same epoch: whichever thread reaches
        // `advance` first applies the per-class repair; the laggard's
        // call at the epoch already passed is a no-op.
        let (ea, eb) = {
            let (ra, rb) = (&mut svc_a, &mut svc_b);
            let (batch_a, batch_b) = (&batch, &batch);
            thread::scope(|s| {
                let ha = s.spawn(move || ra.ingest(batch_a).expect("recorded batches are valid"));
                let hb = s.spawn(move || rb.ingest(batch_b).expect("recorded batches are valid"));
                (ha.join().unwrap(), hb.join().unwrap())
            })
        };
        assert_eq!(ea, eb, "tenants ingest the same stream in lockstep");
        assert_eq!(
            vio_set(svc_a.violations()),
            vio_set(svc_b.violations()),
            "racing tenants diverged at epoch {ea}"
        );

        // The threaded executor probes the same registry at the same
        // version: N workers over overlapping classes, sharing their
        // spaces cross-worker.
        let head = svc_a.snapshot().graph;
        let wl = estimate_workload_in(&sigma, &head, &WorkloadOptions::default(), &registry);
        let report = run_units_threaded_report(
            &head, &sigma, &plans, &wl.units, &wl.slots, &registry, 3, None, ea,
        );
        assert!(report.quarantined.is_empty(), "no faults were injected");
        exec_hits += report.cache.hits;
        assert_eq!(
            vio_set(report.violations),
            vio_set(svc_a.violations()),
            "threaded executor diverged from the tenants at epoch {ea}"
        );

        // The probe: repairs are incremental and shared — no
        // class ever runs its simulation fixpoint a second time, no
        // matter how many tenants or workers raced this epoch (the
        // executor's per-epoch registrations all land in existing
        // classes, so the count never grows either).
        assert_eq!(
            registry.simulations(),
            registry.class_count(),
            "a class was re-simulated at epoch {ea}"
        );
        assert_eq!(registry.class_count(), 2);
    }

    assert!(
        exec_hits > 0,
        "the workers must be served resident class spaces"
    );

    // Final oracle: the shared set is exactly from-scratch detection
    // over the independently maintained shadow.
    let scratch = vio_set(detect_violations(&sigma, &shadow));
    assert_eq!(
        vio_set(svc_a.violations()),
        scratch,
        "tenant A diverged from scratch detection after {epochs} epochs"
    );
    assert_eq!(
        vio_set(svc_b.violations()),
        scratch,
        "tenant B diverged from scratch detection after {epochs} epochs"
    );
}
