//! The traced pass: the same generated inputs, but the harness
//! performs each operation *as its layer calls*, in the order
//! `service.rs` does, with every call wrapped in a span.
//!
//! * epoch: validate → compact → `apply_delta` → `apply_diff` →
//!   `WalWriter::append` → publish;
//! * recovery: `wal::recover_in` → `detect_violations` →
//!   `from_violations_in`;
//! * detection: `plan_rules` → `estimate_workload_in` →
//!   `run_units_threaded_report`.
//!
//! Spans come from this file only (spans inside the program are a
//! later change). The real service also runs the stream here, untraced,
//! so the unattributed share of an epoch and the tracing overhead can
//! be reported.

use std::collections::{BTreeSet, HashSet};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use gfd_core::{
    check_satisfiability, detect_violations, detect_violations_shared, implies, GfdSet,
    IncrementalDetector,
};
use gfd_graph::{Fragmentation, GraphData, GraphDelta, PartitionStrategy};
use gfd_match::{count_matches, dual_simulation, ClassRegistry, IncrementalSpace, MatchOptions};
use gfd_parallel::wal::{self, WalWriter};
use gfd_parallel::workload::plan_rules;
use gfd_parallel::{
    dis_val, estimate_workload_in, rep_val, run_units_threaded_report, DisValConfig, RepValConfig,
    SyncPolicy, VioUpdate, ViolationService, WorkloadOptions,
};
use gfd_pattern::signature::decompose;
use gfd_pattern::{canonical_form, tree_decomposition};

use crate::lifecycle::{
    crash_truncate, fresh_registry, run_stream, service_config, sorted, verify_stream, wal_path,
    SIM_WORKERS, THREADS,
};
use crate::report::{Metrics, Ops};
use crate::stats::{percentile, ratio};
use crate::trace::{self_times_ns, Tracer};
use crate::workloads::{fingerprint, generate, shadow_at, Inputs, Spec};

/// Rules the reasoning probes (`check_satisfiability`, `implies`) see.
const REASONING_RULES: usize = 16;
/// Bytes of the first unsynced frame left behind by the crash.
const TORN_TAIL_BYTES: u64 = 9;

fn delta_ops(d: &GraphDelta) -> usize {
    d.added_nodes.len()
        + d.added_edges.len()
        + d.removed_edges.len()
        + d.label_changes.len()
        + d.attr_ops.len()
}

fn p50(tr: &Tracer, name: &str) -> f64 {
    percentile(&tr.durations_us(name), 50.0)
}

fn p95(tr: &Tracer, name: &str) -> f64 {
    percentile(&tr.durations_us(name), 95.0)
}

fn total_s(tr: &Tracer, name: &str) -> f64 {
    tr.durations_us(name).iter().sum::<f64>() * 1e-6
}

/// Storage layer, one-shot: snapshot codec and freeze.
fn graph_layer(tr: &mut Tracer, inputs: &Inputs, m: &mut Metrics) {
    let g = &inputs.graph;
    tr.next_op();
    let (data, from_s) = tr.time("graph.snapshot_from_graph", || GraphData::from_graph(g));
    let mut bytes = Vec::new();
    let ((), encode_s) = tr.time("graph.snapshot_encode", || data.encode_into(&mut bytes));
    let (decoded, decode_s) = tr.time("graph.snapshot_decode", || GraphData::decode(&bytes));
    let decoded = decoded.expect("a fresh snapshot encoding decodes");
    let (rebuilt, into_s) = tr.time("graph.snapshot_into_graph", || {
        decoded.into_graph_in(g.vocab())
    });
    let rebuilt = rebuilt.expect("a fresh snapshot rebuilds");
    assert_eq!(rebuilt.edge_count(), g.edge_count());
    let builder = g.thaw();
    let (_, freeze_s) = tr.time("graph.freeze", || builder.freeze());
    m.push("graph.snapshot_encode_s", from_s + encode_s, "s");
    m.push("graph.snapshot_decode_s", decode_s + into_s, "s");
    m.push("graph.snapshot_bytes", bytes.len() as f64, "B");
    m.push("graph.freeze_s", freeze_s, "s");
}

/// Pattern and matcher layers, one-shot, over Σ's components.
fn pattern_and_matcher_layers(tr: &mut Tracer, inputs: &Inputs, m: &mut Metrics) {
    let (g, sigma) = (&inputs.graph, &inputs.sigma);
    let components: Vec<_> = sigma
        .iter()
        .flat_map(|gfd| decompose(&gfd.pattern))
        .map(|(q, _)| q)
        .collect();
    tr.next_op();
    let mut classes = HashSet::new();
    let (_, canon_s) = tr.time("pattern.canonical_form", || {
        for q in &components {
            classes.insert(canonical_form(q).code().to_vec());
        }
    });
    let (_, decomp_s) = tr.time("pattern.tree_decomposition", || {
        for q in &components {
            std::hint::black_box(tree_decomposition(q));
        }
    });
    let per_rule = 1e6 / sigma.len().max(1) as f64;
    m.push("pattern.canon_us_per_rule", canon_s * per_rule, "us");
    m.push("pattern.decomp_us_per_rule", decomp_s * per_rule, "us");
    m.push("pattern.classes", classes.len() as f64, "count");

    tr.next_op();
    let mut candidates = 0usize;
    let (_, sim_s) = tr.time("matcher.dual_simulation", || {
        for q in &components {
            candidates += dual_simulation(q, g, None).total_size();
        }
    });
    let mut matches = 0usize;
    let (_, enumerate_s) = tr.time("matcher.count_matches", || {
        for q in &components {
            matches += count_matches(q, g, &MatchOptions::unrestricted());
        }
    });
    m.push("matcher.sim_s", sim_s, "s");
    m.push("matcher.sim_candidates", candidates as f64, "count");
    m.push("matcher.enumerate_s", enumerate_s, "s");
    m.push("matcher.matches", matches as f64, "count");
}

/// Reasoning probes over the first [`REASONING_RULES`] rules.
fn reasoning_layer(tr: &mut Tracer, sigma: &GfdSet, m: &mut Metrics) {
    let head: Vec<_> = sigma.iter().take(REASONING_RULES).cloned().collect();
    let small = GfdSet::new(head.clone());
    tr.next_op();
    let (_, sat_s) = tr.time("core.check_satisfiability", || {
        std::hint::black_box(check_satisfiability(&small));
    });
    let (_, imp_s) = tr.time("core.implies", || {
        for (i, phi) in head.iter().enumerate() {
            let mut rest = small.clone();
            rest.remove(i);
            std::hint::black_box(implies(&rest, phi));
        }
    });
    m.push("core.sat_us", sat_s * 1e6, "us");
    m.push("core.implication_us", imp_s * 1e6, "us");
}

/// One-shot detection: detVio, the threaded path stage by stage, and
/// the two simulated clusters with their real wall time beside them.
fn detection_layers(tr: &mut Tracer, spec: &Spec, inputs: &Inputs, ops: &mut Ops, m: &mut Metrics) {
    let (g, sigma) = (&inputs.graph, &inputs.sigma);
    tr.next_op();
    let registry = fresh_registry(spec);
    let (det, detvio_s) = tr.time("core.detect_violations_shared", || {
        detect_violations_shared(sigma, g, &registry)
    });
    let det = sorted(det);
    m.push("core.detvio_s", detvio_s, "s");

    tr.next_op();
    let registry = fresh_registry(spec);
    let op = tr.begin("threaded.detect");
    let (plans, plan_s) = tr.time("workload.plan_rules", || plan_rules(sigma));
    let (wl, estimate_s) = tr.time("workload.estimate_workload_in", || {
        estimate_workload_in(sigma, g, &WorkloadOptions::default(), &registry)
    });
    let (report, execute_s) = tr.time("threaded.run_units_threaded_report", || {
        run_units_threaded_report(
            g, sigma, &plans, &wl.units, &wl.slots, &registry, THREADS, None, 0,
        )
    });
    let wall_s = tr.end(op);
    m.push("threaded.wall_s", wall_s, "s");
    m.push("workload.plan_rules_s", plan_s, "s");
    m.push("workload.estimate_s", estimate_s, "s");
    m.push("workload.units", wl.units.len() as f64, "count");
    m.push("workload.pruned", wl.pruned as f64, "count");
    m.push("workload.total_cost", wl.total_cost() as f64, "count");
    m.push("workload.simulations", wl.simulations as f64, "count");
    m.push("threaded.execute_s", execute_s, "s");
    m.push(
        "threaded.units_per_s",
        ratio(wl.units.len() as f64, execute_s),
        "1/s",
    );
    m.push("threaded.unit_panics", report.unit_panics as f64, "count");
    m.push(
        "threaded.quarantined",
        report.quarantined.len() as f64,
        "count",
    );
    let probes = (report.cache.hits + report.cache.misses) as f64;
    m.push(
        "threaded.cache_hit_ratio",
        ratio(report.cache.hits as f64, probes),
        "ratio",
    );
    ops.check(
        sorted(report.violations) == det,
        "traced: threaded != detVio",
    );

    let stats = registry.stats();
    m.push("matcher.registry_hits", stats.hits as f64, "count");
    m.push("matcher.registry_misses", stats.misses as f64, "count");
    m.push(
        "matcher.registry_hit_ratio",
        ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
        "ratio",
    );
    m.push(
        "matcher.registry_evicted_cold",
        stats.evicted_cold as f64,
        "count",
    );
    m.push(
        "matcher.registry_evictions_deferred",
        stats.eviction_deferred_pinned as f64,
        "count",
    );
    m.push("matcher.registry_bytes", registry.bytes() as f64, "B");
    m.push(
        "matcher.simulations",
        registry.simulations() as f64,
        "count",
    );
    // Each workload must stress what it says it does.
    if spec.registry_budget.is_some() {
        ops.check(stats.evicted_cold > 0, "budgeted registry never evicted");
    } else {
        ops.check(stats.evicted_cold == 0, "default-budget registry evicted");
    }

    tr.next_op();
    let (rep, wall_s) = tr.time("repval.rep_val", || {
        rep_val(sigma, g, &RepValConfig::val(SIM_WORKERS))
    });
    m.push("repval.sim_s", rep.total_seconds(), "s");
    m.push("repval.wall_s", wall_s, "s");
    m.push("repval.reduce_s", rep.reduce_seconds, "s");
    m.push("repval.estimation_s", rep.estimation_seconds, "s");
    m.push("repval.partition_s", rep.partition_seconds, "s");
    m.push("repval.compute_s", rep.compute_seconds, "s");
    m.push("repval.comm_s", rep.comm_seconds, "s");
    m.push("repval.imbalance", rep.imbalance(), "ratio");
    m.push("repval.units", rep.units as f64, "count");
    let probes = (rep.cache_hits + rep.cache_misses) as f64;
    m.push(
        "repval.cache_hit_ratio",
        ratio(rep.cache_hits as f64, probes),
        "ratio",
    );
    ops.check(sorted(rep.violations) == det, "traced: repVal != detVio");

    tr.next_op();
    let (frag, fragment_s) = tr.time("disval.fragment", || {
        Fragmentation::partition(g, SIM_WORKERS, PartitionStrategy::BfsClustered)
    });
    let (dis, wall_s) = tr.time("disval.dis_val", || {
        dis_val(sigma, g, &frag, &DisValConfig::val(SIM_WORKERS))
    });
    m.push("disval.sim_s", dis.total_seconds(), "s");
    m.push("disval.wall_s", wall_s, "s");
    m.push("disval.fragment_s", fragment_s, "s");
    m.push("disval.estimation_s", dis.estimation_seconds, "s");
    m.push("disval.partition_s", dis.partition_seconds, "s");
    m.push("disval.compute_s", dis.compute_seconds, "s");
    m.push("disval.comm_s", dis.comm_seconds, "s");
    m.push("disval.bytes_shipped", dis.bytes_shipped as f64, "B");
    m.push("disval.messages", dis.messages as f64, "count");
    m.push("disval.imbalance", dis.imbalance(), "ratio");
    ops.check(sorted(dis.violations) == det, "traced: disVal != detVio");
}

/// The harness-owned service loop plus crash and recovery, every
/// layer call in a span. Returns the sum of the epoch (and sync)
/// spans, the traced counterpart of the untraced stream wall.
fn stream_layers(
    tr: &mut Tracer,
    spec: &Spec,
    inputs: &Inputs,
    out_dir: &Path,
    served_by_service: &[gfd_core::Violation],
    ops: &mut Ops,
    m: &mut Metrics,
) -> f64 {
    let (g, sigma) = (&inputs.graph, &inputs.sigma);
    let path = wal_path(out_dir, spec, "traced");

    tr.next_op();
    let registry = Arc::new(ClassRegistry::new());
    let (mut detector, detector_s) = tr.time("core.detector_new", || {
        IncrementalDetector::with_registry(sigma, g, Arc::clone(&registry))
    });
    let vio_initial = detector.violation_count();
    let (writer, create_s) = tr.time("wal.create", || WalWriter::create(&path, 0, g, spec.policy));
    let mut writer = writer.expect("create the traced write-ahead log");
    m.push("core.detector_new_s", detector_s, "s");
    m.push("wal.create_s", create_s, "s");

    // Benchmark-owned candidate spaces, one per distinct rule pattern:
    // the service repairs spaces inside `apply_diff`; these probes put
    // a number on that layer alone.
    let mut seen = BTreeSet::new();
    let mut spaces: Vec<IncrementalSpace> = sigma
        .iter()
        .filter(|gfd| seen.insert(gfd.pattern.display()))
        .map(|gfd| IncrementalSpace::new(&gfd.pattern, g, None))
        .collect();

    let (tx, rx) = mpsc::channel::<VioUpdate>();
    let mut current = Arc::clone(g);
    let (mut ops_before, mut ops_after, mut encoded_bytes) = (0usize, 0usize, 0usize);
    let (mut repairs_changed, mut churn) = (0usize, 0usize);
    let mut encode_buf = Vec::new();
    for (i, batch) in inputs.batches.iter().enumerate() {
        let epoch = i as u64 + 1;
        tr.next_op();
        let op = tr.begin("service.epoch");
        let (ids_ok, _) = tr.time("graph.check_ids", || {
            batch
                .iter()
                .all(|d| d.check_ids(current.node_count()).is_ok())
        });
        let (compacted, _) = tr.time("graph.delta_merge", || {
            batch
                .iter()
                .fold(None, |acc: Option<GraphDelta>, d| {
                    Some(match acc {
                        None => d.clone().normalize(),
                        Some(prev) => prev.merge(d.clone()),
                    })
                })
                .unwrap_or_else(|| GraphDelta::new(current.node_count()))
        });
        let (fits, _) = tr.time("graph.check_against", || {
            compacted.check_against(&current).is_ok()
        });
        let (next, _) = tr.time("graph.apply_delta", || {
            Arc::new(current.apply_delta(&compacted))
        });
        let (diff, _) = tr.time("core.apply_diff", || detector.apply_diff(&next, &compacted));
        let (appended, _) = tr.time("wal.append", || {
            writer.append(epoch, &compacted, next.vocab())
        });
        let (published, _) = tr.time("service.publish", || {
            churn += diff.added.len() + diff.retracted.len();
            let update = VioUpdate {
                epoch,
                added: sorted(diff.added),
                retracted: sorted(diff.retracted),
                degraded: false,
            };
            tx.send(update).is_ok() && rx.try_recv().is_ok()
        });
        tr.end(op);
        ops.check(
            ids_ok && fits && appended.is_ok() && published,
            "traced epoch: a layer call failed",
        );
        if spec.flush_every.is_some_and(|k| (i + 1) % k == 0) {
            let (synced, _) = tr.time("wal.sync", || writer.sync());
            ops.check(synced.is_ok(), "traced: wal sync failed");
        }

        // Layer probes the service does not run per epoch.
        tr.time("matcher.space_repair", || {
            for space in &mut spaces {
                if !space.apply_normalized(&next, &compacted).is_unchanged() {
                    repairs_changed += 1;
                }
            }
        });
        tr.time("graph.delta_encode", || {
            encode_buf.clear();
            compacted.encode_with_symbols(&[], &mut encode_buf);
        });
        encoded_bytes += encode_buf.len();
        ops_before += batch.iter().map(delta_ops).sum::<usize>();
        ops_after += delta_ops(&compacted);
        current = next;
    }
    let traced_wall_s = total_s(tr, "service.epoch") + total_s(tr, "wal.sync");
    let edits = inputs.edits() as f64;
    let vio_final = sorted(detector.violations());
    ops.check(
        vio_final == served_by_service,
        "traced: harness Vio != service Vio at the head",
    );

    m.push(
        "graph.apply_delta_us_p50",
        p50(tr, "graph.apply_delta"),
        "us",
    );
    m.push(
        "graph.apply_delta_us_p95",
        p95(tr, "graph.apply_delta"),
        "us",
    );
    m.push(
        "graph.delta_merge_us_p50",
        p50(tr, "graph.delta_merge"),
        "us",
    );
    m.push(
        "graph.check_against_us_p50",
        p50(tr, "graph.check_against"),
        "us",
    );
    m.push(
        "graph.delta_encode_us_p50",
        p50(tr, "graph.delta_encode"),
        "us",
    );
    m.push(
        "graph.delta_bytes_per_edit",
        encoded_bytes as f64 / edits,
        "B",
    );
    let compaction = ratio(ops_after as f64, ops_before as f64);
    m.push("service.compaction_ratio", compaction, "ratio");
    m.push(
        "matcher.space_repair_us_p50",
        p50(tr, "matcher.space_repair"),
        "us",
    );
    m.push(
        "matcher.space_repair_changed",
        repairs_changed as f64,
        "count",
    );
    m.push("core.apply_diff_us_p50", p50(tr, "core.apply_diff"), "us");
    m.push("core.apply_diff_us_p95", p95(tr, "core.apply_diff"), "us");
    m.push("core.vio_initial", vio_initial as f64, "count");
    m.push("core.vio_final", vio_final.len() as f64, "count");
    m.push("core.vio_churn", churn as f64, "count");
    m.push("wal.append_us_p50", p50(tr, "wal.append"), "us");
    m.push("wal.append_us_p95", p95(tr, "wal.append"), "us");
    m.push("wal.fsyncs", writer.fsyncs() as f64, "count");
    m.push("wal.frames", writer.frames() as f64, "count");
    m.push("wal.bytes_total", writer.bytes() as f64, "B");

    if spec.hot_keys.is_some() {
        ops.check(
            compaction < 0.8,
            "hot-pool batches did not compact below 0.8",
        );
    }
    if spec.policy == SyncPolicy::EveryEpoch {
        ops.check(
            writer.fsyncs() == inputs.batches.len() as u64 + 1,
            "EveryEpoch: fsyncs != epochs + 1",
        );
    }
    if spec.attr_share >= 1.0 {
        ops.check(
            repairs_changed == 0,
            "attribute-only stream changed a candidate space",
        );
    }

    // Crash: keep the synced prefix and a torn header, then recover
    // layer by layer.
    let (synced_bytes, synced_epoch, head) =
        (writer.synced_bytes(), writer.synced_epoch(), writer.head());
    drop(writer);
    crash_truncate(&path, synced_bytes, TORN_TAIL_BYTES);
    tr.next_op();
    let op = tr.begin("recover");
    let vocab = sigma
        .iter()
        .next()
        .map(|gfd| gfd.pattern.vocab().clone())
        .expect("Σ is not empty");
    let (replayed, replay_s) = tr.time("wal.recover_in", || {
        wal::recover_in(&path, spec.policy, &vocab)
    });
    match replayed {
        Ok((graph, _writer, report)) => {
            let (violations, redetect_s) = tr.time("recover.redetect", || {
                sorted(detect_violations(sigma, &graph))
            });
            let (_, reseed_s) = tr.time("recover.reseed", || {
                IncrementalDetector::from_violations_in(
                    sigma,
                    &violations,
                    Arc::new(ClassRegistry::new()),
                )
            });
            m.push("recover.wall_s", tr.end(op), "s");
            ops.check(
                report.recovered_epoch == synced_epoch,
                "traced: recovered epoch != synced epoch",
            );
            let shadow = shadow_at(inputs, synced_epoch as usize);
            ops.check(
                violations == sorted(detect_violations(sigma, &shadow)),
                "traced: recovered Vio != detect_violations(shadow at the synced epoch)",
            );
            m.push("wal.replay_s", replay_s, "s");
            m.push(
                "wal.replay_us_per_epoch",
                ratio(replay_s * 1e6, report.replayed_epochs as f64),
                "us",
            );
            m.push(
                "wal.recovered_epochs",
                report.replayed_epochs as f64,
                "count",
            );
            m.push(
                "wal.truncated_frames",
                report.truncated_frames as f64,
                "count",
            );
            m.push(
                "wal.unsynced_epochs_lost",
                (head - report.recovered_epoch) as f64,
                "count",
            );
            m.push("recover.redetect_s", redetect_s, "s");
            m.push("recover.reseed_s", reseed_s, "s");
            if spec.policy != SyncPolicy::EveryEpoch {
                ops.check(
                    head > report.recovered_epoch,
                    "the crash lost no unsynced epoch",
                );
            }
        }
        Err(e) => {
            tr.end(op);
            ops.check(false, &format!("traced: wal recovery failed: {e}"));
        }
    }
    let _ = std::fs::remove_file(&path);
    traced_wall_s
}

/// The whole traced pass; returns every per-layer metric and writes
/// `<out_dir>/<workload>.trace.jsonl`.
pub fn run(spec: &Spec, seed: u64, smoke: bool, out_dir: &Path, ops: &mut Ops) -> Metrics {
    let mut m = Metrics::default();
    let mut tr = Tracer::new();

    tr.next_op();
    let (inputs, _) = tr.time("datagen.generate", || generate(spec, seed, smoke));
    m.push("datagen.graph_s", inputs.phases.graph_s, "s");
    m.push("datagen.rules_s", inputs.phases.rules_s, "s");
    m.push("datagen.noise_s", inputs.phases.noise_s, "s");
    m.push("datagen.stream_s", inputs.phases.stream_s, "s");
    // 52 bits: exactly representable as a JSON number.
    m.push(
        "datagen.fingerprint",
        (fingerprint(&inputs) & ((1 << 52) - 1)) as f64,
        "hash",
    );

    graph_layer(&mut tr, &inputs, &mut m);
    pattern_and_matcher_layers(&mut tr, &inputs, &mut m);
    reasoning_layer(&mut tr, &inputs.sigma, &mut m);
    detection_layers(&mut tr, spec, &inputs, ops, &mut m);

    // The real service over the same stream, untraced: the reference
    // for the unattributed share and the tracing overhead.
    let path = wal_path(out_dir, spec, "svc");
    let (sigma, g) = (inputs.sigma.clone(), Arc::clone(&inputs.graph));
    let start = Instant::now();
    let svc =
        ViolationService::with_durable_log(sigma, g, service_config(seed), &path, spec.policy)
            .unwrap_or_else(|e| panic!("cannot create the durable log at {}: {e}", path.display()));
    m.push("service.start_s", start.elapsed().as_secs_f64(), "s");
    let reference = run_stream(svc, spec, &inputs, ops);
    let _ = std::fs::remove_file(&path);
    verify_stream(spec, &reference, &inputs, ops);

    let start = Instant::now();
    let traced_wall_s = stream_layers(
        &mut tr,
        spec,
        &inputs,
        out_dir,
        &reference.served,
        ops,
        &mut m,
    );
    eprintln!(
        "traced stream + recovery took {:.2} s",
        start.elapsed().as_secs_f64()
    );

    // Per-epoch stage sum = the epoch span minus its self time.
    let own = self_times_ns(tr.spans());
    let stage_sums: Vec<f64> = tr
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "service.epoch")
        .map(|(s, own)| (s.dur_ns() - own) as f64 * 1e-3)
        .collect();
    let stage_sum_p50 = percentile(&stage_sums, 50.0);
    let ingest_p50 = percentile(&reference.latencies_us, 50.0);
    m.push("service.ingest_us_p50", ingest_p50, "us");
    m.push(
        "service.ingest_us_p95",
        percentile(&reference.latencies_us, 95.0),
        "us",
    );
    m.push(
        "service.edits_per_s",
        reference.stats.edits_ingested as f64 / reference.wall_s,
        "1/s",
    );
    m.push("service.stage_sum_us_p50", stage_sum_p50, "us");
    m.push(
        "service.ingest_self_us_p50",
        ingest_p50 - stage_sum_p50,
        "us",
    );
    m.push(
        "service.degraded_epochs",
        reference.stats.degraded_epochs as f64,
        "count",
    );
    m.push(
        "service.batches_rejected",
        reference.stats.batches_rejected as f64,
        "count",
    );
    m.push(
        "service.oracle_checks",
        reference.stats.oracle_checks as f64,
        "count",
    );
    m.push(
        "service.retained_epochs",
        reference.stats.retained_epochs as f64,
        "count",
    );
    m.push(
        "trace.overhead_frac",
        (traced_wall_s - reference.wall_s) / reference.wall_s,
        "ratio",
    );
    m.push("trace.spans", tr.spans().len() as f64, "count");

    let trace_path = out_dir.join(format!("{}.trace.jsonl", spec.name));
    tr.write_jsonl(&trace_path, spec.name)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_path.display()));
    m
}
