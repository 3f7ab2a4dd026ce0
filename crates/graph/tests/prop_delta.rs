//! Property tests for delta batch compaction and ingest validation —
//! the [`GraphDelta::merge`] / [`GraphDelta::check_against`] layer the
//! standing-violation service's ingest and write-ahead log are built on.
//!
//! The central oracle: a random 50-step edit script, recorded as one
//! delta per step, applied two ways — step by step (the raw sequence)
//! versus folded into a single compacted delta with `compact` (and,
//! pairwise, `merge`) and applied once. Both must produce identical
//! snapshots, even when the script is deliberately biased toward
//! opposing operations (add then remove the same edge, set then unset
//! the same attribute) so the cancellation rules are exercised, not
//! just the happy path.

use std::collections::BTreeMap;

use gfd_graph::{
    AttrOp, DeltaError, Edge, Graph, GraphBuilder, GraphDelta, LabelChange, NodeId, Sym, Value,
};
use gfd_util::{prop::check, prop_assert, Rng};

/// The snapshot's page size (the private `PAGE_NODES` of `graph.rs`,
/// pinned there by `page_size_matches_the_boundary_oracles`).
const PAGE: usize = 64;

/// A random base graph over a fixed label/attr vocabulary: small, or
/// one case in three wider than three pages, so the toggled slots of
/// [`random_step`] straddle a page boundary.
fn base_graph(rng: &mut Rng) -> Graph {
    let n = match rng.gen_range(0..3) {
        0 => 3 * PAGE + rng.gen_range(0..PAGE),
        _ => rng.gen_range(3..10),
    };
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % 3)))
        .collect();
    for _ in 0..rng.gen_range(0..2 * n) {
        let s = ids[rng.gen_range(0..n)];
        let d = ids[rng.gen_range(0..n)];
        b.add_edge_labeled(s, d, &format!("e{}", rng.gen_range(0..2)));
    }
    b.freeze()
}

/// One random edit step on the current snapshot, biased toward
/// *toggling* a small pool of edge/attr slots so consecutive steps
/// frequently oppose each other (the compaction-relevant shape).
fn random_step(rng: &mut Rng, g: &Graph) -> (Graph, GraphDelta) {
    let n = g.node_count();
    // A deliberately tiny coordinate pool: repeated steps hit the same
    // (src, dst, label) and (node, attr) slots, producing add/remove
    // and set/unset chains for merge to cancel. On a wide graph the
    // pool is the two slots either side of the first page boundary.
    let lo = if n > PAGE + 2 { PAGE - 2 } else { 0 };
    let s = NodeId((lo + rng.gen_range(0..n.min(4))) as u32);
    let d = NodeId((lo + rng.gen_range(0..n.min(4))) as u32);
    let kind = rng.gen_range(0..7);
    g.edit_with_delta(|b| match kind {
        0 => {
            b.add_edge_labeled(s, d, "e0");
        }
        1 => {
            b.remove_edge_labeled(s, d, "e0");
        }
        2 => {
            let a = b.vocab().intern("val");
            b.set_attr(s, a, Value::Int(rng.gen_range(0..3) as i64));
        }
        3 => {
            let a = b.vocab().intern("val");
            b.remove_attr(s, a);
        }
        4 => {
            let l = b.vocab().intern(&format!("l{}", rng.gen_range(0..3)));
            b.set_label(s, l);
        }
        5 => {
            let v = b.add_node_labeled("l1");
            b.add_edge_labeled(v, d, "e1");
        }
        _ => {
            // Toggle within one session: add + remove (or the reverse)
            // of the same edge, so even *single* deltas carry opposing
            // pairs for normalize to cancel before merge sees them.
            if b.add_edge_labeled(s, d, "e1") {
                b.remove_edge_labeled(s, d, "e1");
            } else {
                b.remove_edge_labeled(s, d, "e1");
                b.add_edge_labeled(s, d, "e1");
            }
        }
    })
}

/// Structural equality over every observable (labels, attrs, CSR runs).
fn graphs_equal(a: &Graph, b: &Graph) -> Result<(), String> {
    if a.node_count() != b.node_count() {
        return Err(format!(
            "node counts {} vs {}",
            a.node_count(),
            b.node_count()
        ));
    }
    if a.edge_count() != b.edge_count() {
        return Err(format!(
            "edge counts {} vs {}",
            a.edge_count(),
            b.edge_count()
        ));
    }
    for u in a.nodes() {
        if a.label(u) != b.label(u) {
            return Err(format!("label of {u:?}"));
        }
        if a.attrs(u) != b.attrs(u) {
            return Err(format!("attrs of {u:?}"));
        }
        if a.out_slice(u) != b.out_slice(u) {
            return Err(format!("out run of {u:?}"));
        }
        if a.in_slice(u) != b.in_slice(u) {
            return Err(format!("in run of {u:?}"));
        }
    }
    Ok(())
}

fn cases(full: u64) -> u64 {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        (full / 5).max(2)
    } else {
        full
    }
}

#[test]
fn compacted_batch_equals_raw_sequence() {
    check(
        "merge-compacted batch ≡ raw step sequence",
        cases(60),
        |rng| {
            let base = base_graph(rng);
            // Snapshots are Arc-shared, not Clone; a no-op edit forks
            // an identical successor to walk the raw sequence on.
            let mut raw = base.edit(|_| {});
            let mut steps = Vec::new();
            for _ in 0..50 {
                let (next, delta) = random_step(rng, &raw);
                raw = next;
                steps.push(delta);
            }
            let compacted = GraphDelta::compact(&steps).expect("50 steps recorded");
            // The single-pass fold is the pairwise fold.
            let folded = steps.iter().cloned().reduce(|a, b| a.merge(b));
            prop_assert!(
                folded.as_ref() == Some(&compacted),
                "compact {compacted:?} vs merge fold {folded:?}"
            );
            // The compacted delta must validate against the base and
            // reproduce the raw sequence's final snapshot in ONE patch.
            if let Err(e) = compacted.check_against(&base) {
                return Err(format!("compacted delta rejected: {e}"));
            }
            let folded = base.apply_delta(&compacted);
            graphs_equal(&folded, &raw)
        },
    );
}

/// `normalize` against a keyed oracle on raw histories, recorded or
/// not: per edge key the net count of adds minus removes (one add if
/// positive, one remove if negative), per base node its first old and
/// last new label (dropped if equal), per `(node, attr)` the last
/// write — every list in its key's order.
#[test]
fn normalize_equals_the_keyed_oracle() {
    check("normalize ≡ keyed net effect", cases(200), |rng| {
        let node = |rng: &mut Rng| NodeId(rng.gen_range(0..4) as u32);
        let sym = |rng: &mut Rng| Sym(rng.gen_range(0..3) as u32);
        let mut raw = GraphDelta::new(4);
        for _ in 0..rng.gen_range(0..24) {
            let e = Edge {
                src: node(rng),
                dst: node(rng),
                label: sym(rng),
            };
            match rng.gen_bool(0.5) {
                true => raw.added_edges.push(e),
                false => raw.removed_edges.push(e),
            }
        }
        for _ in 0..rng.gen_range(0..8) {
            let (node, old, new) = (node(rng), sym(rng), sym(rng));
            raw.label_changes.push(LabelChange { node, old, new });
        }
        for _ in 0..rng.gen_range(0..24) {
            let (node, attr) = (node(rng), sym(rng));
            let value = rng
                .gen_bool(0.8)
                .then(|| Value::Int(rng.gen_range(0..3) as i64));
            raw.attr_ops.push(AttrOp { node, attr, value });
        }

        let key = |e: &Edge| (e.src, e.label, e.dst);
        let mut net: BTreeMap<_, (i32, Edge)> = BTreeMap::new();
        for (edges, sign) in [(&raw.added_edges, 1), (&raw.removed_edges, -1)] {
            for e in edges {
                net.entry(key(e)).or_insert((0, *e)).0 += sign;
            }
        }
        let netted = |keep: fn(i32) -> bool| -> Vec<Edge> {
            let kept = net.values().filter(|(count, _)| keep(*count));
            kept.map(|&(_, e)| e).collect()
        };
        let mut labels: BTreeMap<NodeId, LabelChange> = BTreeMap::new();
        for c in &raw.label_changes {
            labels.entry(c.node).or_insert_with(|| c.clone()).new = c.new;
        }
        let mut writes: BTreeMap<(NodeId, Sym), AttrOp> = BTreeMap::new();
        for op in &raw.attr_ops {
            writes.insert((op.node, op.attr), op.clone());
        }

        let got = raw.clone().normalize();
        let want_added = netted(|count| count > 0);
        let want_removed = netted(|count| count < 0);
        prop_assert!(
            got.added_edges == want_added && got.removed_edges == want_removed,
            "edges {:?} / {:?}, oracle {want_added:?} / {want_removed:?}; raw {raw:?}",
            got.added_edges,
            got.removed_edges
        );
        let want_labels: Vec<_> = labels.into_values().filter(|c| c.old != c.new).collect();
        prop_assert!(
            got.label_changes == want_labels,
            "labels {:?}, oracle {want_labels:?}",
            got.label_changes
        );
        let want_writes: Vec<_> = writes.into_values().collect();
        prop_assert!(
            got.attr_ops == want_writes,
            "writes {:?}, oracle {want_writes:?}",
            got.attr_ops
        );
        Ok(())
    });
}

#[test]
fn merge_is_associative_over_splits() {
    // Folding a batch left-to-right must not depend on where the batch
    // is split: merge(merge(a, b), c) ≡ merge(a, merge(b, c)).
    check("merge associativity", cases(40), |rng| {
        let base = base_graph(rng);
        let mut g = base.edit(|_| {});
        let mut deltas = Vec::new();
        for _ in 0..12 {
            let (next, d) = random_step(rng, &g);
            g = next;
            deltas.push(d);
        }
        let split = rng.gen_range(1..deltas.len());
        let fold = |ds: &[GraphDelta]| {
            ds.iter()
                .cloned()
                .reduce(|a, b| a.merge(b))
                .expect("non-empty")
        };
        let left = fold(&deltas[..split]).merge(fold(&deltas[split..]));
        let all = fold(&deltas);
        if left != all {
            return Err(format!("split at {split} diverges: {left:?} vs {all:?}"));
        }
        graphs_equal(&base.apply_delta(&all), &g)
    });
}

#[test]
fn check_against_rejects_malformed_deltas() {
    check("check_against catches corruption", cases(60), |rng| {
        let base = base_graph(rng);
        let limit = base.node_count() as u32;
        let sym_e0 = base.vocab().lookup("e0");
        // The one check reads a snapshot and a replay builder alike:
        // both must reach the same verdict on every delta below.
        let thawed = base.thaw();
        let verdict = |d: &GraphDelta| -> Result<Result<(), DeltaError>, String> {
            let (on_graph, on_builder) = (d.check_against(&base), d.check_against(&thawed));
            prop_assert!(
                on_graph == on_builder,
                "snapshot says {on_graph:?}, builder says {on_builder:?} on {d:?}"
            );
            Ok(on_graph)
        };

        // A recorded (well-formed) delta always passes.
        let (_, good) = random_step(rng, &base);
        if let Err(e) = verdict(&good)? {
            return Err(format!("recorded delta rejected: {e}"));
        }

        // Out-of-range edge endpoint (the malformed-batch injection
        // shape): must be rejected, never applied.
        let mut bad = GraphDelta::new(base.node_count());
        bad.added_edges.push(Edge {
            src: NodeId(limit + rng.gen_range(1..1000) as u32),
            dst: NodeId(0),
            label: sym_e0.unwrap_or(gfd_graph::Sym(0)),
        });
        prop_assert!(
            matches!(verdict(&bad)?, Err(DeltaError::NodeOutOfRange { .. })),
            "out-of-range add accepted"
        );

        // Wrong base snapshot.
        let stale = GraphDelta::new(base.node_count() + 1);
        prop_assert!(
            matches!(verdict(&stale)?, Err(DeltaError::BaseMismatch { .. })),
            "base mismatch accepted"
        );

        // Removing an absent edge: pick a (src, dst, label) triple not
        // in the snapshot.
        let absent = sym_e0.and_then(|l| {
            let mut pairs = (0..limit).flat_map(|s| (0..limit).map(move |d| (s, d)));
            pairs
                .find(|&(s, d)| !base.has_edge(NodeId(s), NodeId(d), l))
                .map(|(s, d)| Edge {
                    src: NodeId(s),
                    dst: NodeId(d),
                    label: l,
                })
        });
        if let Some(e) = absent {
            let mut rem = GraphDelta::new(base.node_count());
            rem.removed_edges.push(e);
            prop_assert!(
                matches!(verdict(&rem)?, Err(DeltaError::EdgeAbsent { .. })),
                "absent-edge removal accepted"
            );

            // One absent edge added twice: each add alone is fine, the
            // second cannot take effect.
            let mut twice = GraphDelta::new(base.node_count());
            twice.added_edges.extend([e, e]);
            prop_assert!(
                verdict(&twice)? == Err(DeltaError::RepeatedEdge { edge: e }),
                "an edge added twice accepted"
            );
        }

        // One present edge removed twice, among other removals.
        let present: Vec<Edge> = base.edges().collect();
        if !present.is_empty() {
            let e = present[rng.gen_range(0..present.len())];
            let mut twice = GraphDelta::new(base.node_count());
            twice.removed_edges.extend(present.iter().copied());
            twice.removed_edges.push(e);
            prop_assert!(
                verdict(&twice)? == Err(DeltaError::RepeatedEdge { edge: e }),
                "an edge removed twice accepted"
            );
        }

        // Out-of-range attribute write.
        let mut attr = GraphDelta::new(base.node_count());
        attr.attr_ops.push(gfd_graph::AttrOp {
            node: NodeId(limit + 7),
            attr: gfd_graph::Sym(0),
            value: Some(Value::Int(1)),
        });
        prop_assert!(
            matches!(verdict(&attr)?, Err(DeltaError::NodeOutOfRange { .. })),
            "out-of-range attr accepted"
        );
        Ok(())
    });
}
