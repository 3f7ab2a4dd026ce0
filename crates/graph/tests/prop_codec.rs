//! Property tests for the binary delta/snapshot codec — the plain-bytes
//! layer the durable write-ahead log (`gfd_parallel::wal`) frames on
//! disk.
//!
//! Two obligations, tested from both sides:
//!
//! * **round trip** — `encode → decode` is the identity over deltas
//!   recorded from random edit scripts (including merge-compacted
//!   batches) and over `GraphData` snapshots of random graphs; the
//!   log's direct paths (`encode_snapshot` from a graph,
//!   `DecodedSnapshot` into a builder) write the same bytes and rebuild
//!   the same graph;
//! * **hostility** — decoding arbitrary mutations of valid byte
//!   streams (bit flips, truncations, splices of random garbage)
//!   never panics: it returns a `DeltaError`, or an `Ok` delta that
//!   still satisfies the `check_ids` structural invariants, and both
//!   snapshot decoders reach the same verdict.

use gfd_graph::{
    encode_snapshot, graph::same_snapshot, DecodedSnapshot, DeltaError, Graph, GraphBuilder,
    GraphData, GraphDelta, NodeId, Value, Vocab,
};
use gfd_util::{prop::check, prop_assert, Rng};

/// A small random base graph over a fixed label/attr vocabulary.
fn base_graph(rng: &mut Rng) -> Graph {
    let n = rng.gen_range(3..10);
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % 3)))
        .collect();
    for _ in 0..rng.gen_range(0..2 * n) {
        let s = ids[rng.gen_range(0..n)];
        let d = ids[rng.gen_range(0..n)];
        b.add_edge_labeled(s, d, &format!("e{}", rng.gen_range(0..2)));
    }
    for _ in 0..rng.gen_range(0..n) {
        let u = ids[rng.gen_range(0..n)];
        let v = match rng.gen_range(0..3) {
            0 => Value::Int(rng.gen_range(0..100) as i64 - 50),
            1 => Value::Bool(rng.gen_range(0..2) == 0),
            _ => Value::str(&format!("s{}", rng.gen_range(0..5))),
        };
        b.set_attr_named(u, "val", v);
    }
    b.freeze()
}

/// One random edit step on the current snapshot (same coordinate-pool
/// shape as `prop_delta.rs`, so recorded deltas carry every field).
fn random_step(rng: &mut Rng, g: &Graph) -> (Graph, GraphDelta) {
    let n = g.node_count();
    let s = NodeId(rng.gen_range(0..n.min(4)) as u32);
    let d = NodeId(rng.gen_range(0..n.min(4)) as u32);
    let kind = rng.gen_range(0..6);
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
        _ => {
            let v = b.add_node_labeled("l1");
            b.add_edge_labeled(v, d, "e1");
        }
    })
}

fn cases(full: u64) -> u64 {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        (full / 5).max(2)
    } else {
        full
    }
}

#[test]
fn delta_codec_round_trip_over_edit_scripts() {
    check("delta encode → decode ≡ identity", cases(80), |rng| {
        let base = base_graph(rng);
        let mut g = base.edit(|_| {});
        let mut compacted: Option<GraphDelta> = None;
        for _ in 0..rng.gen_range(1..20) {
            let (next, delta) = random_step(rng, &g);
            g = next;

            // Per-step deltas round-trip…
            let sym_limit = g.vocab().len() as u32;
            let mut bytes = Vec::new();
            delta.encode_into(&mut bytes);
            match GraphDelta::decode(&bytes, sym_limit) {
                Ok(back) if back == delta => {}
                Ok(back) => return Err(format!("step decode diverged: {back:?} vs {delta:?}")),
                Err(e) => return Err(format!("step decode failed: {e}")),
            }

            compacted = Some(match compacted.take() {
                None => delta,
                Some(prev) => prev.merge(delta),
            });
        }

        // …and so does the merge-compacted batch (the shape the WAL
        // actually persists: one compacted delta per epoch).
        let compacted = compacted.expect("at least one step");
        let sym_limit = g.vocab().len() as u32;
        let mut bytes = Vec::new();
        compacted.encode_into(&mut bytes);
        let back = GraphDelta::decode(&bytes, sym_limit)
            .map_err(|e| format!("compacted decode failed: {e}"))?;
        prop_assert!(back == compacted, "compacted decode diverged");

        // The decoded delta is ingest-grade: it validates against the
        // base exactly when the original does.
        prop_assert!(
            back.check_against(&base).is_ok() == compacted.check_against(&base).is_ok(),
            "decoded delta validates differently"
        );
        Ok(())
    });
}

#[test]
fn snapshot_codec_round_trip() {
    check(
        "GraphData encode → decode ≡ identity",
        cases(60),
        |rng| {
            let mut g = base_graph(rng);
            // A few edits so the snapshot isn't always freeze-fresh.
            for _ in 0..rng.gen_range(0..5) {
                g = random_step(rng, &g).0;
            }
            let data = GraphData::from_graph(&g);
            let mut bytes = Vec::new();
            data.encode_into(&mut bytes);
            let back = GraphData::decode(&bytes).map_err(|e| format!("decode failed: {e}"))?;
            prop_assert!(back == data, "snapshot decode diverged");

            // The log writer encodes straight from the snapshot: the
            // same bytes, no `GraphData` in between.
            let mut direct = Vec::new();
            encode_snapshot(&g, &g.vocab().snapshot(), &mut direct);
            prop_assert!(direct == bytes, "encode_snapshot diverges from GraphData");

            // Rebuilding the graph from the decoded snapshot preserves the
            // observable structure (the recovery floor the WAL replays on).
            let g2 = back.into_graph();
            prop_assert!(g2.node_count() == g.node_count(), "node counts differ");
            prop_assert!(g2.edge_count() == g.edge_count(), "edge counts differ");

            // Decoded straight into a builder over a vocabulary that
            // already holds the names, in order: the same graph.
            let vocab = Vocab::shared();
            for name in g.vocab().snapshot().iter() {
                vocab.intern(name);
            }
            let decoded = DecodedSnapshot::decode(&bytes, &vocab)
                .map_err(|e| format!("builder decode failed: {e}"))?;
            prop_assert!(decoded.symbol_count() == data.symbols.len());
            let builder = decoded
                .intern()
                .map_err(|e| format!("interning failed: {e}"))?;
            same_snapshot(&builder.freeze(), &g)
        },
    );
}

#[test]
fn builder_decode_never_panics_and_agrees_with_graphdata() {
    check(
        "hostile snapshot bytes: builder decode ≡ GraphData decode",
        cases(100),
        |rng| {
            let data = GraphData::from_graph(&base_graph(rng));
            let mut bytes = Vec::new();
            data.encode_into(&mut bytes);
            mutate(rng, &mut bytes);
            // One parser behind both decoders: the same verdict on every
            // input, and a decode that fails leaves the vocabulary alone.
            let vocab = Vocab::shared();
            vocab.intern("held");
            match (
                GraphData::decode(&bytes),
                DecodedSnapshot::decode(&bytes, &vocab),
            ) {
                (Ok(d), Ok(s)) => {
                    prop_assert!(s.symbol_count() == d.symbols.len(), "symbol tables differ");
                    prop_assert!(vocab.len() == 1, "decode interned before it was asked");
                    // Interning may fail (the held name collides), never panic.
                    let _ = s.intern();
                }
                (Err(_), Err(_)) => prop_assert!(vocab.len() == 1, "a failed decode interned"),
                (d, s) => {
                    return Err(format!(
                        "decoders disagree: GraphData {:?}, builder {:?}",
                        d.map(|_| ()),
                        s.map(|_| ())
                    ))
                }
            }
            Ok(())
        },
    );
}

/// Mutate `bytes` in one of the crash-fault shapes: truncate (torn
/// tail / short read), flip bits (media rot), or splice garbage.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.gen_range(0..4) {
        0 => {
            let keep = rng.gen_range(0..bytes.len().max(1));
            bytes.truncate(keep);
        }
        1 => {
            for _ in 0..rng.gen_range(1..4) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8);
            }
        }
        2 => {
            let at = rng.gen_range(0..bytes.len() + 1);
            let garbage: Vec<u8> = (0..rng.gen_range(1..9))
                .map(|_| rng.gen_range(0..256) as u8)
                .collect();
            bytes.splice(at..at, garbage);
        }
        _ => {
            // Pure garbage: no valid structure at all.
            let len = rng.gen_range(0..64);
            *bytes = (0..len).map(|_| rng.gen_range(0..256) as u8).collect();
        }
    }
}

#[test]
fn decode_never_panics_on_mutated_streams() {
    check(
        "hostile delta bytes: Err or invariant-clean Ok",
        cases(150),
        |rng| {
            let base = base_graph(rng);
            let mut g = base.edit(|_| {});
            let mut delta = GraphDelta::new(base.node_count());
            for _ in 0..rng.gen_range(1..8) {
                let (next, d) = random_step(rng, &g);
                g = next;
                delta = delta.merge(d);
            }
            let sym_limit = g.vocab().len() as u32;
            let mut bytes = Vec::new();
            delta.encode_into(&mut bytes);
            mutate(rng, &mut bytes);

            // The contract under hostile bytes: no panic (the harness
            // would abort), and any Ok is structurally sound — its ids
            // re-validate under the same machinery ingest uses.
            if let Ok(d) = GraphDelta::decode(&bytes, sym_limit) {
                prop_assert!(
                    d.check_ids(d.base_nodes).is_ok(),
                    "decode accepted a structurally invalid delta"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn snapshot_decode_never_panics_on_mutated_streams() {
    check(
        "hostile snapshot bytes: Err or well-formed Ok",
        cases(100),
        |rng| {
            let data = GraphData::from_graph(&base_graph(rng));
            let mut bytes = Vec::new();
            data.encode_into(&mut bytes);
            mutate(rng, &mut bytes);
            if let Ok(d) = GraphData::decode(&bytes) {
                // Every reference decoded in-range, so rebuilding cannot
                // index out of bounds.
                let syms = d.symbols.len() as u32;
                let nodes = d.nodes.len() as u32;
                for (label, attrs) in &d.nodes {
                    prop_assert!(*label < syms, "label out of range survived decode");
                    prop_assert!(
                        attrs.iter().all(|(a, _)| *a < syms),
                        "attr sym out of range survived decode"
                    );
                }
                prop_assert!(
                    d.edges
                        .iter()
                        .all(|(s, t, l)| *s < nodes && *t < nodes && *l < syms),
                    "edge reference out of range survived decode"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn every_prefix_of_an_encoding_is_rejected() {
    check("strict prefixes never decode", cases(40), |rng| {
        let base = base_graph(rng);
        let (g, delta) = random_step(rng, &base);
        let sym_limit = g.vocab().len() as u32;
        let mut bytes = Vec::new();
        delta.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            match GraphDelta::decode(&bytes[..cut], sym_limit) {
                Err(DeltaError::Truncated { .. }) | Err(DeltaError::Corrupt { .. }) => {}
                Err(e) => return Err(format!("prefix {cut}: unexpected error {e}")),
                Ok(_) => return Err(format!("prefix {cut} decoded successfully")),
            }
        }
        Ok(())
    });
}
