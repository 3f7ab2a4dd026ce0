//! Property tests for the binary delta/snapshot codec — the plain-bytes
//! layer the durable write-ahead log (`gfd_parallel::wal`) frames on
//! disk.
//!
//! Two obligations, tested from both sides:
//!
//! * **round trip** — `encode → decode` is the identity over deltas
//!   recorded from random edit scripts (including merge-compacted
//!   batches and their lists shuffled out of normal form, with and
//!   without new names), and `decode → encode` over the bytes: one
//!   delta has one encoding. Over snapshots of random graphs re-encoding a
//!   decoded `GraphData` writes `encode_snapshot`'s bytes and rebuilds
//!   the same graph — as does `DecodedSnapshot`, the log's decoder,
//!   straight into a builder — and the snapshot parser fed in chunks
//!   (`DecodedSnapshot::decode_chunked`) rebuilds what it rebuilds fed
//!   whole, however the record is split;
//! * **hostility** — decoding arbitrary mutations of valid byte
//!   streams (bit flips, truncations, splices of random garbage)
//!   never panics: it returns a `DeltaError`, or an `Ok` delta that
//!   still satisfies the `check_ids` structural invariants and
//!   re-encodes to the bytes it came from, and every snapshot decoder,
//!   whole or chunked, reaches the same verdict. A record that is not
//!   canonical — an undefined presence bit, a present list with no
//!   entries, a node id gap that leaves `u32` — is an error.

mod common;

use std::io;
use std::sync::Arc;

use common::{base_graph, hub_graph, random_step};
use gfd_graph::{
    encode_snapshot, graph::same_snapshot, DecodedSnapshot, DeltaError, Graph, GraphData,
    GraphDelta, Value, Vocab, SNAPSHOT_CHUNK,
};
use gfd_util::prop::{cases, check};
use gfd_util::{checksum64, prop_assert, Checksum64, Rng};

#[test]
fn delta_codec_round_trip_over_edit_scripts() {
    check(
        "delta encode → decode ≡ identity",
        cases(80, 16),
        |rng| {
            let base = base_graph(rng);
            let mut g = base.edit(|_| {});
            let mut compacted: Option<GraphDelta> = None;
            for _ in 0..rng.gen_range(1..20) {
                let (next, delta) = random_step(rng, &g);
                g = next;

                // Per-step deltas round-trip…
                let sym_limit = g.vocab().len() as u32;
                round_trip(&delta, &[], sym_limit).map_err(|e| format!("step: {e}"))?;

                compacted = Some(match compacted.take() {
                    None => delta,
                    Some(prev) => prev.merge(delta),
                });
            }

            // …and so does the merge-compacted batch (the shape the WAL
            // actually persists: one compacted delta per epoch).
            let compacted = compacted.expect("at least one step");
            let sym_limit = g.vocab().len() as u32;
            let back =
                round_trip(&compacted, &[], sym_limit).map_err(|e| format!("compacted: {e}"))?;

            // …and so does a raw one, its lists out of order (their
            // leading ids step down as well as up), carrying new names.
            let raw = shuffled(rng, &compacted);
            let names: Vec<Arc<str>> = (0..rng.gen_range(0..3))
                .map(|i| Arc::from(format!("late{i}")))
                .collect();
            round_trip(&raw, &names, sym_limit).map_err(|e| format!("raw: {e}"))?;

            // The decoded delta is ingest-grade: it validates against the
            // base exactly when the original does.
            prop_assert!(
                back.check_against(&base).is_ok() == compacted.check_against(&base).is_ok(),
                "decoded delta validates differently"
            );
            Ok(())
        },
    );
}

/// `delta` with `names` encoded and decoded back over its own base:
/// the same names and delta, and re-encoded, the same bytes. Returns
/// the decoded delta.
fn round_trip(
    delta: &GraphDelta,
    names: &[Arc<str>],
    base_syms: u32,
) -> Result<GraphDelta, String> {
    let mut bytes = Vec::new();
    delta.encode_with_symbols(names, &mut bytes);
    let (back_names, back) = GraphDelta::decode_with_symbols(&bytes, delta.base_nodes, base_syms)
        .map_err(|e| format!("decode failed: {e}"))?;
    let same_names =
        back_names.len() == names.len() && back_names.iter().zip(names).all(|(a, b)| **a == **b);
    prop_assert!(same_names, "names diverged: {back_names:?} vs {names:?}");
    prop_assert!(back == *delta, "decode diverged: {back:?} vs {delta:?}");
    let mut again = Vec::new();
    back.encode_with_symbols(names, &mut again);
    prop_assert!(again == bytes, "re-encoding diverged");
    Ok(back)
}

/// `d` with every list but the dense added nodes in a random order:
/// the raw, unnormalized shape a delta has before `normalize`.
fn shuffled(rng: &mut Rng, d: &GraphDelta) -> GraphDelta {
    fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..i + 1));
        }
    }
    let mut raw = d.clone();
    shuffle(rng, &mut raw.added_edges);
    shuffle(rng, &mut raw.removed_edges);
    shuffle(rng, &mut raw.label_changes);
    shuffle(rng, &mut raw.attr_ops);
    raw
}

/// A record that is not canonical is corrupt, never a panic and never
/// a second encoding of a delta: an undefined presence bit, a present
/// list with no entries, and in each list led by a node id a gap that
/// takes the id below 0 or past `u32`.
#[test]
fn noncanonical_delta_records_are_errors() {
    let corrupt = |bytes: &[u8]| {
        let verdict = GraphDelta::decode_with_symbols(bytes, 2, 1);
        assert!(
            matches!(verdict, Err(DeltaError::Corrupt { .. })),
            "{bytes:02x?}: {verdict:?}"
        );
    };
    for bit in 6..8 {
        corrupt(&[1 << bit]);
    }
    for list in 0..6 {
        corrupt(&[1 << list, 0]);
    }
    // Edges, label changes and attribute ops: two entries, each a node
    // id and two zero bytes (a node and a symbol, two symbols, or a
    // symbol and an attribute removal). The second id's gap is a
    // zigzag varint.
    let u32_max = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    let u64_max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
    for list in 2..6 {
        let record =
            |first: &[u8], gap: &[u8]| [&[1 << list, 2][..], first, &[0, 0], gap, &[0, 0]].concat();
        // Premise: ids 0 then 1 (gap +1, zigzag 2) decode.
        let (_, d) = GraphDelta::decode_with_symbols(&record(&[0], &[2]), 2, 1).unwrap();
        assert!(!d.is_empty(), "list {list}");
        corrupt(&record(&[0], &[1]));
        corrupt(&record(&u32_max, &[2]));
        corrupt(&record(&[0], &u64_max));
    }
}

#[test]
fn snapshot_codec_round_trip() {
    check(
        "GraphData encode → decode → encode ≡ encode_snapshot",
        cases(60, 12),
        |rng| {
            let mut g = base_graph(rng);
            // A few edits so the snapshot isn't always freeze-fresh.
            for _ in 0..rng.gen_range(0..5) {
                g = random_step(rng, &g).0;
            }
            let mut bytes = Vec::new();
            GraphData::from_graph(&g).encode_into(&mut bytes);
            let back = GraphData::decode(&bytes).map_err(|e| format!("decode failed: {e}"))?;
            let mut again = Vec::new();
            back.encode_into(&mut again);
            prop_assert!(again == bytes, "re-encoding a decoded snapshot diverged");

            // The log writer encodes straight from the snapshot: the
            // same bytes, so the benchmark's fingerprint is the log's.
            let mut direct = Vec::new();
            encode_snapshot(&g, &g.vocab().snapshot(), &mut direct);
            prop_assert!(direct == bytes, "encode_snapshot diverges from GraphData");

            // Rebuilding the graph from the decoded snapshot preserves
            // every observable (the recovery floor the WAL replays on).
            let g2 = back
                .into_graph_in(&Vocab::shared())
                .map_err(|e| format!("rebuild failed: {e}"))?;
            same_snapshot(&g2, &g).map_err(|e| format!("rebuilt: {e}"))?;

            // Decoded straight into a builder over a vocabulary that
            // already holds the names, in order: the same graph.
            let vocab = Vocab::shared();
            for name in g.vocab().snapshot().iter() {
                vocab.intern(name);
            }
            let decoded = DecodedSnapshot::decode(&bytes, &vocab)
                .map_err(|e| format!("builder decode failed: {e}"))?;
            prop_assert!(decoded.symbol_count() == g.vocab().len());
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
        cases(100, 20),
        |rng| {
            let mut bytes = Vec::new();
            GraphData::from_graph(&base_graph(rng)).encode_into(&mut bytes);
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
                    prop_assert!(vocab.len() == 1, "decode interned before it was asked");
                    let symbols = s.symbol_count();
                    // Interning may fail (the held name collides), never panic.
                    let _ = s.intern();
                    // Into a fresh vocabulary, GraphData interns the
                    // builder's symbol table — or refuses a repeated name.
                    let fresh = Vocab::shared();
                    if d.into_graph_in(&fresh).is_ok() {
                        prop_assert!(fresh.len() == symbols, "symbol tables differ");
                    }
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

/// A kit graph — a base graph, one case in three wider than three
/// pages, or a hub graph — and, one case in two, 6 000 more nodes whose
/// string values are drawn from a pool of 5 000, more than the
/// parser's string table has slots: some pool values share a slot, and
/// the record spans more than one chunk.
fn codec_graph(rng: &mut Rng) -> Graph {
    let g = match rng.gen_range(0..2) {
        0 => base_graph(rng),
        _ => hub_graph(rng).0,
    };
    if rng.gen_range(0..2) == 0 {
        return g;
    }
    g.edit(|b| {
        let pooled = b.vocab().intern("pooled");
        for _ in 0..6_000 {
            let u = b.add_node_labeled("pooled");
            let v = rng.gen_range(0..5_000);
            b.set_attr(u, pooled, Value::str(&format!("pool-{v:05}")));
        }
    })
}

/// Where a source ends the pieces it hands over, as sorted offsets in
/// `1..len`: every byte, for a short record — so a piece ends inside
/// every varint, string and checksum lane — or pieces drawn from one
/// byte up to past [`SNAPSHOT_CHUNK`].
fn random_cuts(rng: &mut Rng, len: usize) -> Vec<usize> {
    if len <= 4_096 && rng.gen_range(0..3) == 0 {
        return (1..len).collect();
    }
    let mut cuts = Vec::new();
    let mut at = 0;
    loop {
        at += match rng.gen_range(0..4) {
            0 => 1,
            1 => rng.gen_range(2..10),
            2 => rng.gen_range(10..4_096),
            _ => rng.gen_range(SNAPSHOT_CHUNK / 2..2 * SNAPSHOT_CHUNK + 2),
        };
        if at >= len {
            return cuts;
        }
        cuts.push(at);
    }
}

/// What a chunked decode of a `len`-byte record makes of a source that
/// holds `bytes` and hands them over in the pieces `cuts` ends, fed to
/// a [`Checksum64`] as they arrive, the way the log feeds its floor's.
/// Also whether the decode ever asked the source for a byte past `len`.
fn decode_in_pieces(
    bytes: &[u8],
    len: usize,
    cuts: &[usize],
    vocab: &Arc<Vocab>,
) -> (Result<DecodedSnapshot, DeltaError>, Checksum64, bool) {
    let mut cksum = Checksum64::new(len as u64);
    let (mut fed, mut overreach) = (0, false);
    let mut ends = cuts.iter().copied().chain([bytes.len()]);
    let mut end = ends.next().unwrap_or(bytes.len());
    let decoded = DecodedSnapshot::decode_chunked(len, vocab, |buf| {
        overreach |= fed + buf.len() > len;
        while end <= fed && end < bytes.len() {
            end = ends.next().unwrap_or(bytes.len());
        }
        let piece = &bytes[fed..end.min(fed + buf.len())];
        buf[..piece.len()].copy_from_slice(piece);
        cksum.update(piece);
        fed += piece.len();
        Ok::<_, io::Error>(piece.len())
    })
    .expect("an in-memory source never fails");
    (decoded, cksum, overreach)
}

/// The graph `decoded` rebuilds once interned into a fresh vocabulary.
fn rebuild(decoded: Result<DecodedSnapshot, DeltaError>) -> Result<Graph, String> {
    let decoded = decoded.map_err(|e| format!("decode failed: {e}"))?;
    Ok(decoded
        .intern()
        .map_err(|e| format!("interning failed: {e}"))?
        .freeze())
}

#[test]
fn streamed_decode_equals_one_shot_decode() {
    check(
        "chunked snapshot decode ≡ one-shot decode, however the record is split",
        cases(60, 12),
        |rng| {
            let g = codec_graph(rng);
            let mut bytes = Vec::new();
            encode_snapshot(&g, &g.vocab().snapshot(), &mut bytes);
            let whole = rebuild(DecodedSnapshot::decode(&bytes, &Vocab::shared()))?;

            let cuts = random_cuts(rng, bytes.len());
            let vocab = Vocab::shared();
            let (decoded, cksum, overreach) = decode_in_pieces(&bytes, bytes.len(), &cuts, &vocab);
            prop_assert!(!overreach, "the source was asked for bytes past the record");
            let streamed = rebuild(decoded)?;
            prop_assert!(
                cksum.finish() == checksum64(&bytes),
                "the pieces' checksum differs from the record's"
            );
            prop_assert!(
                vocab.snapshot() == g.vocab().snapshot(),
                "the streamed symbol table differs"
            );
            same_snapshot(&streamed, &whole).map_err(|e| format!("vs one-shot: {e}"))?;
            same_snapshot(&streamed, &g).map_err(|e| format!("vs source: {e}"))?;
            // A repeated string shares the allocation of its last
            // decode, and one that shares a slot with another still
            // decodes to its own bytes (the equality above).
            let strings: Vec<&Arc<str>> = streamed
                .nodes()
                .flat_map(|u| streamed.attrs(u).iter())
                .filter_map(|(_, v)| match v {
                    Value::Str(s) => Some(s),
                    _ => None,
                })
                .collect();
            let shared = strings
                .windows(2)
                .filter(|w| w[0] == w[1] && !Arc::ptr_eq(w[0], w[1]))
                .count();
            prop_assert!(shared == 0, "{shared} adjacent repeats decoded apart");
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
        cases(150, 30),
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
            // re-validate under the same machinery ingest uses — and
            // canonical: it re-encodes to the bytes it came from.
            if let Ok((names, d)) =
                GraphDelta::decode_with_symbols(&bytes, delta.base_nodes, sym_limit)
            {
                prop_assert!(
                    d.check_ids(d.base_nodes).is_ok(),
                    "decode accepted a structurally invalid delta"
                );
                let names: Vec<Arc<str>> = names.iter().map(|n| Arc::from(n.as_str())).collect();
                let mut again = Vec::new();
                d.encode_with_symbols(&names, &mut again);
                prop_assert!(again == bytes, "decode accepted a second encoding");
            }
            Ok(())
        },
    );
}

#[test]
fn snapshot_decode_never_panics_on_mutated_streams() {
    check(
        "hostile snapshot bytes: Err or well-formed Ok",
        cases(100, 20),
        |rng| {
            let mut bytes = Vec::new();
            GraphData::from_graph(&base_graph(rng)).encode_into(&mut bytes);
            mutate(rng, &mut bytes);
            // Fed in pieces, the parser reaches the verdict it reaches
            // fed whole.
            let cuts = random_cuts(rng, bytes.len());
            let (streamed, _, overreach) =
                decode_in_pieces(&bytes, bytes.len(), &cuts, &Vocab::shared());
            prop_assert!(!overreach, "the source was asked for bytes past the record");
            prop_assert!(
                streamed.is_ok() == GraphData::decode(&bytes).is_ok(),
                "the chunked decode's verdict differs"
            );
            // Every reference decoded in range: the rebuilt graph's
            // labels and attribute names are among its names, and its
            // edges join its nodes. (Interning refuses a record that
            // names one string twice: no graph to check.)
            let vocab = Vocab::shared();
            if let Ok(Ok(g)) = GraphData::decode(&bytes).map(|d| d.into_graph_in(&vocab)) {
                let (syms, nodes) = (vocab.len() as u32, g.node_count() as u32);
                for u in g.nodes() {
                    prop_assert!(g.label(u).0 < syms, "label out of range survived decode");
                    prop_assert!(
                        g.attrs(u).iter().all(|(a, _)| a.0 < syms),
                        "attr sym out of range survived decode"
                    );
                }
                prop_assert!(
                    g.edges()
                        .all(|e| e.src.0 < nodes && e.dst.0 < nodes && e.label.0 < syms),
                    "edge reference out of range survived decode"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn every_prefix_of_an_encoding_is_rejected() {
    check("strict prefixes never decode", cases(40, 8), |rng| {
        let base = base_graph(rng);
        let (g, delta) = random_step(rng, &base);
        let sym_limit = g.vocab().len() as u32;
        let mut bytes = Vec::new();
        delta.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            match GraphDelta::decode_with_symbols(&bytes[..cut], delta.base_nodes, sym_limit) {
                Err(DeltaError::Truncated { .. }) | Err(DeltaError::Corrupt { .. }) => {}
                Err(e) => return Err(format!("prefix {cut}: unexpected error {e}")),
                Ok(_) => return Err(format!("prefix {cut} decoded successfully")),
            }
        }
        // The snapshot parser fed in pieces: a strict prefix is rejected
        // as a record of its own, and as the whole record's source cut
        // short, which is truncated where it ends. Every prefix of a
        // short record; of a wide one, 200 at a random stride.
        bytes.clear();
        encode_snapshot(&g, &g.vocab().snapshot(), &mut bytes);
        let cuts = random_cuts(rng, bytes.len());
        let stride = bytes.len().div_ceil(200);
        for cut in (rng.gen_range(0..stride)..bytes.len()).step_by(stride) {
            let prefix = &bytes[..cut];
            let cuts = &cuts[..cuts.partition_point(|&c| c < cut)];
            let (own, _, _) = decode_in_pieces(prefix, cut, cuts, &Vocab::shared());
            match own {
                Err(DeltaError::Truncated { .. }) | Err(DeltaError::Corrupt { .. }) => {}
                Err(e) => return Err(format!("snapshot prefix {cut}: unexpected error {e}")),
                Ok(_) => return Err(format!("snapshot prefix {cut} decoded successfully")),
            }
            let (short, _, _) = decode_in_pieces(prefix, bytes.len(), cuts, &Vocab::shared());
            match short {
                Err(DeltaError::Truncated { offset }) if offset == cut => {}
                other => {
                    return Err(format!(
                        "source cut at {cut}: {:?}, want truncated there",
                        other.err()
                    ))
                }
            }
        }
        Ok(())
    });
}
