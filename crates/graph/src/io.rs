//! Graph serialization: the binary snapshot encoding of a frozen
//! [`Graph`], and [`GraphData`], a graph beside the names its symbols
//! index.
//!
//! The snapshot encoding has one writer, which reads a frozen
//! [`Graph`], and one parser, which writes a [`GraphBuilder`].
//! [`encode_snapshot`] appends the record, [`encode_snapshot_chunked`]
//! hands it off in chunks through one caller-owned buffer (so a log can
//! stream a floor of any size), and [`GraphData::encode_into`] is
//! `encode_snapshot` of the graph it holds. The parser is fed whole or
//! in chunks: [`GraphData::decode`] and [`DecodedSnapshot::decode`]
//! hand it the record held in memory as one chunk, and
//! [`DecodedSnapshot::decode_chunked`] reads the record on demand
//! through one buffer of [`SNAPSHOT_CHUNK`] bytes, so a log recovers a
//! floor of any size without holding its bytes. Every input gets the
//! same checks.
//!
//! A repeated string value decodes once. The parser passes each string
//! value through a table of the [`Arc<str>`]s it decoded last, one per
//! slot of a fixed, power-of-two table indexed by a hash of the bytes:
//! a hit clones the `Arc` in the slot, a miss allocates and replaces
//! it. The table is bounded, not a map of every distinct value, so it
//! costs a constant whatever the record holds — a floor drawn from a
//! small domain shares one allocation per value, and one of distinct
//! values pays only the table. Equal strings are equal [`Value`](crate::Value)s
//! whichever allocation holds them; only `Arc` identity changes.

use std::convert::Infallible;
use std::io;
use std::sync::Arc;

use crate::attrs::AttrMap;
use crate::delta::DeltaError;
use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::vocab::{Sym, Vocab};
use crate::wire;

/// A frozen graph and the names its symbols index — entry `i` is the
/// name of `Sym(i)` — for shipping a graph between vocabularies. One
/// taken from a graph shares that graph's pages; one decoded from bytes
/// is frozen over an empty vocabulary of its own, and nothing is
/// interned until [`into_graph_in`](GraphData::into_graph_in).
#[derive(Clone, Debug)]
pub struct GraphData {
    symbols: Vec<Arc<str>>,
    graph: Graph,
}

impl GraphData {
    /// Snapshots `g` and its vocabulary's names: a shallow clone of the
    /// graph, sharing every page, run and tuple.
    pub fn from_graph(g: &Graph) -> Self {
        GraphData {
            symbols: g.vocab().snapshot(),
            graph: g.clone(),
        }
    }

    /// The graph over an **existing** vocabulary — so patterns and
    /// rules built against that vocabulary match it by `Arc` identity,
    /// not just by name. Fails if interning this snapshot's names into
    /// `vocab` does not reproduce the snapshot's own numbering (the
    /// vocabulary's history diverged from the snapshot's): symbols in
    /// the graph would silently mean different names.
    pub fn into_graph_in(self, vocab: &Arc<Vocab>) -> Result<Graph, DeltaError> {
        intern_in_order(vocab, self.symbols.iter().map(|s| &**s))?;
        Ok(self.graph.with_vocab(vocab))
    }

    /// Appends the snapshot encoding of this graph to `out`:
    /// [`encode_snapshot`] of it and its names — the base-snapshot
    /// record the durable write-ahead log replays from.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_snapshot(&self.graph, &self.symbols, out);
    }

    /// Decodes a snapshot from (possibly hostile) bytes through the one
    /// parser into a builder, frozen once. Like
    /// [`GraphDelta::decode_with_symbols`], this never panics: lengths
    /// are bounded by the remaining input, every symbol index must fall
    /// inside the record's own symbol table, and every edge endpoint
    /// inside its node table.
    ///
    /// [`GraphDelta::decode_with_symbols`]: crate::delta::GraphDelta::decode_with_symbols
    pub fn decode(bytes: &[u8]) -> Result<GraphData, DeltaError> {
        let DecodedSnapshot { symbols, builder } =
            DecodedSnapshot::decode(bytes, &Vocab::shared())?;
        Ok(GraphData {
            symbols: symbols.into_iter().map(Arc::from).collect(),
            graph: builder.freeze(),
        })
    }
}

/// Appends the snapshot encoding of `g` to `out`. `symbols` is
/// `g.vocab().snapshot()`, taken by the caller so that the symbol count
/// it frames the record with is the count written.
pub fn encode_snapshot(g: &Graph, symbols: &[Arc<str>], out: &mut Vec<u8>) {
    let Ok(()) = put_snapshot(g, symbols, out, no_flush);
}

/// Bytes [`encode_snapshot_chunked`] gathers before it hands a chunk
/// off.
pub const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// [`encode_snapshot`] through a caller-owned buffer, for a writer that
/// streams the record instead of holding it: `buf` is cleared, and
/// `emit` receives each chunk once it holds at least [`SNAPSHOT_CHUNK`]
/// bytes, then the tail. A chunk ends after a whole symbol, node or
/// edge, so it overshoots the threshold by at most one of them; the
/// chunks concatenated are `encode_snapshot`'s bytes. The first error
/// `emit` returns ends the encoding and is returned.
pub fn encode_snapshot_chunked<E>(
    g: &Graph,
    symbols: &[Arc<str>],
    buf: &mut Vec<u8>,
    mut emit: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    buf.clear();
    put_snapshot(g, symbols, buf, |out| {
        if out.len() >= SNAPSHOT_CHUNK {
            emit(out)?;
            out.clear();
        }
        Ok(())
    })?;
    if !buf.is_empty() {
        emit(buf)?;
        buf.clear();
    }
    Ok(())
}

/// The flush hook of a writer that holds the whole record.
fn no_flush(_: &mut Vec<u8>) -> Result<(), Infallible> {
    Ok(())
}

/// The one snapshot writer: the symbol table, then per node of `g` its
/// label and attribute pairs, then its `(src, dst, label)` edges — each
/// list prefixed by its length. `flush` sees `out` after each symbol,
/// node and edge, and may drain it; its first error ends the record.
fn put_snapshot<E>(
    g: &Graph,
    symbols: &[Arc<str>],
    out: &mut Vec<u8>,
    mut flush: impl FnMut(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    wire::put_varint(out, symbols.len() as u64);
    for s in symbols {
        wire::put_str(out, s);
        flush(out)?;
    }
    wire::put_varint(out, g.node_count() as u64);
    for u in g.nodes() {
        let attrs = g.attrs(u);
        wire::put_varint(out, g.label(u).0 as u64);
        wire::put_varint(out, attrs.len() as u64);
        for (a, v) in attrs.iter() {
            wire::put_varint(out, a.0 as u64);
            wire::put_value(out, Some(v));
        }
        flush(out)?;
    }
    wire::put_varint(out, g.edge_count() as u64);
    for e in g.edges() {
        wire::put_varint(out, e.src.0 as u64);
        wire::put_varint(out, e.dst.0 as u64);
        wire::put_varint(out, e.label.0 as u64);
        flush(out)?;
    }
    Ok(())
}

/// Slots of the string table a snapshot's values decode through: a
/// power of two, 64 KiB of slots on a 64-bit target.
const STRING_SLOTS: usize = 4096;

/// The string values one parse decoded last, one per slot: a value
/// whose bytes match its slot's shares that allocation. The slots are
/// allocated when the first string value arrives.
#[derive(Default)]
struct Strings {
    slots: Vec<Option<Arc<str>>>,
}

impl Strings {
    /// `s` as an `Arc`: the slot's, if it holds these bytes, else a new
    /// one that replaces it.
    fn get(&mut self, s: &str) -> Arc<str> {
        if self.slots.is_empty() {
            self.slots = vec![None; STRING_SLOTS];
        }
        let slot = &mut self.slots[slot_of(s.as_bytes())];
        match slot {
            Some(held) if **held == *s => Arc::clone(held),
            _ => Arc::clone(slot.insert(Arc::from(s))),
        }
    }
}

/// The table slot of `bytes`: a multiplicative hash over 8-byte lanes,
/// its top bits.
fn slot_of(bytes: &[u8]) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = bytes.len() as u64;
    for lane in bytes.chunks(8) {
        let mut word = [0; 8];
        word[..lane.len()].copy_from_slice(lane);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    (h >> (64 - STRING_SLOTS.trailing_zeros())) as usize
}

/// A record read on demand through one buffer: the parser's input when
/// the record is not held whole. `read` fills a prefix of the slice it
/// is handed and returns its length, as [`io::Read::read`] does.
struct Chunks<F> {
    buf: Vec<u8>,
    /// Bytes of the record not yet read.
    unread: usize,
    read: F,
    /// The error `read` failed with, if it did.
    failed: Option<io::Error>,
}

/// Borrowed, so the caller keeps the source's error.
impl<F: FnMut(&mut [u8]) -> io::Result<usize>> wire::Input for &mut Chunks<F> {
    fn window(&self) -> &[u8] {
        &self.buf
    }

    /// Reads on to a chunk, or to the one element longer than a chunk,
    /// never past the record's end — so `read` is never handed a slice
    /// that reaches past the record.
    fn refill(&mut self, consumed: usize, need: usize) -> bool {
        self.buf.drain(..consumed);
        let want = need.max(SNAPSHOT_CHUNK).min(self.buf.len() + self.unread);
        self.buf.reserve_exact(want - self.buf.len());
        while self.buf.len() < need {
            let at = self.buf.len();
            self.buf.resize(want, 0);
            let got = match (self.read)(&mut self.buf[at..]) {
                Ok(n) if n > 0 => n.min(want - at),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                ended => {
                    self.buf.truncate(at);
                    self.failed = ended.err();
                    return false;
                }
            };
            self.buf.truncate(at + got);
            self.unread -= got;
        }
        true
    }
}

/// The one snapshot parser, over a record held whole or read in chunks.
/// Never panics on hostile bytes: lengths are bounded by the remaining
/// input, every symbol index must fall inside the record's own symbol
/// table (a symbol reaches `builder` as `Sym(i)`, the record's index),
/// every edge endpoint inside its node table, and trailing bytes are
/// rejected. String values pass through one [`Strings`] table. Returns
/// the symbol table.
fn parse_snapshot<I: wire::Input>(
    mut r: wire::Reader<I>,
    builder: &mut GraphBuilder,
) -> Result<Vec<String>, DeltaError> {
    let n_syms = r.element_count("symbols")?;
    let mut symbols = Vec::with_capacity(n_syms);
    for _ in 0..n_syms {
        symbols.push(r.str()?.to_owned());
    }
    let sym_limit = symbols.len() as u32;
    let sym = |r: &mut wire::Reader<I>| -> Result<Sym, DeltaError> {
        let s = r.varint_u32("symbol")?;
        if s >= sym_limit {
            return Err(DeltaError::SymOutOfRange {
                sym: Sym(s),
                limit: sym_limit,
            });
        }
        Ok(Sym(s))
    };

    let offset = r.offset();
    let n_nodes = r.element_count("nodes")?;
    let node_limit = u32::try_from(n_nodes).map_err(|_| DeltaError::Corrupt {
        offset,
        what: "node count overflows u32",
    })?;
    builder.reserve_nodes(n_nodes);
    let mut strings = Strings::default();
    for _ in 0..n_nodes {
        let label = sym(&mut r)?;
        let n_attrs = r.element_count("attrs")?;
        let mut attrs = Vec::with_capacity(n_attrs);
        for _ in 0..n_attrs {
            let a = sym(&mut r)?;
            let offset = r.offset();
            let v = r
                .value_with(|s| strings.get(s))?
                .ok_or(DeltaError::Corrupt {
                    offset,
                    what: "snapshot attribute has no value",
                })?;
            attrs.push((a, v));
        }
        builder.add_node_with(label, AttrMap::from_entries(attrs));
    }

    let n_edges = r.element_count("edges")?;
    for _ in 0..n_edges {
        let offset = r.offset();
        let s = r.varint_u32("edge source")?;
        let d = r.varint_u32("edge destination")?;
        let l = sym(&mut r)?;
        if s >= node_limit || d >= node_limit {
            return Err(DeltaError::Corrupt {
                offset,
                what: "edge endpoint out of range",
            });
        }
        builder.add_edge(NodeId(s), NodeId(d), l);
    }
    r.finish()?;
    Ok(symbols)
}

/// Interns `names` into `vocab` in order, failing as soon as one does
/// not land on its own index: the vocabulary's history diverged from
/// the record's, so its symbols would silently mean different names.
fn intern_in_order<'s>(
    vocab: &Vocab,
    names: impl Iterator<Item = &'s str>,
) -> Result<(), DeltaError> {
    for (i, name) in names.enumerate() {
        if vocab.intern(name).index() != i {
            return Err(DeltaError::Corrupt {
                offset: 0,
                what: "snapshot symbol numbering disagrees with the supplied vocabulary",
            });
        }
    }
    Ok(())
}

/// A snapshot encoding decoded in one pass straight into a
/// [`GraphBuilder`], whose symbols are still the record's own indices:
/// entry `i` of the record's symbol table, which it owns, is `Sym(i)`.
/// Nothing is interned until [`intern`](DecodedSnapshot::intern), so a
/// record that fails to decode leaves the caller's vocabulary
/// untouched.
pub struct DecodedSnapshot {
    symbols: Vec<String>,
    builder: GraphBuilder,
}

impl DecodedSnapshot {
    /// Decodes (possibly hostile) snapshot bytes — what
    /// [`encode_snapshot`] writes — into a builder over `vocab`: an
    /// error, never a panic, on a record that is cut short, holds a
    /// symbol past its table or an edge endpoint past its nodes, or
    /// runs on past its end, and every byte validated before
    /// [`intern`](DecodedSnapshot::intern) can touch `vocab`.
    pub fn decode(bytes: &[u8], vocab: &Arc<Vocab>) -> Result<Self, DeltaError> {
        let mut builder = GraphBuilder::new(Arc::clone(vocab));
        let symbols = parse_snapshot(wire::Reader::new(bytes), &mut builder)?;
        Ok(DecodedSnapshot { symbols, builder })
    }

    /// [`decode`](DecodedSnapshot::decode) of a `len`-byte record read
    /// in pieces: `read` fills a prefix of the slice it is handed with
    /// the record's next bytes and returns its length, as
    /// [`io::Read::read`] does. The record passes through one buffer of
    /// [`SNAPSHOT_CHUNK`] bytes, grown only to hold one element longer
    /// than that, and `read` is never handed a slice reaching past the
    /// record's `len` bytes. The result is `decode`'s however `read`
    /// splits the record; a record that ends early (`read` returns 0)
    /// is truncated, and an error from `read` is returned as such.
    pub fn decode_chunked(
        len: usize,
        vocab: &Arc<Vocab>,
        read: impl FnMut(&mut [u8]) -> io::Result<usize>,
    ) -> io::Result<Result<Self, DeltaError>> {
        let mut chunks = Chunks {
            buf: Vec::new(),
            unread: len,
            read,
            failed: None,
        };
        let mut builder = GraphBuilder::new(Arc::clone(vocab));
        let parsed = parse_snapshot(wire::Reader::over(&mut chunks, len), &mut builder);
        match chunks.failed {
            Some(e) => Err(e),
            None => Ok(parsed.map(|symbols| DecodedSnapshot { symbols, builder })),
        }
    }

    /// Size of the record's symbol table.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Interns the record's symbol table into the vocabulary given to
    /// [`decode`](DecodedSnapshot::decode) and hands over the builder,
    /// whose symbols now mean the vocabulary's names. Fails, like
    /// [`GraphData::into_graph_in`], if a name does not land on its own
    /// index.
    pub fn intern(self) -> Result<GraphBuilder, DeltaError> {
        intern_in_order(
            self.builder.vocab(),
            self.symbols.iter().map(String::as_str),
        )?;
        Ok(self.builder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> Graph {
        let mut b = GraphBuilder::with_fresh_vocab();
        let f1 = b.add_node_labeled("flight");
        let id1 = b.add_node_labeled("id");
        b.add_edge_labeled(f1, id1, "number");
        b.set_attr_named(id1, "val", Value::str("DL1"));
        b.set_attr_named(f1, "ontime", Value::Bool(true));
        b.set_attr_named(f1, "stops", Value::Int(0));
        b.freeze()
    }

    #[test]
    fn graphdata_round_trip() {
        let g = sample();
        let data = GraphData::from_graph(&g);
        let g2 = data.into_graph_in(&Vocab::shared()).unwrap();
        crate::graph::same_snapshot(&g2, &g).unwrap();
        let val = g2.vocab().lookup("val").unwrap();
        assert_eq!(g2.attr(NodeId(1), val), Some(&Value::str("DL1")));
    }

    #[test]
    fn graphdata_binary_round_trip() {
        let g = sample();
        let mut bytes = Vec::new();
        GraphData::from_graph(&g).encode_into(&mut bytes);
        let back = GraphData::decode(&bytes).unwrap();
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(again, bytes);
        let rebuilt = back.into_graph_in(&Vocab::shared()).unwrap();
        crate::graph::same_snapshot(&rebuilt, &g).unwrap();
        // Hostile inputs: every strict prefix is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(GraphData::decode(&bytes[..cut]).is_err());
        }
    }

    /// A record of the names `node` and `edge`, one node labeled
    /// `label` with no attributes and one `edge` edge from it to `dst`,
    /// written field by field.
    fn one_node_record(label: u64, dst: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        wire::put_varint(&mut bytes, 2);
        wire::put_str(&mut bytes, "node");
        wire::put_str(&mut bytes, "edge");
        for field in [1, label, 0, 1, 0, dst, 1] {
            wire::put_varint(&mut bytes, field);
        }
        bytes
    }

    #[test]
    fn graphdata_decode_rejects_out_of_range_references() {
        let good = one_node_record(0, 0);
        let mut again = Vec::new();
        GraphData::decode(&good).unwrap().encode_into(&mut again);
        assert_eq!(again, good, "the record is the encoding of a self-loop");

        assert!(matches!(
            GraphData::decode(&one_node_record(2, 0)), // label past the table
            Err(DeltaError::SymOutOfRange { .. })
        ));
        assert!(matches!(
            GraphData::decode(&one_node_record(0, 1)), // endpoint past nodes
            Err(DeltaError::Corrupt { .. })
        ));
    }

    /// The string values a decode made, in record order.
    fn decoded_strings(bytes: &[u8]) -> Vec<Arc<str>> {
        let g = GraphData::decode(bytes).unwrap().graph;
        let values = g.nodes().flat_map(|u| g.attrs(u).iter());
        values
            .filter_map(|(_, v)| match v {
                Value::Str(s) => Some(Arc::clone(s)),
                _ => None,
            })
            .collect()
    }

    /// A slot holds the string it decoded last: a repeat shares that
    /// allocation, and two strings that share a slot, alternating, each
    /// decode to their own bytes, a new allocation each time the slot
    /// turns over.
    #[test]
    fn a_slot_holds_the_string_it_decoded_last() {
        let first = "v0".to_string();
        let rival = (1..)
            .map(|i| format!("v{i}"))
            .find(|s| slot_of(s.as_bytes()) == slot_of(first.as_bytes()))
            .unwrap();
        let order = [&first, &first, &rival, &rival, &first];
        let mut b = GraphBuilder::with_fresh_vocab();
        let val = b.vocab().intern("val");
        for s in order {
            let u = b.add_node_labeled("item");
            b.set_attr(u, val, Value::str(s));
        }
        let g = b.freeze();
        let mut bytes = Vec::new();
        encode_snapshot(&g, &g.vocab().snapshot(), &mut bytes);

        let strings = decoded_strings(&bytes);
        assert!(strings.iter().map(|s| &**s).eq(order.map(String::as_str)));
        assert!(Arc::ptr_eq(&strings[0], &strings[1]));
        assert!(Arc::ptr_eq(&strings[2], &strings[3]));
        assert!(!Arc::ptr_eq(&strings[1], &strings[4]));
    }

    /// A source that fails ends a chunked decode with its error, one
    /// that is interrupted is asked again, and one that ends early
    /// truncates the record where it ended.
    #[test]
    fn a_chunked_decode_reports_its_source() {
        let g = sample();
        let mut bytes = Vec::new();
        encode_snapshot(&g, &g.vocab().snapshot(), &mut bytes);
        let vocab = Vocab::shared();
        let len = bytes.len();

        let failed =
            DecodedSnapshot::decode_chunked(len, &vocab, |_| Err(io::Error::other("disk gone")));
        assert_eq!(
            failed.err().map(|e| e.to_string()).as_deref(),
            Some("disk gone")
        );

        let (mut fed, mut interrupted) = (0, false);
        let decoded = DecodedSnapshot::decode_chunked(len, &vocab, |buf| {
            if !interrupted {
                interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let piece = &bytes[fed..(fed + 3).min(len)];
            buf[..piece.len()].copy_from_slice(piece);
            fed += piece.len();
            Ok(piece.len())
        });
        let back = decoded.unwrap().unwrap().intern().unwrap().freeze();
        crate::graph::same_snapshot(&back, &g).unwrap();

        let mut ended = false;
        let short = DecodedSnapshot::decode_chunked(len, &Vocab::shared(), |buf| {
            if std::mem::replace(&mut ended, true) {
                return Ok(0);
            }
            buf[..5].copy_from_slice(&bytes[..5]);
            Ok(5)
        });
        assert!(matches!(
            short.unwrap(),
            Err(DeltaError::Truncated { offset: 5 })
        ));
    }

    /// The chunked writer hands off `encode_snapshot`'s bytes: every
    /// chunk but the tail at least `SNAPSHOT_CHUNK` long, and an error
    /// from the sink ends the record at the chunk that raised it.
    #[test]
    fn chunked_snapshot_concatenates_to_the_record() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let val = b.vocab().intern("val");
        for i in 0..4_000u32 {
            let u = b.add_node_labeled("item");
            b.set_attr(u, val, Value::str(&"v".repeat(1 + (i % 97) as usize)));
            if i > 0 {
                b.add_edge_labeled(NodeId(i - 1), u, "next");
            }
        }
        let g = b.freeze();
        let symbols = g.vocab().snapshot();
        let mut whole = Vec::new();
        encode_snapshot(&g, &symbols, &mut whole);

        let mut buf = Vec::new();
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        let Ok(()) = encode_snapshot_chunked(&g, &symbols, &mut buf, |c| {
            chunks.push(c.to_vec());
            Ok::<(), Infallible>(())
        });
        assert!(buf.is_empty());
        assert!(chunks.len() >= 3, "{} chunks", chunks.len());
        let (tail, full) = chunks.split_last().unwrap();
        assert!(full.iter().all(|c| c.len() >= SNAPSHOT_CHUNK));
        assert!(!tail.is_empty());
        assert_eq!(chunks.concat(), whole);

        let mut calls = 0;
        let stopped = encode_snapshot_chunked(&g, &symbols, &mut buf, |_| {
            calls += 1;
            if calls == 2 {
                Err("disk full")
            } else {
                Ok(())
            }
        });
        assert_eq!(stopped, Err("disk full"));
        assert_eq!(calls, 2);
    }
}
