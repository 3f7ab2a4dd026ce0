//! Graph serialization: a self-contained intermediate form and its
//! binary snapshot encoding.
//!
//! The binary snapshot encoding has one writer and one parser.
//! [`GraphData::encode_into`], [`encode_snapshot`] (straight from a
//! frozen [`Graph`], no `GraphData` in between) and
//! [`encode_snapshot_chunked`] (the same, handed off in chunks through
//! one caller-owned buffer, so a log can stream a floor of any size)
//! write the same bytes. The parser is fed whole or in chunks:
//! [`GraphData::decode`] and [`DecodedSnapshot::decode`] (straight into
//! a [`GraphBuilder`]) hand it the record held in memory as one chunk,
//! and [`DecodedSnapshot::decode_chunked`] reads the record on demand
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
//! values pays only the table. Equal strings are equal [`Value`]s
//! whichever allocation holds them; only `Arc` identity changes.

use std::convert::Infallible;
use std::io;
use std::sync::Arc;

use crate::attrs::AttrMap;
use crate::delta::{wire, DeltaError};
use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::value::Value;
use crate::vocab::{Sym, Vocab};

/// A self-contained, owner-free snapshot of a graph (no interned
/// symbols — everything is resolved), suitable for shipping between
/// vocabularies or hand-rolled (de)serializers.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphData {
    /// All interned names, in symbol order.
    pub symbols: Vec<String>,
    /// Per node: label symbol index and `(attr symbol, value)` pairs.
    pub nodes: Vec<(u32, Vec<(u32, Value)>)>,
    /// Edges as `(src, dst, label symbol)`.
    pub edges: Vec<(u32, u32, u32)>,
}

impl GraphData {
    /// Snapshots `g` (including the parts of its vocabulary it uses).
    pub fn from_graph(g: &Graph) -> Self {
        let symbols: Vec<String> = g.vocab().snapshot().iter().map(|s| s.to_string()).collect();
        let nodes = g
            .nodes()
            .map(|u| {
                let attrs = g.attrs(u).iter().map(|(a, v)| (a.0, v.clone())).collect();
                (g.label(u).0, attrs)
            })
            .collect();
        let edges = g.edges().map(|e| (e.src.0, e.dst.0, e.label.0)).collect();
        GraphData {
            symbols,
            nodes,
            edges,
        }
    }

    /// Reconstructs a frozen graph sharing an **existing** vocabulary
    /// — so patterns and rules built against that vocabulary match the
    /// rebuilt graph by `Arc` identity, not just by name. Fails if
    /// interning this snapshot's symbols into `vocab` does not
    /// reproduce the snapshot's own numbering (the vocabulary's
    /// history diverged from the snapshot's): symbols in the rebuilt
    /// graph would silently mean different names.
    pub fn into_graph_in(self, vocab: &Arc<Vocab>) -> Result<Graph, DeltaError> {
        intern_in_order(vocab, self.symbols.iter().map(String::as_str))?;
        let mut b = GraphBuilder::new(Arc::clone(vocab));
        b.reserve_nodes(self.nodes.len());
        for (label, attrs) in self.nodes {
            let attrs = attrs.into_iter().map(|(a, v)| (Sym(a), v)).collect();
            b.add_node_with(Sym(label), AttrMap::from_entries(attrs));
        }
        for (s, d, l) in self.edges {
            b.add_edge(NodeId(s), NodeId(d), Sym(l));
        }
        Ok(b.freeze())
    }

    /// Appends the plain-bytes encoding of this snapshot to `out`,
    /// using the same wire primitives as [`GraphDelta::encode_into`] —
    /// this is the base-snapshot record the durable write-ahead log
    /// replays from.
    ///
    /// [`GraphDelta::encode_into`]: crate::delta::GraphDelta::encode_into
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let nodes = self
            .nodes
            .iter()
            .map(|(label, attrs)| (*label, attrs.iter().map(|(a, v)| (*a, v))));
        let edges = self.edges.iter().copied();
        let Ok(()) = put_snapshot(
            out,
            &self.symbols,
            nodes,
            (self.edges.len(), edges),
            no_flush,
        );
    }

    /// Decodes a snapshot from (possibly hostile) bytes. Like
    /// [`GraphDelta::decode`], this never panics: lengths are bounded
    /// by the remaining input, every symbol index must fall inside the
    /// record's own symbol table, and every edge endpoint inside its
    /// node table.
    ///
    /// [`GraphDelta::decode`]: crate::delta::GraphDelta::decode
    pub fn decode(bytes: &[u8]) -> Result<GraphData, DeltaError> {
        let mut data = GraphData {
            symbols: Vec::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
        };
        data.symbols = parse_snapshot(wire::Reader::new(bytes), &mut data)?;
        Ok(data)
    }
}

/// Appends the snapshot encoding of `g` to `out` — byte for byte what
/// [`GraphData::from_graph`]`(g).`[`encode_into`](GraphData::encode_into)
/// appends, without the `GraphData` copy of the graph in between.
/// `symbols` is `g.vocab().snapshot()`, taken by the caller so that the
/// symbol count it frames the record with is the count written.
pub fn encode_snapshot(g: &Graph, symbols: &[Arc<str>], out: &mut Vec<u8>) {
    let Ok(()) = put_graph(g, symbols, out, no_flush);
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
    put_graph(g, symbols, buf, |out| {
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

/// [`put_snapshot`] over a frozen graph's own parts.
fn put_graph<E>(
    g: &Graph,
    symbols: &[Arc<str>],
    out: &mut Vec<u8>,
    flush: impl FnMut(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    let nodes = g.nodes().map(|u| {
        let attrs = g.attrs(u).iter().map(|(a, v)| (a.0, v));
        (g.label(u).0, attrs)
    });
    let edges = g.edges().map(|e| (e.src.0, e.dst.0, e.label.0));
    put_snapshot(out, symbols, nodes, (g.edge_count(), edges), flush)
}

/// The one snapshot writer: the symbol table, then per node its label
/// and attribute pairs, then the `(src, dst, label)` edges — each list
/// prefixed by its length. `flush` sees `out` after each symbol, node
/// and edge, and may drain it; its first error ends the record.
fn put_snapshot<'v, A, E>(
    out: &mut Vec<u8>,
    symbols: &[impl AsRef<str>],
    nodes: impl ExactSizeIterator<Item = (u32, A)>,
    (edge_count, edges): (usize, impl Iterator<Item = (u32, u32, u32)>),
    mut flush: impl FnMut(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E>
where
    A: ExactSizeIterator<Item = (u32, &'v Value)>,
{
    wire::put_varint(out, symbols.len() as u64);
    for s in symbols {
        wire::put_str(out, s.as_ref());
        flush(out)?;
    }
    wire::put_varint(out, nodes.len() as u64);
    for (label, attrs) in nodes {
        wire::put_varint(out, label as u64);
        wire::put_varint(out, attrs.len() as u64);
        for (a, v) in attrs {
            wire::put_varint(out, a as u64);
            wire::put_value(out, Some(v));
        }
        flush(out)?;
    }
    wire::put_varint(out, edge_count as u64);
    for (s, d, l) in edges {
        wire::put_varint(out, s as u64);
        wire::put_varint(out, d as u64);
        wire::put_varint(out, l as u64);
        flush(out)?;
    }
    Ok(())
}

/// What [`parse_snapshot`] hands the parts of a snapshot to, in
/// encoding order, each part validated before it arrives.
trait SnapshotSink {
    /// The record holds `count` nodes.
    fn nodes(&mut self, count: usize);
    /// The next node: its label and attribute pairs, as encoded.
    fn node(&mut self, label: Sym, attrs: Vec<(Sym, Value)>);
    /// The record holds `count` edges.
    fn edges(&mut self, count: usize);
    /// The next edge, both endpoints among the nodes.
    fn edge(&mut self, src: NodeId, dst: NodeId, label: Sym);
}

impl SnapshotSink for GraphData {
    fn nodes(&mut self, count: usize) {
        self.nodes.reserve_exact(count);
    }
    fn node(&mut self, label: Sym, attrs: Vec<(Sym, Value)>) {
        let attrs = attrs.into_iter().map(|(a, v)| (a.0, v)).collect();
        self.nodes.push((label.0, attrs));
    }
    fn edges(&mut self, count: usize) {
        self.edges.reserve_exact(count);
    }
    fn edge(&mut self, src: NodeId, dst: NodeId, label: Sym) {
        self.edges.push((src.0, dst.0, label.0));
    }
}

impl SnapshotSink for GraphBuilder {
    fn nodes(&mut self, count: usize) {
        self.reserve_nodes(count);
    }
    fn node(&mut self, label: Sym, attrs: Vec<(Sym, Value)>) {
        self.add_node_with(label, AttrMap::from_entries(attrs));
    }
    fn edges(&mut self, _: usize) {}
    fn edge(&mut self, src: NodeId, dst: NodeId, label: Sym) {
        self.add_edge(src, dst, label);
    }
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
/// table (a symbol reaches `sink` as `Sym(i)`, the record's index),
/// every edge endpoint inside its node table, and trailing bytes are
/// rejected. String values pass through one [`Strings`] table. Returns
/// the symbol table.
fn parse_snapshot<I: wire::Input>(
    mut r: wire::Reader<I>,
    sink: &mut impl SnapshotSink,
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
    sink.nodes(n_nodes);
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
        sink.node(label, attrs);
    }

    let n_edges = r.element_count("edges")?;
    sink.edges(n_edges);
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
        sink.edge(NodeId(s), NodeId(d), l);
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
/// [`GraphBuilder`] — no [`GraphData`] in between — whose symbols are
/// still the record's own indices: entry `i` of the record's symbol
/// table, which it owns, is `Sym(i)`. Nothing is interned until
/// [`intern`](DecodedSnapshot::intern), so a record that fails to
/// decode leaves the caller's vocabulary untouched.
pub struct DecodedSnapshot {
    symbols: Vec<String>,
    builder: GraphBuilder,
}

impl DecodedSnapshot {
    /// Decodes (possibly hostile) snapshot bytes — what
    /// [`GraphData::encode_into`] and [`encode_snapshot`] write — into a
    /// builder over `vocab`, under the checks of [`GraphData::decode`]:
    /// an error, never a panic, and every byte validated before
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
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        let val = g2.vocab().lookup("val").unwrap();
        assert_eq!(g2.attr(NodeId(1), val), Some(&Value::str("DL1")));
    }

    #[test]
    fn graphdata_binary_round_trip() {
        let g = sample();
        let data = GraphData::from_graph(&g);
        let mut bytes = Vec::new();
        data.encode_into(&mut bytes);
        let back = GraphData::decode(&bytes).unwrap();
        assert_eq!(back, data);
        // Hostile inputs: every strict prefix is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(GraphData::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn graphdata_decode_rejects_out_of_range_references() {
        let base = GraphData::from_graph(&sample());
        let mut bad_sym = base.clone();
        bad_sym.nodes[0].0 = base.symbols.len() as u32; // label past the table
        let mut bytes = Vec::new();
        bad_sym.encode_into(&mut bytes);
        assert!(matches!(
            GraphData::decode(&bytes),
            Err(DeltaError::SymOutOfRange { .. })
        ));

        let mut bad_edge = base.clone();
        bad_edge.edges[0].1 = base.nodes.len() as u32; // endpoint past nodes
        bytes.clear();
        bad_edge.encode_into(&mut bytes);
        assert!(matches!(
            GraphData::decode(&bytes),
            Err(DeltaError::Corrupt { .. })
        ));
    }

    /// The string values a decode made, in record order.
    fn decoded_strings(bytes: &[u8]) -> Vec<Arc<str>> {
        let data = GraphData::decode(bytes).unwrap();
        let values = data.nodes.into_iter().flat_map(|(_, attrs)| attrs);
        values
            .filter_map(|(_, v)| match v {
                Value::Str(s) => Some(s),
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
