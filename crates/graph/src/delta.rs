//! Edit deltas: the difference between two snapshots of a graph.
//!
//! Every `thaw`/`edit` of a frozen [`Graph`] records the mutations it
//! performs — node additions, edge insertions/deletions, label
//! changes, attribute writes — as a [`GraphDelta`]. Node ids are stable across the thaw→mutate→refreeze
//! round trip, so a delta is directly addressable against both the old
//! and the new snapshot: consumers (incremental dual simulation in
//! `gfd-match`, incremental violation detection in `gfd-core`,
//! workload refresh in `gfd-parallel`) repair their derived state by
//! touching only the recorded neighborhood instead of recomputing —
//! the update-time discipline of Berkholz et al.'s query maintenance
//! under updates.
//!
//! A delta records *successful* mutations only (re-adding an existing
//! edge or removing an absent one is a no-op and leaves no record), so
//! after [`GraphDelta::normalize`]:
//!
//! * every `added_edges` entry is absent from the base snapshot and
//!   present in the result;
//! * every `removed_edges` entry is present in the base and absent
//!   from the result;
//! * label changes carry the base label and the final label, and nodes
//!   added during the session fold their final label into
//!   `added_nodes` instead;
//! * attribute ops keep only the last write per `(node, attribute)`;
//! * every list is sorted by its key, so one net effect has one
//!   normal form.
//!
//! The producers (`take_delta`, `merge`, `compact`) make this normal
//! form; every consumer takes a delta as it is.
//!
//! A delta applies to a snapshot or to a builder.
//! [`Graph::apply_delta_in_place`] patches a snapshot copy-on-write —
//! editing what it holds alone where it lies (an epoch no reader
//! pinned), copying what another snapshot shares (a pinned one) — and
//! [`Graph::apply_delta`] is that patch on a shallow copy, a successor
//! that shares what the delta leaves alone. [`GraphBuilder::apply_delta`]
//! edits a builder in place (a log replay that freezes once at the
//! end). [`GraphDelta::check_against`] validates against either,
//! through [`DeltaBase`].
//!
//! [`Graph::apply_delta_in_place`]: crate::Graph::apply_delta_in_place
//! [`GraphBuilder::apply_delta`]: crate::GraphBuilder::apply_delta

use std::fmt;
use std::sync::Arc;

use crate::graph::{Edge, Graph, GraphBuilder, NodeId};
use crate::value::Value;
use crate::vocab::Sym;

/// Why a delta was rejected by [`GraphDelta::check_against`].
///
/// A delta that arrives over a wire (the standing-violation service's
/// edit stream) is hostile input: it may reference node ids past the
/// snapshot, claim to add edges that already exist, or remove edges
/// that do not. Applying such a delta would corrupt the page patch, so
/// ingest validates first and leaves the epoch untouched on rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// `delta.base_nodes` disagrees with the snapshot's node count.
    BaseMismatch {
        /// The delta's claimed base node count.
        delta_base: usize,
        /// The snapshot's actual node count.
        graph_nodes: usize,
    },
    /// An edge endpoint or attribute/label target past the node range.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Exclusive id limit (base + added nodes).
        limit: usize,
    },
    /// Added node ids must be dense: `base_nodes..base_nodes + k`.
    NonDenseAddedNode {
        /// The id the delta carries.
        node: NodeId,
        /// The id it should carry at its position.
        expected: NodeId,
    },
    /// An `added_edges` entry already present in the base snapshot.
    EdgeAlreadyPresent {
        /// The duplicate edge.
        edge: Edge,
    },
    /// A `removed_edges` entry absent from the base snapshot.
    EdgeAbsent {
        /// The missing edge.
        edge: Edge,
    },
    /// An edge named twice in `added_edges`, or twice in
    /// `removed_edges`: the second add or remove could not take effect.
    RepeatedEdge {
        /// The repeated edge.
        edge: Edge,
    },
    /// A label change whose `old` label disagrees with the snapshot.
    StaleLabel {
        /// The relabeled node.
        node: NodeId,
    },
    /// Binary decoding ran past the end of the input (a short read or
    /// a torn tail).
    Truncated {
        /// Byte offset where more input was needed.
        offset: usize,
    },
    /// Binary input that cannot be a valid encoding (bad tag byte,
    /// overlong varint, non-UTF-8 string, implausible length).
    Corrupt {
        /// Byte offset of the offending field.
        offset: usize,
        /// What was wrong with it.
        what: &'static str,
    },
    /// A decoded symbol past the vocabulary the record claims to be
    /// encoded against.
    SymOutOfRange {
        /// The offending symbol.
        sym: Sym,
        /// Exclusive symbol limit.
        limit: u32,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BaseMismatch {
                delta_base,
                graph_nodes,
            } => write!(
                f,
                "delta based on {delta_base} nodes, snapshot has {graph_nodes}"
            ),
            DeltaError::NodeOutOfRange { node, limit } => {
                write!(f, "node id {} out of range (limit {limit})", node.index())
            }
            DeltaError::NonDenseAddedNode { node, expected } => write!(
                f,
                "added node id {} not dense (expected {})",
                node.index(),
                expected.index()
            ),
            DeltaError::EdgeAlreadyPresent { edge } => write!(
                f,
                "added edge {}→{} already present",
                edge.src.index(),
                edge.dst.index()
            ),
            DeltaError::EdgeAbsent { edge } => write!(
                f,
                "removed edge {}→{} absent from snapshot",
                edge.src.index(),
                edge.dst.index()
            ),
            DeltaError::RepeatedEdge { edge } => write!(
                f,
                "edge {}→{} named twice in one edge list",
                edge.src.index(),
                edge.dst.index()
            ),
            DeltaError::StaleLabel { node } => {
                write!(f, "stale label change on node {}", node.index())
            }
            DeltaError::Truncated { offset } => {
                write!(f, "encoding truncated at byte {offset}")
            }
            DeltaError::Corrupt { offset, what } => {
                write!(f, "corrupt encoding at byte {offset}: {what}")
            }
            DeltaError::SymOutOfRange { sym, limit } => {
                write!(f, "symbol {} out of range (limit {limit})", sym.0)
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// What [`GraphDelta::check_against`] reads of the graph a delta claims
/// to be based on: a frozen [`Graph`] on the ingest path, the replay
/// [`GraphBuilder`] in log recovery.
pub trait DeltaBase {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// True if the edge `(src, dst, label)` exists (`false` for
    /// out-of-range ids).
    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool;
    /// The label of an in-range `node`.
    fn label(&self, node: NodeId) -> Sym;
}

impl DeltaBase for Graph {
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }
    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        Graph::has_edge(self, src, dst, label)
    }
    fn label(&self, node: NodeId) -> Sym {
        Graph::label(self, node)
    }
}

impl DeltaBase for GraphBuilder {
    fn node_count(&self) -> usize {
        GraphBuilder::node_count(self)
    }
    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        GraphBuilder::has_edge(self, src, dst, label)
    }
    fn label(&self, node: NodeId) -> Sym {
        GraphBuilder::label(self, node)
    }
}

/// Snapshots are shared as `Arc<Graph>`; a check takes the pointer as
/// readily as the graph.
impl<B: DeltaBase + ?Sized> DeltaBase for Arc<B> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        (**self).has_edge(src, dst, label)
    }
    fn label(&self, node: NodeId) -> Sym {
        (**self).label(node)
    }
}

/// One node relabeling `old → new` (type noise, repair).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelChange {
    /// The relabeled node.
    pub node: NodeId,
    /// Its label in the base snapshot.
    pub old: Sym,
    /// Its label in the edited snapshot.
    pub new: Sym,
}

/// One attribute write: `Some(value)` sets, `None` removes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrOp {
    /// The node whose tuple changed.
    pub node: NodeId,
    /// The attribute name.
    pub attr: Sym,
    /// The new value, or `None` for removal.
    pub value: Option<Value>,
}

/// The recorded difference between a base snapshot and its edited
/// successor, in normal form. Produced by [`GraphBuilder::take_delta`]
/// (automatically recorded by [`Graph::thaw`]/[`Graph::edit_with_delta`])
/// and consumed as it is by [`Graph::apply_delta`], [`GraphBuilder::apply_delta`]
/// and the incremental maintenance subsystems.
///
/// [`GraphBuilder::take_delta`]: crate::GraphBuilder::take_delta
/// [`Graph::thaw`]: crate::Graph::thaw
/// [`Graph::edit_with_delta`]: crate::Graph::edit_with_delta
/// [`Graph::apply_delta`]: crate::Graph::apply_delta
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Node count of the base snapshot; added nodes have ids
    /// `base_nodes..base_nodes + added_nodes.len()`.
    pub base_nodes: usize,
    /// Nodes added during the session, with their (final) labels, in
    /// id order.
    pub added_nodes: Vec<(NodeId, Sym)>,
    /// Edges inserted (net of cancellations after [`normalize`], then
    /// sorted by `(src, label, dst)`).
    ///
    /// [`normalize`]: GraphDelta::normalize
    pub added_edges: Vec<Edge>,
    /// Edges deleted (net of cancellations after `normalize`, sorted
    /// likewise).
    pub removed_edges: Vec<Edge>,
    /// Relabelings of *base* nodes (added nodes fold into
    /// `added_nodes`); after `normalize` one per node, sorted by node.
    pub label_changes: Vec<LabelChange>,
    /// Attribute writes in application order; after `normalize` the
    /// last write per `(node, attr)`, sorted by `(node, attr)`.
    pub attr_ops: Vec<AttrOp>,
}

impl GraphDelta {
    /// An empty delta over a base of `base_nodes` nodes.
    pub fn new(base_nodes: usize) -> Self {
        GraphDelta {
            base_nodes,
            ..Default::default()
        }
    }

    /// True if the session performed no recorded mutation.
    pub fn is_empty(&self) -> bool {
        self.added_nodes.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.label_changes.is_empty()
            && self.attr_ops.is_empty()
    }

    /// Replaces `v`'s contents with every node the delta mentions (edge
    /// endpoints, relabeled and attribute-touched nodes, added nodes),
    /// sorted and deduplicated: the "affected neighborhood" seed
    /// consumers re-check, in a buffer they keep across deltas.
    pub fn touched_nodes(&self, v: &mut Vec<NodeId>) {
        v.clear();
        v.extend(self.added_nodes.iter().map(|&(n, _)| n));
        for e in self.added_edges.iter().chain(&self.removed_edges) {
            v.push(e.src);
            v.push(e.dst);
        }
        v.extend(self.label_changes.iter().map(|c| c.node));
        v.extend(self.attr_ops.iter().map(|o| o.node));
        v.sort_unstable();
        v.dedup();
    }

    /// Cancels add/remove pairs, coalesces label changes (base label →
    /// final label, dropping identities and folding relabelings of
    /// freshly added nodes into `added_nodes`), and keeps only the last
    /// write per `(node, attribute)`. Every list comes out sorted by
    /// its key: edges by `(src, label, dst)`, label changes by node,
    /// attribute writes by `(node, attr)` — so the normal form is
    /// canonical. Each list is sorted in place: nothing is allocated
    /// but a stable sort's scratch, which std keeps on the stack for a
    /// short list.
    ///
    /// Recording only captures successful mutations, so per edge key
    /// the recorded ops alternate and the net effect is `-1`, `0` or
    /// `+1`; `normalize` reduces the recorded history to that net
    /// effect.
    pub fn normalize(mut self) -> Self {
        // Edges: sorted, an add and a remove of one key cancel, and
        // what is left of a key is one op (its ops alternated, so at
        // most one is left unless the history repeated an op).
        self.added_edges.sort_unstable_by_key(edge_key);
        self.removed_edges.sort_unstable_by_key(edge_key);
        cancel_pairs(&mut self.added_edges, &mut self.removed_edges);
        self.added_edges.dedup();
        self.removed_edges.dedup();

        // Label changes: per node the first old and the last new, in a
        // stable sort's runs; relabelings of session-added nodes update
        // the added_nodes record instead, and identities drop out.
        self.label_changes.sort_by_key(|c| c.node);
        self.label_changes.dedup_by(|later, first| {
            let same = later.node == first.node;
            if same {
                first.new = later.new;
            }
            same
        });
        let (base, added) = (self.base_nodes, &mut self.added_nodes);
        self.label_changes
            .retain(|c| match c.node.index().checked_sub(base) {
                Some(slot) => {
                    added[slot].1 = c.new;
                    false
                }
                None => c.old != c.new,
            });

        // Attributes: reversed, the last write per (node, attr) heads
        // its run of a stable sort, and dedup keeps a run's head.
        self.attr_ops.reverse();
        self.attr_ops.sort_by_key(|op| (op.node, op.attr));
        self.attr_ops.dedup_by_key(|op| (op.node, op.attr));
        self
    }

    /// Sequential composition: `self` takes a base snapshot `B₀` to
    /// `B₁`, `later` takes `B₁` to `B₂`; the merged delta takes `B₀`
    /// directly to `B₂`. Opposing operations across the two deltas
    /// cancel (an edge added by `self` and removed by `later` leaves
    /// no trace; an attribute written twice keeps the last value).
    /// To fold more than two deltas use [`GraphDelta::compact`], which
    /// normalizes once instead of once per step.
    ///
    /// `later` must be based on `self`'s result (its `base_nodes`
    /// equals `self.base_nodes + self.added_nodes.len()`) — deltas
    /// recorded by consecutive [`Graph::edit_with_delta`] sessions
    /// satisfy this by construction.
    pub fn merge(mut self, later: GraphDelta) -> GraphDelta {
        self.append(&later);
        self.normalize()
    }

    /// Folds a chain of deltas (each based on its predecessor's
    /// result, as for [`merge`](GraphDelta::merge)) into the one
    /// normalized delta that takes the first delta's base directly to
    /// the last delta's result; `None` for an empty chain. This is the
    /// batch-compaction primitive of the edit-stream engine: one page
    /// patch and one state repair serve the whole batch, and
    /// re-enumerations pinned at nodes touched by several edits run
    /// once. Each list of the net delta is reserved once at the
    /// chain's total, filled once and normalized in place, so the cost
    /// is linear in the chain's total size (plus the sorts).
    ///
    /// # Panics
    ///
    /// If a delta is not based on its predecessor's result;
    /// [`check_ids`](GraphDelta::check_ids) against the running node
    /// count rules that out for deltas from outside.
    pub fn compact(chain: &[GraphDelta]) -> Option<GraphDelta> {
        fn reserved<T>(chain: &[GraphDelta], list: impl Fn(&GraphDelta) -> &Vec<T>) -> Vec<T> {
            Vec::with_capacity(chain.iter().map(|d| list(d).len()).sum())
        }
        let mut net = GraphDelta {
            base_nodes: chain.first()?.base_nodes,
            added_nodes: reserved(chain, |d| &d.added_nodes),
            added_edges: reserved(chain, |d| &d.added_edges),
            removed_edges: reserved(chain, |d| &d.removed_edges),
            label_changes: reserved(chain, |d| &d.label_changes),
            attr_ops: reserved(chain, |d| &d.attr_ops),
        };
        for delta in chain {
            net.append(delta);
        }
        Some(net.normalize())
    }

    /// Concatenates `later`'s recorded operations after this delta's.
    /// Concatenation preserves application order, so a following
    /// [`normalize`](GraphDelta::normalize) computes exactly the net
    /// effect of running both sessions.
    fn append(&mut self, later: &GraphDelta) {
        assert_eq!(
            later.base_nodes,
            self.base_nodes + self.added_nodes.len(),
            "later delta is not based on this delta's result snapshot"
        );
        self.added_nodes.extend_from_slice(&later.added_nodes);
        self.added_edges.extend_from_slice(&later.added_edges);
        self.removed_edges.extend_from_slice(&later.removed_edges);
        self.label_changes.extend_from_slice(&later.label_changes);
        self.attr_ops.extend_from_slice(&later.attr_ops);
    }

    /// Structural validation of a (possibly hostile) **raw** delta:
    /// the claimed base matches `base_nodes`, added-node ids are
    /// dense, and every mentioned node id is within
    /// `base_nodes + added` range. This is everything [`normalize`] /
    /// [`merge`] assume (their added-node folding indexes by id), so
    /// an ingest path that `check_ids`-validates each delta of a
    /// batch before compacting can never panic on hostile input —
    /// raw deltas may still contain add/remove pairs that cancel,
    /// which is fine here and rejected nowhere.
    ///
    /// [`normalize`]: GraphDelta::normalize
    /// [`merge`]: GraphDelta::merge
    pub fn check_ids(&self, base_nodes: usize) -> Result<(), DeltaError> {
        if self.base_nodes != base_nodes {
            return Err(DeltaError::BaseMismatch {
                delta_base: self.base_nodes,
                graph_nodes: base_nodes,
            });
        }
        for (i, &(node, _)) in self.added_nodes.iter().enumerate() {
            let expected = NodeId((self.base_nodes + i) as u32);
            if node != expected {
                return Err(DeltaError::NonDenseAddedNode { node, expected });
            }
        }
        let limit = self.base_nodes + self.added_nodes.len();
        let in_range = |n: NodeId| n.index() < limit;
        for e in self.added_edges.iter().chain(&self.removed_edges) {
            if !in_range(e.src) || !in_range(e.dst) {
                let node = if in_range(e.src) { e.dst } else { e.src };
                return Err(DeltaError::NodeOutOfRange { node, limit });
            }
        }
        for c in &self.label_changes {
            if !in_range(c.node) {
                return Err(DeltaError::NodeOutOfRange {
                    node: c.node,
                    limit,
                });
            }
        }
        for op in &self.attr_ops {
            if !in_range(op.node) {
                return Err(DeltaError::NodeOutOfRange {
                    node: op.node,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Validates a (possibly hostile) delta against the graph it claims
    /// to be based on — a snapshot or a builder — without applying
    /// anything. `Ok(())` guarantees [`Graph::apply_delta`] and
    /// [`GraphBuilder::apply_delta`] produce the correct successor;
    /// any violation of the [`normalize`] invariants — wrong base,
    /// out-of-range or non-dense node ids, adding a present edge,
    /// removing an absent one, naming one edge twice in a list, a
    /// stale label change — is reported as the first [`DeltaError`]
    /// found.
    ///
    /// Call on a normalized delta (ingest normalizes first); raw
    /// recorded deltas may legitimately contain add/remove pairs that
    /// cancel — use [`check_ids`](GraphDelta::check_ids) for those.
    ///
    /// [`normalize`]: GraphDelta::normalize
    /// [`GraphBuilder::apply_delta`]: crate::GraphBuilder::apply_delta
    pub fn check_against(&self, g: &(impl DeltaBase + ?Sized)) -> Result<(), DeltaError> {
        self.check_ids(g.node_count())?;
        for edges in [&self.added_edges, &self.removed_edges] {
            if let Some(edge) = repeated_edge(edges) {
                return Err(DeltaError::RepeatedEdge { edge });
            }
        }
        for e in &self.added_edges {
            let base_endpoints = e.src.index() < self.base_nodes && e.dst.index() < self.base_nodes;
            if base_endpoints && g.has_edge(e.src, e.dst, e.label) {
                return Err(DeltaError::EdgeAlreadyPresent { edge: *e });
            }
        }
        for e in &self.removed_edges {
            // A removed edge existed in the base snapshot, so both
            // endpoints must be base nodes and the edge present.
            if e.src.index() >= self.base_nodes || e.dst.index() >= self.base_nodes {
                let node = if e.src.index() >= self.base_nodes {
                    e.src
                } else {
                    e.dst
                };
                return Err(DeltaError::NodeOutOfRange {
                    node,
                    limit: self.base_nodes,
                });
            }
            if !g.has_edge(e.src, e.dst, e.label) {
                return Err(DeltaError::EdgeAbsent { edge: *e });
            }
        }
        for c in &self.label_changes {
            if c.node.index() >= self.base_nodes {
                return Err(DeltaError::NodeOutOfRange {
                    node: c.node,
                    limit: self.base_nodes,
                });
            }
            if g.label(c.node) != c.old {
                return Err(DeltaError::StaleLabel { node: c.node });
            }
        }
        Ok(())
    }

    /// Appends the plain-bytes encoding of this delta to `out` (no
    /// serde: varint-framed fields, values tagged by kind — see the
    /// `wire` module). The encoding is self-delimiting; a write-ahead
    /// log frames it with an epoch header and a trailing checksum.
    ///
    /// Added-node ids are **not** written: [`check_ids`] guarantees
    /// they are dense from `base_nodes`, so [`decode`] reconstructs
    /// them — a hostile stream cannot even express a non-dense id.
    ///
    /// [`check_ids`]: GraphDelta::check_ids
    /// [`decode`]: GraphDelta::decode
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.base_nodes as u64);
        wire::put_varint(out, self.added_nodes.len() as u64);
        for &(_, label) in &self.added_nodes {
            wire::put_varint(out, label.0 as u64);
        }
        for edges in [&self.added_edges, &self.removed_edges] {
            wire::put_varint(out, edges.len() as u64);
            for e in edges.iter() {
                wire::put_varint(out, e.src.0 as u64);
                wire::put_varint(out, e.dst.0 as u64);
                wire::put_varint(out, e.label.0 as u64);
            }
        }
        wire::put_varint(out, self.label_changes.len() as u64);
        for c in &self.label_changes {
            wire::put_varint(out, c.node.0 as u64);
            wire::put_varint(out, c.old.0 as u64);
            wire::put_varint(out, c.new.0 as u64);
        }
        wire::put_varint(out, self.attr_ops.len() as u64);
        for op in &self.attr_ops {
            wire::put_varint(out, op.node.0 as u64);
            wire::put_varint(out, op.attr.0 as u64);
            wire::put_value(out, op.value.as_ref());
        }
    }

    /// Decodes a delta from (possibly hostile) bytes. Never panics:
    /// every length is bounds-checked against the remaining input,
    /// every symbol is checked against `sym_limit` (the vocabulary
    /// size the record claims to be encoded against), and the decoded
    /// delta is passed through the [`check_ids`] machinery before it
    /// is returned — so a successfully decoded delta upholds every
    /// structural invariant [`normalize`]/[`merge`] assume. Trailing
    /// bytes after the encoding are rejected.
    ///
    /// [`check_ids`]: GraphDelta::check_ids
    /// [`normalize`]: GraphDelta::normalize
    /// [`merge`]: GraphDelta::merge
    pub fn decode(bytes: &[u8], sym_limit: u32) -> Result<GraphDelta, DeltaError> {
        let mut r = wire::Reader::new(bytes);
        let delta = GraphDelta::decode_body(&mut r, sym_limit)?;
        r.finish()?;
        Ok(delta)
    }

    /// Encodes the write-ahead log's per-epoch record payload: the
    /// names interned since the previous frame (so replay can rebuild
    /// the vocabulary incrementally) followed by [`encode_into`].
    ///
    /// [`encode_into`]: GraphDelta::encode_into
    pub fn encode_with_symbols(&self, new_symbols: &[std::sync::Arc<str>], out: &mut Vec<u8>) {
        wire::put_varint(out, new_symbols.len() as u64);
        for s in new_symbols {
            wire::put_str(out, s);
        }
        self.encode_into(out);
    }

    /// Decodes a record payload written by [`encode_with_symbols`]:
    /// returns the newly interned names and the delta, whose symbols
    /// were validated against `base_syms + new names`. Same hostility
    /// contract as [`decode`] — errors, never panics.
    ///
    /// [`encode_with_symbols`]: GraphDelta::encode_with_symbols
    /// [`decode`]: GraphDelta::decode
    pub fn decode_with_symbols(
        bytes: &[u8],
        base_syms: u32,
    ) -> Result<(Vec<String>, GraphDelta), DeltaError> {
        let mut r = wire::Reader::new(bytes);
        let n = r.element_count("new symbols")?;
        let mut names = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(r.str()?.to_string());
        }
        let sym_limit = u32::try_from(n)
            .ok()
            .and_then(|n| base_syms.checked_add(n))
            .ok_or(DeltaError::Corrupt {
                offset: r.offset(),
                what: "symbol count overflows u32",
            })?;
        let delta = GraphDelta::decode_body(&mut r, sym_limit)?;
        r.finish()?;
        Ok((names, delta))
    }

    /// The shared decoder body behind [`decode`] and
    /// [`decode_with_symbols`]; the caller owns end-of-input handling.
    ///
    /// [`decode`]: GraphDelta::decode
    /// [`decode_with_symbols`]: GraphDelta::decode_with_symbols
    fn decode_body(r: &mut wire::Reader<&[u8]>, sym_limit: u32) -> Result<GraphDelta, DeltaError> {
        let base_nodes = r.varint_usize("base_nodes")?;
        let mut delta = GraphDelta::new(base_nodes);

        let sym = |r: &mut wire::Reader<&[u8]>| -> Result<Sym, DeltaError> {
            let s = r.varint_u32("symbol")?;
            if s >= sym_limit {
                return Err(DeltaError::SymOutOfRange {
                    sym: Sym(s),
                    limit: sym_limit,
                });
            }
            Ok(Sym(s))
        };
        let node = |r: &mut wire::Reader<&[u8]>| -> Result<NodeId, DeltaError> {
            Ok(NodeId(r.varint_u32("node id")?))
        };

        let added = r.element_count("added_nodes")?;
        for i in 0..added {
            let id = base_nodes
                .checked_add(i)
                .filter(|&v| v <= u32::MAX as usize)
                .ok_or(DeltaError::Corrupt {
                    offset: r.offset(),
                    what: "added-node id overflows u32",
                })?;
            let label = sym(&mut *r)?;
            delta.added_nodes.push((NodeId(id as u32), label));
        }
        for list in [&mut delta.added_edges, &mut delta.removed_edges] {
            let count = r.element_count("edges")?;
            for _ in 0..count {
                let (src, dst) = (node(&mut *r)?, node(&mut *r)?);
                let label = sym(&mut *r)?;
                list.push(Edge { src, dst, label });
            }
        }
        let labels = r.element_count("label_changes")?;
        for _ in 0..labels {
            let n = node(&mut *r)?;
            let (old, new) = (sym(&mut *r)?, sym(&mut *r)?);
            delta.label_changes.push(LabelChange { node: n, old, new });
        }
        let attrs = r.element_count("attr_ops")?;
        for _ in 0..attrs {
            let n = node(&mut *r)?;
            let attr = sym(&mut *r)?;
            let value = r.value()?;
            delta.attr_ops.push(AttrOp {
                node: n,
                attr,
                value,
            });
        }
        // The id machinery the in-memory ingest path runs on wire
        // deltas: dense added-node ids (true by construction here) and
        // every mentioned id inside `base + added`.
        delta.check_ids(base_nodes)?;
        Ok(delta)
    }
}

/// The order a normalized edge list is sorted in.
fn edge_key(e: &Edge) -> (NodeId, Sym, NodeId) {
    (e.src, e.label, e.dst)
}

/// Drops an add and a remove of one key together, in one merge pass
/// over two lists sorted by [`edge_key`]; what is left of each keeps
/// its order.
fn cancel_pairs(added: &mut Vec<Edge>, removed: &mut Vec<Edge>) {
    let (mut read, mut kept) = (0, 0);
    added.retain(|a| {
        while removed.get(read).is_some_and(|r| edge_key(r) < edge_key(a)) {
            removed[kept] = removed[read];
            (read, kept) = (read + 1, kept + 1);
        }
        let cancels = removed
            .get(read)
            .is_some_and(|r| edge_key(r) == edge_key(a));
        read += usize::from(cancels);
        !cancels
    });
    removed.drain(kept..read);
}

/// The first edge `edges` names twice, if any: one pass over a list
/// sorted by `(src, label, dst)` — the order [`GraphDelta::normalize`]
/// leaves, so ingest and replay allocate nothing here — and a sorted
/// copy of any other.
fn repeated_edge(edges: &[Edge]) -> Option<Edge> {
    if edges.windows(2).all(|w| edge_key(&w[0]) < edge_key(&w[1])) {
        return None;
    }
    let mut sorted = edges.to_vec();
    sorted.sort_unstable_by_key(edge_key);
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

/// Byte-level primitives shared by the [`GraphDelta`] and
/// [`crate::io::GraphData`] binary codecs: LEB128 varints, tagged
/// [`Value`]s, length-prefixed UTF-8 strings, and a bounds-checked
/// [`Reader`](wire::Reader) whose every error is a [`DeltaError`] —
/// hostile input surfaces as `Err`, never as a panic.
pub(crate) mod wire {
    use super::DeltaError;
    use crate::value::Value;
    use std::sync::Arc;

    /// Value kind tags; `TAG_NONE` encodes an attribute removal.
    const TAG_NONE: u8 = 0;
    const TAG_STR: u8 = 1;
    const TAG_INT: u8 = 2;
    const TAG_BOOL: u8 = 3;

    /// LEB128: 7 value bits per byte, high bit = continuation.
    pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Length-prefixed UTF-8 bytes.
    pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
        put_varint(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }

    /// Tagged value; `None` is an attribute removal.
    pub(crate) fn put_value(out: &mut Vec<u8>, v: Option<&Value>) {
        match v {
            None => out.push(TAG_NONE),
            Some(Value::Str(s)) => {
                out.push(TAG_STR);
                put_str(out, s);
            }
            Some(Value::Int(i)) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Some(Value::Bool(b)) => {
                out.push(TAG_BOOL);
                out.push(*b as u8);
            }
        }
    }

    /// Where a [`Reader`]'s bytes come from: a window onto the input,
    /// which is the whole input when it is in memory, or the part of a
    /// chunked input read so far and not yet consumed.
    pub(crate) trait Input {
        /// The bytes held.
        fn window(&self) -> &[u8];
        /// Drops the window's first `consumed` bytes and reads on until
        /// it holds at least `need` bytes. Called only when the input
        /// has that many bytes left; `false` if they cannot be read,
        /// the window then holding what was.
        fn refill(&mut self, consumed: usize, need: usize) -> bool;
    }

    /// An input held whole: there is nothing to read on from.
    impl Input for &[u8] {
        fn window(&self) -> &[u8] {
            self
        }
        fn refill(&mut self, consumed: usize, _: usize) -> bool {
            *self = &self[consumed..];
            false
        }
    }

    /// A bounds-checked cursor over untrusted bytes. Offsets, and so
    /// error offsets, count from the input's start, whichever window
    /// holds them.
    pub(crate) struct Reader<I> {
        input: I,
        /// Position in the window.
        pos: usize,
        /// Input offset of the window's first byte.
        start: usize,
        /// Input length.
        len: usize,
    }

    impl<'a> Reader<&'a [u8]> {
        /// A reader over an input held whole: one window, one chunk.
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            Reader::over(bytes, bytes.len())
        }
    }

    impl<I: Input> Reader<I> {
        /// A reader over the `len` bytes `input` holds or reads.
        pub(crate) fn over(input: I, len: usize) -> Self {
            Reader {
                input,
                pos: 0,
                start: 0,
                len,
            }
        }

        /// Current byte offset (for error reporting).
        pub(crate) fn offset(&self) -> usize {
            self.start + self.pos
        }

        fn remaining(&self) -> usize {
            self.len - self.offset()
        }

        /// Brings the next `n` bytes into the window.
        #[inline]
        fn want(&mut self, n: usize) -> Result<(), DeltaError> {
            if self.input.window().len() - self.pos >= n {
                return Ok(());
            }
            self.refill(n)
        }

        /// [`want`](Reader::want) past the window: an element cut by a
        /// chunk boundary is completed from the next chunk. Past the
        /// input's end, or where it cannot be read, the input is
        /// truncated — so a claimed length is never read or buffered
        /// beyond the bytes the input holds.
        #[cold]
        fn refill(&mut self, n: usize) -> Result<(), DeltaError> {
            if n > self.remaining() {
                return Err(DeltaError::Truncated { offset: self.len });
            }
            let refilled = self.input.refill(self.pos, n);
            self.start += self.pos;
            self.pos = 0;
            if !refilled {
                let offset = self.start + self.input.window().len();
                return Err(DeltaError::Truncated { offset });
            }
            Ok(())
        }

        pub(crate) fn byte(&mut self) -> Result<u8, DeltaError> {
            self.want(1)?;
            let b = self.input.window()[self.pos];
            self.pos += 1;
            Ok(b)
        }

        pub(crate) fn take(&mut self, n: usize) -> Result<&[u8], DeltaError> {
            self.want(n)?;
            self.pos += n;
            Ok(&self.input.window()[self.pos - n..self.pos])
        }

        /// LEB128 u64; overlong encodings (more than 10 bytes, or a
        /// final byte overflowing 64 bits) are corrupt, so every value
        /// has exactly one encoding.
        pub(crate) fn varint(&mut self) -> Result<u64, DeltaError> {
            let start = self.offset();
            let mut v: u64 = 0;
            for shift in (0..64).step_by(7) {
                let byte = self.byte()?;
                let low = (byte & 0x7F) as u64;
                if shift == 63 && low > 1 {
                    return Err(DeltaError::Corrupt {
                        offset: start,
                        what: "varint overflows u64",
                    });
                }
                v |= low << shift;
                if byte & 0x80 == 0 {
                    if byte == 0 && shift > 0 {
                        return Err(DeltaError::Corrupt {
                            offset: start,
                            what: "overlong varint",
                        });
                    }
                    return Ok(v);
                }
            }
            Err(DeltaError::Corrupt {
                offset: start,
                what: "varint longer than 10 bytes",
            })
        }

        /// A varint that must fit `u32` (node ids, symbols).
        pub(crate) fn varint_u32(&mut self, what: &'static str) -> Result<u32, DeltaError> {
            let offset = self.offset();
            u32::try_from(self.varint()?).map_err(|_| DeltaError::Corrupt {
                offset,
                what: wide32(what),
            })
        }

        /// A varint that must fit `usize`.
        pub(crate) fn varint_usize(&mut self, what: &'static str) -> Result<usize, DeltaError> {
            let offset = self.offset();
            usize::try_from(self.varint()?).map_err(|_| DeltaError::Corrupt {
                offset,
                what: wide32(what),
            })
        }

        /// An element count. Every encoded element occupies at least
        /// one byte, so a count beyond the remaining input is corrupt
        /// — this caps attacker-controlled pre-allocation at the size
        /// of the input itself.
        pub(crate) fn element_count(&mut self, what: &'static str) -> Result<usize, DeltaError> {
            let offset = self.offset();
            let n = self.varint_usize(what)?;
            if n > self.remaining() {
                return Err(DeltaError::Corrupt {
                    offset,
                    what: "element count exceeds input size",
                });
            }
            Ok(n)
        }

        /// Length-prefixed UTF-8, borrowed from the window.
        pub(crate) fn str(&mut self) -> Result<&str, DeltaError> {
            let len = self.varint_usize("string length")?;
            let offset = self.offset();
            std::str::from_utf8(self.take(len)?).map_err(|_| DeltaError::Corrupt {
                offset,
                what: "string is not UTF-8",
            })
        }

        /// Tagged value; unknown tags and non-0/1 booleans are corrupt.
        pub(crate) fn value(&mut self) -> Result<Option<Value>, DeltaError> {
            self.value_with(|s| Arc::from(s))
        }

        /// [`value`](Reader::value), its string made by `string`.
        pub(crate) fn value_with(
            &mut self,
            string: impl FnOnce(&str) -> Arc<str>,
        ) -> Result<Option<Value>, DeltaError> {
            let offset = self.offset();
            match self.byte()? {
                TAG_NONE => Ok(None),
                TAG_STR => Ok(Some(Value::Str(string(self.str()?)))),
                TAG_INT => {
                    let raw = self.take(8)?;
                    Ok(Some(Value::Int(i64::from_le_bytes(
                        raw.try_into().expect("take(8) yields 8 bytes"),
                    ))))
                }
                TAG_BOOL => match self.byte()? {
                    0 => Ok(Some(Value::Bool(false))),
                    1 => Ok(Some(Value::Bool(true))),
                    _ => Err(DeltaError::Corrupt {
                        offset,
                        what: "boolean byte is neither 0 nor 1",
                    }),
                },
                _ => Err(DeltaError::Corrupt {
                    offset,
                    what: "unknown value tag",
                }),
            }
        }

        /// Asserts the input was consumed exactly.
        pub(crate) fn finish(self) -> Result<(), DeltaError> {
            if self.offset() != self.len {
                return Err(DeltaError::Corrupt {
                    offset: self.offset(),
                    what: "trailing bytes after encoding",
                });
            }
            Ok(())
        }
    }

    /// Shared "doesn't fit 32 bits" message (the field name is carried
    /// by the caller's error site; keeping one static string per field
    /// would bloat the reader's signatures for no diagnostic gain).
    fn wide32(_what: &'static str) -> &'static str {
        "value too wide for its field"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: u32, d: u32, l: u32) -> Edge {
        Edge {
            src: NodeId(s),
            dst: NodeId(d),
            label: Sym(l),
        }
    }

    fn rich_delta() -> GraphDelta {
        let mut d = GraphDelta::new(3);
        d.added_nodes.push((NodeId(3), Sym(2)));
        d.added_nodes.push((NodeId(4), Sym(0)));
        d.added_edges.push(e(0, 3, 5));
        d.added_edges.push(e(4, 1, 5));
        d.removed_edges.push(e(1, 2, 6));
        d.label_changes.push(LabelChange {
            node: NodeId(2),
            old: Sym(1),
            new: Sym(3),
        });
        d.attr_ops.push(AttrOp {
            node: NodeId(0),
            attr: Sym(7),
            value: Some(Value::str("spam")),
        });
        d.attr_ops.push(AttrOp {
            node: NodeId(3),
            attr: Sym(8),
            value: Some(Value::Int(-42)),
        });
        d.attr_ops.push(AttrOp {
            node: NodeId(4),
            attr: Sym(8),
            value: Some(Value::Bool(true)),
        });
        d.attr_ops.push(AttrOp {
            node: NodeId(1),
            attr: Sym(7),
            value: None,
        });
        d
    }

    #[test]
    fn codec_round_trip_is_identity() {
        let d = rich_delta();
        let mut bytes = Vec::new();
        d.encode_into(&mut bytes);
        let back = GraphDelta::decode(&bytes, 9).unwrap();
        assert_eq!(back, d);

        let empty = GraphDelta::new(17);
        bytes.clear();
        empty.encode_into(&mut bytes);
        let back = GraphDelta::decode(&bytes, 0).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn codec_rejects_truncation_trailing_bytes_and_small_vocab() {
        let d = rich_delta();
        let mut bytes = Vec::new();
        d.encode_into(&mut bytes);
        // Every strict prefix must fail cleanly (torn-tail shape).
        for cut in 0..bytes.len() {
            assert!(GraphDelta::decode(&bytes[..cut], 9).is_err());
        }
        // Trailing garbage is corrupt, not silently ignored.
        bytes.push(0);
        assert!(matches!(
            GraphDelta::decode(&bytes, 9),
            Err(DeltaError::Corrupt { .. })
        ));
        bytes.pop();
        // A symbol past the claimed vocabulary is rejected even though
        // the bytes are otherwise perfectly formed.
        assert!(matches!(
            GraphDelta::decode(&bytes, 8),
            Err(DeltaError::SymOutOfRange { limit: 8, .. })
        ));
    }

    #[test]
    fn codec_rejects_overlong_varints_and_absurd_counts() {
        // 0x80 0x00 is an overlong encoding of zero.
        assert!(matches!(
            GraphDelta::decode(&[0x80, 0x00], 1),
            Err(DeltaError::Corrupt { .. })
        ));
        // base_nodes = 0, then an added-node count far beyond the
        // remaining bytes: must be rejected before any allocation.
        assert!(matches!(
            GraphDelta::decode(&[0x00, 0xFF, 0xFF, 0xFF, 0x7F], 1),
            Err(DeltaError::Corrupt { .. })
        ));
    }

    #[test]
    fn normalize_cancels_edge_flip_flops() {
        let mut d = GraphDelta::new(4);
        // Fresh edge added then removed: cancels.
        d.added_edges.push(e(0, 1, 7));
        d.removed_edges.push(e(0, 1, 7));
        // Base edge removed then re-added: cancels.
        d.removed_edges.push(e(1, 2, 7));
        d.added_edges.push(e(1, 2, 7));
        // Fresh edge added, removed, re-added: survives as one add.
        d.added_edges.push(e(2, 3, 7));
        d.removed_edges.push(e(2, 3, 7));
        d.added_edges.push(e(2, 3, 7));
        let d = d.normalize();
        assert_eq!(d.added_edges, vec![e(2, 3, 7)]);
        assert!(d.removed_edges.is_empty());
        assert!(!d.is_empty());
    }

    #[test]
    fn normalize_coalesces_label_chains() {
        let mut d = GraphDelta::new(2);
        d.added_nodes.push((NodeId(2), Sym(0)));
        // Base node relabeled twice: keeps first old / last new.
        for (old, new) in [(Sym(1), Sym(2)), (Sym(2), Sym(3))] {
            d.label_changes.push(LabelChange {
                node: NodeId(0),
                old,
                new,
            });
        }
        // Back-and-forth on another base node: drops out entirely.
        for (old, new) in [(Sym(5), Sym(6)), (Sym(6), Sym(5))] {
            d.label_changes.push(LabelChange {
                node: NodeId(1),
                old,
                new,
            });
        }
        // Added node relabeled: folds into added_nodes.
        d.label_changes.push(LabelChange {
            node: NodeId(2),
            old: Sym(0),
            new: Sym(9),
        });
        let d = d.normalize();
        assert_eq!(
            d.label_changes,
            vec![LabelChange {
                node: NodeId(0),
                old: Sym(1),
                new: Sym(3)
            }]
        );
        assert_eq!(d.added_nodes, vec![(NodeId(2), Sym(9))]);
    }

    #[test]
    fn normalize_keeps_last_attr_write() {
        let mut d = GraphDelta::new(1);
        d.attr_ops.push(AttrOp {
            node: NodeId(0),
            attr: Sym(4),
            value: Some(Value::Int(1)),
        });
        d.attr_ops.push(AttrOp {
            node: NodeId(0),
            attr: Sym(2),
            value: Some(Value::Int(2)),
        });
        d.attr_ops.push(AttrOp {
            node: NodeId(0),
            attr: Sym(4),
            value: None,
        });
        let d = d.normalize();
        // One write per (node, attr), the last, in (node, attr) order.
        assert_eq!(d.attr_ops.len(), 2);
        assert_eq!(d.attr_ops[0].attr, Sym(2));
        assert_eq!(d.attr_ops[1].value, None);
    }

    #[test]
    fn touched_nodes_sorted_dedup() {
        let mut d = GraphDelta::new(5);
        d.added_edges.push(e(3, 1, 0));
        d.removed_edges.push(e(1, 4, 0));
        d.attr_ops.push(AttrOp {
            node: NodeId(3),
            attr: Sym(0),
            value: None,
        });
        // A reused buffer is replaced, not appended to.
        let mut touched = vec![NodeId(0), NodeId(2)];
        d.touched_nodes(&mut touched);
        assert_eq!(touched, vec![NodeId(1), NodeId(3), NodeId(4)]);
    }
}
