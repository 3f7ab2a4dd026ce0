//! The property graph `G = (V, E, L, F_A)` of §2, split into a mutable
//! [`GraphBuilder`] and a paged, copy-on-write CSR snapshot [`Graph`].
//!
//! ## Why two types
//!
//! GFD validation is read-dominated: the matcher calls
//! `has_edge(u, v, label)` and scans per-label neighbor lists millions
//! of times per run, while mutation only happens during loading, data
//! generation and noise injection. Storing adjacency as
//! `Vec<Vec<(NodeId, Sym)>>` with a `HashMap` label index (the old
//! layout) is cache-hostile for the hot path and forces every consumer
//! that wants a stable view to clone. The split makes the common case
//! cheap:
//!
//! * [`GraphBuilder`] — append/update API (`add_node`, `add_edge`,
//!   `set_attr`, `set_label`, …). Per-node adjacency is kept sorted by
//!   `(label, dst)` so duplicate-edge rejection stays a binary search.
//! * [`Graph`] — produced by [`GraphBuilder::freeze`]: nodes are cut
//!   into fixed-size pages of consecutive ids, each page a small CSR
//!   (per-slot ranges over one contiguous adjacency array) per
//!   direction plus the page's attribute tuples, every page behind its
//!   own `Arc`. A run longer than a page has nodes lives out of line
//!   in an `Arc` of its own, named by its slot's range entry; every
//!   tuple sits behind its own `Arc` too. Each node's edge run is
//!   contiguous and sorted by `(label, dst)`, and label extents are
//!   contiguous ranges over a node permutation.
//!   `has_edge` is a binary search over one contiguous slice;
//!   per-label neighbor lists ([`Graph::neighbors_labeled`]) and label
//!   extents ([`Graph::extent`]) are zero-allocation subslices, and a
//!   node's position within its extent ([`Graph::extent_rank`]) is one
//!   load from a per-node array kept beside the permutation.
//!
//! A frozen snapshot is `Send + Sync` and shared across workers behind
//! an `Arc` — no per-worker copies — and nothing another holder can
//! see ever changes under it. Repair/noise workflows go back through
//! [`Graph::thaw`] (or the [`Graph::edit`] convenience) and re-freeze;
//! node ids are stable across the round trip.
//!
//! ## Why pages
//!
//! A successor snapshot ([`Graph::apply_delta`]) shares every page its
//! delta does not touch with its predecessor: a replayed log frame and
//! a reader's pinned snapshot each cost the pages that changed, not a
//! copy of the graph. Inside a touched page the unit of copy is the run
//! and the tuple: what a successor copies is the runs and tuples its
//! delta changes, the page's short runs (at most a page's worth of
//! entries each) and one pointer per out-of-line run and per tuple it
//! leaves alone.
//!
//! The layout is copy-on-write at every level — spine, page, run and
//! tuple — so a snapshot that holds a level alone edits it where it
//! lies ([`Graph::apply_delta_in_place`]): an epoch of the edit stream
//! that no reader pinned copies nothing. For that a page's inline
//! array and each out-of-line run keep spare capacity past their live
//! entries, grown by doubling when an insert finds them full.
//!
//! Edge semantics are unchanged from §2: edges are directed, labeled,
//! and unique per `(src, dst, label)` triple (parallel edges with
//! distinct labels are allowed, as in property graphs and RDF).

use std::fmt;
use std::sync::Arc;

use crate::attrs::AttrMap;
use crate::delta::{AttrOp, GraphDelta, LabelChange};
use crate::value::Value;
use crate::vocab::{Sym, Vocab};

/// Identifier of a node in a [`Graph`] (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed labeled edge `(src, dst, label)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Interned edge label.
    pub label: Sym,
}

/// One adjacency entry: the edge label and the neighbor it leads to.
///
/// The derived ordering is `(label, node)` — the sort key of every
/// CSR edge run, which is what makes `has_edge` a binary search and
/// per-label neighbor lists contiguous.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Adj {
    /// The edge label.
    pub label: Sym,
    /// The neighbor (`dst` in out-adjacency, `src` in in-adjacency).
    pub node: NodeId,
}

impl fmt::Debug for Adj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-[{:?}]-{:?}", self.label, self.node)
    }
}

// ---------------------------------------------------------------------
// GraphBuilder

/// The mutable construction side of a property graph.
///
/// ```
/// use gfd_graph::{GraphBuilder, Value, Vocab};
/// let vocab = Vocab::shared();
/// let mut b = GraphBuilder::new(vocab.clone());
/// let flight = b.add_node_labeled("flight");
/// let id = b.add_node_labeled("id");
/// b.add_edge_labeled(flight, id, "number");
/// b.set_attr_named(id, "val", Value::str("DL1"));
/// let g = b.freeze();
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone)]
pub struct GraphBuilder {
    vocab: Arc<Vocab>,
    labels: Vec<Sym>,
    /// One tuple per node, shared with the snapshots it came from or
    /// went into and copied on its first write: [`Graph::thaw`] copies
    /// no tuple and [`freeze`](GraphBuilder::freeze) moves them all.
    /// A tuple's `Arc` is made when it is first written, so that it
    /// sits next to its entries.
    attrs: Vec<Arc<AttrMap>>,
    /// The tuple of every node that has no attribute yet.
    no_attrs: Arc<AttrMap>,
    /// Outgoing adjacency per node, sorted by `(label, dst)`.
    out: Vec<Vec<Adj>>,
    edge_count: usize,
    /// When present, every successful mutation is appended here (see
    /// [`GraphDelta`]); enabled by [`Graph::thaw`] so edit sessions
    /// come with their delta for free.
    rec: Option<GraphDelta>,
}

impl GraphBuilder {
    /// Creates an empty builder over the given vocabulary.
    pub fn new(vocab: Arc<Vocab>) -> Self {
        GraphBuilder {
            vocab,
            labels: Vec::new(),
            attrs: Vec::new(),
            no_attrs: Arc::default(),
            out: Vec::new(),
            edge_count: 0,
            rec: None,
        }
    }

    /// Creates an empty builder with a fresh private vocabulary.
    pub fn with_fresh_vocab() -> Self {
        Self::new(Vocab::shared())
    }

    /// The shared vocabulary of this graph.
    pub fn vocab(&self) -> &Arc<Vocab> {
        &self.vocab
    }

    /// Takes the recorded delta in normal form (see
    /// [`GraphDelta::normalize`]; made here, once — every consumer takes
    /// the delta as it is), leaving recording active with a fresh base
    /// at the current node count. Returns `None` from a builder that was
    /// not recording: only builders produced by [`Graph::thaw`] start
    /// out recording.
    pub fn take_delta(&mut self) -> Option<GraphDelta> {
        let next = GraphDelta::new(self.labels.len());
        self.rec.replace(next).map(GraphDelta::normalize)
    }

    /// Adds a node with the given (already interned) label.
    pub fn add_node(&mut self, label: Sym) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.attrs.push(self.no_attrs.clone());
        self.out.push(Vec::new());
        if let Some(rec) = &mut self.rec {
            rec.added_nodes.push((id, label));
        }
        id
    }

    /// Adds a node, interning `label` first.
    pub fn add_node_labeled(&mut self, label: &str) -> NodeId {
        let sym = self.vocab.intern(label);
        self.add_node(sym)
    }

    /// Adds the edge `(src, dst, label)`. Returns `false` (and leaves
    /// the graph unchanged) if the identical edge already exists.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is not a node of this builder — here,
    /// at the insertion site, rather than deep inside
    /// [`freeze`](GraphBuilder::freeze).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        assert!(
            src.index() < self.labels.len(),
            "add_edge: src {src:?} is not a node (node_count = {})",
            self.labels.len()
        );
        assert!(
            dst.index() < self.labels.len(),
            "add_edge: dst {dst:?} is not a node (node_count = {})",
            self.labels.len()
        );
        let entry = Adj { label, node: dst };
        let out = &mut self.out[src.index()];
        match out.binary_search(&entry) {
            Ok(_) => false,
            Err(pos) => {
                out.insert(pos, entry);
                self.edge_count += 1;
                if let Some(rec) = &mut self.rec {
                    rec.added_edges.push(Edge { src, dst, label });
                }
                true
            }
        }
    }

    /// Adds an edge, interning `label` first.
    pub fn add_edge_labeled(&mut self, src: NodeId, dst: NodeId, label: &str) -> bool {
        let sym = self.vocab.intern(label);
        self.add_edge(src, dst, sym)
    }

    /// Removes the edge `(src, dst, label)`. Returns `false` (and
    /// leaves the graph unchanged) if no such edge exists — including
    /// when `src` or `dst` is not a node of this builder.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        if src.index() >= self.labels.len() || dst.index() >= self.labels.len() {
            return false;
        }
        let entry = Adj { label, node: dst };
        let out = &mut self.out[src.index()];
        match out.binary_search(&entry) {
            Ok(pos) => {
                out.remove(pos);
                self.edge_count -= 1;
                if let Some(rec) = &mut self.rec {
                    rec.removed_edges.push(Edge { src, dst, label });
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Removes an edge by label name (`false` if the label was never
    /// interned, i.e. no such edge can exist).
    pub fn remove_edge_labeled(&mut self, src: NodeId, dst: NodeId, label: &str) -> bool {
        match self.vocab.lookup(label) {
            Some(sym) => self.remove_edge(src, dst, sym),
            None => false,
        }
    }

    /// Sets attribute `attr = value` on `node`.
    pub fn set_attr(&mut self, node: NodeId, attr: Sym, value: Value) {
        if let Some(rec) = &mut self.rec {
            rec.attr_ops.push(AttrOp {
                node,
                attr,
                value: Some(value.clone()),
            });
        }
        set_shared(&mut self.attrs[node.index()], attr, value);
    }

    /// Sets an attribute, interning its name first.
    pub fn set_attr_named(&mut self, node: NodeId, attr: &str, value: Value) {
        let sym = self.vocab.intern(attr);
        self.set_attr(node, sym, value);
    }

    /// Removes attribute `attr` from `node`, returning the old value.
    pub fn remove_attr(&mut self, node: NodeId, attr: Sym) -> Option<Value> {
        let map = &mut self.attrs[node.index()];
        if !map.contains(attr) {
            return None;
        }
        if let Some(rec) = &mut self.rec {
            rec.attr_ops.push(AttrOp {
                node,
                attr,
                value: None,
            });
        }
        Arc::make_mut(map).remove(attr)
    }

    /// Relabels `node` and returns the old label. Used by noise
    /// injection ("type inconsistency") and graph repair experiments.
    pub fn set_label(&mut self, node: NodeId, label: Sym) -> Sym {
        let old = self.labels[node.index()];
        if old == label {
            return old;
        }
        self.labels[node.index()] = label;
        if let Some(rec) = &mut self.rec {
            rec.label_changes.push(LabelChange {
                node,
                old,
                new: label,
            });
        }
        old
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// The label of `node`.
    pub fn label(&self, node: NodeId) -> Sym {
        self.labels[node.index()]
    }

    /// The attribute tuple `F_A(node)`.
    pub fn attrs(&self, node: NodeId) -> &AttrMap {
        &self.attrs[node.index()]
    }

    /// The value of `node.attr`, if present.
    pub fn attr(&self, node: NodeId, attr: Sym) -> Option<&Value> {
        self.attrs(node).get(attr)
    }

    /// True if the edge `(src, dst, label)` exists — one binary search
    /// over `src`'s sorted run, as on a frozen [`Graph::has_edge`];
    /// `false` for out-of-range ids.
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        self.out
            .get(src.index())
            .is_some_and(|run| run.binary_search(&Adj { label, node: dst }).is_ok())
    }

    /// Applies a *normalized* delta in place — the builder-side twin of
    /// [`Graph::apply_delta_in_place`], for a replay that folds many
    /// deltas into one builder and freezes once instead of building a
    /// snapshot per delta. Added nodes first, then relabels, removed
    /// edges, added edges, and the attribute writes last. Recording,
    /// when on, sees the ops as mutations of its own.
    ///
    /// The delta must be consistent with this builder — based at its
    /// node count, added edges absent, removed edges present, each
    /// named once — which is what [`GraphDelta::check_against`] on the
    /// builder establishes for a delta from outside.
    pub fn apply_delta(&mut self, delta: &GraphDelta) {
        debug_assert_eq!(
            delta.base_nodes,
            self.node_count(),
            "apply_delta: delta based on a different graph"
        );
        for &(id, label) in &delta.added_nodes {
            let added = self.add_node(label);
            debug_assert_eq!(added, id, "added node ids are dense");
        }
        for c in &delta.label_changes {
            let old = self.set_label(c.node, c.new);
            debug_assert_eq!(old, c.old, "stale label change");
        }
        for e in &delta.removed_edges {
            let removed = self.remove_edge(e.src, e.dst, e.label);
            debug_assert!(removed, "removed edge {e:?} is present");
        }
        for e in &delta.added_edges {
            let added = self.add_edge(e.src, e.dst, e.label);
            debug_assert!(added, "added edge {e:?} is absent");
        }
        for op in &delta.attr_ops {
            match &op.value {
                Some(v) => self.set_attr(op.node, op.attr, v.clone()),
                None => {
                    self.remove_attr(op.node, op.attr);
                }
            }
        }
    }

    /// Room for `additional` more nodes, so a decoder that knows its
    /// node count grows the per-node arrays once.
    pub(crate) fn reserve_nodes(&mut self, additional: usize) {
        self.labels.reserve_exact(additional);
        self.attrs.reserve_exact(additional);
        self.out.reserve_exact(additional);
    }

    /// Adds a node with its whole attribute tuple, allocated once (an
    /// unrecorded bulk load: a decoder's, not an edit session's).
    pub(crate) fn add_node_with(&mut self, label: Sym, attrs: AttrMap) -> NodeId {
        debug_assert!(self.rec.is_none(), "bulk loads are not recorded");
        let id = self.add_node(label);
        if !attrs.is_empty() {
            self.attrs[id.index()] = Arc::new(attrs);
        }
        id
    }

    /// Cuts the builder into an immutable paged CSR snapshot. Node ids
    /// are preserved verbatim.
    pub fn freeze(self) -> Graph {
        let n = self.labels.len();

        // Out pages: the builder keeps each run sorted by (label, dst).
        let out = self
            .out
            .chunks(PAGE_NODES)
            .map(|runs| {
                let mut page = PageBuilder::for_lens(runs.iter().map(Vec::len));
                for run in runs {
                    page.push_run(run.len(), run.iter().copied());
                }
                Arc::new(page.finish())
            })
            .collect();

        // In pages: counting sort by destination into one array, each
        // run ordered, then cut into pages. `next[v]` is where the next
        // entry of `v`'s run goes.
        let mut degrees = vec![0u32; n];
        for run in &self.out {
            for a in run {
                degrees[a.node.index()] += 1;
            }
        }
        let mut next: Vec<u32> = degrees
            .iter()
            .scan(0, |end, &degree| {
                Some(std::mem::replace(end, *end + degree))
            })
            .collect();
        let mut in_runs = vec![FILLER; self.edge_count];
        for (src, run) in self.out.iter().enumerate() {
            for a in run {
                let at = &mut next[a.node.index()];
                in_runs[*at as usize] = Adj {
                    label: a.label,
                    node: NodeId(src as u32),
                };
                *at += 1;
            }
        }
        let mut cut = 0;
        let inn = degrees
            .chunks(PAGE_NODES)
            .map(|degrees| {
                let mut page = PageBuilder::for_lens(degrees.iter().map(|&d| d as usize));
                for &degree in degrees {
                    let run = &mut in_runs[cut..cut + degree as usize];
                    cut += run.len();
                    run.sort_unstable();
                    page.push_run(run.len(), run.iter().copied());
                }
                Arc::new(page.finish())
            })
            .collect();

        // Slots past the last node share the tuple of the nodes without
        // attributes.
        let mut maps = self.attrs.into_iter();
        let attrs = (0..page_count(n))
            .map(|_| {
                Arc::new(std::array::from_fn(|_| {
                    maps.next().unwrap_or_else(|| self.no_attrs.clone())
                }))
            })
            .collect();

        let (extent_perm, extent_ranges, extent_rank) = build_extents(&self.labels);
        Graph {
            vocab: self.vocab,
            labels: self.labels.into(),
            attrs,
            out,
            inn,
            extent_perm,
            extent_ranges,
            extent_rank,
            edge_count: self.edge_count,
        }
    }
}

impl fmt::Debug for GraphBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphBuilder")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Graph (frozen paged CSR snapshot)

/// Nodes per page, a power of two: node `u` lives in page
/// `u >> PAGE_SHIFT` at slot `u & PAGE_MASK`. Public for structures
/// paged beside the graph (the matcher's run pages), which share its
/// page boundaries.
pub const PAGE_SHIFT: u32 = 6;
const PAGE_NODES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE_NODES - 1;

/// Pages needed for `n` nodes.
fn page_count(n: usize) -> usize {
    n.div_ceil(PAGE_NODES)
}

/// The longest run a page keeps inline in its adjacency array; a
/// longer one (a hub's) lives in an allocation of its own, so that
/// copying the page for a neighbor's edit shares it instead of copying
/// it too.
const INLINE_RUN_MAX: usize = PAGE_NODES;

/// The `start` of a slot whose run is out of line. No inline range
/// starts here, so the lookup that finds an inline run is the one that
/// fails over to an out-of-line one.
const OUT_OF_LINE: u16 = u16::MAX;

// Every inline range fits the `u16` pairs of `AdjPage::runs`.
const _: () = assert!(PAGE_NODES * INLINE_RUN_MAX < OUT_OF_LINE as usize);

/// What the slots of a run hold between its allocation and its fill,
/// and an out-of-line run's room past its live length.
const FILLER: Adj = Adj {
    label: Sym(0),
    node: NodeId(0),
};

/// The attribute tuples of one page's nodes, each shared on its own: a
/// write copies the page's pointers and the one tuple it changes.
/// Slots past the last node hold the empty tuple, so adding nodes into
/// a page's free slots changes nothing.
type AttrPage = [Arc<AttrMap>; PAGE_NODES];

/// A run longer than [`INLINE_RUN_MAX`], in one allocation of its own
/// with its live length kept beside it: the run is `entries[..len]`,
/// and the slots past it are room to grow into in place.
#[derive(Clone)]
struct Hub {
    entries: Arc<[Adj]>,
    len: usize,
}

impl Hub {
    /// The `len` entries of `run` in one allocation of `room` slots.
    fn collect(len: usize, room: usize, run: impl Iterator<Item = Adj>) -> Hub {
        let mut entries: Arc<[Adj]> = std::iter::repeat_n(FILLER, room).collect();
        let slots = Arc::get_mut(&mut entries).expect("just built, not yet shared");
        let mut run = run;
        for slot in &mut slots[..len] {
            *slot = run.next().expect("a run as long as announced");
        }
        assert!(run.next().is_none(), "a run as long as announced");
        Hub { entries, len }
    }

    #[inline]
    fn run(&self) -> &[Adj] {
        &self.entries[..self.len]
    }

    /// The allocation to edit, with room for `extra` more entries:
    /// this one when no other page holds it and it has the room, else
    /// a copy — of twice the length when the room was short.
    fn own(&mut self, extra: usize) -> &mut [Adj] {
        let short = self.len + extra > self.entries.len();
        if short || Arc::get_mut(&mut self.entries).is_none() {
            let room = if short {
                (2 * self.len).max(self.len + extra)
            } else {
                self.entries.len()
            };
            *self = Hub::collect(self.len, room, self.run().iter().copied());
        }
        Arc::get_mut(&mut self.entries).expect("just copied, not yet shared")
    }

    fn insert(&mut self, entry: Adj) {
        let at = self.run().binary_search(&entry);
        let (at, len) = (at.expect_err("added edges are absent"), self.len);
        let entries = self.own(1);
        entries.copy_within(at..len, at + 1);
        entries[at] = entry;
        self.len += 1;
    }

    fn remove(&mut self, entry: Adj) {
        let at = self.run().binary_search(&entry);
        let (at, len) = (at.expect("removed edges are present"), self.len);
        self.own(0).copy_within(at + 1..len, at);
        self.len -= 1;
    }
}

/// One direction's adjacency of one page's nodes: one contiguous array
/// for the runs of at most [`INLINE_RUN_MAX`] entries, one `Arc` per
/// longer run. Slots past the last node have empty runs.
///
/// The inline runs lie in slot order, back to back from the start of
/// `adj`: an in-place edit of one run moves the runs after it, never
/// leaving a gap, so the array's live length is the page's inline
/// entry count, as a freeze lays it out.
struct AdjPage {
    /// Per slot, `(start, end)`: its run is `adj[start..end]`, or
    /// `hubs[end]` when `start` is [`OUT_OF_LINE`].
    runs: [(u16, u16); PAGE_NODES],
    adj: Vec<Adj>,
    hubs: Vec<Hub>,
}

impl AdjPage {
    fn empty() -> Self {
        AdjPage {
            runs: [(0, 0); PAGE_NODES],
            adj: Vec::new(),
            hubs: Vec::new(),
        }
    }

    /// The slot's run. The range check every slice lookup pays is what
    /// tells an out-of-line slot apart, so an inline run — the common
    /// case — costs two loads and that check, nothing more.
    #[inline]
    fn run(&self, slot: usize) -> &[Adj] {
        let (start, end) = self.runs[slot];
        match self.adj.get(start as usize..end as usize) {
            Some(run) => run,
            None => self.hubs[end as usize].run(),
        }
    }

    /// The slot's out-of-line run, if it has one.
    fn hub(&self, slot: usize) -> Option<&Hub> {
        let (start, end) = self.runs[slot];
        (start == OUT_OF_LINE).then(|| &self.hubs[end as usize])
    }

    #[inline]
    fn degree(&self, slot: usize) -> usize {
        self.run(slot).len()
    }

    /// Drops `entry` from the slot's run where it lies. An out-of-line
    /// run stays out of line whatever its new length: [`settle`]
    /// places it once the delta's additions are in, so a run that a
    /// delta both shortens and lengthens moves at most once.
    ///
    /// [`settle`]: AdjPage::settle
    fn remove(&mut self, slot: usize, entry: Adj) {
        let (start, end) = self.runs[slot];
        if start == OUT_OF_LINE {
            return self.hubs[end as usize].remove(entry);
        }
        let (start, end) = (start as usize, end as usize);
        let at = self.adj[start..end].binary_search(&entry);
        self.adj
            .remove(start + at.expect("removed edges are present"));
        self.runs[slot].1 -= 1;
        self.shift_after(slot, -1);
    }

    /// Adds `entry` to the slot's run at its sort position, where the
    /// run lies — moving an inline run that outgrows
    /// [`INLINE_RUN_MAX`] out of line.
    fn insert(&mut self, slot: usize, entry: Adj) {
        let (start, end) = self.runs[slot];
        if start == OUT_OF_LINE {
            return self.hubs[end as usize].insert(entry);
        }
        let (start, end) = (start as usize, end as usize);
        let at = self.adj[start..end].binary_search(&entry);
        let at = start + at.expect_err("added edges are absent");
        if end - start < INLINE_RUN_MAX {
            reserve_doubling(&mut self.adj, 1);
            self.adj.insert(at, entry);
            self.runs[slot].1 += 1;
            self.shift_after(slot, 1);
            return;
        }
        let (head, tail) = (&self.adj[start..at], &self.adj[at..end]);
        let run = head.iter().chain([&entry]).chain(tail).copied();
        let hub = Hub::collect(end - start + 1, 2 * (end - start), run);
        self.adj.drain(start..end);
        self.shift_after(slot, -((end - start) as i32));
        self.runs[slot] = (OUT_OF_LINE, self.hubs.len() as u16);
        self.hubs.push(hub);
    }

    /// Moves the slot's run inline if it is out of line and no longer
    /// than [`INLINE_RUN_MAX`]: the placement a freeze gives it.
    fn settle(&mut self, slot: usize) {
        let (start, hub) = self.runs[slot];
        if start != OUT_OF_LINE || self.hubs[hub as usize].len > INLINE_RUN_MAX {
            return;
        }
        let run = self.hubs.swap_remove(hub as usize);
        let last = (OUT_OF_LINE, self.hubs.len() as u16);
        if let Some(moved) = self.runs.iter_mut().find(|r| **r == last) {
            moved.1 = hub;
        }
        // The run goes right after the inline run before it.
        let before = self.runs[..slot].iter().rev().find(|r| r.0 != OUT_OF_LINE);
        let at = before.map_or(0, |r| r.1 as usize);
        reserve_doubling(&mut self.adj, run.len);
        self.adj.extend_from_slice(run.run());
        self.adj[at..].rotate_right(run.len);
        self.runs[slot] = (at as u16, (at + run.len) as u16);
        self.shift_after(slot, run.len as i32);
    }

    /// Moves the inline runs after `slot` by `by` entries.
    fn shift_after(&mut self, slot: usize, by: i32) {
        for (start, end) in &mut self.runs[slot + 1..] {
            if *start != OUT_OF_LINE {
                *start = (i32::from(*start) + by) as u16;
                *end = (i32::from(*end) + by) as u16;
            }
        }
    }
}

/// The copy an edit makes of a page another snapshot shares: the inline
/// array with room for twice its entries — the doubling its first
/// insert would make anyway — and every out-of-line run shared until
/// [`Hub::own`] copies one the edit touches.
impl Clone for AdjPage {
    fn clone(&self) -> Self {
        let mut adj = Vec::with_capacity(2 * self.adj.len());
        adj.extend_from_slice(&self.adj);
        AdjPage {
            runs: self.runs,
            adj,
            hubs: self.hubs.clone(),
        }
    }
}

/// Room for `additional` more entries in a page's inline array: when
/// it lacks it, the capacity at least doubles, so a stream of inserts
/// reallocates a logarithmic number of times.
fn reserve_doubling(v: &mut Vec<Adj>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(v.len().max(additional));
    }
}

/// Fills an [`AdjPage`] slot by slot for a freeze, deciding per run
/// whether it goes inline or out of line; an in-place edit makes the
/// same decision run by run ([`AdjPage::insert`], [`AdjPage::settle`]).
struct PageBuilder {
    runs: [(u16, u16); PAGE_NODES],
    adj: Vec<Adj>,
    hubs: Vec<Hub>,
    slots: usize,
}

impl PageBuilder {
    /// A builder with room for runs of exactly these lengths, so that
    /// [`finish`](PageBuilder::finish) never reallocates.
    fn for_lens(lens: impl Iterator<Item = usize>) -> Self {
        let (mut inline, mut hubs) = (0usize, 0usize);
        for len in lens {
            if len > INLINE_RUN_MAX {
                hubs += 1;
            } else {
                inline += len;
            }
        }
        PageBuilder {
            runs: [(0, 0); PAGE_NODES],
            adj: Vec::with_capacity(inline),
            hubs: Vec::with_capacity(hubs),
            slots: 0,
        }
    }

    /// The next slot's run: the `len` entries of `entries`. An
    /// out-of-line run is one allocation of its final length.
    fn push_run(&mut self, len: usize, entries: impl Iterator<Item = Adj>) {
        if len > INLINE_RUN_MAX {
            self.runs[self.slots] = (OUT_OF_LINE, self.hubs.len() as u16);
            self.hubs.push(Hub::collect(len, len, entries));
            self.slots += 1;
        } else {
            let start = self.adj.len();
            self.adj.extend(entries);
            assert_eq!(self.adj.len() - start, len, "a run as long as announced");
            self.runs[self.slots] = (start as u16, self.adj.len() as u16);
            self.slots += 1;
        }
    }

    /// The page, its slots past the last one pushed given empty runs
    /// at the end of the inline array, where an in-place insert into
    /// them expects them.
    fn finish(mut self) -> AdjPage {
        let end = self.adj.len() as u16;
        self.runs[self.slots..].fill((end, end));
        AdjPage {
            runs: self.runs,
            adj: self.adj,
            hubs: self.hubs,
        }
    }
}

/// Label extents: the node permutation sorted by `(label, id)`, one
/// contiguous `(label, lo, hi)` range per label, and per node its
/// position within its own label's range.
type Extents = (Arc<[NodeId]>, Arc<[(Sym, u32, u32)]>, Arc<[u32]>);

fn build_extents(labels: &[Sym]) -> Extents {
    let mut perm: Arc<[NodeId]> = (0..labels.len() as u32).map(NodeId).collect();
    let sorted = Arc::get_mut(&mut perm).expect("just built, not yet shared");
    sorted.sort_unstable_by_key(|&u| (labels[u.index()], u));
    let mut ranges: Vec<(Sym, u32, u32)> = Vec::new();
    let mut rank: Arc<[u32]> = std::iter::repeat_n(0, labels.len()).collect();
    let ranks = Arc::get_mut(&mut rank).expect("just built, not yet shared");
    for (i, &u) in perm.iter().enumerate() {
        let label = labels[u.index()];
        match ranges.last_mut() {
            Some((l, _, hi)) if *l == label => *hi = (i + 1) as u32,
            _ => ranges.push((label, i as u32, (i + 1) as u32)),
        }
        let (_, lo, _) = ranges[ranges.len() - 1];
        ranks[u.index()] = i as u32 - lo;
    }
    (perm, ranges.into(), rank)
}

/// A paged CSR snapshot of a property graph, copy-on-write: what one
/// holder reads never changes under it.
///
/// Produced by [`GraphBuilder::freeze`]; see the module docs for the
/// layout. All read methods are allocation-free; the snapshot is
/// `Send + Sync` and meant to be shared across workers via `Arc`.
///
/// `clone` is shallow: it copies the three page spines' pointers and
/// shares every page, run and tuple, each of which the first in-place
/// edit of either copy then copies for itself.
#[derive(Clone)]
pub struct Graph {
    vocab: Arc<Vocab>,
    labels: Arc<[Sym]>,
    /// One page per `PAGE_NODES` consecutive node ids.
    attrs: Vec<Arc<AttrPage>>,
    /// Out-runs, sorted by `(label, dst)`.
    out: Vec<Arc<AdjPage>>,
    /// In-runs (`node` is the source), sorted by `(label, src)`.
    inn: Vec<Arc<AdjPage>>,
    /// All nodes sorted by `(label, id)`; extents are subranges.
    extent_perm: Arc<[NodeId]>,
    /// Per label: `(label, lo, hi)` into `extent_perm`, sorted by label.
    extent_ranges: Arc<[(Sym, u32, u32)]>,
    /// Per node: its position within its label's extent.
    extent_rank: Arc<[u32]>,
    edge_count: usize,
}

impl Graph {
    /// The shared vocabulary of this graph.
    pub fn vocab(&self) -> &Arc<Vocab> {
        &self.vocab
    }

    /// This snapshot over `vocab`, every page kept: the caller has
    /// checked that `vocab` numbers the names as its symbols mean them.
    pub(crate) fn with_vocab(mut self, vocab: &Arc<Vocab>) -> Graph {
        self.vocab = Arc::clone(vocab);
        self
    }

    /// Number of nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `|G| = |V| + |E|` — the size measure the paper uses for data
    /// blocks (Example 11 counts "22 nodes and edges in total").
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32).map(NodeId)
    }

    /// The label of `node`.
    pub fn label(&self, node: NodeId) -> Sym {
        self.labels[node.index()]
    }

    /// The attribute tuple `F_A(node)`.
    #[inline]
    pub fn attrs(&self, node: NodeId) -> &AttrMap {
        let i = node.index();
        &self.attrs[i >> PAGE_SHIFT][i & PAGE_MASK]
    }

    /// The value of `node.attr`, if present.
    #[inline]
    pub fn attr(&self, node: NodeId, attr: Sym) -> Option<&Value> {
        self.attrs(node).get(attr)
    }

    /// The outgoing edge run of `node`, sorted by `(label, dst)`.
    #[inline]
    pub fn out_slice(&self, node: NodeId) -> &[Adj] {
        let i = node.index();
        self.out[i >> PAGE_SHIFT].run(i & PAGE_MASK)
    }

    /// The incoming edge run of `node`, sorted by `(label, src)`.
    #[inline]
    pub fn in_slice(&self, node: NodeId) -> &[Adj] {
        let i = node.index();
        self.inn[i >> PAGE_SHIFT].run(i & PAGE_MASK)
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        self.out[i >> PAGE_SHIFT].degree(i & PAGE_MASK)
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        self.inn[i >> PAGE_SHIFT].degree(i & PAGE_MASK)
    }

    /// Total degree (in + out) of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node) + self.in_degree(node)
    }

    /// The contiguous `label`-subrange of a sorted edge run.
    #[inline]
    fn labeled_range(run: &[Adj], label: Sym) -> &[Adj] {
        let lo = run.partition_point(|a| a.label < label);
        let hi = lo + run[lo..].partition_point(|a| a.label == label);
        &run[lo..hi]
    }

    /// Out-neighbors of `node` along `label`-edges, as a zero-alloc
    /// subslice of the CSR run (every entry has `.label == label`).
    #[inline]
    pub fn neighbors_labeled(&self, node: NodeId, label: Sym) -> &[Adj] {
        Self::labeled_range(self.out_slice(node), label)
    }

    /// In-neighbors of `node` along `label`-edges (zero-alloc).
    #[inline]
    pub fn in_neighbors_labeled(&self, node: NodeId, label: Sym) -> &[Adj] {
        Self::labeled_range(self.in_slice(node), label)
    }

    /// `src`'s out-run, or the empty slice when `src` is not a node —
    /// for entry points that accept externally supplied ids.
    #[inline]
    fn out_run_or_empty(&self, src: NodeId) -> &[Adj] {
        let i = src.index();
        match self.out.get(i >> PAGE_SHIFT) {
            Some(page) => page.run(i & PAGE_MASK),
            None => &[],
        }
    }

    /// True if the edge `(src, dst, label)` exists — one binary search
    /// over `src`'s contiguous out-run. Out-of-range ids (which can
    /// arrive from user input: parsed patterns, stale pins) are simply
    /// not edge endpoints, so the answer is `false` rather than a
    /// panic.
    #[inline]
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: Sym) -> bool {
        self.out_run_or_empty(src)
            .binary_search(&Adj { label, node: dst })
            .is_ok()
    }

    /// True if any edge `src → dst` exists, regardless of label.
    ///
    /// The run is sorted by `(label, dst)`, so a single binary search
    /// can't answer this; instead we skip-scan label segments, binary
    /// searching `dst` within each — `O(L · log deg)` for `L` distinct
    /// labels at `src`, with a plain scan for short runs.
    pub fn has_edge_any(&self, src: NodeId, dst: NodeId) -> bool {
        let run = self.out_run_or_empty(src);
        if run.len() <= 16 {
            return run.iter().any(|a| a.node == dst);
        }
        let mut i = 0;
        while i < run.len() {
            let label = run[i].label;
            let seg = i + run[i..].partition_point(|a| a.label == label);
            if run[i..seg].binary_search(&Adj { label, node: dst }).is_ok() {
                return true;
            }
            i = seg;
        }
        false
    }

    /// Nodes carrying `label` — the candidate extent `C(µ(z))`, as a
    /// zero-alloc subslice of the label permutation (ascending ids).
    pub fn extent(&self, label: Sym) -> &[NodeId] {
        match self
            .extent_ranges
            .binary_search_by_key(&label, |&(l, _, _)| l)
        {
            Ok(i) => {
                let (_, lo, hi) = self.extent_ranges[i];
                &self.extent_perm[lo as usize..hi as usize]
            }
            Err(_) => &[],
        }
    }

    /// The position of `node` within the extent of its own label:
    /// `g.extent(g.label(u))[g.extent_rank(u)] == u`. One load, so a
    /// per-variable array sized by an extent can be indexed from a
    /// node id in O(1) — what the simulation's seed-indexed state does.
    #[inline]
    pub fn extent_rank(&self, node: NodeId) -> usize {
        self.extent_rank[node.index()] as usize
    }

    /// All labels that occur on nodes, with their extents (ascending
    /// label order).
    pub fn label_extents(&self) -> impl Iterator<Item = (Sym, &[NodeId])> + '_ {
        self.extent_ranges
            .iter()
            .map(|&(l, lo, hi)| (l, &self.extent_perm[lo as usize..hi as usize]))
    }

    /// Undirected neighbors of `node` (out then in; duplicates possible
    /// when edges run both ways).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_slice(node)
            .iter()
            .chain(self.in_slice(node).iter())
            .map(|a| a.node)
    }

    /// Iterates over all edges (by source node, then `(label, dst)`).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |src| {
            self.out_slice(src).iter().map(move |a| Edge {
                src,
                dst: a.node,
                label: a.label,
            })
        })
    }

    /// Approximate serialized size of a node (label + attributes + its
    /// incident edge slots), used by the communication cost model.
    pub fn node_wire_size(&self, node: NodeId) -> usize {
        8 + self.attrs(node).wire_size() + 12 * self.out_degree(node)
    }

    /// Reconstructs a [`GraphBuilder`] with identical contents and node
    /// ids, for repair/noise workflows that need to mutate a snapshot.
    /// The builder records its mutations as a [`GraphDelta`]
    /// ([`GraphBuilder::take_delta`]), so the eventual refreeze can be
    /// a delta patch ([`Graph::apply_delta`]) instead of a full
    /// [`GraphBuilder::freeze`].
    pub fn thaw(&self) -> GraphBuilder {
        GraphBuilder {
            vocab: self.vocab.clone(),
            labels: self.labels.to_vec(),
            attrs: (self.attrs.iter().flat_map(|page| page.iter()))
                .take(self.node_count())
                .cloned()
                .collect(),
            no_attrs: Arc::default(),
            out: self.nodes().map(|u| self.out_slice(u).to_vec()).collect(),
            edge_count: self.edge_count,
            rec: Some(GraphDelta::new(self.node_count())),
        }
    }

    /// Thaw–mutate–refreeze in one step: returns a new snapshot with
    /// `edits` applied. The refreeze is a delta patch over this
    /// snapshot (see [`Graph::apply_delta`]), not a full rebuild.
    pub fn edit(&self, edits: impl FnOnce(&mut GraphBuilder)) -> Graph {
        self.edit_with_delta(edits).0
    }

    /// Like [`Graph::edit`], but also returns the normalized
    /// [`GraphDelta`] describing exactly what changed — the input the
    /// incremental maintenance subsystems (candidate-space repair,
    /// incremental detection, workload refresh) consume.
    pub fn edit_with_delta(&self, edits: impl FnOnce(&mut GraphBuilder)) -> (Graph, GraphDelta) {
        let mut b = self.thaw();
        edits(&mut b);
        let delta = b.take_delta().expect("thawed builders record deltas");
        (self.apply_delta(&delta), delta)
    }

    /// Builds the successor snapshot by patching a shallow copy of this
    /// one with a *normalized* delta ([`apply_delta_in_place`]): every
    /// page is shared with this snapshot, so the copy shares every page
    /// the delta does not touch — one refcount bump per page for the
    /// cloned spines — and copies, then edits, the pages it does; this
    /// snapshot is left as it was.
    ///
    /// [`apply_delta_in_place`]: Graph::apply_delta_in_place
    pub fn apply_delta(&self, delta: &GraphDelta) -> Graph {
        let mut next = self.clone();
        next.apply_delta_in_place(delta);
        next
    }

    /// Patches this snapshot with a *normalized* delta, copy-on-write
    /// at every level: a spine, page, tuple or out-of-line run that
    /// this snapshot holds alone is edited where it lies, and one that
    /// another snapshot shares is copied first, then edited the same
    /// way — an attribute page's 64 pointers, the written tuple, and an
    /// adjacency page's inline array with room for twice its entries
    /// (sharing, inside it, every out-of-line run the delta leaves
    /// alone). One editor either way: held alone, a warm epoch of a few
    /// edits into pages and runs with room to spare allocates nothing.
    /// Labels and extents (with the extent ranks) are kept unless the
    /// delta adds or relabels nodes, in which case both are rebuilt
    /// whole.
    ///
    /// The delta must be consistent with this snapshot: based at its
    /// node count, added edges absent, removed edges present (the
    /// invariants [`GraphDelta::normalize`] documents). Deltas
    /// recorded by [`Graph::thaw`]/[`Graph::edit_with_delta`] satisfy
    /// this by construction.
    pub fn apply_delta_in_place(&mut self, delta: &GraphDelta) {
        let old_n = self.node_count();
        assert_eq!(
            delta.base_nodes, old_n,
            "apply_delta: delta based on a different snapshot"
        );
        let pages = page_count(old_n + delta.added_nodes.len());

        if !(delta.added_nodes.is_empty() && delta.label_changes.is_empty()) {
            let added = delta
                .added_nodes
                .iter()
                .enumerate()
                .map(|(k, &(id, label))| {
                    debug_assert_eq!(id.index(), old_n + k, "added node ids are dense");
                    label
                });
            let mut labels: Arc<[Sym]> = self.labels.iter().copied().chain(added).collect();
            let relabeled = Arc::get_mut(&mut labels).expect("just built, not yet shared");
            for c in &delta.label_changes {
                debug_assert_eq!(relabeled[c.node.index()], c.old, "stale label change");
                relabeled[c.node.index()] = c.new;
            }
            (self.extent_perm, self.extent_ranges, self.extent_rank) = build_extents(&labels);
            self.labels = labels;
        }

        grow(&mut self.attrs, pages, || {
            let empty = Arc::new(AttrMap::new());
            std::array::from_fn(|_| empty.clone())
        });
        for op in &delta.attr_ops {
            let i = op.node.index();
            let page = Arc::make_mut(&mut self.attrs[i >> PAGE_SHIFT]);
            let map = &mut page[i & PAGE_MASK];
            match &op.value {
                Some(v) => set_shared(map, op.attr, v.clone()),
                None if map.contains(op.attr) => {
                    Arc::make_mut(map).remove(op.attr);
                }
                None => {}
            }
        }

        grow(&mut self.out, pages, AdjPage::empty);
        grow(&mut self.inn, pages, AdjPage::empty);
        patch_spine(&mut self.out, delta, |e| {
            let (label, node) = (e.label, e.dst);
            (e.src, Adj { label, node })
        });
        patch_spine(&mut self.inn, delta, |e| {
            let (label, node) = (e.label, e.src);
            (e.dst, Adj { label, node })
        });
        self.edge_count = self.edge_count + delta.added_edges.len() - delta.removed_edges.len();
    }
}

/// Sets `attr = value` in a tuple other snapshots may share: in place
/// when none does, else on a copy made in one allocation.
fn set_shared(map: &mut Arc<AttrMap>, attr: Sym, value: Value) {
    match Arc::get_mut(map) {
        Some(map) => map.set(attr, value),
        None => *map = Arc::new(map.with(attr, value)),
    }
}

/// Extends a page spine to `pages` entries, all sharing one empty page.
fn grow<T>(spine: &mut Vec<Arc<T>>, pages: usize, empty: impl FnOnce() -> T) {
    if spine.len() < pages {
        spine.resize(pages, Arc::new(empty()));
    }
}

/// Applies the delta's edges to one direction's pages, `key` naming
/// the node whose run an edge is an entry of. Each touched page is
/// edited where it lies, copied first if another snapshot shares it:
/// the removals first, then the additions, then each run a removal
/// shortened is moved inline if it now fits, so no run crosses
/// [`INLINE_RUN_MAX`] twice in one delta.
fn patch_spine(
    spine: &mut [Arc<AdjPage>],
    delta: &GraphDelta,
    key: impl Fn(&Edge) -> (NodeId, Adj),
) {
    for (node, entry) in delta.removed_edges.iter().map(&key) {
        let (page, slot) = page_of(spine, node);
        page.remove(slot, entry);
    }
    for (node, entry) in delta.added_edges.iter().map(&key) {
        let (page, slot) = page_of(spine, node);
        page.insert(slot, entry);
    }
    for (node, _) in delta.removed_edges.iter().map(&key) {
        let (page, slot) = page_of(spine, node);
        page.settle(slot);
    }
}

/// `node`'s page, owned by this spine, and its slot there.
fn page_of(spine: &mut [Arc<AdjPage>], node: NodeId) -> (&mut AdjPage, usize) {
    let i = node.index();
    (Arc::make_mut(&mut spine[i >> PAGE_SHIFT]), i & PAGE_MASK)
}

/// Test oracle, not API: the first difference between two snapshots,
/// over every observable — labels, tuples, runs, extents and extent
/// ranks — and the layout behind it: the same runs out of line and the
/// same entries inline in every page. Two ways of building one graph
/// (a freeze, a chain of [`Graph::apply_delta`]s, a snapshot patched
/// in place, a replayed builder) must agree on all of it. Public for
/// the snapshot oracles outside this crate: `prop_codec`, `prop_delta`,
/// `prop_graph`, the service soaks, the `wal` tests and the
/// noise-injection tests of `gfd-datagen`.
#[doc(hidden)]
pub fn same_snapshot(a: &Graph, b: &Graph) -> Result<(), String> {
    if (a.node_count(), a.edge_count()) != (b.node_count(), b.edge_count()) {
        return Err(format!(
            "{} nodes / {} edges vs {} / {}",
            a.node_count(),
            a.edge_count(),
            b.node_count(),
            b.edge_count()
        ));
    }
    let node_differs = |u: &NodeId| {
        let u = *u;
        a.label(u) != b.label(u)
            || a.attrs(u) != b.attrs(u)
            || a.out_slice(u) != b.out_slice(u)
            || a.in_slice(u) != b.in_slice(u)
    };
    if let Some(u) = b.nodes().find(node_differs) {
        return Err(format!("node {u:?} differs"));
    }
    if !a.label_extents().eq(b.label_extents()) || a.extent_rank != b.extent_rank {
        return Err("label extents differ".into());
    }
    for (dir, a, b) in [("out", &a.out, &b.out), ("in", &a.inn, &b.inn)] {
        if a.len() != b.len() {
            return Err(format!("{dir} spines of {} vs {} pages", a.len(), b.len()));
        }
        for (p, (a, b)) in a.iter().zip(b.iter()).enumerate() {
            let hubs_differ = (0..PAGE_NODES).any(|s| a.hub(s).is_some() != b.hub(s).is_some());
            if a.adj.len() != b.adj.len() || hubs_differ {
                return Err(format!("{dir} page {p} is laid out differently"));
            }
        }
    }
    Ok(())
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All edge labels `src → dst` (empty for out-of-range ids).
    fn edges_between(g: &Graph, src: NodeId, dst: NodeId) -> impl Iterator<Item = Sym> + '_ {
        let run = g.out_run_or_empty(src).iter();
        run.filter(move |a| a.node == dst).map(|a| a.label)
    }

    fn g3() -> (Graph, [NodeId; 3]) {
        // Fig. 1's G3: a country with one capital (plus a stray city).
        let mut b = GraphBuilder::with_fresh_vocab();
        let country = b.add_node_labeled("country");
        let canberra = b.add_node_labeled("city");
        let melbourne = b.add_node_labeled("city");
        b.add_edge_labeled(country, canberra, "capital");
        b.set_attr_named(country, "val", Value::str("Australia"));
        b.set_attr_named(canberra, "val", Value::str("Canberra"));
        b.set_attr_named(melbourne, "val", Value::str("Melbourne"));
        (b.freeze(), [country, canberra, melbourne])
    }

    #[test]
    fn basic_construction() {
        let (g, [country, canberra, _]) = g3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.size(), 4);
        let capital = g.vocab().lookup("capital").unwrap();
        assert!(g.has_edge(country, canberra, capital));
        assert!(!g.has_edge(canberra, country, capital));
        assert!(g.has_edge_any(country, canberra));
    }

    #[test]
    fn duplicate_edges_rejected() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let a = b.add_node_labeled("a");
        let c = b.add_node_labeled("b");
        assert!(b.add_edge_labeled(a, c, "e"));
        assert!(!b.add_edge_labeled(a, c, "e"));
        assert!(b.add_edge_labeled(a, c, "f")); // parallel edge, new label
        let g = b.freeze();
        assert_eq!(g.edge_count(), 2);
        let labels: Vec<_> = edges_between(&g, a, c).collect();
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn extents_track_labels() {
        let (g, [country, canberra, melbourne]) = g3();
        let city = g.vocab().lookup("city").unwrap();
        assert_eq!(g.extent(city), &[canberra, melbourne]);
        let cn = g.vocab().lookup("country").unwrap();
        assert_eq!(g.extent(cn), &[country]);
        let missing = g.vocab().intern("starship");
        assert!(g.extent(missing).is_empty());
        let total: usize = g.label_extents().map(|(_, e)| e.len()).sum();
        assert_eq!(total, g.node_count());
    }

    /// A label's frequency `|C(µ(z))|` — the candidates of a pivot
    /// variable `z` (§6.1) — is the length of its extent.
    #[test]
    fn label_frequencies() {
        let mut b = GraphBuilder::with_fresh_vocab();
        for _ in 0..3 {
            b.add_node_labeled("flight");
        }
        b.add_node_labeled("city");
        let g = b.freeze();
        let flight = g.vocab().lookup("flight").unwrap();
        let city = g.vocab().lookup("city").unwrap();
        assert_eq!(g.extent(flight).len(), 3);
        assert_eq!(g.extent(city).len(), 1);
        assert_eq!(g.extent(g.vocab().intern("nope")).len(), 0);
    }

    #[test]
    fn runs_sorted_by_label_then_dst() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let nodes: Vec<NodeId> = (0..5)
            .map(|i| b.add_node_labeled(&format!("l{i}")))
            .collect();
        b.add_edge_labeled(nodes[0], nodes[3], "e");
        b.add_edge_labeled(nodes[0], nodes[1], "f");
        b.add_edge_labeled(nodes[0], nodes[2], "e");
        let g = b.freeze();
        let run = g.out_slice(nodes[0]);
        assert!(
            run.windows(2).all(|w| w[0] < w[1]),
            "sorted by (label, dst)"
        );
        let e = g.vocab().lookup("e").unwrap();
        let e_dsts: Vec<u32> = g
            .neighbors_labeled(nodes[0], e)
            .iter()
            .map(|a| a.node.0)
            .collect();
        assert_eq!(e_dsts, vec![2, 3]);
        for a in g.in_slice(nodes[1]) {
            assert!(g.out_slice(a.node).iter().any(|o| o.node == nodes[1]));
        }
    }

    #[test]
    fn in_adjacency_mirrors_out() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let ns: Vec<NodeId> = (0..4).map(|_| b.add_node_labeled("v")).collect();
        b.add_edge_labeled(ns[0], ns[2], "e");
        b.add_edge_labeled(ns[1], ns[2], "e");
        b.add_edge_labeled(ns[3], ns[2], "f");
        let g = b.freeze();
        assert_eq!(g.in_degree(ns[2]), 3);
        let e = g.vocab().lookup("e").unwrap();
        let srcs: Vec<NodeId> = g
            .in_neighbors_labeled(ns[2], e)
            .iter()
            .map(|a| a.node)
            .collect();
        assert_eq!(srcs, vec![ns[0], ns[1]]);
    }

    #[test]
    fn attributes_read_back() {
        let (g, [country, ..]) = g3();
        let val = g.vocab().lookup("val").unwrap();
        assert_eq!(g.attr(country, val), Some(&Value::str("Australia")));
        let bogus = g.vocab().intern("bogus");
        assert_eq!(g.attr(country, bogus), None);
    }

    #[test]
    fn edges_iterator_complete() {
        let (g, _) = g3();
        let all: Vec<Edge> = g.edges().collect();
        assert_eq!(all.len(), g.edge_count());
    }

    #[test]
    fn thaw_freeze_round_trip_preserves_everything() {
        let (g, [country, canberra, _]) = g3();
        let g2 = g.thaw().freeze();
        let capital = g.vocab().lookup("capital").unwrap();
        assert!(g2.has_edge(country, canberra, capital));
        assert_same_snapshot(&g2, &g);
    }

    #[test]
    fn edit_applies_mutations() {
        let (g, [_, canberra, melbourne]) = g3();
        let val = g.vocab().lookup("val").unwrap();
        let g2 = g.edit(|b| {
            b.set_attr(melbourne, val, Value::str("Canberra"));
            b.remove_attr(canberra, val);
        });
        assert_eq!(g2.attr(melbourne, val), Some(&Value::str("Canberra")));
        assert_eq!(g2.attr(canberra, val), None);
        // The original snapshot is untouched.
        assert_eq!(g.attr(melbourne, val), Some(&Value::str("Melbourne")));
    }

    #[test]
    fn remove_edge_round_trip() {
        let (g, [country, canberra, _]) = g3();
        let capital = g.vocab().lookup("capital").unwrap();
        let mut b = g.thaw();
        assert!(b.remove_edge(country, canberra, capital));
        assert!(!b.remove_edge(country, canberra, capital), "already gone");
        assert!(
            !b.remove_edge(NodeId(99), canberra, capital),
            "out-of-range src is not an edge endpoint"
        );
        assert_eq!(b.edge_count(), 0);
        let g2 = b.freeze();
        assert!(!g2.has_edge(country, canberra, capital));
        assert_eq!(g2.edge_count(), 0);
    }

    #[test]
    fn out_of_range_reads_are_graceful() {
        let (g, [country, ..]) = g3();
        let capital = g.vocab().lookup("capital").unwrap();
        let ghost = NodeId(1000);
        assert!(!g.has_edge(ghost, country, capital));
        assert!(!g.has_edge_any(ghost, country));
        assert_eq!(edges_between(&g, ghost, country).count(), 0);
        // In-range src against an absent dst id stays false, too.
        assert!(!g.has_edge(country, ghost, capital));
    }

    #[test]
    fn edit_with_delta_records_and_patches() {
        let (g, [country, canberra, melbourne]) = g3();
        let val = g.vocab().lookup("val").unwrap();
        let capital = g.vocab().lookup("capital").unwrap();
        let (g2, delta) = g.edit_with_delta(|b| {
            b.remove_edge(country, canberra, capital);
            b.add_edge(country, melbourne, capital);
            let sydney = b.add_node_labeled("city");
            b.add_edge(country, sydney, capital);
            b.set_attr(sydney, val, Value::str("Sydney"));
            b.remove_attr(canberra, val);
        });
        assert_eq!(delta.base_nodes, 3);
        assert_eq!(delta.added_nodes.len(), 1);
        assert_eq!(delta.added_edges.len(), 2);
        assert_eq!(delta.removed_edges.len(), 1);
        assert_eq!(delta.attr_ops.len(), 2);
        let sydney = delta.added_nodes[0].0;
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 2);
        assert!(!g2.has_edge(country, canberra, capital));
        assert!(g2.has_edge(country, melbourne, capital));
        assert!(g2.has_edge(country, sydney, capital));
        assert_eq!(g2.attr(sydney, val), Some(&Value::str("Sydney")));
        assert_eq!(g2.attr(canberra, val), None);
        let city = g.vocab().lookup("city").unwrap();
        assert_eq!(g2.extent(city), &[canberra, melbourne, sydney]);
        // The original snapshot is untouched.
        assert!(g.has_edge(country, canberra, capital));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn take_delta_returns_the_normal_form() {
        let (g, [country, canberra, melbourne]) = g3();
        let vocab = g.vocab().clone();
        let (val, city) = (vocab.intern("val"), vocab.intern("city"));
        let mut b = g.thaw();
        b.add_edge_labeled(melbourne, country, "in");
        b.remove_edge_labeled(melbourne, country, "in");
        b.set_label(canberra, vocab.intern("capital_city"));
        b.set_label(canberra, vocab.intern("seat"));
        b.set_attr(melbourne, val, Value::str("Naarm"));
        b.set_attr(melbourne, val, Value::str("Melbourne"));
        let delta = b.take_delta().expect("thawed builders record deltas");
        assert!(delta.added_edges.is_empty() && delta.removed_edges.is_empty());
        assert_eq!(delta.label_changes.len(), 1);
        assert_eq!(delta.label_changes[0].old, city);
        assert_eq!(delta.attr_ops.len(), 1);
        assert_eq!(delta.attr_ops[0].value, Some(Value::str("Melbourne")));
        assert_eq!(delta, delta.clone().normalize());
    }

    #[test]
    fn apply_delta_equals_freeze() {
        // The patch path and the full rebuild must agree observably.
        let (g, [country, canberra, melbourne]) = g3();
        let capital = g.vocab().lookup("capital").unwrap();
        let mut b = g.thaw();
        b.remove_edge(country, canberra, capital);
        b.add_edge(country, melbourne, capital);
        let extra = b.add_node_labeled("province");
        b.add_edge_labeled(extra, country, "part_of");
        let delta = b.take_delta().unwrap();
        let patched = g.apply_delta(&delta);
        assert_same_snapshot(&patched, &b.freeze());
    }

    #[test]
    fn builder_apply_delta_equals_the_snapshot_patch() {
        let (g, [country, canberra, melbourne]) = g3();
        let (val, capital) = (g.vocab().intern("val"), g.vocab().intern("capital"));
        let (patched, delta) = g.edit_with_delta(|b| {
            let sydney = b.add_node_labeled("city");
            b.set_label(melbourne, b.label(country));
            b.remove_edge(country, canberra, capital);
            b.add_edge(sydney, country, capital);
            b.set_attr(sydney, val, Value::str("Sydney"));
            b.remove_attr(canberra, val);
        });
        let mut replay = g.thaw();
        assert!(replay.has_edge(country, canberra, capital));
        assert!(!replay.has_edge(canberra, country, capital));
        assert!(
            !replay.has_edge(NodeId(99), country, capital),
            "out of range"
        );
        assert_eq!(delta.check_against(&replay), Ok(()));
        replay.apply_delta(&delta);
        assert!(!replay.has_edge(country, canberra, capital));
        assert_same_snapshot(&replay.freeze(), &patched);
    }

    /// [`same_snapshot`], as an assertion.
    fn assert_same_snapshot(a: &Graph, b: &Graph) {
        if let Err(diff) = same_snapshot(a, b) {
            panic!("snapshots differ: {diff}");
        }
    }

    /// Four full pages plus five nodes on a ring, `val` on every node.
    fn ring() -> Graph {
        let mut b = GraphBuilder::with_fresh_vocab();
        let n = 4 * PAGE_NODES + 5;
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.add_node_labeled(["a", "b"][i % 2]))
            .collect();
        for (i, &u) in ids.iter().enumerate() {
            b.add_edge_labeled(u, ids[(i + 1) % n], "next");
            b.set_attr_named(u, "val", Value::Int(i as i64));
        }
        b.freeze()
    }

    /// The pages at which two spines do not share their `Arc`.
    fn unshared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> Vec<usize> {
        assert_eq!(a.len(), b.len());
        (0..a.len())
            .filter(|&p| !Arc::ptr_eq(&a[p], &b[p]))
            .collect()
    }

    fn shares_labels_and_extents(a: &Graph, b: &Graph) -> bool {
        Arc::ptr_eq(&a.labels, &b.labels)
            && Arc::ptr_eq(&a.extent_perm, &b.extent_perm)
            && Arc::ptr_eq(&a.extent_ranges, &b.extent_ranges)
            && Arc::ptr_eq(&a.extent_rank, &b.extent_rank)
    }

    /// Every node sits at its extent rank in its own label's extent.
    fn assert_extent_ranks(g: &Graph) {
        for u in g.nodes() {
            assert_eq!(g.extent(g.label(u))[g.extent_rank(u)], u);
        }
    }

    #[test]
    fn extent_rank_inverts_the_extents() {
        let (g, [country, canberra, melbourne]) = g3();
        assert_eq!(
            [country, canberra, melbourne].map(|u| g.extent_rank(u)),
            [0, 0, 1]
        );
        // Interleaved labels: no extent is a contiguous id range.
        let g = ring();
        assert_extent_ranks(&g);
        assert_eq!(g.extent_rank(NodeId(7)), 3);
        let g2 = g.edit(|b| {
            b.set_label(NodeId(2), g.label(NodeId(1)));
            b.add_node_labeled("a");
            b.add_node_labeled("c");
        });
        assert_extent_ranks(&g2);
        assert_eq!(g2.extent_rank(NodeId(3)), 2, "n2 moved in before it");
    }

    #[test]
    fn page_size_matches_the_boundary_oracles() {
        // The graph suites' kit (tests/common) aims its edit scripts at
        // multiples of this and walks a hub's run across the
        // out-of-line threshold; change them together.
        assert_eq!(PAGE_NODES, 64);
        assert_eq!(INLINE_RUN_MAX, 64);
    }

    #[test]
    fn one_edge_delta_rebuilds_one_page_per_direction() {
        let g = ring();
        let next = g.vocab().lookup("next").unwrap();
        let (src, dst) = (NodeId(3), NodeId(3 * PAGE_NODES as u32 + 1));
        let (g2, delta) = g.edit_with_delta(|b| {
            b.add_edge(src, dst, next);
        });
        assert_eq!(delta.added_edges.len(), 1);
        assert!(g2.has_edge(src, dst, next));
        assert_eq!(unshared(&g.out, &g2.out), vec![0]);
        assert_eq!(unshared(&g.inn, &g2.inn), vec![3]);
        assert_eq!(unshared(&g.attrs, &g2.attrs), Vec::<usize>::new());
        assert!(shares_labels_and_extents(&g, &g2));
    }

    #[test]
    fn attribute_delta_copies_only_the_written_pages() {
        let g = ring();
        let val = g.vocab().lookup("val").unwrap();
        let last = NodeId(g.node_count() as u32 - 1);
        let g2 = g.edit(|b| {
            b.set_attr(NodeId(PAGE_NODES as u32), val, Value::Int(-1));
            b.set_attr(NodeId(PAGE_NODES as u32 + 1), val, Value::Int(-2));
            b.remove_attr(last, val);
        });
        assert_eq!(
            g2.attr(NodeId(PAGE_NODES as u32), val),
            Some(&Value::Int(-1))
        );
        assert_eq!(g2.attr(last, val), None);
        assert_eq!(unshared(&g.attrs, &g2.attrs), vec![1, 4]);
        assert_eq!(unshared(&g.out, &g2.out), Vec::<usize>::new());
        assert_eq!(unshared(&g.inn, &g2.inn), Vec::<usize>::new());
        assert!(shares_labels_and_extents(&g, &g2));
    }

    /// [`ring`] plus a hub in page 1 with `spokes` in-edges, one from
    /// each of the first `spokes` nodes.
    fn ring_with_hub(spokes: usize) -> (Graph, NodeId) {
        let hub = NodeId(PAGE_NODES as u32 + 9);
        let g = ring().edit(|b| {
            for src in 0..spokes {
                b.add_edge_labeled(NodeId(src as u32), hub, "spoke");
            }
        });
        (g, hub)
    }

    #[test]
    fn bystander_hub_run_is_shared_across_an_edit_of_its_page_mate() {
        let (g, hub) = ring_with_hub(2 * PAGE_NODES);
        let (page, slot) = (hub.index() >> PAGE_SHIFT, hub.index() & PAGE_MASK);
        let run = g.inn[page]
            .hub(slot)
            .expect("the hub's in-run is out of line");
        assert_eq!(run.len, g.in_degree(hub));
        assert!(g.out[page].hub(slot).is_none(), "its out-run is not");

        let next = g.vocab().lookup("next").unwrap();
        let mate = NodeId(hub.0 + 1);
        let g2 = g.edit(|b| {
            b.add_edge(NodeId(0), mate, next);
        });
        assert_eq!(unshared(&g.inn, &g2.inn), vec![page]);
        let run2 = g2.inn[page].hub(slot).expect("still out of line");
        assert!(
            Arc::ptr_eq(&run.entries, &run2.entries),
            "a bystander hub is not copied"
        );
        assert_eq!(g2.in_degree(mate), 2);

        // The hub's own edit copies its run, and only then.
        let g3 = g2.edit(|b| {
            b.remove_edge_labeled(NodeId(0), hub, "spoke");
        });
        let run3 = g3.inn[page].hub(slot).expect("still out of line");
        assert!(!Arc::ptr_eq(&run2.entries, &run3.entries));
        assert_eq!(run3.len, run2.len - 1);
        assert_same_snapshot(&g3, &g3.thaw().freeze());
    }

    #[test]
    fn attribute_write_shares_the_other_tuples_of_its_page() {
        let g = ring();
        let val = g.vocab().lookup("val").unwrap();
        let written = PAGE_NODES + 5;
        let g2 = g.edit(|b| b.set_attr(NodeId(written as u32), val, Value::Int(-1)));
        assert_eq!(unshared(&g.attrs, &g2.attrs), vec![1]);
        assert_eq!(
            unshared(&g.attrs[1][..], &g2.attrs[1][..]),
            vec![written & PAGE_MASK]
        );
        // Tuples without attributes are one empty map per freeze.
        let free = g.node_count() & PAGE_MASK;
        let last = g.attrs.last().unwrap();
        assert!(last[free..].iter().all(|m| Arc::ptr_eq(m, &last[free])));
    }

    #[test]
    fn run_walked_across_the_threshold_equals_freeze_at_every_step() {
        let (mut g, hub) = ring_with_hub(INLINE_RUN_MAX - 1);
        let (page, slot) = (hub.index() >> PAGE_SHIFT, hub.index() & PAGE_MASK);
        assert_eq!(g.in_degree(hub), INLINE_RUN_MAX, "the ring adds one");
        let mut shadow = g.thaw();
        let mut replay = g.thaw();
        // A freeze holds every page alone, so this one walks the run
        // across the threshold and back where it lies.
        let mut owned = g.thaw().freeze();
        let spoke = |i: usize| NodeId((INLINE_RUN_MAX + i) as u32);
        let steps: [(bool, usize); 4] = [(true, 0), (true, 1), (false, 0), (false, 1)];
        for (add, i) in steps {
            if add {
                assert!(shadow.add_edge_labeled(spoke(i), hub, "spoke"));
            } else {
                assert!(shadow.remove_edge_labeled(spoke(i), hub, "spoke"));
            }
            let delta = shadow.take_delta().unwrap();
            g = g.apply_delta(&delta);
            replay.apply_delta(&delta);
            let before = Arc::as_ptr(&owned.inn[page]);
            owned.apply_delta_in_place(&delta);
            assert_eq!(
                Arc::as_ptr(&owned.inn[page]),
                before,
                "edited where it lies"
            );
            assert_same_snapshot(&g, &shadow.clone().freeze());
            assert_same_snapshot(&g, &replay.clone().freeze());
            assert_same_snapshot(&owned, &g);
            assert_eq!(
                g.inn[page].hub(slot).is_some(),
                g.in_degree(hub) > INLINE_RUN_MAX
            );
        }
        assert_eq!(g.in_degree(hub), INLINE_RUN_MAX);
    }

    #[test]
    fn a_page_of_two_hubs_walks_one_across_the_threshold_in_place() {
        // The first hub moving inline renumbers the second; moving out
        // again appends it after the second.
        let (g, hub) = ring_with_hub(INLINE_RUN_MAX);
        let mate = NodeId(hub.0 + 1);
        let g = g.edit(|b| {
            for src in 0..2 * PAGE_NODES as u32 {
                b.add_edge_labeled(NodeId(src), mate, "spoke");
            }
        });
        let (page, slot) = (hub.index() >> PAGE_SHIFT, hub.index() & PAGE_MASK);
        let mut head = g.thaw().freeze();
        let mut shadow = head.thaw();
        let mate_degree = head.in_degree(mate);
        assert_eq!(head.inn[page].hubs.len(), 2);
        for (add, src) in [(false, 0), (false, 1), (true, 1), (true, 0)] {
            if add {
                assert!(shadow.add_edge_labeled(NodeId(src), hub, "spoke"));
            } else {
                assert!(shadow.remove_edge_labeled(NodeId(src), hub, "spoke"));
            }
            head.apply_delta_in_place(&shadow.take_delta().unwrap());
            assert_same_snapshot(&head, &shadow.clone().freeze());
            assert_eq!(
                head.inn[page].hub(slot).is_some(),
                head.in_degree(hub) > INLINE_RUN_MAX
            );
            assert_eq!(head.in_degree(mate), mate_degree);
        }
    }

    #[test]
    fn an_owned_snapshot_edits_in_place_and_a_clone_copies_first() {
        let (g, hub) = ring_with_hub(2 * PAGE_NODES);
        let (page, slot) = (hub.index() >> PAGE_SHIFT, hub.index() & PAGE_MASK);
        let (next, val) = (g.vocab().intern("next"), g.vocab().intern("val"));
        let mut head = g.thaw().freeze();
        let pin = head.clone();
        let mut shadow = head.thaw();
        let edit = |shadow: &mut GraphBuilder, round: i64| {
            shadow.add_edge(NodeId(round as u32), hub, next);
            shadow.set_attr(hub, val, Value::Int(-round));
            shadow.take_delta().unwrap()
        };

        // Pinned: the touched pages, the hub's run and the tuple are
        // copied, and the pin keeps the old ones.
        head.apply_delta_in_place(&edit(&mut shadow, 1));
        assert_eq!(unshared(&pin.inn, &head.inn), vec![page]);
        assert_eq!(unshared(&pin.out, &head.out), vec![0]);
        assert_eq!(unshared(&pin.attrs, &head.attrs), vec![page]);
        assert_same_snapshot(&pin, &g);
        assert_same_snapshot(&head, &shadow.clone().freeze());

        // Unpinned: the copies have room to spare, so from the next
        // edit on the same pages, run and tuple are edited where they
        // lie.
        let hub_run = |head: &Graph| Arc::as_ptr(&head.inn[page].hub(slot).unwrap().entries);
        let held = |head: &Graph| {
            let (inn, out) = (Arc::as_ptr(&head.inn[page]), Arc::as_ptr(&head.out[0]));
            (
                inn,
                out,
                hub_run(head) as *const Adj,
                Arc::as_ptr(&head.attrs[page][slot]),
            )
        };
        let before = held(&head);
        for round in 2..6 {
            head.apply_delta_in_place(&edit(&mut shadow, round));
            assert_same_snapshot(&head, &shadow.clone().freeze());
        }
        assert_eq!(held(&head), before);
        assert_same_snapshot(&pin, &g);
    }

    #[test]
    fn empty_delta_shares_everything() {
        let g = ring();
        let g2 = g.apply_delta(&GraphDelta::new(g.node_count()));
        assert_eq!(unshared(&g.attrs, &g2.attrs), Vec::<usize>::new());
        assert_eq!(unshared(&g.out, &g2.out), Vec::<usize>::new());
        assert_eq!(unshared(&g.inn, &g2.inn), Vec::<usize>::new());
        assert!(shares_labels_and_extents(&g, &g2));
    }

    #[test]
    fn relabel_rebuilds_labels_and_extents_only() {
        let g = ring();
        let (a, b) = (g.label(NodeId(0)), g.label(NodeId(1)));
        let moved = NodeId(PAGE_NODES as u32 + 6);
        assert_eq!(g.label(moved), a);
        let g2 = g.edit(|builder| {
            builder.set_label(moved, b);
        });
        assert_eq!(g2.label(moved), b);
        assert!(g2.extent(b).contains(&moved) && !g2.extent(a).contains(&moved));
        assert!(!Arc::ptr_eq(&g.labels, &g2.labels));
        assert!(!Arc::ptr_eq(&g.extent_perm, &g2.extent_perm));
        assert!(!Arc::ptr_eq(&g.extent_rank, &g2.extent_rank));
        assert_extent_ranks(&g2);
        assert_eq!(unshared(&g.attrs, &g2.attrs), Vec::<usize>::new());
        assert_eq!(unshared(&g.out, &g2.out), Vec::<usize>::new());
        assert_eq!(unshared(&g.inn, &g2.inn), Vec::<usize>::new());
    }

    #[test]
    fn added_nodes_fill_free_slots_then_share_one_empty_page() {
        let g = ring();
        let free = PAGE_NODES - g.node_count() % PAGE_NODES;
        let g2 = g.edit(|b| {
            for _ in 0..free + 2 * PAGE_NODES {
                b.add_node_labeled("a");
            }
        });
        // The old pages — the partly filled last one included — are
        // shared; the two appended pages are one empty page, twice.
        assert_eq!(g2.out.len(), g.out.len() + 2);
        assert_eq!(
            unshared(&g.out, &g2.out[..g.out.len()]),
            Vec::<usize>::new()
        );
        assert_eq!(
            unshared(&g.attrs, &g2.attrs[..g.attrs.len()]),
            Vec::<usize>::new()
        );
        assert!(Arc::ptr_eq(&g2.inn[g.inn.len()], &g2.inn[g.inn.len() + 1]));
        let newest = NodeId(g2.node_count() as u32 - 1);
        assert!(g2.out_slice(newest).is_empty() && g2.attrs(newest).is_empty());
        // Added nodes rebuild the extents, their ranks included.
        assert!(!Arc::ptr_eq(&g.extent_rank, &g2.extent_rank));
        assert_extent_ranks(&g2);
    }

    #[test]
    #[should_panic(expected = "dst n99 is not a node")]
    fn add_edge_rejects_unknown_dst() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let a = b.add_node_labeled("a");
        b.add_edge_labeled(a, NodeId(99), "e");
    }

    #[test]
    fn has_edge_any_skip_scan_on_long_runs() {
        // A hub with > 16 out-edges exercises the label-segment
        // skip-scan rather than the short-run linear path.
        let mut b = GraphBuilder::with_fresh_vocab();
        let hub = b.add_node_labeled("hub");
        let spokes: Vec<NodeId> = (0..24).map(|_| b.add_node_labeled("v")).collect();
        for (i, &s) in spokes.iter().enumerate() {
            b.add_edge_labeled(hub, s, &format!("e{}", i % 5));
        }
        let g = b.freeze();
        assert!(g.out_degree(hub) > 16);
        for &s in &spokes {
            assert!(g.has_edge_any(hub, s));
        }
        assert!(!g.has_edge_any(hub, hub));
        assert!(!g.has_edge_any(spokes[0], hub));
    }

    #[test]
    fn set_label_updates_extents_through_freeze() {
        let mut b = GraphBuilder::with_fresh_vocab();
        let a = b.add_node_labeled("x");
        let _ = b.add_node_labeled("x");
        let y = b.vocab().intern("y");
        b.set_label(a, y);
        let g = b.freeze();
        let x = g.vocab().lookup("x").unwrap();
        assert_eq!(g.extent(x).len(), 1);
        assert_eq!(g.extent(y), &[a]);
    }
}
