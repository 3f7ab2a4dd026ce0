//! # gfd-graph — property-graph substrate for GFDs
//!
//! This crate implements the data model of Section 2 of *Functional
//! Dependencies for Graphs* (Fan, Wu & Xu, SIGMOD 2016): directed graphs
//! `G = (V, E, L, F_A)` with labeled nodes and edges and an attribute
//! tuple `F_A(v)` per node, plus every graph-side facility the GFD
//! algorithms of Sections 5–6 need:
//!
//! * interned labels and attribute names ([`Vocab`], [`Sym`]);
//! * attribute values ([`Value`]) and per-node attribute maps ([`AttrMap`]);
//! * the graph itself, split into a mutable [`GraphBuilder`] and an
//!   immutable CSR snapshot [`Graph`] produced by
//!   [`GraphBuilder::freeze`] — fixed-size node pages behind `Arc`s,
//!   each a small CSR per direction with edge runs sorted by
//!   `(label, dst)`, and label extents as contiguous ranges over a
//!   node permutation (see [`graph`] module docs for the layout
//!   rationale);
//! * recorded edit deltas ([`GraphDelta`], module [`delta`]): every
//!   thaw/edit session captures its mutations, refreezing rebuilds
//!   only the pages the delta touches
//!   ([`graph::Graph::apply_delta`]) and shares the rest, a replay
//!   applies a chain of them to one builder in place
//!   ([`GraphBuilder::apply_delta`]) and freezes once, one
//!   [`GraphDelta::check_against`] validates against either side
//!   ([`DeltaBase`]), and the delta feeds the incremental maintenance
//!   subsystems in `gfd-match`/`gfd-core`/`gfd-parallel`;
//! * `k`-hop neighborhoods, the node side of the paper's data blocks
//!   `G_z̄`, and [`NodeSet`], the node set that scopes a simulation
//!   (module [`neighborhood`]);
//! * sorted-slice intersection kernels (merge + galloping) used by the
//!   matcher's candidate-pool refinement (module [`intersect`]);
//! * fragmentations `(F_1, …, F_n)` with in-/out-border nodes for the
//!   distributed setting of §6.2 (module [`fragment`]);
//! * graph statistics: label frequencies, degrees and the skew ratio
//!   of Fig. 8 (module [`stats`]);
//! * a self-contained snapshot form ([`GraphData`], module [`io`]);
//!   both [`GraphDelta`] and
//!   [`GraphData`] also carry a plain-bytes binary codec
//!   (`encode_into`/`decode`) whose decoder is hardened against
//!   hostile input — it is the record payload of the durable
//!   write-ahead log in `gfd-parallel`, which streams snapshots
//!   straight from a graph in fixed-size chunks
//!   ([`encode_snapshot_chunked`]) and reads them straight into a
//!   builder ([`DecodedSnapshot`]).
//!
//! The crate is fully self-contained (no external dependencies);
//! everything the paper's algorithms touch is implemented here from
//! scratch.

pub mod attrs;
pub mod delta;
pub mod fragment;
pub mod graph;
pub mod intersect;
pub mod io;
pub mod neighborhood;
pub mod stats;
pub mod value;
pub mod vocab;

pub use attrs::AttrMap;
pub use delta::{AttrOp, DeltaBase, DeltaError, GraphDelta, LabelChange};
pub use fragment::{FragmentId, Fragmentation, PartitionStrategy};
pub use graph::{Adj, Edge, Graph, GraphBuilder, NodeId};
pub use io::{
    encode_snapshot, encode_snapshot_chunked, DecodedSnapshot, GraphData, SNAPSHOT_CHUNK,
};
pub use neighborhood::NodeSet;
pub use stats::GraphStats;
pub use value::Value;
pub use vocab::{Sym, Vocab};
