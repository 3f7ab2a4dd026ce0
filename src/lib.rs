//! # gfd — functional dependencies for graphs
//!
//! A faithful, from-scratch Rust implementation of *Functional
//! Dependencies for Graphs* (Wenfei Fan, Yinghui Wu, Jingbo Xu,
//! SIGMOD 2016): the GFD dependency class, its classical static
//! analyses, and parallel-scalable inconsistency detection on large
//! property graphs.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `gfd-graph` | property graphs as a mutable `GraphBuilder` + frozen CSR `Graph` snapshot, its binary codec, neighborhoods and Fig. 8's skew ratio, fragments |
//! | [`pattern`] | `gfd-pattern` | graph patterns `Q[x̄]`, pivots, canonical forms, tree decompositions |
//! | [`matcher`] | `gfd-match` | subgraph isomorphism, pivoted matching, simulation |
//! | [`core`] | `gfd-core` | GFDs, satisfiability, implication, validation |
//! | [`parallel`] | `gfd-parallel` | workload model, repVal / disVal over one `Arc<Graph>`, cluster runtime |
//! | [`datagen`] | `gfd-datagen` | synthetic + real-life-shaped graphs, rule mining, noise |
//! | [`baselines`] | `gfd-baselines` | GCFD and relational-join comparison validators |
//!
//! ## Storage model
//!
//! Graphs follow a builder/snapshot split: construct with
//! [`graph::GraphBuilder`] (`add_node`, `add_edge`, `set_attr`, …),
//! then [`graph::GraphBuilder::freeze`] into an immutable CSR
//! [`graph::Graph`] that every validator reads. The snapshot stores
//! pages of per-node edge runs sorted by `(label, dst)` — `has_edge`
//! is one binary search, per-label neighbor lists and label extents
//! are zero-allocation slices — and is shared across workers behind an
//! `Arc`, never cloned. Repairs go back through
//! [`graph::Graph::thaw`] / [`graph::Graph::edit`].
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use gfd::core::{Gfd, GfdSet, Dependency, Literal, validate::detect_violations};
//! use gfd::graph::{GraphBuilder, Value, Vocab};
//! use gfd::pattern::PatternBuilder;
//!
//! // A graph with one country and two capitals (the Fig. 1 error).
//! let vocab = Vocab::shared();
//! let mut b = GraphBuilder::new(vocab.clone());
//! let au = b.add_node_labeled("country");
//! let canberra = b.add_node_labeled("city");
//! let melbourne = b.add_node_labeled("city");
//! b.add_edge_labeled(au, canberra, "capital");
//! b.add_edge_labeled(au, melbourne, "capital");
//! b.set_attr_named(canberra, "val", Value::str("Canberra"));
//! b.set_attr_named(melbourne, "val", Value::str("Melbourne"));
//! let g = b.freeze(); // immutable CSR snapshot
//!
//! // GFD ϕ2 of Example 5: a country's two capitals must agree.
//! let mut b = PatternBuilder::new(vocab.clone());
//! let x = b.node("x", "country");
//! let y = b.node("y", "city");
//! let z = b.node("z", "city");
//! b.edge(x, y, "capital");
//! b.edge(x, z, "capital");
//! let q2 = b.build();
//! let val = vocab.intern("val");
//! let phi2 = Gfd::new("capital-unique", q2,
//!     Dependency::new(vec![], vec![Literal::var_eq(y, val, z, val)]));
//!
//! let sigma = GfdSet::new(vec![phi2]);
//! let violations = detect_violations(&sigma, &g);
//! assert_eq!(violations.len(), 2); // the two orderings of (Canberra, Melbourne)
//! ```

pub use gfd_baselines as baselines;
pub use gfd_core as core;
pub use gfd_datagen as datagen;
pub use gfd_graph as graph;
pub use gfd_match as matcher;
pub use gfd_parallel as parallel;
pub use gfd_pattern as pattern;
