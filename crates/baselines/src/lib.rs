//! # gfd-baselines — comparison methods for the Fig. 9 experiment
//!
//! The appendix of *Functional Dependencies for Graphs* (Fan, Wu & Xu,
//! SIGMOD 2016) compares GFD-based error detection against
//!
//! * **GCFDs** \[23\] — CFDs on RDF with *conjunctive path* patterns
//!   only: no cycles, no branching joins, no cross-path value tests.
//!   Module [`gcfd`] re-implements that expressiveness restriction:
//!   a GFD is expressible as a GCFD only when its pattern is a single
//!   directed chain; validation runs through the same engine, so the
//!   measured difference is purely the expressiveness gap (lower
//!   recall, Fig. 9's 0.57 vs 0.91);
//! * **BigDansing** \[28\] — a relational data-cleansing system where
//!   GFDs must be hand-coded as join-based user-defined functions
//!   over node/edge tables. Module [`relational`] implements that
//!   evaluation strategy faithfully: per-pattern-edge hash joins over
//!   an edge table, no pivot locality, injectivity and dependency
//!   checks applied to the joined tuples — same answers as the graph
//!   engine, paid for with join blow-up (the paper's 4.6× slowdown).

pub mod gcfd;
pub mod relational;

pub use gcfd::{expressible_as_gcfd, gcfd_subset};
pub use relational::RelationalValidator;
