//! # gfd-pattern — graph patterns `Q[x̄]`
//!
//! Implements the pattern language of §2 of *Functional Dependencies
//! for Graphs* (Fan, Wu & Xu, SIGMOD 2016):
//!
//! * a pattern is a directed graph whose nodes and edges carry either a
//!   concrete label or the wildcard `_`;
//! * `x̄` is a list of variables, one per pattern node (the bijection
//!   `µ` is the identity on indices here: variable `i` *is* node `i`);
//! * patterns may be disconnected (`Q1`, `Q4` in Fig. 2) — matches of
//!   different components may land far apart in the data graph.
//!
//! On top of the representation this crate provides the analyses the
//! GFD algorithms need:
//!
//! * connected components, eccentricities and **pivot selection** (the
//!   minimum-radius node per component, §5.2) — module [`analysis`];
//! * 1-WL **colors** (the canonical search's color partition) and the
//!   component decomposition — module [`signature`];
//! * complete **canonical forms** with explicit [`IsoWitness`]
//!   bijections — the exact-isomorphism layer that groups isomorphic
//!   rules across a rule set (the multi-query optimization of the
//!   appendix), that the candidate-space registry keys on and that its
//!   members read through — module [`canon`];
//! * **tree decompositions** with exact width for the small components
//!   mined rules produce — the width prices work units; no search
//!   reads it — module [`decomp`].

pub mod analysis;
pub mod canon;
pub mod decomp;
pub mod pattern;
pub mod signature;

pub use analysis::{ComponentInfo, PivotVector};
pub use canon::{canonical_form, iso_witness, CanonicalForm, IsoWitness};
pub use decomp::{tree_decomposition, TreeDecomposition};
pub use pattern::{distinct_neighbors, PatLabel, Pattern, PatternBuilder, PatternEdge, VarId};
