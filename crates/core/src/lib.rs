//! # gfd-core — functional dependencies for graphs
//!
//! The primary contribution of *Functional Dependencies for Graphs*
//! (Fan, Wu & Xu, SIGMOD 2016), implemented in full:
//!
//! * **Syntax & semantics** (§3): a GFD `ϕ = (Q[x̄], X → Y)` pairs a
//!   topological constraint (graph pattern `Q`) with an attribute
//!   dependency between constant literals `x.A = c` and variable
//!   literals `x.A = y.B`. `G ⊨ ϕ` iff every match `h(x̄)` of `Q` in
//!   `G` with `h ⊨ X` also has `h ⊨ Y` (modules [`literal`], [`gfd`],
//!   [`validate`]).
//! * **Satisfiability** (§4.1, coNP-complete): whether a set `Σ` has a
//!   model containing a match of every pattern. Implemented via the
//!   conflict characterization of Lemma 3 as a canonical-model chase
//!   that also *produces* a model on success (module [`sat`]).
//! * **Implication** (§4.2, NP-complete): `Σ ⊨ ϕ` via deducibility of
//!   `Y` from `closure(Σ_Q, X)` over embedded GFDs, Lemma 7 — the
//!   matches of `Σ` in `Q`'s canonical graph (module [`implication`]).
//! * **Validation / error detection** (§5.1, coNP-complete): the set
//!   `Vio(Σ, G)` of violating matches, with the sequential reference
//!   algorithm `detVio` (module [`validate`]; the parallel-scalable
//!   algorithms live in the `gfd-parallel` crate). Every detection path
//!   enumerates through one primitive (module [`group`]): Σ grouped by
//!   pattern isomorphism class, one search per group and pin, every
//!   member's `X → Y` checked on the row.
//! * **Classical dependencies as special cases** (§3): encodings of
//!   relations, FDs and CFDs into graphs and GFDs (module [`cfd`]).
//!
//! The equality-atom reasoning shared by `enforced(Σ_Q)` and
//! `closure(Σ_Q, X)` is a union–find over attribute terms and
//! constants (module [`eqrel`]); grounding `Σ` on its matches in a
//! canonical graph — the embedded GFDs of both analyses, found by the
//! same enumerator detection uses — lives in module [`closure`].

pub mod cfd;
pub mod closure;
pub mod eqrel;
pub mod gfd;
pub mod group;
pub mod implication;
pub mod incremental;
pub mod literal;
pub mod sat;
pub mod validate;

pub use gfd::{Gfd, GfdSet};
pub use group::RuleGroups;
pub use implication::implies;
pub use incremental::{IncrementalDetector, VioDiff};
pub use literal::{Dependency, Literal};
pub use sat::{check_satisfiability, SatOutcome};
pub use validate::{
    detect_violations, detect_violations_shared, detect_violations_with, graph_satisfies,
    DetScratch, Violation,
};
