//! # gfd-match — graph pattern matching via subgraph isomorphism
//!
//! The matching machinery of *Functional Dependencies for Graphs*
//! (Fan, Wu & Xu, SIGMOD 2016). A *match* of pattern `Q[x̄]` in graph
//! `G` is an injective mapping `h : V_Q → V` such that node labels are
//! admitted (wildcard matches anything) and every pattern edge maps to
//! a graph edge with an admitted label — the paper's "subgraph of `G`
//! isomorphic to `Q`" (§2), since the witnessing subgraph can always be
//! taken edge-exact.
//!
//! Features the GFD algorithms rely on:
//!
//! * **disconnected patterns**: components are matched independently
//!   and joined under global injectivity (`Q1`/`Q4` of Fig. 2 relate
//!   entities that may be arbitrarily far apart);
//! * **pivoted local matching**: pin pivot `z` at a node or at a
//!   node-id interval ([`Pin`]), and the search stays inside the
//!   pinned nodes' `G_z̄` (work-unit processing, §5.2/§6.1);
//! * **streaming enumeration** with early termination — validation
//!   often only needs the first violating match;
//! * **graph simulation** (module [`simulation`]) — the polynomial
//!   over-approximation `disVal` uses to estimate partial-match sizes
//!   before shipping them (§6.2), computed as a worklist fixpoint and
//!   reused as the *filter* stage of filter-and-refine enumeration:
//!   the resulting [`simulation::CandidateSpace`] is the exact
//!   enumerator's pool source.
//!
//! Every connected component is enumerated by **one recursion**
//! ([`component::ComponentSearch`]) whose two decisions are data: the
//! pool source (a candidate space — multiway intersection of every
//! placed neighbor's candidate-adjacency run — or the raw CSR) and the
//! variable order (pins first, then greedy by connectivity and
//! candidate-set size). There is no planner above it: every search,
//! pinned or not, cyclic or not, takes the enumerator's own
//! data-aware order. Candidate spaces are cached once per canonical
//! class in the [`registry::ClassRegistry`] — the bounded, internally
//! synchronized serving tier for every consumer of one Σ, in the class
//! representative's variable numbering. The one full-form entry point,
//! [`for_each_match_with`], takes such a space optionally;
//! [`for_each_match_in`] takes a registry member's
//! [`ClassView`] and translates between the member's variables and the
//! representative's; everything else — [`count_matches_with`]
//! included — is a wrapper.

pub mod api;
pub mod component;
pub mod incremental;
pub mod join;
pub mod registry;
pub mod simulation;
pub mod table;
pub mod types;

pub use api::{
    auto_simulate, count_matches, count_matches_with, for_each_match, for_each_match_in,
    for_each_match_with, MatchScratch,
};
pub use component::{ComponentSearch, SearchScratch, StopReason};
pub use incremental::{IncrementalSpace, RepairReport};
pub use registry::{
    CacheStats, ClassRegistry, ClassView, SpaceHandle, DEFAULT_REGISTRY_BUDGET_BYTES,
};
pub use simulation::{dual_simulation, dual_simulation_with, CandidateSpace, SimScratch};
pub use table::MatchTable;
pub use types::{Match, MatchOptions, Pin, SearchBudget};
