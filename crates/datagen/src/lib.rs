//! # gfd-datagen — graphs, rules and noise for GFD experiments
//!
//! Everything Section 7 of *Functional Dependencies for Graphs* (Fan,
//! Wu & Xu, SIGMOD 2016) needs as experimental inputs:
//!
//! * [`synth`] — the synthetic generator: power-law degree
//!   distribution, configurable `|V|`/`|E|`, a 30-label alphabet, 5
//!   attributes over an active domain of 1000 values, plus a skew knob
//!   for the Fig. 8 experiment;
//! * [`reallife`] — scaled stand-ins for DBpedia, YAGO2 and Pokec that
//!   preserve the statistics GFD validation is sensitive to (type
//!   alphabet sizes, node:edge ratios, entity shapes, degree skew) —
//!   the offline substitution (see `ROADMAP.md`, Architecture);
//! * [`rules`] — the GFD generator of §7: mine frequent features
//!   (edges and short paths), pick top seeds, assemble patterns of a
//!   target size with 1–2 connected components, then attach attribute
//!   dependencies;
//! * [`noise`] — the appendix's error injection (attribute / type /
//!   representational inconsistencies at a configurable rate, default
//!   2%), recording the ground-truth dirty entities for
//!   precision/recall scoring.

pub mod noise;
pub mod reallife;
pub mod rules;
pub mod synth;

pub use noise::{inject_noise, NoiseConfig, NoiseReport};
pub use reallife::{reallife_graph, RealLifeConfig, RealLifeKind};
pub use rules::{isomorphic_twin, mine_gfds, RuleGenConfig};
pub use synth::{synthetic_graph, SynthConfig};
