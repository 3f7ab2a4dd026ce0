//! Scaled stand-ins for the paper's real-life graphs.
//!
//! The real DBpedia (28M nodes / 33.4M edges, 200 node types, 160 edge
//! types), YAGO2 (3.5M / 7.35M, 13 / 36) and Pokec (1.63M / 30.6M, 269
//! / 11) cannot be downloaded in this environment, so we generate
//! graphs that preserve the statistics the GFD algorithms are
//! sensitive to — type-alphabet sizes, node:edge ratios, entity shapes
//! (hub + property leaves, the shape `Q1`-style patterns match), and
//! power-law relation skew — at roughly 0.1% scale. `ROADMAP.md`'s
//! Architecture section places the stand-ins in the workspace; the bin
//! table in `crates/bench/src/lib.rs` lists the figures run on them.
//!
//! Entities are hubs typed over a Zipf alphabet; each carries property
//! leaves (typed nodes with a `val` attribute, like `flight → id`)
//! and power-law cross-entity relations. Leaf values are drawn from
//! small per-type domains so equality antecedents actually fire, and
//! a configurable fraction of *twin entities* share their first leaf
//! value while agreeing on the rest — the "same id ⇒ same fields"
//! regularity that FD-style rules rely on.

use gfd_graph::{Graph, GraphBuilder, NodeId, Value};
use gfd_util::Rng;

use crate::synth::ZipfSampler;

/// Which real-life graph to imitate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RealLifeKind {
    /// Knowledge graph, wide type alphabet, sparse (ratio ≈ 1.2).
    DBpedia,
    /// Knowledge base, narrow type alphabet, ratio ≈ 2.1.
    Yago2,
    /// Social network, dense relations (high avg degree).
    Pokec,
}

/// Stand-in generator configuration.
#[derive(Clone, Debug)]
pub struct RealLifeConfig {
    /// Which shape to produce.
    pub kind: RealLifeKind,
    /// Size multiplier (1.0 = the default bench scale).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RealLifeConfig {
    /// Default-scale config.
    pub fn new(kind: RealLifeKind) -> Self {
        RealLifeConfig {
            kind,
            scale: 1.0,
            seed: 0xBEEF,
        }
    }
}

struct Shape {
    entities: usize,
    entity_types: usize,
    leaf_types: usize,
    leaves_per_entity: usize,
    relations_per_entity: f64,
    relation_types: usize,
    skew: f64,
    /// Fraction of entities that have a twin sharing leaf 0's value.
    twin_fraction: f64,
}

fn shape(kind: RealLifeKind) -> Shape {
    match kind {
        RealLifeKind::DBpedia => Shape {
            entities: 10_000,
            entity_types: 60,
            leaf_types: 30,
            leaves_per_entity: 2,
            relations_per_entity: 1.3,
            relation_types: 50,
            skew: 1.5,
            twin_fraction: 0.10,
        },
        RealLifeKind::Yago2 => Shape {
            entities: 8_000,
            entity_types: 13,
            leaf_types: 12,
            leaves_per_entity: 2,
            relations_per_entity: 4.3,
            relation_types: 24,
            skew: 1.6,
            twin_fraction: 0.10,
        },
        RealLifeKind::Pokec => Shape {
            entities: 5_000,
            entity_types: 40,
            leaf_types: 4,
            leaves_per_entity: 1,
            relations_per_entity: 12.0,
            relation_types: 8,
            skew: 1.8,
            twin_fraction: 0.08,
        },
    }
}

/// Generates a real-life-shaped graph.
pub fn reallife_graph(cfg: &RealLifeConfig) -> Graph {
    let s = shape(cfg.kind);
    let entities = ((s.entities as f64 * cfg.scale) as usize).max(16);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut g = GraphBuilder::with_fresh_vocab();
    let vocab = g.vocab().clone();
    let prefix = match cfg.kind {
        RealLifeKind::DBpedia => "db",
        RealLifeKind::Yago2 => "yg",
        RealLifeKind::Pokec => "pk",
    };

    let etypes: Vec<_> = (0..s.entity_types)
        .map(|i| vocab.intern(&format!("{prefix}_type{i}")))
        .collect();
    let ltypes: Vec<_> = (0..s.leaf_types)
        .map(|i| vocab.intern(&format!("{prefix}_prop{i}")))
        .collect();
    let rtypes: Vec<_> = (0..s.relation_types)
        .map(|i| vocab.intern(&format!("{prefix}_rel{i}")))
        .collect();
    let leaf_edge: Vec<_> = (0..s.leaves_per_entity)
        .map(|i| vocab.intern(&format!("{prefix}_has{i}")))
        .collect();
    let val = vocab.intern("val");
    let name = vocab.intern("name");

    let type_sampler = ZipfSampler::new(s.entity_types, 1.0);
    // Value domains small enough to create equal-value pairs.
    let domain = (entities / 5).max(4);

    let mut hubs: Vec<NodeId> = Vec::with_capacity(entities);
    let mut hub_type: Vec<usize> = Vec::with_capacity(entities);
    for i in 0..entities {
        let t = type_sampler.sample(&mut rng);
        let hub = g.add_node(etypes[t]);
        g.set_attr(hub, name, Value::Str(format!("e{i}").into()));
        hubs.push(hub);
        hub_type.push(t);
    }

    // Twin assignment: entity i in the twin fraction copies the leaf-0
    // value of its partner (the previous same-type entity).
    let mut leaf0_value: Vec<Option<String>> = vec![None; entities];
    let mut last_of_type: Vec<Option<usize>> = vec![None; s.entity_types];
    for i in 0..entities {
        let t = hub_type[i];
        let is_twin = rng.gen_bool(s.twin_fraction);
        let v0 = match (is_twin, last_of_type[t]) {
            (true, Some(j)) => leaf0_value[j].clone().expect("partner has a value"),
            _ => format!("id{}", rng.gen_range(0..domain * 4)),
        };
        leaf0_value[i] = Some(v0);
        last_of_type[t] = Some(i);
    }

    for i in 0..entities {
        let t = hub_type[i];
        for l in 0..s.leaves_per_entity {
            // Leaf type depends on (entity type, slot): entities of a
            // type share their property schema, like flights all
            // having an id leaf.
            let lt = ltypes[(t * 7 + l) % s.leaf_types];
            let leaf = g.add_node(lt);
            let v = if l == 0 {
                leaf0_value[i].clone().expect("assigned above")
            } else {
                // Non-id leaves: twins agree (value derived from leaf 0),
                // others draw from the domain.
                format!(
                    "w{:x}",
                    fxhash(leaf0_value[i].as_deref().unwrap_or(""), l as u64)
                )
            };
            g.set_attr(leaf, val, Value::Str(v.into()));
            g.add_edge(hubs[i], leaf, leaf_edge[l]);
        }
    }

    // Cross-entity relations with power-law targets.
    let target = ZipfSampler::new(entities, s.skew);
    let total_rel = (entities as f64 * s.relations_per_entity) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < total_rel && attempts < total_rel * 10 {
        attempts += 1;
        let src = hubs[rng.gen_range(0..entities)];
        let dst = hubs[target.sample(&mut rng)];
        if src == dst {
            continue;
        }
        let r = rtypes[rng.gen_range(0..s.relation_types)];
        if g.add_edge(src, dst, r) {
            added += 1;
        }
    }
    g.freeze()
}

/// Builds the *twin-consistency* rule set for a stand-in graph: for
/// every `(entity type, leaf₀ type, leaf₁ type)` schema combination
/// found in the graph, the GFD "entities agreeing on leaf₀'s value
/// agree on leaf₁'s value" — the `ϕ1` (flight) shape. Clean stand-in
/// graphs satisfy all of these by construction (leaf₁ is a function of
/// leaf₀), so any violation pinpoints injected noise; this is the rule
/// set the Fig. 9 accuracy experiment validates with.
pub fn twin_rules(g: &Graph, kind: RealLifeKind) -> gfd_core::GfdSet {
    use gfd_core::{Dependency, Gfd, Literal};
    use gfd_pattern::PatternBuilder;

    let prefix = match kind {
        RealLifeKind::DBpedia => "db",
        RealLifeKind::Yago2 => "yg",
        RealLifeKind::Pokec => "pk",
    };
    let vocab = g.vocab().clone();
    let Some(has0) = vocab.lookup(&format!("{prefix}_has0")) else {
        return gfd_core::GfdSet::default();
    };
    let has1 = vocab.lookup(&format!("{prefix}_has1"));
    let val = vocab.intern("val");

    // Discover (hub label, leaf0 label, leaf1 label) schema combos.
    let mut combos: Vec<(gfd_graph::Sym, gfd_graph::Sym, Option<gfd_graph::Sym>)> = Vec::new();
    for e in g.edges() {
        if e.label != has0 {
            continue;
        }
        let hub = e.src;
        let l0 = g.label(e.dst);
        let l1 = has1.and_then(|h1| {
            g.neighbors_labeled(hub, h1)
                .first()
                .map(|a| g.label(a.node))
        });
        let combo = (g.label(hub), l0, l1);
        if !combos.contains(&combo) {
            combos.push(combo);
        }
    }
    combos.sort_by_key(|&(a, b, c)| (a, b, c.map(|s| s.0 + 1).unwrap_or(0)));

    let mut rules = Vec::new();
    for (i, (hub_l, l0, l1)) in combos.into_iter().enumerate() {
        let mut b = PatternBuilder::new(vocab.clone());
        let hub_name = vocab.resolve(hub_l);
        let l0_name = vocab.resolve(l0);
        let x = b.node("x", &hub_name);
        let xi = b.node("xi", &l0_name);
        b.edge(x, xi, &format!("{prefix}_has0"));
        let y = b.node("y", &hub_name);
        let yi = b.node("yi", &l0_name);
        b.edge(y, yi, &format!("{prefix}_has0"));
        let dep = match l1 {
            Some(l1) => {
                let l1_name = vocab.resolve(l1);
                let xj = b.node("xj", &l1_name);
                b.edge(x, xj, &format!("{prefix}_has1"));
                let yj = b.node("yj", &l1_name);
                b.edge(y, yj, &format!("{prefix}_has1"));
                Dependency::new(
                    vec![Literal::var_eq(xi, val, yi, val)],
                    vec![Literal::var_eq(xj, val, yj, val)],
                )
            }
            // Single-leaf entities (Pokec): same id ⇒ same name.
            None => {
                let name = vocab.intern("name");
                let _ = name;
                Dependency::new(
                    vec![Literal::var_eq(xi, val, yi, val)],
                    vec![Literal::var_eq(xi, val, xi, val)],
                )
            }
        };
        rules.push(Gfd::new(format!("twin-consistency-{i}"), b.build(), dep));
    }
    gfd_core::GfdSet::new(rules)
}

/// Tiny deterministic string hash (derived leaf values must be a pure
/// function of the id value so twins agree).
fn fxhash(s: &str, salt: u64) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ salt.wrapping_mul(0x100000001b3);
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h & 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_expected_ratios() {
        for (kind, lo, hi) in [
            (RealLifeKind::DBpedia, 0.8, 1.6),
            (RealLifeKind::Yago2, 1.5, 2.6),
            (RealLifeKind::Pokec, 4.0, 14.0),
        ] {
            let g = reallife_graph(&RealLifeConfig {
                scale: 0.2,
                ..RealLifeConfig::new(kind)
            });
            let ratio = g.edge_count() as f64 / g.node_count() as f64;
            assert!(
                ratio > lo && ratio < hi,
                "{kind:?}: edge/node ratio {ratio} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RealLifeConfig {
            scale: 0.1,
            ..RealLifeConfig::new(RealLifeKind::Yago2)
        };
        let a = reallife_graph(&cfg);
        let b = reallife_graph(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn twins_share_leaf0_and_agree_on_derived_leaves() {
        let g = reallife_graph(&RealLifeConfig {
            scale: 0.5,
            ..RealLifeConfig::new(RealLifeKind::Yago2)
        });
        let val = g.vocab().lookup("val").unwrap();
        // Group leaf-0 values; twins exist iff some value repeats.
        let mut counts = std::collections::HashMap::new();
        for n in g.nodes() {
            if let Some(v) = g.attr(n, val) {
                *counts.entry(v.clone()).or_insert(0usize) += 1;
            }
        }
        assert!(
            counts.values().any(|&c| c > 1),
            "twin fraction must produce duplicate leaf values"
        );
    }

    #[test]
    fn pokec_is_densest() {
        let mk = |kind| {
            let g = reallife_graph(&RealLifeConfig {
                scale: 0.2,
                ..RealLifeConfig::new(kind)
            });
            let total: usize = g.nodes().map(|u| g.degree(u)).sum();
            total as f64 / g.node_count() as f64
        };
        let pokec = mk(RealLifeKind::Pokec);
        let dbp = mk(RealLifeKind::DBpedia);
        assert!(pokec > dbp, "pokec {pokec} vs dbpedia {dbp}");
    }
}
