//! The GFD generator of §7.
//!
//! "We first mined frequent features, including edges and paths of
//! length up to 3. We selected top-5 most frequent features as
//! 'seeds', and combined them to form patterns Q of size |Q| [with 1
//! or 2 connected components]. For each Q, we constructed dependency
//! X → Y with literals composed of the node attributes."
//!
//! Patterns grow greedily from a seed feature by attaching further
//! frequent features at label-compatible nodes until the requested
//! node count is reached. Two-component rules are twin patterns (the
//! `ϕ1`/`Q1` shape) whose hub label is chosen from moderately-sized
//! extents so that the pivot-pair workload stays tractable; their
//! dependencies equate twin attributes (`x₁.val = y₁.val → x₂.val =
//! y₂.val`). Single-component rules get constant or variable literals
//! drawn from values actually present in the graph, so antecedents
//! fire on real data.

use std::collections::HashMap;

use gfd_core::{Dependency, Gfd, GfdSet, Literal};
use gfd_graph::{Graph, NodeId, Sym};
use gfd_pattern::{PatternBuilder, VarId};
use gfd_util::Rng;

/// Rule-generation parameters.
#[derive(Clone, Debug)]
pub struct RuleGenConfig {
    /// Number of rules `‖Σ‖` to produce.
    pub count: usize,
    /// Pattern node count `|Q|` (per component for twin rules).
    pub pattern_nodes: usize,
    /// Fraction of rules with two (twin) components.
    pub two_component_fraction: f64,
    /// Largest admissible pivot extent for two-component rules (bounds
    /// the quadratic pivot-pair workload).
    pub max_pivot_extent: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RuleGenConfig {
    fn default() -> Self {
        RuleGenConfig {
            count: 50,
            pattern_nodes: 3,
            two_component_fraction: 0.3,
            max_pivot_extent: 150,
            seed: 0xACE,
        }
    }
}

/// An edge feature `(src label, edge label, dst label)` with its count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct EdgeFeature {
    src: Sym,
    edge: Sym,
    dst: Sym,
}

/// Mines edge-feature frequencies in one pass.
fn mine_edge_features(g: &Graph) -> Vec<(EdgeFeature, usize)> {
    let mut counts: HashMap<EdgeFeature, usize> = HashMap::new();
    for e in g.edges() {
        let f = EdgeFeature {
            src: g.label(e.src),
            edge: e.label,
            dst: g.label(e.dst),
        };
        *counts.entry(f).or_insert(0) += 1;
    }
    let mut out: Vec<_> = counts.into_iter().collect();
    out.sort_by_key(|&(f, c)| (std::cmp::Reverse(c), f.src, f.edge, f.dst));
    out
}

/// Attribute symbols observed on nodes labeled `label` (first few).
fn attrs_of_label(g: &Graph, label: Sym) -> Vec<Sym> {
    for &n in g.extent(label).iter().take(16) {
        let attrs: Vec<Sym> = g.attrs(n).iter().map(|(a, _)| a).collect();
        if !attrs.is_empty() {
            return attrs;
        }
    }
    Vec::new()
}

/// A sample value of `label.attr` from the graph, if any.
fn sample_value(g: &Graph, label: Sym, attr: Sym, rng: &mut Rng) -> Option<gfd_graph::Value> {
    let extent = g.extent(label);
    if extent.is_empty() {
        return None;
    }
    for _ in 0..8 {
        let n: NodeId = extent[rng.gen_range(0..extent.len())];
        if let Some(v) = g.attr(n, attr) {
            return Some(v.clone());
        }
    }
    None
}

/// One grown component: builder var ids with their labels, hub first.
struct GrownComponent {
    vars: Vec<(VarId, Sym)>,
}

/// Grows a connected component of `size` nodes in `builder`, starting
/// from `seed` and extending with label-compatible features.
fn grow_component(
    b: &mut PatternBuilder,
    prefix: &str,
    seed: EdgeFeature,
    features: &[(EdgeFeature, usize)],
    size: usize,
    g: &Graph,
    rng: &mut Rng,
) -> GrownComponent {
    let vocab = g.vocab();
    let hub = b.node(&format!("{prefix}0"), &vocab.resolve(seed.src));
    let mut vars = vec![(hub, seed.src)];
    let first = b.node(&format!("{prefix}1"), &vocab.resolve(seed.dst));
    b.edge(hub, first, &vocab.resolve(seed.edge));
    vars.push((first, seed.dst));
    let mut next_id = 2usize;
    while vars.len() < size {
        // Attach a frequent feature at a random existing node.
        let &(anchor, anchor_label) = &vars[rng.gen_range(0..vars.len())];
        let candidates: Vec<&(EdgeFeature, usize)> = features
            .iter()
            .filter(|(f, _)| f.src == anchor_label)
            .take(6)
            .collect();
        let Some((f, _)) = rng.choose(&candidates).copied() else {
            // Nothing attaches here; try the hub's own features.
            if vars.len() >= 2 {
                break;
            }
            break;
        };
        let v = b.node(&format!("{prefix}{next_id}"), &vocab.resolve(f.dst));
        next_id += 1;
        b.edge(anchor, v, &vocab.resolve(f.edge));
        vars.push((v, f.dst));
    }
    GrownComponent { vars }
}

/// Rebuilds a pattern with its variables declared in reverse order
/// under fresh `t{tag}_`-prefixed names — an exact-label isomorphic
/// twin, the shape mined rule sets are full of (Example 10). Used by
/// tests and benchmarks to grow a Σ with guaranteed shared
/// isomorphism classes.
pub fn isomorphic_twin(q: &gfd_pattern::Pattern, tag: usize) -> gfd_pattern::Pattern {
    use gfd_pattern::PatLabel;
    let vocab = q.vocab().clone();
    let mut b = PatternBuilder::new(vocab.clone());
    let mut new_of = vec![VarId(u32::MAX); q.node_count()];
    for v in q.vars().collect::<Vec<_>>().into_iter().rev() {
        let name = format!("t{tag}_{}", v.index());
        new_of[v.index()] = match q.label(v) {
            PatLabel::Sym(s) => b.node(&name, &vocab.resolve(s)),
            PatLabel::Wildcard => b.wildcard_node(&name),
        };
    }
    for e in q.edges() {
        let (s, d) = (new_of[e.src.index()], new_of[e.dst.index()]);
        match e.label {
            PatLabel::Sym(l) => {
                b.edge(s, d, &vocab.resolve(l));
            }
            PatLabel::Wildcard => {
                b.wildcard_edge(s, d);
            }
        }
    }
    b.build()
}

/// Generates `Σ` from a graph following the paper's procedure.
pub fn mine_gfds(g: &Graph, cfg: &RuleGenConfig) -> GfdSet {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let features = mine_edge_features(g);
    assert!(
        !features.is_empty(),
        "cannot mine rules from an edgeless graph"
    );
    // Top-5 seeds (the paper's choice), plus lower-frequency seeds for
    // twin rules whose pivot extents must stay bounded.
    let top5: Vec<EdgeFeature> = features.iter().take(5).map(|&(f, _)| f).collect();
    let bounded: Vec<EdgeFeature> = features
        .iter()
        .filter(|(f, _)| {
            let ext = g.extent(f.src).len();
            ext >= 2 && ext <= cfg.max_pivot_extent
        })
        .take(10)
        .map(|&(f, _)| f)
        .collect();

    let mut rules = Vec::with_capacity(cfg.count);
    for i in 0..cfg.count {
        let twin = rng.gen_bool(cfg.two_component_fraction) && !bounded.is_empty();
        let gfd = if twin {
            let seed = bounded[rng.gen_range(0..bounded.len())];
            build_twin_rule(g, seed, &features, cfg.pattern_nodes, i, &mut rng)
        } else {
            let seed = top5[rng.gen_range(0..top5.len())];
            build_single_rule(g, seed, &features, cfg.pattern_nodes, i, &mut rng)
        };
        rules.push(gfd);
    }
    GfdSet::new(rules)
}

/// A twin (two-component) rule: `x_a.A = y_a.A → x_b.B = y_b.B`.
fn build_twin_rule(
    g: &Graph,
    seed: EdgeFeature,
    features: &[(EdgeFeature, usize)],
    size: usize,
    idx: usize,
    rng: &mut Rng,
) -> Gfd {
    let mut b = PatternBuilder::new(g.vocab().clone());
    let cx = grow_component(&mut b, &format!("x{idx}_"), seed, features, size, g, rng);
    // The twin mirrors the first component's shape exactly: replay it.
    let mut b2_vars = Vec::new();
    {
        // Rebuild y-side with identical labels by re-walking cx (the
        // edges were recorded in the builder; easiest is to grow with
        // the same RNG replay — instead we mirror structurally below).
        let vocab = g.vocab();
        for (j, &(_, label)) in cx.vars.iter().enumerate() {
            let v = b.node(&format!("y{idx}_{j}"), &vocab.resolve(label));
            b2_vars.push((v, label));
        }
    }
    // Mirror the edges of component x onto component y.
    let x_ids: Vec<VarId> = cx.vars.iter().map(|&(v, _)| v).collect();
    // Collect the x-side edges added so far by reconstructing from the
    // pattern after build; simpler: record them as we cannot query the
    // builder. We instead rebuild the whole pattern from scratch:
    let probe = b.build();
    let mut b = PatternBuilder::new(g.vocab().clone());
    let mut remap: HashMap<VarId, VarId> = HashMap::new();
    for v in probe.vars() {
        let nv = match probe.label(v) {
            gfd_pattern::PatLabel::Sym(s) => b.node(probe.var_name(v), &g.vocab().resolve(s)),
            gfd_pattern::PatLabel::Wildcard => b.wildcard_node(probe.var_name(v)),
        };
        remap.insert(v, nv);
    }
    for e in probe.edges() {
        if let gfd_pattern::PatLabel::Sym(s) = e.label {
            b.edge(remap[&e.src], remap[&e.dst], &g.vocab().resolve(s));
        } else {
            b.wildcard_edge(remap[&e.src], remap[&e.dst]);
        }
    }
    // Mirror x-edges to the y side.
    let y_of_x: HashMap<VarId, VarId> = x_ids
        .iter()
        .enumerate()
        .map(|(j, &xv)| (remap[&xv], remap[&b2_vars[j].0]))
        .collect();
    let mirrored: Vec<(VarId, VarId, gfd_pattern::PatLabel)> = probe
        .edges()
        .iter()
        .filter(|e| y_of_x.contains_key(&remap[&e.src]) && y_of_x.contains_key(&remap[&e.dst]))
        .map(|e| (y_of_x[&remap[&e.src]], y_of_x[&remap[&e.dst]], e.label))
        .collect();
    for (s, d, l) in mirrored {
        if let gfd_pattern::PatLabel::Sym(sym) = l {
            b.edge(s, d, &g.vocab().resolve(sym));
        } else {
            b.wildcard_edge(s, d);
        }
    }
    let q = b.build();

    // Literals: equate an attribute on the twin leaf pair (antecedent)
    // and on the twin hub pair (consequent) — the ϕ1 shape.
    let x_leaf = q.var_by_name(&format!("x{idx}_1")).expect("leaf exists");
    let y_leaf = q.var_by_name(&format!("y{idx}_1")).expect("leaf exists");
    let x_hub = q.var_by_name(&format!("x{idx}_0")).expect("hub exists");
    let y_hub = q.var_by_name(&format!("y{idx}_0")).expect("hub exists");
    let leaf_label = cx.vars[1].1;
    let hub_label = cx.vars[0].1;
    let leaf_attrs = attrs_of_label(g, leaf_label);
    let hub_attrs = attrs_of_label(g, hub_label);
    let val = *leaf_attrs.first().unwrap_or(&g.vocab().intern("val"));
    let dep = if let Some(&ha) = hub_attrs.first() {
        Dependency::new(
            vec![Literal::var_eq(x_leaf, val, y_leaf, val)],
            vec![Literal::var_eq(x_hub, ha, y_hub, ha)],
        )
    } else {
        // Hubs carry no attributes: require twin leaves to agree on val.
        Dependency::new(
            vec![Literal::var_eq(x_hub, val, y_hub, val)],
            vec![Literal::var_eq(x_leaf, val, y_leaf, val)],
        )
    };
    Gfd::new(format!("twin-{idx}"), q, dep)
}

/// A single-component rule with constant or variable literals.
fn build_single_rule(
    g: &Graph,
    seed: EdgeFeature,
    features: &[(EdgeFeature, usize)],
    size: usize,
    idx: usize,
    rng: &mut Rng,
) -> Gfd {
    let mut b = PatternBuilder::new(g.vocab().clone());
    let comp = grow_component(&mut b, &format!("v{idx}_"), seed, features, size, g, rng);
    let q = b.build();
    let vars = &comp.vars;

    // Prefer a constant rule grounded in actual values (CFD-style).
    let (anchor, anchor_label) = vars[rng.gen_range(0..vars.len())];
    let attrs = attrs_of_label(g, anchor_label);
    if let Some(&a) = attrs.first() {
        if let Some(v) = sample_value(g, anchor_label, a, rng) {
            // X: anchor.a = v → Y: other.b exists / equals sampled.
            let (other, other_label) = vars[(vars.len() - 1).min(1)];
            let other_attrs = attrs_of_label(g, other_label);
            let y_lit = match other_attrs.first() {
                Some(&oa) if other != anchor => Literal::var_eq(other, oa, other, oa),
                _ => Literal::var_eq(anchor, a, anchor, a),
            };
            return Gfd::new(
                format!("const-{idx}"),
                q,
                Dependency::new(vec![Literal::const_eq(anchor, a, v)], vec![y_lit]),
            );
        }
    }
    // Fallback: attribute-existence rule on the hub.
    let val = g.vocab().intern("val");
    let hub = vars[0].0;
    Gfd::new(
        format!("exist-{idx}"),
        q,
        Dependency::always(vec![Literal::var_eq(hub, val, hub, val)]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reallife::{reallife_graph, RealLifeConfig, RealLifeKind};

    fn sample_graph() -> Graph {
        reallife_graph(&RealLifeConfig {
            scale: 0.1,
            ..RealLifeConfig::new(RealLifeKind::Yago2)
        })
    }

    #[test]
    fn generates_requested_count() {
        let g = sample_graph();
        let sigma = mine_gfds(
            &g,
            &RuleGenConfig {
                count: 20,
                ..Default::default()
            },
        );
        assert_eq!(sigma.len(), 20);
    }

    #[test]
    fn pattern_sizes_respected() {
        let g = sample_graph();
        for target in [2usize, 4] {
            let sigma = mine_gfds(
                &g,
                &RuleGenConfig {
                    count: 10,
                    pattern_nodes: target,
                    two_component_fraction: 0.0,
                    ..Default::default()
                },
            );
            for gfd in &sigma {
                assert!(
                    gfd.pattern.node_count() >= 2 && gfd.pattern.node_count() <= target,
                    "pattern with {} nodes for target {target}",
                    gfd.pattern.node_count()
                );
            }
        }
    }

    #[test]
    fn twin_rules_have_two_isomorphic_components() {
        let g = sample_graph();
        let sigma = mine_gfds(
            &g,
            &RuleGenConfig {
                count: 10,
                two_component_fraction: 1.0,
                ..Default::default()
            },
        );
        let mut saw_twin = false;
        for gfd in &sigma {
            let comps = gfd_pattern::analysis::connected_components(&gfd.pattern);
            if comps.len() == 2 {
                saw_twin = true;
                let (a, _) = gfd.pattern.restrict(&comps[0]);
                let (b, _) = gfd.pattern.restrict(&comps[1]);
                assert!(
                    gfd_pattern::iso_witness(&a, &b).is_some(),
                    "twins must mirror"
                );
            }
        }
        assert!(saw_twin, "at least one twin rule generated");
    }

    #[test]
    fn twin_pivot_extents_bounded() {
        let g = sample_graph();
        let cfg = RuleGenConfig {
            count: 12,
            two_component_fraction: 1.0,
            max_pivot_extent: 100,
            ..Default::default()
        };
        let sigma = mine_gfds(&g, &cfg);
        for gfd in &sigma {
            let comps = gfd_pattern::analysis::connected_components(&gfd.pattern);
            if comps.len() != 2 {
                continue;
            }
            let pv = gfd_pattern::analysis::pivot_vector(&gfd.pattern);
            for c in &pv.components {
                if let gfd_pattern::PatLabel::Sym(s) = gfd.pattern.label(c.pivot) {
                    assert!(
                        g.extent(s).len() <= cfg.max_pivot_extent,
                        "twin pivot extent must be bounded"
                    );
                }
            }
        }
    }

    #[test]
    fn rules_are_deterministic() {
        let g = sample_graph();
        let cfg = RuleGenConfig {
            count: 8,
            ..Default::default()
        };
        let a = mine_gfds(&g, &cfg);
        let b = mine_gfds(&g, &cfg);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.pattern.node_count(), y.pattern.node_count());
        }
    }
}
