//! The four workloads: what each generates and why.
//!
//! Every input — graph, Σ, noise, the whole edit stream — is a pure
//! function of `(workload, seed, smoke)`. The program under test only
//! ever sees the generated graph, Σ and batches.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use gfd_core::{Dependency, Gfd, GfdSet, Literal};
use gfd_datagen::{
    inject_noise, mine_gfds, reallife_graph, synthetic_graph, NoiseConfig, RealLifeConfig,
    RealLifeKind, RuleGenConfig, SynthConfig,
};
use gfd_graph::{AttrOp, Edge, Graph, GraphData, GraphDelta, NodeId, Sym, Value};
use gfd_parallel::SyncPolicy;
use gfd_pattern::PatternBuilder;
use gfd_util::{checksum64, Rng};

pub const WORKLOADS: [&str; 4] = ["kb-trees", "social-cycles", "bulk-burst", "wide-sigma"];

/// The graph generators and the rule miner run on fixed seeds (the
/// ones `gfd-bench` uses): which features get mined, and with them the
/// cost of every one-shot metric, swings 2× with these seeds, so no
/// bound could hold across `--seed` values. `--seed` drives the noise,
/// the attribute stamps and the whole edit stream.
const GRAPH_SEED: u64 = 0xBEEF;
const RULES_SEED: u64 = 0xACE;

/// The stream/durability shape of one workload (the graph and Σ shape
/// live in [`generate`]).
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub epochs: usize,
    pub batch: usize,
    /// Share of ops that are attribute writes; the rest toggle edges.
    pub attr_share: f64,
    /// `Some(h)`: each batch draws its ops from `h` keys picked for
    /// that batch, so ops collide and compaction has work to do.
    pub hot_keys: Option<usize>,
    pub policy: SyncPolicy,
    /// `flush_log()` every this many epochs (subscriber-demand sync).
    pub flush_every: Option<usize>,
    /// Byte budget of the one-shot registries (`None` = default).
    pub registry_budget: Option<usize>,
    /// Every workload must start with at least this many violations.
    pub min_vio_initial: usize,
}

/// Stream lengths end *off* a sync boundary, so the crash really loses
/// the unsynced tail (except under `EveryEpoch`, which loses nothing).
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let epochs = |full: usize| if smoke { 40 } else { full };
    let min_vio_initial = if smoke { 10 } else { 100 };
    Some(match name {
        "kb-trees" => Spec {
            name: "kb-trees",
            epochs: epochs(309),
            batch: 16,
            attr_share: 0.6,
            hot_keys: None,
            policy: SyncPolicy::EveryN(16),
            flush_every: None,
            registry_budget: None,
            min_vio_initial,
        },
        "social-cycles" => Spec {
            name: "social-cycles",
            epochs: epochs(300),
            batch: 1,
            attr_share: 0.1,
            hot_keys: None,
            policy: SyncPolicy::EveryEpoch,
            flush_every: None,
            registry_budget: None,
            min_vio_initial,
        },
        "bulk-burst" => Spec {
            name: "bulk-burst",
            epochs: epochs(200),
            batch: 128,
            attr_share: 0.5,
            hot_keys: Some(256),
            policy: SyncPolicy::OnDemand,
            flush_every: Some(if smoke { 16 } else { 64 }),
            registry_budget: None,
            min_vio_initial,
        },
        "wide-sigma" => Spec {
            name: "wide-sigma",
            epochs: epochs(600),
            batch: 16,
            attr_share: 1.0,
            hot_keys: None,
            policy: SyncPolicy::EveryN(16),
            flush_every: None,
            registry_budget: Some(64 * 1024),
            min_vio_initial,
        },
        _ => return None,
    })
}

/// Wall time of each generator phase (the parts of `setup_s`).
#[derive(Clone, Copy, Debug, Default)]
pub struct GenPhases {
    pub graph_s: f64,
    pub rules_s: f64,
    pub noise_s: f64,
    pub stream_s: f64,
}

pub struct Inputs {
    pub graph: Arc<Graph>,
    pub sigma: GfdSet,
    /// One batch per epoch; delta `i + 1` of a batch is based on the
    /// result of delta `i`.
    pub batches: Vec<Vec<GraphDelta>>,
    pub phases: GenPhases,
}

impl Inputs {
    pub fn edits(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// Draws the value an attribute write puts on a node.
type ValueFn = Box<dyn Fn(&mut Rng, NodeId) -> Value>;

/// How a workload's attribute writes pick their node and value.
struct AttrWrites {
    attr: Sym,
    targets: Vec<NodeId>,
    value: ValueFn,
}

/// Writes `val` on a leaf, copying the start graph's value of a random
/// same-label leaf: the active domain stays what the rules were mined
/// against, so writes both create and repair equalities.
fn copy_val_writes(g: &Arc<Graph>) -> AttrWrites {
    let val = g.vocab().intern("val");
    let targets: Vec<NodeId> = g.nodes().filter(|&u| g.attr(u, val).is_some()).collect();
    let graph = Arc::clone(g);
    AttrWrites {
        attr: val,
        targets,
        value: Box::new(move |rng, u| {
            let peers = graph.extent(graph.label(u));
            let peer = peers[rng.gen_range(0..peers.len())];
            graph
                .attr(peer, val)
                .or_else(|| graph.attr(u, val))
                .expect("targets carry val")
                .clone()
        }),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Builds every input of `spec`'s workload from `seed`.
pub fn generate(spec: &Spec, seed: u64, smoke: bool) -> Inputs {
    let mut seeds = Rng::seed_from_u64(seed);
    let (noise_seed, stream_seed) = (seeds.next_u64(), seeds.next_u64());
    let (graph_seed, rules_seed) = (GRAPH_SEED, RULES_SEED);
    let shrink = if smoke { 0.1 } else { 1.0 };
    let mut phases = GenPhases::default();

    let (graph, sigma, writes) = match spec.name {
        // Yago2-shaped knowledge base, mined rules (the two-component
        // ones are the twin-consistency shape), 2 % injected noise.
        "kb-trees" | "wide-sigma" => {
            let wide = spec.name == "wide-sigma";
            let scale = if wide { 0.5 } else { 1.0 } * shrink;
            let (clean, t) = timed(|| {
                reallife_graph(&RealLifeConfig {
                    kind: RealLifeKind::Yago2,
                    scale,
                    seed: graph_seed,
                })
            });
            phases.graph_s = t;
            let (sigma, t) = timed(|| {
                mine_gfds(
                    &clean,
                    &RuleGenConfig {
                        count: if wide { 200 } else { 50 },
                        pattern_nodes: 4,
                        two_component_fraction: 0.3,
                        max_pivot_extent: if wide { 150 } else { 260 },
                        seed: rules_seed,
                    },
                )
            });
            phases.rules_s = t;
            let (graph, t) = timed(|| {
                let mut b = clean.thaw();
                inject_noise(
                    &mut b,
                    &NoiseConfig {
                        rate: 0.02,
                        seed: noise_seed,
                    },
                );
                Arc::new(b.freeze())
            });
            phases.noise_s = t;
            let writes = copy_val_writes(&graph);
            (graph, sigma, writes)
        }
        // Pokec-shaped social graph; the rules are cyclic (triangles
        // and four-cycles), the only shape that routes through the
        // planner, the worst-case-optimal executor and factorization.
        "social-cycles" => {
            let (plain, t) = timed(|| {
                reallife_graph(&RealLifeConfig {
                    kind: RealLifeKind::Pokec,
                    scale: 0.5 * shrink,
                    seed: graph_seed,
                })
            });
            phases.graph_s = t;
            let flag = plain.vocab().intern("flag");
            let (graph, t) = timed(|| {
                let mut rng = Rng::seed_from_u64(noise_seed);
                let mut b = plain.thaw();
                for u in plain.nodes() {
                    b.set_attr(u, flag, Value::Bool(rng.gen_bool(0.05)));
                }
                Arc::new(b.freeze())
            });
            phases.noise_s = t;
            let (sigma, t) = timed(|| cycle_rules(&graph, flag, rules_seed));
            phases.rules_s = t;
            let writes = AttrWrites {
                attr: flag,
                targets: graph.nodes().collect(),
                value: Box::new(|rng, _| Value::Bool(rng.gen_bool(0.3))),
            };
            (graph, sigma, writes)
        }
        // Fig. 6 shape at 100k nodes: |G| ≫ |delta|, matching is
        // negligible, the storage path owns the epoch.
        "bulk-burst" => {
            let nodes = (100_000.0 * shrink) as usize;
            let (plain, t) = timed(|| synthetic_graph(&SynthConfig::sized(nodes, graph_seed)));
            phases.graph_s = t;
            let grp = plain.vocab().intern("grp");
            // The Zipf hubs are the lowest ids; keeping `grp` uniform
            // on them means no single stamp or write can swing Vio by
            // a hub's whole in-degree.
            let first_plain = nodes / 100;
            let (graph, t) = timed(|| {
                let mut rng = Rng::seed_from_u64(noise_seed);
                let mut b = plain.thaw();
                for u in plain.nodes() {
                    let odd = u.index() >= first_plain && rng.gen_bool(0.02);
                    b.set_attr(u, grp, Value::str(if odd { "g1" } else { "g0" }));
                }
                Arc::new(b.freeze())
            });
            phases.noise_s = t;
            let (sigma, t) = timed(|| {
                let mut sigma = mine_gfds(
                    &graph,
                    &RuleGenConfig {
                        count: 20,
                        pattern_nodes: 2,
                        two_component_fraction: 0.2,
                        max_pivot_extent: 400,
                        seed: rules_seed,
                    },
                );
                for gfd in group_rules(&graph, grp) {
                    sigma.push(gfd);
                }
                sigma
            });
            phases.rules_s = t;
            let writes = AttrWrites {
                attr: grp,
                targets: graph.nodes().skip(first_plain).collect(),
                value: Box::new(|rng, _| Value::str(if rng.gen_bool(0.1) { "g1" } else { "g0" })),
            };
            (graph, sigma, writes)
        }
        other => panic!("unknown workload {other:?}"),
    };

    let (batches, t) = timed(|| edit_stream(spec, &graph, &writes, stream_seed));
    phases.stream_s = t;
    Inputs {
        graph,
        sigma,
        batches,
        phases,
    }
}

/// Four triangles and four four-cycles over the `pk_rel*` relations:
/// wildcard node labels, one wildcard edge each, and `x.flag = true →
/// y.flag = true` on the first edge. The cycles are cycles of the
/// *undirected* pattern (what makes a component width ≥ 2); the edges
/// point "downhill" (`x→y→z`, `x→z`), because the stand-in's hubs
/// collect in-edges and directed cycles through them barely exist.
fn cycle_rules(g: &Graph, flag: Sym, seed: u64) -> GfdSet {
    let vocab = g.vocab();
    let rels: Vec<String> = (0..)
        .map(|i| format!("pk_rel{i}"))
        .take_while(|name| vocab.lookup(name).is_some())
        .collect();
    assert!(!rels.is_empty(), "Pokec stand-in has pk_rel* relations");
    let offset = Rng::seed_from_u64(seed).gen_range(0..rels.len());
    // Distinct (first relation, stride) pairs: 8 distinct patterns.
    let rel = |i: usize, j: usize| &rels[(offset + i + j * (i + 1)) % rels.len()];
    let mut rules = Vec::new();
    for i in 0..8usize {
        let len = if i < 4 { 3 } else { 4 };
        let mut b = PatternBuilder::new(vocab.clone());
        let v: Vec<_> = (0..len)
            .map(|j| b.wildcard_node(&format!("c{i}_{j}")))
            .collect();
        b.edge(v[0], v[1], rel(i, 0));
        b.edge(v[1], v[2], rel(i, 1));
        if len == 3 {
            b.wildcard_edge(v[0], v[2]);
        } else {
            b.edge(v[3], v[2], rel(i, 2));
            b.wildcard_edge(v[0], v[3]);
        }
        let dep = Dependency::new(
            vec![Literal::const_eq(v[0], flag, true)],
            vec![Literal::const_eq(v[1], flag, true)],
        );
        rules.push(Gfd::new(format!("cycle{len}-{i}"), b.build(), dep));
    }
    GfdSet::new(rules)
}

/// `x -r_i-> y ⇒ x.grp = y.grp` for the first four edge labels: the
/// rules that keep `Vio` non-empty on the synthetic graph.
fn group_rules(g: &Graph, grp: Sym) -> Vec<Gfd> {
    (0..4)
        .map(|i| {
            let mut b = PatternBuilder::new(g.vocab().clone());
            let x = b.node(&format!("gx{i}"), "L0");
            let y = b.wildcard_node(&format!("gy{i}"));
            b.edge(x, y, &format!("r{i}"));
            let dep = Dependency::always(vec![Literal::var_eq(x, grp, y, grp)]);
            Gfd::new(format!("same-group-{i}"), b.build(), dep)
        })
        .collect()
}

/// The toggle pool: half existing edges (hub-biased, as existing edges
/// are), half absent edges recombined from existing endpoints. Every
/// topology edit flips one pool entry, and `present` is the shadow
/// edge set that keeps each batch consistent with `check_against`.
struct EdgePool {
    edges: Vec<Edge>,
    present: Vec<bool>,
}

fn edge_pool(g: &Graph, rng: &mut Rng, size: usize) -> EdgePool {
    let all: Vec<Edge> = g.edges().collect();
    let key = |e: &Edge| (e.src, e.dst, e.label);
    let mut seen = HashSet::new();
    let mut pool = EdgePool {
        edges: Vec::new(),
        present: Vec::new(),
    };
    let size = size.min(all.len() / 2).max(2);
    let mut attempts = 0;
    while pool.edges.len() < size && attempts < size * 20 {
        attempts += 1;
        let a = all[rng.gen_range(0..all.len())];
        let want_present = pool.edges.len().is_multiple_of(2);
        let e = if want_present {
            a
        } else {
            let b = all[rng.gen_range(0..all.len())];
            Edge {
                src: a.src,
                dst: b.dst,
                label: a.label,
            }
        };
        if e.src == e.dst || g.has_edge(e.src, e.dst, e.label) != want_present {
            continue;
        }
        if seen.insert(key(&e)) {
            pool.edges.push(e);
            pool.present.push(want_present);
        }
    }
    pool
}

/// Pre-generates the whole stream as hand-built single-op deltas
/// (`base_nodes` constant: no node insertions in this version).
fn edit_stream(spec: &Spec, g: &Graph, writes: &AttrWrites, seed: u64) -> Vec<Vec<GraphDelta>> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = g.node_count();
    let topology_ops = ((spec.epochs * spec.batch) as f64 * (1.0 - spec.attr_share)) as usize;
    let mut pool = edge_pool(g, &mut rng, (topology_ops / 2).max(64));
    let mut batches = Vec::with_capacity(spec.epochs);
    for _ in 0..spec.epochs {
        // Keys this batch draws from: the whole pools, or a fresh hot
        // subset so ops collide inside the batch.
        let hot: Option<(Vec<usize>, Vec<NodeId>)> = spec.hot_keys.map(|h| {
            let attrs = ((h as f64) * spec.attr_share) as usize;
            let edges = (0..(h - attrs).max(1))
                .map(|_| rng.gen_range(0..pool.edges.len()))
                .collect();
            let nodes = (0..attrs.max(1))
                .map(|_| writes.targets[rng.gen_range(0..writes.targets.len())])
                .collect();
            (edges, nodes)
        });
        let mut batch = Vec::with_capacity(spec.batch);
        for _ in 0..spec.batch {
            let mut d = GraphDelta::new(n);
            if rng.gen_bool(spec.attr_share) {
                let node = match &hot {
                    Some((_, nodes)) => nodes[rng.gen_range(0..nodes.len())],
                    None => writes.targets[rng.gen_range(0..writes.targets.len())],
                };
                d.attr_ops.push(AttrOp {
                    node,
                    attr: writes.attr,
                    value: Some((writes.value)(&mut rng, node)),
                });
            } else {
                let i = match &hot {
                    Some((edges, _)) => edges[rng.gen_range(0..edges.len())],
                    None => rng.gen_range(0..pool.edges.len()),
                };
                if pool.present[i] {
                    d.removed_edges.push(pool.edges[i]);
                } else {
                    d.added_edges.push(pool.edges[i]);
                }
                pool.present[i] = !pool.present[i];
            }
            batch.push(d);
        }
        batches.push(batch);
    }
    batches
}

/// One line per rule: pattern, then the dependency's literals.
fn describe_sigma(sigma: &GfdSet) -> String {
    let mut out = String::new();
    for gfd in sigma.iter() {
        out.push_str(&format!(
            "{}: {} | {:?} -> {:?}\n",
            gfd.name,
            gfd.pattern.display(),
            gfd.dep.x,
            gfd.dep.y
        ));
    }
    out
}

/// `checksum64` over the graph encoding, Σ's description and every
/// batch — equal seeds must give equal fingerprints.
pub fn fingerprint(inputs: &Inputs) -> u64 {
    let mut bytes = Vec::new();
    GraphData::from_graph(&inputs.graph).encode_into(&mut bytes);
    bytes.extend_from_slice(describe_sigma(&inputs.sigma).as_bytes());
    for batch in &inputs.batches {
        for d in batch {
            d.encode_into(&mut bytes);
        }
    }
    checksum64(&bytes)
}

/// The shadow: the start graph with epochs `1..=epoch` replayed op by
/// op through the *builder* and frozen from scratch — independent of
/// the `merge`/`apply_delta` path the service commits through.
pub fn shadow_at(inputs: &Inputs, epoch: usize) -> Graph {
    let mut b = inputs.graph.thaw();
    for d in inputs.batches[..epoch].iter().flatten() {
        for e in &d.added_edges {
            assert!(b.add_edge(e.src, e.dst, e.label), "shadow: edge present");
        }
        for e in &d.removed_edges {
            assert!(b.remove_edge(e.src, e.dst, e.label), "shadow: edge absent");
        }
        for op in &d.attr_ops {
            let value = op.value.clone().expect("the stream only sets values");
            b.set_attr(op.node, op.attr, value);
        }
    }
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_a_function_of_the_seed() {
        for name in WORKLOADS {
            let spec = spec(name, true).expect("known workload");
            let a = fingerprint(&generate(&spec, 7, true));
            let b = fingerprint(&generate(&spec, 7, true));
            let c = fingerprint(&generate(&spec, 8, true));
            assert_eq!(a, b, "{name}: same seed, same inputs");
            assert_ne!(a, c, "{name}: different seed, different inputs");
        }
    }

    #[test]
    fn every_batch_applies_to_the_shadow() {
        for name in WORKLOADS {
            let spec = spec(name, true).expect("known workload");
            let inputs = generate(&spec, 3, true);
            assert_eq!(inputs.batches.len(), spec.epochs);
            // Panics inside if any op contradicts the shadow edge set.
            let head = shadow_at(&inputs, spec.epochs);
            assert_eq!(head.node_count(), inputs.graph.node_count());
        }
    }
}
