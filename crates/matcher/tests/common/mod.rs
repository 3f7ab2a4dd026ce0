//! What the matcher suites share: one random graph and pattern
//! generator over a small label vocabulary (`l0..l2`, `e0`, `e1`), one
//! brute-force matcher — every injective assignment honouring the
//! pins, checked label by label and edge by edge — and one edit-step
//! generator over every mutation kind the storage layer records.
//!
//! Beside them, a generator wide enough to cross run pages, for the
//! incremental and registry oracles: graphs of ≥ 200 nodes (≥ 4 pages
//! of 64 node ids) with one hub adjacent to every page and parallel
//! edges under both labels, patterns with at least one wildcard edge,
//! and edits biased towards what moves runs — toggling edges that
//! exist, dropping one label of a parallel pair, rewiring the hub —
//! plus the rewire step that takes a member's only support away and
//! replaces it in the same delta.
//!
//! Each suite uses part of the kit, hence the one allowance below.
#![allow(dead_code)]

use std::ops::RangeInclusive;

use gfd_graph::{Graph, GraphBuilder, GraphDelta, NodeId, Value};
use gfd_match::{dual_simulation, CandidateSpace, Pin};
use gfd_pattern::{PatLabel, Pattern, PatternBuilder, VarId};
use gfd_util::Rng;

pub const NODE_LABELS: usize = 3;
pub const EDGE_LABELS: usize = 2;
/// Node ids per run page (and per graph page).
pub const PAGE_NODES: usize = 64;
/// The hub: adjacent to a node of every page in both directions.
pub const HUB: NodeId = NodeId(0);

fn edge_label(i: usize) -> String {
    format!("e{}", i % EDGE_LABELS)
}

/// A random graph over the small vocabulary: a node count drawn from
/// `nodes`, node `i` labeled `l{i % 3}`, and `n · k` random edges for a
/// `k` drawn from `edges_per_node` (both ends of the edge range count).
pub fn random_graph(
    rng: &mut Rng,
    nodes: RangeInclusive<usize>,
    edges_per_node: RangeInclusive<usize>,
) -> Graph {
    let n = rng.gen_range(*nodes.start()..*nodes.end() + 1);
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % NODE_LABELS)))
        .collect();
    let m = rng.gen_range(edges_per_node.start() * n..edges_per_node.end() * n + 1);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        let e = format!("e{}", rng.gen_range(0..EDGE_LABELS));
        b.add_edge_labeled(ids[s], ids[d], &e);
    }
    b.freeze()
}

/// A random pattern of 1–4 variables and 0–4 edges over the graph's
/// vocabulary: possibly disconnected, a wildcard node three times in
/// ten, a wildcard edge two times in ten.
pub fn random_pattern(rng: &mut Rng, g: &Graph) -> Pattern {
    let k = rng.gen_range(1..5);
    let mut b = PatternBuilder::new(g.vocab().clone());
    let vars: Vec<VarId> = (0..k)
        .map(|i| {
            let name = format!("v{i}");
            if rng.gen_range(0..10) < 3 {
                b.wildcard_node(&name)
            } else {
                b.node(&name, &format!("l{}", rng.gen_range(0..NODE_LABELS)))
            }
        })
        .collect();
    for _ in 0..rng.gen_range(0..5) {
        let s = vars[rng.gen_range(0..k)];
        let d = vars[rng.gen_range(0..k)];
        if rng.gen_range(0..10) < 2 {
            b.wildcard_edge(s, d);
        } else {
            b.edge(s, d, &format!("e{}", rng.gen_range(0..EDGE_LABELS)));
        }
    }
    b.build()
}

/// Does `g` admit the pattern edge `(u → v, label)` between two image
/// nodes?
pub fn oracle_edge_ok(g: &Graph, u: NodeId, v: NodeId, label: PatLabel) -> bool {
    match label {
        PatLabel::Sym(s) => g.has_edge(u, v, s),
        PatLabel::Wildcard => g.has_edge_any(u, v),
    }
}

/// Brute force: every injective assignment honouring `pins` (each a
/// closed node-id interval on its variable), filtered by labels and
/// pattern edges. An assignment is cut where an edge between assigned
/// variables already fails. Sorted.
pub fn oracle_matches(q: &Pattern, g: &Graph, pins: &[Pin]) -> Vec<Vec<NodeId>> {
    fn rec(
        q: &Pattern,
        g: &Graph,
        pins: &[Pin],
        assign: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if assign.len() == q.node_count() {
            out.push(assign.clone());
            return;
        }
        let v = VarId(assign.len() as u32);
        for u in g.nodes() {
            let pinned_elsewhere = pins
                .iter()
                .any(|p| p.var == v && !(p.lo..=p.hi).contains(&u));
            if pinned_elsewhere || !q.label(v).admits(g.label(u)) || assign.contains(&u) {
                continue;
            }
            assign.push(u);
            let mut closed = q.edges().iter().filter(|e| e.src.max(e.dst) == v);
            let edge_ok = |e: &gfd_pattern::PatternEdge| {
                oracle_edge_ok(g, assign[e.src.index()], assign[e.dst.index()], e.label)
            };
            if closed.all(edge_ok) {
                rec(q, g, pins, assign, out);
            }
            assign.pop();
        }
    }
    let mut out = Vec::new();
    rec(q, g, pins, &mut Vec::new(), &mut out);
    out.sort();
    out
}

/// The mutation kinds of [`random_edit_of`].
#[derive(Clone, Copy, Debug)]
pub enum Edit {
    /// Insert an edge (a no-op when present).
    AddEdge,
    /// Remove an edge and insert a replacement sharing its source, in
    /// one delta — the shape where a deletion-zeroed support must be
    /// restored by the accompanying insertion.
    Rewire,
    /// Delete an edge (a no-op when absent).
    RemoveEdge,
    /// Add a node, wired to an existing one half the time.
    AddNode,
    /// Relabel a node.
    Relabel,
    /// Write or remove an attribute: invisible to matching.
    WriteAttr,
}

/// Every mutation kind.
pub const ALL_EDITS: [Edit; 6] = [
    Edit::AddEdge,
    Edit::Rewire,
    Edit::RemoveEdge,
    Edit::AddNode,
    Edit::Relabel,
    Edit::WriteAttr,
];

/// One edit step: a batch of 1–3 random mutations, each of a kind drawn
/// uniformly from `kinds`, applied through `edit_with_delta`, so the
/// recorded delta is exactly what production callers (noise injection,
/// repair loops) hand a repairer.
pub fn random_edit_of(rng: &mut Rng, g: &Graph, kinds: &[Edit]) -> (Graph, GraphDelta) {
    let ops = rng.gen_range(1..4);
    // Pre-draw the random choices so the closure stays `FnOnce`-clean.
    let mut plan: Vec<(Edit, usize, usize, usize)> = Vec::with_capacity(ops);
    for _ in 0..ops {
        plan.push((
            kinds[rng.gen_range(0..kinds.len())],
            rng.gen_range(0..usize::MAX),
            rng.gen_range(0..usize::MAX),
            rng.gen_range(0..usize::MAX),
        ));
    }
    g.edit_with_delta(move |b| {
        for (kind, r1, r2, r3) in plan {
            let n = b.node_count();
            let (s, d) = (NodeId((r1 % n) as u32), NodeId((r2 % n) as u32));
            let e = format!("e{}", r3 % EDGE_LABELS);
            match kind {
                Edit::AddEdge => {
                    b.add_edge_labeled(s, d, &e);
                }
                Edit::Rewire => {
                    b.remove_edge_labeled(s, d, &e);
                    b.add_edge_labeled(s, NodeId(((r2 + 1) % n) as u32), &e);
                }
                Edit::RemoveEdge => {
                    b.remove_edge_labeled(s, d, &e);
                }
                Edit::AddNode => {
                    let u = b.add_node_labeled(&format!("l{}", r1 % NODE_LABELS));
                    if r2 % 2 == 0 {
                        b.add_edge_labeled(u, NodeId((r3 % n) as u32), &e);
                    }
                }
                Edit::Relabel => {
                    let l = b.vocab().intern(&format!("l{}", r2 % NODE_LABELS));
                    b.set_label(s, l);
                }
                Edit::WriteAttr => {
                    let a = b.vocab().intern("val");
                    if r2 % 3 == 0 {
                        b.remove_attr(s, a);
                    } else {
                        b.set_attr(s, a, Value::Int((r3 % 100) as i64));
                    }
                }
            }
        }
    })
}

pub fn paged_graph(rng: &mut Rng) -> Graph {
    let n = rng.gen_range(200..280);
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % NODE_LABELS)))
        .collect();
    for page in 0..n.div_ceil(PAGE_NODES) {
        let lo = page * PAGE_NODES;
        let hi = (lo + PAGE_NODES).min(n);
        for _ in 0..3 {
            let (out, inn) = (rng.gen_range(lo..hi), rng.gen_range(lo..hi));
            b.add_edge_labeled(HUB, ids[out], &edge_label(rng.gen_range(0..EDGE_LABELS)));
            b.add_edge_labeled(ids[inn], HUB, &edge_label(rng.gen_range(0..EDGE_LABELS)));
        }
    }
    for _ in 0..2 * n {
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        b.add_edge_labeled(ids[s], ids[d], &edge_label(rng.gen_range(0..EDGE_LABELS)));
    }
    // Parallel edges: the same endpoints under every label.
    for _ in 0..n / 4 {
        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
        for l in 0..EDGE_LABELS {
            b.add_edge_labeled(ids[s], ids[d], &edge_label(l));
        }
    }
    b.freeze()
}

/// A connected pattern of 2–4 variables whose first edge is a wildcard
/// (later edges are wildcards half the time).
pub fn paged_pattern(rng: &mut Rng, g: &Graph) -> Pattern {
    let k = rng.gen_range(2..5);
    let mut b = PatternBuilder::new(g.vocab().clone());
    let vars: Vec<VarId> = (0..k)
        .map(|i| {
            let name = format!("v{i}");
            if rng.gen_range(0..2) == 0 {
                b.wildcard_node(&name)
            } else {
                b.node(&name, &format!("l{}", rng.gen_range(0..NODE_LABELS)))
            }
        })
        .collect();
    let closing = rng.gen_range(0..2);
    for i in 1..k + closing {
        let (s, d) = if i < k {
            (vars[rng.gen_range(0..i)], vars[i])
        } else {
            (vars[k - 1], vars[0])
        };
        let (s, d) = if rng.gen_range(0..2) == 0 {
            (s, d)
        } else {
            (d, s)
        };
        if i == 1 || rng.gen_range(0..2) == 0 {
            b.wildcard_edge(s, d);
        } else {
            b.edge(s, d, &edge_label(rng.gen_range(0..EDGE_LABELS)));
        }
    }
    b.build()
}

/// One edit step of 1–3 mutations recorded through `edit_with_delta`.
pub fn paged_edit(rng: &mut Rng, g: &Graph) -> (Graph, GraphDelta) {
    let n = g.node_count();
    let node = |rng: &mut Rng| NodeId(rng.gen_range(0..n) as u32);
    // An edge that exists: a random out-edge of a random node (the
    // node's first tries may have none).
    let existing = |rng: &mut Rng| {
        (0..8).find_map(|_| {
            let s = node(rng);
            let out = g.out_slice(s);
            (!out.is_empty()).then(|| {
                let a = out[rng.gen_range(0..out.len())];
                (s, a.node, a.label)
            })
        })
    };
    enum Op {
        Add(NodeId, NodeId, usize),
        Remove(NodeId, NodeId, gfd_graph::Sym),
        AddNode(usize, bool),
        Relabel(NodeId, usize),
    }
    let ops: Vec<Op> = (0..rng.gen_range(1..4))
        .filter_map(|_| {
            let l = rng.gen_range(0..EDGE_LABELS);
            Some(match rng.gen_range(0..8) {
                // Remove an edge that exists — of a parallel pair, one
                // label only, so the wildcard run must keep its target.
                0 | 1 => {
                    let (s, d, label) = existing(rng)?;
                    Op::Remove(s, d, label)
                }
                // Double an existing edge under the other label.
                2 => {
                    let (s, d, _) = existing(rng)?;
                    Op::Add(s, d, l)
                }
                3 => Op::Add(HUB, node(rng), l),
                4 => Op::Add(node(rng), HUB, l),
                5 => Op::Add(node(rng), node(rng), l),
                6 => Op::Relabel(node(rng), rng.gen_range(0..NODE_LABELS)),
                _ => Op::AddNode(rng.gen_range(0..NODE_LABELS), rng.gen_range(0..2) == 0),
            })
        })
        .collect();
    g.edit_with_delta(move |b| {
        for op in ops {
            match op {
                Op::Add(s, d, l) => {
                    b.add_edge_labeled(s, d, &edge_label(l));
                }
                Op::Remove(s, d, label) => {
                    b.remove_edge(s, d, label);
                }
                Op::AddNode(l, to_hub) => {
                    let u = b.add_node_labeled(&format!("l{l}"));
                    if to_hub {
                        b.add_edge_labeled(HUB, u, &edge_label(l));
                        b.add_edge_labeled(u, HUB, &edge_label(l + 1));
                    }
                }
                Op::Relabel(u, l) => {
                    let l = b.vocab().intern(&format!("l{l}"));
                    b.set_label(u, l);
                }
            }
        }
    })
}

/// One rewire step against `space`, the simulation of `q` in `g`: some
/// candidate whose run on a pattern edge holds a single target — its
/// only support there — loses every graph edge behind that target and,
/// in the same delta, gains an edge to a replacement. With `to_member`
/// the replacement is another current candidate of the edge's far
/// variable (the support is rewired, the candidate never leaves);
/// without, a seed-admissible node outside the far set, preferably one
/// the new edge brings into the relation (the candidate is rescued by
/// a pair that enters with it) — when none of a few tries enters, the
/// candidate leaves for good. `None` when no candidate hangs by a
/// single target or no replacement exists.
pub fn rewire_edit(
    rng: &mut Rng,
    g: &Graph,
    q: &Pattern,
    space: &CandidateSpace,
    to_member: bool,
) -> Option<(Graph, GraphDelta)> {
    let singles: Vec<(usize, NodeId, NodeId)> = (0..q.edge_count())
        .flat_map(|ei| {
            let hanging = space.forward[ei].runs().filter(|(_, run)| run.len() == 1);
            hanging.map(move |(u, run)| (ei, u, run[0]))
        })
        .collect();
    if singles.is_empty() {
        return None;
    }
    let (ei, u, only) = singles[rng.gen_range(0..singles.len())];
    let pe = q.edges()[ei];
    let behind: Vec<_> = (g.out_slice(u).iter())
        .filter(|a| a.node == only && pe.label.admits(a.label))
        .map(|a| a.label)
        .collect();
    let label = match pe.label {
        PatLabel::Sym(l) => l,
        PatLabel::Wildcard => behind[0],
    };
    let far = space.of(pe.dst);
    let pool: Vec<NodeId> = if to_member {
        far.iter().copied().filter(|&t| t != only).collect()
    } else {
        let outside = |t: &NodeId| far.binary_search(t).is_err();
        let admissible = g.nodes().filter(|&t| q.label(pe.dst).admits(g.label(t)));
        admissible.filter(outside).collect()
    };
    if pool.is_empty() {
        return None;
    }
    let rewired = |to: NodeId| {
        g.edit_with_delta(|b| {
            for &l in &behind {
                b.remove_edge(u, only, l);
            }
            b.add_edge(u, to, label);
        })
    };
    let tries: Vec<NodeId> = (0..if to_member { 1 } else { 8 })
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect();
    let enters = |&&to: &&NodeId| {
        let sim = dual_simulation(q, &rewired(to).0, None);
        sim.of(pe.dst).binary_search(&to).is_ok()
    };
    // A member needs no help to stay; a non-member should enter.
    let to = match to_member {
        true => tries[0],
        false => *tries.iter().find(enters).unwrap_or(&tries[0]),
    };
    Some(rewired(to))
}
