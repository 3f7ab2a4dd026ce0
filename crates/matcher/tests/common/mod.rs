//! A generator wide enough to cross run pages, shared by the
//! incremental and registry oracles: graphs of ≥ 200 nodes (≥ 4 pages
//! of 64 node ids) with one hub adjacent to every page and parallel
//! edges under both labels, patterns with at least one wildcard edge,
//! and edits biased towards what moves runs — toggling edges that
//! exist, dropping one label of a parallel pair, rewiring the hub —
//! plus the rewire step that takes a member's only support away and
//! replaces it in the same delta.

use gfd_graph::{Graph, GraphBuilder, GraphDelta, NodeId};
use gfd_match::{dual_simulation, CandidateSpace};
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
