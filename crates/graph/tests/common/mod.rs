//! What the graph suites share: one random graph generator at three
//! widths — a base graph, a small graph with the raw edge list its
//! adjacency oracle needs, and a page-wide graph with a hub whose
//! in-run is out of line — one random edit step that toggles a small
//! slot pool, so recorded deltas carry every field and consecutive
//! steps often oppose each other, one uniform random mutation, and
//! one page-boundary script step built on that mutation.

#![allow(dead_code)]

use gfd_graph::{Graph, GraphBuilder, GraphDelta, NodeId, Value};
use gfd_util::Rng;

/// The snapshot's page size, and the longest run a page keeps inline:
/// mirrors the private `PAGE_NODES` and `INLINE_RUN_MAX` of `graph.rs`,
/// whose unit test `page_size_matches_the_boundary_oracles` fails if
/// they drift apart.
pub const PAGE: usize = 64;

/// The edges a generator drew, as `(src, dst, label)`, duplicates
/// included.
pub type RawEdges = Vec<(u32, u32, String)>;

/// Adds `n` nodes labeled `l0`.. over `labels` node labels to `b`,
/// fewer than `edges` random edges over `elabels` edge labels `e0`..,
/// and on some nodes a `val` of every value kind (integer, boolean,
/// string); returns the edges drawn.
fn fill(
    rng: &mut Rng,
    b: &mut GraphBuilder,
    n: usize,
    labels: usize,
    elabels: usize,
    edges: usize,
) -> RawEdges {
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % labels)))
        .collect();
    let mut raw = Vec::new();
    for _ in 0..rng.gen_range(0..edges) {
        let s = ids[rng.gen_range(0..n)];
        let d = ids[rng.gen_range(0..n)];
        let e = format!("e{}", rng.gen_range(0..elabels));
        b.add_edge_labeled(s, d, &e);
        raw.push((s.0, d.0, e));
    }
    for _ in 0..rng.gen_range(0..n) {
        let u = ids[rng.gen_range(0..n)];
        let v = match rng.gen_range(0..3) {
            0 => Value::Int(rng.gen_range(0..100) as i64 - 50),
            1 => Value::Bool(rng.gen_range(0..2) == 0),
            _ => Value::str(&format!("s{}", rng.gen_range(0..5))),
        };
        b.set_attr_named(u, "val", v);
    }
    raw
}

/// A random base graph over labels `l0`–`l2` and `e0`/`e1`: small, or
/// one case in three wider than three pages, so the toggled slots of
/// [`random_step`] straddle a page boundary.
pub fn base_graph(rng: &mut Rng) -> Graph {
    let n = match rng.gen_range(0..3) {
        0 => 3 * PAGE + rng.gen_range(0..PAGE),
        _ => rng.gen_range(3..10),
    };
    let mut b = GraphBuilder::with_fresh_vocab();
    fill(rng, &mut b, n, 3, 2, 2 * n);
    b.freeze()
}

/// A random graph of 1 to `max_nodes` nodes over labels `l0`–`l3` and
/// `e0`–`e2`, with up to `3n` edges, so one- and two-node graphs are
/// all self-loops and parallel labels. Returns the edges it drew
/// beside it.
pub fn random_graph(rng: &mut Rng, max_nodes: usize) -> (Graph, RawEdges) {
    let n = rng.gen_range(1..max_nodes + 1);
    let mut b = GraphBuilder::with_fresh_vocab();
    let raw = fill(rng, &mut b, n, 4, 3, 3 * n + 1);
    (b.freeze(), raw)
}

/// A base graph wider than three pages over labels `l0`–`l3` and
/// `e0`–`e2`, with one hub whose in-run is longer than a page, so out
/// of line — or, one case in four, the empty graph and no hub.
pub fn hub_graph(rng: &mut Rng) -> (Graph, Option<NodeId>) {
    let mut b = GraphBuilder::with_fresh_vocab();
    if rng.gen_range(0..4) == 0 {
        return (b.freeze(), None);
    }
    let n = 3 * PAGE + rng.gen_range(0..PAGE);
    fill(rng, &mut b, n, 4, 3, 2 * n + 1);
    let hub = NodeId(rng.gen_range(0..n) as u32);
    for src in 0..PAGE as u32 + 8 {
        b.add_edge_labeled(NodeId(src), hub, &format!("e{}", src % 2));
    }
    (b.freeze(), Some(hub))
}

/// One random edit step on the current snapshot, biased toward
/// *toggling* a small pool of edge/attr slots so consecutive steps
/// frequently oppose each other (the compaction-relevant shape).
pub fn random_step(rng: &mut Rng, g: &Graph) -> (Graph, GraphDelta) {
    let n = g.node_count();
    // A deliberately tiny coordinate pool: repeated steps hit the same
    // (src, dst, label) and (node, attr) slots, producing add/remove
    // and set/unset chains for merge to cancel. On a wide graph the
    // pool is the two slots either side of the first page boundary.
    let lo = if n > PAGE + 2 { PAGE - 2 } else { 0 };
    let s = NodeId((lo + rng.gen_range(0..n.min(4))) as u32);
    let d = NodeId((lo + rng.gen_range(0..n.min(4))) as u32);
    let kind = rng.gen_range(0..7);
    g.edit_with_delta(|b| match kind {
        0 => {
            b.add_edge_labeled(s, d, "e0");
        }
        1 => {
            b.remove_edge_labeled(s, d, "e0");
        }
        2 => {
            let a = b.vocab().intern("val");
            b.set_attr(s, a, Value::Int(rng.gen_range(0..3) as i64));
        }
        3 => {
            let a = b.vocab().intern("val");
            b.remove_attr(s, a);
        }
        4 => {
            let l = b.vocab().intern(&format!("l{}", rng.gen_range(0..3)));
            b.set_label(s, l);
        }
        5 => {
            let v = b.add_node_labeled("l1");
            b.add_edge_labeled(v, d, "e1");
        }
        _ => {
            // Toggle within one session: add + remove (or the reverse)
            // of the same edge, so even *single* deltas carry opposing
            // pairs for normalize to cancel before merge sees them.
            if b.add_edge_labeled(s, d, "e1") {
                b.remove_edge_labeled(s, d, "e1");
            } else {
                b.remove_edge_labeled(s, d, "e1");
                b.add_edge_labeled(s, d, "e1");
            }
        }
    })
}

/// One random mutation of a non-empty builder at uniformly chosen
/// nodes: a node labeled `l0`–`l3`, an edge `e0`–`e2` added or
/// removed, a relabel, or an attribute `a0`/`a1` set or removed, so a
/// node of [`fill`] ends up with several attribute keys. Returns what
/// it did, for failure messages.
pub fn random_mutation(rng: &mut Rng, b: &mut GraphBuilder) -> String {
    let n = b.node_count();
    let pick = |rng: &mut Rng, n: usize| NodeId(rng.gen_range(0..n) as u32);
    match rng.gen_range(0..6) {
        0 => {
            let l = format!("l{}", rng.gen_range(0..4));
            let id = b.add_node_labeled(&l);
            format!("add_node {id:?} {l}")
        }
        1 => {
            let (s, d) = (pick(rng, n), pick(rng, n));
            let e = format!("e{}", rng.gen_range(0..3));
            let ok = b.add_edge_labeled(s, d, &e);
            format!("add_edge {s:?}->{d:?} {e} ({ok})")
        }
        2 => {
            let (s, d) = (pick(rng, n), pick(rng, n));
            let e = format!("e{}", rng.gen_range(0..3));
            let ok = b.remove_edge_labeled(s, d, &e);
            format!("remove_edge {s:?}->{d:?} {e} ({ok})")
        }
        3 => {
            let u = pick(rng, n);
            let l = b.vocab().intern(&format!("l{}", rng.gen_range(0..4)));
            b.set_label(u, l);
            format!("set_label {u:?}")
        }
        4 => {
            let u = pick(rng, n);
            let a = b.vocab().intern(&format!("a{}", rng.gen_range(0..2)));
            b.set_attr(u, a, Value::Int(rng.gen_range(0..5) as i64));
            format!("set_attr {u:?}")
        }
        _ => {
            let u = pick(rng, n);
            let a = b.vocab().intern(&format!("a{}", rng.gen_range(0..2)));
            let had = b.remove_attr(u, a).is_some();
            format!("remove_attr {u:?} ({had})")
        }
    }
}

/// A node next to a page boundary (last slot of a page, first and
/// second slot of the next), or the last node.
fn boundary_node(rng: &mut Rng, n: usize) -> NodeId {
    let page = rng.gen_range(1..n / PAGE + 2) * PAGE;
    let id = [page - 1, page, page + 1][rng.gen_range(0..3)];
    NodeId(id.min(n - 1) as u32)
}

/// A step aimed at the hub of [`hub_graph`], on the shadow builder of
/// `g`: an in-edge toggled at a page-mate of the hub, so that the hub's
/// page is copied and edited around its run — or the hub's own in-run
/// carried across the out-of-line threshold in one delta, down to
/// `PAGE - 1` or `PAGE` entries when it is longer, up to `PAGE + 1` or
/// `PAGE + 2` when it is not.
fn hub_step(
    rng: &mut Rng,
    b: &mut GraphBuilder,
    g: &Graph,
    hub: NodeId,
    s: NodeId,
    beside: bool,
) -> String {
    if beside {
        let mate = NodeId((hub.0 ^ 1).min(g.node_count() as u32 - 1));
        if !b.add_edge_labeled(s, mate, "e1") {
            b.remove_edge_labeled(s, mate, "e1");
        }
        return format!("toggle {s:?}->{mate:?} beside hub {hub:?}");
    }
    let run = g.in_slice(hub);
    let wobble = rng.gen_range(0..2);
    if run.len() > PAGE {
        for a in &run[PAGE - wobble..] {
            b.remove_edge(a.node, hub, a.label);
        }
    } else {
        let e3 = b.vocab().intern("e3");
        let fresh = g.nodes().filter(|&src| !g.has_edge(src, hub, e3));
        for src in fresh.take(PAGE + 1 + wobble - run.len()) {
            b.add_edge(src, hub, e3);
        }
    }
    format!("hub {hub:?} in-run from {} across {PAGE}", run.len())
}

/// One step of a page-boundary edit script on the shadow builder of
/// `g`, whose hub (if it has one) is `hub`. Returns what it did.
pub fn boundary_step(
    rng: &mut Rng,
    b: &mut GraphBuilder,
    g: &Graph,
    hub: Option<NodeId>,
) -> String {
    let n = b.node_count();
    let free = (PAGE - n % PAGE) % PAGE;
    let add_nodes = |b: &mut GraphBuilder, count: usize| {
        for _ in 0..count {
            b.add_node_labeled("l1");
        }
        format!("add {count} nodes at n={n}")
    };
    if n == 0 {
        return add_nodes(b, 1 + rng.gen_range(0..2 * PAGE + 2));
    }
    let (s, d) = (boundary_node(rng, n), boundary_node(rng, n));
    let kind = rng.gen_range(0..12);
    if let (8 | 9, Some(hub)) = (kind, hub) {
        return hub_step(rng, b, g, hub, s, kind == 8);
    }
    match kind {
        // Fill the last page exactly (a whole page if it is full).
        0 => add_nodes(b, if free == 0 { PAGE } else { free }),
        // Overflow it by one node.
        1 => add_nodes(b, free + 1),
        // More than one whole page in one delta, wired to old nodes.
        2 => {
            let what = add_nodes(b, PAGE + 1 + rng.gen_range(0..PAGE));
            let newest = NodeId(b.node_count() as u32 - 1);
            b.add_edge_labeled(s, newest, "e0");
            b.add_edge_labeled(NodeId(n as u32), d, "e1");
            what
        }
        // A relabel plus edge ops in one delta.
        3 => {
            let l = b.vocab().intern(&format!("l{}", rng.gen_range(0..4)));
            b.set_label(s, l);
            b.add_edge_labeled(s, d, "e0");
            b.remove_edge_labeled(d, s, "e1");
            format!("relabel {s:?} + edge ops")
        }
        // Adds and removes that cancel inside one page, around one
        // net op.
        4 => {
            if b.add_edge_labeled(s, d, "e2") {
                b.remove_edge_labeled(s, d, "e2");
            } else {
                b.remove_edge_labeled(s, d, "e2");
                b.add_edge_labeled(s, d, "e2");
            }
            b.add_edge_labeled(d, s, "e2");
            format!("cancelling toggles {s:?}<->{d:?}")
        }
        5 | 6 => {
            let e = format!("e{}", rng.gen_range(0..3));
            if !b.add_edge_labeled(s, d, &e) {
                b.remove_edge_labeled(s, d, &e);
            }
            format!("toggle {s:?}->{d:?} {e}")
        }
        7 => {
            let a = b.vocab().intern("a0");
            b.set_attr(s, a, Value::Int(rng.gen_range(0..5) as i64));
            b.remove_attr(d, a);
            format!("attr writes {s:?} {d:?}")
        }
        _ => random_mutation(rng, b),
    }
}
