//! Property-based tests for the graph substrate.
//!
//! The centerpiece is the CSR-equivalence suite: a frozen [`Graph`] is
//! compared against a *naive oracle* — plain hash-map adjacency built
//! from the same random edge list — for every observable: `has_edge`,
//! out/in neighbor sets, per-label neighbor ranges, label extents, and
//! edge iteration. (The offline toolchain has no `proptest`; the
//! in-repo harness `gfd_util::prop` runs each property over a seed
//! range and reports the failing seed.)

use std::collections::{BTreeMap, BTreeSet};

use gfd_graph::{
    graph::same_snapshot, neighborhood::khop_nodes, Fragmentation, Graph, GraphBuilder, NodeId,
    PartitionStrategy, Sym,
};
use gfd_util::{prop::check, prop_assert, Rng};

/// A random graph with up to `max_nodes` nodes over `labels` node
/// labels and `elabels` edge labels, together with the raw (possibly
/// duplicated) edge list it was built from.
fn random_graph(
    rng: &mut Rng,
    max_nodes: usize,
    labels: usize,
    elabels: usize,
) -> (Graph, Vec<(u32, u32, String)>) {
    let n = rng.gen_range(1..max_nodes + 1);
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % labels)))
        .collect();
    let m = rng.gen_range(0..3 * n + 1);
    let mut raw = Vec::with_capacity(m);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        let e = format!("e{}", rng.gen_range(0..elabels));
        b.add_edge_labeled(ids[s], ids[d], &e);
        raw.push((s as u32, d as u32, e));
    }
    (b.freeze(), raw)
}

/// The naive adjacency-map oracle the CSR snapshot must agree with.
struct Oracle {
    /// Deduplicated edge set `(src, dst, label)`.
    edges: BTreeSet<(u32, u32, Sym)>,
    /// Label → sorted node extent.
    extents: BTreeMap<Sym, Vec<NodeId>>,
}

impl Oracle {
    fn build(g: &Graph, raw: &[(u32, u32, String)]) -> Self {
        let edges = raw
            .iter()
            .map(|(s, d, e)| (*s, *d, g.vocab().lookup(e).unwrap()))
            .collect();
        let mut extents: BTreeMap<Sym, Vec<NodeId>> = BTreeMap::new();
        for u in g.nodes() {
            extents.entry(g.label(u)).or_default().push(u);
        }
        Oracle { edges, extents }
    }

    fn out_set(&self, u: u32) -> BTreeSet<(Sym, u32)> {
        self.edges
            .iter()
            .filter(|(s, _, _)| *s == u)
            .map(|(_, d, l)| (*l, *d))
            .collect()
    }

    fn in_set(&self, u: u32) -> BTreeSet<(Sym, u32)> {
        self.edges
            .iter()
            .filter(|(_, d, _)| *d == u)
            .map(|(s, _, l)| (*l, *s))
            .collect()
    }
}

#[test]
fn csr_has_edge_equals_oracle() {
    check("has_edge ≡ oracle membership", 120, |rng| {
        let (g, raw) = random_graph(rng, 24, 4, 3);
        let oracle = Oracle::build(&g, &raw);
        let all_labels: Vec<Sym> = (0..3).map(|e| g.vocab().intern(&format!("e{e}"))).collect();
        for s in g.nodes() {
            for d in g.nodes() {
                for &l in &all_labels {
                    let expected = oracle.edges.contains(&(s.0, d.0, l));
                    prop_assert!(
                        g.has_edge(s, d, l) == expected,
                        "has_edge({s:?},{d:?},{l:?}) disagrees with oracle"
                    );
                    prop_assert!(
                        g.neighbors_labeled(s, l).iter().any(|a| a.node == d) == expected,
                        "neighbors_labeled disagrees with oracle at ({s:?},{d:?},{l:?})"
                    );
                }
                let expected_any = all_labels
                    .iter()
                    .any(|&l| oracle.edges.contains(&(s.0, d.0, l)));
                prop_assert!(
                    g.has_edge_any(s, d) == expected_any,
                    "has_edge_any disagrees"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn csr_neighbor_sets_equal_oracle() {
    check("out/in slices ≡ oracle adjacency", 120, |rng| {
        let (g, raw) = random_graph(rng, 24, 4, 3);
        let oracle = Oracle::build(&g, &raw);
        for u in g.nodes() {
            let got_out: BTreeSet<(Sym, u32)> =
                g.out_slice(u).iter().map(|a| (a.label, a.node.0)).collect();
            prop_assert!(got_out == oracle.out_set(u.0), "out set of {u:?} disagrees");
            prop_assert!(
                g.out_slice(u).len() == oracle.out_set(u.0).len(),
                "out run of {u:?} contains duplicates"
            );
            let got_in: BTreeSet<(Sym, u32)> =
                g.in_slice(u).iter().map(|a| (a.label, a.node.0)).collect();
            prop_assert!(got_in == oracle.in_set(u.0), "in set of {u:?} disagrees");
            prop_assert!(
                g.out_slice(u).windows(2).all(|w| w[0] < w[1]),
                "out run of {u:?} not strictly sorted by (label, dst)"
            );
            prop_assert!(
                g.in_slice(u).windows(2).all(|w| w[0] < w[1]),
                "in run of {u:?} not strictly sorted by (label, src)"
            );
            prop_assert!(
                g.degree(u) == g.out_degree(u) + g.in_degree(u),
                "degree arithmetic"
            );
        }
        Ok(())
    });
}

#[test]
fn csr_extents_equal_oracle() {
    check("label extents ≡ oracle label map", 120, |rng| {
        let (g, raw) = random_graph(rng, 24, 4, 3);
        let oracle = Oracle::build(&g, &raw);
        for (label, nodes) in &oracle.extents {
            prop_assert!(
                g.extent(*label) == nodes.as_slice(),
                "extent of {label:?} disagrees"
            );
        }
        let listed: BTreeMap<Sym, Vec<NodeId>> =
            g.label_extents().map(|(l, e)| (l, e.to_vec())).collect();
        prop_assert!(listed == oracle.extents, "label_extents() disagrees");
        let fresh = g.vocab().intern("__never_used");
        prop_assert!(g.extent(fresh).is_empty(), "unknown label must be empty");
        extent_ranks_invert(&g)
    });
}

#[test]
fn csr_edge_iteration_equals_oracle() {
    check("edges() ≡ oracle edge set", 120, |rng| {
        let (g, raw) = random_graph(rng, 24, 4, 3);
        let oracle = Oracle::build(&g, &raw);
        let got: BTreeSet<(u32, u32, Sym)> =
            g.edges().map(|e| (e.src.0, e.dst.0, e.label)).collect();
        let listed: Vec<_> = g.edges().collect();
        prop_assert!(got == oracle.edges, "edge sets disagree");
        prop_assert!(
            listed.len() == oracle.edges.len(),
            "edges() yields duplicates"
        );
        prop_assert!(
            g.edge_count() == oracle.edges.len(),
            "edge_count disagrees with dedup'd input"
        );
        Ok(())
    });
}

#[test]
fn thaw_freeze_round_trip_is_identity() {
    check("thaw ∘ freeze preserves all observables", 80, |rng| {
        let (g, _) = random_graph(rng, 20, 3, 3);
        let g2 = g.thaw().freeze();
        prop_assert!(g2.node_count() == g.node_count());
        prop_assert!(g2.edge_count() == g.edge_count());
        for u in g.nodes() {
            prop_assert!(g.label(u) == g2.label(u), "label of {u:?} changed");
            prop_assert!(
                g.out_slice(u) == g2.out_slice(u),
                "out run of {u:?} changed"
            );
            prop_assert!(g.in_slice(u) == g2.in_slice(u), "in run of {u:?} changed");
            prop_assert!(g.attrs(u) == g2.attrs(u), "attrs of {u:?} changed");
        }
        Ok(())
    });
}

/// Applies one random mutation to a thawed builder. Returns a
/// description for failure messages.
fn random_mutation(rng: &mut Rng, b: &mut GraphBuilder) -> String {
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
            let v = gfd_graph::Value::Int(rng.gen_range(0..5) as i64);
            b.set_attr(u, a, v);
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

/// Structural equality of two snapshots over every observable.
fn graphs_equal(a: &Graph, b: &Graph) -> Result<(), String> {
    if a.node_count() != b.node_count() {
        return Err(format!(
            "node counts {} vs {}",
            a.node_count(),
            b.node_count()
        ));
    }
    if a.edge_count() != b.edge_count() {
        return Err(format!(
            "edge counts {} vs {}",
            a.edge_count(),
            b.edge_count()
        ));
    }
    for u in a.nodes() {
        if a.label(u) != b.label(u) {
            return Err(format!("label of {u:?}"));
        }
        if a.attrs(u) != b.attrs(u) {
            return Err(format!("attrs of {u:?}"));
        }
        if a.out_slice(u) != b.out_slice(u) {
            return Err(format!("out run of {u:?}"));
        }
        if a.in_slice(u) != b.in_slice(u) {
            return Err(format!("in run of {u:?}"));
        }
    }
    let ea: Vec<_> = a.label_extents().map(|(l, e)| (l, e.to_vec())).collect();
    let eb: Vec<_> = b.label_extents().map(|(l, e)| (l, e.to_vec())).collect();
    if ea != eb {
        return Err("label extents".into());
    }
    extent_ranks_invert(a)?;
    extent_ranks_invert(b)
}

/// `extent_rank` is the inverse of the extents: every node sits at its
/// rank in its own label's extent.
fn extent_ranks_invert(g: &Graph) -> Result<(), String> {
    match g
        .nodes()
        .find(|&u| g.extent(g.label(u)).get(g.extent_rank(u)) != Some(&u))
    {
        Some(u) => Err(format!("extent rank of {u:?}")),
        None => Ok(()),
    }
}

#[test]
fn edit_delta_round_trip_equals_freeze() {
    // thaw → mutate → refreeze, both ways: the delta-patched snapshot
    // (what `edit` does now) must equal the full `freeze` rebuild, and
    // node ids, attrs, and (src,dst,label) dedup must survive.
    check("apply_delta ∘ record ≡ freeze", 120, |rng| {
        let (g, _) = random_graph(rng, 16, 4, 3);
        let mut b = g.thaw();
        let mut script = Vec::new();
        for _ in 0..rng.gen_range(1..20) {
            script.push(random_mutation(rng, &mut b));
        }
        let delta = b.take_delta().expect("thaw records");
        let patched = g.apply_delta(&delta);
        let frozen = b.freeze();
        if let Err(msg) = graphs_equal(&patched, &frozen) {
            return Err(format!("{msg}; script: {script:?}"));
        }
        // Dedup survives the round trip: re-adding any existing edge
        // must be rejected by a fresh thaw of the patched snapshot.
        let mut b2 = patched.thaw();
        for e in patched.edges().collect::<Vec<_>>() {
            prop_assert!(
                !b2.add_edge(e.src, e.dst, e.label),
                "duplicate edge {e:?} accepted after round trip"
            );
        }
        Ok(())
    });
}

/// The snapshot's page size, and the longest run a page keeps inline:
/// mirrors the private `PAGE_NODES` and `INLINE_RUN_MAX` of `graph.rs`,
/// whose unit test `page_size_matches_the_boundary_oracles` fails if
/// they drift apart.
const PAGE: usize = 64;

/// A graph wider than three pages with one hub whose in-run is longer
/// than a page, so out of line — or, one case in four, the empty graph
/// and no hub.
fn wide_graph(rng: &mut Rng) -> (Graph, Option<NodeId>) {
    let mut b = GraphBuilder::with_fresh_vocab();
    if rng.gen_range(0..4) == 0 {
        return (b.freeze(), None);
    }
    let n = 3 * PAGE + rng.gen_range(0..PAGE);
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % 4)))
        .collect();
    let hub = ids[rng.gen_range(0..n)];
    for &src in &ids[..PAGE + 8] {
        b.add_edge_labeled(src, hub, &format!("e{}", src.0 % 2));
    }
    for _ in 0..2 * n {
        let (s, d) = (ids[rng.gen_range(0..n)], ids[rng.gen_range(0..n)]);
        b.add_edge_labeled(s, d, &format!("e{}", rng.gen_range(0..3)));
    }
    for &u in ids.iter().step_by(3) {
        b.set_attr_named(u, "a0", gfd_graph::Value::Int(u.0 as i64));
    }
    (b.freeze(), Some(hub))
}

/// A node next to a page boundary (last slot of a page, first and
/// second slot of the next), or the last node.
fn boundary_node(rng: &mut Rng, n: usize) -> NodeId {
    let page = rng.gen_range(1..n / PAGE + 2) * PAGE;
    let id = [page - 1, page, page + 1][rng.gen_range(0..3)];
    NodeId(id.min(n - 1) as u32)
}

/// A step aimed at the hub of [`wide_graph`], on the shadow builder of
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
/// `g`, whose hub (if it has one) is `hub`.
fn boundary_step(rng: &mut Rng, b: &mut GraphBuilder, g: &Graph, hub: Option<NodeId>) -> String {
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
            b.set_attr(s, a, gfd_graph::Value::Int(rng.gen_range(0..5) as i64));
            b.remove_attr(d, a);
            format!("attr writes {s:?} {d:?}")
        }
        _ => random_mutation(rng, b),
    }
}

#[test]
fn paged_edit_scripts_equal_freeze() {
    // The apply_delta ≡ freeze oracle on graphs wider than a page,
    // with scripts aimed at the page boundaries: after every step the
    // patched snapshot must equal a from-scratch freeze of the shadow
    // builder, and thaw → freeze must round-trip it.
    check("paged apply_delta ≡ freeze, 50-step scripts", 40, |rng| {
        let (mut g, hub) = wide_graph(rng);
        let mut shadow = g.thaw();
        let mut script = Vec::new();
        for _ in 0..50 {
            script.push(boundary_step(rng, &mut shadow, &g, hub));
            let delta = shadow.take_delta().expect("thaw records");
            let next = g.apply_delta(&delta);
            let verdict = graphs_equal(&next, &shadow.clone().freeze())
                .and_then(|()| graphs_equal(&next.thaw().freeze(), &next));
            if let Err(msg) = verdict {
                return Err(format!("{msg}; script: {script:?}"));
            }
            g = next;
        }
        Ok(())
    });
}

#[test]
fn in_place_edit_scripts_equal_freeze_beside_pins() {
    // The same scripts, applied to one head with apply_delta_in_place
    // while a seed-chosen subset of its epochs is pinned by `clone()`:
    // a page, run or tuple a pin shares is copied before its edit, one
    // the head holds alone is edited where it lies, and a pin released
    // mid-script hands its pages back to the head. The head must be a
    // from-scratch freeze of the shadow builder at every step, layout
    // included, and every pin the freeze of its own epoch when it is
    // released and at the end.
    check(
        "apply_delta_in_place ≡ freeze, pins untouched",
        40,
        |rng| {
            let (mut head, hub) = wide_graph(rng);
            let mut shadow = head.thaw();
            let mut pins: Vec<(usize, Graph, Graph)> = Vec::new();
            let mut script = Vec::new();
            let pinned_at = |step: usize, pin: &Graph, frozen: &Graph, script: &[String]| {
                same_snapshot(pin, frozen)
                    .map_err(|msg| format!("pin of step {step}: {msg}; script: {script:?}"))
            };
            for step in 0..50 {
                if rng.gen_range(0..3) == 0 {
                    pins.push((step, head.clone(), shadow.clone().freeze()));
                }
                if !pins.is_empty() && rng.gen_range(0..4) == 0 {
                    let (at, pin, frozen) = pins.swap_remove(rng.gen_range(0..pins.len()));
                    pinned_at(at, &pin, &frozen, &script)?;
                }
                script.push(boundary_step(rng, &mut shadow, &head, hub));
                let delta = shadow.take_delta().expect("thaw records");
                head.apply_delta_in_place(&delta);
                if let Err(msg) = same_snapshot(&head, &shadow.clone().freeze()) {
                    return Err(format!("step {step}: {msg}; script: {script:?}"));
                }
            }
            for (at, pin, frozen) in &pins {
                pinned_at(*at, pin, frozen, &script)?;
            }
            Ok(())
        },
    );
}

#[test]
fn builder_replay_equals_the_snapshot_chain() {
    // Log recovery's replay: every step's delta checked against and
    // applied in place to one builder, frozen once after the last step,
    // must equal the chain of successor snapshots ingest builds — every
    // observable and the page layout — over scripts that add nodes,
    // relabel, write and remove attributes and carry a hub's run across
    // the out-of-line threshold.
    check(
        "builder replay + one freeze ≡ apply_delta chain",
        40,
        |rng| {
            let (mut g, hub) = wide_graph(rng);
            let mut shadow = g.thaw();
            let mut replay = g.thaw();
            let mut script = Vec::new();
            for _ in 0..50 {
                script.push(boundary_step(rng, &mut shadow, &g, hub));
                let delta = shadow.take_delta().expect("thaw records");
                if let Err(e) = delta.check_against(&replay) {
                    return Err(format!(
                        "replay rejected {delta:?}: {e}; script: {script:?}"
                    ));
                }
                replay.apply_delta(&delta);
                g = g.apply_delta(&delta);
            }
            same_snapshot(&replay.freeze(), &g).map_err(|msg| format!("{msg}; script: {script:?}"))
        },
    );
}

#[test]
fn empty_delta_patch_is_identity() {
    check("apply_delta(∅) ≡ id", 40, |rng| {
        let (g, _) = random_graph(rng, 16, 3, 3);
        let (g2, delta) = g.edit_with_delta(|_| {});
        prop_assert!(delta.is_empty(), "empty session recorded {delta:?}");
        graphs_equal(&g, &g2)
    });
}

#[test]
fn khop_monotone() {
    check(
        "k-hop neighborhoods grow with k and contain seeds",
        60,
        |rng| {
            let (g, _) = random_graph(rng, 20, 3, 3);
            let k = rng.gen_range(0..4);
            for u in g.nodes() {
                let small = khop_nodes(&g, &[u], k);
                let large = khop_nodes(&g, &[u], k + 1);
                prop_assert!(small.contains(u), "seed {u:?} missing at k={k}");
                for x in small.iter() {
                    prop_assert!(large.contains(x), "k-hop not monotone at {x:?}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn fragmentation_covers() {
    check("fragmentations own every node once", 60, |rng| {
        let (g, _) = random_graph(rng, 30, 3, 3);
        let n = rng.gen_range(1..6);
        for strategy in [
            PartitionStrategy::Hash,
            PartitionStrategy::Contiguous,
            PartitionStrategy::BfsClustered,
        ] {
            let frag = Fragmentation::partition(&g, n, strategy);
            prop_assert!(frag.n() == n, "{strategy:?} has {} fragments", frag.n());
            for u in g.nodes() {
                let f = frag.owner(u);
                prop_assert!(f.index() < n, "{strategy:?} gives {u:?} to {f:?}");
            }
        }
        Ok(())
    });
}
