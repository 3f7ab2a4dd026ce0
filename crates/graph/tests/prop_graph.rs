//! Property-based tests for the graph substrate.
//!
//! The centerpiece is the CSR-equivalence suite: a frozen [`Graph`] is
//! compared against a *naive oracle* — plain hash-map adjacency built
//! from the same random edge list — for every observable: `has_edge`,
//! out/in neighbor sets, per-label neighbor ranges, label extents, and
//! edge iteration. (The offline toolchain has no `proptest`; the
//! in-repo harness `gfd_util::prop` runs each property over a seed
//! range and reports the failing seed.)

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{boundary_step, hub_graph, random_graph, random_mutation};
use gfd_graph::{
    graph::same_snapshot, neighborhood::khop_nodes, Fragmentation, Graph, NodeId,
    PartitionStrategy, Sym,
};
use gfd_util::{prop::check, prop_assert};

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
        let (g, raw) = random_graph(rng, 24);
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
        let (g, raw) = random_graph(rng, 24);
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
        let (g, raw) = random_graph(rng, 24);
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
        let (g, raw) = random_graph(rng, 24);
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
        let (g, _) = random_graph(rng, 20);
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
        let (g, _) = random_graph(rng, 16);
        let mut b = g.thaw();
        let mut script = Vec::new();
        for _ in 0..rng.gen_range(1..20) {
            script.push(random_mutation(rng, &mut b));
        }
        let delta = b.take_delta().expect("thaw records");
        let patched = g.apply_delta(&delta);
        let frozen = b.freeze();
        if let Err(msg) = same_snapshot(&patched, &frozen) {
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

#[test]
fn paged_edit_scripts_equal_freeze() {
    // The apply_delta ≡ freeze oracle on graphs wider than a page,
    // with scripts aimed at the page boundaries: after every step the
    // patched snapshot must equal a from-scratch freeze of the shadow
    // builder, and thaw → freeze must round-trip it.
    check("paged apply_delta ≡ freeze, 50-step scripts", 40, |rng| {
        let (mut g, hub) = hub_graph(rng);
        let mut shadow = g.thaw();
        let mut script = Vec::new();
        for _ in 0..50 {
            script.push(boundary_step(rng, &mut shadow, &g, hub));
            let delta = shadow.take_delta().expect("thaw records");
            let next = g.apply_delta(&delta);
            let verdict = same_snapshot(&next, &shadow.clone().freeze())
                .and_then(|()| same_snapshot(&next.thaw().freeze(), &next));
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
            let (mut head, hub) = hub_graph(rng);
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
            let (mut g, hub) = hub_graph(rng);
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
        let (g, _) = random_graph(rng, 16);
        let (g2, delta) = g.edit_with_delta(|_| {});
        prop_assert!(delta.is_empty(), "empty session recorded {delta:?}");
        same_snapshot(&g, &g2)
    });
}

#[test]
fn khop_monotone() {
    check(
        "k-hop neighborhoods grow with k and contain seeds",
        60,
        |rng| {
            let (g, _) = random_graph(rng, 20);
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
        let (g, _) = random_graph(rng, 30);
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
