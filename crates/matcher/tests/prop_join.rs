//! Oracle property tests for the streamed flat-table join: on random
//! multi-component patterns with random pins, [`join_tables`] over
//! [`MatchTable`]s must produce exactly what the
//! nested-`Vec<Vec<NodeId>>` join (the pre-flat-table algorithm,
//! reimplemented below as the oracle) produces — including the
//! both-orientations path that symmetric-pair units take.

use std::sync::Arc;

use gfd_graph::{Graph, GraphBuilder, NodeId, Vocab};
use gfd_match::component::ComponentSearch;
use gfd_match::join::{join_tables, JoinScratch};
use gfd_match::table::MatchTable;
use gfd_match::types::{Flow, Pin};
use gfd_pattern::{Pattern, PatternBuilder, VarId};
use gfd_util::prop::{cases, check};
use gfd_util::Rng;

/// The pre-flat-table nested join, kept verbatim as the oracle:
/// smallest match list first, disjointness via a `used` stack.
fn oracle_join(
    components: &[(Vec<VarId>, Vec<Vec<NodeId>>)],
    total_vars: usize,
) -> Vec<Vec<NodeId>> {
    fn rec(
        components: &[(Vec<VarId>, Vec<Vec<NodeId>>)],
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<NodeId>,
        used: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if depth == order.len() {
            out.push(assignment.clone());
            return;
        }
        let (vars, matches) = &components[order[depth]];
        'next: for m in matches {
            for &node in m {
                if used.contains(&node) {
                    continue 'next;
                }
            }
            for (j, &node) in m.iter().enumerate() {
                assignment[vars[j].index()] = node;
                used.push(node);
            }
            rec(components, order, depth + 1, assignment, used, out);
            for &var in vars {
                assignment[var.index()] = NodeId(u32::MAX);
            }
            used.truncate(used.len() - m.len());
        }
    }
    if components.iter().any(|(_, m)| m.is_empty()) {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..components.len()).collect();
    order.sort_by_key(|&i| components[i].1.len());
    let mut assignment = vec![NodeId(u32::MAX); total_vars];
    let mut used = Vec::new();
    let mut out = Vec::new();
    rec(components, &order, 0, &mut assignment, &mut used, &mut out);
    out
}

/// A random small graph over labels {A, B} and edge labels {e, f}.
fn random_ab_graph(rng: &mut Rng, vocab: &Arc<Vocab>) -> Graph {
    let mut b = GraphBuilder::new(vocab.clone());
    let n = rng.gen_range(3..9);
    let nodes: Vec<NodeId> = (0..n)
        .map(|_| b.add_node_labeled(if rng.gen_bool(0.5) { "A" } else { "B" }))
        .collect();
    let edges = rng.gen_range(2..(2 * n));
    for _ in 0..edges {
        let s = nodes[rng.gen_range(0..n)];
        let t = nodes[rng.gen_range(0..n)];
        b.add_edge_labeled(s, t, if rng.gen_bool(0.5) { "e" } else { "f" });
    }
    b.freeze()
}

/// A random connected chain pattern of 1–3 variables.
fn random_component(rng: &mut Rng, vocab: &Arc<Vocab>) -> Pattern {
    let mut b = PatternBuilder::new(vocab.clone());
    let k = rng.gen_range(1..4);
    let vars: Vec<VarId> = (0..k)
        .map(|i| b.node(&format!("v{i}"), if rng.gen_bool(0.5) { "A" } else { "B" }))
        .collect();
    for w in vars.windows(2) {
        let label = if rng.gen_bool(0.5) { "e" } else { "f" };
        if rng.gen_bool(0.5) {
            b.edge(w[0], w[1], label);
        } else {
            b.edge(w[1], w[0], label);
        }
    }
    b.build()
}

/// Enumerates one component's matches (optionally pinned), returning
/// the nested-`Vec` oracle form AND the flat table.
fn enumerate_both(q: &Pattern, g: &Graph, pin: Option<Pin>) -> (Vec<Vec<NodeId>>, MatchTable) {
    let mut table = MatchTable::new(q.node_count());
    ComponentSearch::new(q, g)
        .pins(pin.as_slice())
        .collect_into(&mut table);
    let nested = table.iter().map(<[NodeId]>::to_vec).collect();
    (nested, table)
}

fn sorted(mut v: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    v.sort();
    v
}

fn flat_join(
    parts: &[(Pattern, Vec<VarId>)],
    tables: &[MatchTable],
    total: usize,
) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut scratch = JoinScratch::new();
    join_tables(parts, tables, total, None, &mut scratch, &mut |a| {
        out.push(a.to_vec());
        Flow::Continue
    });
    out
}

#[test]
fn flat_table_join_equals_nested_join() {
    let vocab = Vocab::shared();
    check(
        "join_tables ≡ nested-Vec oracle on random patterns",
        cases(120, 15),
        |rng| {
            let g = random_ab_graph(rng, &vocab);
            let ncomp = rng.gen_range(2..4);
            let comps: Vec<Pattern> = (0..ncomp).map(|_| random_component(rng, &vocab)).collect();
            let total: usize = comps.iter().map(Pattern::node_count).sum();
            // Random assignment of original variable ids to components.
            let mut orig: Vec<u32> = (0..total as u32).collect();
            for i in (1..orig.len()).rev() {
                orig.swap(i, rng.gen_range(0..i + 1));
            }
            let mut offset = 0usize;
            let mut nested: Vec<(Vec<VarId>, Vec<Vec<NodeId>>)> = Vec::new();
            let mut tables: Vec<MatchTable> = Vec::new();
            for q in &comps {
                let vars: Vec<VarId> = orig[offset..offset + q.node_count()]
                    .iter()
                    .map(|&v| VarId(v))
                    .collect();
                offset += q.node_count();
                // Random pin on roughly half the components.
                let pin = rng.gen_bool(0.5).then(|| {
                    Pin::at(
                        VarId(rng.gen_range(0..q.node_count()) as u32),
                        NodeId(rng.gen_range(0..g.node_count()) as u32),
                    )
                });
                let (rows, table) = enumerate_both(q, &g, pin);
                nested.push((vars, rows));
                tables.push(table);
            }
            let parts: Vec<(Pattern, Vec<VarId>)> = comps
                .iter()
                .zip(&nested)
                .map(|(q, (vars, _))| (q.clone(), vars.clone()))
                .collect();
            let got = sorted(flat_join(&parts, &tables, total));
            let want = sorted(oracle_join(&nested, total));
            if got != want {
                return Err(format!(
                    "flat {} rows vs oracle {} rows",
                    got.len(),
                    want.len()
                ));
            }
            Ok(())
        },
    );
}

/// The symmetric-pair path: two isomorphic components whose pivot pins
/// are checked in **both orientations** (Example 10's dedup). The
/// union over orientations of the flat join must equal the oracle's.
#[test]
fn both_orientations_flat_equals_nested() {
    let vocab = Vocab::shared();
    check(
        "symmetric-pair both-orientations ≡ oracle",
        cases(80, 10),
        |rng| {
            let g = random_ab_graph(rng, &vocab);
            let q = random_component(rng, &vocab);
            let k = q.node_count();
            let total = 2 * k;
            let pivot = VarId(rng.gen_range(0..k) as u32);
            let a = NodeId(rng.gen_range(0..g.node_count()) as u32);
            let b = NodeId(rng.gen_range(0..g.node_count()) as u32);
            let vars0: Vec<VarId> = (0..k as u32).map(VarId).collect();
            let vars1: Vec<VarId> = (k as u32..2 * k as u32).map(VarId).collect();

            let mut flat_union: Vec<Vec<NodeId>> = Vec::new();
            let mut oracle_union: Vec<Vec<NodeId>> = Vec::new();
            for (pa, pb) in [(a, b), (b, a)] {
                let (l0, t0) = enumerate_both(&q, &g, Some(Pin::at(pivot, pa)));
                let (l1, t1) = enumerate_both(&q, &g, Some(Pin::at(pivot, pb)));
                let parts = [(q.clone(), vars0.clone()), (q.clone(), vars1.clone())];
                flat_union.extend(flat_join(&parts, &[t0, t1], total));
                oracle_union.extend(oracle_join(
                    &[(vars0.clone(), l0), (vars1.clone(), l1)],
                    total,
                ));
            }
            let got = sorted(flat_union);
            let want = sorted(oracle_union);
            if got != want {
                return Err(format!(
                    "flat {} rows vs oracle {} rows (pins {a:?}/{b:?})",
                    got.len(),
                    want.len()
                ));
            }
            Ok(())
        },
    );
}
