//! What the codec and compaction suites share: one random base graph
//! and one random edit step that toggles a small slot pool, so recorded
//! deltas carry every field and consecutive steps often oppose each
//! other.

use gfd_graph::{Graph, GraphBuilder, GraphDelta, NodeId, Value};
use gfd_util::Rng;

/// The snapshot's page size (the private `PAGE_NODES` of `graph.rs`,
/// pinned there by `page_size_matches_the_boundary_oracles`).
pub const PAGE: usize = 64;

/// A random base graph over a fixed label/attr vocabulary: small, or
/// one case in three wider than three pages, so the toggled slots of
/// [`random_step`] straddle a page boundary; some nodes carry a `val`
/// of every value kind (integer, boolean, string).
pub fn base_graph(rng: &mut Rng) -> Graph {
    let n = match rng.gen_range(0..3) {
        0 => 3 * PAGE + rng.gen_range(0..PAGE),
        _ => rng.gen_range(3..10),
    };
    let mut b = GraphBuilder::with_fresh_vocab();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.add_node_labeled(&format!("l{}", i % 3)))
        .collect();
    for _ in 0..rng.gen_range(0..2 * n) {
        let s = ids[rng.gen_range(0..n)];
        let d = ids[rng.gen_range(0..n)];
        b.add_edge_labeled(s, d, &format!("e{}", rng.gen_range(0..2)));
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
    b.freeze()
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
