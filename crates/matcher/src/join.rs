//! Joining per-component matches of a disconnected pattern.
//!
//! A match of `Q` with components `(Q_1, …, Q_k)` is a choice of one
//! match per component whose images are pairwise node-disjoint (the
//! paper's `h` is a bijection onto the match's subgraph, hence
//! injective over all of `x̄`). The join enumerates the disjoint
//! combinations in a streaming fashion, smallest component match-list
//! first so dead ends are pruned early.
//!
//! Component match sets arrive as flat [`MatchTable`]s, one per part
//! of the pattern's decomposition (what `decompose` returns): the join
//! streams directly over table rows — no per-match `Vec`s are ever
//! materialized. All backtracking state lives in a caller-owned
//! [`JoinScratch`], so a warm caller joins with zero heap allocation.
//!
//! Two parts may also be joined *on* a cross-part equality
//! `x.A = y.B` ([`JoinKey`]) — the predicate-into-the-join move of the
//! FAQ/FDB line of work: a caller that only needs rows on which the
//! literal holds (a rule whose `X` requires it) gets exactly those. The
//! smaller table is indexed by its attribute value, the larger probes,
//! and rows lacking the attribute take no part, so the join costs the
//! value-agreeing pairs rather than the table product.

use std::hash::{Hash, Hasher};

use gfd_graph::{Graph, NodeId, Sym, Value};
use gfd_pattern::{Pattern, VarId};
use gfd_util::fxhash::FxHasher;

use crate::table::MatchTable;
use crate::types::Flow;

/// A cross-part equality `x.a = y.b` to join two parts on: `x` is a
/// variable of part 0, `y` of part 1 (original variable ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinKey {
    /// The part-0 variable.
    pub x: VarId,
    /// Its attribute.
    pub a: Sym,
    /// The part-1 variable.
    pub y: VarId,
    /// Its attribute.
    pub b: Sym,
}

/// Reusable backtracking state for [`join_tables`]: component order,
/// the assignment under construction, the disjointness set and a keyed
/// join's value index. A caller that keeps one scratch across joins
/// performs no steady-state allocation.
#[derive(Debug, Default)]
pub struct JoinScratch {
    order: Vec<usize>,
    assignment: Vec<NodeId>,
    used: Vec<NodeId>,
    /// The keyed join's index over its smaller table: `(value hash,
    /// row)` pairs, sorted, one per row that has the key attribute.
    index: Vec<(u64, u32)>,
}

impl JoinScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

fn value_hash(v: &Value) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Streams every node-disjoint combination of the parts' matches —
/// `tables[i]` holds matches of `parts[i].0`, over the original
/// variables `parts[i].1`, the parts' variable sets pairwise disjoint —
/// as a full assignment (indexed by original variable id, length
/// `total_vars`). With `on = Some((g, key))` (two parts only), only the
/// combinations on which `key` holds in `g` stream. Stops early if `f`
/// returns [`Flow::Break`]; returns `true` if the enumeration ran to
/// completion.
pub fn join_tables(
    parts: &[(Pattern, Vec<VarId>)],
    tables: &[MatchTable],
    total_vars: usize,
    on: Option<(&Graph, JoinKey)>,
    scratch: &mut JoinScratch,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> bool {
    debug_assert_eq!(parts.len(), tables.len(), "one table per part");
    if tables.iter().any(MatchTable::is_empty) {
        return true; // no matches at all — trivially complete
    }
    let JoinScratch {
        order,
        assignment,
        used,
        index,
    } = scratch;
    // Order components by ascending match count for early pruning.
    order.clear();
    order.extend(0..tables.len());
    order.sort_unstable_by_key(|&i| tables[i].len());
    let probe = on.map(|(g, key)| {
        debug_assert_eq!(tables.len(), 2, "a key joins two parts");
        // The larger table probes an index over the smaller one.
        order.reverse();
        let build = order[1];
        let ((pvar, pattr), (bvar, battr)) = if build == 1 {
            ((key.x, key.a), (key.y, key.b))
        } else {
            ((key.y, key.b), (key.x, key.a))
        };
        let col = parts[build]
            .1
            .iter()
            .position(|&v| v == bvar)
            .expect("key variable is in its part");
        index.clear();
        for (r, row) in tables[build].iter().enumerate() {
            if let Some(v) = g.attr(row[col], battr) {
                index.push((value_hash(v), r as u32));
            }
        }
        index.sort_unstable();
        Probe {
            g,
            var: pvar,
            attr: pattr,
            col,
            build_attr: battr,
            index,
        }
    });
    assignment.clear();
    assignment.resize(total_vars, NodeId(u32::MAX));
    used.clear();
    let join = Join {
        parts,
        tables,
        order,
        probe,
    };
    rec(&join, 0, assignment, used, f)
}

/// What one join call reads and never writes.
struct Join<'a> {
    parts: &'a [(Pattern, Vec<VarId>)],
    tables: &'a [MatchTable],
    order: &'a [usize],
    probe: Option<Probe<'a>>,
}

/// A keyed join's second level: the probing row's `var.attr` value
/// selects the indexed rows whose `col` node carries it as
/// `build_attr`.
struct Probe<'a> {
    g: &'a Graph,
    var: VarId,
    attr: Sym,
    col: usize,
    build_attr: Sym,
    index: &'a [(u64, u32)],
}

fn rec(
    join: &Join<'_>,
    depth: usize,
    assignment: &mut [NodeId],
    used: &mut Vec<NodeId>,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> bool {
    if depth == join.order.len() {
        return f(assignment) == Flow::Continue;
    }
    let ci = join.order[depth];
    let (vars, table) = (&join.parts[ci].1, &join.tables[ci]);
    // A keyed join's indexed level scans only the rows whose value
    // hashes like the probe's; every other level scans the table.
    let (full, candidates, want) = match &join.probe {
        Some(p) if depth == 1 => {
            let Some(v) = p.g.attr(assignment[p.var.index()], p.attr) else {
                return true; // X fails on this row
            };
            let h = value_hash(v);
            let lo = p.index.partition_point(|&(k, _)| k < h);
            let len = p.index[lo..].partition_point(|&(k, _)| k == h);
            (0, &p.index[lo..lo + len], Some((p, v)))
        }
        _ => (table.len(), &[][..], None),
    };
    'next_match: for r in (0..full).chain(candidates.iter().map(|&(_, r)| r as usize)) {
        let row = table.row(r);
        if let Some((p, v)) = want {
            // Confirm by value, not by hash alone.
            if p.g.attr(row[p.col], p.build_attr) != Some(v) {
                continue;
            }
        }
        // Matches are injective: no node may repeat across parts.
        let placed0 = used.len();
        for (&var, &node) in vars.iter().zip(row) {
            if used[..placed0].contains(&node) {
                used.truncate(placed0);
                continue 'next_match;
            }
            assignment[var.index()] = node;
            used.push(node);
        }
        let go_on = rec(join, depth + 1, assignment, used, f);
        used.truncate(placed0);
        if !go_on {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::Vocab;
    use gfd_pattern::PatternBuilder;

    fn table(arity: usize, rows: &[&[NodeId]]) -> MatchTable {
        let mut t = MatchTable::new(arity);
        for r in rows {
            t.push_row(r);
        }
        t
    }

    /// A part over the original variables `vars`: wildcard nodes, one
    /// per variable (the join reads only the variables).
    fn part(vars: &[u32]) -> (Pattern, Vec<VarId>) {
        let mut b = PatternBuilder::new(Vocab::shared());
        for v in vars {
            b.wildcard_node(&format!("v{v}"));
        }
        (b.build(), vars.iter().map(|&v| VarId(v)).collect())
    }

    fn collect(
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
    fn two_singleton_components_disjoint_pairs() {
        // Component A: var 0 over {n0, n1}; component B: var 1 over {n0, n1}.
        let ta = table(1, &[&[NodeId(0)], &[NodeId(1)]]);
        let tb = table(1, &[&[NodeId(0)], &[NodeId(1)]]);
        let out = collect(&[part(&[0]), part(&[1])], &[ta, tb], 2);
        // 2×2 minus the 2 overlapping combinations.
        assert_eq!(out.len(), 2);
        for a in &out {
            assert_ne!(a[0], a[1]);
        }
    }

    #[test]
    fn empty_component_short_circuits() {
        let ta = table(1, &[&[NodeId(0)]]);
        let tb = table(1, &[]);
        assert!(collect(&[part(&[0]), part(&[1])], &[ta, tb], 2).is_empty());
    }

    #[test]
    fn break_stops_enumeration() {
        let t = table(1, &[&[NodeId(0)], &[NodeId(1)], &[NodeId(2)]]);
        let mut n = 0;
        let mut scratch = JoinScratch::new();
        let complete = join_tables(&[part(&[0])], &[t], 1, None, &mut scratch, &mut |_| {
            n += 1;
            Flow::Break
        });
        assert!(!complete);
        assert_eq!(n, 1);
    }

    #[test]
    fn assignment_indexed_by_original_vars() {
        // Component over original vars (2, 0); another over (1,).
        let ta = table(2, &[&[NodeId(10), NodeId(11)]]);
        let tb = table(1, &[&[NodeId(12)]]);
        let out = collect(&[part(&[2, 0]), part(&[1])], &[ta, tb], 3);
        assert_eq!(out, vec![vec![NodeId(11), NodeId(12), NodeId(10)]]);
    }

    #[test]
    fn value_key_joins_only_agreeing_rows() {
        // Part 0 over var 0, part 1 over var 1, joined on v0.val = v1.val:
        // n0 and n2 share a value, n1 has another, n3 has none.
        let vocab = Vocab::shared();
        let mut b = gfd_graph::GraphBuilder::new(vocab.clone());
        let n: Vec<_> = (0..4).map(|_| b.add_node_labeled("t")).collect();
        b.set_attr_named(n[0], "val", Value::Int(7));
        b.set_attr_named(n[1], "val", Value::Int(8));
        b.set_attr_named(n[2], "val", Value::Int(7));
        let g = b.freeze();
        let val = vocab.intern("val");
        let key = JoinKey {
            x: VarId(0),
            a: val,
            y: VarId(1),
            b: val,
        };
        let all = [&[n[0]][..], &[n[1]], &[n[2]], &[n[3]]];
        // Either side may be the smaller, indexed one.
        for (t0, t1) in [(&all[..], &all[..3]), (&all[..3], &all[..])] {
            let (t0, t1) = (table(1, t0), table(1, t1));
            let mut out = Vec::new();
            let mut scratch = JoinScratch::new();
            let parts = [part(&[0]), part(&[1])];
            join_tables(
                &parts,
                &[t0, t1],
                2,
                Some((&g, key)),
                &mut scratch,
                &mut |a| {
                    out.push(a.to_vec());
                    Flow::Continue
                },
            );
            out.sort();
            // Equal values, disjoint nodes: (n0, n2) and (n2, n0) only.
            assert_eq!(out, vec![vec![n[0], n[2]], vec![n[2], n[0]]]);
        }
    }

    #[test]
    fn scratch_is_reusable_across_joins() {
        let (parts, tables) = ([part(&[0])], [table(1, &[&[NodeId(0)], &[NodeId(1)]])]);
        let mut scratch = JoinScratch::new();
        for _ in 0..3 {
            let mut n = 0;
            join_tables(&parts, &tables, 1, None, &mut scratch, &mut |_| {
                n += 1;
                Flow::Continue
            });
            assert_eq!(n, 2);
        }
    }
}
