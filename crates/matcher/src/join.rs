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
//! Parts may also *share* variables — the bags of one component's
//! tree decomposition, say. A column whose variable is already
//! assigned must agree with the assignment (an equi-join on the bag
//! overlap) instead of tripping the disjointness check; only newly
//! placed variables consume fresh nodes. Shared-variable inputs are
//! probed through a sorted row index over their key columns (built per
//! join call, reused across calls through the scratch), so the
//! equi-join runs in output-proportional time instead of scanning every
//! row per outer match; inputs without shared variables keep the plain
//! scan.

use std::cmp::Ordering;

use gfd_graph::NodeId;
use gfd_pattern::{Pattern, VarId};

use crate::table::MatchTable;
use crate::types::Flow;

/// Reusable backtracking state for [`join_tables`]: component order,
/// the assignment under construction, and the disjointness set. A
/// caller that keeps one scratch across joins performs no steady-state
/// allocation.
#[derive(Debug, Default)]
pub struct JoinScratch {
    order: Vec<usize>,
    assignment: Vec<NodeId>,
    used: Vec<NodeId>,
    /// The variable placed at each `used` slot — lets the unwind reset
    /// exactly the variables this depth placed, leaving shared
    /// variables assigned by earlier inputs untouched.
    used_vars: Vec<VarId>,
    /// Per-depth equi-join index (empty key = plain scan).
    keyed: Vec<KeyedIndex>,
    /// Which variables some earlier-ordered input binds — the key
    /// columns of each later input.
    seen: Vec<bool>,
}

/// A sorted row index over one input's key columns (the logical
/// columns whose variables an earlier-ordered input binds). Rows with
/// equal keys are contiguous, so a probe is one binary search plus a
/// scan of exactly the matching group.
#[derive(Debug, Default)]
struct KeyedIndex {
    /// Logical key columns.
    cols: Vec<u32>,
    /// Row ids, sorted lexicographically by key-column values (ties by
    /// row id, preserving insertion order within a group).
    rows: Vec<u32>,
}

/// Lexicographic comparison of row `r`'s key-column values against the
/// values `assignment` fixes for those columns' variables (all bound:
/// key columns are shared with earlier inputs by construction).
fn cmp_key_to_assignment(
    table: &MatchTable,
    vars: &[VarId],
    cols: &[u32],
    r: u32,
    assignment: &[NodeId],
) -> Ordering {
    let row = table.row(r as usize);
    for &j in cols {
        match row[j as usize].cmp(&assignment[vars[j as usize].index()]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

impl JoinScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Streams every compatible combination of the parts' matches —
/// `tables[i]` holds matches of `parts[i].0`, over the original
/// variables `parts[i].1` — as a full assignment (indexed by original
/// variable id, length `total_vars`). Parts with disjoint variable sets
/// combine node-disjointly (the disconnected-pattern join); parts
/// sharing variables must agree on them (a bag join). Stops early if
/// `f` returns [`Flow::Break`]; returns `true` if the enumeration ran
/// to completion.
pub fn join_tables(
    parts: &[(Pattern, Vec<VarId>)],
    tables: &[MatchTable],
    total_vars: usize,
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
        used_vars,
        keyed,
        seen,
    } = scratch;
    // Order components by ascending match count for early pruning.
    let k = tables.len();
    order.clear();
    order.extend(0..k);
    order.sort_unstable_by_key(|&i| tables[i].len());

    // Index every input whose variables overlap an earlier one: probe
    // by binary search instead of rescanning the table per outer row.
    if keyed.len() < k {
        keyed.resize_with(k, KeyedIndex::default);
    }
    seen.clear();
    seen.resize(total_vars, false);
    for (d, &ci) in order.iter().enumerate() {
        let ki = &mut keyed[d];
        ki.cols.clear();
        ki.rows.clear();
        let vars = &parts[ci].1;
        for (j, &v) in vars.iter().enumerate() {
            if seen[v.index()] {
                ki.cols.push(j as u32);
            }
        }
        if !ki.cols.is_empty() {
            let table = &tables[ci];
            ki.rows.extend(0..table.len() as u32);
            ki.rows.sort_unstable_by(|&a, &b| {
                let (ra, rb) = (table.row(a as usize), table.row(b as usize));
                for &j in &ki.cols {
                    match ra[j as usize].cmp(&rb[j as usize]) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                a.cmp(&b)
            });
        }
        for v in vars {
            seen[v.index()] = true;
        }
    }

    assignment.clear();
    assignment.resize(total_vars, NodeId(u32::MAX));
    used.clear();
    used_vars.clear();
    rec(
        parts, tables, order, keyed, 0, assignment, used, used_vars, f,
    )
}

/// Resets the variables placed since `from`, restoring the state this
/// depth found on entry.
fn unwind(
    assignment: &mut [NodeId],
    used: &mut Vec<NodeId>,
    used_vars: &mut Vec<VarId>,
    from: usize,
) {
    for &v in &used_vars[from..] {
        assignment[v.index()] = NodeId(u32::MAX);
    }
    used.truncate(from);
    used_vars.truncate(from);
}

#[allow(clippy::too_many_arguments)]
fn rec(
    parts: &[(Pattern, Vec<VarId>)],
    tables: &[MatchTable],
    order: &[usize],
    keyed: &[KeyedIndex],
    depth: usize,
    assignment: &mut Vec<NodeId>,
    used: &mut Vec<NodeId>,
    used_vars: &mut Vec<VarId>,
    f: &mut dyn FnMut(&[NodeId]) -> Flow,
) -> bool {
    if depth == order.len() {
        return f(assignment) == Flow::Continue;
    }
    let ci = order[depth];
    let (vars, table) = (&parts[ci].1, &tables[ci]);
    let ki = &keyed[depth];
    // Equi-join probe: only the contiguous group of rows agreeing with
    // the assignment on every key column; no key = the full table.
    let (group, full) = if ki.cols.is_empty() {
        (&[][..], table.len())
    } else {
        let lo = ki.rows.partition_point(|&r| {
            cmp_key_to_assignment(table, vars, &ki.cols, r, assignment) == Ordering::Less
        });
        let len = ki.rows[lo..].partition_point(|&r| {
            cmp_key_to_assignment(table, vars, &ki.cols, r, assignment) == Ordering::Equal
        });
        (&ki.rows[lo..lo + len], 0)
    };
    'next_match: for r in (0..full).chain(group.iter().map(|&r| r as usize)) {
        let row = table.row(r);
        let placed0 = used.len();
        for (&var, &node) in vars.iter().zip(row) {
            let slot = assignment[var.index()];
            if slot != NodeId(u32::MAX) {
                // Shared variable: the row must agree with the value an
                // earlier input placed.
                if slot != node {
                    unwind(assignment, used, used_vars, placed0);
                    continue 'next_match;
                }
            } else if used.contains(&node) {
                // Fresh variable: matches are injective, so the node
                // must not repeat.
                unwind(assignment, used, used_vars, placed0);
                continue 'next_match;
            } else {
                assignment[var.index()] = node;
                used.push(node);
                used_vars.push(var);
            }
        }
        let go_on = rec(
            parts,
            tables,
            order,
            keyed,
            depth + 1,
            assignment,
            used,
            used_vars,
            f,
        );
        unwind(assignment, used, used_vars, placed0);
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
        join_tables(parts, tables, total, &mut scratch, &mut |a| {
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
        let complete = join_tables(&[part(&[0])], &[t], 1, &mut scratch, &mut |_| {
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
    fn shared_variables_equi_join() {
        // Two "bags" of one decomposed component sharing var 1: rows
        // combine only when they agree on the overlap.
        let ta = table(
            2,
            &[
                &[NodeId(0), NodeId(1)],
                &[NodeId(0), NodeId(2)],
                &[NodeId(3), NodeId(2)],
            ],
        );
        let tb = table(2, &[&[NodeId(1), NodeId(9)], &[NodeId(2), NodeId(8)]]);
        let mut out = collect(&[part(&[0, 1]), part(&[1, 2])], &[ta, tb], 3);
        out.sort();
        assert_eq!(
            out,
            vec![
                vec![NodeId(0), NodeId(1), NodeId(9)],
                vec![NodeId(0), NodeId(2), NodeId(8)],
                vec![NodeId(3), NodeId(2), NodeId(8)],
            ]
        );
    }

    #[test]
    fn shared_join_still_enforces_injectivity_on_fresh_vars() {
        // Bags agree on var 1 = n5, but bag B's fresh var 2 reuses bag
        // A's node n0 — rejected (matches are injective).
        let ta = table(2, &[&[NodeId(0), NodeId(5)]]);
        let tb = table(2, &[&[NodeId(5), NodeId(0)], &[NodeId(5), NodeId(7)]]);
        let out = collect(&[part(&[0, 1]), part(&[1, 2])], &[ta, tb], 3);
        assert_eq!(out, vec![vec![NodeId(0), NodeId(5), NodeId(7)]]);
    }

    #[test]
    fn scratch_is_reusable_across_joins() {
        let (parts, tables) = ([part(&[0])], [table(1, &[&[NodeId(0)], &[NodeId(1)]])]);
        let mut scratch = JoinScratch::new();
        for _ in 0..3 {
            let mut n = 0;
            join_tables(&parts, &tables, 1, &mut scratch, &mut |_| {
                n += 1;
                Flow::Continue
            });
            assert_eq!(n, 2);
        }
    }
}
