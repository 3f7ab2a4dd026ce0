//! Flat match tables: the allocation-free representation of a
//! component's match set.
//!
//! A [`MatchTable`] stores every match of one pattern component in a
//! single `Vec<NodeId>` arena with stride = component arity — one heap
//! allocation (amortized) for the *whole* enumeration instead of one
//! `Vec` per match. Consumers iterate rows as `&[NodeId]` slices; the
//! detection hot path (`UnitExecutor::run` in `gfd-parallel`) caches
//! tables behind `Arc` and joins them without ever copying a row.
//!
//! # The column-permutation view contract
//!
//! A [`TableView`] is a table plus an optional **column permutation**:
//! logical column `j` of the view reads physical column `perm[j]` of
//! the table. This is how a cached enumeration is reused across
//! isomorphic components: the table is stored once in *representative*
//! variable order, and a twin component with witness `map` (comp var
//! `j` ↦ rep var `map[j]`) views it through `perm[j] = map[j]` — an
//! `O(arity)` header rewrite instead of an `O(rows · arity)`
//! re-materialization.
//!
//! The contract every producer and consumer relies on:
//!
//! * `perm` is a **bijection** on `0..arity` — a view permutes
//!   columns, it never projects or duplicates them. Consequently the
//!   *set of nodes* in a physical row equals the set in the logical
//!   row, so row-level checks that are order-insensitive (injectivity
//!   / disjointness in the join) may scan the physical row directly
//!   and skip the indirection;
//! * `perm: None` means the identity view: logical = physical, the
//!   common case for a component that *is* its class representative;
//! * views are cheap to clone (`Arc` bumps, no allocation) and never
//!   outlive their table's data — the `Arc` keeps evicted cache
//!   entries alive while a join still streams over them.

use std::sync::Arc;

use gfd_graph::NodeId;

/// A flat table of matches: `rows × arity` node ids in one arena.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchTable {
    arity: usize,
    rows: usize,
    data: Vec<NodeId>,
}

impl MatchTable {
    /// An empty table for matches of `arity` variables.
    pub fn new(arity: usize) -> Self {
        MatchTable {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// An empty table with room for `rows` matches.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        MatchTable {
            arity,
            rows: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Stride of the table: images per match.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of matches stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no match has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Appends one match (must have exactly `arity` images).
    #[inline]
    pub fn push_row(&mut self, row: &[NodeId]) {
        debug_assert_eq!(row.len(), self.arity, "row width must equal the stride");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// The `i`-th match, in physical column order.
    #[inline]
    pub fn row(&self, i: usize) -> &[NodeId] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates all matches as physical rows.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// Drops all rows, keeping the arena's capacity.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.data.clear();
    }

    /// Drops all rows *and* adopts a new stride, keeping the arena's
    /// capacity — for scratch tables reused across patterns of
    /// different arity.
    pub fn reset(&mut self, arity: usize) {
        self.arity = arity;
        self.rows = 0;
        self.data.clear();
    }

    /// Bytes of match data held (the cache-eviction size key).
    #[inline]
    pub fn data_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<NodeId>()
    }
}

/// A shared [`MatchTable`] read through a column permutation; see the
/// module docs for the view contract.
#[derive(Clone, Debug)]
pub struct TableView {
    table: Arc<MatchTable>,
    /// `perm[j]` = physical column of logical column `j`; `None` is
    /// the identity.
    perm: Option<Arc<[u32]>>,
}

impl TableView {
    /// The identity view of a table.
    pub fn identity(table: Arc<MatchTable>) -> Self {
        TableView { table, perm: None }
    }

    /// A permuted view: logical column `j` reads physical column
    /// `perm[j]`. `perm` must be a bijection on `0..arity`.
    pub fn permuted(table: Arc<MatchTable>, perm: Arc<[u32]>) -> Self {
        debug_assert_eq!(perm.len(), table.arity());
        debug_assert!(
            {
                // A bitmask, not a `Vec`: views are built on the warm
                // unit-execution path, which must not allocate in
                // debug builds either (wider tables go unchecked).
                let mut seen = 0u128;
                perm.len() > 128
                    || perm.iter().all(|&p| {
                        let bit = 1u128.checked_shl(p).unwrap_or(0);
                        let fresh = (p as usize) < perm.len() && seen & bit == 0;
                        seen |= bit;
                        fresh
                    })
            },
            "perm must be a bijection on 0..arity"
        );
        TableView {
            table,
            perm: Some(perm),
        }
    }

    /// The underlying shared table.
    #[inline]
    pub fn table(&self) -> &Arc<MatchTable> {
        &self.table
    }

    /// The permutation, `None` for the identity view.
    #[inline]
    pub fn perm(&self) -> Option<&[u32]> {
        self.perm.as_deref()
    }

    /// Images per match.
    #[inline]
    pub fn arity(&self) -> usize {
        self.table.arity()
    }

    /// Number of matches.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the view holds no match.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The image of logical column `col` in match `row`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> NodeId {
        let r = self.table.row(row);
        match &self.perm {
            Some(p) => r[p[col] as usize],
            None => r[col],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut t = MatchTable::new(2);
        assert!(t.is_empty());
        t.push_row(&[NodeId(3), NodeId(7)]);
        t.push_row(&[NodeId(1), NodeId(2)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0), &[NodeId(3), NodeId(7)]);
        assert_eq!(t.row(1), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.data_bytes(), 4 * std::mem::size_of::<NodeId>());
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn identity_and_permuted_views() {
        let mut t = MatchTable::new(3);
        t.push_row(&[NodeId(10), NodeId(20), NodeId(30)]);
        let t = Arc::new(t);
        let id = TableView::identity(t.clone());
        assert_eq!(id.get(0, 0), NodeId(10));
        assert_eq!(id.get(0, 2), NodeId(30));
        // Logical (a, b, c) reads physical (c, a, b).
        let v = TableView::permuted(t, Arc::from([2u32, 0, 1].as_slice()));
        assert_eq!(v.get(0, 0), NodeId(30));
        assert_eq!(v.get(0, 1), NodeId(10));
        assert_eq!(v.get(0, 2), NodeId(20));
    }

    #[test]
    #[should_panic(expected = "bijection")]
    #[cfg(debug_assertions)]
    fn non_bijective_perm_rejected() {
        let mut t = MatchTable::new(2);
        t.push_row(&[NodeId(0), NodeId(1)]);
        let _ = TableView::permuted(Arc::new(t), Arc::from([0u32, 0].as_slice()));
    }
}
