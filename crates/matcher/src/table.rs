//! Flat match tables: the allocation-free representation of a
//! component's match set.
//!
//! A [`MatchTable`] stores every match of one pattern component in a
//! single `Vec<NodeId>` arena with stride = component arity — one heap
//! allocation (amortized) for the *whole* enumeration instead of one
//! `Vec` per match. Consumers iterate rows as `&[NodeId]` slices; the
//! detection hot path (`UnitExecutor::run` in `gfd-parallel`) refills
//! per-worker scratch tables and joins them without ever copying a
//! row.

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
        t.clear();
        assert!(t.is_empty());
    }
}
