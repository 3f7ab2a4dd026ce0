//! Per-node attribute tuples `F_A(v) = (A_1 = a_1, …, A_n = a_n)`.
//!
//! Stored as a small sorted vector keyed by interned attribute name —
//! nodes in real graphs carry a handful of attributes, so binary search
//! over a dense vector beats a hash map in both space and time.

use crate::value::Value;
use crate::vocab::Sym;

/// The attribute tuple of one node, sorted by attribute symbol.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttrMap {
    entries: Vec<(Sym, Value)>,
}

impl AttrMap {
    /// Creates an empty attribute map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the value of attribute `attr`, if the node has it.
    ///
    /// GFD semantics depend on attribute *absence*: a literal `x.A = c`
    /// in the antecedent `X` is unsatisfied (and the GFD holds
    /// trivially) when `h(x)` has no attribute `A` (§3).
    pub fn get(&self, attr: Sym) -> Option<&Value> {
        self.entries
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// True if the node carries attribute `attr`.
    pub fn contains(&self, attr: Sym) -> bool {
        self.get(attr).is_some()
    }

    /// Sets `attr = value`, replacing any previous value.
    pub fn set(&mut self, attr: Sym, value: Value) {
        match self.entries.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (attr, value)),
        }
    }

    /// A copy of this tuple with `attr = value`, in one allocation of
    /// its final size — what a write into a tuple that another snapshot
    /// still shares costs.
    pub(crate) fn with(&self, attr: Sym, value: Value) -> AttrMap {
        let at = self.entries.binary_search_by_key(&attr, |(a, _)| *a);
        let (Ok(i) | Err(i)) = at;
        let mut entries = Vec::with_capacity(self.entries.len() + usize::from(at.is_err()));
        entries.extend_from_slice(&self.entries[..i]);
        entries.push((attr, value));
        entries.extend_from_slice(&self.entries[i + usize::from(at.is_ok())..]);
        AttrMap { entries }
    }

    /// The tuple of these entries, in their own allocation when they
    /// are sorted by symbol without repeats (as every encoder writes
    /// them); otherwise set one by one, so a later entry for the same
    /// symbol wins.
    pub(crate) fn from_entries(entries: Vec<(Sym, Value)>) -> AttrMap {
        if entries.windows(2).all(|w| w[0].0 < w[1].0) {
            AttrMap { entries }
        } else {
            entries.into_iter().collect()
        }
    }

    /// Removes `attr`, returning its previous value.
    pub fn remove(&mut self, attr: Sym) -> Option<Value> {
        match self.entries.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Number of attributes on the node.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the node has no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(attribute, value)` pairs in symbol order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Sym, &Value)> + '_ {
        self.entries.iter().map(|(a, v)| (*a, v))
    }

    /// Approximate serialized size in bytes (communication cost model).
    pub fn wire_size(&self) -> usize {
        self.entries.iter().map(|(_, v)| 4 + v.wire_size()).sum()
    }
}

impl FromIterator<(Sym, Value)> for AttrMap {
    fn from_iter<T: IntoIterator<Item = (Sym, Value)>>(iter: T) -> Self {
        let mut m = AttrMap::new();
        for (a, v) in iter {
            m.set(a, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn set_get_replace() {
        let mut m = AttrMap::new();
        m.set(s(3), Value::Int(1));
        m.set(s(1), Value::str("a"));
        m.set(s(2), Value::Bool(true));
        assert_eq!(m.get(s(1)), Some(&Value::str("a")));
        assert_eq!(m.get(s(3)), Some(&Value::Int(1)));
        m.set(s(3), Value::Int(9));
        assert_eq!(m.get(s(3)), Some(&Value::Int(9)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn with_equals_clone_then_set() {
        let m: AttrMap = [2u32, 4, 6]
            .into_iter()
            .map(|i| (s(i), Value::Int(i as i64)))
            .collect();
        for attr in 1..=7 {
            let mut expected = m.clone();
            expected.set(s(attr), Value::Bool(true));
            let copy = m.with(s(attr), Value::Bool(true));
            assert_eq!(copy, expected);
            assert_eq!(copy.entries.capacity(), copy.len(), "one exact allocation");
        }
        assert_eq!(AttrMap::new().with(s(1), Value::Int(1)).len(), 1);
    }

    #[test]
    fn entries_stay_sorted() {
        let mut m = AttrMap::new();
        for i in [5u32, 1, 4, 2, 3] {
            m.set(s(i), Value::Int(i as i64));
        }
        let keys: Vec<u32> = m.iter().map(|(a, _)| a.0).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn missing_attribute_absent() {
        let m = AttrMap::new();
        assert!(!m.contains(s(0)));
        assert_eq!(m.get(s(0)), None);
    }

    #[test]
    fn remove_returns_value() {
        let mut m = AttrMap::new();
        m.set(s(1), Value::Int(7));
        assert_eq!(m.remove(s(1)), Some(Value::Int(7)));
        assert_eq!(m.remove(s(1)), None);
        assert!(m.is_empty());
    }
}
