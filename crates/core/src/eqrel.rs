//! Equality reasoning over attribute terms and constants.
//!
//! Both `enforced(Σ_Q)` (§4.1) and `closure(Σ_Q, X)` (§4.2) are
//! fixpoints of equality atoms closed under "the transitivity of
//! equality atoms". The natural engine for that is a union–find whose
//! elements are *terms*: either an attribute term `o.A` (where `o` is
//! a pattern variable or a graph node, generically an *owner* index)
//! or a constant. A class containing two **distinct** constants is a
//! *conflict* — exactly the paper's notion of a conflicting `Σ_Q`.

use std::collections::HashMap;

use gfd_graph::{Sym, Value};

/// Handle to a term inside an [`EqRel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TermId(u32);

/// A union–find over attribute terms `owner.attr` and constants.
#[derive(Clone, Debug, Default)]
pub struct EqRel {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Representative constant of a class (by root), if any.
    constant: Vec<Option<Value>>,
    attr_terms: HashMap<(u32, Sym), TermId>,
    const_terms: HashMap<Value, TermId>,
    conflict: Option<(Value, Value)>,
}

impl EqRel {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh(&mut self, constant: Option<Value>) -> TermId {
        let id = TermId(self.parent.len() as u32);
        self.parent.push(id.0);
        self.rank.push(0);
        self.constant.push(constant);
        id
    }

    /// Interns the attribute term `owner.attr`.
    pub fn attr_term(&mut self, owner: u32, attr: Sym) -> TermId {
        if let Some(&t) = self.attr_terms.get(&(owner, attr)) {
            return t;
        }
        let t = self.fresh(None);
        self.attr_terms.insert((owner, attr), t);
        t
    }

    /// Looks up `owner.attr` without creating it. A term that was never
    /// mentioned cannot participate in a derivation (the paper's
    /// closures only connect literals that were actually enforced).
    pub fn try_attr_term(&self, owner: u32, attr: Sym) -> Option<TermId> {
        self.attr_terms.get(&(owner, attr)).copied()
    }

    /// Interns a constant term.
    pub fn const_term(&mut self, value: &Value) -> TermId {
        if let Some(&t) = self.const_terms.get(value) {
            return t;
        }
        let t = self.fresh(Some(value.clone()));
        self.const_terms.insert(value.clone(), t);
        t
    }

    fn find(&mut self, t: TermId) -> TermId {
        let mut root = t.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = t.0;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        TermId(root)
    }

    /// Non-mutating find (no compression) for read-only queries.
    fn find_ro(&self, t: TermId) -> TermId {
        let mut root = t.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        TermId(root)
    }

    /// Merges the classes of `a` and `b`. Returns `true` if the
    /// relation changed. Records a conflict when two classes with
    /// distinct constants merge (but still merges, so derivations can
    /// proceed — the conflict flag is what reasoning inspects).
    pub fn union(&mut self, a: TermId, b: TermId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        match (&self.constant[ra.0 as usize], &self.constant[rb.0 as usize]) {
            (Some(ca), Some(cb)) if ca != cb && self.conflict.is_none() => {
                self.conflict = Some((ca.clone(), cb.clone()));
            }
            _ => {}
        }
        let (big, small) = if self.rank[ra.0 as usize] >= self.rank[rb.0 as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small.0 as usize] = big.0;
        if self.rank[big.0 as usize] == self.rank[small.0 as usize] {
            self.rank[big.0 as usize] += 1;
        }
        if self.constant[big.0 as usize].is_none() {
            self.constant[big.0 as usize] = self.constant[small.0 as usize].clone();
        }
        true
    }

    /// Are two terms known equal?
    pub fn same(&self, a: TermId, b: TermId) -> bool {
        self.find_ro(a) == self.find_ro(b)
    }

    /// The constant a term is bound to, if any.
    pub fn constant_of(&self, t: TermId) -> Option<&Value> {
        self.constant[self.find_ro(t).0 as usize].as_ref()
    }

    /// True if two distinct constants were ever merged — the paper's
    /// "(x.A, a) and (x.A, b) … with a ≠ b".
    pub fn has_conflict(&self) -> bool {
        self.conflict.is_some()
    }

    /// The first conflicting constant pair, for diagnostics.
    pub fn conflict_witness(&self) -> Option<(&Value, &Value)> {
        self.conflict.as_ref().map(|(a, b)| (a, b))
    }

    /// Does `owner.attr = value` already follow from the relation?
    pub fn entails_const(&self, owner: u32, attr: Sym, value: &Value) -> bool {
        let Some(t) = self.try_attr_term(owner, attr) else {
            return false;
        };
        match self.constant_of(t) {
            Some(c) => c == value,
            None => false,
        }
    }

    /// Does `o1.a1 = o2.a2` already follow from the relation?
    pub fn entails_var(&self, o1: u32, a1: Sym, o2: u32, a2: Sym) -> bool {
        if o1 == o2 && a1 == a2 {
            // Tautology — derivable only if the term is mentioned at
            // all? The paper's closure contains X ⊆ closure, so a
            // mentioned tautology holds; an unmentioned one is treated
            // as holding too (it is an equality between identical
            // terms).
            return true;
        }
        match (self.try_attr_term(o1, a1), self.try_attr_term(o2, a2)) {
            (Some(t1), Some(t2)) => self.same(t1, t2),
            _ => false,
        }
    }

    /// All attribute terms with their owners, attributes and class
    /// constants (used to materialize models from chases).
    pub fn attr_assignments(&self) -> Vec<(u32, Sym, TermId, Option<Value>)> {
        self.attr_terms
            .iter()
            .map(|(&(owner, attr), &t)| {
                let root = self.find_ro(t);
                (owner, attr, root, self.constant[root.0 as usize].clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn transitivity_through_constants() {
        // x.A = c and y.B = c  ⟹  x.A = y.B (the paper's example of
        // transitivity).
        let mut r = EqRel::new();
        let xa = r.attr_term(0, s(0));
        let yb = r.attr_term(1, s(1));
        let c = r.const_term(&Value::str("c"));
        r.union(xa, c);
        r.union(yb, c);
        assert!(r.entails_var(0, s(0), 1, s(1)));
        assert!(r.entails_const(0, s(0), &Value::str("c")));
        assert!(!r.has_conflict());
    }

    #[test]
    fn conflict_on_distinct_constants() {
        let mut r = EqRel::new();
        let xa = r.attr_term(0, s(0));
        let c = r.const_term(&Value::str("c"));
        let d = r.const_term(&Value::str("d"));
        r.union(xa, c);
        assert!(!r.has_conflict());
        r.union(xa, d);
        assert!(r.has_conflict());
        let (w1, w2) = r.conflict_witness().unwrap();
        assert_ne!(w1, w2);
    }

    #[test]
    fn unmentioned_terms_do_not_entail() {
        let r = EqRel::new();
        assert!(!r.entails_const(0, s(0), &Value::Int(1)));
        assert!(!r.entails_var(0, s(0), 1, s(0)));
        // …except tautologies.
        assert!(r.entails_var(0, s(0), 0, s(0)));
    }

    #[test]
    fn union_is_idempotent() {
        let mut r = EqRel::new();
        let a = r.attr_term(0, s(0));
        let b = r.attr_term(1, s(0));
        assert!(r.union(a, b));
        assert!(!r.union(a, b));
        assert!(r.same(a, b));
    }

    #[test]
    fn constant_propagates_to_class() {
        let mut r = EqRel::new();
        let a = r.attr_term(0, s(0));
        let b = r.attr_term(1, s(0));
        r.union(a, b);
        let c = r.const_term(&Value::Int(7));
        r.union(b, c);
        assert_eq!(r.constant_of(a), Some(&Value::Int(7)));
        assert!(r.entails_const(1, s(0), &Value::Int(7)));
        assert!(!r.entails_const(1, s(0), &Value::Int(8)));
    }

    #[test]
    fn same_constant_never_conflicts() {
        let mut r = EqRel::new();
        let a = r.attr_term(0, s(0));
        let c1 = r.const_term(&Value::str("v"));
        r.union(a, c1);
        let c2 = r.const_term(&Value::str("v"));
        r.union(a, c2);
        assert!(!r.has_conflict());
    }
}
