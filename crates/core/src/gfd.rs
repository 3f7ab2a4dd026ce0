//! GFDs and GFD sets (§3).

use gfd_pattern::{Pattern, VarId};

use crate::literal::{Dependency, Literal};

/// A graph functional dependency `ϕ = (Q[x̄], X → Y)`.
#[derive(Clone, Debug)]
pub struct Gfd {
    /// A diagnostic name (rule id in error reports).
    pub name: String,
    /// The pattern `Q[x̄]` — the topological constraint / scope.
    pub pattern: Pattern,
    /// The attribute dependency `X → Y`.
    pub dep: Dependency,
}

impl Gfd {
    /// Builds a GFD, validating that every literal only mentions
    /// variables of the pattern.
    ///
    /// # Panics
    /// Panics if a literal mentions a variable outside `x̄`.
    pub fn new(name: impl Into<String>, pattern: Pattern, dep: Dependency) -> Self {
        let arity = pattern.node_count() as u32;
        for lit in dep.literals() {
            assert!(
                lit.max_var().0 < arity,
                "literal mentions variable outside the pattern"
            );
        }
        Gfd {
            name: name.into(),
            pattern,
            dep,
        }
    }

    /// `|ϕ| = |Q| + |X| + |Y|`.
    pub fn size(&self) -> usize {
        self.pattern.size() + self.dep.size()
    }

    /// A *constant GFD*: `X` and `Y` consist of constant literals only
    /// (subsumes constant CFDs, §3).
    pub fn is_constant(&self) -> bool {
        self.dep.literals().all(Literal::is_constant)
    }

    /// A *variable GFD*: `X` and `Y` consist of variable literals only
    /// (analogous to traditional FDs, §3).
    pub fn is_variable(&self) -> bool {
        self.dep.literals().all(Literal::is_variable)
    }

    /// Normal form (§4.2): one GFD per consequent literal, dropping
    /// tautologies `x.A = x.A`… except that under GFD semantics a
    /// tautology in `Y` asserts attribute existence, so tautologies are
    /// kept (the paper drops them only for the implication analysis,
    /// which [`crate::implication::implies`] handles itself).
    pub fn normalize(&self) -> Vec<Gfd> {
        self.dep
            .y
            .iter()
            .enumerate()
            .map(|(i, lit)| Gfd {
                name: format!("{}#{}", self.name, i),
                pattern: self.pattern.clone(),
                dep: Dependency::new(self.dep.x.clone(), vec![lit.clone()]),
            })
            .collect()
    }

    /// The variables of the pattern (convenience).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.pattern.vars()
    }
}

/// A set `Σ` of GFDs.
#[derive(Clone, Debug, Default)]
pub struct GfdSet {
    gfds: Vec<Gfd>,
}

impl GfdSet {
    /// Builds `Σ` from a list of GFDs.
    pub fn new(gfds: Vec<Gfd>) -> Self {
        GfdSet { gfds }
    }

    /// Number of rules `‖Σ‖`.
    pub fn len(&self) -> usize {
        self.gfds.len()
    }

    /// True if `Σ` is empty.
    pub fn is_empty(&self) -> bool {
        self.gfds.is_empty()
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Gfd> {
        self.gfds.iter()
    }

    /// The rules as a slice.
    pub fn as_slice(&self) -> &[Gfd] {
        &self.gfds
    }

    /// The rule at `index`.
    pub fn get(&self, index: usize) -> &Gfd {
        &self.gfds[index]
    }

    /// Adds a rule.
    pub fn push(&mut self, gfd: Gfd) {
        self.gfds.push(gfd);
    }

    /// Removes and returns the rule at `index`.
    pub fn remove(&mut self, index: usize) -> Gfd {
        self.gfds.remove(index)
    }

    /// Inserts `gfd` at `index`, shifting the rules after it.
    pub fn insert(&mut self, index: usize, gfd: Gfd) {
        self.gfds.insert(index, gfd);
    }

    /// Total size `|Σ| = Σ|ϕ|`.
    pub fn size(&self) -> usize {
        self.gfds.iter().map(Gfd::size).sum()
    }

    /// Average pattern size `|Q|` (the x-axis of Fig. 5(e)(g)(i)).
    pub fn avg_pattern_size(&self) -> f64 {
        if self.gfds.is_empty() {
            return 0.0;
        }
        self.gfds.iter().map(|g| g.pattern.size()).sum::<usize>() as f64 / self.gfds.len() as f64
    }
}

impl FromIterator<Gfd> for GfdSet {
    fn from_iter<T: IntoIterator<Item = Gfd>>(iter: T) -> Self {
        GfdSet::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a GfdSet {
    type Item = &'a Gfd;
    type IntoIter = std::slice::Iter<'a, Gfd>;
    fn into_iter(self) -> Self::IntoIter {
        self.gfds.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::Vocab;
    use gfd_pattern::PatternBuilder;

    fn single_node_gfd(dep: Dependency) -> Gfd {
        let mut b = PatternBuilder::new(Vocab::shared());
        b.node("x", "R");
        Gfd::new("t", b.build(), dep)
    }

    #[test]
    fn classification() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let c = single_node_gfd(Dependency::always(vec![Literal::const_eq(
            VarId(0),
            a,
            "v",
        )]));
        assert!(c.is_constant() && !c.is_variable());

        let v = single_node_gfd(Dependency::always(vec![Literal::var_eq(
            VarId(0),
            a,
            VarId(0),
            a,
        )]));
        assert!(v.is_variable() && !v.is_constant());

        let mixed = single_node_gfd(Dependency::new(
            vec![Literal::const_eq(VarId(0), a, 44i64)],
            vec![Literal::var_eq(VarId(0), a, VarId(0), a)],
        ));
        assert!(!mixed.is_constant() && !mixed.is_variable());
    }

    #[test]
    #[should_panic(expected = "outside the pattern")]
    fn out_of_range_literal_rejected() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        single_node_gfd(Dependency::always(vec![Literal::const_eq(
            VarId(5),
            a,
            "v",
        )]));
    }

    #[test]
    fn normalize_splits_consequents() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let b_attr = vocab.intern("B");
        let g = single_node_gfd(Dependency::new(
            vec![Literal::const_eq(VarId(0), a, 1i64)],
            vec![
                Literal::const_eq(VarId(0), b_attr, 2i64),
                Literal::var_eq(VarId(0), a, VarId(0), b_attr),
            ],
        ));
        let parts = g.normalize();
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert_eq!(p.dep.y.len(), 1);
            assert_eq!(p.dep.x, g.dep.x);
        }
    }

    #[test]
    fn set_operations() {
        let vocab = Vocab::shared();
        let a = vocab.intern("A");
        let mut sigma = GfdSet::default();
        assert!(sigma.is_empty());
        sigma.push(single_node_gfd(Dependency::always(vec![
            Literal::const_eq(VarId(0), a, "v"),
        ])));
        assert_eq!(sigma.len(), 1);
        assert!(sigma.size() > 0);
        assert!(sigma.avg_pattern_size() > 0.0);
        let removed = sigma.remove(0);
        assert_eq!(removed.name, "t");
        assert!(sigma.is_empty());
    }
}
