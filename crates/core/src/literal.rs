//! Literals and dependencies `X → Y` (§3).
//!
//! A literal of `x̄` is `x.A = c` (a *constant* literal) or
//! `x.A = y.B` (a *variable* literal), where `A`, `B` are attribute
//! names not mentioned in the pattern and `c` is a constant.

use gfd_graph::{Sym, Value};
use gfd_pattern::VarId;

/// A single equality atom over pattern variables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Literal {
    /// `x.A = c`.
    Const {
        /// The variable `x`.
        var: VarId,
        /// The attribute `A`.
        attr: Sym,
        /// The constant `c`.
        value: Value,
    },
    /// `x.A = y.B`.
    Vars {
        /// The variable `x`.
        x: VarId,
        /// The attribute `A`.
        a: Sym,
        /// The variable `y`.
        y: VarId,
        /// The attribute `B`.
        b: Sym,
    },
}

impl Literal {
    /// Builds `x.A = c`.
    pub fn const_eq(var: VarId, attr: Sym, value: impl Into<Value>) -> Self {
        Literal::Const {
            var,
            attr,
            value: value.into(),
        }
    }

    /// Builds `x.A = y.B`.
    pub fn var_eq(x: VarId, a: Sym, y: VarId, b: Sym) -> Self {
        Literal::Vars { x, a, y, b }
    }

    /// True for `x.A = c`.
    pub fn is_constant(&self) -> bool {
        matches!(self, Literal::Const { .. })
    }

    /// True for `x.A = y.B`.
    pub fn is_variable(&self) -> bool {
        matches!(self, Literal::Vars { .. })
    }

    /// True for the tautology `x.A = x.A`. (Note that even a tautology
    /// carries content under GFD semantics when it appears in `Y`: it
    /// forces attribute `A` to *exist* on `h(x)`, the paper's "GFDs can
    /// specify certain type information".)
    pub fn is_tautology(&self) -> bool {
        matches!(self, Literal::Vars { x, a, y, b } if x == y && a == b)
    }

    /// The variables mentioned by the literal.
    pub fn vars(&self) -> Vec<VarId> {
        match self {
            Literal::Const { var, .. } => vec![*var],
            Literal::Vars { x, y, .. } => {
                if x == y {
                    vec![*x]
                } else {
                    vec![*x, *y]
                }
            }
        }
    }

    /// The `(variable, attribute)` pairs the literal reads: one for
    /// `x.A = c`, two for `x.A = y.B`.
    pub fn reads(&self) -> impl Iterator<Item = (VarId, Sym)> {
        let pairs = match *self {
            Literal::Const { var, attr, .. } => [Some((var, attr)), None],
            Literal::Vars { x, a, y, b } => [Some((x, a)), Some((y, b))],
        };
        pairs.into_iter().flatten()
    }

    /// The largest variable index mentioned (for arity validation).
    pub fn max_var(&self) -> VarId {
        match self {
            Literal::Const { var, .. } => *var,
            Literal::Vars { x, y, .. } => (*x).max(*y),
        }
    }

    /// Applies a variable substitution (`map[old] = new`), e.g. along a
    /// pattern embedding — the `f(X')` of embedded GFDs (§4.1).
    pub fn substitute(&self, map: &[VarId]) -> Literal {
        match self {
            Literal::Const { var, attr, value } => Literal::Const {
                var: map[var.index()],
                attr: *attr,
                value: value.clone(),
            },
            Literal::Vars { x, a, y, b } => Literal::Vars {
                x: map[x.index()],
                a: *a,
                y: map[y.index()],
                b: *b,
            },
        }
    }
}

/// An attribute dependency `X → Y`: two (possibly empty) sets of
/// literals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dependency {
    /// The antecedent `X`.
    pub x: Vec<Literal>,
    /// The consequent `Y`.
    pub y: Vec<Literal>,
}

impl Dependency {
    /// Builds `X → Y`.
    pub fn new(x: Vec<Literal>, y: Vec<Literal>) -> Self {
        Dependency { x, y }
    }

    /// `∅ → Y`.
    pub fn always(y: Vec<Literal>) -> Self {
        Dependency { x: Vec::new(), y }
    }

    /// All literals of both sides.
    pub fn literals(&self) -> impl Iterator<Item = &Literal> {
        self.x.iter().chain(self.y.iter())
    }

    /// `|X| + |Y|`, the dependency's size contribution to `|ϕ|`.
    pub fn size(&self) -> usize {
        self.x.len() + self.y.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> Sym {
        Sym(i)
    }

    #[test]
    fn constructors_and_kinds() {
        let c = Literal::const_eq(VarId(0), s(1), "Edi");
        assert!(c.is_constant() && !c.is_variable() && !c.is_tautology());
        let v = Literal::var_eq(VarId(0), s(1), VarId(2), s(1));
        assert!(v.is_variable() && !v.is_constant());
        let t = Literal::var_eq(VarId(0), s(1), VarId(0), s(1));
        assert!(t.is_tautology());
        // Same var, different attrs: not a tautology.
        let nt = Literal::var_eq(VarId(0), s(1), VarId(0), s(2));
        assert!(!nt.is_tautology());
    }

    #[test]
    fn vars_deduplicated() {
        let l = Literal::var_eq(VarId(3), s(0), VarId(3), s(1));
        assert_eq!(l.vars(), vec![VarId(3)]);
        let l = Literal::var_eq(VarId(3), s(0), VarId(5), s(1));
        assert_eq!(l.vars(), vec![VarId(3), VarId(5)]);
        assert_eq!(l.max_var(), VarId(5));
    }

    #[test]
    fn substitution_maps_variables() {
        let map = vec![VarId(10), VarId(11), VarId(12)];
        let l = Literal::var_eq(VarId(0), s(7), VarId(2), s(8));
        assert_eq!(
            l.substitute(&map),
            Literal::var_eq(VarId(10), s(7), VarId(12), s(8))
        );
        let c = Literal::const_eq(VarId(1), s(7), 44i64);
        assert_eq!(
            c.substitute(&map),
            Literal::const_eq(VarId(11), s(7), 44i64)
        );
    }

    #[test]
    fn dependency_accessors() {
        let d = Dependency::new(
            vec![Literal::const_eq(VarId(0), s(0), true)],
            vec![Literal::var_eq(VarId(0), s(1), VarId(1), s(1))],
        );
        assert_eq!(d.size(), 2);
        assert_eq!(d.literals().count(), 2);
        let e = Dependency::always(vec![]);
        assert_eq!(e.size(), 0);
    }
}
