//! Match representation and search options.

use gfd_graph::NodeId;
use gfd_pattern::VarId;

/// A match `h(x̄)`: one data node per pattern variable, indexed by
/// variable id.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Match(pub Vec<NodeId>);

impl Match {
    /// The image `h(x)` of a variable.
    #[inline]
    pub fn get(&self, var: VarId) -> NodeId {
        self.0[var.index()]
    }

    /// The images in variable order (the vector `h(x̄)` of the paper).
    pub fn nodes(&self) -> &[NodeId] {
        &self.0
    }
}

/// Its derived `Hash` is its slice's, so a set of matches can be
/// probed with a borrowed row before one is allocated.
impl std::borrow::Borrow<[NodeId]> for Match {
    fn borrow(&self) -> &[NodeId] {
        &self.0
    }
}

/// A cap on search effort, so that adversarial inputs cannot hang the
/// sequential validator (the paper's `detVio` is exponential; Exp-1
/// reports it failing to terminate). It counts backtracking steps; a
/// caller that wants fewer matches breaks out of the callback.
#[derive(Clone, Copy, Debug)]
pub struct SearchBudget {
    /// Stop after this many backtracking steps.
    pub max_steps: Option<u64>,
}

impl SearchBudget {
    /// No limit.
    pub const UNLIMITED: SearchBudget = SearchBudget { max_steps: None };
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget::UNLIMITED
    }
}

/// A pin `lo ≤ h(var) ≤ hi`: a closed node-id interval on one
/// variable. Pins on one variable intersect; an empty one admits
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pin {
    /// The pinned variable.
    pub var: VarId,
    /// The smallest admitted image.
    pub lo: NodeId,
    /// The largest admitted image.
    pub hi: NodeId,
}

impl Pin {
    /// The node pin `h(var) = node`: `[node, node]`.
    pub fn at(var: VarId, node: NodeId) -> Self {
        let (lo, hi) = (node, node);
        Pin { var, lo, hi }
    }

    /// Writes into `out` the pins on a component's variables, renumbered
    /// into its own ids: `orig_vars[l]` is component variable `l`'s
    /// pattern variable, as `Pattern::restrict` returns it.
    pub fn restrict(pins: &[Pin], orig_vars: &[VarId], out: &mut Vec<Pin>) {
        out.clear();
        for &Pin { var, lo, hi } in pins {
            if let Some(l) = orig_vars.iter().position(|&v| v == var) {
                let var = VarId(l as u32);
                out.push(Pin { var, lo, hi });
            }
        }
    }
}

/// Options steering a match enumeration.
#[derive(Clone, Debug, Default)]
pub struct MatchOptions {
    /// Pins (pivot anchoring).
    pub pins: Vec<Pin>,
    /// Effort cap.
    pub budget: SearchBudget,
}

impl MatchOptions {
    /// Unpinned, unlimited enumeration over the whole graph.
    pub fn unrestricted() -> Self {
        Self::default()
    }

    /// Adds a pin `h(var) = node`.
    pub fn pin(mut self, var: VarId, node: NodeId) -> Self {
        self.pins.push(Pin::at(var, node));
        self
    }

    /// Sets the budget.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Flow control for streaming enumeration callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep enumerating.
    Continue,
    /// Stop the whole search.
    Break,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_accessors() {
        let m = Match(vec![NodeId(5), NodeId(2)]);
        assert_eq!(m.get(VarId(0)), NodeId(5));
        assert_eq!(m.get(VarId(1)), NodeId(2));
        assert_eq!(m.nodes().len(), 2);
    }

    #[test]
    fn options_builders() {
        let opts = MatchOptions::unrestricted()
            .pin(VarId(0), NodeId(3))
            .with_budget(SearchBudget {
                max_steps: Some(10),
            });
        assert_eq!(opts.pins, vec![Pin::at(VarId(0), NodeId(3))]);
        assert_eq!(opts.budget.max_steps, Some(10));
    }
}
