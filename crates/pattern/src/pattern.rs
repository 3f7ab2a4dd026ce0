//! Pattern representation and builder.

use std::fmt;
use std::sync::Arc;

use gfd_graph::{Sym, Vocab};

/// A pattern variable; doubles as the index of its pattern node.
///
/// The paper's bijection `µ : x̄ → V_Q` is the identity on indices in
/// this representation, so "variable" and "pattern node" are used
/// interchangeably, exactly as the paper does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The variable as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

/// A pattern label: a concrete symbol or the wildcard `_`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PatLabel {
    /// Matches exactly this label.
    Sym(Sym),
    /// Matches any label (`'_'` in the paper).
    Wildcard,
}

impl PatLabel {
    /// Does a concrete graph label satisfy this pattern label?
    #[inline]
    pub fn admits(self, actual: Sym) -> bool {
        match self {
            PatLabel::Sym(s) => s == actual,
            PatLabel::Wildcard => true,
        }
    }
}

/// A directed pattern edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PatternEdge {
    /// Source variable.
    pub src: VarId,
    /// Destination variable.
    pub dst: VarId,
    /// Edge label or wildcard.
    pub label: PatLabel,
}

/// Number of distinct variables in a pattern adjacency list — the
/// *sound* degree-pruning bound for the matcher: distinct
/// neighbor variables map to distinct images (injectivity), so each
/// needs its own edge, but parallel pattern edges to one neighbor
/// (e.g. a labeled and a wildcard edge) can share a single image edge,
/// so counting edges would over-prune.
pub fn distinct_neighbors(adj: &[(VarId, PatLabel)]) -> usize {
    // Counts first occurrences by scanning the prefix — quadratic in
    // the adjacency length, but mined-rule lists hold a handful of
    // entries and this sits on warm matcher paths that must not
    // allocate.
    adj.iter()
        .enumerate()
        .filter(|&(i, &(v, _))| adj[..i].iter().all(|&(u, _)| u != v))
        .count()
}

/// A graph pattern `Q[x̄]`.
#[derive(Clone)]
pub struct Pattern {
    vocab: Arc<Vocab>,
    var_names: Vec<String>,
    node_labels: Vec<PatLabel>,
    edges: Vec<PatternEdge>,
    out_adj: Vec<Vec<(VarId, PatLabel)>>,
    in_adj: Vec<Vec<(VarId, PatLabel)>>,
}

impl Pattern {
    /// The vocabulary labels are interned in.
    pub fn vocab(&self) -> &Arc<Vocab> {
        &self.vocab
    }

    /// Number of pattern nodes `|V_Q| = ‖x̄‖`.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of pattern edges `|E_Q|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `|Q| = |V_Q| + |E_Q|`, the pattern-size measure of §7.
    pub fn size(&self) -> usize {
        self.node_count() + self.edge_count()
    }

    /// Iterates over all variables.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.node_labels.len() as u32).map(VarId)
    }

    /// The label constraint of variable `v`.
    pub fn label(&self, v: VarId) -> PatLabel {
        self.node_labels[v.index()]
    }

    /// The human-readable name of variable `v` (e.g. `"x"`, `"y1"`).
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// All pattern edges.
    pub fn edges(&self) -> &[PatternEdge] {
        &self.edges
    }

    /// Outgoing `(dst, label)` pairs of `v`.
    pub fn out(&self, v: VarId) -> &[(VarId, PatLabel)] {
        &self.out_adj[v.index()]
    }

    /// Incoming `(src, label)` pairs of `v`.
    pub fn inn(&self, v: VarId) -> &[(VarId, PatLabel)] {
        &self.in_adj[v.index()]
    }

    /// Undirected neighbors of `v` (used for components/eccentricity).
    pub fn neighbors(&self, v: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.out(v)
            .iter()
            .map(|&(u, _)| u)
            .chain(self.inn(v).iter().map(|&(u, _)| u))
    }

    /// Degree of `v` in the undirected skeleton (parallel edges counted).
    pub fn degree(&self, v: VarId) -> usize {
        self.out_adj[v.index()].len() + self.in_adj[v.index()].len()
    }

    /// True if the pattern's undirected skeleton is connected (the
    /// empty pattern counts as connected). Allocation-free for
    /// patterns of up to 128 variables — a `u128` visited bitmask and
    /// fixed-point sweeps instead of the component decomposition's
    /// queue — so hot match paths can take the single-component fast
    /// path without cloning anything.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        if n > 128 {
            // Cold fallback: patterns this large never occur in mined
            // rule sets; an allocating BFS is fine.
            let mut seen = vec![false; n];
            let mut stack = vec![VarId(0)];
            seen[0] = true;
            let mut reached = 1;
            while let Some(u) = stack.pop() {
                for v in self.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        reached += 1;
                        stack.push(v);
                    }
                }
            }
            return reached == n;
        }
        let full: u128 = if n == 128 {
            u128::MAX
        } else {
            (1u128 << n) - 1
        };
        let mut seen: u128 = 1;
        loop {
            let mut next = seen;
            for i in 0..n {
                if seen >> i & 1 == 1 {
                    for v in self.neighbors(VarId(i as u32)) {
                        next |= 1u128 << v.index();
                    }
                }
            }
            if next == seen {
                return seen == full;
            }
            seen = next;
        }
    }

    /// Restricts the pattern to `vars` (e.g. one connected component),
    /// returning the sub-pattern with renumbered variables and, per new
    /// variable, its original id.
    pub fn restrict(&self, vars: &[VarId]) -> (Pattern, Vec<VarId>) {
        let mut original = vars.to_vec();
        original.sort_unstable();
        original.dedup();
        let mut new_of_old = std::collections::HashMap::new();
        let mut b = PatternBuilder::new(self.vocab.clone());
        for &v in &original {
            let nv = b.push_node(self.var_name(v), self.label(v));
            new_of_old.insert(v, nv);
        }
        for e in &self.edges {
            if let (Some(&s), Some(&d)) = (new_of_old.get(&e.src), new_of_old.get(&e.dst)) {
                b.edges.push(PatternEdge {
                    src: s,
                    dst: d,
                    label: e.label,
                });
            }
        }
        (b.build(), original)
    }

    /// Pretty-prints with resolved label names, for diagnostics.
    pub fn display(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let lbl = |l: PatLabel| match l {
            PatLabel::Sym(sym) => self.vocab.resolve(sym).to_string(),
            PatLabel::Wildcard => "_".to_string(),
        };
        for v in self.vars() {
            let _ = write!(s, "{}:{} ", self.var_name(v), lbl(self.label(v)));
        }
        for e in &self.edges {
            let _ = write!(
                s,
                "({}-[{}]->{}) ",
                self.var_name(e.src),
                lbl(e.label),
                self.var_name(e.dst)
            );
        }
        s.trim_end().to_string()
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern[{}]", self.display())
    }
}

/// Fluent builder for [`Pattern`].
///
/// ```
/// use gfd_graph::Vocab;
/// use gfd_pattern::PatternBuilder;
///
/// // Q2 of Fig. 2: a country with two capital edges.
/// let vocab = Vocab::shared();
/// let mut b = PatternBuilder::new(vocab);
/// let x = b.node("x", "country");
/// let y = b.node("y", "city");
/// let z = b.node("z", "city");
/// b.edge(x, y, "capital");
/// b.edge(x, z, "capital");
/// let q2 = b.build();
/// assert_eq!(q2.node_count(), 3);
/// assert_eq!(q2.size(), 5);
/// ```
pub struct PatternBuilder {
    vocab: Arc<Vocab>,
    var_names: Vec<String>,
    node_labels: Vec<PatLabel>,
    edges: Vec<PatternEdge>,
}

impl PatternBuilder {
    /// Starts a pattern over `vocab`.
    pub fn new(vocab: Arc<Vocab>) -> Self {
        PatternBuilder {
            vocab,
            var_names: Vec::new(),
            node_labels: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn push_node(&mut self, name: &str, label: PatLabel) -> VarId {
        assert!(
            !self.var_names.iter().any(|n| n == name),
            "duplicate variable name `{name}`"
        );
        let id = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        self.node_labels.push(label);
        id
    }

    /// Adds a pattern node labeled `label`, bound to variable `name`.
    pub fn node(&mut self, name: &str, label: &str) -> VarId {
        let sym = self.vocab.intern(label);
        self.push_node(name, PatLabel::Sym(sym))
    }

    /// Adds a wildcard (`_`) pattern node.
    pub fn wildcard_node(&mut self, name: &str) -> VarId {
        self.push_node(name, PatLabel::Wildcard)
    }

    /// Adds a directed edge labeled `label`.
    pub fn edge(&mut self, src: VarId, dst: VarId, label: &str) -> &mut Self {
        let sym = self.vocab.intern(label);
        self.edges.push(PatternEdge {
            src,
            dst,
            label: PatLabel::Sym(sym),
        });
        self
    }

    /// Adds a directed edge with a wildcard label.
    pub fn wildcard_edge(&mut self, src: VarId, dst: VarId) -> &mut Self {
        self.edges.push(PatternEdge {
            src,
            dst,
            label: PatLabel::Wildcard,
        });
        self
    }

    /// Finishes the pattern. Duplicate edges (same endpoints and label)
    /// are dropped so that degree-based pruning stays sound.
    pub fn build(mut self) -> Pattern {
        self.edges
            .sort_by_key(|e| (e.src, e.dst, format!("{:?}", e.label)));
        self.edges.dedup();
        let n = self.var_names.len();
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        for e in &self.edges {
            out_adj[e.src.index()].push((e.dst, e.label));
            in_adj[e.dst.index()].push((e.src, e.label));
        }
        Pattern {
            vocab: self.vocab,
            var_names: self.var_names,
            node_labels: self.node_labels,
            edges: self.edges,
            out_adj,
            in_adj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q3(vocab: Arc<Vocab>) -> Pattern {
        // Q3 of Fig. 2: generic is_a between two wildcards.
        let mut b = PatternBuilder::new(vocab);
        let x = b.wildcard_node("x");
        let y = b.wildcard_node("y");
        b.edge(y, x, "is_a");
        b.build()
    }

    #[test]
    fn build_and_inspect() {
        let vocab = Vocab::shared();
        let q = q3(vocab.clone());
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1);
        assert_eq!(q.size(), 3);
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        assert_eq!(q.label(x), PatLabel::Wildcard);
        assert_eq!(
            q.inn(x),
            &[(y, PatLabel::Sym(vocab.lookup("is_a").unwrap()))]
        );
        assert_eq!(q.var_name(y), "y");
    }

    #[test]
    fn wildcard_admits_everything() {
        let vocab = Vocab::shared();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        assert!(PatLabel::Wildcard.admits(a));
        assert!(PatLabel::Sym(a).admits(a));
        assert!(!PatLabel::Sym(a).admits(b));
    }

    #[test]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_names_rejected() {
        let mut b = PatternBuilder::new(Vocab::shared());
        b.node("x", "a");
        b.node("x", "b");
    }

    #[test]
    fn is_connected_matches_component_count() {
        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "a");
        let y = b.node("y", "a");
        let z = b.node("z", "a");
        b.edge(x, y, "e");
        b.edge(y, z, "e");
        assert!(b.build().is_connected());

        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "a");
        let y = b.node("y", "a");
        b.node("lone", "a");
        b.edge(x, y, "e");
        assert!(!b.build().is_connected());

        // Degenerate cases count as connected.
        assert!(PatternBuilder::new(Vocab::shared()).build().is_connected());
        let mut b = PatternBuilder::new(Vocab::shared());
        b.node("solo", "a");
        assert!(b.build().is_connected());

        // Direction is irrelevant: edges only into the start node.
        let mut b = PatternBuilder::new(Vocab::shared());
        let x = b.node("x", "a");
        let y = b.node("y", "a");
        b.edge(y, x, "e");
        assert!(b.build().is_connected());
    }
}
