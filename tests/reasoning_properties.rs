//! Property-based integration tests for the static analyses.
//!
//! * soundness of the satisfiability chase: whenever it says
//!   "satisfiable", the model it returns really satisfies `Σ` and
//!   contains a match of every pattern;
//! * soundness of implication: whenever `Σ ⊨ ϕ` is claimed, no graph
//!   in a randomized sample satisfies `Σ` but violates `ϕ`;
//! * completeness of implication: `Σ ⊭ ϕ` exactly when a brute-force
//!   search over small models finds a counterexample;
//! * `minimize` on a real mined Σ: every violation of a rule it drops
//!   is a counterexample the kept set must also catch — in the
//!   subgraph induced by the violating match;
//! * parallel/sequential equivalence on random inputs.
//!
//! Randomization uses the in-repo harness (`gfd_util::prop`): each
//! property runs over a seed range and failures replay by seed.

use gfd::core::implication::{implies_checked, minimize, ImplicationOutcome};
use gfd::core::sat::{check_satisfiability, SatOutcome};
use gfd::core::validate::detect_violations;
use gfd::core::{graph_satisfies, implies, Dependency, Gfd, GfdSet, Literal};
use gfd::datagen::{
    inject_noise, mine_gfds, reallife_graph, NoiseConfig, RealLifeConfig, RealLifeKind,
    RuleGenConfig,
};
use gfd::graph::{
    Fragmentation, Graph, GraphBuilder, NodeId, PartitionStrategy, Sym, Value, Vocab,
};
use gfd::matcher::types::Flow;
use gfd::matcher::{count_matches, for_each_match, MatchOptions};
use gfd::parallel::unitexec::sort_violations;
use gfd::parallel::{dis_val, rep_val, DisValConfig, RepValConfig};
use gfd::pattern::{PatLabel, Pattern, PatternBuilder, VarId};
use gfd_util::prop::{cases, check};
use gfd_util::{prop_assert, Rng};
use std::sync::Arc;

/// What the random rules draw from.
#[derive(Clone, Copy)]
struct Shape {
    /// Attributes `A0..` literals use.
    attrs: usize,
    /// Wildcard nodes and edges, self-loops, parallel edges, missing
    /// chain edges (disconnected patterns), `x.A = y.B` across
    /// attributes and constants drawn apart from attributes.
    rich: bool,
}

/// The shape the soundness and equivalence properties draw from.
const PLAIN: Shape = Shape {
    attrs: 3,
    rich: false,
};

/// A small random pattern over `labels` node labels and `elabels` edge
/// labels (connected-ish: each node after the first gets an edge to a
/// random earlier node; rich shapes drop some of those edges).
fn random_pattern(
    rng: &mut Rng,
    vocab: &Arc<Vocab>,
    labels: u32,
    elabels: u32,
    shape: Shape,
) -> Pattern {
    let n = rng.gen_range(1..4) as u32;
    let mut b = PatternBuilder::new(vocab.clone());
    let mut vars = Vec::new();
    for i in 0..n {
        let name = format!("v{i}");
        vars.push(if shape.rich && rng.gen_bool(0.25) {
            b.wildcard_node(&name)
        } else {
            b.node(&name, &format!("t{}", i % labels))
        });
    }
    for i in 1..n as usize {
        if !shape.rich || rng.gen_bool(0.75) {
            b.edge(vars[i - 1], vars[i], "e0");
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..8);
        let el = rng.gen_range(0..elabels as usize);
        let a = vars[at % vars.len()];
        let z = vars[(at / 2) % vars.len()];
        if shape.rich && rng.gen_bool(0.25) {
            b.wildcard_edge(a, z);
        } else if a != z || shape.rich {
            b.edge(a, z, &format!("e{el}"));
        }
    }
    b.build()
}

/// A random constant/variable literal over `nvars` variables.
fn random_literal(rng: &mut Rng, vocab: &Arc<Vocab>, nvars: u32, shape: Shape) -> Literal {
    let v = rng.gen_range(0..nvars as usize) as u32;
    let a = rng.gen_range(0..shape.attrs);
    let attr = vocab.intern(&format!("A{a}"));
    if rng.gen_bool(0.5) {
        let c = if shape.rich { rng.gen_range(0..2) } else { a };
        Literal::const_eq(VarId(v), attr, format!("c{c}"))
    } else {
        let v2 = rng.gen_range(0..nvars as usize) as u32;
        let attr2 = if shape.rich {
            vocab.intern(&format!("A{}", rng.gen_range(0..shape.attrs)))
        } else {
            attr
        };
        Literal::var_eq(VarId(v), attr, VarId(v2), attr2)
    }
}

/// A random dependency over a pattern's variables: `x` and `y` draw
/// `x_len` and `y_len` literals.
fn random_dep(
    rng: &mut Rng,
    vocab: &Arc<Vocab>,
    nvars: u32,
    shape: Shape,
    x_len: std::ops::Range<usize>,
    y_len: std::ops::Range<usize>,
) -> Dependency {
    let x = (0..rng.gen_range(x_len))
        .map(|_| random_literal(rng, vocab, nvars, shape))
        .collect();
    let y = (0..rng.gen_range(y_len))
        .map(|_| random_literal(rng, vocab, nvars, shape))
        .collect();
    Dependency::new(x, y)
}

/// One to three random rules over two node and two edge labels.
fn random_rules(rng: &mut Rng, vocab: &Arc<Vocab>, shape: Shape) -> GfdSet {
    let count = rng.gen_range(1..4);
    let rules = (0..count)
        .map(|i| {
            let p = random_pattern(rng, vocab, 2, 2, shape);
            let d = random_dep(rng, vocab, p.node_count() as u32, shape, 0..2, 0..2);
            Gfd::new(format!("r{i}"), p, d)
        })
        .collect();
    GfdSet::new(rules)
}

fn random_sigma(rng: &mut Rng) -> GfdSet {
    random_rules(rng, &Vocab::shared(), PLAIN)
}

/// If the chase says satisfiable, the produced model is a model: it
/// satisfies Σ and matches every pattern.
#[test]
fn sat_chase_is_sound() {
    check("satisfiability chase soundness", 24, |rng| {
        let sigma = random_sigma(rng);
        if let SatOutcome::Satisfiable(model) = check_satisfiability(&sigma) {
            prop_assert!(
                gfd::core::graph_satisfies(&sigma, &model),
                "the produced model must satisfy Σ"
            );
            for gfd in &sigma {
                prop_assert!(
                    count_matches(&gfd.pattern, &model, &MatchOptions::unrestricted()) > 0,
                    "every pattern must match in the model"
                );
            }
        }
        Ok(())
    });
}

/// Random graphs satisfying Σ also satisfy anything Σ implies.
#[test]
fn implication_is_sound() {
    check("implication soundness", 24, |rng| {
        let sigma = random_sigma(rng);
        let phi = sigma.get(0).clone();
        prop_assert!(implies(&sigma, &phi), "Σ must imply its own member");

        // Soundness on a random graph: generate a graph from the
        // canonical model plus clutter, check the contrapositive.
        let seed = rng.gen_range(0..1000);
        if let SatOutcome::Satisfiable(model) = check_satisfiability(&sigma) {
            // Add clutter nodes that cannot affect pattern matches.
            let clutter = model.vocab().intern(&format!("clutter{seed}"));
            let model = model.edit(|b| {
                for _ in 0..3 {
                    let c = b.add_node(clutter);
                    b.set_attr_named(c, "A0", Value::str("x"));
                }
            });
            if gfd::core::graph_satisfies(&sigma, &model) {
                prop_assert!(
                    gfd::core::graph_satisfies(&GfdSet::new(vec![phi]), &model),
                    "a Σ-model must satisfy every implied rule"
                );
            }
        }
        Ok(())
    });
}

/// The shape the completeness oracle draws from: at most three
/// variables per pattern (as always) and two attributes.
const RICH: Shape = Shape {
    attrs: 2,
    rich: true,
};

/// The attributes and constants a rule set mentions: the oracle's
/// value universe.
struct Universe {
    attrs: Vec<Sym>,
    consts: Vec<Value>,
}

impl Universe {
    fn of<'a>(rules: impl IntoIterator<Item = &'a Gfd>) -> Self {
        let mut u = Universe {
            attrs: Vec::new(),
            consts: Vec::new(),
        };
        let attr = |u: &mut Universe, a: Sym| {
            if !u.attrs.contains(&a) {
                u.attrs.push(a);
            }
        };
        for gfd in rules {
            for lit in gfd.dep.x.iter().chain(&gfd.dep.y) {
                match lit {
                    Literal::Const { attr: a, value, .. } => {
                        attr(&mut u, *a);
                        if !u.consts.contains(value) {
                            u.consts.push(value.clone());
                        }
                    }
                    Literal::Vars { a, b, .. } => {
                        attr(&mut u, *a);
                        attr(&mut u, *b);
                    }
                }
            }
        }
        u
    }

    /// The term of `node`'s attribute `attr` in an assignment.
    fn term(&self, node: NodeId, attr: Sym) -> usize {
        let a = self.attrs.iter().position(|&x| x == attr).unwrap();
        node.index() * self.attrs.len() + a
    }

    /// Does `lit` hold on match `m` under assignment `val`? Values
    /// below `consts.len()` are the constants, the rest are private.
    fn holds(&self, lit: &Literal, m: &[NodeId], val: &[u32]) -> bool {
        match lit {
            Literal::Const { var, attr, value } => {
                let c = self.consts.iter().position(|x| x == value).unwrap();
                val[self.term(m[var.index()], *attr)] == c as u32
            }
            Literal::Vars { x, a, y, b } => {
                val[self.term(m[x.index()], *a)] == val[self.term(m[y.index()], *b)]
            }
        }
    }

    /// Does `dep` hold on every match in `matches` under `val`?
    fn satisfied(&self, dep: &Dependency, matches: &[Vec<NodeId>], val: &[u32]) -> bool {
        matches.iter().all(|m| {
            !dep.x.iter().all(|l| self.holds(l, m, val))
                || dep.y.iter().all(|l| self.holds(l, m, val))
        })
    }

    /// `structure` with every term set as `val` says.
    fn materialize(&self, structure: &Graph, val: &[u32]) -> Graph {
        structure.edit(|b| {
            for n in structure.nodes() {
                for &attr in &self.attrs {
                    let v = val[self.term(n, attr)] as usize;
                    let value = match self.consts.get(v) {
                        Some(c) => c.clone(),
                        None => Value::str(&format!("private{}", v - self.consts.len())),
                    };
                    b.set_attr(n, attr, value);
                }
            }
        })
    }
}

/// Calls `f` on every assignment of `terms` terms to the constants
/// `0..consts` or to private values, up to renaming the private values
/// (a private value first appears after all smaller ones). Stops when
/// `f` returns true.
fn for_each_assignment(terms: usize, consts: u32, f: &mut dyn FnMut(&[u32]) -> bool) {
    fn go(
        val: &mut Vec<u32>,
        terms: usize,
        consts: u32,
        privates: u32,
        f: &mut dyn FnMut(&[u32]) -> bool,
    ) -> bool {
        if val.len() == terms {
            return f(val);
        }
        for v in 0..=consts + privates {
            val.push(v);
            let used = if v == consts + privates {
                privates + 1
            } else {
                privates
            };
            let stop = go(val, terms, consts, used, f);
            val.pop();
            if stop {
                return true;
            }
        }
        false
    }
    go(&mut Vec::with_capacity(terms), terms, consts, 0, f);
}

/// Brute-force small-model oracle for `Σ ⊭ ϕ`. Patterns are positive,
/// so a counterexample's match image of `ϕ`'s pattern is itself one:
/// `Σ ⊭ ϕ` iff some graph shaped like `ϕ`'s pattern satisfies `Σ` and
/// violates `ϕ`. The search labels every wildcard node and edge of
/// `ϕ`'s pattern with one of `Σ`'s labels or one fresh label (no rule
/// tells other labels apart), and gives every node every attribute
/// `Σ ∪ {ϕ}` mentions — total, so `x.A = x.A` stays a tautology, as
/// §4.2 assumes — over the mentioned constants and values private to
/// a block of equal terms. Literals are evaluated on the matches of
/// each rule; every counterexample, and every 64th assignment, is
/// cross-checked with `graph_satisfies`.
fn counterexample(sigma: &GfdSet, phi: &Gfd) -> Result<Option<Graph>, String> {
    let q = &phi.pattern;
    let vocab = q.vocab().clone();
    let fresh = vocab.intern("oracle_fresh");
    let add = |labels: &mut Vec<Sym>, l: PatLabel| {
        if let PatLabel::Sym(s) = l {
            if !labels.contains(&s) {
                labels.push(s);
            }
        }
    };
    let (mut node_labels, mut edge_labels) = (vec![fresh], vec![fresh]);
    for gfd in sigma {
        let p = &gfd.pattern;
        p.vars().for_each(|v| add(&mut node_labels, p.label(v)));
        p.edges()
            .iter()
            .for_each(|e| add(&mut edge_labels, e.label));
    }
    let u = Universe::of(sigma.iter().chain([phi]));
    let wild_nodes: Vec<VarId> = q
        .vars()
        .filter(|&v| q.label(v) == PatLabel::Wildcard)
        .collect();
    let wild_edges: Vec<usize> = (0..q.edges().len())
        .filter(|&i| q.edges()[i].label == PatLabel::Wildcard)
        .collect();
    let radix: Vec<usize> = wild_nodes
        .iter()
        .map(|_| node_labels.len())
        .chain(wild_edges.iter().map(|_| edge_labels.len()))
        .collect();
    let phi_alone = GfdSet::new(vec![phi.clone()]);
    let all = |g: &Graph, p: &Pattern| -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        for_each_match(p, g, &MatchOptions::unrestricted(), &mut |m| {
            out.push(m.to_vec());
            Flow::Continue
        });
        out
    };
    let mut pick = vec![0usize; radix.len()];
    loop {
        let mut b = GraphBuilder::new(vocab.clone());
        for v in q.vars() {
            let label = match q.label(v) {
                PatLabel::Sym(s) => s,
                PatLabel::Wildcard => {
                    node_labels[pick[wild_nodes.iter().position(|&w| w == v).unwrap()]]
                }
            };
            b.add_node(label);
        }
        for (i, e) in q.edges().iter().enumerate() {
            let label = match e.label {
                PatLabel::Sym(s) => s,
                PatLabel::Wildcard => {
                    let k = wild_edges.iter().position(|&w| w == i).unwrap();
                    edge_labels[pick[wild_nodes.len() + k]]
                }
            };
            b.add_edge(NodeId(e.src.0), NodeId(e.dst.0), label);
        }
        let structure = b.freeze();
        let rule_matches: Vec<_> = sigma.iter().map(|g| all(&structure, &g.pattern)).collect();
        let phi_matches = all(&structure, q);

        let mut found = None;
        let mut error = None;
        let mut seen = 0u64;
        for_each_assignment(
            q.node_count() * u.attrs.len(),
            u.consts.len() as u32,
            &mut |val| {
                let models_sigma = sigma
                    .iter()
                    .zip(&rule_matches)
                    .all(|(g, ms)| u.satisfied(&g.dep, ms, val));
                let violates_phi = !u.satisfied(&phi.dep, &phi_matches, val);
                let counter = models_sigma && violates_phi;
                seen += 1;
                if counter || seen % 64 == 1 {
                    let g = u.materialize(&structure, val);
                    let by_graph = (graph_satisfies(sigma, &g), graph_satisfies(&phi_alone, &g));
                    if by_graph != (models_sigma, !violates_phi) {
                        error = Some(format!(
                            "literal evaluation {:?} disagrees with graph_satisfies {by_graph:?}",
                            (models_sigma, !violates_phi)
                        ));
                        return true;
                    }
                    if counter {
                        found = Some(g);
                    }
                }
                counter
            },
        );
        if let Some(e) = error {
            return Err(e);
        }
        if found.is_some() {
            return Ok(found);
        }
        // Next labeling (mixed-radix increment); done after the last.
        let Some(i) = (0..pick.len()).find(|&i| pick[i] + 1 < radix[i]) else {
            return Ok(None);
        };
        pick[i] += 1;
        pick[..i].fill(0);
    }
}

/// A near-copy of a rule of `sigma`, so that about half the draws are
/// implied: its pattern refines some wildcards and may gain a node and
/// an edge; its `X` may gain a literal and its `Y` is the rule's or a
/// random one.
fn near_copy(rng: &mut Rng, vocab: &Arc<Vocab>, sigma: &GfdSet) -> Gfd {
    let rule = sigma.get(rng.gen_range(0..sigma.len()));
    let p = &rule.pattern;
    let mut b = PatternBuilder::new(vocab.clone());
    let refine = |rng: &mut Rng, l: PatLabel, prefix: &str| match l {
        PatLabel::Sym(s) => Some(vocab.resolve(s).to_string()),
        PatLabel::Wildcard if rng.gen_bool(0.5) => None,
        PatLabel::Wildcard => Some(format!("{prefix}{}", rng.gen_range(0..2))),
    };
    let mut vars: Vec<VarId> = p
        .vars()
        .map(|v| match refine(rng, p.label(v), "t") {
            Some(l) => b.node(p.var_name(v), &l),
            None => b.wildcard_node(p.var_name(v)),
        })
        .collect();
    for e in p.edges() {
        match refine(rng, e.label, "e") {
            Some(l) => b.edge(e.src, e.dst, &l),
            None => b.wildcard_edge(e.src, e.dst),
        };
    }
    if vars.len() < 3 && rng.gen_bool(0.3) {
        vars.push(b.node("extra", &format!("t{}", rng.gen_range(0..2))));
    }
    if rng.gen_bool(0.5) {
        let (a, z) = (*rng.choose(&vars).unwrap(), *rng.choose(&vars).unwrap());
        b.edge(a, z, &format!("e{}", rng.gen_range(0..2)));
    }
    let nvars = vars.len() as u32;
    let mut x = rule.dep.x.clone();
    if rng.gen_bool(0.3) {
        x.push(random_literal(rng, vocab, nvars, RICH));
    }
    let y = if rule.dep.y.is_empty() || rng.gen_bool(0.3) {
        vec![random_literal(rng, vocab, nvars, RICH)]
    } else {
        rule.dep.y.clone()
    };
    Gfd::new("phi", b.build(), Dependency::new(x, y))
}

/// `implies` and `implies_checked` agree with the brute-force oracle
/// in both directions, on rules with wildcard nodes and edges,
/// self-loops, parallel edges and disconnected patterns. `BENCH_SMOKE`
/// runs fewer cases; a failure names its seed.
#[test]
fn implication_is_complete() {
    let (mut implied, mut not_implied) = (0, 0);
    check("implication completeness", cases(2000, 200), |rng| {
        let vocab = Vocab::shared();
        let sigma = random_rules(rng, &vocab, RICH);
        let phi = if rng.gen_bool(0.5) {
            near_copy(rng, &vocab, &sigma)
        } else {
            let q = random_pattern(rng, &vocab, 2, 2, RICH);
            let dep = random_dep(rng, &vocab, q.node_count() as u32, RICH, 0..2, 1..3);
            Gfd::new("phi", q, dep)
        };
        let witness = counterexample(&sigma, &phi)?;
        let oracle = witness.is_none();
        prop_assert!(
            implies(&sigma, &phi) == oracle,
            "implies says {}, the oracle {oracle}",
            !oracle
        );
        match implies_checked(&sigma, &phi) {
            ImplicationOutcome::Implied => prop_assert!(oracle, "checked: Implied, oracle: no"),
            ImplicationOutcome::NotImplied => {
                prop_assert!(!oracle, "checked: NotImplied, oracle: yes")
            }
            ImplicationOutcome::SigmaUnsatisfiable => prop_assert!(
                matches!(
                    check_satisfiability(&sigma),
                    SatOutcome::Unsatisfiable { .. }
                ),
                "checked: SigmaUnsatisfiable on a satisfiable Σ"
            ),
            ImplicationOutcome::Unknown => return Err("checked: Unknown on a tiny case".into()),
        }
        if oracle {
            implied += 1;
        } else {
            not_implied += 1;
        }
        Ok(())
    });
    assert!(
        implied > 0 && not_implied > 0,
        "the oracle must see both answers ({implied} implied, {not_implied} not)"
    );
}

/// repVal and disVal equal detVio on random graphs and rule sets.
#[test]
fn parallel_equals_sequential() {
    check("repVal/disVal ≡ detVio", 24, |rng| {
        let sigma = random_sigma(rng);
        let nodes = rng.gen_range(4..24);
        // A random graph over the same vocabulary/labels as Σ.
        let vocab = sigma.get(0).pattern.vocab().clone();
        let mut b = GraphBuilder::new(vocab.clone());
        let ids: Vec<_> = (0..nodes)
            .map(|i| {
                let n = b.add_node_labeled(&format!("t{}", i % 2));
                for a in 0..3 {
                    if rng.gen_bool(2.0 / 3.0) {
                        let c = rng.gen_range(0..3);
                        b.set_attr_named(n, &format!("A{a}"), Value::str(&format!("c{c}")));
                    }
                }
                n
            })
            .collect();
        for _ in 0..nodes * 2 {
            let s = ids[rng.gen_range(0..nodes)];
            let d = ids[rng.gen_range(0..nodes)];
            if s != d {
                let e = rng.gen_range(0..2);
                b.add_edge_labeled(s, d, &format!("e{e}"));
            }
        }
        let g: Arc<Graph> = Arc::new(b.freeze());

        let mut expected = detect_violations(&sigma, &g);
        sort_violations(&mut expected);
        let rep = rep_val(&sigma, &g, &RepValConfig::val(3));
        prop_assert!(rep.violations == expected, "repVal disagrees with detVio");
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Hash);
        let dis = dis_val(&sigma, &g, &frag, &DisValConfig::val(3));
        prop_assert!(dis.violations == expected, "disVal disagrees with detVio");
        Ok(())
    });
}

/// The subgraph of `g` induced by `nodes`, built in a fresh builder over
/// `g`'s vocabulary: the nodes with their labels and attributes, and
/// every edge of `g` between two of them. Node `nodes[i]` becomes
/// `NodeId(i)`.
fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Graph {
    let mut b = GraphBuilder::new(g.vocab().clone());
    for &u in nodes {
        let v = b.add_node(g.label(u));
        for (attr, value) in g.attrs(u).iter() {
            b.set_attr(v, attr, value.clone());
        }
    }
    let local = |u: NodeId| nodes.iter().position(|&n| n == u);
    for e in g.edges() {
        if let (Some(s), Some(d)) = (local(e.src), local(e.dst)) {
            b.add_edge(NodeId(s as u32), NodeId(d as u32), e.label);
        }
    }
    b.freeze()
}

/// `minimize` on real Σ, checked by the induced-subgraph oracle: the
/// `kb-trees` rule set of the lifecycle benchmark (50 rules mined from
/// the Yago2 stand-in at scale 1.0, `|Q|` = 4, 30 % two-component) on
/// the graph with 2 % injected noise. A rule `minimize` drops is implied
/// by the kept set, so each of its violations — a match `h` with `h ⊨
/// X`, `h ⊭ Y` — is a counterexample the kept set must also catch: the
/// subgraph induced by `h`'s nodes still holds `h`, hence violates the
/// dropped rule, hence must violate the kept set. This reaches the
/// 4-node mined shapes the small-model oracle above cannot. It takes
/// about a second at full scale, so `BENCH_SMOKE` runs it unchanged.
#[test]
fn minimize_drops_only_rules_the_kept_set_enforces() {
    let clean = reallife_graph(&RealLifeConfig {
        kind: RealLifeKind::Yago2,
        scale: 1.0,
        seed: 0xBEEF,
    });
    let sigma = mine_gfds(
        &clean,
        &RuleGenConfig {
            count: 50,
            pattern_nodes: 4,
            two_component_fraction: 0.3,
            max_pivot_extent: 260,
            seed: 0xACE,
        },
    );
    let mut b = clean.thaw();
    inject_noise(
        &mut b,
        &NoiseConfig {
            rate: 0.02,
            seed: 1,
        },
    );
    let g = b.freeze();

    let kept = minimize(&sigma);
    let kept_names: Vec<&str> = kept.iter().map(|k| k.name.as_str()).collect();
    let dropped: Vec<Gfd> = sigma
        .iter()
        .filter(|r| !kept_names.contains(&r.name.as_str()))
        .cloned()
        .collect();
    assert_eq!(
        kept.len() + dropped.len(),
        sigma.len(),
        "premise: mined rule names are unique"
    );
    assert!(!dropped.is_empty(), "premise: minimize drops something");
    let violations = detect_violations(&GfdSet::new(dropped), &g);
    assert!(
        !violations.is_empty(),
        "premise: some dropped rule is violated on the noisy graph"
    );
    for v in &violations {
        let sub = induced_subgraph(&g, v.mapping.nodes());
        assert!(
            !graph_satisfies(&kept, &sub),
            "the kept set misses a violation of a dropped rule: {:?}",
            v.mapping
        );
    }
}
