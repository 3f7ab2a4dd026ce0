//! End-to-end integration: generators → rules → sequential, parallel
//! (replicated / fragmented / threaded) and relational detection all
//! agree; noise is caught by targeted rules.

use gfd::baselines::RelationalValidator;
use gfd::core::validate::detect_violations;
use gfd::core::Violation;
use gfd::datagen::{
    inject_noise, mine_gfds, reallife_graph, synthetic_graph, NoiseConfig, RealLifeConfig,
    RealLifeKind, RuleGenConfig, SynthConfig,
};
use gfd::graph::{Fragmentation, PartitionStrategy};
use gfd::parallel::unitexec::sort_violations;
use gfd::parallel::workload::{estimate_workload, Workload, WorkloadOptions};
use gfd::parallel::{dis_val, rep_val, threaded, ClassRegistry, DisValConfig, RepValConfig};

fn canonical(mut v: Vec<Violation>) -> Vec<Violation> {
    sort_violations(&mut v);
    v
}

/// The units of `wl` on `threads` OS threads over a fresh registry,
/// none of them quarantined.
fn threaded_run(
    g: &std::sync::Arc<gfd::graph::Graph>,
    sigma: &gfd::core::GfdSet,
    wl: &Workload,
    threads: usize,
) -> Vec<Violation> {
    let registry = ClassRegistry::new();
    let report = threaded::run_units_threaded_report(
        g, sigma, &wl.plan, &wl.units, &wl.slots, &registry, threads, None, 0,
    );
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    report.violations
}

#[test]
fn all_engines_agree_on_reallife_graph() {
    // One frozen snapshot behind one Arc, shared by every engine —
    // replicated/threaded execution never clones the graph.
    let g = std::sync::Arc::new(reallife_graph(&RealLifeConfig {
        scale: 0.08,
        ..RealLifeConfig::new(RealLifeKind::Yago2)
    }));
    let sigma = mine_gfds(
        &g,
        &RuleGenConfig {
            count: 8,
            pattern_nodes: 3,
            two_component_fraction: 0.25,
            ..Default::default()
        },
    );
    let expected = canonical(detect_violations(&sigma, &g));

    // repVal across processor counts.
    for n in [1usize, 2, 5] {
        let rep = rep_val(&sigma, &g, &RepValConfig::val(n));
        assert_eq!(rep.violations, expected, "repVal n={n}");
    }

    // disVal across partition strategies.
    for strategy in [
        PartitionStrategy::Hash,
        PartitionStrategy::Contiguous,
        PartitionStrategy::BfsClustered,
    ] {
        let frag = Fragmentation::partition(&g, 3, strategy);
        let dis = dis_val(&sigma, &g, &frag, &DisValConfig::val(3));
        assert_eq!(dis.violations, expected, "disVal {strategy:?}");
    }

    // Real OS threads.
    let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
    assert_eq!(
        threaded_run(&g, &sigma, &wl, 4),
        expected,
        "threaded execution"
    );

    // BigDansing-style relational joins.
    let relational = canonical(RelationalValidator::new(&g).detect_violations(&sigma));
    assert_eq!(relational, expected, "relational baseline");
}

#[test]
fn engines_agree_on_synthetic_graph() {
    let g = std::sync::Arc::new(synthetic_graph(&SynthConfig {
        nodes: 800,
        edges: 1600,
        labels: 12,
        seed: 99,
        ..Default::default()
    }));
    let sigma = mine_gfds(
        &g,
        &RuleGenConfig {
            count: 6,
            pattern_nodes: 3,
            two_component_fraction: 0.2,
            max_pivot_extent: 60,
            seed: 5,
        },
    );
    let expected = canonical(detect_violations(&sigma, &g));
    let rep = rep_val(&sigma, &g, &RepValConfig::val(4));
    assert_eq!(rep.violations, expected);
    let frag = Fragmentation::partition(&g, 4, PartitionStrategy::Hash);
    let dis = dis_val(&sigma, &g, &frag, &DisValConfig::nop(4));
    assert_eq!(dis.violations, expected);
}

/// Choosing between prefetching and partial matches never ships more
/// than prefetching alone: a share goes partial only when that saves
/// remote nodes no other share on its worker still needs.
#[test]
fn scheme_choice_ships_no_more_than_prefetching_alone() {
    let g = std::sync::Arc::new(reallife_graph(&RealLifeConfig {
        scale: 0.15,
        ..RealLifeConfig::new(RealLifeKind::Yago2)
    }));
    let sigma = mine_gfds(
        &g,
        &RuleGenConfig {
            count: 20,
            pattern_nodes: 4,
            two_component_fraction: 0.25,
            ..Default::default()
        },
    );
    for n in [3usize, 4] {
        for strategy in [PartitionStrategy::Hash, PartitionStrategy::BfsClustered] {
            let frag = Fragmentation::partition(&g, n, strategy);
            let with = dis_val(&sigma, &g, &frag, &DisValConfig::val(n));
            let prefetch_only = DisValConfig {
                scheme_choice: false,
                ..DisValConfig::val(n)
            };
            let without = dis_val(&sigma, &g, &frag, &prefetch_only);
            assert_eq!(with.violations, without.violations, "n={n} {strategy:?}");
            assert!(
                with.bytes_shipped <= without.bytes_shipped,
                "n={n} {strategy:?}: {} B with the choice, {} B without",
                with.bytes_shipped,
                without.bytes_shipped
            );
        }
    }
}

#[test]
fn twin_rules_catch_injected_noise() {
    let g = reallife_graph(&RealLifeConfig {
        scale: 0.15,
        ..RealLifeConfig::new(RealLifeKind::Yago2)
    });
    let sigma = gfd::datagen::twin_rules(&g, RealLifeKind::Yago2);
    assert!(!sigma.is_empty());
    // The clean stand-in satisfies all twin-consistency rules.
    assert!(
        detect_violations(&sigma, &g).is_empty(),
        "clean stand-in must satisfy its own twin rules"
    );
    // Noise is a builder-level mutation: thaw, corrupt, re-freeze.
    let mut b = g.thaw();
    let report = inject_noise(
        &mut b,
        &NoiseConfig {
            rate: 0.08,
            seed: 17,
        },
    );
    assert!(!report.is_empty());
    let g = b.freeze();
    let dirty = detect_violations(&sigma, &g);
    assert!(
        !dirty.is_empty(),
        "attribute noise on twin leaves must violate twin rules"
    );
}

#[test]
fn clean_twin_consistency_rule_fires_only_after_corruption() {
    use gfd::core::{Dependency, Gfd, GfdSet, Literal};
    use gfd::graph::{GraphBuilder, Value};
    use gfd::pattern::PatternBuilder;

    // A tiny curated graph: two twin products sharing an id with equal
    // prices — consistent until we corrupt one price.
    let mut gb = GraphBuilder::with_fresh_vocab();
    let vocab = gb.vocab().clone();
    let mut product = |id: &str, price: i64| {
        let p = gb.add_node_labeled("product");
        let idn = gb.add_node_labeled("pid");
        gb.add_edge_labeled(p, idn, "has_id");
        gb.set_attr_named(idn, "val", Value::str(id));
        gb.set_attr_named(p, "price", Value::Int(price));
        p
    };
    let _p1 = product("X1", 100);
    let p2 = product("X1", 100);
    let _p3 = product("Z9", 50);
    let g = gb.freeze();

    let mut b = PatternBuilder::new(vocab.clone());
    let x = b.node("x", "product");
    let xi = b.node("xi", "pid");
    b.edge(x, xi, "has_id");
    let y = b.node("y", "product");
    let yi = b.node("yi", "pid");
    b.edge(y, yi, "has_id");
    let q = b.build();
    let val = vocab.intern("val");
    let price = vocab.intern("price");
    let rule = Gfd::new(
        "same-id-same-price",
        q,
        Dependency::new(
            vec![Literal::var_eq(xi, val, yi, val)],
            vec![Literal::var_eq(x, price, y, price)],
        ),
    );
    let sigma = GfdSet::new(vec![rule]);
    assert!(gfd::core::graph_satisfies(&sigma, &g));

    let g = g.edit(|b| b.set_attr(p2, price, Value::Int(999)));
    let violations = detect_violations(&sigma, &g);
    assert_eq!(violations.len(), 2, "both orientations of the twin pair");
}

/// One rule group per pattern class, every member with its own
/// consequent: four permuted declarations of the triangle `a → b → c →
/// a` — two ordinary rules, one all-constant `Y` that holds everywhere
/// and one whose `X` never holds — and a disconnected symmetric pair
/// of `c → a` edges declared twice, the twins joining on different
/// cross-component `X` literals. Every path that serves them — `detVio`
/// (private and over the warm shared registry), the incremental
/// detector across a 20-step edit script, the threaded executor (cold
/// and warm), `repVal`, `repnop` and `disVal` — must agree with brute
/// force over each rule's own pattern. And the group enumerates once: a
/// fifth twin leaves the enumeration count of `detVio`, of one
/// `apply_diff` step and of a full unit run unchanged.
#[test]
fn permuted_twin_rules_agree_with_brute_force_on_every_path() {
    use gfd::core::validate::DetScratch;
    use gfd::core::validate::{detect_violations_shared, detect_violations_with, match_satisfies};
    use gfd::core::{Dependency, Gfd, GfdSet, IncrementalDetector, Literal, RuleGroups};
    use gfd::graph::{Graph, GraphBuilder, NodeId, Value, Vocab};
    use gfd::matcher::{ClassRegistry, Match};
    use gfd::parallel::unitexec::{UnitExecutor, UnitScratch};
    use gfd::pattern::{PatLabel, PatternBuilder, VarId};
    use gfd_util::Rng;
    use std::sync::Arc;

    let vocab = Vocab::shared();
    // Layers of `per_layer` nodes labeled a, b, c, each node wired to
    // each node of the next layer with probability `p`.
    let layered = |rng: &mut Rng, per_layer: usize, p: f64| {
        let mut gb = GraphBuilder::new(vocab.clone());
        let layers: Vec<Vec<NodeId>> = ["a", "b", "c"]
            .iter()
            .map(|l| (0..per_layer).map(|_| gb.add_node_labeled(l)).collect())
            .collect();
        for (i, layer) in layers.iter().enumerate() {
            for &u in layer {
                // Every `b` carries 1, for good: read at the wrong variable,
                // a twin's consequent would look satisfied everywhere.
                let value = if i == 1 { 1 } else { rng.gen_range(0..2) };
                gb.set_attr_named(u, "val", Value::Int(value as i64));
                for &v in &layers[(i + 1) % 3] {
                    if rng.gen_bool(p) {
                        gb.add_edge_labeled(u, v, "e");
                    }
                }
            }
        }
        (Arc::new(gb.freeze()), layers)
    };
    let mut rng = Rng::seed_from_u64(14);
    let (mut g, layers) = layered(&mut rng, 4, 0.6);
    let val = vocab.intern("val");

    // The triangle a → b → c → a, declared in `order`; vars [x, y, z].
    let triangle = |order: [usize; 3]| {
        let mut pb = PatternBuilder::new(vocab.clone());
        let mut vars = [VarId(0); 3];
        for i in order {
            vars[i] = pb.node(["x", "y", "z"][i], ["a", "b", "c"][i]);
        }
        for i in 0..3 {
            pb.edge(vars[i], vars[(i + 1) % 3], "e");
        }
        (pb.build(), vars)
    };
    // Two disjoint edges u → w, u2 → w2 from a `c` to an `a`, declared
    // in `order`; vars [u, w, u2, w2].
    let pair = |order: [usize; 4]| {
        let mut pb = PatternBuilder::new(vocab.clone());
        let mut vars = [VarId(0); 4];
        for i in order {
            vars[i] = pb.node(["u", "w", "u2", "w2"][i], ["c", "a", "c", "a"][i]);
        }
        pb.edge(vars[0], vars[1], "e");
        pb.edge(vars[2], vars[3], "e");
        (pb.build(), vars)
    };
    let int = |v: i64| Value::Int(v);
    let (q0, [x0, y0, _]) = triangle([0, 1, 2]);
    let (q1, [x1, y1, _]) = triangle([2, 0, 1]);
    let (q2, [_, y2, _]) = triangle([1, 2, 0]);
    let (q3, [x3, _, z3]) = triangle([2, 1, 0]);
    let (p0, [u0, w0, u20, w20]) = pair([0, 1, 2, 3]);
    let (p1, [u1, w1, u21, w21]) = pair([3, 2, 1, 0]);
    let rules = vec![
        Gfd::new(
            "rep",
            q0,
            Dependency::always(vec![Literal::var_eq(x0, val, y0, val)]),
        ),
        Gfd::new(
            "twin",
            q1,
            Dependency::new(
                vec![Literal::const_eq(y1, val, int(1))],
                vec![Literal::const_eq(x1, val, int(1))],
            ),
        ),
        // Every `b` carries 1: satisfied by every represented binding.
        Gfd::new(
            "everywhere",
            q2,
            Dependency::always(vec![Literal::const_eq(y2, val, int(1))]),
        ),
        Gfd::new(
            "never-x",
            q3,
            Dependency::new(
                vec![Literal::const_eq(x3, val, int(7))],
                vec![Literal::const_eq(z3, val, int(0))],
            ),
        ),
        Gfd::new(
            "pair",
            p0,
            Dependency::new(
                vec![Literal::var_eq(u0, val, u20, val)],
                vec![Literal::var_eq(w0, val, w20, val)],
            ),
        ),
        Gfd::new(
            "pair-twin",
            p1,
            Dependency::new(
                vec![Literal::var_eq(w1, val, w21, val)],
                vec![Literal::var_eq(u1, val, u21, val)],
            ),
        ),
    ];
    let sigma = GfdSet::new(rules.clone());
    let groups = RuleGroups::new(&sigma);
    let sizes: Vec<usize> = groups.iter().map(|grp| grp.members.len()).collect();
    assert_eq!(sizes, [4, 2], "premise: a triangle group and a pair group");
    assert!(groups.of(0).parts.len() == 1 && groups.of(4).parts.len() == 2);
    let probe = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
    for group in groups.iter() {
        let row = &probe[..group.arity];
        let permuted = group.members.iter().filter(|m| {
            let mut buf = Vec::new();
            m.member_row(row, &mut buf) != row
        });
        assert!(
            permuted.count() > 0,
            "premise: every group has a permuted member"
        );
    }

    // Every injective assignment of each rule's own pattern.
    let brute_force = |g: &Graph| {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut out = Vec::new();
        for (rule, gfd) in sigma.iter().enumerate() {
            let q = &gfd.pattern;
            let n = q.node_count();
            let mut m = vec![NodeId(0); n];
            for code in 0..nodes.len().pow(n as u32) {
                let mut c = code;
                for image in m.iter_mut() {
                    *image = nodes[c % nodes.len()];
                    c /= nodes.len();
                }
                let ok = (0..n).all(|i| (0..i).all(|j| m[i] != m[j]))
                    && q.vars().all(|v| q.label(v).admits(g.label(m[v.index()])))
                    && q.edges().iter().all(|e| match e.label {
                        PatLabel::Sym(l) => g.has_edge(m[e.src.index()], m[e.dst.index()], l),
                        PatLabel::Wildcard => unreachable!("no wildcard edges here"),
                    });
                if ok && !match_satisfies(&gfd.dep, g, &m) {
                    out.push(Violation {
                        rule,
                        mapping: Match(m.clone()),
                    });
                }
            }
        }
        canonical(out)
    };

    // One enumeration per group and pin: the counts of detVio, of one
    // `apply_diff` step and of a full unit run, on fresh registries.
    let enumerations = |sigma: &GfdSet, g: &Arc<Graph>| {
        let mut det_scratch = DetScratch::default();
        detect_violations_with(sigma, g, &ClassRegistry::new(), &mut det_scratch);
        let mut det = IncrementalDetector::new(sigma, g);
        let a = layers[0][0];
        let (next, delta) = g.edit_with_delta(|b| {
            let flipped = if g.attr(a, val) == Some(&int(1)) {
                0
            } else {
                1
            };
            b.set_attr(a, val, int(flipped));
        });
        let before = det.enumerations();
        det.apply_diff(&next, &delta);
        let step = det.enumerations() - before;
        let wl = estimate_workload(sigma, g, &WorkloadOptions::default());
        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(g, &wl.plan, &wl.slots, &registry, true);
        let mut unit_scratch = UnitScratch::new();
        let mut sink = Vec::new();
        for unit in &wl.units {
            exec.run(unit, &mut unit_scratch, &mut sink);
        }
        // One search per component and orientation of each unit,
        // however many pivots its ranges hold.
        let searches = wl.units.iter().map(|unit| {
            let slots = unit.slots(&wl.slots);
            let (_, gp) = wl.plan.group(wl.plan.group_index(unit.rule()));
            let both = gp.symmetric_pair && slots[0].lo != slots[1].lo;
            (unit.k() * (1 + usize::from(both))) as u64
        });
        assert_eq!(unit_scratch.enumerations(), searches.sum::<u64>());
        [
            det_scratch.enumerations(),
            step,
            unit_scratch.enumerations(),
        ]
    };
    let (q4, [x4, _, z4]) = triangle([0, 2, 1]);
    let mut five = rules;
    five.push(Gfd::new(
        "fifth",
        q4,
        Dependency::new(
            vec![Literal::const_eq(z4, val, int(0))],
            vec![Literal::const_eq(x4, val, int(0))],
        ),
    ));
    let counts = enumerations(&sigma, &g);
    assert!(
        counts.iter().all(|&c| c > 0),
        "premise: every path enumerates"
    );
    assert_eq!(
        enumerations(&GfdSet::new(five), &g),
        counts,
        "a fifth twin must not add an enumeration to detVio, apply_diff or the units"
    );
    // Ranges of several pivots still cost one search per component:
    // `enumerations` asserts the units' count on wider layers too.
    let (wide, _) = layered(&mut Rng::seed_from_u64(15), 20, 0.1);
    let wl = estimate_workload(&sigma, &wide, &WorkloadOptions::default());
    let several = wl.slots.iter().any(|slot| slot.range().len() > 1);
    assert!(several, "premise: some range holds several pivots");
    enumerations(&sigma, &wide);

    let registry = Arc::new(ClassRegistry::new());
    let mut det = IncrementalDetector::with_registry(&sigma, &g, Arc::clone(&registry));
    let mut seen = vec![false; sigma.len()];
    for step in 0..=20 {
        let expected = brute_force(&g);
        for v in &expected {
            seen[v.rule] = true;
        }
        assert_eq!(
            canonical(det.violations()),
            expected,
            "incremental, step {step}"
        );
        assert_eq!(
            canonical(detect_violations_shared(&sigma, &g, &registry)),
            expected,
            "detVio over the repaired shared registry, step {step}"
        );
        if step % 10 == 0 {
            assert_eq!(canonical(detect_violations(&sigma, &g)), expected, "detVio");
            for (name, cfg) in [
                ("repVal", RepValConfig::val(2)),
                ("repnop", RepValConfig::nop(2)),
            ] {
                let rep = rep_val(&sigma, &g, &cfg);
                assert_eq!(rep.violations, expected, "{name}, step {step}");
            }
            let frag = Fragmentation::partition(&g, 2, PartitionStrategy::Hash);
            let dis = dis_val(&sigma, &g, &frag, &DisValConfig::val(2));
            assert_eq!(dis.violations, expected, "disVal, step {step}");
            let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
            let thr = threaded_run(&g, &sigma, &wl, 2);
            assert_eq!(thr, expected, "threaded, step {step}");
            // The executor over the registry detVio keeps warm.
            let warm = threaded::run_units_threaded_report(
                &g, &sigma, &wl.plan, &wl.units, &wl.slots, &registry, 2, None, 0,
            );
            assert_eq!(
                canonical(warm.violations),
                expected,
                "threaded over the warm registry, step {step}"
            );
        }
        // One edit: toggle an `e` edge along the cycle, or set the
        // value of an `a` or a `c`.
        let layer = rng.gen_range(0..3);
        let u = layers[layer][rng.gen_range(0..4)];
        let v = layers[(layer + 1) % 3][rng.gen_range(0..4)];
        let new_val = int(rng.gen_range(0..2) as i64);
        let (next, delta) = g.edit_with_delta(|b| {
            if layer != 1 && rng.gen_bool(0.5) {
                b.set_attr(u, val, new_val);
            } else if g.has_edge(u, v, vocab.intern("e")) {
                b.remove_edge_labeled(u, v, "e");
            } else {
                b.add_edge_labeled(u, v, "e");
            }
        });
        g = Arc::new(next);
        det.apply_diff(&g, &delta);
    }
    assert_eq!(
        seen,
        [true, true, false, false, true, true],
        "premise: the ordinary rules fire, the everywhere-satisfied and never-X ones never do"
    );
}

/// Every unit-based path over `sigma`: the threaded executor,
/// `repVal` with and without the multi-query optimization, and `disVal`.
fn unit_paths(
    sigma: &gfd::core::GfdSet,
    g: &std::sync::Arc<gfd::graph::Graph>,
) -> Vec<(&'static str, Vec<Violation>)> {
    let wl = estimate_workload(sigma, g, &WorkloadOptions::default());
    let frag = Fragmentation::partition(g, 2, PartitionStrategy::Hash);
    vec![
        ("threaded", threaded_run(g, sigma, &wl, 2)),
        (
            "repVal",
            rep_val(sigma, g, &RepValConfig::val(2)).violations,
        ),
        (
            "repnop",
            rep_val(sigma, g, &RepValConfig::nop(2)).violations,
        ),
        (
            "disVal",
            dis_val(sigma, g, &frag, &DisValConfig::val(2)).violations,
        ),
    ]
}

/// Example 10's dedup pairs the two components' candidate lists by
/// index, so the components' pivots must correspond under the
/// isomorphism. Here the default pivots do not — eccentricity ties are
/// broken by declaration order, which picks the `a` end of the first
/// edge and the `b` end of the second — and the dedup used to drop
/// every pair it never looked at (9 of 18 violations).
#[test]
fn symmetric_pair_dedup_survives_non_corresponding_pivots() {
    use gfd::core::{Dependency, Gfd, GfdSet, Literal};
    use gfd::graph::{GraphBuilder, Value};
    use gfd::pattern::PatternBuilder;

    let mut gb = GraphBuilder::with_fresh_vocab();
    let vocab = gb.vocab().clone();
    for i in 0..6 {
        let a = gb.add_node_labeled("a");
        let b = gb.add_node_labeled("b");
        gb.add_edge_labeled(a, b, "e");
        gb.set_attr_named(a, "val", Value::str(&format!("v{}", i % 2)));
    }
    let g = std::sync::Arc::new(gb.freeze());

    let mut pb = PatternBuilder::new(vocab.clone());
    let x = pb.node("x", "a");
    let y = pb.node("y", "b");
    pb.edge(x, y, "e");
    let y2 = pb.node("y2", "b");
    let x2 = pb.node("x2", "a");
    pb.edge(x2, y2, "e");
    let val = vocab.intern("val");
    let sigma = GfdSet::new(vec![Gfd::new(
        "same-val",
        pb.build(),
        Dependency::always(vec![Literal::var_eq(x, val, x2, val)]),
    )]);

    let expected = canonical(detect_violations(&sigma, &g));
    assert_eq!(expected.len(), 18, "3 × 3 mixed pairs, both orders");
    for (path, got) in unit_paths(&sigma, &g) {
        assert_eq!(got, expected, "{path}");
    }
}

/// Random twin components with permuted declaration order: a rule
/// whose two components are isomorphic, the second declared in a
/// random order, so pivot ties break differently in the two halves.
/// Every unit path must agree with `detVio`.
#[test]
fn permuted_twin_components_agree_with_detvio_on_every_unit_path() {
    use gfd::core::{Dependency, Gfd, GfdSet, Literal};
    use gfd::graph::{GraphBuilder, NodeId, Value};
    use gfd::pattern::{PatternBuilder, VarId};
    use gfd_util::prop::check;

    let mut seen_violation = false;
    check("twin components: unit paths ≡ detVio", 40, |rng| {
        let mut gb = GraphBuilder::with_fresh_vocab();
        let vocab = gb.vocab().clone();
        let n = rng.gen_range(4..11);
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| {
                let u = gb.add_node_labeled(&format!("l{}", rng.gen_range(0..2)));
                gb.set_attr_named(u, "val", Value::Int(rng.gen_range(0..2) as i64));
                u
            })
            .collect();
        for _ in 0..rng.gen_range(n..3 * n) {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s != d {
                gb.add_edge_labeled(nodes[s], nodes[d], "e");
            }
        }
        let g = std::sync::Arc::new(gb.freeze());

        // One connected component shape: a random tree over k
        // variables plus, sometimes, one extra edge.
        let k = rng.gen_range(2..4);
        let labels: Vec<String> = (0..k)
            .map(|_| format!("l{}", rng.gen_range(0..2)))
            .collect();
        let mut edges: Vec<(usize, usize)> = (1..k)
            .map(|i| {
                let j = rng.gen_range(0..i);
                if rng.gen_bool(0.5) {
                    (i, j)
                } else {
                    (j, i)
                }
            })
            .collect();
        if rng.gen_bool(0.3) {
            let (s, d) = (rng.gen_range(0..k), rng.gen_range(0..k));
            if s != d {
                edges.push((s, d));
            }
        }
        // Declared twice: in order, then in a random order.
        let mut order: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut pb = PatternBuilder::new(vocab.clone());
        let mut halves = [vec![VarId(0); k], vec![VarId(0); k]];
        for (half, declared) in [(0..k).collect::<Vec<_>>(), order].iter().enumerate() {
            for &i in declared {
                halves[half][i] = pb.node(&format!("v{half}_{i}"), &labels[i]);
            }
            for &(s, d) in &edges {
                pb.edge(halves[half][s], halves[half][d], "e");
            }
        }
        let val = vocab.intern("val");
        let at = rng.gen_range(0..k);
        let sigma = GfdSet::new(vec![Gfd::new(
            "twin-halves-agree",
            pb.build(),
            Dependency::always(vec![Literal::var_eq(
                halves[0][at],
                val,
                halves[1][at],
                val,
            )]),
        )]);

        let expected = canonical(detect_violations(&sigma, &g));
        seen_violation |= !expected.is_empty();
        for (path, got) in unit_paths(&sigma, &g) {
            if got != expected {
                return Err(format!(
                    "{path}: {} violations, detVio {}",
                    got.len(),
                    expected.len()
                ));
            }
        }
        Ok(())
    });
    assert!(seen_violation, "premise: some generated rule is violated");
}

/// The coverage oracle for range units. On random `(G, Σ)` — a
/// connected rule, an asymmetric two-component rule and a symmetric
/// pair, every candidate list longer than its cut count so that ranges
/// hold several pivots and diagonal and off-diagonal cells both occur —
/// the pivot tuples `wl.units` cover are every tuple of distinct
/// feasible pivots exactly once (unordered for the symmetric pair:
/// Example 10's `C(n, 2)`), and every unit path returns `detVio`'s
/// violation set.
#[test]
fn range_units_cover_every_pivot_tuple_once_and_agree_on_every_path() {
    use gfd::core::{Dependency, Gfd, GfdSet, Literal};
    use gfd::graph::{Graph, GraphBuilder, NodeId, Value};
    use gfd::matcher::dual_simulation;
    use gfd::pattern::{Pattern, PatternBuilder, VarId};
    use gfd_util::prop::{cases, check};

    /// The pivots of `part` at `pivot` that can anchor a match: its
    /// simulation set, or none when any variable's set is empty.
    fn feasible(g: &Graph, part: &Pattern, pivot: VarId) -> Vec<NodeId> {
        let sets = dual_simulation(part, g, None).sets;
        if sets.iter().any(Vec::is_empty) {
            return Vec::new();
        }
        sets[pivot.index()].clone()
    }

    /// Every tuple drawing one pivot from each list, in list order.
    fn product(lists: &[&[NodeId]]) -> Vec<Vec<NodeId>> {
        lists.iter().fold(vec![Vec::new()], |tuples, list| {
            tuples
                .iter()
                .flat_map(|t| list.iter().map(move |&p| [&t[..], &[p]].concat()))
                .collect()
        })
    }

    let budget = cases(6, 2);
    check("range units: coverage + path agreement", budget, |rng| {
        let mut gb = GraphBuilder::with_fresh_vocab();
        let vocab = gb.vocab().clone();
        let [a, b, c] = [("a", 180..220), ("b", 18..26), ("c", 18..26)].map(|(label, n)| {
            let layer: Vec<NodeId> = (0..rng.gen_range(n))
                .map(|_| {
                    let u = gb.add_node_labeled(label);
                    gb.set_attr_named(u, "val", Value::Int(rng.gen_range(0..3) as i64));
                    u
                })
                .collect();
            layer
        });
        for &u in &a {
            for _ in 0..rng.gen_range(1..4) {
                let targets = if rng.gen_bool(0.6) { &b } else { &c };
                gb.add_edge_labeled(u, targets[rng.gen_range(0..targets.len())], "e");
            }
        }
        let g = std::sync::Arc::new(gb.freeze());
        let val = vocab.intern("val");

        // Connected: a → b.
        let mut pb = PatternBuilder::new(vocab.clone());
        let (x, y) = (pb.node("x", "a"), pb.node("y", "b"));
        pb.edge(x, y, "e");
        let connected = Gfd::new(
            "connected",
            pb.build(),
            Dependency::always(vec![Literal::var_eq(x, val, y, val)]),
        );
        // Asymmetric: an a → c edge next to a lone b.
        let mut pb = PatternBuilder::new(vocab.clone());
        let (x, y, z) = (pb.node("x", "a"), pb.node("y", "c"), pb.node("z", "b"));
        pb.edge(x, y, "e");
        let asymmetric = Gfd::new(
            "asymmetric",
            pb.build(),
            Dependency::always(vec![Literal::var_eq(x, val, z, val)]),
        );
        // Symmetric pair: a → b twice, the second half declared either
        // way round.
        let mut pb = PatternBuilder::new(vocab.clone());
        let (x, y) = (pb.node("x", "a"), pb.node("y", "b"));
        pb.edge(x, y, "e");
        let (x2, y2) = if rng.gen_bool(0.5) {
            let y2 = pb.node("y2", "b");
            (pb.node("x2", "a"), y2)
        } else {
            (pb.node("x2", "a"), pb.node("y2", "b"))
        };
        pb.edge(x2, y2, "e");
        let symmetric = Gfd::new(
            "symmetric",
            pb.build(),
            Dependency::new(
                vec![Literal::var_eq(y, val, y2, val)],
                vec![Literal::var_eq(x, val, x2, val)],
            ),
        );
        let sigma = GfdSet::new(vec![connected, asymmetric, symmetric]);

        // Coverage, against feasible lists simulated per component.
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        for (group, gp) in wl.plan.iter() {
            let r = group.rep;
            let lists: Vec<Vec<NodeId>> = (0..group.parts.len())
                .map(|i| feasible(&g, &group.parts[i].0, gp.local_pivot(group, i)))
                .collect();
            let units: Vec<_> = wl.units.iter().filter(|u| u.rule() == r).collect();
            if units.len() > 64 {
                return Err(format!("rule {r}: {} units", units.len()));
            }
            if units
                .iter()
                .any(|u| u.slots(&wl.slots).iter().any(|s| s.range().len() < 2))
            {
                return Err(format!(
                    "rule {r}: premise: every range holds several pivots"
                ));
            }
            let mut diagonal = 0;
            let mut covered: Vec<Vec<NodeId>> = Vec::new();
            for u in &units {
                let slots = u.slots(&wl.slots);
                let same_range = gp.symmetric_pair && slots[0].lo == slots[1].lo;
                diagonal += usize::from(same_range);
                let ranges: Vec<&[NodeId]> = slots.iter().map(|s| s.range()).collect();
                for mut t in product(&ranges) {
                    if gp.symmetric_pair {
                        if same_range && t[0] >= t[1] {
                            continue;
                        }
                        t.sort_unstable();
                    }
                    if t.len() == 1 || t[0] != t[1] {
                        covered.push(t);
                    }
                }
            }
            let lists: Vec<&[NodeId]> = lists.iter().map(Vec::as_slice).collect();
            let mut expected = product(&lists);
            if gp.symmetric_pair {
                if lists[0] != lists[1] {
                    return Err("symmetric components must share candidates".into());
                }
                if diagonal == 0 || diagonal == units.len() {
                    return Err(format!("rule {r}: premise: both kinds of cell"));
                }
                expected.retain(|t| t[0] < t[1]);
            } else {
                expected.retain(|t| t.len() == 1 || t[0] != t[1]);
            }
            covered.sort_unstable();
            expected.sort_unstable();
            if covered != expected {
                return Err(format!(
                    "rule {r}: units cover {} pivot tuples, {} expected",
                    covered.len(),
                    expected.len()
                ));
            }
        }

        // Every path returns detVio's set.
        let expected = canonical(detect_violations(&sigma, &g));
        if !(0..3).all(|r| expected.iter().any(|v| v.rule == r)) {
            return Err("premise: every rule is violated".into());
        }
        let frag = Fragmentation::partition(&g, 3, PartitionStrategy::Hash);
        let mut paths: Vec<(String, Vec<Violation>)> = Vec::new();
        for t in [1, 2, 4] {
            paths.push((format!("threaded×{t}"), threaded_run(&g, &sigma, &wl, t)));
        }
        for (name, cfg) in [
            ("repVal", RepValConfig::val(3)),
            ("repnop", RepValConfig::nop(3)),
            ("repran", RepValConfig::ran(3, 5)),
            ("repVal+split", RepValConfig::val(3).with_split(40)),
        ] {
            paths.push((name.into(), rep_val(&sigma, &g, &cfg).violations));
        }
        for (name, cfg) in [
            ("disVal", DisValConfig::val(3)),
            ("disnop", DisValConfig::nop(3)),
            ("disran", DisValConfig::ran(3, 5)),
        ] {
            paths.push((name.into(), dis_val(&sigma, &g, &frag, &cfg).violations));
        }
        for (path, got) in paths {
            if got != expected {
                return Err(format!(
                    "{path}: {} violations, detVio {}",
                    got.len(),
                    expected.len()
                ));
            }
        }
        Ok(())
    });
}
