//! Microbenchmarks for the hot operations behind every figure: graph
//! storage primitives (`has_edge`, per-label neighbor scans, label
//! extents — the CSR snapshot's reason to exist), subgraph matching,
//! satisfiability, implication, workload estimation and repVal.
//!
//! Runs with `cargo bench -p gfd-bench` (plain `harness = false`
//! timing loop — the offline toolchain has no criterion). Besides the
//! human-readable table it writes `BENCH_graph.json` into the current
//! directory so successive PRs accumulate a perf trajectory.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gfd_core::implication::minimize;
use gfd_core::sat::check_satisfiability;
use gfd_core::validate::{detect_violations, detect_violations_with, DetScratch};
use gfd_core::{implies, Dependency, Gfd, GfdSet, IncrementalDetector, Literal};
use gfd_datagen::{
    isomorphic_twin, mine_gfds, reallife_graph, synthetic_graph, RealLifeConfig, RealLifeKind,
    RuleGenConfig, SynthConfig,
};
use gfd_graph::intersect::intersect_in_place;
use gfd_graph::{AttrOp, Edge, Graph, GraphBuilder, GraphDelta, NodeId, Value, Vocab};
use gfd_match::types::Flow;
use gfd_match::{
    count_matches, count_matches_with, dual_simulation, for_each_match_with, ClassRegistry,
    ComponentSearch, IncrementalSpace, MatchOptions, MatchScratch, Pin, SearchScratch,
};
use gfd_parallel::unitexec::{UnitExecutor, UnitScratch};
use gfd_parallel::workload::{estimate_workload, plan_rules, WorkloadOptions};
use gfd_parallel::{rep_val, wal, RepValConfig, ServiceConfig, SyncPolicy, ViolationService};
use gfd_pattern::{Pattern, PatternBuilder, VarId};
use gfd_util::alloc::{allocation_count, CountingAlloc};
use gfd_util::{Rng, TempDir};

/// Count every allocation the measured closures make: each sample also
/// reports `allocs_per_iter`, so BENCH_graph.json carries an
/// allocation trajectory next to the time one (and the
/// `alloc/unit_exec_steady_state` sample asserts the detection hot
/// path stays at zero).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One measured series: best-of-runs nanoseconds (and allocator calls)
/// per iteration.
struct Sample {
    name: &'static str,
    ns_per_iter: f64,
    iters: u64,
    allocs_per_iter: f64,
}

/// `BENCH_SMOKE=1` runs every sample with a tiny iteration budget —
/// CI uses it to fail fast on perf-harness rot without paying for a
/// full calibrated run (numbers from smoke runs are meaningless).
fn smoke() -> bool {
    static SMOKE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *SMOKE.get_or_init(|| std::env::var_os("BENCH_SMOKE").is_some())
}

/// Times `f` adaptively: calibrates an iteration count that fills at
/// least 50ms (iters quadruple, so a run lands in 50–200ms), then
/// reports the best of 3 runs (min is the stablest statistic for
/// wall-clock microbenches). Smoke mode skips calibration and runs
/// each sample once.
fn bench<R>(name: &'static str, samples: &mut Vec<Sample>, mut f: impl FnMut() -> R) {
    measure(name, samples, |iters| {
        let a0 = allocation_count();
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        (t.elapsed().as_secs_f64(), allocation_count() - a0)
    });
}

/// [`bench`] for an operation that must be undone before it runs
/// again (an epoch and its inverse): only `f` is timed and counted,
/// and `undo` runs untimed after each call.
fn bench_undone<S, R>(
    name: &'static str,
    samples: &mut Vec<Sample>,
    state: &mut S,
    mut f: impl FnMut(&mut S) -> R,
    mut undo: impl FnMut(&mut S),
) {
    measure(name, samples, |iters| {
        let (mut secs, mut allocs) = (0.0, 0);
        for _ in 0..iters {
            let a0 = allocation_count();
            let t = Instant::now();
            black_box(f(state));
            secs += t.elapsed().as_secs_f64();
            allocs += allocation_count() - a0;
            undo(state);
        }
        (secs, allocs)
    });
}

/// The calibration and best-of-runs loop of [`bench`]: `run(iters)`
/// returns the seconds and allocations of `iters` measured calls.
fn measure(name: &'static str, samples: &mut Vec<Sample>, mut run: impl FnMut(u64) -> (f64, u64)) {
    let (floor_s, runs) = if smoke() { (0.0, 1) } else { (0.05, 3) };
    let mut iters = 1u64;
    while run(iters).0 < floor_s && iters < 1 << 24 {
        iters *= 4;
    }
    let mut best = f64::INFINITY;
    let mut best_allocs = u64::MAX;
    for _ in 0..runs {
        let (secs, allocs) = run(iters);
        best = best.min(secs * 1e9 / iters as f64);
        // Min over runs: robust against one-off warm-up allocations.
        best_allocs = best_allocs.min(allocs);
    }
    let allocs_per_iter = best_allocs as f64 / iters as f64;
    println!("{name:<44} {best:>14.1} ns/iter  {allocs_per_iter:>10.1} allocs  (x{iters})");
    samples.push(Sample {
        name,
        ns_per_iter: best,
        iters,
        allocs_per_iter,
    });
}

fn tri_pattern(vocab: &Arc<Vocab>) -> Pattern {
    let mut b = PatternBuilder::new(vocab.clone());
    let x = b.node("x", "tau");
    let y = b.node("y", "tau");
    let z = b.node("z", "tau");
    b.edge(x, y, "l");
    b.edge(x, z, "l");
    b.edge(y, z, "l");
    b.build()
}

fn quad_pattern(vocab: &Arc<Vocab>) -> Pattern {
    let mut b = PatternBuilder::new(vocab.clone());
    let x = b.node("x", "tau");
    let y = b.node("y", "tau");
    let z = b.node("z", "tau");
    let w = b.node("w", "tau");
    b.edge(x, y, "l");
    b.edge(x, z, "l");
    b.edge(y, z, "l");
    b.edge(y, w, "l");
    b.edge(z, w, "l");
    b.build()
}

/// The storage-layer microbench: random probes against the CSR
/// snapshot, the operations `ComponentSearch` hammers.
fn bench_graph_primitives(g: &Graph, samples: &mut Vec<Sample>) {
    let n = g.node_count() as u32;
    let label = {
        // The most common edge label, for a representative scan.
        let mut counts = std::collections::HashMap::new();
        for e in g.edges() {
            *counts.entry(e.label).or_insert(0usize) += 1;
        }
        counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
    };
    let node_label = g.label(NodeId(0));

    let mut rng = Rng::seed_from_u64(0xBE7C);
    let probes: Vec<(NodeId, NodeId)> = (0..1024)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..n as usize) as u32),
                NodeId(rng.gen_range(0..n as usize) as u32),
            )
        })
        .collect();

    let mut i = 0usize;
    bench("graph/has_edge(random probes)", samples, || {
        let (u, v) = probes[i & 1023];
        i += 1;
        g.has_edge(u, v, label)
    });
    let mut j = 0usize;
    bench("graph/neighbors_labeled(scan+sum)", samples, || {
        let (u, _) = probes[j & 1023];
        j += 1;
        g.neighbors_labeled(u, label)
            .iter()
            .map(|a| a.node.0 as u64)
            .sum::<u64>()
    });
    let mut k = 0usize;
    bench("graph/out_slice(full-run scan)", samples, || {
        let (u, _) = probes[k & 1023];
        k += 1;
        g.out_slice(u).len() + g.in_slice(u).len()
    });
    bench("graph/extent(label lookup)", samples, || {
        g.extent(node_label).len()
    });

    // Probes whose source's run is out of line (longer than a page
    // has nodes). No stand-in has an out-run that long, so the probes
    // go against the transpose, whose out-runs are `g`'s in-runs.
    let mut transpose = GraphBuilder::new(g.vocab().clone());
    for u in g.nodes() {
        transpose.add_node(g.label(u));
    }
    for e in g.edges() {
        transpose.add_edge(e.dst, e.src, e.label);
    }
    let transpose = transpose.freeze();
    let hubs: Vec<NodeId> = (transpose.nodes())
        .filter(|&u| transpose.out_degree(u) > 64)
        .collect();
    assert!(!hubs.is_empty(), "the stand-in has in-hubs");
    let mut h = 0usize;
    bench("graph/has_edge(hub source)", samples, || {
        let (u, (_, v)) = (hubs[h % hubs.len()], probes[h & 1023]);
        h += 1;
        transpose.has_edge(u, v, label)
    });
}

/// The write side of the snapshot: what a successor costs when the
/// delta is small and the graph is not, and what the paged layout
/// costs to build from scratch.
fn bench_graph_writes(samples: &mut Vec<Sample>, frames: &mut Vec<(&'static str, u64)>) {
    let g = synthetic_graph(&SynthConfig::sized(100_000, 0x9A6E));
    let n = g.node_count();
    let label = g.edges().next().expect("the graph has edges").label;

    // Past the Zipf hubs at the low ids: an ordinary page.
    let mut one_edge = GraphDelta::new(n);
    one_edge.added_edges.extend(
        (n / 2..n)
            .map(|s| Edge {
                src: NodeId(s as u32),
                dst: NodeId((n - 1 - s / 2) as u32),
                label,
            })
            .find(|e| !g.has_edge(e.src, e.dst, e.label)),
    );
    assert_eq!(one_edge.added_edges.len(), 1, "an absent edge exists");
    bench("graph/apply_delta(1 edge, 1e5 nodes)", samples, || {
        g.apply_delta(&one_edge).edge_count()
    });

    // The case that one steers around: the destination shares its
    // page with the highest-in-degree node of `social-cycles`' graph.
    let pokec = reallife_graph(&RealLifeConfig {
        scale: 0.5,
        ..RealLifeConfig::new(RealLifeKind::Pokec)
    });
    let mut beside_hub = GraphDelta::new(pokec.node_count());
    beside_hub
        .added_edges
        .push(gfd_bench::edge_beside_hub(&pokec).1);
    frames.push((
        "wal/frame_bytes(1 edge, pokec)",
        frame_bytes(&pokec, &beside_hub),
    ));
    bench(
        "graph/apply_delta(1 edge beside a hub, pokec)",
        samples,
        || pokec.apply_delta(&beside_hub).edge_count(),
    );

    // The same edge on a snapshot nothing else holds, as the service
    // holds an epoch no reader pinned: added and removed in turn, each
    // where it lies.
    let mut owned = pokec;
    let mut removal = GraphDelta::new(owned.node_count());
    removal.removed_edges = beside_hub.added_edges.clone();
    let mut add = true;
    bench(
        "graph/apply_delta_in_place(1 edge beside a hub, pokec, owned)",
        samples,
        || {
            owned.apply_delta_in_place(if add { &beside_hub } else { &removal });
            add = !add;
            owned.edge_count()
        },
    );

    let stamp = g.vocab().intern("stamp");
    let mut writes = GraphDelta::new(n);
    writes.attr_ops.extend((0..16).map(|i| AttrOp {
        node: NodeId((n / 2 + 997 * i) as u32),
        attr: stamp,
        value: Some(Value::Int(i as i64)),
    }));
    bench(
        "graph/apply_delta(16 attr writes, 1e5 nodes)",
        samples,
        || g.apply_delta(&writes).node_count(),
    );

    // `freeze` consumes its builder, so each timed call gets a fresh
    // thaw made outside the clock.
    let rounds = if smoke() { 1 } else { 5 };
    let (mut best, mut best_allocs) = (f64::INFINITY, u64::MAX);
    for _ in 0..rounds {
        let builder = g.thaw();
        let a0 = allocation_count();
        let t = Instant::now();
        let frozen = black_box(builder.freeze());
        best = best.min(t.elapsed().as_secs_f64() * 1e9);
        best_allocs = best_allocs.min(allocation_count() - a0);
        drop(frozen);
    }
    let (name, allocs_per_iter) = ("graph/freeze(1e5 nodes)", best_allocs as f64);
    println!("{name:<44} {best:>14.1} ns/iter  {allocs_per_iter:>10.1} allocs  (x{rounds})");
    samples.push(Sample {
        name,
        ns_per_iter: best,
        iters: rounds,
        allocs_per_iter,
    });
}

/// The bytes one [`wal::WalWriter::append`] of `delta` adds to a log
/// of `g`: exact, so a row of them needs no timing loop.
fn frame_bytes(g: &Graph, delta: &GraphDelta) -> u64 {
    let dir = TempDir::new("gfd-bench-frame").unwrap();
    let mut w = wal::WalWriter::create(&dir.file("frame.wal"), 0, g, SyncPolicy::OnDemand).unwrap();
    let before = w.bytes();
    w.append(1, delta, g.vocab()).unwrap();
    w.bytes() - before
}

/// `field` of every row in a previously written `BENCH_graph.json`
/// (one row per line, as [`main`] writes them), by row name.
fn previous<'a>(json: &'a str, field: &str) -> std::collections::HashMap<&'a str, &'a str> {
    let key = format!("\"{field}\": ");
    json.lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once("\"name\": \"")?;
            let (name, rest) = rest.split_once('"')?;
            let (_, rest) = rest.split_once(key.as_str())?;
            let (value, _) = rest.split_once([',', '}'])?;
            Some((name, value))
        })
        .collect()
}

fn main() {
    let mut samples = Vec::new();
    // Exact bytes of one appended log frame, by row name.
    let mut frames = Vec::new();
    println!("== gfd microbenches (best of 3, adaptive iters) ==");

    // Storage layer: the Yago2 stand-in at bench scale.
    let g = reallife_graph(&RealLifeConfig {
        scale: 0.1,
        ..RealLifeConfig::new(RealLifeKind::Yago2)
    });
    println!("# graph: |V|={} |E|={}", g.node_count(), g.edge_count());
    bench_graph_primitives(&g, &mut samples);
    bench_graph_writes(&mut samples, &mut frames);

    // Matching.
    let sigma = mine_gfds(
        &g,
        &RuleGenConfig {
            count: 4,
            pattern_nodes: 3,
            two_component_fraction: 0.0,
            ..Default::default()
        },
    );
    if let Some(gfd) = sigma.iter().next() {
        bench("match/count_matches(mined rule 0)", &mut samples, || {
            count_matches(&gfd.pattern, &g, &MatchOptions::unrestricted())
        });
        // The same count through caller-owned scratch: search pools,
        // tables and join arenas persist across calls, so the
        // `allocs_per_iter` column isolates what the per-call path
        // still allocates (the simulation filter, when its rule fires).
        let count_opts = MatchOptions::unrestricted();
        let mut count_scratch = MatchScratch::default();
        bench(
            "match/count_matches_with(warm scratch)",
            &mut samples,
            || count_matches_with(&gfd.pattern, &g, &count_opts, None, &mut count_scratch),
        );
        bench("sim/dual_simulation(mined rule 0)", &mut samples, || {
            dual_simulation(&gfd.pattern, &g, None).total_size()
        });

        // Incremental candidate-space maintenance vs recompute on a
        // small delta: one rule-relevant edge removed and re-inserted
        // per iteration (the repair path must win for the maintenance
        // subsystem to be worth its state).
        let q = &gfd.pattern;
        let pattern_label = q.edges().iter().find_map(|e| match e.label {
            gfd_pattern::PatLabel::Sym(s) => Some(s),
            gfd_pattern::PatLabel::Wildcard => None,
        });
        let probe = pattern_label.and_then(|l| g.edges().find(|e| e.label == l));
        if let Some(edge) = probe {
            let (g_minus, d_rm) = g.edit_with_delta(|b| {
                b.remove_edge(edge.src, edge.dst, edge.label);
            });
            let (_, d_add) = g_minus.edit_with_delta(|b| {
                b.add_edge(edge.src, edge.dst, edge.label);
            });
            let mut inc = IncrementalSpace::new(q, &g, None);
            bench("sim/incremental_vs_scratch(repair)", &mut samples, || {
                inc.apply_normalized(&g_minus, &d_rm);
                inc.apply_normalized(&g, &d_add);
                inc.space().total_size()
            });
            bench("sim/incremental_vs_scratch(scratch)", &mut samples, || {
                dual_simulation(q, &g_minus, None).total_size()
                    + dual_simulation(q, &g, None).total_size()
            });
        }

        // Shared-space reuse across one isomorphism class of k = 8
        // members (Example 10 at rule-set scale): the registry runs
        // one worklist fixpoint and hands all 8 members the same
        // space, versus one simulation per component.
        let members: Vec<Pattern> = std::iter::once(q.clone())
            .chain((0..7).map(|t| isomorphic_twin(q, t)))
            .collect();
        bench("sim/shared_space_reuse(registry k8)", &mut samples, || {
            let reg = ClassRegistry::new();
            let handles: Vec<_> = members.iter().map(|m| reg.register(m)).collect();
            let total: usize = handles
                .iter()
                .map(|&h| reg.space(h, &g).space.total_size())
                .sum();
            assert_eq!(reg.simulations(), 1);
            total
        });
        bench("sim/shared_space_reuse(percomp k8)", &mut samples, || {
            members
                .iter()
                .map(|m| dual_simulation(m, &g, None).total_size())
                .sum::<usize>()
        });
    }

    // The intersection kernel behind every candidate pool: the two
    // largest label extents (comparable sizes → merge path) and a
    // 32×-skewed pair (galloping path), refreshed per iteration.
    {
        let mut extents: Vec<&[NodeId]> = g.label_extents().map(|(_, e)| e).collect();
        extents.sort_by_key(|e| std::cmp::Reverse(e.len()));
        let (big, second) = (extents[0], extents[1]);
        let small: Vec<NodeId> = big.iter().step_by(64).copied().collect();
        let mut pool: Vec<NodeId> = Vec::with_capacity(big.len());
        bench("match/candidate_intersection", &mut samples, || {
            pool.clear();
            pool.extend_from_slice(big);
            intersect_in_place(&mut pool, second, |&x| x);
            let merged = pool.len();
            pool.clear();
            pool.extend_from_slice(big);
            intersect_in_place(&mut pool, &small, |&x| x);
            merged + pool.len()
        });
    }

    // Reasoning (Example 7 / Example 8 shapes).
    let vocab = Vocab::shared();
    let a = vocab.intern("A");
    let phi8 = Gfd::new(
        "phi8",
        tri_pattern(&vocab),
        Dependency::always(vec![Literal::const_eq(VarId(0), a, "c")]),
    );
    let phi9 = Gfd::new(
        "phi9",
        quad_pattern(&vocab),
        Dependency::always(vec![Literal::const_eq(VarId(0), a, "d")]),
    );
    let sigma7 = GfdSet::new(vec![phi8, phi9]);
    bench("reason/satisfiability(example7)", &mut samples, || {
        check_satisfiability(&sigma7)
    });

    let b_at = vocab.intern("B");
    let c_at = vocab.intern("C");
    let s1 = Gfd::new(
        "s1",
        tri_pattern(&vocab),
        Dependency::new(
            vec![Literal::var_eq(VarId(0), a, VarId(1), a)],
            vec![Literal::var_eq(VarId(0), b_at, VarId(1), b_at)],
        ),
    );
    let s2 = Gfd::new(
        "s2",
        quad_pattern(&vocab),
        Dependency::new(
            vec![Literal::var_eq(VarId(0), b_at, VarId(1), b_at)],
            vec![Literal::var_eq(VarId(2), c_at, VarId(3), c_at)],
        ),
    );
    let sigma8 = GfdSet::new(vec![s1, s2]);
    let phi11 = Gfd::new(
        "phi11",
        quad_pattern(&vocab),
        Dependency::new(
            vec![Literal::var_eq(VarId(0), a, VarId(1), a)],
            vec![Literal::var_eq(VarId(2), c_at, VarId(3), c_at)],
        ),
    );
    bench("reason/implication(example8)", &mut samples, || {
        implies(&sigma8, &phi11)
    });
    // `minimize` on the lifecycle benchmark's wide-sigma Σ (200 rules
    // mined from the Yago2 stand-in at scale 0.5): one satisfiability
    // check, then one `implies` per rule, each grounding the rest of Σ
    // in that rule's canonical graph.
    let yago_half = reallife_graph(&RealLifeConfig {
        kind: RealLifeKind::Yago2,
        scale: 0.5,
        seed: 0xBEEF,
    });
    let sigma200 = mine_gfds(
        &yago_half,
        &RuleGenConfig {
            count: 200,
            pattern_nodes: 4,
            two_component_fraction: 0.3,
            max_pivot_extent: 150,
            seed: 0xACE,
        },
    );
    drop(yago_half);
    bench("reason/minimize(mined 200)", &mut samples, || {
        minimize(&sigma200).len()
    });

    // Detection end-to-end.
    let g2 = Arc::new(reallife_graph(&RealLifeConfig {
        scale: 0.08,
        ..RealLifeConfig::new(RealLifeKind::Yago2)
    }));
    let sigma_det = mine_gfds(
        &g2,
        &RuleGenConfig {
            count: 8,
            pattern_nodes: 3,
            two_component_fraction: 0.25,
            ..Default::default()
        },
    );
    bench("detect/detVio", &mut samples, || {
        detect_violations(&sigma_det, &g2)
    });
    // Warm detection: a registry (per-class spaces, simulated once)
    // plus caller-owned scratch. Per-iteration allocations drop
    // to the violation records themselves.
    {
        let reg = ClassRegistry::new();
        let mut det_scratch = DetScratch::default();
        detect_violations_with(&sigma_det, &g2, &reg, &mut det_scratch);
        bench("detect/detVio_warm(registry+scratch)", &mut samples, || {
            detect_violations_with(&sigma_det, &g2, &reg, &mut det_scratch).len()
        });
    }
    bench("detect/estimate_workload", &mut samples, || {
        estimate_workload(&sigma_det, &g2, &WorkloadOptions::default())
    });
    // A multi-rule Σ (16 mined rules) where the registry's per-class
    // sharing pays across the whole set.
    let sigma16 = mine_gfds(
        &g2,
        &RuleGenConfig {
            count: 16,
            pattern_nodes: 3,
            two_component_fraction: 0.25,
            ..Default::default()
        },
    );
    bench("workload/estimate_sigma16", &mut samples, || {
        estimate_workload(&sigma16, &g2, &WorkloadOptions::default())
    });
    bench("detect/plan_rules", &mut samples, || plan_rules(&sigma_det));
    bench("detect/repVal_n4", &mut samples, || {
        rep_val(&sigma_det, &g2, &RepValConfig::val(4))
    });

    // Worst-case-optimal multiway matching on a skewed cyclic
    // workload (the shape of Example 2's dense layers): a complete
    // bipartite a→b layer of 160×160 `e1` edges, per-index b→c / c→d
    // chains, and only 8 cycle-closing edges back into the `a` layer.
    // The enumerator in raw mode (`backtrack`: the engine type with
    // no space attached) must enumerate all 25 600 (x, y) edge pairs
    // per call before discovering that almost none close; the space
    // path draws its pools from the registry's warm candidate space —
    // where simulation has already collapsed every layer to the 8
    // closure indices — by multiway intersection of the space's
    // adjacency runs, in the enumerator's greedy order. A
    // tree-decomposition order was about 1.5× faster on this triangle
    // and 8× on this skewed four-cycle, shapes no lifecycle workload
    // has (`match/cycle_rules(space)` below is the shape they do have,
    // and there the greedy order is as fast). The `sim percall`
    // samples go through the default entry point, whose filter rule
    // fires here (cyclic, 160-node pools): one dual-simulation fixpoint
    // per call — the cost the class-keyed cache amortizes away. Spaces
    // and scratch are caller-owned and warm: the space samples must
    // report 0 allocs_per_iter (also asserted by tests/alloc_probe.rs).
    {
        let per_layer = 160usize;
        let closures = 8usize;
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let al: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("a")).collect();
        let bl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("b")).collect();
        let cl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("c")).collect();
        let dl: Vec<NodeId> = (0..per_layer).map(|_| b.add_node_labeled("d")).collect();
        for &a in &al {
            for &x in &bl {
                b.add_edge_labeled(a, x, "e1");
            }
        }
        for i in 0..per_layer {
            b.add_edge_labeled(bl[i], cl[i], "e2");
            b.add_edge_labeled(cl[i], dl[i], "f3");
        }
        for i in 0..closures {
            b.add_edge_labeled(cl[i], al[i], "e3");
            b.add_edge_labeled(dl[i], al[i], "f4");
        }
        let gs = b.freeze();
        let vocab = gs.vocab().clone();

        let mut tb = PatternBuilder::new(vocab.clone());
        let x = tb.node("x", "a");
        let y = tb.node("y", "b");
        let z = tb.node("z", "c");
        tb.edge(x, y, "e1");
        tb.edge(y, z, "e2");
        tb.edge(z, x, "e3");
        let tri = tb.build();
        let mut qb = PatternBuilder::new(vocab.clone());
        let x = qb.node("x", "a");
        let y = qb.node("y", "b");
        let z = qb.node("z", "c");
        let w = qb.node("w", "d");
        qb.edge(x, y, "e1");
        qb.edge(y, z, "e2");
        qb.edge(z, w, "f3");
        qb.edge(w, x, "f4");
        let cyc4 = qb.build();

        let reg = ClassRegistry::new();
        let tri_h = reg.register(&tri);
        let cyc4_h = reg.register(&cyc4);
        let space_opts = MatchOptions::unrestricted();
        let mut space_scratch = MatchScratch::default();
        let mut count_space = |h, q: &Pattern, reg: &ClassRegistry| {
            let view = reg.space(h, &gs);
            count_matches_with(q, &gs, &space_opts, Some(&*view.space), &mut space_scratch)
        };
        // Warm the registry caches and scratch high-water marks, and
        // pin down the match counts both engines must agree on.
        let tri_n = count_space(tri_h, &tri, &reg);
        let cyc4_n = count_space(cyc4_h, &cyc4, &reg);
        let mut back_scratch = SearchScratch::default();
        let mut count_raw = |q: &Pattern| {
            let mut search =
                ComponentSearch::new(q, &gs).with_scratch(std::mem::take(&mut back_scratch));
            let mut n = 0usize;
            search.for_each(&mut |_| {
                n += 1;
                Flow::Continue
            });
            back_scratch = search.into_scratch();
            n
        };
        let sim_opts = MatchOptions::unrestricted();
        let mut sim_scratch = MatchScratch::default();
        let mut count_percall =
            |q: &Pattern| count_matches_with(q, &gs, &sim_opts, None, &mut sim_scratch);
        assert_eq!(tri_n, count_raw(&tri));
        assert_eq!(cyc4_n, count_raw(&cyc4));
        assert_eq!(tri_n, count_percall(&tri));
        assert_eq!(cyc4_n, count_percall(&cyc4));

        bench("match/wcoj_triangle(space)", &mut samples, || {
            count_space(tri_h, &tri, &reg)
        });
        bench("match/wcoj_4cycle(space)", &mut samples, || {
            count_space(cyc4_h, &cyc4, &reg)
        });
        bench("match/wcoj_triangle(backtrack)", &mut samples, || {
            count_raw(&tri)
        });
        bench("match/wcoj_4cycle(backtrack)", &mut samples, || {
            count_raw(&cyc4)
        });
        bench("match/wcoj_triangle(sim percall)", &mut samples, || {
            count_percall(&tri)
        });
        bench("match/wcoj_4cycle(sim percall)", &mut samples, || {
            count_percall(&cyc4)
        });
    }

    // Pinned enumeration of a four-cycle inside a warm registry space,
    // per pin — what `IncrementalDetector::apply_diff` runs per
    // (affected node, variable). The graph and the rule shape are the
    // lifecycle benchmark's `social-cycles` workload (Pokec-shape at
    // scale 0.5, wildcard nodes, a cycle of the undirected pattern);
    // the pins cycle over 16 evenly spaced candidates of each
    // variable. The search starts at the pin, so the cost tracks the
    // pin's neighborhood, not the variables' simulation sets.
    {
        let gp = reallife_graph(&RealLifeConfig {
            scale: 0.5,
            seed: 0xBEEF,
            ..RealLifeConfig::new(RealLifeKind::Pokec)
        });
        let mut pb = PatternBuilder::new(gp.vocab().clone());
        let v: Vec<VarId> = (0..4).map(|i| pb.wildcard_node(&format!("c{i}"))).collect();
        pb.edge(v[0], v[1], "pk_rel0");
        pb.edge(v[1], v[2], "pk_rel1");
        pb.edge(v[3], v[2], "pk_rel2");
        pb.wildcard_edge(v[0], v[3]);
        let cyc4 = pb.build();
        let reg = ClassRegistry::new();
        let view = reg.space(reg.register(&cyc4), &gp);
        let cs = &*view.space;
        let pins: Vec<Pin> = cyc4
            .vars()
            .flat_map(|var| {
                let set = cs.of(var);
                let stride = (set.len() / 16).max(1);
                set.iter()
                    .step_by(stride)
                    .take(16)
                    .map(move |&u| Pin::at(var, u))
            })
            .collect();
        assert!(!pins.is_empty(), "premise: the four-cycle has candidates");
        let mut opts = MatchOptions::unrestricted().pin(pins[0].var, pins[0].lo);
        let mut scratch = MatchScratch::default();
        let mut next = 0usize;
        bench("match/pinned_4cycle(space)", &mut samples, || {
            opts.pins[0] = pins[next];
            next = (next + 1) % pins.len();
            let mut n = 0usize;
            for_each_match_with(&cyc4, &gp, &opts, Some(cs), &mut scratch, &mut |_| {
                n += 1;
                Flow::Continue
            });
            n
        });

        // Space repair vs recompute at the same scale: one `pk_rel0`
        // edge between two surviving candidates removed and
        // re-inserted per iteration — what one `social-cycles` epoch
        // asks of every class (the seed-scale pair above cannot show
        // a cost that grows with the candidate sets).
        let rel0 = cyc4
            .edges()
            .iter()
            .position(|e| e.src == v[0] && e.dst == v[1])
            .expect("declared above");
        let (src, run) = cs.forward[rel0].runs().next().expect("candidates");
        let (src, dst, label) = (src, run[0], gp.vocab().intern("pk_rel0"));
        let (g_minus, d_rm) = gp.edit_with_delta(|b| {
            b.remove_edge(src, dst, label);
        });
        let (_, d_add) = g_minus.edit_with_delta(|b| {
            b.add_edge(src, dst, label);
        });
        let mut inc = IncrementalSpace::new(&cyc4, &gp, None);
        bench("sim/repair_pokec(1 edge)", &mut samples, || {
            inc.apply_normalized(&g_minus, &d_rm);
            inc.apply_normalized(&gp, &d_add);
            inc.space().total_size()
        });
        bench("sim/repair_pokec(scratch)", &mut samples, || {
            dual_simulation(&cyc4, &g_minus, None).total_size()
                + dual_simulation(&cyc4, &gp, None).total_size()
        });

        // The lifecycle benchmark's `social-cycles` Σ itself, built the
        // way its `cycle_rules` builds it (rules seed 0xACE): four
        // triangles and four four-cycles over the `pk_rel*` relations,
        // wildcard nodes, one wildcard edge each. One iteration
        // enumerates each rule once, unpinned, in its warm registry
        // class space — what `detVio` runs per rule group.
        let rels: Vec<String> = (0..)
            .map(|i| format!("pk_rel{i}"))
            .take_while(|name| gp.vocab().lookup(name).is_some())
            .collect();
        let offset = Rng::seed_from_u64(0xACE).gen_range(0..rels.len());
        let rel = |i: usize, j: usize| &rels[(offset + i + j * (i + 1)) % rels.len()];
        let cycles: Vec<Pattern> = (0..8usize)
            .map(|i| {
                let len = if i < 4 { 3 } else { 4 };
                let mut b = PatternBuilder::new(gp.vocab().clone());
                let v: Vec<VarId> = (0..len)
                    .map(|j| b.wildcard_node(&format!("c{i}_{j}")))
                    .collect();
                b.edge(v[0], v[1], rel(i, 0));
                b.edge(v[1], v[2], rel(i, 1));
                if len == 3 {
                    b.wildcard_edge(v[0], v[2]);
                } else {
                    b.edge(v[3], v[2], rel(i, 2));
                    b.wildcard_edge(v[0], v[3]);
                }
                b.build()
            })
            .collect();
        let cycle_reg = ClassRegistry::new();
        let handles: Vec<_> = cycles.iter().map(|q| cycle_reg.register(q)).collect();
        assert_eq!(cycle_reg.class_count(), 8, "premise: eight distinct shapes");
        let unpinned = MatchOptions::unrestricted();
        let mut cycle_scratch = MatchScratch::default();
        let mut count_cycles = || -> usize {
            let count = |&h| {
                let view = cycle_reg.space(h, &gp);
                let space = Some(&*view.space);
                count_matches_with(&view.rep, &gp, &unpinned, space, &mut cycle_scratch)
            };
            handles.iter().map(count).sum()
        };
        assert!(count_cycles() > 0, "premise: the rules have matches");
        bench("match/cycle_rules(space)", &mut samples, count_cycles);

        // The same eight rules simulated from cold: a fresh registry
        // registers them and simulates each class once, all in the
        // registry's one workspace — what a service start or a cold
        // `detVio` pays for Σ's class spaces.
        bench("sim/registry_fill(cycle rules)", &mut samples, || {
            let reg = ClassRegistry::new();
            let fill = |q: &Pattern| reg.space(reg.register(q), &gp).space.total_size();
            cycles.iter().map(fill).sum::<usize>()
        });

        // One standing-path epoch on the same graph and rule shapes,
        // per op kind: the `pk_rel0` edge above added or removed, or an
        // attribute no rule reads written. Σ carries the lifecycle
        // benchmark's dependency (`x.flag = true → y.flag = true` on
        // each cycle's first edge). Each epoch is undone, untimed,
        // before the next, so every timed call starts from one state.
        let flag = gp.vocab().intern("flag");
        let sigma: GfdSet = cycles
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let [x, y] = [VarId(0), VarId(1)];
                let x_flag = vec![Literal::const_eq(x, flag, true)];
                let dep = Dependency::new(x_flag, vec![Literal::const_eq(y, flag, true)]);
                Gfd::new(format!("cycle-{i}"), q.clone(), dep)
            })
            .collect();
        let stamp = gp.vocab().intern("stamp");
        let (g_stamped, d_stamp) = gp.edit_with_delta(|b| b.set_attr(src, stamp, Value::Int(1)));
        let (_, d_unstamp) = g_stamped.edit_with_delta(|b| {
            b.remove_attr(src, stamp);
        });
        let mut det = IncrementalDetector::new(&sigma, &gp);
        det.apply_diff(&g_minus, &d_rm);
        bench_undone(
            "core/apply_diff(1 added edge, pokec)",
            &mut samples,
            &mut det,
            |det| det.apply_diff(&gp, &d_add),
            |det| drop(det.apply_diff(&g_minus, &d_rm)),
        );
        det.apply_diff(&gp, &d_add);
        bench_undone(
            "core/apply_diff(1 removed edge, pokec)",
            &mut samples,
            &mut det,
            |det| det.apply_diff(&g_minus, &d_rm),
            |det| drop(det.apply_diff(&gp, &d_add)),
        );
        bench_undone(
            "core/apply_diff(1 unread attr write, pokec)",
            &mut samples,
            &mut det,
            |det| det.apply_diff(&g_stamped, &d_stamp),
            |det| drop(det.apply_diff(&gp, &d_unstamp)),
        );
    }

    // Counting a skewed multiplicative workload: two dense bipartite
    // layers (a→b and b→c, 48×48 each) multiply into 48³ ≈ 110k path
    // matches, each one enumerated from the registry's warm space with
    // caller-owned scratch.
    {
        let n = 48usize;
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let al: Vec<NodeId> = (0..n).map(|_| b.add_node_labeled("a")).collect();
        let bl: Vec<NodeId> = (0..n).map(|_| b.add_node_labeled("b")).collect();
        let cl: Vec<NodeId> = (0..n).map(|_| b.add_node_labeled("c")).collect();
        for &x in &al {
            for &y in &bl {
                b.add_edge_labeled(x, y, "e1");
            }
        }
        for &y in &bl {
            for &z in &cl {
                b.add_edge_labeled(y, z, "e2");
            }
        }
        let gs = b.freeze();
        let mut pb = PatternBuilder::new(gs.vocab().clone());
        let x = pb.node("x", "a");
        let y = pb.node("y", "b");
        let z = pb.node("z", "c");
        pb.edge(x, y, "e1");
        pb.edge(y, z, "e2");
        let path = pb.build();
        let reg = ClassRegistry::new();
        let h = reg.register(&path);
        let opts = MatchOptions::unrestricted();
        let mut scratch = MatchScratch::default();
        let view = reg.space(h, &gs);
        let mut count = || count_matches_with(&path, &gs, &opts, Some(&*view.space), &mut scratch);
        assert_eq!(count(), n * n * n);
        bench("match/count_skewed(space)", &mut samples, count);
    }

    // The allocation-free hot-path probe: a clean symmetric-pair
    // workload (no violations to record), executed once to warm the
    // match cache and scratch, then measured per warm unit execution —
    // allocs_per_iter must be 0 (also asserted by tests/alloc_probe.rs
    // under BENCH_SMOKE in CI).
    {
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        for i in 0..32 {
            let f = b.add_node_labeled("flight");
            let id = b.add_node_labeled("id");
            let to = b.add_node_labeled("city");
            b.add_edge_labeled(f, id, "number");
            b.add_edge_labeled(f, to, "to");
            b.set_attr_named(id, "val", Value::str(&format!("FL{i}")));
            b.set_attr_named(to, "val", Value::str(&format!("City{i}")));
        }
        let g = b.freeze();
        let vocab = g.vocab().clone();
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node("x", "flight");
        let x1 = pb.node("x1", "id");
        let x2 = pb.node("x2", "city");
        pb.edge(x, x1, "number");
        pb.edge(x, x2, "to");
        let y = pb.node("y", "flight");
        let y1 = pb.node("y1", "id");
        let y2 = pb.node("y2", "city");
        pb.edge(y, y1, "number");
        pb.edge(y, y2, "to");
        let val = vocab.intern("val");
        let sigma = GfdSet::new(vec![Gfd::new(
            "same-id-same-dest",
            pb.build(),
            Dependency::new(
                vec![Literal::var_eq(x1, val, y1, val)],
                vec![Literal::var_eq(x2, val, y2, val)],
            ),
        )]);
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let registry = ClassRegistry::new();
        let exec = UnitExecutor::new(&g, &wl.plan, &wl.slots, &registry, true);
        let mut scratch = UnitScratch::new();
        let mut out = Vec::new();
        for u in &wl.units {
            exec.run(u, &mut scratch, &mut out);
        }
        assert!(out.is_empty(), "the probe fleet must be violation-free");
        let mut i = 0usize;
        bench("alloc/unit_exec_steady_state", &mut samples, || {
            let u = &wl.units[i % wl.units.len()];
            i += 1;
            exec.run(u, &mut scratch, &mut out);
            out.len()
        });

        // What the registry still caches, warm: the class-space probe
        // every unit-component pays — lock, LRU touch, four `Arc`
        // bumps. allocs_per_iter doubles as the zero-allocation
        // assertion for the serving-tier lookup.
        let star = &wl.plan.groups[0].parts[0].0;
        let h = registry.register(star);
        let sims = registry.simulations();
        bench("cache/registry_hit_rate", &mut samples, || {
            registry.space(h, &g).space.total_size()
        });
        assert_eq!(registry.simulations(), sims, "a warm probe never simulates");
        let stats = registry.stats();
        println!(
            "# cache: {} hits, {} misses ({:.1}% hit rate)",
            stats.hits,
            stats.misses,
            100.0 * stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64
        );

        // Eviction churn: two classes alternating through a registry
        // whose byte budget holds neither, so every probe misses,
        // simulates, and evicts its cold neighbor. Times the worst-case
        // serving-tier path (miss + simulate + LRU sweep) that a
        // budget-starved deployment pays.
        let tiny = ClassRegistry::with_budget_bytes(32);
        let mut pb = PatternBuilder::new(vocab.clone());
        let f = pb.node("f", "flight");
        let c = pb.node("c", "city");
        pb.edge(f, c, "to");
        let classes = [star, &pb.build()].map(|q| tiny.register(q));
        bench("cache/evict_churn", &mut samples, || {
            classes.map(|h| tiny.space(h, &g).space.total_size())
        });
        assert!(
            tiny.stats().evicted_cold > 0,
            "the starved budget must force cold evictions"
        );
        tiny.sweep();
        assert!(
            tiny.bytes() <= tiny.budget_bytes(),
            "churn must drain to the budget once nothing is held"
        );
        println!(
            "# cache: {} cold evictions under a {}-byte budget ({} deferred)",
            tiny.stats().evicted_cold,
            tiny.budget_bytes(),
            tiny.stats().eviction_deferred_pinned
        );
    }

    // The standing-violation service: steady-state ingest throughput
    // and violation-propagation latency. A spam-rule social graph and
    // pre-recorded flip/flop attr batches (flip marks blogs "spam" →
    // violations appear; flop restores "ok" → they retract), so the
    // service returns to its base state every two epochs and the loop
    // can run indefinitely. Latency is ingest-to-subscriber-delivery —
    // the update is drained from the channel inside the timed window.
    {
        let nb = 64usize;
        let mut b = gfd_graph::GraphBuilder::with_fresh_vocab();
        let blogs: Vec<NodeId> = (0..nb)
            .map(|_| {
                let blog = b.add_node_labeled("blog");
                b.set_attr_named(blog, "keyword", Value::str("ok"));
                blog
            })
            .collect();
        for (i, &blog) in blogs.iter().enumerate() {
            let acct = b.add_node_labeled("account");
            b.set_attr_named(acct, "is_fake", Value::Bool(i % 4 == 0));
            b.add_edge_labeled(acct, blog, "post");
        }
        let gs = Arc::new(b.freeze());
        let vocab = gs.vocab().clone();
        let mut pb = PatternBuilder::new(vocab.clone());
        let x = pb.node("x", "account");
        let y = pb.node("y", "blog");
        pb.edge(x, y, "post");
        let keyword = vocab.intern("keyword");
        let is_fake = vocab.intern("is_fake");
        let sigma = GfdSet::new(vec![Gfd::new(
            "spam-poster-is-fake",
            pb.build(),
            Dependency::new(
                vec![Literal::const_eq(y, keyword, "spam")],
                vec![Literal::const_eq(x, is_fake, true)],
            ),
        )]);
        // Chained single-edit deltas writing `keyword` over the blog
        // pool — always valid against any epoch of this node set.
        let record = |base: &Graph, k: usize, spam: bool| {
            let mut cur = base.edit(|_| {});
            let mut batch = Vec::with_capacity(k);
            for j in 0..k {
                let node = blogs[j % nb];
                let (next, d) = cur.edit_with_delta(|eb| {
                    let a = eb.vocab().intern("keyword");
                    eb.set_attr(node, a, Value::str(if spam { "spam" } else { "ok" }));
                });
                cur = next;
                batch.push(d);
            }
            (cur, batch)
        };
        let svc_cfg = || ServiceConfig {
            threads: 2,
            oracle_sample_p: 0.0,
            seed: 1,
            faults: None,
        };

        // Steady-state ingest: one flip + one flop batch of 16 edits
        // per iteration (2 epochs, 32 edits); allocs_per_iter is the
        // whole compaction + patch + repair + diff pipeline's budget.
        let (flip_g, flip16) = record(&gs, 16, true);
        let (_, flop16) = record(&flip_g, 16, false);
        let mut svc = ViolationService::new(sigma.clone(), Arc::clone(&gs), svc_cfg());
        bench("stream/ingest_steady_state(batch16)", &mut samples, || {
            let a = svc.ingest(&flip16).expect("attr flips are always valid");
            let b = svc.ingest(&flop16).expect("attr flips are always valid");
            a + b
        });
        let batch16_ns = samples.last().expect("just pushed").ns_per_iter;
        let batch16_allocs = samples.last().expect("just pushed").allocs_per_iter;
        println!(
            "# stream throughput: {:.0} edits/sec steady-state",
            32.0 * 1e9 / batch16_ns
        );
        samples.push(Sample {
            name: "stream/edits_per_sec(ns_per_edit)",
            ns_per_iter: batch16_ns / 32.0,
            iters: 32,
            allocs_per_iter: batch16_allocs / 32.0,
        });

        // Violation-propagation latency percentiles per batch size:
        // ingest → subscriber holds the epoch's VioUpdate.
        let mut measure = |k: usize, n50: &'static str, n99: &'static str| {
            let (flip_g, flip) = record(&gs, k, true);
            let (_, flop) = record(&flip_g, k, false);
            let mut svc = ViolationService::new(sigma.clone(), Arc::clone(&gs), svc_cfg());
            let rx = svc.subscribe();
            let rounds = if smoke() { 10 } else { 200 };
            let mut lat = Vec::with_capacity(rounds * 2);
            let a0 = allocation_count();
            for _ in 0..rounds {
                for batch in [&flip, &flop] {
                    let t = Instant::now();
                    svc.ingest(batch).expect("attr flips are always valid");
                    let upd = rx.try_recv().expect("update is delivered at commit");
                    black_box(upd);
                    lat.push(t.elapsed().as_secs_f64() * 1e9);
                }
            }
            let allocs = (allocation_count() - a0) as f64 / lat.len() as f64;
            lat.sort_by(f64::total_cmp);
            let pct = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
            for (name, p) in [(n50, 0.50), (n99, 0.99)] {
                let ns = pct(p);
                println!(
                    "{name:<44} {ns:>14.1} ns/iter  {allocs:>10.1} allocs  (x{})",
                    lat.len()
                );
                samples.push(Sample {
                    name,
                    ns_per_iter: ns,
                    iters: lat.len() as u64,
                    allocs_per_iter: allocs,
                });
            }
        };
        measure(
            1,
            "stream/latency_p50(batch1)",
            "stream/latency_p99(batch1)",
        );
        measure(
            16,
            "stream/latency_p50(batch16)",
            "stream/latency_p99(batch16)",
        );
        measure(
            256,
            "stream/latency_p50(batch256)",
            "stream/latency_p99(batch256)",
        );

        // Durable-ingest overhead: the same flip/flop pipeline with a
        // write-ahead log behind it. The fsync-per-commit policy pays
        // stable storage on every epoch; the 16-epoch group commit
        // amortizes the fsync so its per-iter cost is mostly the frame
        // encode + buffered write — the gap between the two samples is
        // the price of the strictest durability contract.
        let wal_dir = TempDir::new("gfd-bench-wal").unwrap();
        for (name, file, policy) in [
            (
                "stream/durable_ingest(fsync)",
                "fsync.wal",
                SyncPolicy::EveryEpoch,
            ),
            (
                "stream/durable_ingest(group16)",
                "group16.wal",
                SyncPolicy::EveryN(16),
            ),
        ] {
            let path = wal_dir.file(file);
            let mut svc = ViolationService::with_durable_log(
                sigma.clone(),
                Arc::clone(&gs),
                svc_cfg(),
                &path,
                policy,
            )
            .unwrap();
            bench(name, &mut samples, || {
                let a = svc.ingest(&flip16).expect("attr flips are always valid");
                let b = svc.ingest(&flop16).expect("attr flips are always valid");
                a + b
            });
        }

        // Recovery replay: reopen a 256-epoch log — snapshot decoded,
        // every delta frame reparsed, checksummed, validated and
        // applied. This times the wal layer itself (the detector
        // rebuild on top is plain `detect_violations`, measured by the
        // detect/* samples).
        {
            let path = wal_dir.file("replay.wal");
            let epochs = 256u64;
            let mut w = wal::WalWriter::create(&path, 0, &gs, SyncPolicy::OnDemand).unwrap();
            let mut cur = gs.edit(|_| {});
            for e in 1..=epochs {
                let (next, batch) = record(&cur, 4, e % 2 == 1);
                let delta = batch
                    .into_iter()
                    .reduce(|a, b| a.merge(b))
                    .expect("batches are non-empty");
                w.append(e, &delta, next.vocab()).unwrap();
                cur = next;
            }
            w.sync().unwrap();
            drop(w);
            let (_, _, report) = wal::recover(&path, SyncPolicy::OnDemand).unwrap();
            assert_eq!(report.recovered_epoch, epochs, "the prebuilt log is clean");
            bench("stream/recovery_replay(256 epochs)", &mut samples, || {
                let (_, _, r) = wal::recover(&path, SyncPolicy::OnDemand).unwrap();
                r.recovered_epoch
            });
        }
        let flip = GraphDelta::compact(&flip16).expect("the batch is not empty");
        frames.push(("wal/frame_bytes(16 attr writes)", frame_bytes(&gs, &flip)));
    }

    // Emit the perf-trajectory artifact (hand-rolled JSON: the
    // workspace is dependency-free by necessity).
    // Cargo runs benches with CWD = the package dir; anchor the
    // artifact at the workspace root so the trajectory lives in one
    // place across PRs.
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_graph.json",
            std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into())
        )
    });
    // The file being replaced is the previous run: keep its timing,
    // and its frame bytes, beside the new ones.
    let replaced = std::fs::read_to_string(&path).unwrap_or_default();
    let (previous_ns, previous_bytes) = (
        previous(&replaced, "ns_per_iter"),
        previous(&replaced, "frame_bytes"),
    );
    let mut rows = Vec::new();
    for s in &samples {
        let prev = match previous_ns.get(s.name) {
            Some(ns) => format!("\"prev_ns_per_iter\": {ns}, "),
            None => String::new(),
        };
        rows.push(format!(
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, {prev}\"iters\": {}, \"allocs_per_iter\": {:.2}}}",
            s.name, s.ns_per_iter, s.iters, s.allocs_per_iter,
        ));
    }
    for &(name, bytes) in &frames {
        println!("{name:<44} {bytes:>14} B/frame");
        let prev = match previous_bytes.get(name) {
            Some(b) => format!(", \"prev_frame_bytes\": {b}"),
            None => String::new(),
        };
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"frame_bytes\": {bytes}{prev}}}"
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"reasoning_micro\",\n  \"samples\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
