//! The figures of §7, one function each, in §7 order in [`FIGURES`].
//! Every function takes the run's [`Cells`] table; the figures outside
//! Fig. 5, Exp-1 and the ablation build what they measure themselves.

use std::sync::Arc;

use gfd_core::implication::minimize;
use gfd_core::validate::{detect_violations, detect_violations_budgeted};
use gfd_core::{Dependency, Gfd, GfdSet, Literal};
use gfd_datagen::{mine_gfds, synthetic_graph, RuleGenConfig, SynthConfig};
use gfd_graph::neighborhood::skew_ratio;
use gfd_graph::{Fragmentation, Graph, GraphBuilder, PartitionStrategy, Value, Vocab};
use gfd_match::SearchBudget;
use gfd_parallel::workload::{estimate_workload, WorkloadOptions};
use gfd_parallel::{dis_val, rep_val, DisValConfig, ParallelReport, RepValConfig};
use gfd_pattern::PatternBuilder;

pub use crate::accuracy::fig9_accuracy;
use crate::{banner, measure, pick, print_table, run_dis_family, Cell, Cells, Series};
use crate::{DATASETS, PROCESSOR_COUNTS};

/// A figure: its name on the `figures` command line and its function.
pub type Figure = (&'static str, fn(&mut Cells));

/// Every figure of §7, in §7 order.
pub const FIGURES: [Figure; 10] = [
    ("fig5_scalability", fig5_scalability),
    ("fig5_vary_sigma", fig5_vary_sigma),
    ("fig5_vary_q", fig5_vary_q),
    ("fig5_communication", fig5_communication),
    ("fig6_scale_g", fig6_scale_g),
    ("fig7_real_gfds", fig7_real_gfds),
    ("fig8_skew", fig8_skew),
    ("fig9_accuracy", fig9_accuracy),
    ("exp1_summary", exp1_summary),
    ("ablation_opt", ablation_opt),
];

/// Every Fig. 5 cell's total simulated time.
fn total(cell: &Cell) -> Option<f64> {
    Some(cell.report.total_seconds())
}

/// Fig. 5(a)(b)(c): parallel scalability — simulated time vs number of
/// processors `n ∈ {4..20}` for all six algorithms on the three
/// real-life stand-ins. Fixed `‖Σ‖ = 50`, `|Q| = 5` as in Exp-1. The
/// speedups are printed, not asserted, so partial runs still emit data.
pub fn fig5_scalability(cells: &mut Cells) {
    banner("Fig. 5(a)(b)(c)", "time vs n, six algorithms, three graphs");
    for (name, _) in DATASETS {
        let s = cells.sweep(name, &PROCESSOR_COUNTS, |n| (50, 5, n), total);
        print_table(
            &format!("Fig 5 — Varying n ({name})"),
            "n",
            &PROCESSOR_COUNTS,
            &s,
        );
        let (rep, dis) = (1.0 / s.growth("repVal"), 1.0 / s.growth("disVal"));
        println!("# speedup 4→20: repVal {rep:.2}x, disVal {dis:.2}x (paper: 3.7x / 2.4x avg)");
    }
}

/// Fig. 5(d)(f)(h): impact of the number of rules — simulated time vs
/// `‖Σ‖ ∈ {50..100}` at fixed `|Q| = 5`, `n = 16`, for all six
/// algorithms on the three stand-ins.
pub fn fig5_vary_sigma(cells: &mut Cells) {
    banner("Fig. 5(d)(f)(h)", "time vs ‖Σ‖ at n = 16, |Q| = 5");
    let counts = [50, 60, 70, 80, 90, 100];
    for (name, _) in DATASETS {
        let s = cells.sweep(name, &counts, |count| (count, 5, 16), total);
        print_table(
            &format!("Fig 5 — Varying ‖Σ‖ ({name})"),
            "sigma",
            &counts,
            &s,
        );
        let (rep, dis) = (s.growth("repVal"), s.growth("disVal"));
        println!("# growth 50→100 rules: repVal {rep:.2}x, disVal {dis:.2}x (expected: roughly linear up)");
    }
}

/// Fig. 5(e)(g)(i): impact of pattern size — simulated time vs
/// `|Q| ∈ {2..6}` at fixed `‖Σ‖ = 50`, `n = 16`, for all six
/// algorithms on the three stand-ins. Larger patterns mean larger
/// radii and hence larger work units.
pub fn fig5_vary_q(cells: &mut Cells) {
    banner("Fig. 5(e)(g)(i)", "time vs |Q| at n = 16, ‖Σ‖ = 50");
    let sizes = [2, 3, 4, 5, 6];
    for (name, _) in DATASETS {
        let s = cells.sweep(name, &sizes, |q| (50, q, 16), total);
        print_table(&format!("Fig 5 — Varying |Q| ({name})"), "q", &sizes, &s);
        let (rep, dis) = (s.growth("repVal"), s.growth("disVal"));
        println!(
            "# growth |Q| 2→6: repVal {rep:.2}x, disVal {dis:.2}x (expected: up, superlinear)"
        );
    }
}

/// A Fig. 5(j)(k)(l) table: what it plots, its unit, and the value.
type Column = (&'static str, &'static str, fn(&ParallelReport) -> f64);

/// Fig. 5(j)(k)(l): communication cost — simulated *communication
/// time* (parallel data shipment) vs `n` for the `dis*` family on the
/// three stand-ins (`rep*` ships no graph data and is omitted, as in
/// the paper). Also reports total bytes shipped and the communication
/// share of total time (the paper observes 12–24%).
pub fn fig5_communication(cells: &mut Cells) {
    banner("Fig. 5(j)(k)(l)", "communication time vs n (dis* family)");
    let tables: [Column; 3] = [
        ("Communication time vs n", "seconds", |r| r.comm_seconds),
        ("Data shipped vs n", "KiB", |r| {
            r.bytes_shipped as f64 / 1024.0
        }),
        ("Communication share of total", "fraction", |r| {
            r.comm_seconds / r.total_seconds().max(1e-12)
        }),
    ];
    for (name, _) in DATASETS {
        for (what, unit, f) in tables {
            let dis = |c: &Cell| c.algo.starts_with("dis").then(|| f(&c.report));
            let s = cells.sweep(name, &PROCESSOR_COUNTS, |n| (50, 5, n), dis);
            let title = format!("Fig 5 — {what} ({name}) [{unit}]");
            print_table(&title, "n", &PROCESSOR_COUNTS, &s);
        }
    }
}

/// Fig. 6 and Fig. 8's rules: the mined seed features themselves
/// (2-node patterns). On uniformly random synthetic edges composite
/// features are vanishingly selective, and the point of both figures
/// is workload growth, which frequent features deliver.
fn synthetic_rules(g: &Graph) -> GfdSet {
    mine_gfds(
        g,
        &RuleGenConfig {
            count: 20,
            pattern_nodes: 2,
            two_component_fraction: 0.2,
            max_pivot_extent: 400,
            seed: 0xACE,
        },
    )
}

/// Measures the `dis*` family on one synthetic graph into `series`,
/// with each cell's breakdown on stderr.
fn dis_column(series: &mut Series, x: &str, sigma: &GfdSet, g: &Arc<Graph>, val: DisValConfig) {
    for cell in run_dis_family(sigma, g, val) {
        let r = &cell.report;
        series.push(cell.algo, r.total_seconds());
        eprintln!(
            "[{x}] {}: {:.4}s (units {}, est {:.4}, part {:.4}, comp {:.4}, comm {:.4}, imb {:.2}, {} violations)",
            cell.algo,
            r.total_seconds(),
            r.units,
            r.estimation_seconds,
            r.partition_seconds,
            r.compute_seconds,
            r.comm_seconds,
            r.imbalance(),
            r.violations.len()
        );
    }
}

/// Fig. 6: scalability with `|G|` on synthetic graphs — simulated
/// time for the `dis*` family as the graph grows, `n = 16`.
///
/// The paper sweeps (10M,20M) → (50M,100M) nodes/edges; we sweep the
/// same 1:2 node:edge shape at 1:100 scale, (100k,200k) → (500k,1M).
/// The sequential `detVio` is also attempted with a step budget on the
/// largest graph, mirroring the paper's observation that it does not
/// complete at scale (30M,60M) within 120 min.
pub fn fig6_scale_g(_: &mut Cells) {
    banner(
        "Fig. 6",
        "time vs |G| on synthetic graphs (dis* family, n = 16)",
    );
    let mut series = Series::default();
    let mut xs = Vec::new();
    let mut largest = None;
    for nodes in [100_000usize, 200_000, 300_000, 400_000, 500_000] {
        let g = Arc::new(synthetic_graph(&SynthConfig::sized(nodes, 0xF00D)));
        let sigma = synthetic_rules(&g);
        let x = format!("({}k,{}k)", nodes / 1000, 2 * nodes / 1000);
        dis_column(&mut series, &x, &sigma, &g, DisValConfig::val(16));
        xs.push(x);
        largest = Some((g, sigma));
    }
    print_table("Fig 6 — Varying |G| (synthetic)", "|G|", &xs, &series);
    let (g, sigma) = largest.expect("a swept graph");
    let t0 = std::time::Instant::now();
    let budget = SearchBudget {
        max_steps: Some(50_000_000),
    };
    let (_, complete) = detect_violations_budgeted(&sigma, &g, budget);
    println!(
        "# detVio on the largest graph: complete={complete} within the step budget ({:.1}s wall)",
        t0.elapsed().as_secs_f64()
    );
}

/// Fig. 7: the three real-life GFDs and the inconsistencies they
/// catch, reproduced on curated graph snippets (same fixtures as the
/// `knowledge_graph_cleaning` example, reported as a table).
pub fn fig7_real_gfds(_: &mut Cells) {
    banner("Fig. 7", "three real-life GFDs and their catches");
    let vocab = Vocab::shared();
    let val = vocab.intern("val");
    let mut g = GraphBuilder::new(vocab.clone());

    // YAGO2-style child/parent cycle.
    let anna = g.add_node_labeled("person");
    let boris = g.add_node_labeled("person");
    g.set_attr_named(anna, "val", Value::str("Anna"));
    g.set_attr_named(boris, "val", Value::str("Boris"));
    g.add_edge_labeled(anna, boris, "hasChild");
    g.add_edge_labeled(boris, anna, "hasChild");

    // DBpedia-style disjoint-type clash.
    let thing = g.add_node_labeled("entity");
    let tp = g.add_node_labeled("type");
    let tb = g.add_node_labeled("type");
    g.set_attr_named(tp, "val", Value::str("Person"));
    g.set_attr_named(tb, "val", Value::str("Building"));
    g.add_edge_labeled(thing, tp, "type_of");
    g.add_edge_labeled(thing, tb, "type_of");
    g.add_edge_labeled(tp, tb, "disjoint");

    // YAGO2-style NYC mayor whose party sits in another country.
    let mayor = g.add_node_labeled("person");
    let nyc = g.add_node_labeled("city");
    let party = g.add_node_labeled("party");
    let usa = g.add_node_labeled("country");
    let uk = g.add_node_labeled("country");
    g.set_attr_named(usa, "val", Value::str("USA"));
    g.set_attr_named(uk, "val", Value::str("UK"));
    g.add_edge_labeled(mayor, nyc, "mayor_of");
    g.add_edge_labeled(mayor, party, "affiliated");
    g.add_edge_labeled(nyc, usa, "in_country");
    g.add_edge_labeled(party, uk, "in_country");

    // GFD 1: (Q10[x,y], ∅ → x.val = c ∧ y.val = d), c ≠ d (denial).
    let gfd1 = {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "person");
        let y = b.node("y", "person");
        b.edge(x, y, "hasChild");
        b.edge(y, x, "hasChild");
        Gfd::new(
            "GFD1 (cyclic pattern, not expressible as GCFD/CFD/DC)",
            b.build(),
            Dependency::always(vec![
                Literal::const_eq(x, val, "__c"),
                Literal::const_eq(y, val, "__d"),
            ]),
        )
    };
    // GFD 2: (Q11, ∅ → y.val = y'.val) over disjoint types.
    let gfd2 = {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.wildcard_node("x");
        let y = b.node("y", "type");
        let y2 = b.node("y2", "type");
        b.edge(x, y, "type_of");
        b.edge(x, y2, "type_of");
        b.edge(y, y2, "disjoint");
        Gfd::new(
            "GFD2 (wildcard entity, disjoint types)",
            b.build(),
            Dependency::always(vec![Literal::var_eq(y, val, y2, val)]),
        )
    };
    // GFD 3: (Q12, ∅ → z.val = z'.val), mayor/party country agreement.
    let gfd3 = {
        let mut b = PatternBuilder::new(vocab.clone());
        let x = b.node("x", "person");
        let c = b.node("c", "city");
        let p = b.node("p", "party");
        let z = b.node("z", "country");
        let z2 = b.node("z2", "country");
        b.edge(x, c, "mayor_of");
        b.edge(x, p, "affiliated");
        b.edge(c, z, "in_country");
        b.edge(p, z2, "in_country");
        Gfd::new(
            "GFD3 (cross-branch id test, not expressible as GCFD)",
            b.build(),
            Dependency::always(vec![Literal::var_eq(z, val, z2, val)]),
        )
    };

    let g = g.freeze();
    let sigma = GfdSet::new(vec![gfd1, gfd2, gfd3]);
    let violations = detect_violations(&sigma, &g);

    println!("\n### Fig 7 — real-life GFDs");
    println!("rule\tviolating matches\tGCFD-expressible");
    for (i, gfd) in sigma.iter().enumerate() {
        let count = violations.iter().filter(|v| v.rule == i).count();
        let expressible = gfd_baselines::expressible_as_gcfd(gfd);
        println!("{}\t{}\t{}", gfd.name, count, expressible);
        assert!(count > 0, "each Fig. 7 rule must catch its planted error");
        assert!(!expressible, "Fig. 7 rules are beyond GCFDs (appendix)");
    }
    println!("# all three planted inconsistencies caught; none expressible as GCFDs");
}

/// Fig. 8: impact of skewed graphs — simulated time for the `dis*`
/// family as the degree distribution gets more skewed, `n = 16`,
/// with `disVal` using the replicate-and-split strategy.
///
/// The paper's skew measure is `|G_dm| / |G_dm'|`: the average size of
/// the 10% smallest d-hop neighborhoods over the 10% largest (smaller
/// = more skewed), swept from 10⁻¹ to 50⁻¹. We control skew via the
/// generator's Zipf exponent, report the measured ratio alongside (to
/// three significant digits: the heavy tail reads below 10⁻⁴), and
/// derive the split threshold θ from the observed workload (≈4× the
/// mean block cost, so only the skewed tail is replicated).
pub fn fig8_skew(_: &mut Cells) {
    banner(
        "Fig. 8",
        "time vs skew (dis* family, n = 16, disVal splits)",
    );
    let mut series = Series::default();
    let mut xs = Vec::new();
    for skew in [0.6f64, 1.0, 1.4, 1.8, 2.2] {
        let g = Arc::new(synthetic_graph(&SynthConfig {
            nodes: 50_000,
            edges: 100_000,
            skew,
            ..Default::default()
        }));
        let ratio = skew_ratio(&g, 2, 500);
        xs.push(format!("{ratio:.2e}"));
        let sigma = synthetic_rules(&g);
        // θ from the observed workload: replicate only the heavy tail.
        let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
        let mean_cost = (wl.total_cost() / wl.units.len().max(1) as u64).max(1);
        let val = DisValConfig::val(16).with_split(4 * mean_cost);
        dis_column(
            &mut series,
            &format!("zipf {skew}, ratio {ratio:.2e}"),
            &sigma,
            &g,
            val,
        );
    }
    print_table(
        "Fig 8 — Varying skew (synthetic; x = measured |Gdm|/|Gdm'| ratio, smaller = more skewed)",
        "skew",
        &xs,
        &series,
    );
    println!(
        "# slowdown mild→heavy skew: disVal {:.2}x vs disran {:.2}x vs disnop {:.2}x (paper: 1.7x vs 2.0x vs 2.2x)",
        series.growth("disVal"),
        series.growth("disran"),
        series.growth("disnop")
    );
}

/// Exp-1 headline numbers (§7 Summary): parallel-scalability speedups
/// from 4 → 20 processors, optimization gains (Val vs nop), and
/// balancing gains (Val vs ran), per dataset — the numbers quoted in
/// the paper's summary ("3.7 and 2.4 times faster…", "1.9 and 1.5
/// times…", "1.4 and 1.3 times…"). Fig. 5(a)'s cells.
pub fn exp1_summary(cells: &mut Cells) {
    banner("Exp-1 summary", "speedups and optimization/balancing gains");
    println!("\ndataset\trep speedup(4→20)\tdis speedup(4→20)\trepVal/repnop\tdisVal/disnop\trepVal/repran\tdisVal/disran");
    let mut agg = [0.0f64; 6];
    for (name, _) in DATASETS {
        let mut at = |n, algo| pick(cells.row(name, 50, 5, n), algo).total_seconds();
        let row = [
            at(4, "repVal") / at(20, "repVal"),
            at(4, "disVal") / at(20, "disVal"),
            at(20, "repnop") / at(20, "repVal"),
            at(20, "disnop") / at(20, "disVal"),
            at(20, "repran") / at(20, "repVal"),
            at(20, "disran") / at(20, "disVal"),
        ];
        println!("{name}{}", row.map(|r| format!("\t{r:.2}x")).concat());
        for (a, r) in agg.iter_mut().zip(row) {
            *a += r / DATASETS.len() as f64;
        }
    }
    println!("AVERAGE{}", agg.map(|r| format!("\t{r:.2}x")).concat());
    println!("# paper averages: 3.7x, 2.4x, 1.9x, 1.5x, 1.4x, 1.3x");
}

/// The ablation's setting: the DBpedia stand-in, `‖Σ‖ = 50`, `|Q| = 5`,
/// `n = 16`.
pub const ABLATION: (&str, usize, usize, usize) = ("DBpedia", 50, 5, 16);

/// Ablation of the individual design choices `ROADMAP.md`'s
/// Architecture section calls out for the parallel algorithms,
/// each toggled separately at `n = 16` on the DBpedia stand-in:
///
/// * multi-query processing (appendix, \[31\]): units enumerate through
///   the run's shared class spaces and plans, or search the raw graph
///   — rules sharing a pattern class are grouped either way;
/// * per-unit evaluation-scheme choice in `disVal` (prefetch/partial);
/// * replicate-and-split for skewed blocks;
/// * workload reduction via implication (reported with its semantics
///   caveat: it may reduce the *reported* violation list);
/// * pivot-feasibility pruning during workload estimation.
///
/// The three baselines — `repVal`, `repVal` without multi-query (which
/// is `repnop`) and `disVal` — are Fig. 5(a)'s `n = 16` cells.
pub fn ablation_opt(cells: &mut Cells) {
    banner("Ablation", "each optimization toggled separately (n = 16)");
    let (dataset, count, q, n) = ABLATION;
    let (g, sigma) = (cells.graph(dataset), cells.sigma(dataset, count, q));
    let row = cells.row(dataset, count, q, n);
    let rep = |edit: fn(&mut RepValConfig)| {
        let mut cfg = RepValConfig::val(n);
        edit(&mut cfg);
        measure(|| rep_val(&sigma, &g, &cfg))
    };
    let dis = |strategy, edit: fn(&mut DisValConfig)| {
        let frag = Fragmentation::partition(&g, n, strategy);
        let mut cfg = DisValConfig::val(n);
        edit(&mut cfg);
        measure(|| dis_val(&sigma, &g, &frag, &cfg))
    };

    println!("\n### repVal ablations");
    println!("variant\ttime(s)\tunits\tcache hits\tviolations");
    let with_reduce = measure(|| {
        // Implication analysis is NP-complete: reduce only a Σ of at
        // most 64 rules, so reasoning never eats into detection time.
        let start = std::time::Instant::now();
        let reduced = if sigma.len() <= 64 {
            minimize(&sigma)
        } else {
            (*sigma).clone()
        };
        let reduce_seconds = start.elapsed().as_secs_f64();
        ParallelReport {
            reduce_seconds,
            ..rep_val(&reduced, &g, &RepValConfig::val(n))
        }
    });
    let with_split = rep(|c| c.split_threshold = Some(64));
    let no_prune = rep(|c| c.workload.prune_empty_pivots = false);
    let base = pick(row, "repVal");
    for (label, r) in [
        ("repVal (all on)", base),
        ("− multi-query", pick(row, "repnop")),
        ("+ workload reduction*", &with_reduce),
        ("+ split θ=64", &with_split),
        ("− pivot pruning", &no_prune),
    ] {
        let (time, units, hits) = (r.total_seconds(), r.units, r.cache_hits);
        println!(
            "{label}\t{time:.2e}\t{units}\t{hits}\t{}",
            r.violations.len()
        );
        assert!(
            label.ends_with('*') || r.violations == base.violations,
            "{label}"
        );
    }

    println!("\n### disVal ablations");
    println!("variant\ttime(s)\tcomm(s)\tKiB shipped\tviolations");
    let bfs = PartitionStrategy::BfsClustered;
    let no_scheme = dis(bfs, |c| c.scheme_choice = false);
    let no_mq = dis(bfs, |c| c.multi_query = false);
    let hash = dis(PartitionStrategy::Hash, |_| {});
    let base = pick(row, "disVal");
    for (label, r) in [
        ("disVal (all on)", base),
        ("− scheme choice", &no_scheme),
        ("− multi-query", &no_mq),
        ("hash partitioning", &hash),
    ] {
        let (time, comm, kib) = (
            r.total_seconds(),
            r.comm_seconds,
            r.bytes_shipped as f64 / 1024.0,
        );
        println!(
            "{label}\t{time:.2e}\t{comm:.2e}\t{kib:.1}\t{}",
            r.violations.len()
        );
        assert!(r.violations == base.violations, "{label}");
    }

    println!("\n# *workload reduction may drop implied rules; its violation list covers surviving rules only");
    println!("# all exact variants report identical violations");
}
