//! # gfd-bench — harness regenerating every table and figure of §7
//!
//! One binary per paper artifact — this table is the index; the
//! workspace around it is `ROADMAP.md`'s Architecture section:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig5_scalability` | Fig. 5(a)(b)(c) — time vs `n`, 6 algorithms, 3 graphs |
//! | `fig5_vary_sigma` | Fig. 5(d)(f)(h) — time vs `‖Σ‖` |
//! | `fig5_vary_q` | Fig. 5(e)(g)(i) — time vs `|Q|` |
//! | `fig5_communication` | Fig. 5(j)(k)(l) — communication time vs `n` |
//! | `fig6_scale_g` | Fig. 6 — time vs `|G|` on synthetic graphs |
//! | `fig7_real_gfds` | Fig. 7 — the three real-life GFDs and their catches |
//! | `fig8_skew` | Fig. 8 — time vs skew, replicate-and-split ablation |
//! | `fig9_accuracy` | Fig. 9 — recall/precision/time vs GCFD and BigDansing-style baselines |
//! | `exp1_summary` | Exp-1 headline numbers (speedups, optimization gains) |
//! | `ablation_opt` | ablations: each optimization toggled separately |
//!
//! All binaries print machine-readable tables (TSV-ish) whose rows are
//! the series the paper plots. Graph sizes are scaled (the stand-ins
//! of `gfd_datagen::reallife`); series *shapes* — who wins, scaling
//! trends, crossovers — are the reproduction target, not absolute
//! seconds.

use std::sync::Arc;

use gfd_core::GfdSet;
use gfd_datagen::{mine_gfds, reallife_graph, RealLifeConfig, RealLifeKind, RuleGenConfig};
use gfd_graph::{Edge, Fragmentation, Graph, NodeId, PartitionStrategy};
use gfd_parallel::{dis_val, rep_val, DisValConfig, ParallelReport, RepValConfig};

/// The three real-life stand-in datasets of §7.
pub const DATASETS: [(&str, RealLifeKind); 3] = [
    ("DBpedia", RealLifeKind::DBpedia),
    ("YAGO2", RealLifeKind::Yago2),
    ("Pokec", RealLifeKind::Pokec),
];

/// Default stand-in scale for the Fig. 5 experiments.
pub const DEFAULT_SCALE: f64 = 0.25;

/// The paper's processor counts.
pub const PROCESSOR_COUNTS: [usize; 5] = [4, 8, 12, 16, 20];

/// Builds a stand-in graph, frozen and ready to share across workers.
pub fn dataset(kind: RealLifeKind, scale: f64) -> Arc<Graph> {
    Arc::new(reallife_graph(&RealLifeConfig {
        kind,
        scale,
        seed: 0xBEEF,
    }))
}

/// Mines a rule set with the §7 knobs (`‖Σ‖`, `|Q|`).
pub fn rules(g: &Graph, count: usize, pattern_nodes: usize) -> GfdSet {
    mine_gfds(
        g,
        &RuleGenConfig {
            count,
            pattern_nodes,
            two_component_fraction: 0.3,
            max_pivot_extent: 150,
            seed: 0xACE,
        },
    )
}

/// One measured cell: algorithm name and simulated seconds.
pub struct Cell {
    /// Series name (`repVal`, `disnop`, …).
    pub algo: &'static str,
    /// The full report.
    pub report: ParallelReport,
}

/// Number of repetitions per cell (the paper averages 5 runs; we take
/// the minimum of `GFD_BENCH_RUNS`, default 2, which is the stabler
/// statistic for wall-clock-derived simulated times).
pub fn bench_runs() -> usize {
    std::env::var("GFD_BENCH_RUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Runs `f` [`bench_runs`] times and keeps the report with the lowest
/// simulated total time.
pub fn measure(mut f: impl FnMut() -> ParallelReport) -> ParallelReport {
    let mut best = f();
    for _ in 1..bench_runs() {
        let r = f();
        if r.total_seconds() < best.total_seconds() {
            best = r;
        }
    }
    best
}

/// Runs the three `rep*` algorithms at `n` processors.
pub fn run_rep_family(sigma: &GfdSet, g: &Arc<Graph>, n: usize) -> Vec<Cell> {
    vec![
        Cell {
            algo: "repnop",
            report: measure(|| rep_val(sigma, g, &RepValConfig::nop(n))),
        },
        Cell {
            algo: "repran",
            report: measure(|| rep_val(sigma, g, &RepValConfig::ran(n, 0x5EED))),
        },
        Cell {
            algo: "repVal",
            report: measure(|| rep_val(sigma, g, &RepValConfig::val(n))),
        },
    ]
}

/// Runs the three `dis*` algorithms at `n` processors on a BFS-
/// clustered fragmentation (the realistic partitioning).
pub fn run_dis_family(sigma: &GfdSet, g: &Arc<Graph>, n: usize) -> Vec<Cell> {
    let frag = Fragmentation::partition(g, n, PartitionStrategy::BfsClustered);
    vec![
        Cell {
            algo: "disnop",
            report: measure(|| dis_val(sigma, g, &frag, &DisValConfig::nop(n))),
        },
        Cell {
            algo: "disran",
            report: measure(|| dis_val(sigma, g, &frag, &DisValConfig::ran(n, 0x5EED))),
        },
        Cell {
            algo: "disVal",
            report: measure(|| dis_val(sigma, g, &frag, &DisValConfig::val(n))),
        },
    ]
}

/// All six algorithms of Fig. 5.
pub fn run_all_algorithms(sigma: &GfdSet, g: &Arc<Graph>, n: usize) -> Vec<Cell> {
    let mut cells = run_rep_family(sigma, g, n);
    cells.extend(run_dis_family(sigma, g, n));
    cells
}

/// Prints a figure table: one row per x value, one column per series.
pub fn print_table(title: &str, x_name: &str, xs: &[String], series: &[(&str, Vec<f64>)]) {
    println!("\n### {title}");
    print!("{x_name}");
    for (name, _) in series {
        print!("\t{name}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x}");
        for (_, vals) in series {
            print!("\t{:.4}", vals[i]);
        }
        println!();
    }
}

/// The write the paged snapshot is worst placed for, as the
/// allocation gate and the microbench both aim it: the node of the
/// highest in-degree, and an absent edge whose destination shares that
/// hub's 64-node page (the page-mate with the shortest in-run, so the
/// edge touches no long run itself) and whose source lies in the upper
/// half of the id range, away from the hubs.
pub fn edge_beside_hub(g: &Graph) -> (NodeId, Edge) {
    let hub = (g.nodes().max_by_key(|&u| g.in_degree(u))).expect("the graph has nodes");
    let dst = (hub.0 & !63..=hub.0 | 63)
        .map(NodeId)
        .filter(|&u| u != hub && u.index() < g.node_count())
        .min_by_key(|&u| g.in_degree(u))
        .expect("the hub has a page-mate");
    let label = g.edges().next().expect("the graph has edges").label;
    let edge = (g.node_count() / 2..g.node_count())
        .map(|src| Edge {
            src: NodeId(src as u32),
            dst,
            label,
        })
        .find(|e| !g.has_edge(e.src, e.dst, e.label))
        .expect("an absent edge exists");
    (hub, edge)
}

/// Pretty banner for a figure binary.
pub fn banner(fig: &str, what: &str) {
    println!("==============================================================");
    println!("{fig} — {what}");
    println!("(scaled reproduction; see ROADMAP.md, Architecture, and crates/bench/src/lib.rs)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_and_rules_build() {
        let g = dataset(RealLifeKind::Yago2, 0.05);
        assert!(g.node_count() > 100);
        let sigma = rules(&g, 5, 3);
        assert_eq!(sigma.len(), 5);
    }

    #[test]
    fn all_six_algorithms_run_and_agree() {
        let g = dataset(RealLifeKind::Yago2, 0.05);
        let sigma = rules(&g, 4, 3);
        let cells = run_all_algorithms(&sigma, &g, 3);
        assert_eq!(cells.len(), 6);
        let reference = &cells[0].report.violations;
        for c in &cells[1..] {
            assert_eq!(&c.report.violations, reference, "{} disagrees", c.algo);
        }
    }
}
