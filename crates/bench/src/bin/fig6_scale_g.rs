//! Fig. 6: scalability with `|G|` on synthetic graphs — simulated
//! time for the `dis*` family as the graph grows, `n = 16`.
//!
//! The paper sweeps (10M,20M) → (50M,100M) nodes/edges; we sweep the
//! same 1:2 node:edge shape at 1:100 scale, (100k,200k) → (500k,1M)
//! (the bin table in `crates/bench/src/lib.rs` indexes the figures).
//! The sequential `detVio` is also attempted with a step budget,
//! mirroring the paper's observation that it does not complete at
//! scale.

use gfd_bench::{banner, measure, print_table};
use gfd_core::validate::detect_violations_budgeted;
use gfd_datagen::{mine_gfds, synthetic_graph, RuleGenConfig, SynthConfig};
use gfd_graph::{Fragmentation, PartitionStrategy};
use gfd_match::SearchBudget;
use gfd_parallel::{dis_val, DisValConfig};

fn main() {
    banner(
        "Fig. 6",
        "time vs |G| on synthetic graphs (dis* family, n = 16)",
    );
    let n = 16;
    let mut series: Vec<(&str, Vec<f64>)> =
        vec![("disnop", vec![]), ("disran", vec![]), ("disVal", vec![])];
    let mut xs = Vec::new();
    for nodes in [100_000usize, 200_000, 300_000, 400_000, 500_000] {
        // |E| = 2|V| as in the paper. Rules are the mined seed
        // features themselves (2-node patterns): on uniformly random
        // synthetic edges, composite features are vanishingly
        // selective, and the paper's point here is workload growth
        // with |G|, which frequent features deliver.
        let g = std::sync::Arc::new(synthetic_graph(&SynthConfig::sized(nodes, 0xF00D)));
        let sigma = mine_gfds(
            &g,
            &RuleGenConfig {
                count: 20,
                pattern_nodes: 2,
                two_component_fraction: 0.2,
                max_pivot_extent: 400,
                seed: 0xACE,
            },
        );
        xs.push(format!("({}k,{}k)", nodes / 1000, 2 * nodes / 1000));
        let frag = Fragmentation::partition(&g, n, PartitionStrategy::BfsClustered);
        let cells = [
            ("disnop", DisValConfig::nop(n)),
            ("disran", DisValConfig::ran(n, 0x5EED)),
            ("disVal", DisValConfig::val(n)),
        ];
        for (algo, cfg) in cells {
            let report = measure(|| dis_val(&sigma, &g, &frag, &cfg));
            let entry = series.iter_mut().find(|(a, _)| *a == algo).unwrap();
            entry.1.push(report.total_seconds());
            eprintln!(
                "[{}] {algo}: {:.3}s ({} units, {} violations)",
                xs.last().unwrap(),
                report.total_seconds(),
                report.units,
                report.violations.len()
            );
        }
    }
    print_table("Fig 6 — Varying |G| (synthetic)", "|G|", &xs, &series);

    // detVio with a budget on the largest graph (the paper: does not
    // run to completion at (30M,60M) within 120 min).
    let g = synthetic_graph(&SynthConfig::sized(500_000, 0xF00D));
    let sigma = mine_gfds(
        &g,
        &RuleGenConfig {
            count: 20,
            pattern_nodes: 2,
            two_component_fraction: 0.2,
            max_pivot_extent: 400,
            seed: 0xACE,
        },
    );
    let t0 = std::time::Instant::now();
    let (_, complete) = detect_violations_budgeted(
        &sigma,
        &g,
        SearchBudget {
            max_matches: None,
            max_steps: Some(50_000_000),
        },
    );
    println!(
        "# detVio on the largest graph: complete={complete} within the step budget ({:.1}s wall)",
        t0.elapsed().as_secs_f64()
    );
}
