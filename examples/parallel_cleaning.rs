//! The full pipeline at bench scale: generate a YAGO2-shaped graph,
//! mine a GFD rule set from its frequent features, then compare
//! sequential `detVio`, replicated `repVal`, and fragmented `disVal`
//! on the same inputs — the Exp-1 setup of §7 in miniature.
//!
//! Run with: `cargo run --release --example parallel_cleaning`

use gfd::core::validate::detect_violations;
use gfd::datagen::{mine_gfds, reallife_graph, RealLifeConfig, RealLifeKind, RuleGenConfig};
use gfd::graph::{Fragmentation, PartitionStrategy};
use gfd::parallel::unitexec::sort_violations;
use gfd::parallel::{dis_val, rep_val, DisValConfig, RepValConfig};

fn main() {
    // A scaled-down YAGO2 stand-in (ROADMAP.md, Architecture:
    // gfd-datagen), frozen once and shared by every engine through one
    // Arc.
    let g = std::sync::Arc::new(reallife_graph(&RealLifeConfig {
        scale: 0.25,
        ..RealLifeConfig::new(RealLifeKind::Yago2)
    }));
    println!("graph: {} nodes, {} edges", g.node_count(), g.edge_count());

    // Mine Σ from frequent features (the paper's rule generator).
    let sigma = mine_gfds(
        &g,
        &RuleGenConfig {
            count: 12,
            pattern_nodes: 3,
            two_component_fraction: 0.25,
            ..Default::default()
        },
    );
    println!(
        "Σ: {} rules, avg pattern size {:.1}",
        sigma.len(),
        sigma.avg_pattern_size()
    );

    // Sequential baseline.
    let t0 = std::time::Instant::now();
    let mut sequential = detect_violations(&sigma, &g);
    let seq_time = t0.elapsed().as_secs_f64();
    sort_violations(&mut sequential);
    println!(
        "detVio (sequential): {} violations in {:.3}s",
        sequential.len(),
        seq_time
    );

    // repVal on 2..8 virtual processors.
    for n in [2usize, 4, 8] {
        let report = rep_val(&sigma, &g, &RepValConfig::val(n));
        assert_eq!(report.violations, sequential, "repVal must equal detVio");
        println!(
            "repVal  n={n}: {:>6} units, simulated {:.3}s (compute {:.3}s, comm {:.4}s)",
            report.units,
            report.total_seconds(),
            report.compute_seconds,
            report.comm_seconds
        );
    }

    // disVal on a fragmented graph.
    for n in [2usize, 4, 8] {
        let frag = Fragmentation::partition(&g, n, PartitionStrategy::BfsClustered);
        let report = dis_val(&sigma, &g, &frag, &DisValConfig::val(n));
        assert_eq!(report.violations, sequential, "disVal must equal detVio");
        println!(
            "disVal  n={n}: {:>6} units, simulated {:.3}s (compute {:.3}s, comm {:.4}s, {:.1} KB shipped)",
            report.units,
            report.total_seconds(),
            report.compute_seconds,
            report.comm_seconds,
            report.bytes_shipped as f64 / 1024.0
        );
    }
    println!("replicated and fragmented detection agree with the sequential algorithm");
}
