//! Ablation of the individual design choices `ROADMAP.md`'s
//! Architecture section calls out for the parallel algorithms,
//! each toggled separately at `n = 16` on the DBpedia stand-in:
//!
//! * multi-query processing (appendix, \[31\]): units enumerate through
//!   the run's shared class spaces and plans, or search the raw graph
//!   — rules sharing a pattern class are grouped either way;
//! * per-unit evaluation-scheme choice in `disVal` (prefetch/partial);
//! * replicate-and-split for skewed blocks;
//! * workload reduction via implication (reported with its semantics
//!   caveat: it may reduce the *reported* violation list);
//! * pivot-feasibility pruning during workload estimation.

use gfd_bench::{banner, dataset, measure, rules, DEFAULT_SCALE};
use gfd_core::implication::minimize;
use gfd_datagen::RealLifeKind;
use gfd_graph::{Fragmentation, PartitionStrategy};
use gfd_parallel::{dis_val, rep_val, DisValConfig, ParallelReport, RepValConfig, WorkloadOptions};

fn main() {
    banner("Ablation", "each optimization toggled separately (n = 16)");
    let n = 16;
    let g = dataset(RealLifeKind::DBpedia, DEFAULT_SCALE);
    let sigma = rules(&g, 50, 5);
    let frag = Fragmentation::partition(&g, n, PartitionStrategy::BfsClustered);

    println!("\n### repVal ablations");
    println!("variant\ttime(s)\tunits\tcache hits\tviolations");
    let base = measure(|| rep_val(&sigma, &g, &RepValConfig::val(n)));
    let report = |label: &str, r: &ParallelReport| {
        println!(
            "{label}\t{:.4}\t{}\t{}\t{}",
            r.total_seconds(),
            r.units,
            r.cache_hits,
            r.violations.len()
        );
    };
    report("repVal (all on)", &base);
    let no_mq = measure(|| {
        rep_val(
            &sigma,
            &g,
            &RepValConfig {
                multi_query: false,
                ..RepValConfig::val(n)
            },
        )
    });
    report("− multi-query", &no_mq);
    let with_reduce = measure(|| {
        // Implication analysis is NP-complete: reduce only a Σ of at
        // most 64 rules, so reasoning never eats into detection time.
        let start = std::time::Instant::now();
        let reduced = if sigma.len() <= 64 {
            minimize(&sigma)
        } else {
            sigma.clone()
        };
        let reduce_seconds = start.elapsed().as_secs_f64();
        ParallelReport {
            reduce_seconds,
            ..rep_val(&reduced, &g, &RepValConfig::val(n))
        }
    });
    report("+ workload reduction*", &with_reduce);
    let with_split = measure(|| rep_val(&sigma, &g, &RepValConfig::val(n).with_split(64)));
    report("+ split θ=64", &with_split);
    let no_prune = measure(|| {
        rep_val(
            &sigma,
            &g,
            &RepValConfig {
                workload: WorkloadOptions {
                    prune_empty_pivots: false,
                },
                ..RepValConfig::val(n)
            },
        )
    });
    report("− pivot pruning", &no_prune);

    println!("\n### disVal ablations");
    println!("variant\ttime(s)\tcomm(s)\tKiB shipped\tviolations");
    let dreport = |label: &str, r: &ParallelReport| {
        println!(
            "{label}\t{:.4}\t{:.4}\t{:.1}\t{}",
            r.total_seconds(),
            r.comm_seconds,
            r.bytes_shipped as f64 / 1024.0,
            r.violations.len()
        );
    };
    let dbase = measure(|| dis_val(&sigma, &g, &frag, &DisValConfig::val(n)));
    dreport("disVal (all on)", &dbase);
    let no_scheme = measure(|| {
        dis_val(
            &sigma,
            &g,
            &frag,
            &DisValConfig {
                scheme_choice: false,
                ..DisValConfig::val(n)
            },
        )
    });
    dreport("− scheme choice", &no_scheme);
    let no_mq_d = measure(|| {
        dis_val(
            &sigma,
            &g,
            &frag,
            &DisValConfig {
                multi_query: false,
                ..DisValConfig::val(n)
            },
        )
    });
    dreport("− multi-query", &no_mq_d);
    let hash_frag = Fragmentation::partition(&g, n, PartitionStrategy::Hash);
    let bad_part = measure(|| dis_val(&sigma, &g, &hash_frag, &DisValConfig::val(n)));
    dreport("hash partitioning", &bad_part);

    println!("\n# *workload reduction may drop implied rules; its violation list covers surviving rules only");
    assert_eq!(base.violations, no_mq.violations);
    assert_eq!(base.violations, with_split.violations);
    assert_eq!(base.violations, no_prune.violations);
    assert_eq!(dbase.violations, no_scheme.violations);
    assert_eq!(dbase.violations, no_mq_d.violations);
    assert_eq!(dbase.violations, bad_part.violations);
    println!("# all exact variants report identical violations");
}
