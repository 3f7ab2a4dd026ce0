//! Lifecycle benchmark for the GFD engine: one command runs one
//! workload from a `--seed` through set-up → one-shot detection →
//! durable service start → edit stream → crash → recovery →
//! cross-path verification, and prints every metric by name with its
//! unit. See `benchmark/README.md`.
//!
//! ```text
//! gfd-lifecycle-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                     [--smoke] [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced pass (and,
//! above the result line, the timings it took along the way);
//! `--trace 1` prints the per-layer metrics of a traced pass over the
//! same generated inputs and writes `<out-dir>/<workload>.trace.jsonl`.
//! The last line of standard output is the result as one JSON object.

mod layers;
mod lifecycle;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Counts allocator calls and bytes for the `*_alloc_*` metrics.
#[global_allocator]
static ALLOC: gfd_util::alloc::CountingAlloc = gfd_util::alloc::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload, args.smoke) else {
        eprintln!(
            "error: unknown workload {:?} (one of {})",
            args.workload,
            workloads::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }

    let mut ops = report::Ops::default();
    let (metrics, timings) = if args.trace {
        let layers = layers::run(&spec, args.seed, args.smoke, &args.out_dir, &mut ops);
        (layers, report::Metrics::default())
    } else {
        lifecycle::run(
            &spec,
            args.seed,
            args.smoke,
            args.seconds,
            &args.out_dir,
            &mut ops,
        )
    };

    println!(
        "workload {} seed {} threads {} (available parallelism {})",
        spec.name,
        args.seed,
        lifecycle::THREADS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for m in &metrics.0 {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    if !timings.0.is_empty() {
        println!("timings of this run (not gated; the traced pass reports them per layer):");
        for m in &timings.0 {
            println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
        }
    }
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    println!("{}", report::result_line(&ops, &metrics));
    ExitCode::SUCCESS
}
