//! Runs the figures of §7 named as arguments, or every one in §7 order
//! when none is named:
//!
//! ```text
//! cargo run --release -p gfd-bench --bin figures -- fig5_scalability exp1_summary
//! ```
//!
//! An unknown name exits with status 2 and the list of valid names.
//! Tables go to stdout, diagnostics to stderr; `GFD_BENCH_RUNS` sets
//! the repetitions per cell (see `gfd_bench::bench_runs`).

use gfd_bench::{Cells, DEFAULT_SCALE, FIGURES};

fn main() {
    let mut picked = Vec::new();
    for name in std::env::args().skip(1) {
        match FIGURES.iter().find(|(figure, _)| *figure == name) {
            Some(figure) => picked.push(*figure),
            None => {
                let names = FIGURES.map(|(figure, _)| figure).join(" ");
                eprintln!("unknown figure `{name}`; valid names: {names}");
                std::process::exit(2);
            }
        }
    }
    if picked.is_empty() {
        picked = FIGURES.to_vec();
    }
    let mut cells = Cells::new(DEFAULT_SCALE);
    for (_, run) in picked {
        run(&mut cells);
    }
    eprintln!("[figures] {} Fig. 5 cells measured", cells.measured());
}
