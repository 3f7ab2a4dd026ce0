//! The allocation gate: compares `allocs_per_iter` by sample name
//! between a baseline microbench file and a fresh one, both written by
//! `reasoning_micro` (one sample per line).
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json>
//! ```
//!
//! Prints every row whose allocation count moved, every baseline row
//! the fresh file lacks and every fresh row the baseline lacks, then a
//! summary line. Exits non-zero when a row grew or a baseline row is
//! missing; a row that fell, or a new row, passes. The committed
//! baseline is `BENCH_smoke.json`, regenerated with
//! `BENCH_SMOKE=1 BENCH_JSON_PATH=$PWD/BENCH_smoke.json cargo bench -p gfd-bench`:
//! a smoke run and a full run spread one-off allocations over different
//! iteration counts, so only runs of one kind compare.

use std::process::ExitCode;

/// `(name, allocs_per_iter)` of every sample line, in file order.
fn allocs_per_iter(json: &str) -> Vec<(&str, &str)> {
    json.lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once("\"name\": \"")?;
            let (name, rest) = rest.split_once("\", ")?;
            let (_, rest) = rest.split_once("\"allocs_per_iter\": ")?;
            let allocs = rest.trim_end_matches([',', ' ']).trim_end_matches('}');
            Some((name, allocs))
        })
        .collect()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: cannot read {path}: {e}");
        std::process::exit(2)
    })
}

fn number(path: &str, name: &str, raw: &str) -> f64 {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("bench_compare: {path}: {name}: allocs_per_iter {raw:?} is not a number");
        std::process::exit(2)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (base_json, fresh_json) = (read(base_path), read(fresh_path));
    let (base, fresh) = (allocs_per_iter(&base_json), allocs_per_iter(&fresh_json));
    if base.is_empty() {
        eprintln!("bench_compare: {base_path} holds no samples");
        return ExitCode::from(2);
    }
    let find = |rows: &[(&str, &str)], name: &str| {
        let row = rows.iter().find(|(n, _)| *n == name);
        row.map(|&(_, allocs)| allocs.to_owned())
    };
    let (mut grew, mut fell, mut missing) = (0, 0, 0);
    for &(name, raw) in &base {
        let was = number(base_path, name, raw);
        let Some(now_raw) = find(&fresh, name) else {
            println!("MISSING {name:<48} {was:>10.2} -> (absent)");
            missing += 1;
            continue;
        };
        let now = number(fresh_path, name, &now_raw);
        if now > was {
            println!("GREW    {name:<48} {was:>10.2} -> {now:.2}");
            grew += 1;
        } else if now < was {
            println!("fell    {name:<48} {was:>10.2} -> {now:.2}");
            fell += 1;
        }
    }
    for &(name, raw) in &fresh {
        if find(&base, name).is_none() {
            println!("new     {name:<48} {:>10} -> {raw}", "");
        }
    }
    println!(
        "# {} baseline rows: {grew} grew, {fell} fell, {missing} missing",
        base.len()
    );
    if grew + missing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
