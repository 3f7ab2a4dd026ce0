//! Idle workers exit: once the unit loop's cursor passes the last unit,
//! a worker with nothing to claim returns instead of waiting on its
//! siblings. Two units that each straggle on four threads then cost
//! the process almost no CPU, however long the stragglers sleep.
//!
//! The measurement is the process's own utime + stime from
//! `/proc/self/stat`, so this file holds one test and runs in a process
//! of its own.
#![cfg(target_os = "linux")]

// The kit's edit model serves the service suites; this test reads only
// its graph and rules.
#[allow(dead_code)]
mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{rules, social};
use gfd_parallel::workload::plan_rules;
use gfd_parallel::{
    estimate_workload, run_units_threaded_report, ClassRegistry, FaultPlan, WorkloadOptions,
};

/// The process's user + system CPU time, in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name is parenthesised and may hold spaces; utime and
    // stime are fields 14 and 15, the 12th and 13th after it.
    let after_name = &stat[stat.rfind(')').unwrap() + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn idle_workers_exit_while_stragglers_sleep() {
    let g = Arc::new(social(200));
    let sigma = rules(g.vocab().clone());
    let plan = plan_rules(&sigma);
    let wl = estimate_workload(&sigma, &g, &WorkloadOptions::default());
    let units = &wl.units[..2];
    let run = |faults: Option<&FaultPlan>| {
        let registry = ClassRegistry::new();
        run_units_threaded_report(&g, &sigma, &plan, units, &wl.slots, &registry, 4, faults, 0)
    };
    let expected = run(None);

    let straggle = FaultPlan {
        straggle_p: 1.0,
        straggle: Duration::from_millis(300),
        ..FaultPlan::default()
    };
    let before = cpu_ticks();
    let report = run(Some(&straggle));
    let ticks = cpu_ticks() - before;

    assert_eq!(report.violations, expected.violations);
    assert!(report.quarantined.is_empty());
    // 10 ticks is 100 ms at the usual 100 Hz: a third of one
    // straggler's sleep, where two workers spinning through both
    // sleeps would burn several times that.
    assert!(ticks < 10, "{ticks} CPU ticks while two units slept 300 ms");
}
