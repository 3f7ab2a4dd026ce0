//! # gfd-util — dependency-free workspace utilities
//!
//! This workspace builds in environments without a crates.io mirror,
//! so the usual suspects (`rand`, `proptest`, `criterion`) are
//! replaced by the minimal in-repo machinery the experiments actually
//! need:
//!
//! * [`rng`] — a seedable SplitMix64 PRNG with the handful of
//!   distribution helpers the data generators use (uniform ranges,
//!   Bernoulli draws, slice choice);
//! * [`prop`] — a tiny property-testing harness: run a property over a
//!   seed range and report the first failing seed so a failure is
//!   reproducible with a one-line test;
//! * [`fxhash`] — a multiply-rotate hasher for hot maps keyed by small
//!   internal tuples (`rustc-hash` stand-in);
//! * [`checksum`] — a 64-bit frame checksum (xxhash-style, full
//!   avalanche), one-shot or streamed, for the durable write-ahead
//!   log's on-disk records;
//! * [`tempdir`] — unique self-cleaning temp directories, so
//!   durable-log tests and benches never accumulate state across runs;
//! * [`alloc`] (feature `count-alloc`, test/bench only) — a counting
//!   `#[global_allocator]` wrapper, so perf probes can assert
//!   zero-allocation hot paths.

#[cfg(feature = "count-alloc")]
pub mod alloc;
pub mod checksum;
pub mod fxhash;
pub mod prop;
pub mod rng;
pub mod tempdir;

pub use checksum::{checksum64, Checksum64};
pub use fxhash::FxHashMap;
pub use rng::Rng;
pub use tempdir::TempDir;
