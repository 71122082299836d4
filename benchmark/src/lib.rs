//! # The repo benchmark
//!
//! Seven seeded workloads over the romp stack, measured **from
//! outside**: the harness times calls into each crate's public
//! functions and diffs `romp_runtime::stats` snapshots; nothing in the
//! crates knows it is being benchmarked. `README.md` is the metric and
//! workload dictionary; `../BENCHMARK.json` is the contract the numbers
//! are judged by.

#![warn(missing_docs)]

pub mod harness;
pub mod json;
pub mod machine;
pub mod metrics;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
