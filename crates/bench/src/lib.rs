//! # sebdb-bench
//!
//! **BChainBench** — the paper's mini benchmark for blockchain
//! databases (§VII-A): the 7-table donation [`schema`] (Fig. 6), the
//! uniform/Gaussian [`datagen`] ("time dimension" and "data
//! distribution in attributes"), the Q1–Q7 [`workload`] (Table II),
//! and [`metrics`] for figure-style output. The `figures` binary
//! regenerates and times every figure of §VII; the two sweeps under
//! `benches/` (`index_resident`, `views`) time designs no figure
//! covers and write `BENCH_*.json`.

#![warn(missing_docs)]

pub mod datagen;
pub mod figures;
pub mod metrics;
pub mod schema;
pub mod workload;
