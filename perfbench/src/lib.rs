//! End-to-end and per-layer benchmark of QuaTrEx-RS.
//!
//! The benchmark drives the public API from outside the program — the sweep
//! engine (`quatrex::serve`), the distributed solver (`quatrex::dist`) and the
//! public layer functions below them — on three seeded workloads, checks every
//! result, and prints one JSON line of metrics. See `README.md` in this
//! directory for the workloads, the metrics and which layer metric should move
//! which end-to-end metric on which workload.

pub mod check;
pub mod host;
pub mod json;
pub mod ladder;
pub mod ledger;
pub mod run;
pub mod workload;
