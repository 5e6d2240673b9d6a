//! End-to-end and per-layer benchmark of the gridvo daemon's serving
//! path. See `README.md` in this directory for the workloads, the
//! metrics and how to compare two commits.

pub mod client;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
