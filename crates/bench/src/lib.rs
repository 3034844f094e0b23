//! The experiment harness: every table and figure of the paper as a
//! regenerable report.
//!
//! Each function in [`experiments`] runs one experiment against the
//! simulated field and renders the same rows/series the paper reports.
//! [`campaign::run`] runs a list of them under supervision and writes the
//! artifacts; the `figures` binary is its command line (`figures fig3`,
//! `figures table2`, `figures all`). `EXPERIMENTS.md` records
//! paper-vs-measured for each.

pub mod campaign;
pub mod expect;
pub mod experiments;
pub mod json;
pub mod observe;
pub mod report;
pub mod runner;
pub mod shard;
pub mod signal;
pub mod stress;
pub mod telemetry;
pub mod timing;

/// The default campaign seed used by every experiment (reproducible runs).
pub const CAMPAIGN_SEED: u64 = 2021;
