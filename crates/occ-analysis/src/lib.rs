#![warn(missing_docs)]
//! Experiment harness: policy comparison, theorem bound checks, summary
//! statistics, parallel sweeps, and table rendering.
//!
//! The conformance grids (`occ-conformance`, E1–E4) and the binaries in
//! `occ-bench` (E5–E11) compose these pieces into the experiments
//! indexed in DESIGN.md.

pub mod epochs;
pub mod mrc;
pub mod runner;
pub mod stats;
pub mod table;

pub use epochs::{epoch_costs, EpochCosts};
pub use mrc::{lru_cost_curve, lru_mrc, reuse_distances, MissRatioCurve};
pub use runner::{
    check_theorem_1_1_scaled, check_theorem_1_3_scaled, compare_policies, evaluate_policy,
    parallel_sweep, BoundCheck, CostReport,
};
pub use stats::{geomean, max, mean, percentile, stddev};
pub use table::{fnum, Table};
