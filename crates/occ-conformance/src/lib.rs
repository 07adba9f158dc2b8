#![warn(missing_docs)]
//! Theorem-conformance harness: a parallel grid runner that
//! machine-checks the paper's bounds on real simulator runs.
//!
//! Each [`Cell`] of a [`Grid`] names a policy × workload × cost-profile
//! × `(n, k, β)` instance together with the paper statement to check on
//! it:
//!
//! * **Theorem 1.1** — `online ≤ Σ_i f_i(α·k·b_i)` against an offline
//!   miss vector `b` (Belady for single-user cells, `exact_opt` for
//!   tiny multi-user cells, `best_offline_heuristic` at scale);
//! * **Theorem 1.3** — the bi-criteria variant with offline cache
//!   `h ≤ k` and factor `α·k/(k−h+1)`;
//! * **Claim 2.3** — the derivative inequality, evaluated on the
//!   per-epoch miss increments of an actual run or on random partitions;
//! * **Theorem 1.4** — the `(n/4)^β` lower-bound growth on the §4
//!   adaptive adversary, certified against the batch offline schedule.
//!
//! [`run_grid`] evaluates cells concurrently via
//! `occ_analysis::parallel_sweep` (scoped threads over disjoint output
//! chunks) and produces a [`VerdictTable`]: one PASS / FAIL / VACUOUS
//! row per cell, serialized as schema-stamped JSON whose bytes depend
//! only on `(grid, seed, weaken)` — wall-clock timings and recorder
//! metrics travel separately in [`GridOutcome`]. VACUOUS is a verdict
//! in its own right: an unbounded curvature constant or a zero-cost
//! instance means the theorem asserts nothing, and reporting PASS
//! there would overstate the evidence.
//!
//! On FAIL, the shrinker bisects the trace length and then the cache
//! size to a small configuration that still violates the bound, so a
//! red CI run hands you a counterexample you can replay by hand. The
//! `weaken` knob tightens every bound by a factor; the test suite and
//! CI use it to prove the FAIL + shrink path works end to end (a
//! harness that cannot fail is not checking anything).
//!
//! `occ conformance --grid smoke` is the CLI entry; the smoke grid is
//! the CI gate. The grids `e1`–`e4` rebuild the instances of
//! EXPERIMENTS E1–E4 with pinned seeds; CI compares their tables with
//! the committed `results/conformance-eN.txt`.

pub mod cell;
pub mod grid;
pub mod runner;
pub mod shrink;
pub mod verdict;

pub use grid::GRID_NAMES;
pub use grid::{cell_seed, grid, Cell, CheckKind, CostKind, Grid, PolicyKind, WorkloadKind};
pub use runner::{run_grid, GridOutcome, RunConfig};
pub use shrink::Shrunk;
pub use verdict::{CellVerdict, Verdict, VerdictTable, CONFORMANCE_SCHEMA, REQUIRED_KEYS};
