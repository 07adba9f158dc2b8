//! The sharded grid runner: evaluate every cell in parallel (the same
//! disjoint-chunk `std::thread::scope` machinery as
//! `occ_analysis::parallel_sweep`), shrink any failures, and assemble
//! the deterministic verdict table.
//!
//! Timing discipline: per-request latencies flow through the attached
//! `MetricsRecorder` (the existing `occ-probe` hooks) and per-cell
//! wall-clock times are returned *alongside* the table — never inside
//! it — so the verdict JSON stays byte-identical across runs.

use crate::cell::evaluate;
use crate::grid::{cell_seed, Cell, Grid};
use crate::shrink::shrink_failure;
use crate::verdict::{CellVerdict, Verdict, VerdictTable};
use occ_analysis::parallel_sweep;
use occ_probe::MetricsRecorder;

/// Knobs for one grid run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Master seed; each cell without a pinned seed derives its own via
    /// [`cell_seed`].
    pub seed: u64,
    /// Bound-weakening factor. `1.0` checks the theorems as stated;
    /// `< 1` tightens every bound (the deliberate-failure fixture for
    /// testing the FAIL path end to end).
    pub weaken: f64,
    /// Whether to shrink failing cells to minimal counterexamples.
    pub shrink: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 7,
            weaken: 1.0,
            shrink: true,
        }
    }
}

/// Everything a grid run produces.
#[derive(Debug)]
pub struct GridOutcome {
    /// The deterministic verdict table (serialize with `to_json`).
    pub verdicts: VerdictTable,
    /// All cells' recorder metrics, merged (per-request latency
    /// histogram, hit/miss/eviction counters).
    pub metrics: MetricsRecorder,
    /// Per-cell `(id, wall-clock ns)` — side-channel only, for stderr.
    pub cell_elapsed_ns: Vec<(String, u64)>,
}

/// Run every cell of `grid` in parallel and collect verdicts.
pub fn run_grid(grid: &Grid, cfg: &RunConfig) -> GridOutcome {
    assert!(cfg.weaken > 0.0, "weaken factor must be positive");
    let items: Vec<(usize, Cell)> = grid.cells.iter().cloned().enumerate().collect();
    let results = parallel_sweep(items, |(index, cell)| {
        let seed = cell.seed.unwrap_or_else(|| cell_seed(cfg.seed, *index));
        let mut rec = MetricsRecorder::new();
        let start = std::time::Instant::now();
        let e = evaluate(cell, seed, cfg.weaken, &mut rec);
        let shrunk = if cfg.shrink && e.verdict == Verdict::Fail {
            shrink_failure(cell, seed, cfg.weaken)
        } else {
            None
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        let verdict = CellVerdict {
            id: cell.id(),
            check: cell.check.name(),
            policy: cell.policy.name(),
            workload: cell.workload.name(),
            cost: cell.cost.name(),
            users: cell.users,
            k: cell.k,
            h: cell.h(),
            len: cell.len,
            oracle: e.oracle,
            alpha: e.alpha,
            op: e.op,
            lhs: e.lhs,
            rhs: e.rhs,
            online_cost: e.online_cost,
            offline_cost: e.offline_cost,
            ratio: e.ratio,
            verdict: e.verdict,
            note: e.note,
            shrunk,
        };
        (verdict, rec, elapsed)
    });

    let mut metrics = MetricsRecorder::new();
    let mut cells = Vec::with_capacity(results.len());
    let mut cell_elapsed_ns = Vec::with_capacity(results.len());
    for (verdict, rec, elapsed) in results {
        metrics.merge(&rec);
        cell_elapsed_ns.push((verdict.id.clone(), elapsed));
        cells.push(verdict);
    }
    GridOutcome {
        verdicts: VerdictTable {
            grid: grid.name.to_string(),
            seed: cfg.seed,
            seeds_pinned: grid.cells.iter().all(|c| c.seed.is_some()),
            weaken: cfg.weaken,
            cells,
        },
        metrics,
        cell_elapsed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::grid;

    fn mini_grid() -> Grid {
        let mut g = grid("smoke").unwrap();
        g.cells.truncate(4);
        g
    }

    #[test]
    fn verdict_json_is_byte_identical_across_runs() {
        let g = mini_grid();
        let cfg = RunConfig::default();
        let a = run_grid(&g, &cfg).verdicts.to_json();
        let b = run_grid(&g, &cfg).verdicts.to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn verdicts_preserve_grid_order() {
        let g = mini_grid();
        let out = run_grid(&g, &RunConfig::default());
        let ids: Vec<String> = out.verdicts.cells.iter().map(|c| c.id.clone()).collect();
        let expected: Vec<String> = g.cells.iter().map(|c| c.id()).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn weakened_run_fails_and_ships_shrunk_counterexamples() {
        let g = mini_grid();
        let cfg = RunConfig {
            weaken: 1e-9,
            ..RunConfig::default()
        };
        let out = run_grid(&g, &cfg);
        assert!(out.verdicts.any_fail());
        let failing: Vec<_> = out
            .verdicts
            .cells
            .iter()
            .filter(|c| c.verdict == Verdict::Fail)
            .collect();
        assert!(failing.iter().all(|c| c.shrunk.is_some()));
        let s = failing[0].shrunk.as_ref().unwrap();
        assert!(s.len <= failing[0].len && s.lhs > s.rhs);
    }

    #[test]
    fn shrink_can_be_disabled() {
        let g = mini_grid();
        let cfg = RunConfig {
            weaken: 1e-9,
            shrink: false,
            ..RunConfig::default()
        };
        let out = run_grid(&g, &cfg);
        assert!(out.verdicts.any_fail());
        assert!(out.verdicts.cells.iter().all(|c| c.shrunk.is_none()));
    }

    #[test]
    fn metrics_and_timings_accumulate_outside_the_table() {
        let g = mini_grid();
        let out = run_grid(&g, &RunConfig::default());
        let total_requests: usize = g.cells.iter().map(|c| c.len).sum();
        assert_eq!(out.metrics.total().requests(), total_requests as u64);
        assert_eq!(out.cell_elapsed_ns.len(), g.cells.len());
        // The JSON carries no timing keys at all.
        let json = out.verdicts.to_json();
        assert!(!json.contains("elapsed") && !json.contains("latency"));
    }
}
