//! Minimal-counterexample shrinking for failing cells.
//!
//! On a FAIL the runner bisects the trace length down to the shortest
//! prefix length that still fails, then bisects the cache size `k`
//! down at that length. Workload generators are sequential, so a
//! shorter `len` with the same seed is a true prefix of the original
//! stream — the shrunk cell is a genuine sub-instance.
//!
//! Bound violations need not be monotone in `len` or `k`; bisection
//! maintains only the invariant that the *upper* end of the bracket
//! fails (true at the start — the full cell failed), so it always
//! terminates on a failing configuration, just not necessarily the
//! global minimum. That is the standard property-testing trade-off:
//! deterministic, logarithmically many re-evaluations, small result.

use crate::cell::evaluate;
use crate::grid::{Cell, CheckKind, WorkloadKind};
use crate::verdict::Verdict;
use occ_probe::MetricsRecorder;

/// The smallest failing configuration the bisection reached.
#[derive(Clone, Debug, PartialEq)]
pub struct Shrunk {
    /// Shrunk trace length.
    pub len: usize,
    /// Shrunk cache size.
    pub k: usize,
    /// Left-hand side of the violated comparison at the shrunk size.
    pub lhs: f64,
    /// Right-hand side at the shrunk size.
    pub rhs: f64,
}

/// Shrink a cell known to fail at its full size. Returns `None` only if
/// the premise is wrong (the cell does not fail when re-evaluated).
pub(crate) fn shrink_failure(cell: &Cell, seed: u64, weaken: f64) -> Option<Shrunk> {
    let eval_at = |len: usize, k: usize| {
        let mut candidate = cell.clone();
        candidate.len = len;
        candidate.k = k;
        // Keep the bi-criteria precondition 1 ≤ h ≤ k as k shrinks.
        if let CheckKind::Theorem13 { h } = candidate.check {
            candidate.check = CheckKind::Theorem13 { h: h.min(k) };
        }
        evaluate(&candidate, seed, weaken, &mut MetricsRecorder::new())
    };
    let fails = |len: usize, k: usize| eval_at(len, k).verdict == Verdict::Fail;
    if !fails(cell.len, cell.k) {
        return None;
    }

    // Adversary instances tie k to n, and partition cells have no
    // cache: only the length (the partition count) shrinks there.
    let (min_len, shrink_k) = match (cell.check, cell.workload) {
        (CheckKind::LowerBound14, _) => (cell.users as usize, false),
        (_, WorkloadKind::Partitions { .. }) => (1, false),
        _ => (1, true),
    };

    let len = bisect_first_failing(min_len, cell.len, |len| fails(len, cell.k));
    let k = if shrink_k {
        bisect_first_failing(1, cell.k, |k| fails(len, k))
    } else {
        cell.k
    };
    let e = eval_at(len, k);
    debug_assert_eq!(e.verdict, Verdict::Fail, "bisection invariant");
    Some(Shrunk {
        len,
        k,
        lhs: e.lhs,
        rhs: e.rhs,
    })
}

/// Smallest `v` in `[lo, hi]` that `fails`, under the invariant that
/// `fails(hi)` holds on entry (and is maintained for the shrinking
/// bracket's upper end throughout).
fn bisect_first_failing(lo: usize, hi: usize, fails: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (lo.min(hi), hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CostKind, PolicyKind};

    fn failing_cell() -> Cell {
        // With an absurdly weakened bound every non-vacuous upper-bound
        // cell fails, which is exactly what the shrinker needs.
        Cell {
            check: CheckKind::Theorem11,
            policy: PolicyKind::Convex,
            workload: WorkloadKind::Cycle,
            cost: CostKind::Monomial { beta: 2.0 },
            users: 1,
            pages: 5,
            k: 4,
            len: 200,
            seed: None,
        }
    }

    #[test]
    fn shrinks_to_a_much_smaller_failing_instance() {
        let cell = failing_cell();
        let s = shrink_failure(&cell, 7, 1e-9).expect("cell fails under weaken=1e-9");
        assert!(s.len <= cell.len);
        assert!(s.k <= cell.k);
        assert!(s.lhs > s.rhs, "shrunk instance still violates the bound");
        // Any single miss already violates a near-zero bound, so the
        // bisection should bottom out at the smallest instance.
        assert_eq!((s.len, s.k), (1, 1));
    }

    #[test]
    fn declines_when_the_cell_does_not_fail() {
        assert_eq!(shrink_failure(&failing_cell(), 7, 1.0), None);
    }

    #[test]
    fn bicriteria_h_is_clamped_while_k_shrinks() {
        let mut cell = failing_cell();
        cell.check = CheckKind::Theorem13 { h: 3 };
        cell.k = 6;
        cell.pages = 7;
        let s = shrink_failure(&cell, 7, 1e-9).expect("fails under weaken=1e-9");
        assert!(s.k >= 1 && s.len >= 1);
    }

    #[test]
    fn adversary_cells_shrink_length_only() {
        let cell = Cell {
            check: CheckKind::LowerBound14,
            policy: PolicyKind::Lru,
            workload: WorkloadKind::Adversary,
            cost: CostKind::Monomial { beta: 2.0 },
            users: 5,
            pages: 5,
            k: 4,
            len: 200,
            seed: None,
        };
        // Demanding a ratio 1e9× the analytic bound fails at full size.
        let s = shrink_failure(&cell, 7, 1e-9).expect("fails under weaken=1e-9");
        assert_eq!(s.k, cell.k, "k = n − 1 is part of the instance family");
        assert!(s.len < cell.len);
    }

    #[test]
    fn bisect_finds_the_boundary() {
        assert_eq!(bisect_first_failing(1, 100, |v| v >= 37), 37);
        assert_eq!(bisect_first_failing(1, 100, |_| true), 1);
        assert_eq!(bisect_first_failing(5, 5, |_| true), 5);
    }
}
