//! Experiment running: policy comparison on a trace, Theorem 1.1/1.3
//! bound checks, and parallel parameter sweeps.

use occ_core::{theorem_1_1_rhs, theorem_1_3_rhs, CostProfile};
use occ_sim::{ReplacementPolicy, SimResult, Simulator, Trace};

/// The cost outcome of one policy on one trace.
#[derive(Clone, Debug)]
pub struct CostReport {
    /// Policy name.
    pub name: String,
    /// Per-user miss counts `a_i`.
    pub misses: Vec<u64>,
    /// Total convex cost `Σ f_i(a_i)`.
    pub cost: f64,
    /// Total hits (for hit-rate columns).
    pub hits: u64,
    /// Trace length.
    pub steps: u64,
}

impl CostReport {
    /// Build from a simulation result.
    pub fn from_result(name: String, result: &SimResult, costs: &CostProfile) -> Self {
        let misses = result.miss_vector();
        CostReport {
            name,
            cost: costs.total_cost(&misses),
            misses,
            hits: result.stats.total_hits(),
            steps: result.steps,
        }
    }

    /// Overall miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.misses.iter().sum::<u64>() as f64 / self.steps as f64
        }
    }
}

/// Run one policy on `trace` with cache size `k` and report its cost.
pub fn evaluate_policy<P: ReplacementPolicy>(
    policy: &mut P,
    trace: &Trace,
    k: usize,
    costs: &CostProfile,
) -> CostReport {
    policy.reset();
    let result = Simulator::new(k).run(policy, trace);
    CostReport::from_result(policy.name(), &result, costs)
}

/// Run a suite of policies on the same trace.
pub fn compare_policies(
    policies: &mut [Box<dyn ReplacementPolicy>],
    trace: &Trace,
    k: usize,
    costs: &CostProfile,
) -> Vec<CostReport> {
    policies
        .iter_mut()
        .map(|p| evaluate_policy(p, trace, k, costs))
        .collect()
}

/// One checked instance of Theorem 1.1 (or 1.3 via `h`).
#[derive(Clone, Debug)]
pub struct BoundCheck {
    /// Online total cost `Σ f_i(a_i)`.
    pub online_cost: f64,
    /// Offline reference cost `Σ f_i(b_i)`.
    pub offline_cost: f64,
    /// Theorem right-hand side `Σ f_i(factor · b_i)`.
    pub rhs: f64,
    /// Plain cost ratio `online/offline` (∞ when offline = 0 and online > 0).
    pub ratio: f64,
    /// Whether `online ≤ rhs` (the theorem's claim).
    pub satisfied: bool,
}

fn make_check(online_cost: f64, offline_cost: f64, rhs: f64) -> BoundCheck {
    let ratio = if offline_cost > 0.0 {
        online_cost / offline_cost
    } else if online_cost > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    BoundCheck {
        online_cost,
        offline_cost,
        rhs,
        ratio,
        satisfied: online_cost <= rhs * (1.0 + 1e-9) + 1e-9,
    }
}

/// Check Theorem 1.1: online misses `a`, offline misses `b`, curvature
/// `alpha`, cache size `k`, with the right-hand side multiplied by
/// `rhs_scale`. `1.0` is the theorem as stated; the conformance harness
/// uses `rhs_scale < 1` as its deliberately-weakened fixture (the bound
/// is tightened until a correct implementation must fail it).
pub fn check_theorem_1_1_scaled(
    costs: &CostProfile,
    online_misses: &[u64],
    offline_misses: &[u64],
    alpha: f64,
    k: usize,
    rhs_scale: f64,
) -> BoundCheck {
    make_check(
        costs.total_cost(online_misses),
        costs.total_cost(offline_misses),
        rhs_scale * theorem_1_1_rhs(costs, offline_misses, alpha, k),
    )
}

/// Check Theorem 1.3: offline runs with cache `h ≤ k`; `rhs_scale` as
/// in [`check_theorem_1_1_scaled`].
#[allow(clippy::too_many_arguments)]
pub fn check_theorem_1_3_scaled(
    costs: &CostProfile,
    online_misses: &[u64],
    offline_misses_h: &[u64],
    alpha: f64,
    k: usize,
    h: usize,
    rhs_scale: f64,
) -> BoundCheck {
    make_check(
        costs.total_cost(online_misses),
        costs.total_cost(offline_misses_h),
        rhs_scale * theorem_1_3_rhs(costs, offline_misses_h, alpha, k, h),
    )
}

/// Parallel map over sweep points, preserving input order. Uses
/// `std::thread::scope` with the output split into disjoint `&mut`
/// chunks, one per worker: no locks, no per-slot boxing, no atomics on
/// the write path.
pub fn parallel_sweep<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&I) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // Split items and output into matching contiguous chunks. Chunk i
    // covers [i*chunk, …): every worker owns its output window outright,
    // so writes need no synchronization at all. Contiguous stripes also
    // keep each worker's writes on its own cache lines (no false sharing
    // beyond the two chunk-boundary lines).
    let chunk = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::{Fifo, Lru};
    use occ_core::Monomial;
    use occ_sim::Universe;

    fn trace() -> Trace {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..300u32).map(|i| (i * 7 + 1) % 6).collect();
        Trace::from_page_indices(&u, &pages)
    }

    #[test]
    fn compare_runs_all_policies() {
        let t = trace();
        let costs = CostProfile::uniform(2, Monomial::power(2.0));
        let mut suite: Vec<Box<dyn ReplacementPolicy>> =
            vec![Box::new(Lru::new()), Box::new(Fifo::new())];
        let reports = compare_policies(&mut suite, &t, 3, &costs);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "lru");
        for r in &reports {
            assert!(r.cost > 0.0);
            assert_eq!(r.steps, 300);
            assert!(r.miss_rate() > 0.0 && r.miss_rate() <= 1.0);
        }
    }

    #[test]
    fn empty_run_miss_rate_is_zero_not_nan() {
        let u = Universe::uniform(2, 3);
        let t = Trace::from_page_indices(&u, &[]);
        let costs = CostProfile::uniform(2, Monomial::power(2.0));
        let report = evaluate_policy(&mut Lru::new(), &t, 3, &costs);
        assert_eq!(report.steps, 0);
        assert_eq!(report.miss_rate(), 0.0);
        assert_eq!(report.cost, 0.0);
    }

    #[test]
    fn bound_check_math() {
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        // online 3 misses (cost 9), offline 1 miss (cost 1), α=2, k=2 →
        // rhs = f(4) = 16 ≥ 9.
        let c = check_theorem_1_1_scaled(&costs, &[3], &[1], 2.0, 2, 1.0);
        assert!(c.satisfied);
        assert_eq!(c.online_cost, 9.0);
        assert_eq!(c.rhs, 16.0);
        assert_eq!(c.ratio, 9.0);
        // Violation detected when online exceeds the rhs.
        let c2 = check_theorem_1_1_scaled(&costs, &[10], &[1], 2.0, 2, 1.0);
        assert!(!c2.satisfied);
    }

    #[test]
    fn scaled_check_tightens_the_bound() {
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        // Unscaled: online 9 ≤ rhs 16. Scaled by 0.5: rhs 8 < 9 → FAIL.
        assert!(check_theorem_1_1_scaled(&costs, &[3], &[1], 2.0, 2, 1.0).satisfied);
        let weak = check_theorem_1_1_scaled(&costs, &[3], &[1], 2.0, 2, 0.5);
        assert!(!weak.satisfied);
        assert_eq!(weak.rhs, 8.0);
        // Theorem 1.3 variant scales the same way.
        let c = check_theorem_1_3_scaled(&costs, &[3], &[2], 1.0, 4, 3, 1.0);
        let w = check_theorem_1_3_scaled(&costs, &[3], &[2], 1.0, 4, 3, 0.1);
        assert_eq!(w.rhs, 0.1 * c.rhs);
    }

    #[test]
    fn zero_offline_cost_gives_infinite_ratio() {
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        let c = check_theorem_1_1_scaled(&costs, &[5], &[0], 2.0, 4, 1.0);
        assert!(c.ratio.is_infinite());
        assert!(!c.satisfied); // rhs = f(0) = 0 < online
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_sweep(items.clone(), |&i| i * i);
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        let empty: Vec<u64> = parallel_sweep(Vec::<u64>::new(), |&i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn bicriteria_check_uses_inflated_factor() {
        let costs = CostProfile::uniform(1, Monomial::power(1.0));
        // α=1, k=4, h=3 ⇒ factor 4/2 = 2: rhs = f(2·b).
        let c = check_theorem_1_3_scaled(&costs, &[3], &[2], 1.0, 4, 3, 1.0);
        assert_eq!(c.rhs, 4.0);
        assert!(c.satisfied);
    }
}
