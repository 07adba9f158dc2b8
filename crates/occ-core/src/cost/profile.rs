//! A cost profile: one cost function per user, and the objective
//! `Σ_i f_i(misses_i)` the whole paper is about.

use super::{CostFn, CostFunction, Marginals};
use occ_sim::{CostAnomaly, UserId};
use std::sync::Arc;

/// One cost function per user, indexed by dense user id.
#[derive(Clone, Debug)]
pub struct CostProfile {
    fns: Vec<CostFn>,
}

impl CostProfile {
    /// Per-user functions, `fns[i]` for user `i`.
    pub fn new(fns: Vec<CostFn>) -> Self {
        assert!(!fns.is_empty(), "a profile needs at least one user");
        CostProfile { fns }
    }

    /// The same function for all `n` users.
    pub fn uniform(n: u32, f: impl CostFunction + 'static) -> Self {
        let f: CostFn = Arc::new(f);
        CostProfile {
            fns: (0..n).map(|_| Arc::clone(&f)).collect(),
        }
    }

    /// Build from a closure mapping user index to a cost function.
    pub fn from_fn(n: u32, mut make: impl FnMut(u32) -> CostFn) -> Self {
        CostProfile {
            fns: (0..n).map(&mut make).collect(),
        }
    }

    /// Number of users covered.
    pub fn num_users(&self) -> u32 {
        self.fns.len() as u32
    }

    /// The cost function of one user.
    #[inline]
    pub fn user(&self, user: UserId) -> &dyn CostFunction {
        &*self.fns[user.index()]
    }

    /// The paper's objective: `Σ_i f_i(misses[i])`. `misses` must have one
    /// entry per user.
    pub fn total_cost(&self, misses: &[u64]) -> f64 {
        assert_eq!(
            misses.len(),
            self.fns.len(),
            "miss vector length must match the number of users"
        );
        misses
            .iter()
            .zip(&self.fns)
            .map(|(&m, f)| f.eval(m as f64))
            .sum()
    }

    /// [`total_cost`](Self::total_cost) with the arithmetic checked:
    /// a non-finite per-user value or a non-finite (overflowed) sum is
    /// returned as a typed [`CostAnomaly`] naming the offending user
    /// instead of silently propagating NaN/∞ into reports.
    pub fn total_cost_checked(&self, misses: &[u64]) -> Result<f64, CostAnomaly> {
        assert_eq!(
            misses.len(),
            self.fns.len(),
            "miss vector length must match the number of users"
        );
        let mut total = 0.0_f64;
        for (u, (&m, f)) in misses.iter().zip(&self.fns).enumerate() {
            let x = m as f64;
            let v = f.eval(x);
            if !v.is_finite() {
                return Err(CostAnomaly {
                    user: Some(u as u32),
                    argument: x,
                    value: v,
                    what: "f_i(m_i)",
                });
            }
            total += v;
        }
        if !total.is_finite() {
            return Err(CostAnomaly {
                user: None,
                argument: misses.len() as f64,
                value: total,
                what: "sum f_i(m_i)",
            });
        }
        Ok(total)
    }

    /// `Σ_i f_i(factor · misses[i])` — the right-hand side of Theorem 1.1
    /// (with `factor = αk`) and Theorem 1.3 (with `factor = αk/(k−h+1)`).
    pub fn total_cost_scaled(&self, misses: &[u64], factor: f64) -> f64 {
        assert_eq!(misses.len(), self.fns.len());
        misses
            .iter()
            .zip(&self.fns)
            .map(|(&m, f)| f.eval(factor * m as f64))
            .sum()
    }

    /// Marginal cost of the next eviction for `user` given `m` evictions
    /// so far, under the chosen marginal mode.
    #[inline]
    pub fn next_eviction_cost(&self, mode: Marginals, user: UserId, m: u64) -> f64 {
        mode.next_eviction_cost(&*self.fns[user.index()], m)
    }

    /// Curvature constant of the profile: `α = sup_{x,i} x f_i'(x)/f_i(x)`
    /// = max over users. `None` if any user's α is unknown/unbounded.
    pub fn alpha(&self) -> Option<f64> {
        self.fns
            .iter()
            .map(|f| f.alpha())
            .try_fold(0.0_f64, |acc, a| a.map(|a| acc.max(a)))
    }

    /// Whether every user's function is convex (i.e. the paper's
    /// guarantees apply).
    pub fn all_convex(&self) -> bool {
        self.fns.iter().all(|f| f.is_convex())
    }

    /// Extend the profile with one extra user (used for the dummy flush
    /// user of §2.1).
    pub fn with_extra_user(&self, f: impl CostFunction + 'static) -> Self {
        let mut fns = self.fns.clone();
        fns.push(Arc::new(f));
        CostProfile { fns }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Linear, Monomial, PiecewiseLinear};
    use super::*;

    #[test]
    fn uniform_profile_shares_one_function() {
        let p = CostProfile::uniform(3, Monomial::power(2.0));
        assert_eq!(p.num_users(), 3);
        assert_eq!(p.total_cost(&[1, 2, 3]), 1.0 + 4.0 + 9.0);
    }

    #[test]
    fn heterogeneous_profile() {
        let p = CostProfile::new(vec![
            Arc::new(Linear::new(5.0)) as CostFn,
            Arc::new(Monomial::power(2.0)) as CostFn,
        ]);
        assert_eq!(p.total_cost(&[2, 3]), 10.0 + 9.0);
        assert_eq!(p.user(UserId(0)).deriv(1.0), 5.0);
    }

    #[test]
    fn scaled_cost_is_theorem_rhs() {
        let p = CostProfile::uniform(2, Monomial::power(2.0));
        // Σ f(3·m) with m = (1, 2): 9 + 36.
        assert_eq!(p.total_cost_scaled(&[1, 2], 3.0), 9.0 + 36.0);
    }

    #[test]
    fn profile_alpha_is_max_over_users() {
        let p = CostProfile::new(vec![
            Arc::new(Linear::unit()) as CostFn,
            Arc::new(Monomial::power(3.0)) as CostFn,
            Arc::new(PiecewiseLinear::sla(10.0, 1.0, 20.0)) as CostFn,
        ]);
        assert_eq!(p.alpha(), Some(20.0));
        assert!(p.all_convex());
    }

    #[test]
    fn from_fn_builder() {
        let p = CostProfile::from_fn(3, |i| Arc::new(Linear::new((i + 1) as f64)) as CostFn);
        assert_eq!(p.total_cost(&[1, 1, 1]), 6.0);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_miss_vector_rejected() {
        CostProfile::uniform(2, Linear::unit()).total_cost(&[1]);
    }

    #[test]
    fn with_extra_user_appends() {
        let p = CostProfile::uniform(1, Linear::unit()).with_extra_user(Linear::new(2.0));
        assert_eq!(p.num_users(), 2);
        assert_eq!(p.total_cost(&[1, 1]), 3.0);
    }
}
