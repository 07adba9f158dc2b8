//! Special-purpose cost functions: unbounded-curvature, non-convex, and
//! the dummy-user sentinel.

use super::CostFunction;

/// `f(x) = scale·(e^{rate·x} − 1)`: convex and increasing, but with
/// *unbounded* curvature constant (`x f'(x)/f(x) → ∞`), so Theorem 1.1
/// gives no finite guarantee. Used to probe the algorithm beyond the
/// theory's reach (§2.5 notes the algorithm itself needs no convexity).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    scale: f64,
    rate: f64,
}

impl Exponential {
    /// Create `scale·(e^{rate·x} − 1)` with positive parameters.
    pub fn new(scale: f64, rate: f64) -> Self {
        assert!(scale > 0.0 && rate > 0.0);
        Exponential { scale, rate }
    }
}

impl CostFunction for Exponential {
    fn eval(&self, x: f64) -> f64 {
        self.scale * ((self.rate * x).exp() - 1.0)
    }

    fn deriv(&self, x: f64) -> f64 {
        self.scale * self.rate * (self.rate * x).exp()
    }

    fn alpha(&self) -> Option<f64> {
        None // sup x f'(x)/f(x) = ∞
    }

    fn is_convex(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("{}·(e^({}·x)−1)", self.scale, self.rate)
    }
}

/// A *non-convex* threshold cost: `f(x) = slope·x` for `x ≤ threshold`,
/// jumping by `jump` beyond it (`f(x) = slope·x + jump` for
/// `x > threshold`). Discontinuous, so only the discrete marginal
/// ([`CostFunction::marginal`]) is meaningful; `deriv` returns the slope.
///
/// §2.5: *"the cost functions need not even be continuous; the derivatives
/// in the algorithms can be replaced by their discrete versions."* This
/// type exists to exercise exactly that regime. It runs on
/// [`DiscreteReference`](crate::DiscreteReference), the literal Figure 3:
/// [`ConvexCaching`](crate::ConvexCaching) takes convex costs only.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThresholdCost {
    slope: f64,
    threshold: u64,
    jump: f64,
}

impl ThresholdCost {
    /// Create a threshold cost. `slope ≥ 0`, `jump > 0`.
    pub fn new(slope: f64, threshold: u64, jump: f64) -> Self {
        assert!(slope >= 0.0 && jump > 0.0);
        ThresholdCost {
            slope,
            threshold,
            jump,
        }
    }
}

impl CostFunction for ThresholdCost {
    fn eval(&self, x: f64) -> f64 {
        let base = self.slope * x;
        if x > self.threshold as f64 {
            base + self.jump
        } else {
            base
        }
    }

    fn deriv(&self, _x: f64) -> f64 {
        self.slope
    }

    fn marginal(&self, m: u64) -> f64 {
        // The step from m to m+1 crosses the threshold exactly when
        // m == threshold (eval is right-open at the threshold).
        let jump = if m == self.threshold { self.jump } else { 0.0 };
        self.slope + jump
    }

    fn alpha(&self) -> Option<f64> {
        None
    }

    fn is_convex(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!("{}·x + {}·1[x>{}]", self.slope, self.jump, self.threshold)
    }
}

/// Sentinel cost for the paper's dummy flush user (§2.1): a linear cost
/// with an astronomically large weight, so dummy pages are never chosen
/// for eviction while remaining finite (avoiding `∞ − ∞` in budget
/// arithmetic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct HugeCost;

/// The weight used by [`HugeCost`]. Large enough to dominate any
/// realistic budget, small enough that sums of `k` of them stay finite.
pub const HUGE_WEIGHT: f64 = 1e30;

impl CostFunction for HugeCost {
    fn eval(&self, x: f64) -> f64 {
        HUGE_WEIGHT * x
    }

    fn deriv(&self, _x: f64) -> f64 {
        HUGE_WEIGHT
    }

    fn marginal(&self, _m: u64) -> f64 {
        HUGE_WEIGHT
    }

    fn alpha(&self) -> Option<f64> {
        Some(1.0)
    }

    fn is_convex(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        "dummy(huge)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil;
    use super::*;

    #[test]
    fn exponential_contract() {
        let f = Exponential::new(2.0, 0.5);
        assert!(f.eval(0.0).abs() < 1e-12);
        testutil::check_contract(&f, 10.0);
        testutil::check_derivative(&f, &[0.5, 2.0, 5.0], 1e-4);
        assert_eq!(f.alpha(), None);
        // The curvature ratio really does grow without bound.
        let r = |x: f64| x * f.deriv(x) / f.eval(x);
        assert!(r(20.0) > r(5.0) && r(5.0) > r(1.0));
    }

    #[test]
    fn threshold_marginals() {
        let f = ThresholdCost::new(1.0, 3, 10.0);
        assert_eq!(f.eval(3.0), 3.0);
        assert_eq!(f.eval(4.0), 14.0);
        assert_eq!(f.marginal(2), 1.0);
        assert_eq!(f.marginal(3), 11.0); // crosses the threshold
        assert_eq!(f.marginal(4), 1.0);
        assert!(!f.is_convex());
    }

    #[test]
    fn threshold_eval_matches_marginal_sum() {
        let f = ThresholdCost::new(2.0, 2, 5.0);
        let mut acc = 0.0;
        for m in 0..6u64 {
            acc += f.marginal(m);
            assert!(
                (acc - f.eval((m + 1) as f64)).abs() < 1e-9,
                "prefix-sum of marginals must reproduce eval"
            );
        }
    }

    #[test]
    fn huge_cost_dominates() {
        let f = HugeCost;
        assert!(f.deriv(0.0) > 1e20);
        assert_eq!(f.eval(0.0), 0.0);
        assert!(f.eval(3.0).is_finite());
    }
}
