//! `DiscreteReference` — a literal transcription of Figure 3.
//!
//! Budgets are stored explicitly per cached page and both `O(k)` update
//! sweeps are executed exactly as written in the paper:
//!
//! * on eviction of `p`: `B(p') ← B(p') − B(p)` for every cached
//!   `p' ∉ {p, p_t}`;
//! * then `B(p') ← B(p') + g_u(m+1) − g_u(m)` for every cached page of the
//!   evicted page's user `u`.
//!
//! This implementation exists purely as an oracle: `occ-core`'s tests and
//! the E5 experiment assert that [`ConvexCaching`](super::ConvexCaching)
//! produces the identical eviction sequence while doing none of the
//! sweeps. Victim selection uses the same two-level rule (per-user best by
//! `(budget, seq, page)`, across users by [`TieBreak`]) so the two
//! implementations are comparable decision-for-decision.

use crate::alg::tiebreak::{Candidate, TieBreak};
use crate::cost::{CostProfile, Marginals};
use occ_sim::{EngineCtx, PageId, ReplacementPolicy, UserId};

/// Literal Figure 3 implementation (`O(k)` per eviction).
#[derive(Debug)]
pub struct DiscreteReference {
    costs: CostProfile,
    mode: Marginals,
    tiebreak: TieBreak,
    ready: bool,
    seq: u64,
    /// Explicit budget per page (meaningful only while cached).
    budget: Vec<f64>,
    /// Sequence number of each page's last request.
    last_seq: Vec<u64>,
    /// Per-user eviction counts `m(u, t)`.
    m: Vec<u64>,
}

impl DiscreteReference {
    /// Create the reference policy.
    pub fn new(costs: CostProfile) -> Self {
        DiscreteReference {
            costs,
            mode: Marginals::Derivative,
            tiebreak: TieBreak::OldestRequest,
            ready: false,
            seq: 0,
            budget: Vec::new(),
            last_seq: Vec::new(),
            m: Vec::new(),
        }
    }

    /// Use discrete marginals instead of derivatives (§2.5).
    pub fn with_marginals(mut self, mode: Marginals) -> Self {
        self.mode = mode;
        self
    }

    /// Select the tie-breaking rule.
    pub fn with_tiebreak(mut self, tb: TieBreak) -> Self {
        self.tiebreak = tb;
        self
    }

    fn ensure_ready(&mut self, ctx: &EngineCtx) {
        if self.ready {
            return;
        }
        self.budget = vec![0.0; ctx.universe.num_pages() as usize];
        self.last_seq = vec![0; ctx.universe.num_pages() as usize];
        self.m = vec![0; ctx.universe.num_users() as usize];
        self.ready = true;
    }

    /// Figure 3's request update: `B(p_t) ← g_u(m(u, t-1))` (with the
    /// same-user correction already folded in when the eviction preceded
    /// this insert — see the module docs of [`super::discrete`]).
    fn refresh_budget(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure_ready(ctx);
        let user = ctx.universe.owner(page);
        self.seq += 1;
        self.last_seq[page.index()] = self.seq;
        self.budget[page.index()] =
            self.costs
                .next_eviction_cost(self.mode, user, self.m[user.index()]);
    }
}

impl ReplacementPolicy for DiscreteReference {
    fn name(&self) -> String {
        format!("convex-caching-reference({:?})", self.mode)
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.refresh_budget(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.refresh_budget(ctx, page);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
        self.ensure_ready(ctx);
        // Two-level selection identical to ConvexCaching: best candidate
        // per user by (budget, seq, page), then across users by tie-break.
        let num_users = ctx.universe.num_users() as usize;
        let mut per_user: Vec<Option<Candidate>> = vec![None; num_users];
        for page in ctx.cache.iter() {
            let user = ctx.universe.owner(page);
            let cand = Candidate {
                key: self.budget[page.index()],
                seq: self.last_seq[page.index()],
                page: page.0,
                user: user.0,
            };
            let slot = &mut per_user[user.index()];
            let better = match slot {
                None => true,
                Some(b) => {
                    (cand.key, cand.seq, cand.page).partial_cmp(&(b.key, b.seq, b.page))
                        == Some(std::cmp::Ordering::Less)
                }
            };
            if better {
                *slot = Some(cand);
            }
        }
        let mut best: Option<Candidate> = None;
        for cand in per_user.into_iter().flatten() {
            if best.is_none_or(|b| cand.beats(&b, self.tiebreak, 0.0)) {
                best = Some(cand);
            }
        }
        let victim = best.expect("full cache implies a candidate");
        let b_victim = victim.key;
        let victim_user = victim.user as usize;

        // Sweep 1: everyone else pays the dual raise y_t = B(victim).
        for page in ctx.cache.iter() {
            if page.0 != victim.page {
                self.budget[page.index()] -= b_victim;
            }
        }
        // The user's miss count grows: m(u, t) = m(u, t-1) + 1.
        let g_old =
            self.costs
                .next_eviction_cost(self.mode, UserId(victim.user), self.m[victim_user]);
        self.m[victim_user] += 1;
        let g_new =
            self.costs
                .next_eviction_cost(self.mode, UserId(victim.user), self.m[victim_user]);
        // Sweep 2: same-user pages' marginal eviction cost increased.
        for page in ctx.cache.iter() {
            if page.0 != victim.page && ctx.universe.owner(page).0 == victim.user {
                self.budget[page.index()] += g_new - g_old;
            }
        }
        PageId(victim.page)
    }

    fn reset(&mut self) {
        self.ready = false;
        self.seq = 0;
        self.budget.clear();
        self.last_seq.clear();
        self.m.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::super::discrete::ConvexCaching;
    use super::*;
    use crate::cost::{CostFn, Linear, Monomial, PiecewiseLinear};
    use occ_sim::{Simulator, Trace, Universe};
    use std::sync::Arc;

    fn eviction_seq<P: ReplacementPolicy>(
        policy: &mut P,
        trace: &Trace,
        k: usize,
    ) -> Vec<(u64, u32)> {
        let r = Simulator::new(k).record_events(true).run(policy, trace);
        r.events
            .unwrap()
            .eviction_sequence()
            .iter()
            .map(|&(t, p)| (t, p.0))
            .collect()
    }

    /// Deterministic pseudo-random page sequence (no rand dependency in
    /// unit tests; integer-slope costs keep all float math exact).
    fn pseudo_pages(len: usize, universe_pages: u32, seed: u64) -> Vec<u32> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % universe_pages as u64) as u32
            })
            .collect()
    }

    #[test]
    fn reference_equals_fast_uniform_quadratic() {
        let u = Universe::uniform(2, 4);
        let pages = pseudo_pages(400, 8, 42);
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::uniform(2, Monomial::power(2.0));
        let mut fast = ConvexCaching::new(costs.clone());
        let mut slow = DiscreteReference::new(costs);
        assert_eq!(
            eviction_seq(&mut fast, &trace, 3),
            eviction_seq(&mut slow, &trace, 3)
        );
    }

    #[test]
    fn reference_equals_fast_heterogeneous_costs() {
        let u = Universe::with_sizes(&[3, 2, 4]);
        let pages = pseudo_pages(600, 9, 7);
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::new(vec![
            Arc::new(Linear::new(2.0)) as CostFn,
            Arc::new(Monomial::power(2.0)) as CostFn,
            Arc::new(PiecewiseLinear::sla(5.0, 1.0, 16.0)) as CostFn,
        ]);
        for k in [2, 4, 6] {
            let mut fast = ConvexCaching::new(costs.clone());
            let mut slow = DiscreteReference::new(costs.clone());
            assert_eq!(
                eviction_seq(&mut fast, &trace, k),
                eviction_seq(&mut slow, &trace, k),
                "divergence at k={k}"
            );
        }
    }

    #[test]
    fn reference_equals_fast_discrete_marginals() {
        let u = Universe::uniform(2, 3);
        let pages = pseudo_pages(300, 6, 99);
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::uniform(2, Monomial::power(3.0));
        let mut fast = ConvexCaching::new(costs.clone()).with_marginals(Marginals::Discrete);
        let mut slow = DiscreteReference::new(costs).with_marginals(Marginals::Discrete);
        assert_eq!(
            eviction_seq(&mut fast, &trace, 4),
            eviction_seq(&mut slow, &trace, 4)
        );
    }

    #[test]
    fn all_tiebreaks_agree_between_implementations() {
        let u = Universe::uniform(3, 2);
        let pages = pseudo_pages(250, 6, 5);
        let trace = Trace::from_page_indices(&u, &pages);
        // Uniform linear costs generate many exact budget ties.
        let costs = CostProfile::uniform(3, Linear::unit());
        for tb in TieBreak::ALL {
            let mut fast = ConvexCaching::new(costs.clone()).with_tiebreak(tb);
            let mut slow = DiscreteReference::new(costs.clone()).with_tiebreak(tb);
            assert_eq!(
                eviction_seq(&mut fast, &trace, 3),
                eviction_seq(&mut slow, &trace, 3),
                "divergence under {:?}",
                tb
            );
        }
    }
}
