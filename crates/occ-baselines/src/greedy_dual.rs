//! Landlord / GreedyDual — the classical *weighted* caching algorithm
//! (Young \[20\]).
//!
//! Each page receives credit equal to its (static) weight when requested;
//! on eviction the minimum credit `δ` is charged to every cached page and
//! a zero-credit page is evicted. This is the `k`-competitive primal–dual
//! algorithm for linear costs — exactly the `α = 1` special case of the
//! paper. Accordingly, [`GreedyDual`] with per-user weights `w_i` must
//! make the *same decisions* as [`occ_core::ConvexCaching`] with
//! `f_i(x) = w_i·x` (cross-validated in the tests below), while being an
//! independent implementation with the textbook lazy-offset structure.
//!
//! # Two implementations
//!
//! [`GreedyDualReference`] is the textbook structure: an ordered set of
//! `(key, stamp, page)` over all cached pages, `O(log k)` per request.
//! [`GreedyDual`] is the production implementation on flat arrays and
//! per-user intrusive recency lists ([`occ_sim::PageLists`]), `O(1)` per
//! request plus an `O(n)`-users eviction scan — the same memory layout
//! as the paper's ALG-DISCRETE fast path, with no ordered set and no
//! per-request allocation.
//!
//! The flat port is **bit-identical** to the reference, by the landlord
//! invariant: every cached key is `≥` the current offset (credit is
//! non-negative), so the offset — always set to the minimum cached key —
//! is non-decreasing. Within one user the weight term of
//! `key = w_u + offset_at_touch` is constant, so key order equals
//! touch-recency order and the per-user minimum is the recency-list
//! front; the global victim is the minimum over `n` list fronts under
//! the reference's exact comparator `(key via total order, stamp,
//! page)`. Keys are computed lazily from the same two `f64` operands
//! (`w_u + offset_at_touch`) the reference stores, so every comparison
//! sees the same bits. A property test in
//! `tests/policy_equivalence_property.rs` pins the equivalence.

use occ_sim::{EngineCtx, PageId, PageLists, ReplacementPolicy, UserId};
use std::collections::BTreeSet;

/// Totally ordered f64 (no NaNs in this module).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Key(f64);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// GreedyDual/Landlord on flat arrays and per-user recency lists.
///
/// Decision-for-decision (and bit-for-bit) identical to
/// [`GreedyDualReference`]; see the module docs for the argument.
#[derive(Debug)]
pub struct GreedyDual {
    /// Per-user page weight.
    weights: Vec<f64>,
    /// Global charged offset `Σ δ` (non-decreasing).
    offset: f64,
    seq: u64,
    /// Per-page: offset at the page's last request. The page's credit
    /// key is reconstructed lazily as `w_owner + y_at` — the same two
    /// operands the reference adds eagerly.
    y_at: Vec<f64>,
    /// Per-page: sequence number of the page's last request.
    stamp: Vec<u64>,
    /// Per-user intrusive recency lists over one shared arena. Under
    /// the monotone offset, each list front is its user's minimum
    /// `(key, stamp)`.
    lists: PageLists,
}

impl GreedyDual {
    /// Create with one weight per user (`weights[i]` > 0).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        GreedyDual {
            weights,
            offset: 0.0,
            seq: 0,
            y_at: Vec::new(),
            stamp: Vec::new(),
            lists: PageLists::new(),
        }
    }

    /// Uniform weight 1 for `n` users — plain unweighted paging.
    pub fn unweighted(n: u32) -> Self {
        Self::new(vec![1.0; n as usize])
    }

    fn touch(&mut self, ctx: &EngineCtx, page: PageId) {
        let pages = ctx.universe.num_pages() as usize;
        if self.y_at.len() < pages {
            self.y_at.resize(pages, 0.0);
            self.stamp.resize(pages, 0);
            self.lists.ensure(ctx.universe.num_users() as usize, pages);
        }
        let user: UserId = ctx.universe.owner(page);
        self.seq += 1;
        // credit := weight ⇒ key = weight + current offset, stored as
        // its offset component only; recency position encodes the rest.
        self.y_at[page.index()] = self.offset;
        self.stamp[page.index()] = self.seq;
        self.lists.move_to_back(user.index(), page);
    }
}

impl ReplacementPolicy for GreedyDual {
    fn name(&self) -> String {
        "greedy-dual".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        // Minimum over list fronts, under the reference comparator
        // (key by total order, stamp, page). Stamps are globally unique
        // so the page component never actually decides; it is kept for
        // exact structural parity with the ordered-set reference.
        let mut best: Option<(f64, u64, u32)> = None;
        for u in 0..self.lists.num_lists() {
            let Some(p) = self.lists.front(u) else {
                continue;
            };
            let key = self.weights[u] + self.y_at[p.index()];
            let cand = (key, self.stamp[p.index()], p.0);
            let better = match &best {
                None => true,
                Some(b) => {
                    (cand.0.total_cmp(&b.0), cand.1, cand.2) < (std::cmp::Ordering::Equal, b.1, b.2)
                }
            };
            if better {
                best = Some(cand);
            }
        }
        let (key, _, page) = best.expect("cache is full");
        self.lists.remove(PageId(page));
        // Charge δ = remaining credit of the victim to everyone (lazily).
        self.offset = key;
        PageId(page)
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.lists.remove_if_linked(page);
    }

    fn reset(&mut self) {
        self.offset = 0.0;
        self.seq = 0;
        self.y_at.clear();
        self.stamp.clear();
        self.lists.reset();
    }
}

/// The textbook GreedyDual/Landlord structure: one ordered set of
/// `(key, stamp, page)` over all cached pages, `O(log k)` per request.
///
/// Kept as the oracle for [`GreedyDual`]'s flat-array port — the two
/// must agree eviction-for-eviction, bit-for-bit.
#[derive(Debug)]
pub struct GreedyDualReference {
    /// Per-user page weight.
    weights: Vec<f64>,
    /// Global charged offset `Σ δ`.
    offset: f64,
    seq: u64,
    /// Per-page stored credit key (`credit + offset-at-set`).
    key: Vec<f64>,
    stamp: Vec<u64>,
    /// Cached pages ordered by absolute key.
    order: BTreeSet<(Key, u64, u32)>,
}

impl GreedyDualReference {
    /// Create with one weight per user (`weights[i]` > 0).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        GreedyDualReference {
            weights,
            offset: 0.0,
            seq: 0,
            key: Vec::new(),
            stamp: Vec::new(),
            order: BTreeSet::new(),
        }
    }

    /// Uniform weight 1 for `n` users — plain unweighted paging.
    pub fn unweighted(n: u32) -> Self {
        Self::new(vec![1.0; n as usize])
    }

    fn touch(&mut self, ctx: &EngineCtx, page: PageId, cached_before: bool) {
        let n = ctx.universe.num_pages() as usize;
        if self.key.len() < n {
            self.key.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
        if cached_before {
            self.order.remove(&(
                Key(self.key[page.index()]),
                self.stamp[page.index()],
                page.0,
            ));
        }
        let user: UserId = ctx.universe.owner(page);
        self.seq += 1;
        // credit := weight ⇒ stored key = weight + current offset.
        self.key[page.index()] = self.weights[user.index()] + self.offset;
        self.stamp[page.index()] = self.seq;
        self.order.insert((
            Key(self.key[page.index()]),
            self.stamp[page.index()],
            page.0,
        ));
    }
}

impl ReplacementPolicy for GreedyDualReference {
    fn name(&self) -> String {
        "greedy-dual-reference".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page, true);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page, false);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        let &(key, stamp, page) = self.order.first().expect("cache is full");
        self.order.remove(&(key, stamp, page));
        // Charge δ = remaining credit of the victim to everyone (lazily).
        self.offset = key.0;
        PageId(page)
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.order.remove(&(
            Key(self.key[page.index()]),
            self.stamp[page.index()],
            page.0,
        ));
    }

    fn reset(&mut self) {
        self.offset = 0.0;
        self.seq = 0;
        self.key.clear();
        self.stamp.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_core::{ConvexCaching, CostFn, CostProfile, Linear};
    use occ_sim::{Simulator, Time, Trace, Universe};
    use std::sync::Arc;

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

    fn evictions<P: ReplacementPolicy>(p: &mut P, trace: &Trace, k: usize) -> Vec<(Time, PageId)> {
        Simulator::new(k)
            .record_events(true)
            .run(p, trace)
            .events
            .unwrap()
            .eviction_sequence()
    }

    #[test]
    fn unweighted_greedy_dual_is_lru() {
        use crate::lru::Lru;
        let u = Universe::single_user(6);
        let trace = Trace::from_page_indices(&u, &pseudo_pages(300, 6, 1));
        let a = evictions(&mut GreedyDual::unweighted(1), &trace, 3);
        let b = evictions(&mut Lru::new(), &trace, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_convex_caching_with_linear_costs() {
        // The paper's algorithm degenerates to weighted caching when all
        // costs are linear: both implementations must agree decision for
        // decision.
        let u = Universe::uniform(3, 3);
        let trace = Trace::from_page_indices(&u, &pseudo_pages(500, 9, 2));
        let weights = vec![1.0, 4.0, 2.0];
        let costs = CostProfile::new(
            weights
                .iter()
                .map(|&w| Arc::new(Linear::new(w)) as CostFn)
                .collect(),
        );
        for k in [2, 4, 6] {
            let a = evictions(&mut GreedyDual::new(weights.clone()), &trace, k);
            let b = evictions(&mut ConvexCaching::new(costs.clone()), &trace, k);
            assert_eq!(a, b, "divergence at k={k}");
        }
    }

    #[test]
    fn flat_impl_matches_reference_exactly() {
        // The flat-array port must reproduce the ordered-set reference
        // eviction-for-eviction, including irrational weights whose key
        // sums exercise float rounding.
        let u = Universe::uniform(4, 4);
        let weights = vec![1.0, 3.5, 0.25, std::f64::consts::PI];
        for (seed, k) in [(3u64, 2usize), (4, 5), (5, 9), (6, 15)] {
            let trace = Trace::from_page_indices(&u, &pseudo_pages(2000, 16, seed));
            let a = evictions(&mut GreedyDual::new(weights.clone()), &trace, k);
            let b = evictions(&mut GreedyDualReference::new(weights.clone()), &trace, k);
            assert_eq!(a, b, "divergence at seed={seed} k={k}");
        }
    }

    #[test]
    fn heavy_user_pages_survive() {
        let u = Universe::uniform(2, 2); // u0 heavy, u1 light
        let trace = Trace::from_page_indices(&u, &[0, 2, 3, 2, 3, 2, 3]);
        let mut gd = GreedyDual::new(vec![100.0, 1.0]);
        let r = Simulator::new(2).record_events(true).run(&mut gd, &trace);
        // p0 (weight 100) should never be the victim.
        for (_, victim) in r.events.unwrap().eviction_sequence() {
            assert_ne!(victim, PageId(0));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_weight() {
        GreedyDual::new(vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn reference_rejects_zero_weight() {
        GreedyDualReference::new(vec![0.0]);
    }
}
