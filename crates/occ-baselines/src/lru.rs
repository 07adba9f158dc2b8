//! LRU — evict the least-recently-used page.
//!
//! Sleator & Tarjan \[19\] showed LRU is `k`-competitive for unweighted
//! paging, which is the single-user linear special case of the paper's
//! model. LRU is also the cost-blind default that the cost-aware
//! algorithm is measured against in the multi-tenant experiments.
//!
//! Two implementations live here: [`Lru`], the default, keeps recency in
//! an intrusive [`PageList`] — `O(1)` per request, no allocation on the
//! hot path — and [`LruReference`] keeps the original
//! `BTreeSet<(stamp, page)>` form at `O(log k)` per request. They make
//! byte-identical eviction decisions (see the equivalence tests here and
//! the property suite in `tests/equivalence.rs`); the reference exists as
//! the oracle for those tests and as the baseline of the throughput
//! benchmarks.

use crate::state_util::{encode_pages, PageDecoder};
use occ_sim::{EngineCtx, PageId, PageList, PolicyState, ReplacementPolicy, SnapshotError};
use std::collections::BTreeSet;

/// Least-recently-used replacement in `O(1)` per operation via an
/// intrusive recency list.
#[derive(Debug, Default)]
pub struct Lru {
    /// Cached pages, oldest use at the front.
    order: PageList,
}

impl Lru {
    /// A fresh LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn touch(&mut self, ctx: &EngineCtx, page: PageId) {
        self.order.ensure(ctx.universe.num_pages() as usize);
        self.order.move_to_back(page);
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> String {
        "lru".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        self.order.pop_front().expect("cache is full")
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.order.remove_if_linked(page);
    }

    fn reset(&mut self) {
        self.order.reset();
    }

    fn save_state(&self) -> Option<PolicyState> {
        let mut s = PolicyState::new();
        s.set_u64s("order", encode_pages(self.order.iter()));
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        let pages = PageDecoder::new(ctx).cached_pages(ctx, state.u64s("order")?, "order")?;
        self.order.reset();
        self.order.ensure(ctx.universe.num_pages() as usize);
        for p in pages {
            self.order.push_back(p);
        }
        Ok(())
    }
}

/// The original ordered-set LRU (`O(log k)` per operation), retained as
/// the equivalence oracle and benchmark baseline for [`Lru`].
#[derive(Debug, Default)]
pub struct LruReference {
    /// Monotone counter stamping each request.
    seq: u64,
    /// Last-use stamp per page (lazily sized).
    stamp: Vec<u64>,
    /// Cached pages ordered by last-use stamp.
    order: BTreeSet<(u64, u32)>,
}

impl LruReference {
    /// A fresh reference LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, ctx: &EngineCtx, page: PageId, cached_before: bool) {
        if self.stamp.len() < ctx.universe.num_pages() as usize {
            self.stamp.resize(ctx.universe.num_pages() as usize, 0);
        }
        if cached_before {
            self.order.remove(&(self.stamp[page.index()], page.0));
        }
        self.seq += 1;
        self.stamp[page.index()] = self.seq;
        self.order.insert((self.seq, page.0));
    }
}

impl ReplacementPolicy for LruReference {
    fn name(&self) -> String {
        "lru-reference".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page, true);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page, false);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        let &(stamp, page) = self.order.first().expect("cache is full");
        self.order.remove(&(stamp, page));
        PageId(page)
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.order.remove(&(self.stamp[page.index()], page.0));
    }

    fn reset(&mut self) {
        self.seq = 0;
        self.stamp.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{Simulator, Trace, Universe};

    fn misses(pages: &[u32], num_pages: u32, k: usize) -> u64 {
        let u = Universe::single_user(num_pages);
        let trace = Trace::from_page_indices(&u, pages);
        Simulator::new(k)
            .run(&mut Lru::new(), &trace)
            .total_misses()
    }

    #[test]
    fn classic_lru_behavior() {
        // 0 1 2 0 3: at 3, LRU order is 1,2,0 → evict 1.
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 0, 3]);
        let r = Simulator::new(3)
            .record_events(true)
            .run(&mut Lru::new(), &trace);
        let ev = r.events.unwrap().eviction_sequence();
        assert_eq!(ev, vec![(4, PageId(1))]);
    }

    #[test]
    fn sequential_scan_thrashes() {
        // The classic (k+1)-cycle worst case: every request misses.
        let pages: Vec<u32> = (0..40).map(|i| i % 4).collect();
        assert_eq!(misses(&pages, 4, 3), 40);
    }

    #[test]
    fn working_set_fits() {
        let pages: Vec<u32> = (0..30).map(|i| i % 3).collect();
        assert_eq!(misses(&pages, 3, 3), 3);
    }

    #[test]
    fn hit_refreshes_recency() {
        // 0 1 0 2 → evicting for 2 picks 1 (0 was refreshed).
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 1, 0, 2]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut Lru::new(), &trace);
        assert_eq!(r.events.unwrap().eviction_sequence(), vec![(3, PageId(1))]);
    }

    #[test]
    fn reset_clears_state() {
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 0]);
        let mut lru = Lru::new();
        let a = Simulator::new(2).run(&mut lru, &trace).total_misses();
        lru.reset();
        let b = Simulator::new(2).run(&mut lru, &trace).total_misses();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_reference_eviction_for_eviction() {
        // Deterministic pseudo-random trace: the intrusive-list LRU and
        // the ordered-set LRU must evict the same pages at the same times.
        let u = Universe::single_user(16);
        let mut state = 0x9E3779B97F4A7C15u64;
        let pages: Vec<u32> = (0..3_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 16) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        for k in [1, 2, 5, 8, 15] {
            let a = Simulator::new(k)
                .record_events(true)
                .run(&mut Lru::new(), &trace)
                .events
                .unwrap()
                .eviction_sequence();
            let b = Simulator::new(k)
                .record_events(true)
                .run(&mut LruReference::new(), &trace)
                .events
                .unwrap()
                .eviction_sequence();
            assert_eq!(a, b, "diverged at k={k}");
        }
    }
}
