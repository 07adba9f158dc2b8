//! FIFO — evict the page that entered the cache earliest.
//!
//! [`Fifo`] (the default) keeps insertion order in an intrusive
//! [`PageList`]: `O(1)` per operation with no allocation and no stale
//! entries, because external removals unlink eagerly. [`FifoReference`]
//! is the original `VecDeque` form whose queue is lazily self-cleaning;
//! both make byte-identical eviction decisions.

use crate::state_util::{encode_pages, PageDecoder};
use occ_sim::{EngineCtx, PageId, PageList, PolicyState, ReplacementPolicy, SnapshotError};
use std::collections::VecDeque;

/// First-in-first-out replacement over an intrusive insertion-order list.
#[derive(Debug, Default)]
pub struct Fifo {
    /// Cached pages, earliest insert at the front.
    queue: PageList,
}

impl Fifo {
    /// A fresh FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> String {
        "fifo".into()
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.queue.ensure(ctx.universe.num_pages() as usize);
        self.queue.push_back(page);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        self.queue.pop_front().expect("cache is full")
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.queue.remove_if_linked(page);
    }

    fn reset(&mut self) {
        self.queue.reset();
    }

    fn save_state(&self) -> Option<PolicyState> {
        let mut s = PolicyState::new();
        s.set_u64s("queue", encode_pages(self.queue.iter()));
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        let pages = PageDecoder::new(ctx).cached_pages(ctx, state.u64s("queue")?, "queue")?;
        self.queue.reset();
        self.queue.ensure(ctx.universe.num_pages() as usize);
        for p in pages {
            self.queue.push_back(p);
        }
        Ok(())
    }
}

/// The original `VecDeque` FIFO, retained as the equivalence oracle and
/// benchmark baseline for [`Fifo`].
#[derive(Debug, Default)]
pub struct FifoReference {
    queue: VecDeque<PageId>,
}

impl FifoReference {
    /// A fresh reference FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for FifoReference {
    fn name(&self) -> String {
        "fifo-reference".into()
    }

    fn on_insert(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.queue.push_back(page);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
        // Skip entries whose page is no longer cached (externally removed
        // in a multi-pool system); the queue is lazily self-cleaning.
        loop {
            let p = self.queue.pop_front().expect("cache is full");
            if ctx.cache.contains(p) {
                return p;
            }
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{Simulator, Trace, Universe};

    #[test]
    fn evicts_in_insertion_order_ignoring_hits() {
        // 0 1 0 2: FIFO evicts 0 (oldest insert) even though it just hit.
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 1, 0, 2]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut Fifo::new(), &trace);
        assert_eq!(r.events.unwrap().eviction_sequence(), vec![(3, PageId(0))]);
    }

    #[test]
    fn cycle_thrashes() {
        let u = Universe::single_user(4);
        let pages: Vec<u32> = (0..20).map(|i| i % 4).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let r = Simulator::new(3).run(&mut Fifo::new(), &trace);
        assert_eq!(r.total_misses(), 20);
    }

    #[test]
    fn reusable_after_reset() {
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 1, 0]);
        let mut f = Fifo::new();
        let a = Simulator::new(2).run(&mut f, &trace).total_misses();
        f.reset();
        let b = Simulator::new(2).run(&mut f, &trace).total_misses();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_reference_eviction_for_eviction() {
        let u = Universe::single_user(12);
        let mut state = 0xDEADBEEFu64;
        let pages: Vec<u32> = (0..2_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 12) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        for k in [1, 3, 7, 11] {
            let a = Simulator::new(k)
                .record_events(true)
                .run(&mut Fifo::new(), &trace)
                .events
                .unwrap()
                .eviction_sequence();
            let b = Simulator::new(k)
                .record_events(true)
                .run(&mut FifoReference::new(), &trace)
                .events
                .unwrap()
                .eviction_sequence();
            assert_eq!(a, b, "diverged at k={k}");
        }
    }
}
