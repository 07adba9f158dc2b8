//! The replacement-policy interface.
//!
//! The engine owns the cache contents and the counters; a policy only
//! *decides*. This split keeps hit/miss classification and accounting
//! identical across every algorithm in the workspace, so measured
//! differences between policies are differences in eviction decisions and
//! nothing else.

use crate::engine::EngineCtx;
use crate::error::SnapshotError;
use crate::ids::PageId;
use crate::snapshot::PolicyState;

/// An online cache replacement policy.
///
/// Callback order per request:
///
/// * hit: [`on_hit`](Self::on_hit);
/// * miss with free space: [`on_insert`](Self::on_insert) after the page is
///   physically inserted;
/// * miss with a full cache: [`choose_victim`](Self::choose_victim) (the
///   cache still contains the victim at this point, and the stats have not
///   yet counted this miss), then — after the engine applies the swap —
///   [`on_evicted`](Self::on_evicted) and finally
///   [`on_insert`](Self::on_insert) for the incoming page.
///
/// `on_insert` therefore fires exactly once per fetch, which is the single
/// place to register metadata for a newly cached page.
pub trait ReplacementPolicy {
    /// Human-readable policy name, used in experiment tables.
    fn name(&self) -> String;

    /// The requested page was found in the cache.
    fn on_hit(&mut self, _ctx: &EngineCtx, _page: PageId) {}

    /// `page` has just been fetched into the cache (either into free space
    /// or after an eviction).
    fn on_insert(&mut self, _ctx: &EngineCtx, _page: PageId) {}

    /// The cache is full and `incoming` must be fetched: return the cached
    /// page to evict. The returned page must currently be in the cache.
    ///
    /// `ctx` reflects the state *before* the eviction: `ctx.cache` still
    /// contains the victim, and `ctx.stats` does not yet count this miss or
    /// eviction (so `ctx.stats.user(u).evictions` is the paper's
    /// `m(u, t-1)`).
    fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId;

    /// `victim` has just been removed from the cache.
    fn on_evicted(&mut self, _ctx: &EngineCtx, _victim: PageId) {}

    /// `page` was removed from the cache by an *external* actor (e.g. its
    /// owner migrated to another pool in a multi-pool system), not by
    /// this policy's choice, and no eviction was charged.
    ///
    /// Policies that keep exact per-page index structures (ordered sets
    /// keyed by recency/budget) must drop the page's entry here;
    /// policies that scan `ctx.cache` or lazily validate entries against
    /// it can keep the default no-op.
    fn on_external_removal(&mut self, _ctx: &EngineCtx, _page: PageId) {}

    /// Reset internal state so the policy can be reused for another run.
    /// Policies that carry no cross-run state can keep the default no-op.
    fn reset(&mut self) {}

    /// Capture this policy's internal state for a checkpoint, or `None`
    /// if the policy does not support checkpointing (the default).
    ///
    /// The captured bag, together with the engine-owned state (cache
    /// contents in operation-history order, stats, clock), must be enough
    /// for [`load_state`](Self::load_state) to continue the run
    /// byte-identically — including RNG words for randomized policies.
    fn save_state(&self) -> Option<PolicyState> {
        None
    }

    /// Restore state captured by [`save_state`](Self::save_state). `ctx`
    /// reflects the *already restored* engine (cache contents, stats,
    /// universe, clock), which is what list-rebuilding policies need.
    ///
    /// Implementations must validate the bag via the typed
    /// [`PolicyState`] getters and return a [`SnapshotError`] rather
    /// than panicking on corrupt input.
    fn load_state(&mut self, _ctx: &EngineCtx, _state: &PolicyState) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported(self.name()))
    }
}

/// Forwarding impls for boxed policies so heterogeneous suites
/// (`Vec<Box<dyn …>>`) can be run directly. Generated for both the plain
/// trait object and its `+ Send` form (the concurrent shared-cache
/// engine moves per-shard policy instances across worker threads).
macro_rules! forward_boxed_policy {
    ($ty:ty) => {
        impl ReplacementPolicy for $ty {
            fn name(&self) -> String {
                (**self).name()
            }
            fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
                (**self).on_hit(ctx, page)
            }
            fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
                (**self).on_insert(ctx, page)
            }
            fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
                (**self).choose_victim(ctx, incoming)
            }
            fn on_evicted(&mut self, ctx: &EngineCtx, victim: PageId) {
                (**self).on_evicted(ctx, victim)
            }
            fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
                (**self).on_external_removal(ctx, page)
            }
            fn reset(&mut self) {
                (**self).reset()
            }
            fn save_state(&self) -> Option<PolicyState> {
                (**self).save_state()
            }
            fn load_state(
                &mut self,
                ctx: &EngineCtx,
                state: &PolicyState,
            ) -> Result<(), SnapshotError> {
                (**self).load_state(ctx, state)
            }
        }
    };
}

forward_boxed_policy!(Box<dyn ReplacementPolicy>);
forward_boxed_policy!(Box<dyn ReplacementPolicy + Send>);

/// Blanket impl so `&mut P` can be passed where a policy is expected.
impl<P: ReplacementPolicy + ?Sized> ReplacementPolicy for &mut P {
    fn name(&self) -> String {
        (**self).name()
    }
    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        (**self).on_hit(ctx, page)
    }
    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        (**self).on_insert(ctx, page)
    }
    fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
        (**self).choose_victim(ctx, incoming)
    }
    fn on_evicted(&mut self, ctx: &EngineCtx, victim: PageId) {
        (**self).on_evicted(ctx, victim)
    }
    fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
        (**self).on_external_removal(ctx, page)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn save_state(&self) -> Option<PolicyState> {
        (**self).save_state()
    }
    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        (**self).load_state(ctx, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// Evicts the cached page with the smallest id; exists to exercise the
    /// trait plumbing, including through `&mut`.
    struct MinPage;

    impl ReplacementPolicy for MinPage {
        fn name(&self) -> String {
            "min-page".into()
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
            ctx.cache.iter().min().expect("cache is full")
        }
    }

    #[test]
    fn policy_via_mut_ref() {
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 0]);
        let mut p = MinPage;
        let r = Simulator::new(2).run(&mut &mut p, &trace);
        // 0,1 fill; 2 evicts 0; request 0 evicts 1.
        assert_eq!(r.total_misses(), 4);
        assert_eq!(r.stats.total_evictions(), 2);
    }
}
