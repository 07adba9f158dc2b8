//! Request sources: fixed traces and adaptive adversaries.
//!
//! Competitive lower bounds (the paper's §4) are proved against an
//! *adaptive* adversary that watches the online algorithm's cache and
//! requests whatever is missing. Such a sequence cannot be a fixed
//! [`Trace`] — it is a function of the algorithm — so the
//! engine can also be driven by a [`RequestSource`], which gets to inspect
//! the live engine state before emitting each request.

use crate::engine::EngineCtx;
use crate::ids::PageId;
use crate::trace::{Request, Trace, Universe};

/// A (possibly adaptive) stream of requests.
pub trait RequestSource {
    /// The universe the requests range over.
    fn universe(&self) -> &Universe;

    /// Produce the next request, or `None` to end the run. `ctx` exposes
    /// the engine state *before* this request is served — in particular the
    /// current cache contents, which is what an adaptive adversary needs.
    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request>;

    /// Bulk twin of [`next_request`](Self::next_request): hand out a
    /// borrowed run of up to `max` upcoming requests and advance past
    /// them, or `None` when no run is available.
    /// [`serve_from`](crate::SteppingEngine::serve_from) tries this
    /// (after [`next_page_run`](Self::next_page_run)) before falling
    /// back to per-request pulls, so a fixed trace feeds
    /// [`step_batch`](crate::SteppingEngine::step_batch) slices of its
    /// own backing storage, and a seeded generator a buffer it fills
    /// in one loop — no per-request engine-state round-trip. The
    /// default returns `None`, which is the only
    /// correct answer for adaptive sources: handing out a run commits
    /// to requests that cannot observe the engine mid-run.
    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        let _ = max;
        None
    }

    /// Zero-copy twin of [`next_run`](Self::next_run) for sources whose
    /// backing storage holds bare page ids rather than materialized
    /// [`Request`]s (the mmap-backed binary reader): hand out a borrowed
    /// run of up to `max` upcoming page ids and advance past them. The
    /// consumer derives each owner from the universe — the same lookup
    /// the source would have performed to build a `Request`, so nothing
    /// is lost, and the ids can be served straight from a file mapping
    /// without decoding. Replay loops try this first, then
    /// [`next_run`](Self::next_run), then scalar pulls. The default
    /// returns `None`.
    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        let _ = max;
        None
    }
}

/// A borrowed source is a source: runners that consume their sources
/// (the fleet's shard pool) can be handed `&mut` ones, so the caller
/// still owns each source afterwards and can read its parked error.
impl<S: RequestSource + ?Sized> RequestSource for &mut S {
    fn universe(&self) -> &Universe {
        (**self).universe()
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        (**self).next_request(ctx)
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        (**self).next_run(max)
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        (**self).next_page_run(max)
    }
}

/// A [`RequestSource`] that can deterministically fast-forward.
///
/// `seek_forward(n)` must leave the source in *exactly* the state it
/// would have after `n` calls to [`next_request`](RequestSource::next_request)
/// — same RNG state, same position, same subsequent requests. This is
/// what lets a crashed shard restart from a window-boundary checkpoint
/// and replay the identical remainder of its stream: the fleet
/// supervisor rebuilds a fresh source and seeks it to the checkpoint
/// time. Only non-adaptive sources can implement this (an adaptive
/// adversary's requests depend on engine state that no longer exists).
pub trait SeekableSource: RequestSource {
    /// Skip the next `n` requests without serving them.
    fn seek_forward(&mut self, n: u64);
}

/// A fixed request sequence replayed in order: a [`Trace`], or a raw
/// request slice over a universe.
pub struct TraceSource<'a> {
    universe: &'a Universe,
    requests: &'a [Request],
    pos: usize,
}

impl<'a> TraceSource<'a> {
    /// Replay `trace` from the beginning.
    pub fn new(trace: &'a Trace) -> Self {
        Self::raw(trace.universe(), trace.requests())
    }

    /// Replay `requests` over `universe` from the beginning. Unlike a
    /// [`Trace`], the records are not checked against the universe; when
    /// they may be corrupt (a chaos-injected stream, say), serve each one
    /// with [`step_checked`](crate::SteppingEngine::step_checked).
    pub fn raw(universe: &'a Universe, requests: &'a [Request]) -> Self {
        TraceSource {
            universe,
            requests,
            pos: 0,
        }
    }
}

impl RequestSource for TraceSource<'_> {
    fn universe(&self) -> &Universe {
        self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        let r = self.requests.get(self.pos).copied();
        self.pos += 1;
        r
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        let rest = &self.requests[self.pos.min(self.requests.len())..];
        if rest.is_empty() {
            return None;
        }
        let take = rest.len().min(max);
        self.pos += take;
        Some(&rest[..take])
    }
}

impl SeekableSource for TraceSource<'_> {
    fn seek_forward(&mut self, n: u64) {
        let n = usize::try_from(n).unwrap_or(usize::MAX);
        self.pos = self.pos.saturating_add(n).min(self.requests.len());
    }
}

/// An adaptive source driven by a closure: each step sees the cached pages
/// and returns the next page to request (or `None` to stop).
///
/// This is the building block for the §4 adversary (implemented in
/// `occ-workloads`), and handy for one-off adversaries in tests:
///
/// ```
/// use occ_sim::prelude::*;
///
/// // Universe of 3 single-page users, cache of 2: always request a page
/// // that is not currently cached.
/// let universe = Universe::uniform(3, 1);
/// let mut steps = 0;
/// let mut adversary = AdaptiveSource::new(universe, move |cached: &[PageId]| {
///     steps += 1;
///     if steps > 10 {
///         return None;
///     }
///     (0..3).map(PageId).find(|p| !cached.contains(p))
/// });
///
/// struct EvictFirst;
/// impl ReplacementPolicy for EvictFirst {
///     fn name(&self) -> String { "evict-first".into() }
///     fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
///         ctx.cache.pages()[0]
///     }
/// }
///
/// let result = Simulator::new(2).run_source(&mut EvictFirst, &mut adversary);
/// assert_eq!(result.total_misses(), 10); // every adaptive request misses
/// ```
pub struct AdaptiveSource<F> {
    universe: Universe,
    next: F,
}

impl<F> AdaptiveSource<F>
where
    F: FnMut(&[PageId]) -> Option<PageId>,
{
    /// Create an adaptive source; `next` maps the current cache contents to
    /// the next requested page.
    pub fn new(universe: Universe, next: F) -> Self {
        AdaptiveSource { universe, next }
    }
}

impl<F> RequestSource for AdaptiveSource<F>
where
    F: FnMut(&[PageId]) -> Option<PageId>,
{
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        (self.next)(ctx.cache.pages()).map(|p| self.universe.request(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    struct EvictFirst;
    impl ReplacementPolicy for EvictFirst {
        fn name(&self) -> String {
            "evict-first".into()
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
            ctx.cache.pages()[0]
        }
    }

    #[test]
    fn trace_source_replays_in_order() {
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[2, 0, 2]);
        let via_trace = Simulator::new(2).run(&mut EvictFirst, &trace);
        let mut src = TraceSource::new(&trace);
        let via_source = Simulator::new(2).run_source(&mut EvictFirst, &mut src);
        assert_eq!(
            via_trace.stats.miss_vector(),
            via_source.stats.miss_vector()
        );
        assert_eq!(via_source.steps, 3);
    }

    #[test]
    fn trace_source_bulk_runs_cover_the_trace_exactly_once() {
        let u = Universe::single_user(5);
        let pages: Vec<u32> = (0..23).map(|i| i % 5).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let mut src = TraceSource::new(&trace);
        let mut seen = Vec::new();
        while let Some(run) = src.next_run(7) {
            assert!(!run.is_empty() && run.len() <= 7);
            seen.extend_from_slice(run);
        }
        assert_eq!(seen.as_slice(), trace.requests());
        // Drained via runs ⇒ drained for per-request pulls too.
        let eng = crate::SteppingEngine::new(2, u.clone(), EvictFirst);
        assert_eq!(src.next_request(&eng.ctx()), None);
        // Mixing pull styles stays in sync: one scalar pull, then a run
        // picking up right after it.
        let mut src = TraceSource::new(&trace);
        let first = src.next_request(&eng.ctx()).unwrap();
        assert_eq!(first, trace.requests()[0]);
        assert_eq!(src.next_run(4).unwrap(), &trace.requests()[1..5]);
    }

    #[test]
    fn seek_forward_matches_pull_and_discard() {
        let u = Universe::single_user(5);
        let pages: Vec<u32> = (0..17).map(|i| (i * 3) % 5).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let eng = crate::SteppingEngine::new(2, u.clone(), EvictFirst);
        for skip in [0u64, 1, 5, 16, 17, 40] {
            let mut pulled = TraceSource::new(&trace);
            for _ in 0..skip.min(17) {
                pulled.next_request(&eng.ctx());
            }
            let mut sought = TraceSource::new(&trace);
            sought.seek_forward(skip);
            loop {
                let a = pulled.next_request(&eng.ctx());
                let b = sought.next_request(&eng.ctx());
                assert_eq!(a, b, "skip={skip}");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn adaptive_source_sees_live_cache() {
        // Request the lowest non-cached page, 6 times. With capacity 2 and
        // 3 pages every request is a miss regardless of the policy.
        let u = Universe::uniform(3, 1);
        let mut remaining = 6;
        let mut src = AdaptiveSource::new(u, move |cached: &[PageId]| {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            (0..3).map(PageId).find(|p| !cached.contains(p))
        });
        let r = Simulator::new(2).run_source(&mut EvictFirst, &mut src);
        assert_eq!(r.total_misses(), 6);
        assert_eq!(r.stats.total_hits(), 0);
    }
}
