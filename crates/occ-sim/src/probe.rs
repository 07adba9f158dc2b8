//! The instrumentation layer: [`Recorder`] hooks threaded through the
//! engines as a generic parameter.
//!
//! The simulator's job is to be fast; observability must not tax the
//! uninstrumented path. Both engines are generic over a [`Recorder`] and
//! default to [`NoopRecorder`], whose hooks are empty `#[inline]` bodies
//! behind `ACTIVE = false`/`TIMED = false` associated constants. Every
//! dispatch site is guarded by those constants, so with `NoopRecorder`
//! the branches are constant-folded away and the engine monomorphizes to
//! exactly the unrecorded code (`bench_baseline` guards this against the
//! committed `BENCH_throughput.json`).
//!
//! Recorders see the same classification the engine commits to its
//! counters — one hook per request, in time order — plus an optional
//! per-request latency sample when [`Recorder::TIMED`] is set, taken by
//! the one [`LapClock`] both engines share. Heavier
//! consumers (histograms, streaming JSONL sinks, dual-variable traces)
//! live in the `occ-probe` crate; this module only defines the contract
//! so the engine does not depend on them.

use crate::engine::EngineCtx;
use crate::error::RequestFault;
use crate::ids::{PageId, Time, UserId};
use std::time::Instant;

/// Observer of engine decisions, threaded through a run as a generic
/// parameter.
///
/// All hooks default to no-ops so recorders implement only what they
/// need. Hooks fire *after* the engine has applied the decision (cache
/// contents and counters in `ctx` already include the request), matching
/// the post-state that [`ReplacementPolicy::on_insert`] callbacks see.
///
/// [`ReplacementPolicy::on_insert`]: crate::policy::ReplacementPolicy::on_insert
pub trait Recorder {
    /// Whether event hooks should be dispatched at all. `false` only for
    /// [`NoopRecorder`]-like types: every call site is guarded by this
    /// constant, so an inactive recorder compiles out of the engine.
    const ACTIVE: bool = true;

    /// Whether the engine should time each request with a [`LapClock`]
    /// and report it via [`Self::record_latency_ns`]. Off by default:
    /// even chained, one `Instant::now()` per request is measurable.
    const TIMED: bool = false;

    /// The requested page was already cached.
    fn record_hit(&mut self, _ctx: &EngineCtx, _t: Time, _page: PageId, _user: UserId) {}

    /// The page was fetched into free space (no eviction).
    fn record_insert(&mut self, _ctx: &EngineCtx, _t: Time, _page: PageId, _user: UserId) {}

    /// The page was fetched and `victim` was evicted to make room.
    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        _t: Time,
        _page: PageId,
        _user: UserId,
        _victim: PageId,
        _victim_user: UserId,
    ) {
    }

    /// A page was evicted by the end-of-run flush
    /// ([`SimOptions::flush_at_end`](crate::engine::SimOptions)).
    fn record_flush_eviction(&mut self, _page: PageId, _user: UserId) {}

    /// Wall-clock nanoseconds from the previous stamp to the stamp taken
    /// after the request at time `t` and its hooks (see [`LapClock`];
    /// only called when [`Self::TIMED`] is `true`).
    fn record_latency_ns(&mut self, _t: Time, _ns: u64) {}

    /// A faulty request record was absorbed by a checked run (skipped or
    /// quarantine-dropped under a degradation
    /// [`FaultPolicy`](crate::error::FaultPolicy)). Never fired by the
    /// unchecked hot paths.
    fn record_fault(&mut self, _fault: &RequestFault) {}
}

/// The per-request latency clock both engines time requests with.
///
/// Stamps are chained: the stamp that ends one request also starts the
/// next, so a run of requests costs one `Instant::now()` each, and its
/// samples partition the run's serving time (they sum to the time from
/// its first stamp to its last). A fresh clock holds no stamp and its
/// first request reads the clock to start, so a lone request costs two
/// reads. Both methods do nothing unless `R::TIMED`, so an untimed
/// recorder compiles the clock out.
#[derive(Clone, Copy, Debug, Default)]
pub struct LapClock(Option<Instant>);

impl LapClock {
    /// Start a request, unless the previous request's end stamp already
    /// did.
    #[inline(always)]
    pub fn start<R: Recorder>(&mut self) {
        if R::TIMED && self.0.is_none() {
            self.0 = Some(Instant::now());
        }
    }

    /// End the request served at `t`: report the time since its start to
    /// `recorder` and keep the end stamp as the next request's start.
    #[inline(always)]
    pub fn lap<R: Recorder>(&mut self, recorder: &mut R, t: Time) {
        if R::TIMED {
            let now = Instant::now();
            if let Some(start) = self.0.replace(now) {
                recorder.record_latency_ns(t, now.duration_since(start).as_nanos() as u64);
            }
        }
    }
}

/// The default recorder: records nothing, costs nothing.
///
/// `ACTIVE = false` turns every dispatch site in the engines into dead
/// code, so runs parameterized by `NoopRecorder` compile to the same
/// machine code as the pre-instrumentation engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ACTIVE: bool = false;
    const TIMED: bool = false;
}

/// Forwarding impl so a recorder can be threaded by `&mut` without
/// giving up ownership (the engines take recorders by value).
impl<R: Recorder> Recorder for &mut R {
    const ACTIVE: bool = R::ACTIVE;
    const TIMED: bool = R::TIMED;

    fn record_hit(&mut self, ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        (**self).record_hit(ctx, t, page, user);
    }
    fn record_insert(&mut self, ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        (**self).record_insert(ctx, t, page, user);
    }
    fn record_eviction(
        &mut self,
        ctx: &EngineCtx,
        t: Time,
        page: PageId,
        user: UserId,
        victim: PageId,
        victim_user: UserId,
    ) {
        (**self).record_eviction(ctx, t, page, user, victim, victim_user);
    }
    fn record_flush_eviction(&mut self, page: PageId, user: UserId) {
        (**self).record_flush_eviction(page, user);
    }
    fn record_latency_ns(&mut self, t: Time, ns: u64) {
        (**self).record_latency_ns(t, ns);
    }
    fn record_fault(&mut self, fault: &RequestFault) {
        (**self).record_fault(fault);
    }
}

/// Fan-out: a pair of recorders both observe the run. Compose nested
/// pairs for more than two. Constants are the OR of the parts, so a
/// `(NoopRecorder, NoopRecorder)` still compiles out entirely.
impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    const ACTIVE: bool = A::ACTIVE || B::ACTIVE;
    const TIMED: bool = A::TIMED || B::TIMED;

    fn record_hit(&mut self, ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        if A::ACTIVE {
            self.0.record_hit(ctx, t, page, user);
        }
        if B::ACTIVE {
            self.1.record_hit(ctx, t, page, user);
        }
    }
    fn record_insert(&mut self, ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        if A::ACTIVE {
            self.0.record_insert(ctx, t, page, user);
        }
        if B::ACTIVE {
            self.1.record_insert(ctx, t, page, user);
        }
    }
    fn record_eviction(
        &mut self,
        ctx: &EngineCtx,
        t: Time,
        page: PageId,
        user: UserId,
        victim: PageId,
        victim_user: UserId,
    ) {
        if A::ACTIVE {
            self.0
                .record_eviction(ctx, t, page, user, victim, victim_user);
        }
        if B::ACTIVE {
            self.1
                .record_eviction(ctx, t, page, user, victim, victim_user);
        }
    }
    fn record_flush_eviction(&mut self, page: PageId, user: UserId) {
        if A::ACTIVE {
            self.0.record_flush_eviction(page, user);
        }
        if B::ACTIVE {
            self.1.record_flush_eviction(page, user);
        }
    }
    fn record_latency_ns(&mut self, t: Time, ns: u64) {
        if A::TIMED {
            self.0.record_latency_ns(t, ns);
        }
        if B::TIMED {
            self.1.record_latency_ns(t, ns);
        }
    }
    fn record_fault(&mut self, fault: &RequestFault) {
        if A::ACTIVE {
            self.0.record_fault(fault);
        }
        if B::ACTIVE {
            self.1.record_fault(fault);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use crate::trace::{Trace, Universe};
    use crate::Simulator;

    /// Counts every hook invocation.
    #[derive(Default)]
    struct Counting {
        hits: u64,
        inserts: u64,
        evictions: u64,
        flushes: u64,
    }

    impl Recorder for Counting {
        fn record_hit(&mut self, ctx: &EngineCtx, _t: Time, _page: PageId, user: UserId) {
            // Post-state: the hit is already counted.
            assert!(ctx.stats.user(user).hits > 0);
            self.hits += 1;
        }
        fn record_insert(&mut self, _ctx: &EngineCtx, _t: Time, _page: PageId, _user: UserId) {
            self.inserts += 1;
        }
        fn record_eviction(
            &mut self,
            ctx: &EngineCtx,
            _t: Time,
            _page: PageId,
            _user: UserId,
            victim: PageId,
            _victim_user: UserId,
        ) {
            assert!(!ctx.cache.contains(victim), "hook fires after the swap");
            self.evictions += 1;
        }
        fn record_flush_eviction(&mut self, _page: PageId, _user: UserId) {
            self.flushes += 1;
        }
    }

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
    fn hooks_mirror_counters() {
        let u = Universe::uniform(2, 2);
        let trace = Trace::from_page_indices(&u, &[0, 2, 1, 0, 3, 2]);
        let mut rec = Counting::default();
        let r =
            Simulator::new(2)
                .flush_at_end(true)
                .run_recorded(&mut EvictFirst, &trace, &mut rec);
        assert_eq!(rec.hits, r.stats.total_hits());
        assert_eq!(rec.inserts + rec.evictions, r.total_misses());
        assert_eq!(rec.evictions + rec.flushes, r.stats.total_evictions());
    }

    #[test]
    fn pair_recorder_fans_out() {
        let u = Universe::uniform(2, 2);
        let trace = Trace::from_page_indices(&u, &[0, 2, 1, 0, 3, 2]);
        let mut pair = (Counting::default(), Counting::default());
        Simulator::new(2).run_recorded(&mut EvictFirst, &trace, &mut pair);
        assert_eq!(pair.0.hits, pair.1.hits);
        assert_eq!(pair.0.evictions, pair.1.evictions);
        assert!(pair.0.inserts > 0);
    }

    #[test]
    fn noop_recorder_constants() {
        const { assert!(!NoopRecorder::ACTIVE) };
        const { assert!(!<(NoopRecorder, NoopRecorder)>::ACTIVE) };
        const { assert!(<(Counting, NoopRecorder)>::ACTIVE) };
    }
}
