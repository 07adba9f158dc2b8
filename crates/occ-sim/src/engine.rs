//! The simulator: exact replay of a request sequence against a
//! replacement policy, with per-tenant accounting.
//!
//! The engine is the single owner of ground truth (cache contents and
//! counters); policies only pick victims. This guarantees that two policies
//! run on the same trace see byte-identical hit/miss classification, which
//! is what makes cross-policy cost comparisons meaningful.
//!
//! [`Simulator`] is a thin wrapper over [`SteppingEngine`]: every entry
//! point builds one engine, feeds it from a source, and packages the
//! outcome as a [`SimResult`].

use crate::cache::CacheSet;
use crate::event::EventLog;
use crate::ids::{PageId, Time};
use crate::policy::ReplacementPolicy;
use crate::probe::{NoopRecorder, Recorder};
use crate::source::{RequestSource, TraceSource};
use crate::stats::SimStats;
use crate::stepper::SteppingEngine;
use crate::trace::{Trace, Universe};

/// Read-only view of the engine state handed to policies and sources.
pub struct EngineCtx<'a> {
    /// Current time (zero-based request index).
    pub time: Time,
    /// Current cache contents.
    pub cache: &'a CacheSet,
    /// Counters so far. During [`ReplacementPolicy::choose_victim`] these
    /// exclude the in-flight request, so `stats.user(u).evictions` is the
    /// paper's `m(u, t-1)`.
    pub stats: &'a SimStats,
    /// The page/user universe.
    pub universe: &'a Universe,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions {
    /// Keep a [`SimEvent`](crate::event::SimEvent) per request in
    /// [`SimResult::events`] (off by default: costs memory proportional
    /// to the trace — long runs should stream through a recorder).
    pub record_events: bool,
    /// After the last request, evict every cached page and count those
    /// evictions. This models the paper's dummy-user flush (§2.1), making
    /// per-user eviction counts equal per-user miss counts.
    pub flush_at_end: bool,
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Per-user counters.
    pub stats: SimStats,
    /// Event log, present iff [`SimOptions::record_events`] was set.
    pub events: Option<EventLog>,
    /// Pages cached after the final request (before any flush), ascending.
    pub final_cache: Vec<PageId>,
    /// Number of requests served.
    pub steps: u64,
}

impl SimResult {
    /// Total misses (fetches) across users.
    pub fn total_misses(&self) -> u64 {
        self.stats.total_misses()
    }

    /// Per-user miss vector `a_i(σ)`, indexed by user id.
    pub fn miss_vector(&self) -> Vec<u64> {
        self.stats.miss_vector()
    }

    /// Miss rate over the whole run (`0.0` for an empty run).
    pub fn miss_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.total_misses() as f64 / self.steps as f64
        }
    }
}

/// How a [`Simulator`] entry point feeds its engine.
enum Feed {
    /// One [`SteppingEngine::step`] per pulled request, so an adaptive
    /// source observes every step.
    Pull,
    /// [`SteppingEngine::serve_from`] batches of at most this many
    /// requests.
    Batched(usize),
}

/// The simulator: a cache size plus run options.
#[derive(Clone, Copy, Debug)]
pub struct Simulator {
    capacity: usize,
    options: SimOptions,
}

impl Simulator {
    /// A simulator with cache size `k` and default options.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache size k must be positive");
        Simulator {
            capacity,
            options: SimOptions::default(),
        }
    }

    /// Enable per-request event recording.
    pub fn record_events(mut self, on: bool) -> Self {
        self.options.record_events = on;
        self
    }

    /// Enable the end-of-run flush (count one eviction per page left in the
    /// cache).
    pub fn flush_at_end(mut self, on: bool) -> Self {
        self.options.flush_at_end = on;
        self
    }

    /// Cache size `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Run `policy` over a fixed `trace`.
    pub fn run<P: ReplacementPolicy>(&self, policy: &mut P, trace: &Trace) -> SimResult {
        let mut source = TraceSource::new(trace);
        self.run_source(policy, &mut source)
    }

    /// Run `policy` over a fixed `trace` with a [`Recorder`] observing
    /// every decision.
    pub fn run_recorded<P, R>(&self, policy: &mut P, trace: &Trace, recorder: &mut R) -> SimResult
    where
        P: ReplacementPolicy,
        R: Recorder,
    {
        let mut source = TraceSource::new(trace);
        self.run_source_recorded(policy, &mut source, recorder)
    }

    /// Run `policy` against a (possibly adaptive) request source.
    pub fn run_source<P, S>(&self, policy: &mut P, source: &mut S) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
    {
        // NoopRecorder's hooks are dead code behind `ACTIVE = false`, so
        // this monomorphizes to the unrecorded engine.
        self.run_source_recorded(policy, source, &mut NoopRecorder)
    }

    /// Run `policy` against a request source with a [`Recorder`]
    /// observing every decision (see [`crate::probe`]). Requests are
    /// pulled one at a time, so an adaptive source sees the engine state
    /// after every step.
    pub fn run_source_recorded<P, S, R>(
        &self,
        policy: &mut P,
        source: &mut S,
        recorder: &mut R,
    ) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
        R: Recorder,
    {
        self.drive(policy, source, recorder, Feed::Pull)
    }

    /// Run `policy` over a fixed `trace` through the batch loop (see
    /// [`SteppingEngine::step_batch`]): byte-identical results to
    /// [`Self::run`], served in `batch_size`-request slices of the trace.
    pub fn run_batched<P: ReplacementPolicy>(
        &self,
        policy: &mut P,
        trace: &Trace,
        batch_size: usize,
    ) -> SimResult {
        self.run_source_batched(policy, &mut TraceSource::new(trace), batch_size)
    }

    /// Run `policy` against a request source through the batch loop,
    /// at most `batch_size` requests at a time (see
    /// [`SteppingEngine::serve_from`]) — the streaming counterpart of
    /// [`Self::run_batched`], with memory independent of the stream
    /// length.
    ///
    /// Every request in a pulled batch is drawn before the batch is
    /// served, so an *adaptive* source observes the engine state as of
    /// the previous batch boundary, not the previous request.
    /// Non-adaptive sources (fixed traces, seeded generators) produce
    /// byte-identical results to [`Self::run_source`].
    pub fn run_source_batched<P, S>(
        &self,
        policy: &mut P,
        source: &mut S,
        batch_size: usize,
    ) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
    {
        assert!(batch_size > 0, "batch size must be positive");
        self.drive(policy, source, &mut NoopRecorder, Feed::Batched(batch_size))
    }

    /// The one construct-and-finish path behind every entry point: an
    /// engine of capacity `k` over `source`'s universe, observed by
    /// `recorder` — paired with an [`EventLog`] when
    /// [`SimOptions::record_events`] is set — and driven by `feed`.
    fn drive<P, S, R>(
        &self,
        policy: &mut P,
        source: &mut S,
        recorder: &mut R,
        feed: Feed,
    ) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
        R: Recorder,
    {
        if !self.options.record_events {
            return self.drive_with(policy, source, recorder, feed);
        }
        let mut log = EventLog::new();
        let mut result = self.drive_with(policy, source, (recorder, &mut log), feed);
        result.events = Some(log);
        result
    }

    /// [`Self::drive`] for one concrete recorder: feed the engine until
    /// the source runs dry, capture the final cache, apply the optional
    /// end-of-run flush, and package the result.
    fn drive_with<P, S, R>(
        &self,
        policy: &mut P,
        source: &mut S,
        recorder: R,
        feed: Feed,
    ) -> SimResult
    where
        P: ReplacementPolicy,
        S: RequestSource,
        R: Recorder,
    {
        let universe = source.universe().clone();
        let mut engine =
            SteppingEngine::new(self.capacity, universe, policy).with_recorder(recorder);
        match feed {
            Feed::Pull => {
                while let Some(req) = source.next_request(&engine.ctx()) {
                    engine.step(req);
                }
            }
            Feed::Batched(max) => {
                let mut buf = Vec::new();
                while engine.serve_from(source, max, &mut buf) > 0 {}
            }
        }
        let final_cache = engine.cache().sorted_pages();
        if self.options.flush_at_end {
            engine.flush();
        }
        SimResult {
            stats: engine.stats().clone(),
            events: None,
            final_cache,
            steps: engine.time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{FaultHandler, FaultPolicy, SimError};
    use crate::event::SimEvent;
    use crate::ids::UserId;
    use crate::trace::Universe;

    /// Evicts the page cached in physical slot 0 — arbitrary but valid.
    struct EvictFirst;
    impl ReplacementPolicy for EvictFirst {
        fn name(&self) -> String {
            "evict-first".into()
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
            ctx.cache.pages()[0]
        }
    }

    fn two_user_trace() -> Trace {
        let u = Universe::uniform(2, 2); // u0: p0 p1; u1: p2 p3
        Trace::from_page_indices(&u, &[0, 2, 1, 0, 3, 2])
    }

    #[test]
    fn hits_and_misses_classified_exactly() {
        // k=3: 0m 2m 1m 0h 3m(evict) 2? depends on victim.
        let trace = two_user_trace();
        let r = Simulator::new(3).run(&mut EvictFirst, &trace);
        assert_eq!(r.steps, 6);
        assert_eq!(r.stats.total_hits() + r.total_misses(), 6);
        // First three requests fill the cache; the fourth (p0) hits.
        assert!(r.stats.user(UserId(0)).hits >= 1);
    }

    #[test]
    fn eviction_counts_charged_to_victim_owner() {
        let u = Universe::uniform(2, 1); // p0 owned by u0, p1 by u1
        let trace = Trace::from_page_indices(&u, &[0, 1, 0, 1]);
        let r = Simulator::new(1).run(&mut EvictFirst, &trace);
        // Every request after the first evicts the other user's page.
        assert_eq!(r.stats.user(UserId(0)).evictions, 2); // p0 evicted at t=1, t=3
        assert_eq!(r.stats.user(UserId(1)).evictions, 1); // p1 evicted at t=2
        assert_eq!(r.total_misses(), 4);
    }

    #[test]
    fn flush_makes_evictions_equal_misses() {
        let trace = two_user_trace();
        let no_flush = Simulator::new(2).run(&mut EvictFirst, &trace);
        assert!(no_flush.stats.total_evictions() < no_flush.total_misses());
        let flushed = Simulator::new(2)
            .flush_at_end(true)
            .run(&mut EvictFirst, &trace);
        assert_eq!(flushed.stats.total_evictions(), flushed.total_misses());
        // Per-user too, which is the paper's accounting identity.
        assert_eq!(flushed.stats.miss_vector(), flushed.stats.eviction_vector());
    }

    #[test]
    fn event_log_matches_counters() {
        let trace = two_user_trace();
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut EvictFirst, &trace);
        let log = r.events.as_ref().expect("events were requested");
        assert_eq!(log.len() as u64, r.steps);
        let evictions = log.eviction_sequence().len() as u64;
        assert_eq!(evictions, r.stats.total_evictions());
        let hits = log
            .iter()
            .filter(|e| matches!(e, SimEvent::Hit { .. }))
            .count() as u64;
        assert_eq!(hits, r.stats.total_hits());
    }

    #[test]
    fn final_cache_is_reported_sorted() {
        let trace = two_user_trace();
        let r = Simulator::new(3).run(&mut EvictFirst, &trace);
        let mut sorted = r.final_cache.clone();
        sorted.sort();
        assert_eq!(r.final_cache, sorted);
        assert!(r.final_cache.len() <= 3);
    }

    #[test]
    fn miss_rate() {
        let u = Universe::single_user(2);
        let trace = Trace::from_page_indices(&u, &[0, 0, 0, 1]);
        let r = Simulator::new(2).run(&mut EvictFirst, &trace);
        assert_eq!(r.total_misses(), 2);
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_fine() {
        let u = Universe::single_user(2);
        let trace = Trace::from_page_indices(&u, &[]);
        let r = Simulator::new(2).run(&mut EvictFirst, &trace);
        assert_eq!(r.steps, 0);
        assert_eq!(r.miss_rate(), 0.0);
        assert!(r.final_cache.is_empty());
    }

    /// Serve `source` to exhaustion through `step_checked`, stopping at
    /// the first error.
    fn run_checked<S: RequestSource, R: Recorder>(
        engine: &mut SteppingEngine<EvictFirst, R>,
        source: &mut S,
        handler: &mut FaultHandler,
    ) -> Result<(), SimError> {
        while let Some(req) = source.next_request(&engine.ctx()) {
            engine.step_checked(req, handler)?;
        }
        Ok(())
    }

    #[test]
    fn checked_run_matches_unchecked_on_clean_input() {
        let trace = two_user_trace();
        let sim = Simulator::new(2).record_events(true).flush_at_end(true);
        let plain = sim.run(&mut EvictFirst, &trace);
        let mut checked = SteppingEngine::new(2, trace.universe().clone(), EvictFirst)
            .with_recorder(EventLog::new());
        let mut handler = FaultHandler::new(FaultPolicy::FailFast, 2);
        run_checked(&mut checked, &mut TraceSource::new(&trace), &mut handler).unwrap();
        let final_cache = checked.cache().sorted_pages();
        checked.flush();
        assert!(handler.counters().is_clean());
        assert!(handler.quarantined_users().is_empty());
        assert_eq!(checked.stats(), &plain.stats);
        assert_eq!(checked.time(), plain.steps);
        assert_eq!(final_cache, plain.final_cache);
        assert_eq!(
            checked.recorder().to_vec(),
            plain.events.as_ref().unwrap().to_vec()
        );
    }

    #[test]
    fn checked_run_skips_corrupt_source_records() {
        use crate::trace::Request;

        // A source that interleaves out-of-range pages with a clean
        // single-user stream.
        struct Glitchy {
            universe: Universe,
            t: u64,
        }
        impl RequestSource for Glitchy {
            fn universe(&self) -> &Universe {
                &self.universe
            }
            fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
                let t = self.t;
                self.t += 1;
                if t >= 9 {
                    return None;
                }
                if t % 3 == 2 {
                    Some(Request {
                        page: PageId(1000),
                        user: UserId(0),
                    })
                } else {
                    Some(self.universe.request(PageId((t % 2) as u32)))
                }
            }
        }

        let universe = Universe::single_user(2);
        let mut src = Glitchy {
            universe: universe.clone(),
            t: 0,
        };
        let mut checked = SteppingEngine::new(2, universe.clone(), EvictFirst);
        let mut handler = FaultHandler::new(FaultPolicy::SkipAndCount, 1);
        run_checked(&mut checked, &mut src, &mut handler).unwrap();
        assert_eq!(handler.counters().page_out_of_range, 3);
        assert_eq!(checked.time(), 9); // dropped records consume ticks
        assert_eq!(checked.stats().total_misses(), 2);
        assert_eq!(checked.stats().total_hits(), 4);

        // The same stream under fail-fast dies on the first glitch.
        let mut src = Glitchy {
            universe: universe.clone(),
            t: 0,
        };
        let mut checked = SteppingEngine::new(2, universe, EvictFirst);
        let mut handler = FaultHandler::new(FaultPolicy::FailFast, 1);
        let err = run_checked(&mut checked, &mut src, &mut handler).unwrap_err();
        assert!(matches!(err, SimError::Request(_)));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn bad_victim_is_rejected() {
        struct Liar;
        impl ReplacementPolicy for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
                PageId(999_999 % 4) // p3 won't be cached in this scenario
            }
        }
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2]);
        Simulator::new(2).run(&mut Liar, &trace);
    }

    #[test]
    fn capacity_one_cache() {
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 0, 1, 1, 2]);
        let r = Simulator::new(1).run(&mut EvictFirst, &trace);
        assert_eq!(r.total_misses(), 3);
        assert_eq!(r.stats.total_hits(), 2);
    }
}
