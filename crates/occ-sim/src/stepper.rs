//! The engine: one cache + one policy, and the one hit/insert/evict
//! state machine in the crate.
//!
//! [`SteppingEngine`] serves a request at a time ([`step`],
//! [`step_checked`]) or a batch at a time ([`step_batch`],
//! [`step_page_batch`], [`serve_from`]); every path runs the same serve
//! core, so recorded, checked and batched runs cannot drift apart.
//! [`serve_stops`] is the loop over a whole source that every product
//! command runs: it alone decides where a batch ends.
//! [`Simulator`](crate::Simulator) is a thin wrapper that builds an
//! engine, feeds it a source and packages the result. Callers that
//! interleave simulation with other decisions — the multi-pool system of
//! `occ-pools` (the paper's §5 future-work direction) routes each
//! request to one of several engines and migrates users between them
//! mid-stream — drive the engine directly.
//!
//! The engine also supports *external removal* of pages (a user
//! migrating away takes its pages with it), which a plain replay never
//! needs.
//!
//! [`step`]: SteppingEngine::step
//! [`step_checked`]: SteppingEngine::step_checked
//! [`step_batch`]: SteppingEngine::step_batch
//! [`step_page_batch`]: SteppingEngine::step_page_batch
//! [`serve_from`]: SteppingEngine::serve_from
//! [`serve_stops`]: SteppingEngine::serve_stops

use crate::cache::CacheSet;
use crate::engine::EngineCtx;
use crate::error::{
    FaultHandler, FaultKind, FaultPolicy, PolicyViolation, PolicyViolationKind, RequestFault,
    SimError, SnapshotError,
};
use crate::ids::{PageId, Time, UserId};
use crate::policy::ReplacementPolicy;
use crate::probe::{LapClock, NoopRecorder, Recorder};
use crate::snapshot::{EngineSnapshot, SNAPSHOT_VERSION};
use crate::source::RequestSource;
use crate::stats::SimStats;
use crate::trace::{Request, Universe};

/// Default chunk size for [`SteppingEngine::run_batched`] and friends:
/// 4096 requests × 8 bytes keeps a whole chunk (32 KiB) resident in L1
/// while amortizing the per-chunk bookkeeping over enough requests that
/// it vanishes from profiles.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// How many requests ahead the batched kernel issues software
/// prefetches ([`CacheSet::prefetch_probe`]) while serving the current
/// request. Eight requests ≈ 100–250 ns of work on the steady-state
/// path — enough to cover an L2/L3 load without prefetching so far
/// ahead that lines are evicted again before use.
pub const PREFETCH_DISTANCE: usize = 8;

/// The first multiple of `every` after `t`, or `Time::MAX` (never) when
/// `every` is 0: the next stop of a cadence in
/// [`SteppingEngine::serve_stops`].
pub fn next_multiple(t: Time, every: u64) -> Time {
    match every {
        0 => Time::MAX,
        e => (t / e + 1).saturating_mul(e),
    }
}

/// What happened when a request was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The page was already cached.
    Hit,
    /// The page was fetched into free space.
    Inserted,
    /// The page was fetched; the contained page was evicted.
    Evicted(PageId),
}

/// The read-only [`EngineCtx`] view over an engine's fields, spelled out
/// field by field so the policy and recorder can be borrowed mutably
/// beside it.
macro_rules! ctx {
    ($engine:expr) => {
        EngineCtx {
            time: $engine.time,
            cache: &$engine.cache,
            stats: &$engine.stats,
            universe: &$engine.universe,
        }
    };
}

/// An element of a batch: a full [`Request`], or a bare [`PageId`] whose
/// owner is looked up in the universe at the one point it is consumed —
/// the same lookup a decoding source performs to build a `Request`.
pub(crate) trait BatchItem: Copy {
    fn page(self) -> PageId;
    fn request(self, universe: &Universe) -> Request;
}

impl BatchItem for Request {
    #[inline(always)]
    fn page(self) -> PageId {
        self.page
    }
    #[inline(always)]
    fn request(self, _universe: &Universe) -> Request {
        self
    }
}

impl BatchItem for PageId {
    #[inline(always)]
    fn page(self) -> PageId {
        self
    }
    #[inline(always)]
    fn request(self, universe: &Universe) -> Request {
        Request {
            page: self,
            user: universe.owner(self),
        }
    }
}

/// One cache + one policy, driven request by request or batch by batch,
/// with an optional [`Recorder`] observing every step (defaults to the
/// free [`NoopRecorder`]).
pub struct SteppingEngine<P, R = NoopRecorder> {
    universe: Universe,
    cache: CacheSet,
    stats: SimStats,
    policy: P,
    recorder: R,
    time: Time,
}

impl<P: ReplacementPolicy> SteppingEngine<P, NoopRecorder> {
    /// Create an engine with cache size `capacity`.
    pub fn new(capacity: usize, universe: Universe, policy: P) -> Self {
        let cache = CacheSet::new(capacity, universe.num_pages());
        let stats = SimStats::new(universe.num_users());
        SteppingEngine {
            universe,
            cache,
            stats,
            policy,
            recorder: NoopRecorder,
            time: 0,
        }
    }

    /// Rebuild an engine entirely from a checkpoint: the universe comes
    /// from the snapshot's embedded owner table, then
    /// [`restore`](Self::restore) replays the captured state into it.
    /// `policy` must be constructed identically to the one that was
    /// snapshotted (same name and parameters); its internal state is
    /// overwritten from the snapshot.
    pub fn from_snapshot(snap: &EngineSnapshot, policy: P) -> Result<Self, SnapshotError> {
        snap.check_version()?;
        if snap.num_users == 0 {
            return Err(SnapshotError::Corrupt("snapshot has zero users".into()));
        }
        if snap.capacity == 0 {
            return Err(SnapshotError::Corrupt("snapshot has zero capacity".into()));
        }
        if let Some(&bad) = snap.owners.iter().find(|o| o.0 >= snap.num_users) {
            return Err(SnapshotError::Corrupt(format!(
                "owner table names {bad} but the snapshot has {} users",
                snap.num_users
            )));
        }
        let universe = Universe::new(snap.num_users, snap.owners.clone());
        let mut engine = SteppingEngine::new(snap.capacity, universe, policy);
        engine.restore(snap)?;
        Ok(engine)
    }

    /// Attach a recorder; every later step — scalar or batched —
    /// dispatches its hooks (and times each request when `R::TIMED`).
    /// An [`EventLog`](crate::EventLog) is a recorder too: attach one,
    /// alone or paired with another recorder, to keep every event.
    pub fn with_recorder<R: Recorder>(self, recorder: R) -> SteppingEngine<P, R> {
        SteppingEngine {
            universe: self.universe,
            cache: self.cache,
            stats: self.stats,
            policy: self.policy,
            recorder,
            time: self.time,
        }
    }
}

impl<P: ReplacementPolicy, R: Recorder> SteppingEngine<P, R> {
    /// Read-only view of the engine state, as handed to policies and
    /// request sources. Lets a [`RequestSource`] be driven against this
    /// engine externally.
    pub fn ctx(&self) -> EngineCtx<'_> {
        ctx!(self)
    }

    /// Serve one request; advances time by one tick.
    ///
    /// This is the trusting hot path: the request is assumed well-formed
    /// and a policy contract violation panics. Use
    /// [`step_checked`](Self::step_checked) for untrusted streams.
    pub fn step(&mut self, req: Request) -> StepOutcome {
        match self.serve::<false>(req, &mut LapClock::default()) {
            Ok(outcome) => outcome,
            Err(violation) => panic!("{violation}"),
        }
    }

    /// Serve one *untrusted* request under the degradation policy carried
    /// by `handler`.
    ///
    /// Well-formed requests are served exactly as [`step`](Self::step)
    /// would. Malformed records (page out of range, owner mismatch) and
    /// requests from quarantined users are classified per
    /// [`FaultKind`] by [`FaultHandler::classify`], reported through
    /// [`Recorder::record_fault`], and then handled per the handler's
    /// [`FaultPolicy`]: fail-fast returns the fault as an error;
    /// skip-and-count and quarantine-user absorb it and return
    /// `Ok(None)`. Dropped records still advance the clock by one tick,
    /// so the timeline stays aligned with the input stream (and with any
    /// later resume).
    ///
    /// Policy contract violations are engine bugs, not input faults, and
    /// are always returned as errors regardless of the degradation
    /// policy.
    pub fn step_checked(
        &mut self,
        req: Request,
        handler: &mut FaultHandler,
    ) -> Result<Option<StepOutcome>, SimError> {
        let Some(kind) = handler.classify(&self.universe, req) else {
            let outcome = self.serve::<false>(req, &mut LapClock::default());
            return outcome.map(Some).map_err(SimError::from);
        };
        let fault = RequestFault {
            time: self.time,
            kind,
            page: req.page,
            user: req.user,
        };
        if R::ACTIVE {
            self.recorder.record_fault(&fault);
        }
        match (handler.policy(), kind) {
            (FaultPolicy::FailFast, FaultKind::PageOutOfRange | FaultKind::OwnerMismatch) => {
                return Err(fault.into());
            }
            (FaultPolicy::QuarantineUser, FaultKind::PageOutOfRange | FaultKind::OwnerMismatch) => {
                handler.count(kind);
                if let Some(user) = self.universe.culprit(req) {
                    if handler.quarantine(user) {
                        self.remove_user_externally(user);
                    }
                }
            }
            _ => handler.count(kind),
        }
        self.time += 1;
        Ok(None)
    }

    /// Serve a chunk of trusted requests through the batch loop.
    ///
    /// Byte-identical to calling [`step`](Self::step) once per request,
    /// recorder hooks included — both run the same serve core, and the
    /// equivalence is pinned by proptests — but the loop hoists the
    /// cache-fullness check once the cache fills and prefetches ahead
    /// (see [`PREFETCH_DISTANCE`]).
    ///
    /// Like `step`, a policy contract violation panics; serve untrusted
    /// streams record by record with [`step_checked`](Self::step_checked).
    pub fn step_batch(&mut self, batch: &[Request]) {
        if let Err(violation) = self.serve_batch(batch) {
            panic!("{violation}");
        }
    }

    /// [`step_batch`](Self::step_batch) for a run of bare page ids, the
    /// shape a zero-copy source
    /// ([`RequestSource::next_page_run`]) hands out: each request's owner
    /// is derived from the universe inline — the identical lookup a
    /// decoding source performs when it materializes [`Request`]s, moved
    /// to the one place that actually consumes the owner. Byte-identical
    /// outcome to building the `Request` slice and calling `step_batch`;
    /// the ids must be in range (zero-copy sources validate each run
    /// before handing it out), out-of-range ids panic just as malformed
    /// requests do on the trusting path.
    pub fn step_page_batch(&mut self, pages: &[PageId]) {
        if let Err(violation) = self.serve_batch(pages) {
            panic!("{violation}");
        }
    }

    /// Serve the next batch of at most `max` (≥ 1) requests from
    /// `source` and return how many were served; 0 means the source is
    /// exhausted.
    ///
    /// This is the one feed of [`serve_stops`](Self::serve_stops). The
    /// batch comes from
    /// [`next_page_run`](RequestSource::next_page_run) if the source
    /// offers one (zero-copy page ids, served through
    /// [`step_page_batch`](Self::step_page_batch)), else from
    /// [`next_run`](RequestSource::next_run) (borrowed requests), else by
    /// pulling [`next_request`](RequestSource::next_request) into `buf`,
    /// a reusable buffer whose contents are overwritten. The three styles
    /// interleave freely without changing the served sequence. A pulled
    /// batch is drawn whole before it is served, so an adaptive source
    /// observes the engine as of the previous batch; pass `max = 1` for
    /// per-request observation.
    pub fn serve_from<S: RequestSource>(
        &mut self,
        source: &mut S,
        max: usize,
        buf: &mut Vec<Request>,
    ) -> usize {
        assert!(max > 0, "serve_from needs room for at least one request");
        if let Some(run) = source.next_page_run(max).filter(|r| !r.is_empty()) {
            self.step_page_batch(run);
            return run.len();
        }
        if let Some(run) = source.next_run(max).filter(|r| !r.is_empty()) {
            self.step_batch(run);
            return run.len();
        }
        buf.clear();
        while buf.len() < max {
            let Some(req) = source.next_request(&self.ctx()) else {
                break;
            };
            buf.push(req);
        }
        self.step_batch(buf);
        buf.len()
    }

    /// Serve `source` until it runs dry and return how many records were
    /// consumed: the one serve loop behind `occ observe`, `resume`,
    /// `soak` and every fleet shard, supervised or not.
    ///
    /// Batches hold at most `max_batch` (≥ 1) requests and also end at
    /// every stop the caller names: `next_stop(t)` is the first stop
    /// after time `t` (`Time::MAX` for none), such as a window boundary,
    /// a checkpoint cadence or a pending kill. The loop calls
    /// `at_stop(engine, handler, false)` at each stop and `(.., true)`
    /// once the source has run dry, so the caller's work lands at exact
    /// request counts and never changes what is served. Without a fault
    /// handler batches go through [`serve_from`](Self::serve_from); with
    /// one each record is pulled and served by
    /// [`step_checked`](Self::step_checked), whose errors end the loop.
    /// Panics if `max_batch` is 0 or a stop does not lie after the time
    /// it was asked for.
    ///
    /// Always inlined, so each caller's instantiation folds away the
    /// paths it cannot take: out of line, `occ soak` over an mmap'd trace
    /// with ALG-DISCRETE ran about 10% slower.
    #[inline(always)]
    pub fn serve_stops<S, E>(
        &mut self,
        source: &mut S,
        max_batch: usize,
        mut handler: Option<&mut FaultHandler>,
        mut next_stop: impl FnMut(Time) -> Time,
        mut at_stop: impl FnMut(&mut Self, Option<&FaultHandler>, bool) -> Result<(), E>,
    ) -> Result<u64, E>
    where
        S: RequestSource,
        E: From<SimError>,
    {
        assert!(
            max_batch > 0,
            "a serve loop needs room for at least one request"
        );
        let (start, mut buf) = (self.time, Vec::new());
        let mut stop = next_stop(start);
        loop {
            assert!(stop > self.time, "a stop must lie after the engine time");
            let max = (stop - self.time).min(max_batch as u64) as usize;
            let n = match handler.as_deref_mut() {
                None => self.serve_from(source, max, &mut buf),
                Some(h) => {
                    let mut n = 0;
                    while n < max {
                        let Some(req) = source.next_request(&self.ctx()) else {
                            break;
                        };
                        self.step_checked(req, h)?;
                        n += 1;
                    }
                    n
                }
            };
            if n == 0 {
                break;
            }
            if self.time == stop {
                at_stop(self, handler.as_deref(), false)?;
                stop = next_stop(self.time);
            }
        }
        at_stop(self, handler.as_deref(), true)?;
        Ok(self.time - start)
    }

    /// Replay a whole request slice through [`step_batch`](Self::step_batch)
    /// in `batch_size`-request chunks (the trailing chunk may be
    /// shorter). Panics if `batch_size` is zero.
    pub fn run_batched(&mut self, requests: &[Request], batch_size: usize) {
        assert!(batch_size > 0, "batch size must be positive");
        for chunk in requests.chunks(batch_size) {
            self.step_batch(chunk);
        }
    }

    /// The batch loop behind [`step_batch`](Self::step_batch) and
    /// [`step_page_batch`](Self::step_page_batch).
    ///
    /// A warmup loop serves while the cache is still filling. Once full
    /// the cache stays full for the rest of the batch — serving never
    /// frees a slot, and external removals only happen between batches —
    /// so the steady-state loop runs the `FULL` core with the free-space
    /// check compiled out. While serving item `j` it software-prefetches
    /// the page-table probe ([`CacheSet::prefetch_probe`]) for item
    /// `j + PREFETCH_DISTANCE`; the final [`PREFETCH_DISTANCE`] items run
    /// in a plain tail, so the hot loop carries no lookahead bounds
    /// check. Prefetches are pure hints: the outcome is byte-identical to
    /// serving each item with [`step`](Self::step). One [`LapClock`]
    /// spans all three loops, so a timed batch reads the clock once per
    /// request plus once to start. A policy contract violation ends the
    /// batch at the request that broke it and is returned.
    pub(crate) fn serve_batch<I: BatchItem>(&mut self, items: &[I]) -> Result<(), PolicyViolation> {
        let mut lap = LapClock::default();
        let mut i = 0;
        while i < items.len() && !self.cache.is_full() {
            self.serve::<false>(items[i].request(&self.universe), &mut lap)?;
            i += 1;
        }
        let steady = &items[i..];
        let main = steady.len().saturating_sub(PREFETCH_DISTANCE);
        let lookahead = &steady[PREFETCH_DISTANCE.min(steady.len())..];
        for (&item, ahead) in steady[..main].iter().zip(lookahead) {
            self.cache.prefetch_probe(ahead.page());
            self.serve::<true>(item.request(&self.universe), &mut lap)?;
        }
        for &item in &steady[main..] {
            self.serve::<true>(item.request(&self.universe), &mut lap)?;
        }
        Ok(())
    }

    /// The hit/insert/evict state machine: the paper's one online step
    /// (§2.1), with the victim charged to its owner. `FULL` tells the
    /// core the cache is known to be full (the batch loop's steady
    /// state), which drops the free-space case. Recorder hooks and the
    /// latency clock sit behind `R::ACTIVE` / `R::TIMED`, so with
    /// [`NoopRecorder`] they compile out.
    #[inline(always)]
    fn serve<const FULL: bool>(
        &mut self,
        req: Request,
        lap: &mut LapClock,
    ) -> Result<StepOutcome, PolicyViolation> {
        debug_assert_eq!(
            self.universe.owner(req.page),
            req.user,
            "request owner disagrees with the universe"
        );
        debug_assert!(!FULL || self.cache.is_full());
        let t = self.time;
        lap.start::<R>();
        let outcome = if self.cache.contains(req.page) {
            self.stats.record_hit(req.user);
            let ctx = ctx!(self);
            self.policy.on_hit(&ctx, req.page);
            if R::ACTIVE {
                self.recorder.record_hit(&ctx, t, req.page, req.user);
            }
            StepOutcome::Hit
        } else if !FULL && !self.cache.is_full() {
            self.cache.insert(req.page);
            self.stats.record_miss(req.user);
            let ctx = ctx!(self);
            self.policy.on_insert(&ctx, req.page);
            if R::ACTIVE {
                self.recorder.record_insert(&ctx, t, req.page, req.user);
            }
            StepOutcome::Inserted
        } else {
            // The policy picks against the pre-eviction state: the
            // victim is still cached and the stats exclude this miss.
            let victim = self.policy.choose_victim(&ctx!(self), req.page);
            let broken = if !self.cache.contains(victim) {
                Some(PolicyViolationKind::VictimNotCached(victim))
            } else if victim == req.page {
                Some(PolicyViolationKind::VictimIsIncoming(victim))
            } else {
                None
            };
            if let Some(kind) = broken {
                return Err(PolicyViolation {
                    time: t,
                    policy: self.policy.name(),
                    kind,
                });
            }
            let victim_user = self.universe.owner(victim);
            self.cache.remove(victim);
            self.stats.record_eviction(victim_user);
            self.cache.insert(req.page);
            self.stats.record_miss(req.user);
            let ctx = ctx!(self);
            self.policy.on_evicted(&ctx, victim);
            self.policy.on_insert(&ctx, req.page);
            if R::ACTIVE {
                self.recorder
                    .record_eviction(&ctx, t, req.page, req.user, victim, victim_user);
            }
            StepOutcome::Evicted(victim)
        };
        lap.lap(&mut self.recorder, t);
        self.time += 1;
        Ok(outcome)
    }

    /// Evict every cached page, charging the evictions and firing
    /// [`Recorder::record_flush_eviction`] — the paper's end-of-sequence
    /// dummy-user flush (§2.1), matching
    /// [`SimOptions::flush_at_end`](crate::engine::SimOptions). Intended
    /// as the final operation of a run: the policy is *not* notified, so
    /// its per-page metadata is stale afterwards. Returns how many pages
    /// were flushed.
    pub fn flush(&mut self) -> usize {
        let drained = self.cache.drain_all();
        for &page in &drained {
            let user = self.universe.owner(page);
            self.stats.record_eviction(user);
            if R::ACTIVE {
                self.recorder.record_flush_eviction(page, user);
            }
        }
        drained.len()
    }

    /// Remove `page` from the cache without charging an eviction (the
    /// page leaves for reasons outside the replacement policy's control,
    /// e.g. its owner migrating to another pool). Notifies the policy via
    /// [`ReplacementPolicy::on_external_removal`]. No-op if not cached.
    pub fn remove_externally(&mut self, page: PageId) -> bool {
        if !self.cache.contains(page) {
            return false;
        }
        self.cache.remove(page);
        self.policy.on_external_removal(&ctx!(self), page);
        true
    }

    /// Remove every cached page owned by `user` (see
    /// [`Self::remove_externally`]); returns how many were removed.
    pub fn remove_user_externally(&mut self, user: UserId) -> usize {
        let pages: Vec<PageId> = self
            .cache
            .iter()
            .filter(|&p| self.universe.owner(p) == user)
            .collect();
        for p in &pages {
            let removed = self.remove_externally(*p);
            debug_assert!(removed);
        }
        pages.len()
    }

    /// Current counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Current cache contents.
    pub fn cache(&self) -> &CacheSet {
        &self.cache
    }

    /// Requests served so far.
    pub fn time(&self) -> Time {
        self.time
    }

    /// Access the wrapped policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Access the attached recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the attached recorder (e.g. to drain a sink
    /// mid-run).
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// The attached recorder beside the current counters, for a recorder
    /// that cuts its windows from them (`occ_probe::StatsWindows`).
    pub fn recorder_and_stats(&mut self) -> (&mut R, &SimStats) {
        (&mut self.recorder, &self.stats)
    }

    /// Tear down the engine, returning the recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Capture a versioned checkpoint of the full engine + policy state.
    ///
    /// Fails with [`SnapshotError::Unsupported`] if the policy does not
    /// implement [`ReplacementPolicy::save_state`]. Fault-handling state
    /// is not known to the engine; use
    /// [`snapshot_with_faults`](Self::snapshot_with_faults) for checked
    /// runs. The recorder is *not* part of the snapshot — callers that
    /// need continuous telemetry across a resume must persist their
    /// recorder separately (as `occ observe` does).
    pub fn snapshot(&self) -> Result<EngineSnapshot, SnapshotError> {
        let policy = self
            .policy
            .save_state()
            .ok_or_else(|| SnapshotError::Unsupported(self.policy.name()))?;
        Ok(EngineSnapshot {
            version: SNAPSHOT_VERSION,
            time: self.time,
            capacity: self.cache.capacity(),
            num_users: self.universe.num_users(),
            owners: self.universe.owners().to_vec(),
            cache_pages: self.cache.pages().to_vec(),
            stats: self.stats.per_user().to_vec(),
            policy_name: self.policy.name(),
            policy,
            faults: crate::error::FaultCounters::default(),
            quarantined: Vec::new(),
        })
    }

    /// [`snapshot`](Self::snapshot) plus the fault counters and
    /// quarantine membership of a checked run.
    pub fn snapshot_with_faults(
        &self,
        handler: &FaultHandler,
    ) -> Result<EngineSnapshot, SnapshotError> {
        let mut snap = self.snapshot()?;
        snap.faults = handler.counters().clone();
        snap.quarantined = handler.quarantined_users();
        Ok(snap)
    }

    /// Restore this engine to a previously captured checkpoint.
    ///
    /// The snapshot must match the engine it is restored into: same
    /// format version, capacity, universe, and policy name — anything
    /// else is a [`SnapshotError::Mismatch`]. On success the clock,
    /// cache contents (in their original operation-history order),
    /// counters, and policy state are exactly as they were at capture
    /// time, so continuing the run is byte-identical to never having
    /// stopped. The recorder is left as it is (it is not part of the
    /// snapshot).
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        snap.check_version()?;
        if snap.num_users != self.universe.num_users()
            || snap.owners.as_slice() != self.universe.owners()
        {
            return Err(SnapshotError::Mismatch(
                "snapshot universe differs from the engine's".into(),
            ));
        }
        if snap.capacity != self.cache.capacity() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot capacity {} vs engine capacity {}",
                snap.capacity,
                self.cache.capacity()
            )));
        }
        let name = self.policy.name();
        if snap.policy_name != name {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken with policy '{}' but the engine runs '{name}'",
                snap.policy_name
            )));
        }
        if snap.stats.len() != self.universe.num_users() as usize {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {} per-user stat rows for {} users",
                snap.stats.len(),
                self.universe.num_users()
            )));
        }
        let cache =
            CacheSet::try_restore(snap.capacity, self.universe.num_pages(), &snap.cache_pages)?;
        self.cache = cache;
        self.stats = SimStats::from_per_user(snap.stats.clone());
        self.time = snap.time;
        self.policy.reset();
        self.policy.load_state(&ctx!(self), &snap.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;
    use crate::snapshot::PolicyState;
    use crate::trace::Trace;

    struct EvictFirst;
    impl ReplacementPolicy for EvictFirst {
        fn name(&self) -> String {
            "evict-first".into()
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
            ctx.cache.pages()[0]
        }
        // Stateless, so checkpointing is trivial: the engine-owned cache
        // order is the whole state.
        fn save_state(&self) -> Option<PolicyState> {
            Some(PolicyState::new())
        }
        fn load_state(
            &mut self,
            _ctx: &EngineCtx,
            _state: &PolicyState,
        ) -> Result<(), SnapshotError> {
            Ok(())
        }
    }

    #[test]
    fn stepper_matches_batch_simulator() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..120u32).map(|i| (i * 7 + 1) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let batch = crate::Simulator::new(3).run(&mut EvictFirst, &trace);

        let mut eng = SteppingEngine::new(3, u.clone(), EvictFirst);
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        assert_eq!(eng.stats().miss_vector(), batch.miss_vector());
        assert_eq!(eng.stats().eviction_vector(), batch.stats.eviction_vector());
        assert_eq!(eng.time(), batch.steps);
    }

    #[test]
    fn a_cache_far_larger_than_the_universe_runs_like_one_that_holds_it() {
        let u = Universe::uniform(2, 8);
        let pages: Vec<u32> = (0..300u32).map(|i| (i * 7 + 3) % 16).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let run = |k: usize| {
            let mut eng = SteppingEngine::new(k, u.clone(), EvictFirst);
            for (_, r) in trace.iter() {
                eng.step(r);
            }
            (eng.stats().clone(), eng.cache().pages().to_vec())
        };
        // 10^14 slots would be a 400 TB table if sized by capacity.
        let fits = run(16);
        assert_eq!(run(100_000_000_000_000), fits);
        assert_eq!(fits.0.total_evictions(), 0, "the whole universe fits");
    }

    #[test]
    fn batched_replay_matches_scalar_including_partial_tail() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..121u32).map(|i| (i * 7 + 1) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        let mut scalar = SteppingEngine::new(3, u.clone(), EvictFirst);
        for (_, r) in trace.iter() {
            scalar.step(r);
        }
        // 121 requests over batch=16 leaves a 9-request trailing chunk.
        let mut batched = SteppingEngine::new(3, u.clone(), EvictFirst);
        batched.run_batched(trace.requests(), 16);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.time(), scalar.time());
        assert_eq!(batched.cache().pages(), scalar.cache().pages());
    }

    #[test]
    fn page_batches_match_request_batches() {
        let u = Universe::uniform(2, 3);
        let pages_raw: Vec<u32> = (0..121u32).map(|i| (i * 7 + 1) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages_raw);
        let pages: Vec<PageId> = trace.requests().iter().map(|r| r.page).collect();

        let mut by_request = SteppingEngine::new(3, u.clone(), EvictFirst);
        by_request.run_batched(trace.requests(), 16);
        let mut by_page = SteppingEngine::new(3, u.clone(), EvictFirst);
        for chunk in pages.chunks(16) {
            by_page.step_page_batch(chunk);
        }
        assert_eq!(by_page.stats(), by_request.stats());
        assert_eq!(by_page.time(), by_request.time());
        assert_eq!(by_page.cache().pages(), by_request.cache().pages());

        // A recorded engine runs the same loop and derives the same owners.
        let mut recorded =
            SteppingEngine::new(3, u.clone(), EvictFirst).with_recorder(EventLog::new());
        for chunk in pages.chunks(16) {
            recorded.step_page_batch(chunk);
        }
        assert_eq!(recorded.stats(), by_request.stats());
        assert_eq!(recorded.recorder().len(), pages.len());
    }

    #[test]
    fn recorded_batches_log_the_scalar_events() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..40u32).map(|i| (i * 5 + 2) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        let mut scalar =
            SteppingEngine::new(3, u.clone(), EvictFirst).with_recorder(EventLog::new());
        for (_, r) in trace.iter() {
            scalar.step(r);
        }
        let mut batched =
            SteppingEngine::new(3, u.clone(), EvictFirst).with_recorder(EventLog::new());
        batched.run_batched(trace.requests(), 7);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(batched.recorder().to_vec(), scalar.recorder().to_vec());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_is_rejected() {
        let u = Universe::single_user(2);
        let mut eng = SteppingEngine::new(1, u.clone(), EvictFirst);
        eng.run_batched(&[u.request(PageId(0))], 0);
    }

    #[test]
    fn outcomes_classified() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        assert_eq!(eng.step(u.request(PageId(0))), StepOutcome::Inserted);
        assert_eq!(eng.step(u.request(PageId(0))), StepOutcome::Hit);
        assert_eq!(eng.step(u.request(PageId(1))), StepOutcome::Inserted);
        assert_eq!(
            eng.step(u.request(PageId(2))),
            StepOutcome::Evicted(PageId(0))
        );
    }

    #[test]
    fn external_removal_frees_space_without_eviction_charge() {
        let u = Universe::uniform(2, 2); // u0: p0 p1, u1: p2 p3
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        eng.step(u.request(PageId(0)));
        eng.step(u.request(PageId(2)));
        assert!(eng.cache().is_full());
        let removed = eng.remove_user_externally(UserId(0));
        assert_eq!(removed, 1);
        assert!(!eng.cache().contains(PageId(0)));
        // No eviction was charged.
        assert_eq!(eng.stats().total_evictions(), 0);
        // The freed slot is reusable without an eviction.
        assert_eq!(eng.step(u.request(PageId(3))), StepOutcome::Inserted);
    }

    #[test]
    fn removing_uncached_page_is_a_noop() {
        let u = Universe::single_user(2);
        let mut eng = SteppingEngine::new(1, u, EvictFirst);
        assert!(!eng.remove_externally(PageId(1)));
    }

    #[test]
    fn event_log_records_every_step() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(1, u.clone(), EvictFirst).with_recorder(EventLog::new());
        eng.step(u.request(PageId(0)));
        eng.step(u.request(PageId(1)));
        let log = eng.recorder();
        assert_eq!(log.len(), 2);
        assert_eq!(log.eviction_sequence().len(), 1);
    }

    fn corrupt_page(u: &Universe) -> Request {
        Request {
            page: PageId(u.num_pages() + 5),
            user: UserId(0),
        }
    }

    fn wrong_owner(page: u32) -> Request {
        Request {
            page: PageId(page),
            user: UserId(1),
        }
    }

    #[test]
    fn step_checked_fail_fast_surfaces_the_fault() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        let mut h = FaultHandler::new(FaultPolicy::FailFast, u.num_users());
        assert_eq!(
            eng.step_checked(u.request(PageId(0)), &mut h).unwrap(),
            Some(StepOutcome::Inserted)
        );
        let err = eng.step_checked(corrupt_page(&u), &mut h).unwrap_err();
        match err {
            SimError::Request(f) => {
                assert_eq!(f.kind, FaultKind::PageOutOfRange);
                assert_eq!(f.time, 1);
            }
            other => panic!("expected a request fault, got {other}"),
        }
        // Nothing was counted or served.
        assert!(h.counters().is_clean());
        assert_eq!(eng.time(), 1);
    }

    #[test]
    fn step_checked_skip_counts_and_keeps_the_clock_aligned() {
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        let mut h = FaultHandler::new(FaultPolicy::SkipAndCount, u.num_users());
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        assert_eq!(eng.step_checked(corrupt_page(&u), &mut h).unwrap(), None);
        assert_eq!(eng.step_checked(wrong_owner(1), &mut h).unwrap(), None);
        eng.step_checked(u.request(PageId(1)), &mut h).unwrap();
        assert_eq!(h.counters().page_out_of_range, 1);
        assert_eq!(h.counters().owner_mismatch, 1);
        // Dropped records still consumed a tick each.
        assert_eq!(eng.time(), 4);
        assert_eq!(eng.stats().total_misses(), 2);
    }

    #[test]
    fn step_checked_quarantine_evicts_and_silences_the_user() {
        let u = Universe::uniform(2, 2); // u0: p0 p1, u1: p2 p3
        let mut eng = SteppingEngine::new(3, u.clone(), EvictFirst);
        let mut h = FaultHandler::new(FaultPolicy::QuarantineUser, u.num_users());
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        eng.step_checked(u.request(PageId(2)), &mut h).unwrap();
        // A record claiming u1 owns p1 quarantines p1's true owner, u0.
        assert_eq!(eng.step_checked(wrong_owner(1), &mut h).unwrap(), None);
        assert!(h.is_quarantined(UserId(0)));
        assert!(!eng.cache().contains(PageId(0)), "u0's pages were removed");
        assert!(eng.cache().contains(PageId(2)));
        // No eviction was charged for the quarantine removal.
        assert_eq!(eng.stats().total_evictions(), 0);
        // u0's later (well-formed) requests are dropped and counted.
        assert_eq!(
            eng.step_checked(u.request(PageId(0)), &mut h).unwrap(),
            None
        );
        assert_eq!(h.counters().quarantined_drops, 1);
        assert_eq!(h.counters().quarantined_users, 1);
        // u1 is unaffected.
        assert_eq!(
            eng.step_checked(u.request(PageId(2)), &mut h).unwrap(),
            Some(StepOutcome::Hit)
        );
    }

    #[test]
    fn step_checked_policy_violation_is_always_an_error() {
        struct Liar;
        impl ReplacementPolicy for Liar {
            fn name(&self) -> String {
                "liar".into()
            }
            fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
                PageId(2) // never cached in this scenario
            }
        }
        let u = Universe::single_user(3);
        let mut eng = SteppingEngine::new(1, u.clone(), Liar);
        let mut h = FaultHandler::new(FaultPolicy::SkipAndCount, u.num_users());
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        let err = eng.step_checked(u.request(PageId(1)), &mut h).unwrap_err();
        assert!(matches!(err, SimError::Policy(_)), "got {err}");
    }

    #[test]
    fn flush_matches_batch_accounting() {
        let u = Universe::uniform(2, 2);
        let pages = [0u32, 2, 1, 0, 3, 2];
        let trace = Trace::from_page_indices(&u, &pages);
        let batch = crate::Simulator::new(2)
            .flush_at_end(true)
            .run(&mut EvictFirst, &trace);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        let flushed = eng.flush();
        assert_eq!(flushed, 2);
        assert_eq!(eng.stats().eviction_vector(), batch.stats.eviction_vector());
        assert!(eng.cache().is_empty());
    }

    #[test]
    fn snapshot_restore_continues_byte_identically() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..60u32).map(|i| (i * 5 + 2) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        // Uninterrupted run.
        let mut full = SteppingEngine::new(3, u.clone(), EvictFirst).with_recorder(EventLog::new());
        for (_, r) in trace.iter() {
            full.step(r);
        }

        // Run to the midpoint, snapshot, restore into a fresh engine,
        // continue.
        let cut = 31usize;
        let mut first =
            SteppingEngine::new(3, u.clone(), EvictFirst).with_recorder(EventLog::new());
        for (_, r) in trace.iter().take(cut) {
            first.step(r);
        }
        let snap = first.snapshot().unwrap();
        assert_eq!(snap.time, cut as Time);

        let mut resumed = SteppingEngine::from_snapshot(&snap, EvictFirst)
            .unwrap()
            .with_recorder(EventLog::new());
        for (_, r) in trace.iter().skip(cut) {
            resumed.step(r);
        }
        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(resumed.time(), full.time());
        assert_eq!(resumed.cache().pages(), full.cache().pages());
        // Prefix events + suffix events = uninterrupted events.
        let mut stitched = first.recorder().to_vec();
        stitched.extend(resumed.recorder().to_vec());
        assert_eq!(stitched, full.recorder().to_vec());
    }

    #[test]
    fn restore_rejects_mismatched_engines() {
        let u = Universe::uniform(2, 2);
        let mut eng = SteppingEngine::new(2, u.clone(), EvictFirst);
        eng.step(u.request(PageId(0)));
        let snap = eng.snapshot().unwrap();

        // Wrong capacity.
        let mut other = SteppingEngine::new(3, u.clone(), EvictFirst);
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));

        // Wrong universe.
        let mut other = SteppingEngine::new(2, Universe::uniform(2, 3), EvictFirst);
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));

        // Wrong version.
        let mut bad = snap.clone();
        bad.version = SNAPSHOT_VERSION + 7;
        let mut other = SteppingEngine::new(2, u.clone(), EvictFirst);
        assert!(matches!(
            other.restore(&bad),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));

        // Corrupt cache contents.
        let mut bad = snap.clone();
        bad.cache_pages = vec![PageId(0), PageId(0)];
        let mut other = SteppingEngine::new(2, u, EvictFirst);
        assert!(matches!(
            other.restore(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_requires_policy_support() {
        struct Opaque;
        impl ReplacementPolicy for Opaque {
            fn name(&self) -> String {
                "opaque".into()
            }
            fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
                ctx.cache.pages()[0]
            }
        }
        let u = Universe::single_user(2);
        let eng = SteppingEngine::new(1, u, Opaque);
        assert!(matches!(
            eng.snapshot(),
            Err(SnapshotError::Unsupported(name)) if name == "opaque"
        ));
    }
}
