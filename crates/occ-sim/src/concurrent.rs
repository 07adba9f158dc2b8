//! One k-sized cache, many writers: the shared-cache engine.
//!
//! `occ-fleet` scales by cloning *independent* caches; this module is the
//! other axis — M worker threads serving interleaved per-user streams
//! against a **single** shared cache of capacity `k`, which is the
//! setting the paper actually reasons about (one cache, n users, convex
//! per-user costs).
//!
//! # One engine behind one lock
//!
//! The cache is one [`SteppingEngine`] over a [`ShardedPolicy`], kept
//! with its [`FaultHandler`] and the commit log behind one `Mutex`. A
//! worker takes the lock once per *hold* and serves every record of the
//! hold with [`SteppingEngine::step_checked`] — the same call the replay
//! makes — so the run has one hit/insert/evict state machine, and skips,
//! quarantine purges and fail-fast stops all go through the one handler.
//! A hold is one borrowed page run of at most [`DEFAULT_BATCH_SIZE`]
//! requests from a zero-copy source, or up to that many requests pulled
//! one at a time from any other source (the mixer, a chaos source); it
//! ends early when the source runs dry or at a fail-fast fault, so chaos
//! tallies and the fail-fast stop point stay exact.
//!
//! A lock-striped protocol (per-segment mutexes, a capacity mutex, a
//! `full` latch and an atomic commit counter) served this engine before;
//! it is in the git history. On a 2-core host its two workers committed
//! at about 0.6× the rate of one, most of their CPU spent moving locks,
//! list heads and page nodes between the cores, and it lost to the one
//! lock on every measured metric. Many-core scaling may justify striping
//! again; that needs numbers first.
//!
//! # Correctness: the commit schedule and the replay gate
//!
//! Each consumed record commits exactly one [`CommitRecord`] —
//! `(seq, thread, shard, page, user, outcome)` — where `seq` is the
//! engine's clock before the record's step. The run is therefore a
//! sequential history in `seq` order by construction, and the log is
//! contiguous with no merge. A single-threaded replay of the schedule
//! through a fresh [`SteppingEngine`] + [`ShardedPolicy`] must reproduce
//! every per-request outcome, the per-user miss vectors, the fault
//! counters and the quarantine set *byte-identically*; the replay gate
//! ([`replay_schedule`] + [`verify_replay`]) checks all of it.
//! [`run_shared_replayed`] runs the same replay beside the workers, on
//! the core the one lock leaves idle: each hold hands its commits over
//! before it releases the lock, so the replay sees them in commit order.
//!
//! # Segment tables
//!
//! [`ShardedPolicy`] keeps S policy instances. Page `p` lives in segment
//! `shard(p) = p mod S` under the dense local id `p / S` ([`local_of`],
//! inverse [`global_of`]). Each segment owns a segment-local
//! [`Universe`] (owners of `p = s, s+S, …`) plus a [`CacheSet`] sized to
//! it; a victim comes from the first non-empty segment from
//! `shard(incoming)` upward. Commit records, stats and victims stay in
//! global ids.
//!
//! # The policy purity contract
//!
//! Segment instances see segment-local `EngineCtx` views: the segment
//! universe, the segment's cache in local ids, and an all-zero stats
//! table. A policy whose decisions read only `ctx.universe` (LRU, FIFO,
//! greedy-dual) behaves in each segment as it would on that segment
//! alone. ALG-DISCRETE also reads only the universe, and at S = 1 its
//! one instance is the global algorithm; at S > 1 each segment would keep
//! its own `Y` and `m_u`, which is not the paper's algorithm. Policies
//! that read `ctx.stats` (the cost-greedy family) see zeros in a segment
//! and should not be handed to [`ConcurrentEngine`].

use crate::cache::CacheSet;
use crate::engine::EngineCtx;
use crate::error::{FaultCounters, FaultHandler, FaultKind, FaultPolicy, RequestFault, SimError};
use crate::ids::{PageId, Time, UserId};
use crate::policy::ReplacementPolicy;
use crate::probe::{LapClock, Recorder};
use crate::source::RequestSource;
use crate::stats::SimStats;
use crate::stepper::{StepOutcome, SteppingEngine, DEFAULT_BATCH_SIZE};
use crate::trace::{Request, Universe};
use std::fmt;
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, MutexGuard};

/// Which shard segment a page hashes to: dense page ids stripe round-robin.
#[inline]
pub fn shard_of(page: PageId, table_shards: usize) -> usize {
    page.0 as usize % table_shards
}

/// A page's dense id inside its segment: its rank among the pages that
/// share its [`shard_of`].
#[inline]
pub fn local_of(page: PageId, table_shards: usize) -> PageId {
    PageId((page.0 as usize / table_shards) as u32)
}

/// Inverse of [`local_of`]: the global id of local page `local` in
/// segment `shard`.
#[inline]
pub fn global_of(local: PageId, shard: usize, table_shards: usize) -> PageId {
    PageId((local.0 as usize * table_shards + shard) as u32)
}

/// What one committed request did to the shared cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The page was already cached.
    Hit,
    /// The page was fetched into free space.
    Insert,
    /// The page was fetched; `victim` was evicted to make room.
    Evict {
        /// The page evicted to make room.
        victim: PageId,
    },
    /// The record was absorbed by the degradation policy (skipped,
    /// quarantine-dropped, or the fault that triggered a quarantine).
    Drop {
        /// How the record was classified.
        kind: FaultKind,
    },
}

/// One entry of the commit schedule: the global commit position plus
/// enough provenance (thread, shard) and effect (outcome) to replay and
/// cross-check the request later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Global commit position (equals the replay engine's clock tick).
    pub seq: u64,
    /// Worker thread that served the request.
    pub thread: u32,
    /// Shard segment of the requested page.
    pub shard: u32,
    /// Requested page (may be out of range for fault records).
    pub page: PageId,
    /// Claimed owner (may disagree with the universe for fault records).
    pub user: UserId,
    /// What the engine did.
    pub outcome: CommitOutcome,
}

impl CommitRecord {
    /// Serialize as one whitespace-separated line:
    /// `seq thread shard page user tag [aux]`.
    pub fn to_line(&self) -> String {
        let (tag, aux) = match self.outcome {
            CommitOutcome::Hit => ("hit", String::new()),
            CommitOutcome::Insert => ("ins", String::new()),
            CommitOutcome::Evict { victim } => ("evt", format!(" {}", victim.0)),
            CommitOutcome::Drop { kind } => ("drop", format!(" {}", kind.name())),
        };
        format!(
            "{} {} {} {} {} {tag}{aux}",
            self.seq, self.thread, self.shard, self.page.0, self.user.0
        )
    }

    /// Parse a line produced by [`to_line`](Self::to_line).
    pub fn from_line(line: &str) -> Result<CommitRecord, ReplayError> {
        let bad = |what: &str| ReplayError::Schedule(format!("{what} in schedule line '{line}'"));
        let mut it = line.split_ascii_whitespace();
        let seq = it
            .next()
            .ok_or_else(|| bad("missing/bad seq"))?
            .parse::<u64>()
            .map_err(|_| bad("missing/bad seq"))?;
        let mut num32 = |what: &str| -> Result<u32, ReplayError> {
            it.next()
                .ok_or_else(|| bad(what))?
                .parse::<u32>()
                .map_err(|_| bad(what))
        };
        let thread = num32("missing/bad thread")?;
        let shard = num32("missing/bad shard")?;
        let page = PageId(num32("missing/bad page")?);
        let user = UserId(num32("missing/bad user")?);
        let tag = it.next().ok_or_else(|| bad("missing outcome tag"))?;
        let outcome = match tag {
            "hit" => CommitOutcome::Hit,
            "ins" => CommitOutcome::Insert,
            "evt" => {
                let victim = it
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .ok_or_else(|| bad("missing/bad victim"))?;
                CommitOutcome::Evict {
                    victim: PageId(victim),
                }
            }
            "drop" => {
                let kind = match it.next() {
                    Some("page-out-of-range") => FaultKind::PageOutOfRange,
                    Some("owner-mismatch") => FaultKind::OwnerMismatch,
                    Some("quarantined-user") => FaultKind::QuarantinedUser,
                    _ => return Err(bad("missing/bad fault kind")),
                };
                CommitOutcome::Drop { kind }
            }
            _ => return Err(bad("unknown outcome tag")),
        };
        if it.next().is_some() {
            return Err(bad("trailing tokens"));
        }
        Ok(CommitRecord {
            seq,
            thread,
            shard,
            page,
            user,
            outcome,
        })
    }
}

/// The commit schedule of one concurrent run.
///
/// Construction validates the defining invariant: sequence numbers are
/// exactly `0..len` with no gap or duplicate — every consumed record
/// drew one commit position, so the schedule *is* the replay timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitSchedule {
    entries: Vec<CommitRecord>,
}

impl CommitSchedule {
    /// Rebuild a schedule from serialized entry lines (any order).
    pub fn from_lines<'a, I: IntoIterator<Item = &'a str>>(
        lines: I,
    ) -> Result<CommitSchedule, ReplayError> {
        let mut entries = lines
            .into_iter()
            .map(CommitRecord::from_line)
            .collect::<Result<Vec<_>, _>>()?;
        entries.sort_unstable_by_key(|e| e.seq);
        let sched = CommitSchedule { entries };
        sched.check_contiguous()?;
        Ok(sched)
    }

    fn check_contiguous(&self) -> Result<(), ReplayError> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(ReplayError::Schedule(format!(
                    "schedule is not contiguous: position {i} holds seq {}",
                    e.seq
                )));
            }
        }
        Ok(())
    }

    /// The entries in commit (= replay) order.
    pub fn entries(&self) -> &[CommitRecord] {
        &self.entries
    }

    /// Number of committed records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Why a replay could not certify a concurrent run.
#[derive(Debug)]
pub enum ReplayError {
    /// The schedule itself is malformed (gap, duplicate, parse error).
    Schedule(String),
    /// The replay disagreed with the recorded run.
    Divergence {
        /// First diverging commit position (`u64::MAX` for end-of-run
        /// aggregate mismatches).
        seq: u64,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The replay engine itself faulted (fail-fast schedules are not
    /// replayable).
    Fault(SimError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Schedule(msg) => write!(f, "bad commit schedule: {msg}"),
            ReplayError::Divergence { seq, detail } if *seq == u64::MAX => {
                write!(f, "replay divergence (aggregate): {detail}")
            }
            ReplayError::Divergence { seq, detail } => {
                write!(f, "replay divergence at seq {seq}: {detail}")
            }
            ReplayError::Fault(e) => write!(f, "replay fault: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The segment-local world one shard's policy instance lives in: the
/// segment's [`Universe`] (local page `l` of segment `s` is global page
/// `s + l·S`, same owner), its cache in local ids, and an all-zero stats
/// table (the supported policies never read stats — see the purity
/// contract in the module docs). Every table is sized to the segment,
/// not to the global page range.
struct SegmentView {
    universe: Universe,
    cache: CacheSet,
    stats: SimStats,
}

impl SegmentView {
    fn new(global: &Universe, capacity: usize, shard: usize, table_shards: usize) -> Self {
        let owners = global
            .owners()
            .iter()
            .copied()
            .skip(shard)
            .step_by(table_shards)
            .collect();
        let universe = Universe::new(global.num_users(), owners);
        // A segment never holds more than its own pages, nor more than k.
        let room = capacity.min(universe.num_pages() as usize).max(1);
        SegmentView {
            cache: CacheSet::new(room, universe.num_pages()),
            stats: SimStats::new(global.num_users()),
            universe,
        }
    }

    fn ctx(&self, time: Time) -> EngineCtx<'_> {
        EngineCtx {
            time,
            cache: &self.cache,
            stats: &self.stats,
            universe: &self.universe,
        }
    }
}

/// The shared cache's policy: S inner policy instances, each behind a
/// segment-local view (universe, local-id cache), driven through the
/// stock [`SteppingEngine`] by the concurrent run and its replay alike.
///
/// Callbacks translate global ids to segment-local ones, and
/// `choose_victim` takes the victim from the first non-empty segment
/// from `shard(incoming)` upward. The views are built from the first
/// callback's universe and capacity.
pub struct ShardedPolicy<P> {
    inners: Vec<P>,
    views: Vec<SegmentView>,
}

impl<P: ReplacementPolicy> ShardedPolicy<P> {
    /// Wrap one policy instance per shard segment.
    pub fn new(inners: Vec<P>) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        ShardedPolicy {
            inners,
            views: Vec::new(),
        }
    }

    /// Number of shard segments.
    pub fn table_shards(&self) -> usize {
        self.inners.len()
    }

    /// `(shard, local id)` of a global page, building the segment views
    /// on first use.
    fn route(&mut self, ctx: &EngineCtx, page: PageId) -> (usize, PageId) {
        let n = self.inners.len();
        if self.views.is_empty() {
            self.views = (0..n)
                .map(|s| SegmentView::new(ctx.universe, ctx.cache.capacity(), s, n))
                .collect();
        }
        (shard_of(page, n), local_of(page, n))
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for ShardedPolicy<P> {
    fn name(&self) -> String {
        format!("sharded({}x{})", self.inners[0].name(), self.inners.len())
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        let (s, local) = self.route(ctx, page);
        self.inners[s].on_hit(&self.views[s].ctx(ctx.time), local);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        let (s, local) = self.route(ctx, page);
        self.views[s].cache.insert(local);
        self.inners[s].on_insert(&self.views[s].ctx(ctx.time), local);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
        let (start, local) = self.route(ctx, incoming);
        let n = self.inners.len();
        let v = (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| !self.views[i].cache.is_empty())
            .expect("cache is full but no shard holds a page");
        let victim = self.inners[v].choose_victim(&self.views[v].ctx(ctx.time), local);
        global_of(victim, v, n)
    }

    fn on_evicted(&mut self, ctx: &EngineCtx, victim: PageId) {
        let (s, local) = self.route(ctx, victim);
        self.views[s].cache.remove(local);
        self.inners[s].on_evicted(&self.views[s].ctx(ctx.time), local);
    }

    fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
        let (s, local) = self.route(ctx, page);
        self.views[s].cache.remove(local);
        self.inners[s].on_external_removal(&self.views[s].ctx(ctx.time), local);
    }

    fn reset(&mut self) {
        for p in &mut self.inners {
            p.reset();
        }
        self.views.clear();
    }
}

/// One worker's tallies of its own commits. The merged counters come
/// from the shared engine; the lanes must sum to them.
#[derive(Clone, Debug, Default)]
struct ThreadLane {
    stats: SimStats,
    counters: FaultCounters,
}

impl ThreadLane {
    fn new(num_users: u32) -> Self {
        ThreadLane {
            stats: SimStats::new(num_users),
            ..ThreadLane::default()
        }
    }
}

/// The result of a concurrent run.
#[derive(Clone, Debug)]
pub struct SharedOutcome {
    /// The shared engine's per-user counters.
    pub stats: SimStats,
    /// The shared handler's fault counters.
    pub counters: FaultCounters,
    /// Quarantined users, ascending.
    pub quarantined: Vec<UserId>,
    /// The commit schedule, in commit order.
    pub schedule: CommitSchedule,
    /// Per-thread `(stats, counters)`, for exactness assertions (they
    /// must *sum* to the merged counters).
    pub per_thread: Vec<(SimStats, FaultCounters)>,
}

/// The aggregate state of a single-threaded schedule replay.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// The replay engine's per-user counters.
    pub stats: SimStats,
    /// The replay handler's fault counters.
    pub counters: FaultCounters,
    /// The replay handler's quarantine set, ascending.
    pub quarantined: Vec<UserId>,
}

/// Everything behind the engine's one lock.
struct Shared<P> {
    engine: SteppingEngine<ShardedPolicy<P>>,
    handler: FaultHandler,
    /// Commit records in `seq` order; entry `i` holds seq `i`.
    log: Vec<CommitRecord>,
    /// Set by a fail-fast fault; every later hold ends at once.
    stopped: bool,
    /// Where each hold's commits go when a replay runs beside the run.
    feed: Option<Sender<Vec<CommitRecord>>>,
    /// How much of `log` the feed has been handed.
    fed: usize,
}

impl<P: ReplacementPolicy> Shared<P> {
    /// Hand the commits since the last hand-over to the replay feed, if
    /// one is attached. Holds hand over under the lock, so the replay
    /// receives them in commit order.
    fn hand_over(&mut self) {
        if let Some(feed) = &self.feed {
            if self.fed < self.log.len() {
                // A closed feed means the replay has already diverged,
                // and its verdict is the one that counts.
                let _ = feed.send(self.log[self.fed..].to_vec());
                self.fed = self.log.len();
            }
        }
    }

    /// Serve one untrusted record for `thread` with `step_checked`, log
    /// its commit, tally it into `lane`, and fire `recorder`'s hooks. The
    /// only error is a fail-fast fault, which also stops the run.
    fn commit<'a, R: Recorder>(
        &mut self,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
        recorder: &mut R,
        lap: &mut LapClock,
        probe: &impl Fn(Time) -> EngineCtx<'a>,
    ) -> Result<(), SimError> {
        let seq = self.engine.time();
        let quarantined = self.handler.counters().quarantined_users;
        let stepped = self.engine.step_checked(req, &mut self.handler);
        let outcome = match stepped {
            Ok(Some(StepOutcome::Hit)) => {
                lane.stats.record_hit(req.user);
                CommitOutcome::Hit
            }
            Ok(Some(StepOutcome::Inserted)) => {
                lane.stats.record_miss(req.user);
                CommitOutcome::Insert
            }
            Ok(Some(StepOutcome::Evicted(victim))) => {
                lane.stats
                    .record_eviction(self.engine.ctx().universe.owner(victim));
                lane.stats.record_miss(req.user);
                CommitOutcome::Evict { victim }
            }
            Ok(None) => {
                // Quarantine is never lifted, so the record classifies
                // after its step as it did before.
                let kind = self
                    .handler
                    .classify(self.engine.ctx().universe, req)
                    .expect("step_checked dropped a record it classified as clean");
                lane.counters.count(kind);
                lane.counters.quarantined_users +=
                    self.handler.counters().quarantined_users - quarantined;
                CommitOutcome::Drop { kind }
            }
            Err(e) => {
                self.stopped = true;
                return Err(e);
            }
        };
        let universe = self.engine.ctx().universe;
        self.log.push(CommitRecord {
            seq,
            thread,
            shard: shard_of(req.page, self.engine.policy().table_shards()) as u32,
            page: req.page,
            user: req.user,
            outcome,
        });
        if R::ACTIVE {
            let ctx = probe(seq);
            match outcome {
                CommitOutcome::Hit => recorder.record_hit(&ctx, seq, req.page, req.user),
                CommitOutcome::Insert => recorder.record_insert(&ctx, seq, req.page, req.user),
                CommitOutcome::Evict { victim } => recorder.record_eviction(
                    &ctx,
                    seq,
                    req.page,
                    req.user,
                    victim,
                    universe.owner(victim),
                ),
                CommitOutcome::Drop { kind } => recorder.record_fault(&RequestFault {
                    time: seq,
                    kind,
                    page: req.page,
                    user: req.user,
                }),
            }
        }
        lap.lap(recorder, seq);
        Ok(())
    }
}

/// M writers, one cache: the shared-cache engine (see the module docs).
pub struct ConcurrentEngine<P> {
    universe: Universe,
    shared: Mutex<Shared<P>>,
}

impl<P: ReplacementPolicy> ConcurrentEngine<P> {
    /// Build an engine of capacity `capacity` with one policy instance
    /// per shard segment (`policies.len()` = S). Panics on zero capacity
    /// or an empty shard list, like the sequential engines.
    pub fn new(
        capacity: usize,
        universe: Universe,
        degrade: FaultPolicy,
        policies: Vec<P>,
    ) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let engine = SteppingEngine::new(capacity, universe.clone(), ShardedPolicy::new(policies));
        ConcurrentEngine {
            shared: Mutex::new(Shared {
                engine,
                handler: FaultHandler::new(degrade, universe.num_users()),
                log: Vec::new(),
                stopped: false,
                feed: None,
                fed: 0,
            }),
            universe,
        }
    }

    /// The page/user universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Records committed so far.
    pub fn committed(&self) -> u64 {
        self.lock().engine.time()
    }

    /// Whether a fail-fast fault has stopped the run.
    pub fn stopped(&self) -> bool {
        self.lock().stopped
    }

    /// Quarantined users, ascending.
    pub fn quarantined_users(&self) -> Vec<UserId> {
        self.lock().handler.quarantined_users()
    }

    fn lock(&self) -> MutexGuard<'_, Shared<P>> {
        self.shared
            .lock()
            .expect("a worker panicked while holding the cache lock")
    }

    /// Drive one worker to stream exhaustion (or engine stop), one hold
    /// per borrowed page run or per [`DEFAULT_BATCH_SIZE`] pulled
    /// requests. Each hold is timed on one [`LapClock`] started before
    /// the lock is taken, so every commit gets one latency sample and the
    /// hold's first sample includes the wait for the lock.
    fn drive_worker<S: RequestSource, R: Recorder>(
        &self,
        thread: u32,
        source: &mut S,
        recorder: &mut R,
    ) -> Result<ThreadLane, SimError> {
        let mut lane = ThreadLane::new(self.universe.num_users());
        // Sources in shared mode must be non-adaptive (a thread's stream
        // must not depend on the interleaving), so the ctx handed to
        // them views an empty one-slot probe cache on the thread's own
        // clock. Recorder hooks get the same view at the commit's seq.
        let probe_cache = CacheSet::new(1, self.universe.num_pages());
        let probe_stats = SimStats::new(self.universe.num_users());
        let probe = |time| EngineCtx {
            time,
            cache: &probe_cache,
            stats: &probe_stats,
            universe: &self.universe,
        };
        let mut local_t: Time = 0;
        loop {
            let mut lap = LapClock::default();
            lap.start::<R>();
            let mut guard = self.lock();
            let shared = &mut *guard;
            if shared.stopped {
                return Ok(lane);
            }
            let exhausted = 'hold: {
                if let Some(run) = source
                    .next_page_run(DEFAULT_BATCH_SIZE)
                    .filter(|r| !r.is_empty())
                {
                    // Zero-copy sources validate each run, so every id is
                    // in range and its owner is the record's user.
                    for &page in run {
                        let req = self.universe.request(page);
                        shared.commit(thread, req, &mut lane, recorder, &mut lap, &probe)?;
                    }
                    local_t += run.len() as Time;
                    break 'hold false;
                }
                for _ in 0..DEFAULT_BATCH_SIZE {
                    let Some(req) = source.next_request(&probe(local_t)) else {
                        break 'hold true;
                    };
                    local_t += 1;
                    shared.commit(thread, req, &mut lane, recorder, &mut lap, &probe)?;
                }
                false
            };
            shared.hand_over();
            if exhausted {
                return Ok(lane);
            }
        }
    }
}

/// Run `sources[t]` on thread `t` against `engine` and collect the
/// commit schedule. `sources` and `recorders` are borrowed so callers
/// keep them afterwards (chaos sources report their injected-fault
/// tallies; recorders get merged by the caller). An engine serves one
/// run.
///
/// Fail-fast runs return the first thread's fault (in thread order) and
/// no outcome; all other policies always complete.
pub fn run_shared<P, S, R>(
    engine: &ConcurrentEngine<P>,
    sources: &mut [S],
    recorders: &mut [R],
) -> Result<SharedOutcome, SimError>
where
    P: ReplacementPolicy + Send,
    S: RequestSource + Send,
    R: Recorder + Send,
{
    run_workers(engine, sources, recorders, None)
}

/// [`run_shared`] with the replay gate running beside it.
///
/// The one lock keeps all but one worker waiting, so a core is free: a
/// replay thread re-executes each hold's commits (handed over under the
/// lock, so in commit order) while the workers go on, and only the
/// replay's tail is left after the last commit. `policies` must be
/// built like the engine's own, as for [`replay_schedule`]. The outer
/// error is the run's fail-fast fault; the inner result is the gate's
/// verdict — the replay's aggregate state once every entry and
/// [`verify_replay`] agreed, or the first divergence.
#[allow(clippy::type_complexity)]
pub fn run_shared_replayed<P, S, R>(
    engine: &ConcurrentEngine<P>,
    sources: &mut [S],
    recorders: &mut [R],
    policies: Vec<P>,
) -> Result<(SharedOutcome, Result<ReplayOutcome, ReplayError>), SimError>
where
    P: ReplacementPolicy + Send,
    S: RequestSource + Send,
    R: Recorder + Send,
{
    let mut replayer = {
        let shared = engine.lock();
        Replayer::new(
            shared.engine.cache().capacity(),
            engine.universe.clone(),
            policies,
            shared.handler.policy(),
        )
    };
    let (feed, holds) = mpsc::channel::<Vec<CommitRecord>>();
    std::thread::scope(|scope| {
        let replay = scope.spawn(move || {
            for hold in holds {
                for entry in &hold {
                    replayer.check(entry)?;
                }
            }
            Ok(replayer.finish())
        });
        let outcome = run_workers(engine, sources, recorders, Some(feed))?;
        let replayed = replay
            .join()
            .expect("replay thread panicked")
            .and_then(|r| verify_replay(&outcome, &r).map(|()| r));
        Ok((outcome, replayed))
    })
}

/// The workers behind [`run_shared`] and [`run_shared_replayed`]:
/// `feed`, when given, receives every hold's commits and is closed once
/// the workers are done.
fn run_workers<P, S, R>(
    engine: &ConcurrentEngine<P>,
    sources: &mut [S],
    recorders: &mut [R],
    feed: Option<Sender<Vec<CommitRecord>>>,
) -> Result<SharedOutcome, SimError>
where
    P: ReplacementPolicy + Send,
    S: RequestSource + Send,
    R: Recorder + Send,
{
    assert_eq!(
        sources.len(),
        recorders.len(),
        "one recorder per worker thread"
    );
    for src in sources.iter() {
        assert_eq!(
            src.universe(),
            engine.universe(),
            "all shared-mode sources must range over the engine's universe"
        );
    }
    assert_eq!(engine.committed(), 0, "a ConcurrentEngine serves one run");
    engine.lock().feed = feed;
    let lanes: Vec<Result<ThreadLane, SimError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .iter_mut()
            .zip(recorders.iter_mut())
            .enumerate()
            .map(|(t, (source, recorder))| {
                scope.spawn(move || engine.drive_worker(t as u32, source, recorder))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shared-cache worker panicked"))
            .collect()
    });
    let mut shared = engine.lock();
    shared.feed = None;
    let per_thread = lanes
        .into_iter()
        .map(|lane| lane.map(|l| (l.stats, l.counters)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SharedOutcome {
        stats: shared.engine.stats().clone(),
        counters: shared.handler.counters().clone(),
        quarantined: shared.handler.quarantined_users(),
        schedule: CommitSchedule {
            entries: std::mem::take(&mut shared.log),
        },
        per_thread,
    })
}

/// Sum `from` into `into`, user by user (saturating, like the engine's
/// own counters).
pub fn merge_stats(into: &mut SimStats, from: &SimStats) {
    assert_eq!(into.num_users(), from.num_users());
    let merged: Vec<crate::stats::UserStats> = into
        .per_user()
        .iter()
        .zip(from.per_user())
        .map(|(a, b)| crate::stats::UserStats {
            hits: a.hits.saturating_add(b.hits),
            misses: a.misses.saturating_add(b.misses),
            evictions: a.evictions.saturating_add(b.evictions),
        })
        .collect();
    *into = SimStats::from_per_user(merged);
}

/// Replay a commit schedule single-threaded through the stock
/// [`SteppingEngine`] + [`ShardedPolicy`], verifying every per-entry
/// outcome (hit/insert/evict victim/drop kind) along the way.
///
/// `policies` must be constructed exactly like the concurrent engine's
/// shard instances (same policy, same parameters, same count).
pub fn replay_schedule<P: ReplacementPolicy>(
    capacity: usize,
    universe: Universe,
    policies: Vec<P>,
    degrade: FaultPolicy,
    schedule: &CommitSchedule,
) -> Result<ReplayOutcome, ReplayError> {
    let mut replayer = Replayer::new(capacity, universe, policies, degrade);
    for entry in schedule.entries() {
        replayer.check(entry)?;
    }
    Ok(replayer.finish())
}

/// The single-threaded replay, one schedule entry at a time: the stock
/// [`SteppingEngine`] + [`ShardedPolicy`] and a fresh [`FaultHandler`].
struct Replayer<P> {
    engine: SteppingEngine<ShardedPolicy<P>>,
    handler: FaultHandler,
}

impl<P: ReplacementPolicy> Replayer<P> {
    fn new(capacity: usize, universe: Universe, policies: Vec<P>, degrade: FaultPolicy) -> Self {
        let handler = FaultHandler::new(degrade, universe.num_users());
        Replayer {
            engine: SteppingEngine::new(capacity, universe, ShardedPolicy::new(policies)),
            handler,
        }
    }

    /// Replay the next entry: its step must reproduce the recorded
    /// outcome.
    fn check(&mut self, entry: &CommitRecord) -> Result<(), ReplayError> {
        let seq = self.engine.time();
        debug_assert_eq!(entry.seq, seq, "schedules are contiguous by construction");
        let req = Request {
            page: entry.page,
            user: entry.user,
        };
        let replayed = match self
            .engine
            .step_checked(req, &mut self.handler)
            .map_err(ReplayError::Fault)?
        {
            Some(StepOutcome::Hit) => CommitOutcome::Hit,
            Some(StepOutcome::Inserted) => CommitOutcome::Insert,
            Some(StepOutcome::Evicted(victim)) => CommitOutcome::Evict { victim },
            // Quarantine is never lifted, so a dropped record classifies
            // after its step as it did before.
            None => CommitOutcome::Drop {
                kind: self
                    .handler
                    .classify(self.engine.ctx().universe, req)
                    .expect("step_checked dropped a record it classified as clean"),
            },
        };
        if replayed != entry.outcome {
            return Err(ReplayError::Divergence {
                seq,
                detail: format!(
                    "thread {} shard {} {} {}: concurrent committed {:?}, replay produced {:?}",
                    entry.thread, entry.shard, entry.page, entry.user, entry.outcome, replayed
                ),
            });
        }
        Ok(())
    }

    fn finish(self) -> ReplayOutcome {
        ReplayOutcome {
            stats: self.engine.stats().clone(),
            counters: self.handler.counters().clone(),
            quarantined: self.handler.quarantined_users(),
        }
    }
}

/// The replay gate: per-user miss vectors (and all other counters),
/// fault counters, and quarantine sets of the concurrent run must equal
/// the replay's byte-for-byte.
pub fn verify_replay(shared: &SharedOutcome, replay: &ReplayOutcome) -> Result<(), ReplayError> {
    if shared.stats != replay.stats {
        return Err(ReplayError::Divergence {
            seq: u64::MAX,
            detail: format!(
                "per-user stats differ: concurrent misses {:?} vs replay {:?}",
                shared.stats.miss_vector(),
                replay.stats.miss_vector()
            ),
        });
    }
    if shared.counters != replay.counters {
        return Err(ReplayError::Divergence {
            seq: u64::MAX,
            detail: format!(
                "fault counters differ: concurrent {:?} vs replay {:?}",
                shared.counters, replay.counters
            ),
        });
    }
    if shared.quarantined != replay.quarantined {
        return Err(ReplayError::Divergence {
            seq: u64::MAX,
            detail: format!(
                "quarantine sets differ: concurrent {:?} vs replay {:?}",
                shared.quarantined, replay.quarantined
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoopRecorder;
    use crate::source::TraceSource;
    use crate::trace::Trace;

    /// A tiny LRU over an ordered vec — slow, obviously correct, and
    /// callback-pure, so it is shard-safe by construction.
    struct VecLru {
        order: Vec<PageId>,
    }

    impl VecLru {
        fn new() -> Self {
            VecLru { order: Vec::new() }
        }
    }

    impl ReplacementPolicy for VecLru {
        fn name(&self) -> String {
            "vec-lru".into()
        }
        fn on_hit(&mut self, _ctx: &EngineCtx, page: PageId) {
            self.order.retain(|&p| p != page);
            self.order.push(page);
        }
        fn on_insert(&mut self, _ctx: &EngineCtx, page: PageId) {
            self.order.push(page);
        }
        fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
            self.order.remove(0)
        }
        fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
            self.order.retain(|&p| p != page);
        }
        fn reset(&mut self) {
            self.order.clear();
        }
    }

    /// Unvalidated request vector source ([`Trace`] rejects malformed
    /// records at construction; fault tests need to emit them).
    struct RawSource {
        universe: Universe,
        reqs: Vec<Request>,
        pos: usize,
    }

    impl RequestSource for RawSource {
        fn universe(&self) -> &Universe {
            &self.universe
        }
        fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
            let r = self.reqs.get(self.pos).copied();
            self.pos += 1;
            r
        }
    }

    fn small_universe() -> Universe {
        // 3 users × 8 pages each.
        let owners: Vec<UserId> = (0..24).map(|p| UserId(p / 8)).collect();
        Universe::new(3, owners)
    }

    fn interleaved_traces(universe: &Universe, per_thread: usize, threads: usize) -> Vec<Trace> {
        (0..threads)
            .map(|t| {
                let reqs: Vec<Request> = (0..per_thread)
                    .map(|i| {
                        let p = PageId(((i * 7 + t * 5 + i * i) % 24) as u32);
                        universe.request(p)
                    })
                    .collect();
                Trace::new(universe.clone(), reqs)
            })
            .collect()
    }

    fn run_and_verify(threads: usize, table_shards: usize, k: usize) -> SharedOutcome {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            k,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            (0..table_shards).map(|_| VecLru::new()).collect(),
        );
        let traces = interleaved_traces(&universe, 200, threads);
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let mut recorders = vec![NoopRecorder; threads];
        let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
        let replay = replay_schedule(
            k,
            universe,
            (0..table_shards).map(|_| VecLru::new()).collect(),
            FaultPolicy::SkipAndCount,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
        shared
    }

    #[test]
    fn concurrent_matches_replay_across_shapes() {
        for &(threads, shards, k) in &[(1, 1, 4), (2, 3, 5), (4, 8, 6), (3, 2, 1), (4, 1, 7)] {
            let shared = run_and_verify(threads, shards, k);
            assert_eq!(shared.schedule.len(), threads * 200);
            assert!(shared.counters.is_clean());
        }
    }

    #[test]
    fn dense_ids_round_trip_and_segment_universes_match() {
        let universe = small_universe();
        for n in [1usize, 2, 3, 8, 64] {
            for p in (0..5_000).chain([u32::MAX - 1, u32::MAX]).map(PageId) {
                assert_eq!(global_of(local_of(p, n), shard_of(p, n), n), p, "S={n}");
            }
            let mut covered = 0;
            for s in 0..n {
                let view = SegmentView::new(&universe, 4, s, n);
                assert_eq!(view.universe.num_users(), universe.num_users());
                for l in (0..view.universe.num_pages()).map(PageId) {
                    let g = global_of(l, s, n);
                    assert_eq!((shard_of(g, n), local_of(g, n)), (s, l));
                    assert_eq!(view.universe.owner(l), universe.owner(g), "S={n} {g}");
                }
                covered += view.universe.num_pages();
            }
            assert_eq!(covered, universe.num_pages(), "S={n}");
        }
    }

    #[test]
    fn more_segments_than_pages_leaves_empty_segments() {
        // 24 pages over 40 segments: segments 24..40 own nothing.
        for &(threads, k) in &[(1, 1), (3, 5), (4, 24)] {
            let shared = run_and_verify(threads, 40, k);
            assert_eq!(shared.schedule.len(), threads * 200);
        }
    }

    /// [`VecLru`] that asserts every page id it is handed (and every
    /// victim it names) is a local id of the universe in its ctx.
    struct LocalIdProbe(VecLru);

    fn assert_local(ctx: &EngineCtx, page: PageId) {
        assert!(
            page.0 < ctx.universe.num_pages(),
            "{page} is not a local id of a {}-page segment",
            ctx.universe.num_pages()
        );
    }

    impl ReplacementPolicy for LocalIdProbe {
        fn name(&self) -> String {
            "local-id-probe".into()
        }
        fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
            assert_local(ctx, page);
            self.0.on_hit(ctx, page);
        }
        fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
            assert_local(ctx, page);
            self.0.on_insert(ctx, page);
        }
        // `incoming` is not checked: in a cross-segment eviction it is
        // the local id in the *incoming* page's segment.
        fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
            let victim = self.0.choose_victim(ctx, incoming);
            assert_local(ctx, victim);
            victim
        }
        fn on_evicted(&mut self, ctx: &EngineCtx, victim: PageId) {
            assert_local(ctx, victim);
        }
        fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
            assert_local(ctx, page);
            self.0.on_external_removal(ctx, page);
        }
    }

    #[test]
    fn segment_policies_only_see_local_ids() {
        let universe = small_universe();
        for &(shards, k) in &[(2, 3), (3, 1), (5, 6), (7, 4), (30, 5)] {
            let probes = || (0..shards).map(|_| LocalIdProbe(VecLru::new())).collect();
            let engine =
                ConcurrentEngine::new(k, universe.clone(), FaultPolicy::QuarantineUser, probes());
            // Two clean interleaved streams plus one that ends with an
            // owner mismatch, so a quarantine purge runs too.
            let mut sources: Vec<RawSource> = interleaved_traces(&universe, 150, 3)
                .into_iter()
                .map(|t| RawSource {
                    universe: universe.clone(),
                    reqs: t.requests().to_vec(),
                    pos: 0,
                })
                .collect();
            sources[2].reqs.push(Request {
                page: PageId(20),
                user: UserId(0),
            });
            let mut recorders = vec![NoopRecorder; 3];
            let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
            assert_eq!(shared.quarantined, vec![UserId(2)]);
            let replay = replay_schedule(
                k,
                universe.clone(),
                probes(),
                FaultPolicy::QuarantineUser,
                &shared.schedule,
            )
            .unwrap();
            verify_replay(&shared, &replay).unwrap();
        }
    }

    /// A fixed page-id list that hands out borrowed runs of at most
    /// `run` pages, like the zero-copy binary readers.
    struct PageRunSource {
        universe: Universe,
        pages: Vec<PageId>,
        pos: usize,
        run: usize,
    }

    impl RequestSource for PageRunSource {
        fn universe(&self) -> &Universe {
            &self.universe
        }
        fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
            let p = *self.pages.get(self.pos)?;
            self.pos += 1;
            Some(self.universe.request(p))
        }
        fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
            let start = self.pos.min(self.pages.len());
            let end = (start + max.min(self.run)).min(self.pages.len());
            self.pos = end;
            Some(&self.pages[start..end])
        }
    }

    #[test]
    fn page_run_feed_commits_what_per_request_pulls_commit() {
        let universe = small_universe();
        let trace = &interleaved_traces(&universe, 300, 1)[0];
        let engine = || {
            ConcurrentEngine::new(
                4,
                universe.clone(),
                FaultPolicy::SkipAndCount,
                (0..3).map(|_| VecLru::new()).collect(),
            )
        };
        let pulled = run_shared(
            &engine(),
            &mut [TraceSource::new(trace)],
            &mut [NoopRecorder],
        )
        .unwrap();
        let mut runs = [PageRunSource {
            universe: universe.clone(),
            pages: trace.requests().iter().map(|r| r.page).collect(),
            pos: 0,
            run: 7,
        }];
        let batched = run_shared(&engine(), &mut runs, &mut [NoopRecorder]).unwrap();
        assert_eq!(batched.schedule, pulled.schedule);
        assert_eq!(batched.stats, pulled.stats);
    }

    #[test]
    fn schedule_seqs_are_contiguous_and_shard_consistent() {
        let shared = run_and_verify(4, 4, 6);
        for (i, e) in shared.schedule.entries().iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.shard, shard_of(e.page, 4) as u32);
        }
    }

    #[test]
    fn commit_record_line_round_trip() {
        let records = [
            CommitRecord {
                seq: 0,
                thread: 3,
                shard: 1,
                page: PageId(9),
                user: UserId(1),
                outcome: CommitOutcome::Hit,
            },
            CommitRecord {
                seq: 1,
                thread: 0,
                shard: 0,
                page: PageId(4),
                user: UserId(0),
                outcome: CommitOutcome::Evict { victim: PageId(2) },
            },
            CommitRecord {
                seq: 2,
                thread: 1,
                shard: 2,
                page: PageId(99),
                user: UserId(7),
                outcome: CommitOutcome::Drop {
                    kind: FaultKind::PageOutOfRange,
                },
            },
            CommitRecord {
                seq: 3,
                thread: 2,
                shard: 0,
                page: PageId(12),
                user: UserId(2),
                outcome: CommitOutcome::Insert,
            },
        ];
        for r in records {
            assert_eq!(CommitRecord::from_line(&r.to_line()).unwrap(), r);
        }
        assert!(CommitRecord::from_line("1 2 3").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 1 zap").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 1 hit extra").is_err());
        // Ids wider than u32 must be rejected, not silently truncated.
        assert!(CommitRecord::from_line("0 4294967296 0 1 1 hit").is_err());
        assert!(CommitRecord::from_line("0 0 4294967296 1 1 hit").is_err());
        assert!(CommitRecord::from_line("0 0 0 4294967296 1 hit").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 4294967296 hit").is_err());
        assert!(CommitRecord::from_line("0 0 0 1 1 evt 4294967296").is_err());
    }

    #[test]
    fn non_contiguous_schedule_rejected() {
        let parse = |seqs: &[u64]| {
            let lines: Vec<String> = seqs.iter().map(|s| format!("{s} 0 0 0 0 hit")).collect();
            CommitSchedule::from_lines(lines.iter().map(String::as_str))
        };
        assert!(parse(&[0, 2]).is_err(), "a gap");
        assert!(parse(&[0, 0]).is_err(), "a duplicate");
        let unordered = parse(&[1, 0]).expect("unordered but contiguous");
        let seqs: Vec<u64> = unordered.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn quarantine_event_purges_and_replays() {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::QuarantineUser,
            (0..2).map(|_| VecLru::new()).collect(),
        );
        // Thread 0: clean requests from user 0; thread 1 ends with an
        // owner-mismatch record whose true owner is user 0.
        let t0: Vec<Request> = (0..40).map(|i| universe.request(PageId(i % 8))).collect();
        let mut t1: Vec<Request> = (0..40)
            .map(|i| universe.request(PageId(8 + i % 8)))
            .collect();
        t1.push(Request {
            page: PageId(3),
            user: UserId(2),
        });
        let mut sources = vec![
            RawSource {
                universe: universe.clone(),
                reqs: t0,
                pos: 0,
            },
            RawSource {
                universe: universe.clone(),
                reqs: t1,
                pos: 0,
            },
        ];
        let mut recorders = vec![NoopRecorder; 2];
        let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
        assert_eq!(shared.counters.owner_mismatch, 1);
        assert_eq!(shared.counters.quarantined_users, 1);
        assert_eq!(shared.quarantined, vec![UserId(0)]);
        let replay = replay_schedule(
            4,
            universe,
            (0..2).map(|_| VecLru::new()).collect(),
            FaultPolicy::QuarantineUser,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
    }

    #[test]
    fn replay_beside_the_run_equals_the_replay_after_it() {
        let universe = small_universe();
        let policies = || (0..3).map(|_| VecLru::new()).collect::<Vec<_>>();
        let engine =
            ConcurrentEngine::new(3, universe.clone(), FaultPolicy::QuarantineUser, policies());
        // Three interleaved streams; the last ends with an owner
        // mismatch, so the replay also has a quarantine purge to match.
        let mut sources: Vec<RawSource> = interleaved_traces(&universe, 5_000, 3)
            .into_iter()
            .map(|t| RawSource {
                universe: universe.clone(),
                reqs: t.requests().to_vec(),
                pos: 0,
            })
            .collect();
        sources[2].reqs.push(Request {
            page: PageId(20),
            user: UserId(0),
        });
        let mut recorders = vec![NoopRecorder; 3];
        let (shared, beside) =
            run_shared_replayed(&engine, &mut sources, &mut recorders, policies()).unwrap();
        let beside = beside.expect("the replay beside the run agrees");
        assert_eq!(shared.schedule.len(), 15_001);
        assert_eq!(shared.quarantined, vec![UserId(2)]);
        let after = replay_schedule(
            3,
            universe,
            policies(),
            FaultPolicy::QuarantineUser,
            &shared.schedule,
        )
        .unwrap();
        assert_eq!(beside.stats, after.stats);
        assert_eq!(beside.counters, after.counters);
        assert_eq!(beside.quarantined, after.quarantined);
    }

    /// LRU that, in every instance but the first built, evicts its
    /// most recent page instead: a replay built from these disagrees
    /// with the run at the first eviction.
    struct Fickle {
        lru: VecLru,
        flipped: bool,
    }

    impl ReplacementPolicy for Fickle {
        fn name(&self) -> String {
            "fickle".into()
        }
        fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
            self.lru.on_hit(ctx, page);
        }
        fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
            self.lru.on_insert(ctx, page);
        }
        fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
            if self.flipped {
                self.lru.order.pop().expect("cache is full")
            } else {
                self.lru.choose_victim(ctx, incoming)
            }
        }
        fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
            self.lru.on_external_removal(ctx, page);
        }
    }

    #[test]
    fn replay_beside_the_run_reports_the_first_divergence() {
        let universe = small_universe();
        let fickle = |flipped| Fickle {
            lru: VecLru::new(),
            flipped,
        };
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            vec![fickle(false)],
        );
        let traces = interleaved_traces(&universe, 300, 2);
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let (shared, verdict) = run_shared_replayed(
            &engine,
            &mut sources,
            &mut [NoopRecorder, NoopRecorder],
            vec![fickle(true)],
        )
        .unwrap();
        let first_eviction = shared
            .schedule
            .entries()
            .iter()
            .find(|e| matches!(e.outcome, CommitOutcome::Evict { .. }))
            .expect("k = 4 over 24 pages evicts")
            .seq;
        match verdict {
            Err(ReplayError::Divergence { seq, .. }) => assert_eq!(seq, first_eviction),
            other => panic!("expected a divergence, got {other:?}"),
        }
    }

    #[test]
    fn fail_fast_stops_and_reports() {
        let universe = small_universe();
        let engine = || {
            ConcurrentEngine::new(
                4,
                universe.clone(),
                FaultPolicy::FailFast,
                vec![VecLru::new()],
            )
        };
        let reqs = vec![
            universe.request(PageId(0)),
            Request {
                page: PageId(999),
                user: UserId(0),
            },
            universe.request(PageId(1)),
        ];
        let sources = || {
            vec![RawSource {
                universe: universe.clone(),
                reqs: reqs.clone(),
                pos: 0,
            }]
        };
        let alone = engine();
        let err = run_shared(&alone, &mut sources(), &mut [NoopRecorder]).unwrap_err();
        assert!(err.to_string().contains("page"), "unexpected error: {err}");
        assert!(alone.stopped());
        // With the replay beside it, the run's fault still wins.
        let beside = engine();
        let err = run_shared_replayed(
            &beside,
            &mut sources(),
            &mut [NoopRecorder],
            vec![VecLru::new()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("page"), "unexpected error: {err}");
        assert_eq!(beside.committed(), 1);
    }

    #[test]
    fn empty_streams_commit_nothing() {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            (0..3).map(|_| VecLru::new()).collect(),
        );
        let traces: Vec<Trace> = (0..4)
            .map(|_| Trace::new(universe.clone(), Vec::new()))
            .collect();
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let mut recorders = vec![NoopRecorder; 4];
        let shared = run_shared(&engine, &mut sources, &mut recorders).unwrap();
        assert!(shared.schedule.is_empty());
        assert_eq!(shared.stats.total_misses(), 0);
        let replay = replay_schedule(
            4,
            universe,
            (0..3).map(|_| VecLru::new()).collect(),
            FaultPolicy::SkipAndCount,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
    }
}
