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
//! with its [`FaultHandler`] behind one `Mutex`. The engine's recorder is
//! the commit log: its hit/insert/evict/fault hooks append one
//! [`CommitRecord`] per consumed record, so the log is written by the
//! engine's own hook dispatch and the concurrent engine has no
//! hit/insert/evict state machine of its own. A worker takes the lock
//! once per *hold*: one borrowed run of at most [`DEFAULT_BATCH_SIZE`]
//! requests (page ids from a zero-copy source, or requests from a
//! source's `next_run`), or up to that many requests pulled one at a
//! time from any other source (a chaos source, a pull-only source).
//!
//! A clean hold is served by the sequential engine's batch loop
//! ([`SteppingEngine::step_page_batch`] / [`SteppingEngine::step_batch`]:
//! prefetch, full-cache hoisting). A hold is clean when it is a page run,
//! or a request run whose every record classifies clean first; no user
//! is quarantined; and the worker's recorder is untimed. An active
//! untimed worker recorder gets its hooks fired from the hold's log
//! entries afterwards. Every other hold — pulled requests, chaos,
//! anything after a quarantine, timed recorders — is served record by
//! record with [`SteppingEngine::step_checked`], so skips, quarantine
//! purges and fail-fast stops go through the one handler, a pulled hold
//! ends exactly at a fail-fast fault (which commits nothing), and a timed
//! hold runs on one [`LapClock`] started before the lock is taken: every
//! commit gets one latency sample, and the first includes the lock wait.
//! Each worker's `(SimStats, FaultCounters)` lane is cut as the delta of
//! the engine's counters across each of its holds, so the lanes sum to
//! the engine's counters by construction.
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
//! through a fresh [`SteppingEngine`] + [`ShardedPolicy`], logging
//! through the same recorder, must reproduce every per-request outcome,
//! the per-user miss vectors, the fault counters and the quarantine set
//! *byte-identically*; the replay gate ([`replay_schedule`] +
//! [`verify_replay`]) checks all of it. The replay goes a hold at a
//! time: a hold with no drop, whose records all classify clean and with
//! no user quarantined, is re-served in one batch and its outcomes are
//! compared elementwise; any other hold is checked entry by entry.
//! Either way the first mismatch is reported at its `seq`.
//! [`run_shared_replayed`] runs the same replay beside the workers, on
//! the core the one lock leaves idle: each hold hands its commits over
//! before it releases the lock, so the replay sees them in commit order.
//! [`replay_schedule`] cuts a whole schedule into [`DEFAULT_BATCH_SIZE`]
//! chunks.
//!
//! # Segment tables
//!
//! [`ShardedPolicy`] keeps S policy instances. Page `p` lives in segment
//! `shard(p) = p mod S` under the dense local id `p / S` ([`local_of`],
//! inverse [`global_of`]). Each segment owns a segment-local
//! [`Universe`] (owners of `p = s, s+S, …`) and a count of its cached
//! pages; a victim comes from the first segment holding a page from
//! `shard(incoming)` upward. Commit records, stats and victims stay in
//! global ids. At S = 1 the one instance is handed the engine's own ctx.
//!
//! # The policy purity contract
//!
//! At S > 1 segment instances see segment-local `EngineCtx` views: the
//! segment universe, **no cache** (an empty zero-page set: a policy that
//! probes it panics) and an all-zero stats table. A policy whose
//! decisions read only `ctx.universe` (LRU, FIFO, greedy-dual) behaves
//! in each segment as it would on that segment alone. ALG-DISCRETE also
//! reads only the universe (and asserts on `ctx.cache` in debug builds),
//! and at S = 1 its one instance is the global algorithm on the engine's
//! own ctx; at S > 1 each segment would keep its own `Y` and `m_u`, which
//! is not the paper's algorithm. Policies that read `ctx.stats` (the
//! cost-greedy family) see zeros in a segment and should not be handed
//! to [`ConcurrentEngine`].

use crate::cache::CacheSet;
use crate::engine::EngineCtx;
use crate::error::{FaultCounters, FaultHandler, FaultKind, FaultPolicy, RequestFault, SimError};
use crate::ids::{PageId, Time, UserId};
use crate::policy::ReplacementPolicy;
use crate::probe::{LapClock, Recorder};
use crate::source::RequestSource;
use crate::stats::{SimStats, UserStats};
use crate::stepper::{BatchItem, SteppingEngine, DEFAULT_BATCH_SIZE};
use crate::trace::{Request, Universe};
use std::fmt;
use std::sync::mpsc::{self, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};

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

/// [`shard_of`] and [`local_of`] for a fixed S without a hardware
/// divide, which the segment callbacks and the commit log pay several
/// times per commit: Lemire, Kaser and Kurz's direct remainder ("Faster
/// remainder by direct computation", 2019), exact for every 32-bit page
/// id and every S below 2^32.
#[derive(Clone, Copy, Debug)]
struct Stripes {
    n: u64,
    /// ⌈2^64 / S⌉, or 0 at S = 1 (every page is its own local id in
    /// segment 0).
    m: u64,
}

impl Stripes {
    fn new(table_shards: usize) -> Self {
        let n = u32::try_from(table_shards).expect("fewer than 2^32 segments") as u64;
        let m = if n == 1 { 0 } else { u64::MAX / n + 1 };
        Stripes { n, m }
    }

    #[inline(always)]
    fn shard(self, page: PageId) -> usize {
        let low = self.m.wrapping_mul(page.0 as u64);
        ((low as u128 * self.n as u128) >> 64) as usize
    }

    #[inline(always)]
    fn local(self, page: PageId) -> PageId {
        if self.m == 0 {
            return page;
        }
        PageId(((self.m as u128 * page.0 as u128) >> 64) as u32)
    }
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

/// The segment-local world one shard's policy instance lives in (S > 1):
/// the segment's [`Universe`] (local page `l` of segment `s` is global
/// page `s + l·S`, same owner) and how many of its pages are cached.
/// Every table is sized to the segment, not to the global page range.
struct SegmentView {
    universe: Universe,
    /// Cached pages of this segment: the victim scan's emptiness test.
    cached: usize,
}

impl SegmentView {
    fn new(global: &Universe, shard: usize, table_shards: usize) -> Self {
        let owners = global
            .owners()
            .iter()
            .copied()
            .skip(shard)
            .step_by(table_shards)
            .collect();
        SegmentView {
            universe: Universe::new(global.num_users(), owners),
            cached: 0,
        }
    }
}

/// The segment views of a [`ShardedPolicy`] with S > 1, plus the empty
/// cache and all-zero stats every segment sees (the purity contract).
struct Segments {
    views: Vec<SegmentView>,
    stripes: Stripes,
    no_cache: CacheSet,
    zero_stats: SimStats,
}

impl Segments {
    fn new(table_shards: usize) -> Self {
        Segments {
            views: Vec::new(),
            stripes: Stripes::new(table_shards),
            no_cache: CacheSet::new(1, 0),
            zero_stats: SimStats::default(),
        }
    }

    /// `(shard, local id)` of a global page, building the views from
    /// the first callback's universe.
    #[inline]
    fn route(&mut self, ctx: &EngineCtx, page: PageId, n: usize) -> (usize, PageId) {
        if self.views.is_empty() {
            self.views = (0..n)
                .map(|s| SegmentView::new(ctx.universe, s, n))
                .collect();
            self.zero_stats = SimStats::new(ctx.universe.num_users());
        }
        (self.stripes.shard(page), self.stripes.local(page))
    }

    #[inline]
    fn ctx(&self, shard: usize, time: Time) -> EngineCtx<'_> {
        EngineCtx {
            time,
            cache: &self.no_cache,
            stats: &self.zero_stats,
            universe: &self.views[shard].universe,
        }
    }
}

/// The shared cache's policy: S inner policy instances, each behind a
/// segment-local view, driven through the stock [`SteppingEngine`] by
/// the concurrent run and its replay alike.
///
/// At S = 1 every callback goes to the one instance with the engine's
/// own ctx. At S > 1 callbacks translate global ids to segment-local
/// ones, and `choose_victim` takes the victim from the first segment
/// holding a page from `shard(incoming)` upward. The views are built
/// from the first callback's universe.
pub struct ShardedPolicy<P> {
    inners: Vec<P>,
    segments: Segments,
}

impl<P: ReplacementPolicy> ShardedPolicy<P> {
    /// Wrap one policy instance per shard segment.
    pub fn new(inners: Vec<P>) -> Self {
        assert!(!inners.is_empty(), "need at least one shard");
        ShardedPolicy {
            segments: Segments::new(inners.len()),
            inners,
        }
    }

    /// Number of shard segments.
    pub fn table_shards(&self) -> usize {
        self.inners.len()
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for ShardedPolicy<P> {
    fn name(&self) -> String {
        format!("sharded({}x{})", self.inners[0].name(), self.inners.len())
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        let n = self.inners.len();
        if n == 1 {
            return self.inners[0].on_hit(ctx, page);
        }
        let (s, local) = self.segments.route(ctx, page, n);
        self.inners[s].on_hit(&self.segments.ctx(s, ctx.time), local);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        let n = self.inners.len();
        if n == 1 {
            return self.inners[0].on_insert(ctx, page);
        }
        let (s, local) = self.segments.route(ctx, page, n);
        self.segments.views[s].cached += 1;
        self.inners[s].on_insert(&self.segments.ctx(s, ctx.time), local);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, incoming: PageId) -> PageId {
        let n = self.inners.len();
        if n == 1 {
            return self.inners[0].choose_victim(ctx, incoming);
        }
        let (start, local) = self.segments.route(ctx, incoming, n);
        let v = (start..n)
            .chain(0..start)
            .find(|&i| self.segments.views[i].cached > 0)
            .expect("cache is full but no shard holds a page");
        let victim = self.inners[v].choose_victim(&self.segments.ctx(v, ctx.time), local);
        global_of(victim, v, n)
    }

    fn on_evicted(&mut self, ctx: &EngineCtx, victim: PageId) {
        let n = self.inners.len();
        if n == 1 {
            return self.inners[0].on_evicted(ctx, victim);
        }
        let (s, local) = self.segments.route(ctx, victim, n);
        self.segments.views[s].cached -= 1;
        self.inners[s].on_evicted(&self.segments.ctx(s, ctx.time), local);
    }

    fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
        let n = self.inners.len();
        if n == 1 {
            return self.inners[0].on_external_removal(ctx, page);
        }
        let (s, local) = self.segments.route(ctx, page, n);
        self.segments.views[s].cached -= 1;
        self.inners[s].on_external_removal(&self.segments.ctx(s, ctx.time), local);
    }

    fn reset(&mut self) {
        for p in &mut self.inners {
            p.reset();
        }
        self.segments = Segments::new(self.inners.len());
    }
}

/// The shared engine's recorder: one [`CommitRecord`] per consumed
/// record, appended by the engine's own hooks. `thread` is the worker
/// whose hold is being served.
struct CommitLog {
    entries: Vec<CommitRecord>,
    thread: u32,
    stripes: Stripes,
}

impl CommitLog {
    fn new(table_shards: usize) -> Self {
        CommitLog {
            entries: Vec::new(),
            thread: 0,
            stripes: Stripes::new(table_shards),
        }
    }

    #[inline(always)]
    fn push(&mut self, seq: u64, page: PageId, user: UserId, outcome: CommitOutcome) {
        self.entries.push(CommitRecord {
            seq,
            thread: self.thread,
            shard: self.stripes.shard(page) as u32,
            page,
            user,
            outcome,
        });
    }
}

impl Recorder for CommitLog {
    #[inline(always)]
    fn record_hit(&mut self, _ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        self.push(t, page, user, CommitOutcome::Hit);
    }

    #[inline(always)]
    fn record_insert(&mut self, _ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        self.push(t, page, user, CommitOutcome::Insert);
    }

    #[inline(always)]
    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        t: Time,
        page: PageId,
        user: UserId,
        victim: PageId,
        _victim_user: UserId,
    ) {
        self.push(t, page, user, CommitOutcome::Evict { victim });
    }

    fn record_fault(&mut self, fault: &RequestFault) {
        let drop = CommitOutcome::Drop { kind: fault.kind };
        self.push(fault.time, fault.page, fault.user, drop);
    }
}

/// Fire `recorder`'s hook for one committed entry, with `ctx` as the
/// view the hook sees.
fn fire<R: Recorder>(recorder: &mut R, ctx: &EngineCtx, e: &CommitRecord) {
    match e.outcome {
        CommitOutcome::Hit => recorder.record_hit(ctx, e.seq, e.page, e.user),
        CommitOutcome::Insert => recorder.record_insert(ctx, e.seq, e.page, e.user),
        CommitOutcome::Evict { victim } => {
            let victim_user = ctx.universe.owner(victim);
            recorder.record_eviction(ctx, e.seq, e.page, e.user, victim, victim_user)
        }
        CommitOutcome::Drop { kind } => recorder.record_fault(&RequestFault {
            time: e.seq,
            kind,
            page: e.page,
            user: e.user,
        }),
    }
}

/// One worker's share of the engine's counters: the sum of their deltas
/// across each of its holds.
#[derive(Clone, Debug, Default)]
struct ThreadLane {
    per_user: Vec<UserStats>,
    counters: FaultCounters,
}

impl ThreadLane {
    fn new(num_users: u32) -> Self {
        ThreadLane {
            per_user: vec![UserStats::default(); num_users as usize],
            counters: FaultCounters::default(),
        }
    }

    /// Take the engine's counters as they stand (`self` as a snapshot).
    fn snapshot(&mut self, stats: &SimStats, counters: &FaultCounters) {
        self.per_user.clear();
        self.per_user.extend_from_slice(stats.per_user());
        self.counters.clone_from(counters);
    }

    /// Add what the engine counted since `before` was taken.
    fn add_since(&mut self, before: &ThreadLane, stats: &SimStats, counters: &FaultCounters) {
        for ((lane, b), a) in self
            .per_user
            .iter_mut()
            .zip(&before.per_user)
            .zip(stats.per_user())
        {
            lane.hits = lane.hits.saturating_add(a.hits - b.hits);
            lane.misses = lane.misses.saturating_add(a.misses - b.misses);
            lane.evictions = lane.evictions.saturating_add(a.evictions - b.evictions);
        }
        let (c, b) = (counters, &before.counters);
        self.counters.merge(&FaultCounters {
            page_out_of_range: c.page_out_of_range - b.page_out_of_range,
            owner_mismatch: c.owner_mismatch - b.owner_mismatch,
            quarantined_drops: c.quarantined_drops - b.quarantined_drops,
            quarantined_users: c.quarantined_users - b.quarantined_users,
        });
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
    /// The engine; its recorder holds the commit log, entry `i` at seq `i`.
    engine: SteppingEngine<ShardedPolicy<P>, CommitLog>,
    handler: FaultHandler,
    /// Set by a fail-fast fault; every later hold ends at once.
    stopped: bool,
    /// Where each hold's commits go when a replay runs beside the run.
    feed: Option<Sender<Vec<CommitRecord>>>,
    /// How much of the log the feed has been handed.
    fed: usize,
}

impl<P: ReplacementPolicy> Shared<P> {
    fn log(&self) -> &[CommitRecord] {
        &self.engine.recorder().entries
    }

    /// Hand the commits since the last hand-over to the replay feed, if
    /// one is attached. Holds hand over under the lock, so the replay
    /// receives them in commit order.
    fn hand_over(&mut self) {
        if let Some(feed) = &self.feed {
            let log = &self.engine.recorder().entries;
            if self.fed < log.len() {
                // A closed feed means the replay has already diverged,
                // and its verdict is the one that counts.
                let _ = feed.send(log[self.fed..].to_vec());
                self.fed = log.len();
            }
        }
    }

    /// A fault stops the run; the log keeps only what was served, so a
    /// fail-fast record commits nothing.
    fn stop(&mut self, e: impl Into<SimError>) -> SimError {
        let served = self.engine.time() as usize;
        self.engine.recorder_mut().entries.truncate(served);
        self.stopped = true;
        e.into()
    }

    /// Serve a run of clean records through the engine's batch loop,
    /// then fire `recorder`'s hooks from the run's log entries.
    fn commit_batch<'a, I: BatchItem, R: Recorder>(
        &mut self,
        items: &[I],
        recorder: &mut R,
        probe: &impl Fn(Time) -> EngineCtx<'a>,
    ) -> Result<(), SimError> {
        let start = self.engine.time() as usize;
        if let Err(v) = self.engine.serve_batch(items) {
            return Err(self.stop(v));
        }
        if R::ACTIVE {
            for e in &self.log()[start..] {
                fire(recorder, &probe(e.seq), e);
            }
        }
        Ok(())
    }

    /// Serve one untrusted record with `step_checked` and fire
    /// `recorder`'s hook from its log entry. The only error is a
    /// fail-fast fault or a policy violation, which also stops the run.
    fn commit<'a, R: Recorder>(
        &mut self,
        req: Request,
        recorder: &mut R,
        lap: &mut LapClock,
        probe: &impl Fn(Time) -> EngineCtx<'a>,
    ) -> Result<(), SimError> {
        let seq = self.engine.time();
        if let Err(e) = self.engine.step_checked(req, &mut self.handler) {
            return Err(self.stop(e));
        }
        if R::ACTIVE {
            fire(recorder, &probe(seq), &self.log()[seq as usize]);
        }
        lap.lap(recorder, seq);
        Ok(())
    }

    /// Serve one hold from `source` for the worker whose recorder is
    /// `recorder` (see the module docs for which holds are batched), and
    /// return whether the source ran dry.
    fn serve_hold<'a, S: RequestSource, R: Recorder>(
        &mut self,
        source: &mut S,
        recorder: &mut R,
        lap: &mut LapClock,
        probe: &impl Fn(Time) -> EngineCtx<'a>,
        local_t: &mut Time,
    ) -> Result<bool, SimError> {
        let batched = !R::TIMED && self.handler.counters().quarantined_users == 0;
        if let Some(run) = source
            .next_page_run(DEFAULT_BATCH_SIZE)
            .filter(|r| !r.is_empty())
        {
            // Zero-copy sources validate each run, so every id is in
            // range and its owner is the record's user.
            *local_t += run.len() as Time;
            if batched {
                self.commit_batch(run, recorder, probe)?;
            } else {
                for &page in run {
                    let req = self.engine.ctx().universe.request(page);
                    self.commit(req, recorder, lap, probe)?;
                }
            }
        } else if let Some(run) = source
            .next_run(DEFAULT_BATCH_SIZE)
            .filter(|r| !r.is_empty())
        {
            *local_t += run.len() as Time;
            let universe = self.engine.ctx().universe;
            if batched
                && run
                    .iter()
                    .all(|&r| self.handler.classify(universe, r).is_none())
            {
                self.commit_batch(run, recorder, probe)?;
            } else {
                for &req in run {
                    self.commit(req, recorder, lap, probe)?;
                }
            }
        } else {
            for _ in 0..DEFAULT_BATCH_SIZE {
                let Some(req) = source.next_request(&probe(*local_t)) else {
                    return Ok(true);
                };
                *local_t += 1;
                self.commit(req, recorder, lap, probe)?;
            }
        }
        Ok(false)
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
        let log = CommitLog::new(policies.len());
        let engine = SteppingEngine::new(capacity, universe.clone(), ShardedPolicy::new(policies))
            .with_recorder(log);
        ConcurrentEngine {
            shared: Mutex::new(Shared {
                engine,
                handler: FaultHandler::new(degrade, universe.num_users()),
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
    /// per lock. Each hold is timed on one [`LapClock`] started before
    /// the lock is taken, so a timed worker gets one latency sample per
    /// commit and the hold's first sample includes the wait for the
    /// lock.
    fn drive_worker<S: RequestSource, R: Recorder>(
        &self,
        thread: u32,
        source: &mut S,
        recorder: &mut R,
    ) -> Result<ThreadLane, SimError> {
        let mut lane = ThreadLane::new(self.universe.num_users());
        let mut before = ThreadLane::default();
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
            shared.engine.recorder_mut().thread = thread;
            before.snapshot(shared.engine.stats(), shared.handler.counters());
            let exhausted = shared.serve_hold(source, recorder, &mut lap, &probe, &mut local_t)?;
            lane.add_since(&before, shared.engine.stats(), shared.handler.counters());
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
                replayer.check_hold(&hold)?;
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
    let _detach = DetachFeed(engine);
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
    let per_thread = lanes
        .into_iter()
        .map(|lane| lane.map(|l| (SimStats::from_per_user(l.per_user), l.counters)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SharedOutcome {
        stats: shared.engine.stats().clone(),
        counters: shared.handler.counters().clone(),
        quarantined: shared.handler.quarantined_users(),
        schedule: CommitSchedule {
            entries: std::mem::take(&mut shared.engine.recorder_mut().entries),
        },
        per_thread,
    })
}

/// Closes the replay feed once the workers are done — also when one of
/// them panicked, so a replay beside the run never waits for holds that
/// will not come.
struct DetachFeed<'a, P>(&'a ConcurrentEngine<P>);

impl<P> Drop for DetachFeed<'_, P> {
    fn drop(&mut self) {
        let mut shared = self.0.shared.lock().unwrap_or_else(PoisonError::into_inner);
        shared.feed = None;
    }
}

/// Sum `from` into `into`, user by user (saturating, like the engine's
/// own counters).
pub fn merge_stats(into: &mut SimStats, from: &SimStats) {
    assert_eq!(into.num_users(), from.num_users());
    let merged: Vec<UserStats> = into
        .per_user()
        .iter()
        .zip(from.per_user())
        .map(|(a, b)| UserStats {
            hits: a.hits.saturating_add(b.hits),
            misses: a.misses.saturating_add(b.misses),
            evictions: a.evictions.saturating_add(b.evictions),
        })
        .collect();
    *into = SimStats::from_per_user(merged);
}

/// Replay a commit schedule single-threaded through the stock
/// [`SteppingEngine`] + [`ShardedPolicy`], verifying every per-entry
/// outcome (hit/insert/evict victim/drop kind) along the way, a
/// [`DEFAULT_BATCH_SIZE`] chunk at a time (see the module docs).
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
    for hold in schedule.entries().chunks(DEFAULT_BATCH_SIZE) {
        replayer.check_hold(hold)?;
    }
    Ok(replayer.finish())
}

/// The single-threaded replay, a hold at a time: the stock
/// [`SteppingEngine`] + [`ShardedPolicy`] logging through the run's own
/// recorder, and a fresh [`FaultHandler`].
struct Replayer<P> {
    engine: SteppingEngine<ShardedPolicy<P>, CommitLog>,
    handler: FaultHandler,
}

impl<P: ReplacementPolicy> Replayer<P> {
    fn new(capacity: usize, universe: Universe, policies: Vec<P>, degrade: FaultPolicy) -> Self {
        let handler = FaultHandler::new(degrade, universe.num_users());
        let log = CommitLog::new(policies.len());
        Replayer {
            engine: SteppingEngine::new(capacity, universe, ShardedPolicy::new(policies))
                .with_recorder(log),
            handler,
        }
    }

    /// Replay the next hold: each entry's step must reproduce its
    /// recorded outcome. A clean hold is re-served in one batch, any
    /// other entry by entry; the replay's log keeps one hold at a time.
    fn check_hold(&mut self, hold: &[CommitRecord]) -> Result<(), ReplayError> {
        if let Some(first) = hold.first() {
            let time = self.engine.time();
            debug_assert_eq!(first.seq, time, "schedules are contiguous by construction");
        }
        self.engine.recorder_mut().entries.clear();
        let universe = self.engine.ctx().universe;
        let clean = self.handler.counters().quarantined_users == 0
            && hold.iter().all(|e| {
                !matches!(e.outcome, CommitOutcome::Drop { .. })
                    && self.handler.classify(universe, request(e)).is_none()
            });
        if !clean {
            for e in hold {
                self.engine
                    .step_checked(request(e), &mut self.handler)
                    .map_err(ReplayError::Fault)?;
                let replayed = self.engine.recorder().entries.last();
                check_outcome(e, replayed.expect("every step logs").outcome)?;
            }
            return Ok(());
        }
        let served = self.engine.serve_batch(hold);
        // Outcomes before a policy violation still count: the first
        // mismatch among them is the first divergence.
        let log = &self.engine.recorder().entries;
        if let Some((e, r)) = hold.iter().zip(log).find(|(e, r)| e.outcome != r.outcome) {
            check_outcome(e, r.outcome)?;
        }
        served.map_err(|v| ReplayError::Fault(v.into()))
    }

    fn finish(self) -> ReplayOutcome {
        ReplayOutcome {
            stats: self.engine.stats().clone(),
            counters: self.handler.counters().clone(),
            quarantined: self.handler.quarantined_users(),
        }
    }
}

/// The request a schedule entry committed.
fn request(e: &CommitRecord) -> Request {
    Request {
        page: e.page,
        user: e.user,
    }
}

/// A replayed hold is served straight from its schedule entries.
impl BatchItem for CommitRecord {
    #[inline(always)]
    fn page(self) -> PageId {
        self.page
    }
    #[inline(always)]
    fn request(self, _universe: &Universe) -> Request {
        request(&self)
    }
}

/// Whether the replay reproduced the outcome `e` recorded.
fn check_outcome(e: &CommitRecord, replayed: CommitOutcome) -> Result<(), ReplayError> {
    if replayed == e.outcome {
        return Ok(());
    }
    Err(ReplayError::Divergence {
        seq: e.seq,
        detail: format!(
            "thread {} shard {} {} {}: concurrent committed {:?}, replay produced {:?}",
            e.thread, e.shard, e.page, e.user, e.outcome, replayed
        ),
    })
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
    fn stripes_divide_exactly() {
        let edges = [
            0,
            1,
            2,
            3,
            7,
            8,
            1 << 31,
            u32::MAX - 2,
            u32::MAX - 1,
            u32::MAX,
        ];
        let divisors = (1..=300).chain([641, 65_535, 65_536, 65_537, 1 << 31, u32::MAX - 1]);
        for n in divisors.chain([u32::MAX]).map(|n| n as usize) {
            let stripes = Stripes::new(n);
            let pages = (0..2_000u32)
                .chain(edges)
                .chain((0..64).map(|i| i * 67_108_859));
            for p in pages.map(PageId) {
                assert_eq!(stripes.shard(p), shard_of(p, n), "S={n} {p}");
                assert_eq!(stripes.local(p), local_of(p, n), "S={n} {p}");
            }
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
                let view = SegmentView::new(&universe, s, n);
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

    /// LRU that panics at its first eviction.
    struct Bomb(VecLru);

    impl ReplacementPolicy for Bomb {
        fn name(&self) -> String {
            "bomb".into()
        }
        fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
            self.0.on_hit(ctx, page);
        }
        fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
            self.0.on_insert(ctx, page);
        }
        fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
            panic!("bomb went off");
        }
    }

    #[test]
    #[should_panic(expected = "shared-cache worker panicked")]
    fn a_panicking_worker_does_not_hang_the_replay_beside_it() {
        let universe = small_universe();
        let bombs = || vec![Bomb(VecLru::new()), Bomb(VecLru::new())];
        let engine = ConcurrentEngine::new(4, universe.clone(), FaultPolicy::SkipAndCount, bombs());
        let traces = interleaved_traces(&universe, 300, 2);
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let _ = run_shared_replayed(&engine, &mut sources, &mut [NoopRecorder; 2], bombs());
    }

    #[test]
    fn a_flipped_outcome_inside_a_clean_hold_diverges_at_its_seq() {
        let universe = small_universe();
        let trace = &interleaved_traces(&universe, 3 * DEFAULT_BATCH_SIZE, 1)[0];
        let policies = || (0..3).map(|_| VecLru::new()).collect::<Vec<_>>();
        let degrade = FaultPolicy::SkipAndCount;
        let engine = ConcurrentEngine::new(5, universe.clone(), degrade, policies());
        let shared =
            run_shared(&engine, &mut [TraceSource::new(trace)], &mut [NoopRecorder]).unwrap();
        assert!(shared.counters.is_clean(), "every hold is clean");
        for at in [0, 1, DEFAULT_BATCH_SIZE + 17, 3 * DEFAULT_BATCH_SIZE - 1] {
            let mut entries = shared.schedule.entries().to_vec();
            let e = &mut entries[at];
            e.outcome = match e.outcome {
                CommitOutcome::Hit => CommitOutcome::Insert,
                CommitOutcome::Insert => CommitOutcome::Hit,
                CommitOutcome::Evict { victim } => CommitOutcome::Evict {
                    victim: PageId(victim.0 ^ 1),
                },
                CommitOutcome::Drop { .. } => unreachable!("the run is clean"),
            };
            let flipped = CommitSchedule { entries };
            match replay_schedule(5, universe.clone(), policies(), degrade, &flipped) {
                Err(ReplayError::Divergence { seq, detail }) => {
                    assert_eq!(seq, at as u64, "{detail}");
                    let e = &flipped.entries()[at];
                    let who = format!("thread 0 shard {} {} {}:", e.shard, e.page, e.user);
                    assert!(detail.starts_with(&who), "{detail}");
                }
                other => panic!("flip at {at}: expected a divergence, got {other:?}"),
            }
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
