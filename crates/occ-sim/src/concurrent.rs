//! A page-sharded concurrent engine: one k-sized cache, many writers.
//!
//! `occ-fleet` scales by cloning *independent* caches; this module is the
//! other axis — M worker threads serving interleaved per-user streams
//! against a **single** shared cache of capacity `k`, which is the
//! setting the paper actually reasons about (one cache, n users, convex
//! per-user costs). The page table is striped into S lock-guarded shard
//! segments; global capacity lives in a sharded per-segment counter whose
//! grants are serialized on a slow-path mutex; evictions are routed
//! through the per-shard policy instances, so the existing flat-array
//! policies (LRU / FIFO / greedy-dual) are *reused*, not forked.
//!
//! # Correctness: the commit schedule and the replay gate
//!
//! Concurrency bugs are silent, so every run carries its own proof
//! obligation. Each consumed record commits exactly one
//! [`CommitRecord`] — `(seq, thread, shard, page, user, outcome)` —
//! where `seq` is drawn from a global counter **while the op's locks are
//! held**. Because every operation holds all locks covering the state it
//! touches from validation to commit (strict two-phase locking with the
//! sequence draw inside the critical section), the concurrent execution
//! is conflict-serializable in `seq` order. A single-threaded replay of
//! the merged schedule through the stock [`SteppingEngine`] — wrapped in
//! a [`ShardedPolicy`] that mirrors the shard routing — must therefore
//! reproduce every per-request outcome, the per-user miss vectors, the
//! fault counters, and the quarantine set *byte-identically*. The replay
//! gate ([`replay_schedule`] + [`verify_replay`]) checks all of it.
//!
//! # Segment tables
//!
//! Page `p` lives in segment `shard(p) = p mod S` under the dense local
//! id `p / S` ([`local_of`], inverse [`global_of`]). Each segment owns a
//! segment-local [`Universe`] (owners of `p = s, s+S, …`) plus a
//! [`CacheSet`] and a policy instance sized to it, so a segment's hot
//! tables cover 1/S of the page range instead of all of it. Commit
//! records, stats and victims stay in global ids; the translation
//! happens at the segment boundary, and the replay's [`ShardedPolicy`]
//! applies the same one.
//!
//! # Locking protocol
//!
//! Only *capacity-changing* operations (inserts, purges) and evictions
//! that must reach into another segment take the capacity mutex; a
//! steady-state eviction is capacity-neutral and stays inside one
//! segment lock.
//!
//! * **Hit**: lock `shard(page)` only; draw `seq`; `on_hit`.
//! * **Steady-state eviction**: a miss that, under `shard(page)`'s lock
//!   alone, reads the `full` latch set (`Acquire`) and finds its own
//!   segment's cache non-empty draws `seq` and evicts inside that
//!   segment. The replay agrees at that `seq`: its victim scan starts
//!   at `shard(page)`, which is non-empty there (all ops on a segment
//!   are ordered by its lock, and `seq` is drawn under it), and its
//!   cache is full there (below).
//! * **Slow path** (insert, or a miss whose own segment is empty or
//!   that missed the latch): release the segment lock, take the capacity
//!   mutex, relock the segment, re-validate (the page may have been
//!   inserted by a racing thread — now a hit; the user may have been
//!   quarantined — now a drop). Inserts are totally ordered by the
//!   mutex, so the replay's insert-vs-evict branch (which reads the
//!   *global* `is_full()`) sees the same occupancy.
//! * **Cross-segment eviction**: the mutex holder scans the per-segment
//!   used counters from `shard(page)` upward (mod S) for the first
//!   non-empty segment and asks *that* segment's policy for the victim.
//!   Only the mutex holder ever holds two segment locks, so lock order
//!   cannot deadlock: a thread holding a segment lock never waits on the
//!   mutex (misses release before acquiring it).
//! * **The `full` latch** is only written under the capacity mutex. The
//!   insert that takes `free` to 0 sets it (`Release`) *after* drawing
//!   its `seq`, so any fast path that reads it set draws a later `seq`
//!   (its draw happens after the setter's). A quarantine purge that
//!   frees pages clears it while holding every segment lock, so a fast
//!   path is wholly before the purge (smaller `seq`) or sees the clear
//!   (or a later re-set, again after its filling insert). Hence at
//!   every fast path's `seq` the replayed cache holds exactly k pages.
//!   The fast path changes no `cap.used` count, so it commutes with
//!   every op on other segments.
//! * **Quarantine event** (malformed record under
//!   [`FaultPolicy::QuarantineUser`]): mutex + *all* shard locks in
//!   ascending order; set the flag, purge the culprit's pages from
//!   every segment, draw `seq` under the full lock set. Quarantine
//!   flags are only read under at least one shard lock, so a reader is
//!   always strictly before or strictly after the whole event.
//! * **Stateless drops** (malformed records under skip-and-count): no
//!   shared state is touched, the record commutes with everything; a
//!   bare atomic `seq` draw suffices.
//!
//! Each segment mutex, the capacity mutex and `seq` sit on cache lines
//! of their own.
//!
//! # The policy purity contract
//!
//! Shard-local policy instances see segment-local `EngineCtx` views
//! (the segment universe, the segment's cache in local ids, an all-zero
//! stats table). The replay's inner instances see the same kind of view,
//! but its cache is updated in callback order and its stats and clock
//! come from the global replay engine. The two agree only for policies
//! whose decisions are pure functions of their callback
//! sequence — which holds for the intrusive-list policies this engine
//! supports (LRU, FIFO, greedy-dual): they read `ctx.universe` (owner
//! table, page count) and nothing else. Policies that scan `ctx.cache`
//! (e.g. the self-cleaning `FifoReference`) or read `ctx.stats` /
//! `ctx.time` (the convex-cost family) are **not** shard-safe and must
//! not be handed to [`ConcurrentEngine`].

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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// The merged, seq-sorted commit schedule of one concurrent run.
///
/// Construction validates the defining invariant: sequence numbers are
/// exactly `0..len` with no gap or duplicate — every consumed record
/// drew one commit position, so the schedule *is* the replay timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitSchedule {
    entries: Vec<CommitRecord>,
}

impl CommitSchedule {
    /// Merge per-thread commit logs (each in any order) into one
    /// seq-ordered schedule.
    ///
    /// A worker's log is already seq-ascending, so the merge is linear:
    /// the longest log's buffer grows once to the total (schedules run to
    /// tens of MiB, so no log is copied into a fresh vector) and is filled
    /// from the back, position `w` taking the log tail whose seq is `w`.
    /// No such tail means a gap or a duplicate.
    pub fn from_threads(
        mut per_thread: Vec<Vec<CommitRecord>>,
    ) -> Result<CommitSchedule, ReplayError> {
        for log in &mut per_thread {
            if !log.is_sorted_by_key(|e| e.seq) {
                log.sort_unstable_by_key(|e| e.seq);
            }
        }
        let longest = (0..per_thread.len()).max_by_key(|&t| per_thread[t].len());
        let mut entries = longest
            .map(|t| per_thread.swap_remove(t))
            .unwrap_or_default();
        let mut own = entries.len();
        let total = own + per_thread.iter().map(Vec::len).sum::<usize>();
        let Some(&filler) = entries.first() else {
            return Ok(CommitSchedule { entries });
        };
        entries.resize(total, filler);
        for w in (0..total).rev() {
            let seq = w as u64;
            if own > 0 && entries[own - 1].seq == seq {
                own -= 1;
                entries.swap(w, own);
            } else if let Some(log) = per_thread
                .iter_mut()
                .find(|log| log.last().is_some_and(|e| e.seq == seq))
            {
                entries[w] = log.pop().expect("a log with a tail");
            } else {
                return Err(ReplayError::Schedule(format!(
                    "schedule is not contiguous: no commit holds seq {seq} of {total}"
                )));
            }
        }
        Ok(CommitSchedule { entries })
    }

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

/// Mirror of the concurrent engine's shard routing for the
/// single-threaded replay: S inner policy instances, each behind the
/// same segment-local view (universe, local-id cache) its concurrent
/// twin has, driven through the stock [`SteppingEngine`].
///
/// Callbacks translate global ids to segment-local ones exactly as the
/// concurrent engine does, and `choose_victim` re-runs its victim-shard
/// scan — first non-empty segment from `shard(incoming)` upward — so
/// every inner policy sees exactly the callback sequence its concurrent
/// twin saw. The views are built from the first callback's universe and
/// capacity.
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

/// One shard segment: its segment-local view and its policy instance.
struct Segment<P> {
    view: SegmentView,
    policy: P,
}

/// The sharded capacity counter: per-segment used counts plus the global
/// free count. Capacity-changing ops (inserts, purges) and cross-segment
/// evictions are serialized under the owning mutex.
struct CapacityState {
    free: usize,
    used: Vec<usize>,
}

/// Aligns `T` to a 128-byte block of its own (two 64-byte lines, which
/// also covers adjacent-line prefetch), so a hot lock or counter never
/// shares a cache line with another.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Where a run's commits went on the locking ladder. Counted per thread
/// and summed after the workers join.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionCounters {
    /// Commits that took the capacity mutex: inserts, evictions that
    /// missed the one-lock path (victim in another segment, or the
    /// `full` latch not yet seen), quarantine events, and revalidated
    /// misses.
    pub slow_path: u64,
    /// Misses that became a hit or a quarantine drop after relocking
    /// under the capacity mutex (a racing thread got there first).
    pub revalidated: u64,
    /// Evictions whose victim lived in another segment.
    pub cross_segment_evictions: u64,
}

impl ContentionCounters {
    /// Add `other`'s counts into `self`.
    pub fn merge(&mut self, other: &ContentionCounters) {
        self.slow_path += other.slow_path;
        self.revalidated += other.revalidated;
        self.cross_segment_evictions += other.cross_segment_evictions;
    }
}

/// Per-thread accumulation: counters and the thread's slice of the
/// commit schedule. Merged after the workers join.
#[derive(Clone, Debug, Default)]
pub struct ThreadLane {
    /// Per-user hit/miss/eviction counters observed by this thread.
    pub stats: SimStats,
    /// Faults absorbed by this thread.
    pub counters: FaultCounters,
    /// Lock-path counters of this thread's commits.
    pub contention: ContentionCounters,
    /// Commit records in this thread's local order (seq ascending).
    pub schedule: Vec<CommitRecord>,
}

impl ThreadLane {
    fn new(num_users: u32) -> Self {
        ThreadLane {
            stats: SimStats::new(num_users),
            ..ThreadLane::default()
        }
    }
}

/// The merged result of a concurrent run.
#[derive(Clone, Debug)]
pub struct SharedOutcome {
    /// Per-user counters summed across threads.
    pub stats: SimStats,
    /// Fault counters merged across threads.
    pub counters: FaultCounters,
    /// Lock-path counters summed across threads.
    pub contention: ContentionCounters,
    /// Quarantined users, ascending.
    pub quarantined: Vec<UserId>,
    /// The merged, validated commit schedule.
    pub schedule: CommitSchedule,
    /// Per-thread `(stats, counters)` before merging, for exactness
    /// assertions (the merged counters must *sum* to these).
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

/// M writers, one cache: the concurrent shared-cache engine.
pub struct ConcurrentEngine<P> {
    universe: Universe,
    capacity: usize,
    degrade: FaultPolicy,
    shards: Vec<CachePadded<Mutex<Segment<P>>>>,
    cap: CachePadded<Mutex<CapacityState>>,
    seq: CachePadded<AtomicU64>,
    /// Latched while the cache is full (`cap.free == 0`). Only written
    /// under the capacity mutex; see "Locking protocol" in the module
    /// docs for why reading it under one segment lock is enough.
    full: AtomicBool,
    quarantined: Vec<AtomicBool>,
    stop: AtomicBool,
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
        assert!(!policies.is_empty(), "need at least one shard");
        let table_shards = policies.len();
        let shards = policies
            .into_iter()
            .enumerate()
            .map(|(s, policy)| {
                CachePadded(Mutex::new(Segment {
                    view: SegmentView::new(&universe, capacity, s, table_shards),
                    policy,
                }))
            })
            .collect();
        let quarantined = (0..universe.num_users())
            .map(|_| AtomicBool::new(false))
            .collect();
        ConcurrentEngine {
            universe,
            capacity,
            degrade,
            shards,
            cap: CachePadded(Mutex::new(CapacityState {
                free: capacity,
                used: vec![0; table_shards],
            })),
            seq: CachePadded(AtomicU64::new(0)),
            full: AtomicBool::new(false),
            quarantined,
            stop: AtomicBool::new(false),
        }
    }

    /// The page/user universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Cache capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shard segments S.
    pub fn table_shards(&self) -> usize {
        self.shards.len()
    }

    /// The degradation policy in force.
    pub fn degrade(&self) -> FaultPolicy {
        self.degrade
    }

    /// Records committed so far.
    pub fn committed(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Whether a fail-fast fault has stopped the run.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Quarantined users, ascending.
    pub fn quarantined_users(&self) -> Vec<UserId> {
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, q)| q.load(Ordering::Relaxed))
            .map(|(i, _)| UserId(i as u32))
            .collect()
    }

    /// Draw the next commit position. Callers hold every lock covering
    /// the state their op touches.
    fn draw_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_segment(&self, s: usize) -> MutexGuard<'_, Segment<P>> {
        self.shards[s]
            .lock()
            .expect("a worker panicked while holding a segment lock")
    }

    fn lock_capacity(&self) -> MutexGuard<'_, CapacityState> {
        self.cap
            .lock()
            .expect("a worker panicked while holding the capacity mutex")
    }

    /// Serve one untrusted record on behalf of `thread`, appending its
    /// commit record to `lane`. Classifies with the sequential engine's
    /// rules ([`Universe::malformed`], then the quarantine flag under the
    /// segment lock) and mirrors [`SteppingEngine::step_checked`]'s
    /// effects exactly; the only error is a fail-fast fault, which also
    /// raises the engine-wide stop flag.
    pub fn serve_record(
        &self,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
    ) -> Result<CommitOutcome, SimError> {
        if let Some(kind) = self.universe.malformed(req) {
            return self.absorb_malformed(thread, req, kind, lane);
        }
        let n = self.shards.len();
        let s = shard_of(req.page, n);
        let local = local_of(req.page, n);
        // Fast path: one segment lock. The quarantine flag read is
        // ordered against quarantine events because those hold every
        // segment lock.
        {
            let mut guard = self.lock_segment(s);
            let seg = &mut *guard;
            if self.quarantined[req.user.index()].load(Ordering::Relaxed) {
                return Ok(self.commit_quarantined_drop(s, thread, req, lane));
            }
            if seg.view.cache.contains(local) {
                return Ok(self.commit_hit(seg, s, local, thread, req, lane));
            }
            // Steady-state eviction: the cache is full and this segment
            // holds a page, so the replay's victim scan (which starts at
            // this segment) picks a victim here too, and occupancy does
            // not change — no capacity mutex needed.
            if self.full.load(Ordering::Acquire) && !seg.view.cache.is_empty() {
                let seq = self.draw_seq();
                let evicted = Self::evict_and_insert(seg, s, None, local, req.page, seq, n);
                return Ok(self.commit_evict(seq, thread, s, req, evicted, lane));
            }
        }
        // Slow path: an insert, or an eviction whose victim may live in
        // another segment. Release the segment lock first (holding it
        // while waiting on the mutex would deadlock against a mutex
        // holder evicting from this segment), then re-validate
        // everything after relocking.
        lane.contention.slow_path += 1;
        let mut cap = self.lock_capacity();
        let mut guard = self.lock_segment(s);
        let seg = &mut *guard;
        if self.quarantined[req.user.index()].load(Ordering::Relaxed) {
            lane.contention.revalidated += 1;
            return Ok(self.commit_quarantined_drop(s, thread, req, lane));
        }
        if seg.view.cache.contains(local) {
            lane.contention.revalidated += 1;
            return Ok(self.commit_hit(seg, s, local, thread, req, lane));
        }
        if cap.free > 0 {
            cap.free -= 1;
            cap.used[s] += 1;
            let seq = self.draw_seq();
            if cap.free == 0 {
                // Set after the draw: a fast path that sees the latch
                // draws a later seq, so the replay is full there too.
                self.full.store(true, Ordering::Release);
            }
            seg.view.cache.insert(local);
            seg.policy.on_insert(&seg.view.ctx(seq), local);
            lane.stats.record_miss(req.user);
            let outcome = CommitOutcome::Insert;
            lane.schedule
                .push(self.record(seq, thread, s, req, outcome));
            return Ok(outcome);
        }
        // Eviction: scan the sharded counter from this segment upward
        // for the first non-empty one; its policy names the victim.
        let v = (0..n)
            .map(|i| (s + i) % n)
            .find(|&i| cap.used[i] > 0)
            .expect("cache is full but no shard holds a page");
        // seq must be drawn only once every covering lock is held; for a
        // cross-shard eviction that includes the victim shard's lock, or a
        // concurrent hit there could commit with a later seq yet mutate the
        // shard's policy state first, making the schedule non-serializable
        // in seq order.
        let (seq, evicted) = if v == s {
            let seq = self.draw_seq();
            (
                seq,
                Self::evict_and_insert(seg, s, None, local, req.page, seq, n),
            )
        } else {
            // Only the capacity-mutex holder ever takes a second shard
            // lock, so this nested acquisition cannot deadlock.
            let mut victim_guard = self.lock_segment(v);
            let seq = self.draw_seq();
            lane.contention.cross_segment_evictions += 1;
            (
                seq,
                Self::evict_and_insert(&mut victim_guard, v, Some(seg), local, req.page, seq, n),
            )
        };
        cap.used[v] -= 1;
        cap.used[s] += 1;
        Ok(self.commit_evict(seq, thread, s, req, evicted, lane))
    }

    /// Evict from `victim_seg` (segment `v`) and insert the incoming
    /// page, local id `local`, into `home` (`None` when the victim lives
    /// in the incoming page's own segment). Mirrors the sequential serve
    /// order: `choose_victim`, physical remove + insert, then
    /// `on_evicted`, then `on_insert`. Returns the victim's global id and
    /// owner.
    fn evict_and_insert(
        victim_seg: &mut Segment<P>,
        v: usize,
        home: Option<&mut Segment<P>>,
        local: PageId,
        incoming: PageId,
        seq: u64,
        table_shards: usize,
    ) -> (PageId, UserId) {
        let chosen = victim_seg
            .policy
            .choose_victim(&victim_seg.view.ctx(seq), local);
        assert!(
            victim_seg.view.cache.contains(chosen),
            "policy chose a victim that is not cached in its shard"
        );
        let victim = global_of(chosen, v, table_shards);
        // Compared in global ids: across segments, `local` names nothing
        // in the victim's segment.
        assert!(victim != incoming, "policy evicted the incoming page");
        let owner = victim_seg.view.universe.owner(chosen);
        victim_seg.view.cache.remove(chosen);
        match home {
            None => {
                victim_seg.view.cache.insert(local);
                let ctx = victim_seg.view.ctx(seq);
                victim_seg.policy.on_evicted(&ctx, chosen);
                victim_seg.policy.on_insert(&ctx, local);
            }
            Some(home) => {
                home.view.cache.insert(local);
                victim_seg
                    .policy
                    .on_evicted(&victim_seg.view.ctx(seq), chosen);
                home.policy.on_insert(&home.view.ctx(seq), local);
            }
        }
        (victim, owner)
    }

    /// Record an eviction; `(victim, owner)` as returned by
    /// [`evict_and_insert`](Self::evict_and_insert).
    fn commit_evict(
        &self,
        seq: u64,
        thread: u32,
        s: usize,
        req: Request,
        (victim, owner): (PageId, UserId),
        lane: &mut ThreadLane,
    ) -> CommitOutcome {
        lane.stats.record_eviction(owner);
        lane.stats.record_miss(req.user);
        let outcome = CommitOutcome::Evict { victim };
        lane.schedule
            .push(self.record(seq, thread, s, req, outcome));
        outcome
    }

    fn commit_hit(
        &self,
        seg: &mut Segment<P>,
        s: usize,
        local: PageId,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
    ) -> CommitOutcome {
        let seq = self.draw_seq();
        lane.stats.record_hit(req.user);
        seg.policy.on_hit(&seg.view.ctx(seq), local);
        let outcome = CommitOutcome::Hit;
        lane.schedule
            .push(self.record(seq, thread, s, req, outcome));
        outcome
    }

    /// Drop a well-formed record from a quarantined user. Caller must
    /// hold the page's shard lock (which orders the flag read against
    /// quarantine events).
    fn commit_quarantined_drop(
        &self,
        s: usize,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
    ) -> CommitOutcome {
        let seq = self.draw_seq();
        lane.counters.count(FaultKind::QuarantinedUser);
        let outcome = CommitOutcome::Drop {
            kind: FaultKind::QuarantinedUser,
        };
        lane.schedule
            .push(self.record(seq, thread, s, req, outcome));
        outcome
    }

    /// Absorb a malformed record (page out of range / owner mismatch)
    /// under the engine's degradation policy, mirroring
    /// `step_checked`'s policy table and quarantining
    /// [`Universe::culprit`].
    fn absorb_malformed(
        &self,
        thread: u32,
        req: Request,
        kind: FaultKind,
        lane: &mut ThreadLane,
    ) -> Result<CommitOutcome, SimError> {
        let s = shard_of(req.page, self.shards.len());
        match self.degrade {
            FaultPolicy::FailFast => {
                self.stop.store(true, Ordering::Relaxed);
                let fault = RequestFault {
                    // No commit position is drawn for a fail-fast abort;
                    // the committed count is the best timestamp there is.
                    time: self.committed(),
                    kind,
                    page: req.page,
                    user: req.user,
                };
                Err(fault.into())
            }
            FaultPolicy::SkipAndCount => {
                // Stateless: only this thread's counters move, so the
                // record commutes with every other op and a bare
                // sequence draw is a valid commit position.
                lane.counters.count(kind);
                let seq = self.draw_seq();
                let outcome = CommitOutcome::Drop { kind };
                lane.schedule
                    .push(self.record(seq, thread, s, req, outcome));
                Ok(outcome)
            }
            FaultPolicy::QuarantineUser => {
                lane.counters.count(kind);
                let Some(culprit) = self.universe.culprit(req) else {
                    // Out-of-range page from a nonexistent user: nobody
                    // to quarantine, stateless like skip-and-count.
                    let seq = self.draw_seq();
                    let outcome = CommitOutcome::Drop { kind };
                    lane.schedule
                        .push(self.record(seq, thread, s, req, outcome));
                    return Ok(outcome);
                };
                // Quarantine event: the one op that touches every
                // segment. Mutex first, then all shard locks ascending;
                // flag writes are ordered against every reader because
                // readers hold at least one shard lock.
                lane.contention.slow_path += 1;
                let mut cap = self.lock_capacity();
                let mut guards: Vec<MutexGuard<'_, Segment<P>>> = (0..self.shards.len())
                    .map(|i| self.lock_segment(i))
                    .collect();
                let seq = self.draw_seq();
                if !self.quarantined[culprit.index()].load(Ordering::Relaxed) {
                    self.quarantined[culprit.index()].store(true, Ordering::Relaxed);
                    lane.counters.quarantined_users += 1;
                    for (i, guard) in guards.iter_mut().enumerate() {
                        let removed = Self::purge_user(guard, culprit, seq);
                        cap.used[i] -= removed;
                        cap.free += removed;
                    }
                    if cap.free > 0 {
                        // Under every segment lock: no fast path can be
                        // between its latch read and its seq draw.
                        self.full.store(false, Ordering::Release);
                    }
                }
                let outcome = CommitOutcome::Drop { kind };
                lane.schedule
                    .push(self.record(seq, thread, s, req, outcome));
                Ok(outcome)
            }
        }
    }

    /// Remove every cached page owned by `user` from one segment
    /// (uncharged, like [`SteppingEngine::remove_user_externally`]).
    fn purge_user(seg: &mut Segment<P>, user: UserId, seq: u64) -> usize {
        let doomed: Vec<PageId> = seg
            .view
            .cache
            .iter()
            .filter(|&l| seg.view.universe.owner(l) == user)
            .collect();
        for &l in &doomed {
            seg.view.cache.remove(l);
            seg.policy.on_external_removal(&seg.view.ctx(seq), l);
        }
        doomed.len()
    }

    fn record(
        &self,
        seq: u64,
        thread: u32,
        shard: usize,
        req: Request,
        outcome: CommitOutcome,
    ) -> CommitRecord {
        CommitRecord {
            seq,
            thread,
            shard: shard as u32,
            page: req.page,
            user: req.user,
            outcome,
        }
    }

    /// Drive one worker to stream exhaustion (or engine stop), feeding
    /// outcomes to `recorder` with the same hook semantics the
    /// sequential engines use. Borrowed page runs are served when the
    /// source offers them, timed on one chained [`LapClock`] per run;
    /// other sources are pulled one request at a time, each on a fresh
    /// clock, so a chaos source's tallies and a fail-fast stop point stay
    /// exact.
    fn drive_worker<S: RequestSource, R: Recorder>(
        &self,
        thread: u32,
        source: &mut S,
        recorder: &mut R,
    ) -> Result<ThreadLane, SimError> {
        let mut lane = ThreadLane::new(self.universe.num_users());
        // Sources in shared mode must be non-adaptive (an adaptive
        // source cannot observe a sharded cache coherently), so the ctx
        // handed to them views an empty one-slot probe cache.
        let probe_cache = CacheSet::new(1, self.universe.num_pages());
        let probe_stats = SimStats::new(self.universe.num_users());
        let probe = |time| EngineCtx {
            time,
            cache: &probe_cache,
            stats: &probe_stats,
            universe: &self.universe,
        };
        let mut local_t: Time = 0;
        while !self.stopped() {
            if let Some(run) = source
                .next_page_run(DEFAULT_BATCH_SIZE)
                .filter(|r| !r.is_empty())
            {
                // Zero-copy sources validate each run, so every id is in
                // range and its owner is the record's user.
                let mut lap = LapClock::default();
                for &page in run {
                    if self.stopped() {
                        break;
                    }
                    let req = Request {
                        page,
                        user: self.universe.owner(page),
                    };
                    self.serve_observed(thread, req, &mut lane, recorder, &mut lap, &probe)?;
                }
                local_t += run.len() as Time;
                continue;
            }
            let Some(req) = source.next_request(&probe(local_t)) else {
                break;
            };
            local_t += 1;
            let lap = &mut LapClock::default();
            self.serve_observed(thread, req, &mut lane, recorder, lap, &probe)?;
        }
        Ok(lane)
    }

    /// [`serve_record`](Self::serve_record) plus the recorder hooks.
    fn serve_observed<'a, R: Recorder>(
        &self,
        thread: u32,
        req: Request,
        lane: &mut ThreadLane,
        recorder: &mut R,
        lap: &mut LapClock,
        probe: &impl Fn(Time) -> EngineCtx<'a>,
    ) -> Result<(), SimError> {
        lap.start::<R>();
        let outcome = self.serve_record(thread, req, lane)?;
        let seq = lane.schedule.last().map(|r| r.seq).unwrap_or(0);
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
                    self.universe.owner(victim),
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

/// Run `sources[t]` on thread `t` against `engine`, merge everything,
/// and validate the commit schedule. `sources` and `recorders` are
/// borrowed so callers keep them afterwards (chaos sources report their
/// injected-fault tallies; recorders get merged by the caller).
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
    let mut per_thread = Vec::with_capacity(lanes.len());
    let mut schedules = Vec::with_capacity(lanes.len());
    let mut stats = SimStats::new(engine.universe().num_users());
    let mut counters = FaultCounters::default();
    let mut contention = ContentionCounters::default();
    for lane in lanes {
        let lane = lane?;
        merge_stats(&mut stats, &lane.stats);
        counters.merge(&lane.counters);
        contention.merge(&lane.contention);
        per_thread.push((lane.stats, lane.counters));
        schedules.push(lane.schedule);
    }
    // Contiguity is guaranteed by construction: every consumed record
    // draws exactly one sequence number and commits it before its locks
    // drop, so a gap here is an engine bug, not an input condition.
    let schedule =
        CommitSchedule::from_threads(schedules).expect("commit schedule must be contiguous");
    Ok(SharedOutcome {
        stats,
        counters,
        contention,
        quarantined: engine.quarantined_users(),
        schedule,
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
    let num_users = universe.num_users();
    let mut engine = SteppingEngine::new(capacity, universe, ShardedPolicy::new(policies));
    let mut handler = FaultHandler::new(degrade, num_users);
    for entry in schedule.entries() {
        let req = Request {
            page: entry.page,
            user: entry.user,
        };
        // Classify before stepping: step_checked reports drops as a bare
        // `Ok(None)`.
        let predicted = handler.classify(engine.ctx().universe, req);
        let stepped = engine
            .step_checked(req, &mut handler)
            .map_err(ReplayError::Fault)?;
        let replayed = match stepped {
            Some(StepOutcome::Hit) => CommitOutcome::Hit,
            Some(StepOutcome::Inserted) => CommitOutcome::Insert,
            Some(StepOutcome::Evicted(victim)) => CommitOutcome::Evict { victim },
            None => CommitOutcome::Drop {
                kind: predicted.expect("step_checked dropped a record it classified as clean"),
            },
        };
        if replayed != entry.outcome {
            return Err(ReplayError::Divergence {
                seq: entry.seq,
                detail: format!(
                    "thread {} shard {} {} {}: concurrent committed {:?}, replay produced {:?}",
                    entry.thread, entry.shard, entry.page, entry.user, entry.outcome, replayed
                ),
            });
        }
    }
    Ok(ReplayOutcome {
        stats: engine.stats().clone(),
        counters: handler.counters().clone(),
        quarantined: handler.quarantined_users(),
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

    #[test]
    fn steady_state_evictions_skip_the_capacity_mutex() {
        let universe = small_universe();
        let k = 5;
        let engine = ConcurrentEngine::new(
            k,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            vec![VecLru::new()],
        );
        // Cycle over all 24 pages: k inserts fill the cache, then every
        // request misses and evicts without a purge.
        let reqs = (0..240).map(|i| universe.request(PageId(i % 24))).collect();
        let trace = Trace::new(universe.clone(), reqs);
        let shared = run_shared(
            &engine,
            &mut [TraceSource::new(&trace)],
            &mut [NoopRecorder],
        )
        .unwrap();
        assert_eq!(shared.stats.total_evictions(), 240 - k as u64);
        assert_eq!(
            shared.contention,
            ContentionCounters {
                slow_path: k as u64,
                revalidated: 0,
                cross_segment_evictions: 0,
            }
        );
        let replay = replay_schedule(
            k,
            universe,
            vec![VecLru::new()],
            FaultPolicy::SkipAndCount,
            &shared.schedule,
        )
        .unwrap();
        verify_replay(&shared, &replay).unwrap();
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
        let mk = |seq| CommitRecord {
            seq,
            thread: 0,
            shard: 0,
            page: PageId(0),
            user: UserId(0),
            outcome: CommitOutcome::Hit,
        };
        assert!(CommitSchedule::from_threads(vec![vec![mk(0), mk(2)]]).is_err());
        assert!(CommitSchedule::from_threads(vec![vec![mk(0)], vec![mk(0)]]).is_err());
        assert!(CommitSchedule::from_threads(vec![vec![mk(1), mk(0)]]).is_ok());
    }

    #[test]
    fn linear_merge_equals_a_sort() {
        let mk = |seq, thread| CommitRecord {
            seq,
            thread,
            shard: 0,
            page: PageId(seq as u32 * 3),
            user: UserId(thread),
            outcome: CommitOutcome::Hit,
        };
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..200 {
            let threads = 1 + next(4) as usize;
            let len = next(300);
            let mut logs = vec![Vec::new(); threads];
            for seq in 0..len {
                let t = next(threads as u64) as usize;
                logs[t].push(mk(seq, t as u32));
            }
            // Every fifth case hands one log over out of order.
            if case % 5 == 0 && logs[0].len() > 1 {
                logs[0].reverse();
            }
            let mut sorted: Vec<CommitRecord> = logs.concat();
            sorted.sort_unstable_by_key(|e| e.seq);
            let sched = CommitSchedule::from_threads(logs.clone()).unwrap();
            assert_eq!(sched.entries(), &sorted[..], "case {case}");

            if len < 2 {
                continue;
            }
            // A gap (one commit dropped) and a duplicate (one commit
            // repeated, in its own or another thread's log).
            let (t, i) = loop {
                let t = next(threads as u64) as usize;
                if !logs[t].is_empty() {
                    break (t, next(logs[t].len() as u64) as usize);
                }
            };
            let twin = logs[t][i];
            let mut gap = logs.clone();
            gap[t].remove(i);
            // Dropping the last commit leaves `0..len - 1`: no gap.
            let merged = CommitSchedule::from_threads(gap);
            assert_eq!(merged.is_ok(), twin.seq == len - 1, "case {case}: gap");
            let mut dup = logs.clone();
            let u = next(threads as u64) as usize;
            dup[u].push(twin);
            assert!(
                CommitSchedule::from_threads(dup).is_err(),
                "case {case}: duplicate"
            );
        }
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
    fn fail_fast_stops_and_reports() {
        let universe = small_universe();
        let engine = ConcurrentEngine::new(
            4,
            universe.clone(),
            FaultPolicy::FailFast,
            vec![VecLru::new()],
        );
        let reqs = vec![
            universe.request(PageId(0)),
            Request {
                page: PageId(999),
                user: UserId(0),
            },
            universe.request(PageId(1)),
        ];
        let mut sources = vec![RawSource {
            universe: universe.clone(),
            reqs,
            pos: 0,
        }];
        let mut recorders = vec![NoopRecorder];
        let err = run_shared(&engine, &mut sources, &mut recorders).unwrap_err();
        assert!(err.to_string().contains("page"), "unexpected error: {err}");
        assert!(engine.stopped());
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
