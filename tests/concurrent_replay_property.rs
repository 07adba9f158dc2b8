//! Property tests for the concurrent shared-cache engine's determinism
//! contract: for ANY thread count, shard count, shareable policy,
//! degradation policy, and seeded per-thread request schedule — corrupted
//! at a seeded rate by a `ChaosSource` — the single-threaded replay of
//! the recorded commit schedule must reproduce the concurrent run
//! exactly: per-user hit/miss/eviction vectors, every drop's fault kind,
//! fault counters, and the quarantine set. Plus the deterministic edge-case sweep: k=1, S=1,
//! more threads than shards, one user owning every page, and empty
//! request streams; and ALG-DISCRETE at S = 1, where its one instance
//! is the paper's global algorithm. And hold-at-a-time ≡ record-at-a-
//! time: the same streams fed as zero-copy page runs, as borrowed
//! request runs, as both by turns or pulled one at a time, clean or
//! corrupted, must each
//! equal their replay with lanes that sum to the engine's counters, and
//! at one thread commit exactly what a plain engine's per-request steps
//! produce.

use occ_baselines::{Fifo, GreedyDual, Lru};
use occ_core::ConvexCaching;
use occ_sim::concurrent::{
    merge_stats, replay_schedule, run_shared, verify_replay, CommitOutcome, ConcurrentEngine,
    ShardedPolicy,
};
use occ_sim::probe::{NoopRecorder, Recorder};
use occ_sim::{
    EngineCtx, FaultCounters, FaultHandler, FaultPolicy, PageId, ReplacementPolicy, Request,
    RequestSource, SharedOutcome, SimStats, StepOutcome, SteppingEngine, Trace, TraceSource,
    Universe, UserId, DEFAULT_BATCH_SIZE,
};
use occ_workloads::presets::all_scenarios;
use occ_workloads::{ChaosSource, FaultPlan};
use proptest::prelude::*;

type SharedPolicy = Box<dyn ReplacementPolicy + Send>;

/// The shard-safe policy suite (callback-pure: reads only
/// `ctx.universe`). Index-addressed so proptest can pick one.
fn shared_policies(idx: usize, table_shards: usize, num_users: u32) -> Vec<SharedPolicy> {
    (0..table_shards)
        .map(|_| -> SharedPolicy {
            match idx {
                0 => Box::new(Lru::new()),
                1 => Box::new(Fifo::new()),
                _ => Box::new(GreedyDual::unweighted(num_users)),
            }
        })
        .collect()
}

/// Run `traces` concurrently (one worker per trace, each corrupted at
/// `chaos = (seed, rate)`: that rate of out-of-range pages and of wrong
/// owners) against one shared cache, then replay the recorded schedule
/// and demand exact equality.
fn run_and_replay(
    traces: &[Trace],
    k: usize,
    table_shards: usize,
    policy_idx: usize,
    degrade: FaultPolicy,
    (seed, rate): (u64, f64),
) -> (SharedOutcome, occ_sim::concurrent::ReplayOutcome) {
    let universe = traces[0].universe().clone();
    let num_users = universe.num_users();
    let engine = ConcurrentEngine::new(
        k,
        universe.clone(),
        degrade,
        shared_policies(policy_idx, table_shards, num_users),
    );
    let mut sources: Vec<ChaosSource<TraceSource>> = traces
        .iter()
        .enumerate()
        .map(|(t, trace)| {
            let plan = FaultPlan::seeded(seed.wrapping_add(t as u64))
                .with_page_rate(rate)
                .with_owner_rate(rate);
            ChaosSource::new(TraceSource::new(trace), plan)
        })
        .collect();
    let mut recorders = vec![NoopRecorder; sources.len()];
    let outcome = run_shared(&engine, &mut sources, &mut recorders).expect("run cannot fault");
    // Every engine classifies a malformed record before any quarantine
    // check, so the drops of those kinds are exactly the injected ones.
    let injected: u64 = sources.iter().map(|s| s.injected().total()).sum();
    let c = &outcome.counters;
    assert_eq!(c.page_out_of_range + c.owner_mismatch, injected);
    let replayed = replay_schedule(
        k,
        universe,
        shared_policies(policy_idx, table_shards, num_users),
        degrade,
        &outcome.schedule,
    )
    .expect("schedule must replay");
    verify_replay(&outcome, &replayed).expect("replay must be identical");
    (outcome, replayed)
}

/// (threads, table_shards, policy, k, users, pages-per-user) plus one
/// request-index vector per thread over the shared universe.
#[allow(clippy::type_complexity)]
fn arb_shape() -> impl Strategy<Value = ((usize, usize, usize), usize, u32, u32, Vec<Vec<u32>>)> {
    (1usize..=4, 1usize..=8, 0usize..3, 1u32..=3, 1u32..=4).prop_flat_map(
        |(threads, shards, policy, users, pages_per)| {
            let total = users * pages_per;
            (
                Just((threads, shards, policy)),
                1usize..=6,
                Just(users),
                Just(pages_per),
                proptest::collection::vec(proptest::collection::vec(0..total, 0..120), threads),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn concurrent_equals_replay_for_any_shape(
        ((threads, table_shards, policy_idx), k, users, pages_per, schedules) in arb_shape(),
        degrade in prop_oneof![
            Just(FaultPolicy::SkipAndCount),
            Just(FaultPolicy::QuarantineUser),
        ],
        chaos in (0u64..u64::MAX, 0.0f64..0.2),
    ) {
        prop_assert_eq!(schedules.len(), threads);
        let universe = Universe::uniform(users, pages_per);
        let traces: Vec<Trace> = schedules
            .iter()
            .map(|idxs| Trace::from_page_indices(&universe, idxs))
            .collect();
        let (outcome, replayed) =
            run_and_replay(&traces, k, table_shards, policy_idx, degrade, chaos);

        // The explicit satellite contract, beyond verify_replay's own
        // check: per-user miss vectors and fault counters byte-equal.
        prop_assert_eq!(outcome.stats.miss_vector(), replayed.stats.miss_vector());
        prop_assert_eq!(outcome.stats.per_user(), replayed.stats.per_user());
        prop_assert_eq!(&outcome.counters, &replayed.counters);
        prop_assert_eq!(&outcome.quarantined, &replayed.quarantined);

        // Every consumed record drew exactly one commit slot.
        let consumed: usize = traces.iter().map(Trace::len).sum();
        prop_assert_eq!(outcome.schedule.len(), consumed);
    }
}

/// No corruption, for the edge-case sweep.
const CLEAN: (u64, f64) = (0, 0.0);

/// A trace of `n` round-robin pages over `universe`.
fn cyclic_trace(universe: &Universe, n: usize) -> Trace {
    let total = universe.num_pages();
    let idxs: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 1) % total).collect();
    Trace::from_page_indices(universe, &idxs)
}

#[test]
fn edge_case_k1_thrashes_identically() {
    let universe = Universe::uniform(2, 4);
    let traces: Vec<Trace> = (0..4).map(|_| cyclic_trace(&universe, 200)).collect();
    let (outcome, _) = run_and_replay(&traces, 1, 4, 0, FaultPolicy::SkipAndCount, CLEAN);
    assert_eq!(outcome.schedule.len(), 800);
    // k=1: after the first insert every miss is an eviction.
    assert_eq!(
        outcome.stats.total_evictions(),
        outcome.stats.total_misses() - 1
    );
}

#[test]
fn edge_case_single_segment_is_one_big_lock() {
    let universe = Universe::uniform(3, 3);
    let traces: Vec<Trace> = (0..4).map(|_| cyclic_trace(&universe, 150)).collect();
    let (outcome, _) = run_and_replay(&traces, 4, 1, 1, FaultPolicy::SkipAndCount, CLEAN);
    assert_eq!(outcome.schedule.len(), 600);
    for e in outcome.schedule.entries() {
        assert_eq!(e.shard, 0, "S=1 maps every page to segment 0");
    }
}

#[test]
fn edge_case_more_threads_than_segments() {
    let universe = Universe::uniform(2, 5);
    let traces: Vec<Trace> = (0..6).map(|_| cyclic_trace(&universe, 100)).collect();
    let (outcome, _) = run_and_replay(&traces, 3, 2, 2, FaultPolicy::SkipAndCount, CLEAN);
    assert_eq!(outcome.schedule.len(), 600);
    let threads: std::collections::BTreeSet<u32> = outcome
        .schedule
        .entries()
        .iter()
        .map(|e| e.thread)
        .collect();
    assert_eq!(threads.len(), 6, "every worker committed something");
}

#[test]
fn edge_case_one_user_owns_every_page() {
    let universe = Universe::single_user(8);
    let traces: Vec<Trace> = (0..4).map(|_| cyclic_trace(&universe, 120)).collect();
    let (outcome, replayed) = run_and_replay(&traces, 3, 4, 0, FaultPolicy::SkipAndCount, CLEAN);
    assert_eq!(outcome.stats.per_user().len(), 1);
    assert_eq!(
        outcome.stats.per_user()[0].evictions,
        replayed.stats.per_user()[0].evictions
    );
}

#[test]
fn edge_case_empty_streams_commit_nothing() {
    let universe = Universe::uniform(2, 3);
    let traces: Vec<Trace> = (0..4)
        .map(|_| Trace::from_page_indices(&universe, &[]))
        .collect();
    let (outcome, replayed) = run_and_replay(&traces, 2, 4, 0, FaultPolicy::SkipAndCount, CLEAN);
    assert!(outcome.schedule.is_empty());
    assert_eq!(outcome.stats.total_misses(), 0);
    assert_eq!(replayed.stats.total_misses(), 0);
}

/// ALG-DISCRETE reads only `ctx.universe`, so behind a one-segment
/// `ShardedPolicy` it is the global algorithm: one worker commits what
/// the plain engine does, and two workers pass the replay gate.
#[test]
fn convex_at_one_segment_is_the_global_algorithm() {
    let scenario = all_scenarios()
        .into_iter()
        .find(|s| s.name == "sqlvm-like")
        .expect("sqlvm-like scenario");
    let k = scenario.suggested_k;
    let traces: Vec<Trace> = (0..2).map(|t| scenario.trace(20_000, 9 + t)).collect();
    let universe = traces[0].universe().clone();
    let convex =
        || -> Vec<SharedPolicy> { vec![Box::new(ConvexCaching::new(scenario.costs.clone()))] };
    let degrade = FaultPolicy::SkipAndCount;

    let engine = ConcurrentEngine::new(k, universe.clone(), degrade, convex());
    let one = run_shared(
        &engine,
        &mut [TraceSource::new(&traces[0])],
        &mut [NoopRecorder],
    )
    .expect("clean run");
    let mut plain = SteppingEngine::new(
        k,
        universe.clone(),
        ConvexCaching::new(scenario.costs.clone()),
    );
    plain.run_batched(traces[0].requests(), 1_000);
    assert!(plain.stats().total_evictions() > 0, "the trace must evict");
    assert_eq!(one.stats.miss_vector(), plain.stats().miss_vector());
    assert_eq!(&one.stats, plain.stats());

    let engine = ConcurrentEngine::new(k, universe.clone(), degrade, convex());
    let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
    let two =
        run_shared(&engine, &mut sources, &mut [NoopRecorder, NoopRecorder]).expect("clean run");
    assert_eq!(two.schedule.len(), 40_000);
    let replayed = replay_schedule(k, universe, convex(), degrade, &two.schedule)
        .expect("schedule must replay");
    verify_replay(&two, &replayed).expect("replay must be identical");
}

/// How a worker's stream reaches the shared engine.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Zero-copy page runs (`next_page_run`); clean streams only, as the
    /// binary readers validate every run.
    PageRuns,
    /// Borrowed request runs (`next_run`), malformed records included.
    RequestRuns,
    /// One `next_request` at a time.
    Pulled,
    /// Page runs and request runs by turns, each page run stopping short
    /// of the next malformed record (as a validating reader would), so
    /// page runs follow the quarantines that request runs trigger.
    Mixed,
}

/// A materialized stream served in one [`Shape`], in runs of at most
/// `run` records.
struct ShapedSource {
    universe: Universe,
    reqs: Vec<Request>,
    pages: Vec<PageId>,
    pos: usize,
    run: usize,
    shape: Shape,
    /// Whether the next `Mixed` turn is a page run.
    page_turn: bool,
}

impl ShapedSource {
    fn new(universe: &Universe, reqs: Vec<Request>, shape: Shape, run: usize) -> Self {
        ShapedSource {
            universe: universe.clone(),
            pages: reqs.iter().map(|r| r.page).collect(),
            reqs,
            pos: 0,
            run,
            shape,
            page_turn: true,
        }
    }

    fn take(&mut self, max: usize) -> std::ops::Range<usize> {
        let start = self.pos;
        self.pos = (start + max.min(self.run)).min(self.reqs.len());
        start..self.pos
    }
}

impl RequestSource for ShapedSource {
    fn universe(&self) -> &Universe {
        &self.universe
    }
    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        let r = self.reqs.get(self.pos).copied();
        self.pos += usize::from(r.is_some());
        r
    }
    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        match self.shape {
            Shape::PageRuns => {
                let range = self.take(max);
                Some(&self.pages[range])
            }
            Shape::Mixed => {
                self.page_turn = !self.page_turn;
                if self.page_turn {
                    return None;
                }
                let start = self.pos;
                let universe = &self.universe;
                let clean = self.reqs[start..]
                    .iter()
                    .take(max.min(self.run))
                    .take_while(|&&r| universe.malformed(r).is_none())
                    .count();
                self.pos += clean;
                Some(&self.pages[start..self.pos])
            }
            _ => None,
        }
    }
    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        let (Shape::RequestRuns | Shape::Mixed) = self.shape else {
            return None;
        };
        let range = self.take(max);
        Some(&self.reqs[range])
    }
}

/// An untimed recorder counting each hook, so a worker's hooks can be
/// checked against its lane: one per commit, whichever way it was served.
#[derive(Clone, Default)]
struct HookCounts {
    hits: u64,
    inserts: u64,
    evictions: u64,
    faults: u64,
}

impl Recorder for HookCounts {
    fn record_hit(&mut self, _ctx: &EngineCtx, _t: u64, _page: PageId, _user: UserId) {
        self.hits += 1;
    }
    fn record_insert(&mut self, _ctx: &EngineCtx, _t: u64, _page: PageId, _user: UserId) {
        self.inserts += 1;
    }
    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        _t: u64,
        _page: PageId,
        _user: UserId,
        _victim: PageId,
        _victim_user: UserId,
    ) {
        self.evictions += 1;
    }
    fn record_fault(&mut self, _fault: &occ_sim::RequestFault) {
        self.faults += 1;
    }
}

/// Draw `trace` through a [`ChaosSource`] corrupting `rate` of its
/// records (out-of-range pages and wrong owners alike).
fn corrupt(trace: &Trace, seed: u64, rate: f64) -> Vec<Request> {
    let plan = FaultPlan::seeded(seed)
        .with_page_rate(rate)
        .with_owner_rate(rate);
    let mut chaos = ChaosSource::new(TraceSource::new(trace), plan);
    let universe = trace.universe().clone();
    let cache = occ_sim::CacheSet::new(1, universe.num_pages());
    let stats = SimStats::new(universe.num_users());
    let ctx = EngineCtx {
        time: 0,
        cache: &cache,
        stats: &stats,
        universe: &universe,
    };
    std::iter::from_fn(|| chaos.next_request(&ctx)).collect()
}

/// Serve `streams` (one per worker) in `shape` against one shared cache
/// of `table_shards` segments, and check the hold-at-a-time contract:
/// the run equals its replay, the lanes sum to the engine's counters,
/// each worker's recorder saw one hook per commit of its lane, and at
/// one thread every commit is what a plain engine's per-request step
/// produces.
#[allow(clippy::too_many_arguments)]
fn check_shaped(
    universe: &Universe,
    streams: &[Vec<Request>],
    shape: Shape,
    run: usize,
    k: usize,
    table_shards: usize,
    policy_idx: usize,
    degrade: FaultPolicy,
) -> SharedOutcome {
    let users = universe.num_users();
    let policies = || shared_policies(policy_idx, table_shards, users);
    let engine = ConcurrentEngine::new(k, universe.clone(), degrade, policies());
    let mut sources: Vec<ShapedSource> = streams
        .iter()
        .map(|reqs| ShapedSource::new(universe, reqs.clone(), shape, run))
        .collect();
    let mut recorders = vec![HookCounts::default(); sources.len()];
    let outcome = run_shared(&engine, &mut sources, &mut recorders).expect("run cannot fault");
    for (hooks, (stats, counters)) in recorders.iter().zip(&outcome.per_thread) {
        assert_eq!(hooks.hits, stats.total_hits());
        assert_eq!(hooks.inserts + hooks.evictions, stats.total_misses());
        assert_eq!(hooks.faults, counters.total_records());
    }
    assert_eq!(
        outcome.schedule.len(),
        streams.iter().map(Vec::len).sum::<usize>()
    );
    let replayed = replay_schedule(k, universe.clone(), policies(), degrade, &outcome.schedule)
        .expect("schedule must replay");
    verify_replay(&outcome, &replayed).expect("replay must be identical");

    let mut lanes = SimStats::new(users);
    let mut lane_counters = FaultCounters::default();
    for (stats, counters) in &outcome.per_thread {
        merge_stats(&mut lanes, stats);
        lane_counters.merge(counters);
    }
    assert_eq!(lanes, outcome.stats, "lane stats sum to the engine's");
    assert_eq!(
        lane_counters, outcome.counters,
        "lane faults sum to the engine's"
    );

    if let [stream] = streams {
        let mut plain = SteppingEngine::new(k, universe.clone(), ShardedPolicy::new(policies()));
        let mut handler = FaultHandler::new(degrade, users);
        let clean = stream.iter().all(|&r| universe.malformed(r).is_none());
        for (&req, entry) in stream.iter().zip(outcome.schedule.entries()) {
            let stepped = if clean {
                Some(plain.step(req))
            } else {
                plain.step_checked(req, &mut handler).expect("no fail-fast")
            };
            let expected = match stepped {
                Some(StepOutcome::Hit) => CommitOutcome::Hit,
                Some(StepOutcome::Inserted) => CommitOutcome::Insert,
                Some(StepOutcome::Evicted(victim)) => CommitOutcome::Evict { victim },
                None => CommitOutcome::Drop {
                    kind: handler.classify(universe, req).expect("a dropped record"),
                },
            };
            assert_eq!(entry.outcome, expected, "seq {}", entry.seq);
            assert_eq!((entry.page, entry.user), (req.page, req.user));
        }
        assert_eq!(plain.stats(), &outcome.stats);
    }
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hold_at_a_time_equals_record_at_a_time(
        (threads, users, pages_per, schedules) in (1usize..=3, 1u32..=3, 1u32..=6)
            .prop_flat_map(|(threads, users, pages_per)| {
                let total = users * pages_per;
                (
                    Just(threads),
                    Just(users),
                    Just(pages_per),
                    proptest::collection::vec(
                        proptest::collection::vec(0..total, 0..400),
                        threads,
                    ),
                )
            }),
        shards_idx in 0usize..3,
        policy_idx in 0usize..3,
        k in 1usize..=8,
        shape_idx in 0usize..4,
        run in prop_oneof![1usize..=9, 10usize..=300],
        degrade in prop_oneof![
            Just(FaultPolicy::SkipAndCount),
            Just(FaultPolicy::QuarantineUser),
        ],
        chaos in (0u64..u64::MAX, prop_oneof![Just(0.0f64), 0.0f64..0.2]),
    ) {
        let table_shards = [1, 3, 8][shards_idx];
        let shape = [Shape::PageRuns, Shape::RequestRuns, Shape::Pulled, Shape::Mixed][shape_idx];
        let universe = Universe::uniform(users, pages_per);
        // Page runs are validated by their readers, so they stay clean.
        let rate = if let Shape::PageRuns = shape { 0.0 } else { chaos.1 };
        let streams: Vec<Vec<Request>> = schedules
            .iter()
            .enumerate()
            .map(|(t, idxs)| {
                let trace = Trace::from_page_indices(&universe, idxs);
                corrupt(&trace, chaos.0.wrapping_add(t as u64), rate)
            })
            .collect();
        let outcome = check_shaped(
            &universe, &streams, shape, run, k, table_shards, policy_idx, degrade,
        );
        prop_assert_eq!(outcome.per_thread.len(), threads);
    }
}

/// Streams longer than a hold, in every shape, clean and corrupted, at
/// S ∈ {1, 3, 8} and one to three workers: holds end at
/// `DEFAULT_BATCH_SIZE` and quarantines land mid-stream.
#[test]
fn long_streams_in_every_shape_hold_at_a_time() {
    let scenario = all_scenarios()
        .into_iter()
        .find(|s| s.name == "sqlvm-like")
        .expect("sqlvm-like scenario");
    let len = 2 * DEFAULT_BATCH_SIZE + 123;
    for threads in 1..=3u64 {
        let traces: Vec<Trace> = (0..threads).map(|t| scenario.trace(len, 40 + t)).collect();
        let universe = traces[0].universe().clone();
        for (rate, degrade) in [
            (0.0, FaultPolicy::SkipAndCount),
            (0.01, FaultPolicy::SkipAndCount),
            (0.002, FaultPolicy::QuarantineUser),
        ] {
            let streams: Vec<Vec<Request>> = traces
                .iter()
                .enumerate()
                .map(|(t, trace)| corrupt(trace, 7 + t as u64, rate))
                .collect();
            for shape in [
                Shape::PageRuns,
                Shape::RequestRuns,
                Shape::Pulled,
                Shape::Mixed,
            ] {
                if rate > 0.0 && matches!(shape, Shape::PageRuns) {
                    continue;
                }
                for table_shards in [1, 3, 8] {
                    let outcome = check_shaped(
                        &universe,
                        &streams,
                        shape,
                        DEFAULT_BATCH_SIZE,
                        scenario.suggested_k,
                        table_shards,
                        0,
                        degrade,
                    );
                    // A quarantine may silence every tenant before the
                    // cache fills, so only the clean streams must evict.
                    if rate == 0.0 {
                        assert!(
                            outcome.stats.total_evictions() > 0,
                            "the streams must evict"
                        );
                    } else {
                        assert!(!outcome.counters.is_clean(), "{shape:?} {degrade:?}");
                    }
                }
            }
        }
    }
}
