//! Property tests for the concurrent shared-cache engine's determinism
//! contract: for ANY thread count, shard count, shareable policy,
//! degradation policy, and seeded per-thread request schedule — corrupted
//! at a seeded rate by a `ChaosSource` — the single-threaded replay of
//! the recorded commit schedule must reproduce the concurrent run
//! exactly: per-user hit/miss/eviction vectors, every drop's fault kind,
//! fault counters, and the quarantine set. Plus the deterministic edge-case sweep: k=1, S=1,
//! more threads than shards, one user owning every page, and empty
//! request streams; and ALG-DISCRETE at S = 1, where its one instance
//! is the paper's global algorithm.

use occ_baselines::{Fifo, GreedyDual, Lru};
use occ_core::ConvexCaching;
use occ_sim::concurrent::{replay_schedule, run_shared, verify_replay, ConcurrentEngine};
use occ_sim::probe::NoopRecorder;
use occ_sim::{
    FaultPolicy, ReplacementPolicy, SharedOutcome, SteppingEngine, Trace, TraceSource, Universe,
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
