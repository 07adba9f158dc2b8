//! Stress/soak test: 4 worker threads with seeded `ChaosSource` fault
//! injection against one shared cache.
//!
//! Three contracts:
//! * the run's merged fault counters equal the exact sum of the
//!   per-thread counters (no fault lost or double-counted across the
//!   engine's thread lanes);
//! * under the quarantine-user policy, the single-threaded replay of
//!   the commit schedule quarantines **the same users** and reproduces
//!   every per-user vector;
//! * the same holds at soak length under skip-and-count;
//! * tiny caches agree with the replay while quarantine purges keep
//!   freeing room mid-run (written against the lock-striped engine's
//!   `full` latch, which is gone; kept as a quarantine-churn stress).

use occ_baselines::Lru;
use occ_sim::concurrent::{
    replay_schedule, run_shared, verify_replay, CommitOutcome, ConcurrentEngine,
};
use occ_sim::probe::NoopRecorder;
use occ_sim::{
    FaultCounters, FaultPolicy, ReplacementPolicy, RequestSource, Trace, TraceSource, Universe,
};
use occ_workloads::{all_scenarios, ChaosSource, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type SharedPolicy = Box<dyn ReplacementPolicy + Send>;

const THREADS: usize = 4;
const TABLE_SHARDS: usize = 8;

fn lru_policies() -> Vec<SharedPolicy> {
    (0..TABLE_SHARDS)
        .map(|_| -> SharedPolicy { Box::new(Lru::new()) })
        .collect()
}

/// Run THREADS chaos-wrapped scenario streams of `len` requests each
/// under `degrade`, then replay and cross-check everything.
fn chaos_run(len: u64, degrade: FaultPolicy, page_rate: f64, owner_rate: f64) {
    let scenarios = all_scenarios();
    let scenario = &scenarios[0];
    let mut sources: Vec<_> = (0..THREADS)
        .map(|t| {
            let plan = FaultPlan::seeded(0xC4A05 ^ (t as u64) << 17)
                .with_page_rate(page_rate)
                .with_owner_rate(owner_rate);
            ChaosSource::new(scenario.stream(len, 7 + t as u64), plan)
        })
        .collect();
    let universe = sources[0].universe().clone();
    let k = scenario.suggested_k;
    let engine = ConcurrentEngine::new(k, universe.clone(), degrade, lru_policies());
    let mut recorders = vec![NoopRecorder; THREADS];
    let outcome = run_shared(&engine, &mut sources, &mut recorders)
        .expect("skip/quarantine degradation never faults the run");

    // Chaos actually fired — otherwise this test exercises nothing.
    let injected: u64 = sources.iter().map(|s| s.injected().total()).sum();
    assert!(injected > 0, "the seeded plans must inject faults");

    // Merged counters are the exact sum of the per-thread lanes.
    assert_eq!(outcome.per_thread.len(), THREADS);
    let mut summed = FaultCounters::default();
    for (_, c) in &outcome.per_thread {
        summed.merge(c);
    }
    assert_eq!(
        summed, outcome.counters,
        "merged fault counters must equal the per-thread sum exactly"
    );
    // Same for the per-user stats vectors.
    let mut misses = vec![0u64; universe.num_users() as usize];
    for (stats, _) in &outcome.per_thread {
        for (u, s) in stats.per_user().iter().enumerate() {
            misses[u] += s.misses;
        }
    }
    assert_eq!(misses, outcome.stats.miss_vector());

    // Replay: identical vectors, identical counters, identical
    // quarantine set (order included — both are ascending by user id).
    let replayed = replay_schedule(k, universe, lru_policies(), degrade, &outcome.schedule)
        .expect("recorded schedule must replay");
    verify_replay(&outcome, &replayed).expect("replay must be identical");
    assert_eq!(
        outcome.quarantined, replayed.quarantined,
        "replay must quarantine exactly the users the concurrent run did"
    );
    if degrade == FaultPolicy::QuarantineUser && outcome.counters.owner_mismatch > 0 {
        assert!(
            !outcome.quarantined.is_empty(),
            "owner mismatches under quarantine-user must quarantine someone"
        );
    }
}

#[test]
fn quarantine_chaos_stress_matches_replay() {
    chaos_run(5_000, FaultPolicy::QuarantineUser, 0.002, 0.003);
}

#[test]
fn skip_and_count_chaos_soak_matches_replay() {
    chaos_run(25_000, FaultPolicy::SkipAndCount, 0.001, 0.001);
}

#[test]
fn truncated_streams_still_balance() {
    let scenarios = all_scenarios();
    let scenario = &scenarios[1];
    let mut sources: Vec<_> = (0..THREADS)
        .map(|t| {
            // Thread t's stream is cut off after 100*t records — thread 0
            // is cut to nothing, so 100*(1+2+3) commits survive — uneven worker exits must not unbalance
            // the commit schedule.
            let plan = FaultPlan::seeded(11 + t as u64).with_truncate_at(100 * t);
            ChaosSource::new(scenario.stream(2_000, 3 + t as u64), plan)
        })
        .collect();
    let universe = sources[0].universe().clone();
    let k = scenario.suggested_k;
    let engine = ConcurrentEngine::new(
        k,
        universe.clone(),
        FaultPolicy::SkipAndCount,
        lru_policies(),
    );
    let mut recorders = vec![NoopRecorder; THREADS];
    let outcome = run_shared(&engine, &mut sources, &mut recorders).expect("clean run");
    assert_eq!(outcome.schedule.len(), 100 * (1 + 2 + 3));
    let replayed = replay_schedule(
        k,
        universe,
        lru_policies(),
        FaultPolicy::SkipAndCount,
        &outcome.schedule,
    )
    .expect("schedule must replay");
    verify_replay(&outcome, &replayed).expect("replay must be identical");
}

/// The `full` latch under churn. Tiny caches (k = 1..3) over a few
/// segments are full almost all the time, so most misses take the
/// one-lock steady-state eviction path. Owner-mismatch records under
/// quarantine-user purge tenants mid-run, which frees room, clears the
/// latch, and lets inserts set it again while other threads are between
/// reading it and committing. A loop rather than a proptest: the
/// vendored proptest replays identical cases on every run, and a race
/// needs fresh interleavings. Every iteration must pass the replay gate.
#[test]
fn full_latch_survives_quarantine_churn() {
    let universe = Universe::uniform(6, 3);
    let pages = universe.num_pages();
    let mut iterations = 0;
    let mut refills = 0;
    for seed in 0..24u64 {
        for k in 1..=3 {
            for shards in [2, 3, 5] {
                let traces: Vec<Trace> = (0..THREADS as u64)
                    .map(|t| {
                        let mut rng = StdRng::seed_from_u64(seed * 131 + t);
                        let idxs: Vec<u32> = (0..250).map(|_| rng.gen_range(0..pages)).collect();
                        Trace::from_page_indices(&universe, &idxs)
                    })
                    .collect();
                let mut sources: Vec<_> = traces
                    .iter()
                    .enumerate()
                    .map(|(t, trace)| {
                        let plan = FaultPlan::seeded(seed << 8 | t as u64).with_owner_rate(0.004);
                        ChaosSource::new(TraceSource::new(trace), plan)
                    })
                    .collect();
                let policies = || -> Vec<SharedPolicy> {
                    (0..shards)
                        .map(|_| -> SharedPolicy { Box::new(Lru::new()) })
                        .collect()
                };
                let degrade = FaultPolicy::QuarantineUser;
                let engine = ConcurrentEngine::new(k, universe.clone(), degrade, policies());
                let mut recorders = vec![NoopRecorder; THREADS];
                let outcome = run_shared(&engine, &mut sources, &mut recorders)
                    .expect("quarantine-user never faults the run");
                let shape = format!("seed {seed}, k={k}, S={shards}");
                let replayed =
                    replay_schedule(k, universe.clone(), policies(), degrade, &outcome.schedule)
                        .unwrap_or_else(|e| panic!("{shape}: {e}"));
                verify_replay(&outcome, &replayed).unwrap_or_else(|e| panic!("{shape}: {e}"));
                // Evictions happen only at full capacity and inserts only
                // below it, and only a purge lowers occupancy: an insert
                // after the first eviction is a refill after a purge.
                let entries = outcome.schedule.entries();
                if let Some(first) = entries
                    .iter()
                    .position(|e| matches!(e.outcome, CommitOutcome::Evict { .. }))
                {
                    refills += entries[first..]
                        .iter()
                        .filter(|e| e.outcome == CommitOutcome::Insert)
                        .count();
                }
                iterations += 1;
            }
        }
    }
    assert!(iterations >= 200);
    assert!(
        refills > 0,
        "no purge ever freed room in a full cache; the latch was never cleared"
    );
}
