//! Shared-cache fleet mode: M worker threads, **one** k-sized cache.
//!
//! The plain fleet ([`run_fleet`](crate::run_fleet)) scales by cloning
//! independent caches; this module drives the [`ConcurrentEngine`]
//! instead — one engine behind one lock, every worker committing into
//! the same capacity, which is the deployment the paper's shared-cache
//! model actually describes. It layers on top of `occ_sim::concurrent`:
//! a whole-run [`MetricsRecorder`] tally read off the engine's counters
//! (timed, with the per-thread latency histograms merged in), the
//! deterministic replay gate run in-process beside the workers (on by
//! default), and a schema-stamped JSON report for `occ concurrent`.

use crate::Json;
use occ_probe::{LogHistogram, MetricsRecorder, WindowDelta};
use occ_sim::concurrent::{
    run_shared, run_shared_replayed, ConcurrentEngine, ReplayError, ReplayOutcome, SharedOutcome,
};
use occ_sim::probe::{NoopRecorder, Recorder};
use occ_sim::{
    FaultCounters, FaultPolicy, ReplacementPolicy, RequestSource, SimError, SimStats, Universe,
};
use std::fmt;
use std::time::{Duration, Instant};

/// Schema stamp for [`SharedReport::to_json_value`].
pub const SHARED_SCHEMA: u64 = 2;

/// The `users` section of the concurrent reports (a run's and a
/// replay's alike): per-user hit/miss/eviction counts, by user id.
pub fn users_json(stats: &SimStats) -> Json {
    Json::Arr(
        stats
            .per_user()
            .iter()
            .map(|u| {
                Json::Obj(vec![
                    ("hits".into(), Json::from_u64(u.hits)),
                    ("misses".into(), Json::from_u64(u.misses)),
                    ("evictions".into(), Json::from_u64(u.evictions)),
                ])
            })
            .collect(),
    )
}

/// The `faults` section of the concurrent reports.
pub fn faults_json(c: &FaultCounters) -> Json {
    Json::Obj(vec![
        (
            "page_out_of_range".into(),
            Json::from_u64(c.page_out_of_range),
        ),
        ("owner_mismatch".into(), Json::from_u64(c.owner_mismatch)),
        (
            "quarantined_drops".into(),
            Json::from_u64(c.quarantined_drops),
        ),
        (
            "quarantined_users".into(),
            Json::from_u64(c.quarantined_users),
        ),
    ])
}

/// Configuration of a shared-cache run.
#[derive(Clone, Copy, Debug)]
pub struct SharedConfig {
    /// Capacity `k` of the single shared cache.
    pub capacity: usize,
    /// Number of policy segments S (see `ShardedPolicy`).
    pub table_shards: usize,
    /// Degradation policy applied to malformed records.
    pub degrade: FaultPolicy,
    /// Report the run's tally in [`SharedReport::merged`], read off the
    /// engine's counters after the run; off leaves it empty. Either way
    /// untimed workers run [`NoopRecorder`]s.
    pub record: bool,
    /// Time every commit (requires [`SharedConfig::record`]): each worker
    /// attaches a latency histogram, costing one monotonic clock read
    /// per request, and the report's `merged` gains their merge as its
    /// `latency_ns`. Off by default; the counters are the same either
    /// way.
    pub timing: bool,
    /// Run the deterministic replay gate beside the concurrent run and
    /// fail on any divergence. On by default; turning it off only
    /// skips the in-process check — the schedule is always recorded.
    pub verify: bool,
}

impl SharedConfig {
    /// A recording, untimed, replay-verified config with
    /// `table_shards` = 8.
    pub fn new(capacity: usize) -> Self {
        SharedConfig {
            capacity,
            table_shards: 8,
            degrade: FaultPolicy::SkipAndCount,
            record: true,
            timing: false,
            verify: true,
        }
    }
}

/// Why a shared-cache run failed.
#[derive(Debug)]
pub enum SharedError {
    /// The engine faulted (only fail-fast runs do).
    Sim(SimError),
    /// The replay gate rejected the run.
    Replay(ReplayError),
}

impl fmt::Display for SharedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharedError::Sim(e) => write!(f, "{e}"),
            SharedError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SharedError {}

impl From<SimError> for SharedError {
    fn from(e: SimError) -> Self {
        SharedError::Sim(e)
    }
}

impl From<ReplayError> for SharedError {
    fn from(e: ReplayError) -> Self {
        SharedError::Replay(e)
    }
}

/// Outcome of a shared-cache run (plus the replay gate's verdict).
#[derive(Debug)]
pub struct SharedReport {
    /// Worker thread count M.
    pub threads: usize,
    /// Policy segment count S.
    pub table_shards: usize,
    /// Shared cache capacity `k`.
    pub capacity: usize,
    /// Degradation policy that was in force.
    pub degrade: FaultPolicy,
    /// Merged stats / counters / quarantine set / commit schedule.
    pub outcome: SharedOutcome,
    /// The run's whole tally (empty when recording off), read off the
    /// engine's counters. Its JSON has a `latency_ns` key only when the
    /// workers were timed.
    pub merged: MetricsRecorder,
    /// The replay gate's aggregate state; `None` when verification was
    /// disabled. When `Some`, the replay matched (mismatch is an error).
    pub replay: Option<ReplayOutcome>,
    /// Wall-clock time of the concurrent run, including the tail of the
    /// replay that runs beside it when verifying.
    pub wall: Duration,
}

impl SharedReport {
    /// Committed records per second of concurrent wall-clock.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.outcome.schedule.len() as f64 / self.wall.as_secs_f64()
    }

    /// The schema-stamped JSON report behind `occ concurrent --format json`.
    pub fn to_json_value(&self) -> Json {
        let quarantined = self
            .outcome
            .quarantined
            .iter()
            .map(|u| Json::from_u64(u.0 as u64))
            .collect();
        let mut fields = vec![
            ("schema".into(), Json::from_u64(SHARED_SCHEMA)),
            ("kind".into(), Json::Str("shared-report".into())),
            ("threads".into(), Json::from_u64(self.threads as u64)),
            (
                "table_shards".into(),
                Json::from_u64(self.table_shards as u64),
            ),
            ("capacity".into(), Json::from_u64(self.capacity as u64)),
            ("degrade".into(), Json::Str(self.degrade.name().into())),
            (
                "commits".into(),
                Json::from_u64(self.outcome.schedule.len() as u64),
            ),
            ("users".into(), users_json(&self.outcome.stats)),
            ("faults".into(), faults_json(&self.outcome.counters)),
            ("quarantined".into(), Json::Arr(quarantined)),
            ("merged".into(), self.merged.to_json_value()),
            ("wall_ms".into(), Json::Num(self.wall.as_secs_f64() * 1e3)),
            (
                "requests_per_sec".into(),
                Json::Num(self.requests_per_sec()),
            ),
        ];
        fields.push((
            "replay".into(),
            match &self.replay {
                Some(r) => Json::Obj(vec![
                    ("verified".into(), Json::Bool(true)),
                    ("identical".into(), Json::Bool(true)),
                    (
                        "commits".into(),
                        Json::from_u64(self.outcome.schedule.len() as u64),
                    ),
                    (
                        "replay_misses".into(),
                        Json::from_u64(r.stats.total_misses()),
                    ),
                ]),
                None => Json::Obj(vec![("verified".into(), Json::Bool(false))]),
            },
        ));
        Json::Obj(fields)
    }
}

/// Drive `sources[t]` on worker thread `t` against one shared cache,
/// tally the run, and (unless disabled) gate the run
/// on its own deterministic replay. `make_policy(s)` builds the policy
/// instance for shard segment `s`; the replay gate calls it again for
/// its mirror instances, so it must be deterministic.
pub fn run_shared_fleet<P, S, F>(
    universe: Universe,
    cfg: &SharedConfig,
    sources: &mut [S],
    make_policy: F,
) -> Result<SharedReport, SharedError>
where
    P: ReplacementPolicy + Send,
    S: RequestSource + Send,
    F: Fn(usize) -> P,
{
    let threads = sources.len();
    let engine = ConcurrentEngine::new(
        cfg.capacity,
        universe,
        cfg.degrade,
        (0..cfg.table_shards).map(&make_policy).collect(),
    );
    let replay_policies = cfg
        .verify
        .then(|| (0..cfg.table_shards).map(&make_policy).collect());
    let started = Instant::now();
    // The counters are the engine's own; a timed worker's recorder
    // carries latency alone, and none runs inside an untimed commit.
    let ((outcome, replay), latency) = if cfg.record && cfg.timing {
        let mut recorders = vec![LogHistogram::new(); threads];
        let run = run_gated(&engine, sources, &mut recorders, replay_policies)?;
        let mut latency = LogHistogram::new();
        for h in &recorders {
            latency.merge(h);
        }
        (run, Some(latency))
    } else {
        let mut recorders = vec![NoopRecorder; threads];
        (
            run_gated(&engine, sources, &mut recorders, replay_policies)?,
            None,
        )
    };
    let total = if cfg.record {
        tally(&outcome)
    } else {
        WindowDelta::default()
    };
    let merged = match latency {
        Some(h) => MetricsRecorder::from_total(WindowDelta {
            latency_ns: Some(h),
            ..total
        }),
        None => MetricsRecorder::<false>::from_total(total).into(),
    };
    let wall = started.elapsed();
    Ok(SharedReport {
        threads,
        table_shards: cfg.table_shards,
        capacity: cfg.capacity,
        degrade: cfg.degrade,
        outcome,
        merged,
        replay,
        wall,
    })
}

/// The tally counting recorders would have kept, read off the shared
/// engine's counters: its per-user stats, and the records it dropped
/// (a recorder counts dropped records, not quarantined users).
fn tally(outcome: &SharedOutcome) -> WindowDelta {
    WindowDelta {
        faults: FaultCounters {
            quarantined_users: 0,
            ..outcome.counters.clone()
        },
        ..WindowDelta::between(&SimStats::default(), &outcome.stats)
    }
}

/// One run, gated on its replay when `replay_policies` is given (the
/// replay then runs beside the workers; see `run_shared_replayed`).
fn run_gated<P, S, R>(
    engine: &ConcurrentEngine<P>,
    sources: &mut [S],
    recorders: &mut [R],
    replay_policies: Option<Vec<P>>,
) -> Result<(SharedOutcome, Option<ReplayOutcome>), SharedError>
where
    P: ReplacementPolicy + Send,
    S: RequestSource + Send,
    R: Recorder + Send,
{
    match replay_policies {
        None => Ok((run_shared(engine, sources, recorders)?, None)),
        Some(policies) => {
            let (outcome, replayed) = run_shared_replayed(engine, sources, recorders, policies)?;
            Ok((outcome, Some(replayed?)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::Lru;
    use occ_probe::check_schema_stamp;
    use occ_workloads::presets::all_scenarios;

    #[test]
    fn shared_run_verifies_and_reports() {
        let scenarios = all_scenarios();
        let scenario = &scenarios[0];
        let mut sources: Vec<_> = (0..4)
            .map(|t| scenario.stream(2_000, 7 + t as u64))
            .collect();
        let universe = sources[0].universe().clone();
        let cfg = SharedConfig {
            capacity: scenario.suggested_k,
            table_shards: 4,
            degrade: FaultPolicy::SkipAndCount,
            record: true,
            timing: false,
            verify: true,
        };
        let report =
            run_shared_fleet(universe, &cfg, &mut sources, |_| Lru::new()).expect("run + replay");
        assert_eq!(report.outcome.schedule.len(), 8_000);
        assert!(report.replay.is_some());
        assert_eq!(report.merged.total().requests(), 8_000);
        let merged = report.merged.total();
        assert_eq!(merged.hits + merged.misses(), 8_000);
        assert_eq!(merged.misses_by_user.iter().sum::<u64>(), merged.misses());
        let v = report.to_json_value();
        check_schema_stamp(&v, SHARED_SCHEMA, "shared report").unwrap();
        let text = v.to_json();
        assert!(text.contains("\"identical\": true") || text.contains("\"identical\":true"));
        assert!(
            !text.contains("\"contention\""),
            "schema 2 has no contention"
        );
    }

    #[test]
    fn timing_adds_latency_and_changes_no_counter() {
        // One thread: the commit order is the stream order, so the two
        // runs must agree on every counter, not just on the totals.
        let scenarios = all_scenarios();
        let scenario = &scenarios[0];
        let universe = scenario.stream(1, 1).universe().clone();
        let run = |timing: bool| {
            let mut sources = vec![scenario.stream(3_000, 5)];
            let mut cfg = SharedConfig::new(scenario.suggested_k);
            cfg.timing = timing;
            run_shared_fleet(universe.clone(), &cfg, &mut sources, |_| Lru::new()).unwrap()
        };
        let (untimed, timed) = (run(false), run(true));
        assert_eq!(untimed.outcome.stats, timed.outcome.stats);
        assert_eq!(untimed.outcome.schedule, timed.outcome.schedule);
        assert_eq!(timed.merged.latency_ns().count(), 3_000);
        let mut counters = timed.merged.total().clone();
        counters.latency_ns = None;
        assert_eq!(untimed.merged.total(), &counters);
        let v = untimed.to_json_value();
        assert!(v.get("merged").unwrap().get("latency_ns").is_none());
        let v = timed.to_json_value();
        assert!(v.get("merged").unwrap().get("latency_ns").is_some());
    }

    #[test]
    fn unrecorded_run_matches_recorded_counters() {
        let scenarios = all_scenarios();
        let scenario = &scenarios[1];
        let universe = scenario.stream(1, 1).universe().clone();
        let run = |record: bool| {
            let mut sources: Vec<_> = (0..3).map(|t| scenario.stream(1_500, t as u64)).collect();
            let cfg = SharedConfig {
                capacity: scenario.suggested_k,
                table_shards: 3,
                degrade: FaultPolicy::SkipAndCount,
                record,
                timing: false,
                verify: true,
            };
            run_shared_fleet(universe.clone(), &cfg, &mut sources, |_| Lru::new()).unwrap()
        };
        let recorded = run(true);
        let bare = run(false);
        // Scheduling differs between the two runs, but totals are
        // schedule-independent for a shared LRU over the same streams?
        // No — interleaving changes outcomes. What must hold: each run
        // equals its own replay (checked inside), and the unrecorded
        // run's merged recorder is empty.
        assert_eq!(bare.merged.total().requests(), 0);
        assert_eq!(recorded.merged.total().requests(), 4_500);
        assert_eq!(bare.outcome.schedule.len(), 4_500);
    }
}
