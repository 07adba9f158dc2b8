#![warn(missing_docs)]
//! Sharded fleet runner: many independent cache instances in parallel.
//!
//! A *fleet* models the deployment the paper's SQLVM motivation implies
//! but a single simulator cannot express: `F` servers, each running its
//! own cache of size `k` over its own tenant mix, observed as one
//! system. Each shard is a complete [`SteppingEngine`] replay —
//! sharding is **not** a split of one cache's capacity; it is `F`
//! independent caches whose telemetry is merged afterwards.
//!
//! The runner drives shards on scoped worker threads
//! ([`std::thread::scope`], no detached lifetimes) — at most one worker
//! per available hardware thread, each replaying its queue of shards
//! sequentially, and no thread at all when a single worker suffices —
//! feeds each shard from a streaming [`RequestSource`] through the
//! engine's one serve loop ([`SteppingEngine::serve_stops`], trace-backed
//! sources handing over whole slices via [`RequestSource::next_run`]),
//! and folds the per-shard tallies into one merged [`MetricsRecorder`]
//! with the same shard-merge machinery the observability layer already
//! ships — so the merged report is indistinguishable from a single
//! recorder that watched every shard. Each request is counted once, in
//! its shard engine's `SimStats`: every shard's windows (one window for
//! an un-windowed shard) are cut from those counters at the loop's
//! stops, and only a timed run's windows hook the loop, for latency.
//!
//! Determinism: each shard's outcome depends only on its own source and
//! policy, never on scheduling, so per-shard stats are byte-identical
//! to running the shards sequentially (pinned by tests). Only the
//! wall-clock aggregate varies with parallelism.
//!
//! Two entry points share one implementation: [`run_fleet`] takes boxed
//! policies for heterogeneous fleets, and [`run_fleet_typed`] is the
//! monomorphized fast path for throughput work — concrete policy type
//! and statically dispatched callbacks. The supervised runner
//! ([`run_supervised_fleet`]) shares the same worker pool and the same
//! report assembly.

pub mod shared;
pub mod supervisor;

use occ_probe::{MetricsRecorder, StatsWindows, WindowDelta, WindowSeries};
use occ_sim::{
    next_multiple, ReplacementPolicy, RequestSource, SimError, SimStats, SteppingEngine,
    DEFAULT_BATCH_SIZE,
};
use std::time::{Duration, Instant};

pub use occ_probe::Json;
pub use shared::{
    faults_json, run_shared_fleet, users_json, SharedConfig, SharedError, SharedReport,
    SHARED_SCHEMA,
};
pub use supervisor::{
    run_supervised_fleet, BackoffPolicy, DirPersist, ShardKill, ShardState, ShardStatus,
    StoreFault, SupervisorConfig, SupervisorReport,
};

/// Schema stamp for [`FleetReport::to_json_value`].
///
/// v2: per-shard `misses_by_user`, and supervised runs add a
/// `supervisor` section (plus a `degraded` section when a shard was
/// quarantined).
pub const FLEET_SCHEMA: u64 = 2;

/// How each shard of the fleet is run.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Cache capacity `k` of every shard (each shard gets its own full
    /// `k` — see the module docs).
    pub capacity: usize,
    /// Most requests per batch of the serve loop
    /// ([`SteppingEngine::serve_stops`]); `occ fleet` keeps the default.
    pub batch_size: usize,
    /// Report each shard's whole-run tally in [`ShardReport::recorder`];
    /// turn it off for pure-throughput runs, which leave it empty. An
    /// untimed tally is read off the engine's own counters, so it costs
    /// nothing per request either way.
    pub record: bool,
    /// Time every request (requires [`FleetConfig::record`]): each shard
    /// attaches a latency recorder, costing one monotonic clock read per
    /// request (stamps chain within a batch, see
    /// `occ_sim::probe::LapClock`), and the report gains a `latency_ns`
    /// histogram. Off by default: the counters are the same either way,
    /// and an untimed report is a pure function of the request streams.
    pub timing: bool,
    /// Cap on worker threads; `None` means one per available hardware
    /// thread. The runner never uses more workers than shards, and a
    /// single worker runs every shard sequentially on the calling
    /// thread with no spawn at all — oversubscribing cores buys nothing
    /// but context switches, so the default matches the hardware.
    pub max_workers: Option<usize>,
    /// Cut tumbling windows of this width from every shard's counters
    /// ([`StatsWindows`]; requires [`FleetConfig::record`]), populating
    /// [`ShardReport::series`] and [`FleetReport::merged_series`].
    /// Batches then also end at every window boundary. The shard
    /// windows carry no latency, so the series is deterministic, and a
    /// shard's whole-run tally is the fold of its windows. A supervised
    /// fleet needs a positive width: it is also the checkpoint cadence.
    pub window: Option<u64>,
}

impl FleetConfig {
    /// An untimed recording fleet with capacity `k` and the default
    /// batch size.
    pub fn new(capacity: usize) -> Self {
        FleetConfig {
            capacity,
            batch_size: DEFAULT_BATCH_SIZE,
            record: true,
            timing: false,
            max_workers: None,
            window: None,
        }
    }
}

/// Outcome of one shard's replay.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (position in the source list handed to [`run_fleet`]).
    pub shard: usize,
    /// Per-user counters, identical to a sequential run of this shard.
    pub stats: SimStats,
    /// Requests served by this shard.
    pub served: u64,
    /// This shard's own wall-clock time.
    pub elapsed: Duration,
    /// The shard's recorder ([`FleetConfig::record`]); empty when
    /// recording was off. It carries a latency histogram only when the
    /// shard was timed ([`FleetConfig::timing`]).
    pub recorder: MetricsRecorder,
    /// This shard's tumbling-window series ([`FleetConfig::window`]);
    /// `None` when windowing was off.
    pub series: Option<WindowSeries>,
}

impl ShardReport {
    /// This shard's throughput in requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.served as f64 / self.elapsed.as_secs_f64()
    }
}

/// Outcome of a whole fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardReport>,
    /// All shard recorders folded into one (empty when recording was
    /// off), merged in shard order. Its JSON has a `latency_ns` key only
    /// when the shards were timed.
    pub merged: MetricsRecorder,
    /// All shard window series merged in shard order
    /// ([`FleetConfig::window`]): window `i` of the merge is the sum of
    /// every shard's window `i`. `None` when windowing was off.
    pub merged_series: Option<WindowSeries>,
    /// Requests served across every shard.
    pub total_requests: u64,
    /// Wall-clock time for the whole fleet (parallel, so typically far
    /// below the sum of per-shard `elapsed`).
    pub wall: Duration,
    /// Supervision outcome — `Some` only for
    /// [`run_supervised_fleet`] runs; the plain runners never fail
    /// partially (a shard panic aborts them), so they carry `None`.
    pub supervisor: Option<SupervisorReport>,
}

impl FleetReport {
    /// Fleet-wide throughput: total requests over fleet wall-clock.
    /// This is the number that should scale with shard count on idle
    /// multicore hardware.
    pub fn aggregate_requests_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.total_requests as f64 / self.wall.as_secs_f64()
    }

    /// Misses summed over every shard's stats.
    pub fn total_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.total_misses()).sum()
    }

    /// Hits summed over every shard's stats.
    pub fn total_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.total_hits()).sum()
    }

    /// The schema-stamped JSON report behind `occ fleet --format json`.
    pub fn to_json_value(&self) -> Json {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("shard".into(), Json::from_u64(s.shard as u64)),
                    ("requests".into(), Json::from_u64(s.served)),
                    ("hits".into(), Json::from_u64(s.stats.total_hits())),
                    ("misses".into(), Json::from_u64(s.stats.total_misses())),
                    (
                        "evictions".into(),
                        Json::from_u64(s.stats.total_evictions()),
                    ),
                    (
                        "misses_by_user".into(),
                        Json::Arr(
                            s.stats
                                .miss_vector()
                                .into_iter()
                                .map(Json::from_u64)
                                .collect(),
                        ),
                    ),
                    (
                        "elapsed_ms".into(),
                        Json::Num(s.elapsed.as_secs_f64() * 1e3),
                    ),
                    ("requests_per_sec".into(), Json::Num(s.requests_per_sec())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema".into(), Json::from_u64(FLEET_SCHEMA)),
            ("kind".into(), Json::Str("fleet-report".into())),
            ("shards".into(), Json::Arr(shards)),
            ("merged".into(), self.merged.to_json_value()),
            ("total_requests".into(), Json::from_u64(self.total_requests)),
            ("wall_ms".into(), Json::Num(self.wall.as_secs_f64() * 1e3)),
            (
                "aggregate_requests_per_sec".into(),
                Json::Num(self.aggregate_requests_per_sec()),
            ),
        ];
        if let Some(series) = &self.merged_series {
            fields.push(("series".into(), series.to_json_value()));
        }
        if let Some(sup) = &self.supervisor {
            fields.push(("supervisor".into(), sup.to_json_value()));
            if sup.is_degraded() {
                // The degraded section exists only when data is
                // actually missing (a shard quarantined); a recovered
                // run is byte-identical to a clean one and reports
                // nothing here.
                let shards = sup
                    .shards
                    .iter()
                    .filter(|s| s.state == supervisor::ShardState::Quarantined)
                    .map(|s| {
                        Json::Obj(vec![
                            ("shard".into(), Json::from_u64(s.shard as u64)),
                            ("restarts".into(), Json::from_u64(s.restarts as u64)),
                            (
                                "error".into(),
                                Json::Str(s.error.clone().unwrap_or_default()),
                            ),
                            ("windows_lost".into(), Json::from_u64(s.windows_lost)),
                        ])
                    })
                    .collect();
                fields.push((
                    "degraded".into(),
                    Json::Obj(vec![("quarantined".into(), Json::Arr(shards))]),
                ));
            }
        }
        Json::Obj(fields)
    }
}

/// Serve one shard to the end of its source through the engine's serve
/// loop ([`SteppingEngine::serve_stops`]), stopping at each window
/// boundary to cut the window from the engine's counters
/// ([`StatsWindows`]). An un-windowed shard is one window, cut at the
/// end. Each request is counted once, in the engine's `SimStats`: the
/// tally is the fold of the windows, and a timed shard's windows carry
/// latency alone.
fn run_shard<S: RequestSource, P: ReplacementPolicy, const TIMED: bool>(
    shard: usize,
    mut source: S,
    cfg: &FleetConfig,
    policy: P,
) -> ShardReport {
    let start = Instant::now();
    let engine = SteppingEngine::new(cfg.capacity, source.universe().clone(), policy);
    let window = cfg.window.filter(|_| cfg.record);
    let width = window.unwrap_or(u64::MAX);
    // The ring bound is lifted because the report needs every window —
    // callers size `width` to keep `len / width` sane.
    let windows =
        StatsWindows::<TIMED>::starting_at(width, 0, engine.stats()).with_ring_capacity(usize::MAX);
    let mut engine = engine.with_recorder(windows);
    let served = engine
        .serve_stops(
            &mut source,
            cfg.batch_size,
            None,
            |t| next_multiple(t, width),
            |engine, _, end| {
                let t = engine.time();
                let (windows, stats) = engine.recorder_and_stats();
                if end {
                    windows.finalize(t, stats);
                } else {
                    windows.cut(t, stats);
                }
                Ok::<_, SimError>(())
            },
        )
        .expect("an unchecked serve loop has no fault to report");
    let elapsed = start.elapsed();
    let stats = engine.stats().clone();
    let mut series = engine.into_recorder().into_series();
    let total = if cfg.record {
        series.total()
    } else {
        WindowDelta::default()
    };
    // The latency moves from the windows to the tally, so the series
    // stays untimed and deterministic.
    for w in &mut series.windows {
        w.latency_ns = None;
    }
    let recorder = if TIMED {
        MetricsRecorder::from_total(total)
    } else {
        MetricsRecorder::<false>::from_total(total).into()
    };
    ShardReport {
        shard,
        stats,
        served,
        elapsed,
        recorder,
        series: window.map(|_| series),
    }
}

/// Run every source as an independent cache shard across up to
/// [`FleetConfig::max_workers`] scoped worker threads (default: the
/// machine's available parallelism) and merge the telemetry.
///
/// `make_policy` is called once per shard (with the shard index) from
/// the worker that replays it, so policies never cross threads and need
/// not be `Send`. Per-shard results are deterministic — worker count
/// and scheduling affect only wall-clock fields.
///
/// Panics if `sources` is empty, `cfg.batch_size` is zero, or a shard
/// thread panics (the shard's own panic is propagated).
pub fn run_fleet<S, F>(sources: Vec<S>, cfg: &FleetConfig, make_policy: F) -> FleetReport
where
    S: RequestSource + Send,
    F: Fn(usize) -> Box<dyn ReplacementPolicy> + Sync,
{
    run_fleet_typed(sources, cfg, make_policy)
}

/// [`run_fleet`] monomorphized over a concrete policy type.
///
/// `Box<dyn ReplacementPolicy>` implements [`ReplacementPolicy`], so
/// [`run_fleet`] is exactly this function with `P` = the boxed trait
/// object; heterogeneous fleets keep working through it. Handing a
/// concrete `P` instead compiles each shard's replay loop with the
/// policy callbacks statically dispatched and inlinable — the
/// zero-overhead fast path for throughput measurement, where a virtual
/// call per request is the difference between the fleet and a bare
/// [`SteppingEngine`] loop. Combined with `cfg.record = false` a
/// one-shard fleet run is the same machine code as the scalar engine
/// loop.
pub fn run_fleet_typed<S, P, F>(sources: Vec<S>, cfg: &FleetConfig, make_policy: F) -> FleetReport
where
    S: RequestSource + Send,
    P: ReplacementPolicy,
    F: Fn(usize) -> P + Sync,
{
    let start = Instant::now();
    let shards = run_pool(sources, cfg, |i, source| {
        if cfg.record && cfg.timing {
            run_shard::<_, _, true>(i, source, cfg, make_policy(i))
        } else {
            run_shard::<_, _, false>(i, source, cfg, make_policy(i))
        }
    });
    let window = cfg.window.filter(|_| cfg.record);
    fleet_report(shards, window, start.elapsed(), None)
}

/// Run `job(i, item)` for every shard's item on at most
/// [`FleetConfig::max_workers`] scoped threads (default: the machine's
/// available parallelism, never more than the shard count), dealing
/// the items round-robin so each worker replays its queue in order.
/// One worker (one shard, a one-core machine, or an explicit cap) runs
/// everything on the calling thread: no spawn, no join, no context
/// switches. Results come back in shard order either way, and a
/// worker's panic is propagated.
///
/// Panics if `items` is empty or `cfg.batch_size` is zero.
fn run_pool<T, R>(items: Vec<T>, cfg: &FleetConfig, job: impl Fn(usize, T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    assert!(!items.is_empty(), "a fleet needs at least one shard");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let workers = cfg
        .max_workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, items.len());
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| job(i, item))
            .collect();
    }
    let mut queues: Vec<Vec<(usize, T)>> = Vec::new();
    queues.resize_with(workers, Vec::new);
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers].push((i, item));
    }
    let job = &job;
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .into_iter()
            .map(|queue| {
                scope.spawn(move || {
                    queue
                        .into_iter()
                        .map(|(i, item)| (i, job(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    results.sort_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Assemble the fleet report from per-shard outcomes in shard order:
/// the shard recorders fold into one, and with a `window` width every
/// shard's series folds window by window (window `i` of the merge is
/// the sum of every shard's window `i`).
fn fleet_report(
    shards: Vec<ShardReport>,
    window: Option<u64>,
    wall: Duration,
    supervisor: Option<SupervisorReport>,
) -> FleetReport {
    let mut merged: MetricsRecorder = MetricsRecorder::untimed().into();
    for s in &shards {
        merged.merge(&s.recorder);
    }
    let merged_series = window.map(|width| {
        let mut folded = WindowSeries {
            width,
            dropped: 0,
            windows: Vec::new(),
        };
        for series in shards.iter().filter_map(|s| s.series.as_ref()) {
            folded.merge(series);
        }
        folded
    });
    let total_requests = shards.iter().map(|s| s.served).sum();
    FleetReport {
        shards,
        merged,
        merged_series,
        total_requests,
        wall,
        supervisor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::Lru;
    use occ_sim::Simulator;
    use occ_workloads::{sqlvm_like, two_tier, PatternSource};

    fn lru_factory(_shard: usize) -> Box<dyn ReplacementPolicy> {
        Box::new(Lru::new())
    }

    #[test]
    fn shard_results_match_sequential_scalar_runs() {
        let scenario = sqlvm_like();
        let cfg = FleetConfig::new(scenario.suggested_k);
        let sources: Vec<_> = (0..4).map(|i| scenario.stream(3_000, 100 + i)).collect();
        let report = run_fleet(sources, &cfg, lru_factory);

        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.shard, i);
            assert_eq!(shard.served, 3_000);
            let trace = scenario.trace(3_000, 100 + i as u64);
            let seq = Simulator::new(cfg.capacity).run(&mut Lru::new(), &trace);
            assert_eq!(
                shard.stats, seq.stats,
                "shard {i} must match its sequential twin"
            );
        }
        assert_eq!(report.total_requests, 12_000);
    }

    #[test]
    fn merged_recorder_sums_the_shards() {
        let scenario = two_tier();
        let cfg = FleetConfig::new(scenario.suggested_k);
        let sources: Vec<_> = (0..3).map(|i| scenario.stream(2_000, i)).collect();
        let report = run_fleet(sources, &cfg, lru_factory);

        let shard_requests: u64 = report
            .shards
            .iter()
            .map(|s| s.recorder.total().requests())
            .sum();
        assert_eq!(report.merged.total().requests(), shard_requests);
        assert_eq!(report.merged.total().requests(), report.total_requests);
        let merged = report.merged.total();
        assert_eq!(merged.hits + merged.misses(), 6_000);
        assert_eq!(merged.misses_by_user.iter().sum::<u64>(), merged.misses());
        assert_eq!(report.total_hits() + report.total_misses(), 6_000);
    }

    #[test]
    fn unrecorded_fleet_matches_recorded_stats() {
        let scenario = sqlvm_like();
        let mut cfg = FleetConfig::new(scenario.suggested_k);
        let recorded = run_fleet(
            (0..2).map(|i| scenario.stream(2_500, i)).collect(),
            &cfg,
            lru_factory,
        );
        cfg.record = false;
        let bare = run_fleet(
            (0..2).map(|i| scenario.stream(2_500, i)).collect(),
            &cfg,
            lru_factory,
        );
        for (a, b) in recorded.shards.iter().zip(&bare.shards) {
            assert_eq!(a.stats, b.stats, "record flag must not change replay");
        }
        assert_eq!(bare.merged.total().requests(), 0, "no recorder attached");
        assert_eq!(bare.total_misses(), recorded.total_misses());
    }

    #[test]
    fn typed_fleet_matches_boxed_fleet() {
        // The monomorphized entry point must be observationally identical
        // to the boxed one — same per-shard stats, same totals — with or
        // without recording.
        let scenario = sqlvm_like();
        for record in [true, false] {
            let mut cfg = FleetConfig::new(scenario.suggested_k);
            cfg.record = record;
            let boxed = run_fleet(
                (0..3).map(|i| scenario.stream(2_000, i)).collect(),
                &cfg,
                lru_factory,
            );
            let typed = run_fleet_typed(
                (0..3).map(|i| scenario.stream(2_000, i)).collect(),
                &cfg,
                |_shard| Lru::new(),
            );
            for (a, b) in boxed.shards.iter().zip(&typed.shards) {
                assert_eq!(a.stats, b.stats, "record={record}: shard stats diverged");
                assert_eq!(a.served, b.served);
            }
            assert_eq!(boxed.total_requests, typed.total_requests);
            assert_eq!(
                boxed.merged.total().requests(),
                typed.merged.total().requests()
            );
        }
    }

    #[test]
    fn worker_count_never_changes_results() {
        // Sequential (cap 1), undersubscribed (cap 2 for 5 shards,
        // queues of unequal length), and one-thread-per-shard (cap ≥
        // shards) must produce identical per-shard reports.
        let scenario = sqlvm_like();
        let run_with = |cap: Option<usize>| {
            let mut cfg = FleetConfig::new(scenario.suggested_k);
            cfg.max_workers = cap;
            run_fleet(
                (0..5).map(|i| scenario.stream(2_000, 40 + i)).collect(),
                &cfg,
                lru_factory,
            )
        };
        let sequential = run_with(Some(1));
        for cap in [Some(2), Some(64), None] {
            let capped = run_with(cap);
            for (a, b) in sequential.shards.iter().zip(&capped.shards) {
                assert_eq!(a.shard, b.shard, "cap {cap:?}: shard order changed");
                assert_eq!(a.stats, b.stats, "cap {cap:?}: stats diverged");
                assert_eq!(a.served, b.served);
            }
            assert_eq!(
                capped.merged.total().requests(),
                sequential.merged.total().requests()
            );
        }
    }

    #[test]
    fn windowed_fleet_merges_shard_series_and_sums_to_totals() {
        let scenario = sqlvm_like();
        let mut cfg = FleetConfig::new(scenario.suggested_k);
        cfg.window = Some(500);
        let report = run_fleet(
            (0..3).map(|i| scenario.stream(2_000, 60 + i)).collect(),
            &cfg,
            lru_factory,
        );

        let merged = report.merged_series.as_ref().expect("windowing was on");
        assert_eq!(merged.width, 500);
        assert_eq!(merged.windows.len(), 4, "2000 requests / 500 per window");
        for (i, shard) in report.shards.iter().enumerate() {
            let series = shard.series.as_ref().expect("per-shard series");
            assert_eq!(series.windows.len(), 4);
            let total = series.total();
            assert_eq!(total.hits, shard.stats.total_hits(), "shard {i}");
            assert_eq!(total.misses(), shard.stats.total_misses(), "shard {i}");
        }
        // Window i of the merge is the sum of every shard's window i.
        for (i, w) in merged.windows.iter().enumerate() {
            let hits: u64 = report
                .shards
                .iter()
                .map(|s| s.series.as_ref().unwrap().windows[i].hits)
                .sum();
            assert_eq!(w.hits, hits, "window {i}");
        }
        // And the merged series sums to the merged recorder's totals.
        let total = merged.total();
        assert_eq!(total.requests(), report.merged.total().requests());
        assert_eq!(total.hits, report.merged.total().hits);

        // The JSON report gains a `series` key only when windowing is on.
        let v = report.to_json_value();
        let series = v.get("series").expect("series in JSON");
        assert_eq!(series.get("width").and_then(Json::as_u64), Some(500));
        cfg.window = None;
        let plain = run_fleet(
            (0..2).map(|i| scenario.stream(500, i)).collect(),
            &cfg,
            lru_factory,
        );
        assert!(plain.merged_series.is_none());
        assert!(plain.to_json_value().get("series").is_none());
    }

    /// The report's JSON minus its wall-clock fields and, with `strip`,
    /// the `merged.latency_ns` histogram.
    fn counters_json(report: &FleetReport, strip: bool) -> Json {
        let mut v = report.to_json_value();
        let Json::Obj(fields) = &mut v else {
            unreachable!("the report is an object")
        };
        fields.retain(|(k, _)| k != "wall_ms" && k != "aggregate_requests_per_sec");
        for (k, f) in fields.iter_mut() {
            match (k.as_str(), f) {
                ("merged", Json::Obj(m)) if strip => m.retain(|(k, _)| k != "latency_ns"),
                ("shards", Json::Arr(shards)) => {
                    for shard in shards {
                        if let Json::Obj(s) = shard {
                            s.retain(|(k, _)| k != "elapsed_ms" && k != "requests_per_sec");
                        }
                    }
                }
                _ => {}
            }
        }
        v
    }

    #[test]
    fn timing_adds_latency_and_changes_no_counter() {
        let scenario = sqlvm_like();
        for window in [None, Some(700)] {
            let run = |timing: bool| {
                let mut cfg = FleetConfig::new(scenario.suggested_k);
                cfg.window = window;
                cfg.timing = timing;
                run_fleet(
                    (0..3).map(|i| scenario.stream(2_500, 80 + i)).collect(),
                    &cfg,
                    lru_factory,
                )
            };
            let (untimed, timed) = (run(false), run(true));
            for (a, b) in untimed.shards.iter().zip(&timed.shards) {
                assert_eq!(a.stats, b.stats, "window {window:?}");
                assert_eq!(a.series, b.series, "window {window:?}");
                let mut counters = b.recorder.total().clone();
                counters.latency_ns = None;
                assert_eq!(a.recorder.total(), &counters, "window {window:?}");
            }
            assert_eq!(timed.merged.latency_ns().count(), timed.total_requests);
            let plain = untimed.to_json_value();
            let merged = plain.get("merged").unwrap();
            assert!(merged.get("latency_ns").is_none(), "window {window:?}");
            assert_eq!(
                merged.get("requests").and_then(Json::as_u64),
                Some(untimed.total_requests)
            );
            assert_eq!(
                counters_json(&untimed, false),
                counters_json(&timed, true),
                "window {window:?}: same report bar the histogram"
            );
            assert_eq!(
                counters_json(&untimed, false),
                counters_json(&run(false), false),
                "window {window:?}: an untimed report is reproducible"
            );
        }
    }

    #[test]
    fn json_report_is_schema_stamped_and_consistent() {
        let scenario = two_tier();
        let cfg = FleetConfig::new(scenario.suggested_k);
        let report = run_fleet(
            (0..2).map(|i| scenario.stream(500, i)).collect(),
            &cfg,
            lru_factory,
        );
        let v = report.to_json_value();
        occ_probe::check_schema_stamp(&v, FLEET_SCHEMA, "fleet report").unwrap();
        assert_eq!(v.get("kind").unwrap().as_str(), Some("fleet-report"));
        let shards = v.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        let sum: u64 = shards
            .iter()
            .map(|s| s.get("requests").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(sum, v.get("total_requests").unwrap().as_u64().unwrap());
        let round = Json::parse(&v.to_json()).expect("report must parse back");
        assert_eq!(round, v);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_fleet_is_rejected() {
        let cfg = FleetConfig::new(4);
        run_fleet(Vec::<PatternSource>::new(), &cfg, lru_factory);
    }
}
