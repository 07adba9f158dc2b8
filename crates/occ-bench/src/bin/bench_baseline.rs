//! `bench_baseline` — the tracked throughput baseline.
//!
//! Runs a fixed policy × cache-size × workload matrix and writes
//! `BENCH_throughput.json` at the repository root with requests/second
//! and per-request latency percentiles (p50/p90/p99/p999, nanoseconds)
//! for each cell. The file is committed alongside performance work so
//! regressions show up in review as a diff, not as an anecdote. When a
//! committed baseline exists, the run also prints the throughput delta
//! per cell and flags regressions beyond 20% — this is the guard that
//! keeps the `NoopRecorder` path genuinely free.
//!
//! Matrix (fixed on purpose — comparable across commits):
//!
//! * policies: `lru`, `lru-reference`, `fifo`, `marking`, `greedy-dual`,
//!   `alg-discrete` (the paper's ConvexCaching on its convex fast path);
//! * cache sizes: `k = 1024` and `k = 4096`, universe `4k` pages;
//! * workloads: single-user Zipf(0.9) and a 4-tenant Zipf(0.8) mix.
//!
//! Throughput is the best of five full-trace replays (`NoopRecorder`
//! path); cells whose ratio matters — scalar vs batched, and the fleet
//! shard counts — run their reps *interleaved in one measurement
//! window*, so host-speed drift hits both sides of every ratio
//! equally. Latency percentiles come from a separate [`SteppingEngine`]
//! pass with a timed [`MetricsRecorder`] attached (the two passes are
//! separate so percentile instrumentation cannot distort the
//! throughput number). Total runtime is well under two minutes.
//!
//! The file's `host` object records `nproc` and the CPU model of the
//! machine that wrote it. Schema 3 adds a `mode` per entry (committed
//! entries without one are `scalar`):
//!
//! * `scalar` — the classic one-request-at-a-time replay above, driven
//!   through `Box<dyn ReplacementPolicy>` like the CLI does;
//! * `batched` — [`Simulator::run_batched`] over the same trace with the
//!   policy's **concrete type** (the batch kernel is a monomorphized
//!   tight loop — feeding it a trait object would measure the vtable,
//!   not the kernel), miss counts asserted byte-identical to the scalar
//!   cell; percentiles come from a second, timed stepping pass so the
//!   untimed throughput number stays clean (the untimed/timed pair);
//! * `fleet` — `shards` independent caches on worker threads, each
//!   replaying a pre-materialized Zipf(0.9) trace through the
//!   monomorphized [`run_fleet_typed`] path with recording off.
//!   `requests_per_sec` is **per core** (`"measures": "per-core"`):
//!   served requests over the sum of per-shard replay times, taken as
//!   the per-shard best-of-N composite — each shard's fastest replay
//!   window across the reps — the same statistic for every shard
//!   count, so 1-shard and 4-shard cells compare fairly.
//!   `wall_requests_per_sec` is the wall-clock aggregate (served
//!   requests over the fleet's best wall time), the only number that
//!   can show parallel scaling, bounded by the stamped `host.nproc`.
//!   Shard 0 replays the *same* trace as the scalar
//!   zipf-0.9 cell, and every shard is asserted byte-identical to its
//!   own sequential replay;
//! * `concurrent` — M worker threads contending for ONE shared k-sized
//!   cache (the `occ concurrent` engine). Before any timed rep, one
//!   recorded run's commit schedule is replayed single-threaded and
//!   asserted identical (per-user vectors, fault counters, quarantine
//!   set); the timed reps then run unrecorded and unverified.
//! * `tenant-scale` — ALG-DISCRETE at n ∈ {4, 64, 1024} tenants and
//!   fixed `k = 1024` over one 4096-page universe, stats asserted
//!   identical to the literal Figure 3 `DiscreteReference` before any
//!   rep; the row's rate is the batched kernel's, with the paired scalar
//!   rate beside it;
//! * `recorded` — the recorder layer in isolation: batched replay of
//!   the 4-tenant trace at `k = 1024`, windows of 10k requests, for lru
//!   and alg-discrete: `recorded` rows carry the timed pair
//!   `(MetricsRecorder, WindowedRecorder<false>)` (every request
//!   stamped, one sample per request asserted), `recorded-untimed` rows
//!   a hook-counting `WindowedRecorder<false>` alone with the whole-run
//!   tally folded from its series, and `recorded-cut` rows what `occ
//!   fleet --window` attaches: `StatsWindows<false>`, which compiles out
//!   of the engine, each window cut from the engine's counters at its
//!   boundary. Stats are asserted identical to the untimed batched
//!   replay, and the cut series identical to the hook-counted one,
//!   before any rep; the reps of all four run interleaved in one
//!   window, and each row carries its recorded/untimed ratio. `--recorded` prints just this block and
//!   leaves the baseline file untouched;
//! * `ingest` — pure trace-ingestion throughput (decode + validation +
//!   running CRC, no cache attached) over the three binary access
//!   strategies: zero-copy `mmap` of occbin01, `buffered` chunked reads
//!   of the same file, and `packed` streaming delta/varint decode of
//!   its occbin02 twin. Before any timed rep, the same fixture is
//!   replayed *through the engine* via all three strategies and the
//!   stats asserted byte-identical to an in-memory replay of the
//!   generating trace; the timed reps then run interleaved (one rep of
//!   every strategy per round) so the mmap/buffered ratio is immune to
//!   host-speed drift. `--ingest` runs just this block on the
//!   full-sized (10M-request) fixture, followed by an `encode/packed`
//!   row: occbin02 encode of the fixture through the writer's run-level
//!   appends (64 Ki-page runs, as `occ trace pack` feeds it) into an
//!   in-memory sink, asserted byte-identical to the whole-trace writer's
//!   file and to decode back before any rep, and an `ingest/mixer` row:
//!   the `sqlvm-like` tenant mixer read by per-request pulls and by
//!   `next_run`, drained with no engine and served by `serve_from` with
//!   LRU, streams and stats asserted identical first, reps interleaved.
//!   Those two rows are printed only, never written to the baseline
//!   file.
//!
//! `--smoke` runs a reduced matrix (lru/fifo/greedy-dual/alg-discrete ×
//! zipf-0.9 × both cache sizes, scalar vs batched, plus a 1-shard
//! fleet per cache size), asserts the miss counts match exactly, and —
//! when a committed baseline has matching cells — exits nonzero if any
//! smoke cell's *drift-normalized* throughput lands more than 10%
//! below it (see [`SMOKE_DELTA_GATE`]). CI greps for the `SMOKE OK`
//! marker. The exactness checks can never be flaky; the normalized
//! delta gate cancels host-speed waves instead of flapping with them.

use occ_baselines::{Fifo, GreedyDual, Lru, LruReference, Marking};
use occ_core::{ConvexCaching, CostProfile, DiscreteReference, Monomial};
use occ_fleet::{run_fleet_typed, run_shared_fleet, FleetConfig, SharedConfig};
use occ_probe::{Json, MetricsRecorder, StatsWindows, WindowedRecorder};
use occ_sim::{
    read_trace_binary_v2, write_trace_binary, write_trace_binary_v2, Binary2TraceReader,
    Binary2TraceWriter, BinarySource, BinaryTraceReader, CacheSet, EngineCtx, PageId,
    ReplacementPolicy, Request, RequestSource, SimStats, Simulator, SteppingEngine, Trace,
    TraceSource, Universe, DEFAULT_BATCH_SIZE,
};
use occ_workloads::{
    generate_multi_tenant, sqlvm_like, zipf_trace, AccessPattern, TenantMixSource, TenantSpec,
};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

const TRACE_LEN: usize = 200_000;
const CACHE_SIZES: [usize; 2] = [1024, 4096];
const THROUGHPUT_REPS: usize = 5;
/// Policies that get a batched-replay entry next to their scalar one.
const BATCHED_POLICIES: [&str; 4] = ["lru", "fifo", "greedy-dual", "alg-discrete"];
/// Shard counts for the fleet entries.
const FLEET_SHARDS: [usize; 2] = [1, 4];
/// Shared-cache concurrent cell geometry: M worker threads contending
/// for ONE k-sized cache whose policy keeps S segments.
const CONCURRENT_THREADS: usize = 4;
const CONCURRENT_TABLE_SHARDS: usize = 8;
/// Ingest cells: Zipf(0.9) fixture sizes for the full grid / `--ingest`
/// run and for `--smoke`, the universe they range over (same geometry
/// as the k=4096 scalar cells), and the three access strategies under
/// comparison.
const INGEST_TRACE_LEN: usize = 10_000_000;
const SMOKE_INGEST_TRACE_LEN: usize = 1_000_000;
const INGEST_K: usize = 4096;
const INGEST_PATHS: [&str; 3] = ["mmap", "buffered", "packed"];
/// ALG-DISCRETE tenant-scale cells: tenant count and workload name, at
/// one fixed cache size over a universe of `4 * TENANT_K` pages split
/// evenly between the tenants.
const TENANT_SCALE: [(u32, &str); 3] = [
    (4, "tenants-4x-zipf-0.8"),
    (64, "tenants-64x-zipf-0.8"),
    (1024, "tenants-1024x-zipf-0.8"),
];
const TENANT_K: usize = 1024;
/// Recorder-layer cells: the policies, the one cache size, and the
/// tumbling-window width of the attached `WindowedRecorder`.
const RECORDED_POLICIES: [&str; 2] = ["lru", "alg-discrete"];
const RECORDED_K: usize = 1024;
const RECORDED_WINDOW: u64 = 10_000;
/// `--smoke` fails the run when a cell's *drift-normalized* throughput
/// lands this far below the committed baseline. Batched cells gate on
/// their batched/scalar ratio vs the committed ratio (both sides of the
/// ratio share one measurement window, so host-speed waves cancel);
/// the fleet cell gates on its throughput corrected by the median
/// scalar machine factor of the same smoke block. Raw absolute deltas
/// would flap on the shared CI hosts, whose throughput drifts ±30% in
/// minutes-long waves.
const SMOKE_DELTA_GATE: f64 = -10.0;

struct Workload {
    name: &'static str,
    num_users: u32,
    trace: Trace,
}

/// The machine a baseline was measured on, stamped into the file: a
/// wall-clock multi-thread row means little without the core count.
struct Host {
    nproc: usize,
    cpu_model: String,
}

impl Host {
    fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines().find_map(|l| {
                    let (key, value) = l.split_once(':')?;
                    (key.trim() == "model name").then(|| value.trim().to_string())
                })
            })
            .unwrap_or_else(|| "unknown".into());
        Host { nproc, cpu_model }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}}}",
            self.nproc,
            Json::Str(self.cpu_model.clone()).to_json()
        )
    }
}

/// Spin the core to steady clock before any timed cell: frequency
/// governors ramp over tens of milliseconds, and the first cells of a
/// cold grid otherwise measure the ramp, not the engine. ~300 ms of
/// real replay work (the same kind the grid times) is plenty.
fn warm_up() {
    let trace = zipf_trace(4096, TRACE_LEN / 4, 0.9, 7);
    let deadline = Instant::now() + std::time::Duration::from_millis(300);
    while Instant::now() < deadline {
        let r = Simulator::new(1024).run(&mut Lru::new(), &trace);
        std::hint::black_box(r.total_misses());
    }
}

fn workloads(k: usize) -> Vec<Workload> {
    let pages = 4 * k as u32;
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|i| TenantSpec::new(k as u32, 1.0 + i as f64, AccessPattern::Zipf { s: 0.8 }))
        .collect();
    vec![
        Workload {
            name: "zipf-0.9",
            num_users: 1,
            trace: zipf_trace(pages, TRACE_LEN, 0.9, 11),
        },
        Workload {
            name: "tenants-4x-zipf-0.8",
            num_users: 4,
            trace: generate_multi_tenant(&tenants, TRACE_LEN, 5),
        },
    ]
}

fn policy_suite(num_users: u32) -> Vec<(&'static str, Box<dyn ReplacementPolicy>)> {
    let costs = CostProfile::uniform(num_users, Monomial::power(2.0));
    vec![
        ("lru", Box::new(Lru::new()) as Box<dyn ReplacementPolicy>),
        ("lru-reference", Box::new(LruReference::new())),
        ("fifo", Box::new(Fifo::new())),
        ("marking", Box::new(Marking::new())),
        ("greedy-dual", Box::new(GreedyDual::unweighted(num_users))),
        ("alg-discrete", Box::new(ConvexCaching::new(costs))),
    ]
}

struct Measurement {
    requests_per_sec: f64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    misses: u64,
}

fn measure(policy: &mut Box<dyn ReplacementPolicy>, wl: &Workload, k: usize) -> Measurement {
    // Throughput: best of N full replays (batch engine, NoopRecorder —
    // the uninstrumented path this file guards).
    let mut best = f64::INFINITY;
    let mut misses = 0;
    for _ in 0..THROUGHPUT_REPS {
        policy.reset();
        let start = Instant::now();
        let result = Simulator::new(k).run(policy, &wl.trace);
        let secs = start.elapsed().as_secs_f64();
        best = best.min(secs);
        misses = result.total_misses();
    }
    let requests_per_sec = wl.trace.len() as f64 / best;

    // Latency percentiles: a scalar stepping pass with a timed
    // recorder, so the engine reads a clock before and after each
    // request and feeds the shared log-linear histogram. Timer overhead
    // (~tens of ns) is included in every sample equally.
    policy.reset();
    let requests: Vec<Request> = wl.trace.iter().map(|(_, r)| r).collect();
    let mut rec = MetricsRecorder::new();
    let mut engine =
        SteppingEngine::new(k, wl.trace.universe().clone(), &mut *policy).with_recorder(&mut rec);
    for &req in &requests {
        engine.step(req);
    }
    drop(engine);
    let lat = rec.latency_ns();
    Measurement {
        requests_per_sec,
        p50_ns: lat.p50(),
        p90_ns: lat.p90(),
        p99_ns: lat.p99(),
        p999_ns: lat.p999(),
        misses,
    }
}

/// One committed baseline cell: (policy, workload, k, mode, req/s).
type CommittedCell = (String, String, u64, String, f64);

/// The committed baseline's throughput per (policy, workload, k, mode)
/// cell, if a parseable `BENCH_throughput.json` exists at `path`.
/// Entries from schema ≤ 2 carry no `mode` and default to `scalar`.
fn load_committed(path: &Path) -> Vec<CommittedCell> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    // Newer baselines are sealed with a `#crc32:` trailer; older
    // trailer-less ones are still accepted, but a checksum mismatch
    // means a torn write and the file cannot be trusted.
    let body = match occ_probe::verify_trailer(&text) {
        Ok((body, _had_trailer)) => body,
        Err(e) => {
            eprintln!("warning: committed baseline corrupt ({e}); skipping delta report");
            return Vec::new();
        }
    };
    let Ok(doc) = Json::parse(body) else {
        eprintln!("warning: committed baseline does not parse; skipping delta report");
        return Vec::new();
    };
    let mut cells = Vec::new();
    if let Some(entries) = doc.get("entries").and_then(Json::as_array) {
        for e in entries {
            let get_str = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
            if let (Some(policy), Some(workload), Some(k), Some(rps)) = (
                get_str("policy"),
                get_str("workload"),
                e.get("k").and_then(Json::as_u64),
                e.get("requests_per_sec").and_then(Json::as_f64),
            ) {
                let mode = get_str("mode").unwrap_or_else(|| "scalar".into());
                cells.push((policy, workload, k, mode, rps));
            }
        }
    }
    cells
}

/// The committed baseline's req/s for one cell, if present.
fn committed_rps(
    committed: &[CommittedCell],
    policy: &str,
    workload: &str,
    k: usize,
    mode: &str,
) -> Option<f64> {
    committed
        .iter()
        .find(|(p, w, ck, m, _)| p == policy && w == workload && *ck == k as u64 && m == mode)
        .map(|&(_, _, _, _, rps)| rps)
}

/// Throughput delta vs the committed baseline for one cell, if present.
fn delta_vs_committed(
    committed: &[CommittedCell],
    policy: &str,
    workload: &str,
    k: usize,
    mode: &str,
    rps: f64,
) -> Option<f64> {
    committed
        .iter()
        .find(|(p, w, ck, m, _)| p == policy && w == workload && *ck == k as u64 && m == mode)
        .map(|&(_, _, _, _, old_rps)| (rps - old_rps) / old_rps * 100.0)
}

/// Delta line vs the committed baseline for one cell, counting ≤ −20%
/// moves as regressions.
fn delta_text(
    committed: &[CommittedCell],
    policy: &str,
    workload: &str,
    k: usize,
    mode: &str,
    rps: f64,
    regressions: &mut u32,
) -> String {
    match delta_vs_committed(committed, policy, workload, k, mode, rps) {
        Some(d) if d <= -20.0 => {
            *regressions += 1;
            format!("   Δ {d:+.1}%  <-- REGRESSION")
        }
        Some(d) => format!("   Δ {d:+.1}%"),
        None => String::new(),
    }
}

/// Paired scalar/batched cell: the scalar reps (`Box<dyn>`, like the
/// CLI) and the batched reps (monomorphized, with the engine *owning*
/// the policy — the zero-indirection configuration the fleet runner
/// uses, measurably faster than driving through `&mut P`) run
/// **interleaved in one measurement window**. This machine's throughput
/// drifts in minutes-long waves; pairing the reps means both sides of
/// the scalar-vs-batched ratio see the same conditions, so the ratio
/// stays meaningful even when the absolute numbers wander. Every rep
/// asserts the batched stats byte-identical to the scalar run's.
/// Percentiles come from separate *timed* stepping passes afterwards
/// (the untimed/timed pair: instrumentation never touches the
/// throughput numbers).
fn measure_pair<P: ReplacementPolicy>(
    make: impl Fn() -> P,
    policy: &mut Box<dyn ReplacementPolicy>,
    wl: &Workload,
    k: usize,
    reps: usize,
) -> (Measurement, Measurement) {
    let mut best_s = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut stats: Option<SimStats> = None;
    for _ in 0..reps {
        policy.reset();
        let start = Instant::now();
        let result = Simulator::new(k).run(policy, &wl.trace);
        best_s = best_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut engine = SteppingEngine::new(k, wl.trace.universe().clone(), make());
        engine.run_batched(wl.trace.requests(), DEFAULT_BATCH_SIZE);
        best_b = best_b.min(start.elapsed().as_secs_f64());

        assert_eq!(
            &result.stats,
            engine.stats(),
            "batched replay diverged from scalar"
        );
        stats = Some(result.stats);
    }
    let misses = stats.expect("at least one rep").total_misses();

    policy.reset();
    let mut rec = MetricsRecorder::new();
    let mut engine =
        SteppingEngine::new(k, wl.trace.universe().clone(), &mut **policy).with_recorder(&mut rec);
    for &req in wl.trace.requests() {
        engine.step(req);
    }
    drop(engine);
    let lat = rec.latency_ns();
    let scalar = Measurement {
        requests_per_sec: wl.trace.len() as f64 / best_s,
        p50_ns: lat.p50(),
        p90_ns: lat.p90(),
        p99_ns: lat.p99(),
        p999_ns: lat.p999(),
        misses,
    };

    let mut rec = MetricsRecorder::new();
    let mut engine =
        SteppingEngine::new(k, wl.trace.universe().clone(), make()).with_recorder(&mut rec);
    for chunk in wl.trace.requests().chunks(DEFAULT_BATCH_SIZE) {
        engine.step_batch(chunk);
    }
    drop(engine);
    let lat = rec.latency_ns();
    let batched = Measurement {
        requests_per_sec: wl.trace.len() as f64 / best_b,
        p50_ns: lat.p50(),
        p90_ns: lat.p90(),
        p99_ns: lat.p99(),
        p999_ns: lat.p999(),
        misses,
    };
    (scalar, batched)
}

/// Build the concrete policy constructor for `label` and run the paired
/// measurement — each arm instantiates [`measure_pair`] with a distinct
/// `P`, which is the whole point.
fn paired_cell(
    label: &str,
    policy: &mut Box<dyn ReplacementPolicy>,
    wl: &Workload,
    k: usize,
    reps: usize,
) -> (Measurement, Measurement) {
    match label {
        "lru" => measure_pair(Lru::new, policy, wl, k, reps),
        "fifo" => measure_pair(Fifo::new, policy, wl, k, reps),
        "greedy-dual" => measure_pair(|| GreedyDual::unweighted(wl.num_users), policy, wl, k, reps),
        "alg-discrete" => {
            let costs = CostProfile::uniform(wl.num_users, Monomial::power(2.0));
            measure_pair(|| ConvexCaching::new(costs.clone()), policy, wl, k, reps)
        }
        other => unreachable!("no concrete constructor for {other}"),
    }
}

/// Pre-materialized fleet workloads: shard 0 replays the *same*
/// zipf-0.9 trace as the scalar cell (seed 11), further shards get
/// their own seeds. Generation happens before any clock starts — the
/// timed loop measures the engine, not the sampler.
fn fleet_traces(shards: usize, k: usize) -> Vec<Trace> {
    let pages = 4 * k as u32;
    (0..shards)
        .map(|i| zipf_trace(pages, TRACE_LEN, 0.9, 11 + i as u64))
        .collect()
}

/// One fleet cell: `shards` independent LRU caches of size `k`, each
/// replaying its pre-materialized trace through the monomorphized
/// typed path with recording off.
fn measure_fleet(traces: &[Trace], k: usize) -> FleetRates {
    let mut cell = FleetCellTimer::new(traces.len());
    for _ in 0..THROUGHPUT_REPS {
        cell.rep(traces, k);
    }
    cell.result()
}

/// A fleet cell's two throughputs. They answer different questions:
/// `per_core` is what one busy core serves (requests over the *sum* of
/// per-shard replay times), `wall` is what the fleet serves
/// (requests over the fleet's wall-clock time). Only `wall` can show
/// parallel scaling, and only up to the host's core count.
struct FleetRates {
    per_core: f64,
    wall: f64,
    misses: u64,
}

/// Accumulates fleet throughput. The per-core rate is the **per-shard
/// best-of-N composite**: each shard's fastest replay window across
/// the reps, summed. For one shard this is exactly the classic
/// best-of-N; for many shards it is the *same statistic* — whereas
/// best-of-N of the run-level aggregate takes the max of a mean of
/// several noisy shard times, which sits systematically below the max
/// of a single one and makes multi-shard cells look ~2% slower than
/// they are on this machine. The wall-clock rate is best-of-N of the
/// whole fleet run.
struct FleetCellTimer {
    best: Vec<f64>,
    best_wall: f64,
    served: u64,
    misses: u64,
}

impl FleetCellTimer {
    fn new(shards: usize) -> Self {
        FleetCellTimer {
            best: vec![f64::INFINITY; shards],
            best_wall: f64::INFINITY,
            served: 0,
            misses: 0,
        }
    }

    /// One timed fleet replay (recording off).
    fn rep(&mut self, traces: &[Trace], k: usize) {
        let mut cfg = FleetConfig::new(k);
        cfg.record = false;
        let sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let report = run_fleet_typed(sources, &cfg, |_| Lru::new());
        self.served = report.total_requests;
        self.misses = report.total_misses();
        for (b, s) in self.best.iter_mut().zip(&report.shards) {
            *b = b.min(s.elapsed.as_secs_f64());
        }
        self.best_wall = self.best_wall.min(report.wall.as_secs_f64());
    }

    fn result(&self) -> FleetRates {
        FleetRates {
            per_core: self.served as f64 / self.best.iter().sum::<f64>(),
            wall: self.served as f64 / self.best_wall,
            misses: self.misses,
        }
    }
}

/// Untimed cross-check on the recording path: every fleet shard must be
/// byte-identical to a sequential replay of its own trace, and shard
/// 0's misses must equal the scalar zipf-0.9 LRU cell's (same trace).
/// Returns the expected total misses for the timed fleet cell.
fn assert_fleet_matches_scalar(traces: &[Trace], k: usize, scalar_misses: u64) -> u64 {
    let cfg = FleetConfig::new(k);
    let sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
    let report = run_fleet_typed(sources, &cfg, |_| Lru::new());
    for (shard, trace) in report.shards.iter().zip(traces) {
        let seq = Simulator::new(k).run(&mut Lru::new(), trace);
        assert_eq!(
            shard.stats, seq.stats,
            "fleet shard {} diverged from its sequential replay",
            shard.shard
        );
    }
    assert_eq!(
        report.shards[0].stats.total_misses(),
        scalar_misses,
        "fleet shard 0 must replay the scalar zipf-0.9 workload byte-identically"
    );
    report.total_misses()
}

/// Per-thread multi-tenant traces for the shared-cache concurrent cell
/// — same 4-tenant Zipf(0.8) geometry as the grid's multi-tenant
/// workload, decorrelated per-thread seeds, one shared universe.
/// Materialized before any clock starts.
fn concurrent_traces(k: usize) -> Vec<Trace> {
    let tenants: Vec<TenantSpec> = (0..4)
        .map(|i| TenantSpec::new(k as u32, 1.0 + i as f64, AccessPattern::Zipf { s: 0.8 }))
        .collect();
    (0..CONCURRENT_THREADS)
        .map(|t| generate_multi_tenant(&tenants, TRACE_LEN, 5 + t as u64))
        .collect()
}

/// One concurrent shared-cache cell: M worker threads replay their
/// pre-materialized traces against a single k-sized LRU cache. The
/// miss-identity gate runs FIRST and untimed — one recorded run whose
/// commit schedule is replayed single-threaded and asserted identical
/// (per-user vectors, fault counters, quarantine set) — so no
/// throughput number can exist for a run the replay would reject. The
/// timed reps then use the uninstrumented path (recording and
/// verification off; the schedule is still recorded, its length is the
/// commit count). Returns (best-of-N req/s, commits per rep).
fn measure_concurrent(traces: &[Trace], k: usize, reps: usize) -> (f64, u64) {
    let universe = traces[0].universe().clone();
    let mut cfg = SharedConfig::new(k);
    cfg.table_shards = CONCURRENT_TABLE_SHARDS;
    let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
    let verified = run_shared_fleet(universe.clone(), &cfg, &mut sources, |_| Lru::new())
        .expect("concurrent run diverged from its single-thread replay");
    let commits = verified.outcome.schedule.len() as u64;

    cfg.record = false;
    cfg.verify = false;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let report = run_shared_fleet(universe.clone(), &cfg, &mut sources, |_| Lru::new())
            .expect("unverified concurrent runs cannot fail");
        assert_eq!(
            report.outcome.schedule.len() as u64,
            commits,
            "concurrent rep consumed a different number of records"
        );
        best = best.min(report.wall.as_secs_f64());
    }
    (commits as f64 / best, commits)
}

/// Temp-file fixture for the ingest cells: one Zipf(0.9) trace
/// materialized as a fixed-width occbin01 file and its packed occbin02
/// twin, deleted on drop. Generation and encoding happen before any
/// clock starts.
struct IngestFixture {
    trace: Trace,
    v1: PathBuf,
    v2: PathBuf,
    v1_bytes: u64,
    v2_bytes: u64,
}

impl IngestFixture {
    fn materialize(len: usize) -> IngestFixture {
        let pages = 4 * INGEST_K as u32;
        let trace = zipf_trace(pages, len, 0.9, 11);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let v1 = dir.join(format!("occ-bench-ingest-{pid}-{len}.occbin01"));
        let v2 = dir.join(format!("occ-bench-ingest-{pid}-{len}.occbin02"));
        let mut w = std::io::BufWriter::new(File::create(&v1).expect("create occbin01 fixture"));
        write_trace_binary(&trace, &mut w).expect("encode occbin01 fixture");
        w.flush().expect("flush occbin01 fixture");
        let mut w = std::io::BufWriter::new(File::create(&v2).expect("create occbin02 fixture"));
        write_trace_binary_v2(&trace, &mut w).expect("encode occbin02 fixture");
        w.flush().expect("flush occbin02 fixture");
        let size = |p: &Path| std::fs::metadata(p).expect("stat fixture").len();
        let (v1_bytes, v2_bytes) = (size(&v1), size(&v2));
        IngestFixture {
            trace,
            v1,
            v2,
            v1_bytes,
            v2_bytes,
        }
    }
}

impl Drop for IngestFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.v1);
        let _ = std::fs::remove_file(&self.v2);
    }
}

/// Open the fixture under one specific access strategy. `BinarySource::
/// open` would pick mmap on its own whenever it can; the bench needs
/// the buffered path *forced* so the two can be compared on the same
/// file.
fn open_ingest_source(fx: &IngestFixture, strategy: &str) -> BinarySource {
    let src = match strategy {
        "mmap" => {
            let file = File::open(&fx.v1).expect("open occbin01 fixture");
            BinarySource::Fixed(BinaryTraceReader::map(&file).expect("map occbin01 fixture"))
        }
        "buffered" => {
            let r = BufReader::new(File::open(&fx.v1).expect("open occbin01 fixture"));
            BinarySource::Fixed(BinaryTraceReader::new(r).expect("parse occbin01 header"))
        }
        _ => {
            let r = BufReader::new(File::open(&fx.v2).expect("open occbin02 fixture"));
            BinarySource::Packed(Binary2TraceReader::new(r).expect("parse occbin02 header"))
        }
    };
    assert_eq!(
        src.strategy(),
        strategy,
        "fixture opened under the wrong strategy"
    );
    src
}

/// Miss-identity gate for the ingest cells: replay the fixture through
/// the engine via every access strategy and assert the stats
/// byte-identical to an in-memory replay of the generating trace.
/// Untimed, and runs before any throughput number can exist.
fn assert_ingest_identity(fx: &IngestFixture, k: usize) {
    let reference = Simulator::new(k).run(&mut Lru::new(), &fx.trace);
    for strategy in INGEST_PATHS {
        let mut src = open_ingest_source(fx, strategy);
        let mut engine = SteppingEngine::new(k, src.universe().clone(), Lru::new());
        let mut buf = Vec::new();
        while engine.serve_from(&mut src, DEFAULT_BATCH_SIZE, &mut buf) > 0 {}
        src.finish().expect("ingest identity replay ended early");
        assert_eq!(
            engine.stats(),
            &reference.stats,
            "{strategy} replay diverged from the in-memory trace"
        );
    }
}

/// Drain a source to exhaustion without a cache attached — decode,
/// validation and the running CRC are the work being timed. Returns the
/// number of requests served.
fn drain_ingest(src: &mut BinarySource) -> u64 {
    let mut served = 0u64;
    loop {
        if let Some(run) = src.next_page_run(DEFAULT_BATCH_SIZE) {
            served += run.len() as u64;
            std::hint::black_box(run.last().copied());
            continue;
        }
        if let Some(run) = src.next_run(DEFAULT_BATCH_SIZE) {
            served += run.len() as u64;
            std::hint::black_box(run.last().copied());
            continue;
        }
        return served;
    }
}

/// Timed ingest reps, interleaved — one rep of every strategy per round,
/// so host-speed drift hits all three equally and the ratios stay
/// meaningful. Each rep re-opens its source (header parse included in
/// the timing: it is part of ingestion, and identical per strategy) and
/// must drain the full stream and pass the footer check before its time
/// counts. Returns `(strategy, req/s)` per strategy.
fn measure_ingest(fx: &IngestFixture, reps: usize) -> Vec<(&'static str, f64)> {
    let len = fx.trace.len() as u64;
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        for (slot, strategy) in INGEST_PATHS.iter().enumerate() {
            let start = Instant::now();
            let mut src = open_ingest_source(fx, strategy);
            let served = drain_ingest(&mut src);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(served, len, "{strategy} drain served a short stream");
            src.finish()
                .expect("drained fixture must pass its footer check");
            best[slot] = best[slot].min(secs);
        }
    }
    INGEST_PATHS
        .iter()
        .zip(best)
        .map(|(&s, b)| (s, len as f64 / b))
        .collect()
}

/// Run the full ingest block: gate, timed cells, the mmap/buffered and
/// occbin02/occbin01 headline ratios. Prints one line per cell (with
/// `prefix` in front, so `--smoke` emits greppable `SMOKE ingest/...`
/// rows) and returns JSON rows for the baseline file.
fn ingest_block(
    fx: &IngestFixture,
    reps: usize,
    prefix: &str,
    committed: &[CommittedCell],
    regressions: &mut u32,
) -> Vec<String> {
    let len = fx.trace.len();
    assert_ingest_identity(fx, INGEST_K);
    let cells = measure_ingest(fx, reps);
    let mut rows = Vec::new();
    let rps_of = |s: &str| {
        cells
            .iter()
            .find(|(c, _)| *c == s)
            .map(|&(_, r)| r)
            .expect("all three strategies measured")
    };
    for (strategy, rps) in &cells {
        let label = format!("ingest/{strategy}");
        let bytes = if *strategy == "packed" {
            fx.v2_bytes
        } else {
            fx.v1_bytes
        };
        let delta = delta_text(
            committed,
            &label,
            "zipf-0.9",
            INGEST_K,
            "ingest",
            *rps,
            regressions,
        );
        println!(
            "{prefix}{label:>16}  k={INGEST_K:<5} {:<20} {rps:>12.0} req/s   (decode only, {bytes} B, miss-identity ok){delta}",
            "zipf-0.9"
        );
        let mut row = String::new();
        write!(
            row,
            "    {{\"policy\": \"{label}\", \"workload\": \"zipf-0.9\", \"k\": {INGEST_K}, \
             \"universe_pages\": {}, \"trace_len\": {len}, \"mode\": \"ingest\", \
             \"requests_per_sec\": {rps:.0}, \"file_bytes\": {bytes}}}",
            4 * INGEST_K,
        )
        .unwrap();
        rows.push(row);
    }
    let ratio = rps_of("mmap") / rps_of("buffered");
    let size_ratio = fx.v2_bytes as f64 / fx.v1_bytes as f64;
    println!(
        "{prefix}ingest ratios: mmap {ratio:.2}x buffered; occbin02 {} B = {size_ratio:.2}x \
         occbin01 {} B ({len} requests)",
        fx.v2_bytes, fx.v1_bytes
    );
    rows
}

/// `n` tenants over a `4 * TENANT_K`-page universe, Zipf(0.8) within
/// each, arrival weights cycling through 1..=4. At `n = 4` this is the
/// `tenants-4x-zipf-0.8` trace of the `k = 1024` grid cells.
fn tenant_scale_workload(n: u32, name: &'static str) -> Workload {
    let pages = 4 * TENANT_K as u32 / n;
    let tenants: Vec<TenantSpec> = (0..n)
        .map(|i| TenantSpec::new(pages, 1.0 + (i % 4) as f64, AccessPattern::Zipf { s: 0.8 }))
        .collect();
    Workload {
        name,
        num_users: n,
        trace: generate_multi_tenant(&tenants, TRACE_LEN, 5),
    }
}

/// ALG-DISCRETE as the tenant count grows at fixed `k`: each eviction
/// scans every tenant's lane, so this is where that `O(n)` term shows.
/// Per tenant count, the run's stats are first asserted identical to
/// the literal Figure 3 [`DiscreteReference`], then scalar and batched
/// reps are measured paired. Rows carry the batched (kernel) rate with
/// the scalar rate beside it.
fn tenant_scale_block(
    reps: usize,
    committed: &[CommittedCell],
    regressions: &mut u32,
) -> Vec<String> {
    let mut rows = Vec::new();
    for (n, name) in TENANT_SCALE {
        let wl = tenant_scale_workload(n, name);
        let costs = CostProfile::uniform(n, Monomial::power(2.0));
        let reference = Simulator::new(TENANT_K)
            .run(&mut DiscreteReference::new(costs.clone()), &wl.trace)
            .stats;
        let fast = Simulator::new(TENANT_K)
            .run(&mut ConvexCaching::new(costs.clone()), &wl.trace)
            .stats;
        assert_eq!(
            fast, reference,
            "alg-discrete diverged from Figure 3 at n={n}"
        );

        let mut policy: Box<dyn ReplacementPolicy> = Box::new(ConvexCaching::new(costs.clone()));
        let (ms, mb) = measure_pair(
            || ConvexCaching::new(costs.clone()),
            &mut policy,
            &wl,
            TENANT_K,
            reps,
        );
        let delta = delta_text(
            committed,
            "alg-discrete",
            name,
            TENANT_K,
            "tenant-scale",
            mb.requests_per_sec,
            regressions,
        );
        println!(
            "{:>16}  k={TENANT_K:<5} {name:<22} {:>12.0} req/s   (scalar {:.0})   p50 {:>6} ns   p99 {:>7} ns   p999 {:>7} ns   misses {} (= Figure 3){delta}",
            "alg-discrete",
            mb.requests_per_sec,
            ms.requests_per_sec,
            mb.p50_ns,
            mb.p99_ns,
            mb.p999_ns,
            mb.misses
        );
        let mut row = String::new();
        write!(
            row,
            "    {{\"policy\": \"alg-discrete\", \"workload\": \"{name}\", \"k\": {TENANT_K}, \
             \"universe_pages\": {}, \"trace_len\": {}, \"mode\": \"tenant-scale\", \
             \"tenants\": {n}, \"batch_size\": {DEFAULT_BATCH_SIZE}, \
             \"requests_per_sec\": {:.0}, \"scalar_requests_per_sec\": {:.0}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"misses\": {}}}",
            4 * TENANT_K,
            wl.trace.len(),
            mb.requests_per_sec,
            ms.requests_per_sec,
            mb.p50_ns,
            mb.p90_ns,
            mb.p99_ns,
            mb.p999_ns,
            mb.misses
        )
        .unwrap();
        rows.push(row);
    }
    rows
}

/// One recorder-layer cell: untimed batched replay, batched replay with
/// the timed fleet's recorder pair, batched replay with hook-counted
/// untimed windows alone (the whole-run tally folded from the series),
/// and batched replay with the windows `occ fleet --window` now cuts
/// from the engine's counters at each boundary ([`StatsWindows`],
/// batches ending on window boundaries). Stats are asserted identical,
/// and the cut series identical to the hook-counted one, before any
/// rep; then best-of-`reps` of each with the reps interleaved. Returns
/// req/s of (untimed batched, timed pair, hook-counted windows, cut
/// windows) and the misses.
fn measure_recorded<P: ReplacementPolicy>(
    make: impl Fn() -> P,
    wl: &Workload,
    k: usize,
    reps: usize,
) -> (f64, f64, f64, f64, u64) {
    let requests = wl.trace.requests();
    let windows = || WindowedRecorder::<false>::new(RECORDED_WINDOW).with_ring_capacity(usize::MAX);
    let untimed = || {
        let mut engine = SteppingEngine::new(k, wl.trace.universe().clone(), make());
        engine.run_batched(requests, DEFAULT_BATCH_SIZE);
        engine.stats().clone()
    };
    let recorded = || {
        let mut engine = SteppingEngine::new(k, wl.trace.universe().clone(), make())
            .with_recorder((MetricsRecorder::new(), windows()));
        engine.run_batched(requests, DEFAULT_BATCH_SIZE);
        let samples = engine.recorder().0.latency_ns().count();
        assert_eq!(samples, requests.len() as u64, "one sample per request");
        engine.stats().clone()
    };
    let recorded_untimed = || {
        let mut engine =
            SteppingEngine::new(k, wl.trace.universe().clone(), make()).with_recorder(windows());
        engine.run_batched(requests, DEFAULT_BATCH_SIZE);
        let end = engine.time();
        let stats = engine.stats().clone();
        let mut windows = engine.into_recorder();
        windows.finalize(end);
        let series = windows.into_series();
        let tally = MetricsRecorder::<false>::from_total(series.total());
        assert_eq!(tally.total().requests(), requests.len() as u64);
        assert_eq!(tally.total().misses_by_user, stats.miss_vector());
        (stats, series)
    };
    let recorded_cut = || {
        let engine = SteppingEngine::new(k, wl.trace.universe().clone(), make());
        let cut = StatsWindows::<false>::starting_at(RECORDED_WINDOW, 0, engine.stats())
            .with_ring_capacity(usize::MAX);
        let mut engine = engine.with_recorder(cut);
        for window in requests.chunks(RECORDED_WINDOW as usize) {
            engine.run_batched(window, DEFAULT_BATCH_SIZE);
            let t = engine.time();
            let (cut, stats) = engine.recorder_and_stats();
            cut.cut(t, stats);
        }
        let end = engine.time();
        let (cut, stats) = engine.recorder_and_stats();
        cut.finalize(end, stats);
        let stats = stats.clone();
        let series = engine.into_recorder().into_series();
        let tally = MetricsRecorder::<false>::from_total(series.total());
        assert_eq!(tally.total().requests(), requests.len() as u64);
        (stats, series)
    };
    let stats = untimed();
    assert_eq!(recorded(), stats, "recorded replay diverged from untimed");
    let (hooked_stats, hooked) = recorded_untimed();
    assert_eq!(hooked_stats, stats, "untimed recorded replay diverged");
    let (cut_stats, cut) = recorded_cut();
    assert_eq!(cut_stats, stats, "cut-window replay diverged");
    assert_eq!(cut, hooked, "cut windows differ from hook-counted windows");
    fn secs<T>(run: &impl Fn() -> T) -> f64 {
        let start = Instant::now();
        std::hint::black_box(run());
        start.elapsed().as_secs_f64()
    }
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        best[0] = best[0].min(secs(&untimed));
        best[1] = best[1].min(secs(&recorded));
        best[2] = best[2].min(secs(&recorded_untimed));
        best[3] = best[3].min(secs(&recorded_cut));
    }
    let n = requests.len() as f64;
    let [untimed, recorded, hooked, cut] = best.map(|s| n / s);
    (untimed, recorded, hooked, cut, stats.total_misses())
}

/// The `recorded` rows: what the fleet's recorders cost on top of the
/// batched kernel, per policy in [`RECORDED_POLICIES`], timed (mode
/// `recorded`), untimed hook-counted windows (mode `recorded-untimed`)
/// and untimed windows cut from the counters (mode `recorded-cut`).
fn recorded_block(reps: usize) -> Vec<String> {
    let wl = workloads(RECORDED_K)
        .into_iter()
        .find(|w| w.name == "tenants-4x-zipf-0.8")
        .expect("the 4-tenant workload");
    let mut rows = Vec::new();
    for label in RECORDED_POLICIES {
        let (untimed, recorded, recorded_untimed, recorded_cut, misses) = match label {
            "lru" => measure_recorded(Lru::new, &wl, RECORDED_K, reps),
            _ => {
                let costs = CostProfile::uniform(wl.num_users, Monomial::power(2.0));
                measure_recorded(|| ConvexCaching::new(costs.clone()), &wl, RECORDED_K, reps)
            }
        };
        for (mode, rate) in [
            ("recorded", recorded),
            ("recorded-untimed", recorded_untimed),
            ("recorded-cut", recorded_cut),
        ] {
            let ratio = rate / untimed;
            println!(
                "{:>24}  k={RECORDED_K:<5} {:<20} {rate:>12.0} req/s   (untimed batched \
                 {untimed:.0}, recorded/untimed {ratio:.3}, paired best-of-{reps})   \
                 misses {misses} (= untimed)",
                format!("{label}/{mode}"),
                wl.name,
            );
            let mut row = String::new();
            write!(
                row,
                "    {{\"policy\": \"{label}\", \"workload\": \"{}\", \"k\": {RECORDED_K}, \
                 \"universe_pages\": {}, \"trace_len\": {}, \"mode\": \"{mode}\", \
                 \"batch_size\": {DEFAULT_BATCH_SIZE}, \"window\": {RECORDED_WINDOW}, \
                 \"requests_per_sec\": {rate:.0}, \"untimed_requests_per_sec\": {untimed:.0}, \
                 \"recorded_over_untimed\": {ratio:.3}, \"misses\": {misses}}}",
                wl.name,
                4 * RECORDED_K,
                wl.trace.len(),
            )
            .unwrap();
            rows.push(row);
        }
    }
    rows
}

/// `--ingest`: just the ingest block, on the full-sized fixture. The
/// baseline file is left untouched — this mode exists for iterating on
/// the ingestion paths without re-running the whole grid.
fn run_ingest(committed: &[CommittedCell]) {
    warm_up();
    let mut regressions = 0u32;
    let fx = IngestFixture::materialize(INGEST_TRACE_LEN);
    ingest_block(&fx, THROUGHPUT_REPS, "", committed, &mut regressions);
    encode_row(&fx, THROUGHPUT_REPS);
    mixer_row(THROUGHPUT_REPS);
    if regressions > 0 {
        eprintln!(
            "warning: {regressions} ingest cell(s) regressed more than 20% vs the committed baseline"
        );
    }
    println!(
        "INGEST OK: all three strategies replay miss-identical to the in-memory trace, and the \
         run-level encode is byte-identical to the whole-trace writer"
    );
}

/// Requests per pass in the `ingest/mixer` row.
const MIXER_LEN: u64 = 4_000_000;
/// Cache size of the row's served passes: `sqlvm-like`'s suggested k.
const MIXER_K: usize = 96;

/// The mixer with its runs hidden: read one request at a time, as
/// `serve_from` reads every source that hands out no runs.
struct Pulled(TenantMixSource);

impl RequestSource for Pulled {
    fn universe(&self) -> &Universe {
        self.0.universe()
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        self.0.next_request(ctx)
    }
}

/// Drain `src` with no engine, in [`DEFAULT_BATCH_SIZE`] batches taken
/// the way `serve_from` takes them (a run if the source has one, else
/// pulls into `buf`), handing each batch to `each`.
fn drain_mixer<S: RequestSource>(
    mut src: S,
    buf: &mut Vec<Request>,
    mut each: impl FnMut(&[Request]),
) {
    let universe = src.universe().clone();
    let (cache, stats) = (CacheSet::new(1, universe.num_pages()), SimStats::new(1));
    let ctx = EngineCtx {
        time: 0,
        cache: &cache,
        stats: &stats,
        universe: &universe,
    };
    loop {
        if let Some(run) = src.next_run(DEFAULT_BATCH_SIZE) {
            each(run);
            continue;
        }
        buf.clear();
        while buf.len() < DEFAULT_BATCH_SIZE {
            let Some(req) = src.next_request(&ctx) else {
                break;
            };
            buf.push(req);
        }
        if buf.is_empty() {
            return;
        }
        each(buf);
    }
}

/// Serve `src` with LRU at [`MIXER_K`] through `serve_from`, as every
/// `--scenario` command does, and return the stats.
fn serve_mixer<S: RequestSource>(mut src: S, buf: &mut Vec<Request>) -> SimStats {
    let mut eng = SteppingEngine::new(MIXER_K, src.universe().clone(), Lru::new());
    while eng.serve_from(&mut src, DEFAULT_BATCH_SIZE, buf) > 0 {}
    assert_eq!(eng.time(), MIXER_LEN, "served a short stream");
    eng.stats().clone()
}

/// Wall-clock seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The `ingest/mixer` row (`--ingest` only): the `sqlvm-like` tenant
/// mixer read by per-request pulls ([`Pulled`]) and by `next_run`, once
/// drained with no engine and once served by `serve_from` with LRU.
/// The two streams are first asserted identical batch for batch, and
/// the two served passes' stats equal; then the reps of all four run
/// interleaved in one window. Best of `reps` each, wall-clock on one
/// core; printed only, never written to the baseline file. The two
/// read alike here, where the pull loop gets the mixer's draw inlined.
/// In `occ`, before `next_run` and an always-inlined draw, the pull
/// loops called the draw out of line, and that was the cost (DESIGN.md,
/// "Zero-materialization workloads").
fn mixer_row(reps: usize) {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let digest = |b: &[Request]| {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    };
    let stream = || sqlvm_like().stream(MIXER_LEN, 11);
    let mut buf = Vec::with_capacity(DEFAULT_BATCH_SIZE);
    let mut pulled = Vec::new();
    drain_mixer(Pulled(stream()), &mut buf, |b| pulled.push(digest(b)));
    let mut seen = 0;
    drain_mixer(stream(), &mut buf, |b| {
        assert!(
            pulled.get(seen) == Some(&digest(b)),
            "mixer batch {seen}: next_run differs from next_request pulls"
        );
        seen += 1;
    });
    assert_eq!(seen, pulled.len(), "next_run ended early");
    let pulled_stats = serve_mixer(Pulled(stream()), &mut buf);
    assert_eq!(serve_mixer(stream(), &mut buf), pulled_stats);

    let consume = |b: &[Request]| {
        std::hint::black_box(b);
    };
    let mut best = [f64::INFINITY; 4];
    for _ in 0..reps {
        let secs = [
            timed(|| drain_mixer(Pulled(stream()), &mut buf, consume)),
            timed(|| drain_mixer(stream(), &mut buf, consume)),
            timed(|| drop(serve_mixer(Pulled(stream()), &mut buf))),
            timed(|| drop(serve_mixer(stream(), &mut buf))),
        ];
        for (b, s) in best.iter_mut().zip(secs) {
            *b = b.min(s);
        }
    }
    let [drain_pull, drain_run, serve_pull, serve_run] = best.map(|b| b * 1e9 / MIXER_LEN as f64);
    println!(
        "{:>16}  k={MIXER_K:<5} {:<20} drained: {drain_run:.2} ns/req by next_run, {drain_pull:.2} \
         by pulls ({:.2}x); served by serve_from with lru: {serve_run:.2} ns/req by next_run, \
         {serve_pull:.2} by pulls ({:.2}x); wall-clock, one core, identical streams and stats",
        "ingest/mixer",
        "sqlvm-like",
        drain_pull / drain_run,
        serve_pull / serve_run
    );
}

/// Requests per run in the `encode/packed` row: what `occ trace pack`
/// hands the writer per call when it reads an occbin01 trace.
const ENCODE_RUN: usize = 64 * 1024;

/// The `encode/packed` row (`--ingest` only): occbin02 encode of the
/// fixture through [`Binary2TraceWriter::push_run`] in page runs, as
/// `occ trace pack` drives it, into an in-memory sink — varint coding,
/// checks and the running CRC, no file I/O. Before any rep, the output
/// is asserted byte-identical to the fixture's `write_trace_binary_v2`
/// file and to decode back to the trace. Best of `reps`.
fn encode_row(fx: &IngestFixture, reps: usize) {
    let universe = fx.trace.universe();
    let len = fx.trace.len() as u64;
    let pages: Vec<PageId> = fx.trace.requests().iter().map(|r| r.page).collect();
    let encode = || {
        let sink = Vec::with_capacity(fx.v2_bytes as usize);
        let mut w = Binary2TraceWriter::new(universe.clone(), len, sink).expect("header");
        for run in pages.chunks(ENCODE_RUN) {
            w.push_run(run).expect("fixture pages are in range");
        }
        w.finish().expect("every promised request was pushed")
    };
    let bytes = encode();
    assert!(
        bytes == std::fs::read(&fx.v2).expect("read occbin02 fixture"),
        "run-level encode differs from write_trace_binary_v2"
    );
    let back = read_trace_binary_v2(bytes.as_slice()).expect("decode the encoded fixture");
    assert!(
        back.requests() == fx.trace.requests(),
        "encoded fixture decodes to a different trace"
    );
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(encode());
        best = best.min(start.elapsed().as_secs_f64());
    }
    let rps = len as f64 / best;
    println!(
        "{:>16}  k={:<5} {:<20} {rps:>12.0} req/s   ({:.2} ns/req, {} B, byte-identical, decodes back)",
        "encode/packed",
        "-",
        "zipf-0.9",
        1e9 / rps,
        bytes.len()
    );
}

/// `--smoke`: lru/fifo/greedy-dual/alg-discrete on zipf-0.9 at both
/// cache sizes, scalar vs monomorphized batched (paired best of
/// three), plus a 1-shard trace-fed fleet. Asserts exact miss/stat
/// equality (the non-flaky invariant), gates the *drift-normalized*
/// batched and fleet throughput at [`SMOKE_DELTA_GATE`] vs any
/// matching committed cells, and prints `SMOKE OK` for CI.
fn run_smoke(committed: &[CommittedCell]) {
    warm_up();
    const SMOKE_REPS: usize = 3;
    let mut gate_failures = 0u32;
    for k in CACHE_SIZES {
        let wls = workloads(k);
        let wl = &wls[0];
        assert_eq!(wl.name, "zipf-0.9");
        let mut lru_scalar_misses = 0u64;
        // How fast this host runs right now relative to the machine
        // that produced the committed file, one sample per policy:
        // measured scalar over committed scalar.
        let mut scalar_factors: Vec<f64> = Vec::new();
        for label in BATCHED_POLICIES {
            let mut policy: Box<dyn ReplacementPolicy> = match label {
                "lru" => Box::new(Lru::new()),
                "fifo" => Box::new(Fifo::new()),
                "greedy-dual" => Box::new(GreedyDual::unweighted(wl.num_users)),
                _ => Box::new(ConvexCaching::new(CostProfile::uniform(
                    wl.num_users,
                    Monomial::power(2.0),
                ))),
            };
            // Same paired (interleaved, stats-asserted) measurement as
            // the grid cells — the Δ gate below compares like with like.
            let (ms, mb) = paired_cell(label, &mut policy, wl, k, SMOKE_REPS);
            if label == "lru" {
                lru_scalar_misses = ms.misses;
            }
            let speedup = mb.requests_per_sec / ms.requests_per_sec;
            let ref_scalar = committed_rps(committed, label, wl.name, k, "scalar");
            let ref_batched = committed_rps(committed, label, wl.name, k, "batched");
            if let Some(f) = ref_scalar.map(|r| ms.requests_per_sec / r) {
                scalar_factors.push(f);
            }
            // Gate on the batched/scalar ratio vs the committed ratio:
            // both sides of each ratio shared a measurement window, so
            // host-speed waves cancel and what remains is a real change
            // in the batched kernel's advantage.
            let delta = match (ref_scalar, ref_batched) {
                (Some(rs), Some(rb)) => {
                    let d = (speedup / (rb / rs) - 1.0) * 100.0;
                    if d <= SMOKE_DELTA_GATE {
                        gate_failures += 1;
                        format!(", ratio Δ {d:+.1}% <-- below gate")
                    } else {
                        format!(", ratio Δ {d:+.1}%")
                    }
                }
                _ => String::new(),
            };
            println!(
                "SMOKE {label} k={k}: scalar {:.0} req/s, batched {:.0} req/s \
                 ({speedup:.2}x, paired best-of-{SMOKE_REPS}), misses {} (identical){delta}",
                ms.requests_per_sec, mb.requests_per_sec, ms.misses
            );
        }

        // 1-shard trace-fed fleet: exactness against the scalar lru
        // cell, then the throughput gate. The fleet cell has no scalar
        // twin in its own window, so correct it by the median machine
        // factor observed across this block's scalar cells (one-sided:
        // only a shortfall can fail the gate).
        let traces = fleet_traces(1, k);
        let expected = assert_fleet_matches_scalar(&traces, k, lru_scalar_misses);
        let FleetRates {
            per_core: rps,
            misses,
            ..
        } = measure_fleet(&traces, k);
        assert_eq!(misses, expected, "fleet-1 misses diverged from scalar");
        scalar_factors.sort_by(|a, b| a.total_cmp(b));
        let factor = scalar_factors
            .get(scalar_factors.len() / 2)
            .copied()
            .unwrap_or(1.0);
        let delta = match committed_rps(committed, "lru/fleet-1", wl.name, k, "fleet") {
            Some(rf) => {
                let d = (rps / factor / rf - 1.0) * 100.0;
                if d <= SMOKE_DELTA_GATE {
                    gate_failures += 1;
                    format!(", drift-corrected Δ {d:+.1}% <-- below gate")
                } else {
                    format!(", drift-corrected Δ {d:+.1}%")
                }
            }
            None => String::new(),
        };
        println!(
            "SMOKE lru/fleet-1 k={k}: {rps:.0} req/s per core, misses {misses} (identical){delta}"
        );

        // Shared-cache concurrent cell: replay identity is asserted
        // inside `measure_concurrent` before its first timed rep; the
        // throughput gate reuses the fleet cell's drift correction.
        let label = format!("lru/concurrent-{CONCURRENT_THREADS}x{CONCURRENT_TABLE_SHARDS}");
        let traces = concurrent_traces(k);
        let (rps, commits) = measure_concurrent(&traces, k, SMOKE_REPS);
        let delta = match committed_rps(committed, &label, "tenants-4x-zipf-0.8", k, "concurrent") {
            Some(rf) => {
                let d = (rps / factor / rf - 1.0) * 100.0;
                if d <= SMOKE_DELTA_GATE {
                    gate_failures += 1;
                    format!(", drift-corrected Δ {d:+.1}% <-- below gate")
                } else {
                    format!(", drift-corrected Δ {d:+.1}%")
                }
            }
            None => String::new(),
        };
        println!(
            "SMOKE {label} k={k}: {rps:.0} req/s, {commits} commits (replay-identical){delta}"
        );
    }

    // Ingest cell, reduced fixture: the miss-identity assert inside
    // `ingest_block` is the non-flaky invariant; the throughput rows
    // are informational (CI greps for them, the Δ gate would flap on a
    // 1M-request drain).
    let mut ingest_regressions = 0u32;
    ingest_block(
        &IngestFixture::materialize(SMOKE_INGEST_TRACE_LEN),
        SMOKE_REPS,
        "SMOKE ",
        committed,
        &mut ingest_regressions,
    );

    if gate_failures > 0 {
        eprintln!(
            "SMOKE FAILED: {gate_failures} cell(s) more than {}% below the committed baseline",
            -SMOKE_DELTA_GATE
        );
        std::process::exit(1);
    }
    println!(
        "SMOKE OK: batched, fleet and ingest replay byte-identical to scalar on \
         lru, fifo, greedy-dual, alg-discrete"
    );
}

fn main() {
    // crates/occ-bench/../../ = repository root, regardless of cwd.
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_throughput.json");
    let committed = load_committed(&out);

    if std::env::args().any(|a| a == "--smoke") {
        run_smoke(&committed);
        return;
    }
    if std::env::args().any(|a| a == "--ingest") {
        run_ingest(&committed);
        return;
    }
    if std::env::args().any(|a| a == "--recorded") {
        warm_up();
        recorded_block(THROUGHPUT_REPS);
        return;
    }

    let host = Host::detect();
    warm_up();
    let mut regressions = 0u32;

    let mut rows = Vec::new();
    // Scalar misses per (policy, workload, k), for the batched/fleet
    // equivalence asserts below.
    let mut scalar_misses: Vec<(String, String, usize, u64)> = Vec::new();
    for &k in &CACHE_SIZES {
        for wl in workloads(k) {
            // Policies with a batched twin get the paired (interleaved)
            // measurement so the scalar-vs-batched ratio is immune to
            // machine-speed drift between cells; the rest measure
            // scalar-only.
            let mut batched_pending: Vec<(&'static str, Measurement)> = Vec::new();
            for (label, mut policy) in policy_suite(wl.num_users) {
                let m = if BATCHED_POLICIES.contains(&label) {
                    let (ms, mb) = paired_cell(label, &mut policy, &wl, k, THROUGHPUT_REPS);
                    batched_pending.push((label, mb));
                    ms
                } else {
                    measure(&mut policy, &wl, k)
                };
                scalar_misses.push((label.to_string(), wl.name.to_string(), k, m.misses));
                let delta = delta_text(
                    &committed,
                    label,
                    wl.name,
                    k,
                    "scalar",
                    m.requests_per_sec,
                    &mut regressions,
                );
                println!(
                    "{label:>16}  k={k:<5} {:<20} {:>12.0} req/s   p50 {:>6} ns   p99 {:>7} ns   misses {}{delta}",
                    wl.name, m.requests_per_sec, m.p50_ns, m.p99_ns, m.misses
                );
                let mut row = String::new();
                write!(
                    row,
                    "    {{\"policy\": \"{label}\", \"workload\": \"{}\", \"k\": {k}, \
                     \"universe_pages\": {}, \"trace_len\": {}, \"mode\": \"scalar\", \
                     \"requests_per_sec\": {:.0}, \"p50_ns\": {}, \"p90_ns\": {}, \
                     \"p99_ns\": {}, \"p999_ns\": {}, \"misses\": {}}}",
                    wl.name,
                    4 * k,
                    wl.trace.len(),
                    m.requests_per_sec,
                    m.p50_ns,
                    m.p90_ns,
                    m.p99_ns,
                    m.p999_ns,
                    m.misses
                )
                .unwrap();
                rows.push(row);
            }

            // Batched twins of the scalar cells above, measured paired
            // with them (stats byte-identity asserted on every rep
            // inside `measure_pair`).
            for (label, m) in batched_pending {
                let &(_, _, _, scalar) = scalar_misses
                    .iter()
                    .find(|(p, w, ck, _)| p == label && w == wl.name && *ck == k)
                    .expect("scalar cell measured above");
                assert_eq!(
                    m.misses, scalar,
                    "{label}: batched misses diverged from scalar"
                );
                let delta = delta_text(
                    &committed,
                    label,
                    wl.name,
                    k,
                    "batched",
                    m.requests_per_sec,
                    &mut regressions,
                );
                println!(
                    "{:>16}  k={k:<5} {:<20} {:>12.0} req/s   p50 {:>6} ns   p99 {:>7} ns   misses {}{delta}",
                    format!("{label}/batched"),
                    wl.name,
                    m.requests_per_sec,
                    m.p50_ns,
                    m.p99_ns,
                    m.misses
                );
                let mut row = String::new();
                write!(
                    row,
                    "    {{\"policy\": \"{label}\", \"workload\": \"{}\", \"k\": {k}, \
                     \"universe_pages\": {}, \"trace_len\": {}, \"mode\": \"batched\", \
                     \"batch_size\": {DEFAULT_BATCH_SIZE}, \
                     \"requests_per_sec\": {:.0}, \"p50_ns\": {}, \"p90_ns\": {}, \
                     \"p99_ns\": {}, \"p999_ns\": {}, \"misses\": {}}}",
                    wl.name,
                    4 * k,
                    wl.trace.len(),
                    m.requests_per_sec,
                    m.p50_ns,
                    m.p90_ns,
                    m.p99_ns,
                    m.p999_ns,
                    m.misses
                )
                .unwrap();
                rows.push(row);
            }
        }

        // Fleet entries: LRU shards replaying pre-materialized zipf-0.9
        // traces through the typed (monomorphized, unrecorded) path.
        let &(_, _, _, scalar) = scalar_misses
            .iter()
            .find(|(p, w, ck, _)| p == "lru" && w == "zipf-0.9" && *ck == k)
            .expect("scalar cell measured above");
        // Exactness first (untimed), then the timed reps for the two
        // shard counts *interleaved* — their ratio is a headline number
        // and must not be skewed by machine-speed drift between cells.
        let cells: Vec<(usize, Vec<Trace>, u64)> = FLEET_SHARDS
            .iter()
            .map(|&shards| {
                let traces = fleet_traces(shards, k);
                let expected = assert_fleet_matches_scalar(&traces, k, scalar);
                (shards, traces, expected)
            })
            .collect();
        let mut timers: Vec<FleetCellTimer> = cells
            .iter()
            .map(|(shards, _, _)| FleetCellTimer::new(*shards))
            .collect();
        for _ in 0..THROUGHPUT_REPS {
            for ((_, traces, _), timer) in cells.iter().zip(timers.iter_mut()) {
                timer.rep(traces, k);
            }
        }
        for ((shards, _, expected), rates) in cells.iter().zip(timers.iter().map(|t| t.result())) {
            let (shards, expected) = (*shards, *expected);
            let FleetRates {
                per_core: rps,
                wall,
                misses,
            } = rates;
            assert_eq!(
                misses, expected,
                "fleet-{shards} misses diverged from the per-shard scalar replays"
            );
            let delta = delta_text(
                &committed,
                &format!("lru/fleet-{shards}"),
                "zipf-0.9",
                k,
                "fleet",
                rps,
                &mut regressions,
            );
            println!(
                "{:>16}  k={k:<5} {:<20} {rps:>12.0} req/s   ({shards} shard(s), per core; \
                 wall-clock aggregate {wall:.0} req/s on {} cores)   misses {misses}{delta}",
                format!("lru/fleet-{shards}"),
                "zipf-0.9",
                host.nproc
            );
            let mut row = String::new();
            write!(
                row,
                "    {{\"policy\": \"lru/fleet-{shards}\", \"workload\": \"zipf-0.9\", \"k\": {k}, \
                 \"universe_pages\": {}, \"trace_len\": {TRACE_LEN}, \"mode\": \"fleet\", \
                 \"shards\": {shards}, \"batch_size\": {DEFAULT_BATCH_SIZE}, \
                 \"measures\": \"per-core\", \"requests_per_sec\": {rps:.0}, \
                 \"wall_requests_per_sec\": {wall:.0}, \"misses\": {misses}}}",
                4 * k,
            )
            .unwrap();
            rows.push(row);
        }

        // Concurrent shared-cache entry: M threads, one cache. The
        // replay-identity gate inside `measure_concurrent` runs before
        // the first timed rep, so this row can only exist for runs the
        // single-thread replay certified.
        let label = format!("lru/concurrent-{CONCURRENT_THREADS}x{CONCURRENT_TABLE_SHARDS}");
        let traces = concurrent_traces(k);
        let (rps, commits) = measure_concurrent(&traces, k, THROUGHPUT_REPS);
        let delta = delta_text(
            &committed,
            &label,
            "tenants-4x-zipf-0.8",
            k,
            "concurrent",
            rps,
            &mut regressions,
        );
        println!(
            "{label:>16}  k={k:<5} {:<20} {rps:>12.0} req/s   ({CONCURRENT_THREADS} threads, 1 shared cache)   commits {commits}{delta}",
            "tenants-4x-zipf-0.8"
        );
        let mut row = String::new();
        write!(
            row,
            "    {{\"policy\": \"{label}\", \"workload\": \"tenants-4x-zipf-0.8\", \"k\": {k}, \
             \"universe_pages\": {}, \"trace_len\": {TRACE_LEN}, \"mode\": \"concurrent\", \
             \"threads\": {CONCURRENT_THREADS}, \"table_shards\": {CONCURRENT_TABLE_SHARDS}, \
             \"requests_per_sec\": {rps:.0}, \"commits\": {commits}}}",
            4 * k,
        )
        .unwrap();
        rows.push(row);
    }

    rows.extend(tenant_scale_block(
        THROUGHPUT_REPS,
        &committed,
        &mut regressions,
    ));
    rows.extend(recorded_block(THROUGHPUT_REPS));

    // Ingest cells: decode-only throughput of the three binary access
    // strategies, full-sized fixture, miss-identity asserted first.
    rows.extend(ingest_block(
        &IngestFixture::materialize(INGEST_TRACE_LEN),
        THROUGHPUT_REPS,
        "",
        &committed,
        &mut regressions,
    ));

    let json = format!(
        "{{\n  \"benchmark\": \"bench_baseline\",\n  \"schema\": 3,\n  \"host\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
        host.to_json(),
        rows.join(",\n")
    );
    occ_probe::write_atomic_with_trailer(&out, &json).expect("write BENCH_throughput.json");
    println!("\nwrote {}", out.display());
    if regressions > 0 {
        eprintln!(
            "warning: {regressions} cell(s) regressed more than 20% vs the committed baseline"
        );
    }
}
