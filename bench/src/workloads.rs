//! The five workloads: their fixtures, the `occ` argv, the output
//! oracle, and the traced in-process replay that stands in for each
//! invocation when attributing time to layers.
//!
//! Each traced pass calls the same public library functions the CLI
//! subcommand calls, in the same order and with the same configuration,
//! and records a span around every call (see [`crate::spans`]). The pass
//! also computes the reference outcome the oracle checks every
//! invocation against.

use crate::fixtures::{self, DetachedCtx, Format};
use crate::invoke::{self_cpu_s, self_rss_mib};
use crate::spans::Tracer;
use occ_baselines::Lru;
use occ_core::ConvexCaching;
use occ_fleet::{run_fleet, FleetConfig, SharedConfig, SharedReport};
use occ_probe::{
    atomicio, require_trailer, snapshot_to_json, write_atomic, write_atomic_with_trailer,
    CrcWriter, DualPoint, Json, MetricsRecorder, SeriesFile, SeriesSink, WindowDelta,
    WindowedRecorder,
};
use occ_sim::concurrent::{replay_schedule, run_shared, verify_replay, ConcurrentEngine};
use occ_sim::{
    merge_stats, Binary2TraceReader, Binary2TraceWriter, BinarySource, NoopRecorder, PageId,
    Recorder, ReplacementPolicy, Request, RequestSource, SimStats, SteppingEngine, Time,
    DEFAULT_BATCH_SIZE,
};
use occ_workloads::sqlvm_like;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where fixtures, outputs, spans and results go.
pub const BENCH_DIR: &str = "target/occ-benchmark";

/// Cache size of the trace-driven workloads (an eighth of the pages).
const K: usize = 8192;
/// Worker threads of `occ concurrent`: one per core of the 2-core host.
pub const THREADS: usize = 2;
/// Page-table segments of `occ concurrent`.
const TABLE_SHARDS: usize = 8;
/// Shards of `occ fleet`: one per core.
const FLEET_SHARDS: usize = 2;
/// Requests per transcode run, as `occ trace pack` reads them.
const PACK_RUN: u64 = 64 * 1024;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `occ soak` over occbin01 (mmap) with ALG-DISCRETE.
    SoakMmapConvex,
    /// `occ soak` over occbin02 (packed decode) with LRU.
    SoakPackedLru,
    /// `occ fleet` on the synthetic mixer with ALG-DISCRETE.
    FleetMixConvex,
    /// `occ concurrent`: two threads, one shared LRU cache.
    ConcurrentLru,
    /// `occ trace pack`: occbin01 → occbin02.
    TracePack,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 5] = [
        Workload::SoakMmapConvex,
        Workload::SoakPackedLru,
        Workload::FleetMixConvex,
        Workload::ConcurrentLru,
        Workload::TracePack,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoakMmapConvex => "soak-mmap-convex",
            Workload::SoakPackedLru => "soak-packed-lru",
            Workload::FleetMixConvex => "fleet-mix-convex",
            Workload::ConcurrentLru => "concurrent-lru",
            Workload::TracePack => "trace-pack",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn dir(self, part: &str) -> PathBuf {
        Path::new(BENCH_DIR).join(part).join(self.name())
    }

    /// Where each invocation leaves its files (emptied before each).
    pub fn out_dir(self) -> PathBuf {
        self.dir("out")
    }

    /// Where each invocation's stderr goes.
    pub fn log_path(self) -> PathBuf {
        Path::new(BENCH_DIR)
            .join("out")
            .join(format!("{}.stderr", self.name()))
    }
}

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Requests in the trace both soaks and the pack read.
    pub trace_len: u64,
    /// Soak and fleet telemetry window.
    pub window: u64,
    /// Soak checkpoint cadence.
    pub checkpoint_every: u64,
    /// Requests per fleet shard.
    pub fleet_len: u64,
    /// Requests in the trace each concurrent thread replays.
    pub concurrent_len: u64,
}

impl Scale {
    /// The measured size: each invocation takes about a second on the
    /// 2-core reference host.
    pub const FULL: Scale = Scale {
        trace_len: 16_000_000,
        window: 1_000_000,
        checkpoint_every: 4_000_000,
        fleet_len: 4_000_000,
        concurrent_len: 500_000,
    };

    /// [`Scale::FULL`] divided by 64, for `--smoke`.
    pub fn smoke() -> Scale {
        let f = Scale::FULL;
        Scale {
            trace_len: f.trace_len / 64,
            window: f.window / 64,
            checkpoint_every: f.checkpoint_every / 64,
            fleet_len: f.fleet_len / 64,
            concurrent_len: f.concurrent_len / 64,
        }
    }
}

/// What an invocation reads: a trace file, or the mixer with `len`
/// requests per shard.
#[derive(Clone, Debug)]
enum Source {
    File(PathBuf),
    Mix(u64),
}

/// Counts and sizes a traced pass observed outside its spans.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Requests the pass replayed.
    pub requests: u64,
    /// Final per-user counters of the engine the pass drove.
    pub stats: Option<SimStats>,
    /// Telemetry windows closed.
    pub windows: u64,
    /// Size of the finished series file.
    pub series_bytes: u64,
    /// Size of the last checkpoint.
    pub checkpoint_bytes: u64,
    /// Size of the occbin02 file read or written.
    pub v2_bytes: u64,
    /// Fleet wall clock with the CLI's configuration.
    pub fleet_wall_s: f64,
    /// Fleet wall clock with recording off.
    pub fleet_unrecorded_s: f64,
    /// Each fleet shard's own elapsed time.
    pub shard_elapsed_s: Vec<f64>,
    /// Commits of the concurrent run.
    pub commits: u64,
    /// Process CPU seconds spent during `run_shared`.
    pub run_cpu_s: f64,
    /// Resident-set growth across `run_shared`.
    pub rss_delta_mib: f64,
    /// Commits per second of a 1-thread `run_shared`.
    pub t1_rate: f64,
    /// Requests per second of a scalar LRU engine on the same trace.
    pub scalar_rate: f64,
}

/// A traced pass: its spans and facts.
pub struct Pass {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Everything else measured.
    pub facts: Facts,
}

/// The reference outcome an invocation's files must match.
enum Oracle {
    Soak {
        windows: u64,
        misses: Vec<u64>,
    },
    Fleet {
        len: u64,
        misses: Vec<Vec<u64>>,
    },
    Concurrent {
        commits: u64,
    },
    Pack {
        source: PathBuf,
        validated: Option<Vec<u8>>,
    },
}

/// One `occ` argv with the requests it serves and its oracle.
pub struct Input {
    /// Arguments after `occ`.
    pub argv: Vec<String>,
    /// Requests served: the trace length, shards × `--len`, or commits.
    pub requests: u64,
    oracle: Oracle,
}

/// A workload with its fixtures generated and its traced pass done.
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The measured input.
    pub main: Input,
    /// Its 1-request twin, timed for `setup_s`.
    pub one: Input,
    /// The traced pass over `main`.
    pub pass: Pass,
    /// `(file, bytes, requests)` of every fixture generated.
    pub fixtures: Vec<(String, u64, u64)>,
}

fn io_err<'a>(what: &str, path: &'a Path) -> impl Fn(std::io::Error) -> String + 'a {
    let what = what.to_string();
    move |e| format!("{what} {}: {e}", path.display())
}

/// Generate the fixtures `w` reads and run its traced pass.
pub fn prepare(w: Workload, scale: &Scale, seed: u64) -> Result<Prepared, String> {
    let fx = Path::new(BENCH_DIR).join("fixtures");
    fs::create_dir_all(&fx).map_err(io_err("create", &fx))?;
    let mut fixtures = Vec::new();
    let mut trace = |name: &str, format: Format, len: u64| -> Result<Source, String> {
        let path = fx.join(name);
        let bytes = fixtures::write_trace(&path, format, len, seed)?;
        fixtures.push((name.to_string(), bytes, len));
        Ok(Source::File(path))
    };
    let (main, one) = match w {
        Workload::SoakMmapConvex | Workload::TracePack => (
            trace("main.occbin01", Format::V1, scale.trace_len)?,
            trace("one.occbin01", Format::V1, 1)?,
        ),
        Workload::SoakPackedLru => (
            trace("main.occbin02", Format::V2, scale.trace_len)?,
            trace("one.occbin02", Format::V2, 1)?,
        ),
        Workload::ConcurrentLru => (
            trace("small.occbin01", Format::V1, scale.concurrent_len)?,
            trace("one.occbin01", Format::V1, 1)?,
        ),
        Workload::FleetMixConvex => (Source::Mix(scale.fleet_len), Source::Mix(1)),
    };
    let (main, pass) = input(w, scale, seed, &main, "main")?;
    let (one, _) = input(w, scale, seed, &one, "one")?;
    Ok(Prepared {
        workload: w,
        main,
        one,
        pass,
        fixtures,
    })
}

fn s(x: impl ToString) -> String {
    x.to_string()
}

fn strings(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|p| p.to_string()).collect()
}

/// Build the argv for `src` and run the traced pass that provides its
/// oracle.
fn input(
    w: Workload,
    scale: &Scale,
    seed: u64,
    src: &Source,
    part: &str,
) -> Result<(Input, Pass), String> {
    let out = w.out_dir();
    let traced = w.dir("traced").join(part);
    fs::create_dir_all(&traced).map_err(io_err("create", &traced))?;
    let path = |p: &Path| p.display().to_string();
    let soak = |policy: &str, trace: &Path| {
        strings(&[
            "soak",
            "--scenario",
            "sqlvm-like",
            "--policy",
            policy,
            "--trace",
            &path(trace),
            "--k",
            &s(K),
            "--window",
            &s(scale.window),
            "--checkpoint-every",
            &s(scale.checkpoint_every),
            "--checkpoint",
            &path(&out.join("checkpoint.json")),
            "--series",
            &path(&out.join("series.jsonl")),
            "--heartbeat",
            "off",
            "--seed",
            &s(seed),
        ])
    };
    let mut tracer = Tracer::new();
    let tr = &mut tracer;
    let (argv, (facts, oracle)) = match (w, src) {
        (Workload::SoakMmapConvex, Source::File(t)) => {
            let spec = SoakSpec::new(t, false, scale, seed, "convex", &traced);
            let policy = ConvexCaching::new(sqlvm_like().costs);
            let pass = soak_pass(tr, &spec, policy, &mut |p: &ConvexCaching| {
                Some(DualPoint {
                    dual_offset: p.cumulative_dual_offset(),
                    total_evictions: p.eviction_counts().iter().sum(),
                    primal_cost: p.primal_cost(),
                })
            })?;
            (soak("convex", t), pass)
        }
        (Workload::SoakPackedLru, Source::File(t)) => {
            let spec = SoakSpec::new(t, true, scale, seed, "lru", &traced);
            let policy: Box<dyn ReplacementPolicy> = Box::new(Lru::new());
            // `occ soak` boxes every policy but ALG-DISCRETE; so does the pass.
            #[allow(clippy::borrowed_box)]
            let pass = soak_pass(tr, &spec, policy, &mut |_: &Box<dyn ReplacementPolicy>| {
                None
            })?;
            (soak("lru", t), pass)
        }
        (Workload::FleetMixConvex, &Source::Mix(len)) => {
            let argv = strings(&[
                "fleet",
                "--scenario",
                "sqlvm-like",
                "--shards",
                &s(FLEET_SHARDS),
                "--len",
                &s(len),
                "--seed",
                &s(seed),
                "--policy",
                "convex",
                "--window",
                &s(scale.window),
                "--format",
                "json",
                "--out",
                &path(&out.join("report.json")),
            ]);
            let report = traced.join("report.json");
            (argv, fleet_pass(tr, len, seed, scale.window, &report)?)
        }
        (Workload::ConcurrentLru, Source::File(t)) => {
            let argv = strings(&[
                "concurrent",
                "--scenario",
                "sqlvm-like",
                "--threads",
                &s(THREADS),
                "--table-shards",
                &s(TABLE_SHARDS),
                "--policy",
                "lru",
                "--trace",
                &path(t),
                "--k",
                &s(K),
                "--format",
                "json",
                "--out",
                &path(&out.join("report.json")),
            ]);
            (argv, concurrent_pass(tr, t, &traced.join("report.json"))?)
        }
        (Workload::TracePack, Source::File(t)) => {
            let argv = strings(&[
                "trace",
                "pack",
                "--in",
                &path(t),
                "--out",
                &path(&out.join("packed.occbin02")),
            ]);
            (argv, pack_pass(tr, t, &traced.join("packed.occbin02"))?)
        }
        (w, src) => unreachable!("{} has no {src:?} input", w.name()),
    };
    let input = Input {
        argv,
        requests: facts.requests,
        oracle,
    };
    Ok((input, Pass { tracer, facts }))
}

/// Everything `occ soak` is told on its command line.
struct SoakSpec {
    trace: PathBuf,
    packed: bool,
    window: u64,
    checkpoint_every: u64,
    series: PathBuf,
    checkpoint: PathBuf,
    meta: Vec<(&'static str, Json)>,
}

impl SoakSpec {
    fn new(trace: &Path, packed: bool, scale: &Scale, seed: u64, policy: &str, dir: &Path) -> Self {
        SoakSpec {
            trace: trace.to_path_buf(),
            packed,
            window: scale.window,
            checkpoint_every: scale.checkpoint_every,
            series: dir.join("series.jsonl"),
            checkpoint: dir.join("checkpoint.json"),
            // The series header `occ soak` writes; `len` is filled in
            // once the trace header has been read.
            meta: vec![
                ("scenario", Json::Str("sqlvm-like".into())),
                ("policy", Json::Str(policy.into())),
                ("k", Json::from_u64(K as u64)),
                ("seed", Json::from_u64(seed)),
            ],
        }
    }
}

/// `occ soak --trace`: source → engine → window recorder → series sink,
/// checkpointing on window boundaries.
fn soak_pass<P: ReplacementPolicy>(
    tr: &mut Tracer,
    spec: &SoakSpec,
    policy: P,
    probe: &mut dyn FnMut(&P) -> Option<DualPoint>,
) -> Result<(Facts, Oracle), String> {
    let root = tr.open("pass", 0);
    let open = if spec.packed {
        "binio2.open"
    } else {
        "binio.open"
    };
    let mut source = tr
        .leaf(open, 0, 0, || BinarySource::open(&spec.trace))
        .map_err(|e| format!("open {}: {e}", spec.trace.display()))?;
    let total = source.total_requests();
    let mut eng = tr.leaf("stepper.new", 0, 0, || {
        SteppingEngine::new(K, source.universe().clone(), policy).with_recorder(
            WindowedRecorder::<false>::starting_at(spec.window, 0).with_ring_capacity(64),
        )
    });
    let tmp = atomicio::tmp_path(&spec.series);
    let mut meta = spec.meta.clone();
    meta.extend([("len", Json::from_u64(total)), ("start", Json::from_u64(0))]);
    let mut sink = tr
        .leaf("timeseries.open", 0, 0, || -> std::io::Result<_> {
            let file = File::create(&tmp)?;
            let mut sink = SeriesSink::new(CrcWriter::new(BufWriter::new(file)));
            sink.write_header(spec.window, &meta);
            Ok(sink)
        })
        .map_err(io_err("create", &tmp))?;

    let mut whole = WindowDelta::default();
    let mut windows = 0u64;
    let mut batch = 0u64;
    let mut close_windows = |tr: &mut Tracer,
                             eng: &mut SteppingEngine<P, WindowedRecorder<false>>,
                             at: Time,
                             last: bool| {
        let id = tr.open("timeseries.close", windows);
        // At a boundary the dual point belongs to the closing window; a
        // final partial window gets one too, a final full one already has.
        if !last || !at.is_multiple_of(spec.window) {
            if let Some(point) = probe(eng.policy()) {
                eng.recorder_mut().note_dual(point);
            }
        }
        if last {
            eng.recorder_mut().finalize(at);
        } else {
            eng.recorder_mut().roll_to(at);
        }
        let closed = eng.recorder_mut().drain_new();
        tr.close(id, closed.len() as u64);
        let id = tr.open("timeseries.sink", windows);
        for w in &closed {
            whole.merge_from(w);
            sink.write_window(w);
        }
        windows += closed.len() as u64;
        tr.close(id, closed.len() as u64);
    };
    loop {
        let to_boundary = spec.window - eng.time() % spec.window;
        let max = to_boundary.min(DEFAULT_BATCH_SIZE as u64) as usize;
        batch += 1;
        if spec.packed {
            let id = tr.open("binio2.next_run", batch);
            let run = source.next_run(max).filter(|r| !r.is_empty());
            tr.close(id, run.map_or(0, |r| r.len() as u64));
            let Some(run) = run else { break };
            tr.leaf("stepper.step_batch", batch, run.len() as u64, || {
                eng.step_batch(run)
            });
        } else {
            let id = tr.open("binio.next_page_run", batch);
            let run = source.next_page_run(max).filter(|r| !r.is_empty());
            tr.close(id, run.map_or(0, |r| r.len() as u64));
            let Some(run) = run else { break };
            tr.leaf("stepper.step_page_batch", batch, run.len() as u64, || {
                eng.step_page_batch(run)
            });
        }
        let t = eng.time();
        if t.is_multiple_of(spec.window) {
            close_windows(tr, &mut eng, t, false);
            if t.is_multiple_of(spec.checkpoint_every) {
                checkpoint(tr, &eng, &spec.checkpoint, batch)?;
            }
        }
    }
    let end = eng.time();
    close_windows(tr, &mut eng, end, true);
    checkpoint(tr, &eng, &spec.checkpoint, batch)?;
    if let Some(e) = source.error() {
        return Err(format!("reading {}: {e}", spec.trace.display()));
    }
    // Seal the series the way `occ soak` does: CRC trailer, fsync,
    // rename over the final name.
    tr.leaf("timeseries.finish", 0, 0, || -> std::io::Result<()> {
        let mut w = sink.finish()?;
        let trailer = atomicio::trailer_line(w.crc());
        w.inner_mut().write_all(trailer.as_bytes())?;
        w.flush()?;
        let (buf, _) = w.into_parts();
        let file = buf.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &spec.series)
    })
    .map_err(io_err("write", &spec.series))?;
    tr.close(root, end);

    let stats = eng.stats().clone();
    let misses = stats.miss_vector();
    let mut sums = whole.misses_by_user.clone();
    sums.resize(misses.len(), 0);
    if sums != misses || whole.hits != stats.total_hits() {
        return Err(format!(
            "traced soak: window sums {sums:?} disagree with engine misses {misses:?}"
        ));
    }
    let size = |p: &Path| fs::metadata(p).map(|m| m.len()).map_err(io_err("stat", p));
    let facts = Facts {
        requests: end,
        stats: Some(stats),
        windows,
        series_bytes: size(&spec.series)?,
        checkpoint_bytes: size(&spec.checkpoint)?,
        v2_bytes: if spec.packed { size(&spec.trace)? } else { 0 },
        ..Facts::default()
    };
    Ok((facts, Oracle::Soak { windows, misses }))
}

/// Snapshot, encode and atomically write a checkpoint, as `occ soak`
/// does on every `--checkpoint-every` boundary and at the end.
fn checkpoint<P: ReplacementPolicy, R: Recorder>(
    tr: &mut Tracer,
    eng: &SteppingEngine<P, R>,
    path: &Path,
    batch: u64,
) -> Result<(), String> {
    let snap = tr
        .leaf("checkpoint.snapshot", batch, 1, || eng.snapshot())
        .map_err(|e| format!("snapshot: {e}"))?;
    let body = tr.leaf("checkpoint.encode", batch, 1, || {
        snapshot_to_json(&snap) + "\n"
    });
    tr.leaf("checkpoint.write", batch, body.len() as u64, || {
        write_atomic_with_trailer(path, &body)
    })
    .map_err(io_err("write", path))
}

/// `occ fleet` on the mixer: `run_fleet` with the CLI's configuration
/// (the pass proper), then two probes — the same fleet with recording
/// off, and a sequential replay of each shard with spans around the
/// mixer pulls and the engine batches.
fn fleet_pass(
    tr: &mut Tracer,
    len: u64,
    seed: u64,
    window: u64,
    report_path: &Path,
) -> Result<(Facts, Oracle), String> {
    let scenario = sqlvm_like();
    let costs = &scenario.costs;
    let shard_seed = |i: usize| seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let streams = || -> Vec<_> {
        (0..FLEET_SHARDS)
            .map(|i| scenario.stream(len, shard_seed(i)))
            .collect()
    };
    let policy =
        |_: usize| Box::new(ConvexCaching::new(costs.clone())) as Box<dyn ReplacementPolicy>;
    let mut cfg = FleetConfig::new(scenario.suggested_k);
    cfg.window = Some(window);
    let total = FLEET_SHARDS as u64 * len;

    let root = tr.open("pass", 0);
    let sources = tr.leaf("workloads.new", 0, FLEET_SHARDS as u64, streams);
    let report = tr.leaf("fleet.run", 0, total, || run_fleet(sources, &cfg, policy));
    let text = tr.leaf("fleet.report", 0, 0, || {
        report.to_json_value().to_json() + "\n"
    });
    tr.leaf("fleet.report", 0, text.len() as u64, || {
        write_atomic(report_path, text.as_bytes())
    })
    .map_err(io_err("write", report_path))?;
    tr.close(root, total);

    let probe = tr.open("probe.fleet_unrecorded", 0);
    let mut bare = cfg;
    bare.record = false;
    let unrecorded = run_fleet(streams(), &bare, policy);
    tr.close(probe, total);

    let probe = tr.open("probe.fleet_layers", 0);
    let mut stats = SimStats::new(scenario.tenants.len() as u32);
    let mut batch = 0u64;
    for (i, shard) in report.shards.iter().enumerate() {
        let id = tr.open("fleet.shard", i as u64);
        let mut source = scenario.stream(len, shard_seed(i));
        let windows = WindowedRecorder::<false>::new(window).with_ring_capacity(usize::MAX);
        let mut eng = SteppingEngine::new(cfg.capacity, source.universe().clone(), policy(i))
            .with_recorder((MetricsRecorder::new(), windows));
        let mut buf = Vec::with_capacity(cfg.batch_size);
        loop {
            batch += 1;
            let mix = tr.open("workloads.mix", batch);
            buf.clear();
            while buf.len() < cfg.batch_size {
                let next = source.next_request(&eng.ctx());
                match next {
                    Some(r) => buf.push(r),
                    None => break,
                }
            }
            tr.close(mix, buf.len() as u64);
            if buf.is_empty() {
                break;
            }
            tr.leaf("stepper.step_batch", batch, buf.len() as u64, || {
                eng.step_batch(&buf)
            });
        }
        tr.close(id, eng.time());
        if eng.stats() != &shard.stats {
            return Err(format!(
                "fleet shard {i}: sequential replay {:?} disagrees with run_fleet {:?}",
                eng.stats().miss_vector(),
                shard.stats.miss_vector()
            ));
        }
        merge_stats(&mut stats, eng.stats());
    }
    tr.close(probe, total);

    let facts = Facts {
        requests: report.total_requests,
        stats: Some(stats),
        fleet_wall_s: report.wall.as_secs_f64(),
        fleet_unrecorded_s: unrecorded.wall.as_secs_f64(),
        shard_elapsed_s: report
            .shards
            .iter()
            .map(|s| s.elapsed.as_secs_f64())
            .collect(),
        ..Facts::default()
    };
    let misses = report
        .shards
        .iter()
        .map(|s| s.stats.miss_vector())
        .collect();
    Ok((facts, Oracle::Fleet { len, misses }))
}

/// `occ concurrent --trace`: what `run_shared_fleet` does, call by
/// call, then two probes — a 1-thread `run_shared` and a scalar LRU
/// engine on the same trace.
fn concurrent_pass(
    tr: &mut Tracer,
    trace: &Path,
    report_path: &Path,
) -> Result<(Facts, Oracle), String> {
    let policy = |_: usize| Box::new(Lru::new()) as Box<dyn ReplacementPolicy + Send>;
    let mut cfg = SharedConfig::new(K);
    cfg.table_shards = TABLE_SHARDS;
    let open = |tr: &mut Tracer, t: usize| {
        tr.leaf("binio.open", t as u64, 0, || BinarySource::open(trace))
            .map_err(|e| format!("open {}: {e}", trace.display()))
    };

    let root = tr.open("pass", 0);
    let mut sources = (0..THREADS)
        .map(|t| open(tr, t))
        .collect::<Result<Vec<_>, _>>()?;
    let universe = sources[0].universe().clone();
    let engine = tr.leaf("concurrent.engine", 0, TABLE_SHARDS as u64, || {
        ConcurrentEngine::new(
            cfg.capacity,
            universe.clone(),
            cfg.degrade,
            (0..cfg.table_shards).map(policy).collect(),
        )
    });
    let (rss0, cpu0) = (self_rss_mib(), self_cpu_s());
    let id = tr.open("concurrent.run", 0);
    let started = Instant::now();
    let mut recorders: Vec<MetricsRecorder> =
        (0..THREADS).map(|_| MetricsRecorder::new()).collect();
    let outcome = run_shared(&engine, &mut sources, &mut recorders)
        .map_err(|e| format!("run_shared: {e}"))?;
    let mut merged = MetricsRecorder::new();
    for r in &recorders {
        merged.merge(r);
    }
    let wall = started.elapsed();
    let commits = outcome.schedule.len() as u64;
    tr.close(id, commits);
    let (rss1, cpu1) = (self_rss_mib(), self_cpu_s());
    if let Some(e) = sources.iter().find_map(|s| s.error()) {
        return Err(format!("reading {}: {e}", trace.display()));
    }
    let replayed = tr
        .leaf("concurrent.replay", 0, commits, || {
            replay_schedule(
                cfg.capacity,
                universe.clone(),
                (0..cfg.table_shards).map(policy).collect(),
                cfg.degrade,
                &outcome.schedule,
            )
        })
        .map_err(|e| format!("replay_schedule: {e}"))?;
    tr.leaf("concurrent.verify", 0, commits, || {
        verify_replay(&outcome, &replayed)
    })
    .map_err(|e| format!("verify_replay: {e}"))?;
    let stats = outcome.stats.clone();
    let report = SharedReport {
        threads: THREADS,
        table_shards: cfg.table_shards,
        capacity: cfg.capacity,
        degrade: cfg.degrade,
        outcome,
        merged,
        replay: Some(replayed),
        wall,
    };
    let text = tr.leaf("concurrent.report", 0, 0, || {
        report.to_json_value().to_json() + "\n"
    });
    tr.leaf("concurrent.report", 0, text.len() as u64, || {
        write_atomic(report_path, text.as_bytes())
    })
    .map_err(io_err("write", report_path))?;
    tr.close(root, commits);

    let probe = tr.open("probe.concurrent_t1", 0);
    let mut one = vec![BinarySource::open(trace).map_err(|e| format!("open: {e}"))?];
    let engine = ConcurrentEngine::new(
        K,
        universe.clone(),
        cfg.degrade,
        (0..cfg.table_shards).map(policy).collect(),
    );
    let started = Instant::now();
    let t1 = run_shared(&engine, &mut one, &mut [NoopRecorder])
        .map_err(|e| format!("run_shared: {e}"))?;
    let t1_rate = t1.schedule.len() as f64 / started.elapsed().as_secs_f64();
    tr.close(probe, t1.schedule.len() as u64);

    let probe = tr.open("probe.concurrent_scalar", 0);
    let mut source = BinarySource::open(trace).map_err(|e| format!("open: {e}"))?;
    let mut eng = SteppingEngine::new(K, universe, Lru::new());
    let started = Instant::now();
    while let Some(run) = source
        .next_page_run(DEFAULT_BATCH_SIZE)
        .filter(|r| !r.is_empty())
    {
        eng.step_page_batch(run);
    }
    let scalar_rate = eng.time() as f64 / started.elapsed().as_secs_f64();
    tr.close(probe, eng.time());

    let facts = Facts {
        requests: commits,
        stats: Some(stats),
        commits,
        run_cpu_s: cpu1 - cpu0,
        rss_delta_mib: rss1 - rss0,
        t1_rate,
        scalar_rate,
        ..Facts::default()
    };
    Ok((facts, Oracle::Concurrent { commits }))
}

/// `occ trace pack`: stream page runs out of the occbin01 mapping and
/// re-encode them as occbin02 in memory, then land the file atomically.
fn pack_pass(tr: &mut Tracer, input: &Path, out: &Path) -> Result<(Facts, Oracle), String> {
    let fail = |e: occ_sim::TraceIoError| format!("pack {}: {e}", input.display());
    let root = tr.open("pass", 0);
    let mut source = tr
        .leaf("binio.open", 0, 0, || BinarySource::open(input))
        .map_err(fail)?;
    let total = source.total_requests();
    let universe = source.universe().clone();
    let mut writer = tr
        .leaf("binio2.new", 0, 0, || {
            Binary2TraceWriter::new(universe.clone(), total, Vec::new())
        })
        .map_err(fail)?;
    let mut served = 0u64;
    let mut batch = 0u64;
    while served < total {
        batch += 1;
        let max = (total - served).min(PACK_RUN) as usize;
        let id = tr.open("binio.next_page_run", batch);
        let run = source.next_page_run(max).filter(|r| !r.is_empty());
        tr.close(id, run.map_or(0, |r| r.len() as u64));
        let Some(run) = run else { break };
        let id = tr.open("binio2.encode", batch);
        let run: Vec<PageId> = run.to_vec();
        let reqs: Vec<Request> = run
            .iter()
            .map(|&page| Request {
                page,
                user: universe.owner(page),
            })
            .collect();
        for req in reqs {
            writer.push(req).map_err(fail)?;
        }
        served += run.len() as u64;
        tr.close(id, run.len() as u64);
    }
    if let Some(e) = source.error() {
        return Err(format!("reading {}: {e}", input.display()));
    }
    if served != total {
        return Err(format!(
            "{} ended after {served} of {total}",
            input.display()
        ));
    }
    let bytes = tr
        .leaf("binio2.finish", 0, total, || writer.finish())
        .map_err(fail)?;
    tr.leaf("binio2.write", 0, bytes.len() as u64, || {
        write_atomic(out, &bytes)
    })
    .map_err(io_err("write", out))?;
    tr.close(root, total);
    let facts = Facts {
        requests: total,
        v2_bytes: bytes.len() as u64,
        ..Facts::default()
    };
    let oracle = Oracle::Pack {
        source: input.to_path_buf(),
        validated: None,
    };
    Ok((facts, oracle))
}

impl Input {
    /// Check the files an invocation left in `out` against the
    /// reference. Returns the requests the program itself counted as
    /// faults; any mismatch is an error.
    pub fn check(&mut self, out: &Path) -> Result<u64, String> {
        match &mut self.oracle {
            Oracle::Soak { windows, misses } => {
                let path = out.join("series.jsonl");
                let text = fs::read_to_string(&path).map_err(io_err("read", &path))?;
                require_trailer(&text).map_err(|e| format!("series: {e}"))?;
                let file = SeriesFile::parse(&text)?;
                if file.windows.len() as u64 != *windows {
                    return Err(format!(
                        "series has {} windows, expected {windows}",
                        file.windows.len()
                    ));
                }
                let mut got = vec![0u64; misses.len()];
                let mut faults = 0;
                for w in &file.windows {
                    for (u, m) in w.misses_by_user.iter().enumerate() {
                        *got.get_mut(u).ok_or("series names an unknown tenant")? += m;
                    }
                    faults += w.faults.total_records();
                }
                if got != *misses {
                    return Err(format!(
                        "series misses per tenant {got:?}, traced pass {misses:?}"
                    ));
                }
                Ok(faults)
            }
            Oracle::Fleet { len, misses } => {
                let report = read_json(&out.join("report.json"))?;
                let shards = report
                    .get("shards")
                    .and_then(Json::as_array)
                    .ok_or("fleet report has no shards")?;
                let got: Vec<Vec<u64>> = shards
                    .iter()
                    .map(|s| u64_array(s.get("misses_by_user")))
                    .collect();
                if got != *misses {
                    return Err(format!(
                        "fleet misses_by_user {got:?}, traced run_fleet {misses:?}"
                    ));
                }
                if shards
                    .iter()
                    .any(|s| s.get("requests").and_then(Json::as_u64) != Some(*len))
                {
                    return Err(format!("a fleet shard did not serve {len} requests"));
                }
                Ok(0)
            }
            Oracle::Concurrent { commits } => {
                let report = read_json(&out.join("report.json"))?;
                let replay = report.get("replay");
                if replay.and_then(|r| r.get("identical")) != Some(&Json::Bool(true)) {
                    return Err("concurrent report: replay.identical is not true".into());
                }
                let got = report.get("commits").and_then(Json::as_u64);
                if got != Some(*commits) {
                    return Err(format!(
                        "concurrent report: {got:?} commits, expected {commits}"
                    ));
                }
                let faults = match report.get("faults") {
                    Some(Json::Obj(fields)) => fields.iter().filter_map(|(_, v)| v.as_u64()).sum(),
                    _ => return Err("concurrent report has no faults section".into()),
                };
                Ok(faults)
            }
            Oracle::Pack { source, validated } => {
                let path = out.join("packed.occbin02");
                let bytes = fs::read(&path).map_err(io_err("read", &path))?;
                match validated {
                    // Byte-identical to an output already decoded and
                    // compared request by request.
                    Some(good) if *good == bytes => Ok(0),
                    Some(_) => Err("packed output differs from the validated one".into()),
                    None => {
                        compare_packed(&bytes, source)?;
                        *validated = Some(bytes);
                        Ok(0)
                    }
                }
            }
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(io_err("read", path))?;
    Json::parse(text.trim_end()).map_err(|e| format!("{}: {e}", path.display()))
}

fn u64_array(v: Option<&Json>) -> Vec<u64> {
    v.and_then(Json::as_array)
        .map(|a| a.iter().map(|x| x.as_u64().unwrap_or(u64::MAX)).collect())
        .unwrap_or_default()
}

/// Decode an occbin02 image and compare it request by request with the
/// occbin01 trace it was packed from.
fn compare_packed(bytes: &[u8], source: &Path) -> Result<(), String> {
    let mut got = Binary2TraceReader::new(BufReader::new(bytes))
        .map_err(|e| format!("decode packed output: {e}"))?;
    let mut want = BinarySource::open(source).map_err(|e| format!("open source: {e}"))?;
    if got.universe() != RequestSource::universe(&want) {
        return Err("packed output has a different universe".into());
    }
    if got.total_requests() != want.total_requests() {
        return Err(format!(
            "packed output holds {} requests, source {}",
            got.total_requests(),
            want.total_requests()
        ));
    }
    let detached = DetachedCtx::new(got.universe());
    let ctx = detached.ctx();
    let mut i = 0u64;
    loop {
        match (got.next_request(&ctx), want.next_request(&ctx)) {
            (None, None) => break,
            (a, b) if a == b => i += 1,
            (a, b) => return Err(format!("request {i}: packed {a:?}, source {b:?}")),
        }
    }
    got.finish()
        .map_err(|e| format!("packed output after {i} requests: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_a_mismatched_miss_vector_as_failed() {
        let dir = std::env::temp_dir().join(format!("occ-e2e-oracle-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let report = r#"{"shards":[{"requests":5,"misses_by_user":[1,2,0,0]},{"requests":5,"misses_by_user":[0,1,1,0]}]}"#;
        fs::write(dir.join("report.json"), report).unwrap();
        let mut input = Input {
            argv: Vec::new(),
            requests: 10,
            oracle: Oracle::Fleet {
                len: 5,
                misses: vec![vec![1, 2, 0, 0], vec![0, 1, 1, 0]],
            },
        };
        assert_eq!(input.check(&dir), Ok(0));
        input.oracle = Oracle::Fleet {
            len: 5,
            misses: vec![vec![1, 2, 0, 0], vec![0, 1, 0, 1]],
        };
        let err = input.check(&dir).unwrap_err();
        assert!(err.contains("misses_by_user"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
