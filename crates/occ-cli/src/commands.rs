//! Subcommand implementations for the `occ` binary.

use crate::args::{parse_scaled, Args};
use crate::errors::CliError;
use occ_analysis::{compare_policies, evaluate_policy, fnum, lru_cost_curve, lru_mrc, Table};
use occ_baselines::{CostGreedy, Fifo, GreedyDual, Lfu, Lru, LruK, Marking, RandomEvict};
use occ_core::{ConvexCaching, CostProfile};
use occ_fleet::{
    faults_json, run_fleet, run_fleet_typed, run_shared_fleet, run_supervised_fleet, users_json,
    BackoffPolicy, DirPersist, FleetConfig, FleetReport, ShardKill, SharedConfig, SharedError,
    SharedReport, StoreFault, SupervisorConfig,
};
use occ_offline::{Belady, CostAwareBelady};
use occ_probe::{
    require_trailer, snapshot_from_json, snapshot_to_json, write_atomic, write_atomic_with_trailer,
    AtomicFile, CrcWriter, DualPoint, DualTrace, Json, JsonlSink, MetricsRecorder, ObserveReport,
    SeriesFile, SeriesSink, StatsWindows, WindowDelta,
};
use occ_sim::concurrent::{replay_schedule, CommitSchedule, ReplayError, ReplayOutcome};
use occ_sim::{
    next_multiple, read_trace_auto, write_trace, write_trace_binary, write_trace_binary_v2,
    Binary2TraceWriter, BinarySource, BinaryTraceWriter, EngineSnapshot, FaultHandler, FaultPolicy,
    PageId, ReplacementPolicy, Request, RequestSource, SeekableSource, SimStats, SteppingEngine,
    Time, Trace, TraceIoError, TraceRecord, TraceSource, Universe, UserId, BINARY2_TRACE_MAGIC,
    BINARY_TRACE_MAGIC,
};
use occ_workloads::{
    all_scenarios, ChaosSource, CsvAdapter, CsvFlavor, FaultPlan, Scenario, TenantMixSource,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Seek};
use std::path::Path;
use std::time::Instant;

/// Top-level usage text.
pub const USAGE: &str = "\
occ — online caching with convex costs

USAGE:
  occ help | occ --help | occ COMMAND --help    print this text
  occ scenarios                                 list built-in scenarios
  occ generate --scenario NAME [--len N] [--seed S]
               [--format text|binary|binary-v2] --out FILE
               write a trace file; binary is the fixed-width
               little-endian form (magic \"occbin01\", 4 bytes/request)
               read without line parsing, binary-v2 the delta+varint
               compressed form (magic \"occbin02\", typically well under
               half the occbin01 size for skewed workloads). --len
               accepts k/M/B suffixes (500k, 10M). Every trace-reading
               command auto-detects the format.
  occ trace pack   --in FILE --out FILE [--limit N]
               transcode a trace (occbin01/occbin02/text) to occbin02,
               streaming — never materializes the trace. --limit N
               (k/M/B suffixes) keeps only the first N requests.
  occ trace unpack --in FILE --out FILE [--limit N]
               transcode a trace to fixed-width occbin01 (the mmap-able
               zero-copy form).
  occ trace import --in FILE.csv --out FILE [--format binary|binary-v2]
               [--csv-flavor auto|msr|twitter] [--tenants N] [--dict FILE]
               convert a real-trace CSV (MSR-Cambridge block I/O or
               Twitter-cluster key-access shapes, auto-sniffed) into a
               binary trace. String keys are interned to dense page ids
               in first-seen order and the recorded dictionary is
               written to --dict (default OUT.dict) so ids stay mappable
               back to keys. --tenants N hashes tenant keys into N
               users (default: dense first-seen tenant ids).
  occ run      --policy NAME --k K (--trace FILE --scenario NAME | --scenario NAME [--len N] [--seed S])
  occ compare  --scenario NAME --k K [--len N] [--seed S] [--trace FILE]
  occ mrc      --scenario NAME [--len N] [--seed S] [--max-k K] [--trace FILE]
  occ observe  --scenario NAME [--policy NAME] [--k K] [--len N] [--seed S]
               [--trace FILE] [--every N] [--out FILE] [--events FILE]
               [--checkpoint FILE] [--checkpoint-every N]
               [--chaos-page-rate P] [--chaos-owner-rate P]
               [--chaos-truncate N] [--chaos-seed S] [--degrade POLICY]
               run with full instrumentation; emit a JSON report (counters,
               latency histogram, fault counters, and — for the convex
               policy — the dual trajectory). --events streams one JSONL
               line per engine event. --checkpoint writes a resumable
               snapshot every N requests (default 10000) and always at
               the end of the run (N = 0: only at the end). The --chaos-*
               flags inject seeded record corruption; --degrade picks the
               reaction: fail-fast (default), skip, quarantine. --trace
               reads a whole trace file instead of generating one (as in
               run, compare and mrc).
  occ resume   --from FILE --scenario NAME [--policy NAME] [--k K] [--len N]
               [--seed S] [--trace FILE] [--every N] [--out FILE]
               [--events FILE] [--checkpoint FILE] [--checkpoint-every N]
               [--chaos-page-rate P] [--chaos-owner-rate P]
               [--chaos-truncate N] [--chaos-seed S] [--degrade POLICY]
               continue a checkpointed observe run over the same trace;
               the continuation is byte-identical to an uninterrupted run.
  occ soak     --scenario NAME [--len N] [--seed S] [--policy NAME] [--k K]
               [--window W] [--series FILE] [--timing on|off]
               [--checkpoint FILE] [--checkpoint-every N] [--from FILE]
               [--heartbeat on|off] [--trace FILE [--csv-flavor F]]
               stream N requests (default 10M) in O(1) memory, closing a
               telemetry window every W requests (default 1M) and
               appending each closed window to the JSONL series file.
               --len/--window/--checkpoint-every accept k/M/B suffixes
               (500k, 5M, 1B). --trace streams a whole trace file (a
               usage error beside --len; cut a prefix with `occ trace
               pack|unpack --limit N`) instead of the scenario mixer: occbin01 (served zero-copy from a
               memory mapping where the platform allows, buffered
               otherwise), occbin02, or a real-trace CSV (msr/twitter
               shapes, tenants hashed into the scenario's user count;
               --csv-flavor auto|msr|twitter); --from resumes a killed
               soak from its checkpoint, continuing the series
               byte-identically (checkpoints land on window boundaries;
               pass the same --scenario and --seed — the checkpoint
               carries engine state, not the workload stream).
               --timing on adds wall-clock latency histograms per window
               (not byte-reproducible). A stderr heartbeat reports req/s,
               ETA and RSS about once a second. Checkpoints and finished
               series files are written atomically and sealed with a
               #crc32 trailer; a killed run leaves the series at FILE.tmp
               and resuming from a corrupt checkpoint exits 4.
  occ report   --in FILE [--format table|json]
               validate and render an `occ observe` report
  occ report   --series FILE [--format table|json]
               render an `occ soak` window series as an aligned table
               with per-window Δ miss-ratio markers
  occ fleet    --scenario NAME [--shards F] [--len N] [--seed S]
               [--policy NAME] [--k K] [--window W]
               [--trace FILE [--csv-flavor F]] [--timing on|off]
               [--format table|json] [--out FILE]
               [--max-restarts N] [--backoff-ms MS]
               [--checkpoint-dir DIR] [--from-dir DIR] [--series-out FILE]
               [--chaos-shard-kill S@T,..] [--chaos-store-fail S@N,..]
               run F independent cache shards of the scenario in
               parallel (one worker thread each, seeds derived per
               shard), streaming requests in O(1) memory, and merge the
               per-shard telemetry into one fleet report. --trace FILE
               replays a whole trace file (occbin01/occbin02/CSV, as in
               soak; not with --len) on every shard instead of the mixer — occbin01 shards
               serve batches zero-copy from a shared memory mapping
               (unsupervised runs only). --window W
               additionally collects tumbling-window series per shard
               and merges them in shard order (an untimed shard counts
               each event once, into its window). --timing on (default
               off) times every request: one clock read per request,
               and the report's merged recorder gains a latency_ns
               histogram; the counters are identical either way, and an
               untimed report is byte-reproducible bar its wall-clock
               fields. Offline policies (belady*) are rejected: the
               fleet never materializes a trace.
               Supervision (implied by any of --max-restarts,
               --backoff-ms, --checkpoint-dir, --from-dir, --series-out
               and the --chaos-* flags; requires --window; rejects
               --timing on, as supervised runs time nothing: their
               merged recorder is the fold of the committed windows):
               shards run
               under panic isolation, checkpoint on window boundaries,
               and are restarted from their last checkpoint with seeded
               exponential backoff (--backoff-ms 0 = no sleeping); a
               shard that fails more than --max-restarts times is
               quarantined and the run exits 7 with a degraded report.
               --checkpoint-dir persists per-shard checkpoints + series
               (shard-NNNN.ckpt.json / .series.jsonl); --from-dir
               resumes a killed fleet from such a directory (corrupt
               checkpoints exit 4). --series-out writes the merged
               window series (atomic rename + CRC trailer) — recovered
               runs produce it byte-identical to uninterrupted ones.
               --chaos-shard-kill panics shard S at request T;
               --chaos-store-fail fails shard S's Nth checkpoint save
               (both seeded, deterministic, counts accept k/M/B).
  occ concurrent --scenario NAME [--threads M] [--table-shards S] [--len N]
               [--seed S] [--k K] [--policy lru|fifo|greedy-dual|convex]
               [--trace FILE [--csv-flavor F]] [--timing on|off]
               [--verify on|off] [--format table|json] [--out FILE]
               [--schedule-out FILE]
               [--chaos-page-rate P] [--chaos-owner-rate P]
               [--chaos-truncate N] [--chaos-seed S] [--degrade POLICY]
               run M worker threads (1 to 256) against ONE shared
               k-sized cache (one engine behind one lock, a run or up
               to 4096 pulled requests per lock hold, clean runs served
               by the batch loop; the policy keeps S segment
               instances), each thread streaming N scenario
               requests with a per-thread seed (or, with --trace and no
               --len, each thread replaying the same whole trace file —
               occbin01/occbin02/CSV; chaos flags need the synthetic
               stream).
               Every commit is recorded as (seq, thread, shard, page,
               user, outcome); --verify on (the default) replays the
               schedule single-threaded through the stock engine and
               fails (exit 5) unless per-user hit/miss/eviction vectors,
               fault counters and the quarantine set are identical.
               Only policies whose segment instances read nothing but
               the universe may share the cache (lru, fifo,
               greedy-dual; convex, the paper's ALG-DISCRETE, at
               --table-shards 1 only). --schedule-out writes the
               commit schedule (CRC-sealed, self-describing header) for
               offline replay. --timing on (default off) times every
               commit, adding a latency_ns histogram to the report's
               merged recorder. The --chaos-*/--degrade flags match
               observe; chaos without --degrade fails fast.
  occ concurrent --replay FILE [--format table|json] [--out FILE]
               re-execute a --schedule-out file single-threaded and emit
               a report whose users/faults/quarantined sections are
               directly comparable to the recording run's (the CI
               concurrency smoke byte-diffs them). Corrupt or
               non-contiguous schedules exit 4; divergence exits 5.
  occ conformance [--grid smoke|full|e1|e2|e3|e4] [--seed S]
               [--weaken W] [--shrink on|off] [--out FILE]
               [--format table|json]
               machine-check the paper's bounds (Theorems 1.1/1.3/1.4,
               Claim 2.3) on a parallel grid of instances and render the
               PASS/FAIL/VACUOUS verdict table. e1-e4 rebuild the
               EXPERIMENTS E1-E4 instances with pinned seeds (--seed
               leaves them unchanged). --out writes the
               schema-stamped JSON verdicts (byte-identical for a given
               grid, seed, and weaken factor). --weaken scales every
               bound (values < 1 tighten them — the deliberate-failure
               fixture); a FAIL verdict exits with code 6 after shrinking
               a minimal counterexample.

Each command takes exactly the flags its synopsis above lists; any
other flag is a usage error, reported before any work starts.

EXIT CODES:
  0 ok · 1 error · 2 usage · 3 i/o · 4 unparseable file · 5 simulation fault
  6 conformance FAIL (a checked bound was violated)
  7 degraded (a supervised fleet quarantined a shard; report still written)

POLICIES:
  convex (the paper's algorithm), lru, fifo, lfu, marking, lru2, random,
  greedy-dual, cost-greedy, belady (offline), belady-cost (offline)
";

/// The flags `occ COMMAND [ACTION]` takes, read off [`USAGE`] so the
/// help text and the parser cannot drift: every `--name` on the
/// synopsis lines of the command's blocks (the `occ COMMAND` line and
/// the lines under it that open with `[`, `(` or `--`, up to the first
/// line of prose). `occ trace` has one block per action. `None` when
/// USAGE has no such block, which leaves the error to the command.
pub fn accepted_flags(command: &str, action: Option<&str>) -> Option<Vec<&'static str>> {
    let mut flags = Vec::new();
    let mut found = false;
    let mut in_block = false;
    for line in USAGE.lines() {
        let text = line.trim_start();
        if let Some(head) = line.strip_prefix("  occ ") {
            let mut words = head.split_whitespace();
            let name = words.next();
            in_block = name == Some(command)
                && (command != "trace" || action.is_some() && words.next() == action);
        } else if !(line.starts_with("    ") && text.starts_with(['[', '(', '-'])) {
            in_block = false;
        }
        if !in_block {
            continue;
        }
        found = true;
        for piece in text.split("--").skip(1) {
            let end = piece
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(piece.len());
            let name = &piece[..end];
            if !name.is_empty() && name != "help" && !flags.contains(&name) {
                flags.push(name);
            }
        }
    }
    found.then_some(flags)
}

/// Classify a flag-parsing error as a usage error (exit 2).
fn uarg<T>(r: Result<T, String>) -> Result<T, CliError> {
    r.map_err(CliError::Usage)
}

/// Print to stdout, exiting quietly if the consumer closed the pipe
/// (e.g. `occ mrc | head`).
fn emit(text: &str) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    if let Err(e) = writeln!(lock, "{text}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error writing output: {e}");
        std::process::exit(1);
    }
}

fn find_scenario(name: &str) -> Result<Scenario, CliError> {
    all_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
            CliError::Usage(format!(
                "unknown scenario '{name}' (available: {})",
                names.join(", ")
            ))
        })
}

/// The online policies — everything a streaming run (no materialized
/// trace) can use. `None` for offline or unknown names.
fn make_online_policy(name: &str, costs: &CostProfile) -> Option<Box<dyn ReplacementPolicy>> {
    let weights: Vec<f64> = (0..costs.num_users())
        .map(|u| costs.user(occ_sim::UserId(u)).eval(1.0).max(1e-9))
        .collect();
    Some(match name {
        "convex" => Box::new(ConvexCaching::new(costs.clone())),
        "lru" => Box::new(Lru::new()),
        "fifo" => Box::new(Fifo::new()),
        "lfu" => Box::new(Lfu::new()),
        "marking" => Box::new(Marking::new()),
        "lru2" => Box::new(LruK::new(2)),
        "random" => Box::new(RandomEvict::new(0xC0FFEE)),
        "greedy-dual" => Box::new(GreedyDual::new(weights)),
        "cost-greedy" => Box::new(CostGreedy::new(costs.clone())),
        _ => return None,
    })
}

fn make_policy(
    name: &str,
    costs: &CostProfile,
    trace: &Trace,
) -> Result<Box<dyn ReplacementPolicy>, CliError> {
    if let Some(policy) = make_online_policy(name, costs) {
        return Ok(policy);
    }
    Ok(match name {
        "belady" => Box::new(Belady::new(trace)),
        "belady-cost" => Box::new(CostAwareBelady::new(trace, costs.clone())),
        other => return Err(CliError::Usage(format!("unknown policy '{other}'"))),
    })
}

/// `occ scenarios`
pub fn scenarios() -> Result<(), CliError> {
    let mut t = Table::new(vec!["name", "tenants", "pages", "suggested k", "costs"]);
    for s in all_scenarios() {
        let pages: u32 = s.tenants.iter().map(|t| t.pages).sum();
        let costs: Vec<String> = (0..s.costs.num_users())
            .map(|u| s.costs.user(occ_sim::UserId(u)).describe())
            .collect();
        t.row(vec![
            s.name.to_string(),
            s.tenants.len().to_string(),
            pages.to_string(),
            s.suggested_k.to_string(),
            costs.join("; "),
        ]);
    }
    emit(&t.to_markdown());
    Ok(())
}

/// Convert a scaled `u64` count into a `usize`, failing as a usage
/// error on 32-bit targets rather than truncating.
fn scaled_usize(args: &Args, name: &str, default: u64) -> Result<usize, CliError> {
    let n = uarg(args.scaled_or(name, default))?;
    usize::try_from(n).map_err(|_| {
        CliError::Usage(format!(
            "--{name} {n} does not fit in this platform's usize"
        ))
    })
}

/// `occ generate`
pub fn generate(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let len = scaled_usize(args, "len", 60_000)?;
    let seed: u64 = uarg(args.num_or("seed", 7u64))?;
    let out = uarg(args.str_required("out"))?;
    let format = args.str_or("format", "text");
    let trace = scenario.trace(len, seed);
    // Render in memory, then land on disk atomically: a crash or full
    // disk mid-generate leaves the old trace (or nothing), never a
    // half-written one. Binary traces additionally carry the occbin01
    // (or occbin02) checksum footer the writer appends.
    let mut buf = Vec::new();
    match format.as_str() {
        "text" => write_trace(&trace, &mut buf)?,
        "binary" => write_trace_binary(&trace, &mut buf)?,
        "binary-v2" => write_trace_binary_v2(&trace, &mut buf)?,
        other => {
            return Err(CliError::Usage(format!(
                "unknown trace format '{other}' (expected text, binary, or binary-v2)"
            )))
        }
    }
    write_atomic(Path::new(&out), &buf).map_err(|e| CliError::Io(format!("write {out}: {e}")))?;
    println!(
        "wrote {} requests over {} pages / {} users to {out} ({format})",
        trace.len(),
        trace.universe().num_pages(),
        trace.universe().num_users()
    );
    Ok(())
}

fn load_or_generate(args: &Args, scenario: &Scenario) -> Result<Trace, CliError> {
    match args.str_or("trace", "") {
        path if !path.is_empty() => {
            let file = File::open(&path).map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
            let trace = read_trace_auto(BufReader::new(file))?;
            if trace.universe().num_users() != scenario.costs.num_users() {
                return Err(CliError::Usage(format!(
                    "trace has {} users but scenario '{}' defines costs for {}",
                    trace.universe().num_users(),
                    scenario.name,
                    scenario.costs.num_users()
                )));
            }
            Ok(trace)
        }
        _ => {
            let len = scaled_usize(args, "len", 60_000)?;
            let seed: u64 = uarg(args.num_or("seed", 7u64))?;
            Ok(scenario.trace(len, seed))
        }
    }
}

/// Attach the file path to a trace-reader error, keeping its exit class.
fn feed_err(path: &str, e: TraceIoError) -> CliError {
    match e {
        TraceIoError::Io(io) => CliError::Io(format!("{path}: {io}")),
        TraceIoError::Parse(m) => CliError::Parse(format!("{path}: {m}")),
    }
}

/// `--csv-flavor auto|msr|twitter` (`None` = sniff).
fn csv_flavor_from_args(args: &Args) -> Result<Option<CsvFlavor>, CliError> {
    match args.str_or("csv-flavor", "auto").as_str() {
        "auto" => Ok(None),
        "msr" => Ok(Some(CsvFlavor::Msr)),
        "twitter" => Ok(Some(CsvFlavor::Twitter)),
        other => Err(CliError::Usage(format!(
            "unknown --csv-flavor '{other}' (auto, msr, twitter)"
        ))),
    }
}

/// A streaming request feed: the scenario's synthetic mixer, or a
/// `--trace FILE` in one of the binary formats ([`BinarySource`] picks
/// mmap / buffered / packed by sniffing the magic) or a real-trace CSV
/// adapted on the fly. Holds O(1) heap regardless of length (the mmap
/// path's pages are file-backed): no command behind it materializes a
/// trace.
enum Feed {
    Mix(TenantMixSource),
    Bin(Box<BinarySource>),
    Csv(Box<CsvAdapter>),
}

impl Feed {
    /// Open a trace file, sniffing the leading bytes: binary magic goes
    /// to [`BinarySource`], anything else to the CSV adapter (whose own
    /// sniffer rejects files that are neither).
    fn open(path: &str, flavor: Option<CsvFlavor>, tenants: Option<u32>) -> Result<Feed, CliError> {
        use std::io::Read as _;
        // A pipe can only be read once: the probing open below would
        // consume the magic bytes, so hand non-regular files straight
        // to `BinarySource`, which sniffs through the one handle it
        // opens. CSV needs two passes over a seekable file and cannot
        // ride a pipe anyway.
        let regular = std::fs::metadata(path)
            .map(|m| m.is_file())
            .unwrap_or(false);
        if !regular {
            let src = BinarySource::open(Path::new(path)).map_err(|e| feed_err(path, e))?;
            return Ok(Feed::Bin(Box::new(src)));
        }
        let mut head = Vec::with_capacity(8);
        let f = File::open(path).map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
        f.take(8)
            .read_to_end(&mut head)
            .map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
        if head == BINARY_TRACE_MAGIC || head == BINARY2_TRACE_MAGIC {
            let src = BinarySource::open(Path::new(path)).map_err(|e| feed_err(path, e))?;
            Ok(Feed::Bin(Box::new(src)))
        } else {
            let csv = CsvAdapter::open(Path::new(path), flavor, tenants)
                .map_err(|e| feed_err(path, e))?;
            Ok(Feed::Csv(Box::new(csv)))
        }
    }

    /// Requests the feed will serve; asked before the run starts.
    fn total_requests(&self) -> u64 {
        match self {
            Feed::Mix(m) => m.remaining(),
            Feed::Bin(b) => b.total_requests(),
            Feed::Csv(c) => c.total_requests(),
        }
    }

    /// How a trace feed serves requests, for logs and reports.
    fn strategy(&self) -> &'static str {
        match self {
            Feed::Mix(_) => "mixer",
            Feed::Bin(b) => b.strategy(),
            Feed::Csv(c) => match c.flavor() {
                CsvFlavor::Msr => "csv-msr",
                CsvFlavor::Twitter => "csv-twitter",
            },
        }
    }

    /// Tear down the feed; returns the error a trace parked if it ended
    /// early.
    fn finish(self) -> Result<(), TraceIoError> {
        match self {
            Feed::Mix(_) => Ok(()),
            Feed::Bin(b) => b.finish(),
            Feed::Csv(c) => c.finish(),
        }
    }
}

impl RequestSource for Feed {
    fn universe(&self) -> &Universe {
        match self {
            Feed::Mix(m) => m.universe(),
            Feed::Bin(b) => RequestSource::universe(b.as_ref()),
            Feed::Csv(c) => RequestSource::universe(c.as_ref()),
        }
    }

    fn next_request(&mut self, ctx: &occ_sim::EngineCtx) -> Option<Request> {
        match self {
            Feed::Mix(m) => m.next_request(ctx),
            Feed::Bin(b) => b.next_request(ctx),
            Feed::Csv(c) => c.next_request(ctx),
        }
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        match self {
            Feed::Mix(m) => m.next_run(max),
            Feed::Bin(b) => b.next_run(max),
            Feed::Csv(_) => None,
        }
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        match self {
            Feed::Bin(b) => b.next_page_run(max),
            Feed::Mix(_) | Feed::Csv(_) => None,
        }
    }
}

impl SeekableSource for Feed {
    fn seek_forward(&mut self, n: u64) {
        match self {
            Feed::Mix(m) => m.seek_forward(n),
            Feed::Bin(b) => b.seek_forward(n),
            Feed::Csv(c) => c.seek_forward(n),
        }
    }
}

/// Check every feed once its run is over: a trace that failed mid-stream
/// parked its error and ended early, and must not pass as a shorter
/// run — exit 4 for a parse error, 3 for an I/O error.
fn finish_feeds(feeds: impl IntoIterator<Item = Feed>) -> Result<(), CliError> {
    for feed in feeds {
        feed.finish()?;
    }
    Ok(())
}

/// Open a `--trace` feed for a scenario-driven command, enforcing that
/// the trace's tenant structure matches the scenario's cost profile.
/// CSV tenants are hashed into the scenario's user count, so only the
/// binary formats can disagree.
fn open_trace_feed(args: &Args, path: &str, scenario: &Scenario) -> Result<Feed, CliError> {
    let flavor = csv_flavor_from_args(args)?;
    let feed = Feed::open(path, flavor, Some(scenario.costs.num_users()))?;
    let users = RequestSource::universe(&feed).num_users();
    if users != scenario.costs.num_users() {
        return Err(CliError::Usage(format!(
            "trace has {users} users but scenario '{}' defines costs for {}",
            scenario.name,
            scenario.costs.num_users()
        )));
    }
    Ok(feed)
}

/// `occ trace` — pack / unpack / import.
pub fn trace(args: &Args) -> Result<(), CliError> {
    match args.action.as_deref() {
        Some("pack") => trace_transcode(args, true),
        Some("unpack") => trace_transcode(args, false),
        Some("import") => trace_import(args),
        Some(other) => Err(CliError::Usage(format!(
            "unknown trace action '{other}' (pack, unpack, import)"
        ))),
        None => Err(CliError::Usage(
            "occ trace needs an action: pack, unpack, or import".into(),
        )),
    }
}

/// Streaming transcode between the binary trace formats (`pack` writes
/// occbin02, `unpack` writes occbin01). Reads chunk runs and writes each
/// encoded chunk straight to the output file; never materializes the
/// trace. Text-format inputs are the one exception (they are parsed
/// whole, which is what the text reader does anyway).
fn trace_transcode(args: &Args, pack: bool) -> Result<(), CliError> {
    let in_path = uarg(args.str_required("in"))?;
    let out_path = uarg(args.str_required("out"))?;
    let limit = uarg(args.scaled_or("limit", 0))?;
    let kept = |total: u64| if limit == 0 { total } else { limit.min(total) };
    let werr = |e| write_err(&in_path, &out_path, e);

    let mut feed = match Feed::open(&in_path, None, None) {
        Ok(f) => f,
        Err(CliError::Parse(_)) => {
            // Not binary and not CSV — maybe the v1 text format. Parse
            // it whole and write the kept prefix as one run.
            let file =
                File::open(&in_path).map_err(|e| CliError::Io(format!("open {in_path}: {e}")))?;
            let trace = read_trace_auto(BufReader::new(file)).map_err(|e| feed_err(&in_path, e))?;
            let count = kept(trace.len() as u64);
            let mut out =
                TraceOut::create(&out_path, pack, trace.universe().clone(), count).map_err(werr)?;
            out.push_run(&trace.requests()[..count as usize])
                .map_err(werr)?;
            let size = out.finish().map_err(werr)?;
            return report_transcode(&in_path, &out_path, size, count, pack);
        }
        Err(e) => return Err(e),
    };
    let keep = kept(feed.total_requests());
    let universe = RequestSource::universe(&feed).clone();

    let mut out = TraceOut::create(&out_path, pack, universe, keep).map_err(werr)?;
    let served = copy_requests(&mut feed, keep, &mut out).map_err(werr)?;
    // The input's own fault (a torn or corrupt trace) ends the feed
    // early; report it, and a short count, before sealing the output,
    // whose promised count such a feed has already broken.
    feed.finish()
        .map_err(|e| feed_err(&in_path, TraceIoError::Parse(e.to_string())))?;
    if served != keep {
        return Err(CliError::Parse(format!(
            "{in_path}: trace ended after {served} of {keep} requests"
        )));
    }
    let size = out.finish().map_err(werr)?;
    report_transcode(&in_path, &out_path, size, keep, pack)
}

/// Attach context to a trace-writer error: an I/O failure is writing
/// `out_path`; a record the writer rejects came from `in_path`.
fn write_err(in_path: &str, out_path: &str, e: TraceIoError) -> CliError {
    match e {
        TraceIoError::Io(io) => CliError::Io(format!("write {out_path}: {io}")),
        TraceIoError::Parse(m) => CliError::Parse(format!("{in_path}: {m}")),
    }
}

/// The output side of `occ trace pack|unpack|import`: a writer for
/// either binary format that streams each encoded chunk into one
/// [`AtomicFile`], so the file lands whole on
/// [`finish`](TraceOut::finish) or not at all.
enum TraceOut {
    Packed(Binary2TraceWriter<AtomicFile>),
    Fixed(BinaryTraceWriter<AtomicFile>),
}

impl TraceOut {
    /// Start `path` as occbin02 (`packed`, promising `count` requests up
    /// front) or occbin01 (whose count is patched in at the end).
    fn create(
        path: &str,
        packed: bool,
        universe: Universe,
        count: u64,
    ) -> Result<TraceOut, TraceIoError> {
        let file = AtomicFile::create(Path::new(path))?;
        Ok(if packed {
            TraceOut::Packed(Binary2TraceWriter::new(universe, count, file)?)
        } else {
            TraceOut::Fixed(BinaryTraceWriter::new(universe, file)?)
        })
    }

    fn push_run<T: TraceRecord>(&mut self, run: &[T]) -> Result<(), TraceIoError> {
        match self {
            TraceOut::Packed(w) => w.push_run(run),
            TraceOut::Fixed(w) => w.push_run(run),
        }
    }

    /// Seal the trace and land the file; returns its size in bytes.
    fn finish(self) -> Result<u64, TraceIoError> {
        let mut file = match self {
            TraceOut::Packed(w) => w.finish()?,
            TraceOut::Fixed(w) => w.finish()?,
        };
        let size = file.stream_position()?;
        file.commit()?;
        Ok(size)
    }
}

/// Copy up to `keep` requests out of `feed` into `out` a run at a time,
/// straight from the borrowed run: page runs (occbin01) and request runs
/// (occbin02) go over in one call each, CSV feeds one request at a
/// time. A whole-trace copy asks once more after the last request,
/// which is when a trace checks its footer checksum. Returns how many
/// were copied.
fn copy_requests(feed: &mut Feed, keep: u64, out: &mut TraceOut) -> Result<u64, TraceIoError> {
    const RUN: u64 = 64 * 1024;
    let whole = keep == feed.total_requests();
    let mut served = 0u64;
    while served < keep || whole {
        let max = keep.saturating_sub(served).clamp(1, RUN) as usize;
        let copied = if let Some(run) = feed.next_page_run(max) {
            out.push_run(run)?;
            run.len()
        } else if let Some(run) = feed.next_run(max) {
            out.push_run(run)?;
            run.len()
        } else if let Some(req) = match feed {
            Feed::Csv(c) => c.pull(),
            Feed::Mix(_) | Feed::Bin(_) => None,
        } {
            out.push_run(&[req])?;
            1
        } else {
            0
        };
        if copied == 0 {
            break;
        }
        served += copied as u64;
    }
    Ok(served)
}

/// Report a landed transcode and its size change.
fn report_transcode(
    in_path: &str,
    out_path: &str,
    out_size: u64,
    requests: u64,
    pack: bool,
) -> Result<(), CliError> {
    let in_size = std::fs::metadata(in_path).map(|m| m.len()).unwrap_or(0);
    let verb = if pack { "packed" } else { "unpacked" };
    let ratio = if in_size > 0 {
        format!("{:.2}x", out_size as f64 / in_size as f64)
    } else {
        "-".into()
    };
    println!(
        "{verb} {requests} requests: {in_path} ({in_size} B) -> {out_path} ({out_size} B, {ratio})"
    );
    Ok(())
}

/// `occ trace import` — CSV → binary trace + recorded key dictionary.
fn trace_import(args: &Args) -> Result<(), CliError> {
    let in_path = uarg(args.str_required("in"))?;
    let out_path = uarg(args.str_required("out"))?;
    let dict_path = args.str_or("dict", &format!("{out_path}.dict"));
    let flavor = csv_flavor_from_args(args)?;
    let tenants: u32 = uarg(args.num_or("tenants", 0u32))?;
    let tenants = if tenants == 0 { None } else { Some(tenants) };
    let format = args.str_or("format", "binary-v2");
    let werr = |e| write_err(&in_path, &out_path, e);

    let mut csv = CsvAdapter::open(Path::new(&in_path), flavor, tenants)
        .map_err(|e| feed_err(&in_path, e))?;
    let universe = RequestSource::universe(&csv).clone();
    let total = csv.total_requests();

    let packed = match format.as_str() {
        "binary-v2" => true,
        "binary" => false,
        other => {
            return Err(CliError::Usage(format!(
                "unknown trace format '{other}' (expected binary or binary-v2)"
            )))
        }
    };
    let mut out = TraceOut::create(&out_path, packed, universe.clone(), total).map_err(werr)?;
    while let Some(req) = csv.pull() {
        out.push_run(&[req]).map_err(werr)?;
    }
    if let Some(e) = csv.error() {
        return Err(feed_err(&in_path, TraceIoError::Parse(e.to_string())));
    }
    let mut dict_buf = Vec::new();
    csv.key_dict().write_to(&mut dict_buf)?;
    let size = out.finish().map_err(werr)?;
    write_atomic(Path::new(&dict_path), &dict_buf)
        .map_err(|e| CliError::Io(format!("write {dict_path}: {e}")))?;
    println!(
        "imported {total} requests over {} pages / {} users ({}) to {out_path} ({format}, {size} B); \
         dictionary: {dict_path} ({} keys)",
        universe.num_pages(),
        universe.num_users(),
        match csv.flavor() {
            CsvFlavor::Msr => "msr",
            CsvFlavor::Twitter => "twitter",
        },
        csv.key_dict().len(),
    );
    Ok(())
}

/// `occ run`
pub fn run(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let trace = load_or_generate(args, &scenario)?;
    let k: usize = uarg(args.num_or("k", scenario.suggested_k))?;
    let policy_name = args.str_or("policy", "convex");
    let mut policy = make_policy(&policy_name, &scenario.costs, &trace)?;
    let report = evaluate_policy(&mut policy, &trace, k, &scenario.costs);

    let mut t = Table::new(vec![
        "policy",
        "k",
        "T",
        "total cost",
        "miss rate",
        "per-tenant misses",
    ]);
    t.row(vec![
        report.name.clone(),
        k.to_string(),
        report.steps.to_string(),
        fnum(report.cost),
        format!("{:.3}", report.miss_rate()),
        format!("{:?}", report.misses),
    ]);
    emit(&t.to_markdown());
    Ok(())
}

/// `occ compare`
pub fn compare(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let trace = load_or_generate(args, &scenario)?;
    let k: usize = uarg(args.num_or("k", scenario.suggested_k))?;

    let mut suite = occ_baselines::standard_suite(&scenario.costs);
    let mut reports = compare_policies(&mut suite, &trace, k, &scenario.costs);
    let mut ours = ConvexCaching::new(scenario.costs.clone());
    reports.push(evaluate_policy(&mut ours, &trace, k, &scenario.costs));
    reports.sort_by(|a, b| a.cost.total_cmp(&b.cost));

    let best = reports[0].cost;
    let mut t = Table::new(vec!["policy", "total cost", "vs best", "miss rate"]);
    for r in &reports {
        t.row(vec![
            r.name.clone(),
            fnum(r.cost),
            format!("{:.2}x", r.cost / best),
            format!("{:.3}", r.miss_rate()),
        ]);
    }
    emit(&t.to_markdown());
    Ok(())
}

/// `occ mrc`
pub fn mrc(args: &Args) -> Result<(), CliError> {
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let trace = load_or_generate(args, &scenario)?;
    let max_k: usize = uarg(args.num_or("max-k", scenario.suggested_k * 2))?;
    let curve = lru_mrc(&trace, max_k);
    let costs = lru_cost_curve(&curve, &scenario.costs);

    let mut t = Table::new(vec!["k", "LRU misses", "miss ratio", "LRU total cost"]);
    let step = (max_k / 16).max(1);
    for k in (1..=max_k).step_by(step) {
        t.row(vec![
            k.to_string(),
            curve.misses[k - 1].to_string(),
            format!("{:.3}", curve.ratio(k)),
            fnum(costs[k - 1]),
        ]);
    }
    emit(&t.to_markdown());
    Ok(())
}

/// `occ fleet`
pub fn fleet(args: &Args) -> Result<(), CliError> {
    reject_len_with_trace(args, "fleet")?;
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let shards: usize = uarg(args.num_or("shards", 4usize))?;
    if shards == 0 {
        return Err(CliError::Usage("a fleet needs at least one shard".into()));
    }
    let len: u64 = uarg(args.scaled_or("len", 60_000))?;
    let seed: u64 = uarg(args.num_or("seed", 7u64))?;
    let k: usize = uarg(args.num_or("k", scenario.suggested_k))?;
    let policy_name = args.str_or("policy", "lru");
    if policy_name == "belady" || policy_name == "belady-cost" {
        return Err(CliError::Usage(format!(
            "policy '{policy_name}' is offline; the fleet streams its workload \
             and never materializes a trace"
        )));
    }
    if make_online_policy(&policy_name, &scenario.costs).is_none() {
        return Err(CliError::Usage(format!("unknown policy '{policy_name}'")));
    }

    let window = uarg(args.scaled_or("window", 0))?;

    // Supervision flags. Any of them implies the supervised engine
    // (per-shard panic isolation + checkpoint/restart); an explicit
    // --max-restarts or --backoff-ms alone supervises a plain run, e.g.
    // to get the supervisor section in the report.
    let kills: Vec<ShardKill> = parse_chaos_plan(
        &args.str_or("chaos-shard-kill", ""),
        shards,
        "chaos-shard-kill",
    )?
    .into_iter()
    .map(|(shard, at)| ShardKill { shard, at })
    .collect();
    let store_faults: Vec<StoreFault> = parse_chaos_plan(
        &args.str_or("chaos-store-fail", ""),
        shards,
        "chaos-store-fail",
    )?
    .into_iter()
    .map(|(shard, nth)| StoreFault { shard, nth })
    .collect();
    if let Some(f) = store_faults.iter().find(|f| f.nth == 0) {
        return Err(CliError::Usage(format!(
            "--chaos-store-fail counts checkpoint saves from 1; '{}@0' never fires",
            f.shard
        )));
    }
    let max_restarts: u32 = uarg(args.num_or("max-restarts", 3u32))?;
    let backoff_ms: u64 = uarg(args.num_or("backoff-ms", 0u64))?;
    let ckpt_dir = args.str_or("checkpoint-dir", "");
    let from_dir = args.str_or("from-dir", "");
    let series_out = args.str_or("series-out", "");
    let given = |flag: &str| !args.str_or(flag, "").is_empty();
    let supervised = !kills.is_empty()
        || !store_faults.is_empty()
        || [
            "checkpoint-dir",
            "from-dir",
            "series-out",
            "max-restarts",
            "backoff-ms",
        ]
        .into_iter()
        .any(given);
    if supervised && window == 0 {
        return Err(CliError::Usage(
            "supervised fleet runs checkpoint on window boundaries; pass --window W".into(),
        ));
    }
    let timing = uarg(args.on_off("timing", false))?;
    if supervised && timing {
        return Err(CliError::Usage(
            "--timing on needs an unsupervised fleet: a supervised run's merged \
             recorder is folded from its windows, so its latency would be dropped"
                .into(),
        ));
    }
    let trace_path = args.str_or("trace", "");
    if supervised && !trace_path.is_empty() {
        return Err(CliError::Usage(
            "--trace drives unsupervised fleets only; drop the supervision flags \
             or replay the trace through `occ soak --trace`"
                .into(),
        ));
    }

    let costs = &scenario.costs;
    let shard_seed = |i: usize| seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let report = if supervised {
        let mut scfg = SupervisorConfig::new(k, window);
        scfg.max_restarts = max_restarts;
        scfg.backoff = if backoff_ms == 0 {
            BackoffPolicy::none()
        } else {
            BackoffPolicy::exponential(backoff_ms, seed)
        };
        scfg.kills = kills;
        scfg.store_faults = store_faults;

        // Per-shard resume snapshots from an earlier (killed) run's
        // checkpoint directory. A missing file means that shard never
        // reached its first checkpoint: it starts fresh. A corrupt one
        // is exit 4, before any thread spawns.
        if !from_dir.is_empty() {
            let probe = scenario.stream(len, seed);
            for i in 0..shards {
                let path = DirPersist::ckpt_path(Path::new(&from_dir), i);
                if !path.exists() {
                    scfg.resume.push(None);
                    continue;
                }
                let snap = read_checkpoint(&path)?;
                let what = format!("shard {i} checkpoint");
                check_snapshot(&what, &snap, probe.universe(), k, Some(window), false)?;
                scfg.resume.push(Some(snap));
            }
        }

        let meta = [
            ("scenario", Json::Str(scenario.name.to_string())),
            ("policy", Json::Str(policy_name.clone())),
            ("k", Json::from_u64(k as u64)),
            ("seed", Json::from_u64(seed)),
            ("len", Json::from_u64(len)),
        ];
        // Open every shard's persist files up front so filesystem
        // problems are classified errors here, not worker panics. A
        // resumed shard's series starts with the windows its checkpoint
        // covers, read from the series beside that checkpoint before
        // any file is rewritten (the two directories may be one).
        let mut persist = Vec::new();
        if !ckpt_dir.is_empty() {
            let committed = (0..shards)
                .map(|i| {
                    let Some(snap) = scfg.resume.get(i).and_then(Option::as_ref) else {
                        return Ok(Vec::new());
                    };
                    let from = Path::new(&from_dir);
                    DirPersist::committed_windows(from, i, window, snap.time / window).map_err(
                        |e| {
                            let what = format!(
                                "shard {i} series {}: {e}",
                                DirPersist::series_path(from, i).display()
                            );
                            match e.kind() {
                                std::io::ErrorKind::InvalidData => CliError::Parse(what),
                                _ => CliError::Io(what),
                            }
                        },
                    )
                })
                .collect::<Result<Vec<_>, CliError>>()?;
            let dir = Path::new(&ckpt_dir);
            for (i, committed) in committed.iter().enumerate() {
                let p = DirPersist::open(dir, i, window, committed, &meta).map_err(|e| {
                    CliError::Io(format!("open checkpoint dir {ckpt_dir} for shard {i}: {e}"))
                })?;
                persist.push(Some(p));
            }
        }
        let sources = |i| scenario.stream(len, shard_seed(i));
        let report = if policy_name == "convex" {
            let convex = |_| ConvexCaching::new(costs.clone());
            run_supervised_fleet(shards, &scfg, sources, convex, persist)
        } else {
            let boxed = |_| make_online_policy(&policy_name, costs).expect("validated above");
            run_supervised_fleet(shards, &scfg, sources, boxed, persist)
        };

        if !series_out.is_empty() {
            let series = report
                .merged_series
                .as_ref()
                .expect("supervised runs always carry a window series");
            let mut buf = Vec::new();
            {
                let mut s = SeriesSink::new(&mut buf);
                s.write_header(window, &meta);
                for w in &series.windows {
                    s.write_window(w);
                }
                s.finish()
                    .map_err(|e| CliError::Io(format!("render series: {e}")))?;
            }
            let text = String::from_utf8(buf).expect("JSONL is UTF-8");
            write_atomic_with_trailer(Path::new(&series_out), &text)
                .map_err(|e| CliError::Io(format!("write {series_out}: {e}")))?;
        }
        report
    } else {
        let mut cfg = FleetConfig::new(k);
        cfg.timing = timing;
        if window > 0 {
            cfg.window = Some(window);
        }
        if trace_path.is_empty() {
            // Each shard is its own server: same scenario, decorrelated
            // seed.
            let sources: Vec<_> = (0..shards)
                .map(|i| scenario.stream(len, shard_seed(i)))
                .collect();
            run_plain_fleet(sources, &cfg, &policy_name, costs)
        } else {
            // Every shard replays the same trace file through its own
            // feed; occbin01 shards each map the file (the kernel
            // shares the cached pages) and serve zero-copy runs.
            let mut feeds = (0..shards)
                .map(|_| open_trace_feed(args, &trace_path, &scenario))
                .collect::<Result<Vec<_>, _>>()?;
            eprintln!(
                "fleet: replaying {trace_path} ({} requests) on every shard \
                 via the {} path",
                feeds[0].total_requests(),
                feeds[0].strategy()
            );
            let report = run_plain_fleet(feeds.iter_mut().collect(), &cfg, &policy_name, costs);
            finish_feeds(feeds)?;
            report
        }
    };

    let json = report.to_json_value();
    if let Some(out) = Some(args.str_or("out", "")).filter(|p| !p.is_empty()) {
        write_atomic(Path::new(&out), (json.to_json() + "\n").as_bytes())
            .map_err(|e| CliError::Io(format!("write {out}: {e}")))?;
    }
    match args.str_or("format", "table").as_str() {
        "json" => emit(&json.to_json()),
        "table" => {
            let mut head = vec!["shard", "requests", "hits", "misses", "req/s"];
            if report.supervisor.is_some() {
                head.extend(["state", "restarts"]);
            }
            let mut t = Table::new(head);
            for s in &report.shards {
                let mut row = vec![
                    s.shard.to_string(),
                    s.served.to_string(),
                    s.stats.total_hits().to_string(),
                    s.stats.total_misses().to_string(),
                    fnum(s.requests_per_sec()),
                ];
                if let Some(sup) = &report.supervisor {
                    let st = &sup.shards[s.shard];
                    row.push(st.state.as_str().to_string());
                    row.push(st.restarts.to_string());
                }
                t.row(row);
            }
            emit(&t.to_markdown());
            emit(&format!(
                "fleet: {} shards x {len} requests ({policy_name}, k={k}) — \
                 {} requests in {:.1} ms, aggregate {} req/s",
                shards,
                report.total_requests,
                report.wall.as_secs_f64() * 1e3,
                fnum(report.aggregate_requests_per_sec()),
            ));
            if let Some(series) = &report.merged_series {
                let total = series.total();
                emit(&format!(
                    "windows: {} of width {} merged across shards · overall miss ratio {:.3}",
                    series.windows.len(),
                    series.width,
                    total.miss_ratio()
                ));
            }
            if let Some(sup) = &report.supervisor {
                emit(&format!(
                    "supervisor: {} restarts absorbed, {} of {shards} shards quarantined",
                    sup.total_restarts(),
                    sup.quarantined().len()
                ));
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown format '{other}' (expected table or json)"
            )))
        }
    }
    if let Some(sup) = &report.supervisor {
        if sup.is_degraded() {
            // The report (and any --out/--series-out files) has already
            // been emitted: the run is usable but incomplete.
            return Err(CliError::Degraded(format!(
                "{} of {shards} shards quarantined after exhausting --max-restarts \
                 {max_restarts}; see the report's degraded section",
                sup.quarantined().len()
            )));
        }
    }
    Ok(())
}

/// Run an unsupervised fleet of `policy` shards (a name
/// [`make_online_policy`] knows). ALG-DISCRETE is served monomorphized,
/// as `occ soak` and the supervised fleet serve it; the other policies
/// go through the boxed trait object.
fn run_plain_fleet<S: RequestSource + Send>(
    sources: Vec<S>,
    cfg: &FleetConfig,
    policy: &str,
    costs: &CostProfile,
) -> FleetReport {
    if policy == "convex" {
        run_fleet_typed(sources, cfg, |_| ConvexCaching::new(costs.clone()))
    } else {
        run_fleet(sources, cfg, |_| {
            make_online_policy(policy, costs).expect("validated by the caller")
        })
    }
}

/// Evaluate `$body` with `$make: Fn(usize) -> P` building the named
/// policy, monomorphized per policy: `Some(body)` for a policy that may
/// share the cache, `None` otherwise. Shareable policies are those whose
/// decisions read only `ctx.universe`, so each of the shared cache's S
/// segment instances behaves as that policy on its own segment.
/// ALG-DISCRETE (`convex`) qualifies only at S = 1: its one instance is
/// then the global algorithm, while S > 1 instances would each keep
/// their own dual offset and eviction counts. Everything else is
/// rejected for `occ concurrent`.
macro_rules! with_shared_policy {
    ($name:expr, $costs:expr, $table_shards:expr, |$make:ident| $body:expr) => {{
        let costs: &CostProfile = $costs;
        match $name {
            "lru" => Some({
                let $make = |_: usize| Lru::new();
                $body
            }),
            "fifo" => Some({
                let $make = |_: usize| Fifo::new();
                $body
            }),
            "greedy-dual" => Some({
                let weights: Vec<f64> = (0..costs.num_users())
                    .map(|u| costs.user(UserId(u)).eval(1.0).max(1e-9))
                    .collect();
                let $make = |_: usize| GreedyDual::new(weights.clone());
                $body
            }),
            "convex" if $table_shards == 1 => Some({
                let $make = |_: usize| ConvexCaching::new(costs.clone());
                $body
            }),
            _ => None,
        }
    }};
}

/// `--trace` serves the whole file, so a `--len` beside it would be
/// ignored; the pair is a usage error that points at the prefix tools.
fn reject_len_with_trace(args: &Args, command: &str) -> Result<(), CliError> {
    if args.str_or("len", "").is_empty() || args.str_or("trace", "").is_empty() {
        return Ok(());
    }
    Err(CliError::Usage(format!(
        "{command}: --len does not combine with --trace, which serves the whole \
         file; cut a prefix with `occ trace pack|unpack --limit N` instead"
    )))
}

/// First line of a `--schedule-out` file. The header carries everything
/// `--replay` needs to rebuild the engine, so a schedule file is
/// self-describing.
const SCHEDULE_MAGIC: &str = "# occ-concurrent-schedule v1";

/// Run parameters recovered from a schedule file header.
struct ScheduleMeta {
    scenario: String,
    k: usize,
    table_shards: usize,
    policy: String,
    degrade: FaultPolicy,
}

fn schedule_header(
    scenario: &str,
    k: usize,
    table_shards: usize,
    threads: usize,
    policy: &str,
    degrade: FaultPolicy,
) -> String {
    format!(
        "{SCHEDULE_MAGIC} scenario={scenario} k={k} table-shards={table_shards} \
         threads={threads} policy={policy} degrade={}",
        degrade.name()
    )
}

fn parse_schedule_header(line: &str) -> Result<ScheduleMeta, String> {
    let rest = line
        .strip_prefix(SCHEDULE_MAGIC)
        .ok_or_else(|| format!("schedule header must start with '{SCHEDULE_MAGIC}'"))?;
    let mut scenario = None;
    let mut k = None;
    let mut table_shards = None;
    let mut policy = None;
    let mut degrade = None;
    for token in rest.split_ascii_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| format!("bad header token '{token}' (want key=value)"))?;
        match key {
            "scenario" => scenario = Some(value.to_string()),
            "k" => k = value.parse::<usize>().ok(),
            "table-shards" => table_shards = value.parse::<usize>().ok(),
            "threads" => {} // provenance only; the replay is single-threaded
            "policy" => policy = Some(value.to_string()),
            "degrade" => {
                degrade = Some(FaultPolicy::parse(value).ok_or_else(|| {
                    format!("unknown degrade policy '{value}' in schedule header")
                })?)
            }
            other => return Err(format!("unknown header key '{other}'")),
        }
    }
    Ok(ScheduleMeta {
        scenario: scenario.ok_or("header is missing scenario=")?,
        k: k.ok_or("header is missing or has a bad k=")?,
        table_shards: table_shards.ok_or("header is missing or has a bad table-shards=")?,
        policy: policy.ok_or("header is missing policy=")?,
        degrade: degrade.ok_or("header is missing degrade=")?,
    })
}

/// `occ concurrent`
pub fn concurrent(args: &Args) -> Result<(), CliError> {
    let replay_path = args.str_or("replay", "");
    if !replay_path.is_empty() {
        return concurrent_replay(args, &replay_path);
    }
    reject_len_with_trace(args, "concurrent")?;

    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let threads: usize = uarg(args.num_or("threads", 4usize))?;
    if threads == 0 || threads > MAX_CONCURRENT_THREADS {
        return Err(CliError::Usage(format!(
            "--threads must be 1 to {MAX_CONCURRENT_THREADS}: each worker is one OS thread"
        )));
    }
    let table_shards: usize = uarg(args.num_or("table-shards", 8usize))?;
    if table_shards == 0 {
        return Err(CliError::Usage(
            "--table-shards must be positive (S=1 degenerates to one big lock, \
             which is allowed)"
                .into(),
        ));
    }
    let len: u64 = uarg(args.scaled_or("len", 20_000))?;
    let seed: u64 = uarg(args.num_or("seed", 7u64))?;
    let k: usize = uarg(args.num_or("k", scenario.suggested_k))?;
    let policy_name = args.str_or("policy", "lru");
    let costs = &scenario.costs;
    if with_shared_policy!(policy_name.as_str(), costs, table_shards, |_make| ()).is_none() {
        return Err(CliError::Usage(format!(
            "policy '{policy_name}' cannot share a cache across threads at \
             --table-shards {table_shards}: segment instances must read only the \
             universe (available: lru, fifo, greedy-dual, and convex at \
             --table-shards 1)"
        )));
    }
    let verify = uarg(args.on_off("verify", true))?;
    let timing = uarg(args.on_off("timing", false))?;

    let chaos = chaos_plan(args)?;
    let chaos_active = !chaos.is_clean();
    let degrade = degrade_from_args(args, chaos_active)?.unwrap_or(FaultPolicy::SkipAndCount);

    let mut cfg = SharedConfig::new(k);
    cfg.table_shards = table_shards;
    cfg.degrade = degrade;
    cfg.verify = verify;
    cfg.timing = timing;

    let trace_path = args.str_or("trace", "");
    if chaos_active && !trace_path.is_empty() {
        return Err(CliError::Usage(
            "the --chaos-* flags corrupt the synthetic stream and do not combine \
             with --trace"
                .into(),
        ));
    }
    let run = ConcurrentRun {
        args,
        scenario: &scenario,
        cfg: &cfg,
        threads,
        len,
        seed,
        chaos: chaos_active.then_some(chaos),
        trace_path: &trace_path,
    };
    let report = with_shared_policy!(policy_name.as_str(), costs, table_shards, |make| run
        .serve(make))
    .expect("validated above")?;

    let sched_out = args.str_or("schedule-out", "");
    if !sched_out.is_empty() {
        let mut body = schedule_header(
            scenario.name,
            k,
            table_shards,
            threads,
            &policy_name,
            degrade,
        );
        body.push('\n');
        for e in report.outcome.schedule.entries() {
            body.push_str(&e.to_line());
            body.push('\n');
        }
        write_atomic_with_trailer(Path::new(&sched_out), &body)
            .map_err(|e| CliError::Io(format!("write {sched_out}: {e}")))?;
        eprintln!(
            "wrote commit schedule ({} entries) to {sched_out}",
            report.outcome.schedule.len()
        );
    }

    let json = report.to_json_value();
    let out_path = args.str_or("out", "");
    if !out_path.is_empty() {
        write_atomic(Path::new(&out_path), (json.to_json() + "\n").as_bytes())
            .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
    }
    match args.str_or("format", "table").as_str() {
        "json" => emit(&json.to_json()),
        "table" => {
            let mut t = Table::new(vec!["thread", "hits", "misses", "evictions", "dropped"]);
            for (i, (stats, counters)) in report.outcome.per_thread.iter().enumerate() {
                t.row(vec![
                    i.to_string(),
                    stats.total_hits().to_string(),
                    stats.total_misses().to_string(),
                    stats.total_evictions().to_string(),
                    counters.total_records().to_string(),
                ]);
            }
            emit(&t.to_markdown());
            emit(&format!(
                "concurrent: {threads} threads on one k={k} cache behind one lock \
                 ({} segments, {policy_name}, degrade={}) — {} commits in {:.1} ms, {} req/s",
                table_shards,
                degrade.name(),
                report.outcome.schedule.len(),
                report.wall.as_secs_f64() * 1e3,
                fnum(report.requests_per_sec()),
            ));
            let c = &report.outcome.counters;
            if !c.is_clean() {
                emit(&format!(
                    "faults: {} bad pages, {} wrong owners, {} quarantine drops; \
                     {} users quarantined",
                    c.page_out_of_range, c.owner_mismatch, c.quarantined_drops, c.quarantined_users,
                ));
            }
            emit(match &report.replay {
                Some(_) => {
                    "replay: verified identical (single-thread replay of the \
                            commit schedule reproduced every per-user vector)"
                }
                None => "replay: skipped (--verify off); the schedule was still recorded",
            });
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown format '{other}' (expected table or json)"
            )))
        }
    }
    Ok(())
}

/// Ceiling on `occ concurrent --threads`: each worker is one OS thread
/// with its own trace feed and a probe table as wide as the page
/// universe, so a typo must not ask the OS for 100k of them.
const MAX_CONCURRENT_THREADS: usize = 256;

/// A validated `occ concurrent` run, served by [`ConcurrentRun::serve`]
/// once per shareable policy type.
struct ConcurrentRun<'a> {
    args: &'a Args,
    scenario: &'a Scenario,
    cfg: &'a SharedConfig,
    threads: usize,
    len: u64,
    seed: u64,
    /// The chaos plan, when any `--chaos-*` flag is set.
    chaos: Option<FaultPlan>,
    trace_path: &'a str,
}

impl ConcurrentRun<'_> {
    /// Open the workers' sources and run them against one shared cache
    /// whose segment policies `make_policy` builds.
    fn serve<P: ReplacementPolicy + Send>(
        &self,
        make_policy: impl Fn(usize) -> P,
    ) -> Result<SharedReport, CliError> {
        let (scenario, len) = (self.scenario, self.len);
        // Same derivation as the plain fleet: decorrelated, reproducible.
        let thread_seed = |t: usize| self.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let result = if let Some(chaos) = self.chaos {
            let universe = scenario.stream(1, 0).universe().clone();
            let mut sources: Vec<_> = (0..self.threads)
                .map(|t| {
                    let plan = FaultPlan {
                        seed: chaos.seed ^ thread_seed(t),
                        ..chaos
                    };
                    ChaosSource::new(scenario.stream(len, thread_seed(t)), plan)
                })
                .collect();
            run_shared_fleet(universe, self.cfg, &mut sources, make_policy)
        } else {
            let mut feeds = if self.trace_path.is_empty() {
                (0..self.threads)
                    .map(|t| Feed::Mix(scenario.stream(len, thread_seed(t))))
                    .collect()
            } else {
                // Every worker thread replays the same trace file through
                // its own feed (occbin01 threads share the kernel's cached
                // pages).
                let feeds = (0..self.threads)
                    .map(|_| open_trace_feed(self.args, self.trace_path, scenario))
                    .collect::<Result<Vec<_>, _>>()?;
                eprintln!(
                    "concurrent: replaying {} ({} requests) on every thread \
                     via the {} path",
                    self.trace_path,
                    feeds[0].total_requests(),
                    feeds[0].strategy()
                );
                feeds
            };
            let universe = RequestSource::universe(&feeds[0]).clone();
            let result = run_shared_fleet(universe, self.cfg, &mut feeds, make_policy);
            finish_feeds(feeds)?;
            result
        };
        result.map_err(|e| match e {
            SharedError::Sim(e) => CliError::from(e),
            SharedError::Replay(e) => CliError::Fault(format!("deterministic replay gate: {e}")),
        })
    }
}

/// `occ concurrent --replay FILE`
fn concurrent_replay(args: &Args, path: &str) -> Result<(), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    let body = require_trailer(&text).map_err(|m| CliError::Parse(format!("{path}: {m}")))?;
    let mut lines = body.lines();
    let header = lines
        .next()
        .ok_or_else(|| CliError::Parse(format!("{path}: empty schedule file")))?;
    let meta =
        parse_schedule_header(header).map_err(|m| CliError::Parse(format!("{path}: {m}")))?;
    let scenario = find_scenario(&meta.scenario)?;
    let table_shards = meta.table_shards;
    if with_shared_policy!(
        meta.policy.as_str(),
        &scenario.costs,
        table_shards,
        |_make| ()
    )
    .is_none()
    {
        return Err(CliError::Parse(format!(
            "{path}: schedule header names non-shareable policy '{}'",
            meta.policy
        )));
    }
    let schedule =
        CommitSchedule::from_lines(lines.filter(|l| !l.trim().is_empty() && !l.starts_with('#')))
            .map_err(|e| CliError::Parse(format!("{path}: {e}")))?;

    let universe = scenario.stream(1, 0).universe().clone();
    let started = Instant::now();
    let replayed = with_shared_policy!(
        meta.policy.as_str(),
        &scenario.costs,
        table_shards,
        |make| replay_schedule(
            meta.k,
            universe,
            (0..table_shards).map(make).collect(),
            meta.degrade,
            &schedule
        )
    )
    .expect("validated above");
    let outcome: ReplayOutcome = replayed.map_err(|e| match e {
        ReplayError::Schedule(m) => CliError::Parse(format!("{path}: bad commit schedule: {m}")),
        other => CliError::Fault(other.to_string()),
    })?;
    let wall = started.elapsed();

    let quarantined = outcome
        .quarantined
        .iter()
        .map(|u| Json::from_u64(u.0 as u64))
        .collect();
    let json = Json::Obj(vec![
        ("schema".into(), Json::from_u64(1)),
        ("kind".into(), Json::Str("concurrent-replay".into())),
        ("scenario".into(), Json::Str(meta.scenario.clone())),
        ("policy".into(), Json::Str(meta.policy.clone())),
        ("capacity".into(), Json::from_u64(meta.k as u64)),
        (
            "table_shards".into(),
            Json::from_u64(meta.table_shards as u64),
        ),
        ("degrade".into(), Json::Str(meta.degrade.name().into())),
        ("commits".into(), Json::from_u64(schedule.len() as u64)),
        ("users".into(), users_json(&outcome.stats)),
        ("faults".into(), faults_json(&outcome.counters)),
        ("quarantined".into(), Json::Arr(quarantined)),
        ("wall_ms".into(), Json::Num(wall.as_secs_f64() * 1e3)),
    ]);
    let out_path = args.str_or("out", "");
    if !out_path.is_empty() {
        write_atomic(Path::new(&out_path), (json.to_json() + "\n").as_bytes())
            .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
    }
    match args.str_or("format", "table").as_str() {
        "json" => emit(&json.to_json()),
        "table" => {
            emit(&format!(
                "replayed {} commits of '{}' ({}, k={}, {} segments): \
                 {} hits, {} misses, {} evictions, {} dropped",
                schedule.len(),
                meta.scenario,
                meta.policy,
                meta.k,
                meta.table_shards,
                outcome.stats.total_hits(),
                outcome.stats.total_misses(),
                outcome.stats.total_evictions(),
                outcome.counters.total_records(),
            ));
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown format '{other}' (expected table or json)"
            )))
        }
    }
    Ok(())
}

/// Parse a seeded chaos plan like `"1@250k,2@1M"` into `(shard, n)`
/// pairs, validating the shard indices against the fleet size.
fn parse_chaos_plan(text: &str, shards: usize, flag: &str) -> Result<Vec<(usize, u64)>, CliError> {
    let mut out = Vec::new();
    for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (shard, n) = item.split_once('@').ok_or_else(|| {
            CliError::Usage(format!("bad --{flag} entry '{item}' (want SHARD@N)"))
        })?;
        let shard: usize = shard
            .trim()
            .parse()
            .map_err(|e| CliError::Usage(format!("bad shard in --{flag} entry '{item}': {e}")))?;
        if shard >= shards {
            return Err(CliError::Usage(format!(
                "--{flag} targets shard {shard} but the fleet has {shards} shard(s)"
            )));
        }
        let n = parse_scaled(n.trim())
            .map_err(|e| CliError::Usage(format!("bad count in --{flag} entry '{item}': {e}")))?;
        out.push((shard, n));
    }
    Ok(out)
}

/// Read a checkpoint back, insisting on an intact CRC trailer: a torn,
/// truncated, or bit-flipped snapshot is a parse error (exit 4), never
/// a silent partial resume.
fn read_checkpoint(path: &Path) -> Result<EngineSnapshot, CliError> {
    let shown = path.display();
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {shown}: {e}")))?;
    let body =
        require_trailer(&text).map_err(|e| CliError::Parse(format!("checkpoint {shown}: {e}")))?;
    Ok(snapshot_from_json(body)?)
}

/// Check that `snap` (named `what` in errors) can continue a run over
/// `universe` at capacity `k` — the one compatibility rule behind `occ
/// resume`, `occ soak --from` and `occ fleet --from-dir`. With a
/// `window` the snapshot must sit on a window boundary, since a resumed
/// series carries no partial-window state. Without a fault handler
/// (`degrade` false) it must come from a run that absorbed no faults:
/// there is nowhere to restore their counters to.
fn check_snapshot(
    what: &str,
    snap: &EngineSnapshot,
    universe: &Universe,
    k: usize,
    window: Option<u64>,
    degrade: bool,
) -> Result<(), CliError> {
    let problem = if universe.owners() != snap.owners.as_slice() {
        format!(
            "{what} universe ({} pages / {} users) does not match the stream; \
             resume needs the same --scenario/--len/--seed (or --trace) as the original run",
            snap.owners.len(),
            snap.num_users
        )
    } else if k != snap.capacity {
        format!(
            "--k {k} disagrees with the {what}'s capacity {}",
            snap.capacity
        )
    } else if let Some(w) = window.filter(|&w| !snap.time.is_multiple_of(w)) {
        format!(
            "{what} is at t={} which is mid-window for --window {w}; \
             resume with the original window width",
            snap.time
        )
    } else if !(degrade || snap.faults.is_clean() && snap.quarantined.is_empty()) {
        format!(
            "{what} comes from a degraded run ({} faulty records absorbed); \
             continue it with `occ resume --degrade ...`",
            snap.faults.total_records()
        )
    } else {
        return Ok(());
    };
    Err(CliError::Usage(problem))
}

/// The dual sampler's view of a policy: ALG-DISCRETE exposes its
/// primal-dual state, every other policy has none.
trait DualView {
    fn convex(&self) -> Option<&ConvexCaching>;
}

impl DualView for ConvexCaching {
    fn convex(&self) -> Option<&ConvexCaching> {
        Some(self)
    }
}

impl DualView for Box<dyn ReplacementPolicy> {
    fn convex(&self) -> Option<&ConvexCaching> {
        None
    }
}

/// Skip the `t` requests a checkpoint already served, so `source`
/// continues exactly where the interrupted run left off; `total` is how
/// many requests the source holds, checked first.
fn seek_served<S: SeekableSource>(source: &mut S, t: Time, total: u64) -> Result<(), CliError> {
    if t > total {
        return Err(CliError::Usage(format!(
            "checkpoint is at t={t} but the trace ended after {total} requests \
             (is this the right trace?)"
        )));
    }
    source.seek_forward(t);
    Ok(())
}

/// A run's `--checkpoint` file and its cadence, as stops of the serve
/// loop ([`SteppingEngine::serve_stops`]): written at each multiple of
/// `every` (0 = none along the way) and, when a path is named, at the
/// end of the run, unless the last write along the way already holds
/// the end state.
struct Checkpoints<'a> {
    path: &'a str,
    every: u64,
    written_at: Option<Time>,
}

impl<'a> Checkpoints<'a> {
    fn new(path: &'a str, every: u64) -> Self {
        let every = if path.is_empty() { 0 } else { every };
        Checkpoints {
            path,
            every,
            written_at: None,
        }
    }

    /// At a stop, snapshot `eng` — with the handler's fault state, when
    /// there is one — into a checksummed checkpoint if one is due.
    fn at_stop<P: ReplacementPolicy, R: occ_sim::Recorder>(
        &mut self,
        eng: &SteppingEngine<P, R>,
        handler: Option<&FaultHandler>,
        end: bool,
    ) -> Result<(), CliError> {
        let t = eng.time();
        let due = if end {
            !self.path.is_empty() && self.written_at != Some(t)
        } else {
            self.every > 0 && t.is_multiple_of(self.every)
        };
        if !due {
            return Ok(());
        }
        let snap = match handler {
            Some(h) => eng.snapshot_with_faults(h)?,
            None => eng.snapshot()?,
        };
        self.written_at = Some(t);
        write_atomic_with_trailer(Path::new(self.path), &(snapshot_to_json(&snap) + "\n"))
            .map_err(|e| CliError::Io(format!("write checkpoint {}: {e}", self.path)))
    }
}

/// Serve an observe run to the end of `source`, stopping at every
/// multiple of `every` to sample the dual state into `dual` (closed with
/// the end state) and at the checkpoint cadence.
fn serve_observed<P, R>(
    eng: &mut SteppingEngine<P, R>,
    source: &mut TraceSource,
    every: u64,
    mut ckpt: Checkpoints,
    handler: Option<&mut FaultHandler>,
    mut dual: Option<&mut DualTrace>,
) -> Result<(), CliError>
where
    P: ReplacementPolicy + DualView,
    R: occ_sim::Recorder,
{
    if let (Some(d), Some(alg)) = (dual.as_deref_mut(), eng.policy().convex()) {
        d.maybe_sample(eng.time(), alg);
    }
    let ckpt_every = ckpt.every;
    eng.serve_stops(
        source,
        occ_sim::DEFAULT_BATCH_SIZE,
        handler,
        |t| next_multiple(t, every).min(next_multiple(t, ckpt_every)),
        |eng, handler, end| {
            let t = eng.time();
            if let (Some(d), Some(alg)) = (dual.as_deref_mut(), eng.policy().convex()) {
                if end {
                    d.finalize(t, alg);
                } else if t.is_multiple_of(every) {
                    d.maybe_sample(t, alg);
                }
            }
            ckpt.at_stop(eng, handler, end)
        },
    )?;
    Ok(())
}

/// Build one observe run's engine (fresh or from `snap`), attach the
/// metrics recorder and, with `--events`, the JSONL sink, and drive it
/// over the rest of `source` with `--every` as the sampling cadence.
/// Returns the final counters, the policy's name and — for
/// ALG-DISCRETE — the dual trajectory.
fn observe_with<P: ReplacementPolicy + DualView>(
    args: &Args,
    k: usize,
    snap: Option<&EngineSnapshot>,
    policy: P,
    source: &mut TraceSource,
    handler: Option<&mut FaultHandler>,
    rec: &mut MetricsRecorder,
) -> Result<(SimStats, String, Option<DualTrace>), CliError> {
    let every: u64 = uarg(args.num_or("every", 1_000u64))?;
    let events_path = args.str_or("events", "");
    let checkpoint_path = args.str_or("checkpoint", "");
    let ckpt = Checkpoints::new(
        &checkpoint_path,
        uarg(args.num_or("checkpoint-every", 10_000u64))?,
    );
    let eng = match snap {
        Some(s) => SteppingEngine::from_snapshot(s, policy)?,
        None => SteppingEngine::new(k, source.universe().clone(), policy),
    };
    let mut dual = eng.policy().convex().map(|_| DualTrace::new(every));
    let every = every.max(1);
    if events_path.is_empty() {
        let mut eng = eng.with_recorder(rec);
        serve_observed(&mut eng, source, every, ckpt, handler, dual.as_mut())?;
        return Ok((eng.stats().clone(), eng.policy().name(), dual));
    }
    let file = File::create(&events_path)
        .map_err(|e| CliError::Io(format!("create {events_path}: {e}")))?;
    let mut eng = eng.with_recorder((rec, JsonlSink::new(BufWriter::new(file))));
    serve_observed(&mut eng, source, every, ckpt, handler, dual.as_mut())?;
    let (stats, name) = (eng.stats().clone(), eng.policy().name());
    let (_, sink) = eng.into_recorder();
    sink.finish()
        .map_err(|e| CliError::Io(format!("writing {events_path}: {e}")))?;
    Ok((stats, name, dual))
}

/// Parse the record-chaos flags into a fault plan: `--chaos-page-rate`
/// and `--chaos-owner-rate` (each in [0, 1]), `--chaos-truncate`
/// (k/M/B suffixes) and `--chaos-seed`. A clean plan means no fault
/// injection was requested.
fn chaos_plan(args: &Args) -> Result<FaultPlan, CliError> {
    let page_rate: f64 = uarg(args.num_or("chaos-page-rate", 0.0f64))?;
    let owner_rate: f64 = uarg(args.num_or("chaos-owner-rate", 0.0f64))?;
    let truncate = uarg(args.scaled_or("chaos-truncate", 0))?;
    let seed: u64 = uarg(args.num_or("chaos-seed", 0xC4A05u64))?;
    for (name, rate) in [
        ("chaos-page-rate", page_rate),
        ("chaos-owner-rate", owner_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(CliError::Usage(format!(
                "--{name} must be in [0, 1], got {rate}"
            )));
        }
    }
    let plan = FaultPlan::seeded(seed)
        .with_page_rate(page_rate)
        .with_owner_rate(owner_rate);
    Ok(if truncate > 0 {
        plan.with_truncate_at(truncate as usize)
    } else {
        plan
    })
}

/// Apply the `--chaos-*` fault plan to the trace; the flag is whether
/// any fault injection was requested.
fn chaos_records(args: &Args, trace: &Trace) -> Result<(Vec<Request>, bool), CliError> {
    let plan = chaos_plan(args)?;
    if plan.is_clean() {
        return Ok((trace.requests().to_vec(), false));
    }
    let (records, injected) = plan.corrupt_trace(trace);
    eprintln!(
        "chaos: injected {} corrupt pages, {} wrong owners{} (seed {})",
        injected.pages,
        injected.owners,
        if injected.truncated {
            ", truncated"
        } else {
            ""
        },
        plan.seed,
    );
    Ok((records, true))
}

/// Parse `--degrade`: explicit flag wins; chaos injection without a flag
/// defaults to fail-fast (the library default), surfaced loudly.
fn degrade_from_args(args: &Args, chaos_active: bool) -> Result<Option<FaultPolicy>, CliError> {
    match args.str_or("degrade", "").as_str() {
        "" => Ok(chaos_active.then_some(FaultPolicy::FailFast)),
        name => FaultPolicy::parse(name).map(Some).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown --degrade policy '{name}' (fail-fast, skip, quarantine)"
            ))
        }),
    }
}

/// Assemble the observe/resume report from final engine state.
fn build_report(
    name: String,
    k: usize,
    stats: &SimStats,
    costs: &CostProfile,
    rec: &MetricsRecorder,
    dual: Option<&DualTrace>,
) -> Result<ObserveReport, CliError> {
    let requests = stats.total_hits().saturating_add(stats.total_misses());
    let misses = stats.total_misses();
    // The checked evaluation turns a pathological cost function (NaN,
    // overflow) into a typed fault instead of a silent NaN in the report.
    let total_cost = costs
        .total_cost_checked(&stats.eviction_vector())
        .map_err(|e| CliError::Fault(e.to_string()))?;
    Ok(ObserveReport {
        policy: name,
        capacity: k as u64,
        requests,
        hits: stats.total_hits(),
        misses,
        evictions: stats.total_evictions(),
        miss_rate: if requests == 0 {
            0.0
        } else {
            misses as f64 / requests as f64
        },
        total_cost: Some(total_cost),
        metrics: rec.to_json_value(),
        dual: dual.map(DualTrace::to_json_value),
    })
}

fn emit_report(report: &ObserveReport, out_path: &str) -> Result<(), CliError> {
    let text = report.to_json();
    if out_path.is_empty() {
        emit(&text);
    } else {
        write_atomic(Path::new(out_path), (text + "\n").as_bytes())
            .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
        eprintln!("wrote report to {out_path}");
    }
    Ok(())
}

/// `occ observe`
pub fn observe(args: &Args) -> Result<(), CliError> {
    observe_from(args, None)
}

/// `occ resume`: read and check the snapshot, then run `occ observe`
/// from it.
pub fn resume(args: &Args) -> Result<(), CliError> {
    let from = uarg(args.str_required("from"))?;
    observe_from(args, Some(&read_checkpoint(Path::new(&from))?))
}

/// The body of `occ observe`, run fresh or continuing from `snap`: one
/// policy with metrics (and optionally a JSONL event stream and the
/// dual trajectory) attached, over a possibly chaos-corrupted trace.
fn observe_from(args: &Args, snap: Option<&EngineSnapshot>) -> Result<(), CliError> {
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let trace = load_or_generate(args, &scenario)?;
    // Resumed capacity comes from the snapshot; an explicit --k must agree.
    let k: usize = uarg(args.num_or("k", snap.map_or(scenario.suggested_k, |s| s.capacity)))?;
    let policy_name = args.str_or("policy", "convex");
    let (records, chaos_active) = chaos_records(args, &trace)?;
    let degrade = degrade_from_args(args, chaos_active)?;
    let mut handler = degrade.map(|p| FaultHandler::new(p, trace.universe().num_users()));
    if let Some(s) = snap {
        check_snapshot("snapshot", s, trace.universe(), k, None, degrade.is_some())?;
        if let Some(h) = &mut handler {
            h.restore(s)?;
        }
    }

    let mut src = TraceSource::raw(trace.universe(), &records);
    if let Some(s) = snap {
        seek_served(&mut src, s.time, records.len() as u64)?;
    }
    let mut rec = MetricsRecorder::new();
    let (stats, name, dual) = if policy_name == "convex" {
        let alg = ConvexCaching::new(scenario.costs.clone());
        observe_with(args, k, snap, alg, &mut src, handler.as_mut(), &mut rec)?
    } else {
        let policy = make_policy(&policy_name, &scenario.costs, &trace)?;
        observe_with(args, k, snap, policy, &mut src, handler.as_mut(), &mut rec)?
    };

    if let Some(s) = snap {
        eprintln!(
            "resumed from t={} ({} of {} records remained)",
            s.time,
            records.len().saturating_sub(s.time as usize),
            records.len()
        );
    }
    let faults = handler.map(|h| h.counters().clone()).unwrap_or_default();
    if !faults.is_clean() {
        eprintln!(
            "degraded ({}): absorbed {} faulty records, quarantined {} users",
            degrade.unwrap_or_default(),
            faults.total_records(),
            faults.quarantined_users
        );
    }
    let report = build_report(name, k, &stats, &scenario.costs, &rec, dual.as_ref())?;
    emit_report(&report, &args.str_or("out", ""))
}

/// Everything `run_soak` needs beyond the engine inputs.
struct SoakOpts<'a> {
    /// Tumbling-window width in requests.
    window: u64,
    /// JSONL series destination (empty = no series file).
    series_path: &'a str,
    /// Header metadata for the series file.
    meta: &'a [(&'a str, Json)],
    /// Checkpoint cadence in requests, already rounded to a window
    /// multiple (0 = end of run only).
    checkpoint_every: u64,
    /// Checkpoint destination (empty = off).
    checkpoint_path: &'a str,
    /// Print progress to stderr roughly once a second.
    heartbeat: bool,
    /// Total requests the run aims for (resume included), for ETA.
    target: u64,
}

/// Pull one `kB`-valued field out of a `/proc/self/status` dump. Every
/// step is fallible — the line can be absent (restricted /proc,
/// non-Linux emulation layers) or malformed — and each failure is a
/// `None`, never a panic in the heartbeat path.
fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Pull the resident-set size (in kB) out of a `/proc/self/status`
/// dump.
fn parse_vmrss_kb(status: &str) -> Option<u64> {
    parse_status_kb(status, "VmRSS:")
}

/// Resident-set figures for the heartbeat: total RSS plus, when the
/// kernel breaks it down, the anonymous portion on its own. The
/// distinction matters for mmap-backed ingestion: the file mapping's
/// resident pages are reclaimable page cache counted into `VmRSS`, so
/// on a big trace the total balloons while the engine's own footprint
/// (`RssAnon`) stays flat. Reporting both keeps the O(1)-memory claim
/// checkable from the heartbeat.
struct RssSample {
    total: u64,
    /// `RssAnon` — absent when only the `/proc/self/statm` fallback (or
    /// an old kernel's status file) is available.
    anon: Option<u64>,
}

fn rss_sample() -> Option<RssSample> {
    if let Ok(text) = std::fs::read_to_string("/proc/self/status") {
        if let Some(kb) = parse_vmrss_kb(&text) {
            return Some(RssSample {
                total: kb * 1024,
                anon: parse_status_kb(&text, "RssAnon:").map(|kb| kb * 1024),
            });
        }
    }
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(RssSample {
        total: pages * 4096,
        anon: None,
    })
}

/// Check that the window deltas tile the run: summed, they must equal
/// what the engine's counters gained from `base` to `stats`, so a window
/// lost or drained twice between the ring and the sink is caught.
fn check_window_totals(
    total: &WindowDelta,
    stats: &SimStats,
    base: &SimStats,
) -> Result<(), String> {
    let d_hits = stats.total_hits() - base.total_hits();
    let d_misses = stats.total_misses() - base.total_misses();
    let d_evictions = stats.total_evictions() - base.total_evictions();
    if total.hits != d_hits || total.misses() != d_misses || total.evictions != d_evictions {
        return Err(format!(
            "window deltas (hits {}, misses {}, evictions {}) do not tile the run \
             (hits {d_hits}, misses {d_misses}, evictions {d_evictions})",
            total.hits,
            total.misses(),
            total.evictions
        ));
    }
    let at = |v: &[u64], u: usize| v.get(u).copied().unwrap_or(0);
    for (u, us) in stats.per_user().iter().enumerate() {
        let b = base.per_user().get(u).copied().unwrap_or_default();
        if at(&total.hits_by_user, u) != us.hits - b.hits
            || at(&total.misses_by_user, u) != us.misses - b.misses
            || at(&total.evictions_by_user, u) != us.evictions - b.evictions
        {
            return Err(format!("window deltas do not tile the run for tenant {u}"));
        }
    }
    Ok(())
}

/// Serve a soak run, stopping at every window boundary: attach the dual
/// point to the closing window, cut it from the engine's counters
/// ([`StatsWindows`]), stream closed windows to the series sink, beat
/// the heartbeat and checkpoint at aligned multiples; check at the end
/// that the window deltas tile the run; and print the summary tables.
fn run_soak<P, const TIMED: bool>(
    k: usize,
    snap: Option<&EngineSnapshot>,
    policy: P,
    mut source: Feed,
    opts: &SoakOpts,
) -> Result<(), CliError>
where
    P: ReplacementPolicy + DualView,
{
    let eng = match snap {
        Some(s) => SteppingEngine::from_snapshot(s, policy)?,
        None => SteppingEngine::new(k, source.universe().clone(), policy),
    };
    let start_t = eng.time();
    let base = eng.stats().clone();
    let mut eng = eng.with_recorder(
        StatsWindows::<TIMED>::starting_at(opts.window, start_t, &base).with_ring_capacity(64),
    );

    seek_served(&mut source, start_t, opts.target)?;

    // The series streams to `<path>.tmp` through a CRC accumulator and
    // only moves to its final name — trailer appended, fsynced, renamed
    // — after a successful finish. A killed soak leaves the temp file
    // behind; readers never see a torn or trailer-less final series.
    // Targets that are not regular files (a device like /dev/full, a
    // fifo feeding a live consumer) cannot be atomically replaced —
    // renaming over them would swap the node out — so those are written
    // in place and write errors still surface with the i/o class.
    let series_direct = !opts.series_path.is_empty()
        && std::fs::metadata(opts.series_path)
            .map(|m| !m.is_file())
            .unwrap_or(false);
    let series_tmp = if series_direct {
        Path::new(opts.series_path).to_path_buf()
    } else {
        occ_probe::atomicio::tmp_path(Path::new(opts.series_path))
    };
    let mut sink = if opts.series_path.is_empty() {
        None
    } else {
        let file = File::create(&series_tmp)
            .map_err(|e| CliError::Io(format!("create {}: {e}", series_tmp.display())))?;
        let mut s = SeriesSink::new(CrcWriter::new(BufWriter::new(file)));
        s.write_header(opts.window, opts.meta);
        Some(s)
    };

    let started = Instant::now();
    let mut last_beat = started;
    let mut total = WindowDelta::default();
    let mut windows = 0u64;
    let mut ckpt = Checkpoints::new(opts.checkpoint_path, opts.checkpoint_every);
    let window = opts.window;
    // The checkpoint cadence is a multiple of the window width, so the
    // window boundaries are every stop the run needs.
    let served = eng.serve_stops(
        &mut source,
        occ_sim::DEFAULT_BATCH_SIZE,
        None,
        |t| next_multiple(t, window),
        |eng, handler, end| {
            // Attach the dual point to the window that is about to close
            // (a run that ends on a boundary closed it at that stop), cut
            // it from the engine's counters (or close the trailing
            // partial window at the end), and drain closed windows to the
            // sink.
            let t = eng.time();
            let point = if end && t.is_multiple_of(window) {
                None
            } else {
                eng.policy().convex().map(DualPoint::of)
            };
            let (rec, stats) = eng.recorder_and_stats();
            if let Some(point) = point {
                rec.note_dual(point);
            }
            if end {
                rec.finalize(t, stats);
            } else {
                rec.cut(t, stats);
            }
            for w in rec.drain_new() {
                total.merge_from(&w);
                windows += 1;
                if let Some(s) = &mut sink {
                    s.write_window(&w);
                }
            }
            if opts.heartbeat && !end && last_beat.elapsed().as_secs_f64() >= 1.0 {
                last_beat = Instant::now();
                let rate = (t - start_t) as f64 / started.elapsed().as_secs_f64();
                let eta = if opts.target > t && rate > 0.0 {
                    format!("{:.0}s", (opts.target - t) as f64 / rate)
                } else {
                    "-".into()
                };
                let rss = match rss_sample() {
                    // Report anon separately: the mmap ingestion path
                    // legitimately pins file-backed pages into RSS.
                    Some(RssSample {
                        total,
                        anon: Some(anon),
                    }) => format!("{} MB (anon {} MB)", total / (1 << 20), anon / (1 << 20)),
                    Some(RssSample { total, anon: None }) => format!("{} MB", total / (1 << 20)),
                    None => "n/a".into(),
                };
                eprintln!(
                    "soak: {t}/{} requests · {} req/s · ETA {eta} · RSS {rss}",
                    opts.target,
                    fnum(rate)
                );
            }
            ckpt.at_stop(eng, handler, end)
        },
    )?;
    let end_t = eng.time();

    finish_feeds([source])?;
    // Sticky sink errors surface here (exit 3) rather than silently
    // dropping the tail of the series.
    let series_lines = match sink {
        None => 0,
        Some(mut s) => {
            let ioerr =
                |e: std::io::Error| CliError::Io(format!("writing {}: {e}", opts.series_path));
            let lines = s.lines();
            s.seal().map_err(ioerr)?;
            let (buf, _) = s.finish().map_err(ioerr)?.into_parts();
            let file = buf.into_inner().map_err(|e| ioerr(e.into_error()))?;
            if series_direct {
                // In-place target: nothing to rename, and fsync is not
                // meaningful on devices/fifos.
                drop(file);
            } else {
                file.sync_all().map_err(ioerr)?;
                drop(file);
                std::fs::rename(&series_tmp, opts.series_path).map_err(ioerr)?;
            }
            lines
        }
    };

    let stats = eng.stats();
    check_window_totals(&total, stats, &base).map_err(CliError::Other)?;
    let elapsed = started.elapsed();
    if start_t > 0 {
        eprintln!("soak: resumed from t={start_t}, served {served} more requests");
    }
    let requests = stats.total_hits() + stats.total_misses();
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["policy".into(), eng.policy().name()]);
    t.row(vec!["k".into(), k.to_string()]);
    t.row(vec!["requests".into(), requests.to_string()]);
    t.row(vec!["window".into(), opts.window.to_string()]);
    t.row(vec!["windows".into(), windows.to_string()]);
    t.row(vec!["hits".into(), stats.total_hits().to_string()]);
    t.row(vec!["misses".into(), stats.total_misses().to_string()]);
    let miss_rate = stats.total_misses() as f64 / requests.max(1) as f64;
    t.row(vec!["miss_rate".into(), format!("{miss_rate:.4}")]);
    t.row(vec![
        "evictions".into(),
        stats.total_evictions().to_string(),
    ]);
    let rate = served as f64 / elapsed.as_secs_f64().max(1e-9);
    t.row(vec!["req/s".into(), fnum(rate)]);
    if !opts.series_path.is_empty() {
        let shown = format!("{} ({series_lines} lines)", opts.series_path);
        t.row(vec!["series".into(), shown]);
    }
    emit(&t.to_markdown());

    let mut per = Table::new(vec!["tenant", "hits", "misses", "miss%", "evictions"]);
    for (u, us) in stats.per_user().iter().enumerate() {
        let miss_rate = us.misses as f64 / (us.hits + us.misses).max(1) as f64;
        per.row(vec![
            u.to_string(),
            us.hits.to_string(),
            us.misses.to_string(),
            format!("{miss_rate:.3}"),
            us.evictions.to_string(),
        ]);
    }
    emit(&per.to_markdown());
    eprintln!(
        "soak: window deltas tile the run ({windows} windows, t={}..{end_t})",
        base.total_hits() + base.total_misses()
    );
    Ok(())
}

/// `occ soak`
pub fn soak(args: &Args) -> Result<(), CliError> {
    reject_len_with_trace(args, "soak")?;
    let scenario = find_scenario(&uarg(args.str_required("scenario"))?)?;
    let len = uarg(args.scaled_or("len", 10_000_000))?;
    let seed: u64 = uarg(args.num_or("seed", 7u64))?;
    let window = uarg(args.scaled_or("window", 1_000_000))?;
    if window == 0 {
        return Err(CliError::Usage("--window must be positive".into()));
    }
    let policy_name = args.str_or("policy", "convex");
    if policy_name == "belady" || policy_name == "belady-cost" {
        return Err(CliError::Usage(format!(
            "policy '{policy_name}' is offline; soak streams its workload \
             and never materializes a trace"
        )));
    }
    if make_online_policy(&policy_name, &scenario.costs).is_none() {
        return Err(CliError::Usage(format!("unknown policy '{policy_name}'")));
    }
    let series_path = args.str_or("series", "");
    let timed = uarg(args.on_off("timing", false))?;
    let heartbeat = uarg(args.on_off("heartbeat", true))?;
    let checkpoint_path = args.str_or("checkpoint", "");
    let mut checkpoint_every = uarg(args.scaled_or("checkpoint-every", 0))?;
    if !checkpoint_path.is_empty() && checkpoint_every == 0 {
        checkpoint_every = window;
    }
    if checkpoint_every > 0 {
        // Checkpoints land on window boundaries so a resumed series
        // continues byte-identically (no partial-window state to lose).
        let rounded = checkpoint_every.div_ceil(window) * window;
        if rounded != checkpoint_every {
            eprintln!(
                "soak: rounding --checkpoint-every {checkpoint_every} up to {rounded} \
                 (a multiple of --window {window})"
            );
        }
        checkpoint_every = rounded;
    }

    // Source: the scenario's streaming mixer, or a trace file
    // (occbin01/occbin02/CSV — `open_trace_feed` sniffs and checks the
    // tenant structure against the scenario).
    let trace_path = args.str_or("trace", "");
    let source = if trace_path.is_empty() {
        Feed::Mix(scenario.stream(len, seed))
    } else {
        let feed = open_trace_feed(args, &trace_path, &scenario)?;
        eprintln!(
            "soak: streaming {trace_path} via the {} path",
            feed.strategy()
        );
        feed
    };
    let target = source.total_requests();

    // Resume from a checkpoint written by an earlier soak.
    let from = args.str_or("from", "");
    let snap = if from.is_empty() {
        None
    } else {
        Some(read_checkpoint(Path::new(&from))?)
    };
    let k: usize = uarg(args.num_or(
        "k",
        snap.as_ref().map_or(scenario.suggested_k, |s| s.capacity),
    ))?;
    if let Some(s) = &snap {
        check_snapshot("snapshot", s, source.universe(), k, Some(window), false)?;
    }
    let meta = [
        ("scenario", Json::Str(scenario.name.to_string())),
        ("policy", Json::Str(policy_name.clone())),
        ("k", Json::from_u64(k as u64)),
        ("seed", Json::from_u64(seed)),
        ("len", Json::from_u64(target)),
        ("start", Json::from_u64(snap.as_ref().map_or(0, |s| s.time))),
    ];
    let opts = SoakOpts {
        window,
        series_path: &series_path,
        meta: &meta,
        checkpoint_every,
        checkpoint_path: &checkpoint_path,
        heartbeat,
        target,
    };

    if policy_name == "convex" {
        let alg = ConvexCaching::new(scenario.costs.clone());
        if timed {
            run_soak::<_, true>(k, snap.as_ref(), alg, source, &opts)
        } else {
            run_soak::<_, false>(k, snap.as_ref(), alg, source, &opts)
        }
    } else {
        let policy = make_online_policy(&policy_name, &scenario.costs).expect("validated above");
        if timed {
            run_soak::<_, true>(k, snap.as_ref(), policy, source, &opts)
        } else {
            run_soak::<_, false>(k, snap.as_ref(), policy, source, &opts)
        }
    }
}

/// Render a JSONL window series as an aligned table with per-window Δ
/// markers (`occ report --series`).
fn report_series(path: &str, format: &str) -> Result<(), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    let file = SeriesFile::parse(&text).map_err(CliError::Parse)?;
    match format {
        "json" => emit(&file.series().to_json_value().to_json()),
        "table" => {
            let any_latency = file.windows.iter().any(|w| w.latency_ns.is_some());
            let any_dual = file.windows.iter().any(|w| w.dual.is_some());
            let mut head = vec![
                "window", "span", "requests", "miss%", "Δ", "evict", "faults",
            ];
            if any_latency {
                head.push("p99(ns)");
            }
            if any_dual {
                head.push("dual Y");
            }
            let mut t = Table::new(head);
            let mut prev: Option<f64> = None;
            for w in &file.windows {
                let mr = w.miss_ratio();
                let delta = match prev {
                    None => "·".to_string(),
                    Some(p) if (mr - p).abs() < 5e-4 => "·".to_string(),
                    Some(p) => format!("{:+.3}", mr - p),
                };
                prev = Some(mr);
                let mut row = vec![
                    w.index.to_string(),
                    format!("{}..{}", w.start, w.end),
                    w.requests().to_string(),
                    format!("{:.3}", mr),
                    delta,
                    (w.evictions + w.flush_evictions).to_string(),
                    w.faults.total_records().to_string(),
                ];
                if any_latency {
                    row.push(
                        w.latency_ns
                            .as_ref()
                            .map(|h| h.p99().to_string())
                            .unwrap_or_else(|| "-".into()),
                    );
                }
                if any_dual {
                    row.push(
                        w.dual
                            .as_ref()
                            .map(|d| fnum(d.dual_offset))
                            .unwrap_or_else(|| "-".into()),
                    );
                }
                t.row(row);
            }
            emit(&t.to_markdown());
            let total = file.series().total();
            emit(&format!(
                "series: {} windows of {} requests · {} requests total · overall miss ratio {:.3}",
                file.windows.len(),
                file.width,
                total.requests(),
                total.miss_ratio()
            ));
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown format '{other}' (table, json)"
            )))
        }
    }
    Ok(())
}

/// `occ report`
pub fn report(args: &Args) -> Result<(), CliError> {
    let series_path = args.str_or("series", "");
    if !series_path.is_empty() {
        return report_series(&series_path, &args.str_or("format", "table"));
    }
    let path = uarg(args.str_required("in"))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    let parsed = Json::parse(&text).map_err(|e| CliError::Parse(format!("{path}: {e}")))?;
    ObserveReport::validate(&parsed).map_err(CliError::Parse)?;
    let r = ObserveReport::from_json_value(&parsed).map_err(CliError::Parse)?;
    match args.str_or("format", "table").as_str() {
        "table" => emit(&r.to_table()),
        "json" => emit(&r.to_json()),
        other => {
            return Err(CliError::Usage(format!(
                "unknown format '{other}' (table, json)"
            )))
        }
    }
    Ok(())
}

/// `occ conformance`
pub fn conformance(args: &Args) -> Result<(), CliError> {
    let grid_name = args.str_or("grid", "smoke");
    let grid = occ_conformance::grid(&grid_name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown grid '{grid_name}' (available: {})",
            occ_conformance::GRID_NAMES.join(", ")
        ))
    })?;
    let seed = uarg(args.num_or("seed", 7u64))?;
    let weaken = uarg(args.num_or("weaken", 1.0f64))?;
    if !weaken.is_finite() || weaken <= 0.0 {
        return Err(CliError::Usage(
            "--weaken must be a positive finite factor".into(),
        ));
    }
    let shrink = uarg(args.on_off("shrink", true))?;
    let cfg = occ_conformance::RunConfig {
        seed,
        weaken,
        shrink,
    };
    let outcome = occ_conformance::run_grid(&grid, &cfg);

    // Timings are observability, never verdict data: they go to stderr
    // so the JSON below stays byte-deterministic.
    let total_ns: u64 = outcome.cell_elapsed_ns.iter().map(|(_, ns)| ns).sum();
    if let Some((slowest, ns)) = outcome.cell_elapsed_ns.iter().max_by_key(|(_, ns)| *ns) {
        // Some grids (e4's partition cells) serve no requests at all,
        // and an empty histogram has no p99 to report.
        let latency = outcome.metrics.latency_ns();
        let steps = if latency.count() == 0 {
            "no requests served".to_string()
        } else {
            format!("step latency p99 {} ns", latency.p99())
        };
        eprintln!(
            "{} cells in {:.1} ms (slowest {slowest}: {:.1} ms); {steps}",
            grid.cells.len(),
            total_ns as f64 / 1e6,
            *ns as f64 / 1e6,
        );
    }

    let json = outcome.verdicts.to_json();
    let out_path = args.str_or("out", "");
    if !out_path.is_empty() {
        write_atomic(Path::new(&out_path), format!("{json}\n").as_bytes())
            .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
        eprintln!("verdicts written to {out_path}");
    }
    match args.str_or("format", "table").as_str() {
        "table" => emit(&outcome.verdicts.to_table()),
        "json" => emit(&json),
        other => {
            return Err(CliError::Usage(format!(
                "unknown format '{other}' (table, json)"
            )))
        }
    }

    let (_, fail, _) = outcome.verdicts.counts();
    if fail > 0 {
        return Err(CliError::Conformance(format!(
            "{fail} of {} cells FAILed their bound (grid {grid_name}, seed {seed}, weaken {weaken})",
            grid.cells.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn accepted_flags_come_from_the_usage_synopses() {
        let sorted = |command: &str, action: Option<&str>| {
            let mut flags = accepted_flags(command, action).expect("a USAGE block");
            flags.sort_unstable();
            flags.join(" ")
        };
        let cases = [
            ("help", None, ""),
            ("scenarios", None, ""),
            ("generate", None, "format len out scenario seed"),
            ("trace", Some("pack"), "in limit out"),
            ("trace", Some("unpack"), "in limit out"),
            (
                "trace",
                Some("import"),
                "csv-flavor dict format in out tenants",
            ),
            ("run", None, "k len policy scenario seed trace"),
            ("compare", None, "k len scenario seed trace"),
            ("mrc", None, "len max-k scenario seed trace"),
            (
                "observe",
                None,
                "chaos-owner-rate chaos-page-rate chaos-seed chaos-truncate checkpoint \
                 checkpoint-every degrade events every k len out policy scenario seed trace",
            ),
            (
                "resume",
                None,
                "chaos-owner-rate chaos-page-rate chaos-seed chaos-truncate checkpoint \
                 checkpoint-every degrade events every from k len out policy scenario seed trace",
            ),
            (
                "soak",
                None,
                "checkpoint checkpoint-every csv-flavor from heartbeat k len policy \
                 scenario seed series timing trace window",
            ),
            ("report", None, "format in series"),
            (
                "fleet",
                None,
                "backoff-ms chaos-shard-kill chaos-store-fail checkpoint-dir \
                 csv-flavor format from-dir k len max-restarts out policy scenario seed \
                 series-out shards timing trace window",
            ),
            (
                "concurrent",
                None,
                "chaos-owner-rate chaos-page-rate chaos-seed chaos-truncate csv-flavor \
                 degrade format k len out policy replay scenario schedule-out seed \
                 table-shards threads timing trace verify",
            ),
            ("conformance", None, "format grid out seed shrink weaken"),
        ];
        for (command, action, want) in cases {
            assert_eq!(sorted(command, action), want, "occ {command} {action:?}");
        }
        assert_eq!(accepted_flags("nope", None), None);
        assert_eq!(accepted_flags("trace", None), None);
        assert_eq!(accepted_flags("trace", Some("nope")), None);
    }

    #[test]
    fn scenarios_lists_without_error() {
        scenarios().unwrap();
    }

    #[test]
    fn unknown_scenario_is_friendly() {
        let err = find_scenario("nope").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("available"));
        assert_eq!(err.exit_code(), 2, "unknown scenario is a usage error");
    }

    #[test]
    fn run_compare_and_mrc_on_generated_trace() {
        run(&args(&[
            "run",
            "--scenario",
            "two-tier",
            "--len",
            "500",
            "--k",
            "8",
        ]))
        .unwrap();
        compare(&args(&[
            "compare",
            "--scenario",
            "two-tier",
            "--len",
            "500",
            "--k",
            "8",
        ]))
        .unwrap();
        mrc(&args(&[
            "mrc",
            "--scenario",
            "two-tier",
            "--len",
            "500",
            "--max-k",
            "8",
        ]))
        .unwrap();
    }

    #[test]
    fn conformance_smoke_passes_and_writes_deterministic_verdicts() {
        let dir = std::env::temp_dir().join("occ-cli-conformance-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a_path = dir.join("verdicts-a.json");
        let b_path = dir.join("verdicts-b.json");
        for path in [&a_path, &b_path] {
            conformance(&args(&[
                "conformance",
                "--grid",
                "smoke",
                "--seed",
                "7",
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let a = std::fs::read(&a_path).unwrap();
        let b = std::fs::read(&b_path).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed ⇒ byte-identical verdict JSON");
        let parsed = Json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        occ_conformance::VerdictTable::validate(&parsed).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conformance_weakened_bounds_exit_with_code_6() {
        let err = conformance(&args(&[
            "conformance",
            "--grid",
            "smoke",
            "--weaken",
            "1e-6",
            "--shrink",
            "off",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert_eq!(err.class(), "conformance");
        assert!(err.to_string().contains("FAILed"));
    }

    #[test]
    fn conformance_rejects_bad_flags_as_usage_errors() {
        for bad in [
            vec!["conformance", "--grid", "nope"],
            vec!["conformance", "--weaken", "0"],
            vec!["conformance", "--weaken", "-1"],
            vec!["conformance", "--shrink", "maybe"],
            vec!["conformance", "--format", "xml"],
        ] {
            let err = conformance(&args(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    /// Run `occ concurrent` with `flags` and `--schedule-out`, replay
    /// the schedule with `--replay`, and demand the two reports agree.
    fn concurrent_round_trip(name: &str, flags: &[&str]) {
        let dir = std::env::temp_dir().join(format!("occ-cli-concurrent-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let sched = dir.join("schedule.txt");
        let run_json = dir.join("run.json");
        let replay_json = dir.join("replay.json");
        let mut run_args = vec!["concurrent", "--scenario", "two-tier", "--format", "json"];
        run_args.extend_from_slice(flags);
        run_args.extend_from_slice(&[
            "--schedule-out",
            sched.to_str().unwrap(),
            "--out",
            run_json.to_str().unwrap(),
        ]);
        concurrent(&args(&run_args)).unwrap();
        concurrent(&args(&[
            "concurrent",
            "--replay",
            sched.to_str().unwrap(),
            "--out",
            replay_json.to_str().unwrap(),
        ]))
        .unwrap();
        let run = Json::parse(&std::fs::read_to_string(&run_json).unwrap()).unwrap();
        let rep = Json::parse(&std::fs::read_to_string(&replay_json).unwrap()).unwrap();
        for section in ["users", "faults", "quarantined"] {
            let a = run.get(section).unwrap().to_json();
            let b = rep.get(section).unwrap().to_json();
            assert_eq!(a, b, "run and replay disagree on '{section}'");
        }
        assert_eq!(
            run.get("commits").unwrap().to_json(),
            rep.get("commits").unwrap().to_json()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_run_schedule_roundtrip_and_replay() {
        concurrent_round_trip(
            "test",
            &[
                "--threads",
                "4",
                "--table-shards",
                "4",
                "--len",
                "800",
                "--k",
                "8",
            ],
        );
    }

    #[test]
    fn concurrent_runs_convex_at_one_segment() {
        concurrent_round_trip(
            "convex",
            &[
                "--threads",
                "2",
                "--table-shards",
                "1",
                "--len",
                "800",
                "--k",
                "8",
                "--policy",
                "convex",
            ],
        );
    }

    #[test]
    fn concurrent_chaos_quarantine_smoke() {
        concurrent(&args(&[
            "concurrent",
            "--scenario",
            "two-tier",
            "--threads",
            "3",
            "--len",
            "500",
            "--chaos-owner-rate",
            "0.02",
            "--degrade",
            "quarantine",
            "--format",
            "json",
        ]))
        .unwrap();
    }

    #[test]
    fn concurrent_rejects_bad_flags_as_usage_errors() {
        for bad in [
            vec!["concurrent", "--scenario", "two-tier", "--threads", "0"],
            vec!["concurrent", "--scenario", "two-tier", "--threads", "257"],
            // Rejected before any feed opens: a missing trace would be
            // an i/o error (exit 3).
            vec![
                "concurrent",
                "--scenario",
                "two-tier",
                "--threads",
                "100000",
                "--trace",
                "/nonexistent/trace.occbin01",
            ],
            vec![
                "concurrent",
                "--scenario",
                "two-tier",
                "--table-shards",
                "0",
            ],
            vec!["concurrent", "--scenario", "two-tier", "--policy", "convex"],
            vec!["concurrent", "--scenario", "two-tier", "--policy", "lfu"],
            vec!["concurrent", "--scenario", "two-tier", "--verify", "maybe"],
            vec!["concurrent", "--scenario", "two-tier", "--format", "xml"],
            vec![
                "concurrent",
                "--scenario",
                "two-tier",
                "--chaos-page-rate",
                "1.5",
            ],
        ] {
            let err = concurrent(&args(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn concurrent_replay_rejects_corrupt_schedules() {
        let dir = std::env::temp_dir().join("occ-cli-concurrent-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        // No CRC trailer at all.
        let bare = dir.join("bare.txt");
        std::fs::write(&bare, "# occ-concurrent-schedule v1 scenario=two-tier\n").unwrap();
        let err =
            concurrent(&args(&["concurrent", "--replay", bare.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.exit_code(), 4, "missing trailer is a parse error");
        // Sealed but non-contiguous schedule body.
        let gap = dir.join("gap.txt");
        let body = format!(
            "{}\n5 0 0 0 0 ins\n",
            schedule_header("two-tier", 8, 2, 1, "lru", FaultPolicy::SkipAndCount)
        );
        write_atomic_with_trailer(&gap, &body).unwrap();
        let err =
            concurrent(&args(&["concurrent", "--replay", gap.to_str().unwrap()])).unwrap_err();
        assert_eq!(err.exit_code(), 4, "seq gap is a parse error");
        assert!(err.to_string().contains("contiguous"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_policy_name_constructs() {
        let s = find_scenario("two-tier").unwrap();
        let trace = s.trace(50, 1);
        for name in [
            "convex",
            "lru",
            "fifo",
            "lfu",
            "marking",
            "lru2",
            "random",
            "greedy-dual",
            "cost-greedy",
            "belady",
            "belady-cost",
        ] {
            make_policy(name, &s.costs, &trace).unwrap();
        }
        assert!(make_policy("nope", &s.costs, &trace).is_err());
    }

    #[test]
    fn observe_writes_valid_report_and_report_renders_it() {
        let dir = std::env::temp_dir().join("occ-cli-observe-test");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("report.json");
        let events_path = dir.join("events.jsonl");
        observe(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "800",
            "--k",
            "8",
            "--every",
            "200",
            "--out",
            report_path.to_str().unwrap(),
            "--events",
            events_path.to_str().unwrap(),
        ]))
        .unwrap();

        let text = std::fs::read_to_string(&report_path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        ObserveReport::validate(&parsed).unwrap();
        let r = ObserveReport::from_json_value(&parsed).unwrap();
        assert_eq!(r.requests, 800);
        assert!(r.dual.is_some(), "convex policy must emit a dual trace");
        // The dual trajectory's final primal cost equals the report's
        // stats-derived total cost exactly (the acceptance criterion).
        let samples = r
            .dual
            .as_ref()
            .unwrap()
            .get("samples")
            .and_then(Json::as_array)
            .unwrap();
        let last_cost = samples
            .last()
            .unwrap()
            .get("primal_cost")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(Some(last_cost), r.total_cost);

        // Every event line parses; the count matches the request count
        // (no flush in observe runs).
        let events = std::fs::read_to_string(&events_path).unwrap();
        assert_eq!(events.lines().count() as u64, r.requests);
        for line in events.lines().take(50) {
            Json::parse(line).unwrap();
        }

        report(&args(&["report", "--in", report_path.to_str().unwrap()])).unwrap();
        report(&args(&[
            "report",
            "--in",
            report_path.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .unwrap();
        std::fs::remove_file(report_path).ok();
        std::fs::remove_file(events_path).ok();
    }

    #[test]
    fn observe_works_for_baseline_policies() {
        observe(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--policy",
            "lru",
            "--len",
            "300",
            "--k",
            "8",
        ]))
        .unwrap();
    }

    #[test]
    fn report_rejects_garbage() {
        let dir = std::env::temp_dir().join("occ-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(
            &path,
            format!("{{\"schema\": {}}}", occ_probe::REPORT_SCHEMA),
        )
        .unwrap();
        let err = report(&args(&["report", "--in", path.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("required key"), "got: {err}");
        assert_eq!(err.exit_code(), 4, "unreadable report is a parse error");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_then_run_round_trip() {
        let dir = std::env::temp_dir().join("occ-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.occ");
        let path_s = path.to_str().unwrap();
        generate(&args(&[
            "generate",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--out",
            path_s,
        ]))
        .unwrap();
        run(&args(&[
            "run",
            "--scenario",
            "two-tier",
            "--trace",
            path_s,
            "--policy",
            "lru",
            "--k",
            "8",
        ]))
        .unwrap();
        // A trace whose user count mismatches the scenario is rejected.
        let err = run(&args(&[
            "run",
            "--scenario",
            "sqlvm-like",
            "--trace",
            path_s,
            "--k",
            "8",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("users"));
        std::fs::remove_file(path).ok();
    }

    /// Parse an observe/resume report file back into a struct.
    fn read_report(path: &std::path::Path) -> ObserveReport {
        let text = std::fs::read_to_string(path).unwrap();
        ObserveReport::from_json(&text).unwrap()
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted_run() {
        for policy in ["convex", "lru"] {
            let dir = std::env::temp_dir().join(format!("occ-cli-resume-{policy}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
            let (full, half, resumed, ckpt) = (
                path("full.json"),
                path("half.json"),
                path("resumed.json"),
                path("ckpt.json"),
            );
            let (full_ev, resumed_ev) = (path("full.jsonl"), path("resumed.jsonl"));
            let base = [
                "--scenario",
                "two-tier",
                "--policy",
                policy,
                "--len",
                "900",
                "--every",
                "50",
            ];
            let run = |cmd: &str, extra: &[&str]| {
                let mut v = vec![cmd];
                v.extend_from_slice(&base);
                v.extend_from_slice(extra);
                args(&v)
            };

            // The uninterrupted reference run.
            observe(&run(
                "observe",
                &["--k", "8", "--out", &full, "--events", &full_ev],
            ))
            .unwrap();
            // The "interrupted" run: truncate the stream at 400 requests
            // and leave a checkpoint behind.
            observe(&run(
                "observe",
                &[
                    "--k",
                    "8",
                    "--chaos-truncate",
                    "400",
                    "--checkpoint",
                    &ckpt,
                    "--checkpoint-every",
                    "150",
                    "--out",
                    &half,
                ],
            ))
            .unwrap();
            assert_eq!(read_report(Path::new(&half)).requests, 400);
            // Continue over the full trace from the checkpoint.
            let extra = ["--from", &ckpt, "--out", &resumed, "--events", &resumed_ev];
            resume(&run("resume", &extra)).unwrap();

            let (a, b) = (
                read_report(Path::new(&full)),
                read_report(Path::new(&resumed)),
            );
            assert_eq!(a.requests, b.requests, "{policy}");
            assert_eq!(a.hits, b.hits, "{policy}");
            assert_eq!(a.misses, b.misses, "{policy}");
            assert_eq!(a.evictions, b.evictions, "{policy}");
            assert_eq!(a.total_cost, b.total_cost, "{policy}");
            // The dual trajectory from the resume point on, and the final
            // eviction vector, are the uninterrupted run's bit for bit.
            assert_eq!(a.dual.is_some(), policy == "convex");
            if let (Some(da), Some(db)) = (&a.dual, &b.dual) {
                let tail = |d: &Json| -> Vec<String> {
                    let samples = d.get("samples").and_then(Json::as_array).unwrap();
                    samples
                        .iter()
                        .filter(|s| s.get("t").and_then(Json::as_u64).unwrap() >= 400)
                        .map(Json::to_json)
                        .collect()
                };
                assert_eq!(tail(da).len(), 11, "samples at t = 400, 450, ..., 900");
                assert_eq!(tail(da), tail(db), "{policy}: dual samples diverged");
                assert_eq!(
                    da.get("final_m").map(Json::to_json),
                    db.get("final_m").map(Json::to_json)
                );
            }
            // The resumed event stream is the tail of the uninterrupted one.
            let (ea, eb) = (
                std::fs::read_to_string(&full_ev).unwrap(),
                std::fs::read_to_string(&resumed_ev).unwrap(),
            );
            let (ea, eb): (Vec<_>, Vec<_>) = (ea.lines().collect(), eb.lines().collect());
            assert_eq!(eb.len(), 500, "{policy}: one event per resumed request");
            assert_eq!(ea[400..], eb[..], "{policy}: event tail diverged");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn named_checkpoint_is_written_at_exit_even_with_cadence_zero() {
        let dir = std::env::temp_dir().join("occ-cli-ckpt-every-0");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        std::fs::remove_file(&ckpt).ok();
        observe(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "8",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "0",
        ]))
        .unwrap();
        let snap = read_checkpoint(&ckpt).expect("checkpoint written at end of run");
        assert_eq!(snap.time, 300);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_invocations() {
        let dir = std::env::temp_dir().join("occ-cli-resume-reject");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        observe(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "8",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        let c = ckpt.to_str().unwrap();

        // Wrong capacity.
        let err = resume(&args(&[
            "resume",
            "--from",
            c,
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "9",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // Different trace (seed) → different universe length is fine here
        // (same scenario), but a different scenario's universe is not.
        let err = resume(&args(&[
            "resume",
            "--from",
            c,
            "--scenario",
            "sqlvm-like",
            "--len",
            "300",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // A policy without a matching snapshot name.
        let err = resume(&args(&[
            "resume",
            "--from",
            c,
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--policy",
            "lru",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // A tampered snapshot version is a parse error. Re-seal the
        // tampered body with a fresh trailer so the version check — not
        // the checksum — is what fires.
        let text = std::fs::read_to_string(&ckpt).unwrap();
        let body = occ_probe::require_trailer(&text).unwrap();
        assert!(body.contains("\"version\":2"), "checkpoint format changed");
        let bad = dir.join("bad.json");
        std::fs::write(
            &bad,
            occ_probe::with_trailer(&body.replacen("\"version\":2", "\"version\":99", 1)),
        )
        .unwrap();
        let err = resume(&args(&[
            "resume",
            "--from",
            bad.to_str().unwrap(),
            "--scenario",
            "two-tier",
            "--len",
            "300",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "got: {err}");
        assert!(err.to_string().contains("version 99"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_truncated_checkpoints_are_rejected_with_exit_4() {
        let dir = std::env::temp_dir().join("occ-cli-ckpt-crc");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        observe(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--len",
            "300",
            "--k",
            "8",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&ckpt).unwrap();
        // The written checkpoint verifies and leaves no temp file.
        occ_probe::require_trailer(&text).unwrap();
        assert!(!occ_probe::atomicio::tmp_path(&ckpt).exists());

        let resume_from = |path: &std::path::Path| {
            resume(&args(&[
                "resume",
                "--from",
                path.to_str().unwrap(),
                "--scenario",
                "two-tier",
                "--len",
                "300",
            ]))
            .unwrap_err()
        };
        // A single flipped byte in the body fails the checksum.
        let mut flipped = text.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let bad = dir.join("flipped.json");
        std::fs::write(&bad, &flipped).unwrap();
        let err = resume_from(&bad);
        assert_eq!(err.exit_code(), 4, "got: {err}");
        assert!(
            err.to_string().contains("checksum mismatch")
                || err.to_string().contains("malformed checksum trailer"),
            "got: {err}"
        );
        // Truncation (losing the trailer) is rejected too — a partial
        // resume must never look like success.
        let cut = dir.join("truncated.json");
        std::fs::write(&cut, &text.as_bytes()[..text.len() / 2]).unwrap();
        let err = resume_from(&cut);
        assert_eq!(err.exit_code(), 4, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vmrss_parsing_tolerates_missing_fields() {
        assert_eq!(
            parse_vmrss_kb("Name:\tocc\nVmRSS:\t  12345 kB\nVmSwap:\t0 kB\n"),
            Some(12345)
        );
        // No VmRSS line at all (the panic the heartbeat used to risk).
        assert_eq!(parse_vmrss_kb("Name:\tocc\nState:\tR (running)\n"), None);
        assert_eq!(parse_vmrss_kb(""), None);
        // Malformed value or a line with no field after the key.
        assert_eq!(parse_vmrss_kb("VmRSS:\tlots kB\n"), None);
        assert_eq!(parse_vmrss_kb("VmRSS:\n"), None);
    }

    #[test]
    fn window_totals_must_tile_the_run() {
        let scenario = find_scenario("two-tier").unwrap();
        let trace = scenario.trace(3_000, 5);
        let mut eng =
            SteppingEngine::new(scenario.suggested_k, trace.universe().clone(), Lru::new());
        let mut cuts = vec![eng.stats().clone()];
        let mut windows = Vec::new();
        for chunk in trace.requests().chunks(1_000) {
            eng.step_batch(chunk);
            windows.push(WindowDelta::between(cuts.last().unwrap(), eng.stats()));
            cuts.push(eng.stats().clone());
        }
        let start = &cuts[0];
        let sum = |ws: &[WindowDelta]| {
            let mut total = WindowDelta::default();
            for w in ws {
                total.merge_from(w);
            }
            total
        };
        let end = eng.stats();
        assert_eq!(check_window_totals(&sum(&windows), end, start), Ok(()));
        // A resumed run's windows tile the run from its checkpoint on.
        assert_eq!(
            check_window_totals(&sum(&windows[1..]), end, &cuts[1]),
            Ok(())
        );
        let err = check_window_totals(&sum(&windows[1..]), end, start).unwrap_err();
        assert!(err.contains("do not tile the run"), "a lost window: {err}");
        let mut twice = windows.clone();
        twice.push(windows[2].clone());
        assert!(
            check_window_totals(&sum(&twice), end, start).is_err(),
            "a window drained twice"
        );
    }

    #[test]
    fn generated_traces_land_atomically_in_both_formats() {
        let dir = std::env::temp_dir().join("occ-cli-generate-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        for format in ["text", "binary"] {
            let path = dir.join(format!("t-{format}.occ"));
            generate(&args(&[
                "generate",
                "--scenario",
                "two-tier",
                "--len",
                "200",
                "--format",
                format,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(
                !occ_probe::atomicio::tmp_path(&path).exists(),
                "{format}: temp file must not linger"
            );
            let trace = read_trace_auto(BufReader::new(File::open(&path).unwrap())).unwrap();
            assert_eq!(trace.len(), 200, "{format}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_series_is_sealed_with_a_trailer_and_no_temp_file() {
        let dir = std::env::temp_dir().join("occ-cli-soak-trailer");
        std::fs::create_dir_all(&dir).unwrap();
        let series = dir.join("s.jsonl");
        soak(&args(&[
            "soak",
            "--scenario",
            "two-tier",
            "--len",
            "4000",
            "--window",
            "1000",
            "--k",
            "8",
            "--policy",
            "lru",
            "--heartbeat",
            "off",
            "--series",
            series.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&series).unwrap();
        occ_probe::require_trailer(&text).unwrap();
        assert!(!occ_probe::atomicio::tmp_path(&series).exists());
        // The trailer-aware parser reads it back: header + 4 windows.
        let file = SeriesFile::parse(&text).unwrap();
        assert_eq!(file.windows.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Shared harness for the supervised-fleet CLI tests: run `occ
    /// fleet` with the given extra flags, writing the report to
    /// `<dir>/<name>.json`, and return it parsed on success. Failures
    /// (including degraded exits, which still write the report) come
    /// back as the error; callers re-read the file if they need it.
    fn fleet_json(dir: &std::path::Path, name: &str, extra: &[&str]) -> Result<Json, CliError> {
        let out = dir.join(format!("{name}.json"));
        let mut v = vec![
            "fleet",
            "--scenario",
            "two-tier",
            "--shards",
            "3",
            "--len",
            "6000",
            "--seed",
            "5",
            "--policy",
            "lru",
            "--window",
            "1000",
            "--format",
            "json",
            "--out",
        ];
        let out_s = out.to_str().unwrap().to_string();
        v.push(&out_s);
        v.extend_from_slice(extra);
        fleet(&args(&v))?;
        Ok(Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap())
    }

    #[test]
    fn fleet_refuses_to_resume_a_degraded_snapshot() {
        // A shard checkpoint taken by a run that absorbed faults carries
        // fault counters the fleet has nowhere to restore: the shared
        // snapshot check refuses it, as `occ soak --from` does.
        let dir = std::env::temp_dir().join("occ-cli-fleet-degraded-snapshot");
        let ckpts = dir.join("ckpts");
        std::fs::create_dir_all(&ckpts).unwrap();
        let shard0 = DirPersist::ckpt_path(&ckpts, 0);
        observe(&args(&[
            "observe",
            "--scenario",
            "two-tier",
            "--policy",
            "lru",
            "--len",
            "6000",
            "--chaos-truncate",
            "2000",
            "--chaos-page-rate",
            "0.02",
            "--chaos-owner-rate",
            "0.02",
            "--degrade",
            "skip",
            "--checkpoint",
            shard0.to_str().unwrap(),
            "--checkpoint-every",
            "2000",
        ]))
        .unwrap();
        let snap = read_checkpoint(&shard0).unwrap();
        assert_eq!(snap.time, 2000);
        assert!(!snap.faults.is_clean(), "the checkpoint absorbed faults");
        let from = ["--from-dir", ckpts.to_str().unwrap()];
        let err = fleet_json(&dir, "degraded", &from).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        assert!(err.to_string().contains("degraded run"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_fleet_with_chaos_matches_the_clean_run_byte_for_byte() {
        let dir = std::env::temp_dir().join("occ-cli-fleet-chaos");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let clean_series = dir.join("clean.jsonl");
        let chaos_series = dir.join("chaos.jsonl");
        let ckpts = dir.join("ckpts");

        let clean = fleet_json(
            &dir,
            "clean",
            &["--series-out", clean_series.to_str().unwrap()],
        )
        .unwrap();
        let chaos = fleet_json(
            &dir,
            "chaos",
            &[
                "--series-out",
                chaos_series.to_str().unwrap(),
                "--checkpoint-dir",
                ckpts.to_str().unwrap(),
                "--chaos-shard-kill",
                "0@1,1@3000,2@6000",
                "--chaos-store-fail",
                "1@1",
                "--max-restarts",
                "5",
            ],
        )
        .unwrap();

        // Same merged series bytes, trailer included.
        let a = std::fs::read(&clean_series).unwrap();
        let b = std::fs::read(&chaos_series).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "recovered series diverged from the clean one");

        // Both reports carry a supervisor section; neither is degraded;
        // the chaos run absorbed every scheduled failure.
        for (name, r) in [("clean", &clean), ("chaos", &chaos)] {
            assert!(r.get("supervisor").is_some(), "{name}");
            assert!(r.get("degraded").is_none(), "{name}");
        }
        let restarts = chaos
            .get("supervisor")
            .and_then(|s| s.get("total_restarts"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(restarts >= 4, "3 kills + 1 store fault, got {restarts}");

        // Per-shard deterministic fields agree between the runs
        // (elapsed_ms / requests_per_sec are wall-clock and excluded).
        let shards_of = |r: &Json| r.get("shards").and_then(Json::as_array).unwrap().to_vec();
        for (a, b) in shards_of(&clean).iter().zip(&shards_of(&chaos)) {
            for key in [
                "shard",
                "requests",
                "hits",
                "misses",
                "evictions",
                "misses_by_user",
            ] {
                assert_eq!(
                    a.get(key).unwrap().to_json(),
                    b.get(key).unwrap().to_json(),
                    "field {key}"
                );
            }
        }

        // The per-shard checkpoints are sealed and resumable: a fleet
        // resumed from the final checkpoints serves nothing more and
        // stays clean.
        fleet_json(&dir, "resumed", &["--from-dir", ckpts.to_str().unwrap()]).unwrap();

        // Corrupting one checkpoint byte makes --from-dir exit 4.
        let ckpt0 = occ_fleet::DirPersist::ckpt_path(&ckpts, 0);
        let mut bytes = std::fs::read(&ckpt0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&ckpt0, &bytes).unwrap();
        let err = fleet_json(&dir, "corrupt", &["--from-dir", ckpts.to_str().unwrap()])
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.exit_code(), 4, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_fleet_restarts_exit_degraded_with_the_report_written() {
        let dir = std::env::temp_dir().join("occ-cli-fleet-degraded");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = fleet_json(
            &dir,
            "degraded",
            &["--chaos-shard-kill", "1@100,1@200", "--max-restarts", "1"],
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.exit_code(), 7, "got: {err}");
        assert_eq!(err.class(), "degraded");
        // The report was written before the exit code surfaced, with
        // the degraded section naming the quarantined shard.
        let text = std::fs::read_to_string(dir.join("degraded.json")).unwrap();
        let r = Json::parse(&text).unwrap();
        let q = r
            .get("degraded")
            .and_then(|d| d.get("quarantined"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].get("shard").and_then(Json::as_u64), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_supervision_follows_the_flags_that_need_it() {
        let dir = std::env::temp_dir().join("occ-cli-fleet-selection");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An explicit --max-restarts alone supervises the run.
        let r = fleet_json(&dir, "restarts", &["--max-restarts", "3"]).unwrap();
        let sup = r.get("supervisor").expect("supervisor section");
        assert_eq!(sup.get("total_restarts").and_then(Json::as_u64), Some(0));
        // The benchmark's argv shape (a window, no supervision flag)
        // stays plain: no supervisor section, a populated recorder.
        let out = dir.join("plain.json");
        fleet(&args(&[
            "fleet",
            "--scenario",
            "sqlvm-like",
            "--shards",
            "2",
            "--len",
            "4000",
            "--seed",
            "3",
            "--policy",
            "convex",
            "--window",
            "1000",
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let r = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert!(r.get("supervisor").is_none(), "plain run was supervised");
        let merged = r.get("merged").and_then(|m| m.get("requests"));
        assert_eq!(merged.and_then(Json::as_u64), Some(8000));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_supervision_flags_are_validated() {
        let base = |extra: &[&str]| {
            let mut v = vec![
                "fleet",
                "--scenario",
                "two-tier",
                "--shards",
                "2",
                "--len",
                "100",
            ];
            v.extend_from_slice(extra);
            args(&v)
        };
        // Supervision without a window cannot checkpoint.
        let err = fleet(&base(&["--max-restarts", "3"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        // Malformed and out-of-range plans.
        for bad in [
            ["--chaos-shard-kill", "0"],
            ["--chaos-shard-kill", "0@x"],
            ["--chaos-shard-kill", "7@1"],
            ["--chaos-store-fail", "0@0"],
        ] {
            let mut v = vec!["--window", "50"];
            v.extend_from_slice(&bad);
            let err = fleet(&base(&v)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}: {err}");
        }
        // A supervised run folds its merged recorder from untimed
        // windows, so it cannot honour --timing on; --timing off is the default and stays accepted.
        for supervise in [["--max-restarts", "3"], ["--backoff-ms", "0"]] {
            let mut v = vec!["--window", "50", "--timing", "on"];
            v.extend_from_slice(&supervise);
            let err = fleet(&base(&v)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{supervise:?}: {err}");
            assert!(err.to_string().contains("--timing on"), "{err}");
            v[3] = "off";
            fleet(&base(&v)).unwrap();
        }
        let err = fleet(&base(&["--timing", "sometimes"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn chaos_observe_degrades_or_fails_per_policy() {
        let dir = std::env::temp_dir().join("occ-cli-chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.json");
        let chaos: &[&str] = &[
            "--scenario",
            "two-tier",
            "--len",
            "600",
            "--k",
            "8",
            "--chaos-page-rate",
            "0.05",
            "--chaos-owner-rate",
            "0.05",
            "--chaos-seed",
            "42",
        ];
        let with = |extra: &[&str]| {
            let mut v = vec!["observe"];
            v.extend_from_slice(chaos);
            v.extend_from_slice(extra);
            args(&v)
        };

        // Default (fail-fast) surfaces the first fault with exit code 5.
        let err = observe(&with(&[])).unwrap_err();
        assert_eq!(err.exit_code(), 5, "got: {err}");

        // skip and quarantine absorb everything and report nonzero
        // fault counters.
        for degrade in ["skip", "quarantine"] {
            observe(&with(&[
                "--degrade",
                degrade,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
            let r = read_report(&out);
            let total = r
                .metrics
                .get("faults")
                .and_then(|f| f.get("total"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(total > 0, "{degrade}: expected absorbed faults");
            report(&args(&["report", "--in", out.to_str().unwrap()])).unwrap();
        }
        // An unknown degradation policy is a usage error.
        let err = observe(&with(&["--degrade", "explode"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_truncate_takes_magnitude_suffixes_everywhere() {
        let dir = std::env::temp_dir().join("occ-cli-chaos-truncate");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        let out = dir.join("report.json");
        let run = |cmd: &str, truncate: &str, extra: &[&str]| {
            let mut v = vec![
                cmd,
                "--scenario",
                "two-tier",
                "--len",
                "3000",
                "--chaos-truncate",
                truncate,
                "--out",
                out.to_str().unwrap(),
            ];
            v.extend_from_slice(extra);
            args(&v)
        };
        observe(&run(
            "observe",
            "1k",
            &["--checkpoint", ckpt.to_str().unwrap()],
        ))
        .unwrap();
        assert_eq!(read_report(&out).requests, 1000);
        resume(&run("resume", "2k", &["--from", ckpt.to_str().unwrap()])).unwrap();
        assert_eq!(read_report(&out).requests, 2000);
        concurrent(&run(
            "concurrent",
            "1k",
            &["--threads", "2", "--format", "json"],
        ))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_resume_continues_a_degraded_run() {
        let dir = std::env::temp_dir().join("occ-cli-chaos-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        let full = dir.join("full.json");
        let resumed = dir.join("resumed.json");
        let base: &[&str] = &[
            "--scenario",
            "two-tier",
            "--len",
            "700",
            "--k",
            "8",
            "--chaos-page-rate",
            "0.04",
            "--chaos-owner-rate",
            "0.04",
            "--chaos-seed",
            "7",
            "--degrade",
            "quarantine",
        ];
        let run = |cmd: &str, extra: &[&str]| {
            let mut v = vec![cmd];
            v.extend_from_slice(base);
            v.extend_from_slice(extra);
            args(&v)
        };

        // Reference: the whole corrupted stream in one go.
        observe(&run("observe", &["--out", full.to_str().unwrap()])).unwrap();
        // Interrupted at 300 (chaos truncation), then resumed. The plan is
        // regenerated from the same seed, so the continuation sees the
        // same corrupted records.
        observe(&run(
            "observe",
            &[
                "--chaos-truncate",
                "300",
                "--checkpoint",
                ckpt.to_str().unwrap(),
            ],
        ))
        .unwrap();
        // A degraded snapshot without --degrade is refused.
        let err = resume(&args(&[
            "resume",
            "--from",
            ckpt.to_str().unwrap(),
            "--scenario",
            "two-tier",
            "--len",
            "700",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "got: {err}");
        resume(&run(
            "resume",
            &[
                "--from",
                ckpt.to_str().unwrap(),
                "--out",
                resumed.to_str().unwrap(),
            ],
        ))
        .unwrap();

        let (a, b) = (read_report(&full), read_report(&resumed));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.hits, b.hits);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.evictions, b.evictions);
        assert_eq!(a.total_cost, b.total_cost);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_contradictory_quarantine_state_with_exit_4() {
        let dir = std::env::temp_dir().join("occ-cli-quarantine-resume");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("ckpt.json");
        let base: &[&str] = &[
            "--scenario",
            "sqlvm-like",
            "--len",
            "700",
            "--chaos-page-rate",
            "0.01",
            "--chaos-owner-rate",
            "0.01",
            "--chaos-seed",
            "7",
            "--degrade",
            "quarantine",
        ];
        let mut v = vec!["observe"];
        v.extend_from_slice(base);
        v.extend_from_slice(&["--chaos-truncate", "300", "--checkpoint"]);
        v.push(ckpt.to_str().unwrap());
        observe(&args(&v)).unwrap();
        let snap = read_checkpoint(&ckpt).unwrap();
        let held = snap.quarantined.clone();
        assert!(!held.is_empty(), "the seeded chaos must quarantine a user");
        let cached_owner = snap.owners[snap.cache_pages[0].index()];

        let bad = dir.join("bad.json");
        for (quarantined, count, why) in [
            (
                [&held[..], &held[..1]].concat(),
                held.len() + 1,
                "listed twice",
            ),
            (held.clone(), held.len() + 1, "quarantined_users is"),
            (
                [&held[..], &[cached_owner]].concat(),
                held.len() + 1,
                "owns cached page",
            ),
        ] {
            let mut edited = snap.clone();
            edited.quarantined = quarantined;
            edited.faults.quarantined_users = count as u64;
            let text = occ_probe::with_trailer(&(snapshot_to_json(&edited) + "\n"));
            std::fs::write(&bad, text).unwrap();
            let mut v = vec!["resume", "--from", bad.to_str().unwrap()];
            v.extend_from_slice(base);
            let err = resume(&args(&v)).unwrap_err();
            assert_eq!(err.exit_code(), 4, "got: {err}");
            assert!(err.to_string().contains(why), "got: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
