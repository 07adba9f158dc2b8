//! Fault-tolerant fleet supervision: panic-isolated shards,
//! window-boundary checkpoints, bounded restart with deterministic
//! backoff, and quarantine instead of whole-run abort.
//!
//! [`run_fleet`](crate::run_fleet) propagates the first shard panic and
//! aborts the fleet — correct for a benchmark, wrong for the
//! deployment the ROADMAP targets, where one tenant pool hitting a bug
//! must not take down the other ninety-nine. [`run_supervised_fleet`]
//! replaces the propagating join with a per-shard state machine:
//!
//! ```text
//!            ┌──────────── restart (≤ max_restarts, backoff) ─────────┐
//!            ▼                                                        │
//!   RUNNING ──────── panic / persist fault ──────────────────────────▶│
//!      │                                                              │
//!      │ source exhausted                          retries exhausted  │
//!      ▼                                                              ▼
//!   CLEAN / RECOVERED (restarts > 0)                         QUARANTINED
//! ```
//!
//! Each attempt runs under [`std::panic::catch_unwind`]. Poison safety
//! is by construction rather than by `Mutex`: an attempt owns a fresh
//! engine, policy, recorder, and source (rebuilt from factories every
//! time), and the only state that crosses attempts — the last good
//! checkpoint and the committed window list — is mutated exclusively
//! at *commit points*, after the checkpoint has been durably saved. An
//! unwind therefore leaves the cross-attempt state exactly as of the
//! last commit, and the restart replays forward from there.
//!
//! **Determinism.** A restarted shard is byte-identical to one that
//! never crashed: the checkpoint restores the engine and policy
//! losslessly, the source factory plus [`SeekableSource::seek_forward`]
//! reproduces the exact request stream from the crash point (same RNG
//! state), and the windows restart at the checkpoint boundary, cut from
//! the restored counters ([`StatsWindows`]). Each attempt runs the
//! engine's one serve loop ([`SteppingEngine::serve_stops`]), whose
//! stops are the window boundaries and the pending kills. The property
//! test pins merged series and per-user miss vectors across arbitrary
//! kill schedules, shard counts, and window widths.
//!
//! **Crash ordering.** At every window boundary the shard (1) appends
//! the closed windows to its [`DirPersist`] (when it has one), (2)
//! saves the checkpoint, (3) commits both to memory. A crash between
//! (1) and (2) re-appends the same windows after restart; [`DirPersist`]
//! drops duplicates by window index, so the on-disk series never tears
//! or double-counts. Writing the series line *before* its checkpoint is
//! load-bearing: the opposite order could persist a checkpoint whose
//! preceding window was never written, and nothing would ever
//! regenerate it.

use crate::{fleet_report, run_pool, FleetConfig, FleetReport, ShardReport};
use occ_probe::atomicio;
use occ_probe::{
    snapshot_to_json, CrcWriter, Json, MetricsRecorder, SeriesFile, SeriesSink, StatsWindows,
    WindowDelta, WindowSeries,
};
use occ_sim::{
    next_multiple, EngineSnapshot, ReplacementPolicy, SeekableSource, SimStats, SteppingEngine,
};
use std::fs::File;
use std::io::{self, BufWriter};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Kill shard `shard` just before it serves request `at` (fleet-level
/// chaos: the `--chaos-shard-kill` plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardKill {
    /// Target shard index.
    pub shard: usize,
    /// Engine time (requests served by that shard) at which to kill.
    pub at: u64,
}

/// Fail shard `shard`'s `nth` checkpoint save (1-based, counted across
/// restarts, whether or not the shard persists to disk) with an
/// injected error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreFault {
    /// Target shard index.
    pub shard: usize,
    /// Which save to fail (1 = the first save ever attempted).
    pub nth: u64,
}

/// Seeded, deterministic exponential backoff between restart attempts.
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Base delay; 0 disables sleeping entirely (the test setting).
    pub base_ms: u64,
    /// Ceiling on any single delay.
    pub cap_ms: u64,
    /// Jitter seed; the delay is a pure function of
    /// `(seed, shard, attempt)`.
    pub seed: u64,
}

impl BackoffPolicy {
    /// No sleeping at all — restarts are immediate. Tests use this so
    /// recovery timing never depends on the clock.
    pub fn none() -> Self {
        BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 0,
        }
    }

    /// Exponential backoff starting at `base_ms`, doubling per attempt,
    /// capped at 30× base.
    pub fn exponential(base_ms: u64, seed: u64) -> Self {
        BackoffPolicy {
            base_ms,
            cap_ms: base_ms.saturating_mul(30),
            seed,
        }
    }

    /// The delay before restart `attempt` (1-based) of `shard`:
    /// `min(base · 2^(attempt-1), cap)`, halved and topped up with
    /// seeded jitter so simultaneous shard failures do not restart in
    /// lockstep. Deterministic in `(seed, shard, attempt)`.
    pub fn delay_ms(&self, shard: usize, attempt: u32) -> u64 {
        if self.base_ms == 0 {
            return 0;
        }
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.cap_ms.max(self.base_ms));
        let x = splitmix64(
            self.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt as u64,
        );
        exp / 2 + x % (exp / 2 + 1)
    }
}

/// SplitMix64 — the one-shot mixer used for per-cell seeds everywhere
/// in the workspace; here it decorrelates backoff jitter.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration for [`run_supervised_fleet`].
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Shard capacity, batch size, worker cap and window width
    /// ([`FleetConfig::capacity`], [`FleetConfig::batch_size`],
    /// [`FleetConfig::max_workers`], [`FleetConfig::window`]). The window
    /// width is also the checkpoint cadence: every shard checkpoints at
    /// every multiple of it, so it must be set. The supervised shard
    /// always records its windows, so `record` is ignored here. It times
    /// nothing: `timing` must stay off, since its
    /// [`FleetReport::merged`] recorder is folded from the committed
    /// windows, which carry no latency.
    pub fleet: FleetConfig,
    /// Restarts allowed per shard before it is quarantined.
    pub max_restarts: u32,
    /// Backoff between restarts.
    pub backoff: BackoffPolicy,
    /// Seeded kill schedule (chaos).
    pub kills: Vec<ShardKill>,
    /// Injected checkpoint-save failures (chaos).
    pub store_faults: Vec<StoreFault>,
    /// Per-shard snapshots to resume from (`occ fleet --from-dir`);
    /// missing or short entries start the shard fresh.
    pub resume: Vec<Option<EngineSnapshot>>,
}

impl SupervisorConfig {
    /// A supervised fleet with capacity `k`, window width and checkpoint
    /// cadence `window`, 3 restarts per shard, and no chaos.
    pub fn new(capacity: usize, window: u64) -> Self {
        SupervisorConfig {
            fleet: FleetConfig {
                window: Some(window),
                ..FleetConfig::new(capacity)
            },
            max_restarts: 3,
            backoff: BackoffPolicy::none(),
            kills: Vec::new(),
            store_faults: Vec::new(),
            resume: Vec::new(),
        }
    }
}

/// Terminal state of one supervised shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Finished with no failures.
    Clean,
    /// Failed at least once, recovered, and finished; its results are
    /// byte-identical to a clean run.
    Recovered,
    /// Exhausted its restart budget; contributes its last checkpoint's
    /// stats and committed windows only.
    Quarantined,
}

impl ShardState {
    /// Stable lowercase label used in JSON reports and CLI tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            ShardState::Clean => "clean",
            ShardState::Recovered => "recovered",
            ShardState::Quarantined => "quarantined",
        }
    }
}

/// Per-shard supervision outcome (the report's `supervisor` section).
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Terminal state.
    pub state: ShardState,
    /// Restarts performed (= failures absorbed, successful or not).
    pub restarts: u32,
    /// Backoff slept before each restart, in order.
    pub backoff_ms: Vec<u64>,
    /// The last failure's description (`Some` whenever `restarts > 0`).
    pub error: Option<String>,
    /// Committed windows never regenerated after a crash — 0 by
    /// construction for clean/recovered shards (every committed window
    /// sits at or before the checkpoint the restart resumed from).
    /// For a quarantined shard this counts nothing either: windows past
    /// its last checkpoint were never committed, so the merged series
    /// simply ends early for that shard rather than losing data.
    pub windows_lost: u64,
}

/// Fleet-level supervision summary attached to [`FleetReport`].
#[derive(Clone, Debug)]
pub struct SupervisorReport {
    /// One status per shard, in shard order.
    pub shards: Vec<ShardStatus>,
}

impl SupervisorReport {
    /// Total restarts across the fleet.
    pub fn total_restarts(&self) -> u64 {
        self.shards.iter().map(|s| s.restarts as u64).sum()
    }

    /// Indices of quarantined shards.
    pub fn quarantined(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.state == ShardState::Quarantined)
            .map(|s| s.shard)
            .collect()
    }

    /// A run is degraded iff at least one shard was quarantined.
    /// Recovered shards do not degrade the run: their output is
    /// byte-identical to a clean one.
    pub fn is_degraded(&self) -> bool {
        self.shards
            .iter()
            .any(|s| s.state == ShardState::Quarantined)
    }

    /// JSON form (the report's `supervisor` key).
    pub fn to_json_value(&self) -> Json {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("shard".into(), Json::from_u64(s.shard as u64)),
                    ("state".into(), Json::Str(s.state.as_str().into())),
                    ("restarts".into(), Json::from_u64(s.restarts as u64)),
                    (
                        "backoff_ms".into(),
                        Json::Arr(s.backoff_ms.iter().map(|&ms| Json::from_u64(ms)).collect()),
                    ),
                    ("windows_lost".into(), Json::from_u64(s.windows_lost)),
                ];
                if let Some(e) = &s.error {
                    fields.push(("error".into(), Json::Str(e.clone())));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("shards".into(), Json::Arr(shards)),
            (
                "total_restarts".into(),
                Json::from_u64(self.total_restarts()),
            ),
            (
                "quarantined".into(),
                Json::Arr(
                    self.quarantined()
                        .into_iter()
                        .map(|i| Json::from_u64(i as u64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Persist into a directory: `shard-NNNN.ckpt.json` written atomically
/// with a CRC trailer on every save, and `shard-NNNN.series.jsonl`
/// appended line-by-line (flushed per window, duplicate indices
/// dropped) so a SIGKILLed process leaves a resumable prefix. The
/// series file gains its checksum trailer at [`finish`](Self::finish);
/// a mid-run kill leaves it trailer-less, which readers accept.
#[derive(Debug)]
pub struct DirPersist {
    ckpt_path: PathBuf,
    series: SeriesSink<CrcWriter<BufWriter<File>>>,
    /// Next window index the series file expects (the duplicate guard).
    next_index: u64,
    finished: bool,
}

impl DirPersist {
    /// Checkpoint path for shard `shard` under `dir`.
    pub fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:04}.ckpt.json"))
    }

    /// Series path for shard `shard` under `dir`.
    pub fn series_path(dir: &Path, shard: usize) -> PathBuf {
        dir.join(format!("shard-{shard:04}.series.jsonl"))
    }

    /// Open shard `shard`'s persist files under `dir` (created if
    /// missing). The series file is rewritten: its header carries
    /// `header_meta` (shard identity etc.), followed by `committed`, the
    /// windows `0..resume_index` a resumed shard already closed (see
    /// [`committed_windows`](Self::committed_windows); empty for a fresh
    /// start), so the file never starts mid-run. This run appends from
    /// window `committed.len()` on.
    pub fn open(
        dir: &Path,
        shard: usize,
        width: u64,
        committed: &[WindowDelta],
        header_meta: &[(&str, Json)],
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let file = File::create(Self::series_path(dir, shard))?;
        let mut series = SeriesSink::new(CrcWriter::new(BufWriter::new(file)));
        series.write_header(width, header_meta);
        for w in committed {
            series.write_window(w);
        }
        series.flush()?;
        Ok(DirPersist {
            ckpt_path: Self::ckpt_path(dir, shard),
            series,
            next_index: committed.len() as u64,
            finished: false,
        })
    }

    /// The windows `0..resume_index` of shard `shard`'s series under
    /// `dir`, the ones covered by the checkpoint beside it: what a shard
    /// resumed from that checkpoint hands [`open`](Self::open). Lines
    /// after them (windows the killed run wrote past its last
    /// checkpoint, perhaps torn mid-write) are not read. A file that
    /// cannot be read is an I/O error; one with a failing checksum
    /// trailer, another window width, or fewer than `resume_index`
    /// windows numbered from 0 is [`io::ErrorKind::InvalidData`].
    pub fn committed_windows(
        dir: &Path,
        shard: usize,
        width: u64,
        resume_index: u64,
    ) -> io::Result<Vec<WindowDelta>> {
        if resume_index == 0 {
            return Ok(Vec::new());
        }
        let invalid = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
        let text = std::fs::read_to_string(Self::series_path(dir, shard))?;
        let (text, _) = atomicio::verify_trailer(&text).map_err(invalid)?;
        // The header line and one line per committed window, each whole.
        let wanted = resume_index as usize + 1;
        let end = text
            .match_indices('\n')
            .nth(wanted - 1)
            .map(|(i, _)| i + 1)
            .ok_or_else(|| {
                invalid(format!(
                    "series holds fewer than the {resume_index} windows its checkpoint covers"
                ))
            })?;
        let file = SeriesFile::parse(&text[..end]).map_err(invalid)?;
        if file.width != width {
            return Err(invalid(format!(
                "series windows are {} requests wide, not {width}",
                file.width
            )));
        }
        if let Some((i, w)) = (0..).zip(&file.windows).find(|&(i, w)| w.index != i) {
            return Err(invalid(format!(
                "series line {} holds window {}, expected window {i}",
                i + 2,
                w.index
            )));
        }
        Ok(file.windows)
    }

    /// Durably save `snap` as the shard's latest checkpoint (atomic
    /// rename, CRC trailer). Failure aborts the attempt, which is then
    /// retried like a panic.
    pub fn save_checkpoint(&mut self, snap: &EngineSnapshot) -> io::Result<()> {
        let body = snapshot_to_json(snap) + "\n";
        atomicio::write_atomic_with_trailer(&self.ckpt_path, &body)
    }

    /// Append one closed window, flushed. Called before the checkpoint
    /// covering it is saved; windows already on disk (regenerated by a
    /// restart's replay) are dropped.
    pub fn append_window(&mut self, w: &WindowDelta) -> io::Result<()> {
        if w.index < self.next_index {
            // Regenerated after a restart; already on disk.
            return Ok(());
        }
        self.series.write_window(w);
        self.series.flush()?;
        self.next_index = w.index + 1;
        Ok(())
    }

    /// Seal the series with its checksum trailer. Called once the shard
    /// finishes (clean or recovered); later calls do nothing.
    pub fn finish(&mut self) -> io::Result<()> {
        if self.finished {
            return Ok(());
        }
        self.series.seal()?;
        self.finished = true;
        Ok(())
    }
}

/// The panic payload used by the kill schedule. The process-wide panic
/// hook stays silent for this payload only, so chaos runs do not spray
/// stack traces while real panics keep reporting normally.
struct InjectedKill {
    shard: usize,
    at: u64,
}

fn install_quiet_kill_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedKill>().is_none() {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(k) = payload.downcast_ref::<InjectedKill>() {
        format!("injected kill of shard {} at t={}", k.shard, k.at)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("shard panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("shard panicked: {s}")
    } else {
        "shard panicked".into()
    }
}

/// Cross-attempt state of one supervised shard. Mutated only at commit
/// points (see the module docs on poison safety).
struct ShardDriver {
    shard: usize,
    width: u64,
    capacity: usize,
    batch_size: usize,
    /// Last durably checkpointed snapshot; restarts resume here.
    last_good: Option<EngineSnapshot>,
    /// Windows covered by `last_good` (plus, after a clean finish, the
    /// trailing partial window).
    committed: Vec<WindowDelta>,
    /// First window index not yet committed.
    next_commit: u64,
    /// Pending kill times for this shard, ascending; consumed as fired.
    pending_kills: std::collections::VecDeque<u64>,
    /// Where checkpoints and windows go; `None` keeps recovery state in
    /// memory only.
    persist: Option<DirPersist>,
    /// Checkpoint saves attempted so far, across restarts.
    saves: u64,
    /// Saves (1-based) that fail with an injected error
    /// ([`SupervisorConfig::store_faults`]).
    fail_saves: Vec<u64>,
}

impl ShardDriver {
    /// One attempt: rebuild everything from `last_good`, replay to the
    /// end of the stream, committing at each window boundary. Returns
    /// the engine's final stats and end time on success; any `Err` or
    /// panic is a failed attempt.
    fn attempt<S, P>(&mut self, mut source: S, policy: P) -> Result<(SimStats, u64), String>
    where
        S: SeekableSource,
        P: ReplacementPolicy,
    {
        let eng = match &self.last_good {
            Some(snap) => SteppingEngine::from_snapshot(snap, policy)
                .map_err(|e| format!("restoring checkpoint: {e}"))?,
            None => SteppingEngine::new(self.capacity, source.universe().clone(), policy),
        };
        let t0 = eng.time();
        source.seek_forward(t0);
        self.kill_if_due(t0);
        let windows =
            StatsWindows::starting_at(self.width, t0, eng.stats()).with_ring_capacity(usize::MAX);
        let mut eng = eng.with_recorder(windows);
        // Window boundaries and pending kills are the loop's stops; the
        // kill times are copied out, as `at_stop` consumes them.
        let (width, kills) = (self.width, Vec::from(self.pending_kills.clone()));
        let next_kill = move |t| kills.iter().copied().find(|&at| at > t);
        eng.serve_stops(
            &mut source,
            self.batch_size,
            None,
            |t| next_multiple(t, width).min(next_kill(t).unwrap_or(u64::MAX)),
            |eng, _, end| -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
                // Commit before a kill due at the same instant fires, so
                // its restart resumes from this boundary.
                self.commit(eng, end)?;
                self.kill_if_due(eng.time());
                Ok(())
            },
        )
        .map_err(|e| e.to_string())?;
        if let Some(p) = &mut self.persist {
            p.finish().map_err(|e| format!("sealing series: {e}"))?;
        }
        Ok((eng.stats().clone(), eng.time()))
    }

    /// Drop the pending kills before `t`, which belong to a stretch this
    /// attempt does not serve (a resumed run's past), and fire one due at
    /// `t`: consume it and unwind the attempt.
    fn kill_if_due(&mut self, t: u64) {
        while let Some(at) = self.pending_kills.front().copied().filter(|&at| at <= t) {
            self.pending_kills.pop_front();
            if at == t {
                panic::panic_any(InjectedKill {
                    shard: self.shard,
                    at,
                });
            }
        }
    }

    /// Commit point at a stop of the serve loop: close the windows that
    /// end here, persist them, then (at boundaries) the checkpoint, then
    /// update in-memory state. Ordering is the crash contract — see the
    /// module docs. At the `end` of the stream the trailing partial
    /// window closes too: it cannot be checkpointed (resume requires a
    /// boundary), but the stream is over, so it is committed without a
    /// snapshot.
    fn commit<P: ReplacementPolicy>(
        &mut self,
        eng: &mut SteppingEngine<P, StatsWindows>,
        end: bool,
    ) -> Result<(), String> {
        let t = eng.time();
        let (windows, stats) = eng.recorder_and_stats();
        if end {
            windows.finalize(t, stats);
        } else {
            windows.cut(t, stats);
        }
        let drained = windows.drain_new();
        if let Some(p) = &mut self.persist {
            for w in &drained {
                p.append_window(w)
                    .map_err(|e| format!("appending window {}: {e}", w.index))?;
            }
        }
        if t % self.width == 0 {
            let snap = eng.snapshot().map_err(|e| format!("snapshotting: {e}"))?;
            self.saves += 1;
            if self.fail_saves.contains(&self.saves) {
                return Err(format!(
                    "saving checkpoint: injected checkpoint-store fault (save #{})",
                    self.saves
                ));
            }
            if let Some(p) = &mut self.persist {
                p.save_checkpoint(&snap)
                    .map_err(|e| format!("saving checkpoint: {e}"))?;
            }
            // Everything durable — commit to memory.
            self.last_good = Some(snap);
        }
        for w in drained {
            if w.index >= self.next_commit {
                self.next_commit = w.index + 1;
                self.committed.push(w);
            }
        }
        Ok(())
    }
}

/// Drive one shard under supervision to a terminal state.
fn supervise_shard<S, P>(
    shard: usize,
    cfg: &SupervisorConfig,
    width: u64,
    make_source: &(impl Fn(usize) -> S + Sync),
    make_policy: &(impl Fn(usize) -> P + Sync),
    persist: Option<DirPersist>,
) -> (ShardReport, ShardStatus)
where
    S: SeekableSource,
    P: ReplacementPolicy,
{
    install_quiet_kill_hook();
    let start = Instant::now();
    let initial = cfg.resume.get(shard).cloned().flatten();
    let resume_t = initial.as_ref().map_or(0, |s| s.time);
    let mut kills: Vec<u64> = cfg
        .kills
        .iter()
        .filter(|k| k.shard == shard)
        .map(|k| k.at)
        .collect();
    kills.sort_unstable();
    let mut driver = ShardDriver {
        shard,
        width,
        capacity: cfg.fleet.capacity,
        batch_size: cfg.fleet.batch_size,
        last_good: initial,
        committed: Vec::new(),
        next_commit: resume_t / width,
        pending_kills: kills.into(),
        persist,
        saves: 0,
        fail_saves: cfg
            .store_faults
            .iter()
            .filter(|f| f.shard == shard)
            .map(|f| f.nth)
            .collect(),
    };
    let mut restarts = 0u32;
    let mut backoff_ms = Vec::new();
    let mut last_error = None;
    let (state, stats, end) = loop {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            driver.attempt(make_source(shard), make_policy(shard))
        }));
        let error = match outcome {
            Ok(Ok((stats, end))) => {
                let state = if restarts == 0 {
                    ShardState::Clean
                } else {
                    ShardState::Recovered
                };
                break (state, stats, end);
            }
            Ok(Err(msg)) => msg,
            Err(payload) => panic_message(payload),
        };
        last_error = Some(error);
        if restarts == cfg.max_restarts {
            // Quarantine: contribute the last checkpoint's stats and
            // the committed windows; nothing past the checkpoint.
            let (stats, end) = match &driver.last_good {
                Some(snap) => (SimStats::from_per_user(snap.stats.clone()), snap.time),
                None => {
                    let n = make_source(shard).universe().num_users();
                    (SimStats::new(n), resume_t)
                }
            };
            break (ShardState::Quarantined, stats, end);
        }
        restarts += 1;
        let delay = cfg.backoff.delay_ms(shard, restarts);
        backoff_ms.push(delay);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
    };
    let series = WindowSeries {
        width,
        dropped: 0,
        windows: driver.committed,
    };
    let report = ShardReport {
        shard,
        stats,
        served: end - resume_t,
        elapsed: start.elapsed(),
        // The committed windows tile exactly what this run served, so
        // their fold is the shard's whole-run tally, as in the plain
        // windowed fleet.
        recorder: MetricsRecorder::<false>::from_total(series.total()).into(),
        series: Some(series),
    };
    let status = ShardStatus {
        shard,
        state,
        restarts,
        backoff_ms,
        error: last_error,
        windows_lost: 0,
    };
    (report, status)
}

/// Run `shards` supervised shards: each one panic-isolated,
/// checkpointing at every window boundary, restarting from its last
/// checkpoint on failure (bounded by [`SupervisorConfig::max_restarts`]
/// with [`BackoffPolicy`] delays), and quarantined — not aborting the
/// fleet — when the budget is exhausted.
///
/// `make_source` and `make_policy` are called once per *attempt* (a
/// restart rebuilds both; the source is then fast-forwarded to the
/// checkpoint via [`SeekableSource::seek_forward`]). `persist[i]` is
/// shard `i`'s on-disk target; a missing or `None` entry keeps that
/// shard's recovery state in memory only.
///
/// The returned report always carries [`FleetReport::supervisor`].
/// [`FleetReport::merged`] is the fold of the committed windows — the
/// one tally that survives restarts — so its counters equal a plain
/// `window`ed fleet's on the same input, and it carries no latency.
///
/// Panics if `shards` or `cfg.fleet.batch_size` is zero, if
/// `cfg.fleet.window` is not a positive width,
/// or if `cfg.fleet.timing` is set (the latency it asks for would be
/// silently dropped).
pub fn run_supervised_fleet<S, P>(
    shards: usize,
    cfg: &SupervisorConfig,
    make_source: impl Fn(usize) -> S + Sync,
    make_policy: impl Fn(usize) -> P + Sync,
    mut persist: Vec<Option<DirPersist>>,
) -> FleetReport
where
    S: SeekableSource,
    P: ReplacementPolicy,
{
    let width = cfg
        .fleet
        .window
        .filter(|&w| w > 0)
        .expect("supervision needs a positive window width");
    assert!(
        !cfg.fleet.timing,
        "a supervised fleet records no latency; leave timing off"
    );
    persist.resize_with(shards, || None);
    let start = Instant::now();
    let (reports, statuses) = run_pool(persist, &cfg.fleet, |i, persist| {
        supervise_shard(i, cfg, width, &make_source, &make_policy, persist)
    })
    .into_iter()
    .unzip();
    let supervisor = SupervisorReport { shards: statuses };
    fleet_report(reports, Some(width), start.elapsed(), Some(supervisor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_fleet_typed, FleetConfig};
    use occ_baselines::Lru;
    use occ_probe::{require_trailer, snapshot_from_json, SeriesFile};
    use occ_sim::RequestSource;
    use occ_workloads::sqlvm_like;

    const LEN: u64 = 1_000;
    const WIDTH: u64 = 250;
    const SHARDS: usize = 3;

    fn source_for(shard: usize) -> occ_workloads::TenantMixSource {
        sqlvm_like().stream(LEN, 60 + shard as u64)
    }

    fn supervised(cfg: &SupervisorConfig) -> crate::FleetReport {
        run_supervised_fleet(SHARDS, cfg, source_for, |_| Lru::new(), Vec::new())
    }

    fn base_cfg() -> SupervisorConfig {
        SupervisorConfig::new(sqlvm_like().suggested_k, WIDTH)
    }

    /// The reference run: the plain windowed fleet over the same
    /// sources — no supervision in the loop at all.
    fn plain_fleet() -> crate::FleetReport {
        let mut fc = FleetConfig::new(sqlvm_like().suggested_k);
        fc.window = Some(WIDTH);
        run_fleet_typed((0..SHARDS).map(source_for).collect(), &fc, |_shard| {
            Lru::new()
        })
    }

    fn assert_matches_plain(report: &crate::FleetReport, plain: &crate::FleetReport, what: &str) {
        for (a, b) in plain.shards.iter().zip(&report.shards) {
            assert_eq!(a.stats, b.stats, "{what}: shard {} stats", a.shard);
            assert_eq!(a.served, b.served, "{what}: shard {} served", a.shard);
            assert_eq!(a.series, b.series, "{what}: shard {} series", a.shard);
        }
        // Byte-identity, not just structural equality: the merged
        // series must serialize to the same bytes.
        let a = plain
            .merged_series
            .as_ref()
            .unwrap()
            .to_json_value()
            .to_json();
        let b = report
            .merged_series
            .as_ref()
            .unwrap()
            .to_json_value()
            .to_json();
        assert_eq!(a, b, "{what}: merged series bytes");
        assert_eq!(plain.total_requests, report.total_requests, "{what}");
        // The whole-run tally is the same fold of the same windows.
        assert_eq!(
            plain.merged.to_json_value().to_json(),
            report.merged.to_json_value().to_json(),
            "{what}: merged counters"
        );
        assert_merged_counts_what_was_served(report);
    }

    /// `merged` tallies exactly the requests the report says it served.
    fn assert_merged_counts_what_was_served(report: &crate::FleetReport) {
        let merged = report.merged.total();
        assert_eq!(merged.requests(), report.total_requests);
        assert_eq!(merged.hits + merged.misses(), report.total_requests);
    }

    #[test]
    fn clean_supervised_run_matches_the_plain_fleet() {
        let report = supervised(&base_cfg());
        assert_matches_plain(&report, &plain_fleet(), "clean");
        let sup = report.supervisor.as_ref().expect("supervised run");
        assert!(!sup.is_degraded());
        assert_eq!(sup.total_restarts(), 0);
        for s in &sup.shards {
            assert_eq!(s.state, ShardState::Clean);
            assert_eq!(s.restarts, 0);
            assert!(s.error.is_none());
            assert_eq!(s.windows_lost, 0);
        }
        let v = report.to_json_value();
        assert!(v.get("supervisor").is_some());
        assert!(
            v.get("degraded").is_none(),
            "clean run must not be degraded"
        );
    }

    #[test]
    fn kill_schedules_recover_byte_identically() {
        let plain = plain_fleet();
        // Kills before the first request, on a checkpoint boundary,
        // mid-window, twice in one shard, and at end-of-stream.
        let mut cfg = base_cfg();
        cfg.kills = vec![
            ShardKill { shard: 0, at: 0 },
            ShardKill { shard: 0, at: 999 },
            ShardKill { shard: 1, at: 250 },
            ShardKill { shard: 1, at: 333 },
            ShardKill { shard: 2, at: LEN },
        ];
        let report = supervised(&cfg);
        assert_matches_plain(&report, &plain, "killed");
        let sup = report.supervisor.as_ref().unwrap();
        assert!(!sup.is_degraded(), "recovered, not degraded");
        assert_eq!(sup.total_restarts(), 5);
        for (shard, restarts) in [(0usize, 2u32), (1, 2), (2, 1)] {
            let s = &sup.shards[shard];
            assert_eq!(s.state, ShardState::Recovered, "shard {shard}");
            assert_eq!(s.restarts, restarts, "shard {shard}");
            assert!(s.error.as_deref().unwrap().contains("injected kill"));
            assert_eq!(s.windows_lost, 0);
        }
    }

    #[test]
    fn injected_store_fault_recovers_byte_identically() {
        let mut cfg = base_cfg();
        cfg.store_faults = vec![StoreFault { shard: 1, nth: 1 }];
        let report = supervised(&cfg);
        assert_matches_plain(&report, &plain_fleet(), "store-fault");
        let sup = report.supervisor.as_ref().unwrap();
        assert!(!sup.is_degraded());
        let s = &sup.shards[1];
        assert_eq!(s.state, ShardState::Recovered);
        assert_eq!(s.restarts, 1);
        assert!(
            s.error
                .as_deref()
                .unwrap()
                .contains("injected checkpoint-store fault"),
            "{:?}",
            s.error
        );
    }

    #[test]
    fn exhausted_retries_quarantine_the_shard_only() {
        let plain = plain_fleet();
        let mut cfg = base_cfg();
        cfg.max_restarts = 1;
        // Two kills at the same instant: the shard dies at t=500 on
        // every attempt until its budget runs out.
        cfg.kills = vec![
            ShardKill { shard: 2, at: 500 },
            ShardKill { shard: 2, at: 500 },
        ];
        let report = supervised(&cfg);
        let sup = report.supervisor.as_ref().unwrap();
        assert!(sup.is_degraded());
        assert_eq!(sup.quarantined(), vec![2]);
        // Healthy shards are untouched by the sick one.
        for shard in [0usize, 1] {
            assert_eq!(report.shards[shard].stats, plain.shards[shard].stats);
            assert_eq!(sup.shards[shard].state, ShardState::Clean);
        }
        // The quarantined shard contributes exactly its last
        // checkpoint: 500 requests, two full windows, nothing lost.
        let sick = &report.shards[2];
        assert_eq!(sick.served, 500);
        assert_eq!(
            sick.stats.total_hits() + sick.stats.total_misses(),
            500,
            "stats reflect the checkpoint, not the failed tail"
        );
        let series = sick.series.as_ref().unwrap();
        assert_eq!(series.windows.len(), 2, "windows 0 and 1 committed");
        assert_eq!(sup.shards[2].windows_lost, 0);
        assert_merged_counts_what_was_served(&report);
        assert_eq!(report.total_requests, 2 * LEN + 500);
        let v = report.to_json_value();
        let degraded = v.get("degraded").expect("degraded section");
        let q = degraded.get("quarantined").unwrap().as_array().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].get("shard").unwrap().as_u64(), Some(2));
        assert!(q[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("injected kill"));
    }

    #[test]
    fn quarantine_without_any_checkpoint_contributes_zeroes() {
        let mut cfg = base_cfg();
        cfg.max_restarts = 0;
        // Dies at t=100, before the first checkpoint boundary.
        cfg.kills = vec![ShardKill { shard: 0, at: 100 }];
        let report = supervised(&cfg);
        let sup = report.supervisor.as_ref().unwrap();
        assert_eq!(sup.quarantined(), vec![0]);
        let sick = &report.shards[0];
        assert_eq!(sick.served, 0);
        assert_eq!(sick.stats.total_hits() + sick.stats.total_misses(), 0);
        assert!(sick.series.as_ref().unwrap().windows.is_empty());
        assert_merged_counts_what_was_served(&report);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = BackoffPolicy::exponential(10, 42);
        for shard in 0..4 {
            for attempt in 1..8 {
                let d = p.delay_ms(shard, attempt);
                assert_eq!(d, p.delay_ms(shard, attempt), "pure function of inputs");
                let exp = (10u64 << (attempt - 1).min(16)).min(p.cap_ms);
                assert!(
                    d >= exp / 2 && d <= exp,
                    "delay {d} outside [{}, {exp}]",
                    exp / 2
                );
            }
        }
        // Jitter decorrelates shards.
        assert_ne!(p.delay_ms(0, 3), p.delay_ms(1, 3));
        // Base 0 disables sleeping entirely.
        assert_eq!(BackoffPolicy::none().delay_ms(7, 5), 0);
        // The recorded backoff log matches the policy.
        let mut cfg = base_cfg();
        cfg.backoff = BackoffPolicy {
            base_ms: 0,
            cap_ms: 0,
            seed: 9,
        };
        cfg.kills = vec![ShardKill { shard: 1, at: 300 }];
        let report = supervised(&cfg);
        let sup = report.supervisor.unwrap();
        assert_eq!(sup.shards[1].backoff_ms, vec![0]);
    }

    #[test]
    fn dir_persist_survives_kills_and_seals_verifiable_files() {
        let dir = std::env::temp_dir().join(format!("occ-supervisor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = base_cfg();
        cfg.kills = vec![
            ShardKill { shard: 0, at: 400 },
            ShardKill { shard: 2, at: 750 },
        ];
        let persist = (0..SHARDS)
            .map(|shard| {
                Some(DirPersist::open(&dir, shard, WIDTH, &[], &[]).expect("persist dir opens"))
            })
            .collect();
        let report = run_supervised_fleet(SHARDS, &cfg, source_for, |_| Lru::new(), persist);
        assert_matches_plain(&report, &plain_fleet(), "dir-persist");
        for shard in 0..SHARDS {
            // Checkpoints carry a mandatory trailer and restore to the
            // end of the stream.
            let ckpt = std::fs::read_to_string(DirPersist::ckpt_path(&dir, shard)).unwrap();
            let body = require_trailer(&ckpt).expect("checkpoint trailer verifies");
            let snap = snapshot_from_json(body).expect("checkpoint parses");
            assert_eq!(snap.time, LEN, "final checkpoint is at end of stream");
            // Series files parse, verify their trailer, and hold every
            // window exactly once despite the restart replays.
            let text = std::fs::read_to_string(DirPersist::series_path(&dir, shard)).unwrap();
            let parsed = SeriesFile::parse(&text).expect("series parses");
            assert_eq!(parsed.width, WIDTH);
            assert_eq!(
                parsed.windows,
                report.shards[shard].series.as_ref().unwrap().windows,
                "shard {shard}: on-disk series == in-memory series"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every shard's engine after serving the first 500 requests of its
    /// stream, as a resume point.
    fn half_way_snapshots() -> Vec<Option<occ_sim::EngineSnapshot>> {
        (0..SHARDS)
            .map(|shard| {
                let mut src = source_for(shard);
                let mut eng = occ_sim::SteppingEngine::new(
                    sqlvm_like().suggested_k,
                    src.universe().clone(),
                    Lru::new(),
                );
                for _ in 0..500 {
                    let r = {
                        let ctx = eng.ctx();
                        src.next_request(&ctx)
                    }
                    .unwrap();
                    eng.step(r);
                }
                Some(eng.snapshot().unwrap())
            })
            .collect()
    }

    #[test]
    fn resume_continues_from_mid_stream_snapshots() {
        // Run the first half supervised, snapshot by hand, then resume
        // a second supervised fleet from those snapshots: the stitched
        // stats must equal the one-shot run.
        let plain = plain_fleet();
        let mut cfg = base_cfg();
        cfg.resume = half_way_snapshots();
        cfg.kills = vec![ShardKill { shard: 1, at: 750 }];
        let report = supervised(&cfg);
        for (shard, s) in report.shards.iter().enumerate() {
            assert_eq!(s.served, 500, "second half only");
            assert_eq!(
                s.stats, plain.shards[shard].stats,
                "resumed stats equal the one-shot run (stats live in the snapshot)"
            );
            // Only windows 2 and 3 are produced by the resumed run.
            let windows = &s.series.as_ref().unwrap().windows;
            assert_eq!(windows.len(), 2);
            assert_eq!(windows[0].index, 2);
            assert_eq!(
                windows[0],
                plain.shards[shard].series.as_ref().unwrap().windows[2],
                "resumed window 2 is byte-identical"
            );
        }
        assert_merged_counts_what_was_served(&report);
        assert_eq!(report.total_requests, SHARDS as u64 * 500);
    }

    #[test]
    fn a_kill_before_the_resume_point_does_not_block_a_later_one() {
        // Shard 1 resumes at t=500 with one kill in its past and one in
        // its future: the past one is dropped, the later one fires.
        let plain = plain_fleet();
        let mut cfg = base_cfg();
        cfg.resume = half_way_snapshots();
        cfg.kills = vec![
            ShardKill { shard: 1, at: 100 },
            ShardKill { shard: 1, at: 800 },
        ];
        let report = supervised(&cfg);
        let sup = report.supervisor.as_ref().unwrap();
        let s = &sup.shards[1];
        assert_eq!(s.state, ShardState::Recovered);
        assert_eq!(s.restarts, 1);
        assert!(
            s.error.as_deref().unwrap().contains("at t=800"),
            "{:?}",
            s.error
        );
        for (shard, s) in report.shards.iter().enumerate() {
            assert_eq!(s.stats, plain.shards[shard].stats, "shard {shard}");
        }
        assert_eq!(sup.total_restarts(), 1);
    }
}
