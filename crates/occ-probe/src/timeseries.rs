//! Windowed time-series telemetry: tumbling-window deltas over a run.
//!
//! End-of-run totals ([`MetricsRecorder`](crate::MetricsRecorder)) hide
//! everything that happens *during* a run — warm-up transients, per-tenant
//! fairness pressure, dual-credit drift. [`WindowedRecorder`] slices the
//! request stream into tumbling windows of a fixed width (by request
//! index) and snapshots a [`WindowDelta`] per window: hit/insert/eviction
//! counters, per-tenant hit/miss/eviction vectors, fault counters, an
//! optional exact [`LogHistogram`] latency delta, and an optionally
//! attached ALG-DISCRETE dual sample ([`DualPoint`]).
//!
//! Deltas are *exact*, not sampled: summed over all windows they equal
//! the whole-run totals bitwise, because the recorder sees every engine
//! hook, each event lands in exactly one window, and the whole-run
//! [`MetricsRecorder`](crate::MetricsRecorder) is itself a `WindowDelta`
//! fed by the same per-event updates.
//!
//! The engine already counts every request once, in its
//! [`SimStats`]. [`StatsWindows`] cuts the same windows from those
//! counters instead of from the hooks: a serve loop that ends its batches on
//! window boundaries hands it the counters at each boundary, and the
//! window is the difference between two snapshots
//! ([`WindowDelta::between`]). It forwards only latency samples, so
//! untimed it compiles out of the engine like `NoopRecorder`. `occ
//! soak` and the fleets use it; the hook-counting [`WindowedRecorder`]
//! remains for loops that cannot stop at boundaries and for fault
//! counts. Closed windows go into a bounded
//! ring (oldest dropped first), and a streaming loop can
//! [`drain_new`](WindowedRecorder::drain_new) them as they close and
//! hand them to a [`SeriesSink`], which writes a schema-stamped JSONL
//! series: one header line, then one line per window, in O(1) memory no
//! matter how long the run is. The same
//! discipline as the rest of the probe layer applies: the recorder is a
//! [`Recorder`] generic parameter, so the uninstrumented hot path still
//! compiles to the unrecorded code, and sink I/O errors are sticky.
//!
//! Windows are resumable: a run checkpointed at a window boundary and
//! continued with [`WindowedRecorder::starting_at`] produces the same
//! window sequence as an uninterrupted run (per-window state depends only
//! on the events inside the window).

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::atomicio::CrcWriter;
use crate::histogram::LogHistogram;
use crate::json::{check_schema_stamp, Json};
use crate::sink::JsonlSink;
use occ_core::ConvexCaching;
use occ_sim::engine::EngineCtx;
use occ_sim::error::{FaultCounters, RequestFault};
use occ_sim::ids::{PageId, Time, UserId};
use occ_sim::probe::Recorder;
use occ_sim::{SimStats, UserStats};

/// Series schema version, stamped on the JSONL header line (bump when
/// the header or window line shape changes).
pub const SERIES_SCHEMA: u64 = 1;

/// Default bound on the in-memory ring of closed windows.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// A sampled snapshot of ALG-DISCRETE primal/dual state, attached to the
/// window that ends where the sample was taken.
#[derive(Clone, Debug, PartialEq)]
pub struct DualPoint {
    /// Cumulative global dual offset `Y`.
    pub dual_offset: f64,
    /// Total evictions charged so far (`Σ_i m_i`).
    pub total_evictions: u64,
    /// Primal objective so far (`Σ_i f_i(m_i)`).
    pub primal_cost: f64,
}

impl DualPoint {
    /// Read the triple `(Y, Σ_i m_i, Σ_i f_i(m_i))` off the algorithm's
    /// live state.
    pub fn of(alg: &ConvexCaching) -> Self {
        DualPoint {
            dual_offset: alg.cumulative_dual_offset(),
            total_evictions: alg.eviction_counts().iter().sum(),
            primal_cost: alg.primal_cost(),
        }
    }
}

/// Everything that happened inside one tumbling window
/// `[start, end)` of the request stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowDelta {
    /// Window ordinal (`start / width` for full windows).
    pub index: u64,
    /// First request index covered (inclusive).
    pub start: Time,
    /// One past the last request index covered (exclusive; a trailing
    /// partial window ends at the run length instead of a multiple of
    /// the width).
    pub end: Time,
    /// Requests served from cache in this window.
    pub hits: u64,
    /// Misses that filled free space (no eviction).
    pub inserts: u64,
    /// Misses that evicted a victim (excludes flush evictions).
    pub evictions: u64,
    /// Evictions charged by the end-of-run flush convention.
    pub flush_evictions: u64,
    /// Hits per requesting tenant, indexed by user id (trailing
    /// all-zero users omitted).
    pub hits_by_user: Vec<u64>,
    /// Misses per requesting tenant, same indexing.
    pub misses_by_user: Vec<u64>,
    /// Evictions per *victim's owner* (flush included), same indexing.
    pub evictions_by_user: Vec<u64>,
    /// Faulty records absorbed in this window (checked paths only).
    pub faults: FaultCounters,
    /// Exact latency delta for requests in this window; `None` when the
    /// recorder runs untimed (the deterministic default).
    pub latency_ns: Option<LogHistogram>,
    /// Dual-state sample taken at this window's close, when the run is
    /// driving ALG-DISCRETE and the loop attaches one.
    pub dual: Option<DualPoint>,
}

#[inline]
fn bump(v: &mut Vec<u64>, user: UserId) {
    let i = user.index();
    if i >= v.len() {
        v.resize(i + 1, 0);
    }
    v[i] += 1;
}

/// One per-user counter's growth from `before` to `after`, trailing
/// zero users trimmed (the length [`bump`] leaves a vector at). Users
/// missing from `before` start at zero.
fn user_delta(before: &SimStats, after: &SimStats, field: fn(&UserStats) -> u64) -> Vec<u64> {
    let old = before.per_user();
    let mut v: Vec<u64> = after
        .per_user()
        .iter()
        .enumerate()
        .map(|(u, now)| field(now) - old.get(u).map_or(0, field))
        .collect();
    while v.last() == Some(&0) {
        v.pop();
    }
    v
}

fn merge_vec(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, &b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl WindowDelta {
    fn fresh(index: u64, start: Time, end: Time) -> Self {
        WindowDelta {
            index,
            start,
            end,
            ..WindowDelta::default()
        }
    }

    /// What the engine's counters gained from `before` to `after` (two
    /// snapshots of one run's [`SimStats`]; `before` may be empty for a
    /// whole run), in the form the hooks tally it: hits, misses and
    /// evictions per user, trailing zero users trimmed, `evictions` the
    /// victims' total and `inserts` the misses that evicted nothing
    /// (Σ misses − Σ evictions). The span, faults, latency and dual sample
    /// are left empty.
    ///
    /// `SimStats` charges end-of-run flush victims as evictions too, so
    /// this is the hook tally only for stretches without a
    /// [`flush`](occ_sim::SteppingEngine::flush); no loop that cuts
    /// windows flushes.
    pub fn between(before: &SimStats, after: &SimStats) -> Self {
        let hits_by_user = user_delta(before, after, |u| u.hits);
        let misses_by_user = user_delta(before, after, |u| u.misses);
        let evictions_by_user = user_delta(before, after, |u| u.evictions);
        let misses: u64 = misses_by_user.iter().sum();
        let evictions: u64 = evictions_by_user.iter().sum();
        WindowDelta {
            hits: hits_by_user.iter().sum(),
            inserts: misses - evictions,
            evictions,
            hits_by_user,
            misses_by_user,
            evictions_by_user,
            ..WindowDelta::default()
        }
    }

    /// A request served from cache, charged to its requester.
    pub(crate) fn count_hit(&mut self, user: UserId) {
        self.hits += 1;
        bump(&mut self.hits_by_user, user);
    }

    /// A miss that filled free space, charged to its requester.
    pub(crate) fn count_insert(&mut self, user: UserId) {
        self.inserts += 1;
        bump(&mut self.misses_by_user, user);
    }

    /// A miss by `user` that evicted a page owned by `victim_user`.
    pub(crate) fn count_eviction(&mut self, user: UserId, victim_user: UserId) {
        self.evictions += 1;
        bump(&mut self.misses_by_user, user);
        bump(&mut self.evictions_by_user, victim_user);
    }

    /// An end-of-run flush eviction of a page owned by `user`.
    pub(crate) fn count_flush_eviction(&mut self, user: UserId) {
        self.flush_evictions += 1;
        bump(&mut self.evictions_by_user, user);
    }

    /// One per-request service latency sample.
    pub(crate) fn count_latency(&mut self, ns: u64) {
        self.latency_ns
            .get_or_insert_with(LogHistogram::new)
            .record(ns);
    }

    /// One faulty record absorbed by a checked path.
    pub(crate) fn count_fault(&mut self, fault: &RequestFault) {
        self.faults.count(fault.kind);
    }

    /// Requests observed in this window.
    pub fn requests(&self) -> u64 {
        self.hits + self.inserts + self.evictions
    }

    /// Misses (fetches) in this window.
    pub fn misses(&self) -> u64 {
        self.inserts + self.evictions
    }

    /// `misses / requests` for this window alone (`0.0` when empty).
    pub fn miss_ratio(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            0.0
        } else {
            self.misses() as f64 / req as f64
        }
    }

    /// Whether nothing at all was observed in this window.
    pub fn is_empty(&self) -> bool {
        self.requests() == 0 && self.flush_evictions == 0 && self.faults.total_records() == 0
    }

    /// Fold another delta into this one: counters and per-user vectors
    /// add, fault counters add, latency histograms merge exactly, the
    /// span widens to cover both, and `other`'s dual sample (the later
    /// one, when merging in order) wins.
    pub fn merge_from(&mut self, other: &WindowDelta) {
        self.hits += other.hits;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.flush_evictions += other.flush_evictions;
        merge_vec(&mut self.hits_by_user, &other.hits_by_user);
        merge_vec(&mut self.misses_by_user, &other.misses_by_user);
        merge_vec(&mut self.evictions_by_user, &other.evictions_by_user);
        self.faults.merge(&other.faults);
        if let Some(h) = &other.latency_ns {
            self.latency_ns
                .get_or_insert_with(LogHistogram::new)
                .merge(h);
        }
        if let Some(d) = &other.dual {
            self.dual = Some(d.clone());
        }
        self.start = self.start.min(other.start);
        self.end = self.end.max(other.end);
    }

    /// The window as a JSON object (one series line). `miss_ratio` is
    /// emitted for plotters but derived on read.
    pub fn to_json_value(&self) -> Json {
        let ids = |v: &[u64]| Json::Arr(v.iter().map(|&n| Json::from_u64(n)).collect());
        let mut fields = vec![
            ("kind".into(), Json::Str("window".into())),
            ("index".into(), Json::from_u64(self.index)),
            ("start".into(), Json::from_u64(self.start)),
            ("end".into(), Json::from_u64(self.end)),
            ("hits".into(), Json::from_u64(self.hits)),
            ("inserts".into(), Json::from_u64(self.inserts)),
            ("evictions".into(), Json::from_u64(self.evictions)),
            (
                "flush_evictions".into(),
                Json::from_u64(self.flush_evictions),
            ),
            ("miss_ratio".into(), Json::Num(self.miss_ratio())),
            ("hits_by_user".into(), ids(&self.hits_by_user)),
            ("misses_by_user".into(), ids(&self.misses_by_user)),
            ("evictions_by_user".into(), ids(&self.evictions_by_user)),
            (
                "faults".into(),
                Json::Obj(vec![
                    (
                        "page_out_of_range".into(),
                        Json::from_u64(self.faults.page_out_of_range),
                    ),
                    (
                        "owner_mismatch".into(),
                        Json::from_u64(self.faults.owner_mismatch),
                    ),
                    (
                        "quarantined_drops".into(),
                        Json::from_u64(self.faults.quarantined_drops),
                    ),
                    (
                        "quarantined_users".into(),
                        Json::from_u64(self.faults.quarantined_users),
                    ),
                    ("total".into(), Json::from_u64(self.faults.total_records())),
                ]),
            ),
        ];
        if let Some(h) = &self.latency_ns {
            fields.push(("latency_ns".into(), h.to_json_value()));
        }
        if let Some(d) = &self.dual {
            fields.push((
                "dual".into(),
                Json::Obj(vec![
                    ("dual_offset".into(), Json::Num(d.dual_offset)),
                    ("total_evictions".into(), Json::from_u64(d.total_evictions)),
                    ("primal_cost".into(), Json::Num(d.primal_cost)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Reconstruct a window from its [`Self::to_json_value`] form.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        if v.get("kind").and_then(Json::as_str) != Some("window") {
            return Err("series line is not a window (missing kind: \"window\")".into());
        }
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("window missing '{key}'"))
        };
        let vec = |key: &str| -> Result<Vec<u64>, String> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("window missing '{key}'"))?
                .iter()
                .map(|n| n.as_u64().ok_or_else(|| format!("bad entry in '{key}'")))
                .collect()
        };
        let faults = v.get("faults").ok_or("window missing 'faults'")?;
        let fcount = |key: &str| {
            faults
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("window faults missing '{key}'"))
        };
        let latency_ns = match v.get("latency_ns") {
            Some(h) => Some(LogHistogram::from_json_value(h)?),
            None => None,
        };
        let dual = match v.get("dual") {
            Some(d) => Some(DualPoint {
                dual_offset: d
                    .get("dual_offset")
                    .and_then(Json::as_f64)
                    .ok_or("dual missing 'dual_offset'")?,
                total_evictions: d
                    .get("total_evictions")
                    .and_then(Json::as_u64)
                    .ok_or("dual missing 'total_evictions'")?,
                primal_cost: d
                    .get("primal_cost")
                    .and_then(Json::as_f64)
                    .ok_or("dual missing 'primal_cost'")?,
            }),
            None => None,
        };
        Ok(WindowDelta {
            index: num("index")?,
            start: num("start")?,
            end: num("end")?,
            hits: num("hits")?,
            inserts: num("inserts")?,
            evictions: num("evictions")?,
            flush_evictions: num("flush_evictions")?,
            hits_by_user: vec("hits_by_user")?,
            misses_by_user: vec("misses_by_user")?,
            evictions_by_user: vec("evictions_by_user")?,
            faults: FaultCounters {
                page_out_of_range: fcount("page_out_of_range")?,
                owner_mismatch: fcount("owner_mismatch")?,
                quarantined_drops: fcount("quarantined_drops")?,
                quarantined_users: fcount("quarantined_users")?,
            },
            latency_ns,
            dual,
        })
    }
}

/// A [`Recorder`] that buckets every engine event into tumbling windows
/// of `width` requests.
///
/// `WITH_LATENCY` mirrors [`Recorder::TIMED`]: when `true` the engine
/// stamps every request with a monotonic clock and each window carries an
/// exact latency histogram delta — and the series stops being
/// deterministic, since wall-clock samples differ run to run. The
/// default `false` keeps windows a pure function of the request stream,
/// which is what makes checkpoint/resume series byte-identical.
///
/// Windows close themselves: every hook carries the engine time, and an
/// event at `t ≥ end` first closes the current window (plus empty gap
/// windows, if the stream skipped whole windows) and then lands in the
/// window containing `t`. Driving loops call
/// [`roll_to`](Self::roll_to) at boundaries they care about (to attach a
/// [`DualPoint`] via [`note_dual`](Self::note_dual) and drain freshly
/// closed windows) and [`finalize`](Self::finalize) once at the end to
/// close the trailing partial window.
#[derive(Clone, Debug)]
pub struct WindowedRecorder<const WITH_LATENCY: bool = false> {
    width: u64,
    cur: WindowDelta,
    ring: VecDeque<WindowDelta>,
    ring_capacity: usize,
    /// Windows evicted from the ring before being drained.
    dropped: u64,
    /// Lowest window index not yet returned by `drain_new`.
    next_drain: u64,
    finalized: bool,
}

impl<const WITH_LATENCY: bool> WindowedRecorder<WITH_LATENCY> {
    /// Tumbling windows of `width` requests (clamped to ≥ 1), starting
    /// at request 0, with the default ring bound.
    pub fn new(width: u64) -> Self {
        Self::starting_at(width, 0)
    }

    /// Resume-aware constructor: the first window is the one containing
    /// request `t`. `t` must sit on a window boundary (`t % width == 0`)
    /// — resuming mid-window would need the lost partial-window state
    /// and cannot reproduce the uninterrupted series.
    pub fn starting_at(width: u64, t: Time) -> Self {
        let width = width.max(1);
        assert!(
            t.is_multiple_of(width),
            "resume point {t} is not a multiple of the window width {width}"
        );
        let index = t / width;
        WindowedRecorder {
            width,
            cur: WindowDelta::fresh(index, t, t.saturating_add(width)),
            ring: VecDeque::new(),
            ring_capacity: DEFAULT_RING_CAPACITY,
            dropped: 0,
            next_drain: index,
            finalized: false,
        }
    }

    /// Replace the bound on the in-memory ring of closed windows
    /// (clamped to ≥ 1). When the ring is full the oldest window is
    /// dropped; a streaming loop that drains every boundary never loses
    /// one.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity.max(1);
        self
    }

    /// The window width, in requests.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Windows evicted from the ring before they were drained.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn close_current(&mut self) {
        // Saturating, so one window of width `u64::MAX` (a whole run) can
        // close too.
        let next_index = self.cur.index + 1;
        let next_start = next_index.saturating_mul(self.width);
        let done = std::mem::replace(
            &mut self.cur,
            WindowDelta::fresh(
                next_index,
                next_start,
                next_start.saturating_add(self.width),
            ),
        );
        if self.ring.len() == self.ring_capacity {
            if let Some(old) = self.ring.pop_front() {
                if old.index >= self.next_drain {
                    self.dropped += 1;
                }
            }
        }
        self.ring.push_back(done);
    }

    #[inline]
    fn window_for(&mut self, t: Time) -> &mut WindowDelta {
        while t >= self.cur.end {
            self.close_current();
        }
        &mut self.cur
    }

    /// Close every window that ends at or before `t` (emitting empty
    /// windows for gaps). Idempotent; called by the hooks automatically,
    /// and by driving loops at boundaries before draining.
    pub fn roll_to(&mut self, t: Time) {
        self.window_for(t);
    }

    /// Attach a dual-state sample to the window currently accumulating.
    /// At a boundary `t`, call this *before* [`roll_to`](Self::roll_to)
    /// so the sample lands on the window that is about to close.
    pub fn note_dual(&mut self, point: DualPoint) {
        self.cur.dual = Some(point);
    }

    /// Close the trailing window at run end `t` (its `end` becomes `t`,
    /// marking it partial unless `t` is a boundary). A trailing window
    /// that covers no requests is discarded, so a run of `L` requests
    /// yields exactly `⌈L / width⌉` windows.
    pub fn finalize(&mut self, t: Time) {
        if self.finalized {
            return;
        }
        self.finalized = true;
        self.roll_to(t);
        if t > self.cur.start || !self.cur.is_empty() {
            self.cur.end = t.max(self.cur.start);
            self.close_current();
        }
    }

    /// Clone out every closed window not yet drained, oldest first.
    /// Streaming loops call this after each [`roll_to`](Self::roll_to)
    /// and hand the windows to a [`SeriesSink`].
    pub fn drain_new(&mut self) -> Vec<WindowDelta> {
        let from = self.next_drain;
        let out: Vec<WindowDelta> = self
            .ring
            .iter()
            .filter(|w| w.index >= from)
            .cloned()
            .collect();
        if let Some(last) = out.last() {
            self.next_drain = last.index + 1;
        }
        out
    }

    /// Tear down into the retained series (the ring contents; up to
    /// `ring_capacity` most recent windows, [`dropped`](Self::dropped)
    /// tells you how many streamed past it un-drained).
    pub fn into_series(self) -> WindowSeries {
        WindowSeries {
            width: self.width,
            dropped: self.dropped,
            windows: self.ring.into_iter().collect(),
        }
    }
}

impl<const WITH_LATENCY: bool> Recorder for WindowedRecorder<WITH_LATENCY> {
    const TIMED: bool = WITH_LATENCY;

    fn record_hit(&mut self, _ctx: &EngineCtx, t: Time, _page: PageId, user: UserId) {
        self.window_for(t).count_hit(user);
    }

    fn record_insert(&mut self, _ctx: &EngineCtx, t: Time, _page: PageId, user: UserId) {
        self.window_for(t).count_insert(user);
    }

    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        t: Time,
        _page: PageId,
        user: UserId,
        _victim: PageId,
        victim_user: UserId,
    ) {
        self.window_for(t).count_eviction(user, victim_user);
    }

    fn record_flush_eviction(&mut self, _page: PageId, user: UserId) {
        // The flush hook carries no time: it lands in the window that is
        // open when the run flushes, which `finalize` then closes.
        self.cur.count_flush_eviction(user);
    }

    fn record_latency_ns(&mut self, t: Time, ns: u64) {
        self.window_for(t).count_latency(ns);
    }

    fn record_fault(&mut self, fault: &RequestFault) {
        self.window_for(fault.time).count_fault(fault);
    }
}

/// Tumbling windows cut from the engine's own counters: the windows a
/// [`WindowedRecorder`] would record, with no per-request hook.
///
/// The serve loop ends its batches on window boundaries and calls
/// [`cut`](Self::cut) with the engine's [`SimStats`] at each one; the
/// open window takes the counters gained since the previous cut
/// ([`WindowDelta::between`]) and closes. As a [`Recorder`] it is
/// `ACTIVE` and `TIMED` exactly when `TIMED` is set, and then forwards
/// only the per-request latency samples into the open window, so an
/// untimed run compiles to the unrecorded engine. It sees no faults:
/// attach it to unchecked runs only.
#[derive(Clone, Debug)]
pub struct StatsWindows<const TIMED: bool = false> {
    windows: WindowedRecorder<TIMED>,
    /// The engine's counters at the last cut.
    base: SimStats,
}

impl<const TIMED: bool> StatsWindows<TIMED> {
    /// Windows of `width` requests (clamped to ≥ 1) over an engine at
    /// time `t` with counters `stats`; `t` must sit on a window boundary,
    /// as for [`WindowedRecorder::starting_at`].
    pub fn starting_at(width: u64, t: Time, stats: &SimStats) -> Self {
        StatsWindows {
            windows: WindowedRecorder::starting_at(width, t),
            base: stats.clone(),
        }
    }

    /// Replace the bound on the ring of closed windows (see
    /// [`WindowedRecorder::with_ring_capacity`]).
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.windows = self.windows.with_ring_capacity(capacity);
        self
    }

    /// Add the counters gained since the last cut to the open window,
    /// then close every window that ends at or before `t`. Call it at
    /// every window boundary before serving past it: the counters of a
    /// stretch that crossed a boundary cannot be split.
    pub fn cut(&mut self, t: Time, stats: &SimStats) {
        let open = &mut self.windows.cur;
        assert!(
            t <= open.end,
            "cut at t={t} skipped the window boundary at {}",
            open.end
        );
        open.merge_from(&WindowDelta {
            index: open.index,
            start: open.start,
            end: open.end,
            ..WindowDelta::between(&self.base, stats)
        });
        self.base.clone_from(stats);
        self.windows.roll_to(t);
    }

    /// Cut at run end `t` and close the trailing window (see
    /// [`WindowedRecorder::finalize`]).
    pub fn finalize(&mut self, t: Time, stats: &SimStats) {
        self.cut(t, stats);
        self.windows.finalize(t);
    }

    /// Attach a dual-state sample to the open window (call it before
    /// the [`cut`](Self::cut) that closes the window).
    pub fn note_dual(&mut self, point: DualPoint) {
        self.windows.note_dual(point);
    }

    /// Clone out every closed window not yet drained, oldest first.
    pub fn drain_new(&mut self) -> Vec<WindowDelta> {
        self.windows.drain_new()
    }

    /// Tear down into the retained series.
    pub fn into_series(self) -> WindowSeries {
        self.windows.into_series()
    }
}

impl<const TIMED: bool> Recorder for StatsWindows<TIMED> {
    const ACTIVE: bool = TIMED;
    const TIMED: bool = TIMED;

    fn record_latency_ns(&mut self, t: Time, ns: u64) {
        self.windows.record_latency_ns(t, ns);
    }
}

/// An ordered sequence of window deltas with a shared width.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowSeries {
    /// The tumbling-window width the deltas were cut with.
    pub width: u64,
    /// Windows lost to ring overflow before they could be drained.
    pub dropped: u64,
    /// The windows, in index order.
    pub windows: Vec<WindowDelta>,
}

impl WindowSeries {
    /// Merge another series into this one by window index (shard-order
    /// fleet merge): windows with the same index fold together via
    /// [`WindowDelta::merge_from`], unmatched windows are inserted in
    /// order. Panics if the widths differ — deltas cut with different
    /// widths do not line up.
    pub fn merge(&mut self, other: &WindowSeries) {
        assert_eq!(
            self.width, other.width,
            "cannot merge series with different window widths"
        );
        self.dropped += other.dropped;
        for w in &other.windows {
            match self.windows.binary_search_by_key(&w.index, |x| x.index) {
                Ok(i) => self.windows[i].merge_from(w),
                Err(i) => self.windows.insert(i, w.clone()),
            }
        }
    }

    /// Fold every window into one whole-run delta.
    pub fn total(&self) -> WindowDelta {
        let mut total = WindowDelta::default();
        if let Some(first) = self.windows.first() {
            total.index = first.index;
            total.start = first.start;
            total.end = first.end;
        }
        for w in &self.windows {
            total.merge_from(w);
        }
        total
    }

    /// The series as a JSON array of window objects (used by the fleet
    /// report; the streaming form is a [`SeriesSink`] JSONL file).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("width".into(), Json::from_u64(self.width)),
            ("dropped".into(), Json::from_u64(self.dropped)),
            (
                "windows".into(),
                Json::Arr(
                    self.windows
                        .iter()
                        .map(WindowDelta::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstruct from the [`Self::to_json_value`] form.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let width = v
            .get("width")
            .and_then(Json::as_u64)
            .ok_or("series missing 'width'")?;
        let dropped = v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        let windows = v
            .get("windows")
            .and_then(Json::as_array)
            .ok_or("series missing 'windows'")?
            .iter()
            .map(WindowDelta::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(WindowSeries {
            width,
            dropped,
            windows,
        })
    }
}

/// A parsed JSONL series file: the header metadata plus the windows.
#[derive(Clone, Debug)]
pub struct SeriesFile {
    /// The full header object (schema stamp, width, run metadata).
    pub header: Json,
    /// The window width from the header.
    pub width: u64,
    /// Every window line, in file order.
    pub windows: Vec<WindowDelta>,
}

impl SeriesFile {
    /// Parse a series written by [`SeriesSink`]. The first line must be
    /// the schema-stamped header; the stamp is checked before anything
    /// else, so files from a future version fail with a clear
    /// "unsupported schema" error. A `#crc32:` trailer (appended by
    /// finished soak/fleet runs) is verified and stripped when present;
    /// trailer-less files — including mid-run state files from a killed
    /// process — stay accepted.
    pub fn parse(text: &str) -> Result<SeriesFile, String> {
        let (text, _had_trailer) =
            crate::atomicio::verify_trailer(text).map_err(|e| format!("series file: {e}"))?;
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = lines.next().ok_or("series file is empty")?;
        let header = Json::parse(head).map_err(|e| format!("series header: {e}"))?;
        check_schema_stamp(&header, SERIES_SCHEMA, "series").map_err(|e| {
            if e.contains("unsupported") {
                format!("{e}; re-run `occ soak` with a matching build")
            } else {
                e
            }
        })?;
        if header.get("kind").and_then(Json::as_str) != Some("occ-series") {
            return Err("series header missing kind: \"occ-series\"".into());
        }
        let width = header
            .get("window")
            .and_then(Json::as_u64)
            .ok_or("series header missing 'window'")?;
        if width == 0 {
            return Err("series header 'window' must be positive".into());
        }
        let mut windows = Vec::new();
        for (i, line) in lines.enumerate() {
            let v = Json::parse(line).map_err(|e| format!("series line {}: {e}", i + 2))?;
            windows.push(
                WindowDelta::from_json_value(&v)
                    .map_err(|e| format!("series line {}: {e}", i + 2))?,
            );
        }
        Ok(SeriesFile {
            header,
            width,
            windows,
        })
    }

    /// The windows as a [`WindowSeries`].
    pub fn series(&self) -> WindowSeries {
        WindowSeries {
            width: self.width,
            dropped: 0,
            windows: self.windows.clone(),
        }
    }
}

/// Streams a window series as JSONL: one schema-stamped header line,
/// then one line per window, written as windows close — memory use is
/// one line's buffer no matter how many windows the run emits.
///
/// I/O errors are sticky: the sink writes its lines through a
/// [`JsonlSink`], so after the first failure writes become no-ops and
/// the error surfaces once via [`error`](Self::error),
/// [`flush`](Self::flush) or [`finish`](Self::finish), which the CLI
/// turns into exit code 3.
#[derive(Debug)]
pub struct SeriesSink<W: Write> {
    out: JsonlSink<W>,
}

impl<W: Write> SeriesSink<W> {
    /// Wrap a writer (hand a `File` in via `BufWriter`).
    pub fn new(out: W) -> Self {
        SeriesSink {
            out: JsonlSink::new(out),
        }
    }

    /// Lines successfully written so far (header included).
    pub fn lines(&self) -> u64 {
        self.out.lines()
    }

    /// The first I/O error hit, if any (writing stopped there).
    pub fn error(&self) -> Option<&io::Error> {
        self.out.error()
    }

    /// Write the header line: the schema stamp, the window width, and
    /// any run metadata (`scenario`, `policy`, …) the caller wants
    /// alongside.
    pub fn write_header(&mut self, width: u64, meta: &[(&str, Json)]) {
        let mut fields = vec![
            ("schema".into(), Json::from_u64(SERIES_SCHEMA)),
            ("kind".into(), Json::Str("occ-series".into())),
            ("window".into(), Json::from_u64(width)),
        ];
        for (k, v) in meta {
            fields.push(((*k).into(), v.clone()));
        }
        let line = Json::Obj(fields).to_json();
        self.out.emit(format_args!("{line}\n"));
    }

    /// Write one window line.
    pub fn write_window(&mut self, w: &WindowDelta) {
        if self.out.error().is_some() {
            return;
        }
        let line = w.to_json_value().to_json();
        self.out.emit(format_args!("{line}\n"));
    }

    /// Flush what has been written so far, or report the sticky error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    /// Flush and tear down, returning the writer — or the sticky error
    /// if one occurred at any point.
    pub fn finish(self) -> io::Result<W> {
        self.out.finish()
    }
}

impl<W: Write> SeriesSink<CrcWriter<W>> {
    /// Seal the series: flush, then append the `#crc32:` trailer
    /// carrying the checksum of every byte before it, and flush again.
    /// Call once, after the last window.
    pub fn seal(&mut self) -> io::Result<()> {
        self.out.flush()?;
        let w = self.out.get_mut();
        let trailer = crate::atomicio::trailer_line(w.crc());
        // The trailer bypasses the checksum it carries.
        w.inner_mut().write_all(trailer.as_bytes())?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::Lru;
    use occ_sim::prelude::*;

    fn zipfish_trace(len: u32) -> Trace {
        let u = Universe::uniform(3, 8);
        let pages: Vec<u32> = (0..len).map(|i| (i * 7 + i * i / 5) % 24).collect();
        Trace::from_page_indices(&u, &pages)
    }

    fn run_windowed(trace: &Trace, k: usize, width: u64) -> (WindowSeries, occ_sim::SimStats) {
        let mut eng = SteppingEngine::new(k, trace.universe().clone(), Lru::default())
            .with_recorder(WindowedRecorder::<false>::new(width));
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        let t = eng.time();
        let stats = eng.stats().clone();
        let mut rec = eng.into_recorder();
        rec.finalize(t);
        (rec.into_series(), stats)
    }

    #[test]
    fn windows_tile_the_run_and_sum_to_totals() {
        let trace = zipfish_trace(1000);
        let (series, stats) = run_windowed(&trace, 6, 128);
        assert_eq!(series.windows.len(), 8); // ceil(1000 / 128)
        for (i, w) in series.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
            assert_eq!(w.start, i as u64 * 128);
            let expect_end = ((i as u64 + 1) * 128).min(1000);
            assert_eq!(w.end, expect_end);
            assert_eq!(w.requests(), w.end - w.start);
        }
        let total = series.total();
        assert_eq!(total.hits, stats.total_hits());
        assert_eq!(total.misses(), stats.total_misses());
        assert_eq!(total.evictions, stats.total_evictions());
        for (u, us) in stats.per_user().iter().enumerate() {
            assert_eq!(total.hits_by_user.get(u).copied().unwrap_or(0), us.hits);
            assert_eq!(total.misses_by_user.get(u).copied().unwrap_or(0), us.misses);
            assert_eq!(
                total.evictions_by_user.get(u).copied().unwrap_or(0),
                us.evictions
            );
        }
    }

    #[test]
    fn width_wider_than_run_gives_one_partial_window() {
        let trace = zipfish_trace(50);
        let (series, stats) = run_windowed(&trace, 6, 1_000_000);
        assert_eq!(series.windows.len(), 1);
        let w = &series.windows[0];
        assert_eq!((w.start, w.end), (0, 50));
        assert_eq!(w.requests(), 50);
        assert_eq!(w.hits, stats.total_hits());
    }

    #[test]
    fn empty_run_yields_no_windows() {
        let mut rec = WindowedRecorder::<false>::new(64);
        rec.finalize(0);
        assert!(rec.into_series().windows.is_empty());
    }

    #[test]
    fn resume_at_boundary_reproduces_the_series() {
        let trace = zipfish_trace(700);
        let (whole, _) = run_windowed(&trace, 6, 100);

        // Same run split at request 300: fresh engine snapshots are not
        // needed here (the recorder is what's under test) — replay the
        // prefix into one recorder, the suffix into a second started at
        // the boundary, against one continuously-running engine.
        let mut eng = SteppingEngine::new(6, trace.universe().clone(), Lru::default())
            .with_recorder(WindowedRecorder::<false>::new(100));
        for (t, r) in trace.iter() {
            if t == 300 {
                let mut done = std::mem::replace(
                    eng.recorder_mut(),
                    WindowedRecorder::<false>::starting_at(100, 300),
                );
                done.finalize(300);
                let head = done.into_series();
                assert_eq!(head.windows.len(), 3);
                assert_eq!(head.windows.as_slice(), &whole.windows[..3]);
            }
            eng.step(r);
        }
        let t = eng.time();
        let mut tail = std::mem::replace(eng.recorder_mut(), WindowedRecorder::<false>::new(100));
        tail.finalize(t);
        let tail = tail.into_series();
        assert_eq!(tail.windows.as_slice(), &whole.windows[3..]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn resume_off_boundary_is_rejected() {
        let _ = WindowedRecorder::<false>::starting_at(100, 150);
    }

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let trace = zipfish_trace(1000);
        let mut eng = SteppingEngine::new(6, trace.universe().clone(), Lru::default())
            .with_recorder(WindowedRecorder::<false>::new(10).with_ring_capacity(4));
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        let t = eng.time();
        let mut rec = eng.into_recorder();
        rec.finalize(t);
        assert_eq!(rec.dropped(), 96);
        let series = rec.into_series();
        assert_eq!(series.windows.len(), 4);
        assert_eq!(series.windows[0].index, 96);
    }

    #[test]
    fn drain_new_returns_each_window_once() {
        let trace = zipfish_trace(95);
        let mut eng = SteppingEngine::new(6, trace.universe().clone(), Lru::default())
            .with_recorder(WindowedRecorder::<false>::new(20));
        let mut drained = Vec::new();
        for (t, r) in trace.iter() {
            if t > 0 && t % 20 == 0 {
                eng.recorder_mut().roll_to(t);
                drained.extend(eng.recorder_mut().drain_new());
            }
            eng.step(r);
        }
        let t = eng.time();
        eng.recorder_mut().finalize(t);
        drained.extend(eng.recorder_mut().drain_new());
        let series = eng.into_recorder().into_series();
        assert_eq!(drained, series.windows);
        assert_eq!(drained.len(), 5);
    }

    #[test]
    fn gaps_emit_empty_windows() {
        let mut rec = WindowedRecorder::<false>::new(10);
        let fault = RequestFault {
            time: 35,
            kind: occ_sim::error::FaultKind::PageOutOfRange,
            page: PageId(99),
            user: UserId(0),
        };
        rec.record_fault(&fault);
        rec.finalize(36);
        let series = rec.into_series();
        assert_eq!(series.windows.len(), 4);
        assert!(series.windows[0].is_empty());
        assert!(series.windows[1].is_empty());
        assert!(series.windows[2].is_empty());
        assert_eq!(series.windows[3].faults.page_out_of_range, 1);
        assert_eq!(series.total().faults.total_records(), 1);
    }

    #[test]
    fn window_json_round_trips() {
        let trace = zipfish_trace(300);
        let (series, _) = run_windowed(&trace, 6, 64);
        for w in &series.windows {
            let back = WindowDelta::from_json_value(&w.to_json_value()).unwrap();
            assert_eq!(&back, w);
        }
        let v = series.to_json_value();
        assert_eq!(WindowSeries::from_json_value(&v).unwrap(), series);
    }

    #[test]
    fn dual_point_attaches_to_the_closing_window() {
        let mut rec = WindowedRecorder::<false>::new(10);
        let ctx_trace = zipfish_trace(25);
        let mut eng =
            SteppingEngine::new(4, ctx_trace.universe().clone(), Lru::default()).with_recorder(rec);
        for (t, r) in ctx_trace.iter() {
            if t > 0 && t % 10 == 0 {
                eng.recorder_mut().note_dual(DualPoint {
                    dual_offset: t as f64,
                    total_evictions: t,
                    primal_cost: 0.0,
                });
                eng.recorder_mut().roll_to(t);
            }
            eng.step(r);
        }
        let t = eng.time();
        rec = eng.into_recorder();
        rec.note_dual(DualPoint {
            dual_offset: 25.0,
            total_evictions: 25,
            primal_cost: 0.0,
        });
        rec.finalize(t);
        let series = rec.into_series();
        assert_eq!(series.windows.len(), 3);
        assert_eq!(series.windows[0].dual.as_ref().unwrap().dual_offset, 10.0);
        assert_eq!(series.windows[1].dual.as_ref().unwrap().dual_offset, 20.0);
        assert_eq!(series.windows[2].dual.as_ref().unwrap().dual_offset, 25.0);
    }

    #[test]
    fn series_sink_writes_header_then_windows_and_parses_back() {
        let trace = zipfish_trace(256);
        let (series, _) = run_windowed(&trace, 6, 100);
        let mut sink = SeriesSink::new(CrcWriter::new(Vec::new()));
        sink.write_header(100, &[("scenario", Json::Str("test".into()))]);
        for w in &series.windows {
            sink.write_window(w);
        }
        assert_eq!(sink.lines(), 1 + 3);
        sink.seal().unwrap();
        let (buf, _) = sink.finish().unwrap().into_parts();
        let text = String::from_utf8(buf).unwrap();
        let body = crate::atomicio::require_trailer(&text).expect("sealed with a valid trailer");
        assert_eq!(body.lines().count(), 1 + 3);
        let file = SeriesFile::parse(&text).unwrap();
        assert_eq!(file.width, 100);
        assert_eq!(
            file.header.get("scenario").and_then(Json::as_str),
            Some("test")
        );
        assert_eq!(file.windows, series.windows);
    }

    #[test]
    fn series_sink_errors_are_sticky() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = SeriesSink::new(CrcWriter::new(FailAfter(3)));
        sink.write_header(10, &[]);
        for i in 0..5 {
            sink.write_window(&WindowDelta::fresh(i, i * 10, (i + 1) * 10));
        }
        assert!(sink.lines() < 6);
        assert!(sink.error().is_some());
        assert!(sink.flush().is_err());
        assert!(sink.seal().is_err(), "no trailer seals a torn series");
        assert!(sink.finish().is_err());
    }

    #[test]
    fn unknown_series_schema_is_rejected_before_anything_else() {
        let future = format!(
            "{{\"schema\":{},\"kind\":\"occ-series\"}}\nnot even json\n",
            SERIES_SCHEMA + 3
        );
        let err = SeriesFile::parse(&future).unwrap_err();
        assert!(
            err.contains(&format!("schema {} unsupported", SERIES_SCHEMA + 3)),
            "got: {err}"
        );
        let err = SeriesFile::parse("{\"kind\":\"occ-series\"}\n").unwrap_err();
        assert!(err.contains("schema"), "got: {err}");
        assert!(SeriesFile::parse("").is_err());
    }

    #[test]
    fn fleet_style_merge_by_index_equals_pooled_run() {
        // Two shards over different traces; merging their series by
        // index must equal running both event streams into one recorder.
        let t1 = zipfish_trace(330);
        let u2 = Universe::uniform(3, 8);
        let pages: Vec<u32> = (0..250u32).map(|i| (i * 11 + 3) % 24).collect();
        let t2 = Trace::from_page_indices(&u2, &pages);

        let (s1, _) = run_windowed(&t1, 6, 100);
        let (s2, _) = run_windowed(&t2, 6, 100);
        let mut merged = s1.clone();
        merged.merge(&s2);

        assert_eq!(merged.windows.len(), 4); // shard 1 has 4 windows, shard 2 has 3
        for w in &merged.windows {
            let a = s1.windows.iter().find(|x| x.index == w.index);
            let b = s2.windows.iter().find(|x| x.index == w.index);
            let hits = a.map_or(0, |x| x.hits) + b.map_or(0, |x| x.hits);
            assert_eq!(w.hits, hits);
        }
        let total = merged.total();
        assert_eq!(total.requests(), 330 + 250);
    }

    #[test]
    fn timed_recorder_collects_latency_deltas() {
        let trace = zipfish_trace(120);
        let mut eng = SteppingEngine::new(6, trace.universe().clone(), Lru::default())
            .with_recorder(WindowedRecorder::<true>::new(50));
        for (_, r) in trace.iter() {
            eng.step(r);
        }
        let t = eng.time();
        let mut rec = eng.into_recorder();
        rec.finalize(t);
        let series = rec.into_series();
        assert_eq!(series.windows.len(), 3);
        let mut merged = LogHistogram::new();
        for w in &series.windows {
            let h = w.latency_ns.as_ref().expect("timed windows carry deltas");
            assert_eq!(h.count(), w.requests());
            merged.merge(h);
        }
        assert_eq!(merged.count(), 120);
    }
}
