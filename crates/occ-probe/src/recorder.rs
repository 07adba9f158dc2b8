//! Ready-made [`Recorder`] implementations.
//!
//! [`MetricsRecorder`] is the whole-run tally — a [`WindowDelta`] whose
//! window never closes — fed through the same per-event updates as every
//! [`WindowedRecorder`](crate::WindowedRecorder) window. `occ observe`
//! attaches it, and so do timed `occ fleet` and `occ concurrent` runs;
//! untimed, those build it after the run from the engine's own counters
//! with [`MetricsRecorder::from_total`]. Timing is a const parameter, as
//! on `WindowedRecorder`:
//!
//! * `MetricsRecorder` (= `MetricsRecorder<true>`, from
//!   [`MetricsRecorder::new`]) sets [`Recorder::TIMED`], so the engine
//!   stamps each request with a [`LapClock`](occ_sim::probe::LapClock)
//!   and the recorder keeps a [`LogHistogram`] of per-request service
//!   latency. Stamps chain within a batch: a sample runs from the
//!   previous request's stamp to this one's, hooks included, so a
//!   batch's samples sum to its serving time and a lone `step` is timed
//!   from its own start. That is one clock read per request.
//! * `MetricsRecorder<false>` (from [`MetricsRecorder::untimed`]) reads
//!   no clock and keeps no histogram: the counters alone, which are a
//!   pure function of the request stream.
//!
//! The histogram's presence is what the JSON form reports: a tally that
//! no timed recorder fed has no `latency_ns` key at all (not an empty
//! histogram), so an untimed report is byte-reproducible.

use crate::histogram::LogHistogram;
use crate::json::Json;
use crate::timeseries::WindowDelta;
use occ_sim::engine::EngineCtx;
use occ_sim::error::RequestFault;
use occ_sim::ids::{PageId, Time, UserId};
use occ_sim::probe::Recorder;

/// Counters for a whole run, plus a latency histogram when `TIMED`.
///
/// The default `TIMED = true` keeps bare `MetricsRecorder` the timed
/// recorder every existing caller names; pipelines that only count
/// attach `MetricsRecorder<false>`.
#[derive(Clone, Debug)]
pub struct MetricsRecorder<const TIMED: bool = true> {
    /// `total.latency_ns` is `Some` once a timed recorder fed or was
    /// merged into this one: always for a `MetricsRecorder<true>` built
    /// by [`MetricsRecorder::new`], never for a `MetricsRecorder<false>`.
    total: WindowDelta,
}

impl<const TIMED: bool> Default for MetricsRecorder<TIMED> {
    fn default() -> Self {
        MetricsRecorder {
            total: WindowDelta {
                latency_ns: TIMED.then(LogHistogram::new),
                ..WindowDelta::default()
            },
        }
    }
}

impl MetricsRecorder<true> {
    /// An empty timed recorder: the engine reads the clock once per
    /// request for it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-request service latency, one sample per served request.
    ///
    /// Panics on a recorder re-typed from an untimed one (see the
    /// `From<MetricsRecorder<false>>` impl), which has no histogram.
    pub fn latency_ns(&self) -> &LogHistogram {
        self.total
            .latency_ns
            .as_ref()
            .expect("an untimed tally has no latency histogram")
    }
}

impl MetricsRecorder<false> {
    /// An empty untimed recorder: counters only, no clock reads.
    pub fn untimed() -> Self {
        Self::default()
    }
}

/// Re-type an untimed tally as the default recorder type, for report
/// fields that hold either kind. The result still has no histogram, so
/// its JSON has no `latency_ns` key.
impl From<MetricsRecorder<false>> for MetricsRecorder<true> {
    fn from(untimed: MetricsRecorder<false>) -> Self {
        MetricsRecorder {
            total: untimed.total,
        }
    }
}

impl<const TIMED: bool> MetricsRecorder<TIMED> {
    /// A recorder holding `total` as its whole-run tally: a window
    /// series folded by [`WindowSeries::total`](crate::WindowSeries::total),
    /// or the engine's counters cut by [`WindowDelta::between`]. Either
    /// is the tally an attached recorder would have kept, since the
    /// hooks report exactly what the engine counts. The counters and
    /// fault counts are kept, the window span and any dual sample
    /// dropped. A timed recorder keeps `total`'s latency histogram (an
    /// empty one if it has none); an untimed one drops it.
    pub fn from_total(total: WindowDelta) -> Self {
        MetricsRecorder {
            total: WindowDelta {
                index: 0,
                start: 0,
                end: 0,
                latency_ns: TIMED.then(|| total.latency_ns.unwrap_or_default()),
                dual: None,
                ..total
            },
        }
    }

    /// The whole-run tally: counters, per-user vectors (the
    /// eviction vector counts flush victims) and fault counts. Its
    /// `quarantined_users` stays 0: membership belongs to the engine's
    /// [`FaultHandler`](occ_sim::FaultHandler).
    pub fn total(&self) -> &WindowDelta {
        &self.total
    }

    /// Fold another recorder's observations into this one. Latency
    /// histograms merge exactly; merging a timed recorder into an
    /// untimed tally gives it one.
    pub fn merge<const OTHER: bool>(&mut self, other: &MetricsRecorder<OTHER>) {
        self.total.merge_from(&other.total);
    }

    /// The recorder's counters, and its latency histogram when it has
    /// one, as a JSON object.
    pub fn to_json_value(&self) -> Json {
        let (t, n) = (&self.total, Json::from_u64);
        let by_user = t.evictions_by_user.iter().map(|&e| n(e)).collect();
        let f = &t.faults;
        let mut fields = vec![
            ("requests".into(), n(t.requests())),
            ("hits".into(), n(t.hits)),
            ("inserts".into(), n(t.inserts)),
            ("evictions".into(), n(t.evictions)),
            ("flush_evictions".into(), n(t.flush_evictions)),
            ("evictions_by_user".into(), Json::Arr(by_user)),
            (
                "faults".into(),
                Json::Obj(vec![
                    ("page_out_of_range".into(), n(f.page_out_of_range)),
                    ("owner_mismatch".into(), n(f.owner_mismatch)),
                    ("quarantined_drops".into(), n(f.quarantined_drops)),
                    ("total".into(), n(f.total_records())),
                ]),
            ),
        ];
        if let Some(h) = &t.latency_ns {
            fields.push(("latency_ns".into(), h.to_json_value()));
        }
        Json::Obj(fields)
    }
}

impl<const TIMED: bool> Recorder for MetricsRecorder<TIMED> {
    const TIMED: bool = TIMED;

    fn record_hit(&mut self, _ctx: &EngineCtx, _t: Time, _page: PageId, user: UserId) {
        self.total.count_hit(user);
    }

    fn record_insert(&mut self, _ctx: &EngineCtx, _t: Time, _page: PageId, user: UserId) {
        self.total.count_insert(user);
    }

    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        _t: Time,
        _page: PageId,
        user: UserId,
        _victim: PageId,
        victim_user: UserId,
    ) {
        self.total.count_eviction(user, victim_user);
    }

    fn record_flush_eviction(&mut self, _page: PageId, user: UserId) {
        self.total.count_flush_eviction(user);
    }

    fn record_latency_ns(&mut self, _t: Time, ns: u64) {
        self.total.count_latency(ns);
    }

    fn record_fault(&mut self, fault: &RequestFault) {
        self.total.count_fault(fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::Lru;
    use occ_sim::prelude::*;

    #[test]
    fn counters_mirror_sim_stats() {
        let u = Universe::uniform(2, 8);
        let pages: Vec<u32> = (0..400u32).map(|i| (i * 13 + 5) % 16).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let mut rec = MetricsRecorder::new();
        let result = Simulator::new(6).run_recorded(&mut Lru::default(), &trace, &mut rec);
        let total = rec.total();
        assert_eq!(total.hits, result.stats.total_hits());
        assert_eq!(total.misses(), result.stats.total_misses());
        assert_eq!(total.evictions, result.stats.total_evictions());
        assert_eq!(total.requests(), result.steps);
        assert_eq!(rec.latency_ns().count(), result.steps);
        assert_eq!(total.evictions_by_user.iter().sum::<u64>(), total.evictions);
        assert_eq!(total.misses_by_user, result.stats.miss_vector());
        assert_eq!(total.flush_evictions, 0);
    }

    #[test]
    fn flush_evictions_counted_separately() {
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2]);
        let mut rec = MetricsRecorder::new();
        let result = Simulator::new(4).flush_at_end(true).run_recorded(
            &mut Lru::default(),
            &trace,
            &mut rec,
        );
        assert_eq!(rec.total().evictions, 0);
        assert_eq!(rec.total().flush_evictions, 3);
        assert_eq!(result.stats.total_evictions(), 3);
        assert_eq!(rec.total().evictions_by_user, [3]);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = MetricsRecorder::new();
        let mut b = MetricsRecorder::new();
        a.total.count_hit(UserId(0));
        a.total.count_flush_eviction(UserId(0));
        b.total.count_hit(UserId(1));
        b.total.count_flush_eviction(UserId(2));
        b.total.count_latency(40);
        a.merge(&b);
        assert_eq!(a.total().hits, 2);
        assert_eq!(a.total().hits_by_user, [1, 1]);
        assert_eq!(a.total().evictions_by_user, [1, 0, 1]);
        assert_eq!(a.latency_ns().count(), 1);
    }

    #[test]
    fn json_has_required_keys() {
        let rec = MetricsRecorder::new();
        let v = rec.to_json_value();
        for key in [
            "requests",
            "hits",
            "inserts",
            "evictions",
            "flush_evictions",
            "evictions_by_user",
            "faults",
            "latency_ns",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn untimed_recorder_counts_the_same_and_reports_no_latency() {
        let u = Universe::uniform(2, 8);
        let pages: Vec<u32> = (0..400u32).map(|i| (i * 13 + 5) % 16).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let mut timed = MetricsRecorder::new();
        let mut untimed = MetricsRecorder::untimed();
        Simulator::new(6).run_recorded(&mut Lru::default(), &trace, &mut timed);
        Simulator::new(6).run_recorded(&mut Lru::default(), &trace, &mut untimed);
        assert_eq!(untimed.total().latency_ns, None);
        let mut counters = timed.total().clone();
        counters.latency_ns = None;
        assert_eq!(untimed.total(), &counters);

        let v = untimed.to_json_value();
        assert!(v.get("latency_ns").is_none(), "untimed: no latency key");
        let mut w = timed.to_json_value();
        if let Json::Obj(fields) = &mut w {
            fields.retain(|(k, _)| k != "latency_ns");
        }
        assert_eq!(v, w, "same counters, byte for byte");

        // Re-typed for a report field, the tally keeps its form.
        let report: MetricsRecorder = untimed.clone().into();
        assert_eq!(report.to_json_value(), v);
        // A tally rebuilt from its total is the same tally.
        let rebuilt = MetricsRecorder::<false>::from_total(untimed.total().clone());
        assert_eq!(rebuilt.to_json_value(), v);

        // Merging a timed recorder into an untimed tally brings its
        // histogram along.
        let mut mixed = MetricsRecorder::untimed();
        mixed.merge(&timed);
        assert_eq!(
            mixed.total().latency_ns.as_ref().map(|h| h.count()),
            Some(400)
        );
    }

    #[test]
    fn checked_runs_stream_faults_into_the_recorder() {
        use occ_sim::error::FaultPolicy;

        let u = Universe::uniform(2, 2);
        let mut eng =
            SteppingEngine::new(2, u.clone(), Lru::default()).with_recorder(MetricsRecorder::new());
        let mut h = FaultHandler::new(FaultPolicy::SkipAndCount, 2);
        eng.step_checked(u.request(PageId(0)), &mut h).unwrap();
        let corrupt = Request {
            page: PageId(99),
            user: UserId(0),
        };
        assert_eq!(eng.step_checked(corrupt, &mut h).unwrap(), None);
        let wrong_owner = Request {
            page: PageId(0),
            user: UserId(1),
        };
        assert_eq!(eng.step_checked(wrong_owner, &mut h).unwrap(), None);

        let faults = &eng.recorder().total().faults;
        assert_eq!(faults.page_out_of_range, 1);
        assert_eq!(faults.owner_mismatch, 1);
        assert_eq!(faults, h.counters(), "recorder mirrors the handler");
        let v = eng.recorder().to_json_value();
        assert_eq!(
            v.get("faults").unwrap().get("total").unwrap().as_u64(),
            Some(2)
        );
    }
}
