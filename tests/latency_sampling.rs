//! The per-request latency rule both engines share
//! (`occ_sim::probe::LapClock`): every served request gets exactly one
//! sample, and within a batch the stamps chain — the stamp that ends one
//! request starts the next — so a batch's samples add up to the time it
//! spent serving.

use occ_baselines::Lru;
use occ_probe::MetricsRecorder;
use occ_sim::concurrent::{run_shared, ConcurrentEngine};
use occ_sim::{
    EngineCtx, FaultPolicy, PageId, Request, RequestSource, SteppingEngine, Trace, TraceSource,
    Universe, DEFAULT_BATCH_SIZE,
};
use occ_workloads::zipf_trace;
use std::time::Instant;

/// Per batch, the samples sum to at most the `step_batch` call's wall
/// time and, chained, to at least 0.9 of it. The lower bound may miss on
/// one batch in ten: a descheduling that lands in the few nanoseconds
/// between the call's stamps and the clock's is not serving time.
#[test]
fn timed_batches_sample_every_request_and_cover_the_batch() {
    let trace = zipf_trace(4096, 32 * DEFAULT_BATCH_SIZE, 0.9, 11);
    let mut engine = SteppingEngine::new(1024, trace.universe().clone(), Lru::new())
        .with_recorder(MetricsRecorder::new());
    let mut short = Vec::new();
    for (i, batch) in trace.requests().chunks(DEFAULT_BATCH_SIZE).enumerate() {
        let before = engine.recorder().latency_ns().sum();
        let started = Instant::now();
        engine.step_batch(batch);
        let wall = started.elapsed().as_nanos();
        let sampled = engine.recorder().latency_ns().sum() - before;
        assert!(
            sampled <= wall,
            "batch {i}: samples sum to {sampled} ns, more than the call's {wall} ns"
        );
        if sampled * 10 < wall * 9 {
            short.push((i, sampled, wall));
        }
    }
    assert!(
        short.len() <= 3,
        "(batch, sampled ns, wall ns) with samples under 0.9 of the call: {short:?}"
    );
    assert_eq!(
        engine.recorder().latency_ns().count(),
        trace.len() as u64,
        "one sample per request"
    );
}

/// A non-adaptive source that hands out zero-copy page runs, the feed
/// on which the concurrent worker chains its stamps.
struct PageRuns {
    universe: Universe,
    pages: Vec<PageId>,
    pos: usize,
}

impl PageRuns {
    fn new(trace: &Trace) -> Self {
        PageRuns {
            universe: trace.universe().clone(),
            pages: trace.requests().iter().map(|r| r.page).collect(),
            pos: 0,
        }
    }
}

impl RequestSource for PageRuns {
    fn universe(&self) -> &Universe {
        &self.universe
    }
    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        let page = *self.pages.get(self.pos)?;
        self.pos += 1;
        Some(self.universe.request(page))
    }
    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        let start = self.pos;
        self.pos = (start + max).min(self.pages.len());
        Some(&self.pages[start..self.pos])
    }
}

#[test]
fn concurrent_workers_sample_every_commit() {
    let traces: Vec<Trace> = (0..2)
        .map(|t| zipf_trace(2048, 3 * DEFAULT_BATCH_SIZE + 17, 0.9, 5 + t))
        .collect();
    let engine = || {
        ConcurrentEngine::new(
            256,
            traces[0].universe().clone(),
            FaultPolicy::FailFast,
            (0..4).map(|_| Lru::new()).collect(),
        )
    };
    let merged = |recorders: &[MetricsRecorder]| {
        let mut all = MetricsRecorder::new();
        for r in recorders {
            all.merge(r);
        }
        all.latency_ns().count()
    };

    // Per-request pulls: each request starts from no stamp.
    let mut pulled: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
    let mut recorders = vec![MetricsRecorder::new(); traces.len()];
    let outcome = run_shared(&engine(), &mut pulled, &mut recorders).expect("clean run");
    assert_eq!(merged(&recorders), outcome.schedule.len() as u64);

    // Zero-copy page runs: stamps chain within each run.
    let mut runs: Vec<PageRuns> = traces.iter().map(PageRuns::new).collect();
    let mut recorders = vec![MetricsRecorder::new(); traces.len()];
    let outcome = run_shared(&engine(), &mut runs, &mut recorders).expect("clean run");
    assert_eq!(merged(&recorders), outcome.schedule.len() as u64);
    assert_eq!(outcome.schedule.len(), 2 * traces[0].len());
}
