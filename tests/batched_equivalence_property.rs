//! Property tests pinning the batched replay paths to their scalar
//! twins.
//!
//! `SteppingEngine::step` is the reference semantics; `step_batch` /
//! `run_batched` are the monomorphized chunk loops the throughput
//! baseline rides on. For every shipping policy, on arbitrary
//! multi-user traces, batch sizes (including trailing partial batches),
//! and cache sizes, the batched replay must be **byte-identical**:
//! same stats, same event log, same final cache, same engine snapshot.
//! Recorded and unrecorded engines run the same batch loop, so both are
//! pinned: the event log comes from an `EventLog` recorder, including
//! on `step_page_batch`, the zero-copy path the trace pipelines take.
//! The serve loop every product command runs (`serve_stops`) is pinned
//! too: under any stop schedule, over every source style, it fires its
//! hook at exactly the stops and once at the end, and serves what a
//! plain `serve_from` loop serves.

use occ_baselines::{
    Fifo, FifoReference, GreedyDual, Lru, LruK, LruKReference, LruReference, Marking,
    RandomizedMarking,
};
use occ_core::{ConvexCaching, CostProfile, Monomial};
use occ_sim::{
    next_multiple, EngineCtx, EventLog, FaultHandler, FaultPolicy, NoopRecorder, PageId, Recorder,
    ReplacementPolicy, Request, RequestSource, SimError, SimEvent, SteppingEngine, Time, Universe,
};
use proptest::prelude::*;

fn policy_suite(num_users: u32) -> Vec<Box<dyn ReplacementPolicy>> {
    let costs = CostProfile::uniform(num_users, Monomial::power(2.0));
    vec![
        Box::new(Lru::new()),
        Box::new(LruReference::new()),
        Box::new(Fifo::new()),
        Box::new(FifoReference::new()),
        Box::new(Marking::new()),
        Box::new(LruK::new(2)),
        Box::new(LruKReference::new(2)),
        Box::new(RandomizedMarking::new(7)),
        Box::new(ConvexCaching::new(costs)),
    ]
}

/// A random multi-user instance plus a batch size that exercises
/// trailing partial batches.
fn arb_instance() -> impl Strategy<Value = (Universe, Vec<u32>, usize, usize)> {
    (1u32..=3, 3u32..=6).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        (
            proptest::collection::vec(0..total, 20..200),
            1..=(total as usize - 1),
            1usize..=40,
        )
            .prop_map(move |(pages, k, batch)| {
                (Universe::uniform(users, per_user), pages, k, batch)
            })
    })
}

type Outcome = (
    occ_sim::SimStats,
    occ_sim::Time,
    Vec<PageId>,
    Vec<SimEvent>,
    Option<occ_sim::EngineSnapshot>,
);

/// The events a run's recorder kept: every one for an `EventLog`, none
/// for the free `NoopRecorder`.
trait Kept: Recorder {
    fn kept(self) -> Vec<SimEvent>;
}

impl Kept for EventLog {
    fn kept(self) -> Vec<SimEvent> {
        self.to_vec()
    }
}

impl Kept for NoopRecorder {
    fn kept(self) -> Vec<SimEvent> {
        Vec::new()
    }
}

fn finish<P: ReplacementPolicy, R: Kept>(engine: SteppingEngine<P, R>) -> Outcome {
    // Some policies may not support snapshotting; compare whatever both
    // paths produce (both must then be None).
    let snap = engine.snapshot().ok();
    let stats = engine.stats().clone();
    let time = engine.time();
    let cache = engine.cache().sorted_pages();
    (stats, time, cache, engine.into_recorder().kept(), snap)
}

fn run_scalar(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
) -> Outcome {
    let mut engine =
        SteppingEngine::new(k, universe.clone(), &mut **policy).with_recorder(EventLog::new());
    for &r in requests {
        engine.step(r);
    }
    finish(engine)
}

fn run_batched(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
) -> Outcome {
    let mut engine =
        SteppingEngine::new(k, universe.clone(), &mut **policy).with_recorder(EventLog::new());
    engine.run_batched(requests, batch);
    finish(engine)
}

/// Same, without the event log — the uninstrumented configuration, where
/// the recorder hooks compile out of the batch loop.
fn run_fast(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
    batched: bool,
) -> Outcome {
    let mut engine = SteppingEngine::new(k, universe.clone(), &mut **policy);
    if batched {
        engine.run_batched(requests, batch);
    } else {
        for &r in requests {
            engine.step(r);
        }
    }
    finish(engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_replay_is_byte_identical_for_every_policy(
        (universe, pages, k, batch) in arb_instance()
    ) {
        let requests: Vec<Request> =
            pages.iter().map(|&p| universe.request(PageId(p))).collect();
        for mut policy in policy_suite(universe.num_users()) {
            let scalar = run_scalar(&mut policy, &universe, &requests, k);
            policy.reset();
            let batched = run_batched(&mut policy, &universe, &requests, k, batch);
            prop_assert_eq!(&scalar, &batched, "policy {} diverged", policy.name());

            // The unrecorded batch loop must agree too.
            policy.reset();
            let fast_scalar = run_fast(&mut policy, &universe, &requests, k, batch, false);
            policy.reset();
            let fast_batched = run_fast(&mut policy, &universe, &requests, k, batch, true);
            prop_assert_eq!(
                &fast_scalar, &fast_batched,
                "policy {} fast path diverged", policy.name()
            );
            prop_assert_eq!(&scalar.0, &fast_scalar.0, "events must not change stats");
        }
    }
}

/// The four policies the throughput grid measures in batched mode —
/// the ones whose `step_batch` boundary behaviour the bench numbers
/// actually depend on.
fn batched_grid_suite(num_users: u32) -> Vec<Box<dyn ReplacementPolicy>> {
    let costs = CostProfile::uniform(num_users, Monomial::power(2.0));
    vec![
        Box::new(Lru::new()),
        Box::new(Fifo::new()),
        Box::new(ConvexCaching::new(costs)),
        Box::new(GreedyDual::unweighted(num_users)),
    ]
}

/// Replay through explicit `step_batch` calls of a fixed batch size —
/// the exact call pattern the fleet runner and the bench grid use.
fn run_step_batch(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
) -> Outcome {
    let mut engine = SteppingEngine::new(k, universe.clone(), &mut **policy);
    for chunk in requests.chunks(batch) {
        engine.step_batch(chunk);
    }
    finish(engine)
}

/// Replay a run of bare page ids through explicit `step_page_batch`
/// calls under an `EventLog` recorder — the call pattern of the trace
/// pipelines, whose windowed recorders are always active.
fn run_recorded_page_batch(
    policy: &mut Box<dyn ReplacementPolicy>,
    universe: &Universe,
    requests: &[Request],
    k: usize,
    batch: usize,
) -> Outcome {
    let pages: Vec<PageId> = requests.iter().map(|r| r.page).collect();
    let mut engine =
        SteppingEngine::new(k, universe.clone(), &mut **policy).with_recorder(EventLog::new());
    for chunk in pages.chunks(batch) {
        engine.step_page_batch(chunk);
    }
    finish(engine)
}

/// A random instance whose batch size is drawn from the boundary set
/// {1, 2, 4095, 4096, 4097, trace_len}. Traces are mostly shorter than
/// the default batch, so the large sizes exercise the
/// trace-shorter-than-one-batch case; the deterministic test below
/// covers traces that cross the 4096 boundary several times.
fn arb_boundary_instance() -> impl Strategy<Value = (Universe, Vec<u32>, usize, usize)> {
    (2u32..=3, 20u32..=60).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        (
            proptest::collection::vec(0..total, 1..800),
            1..=(total as usize - 1),
            0usize..6,
        )
            .prop_map(move |(pages, k, batch_idx)| {
                (Universe::uniform(users, per_user), pages, k, batch_idx)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn step_batch_boundary_sizes_are_byte_identical(
        (universe, pages, k, batch_idx) in arb_boundary_instance()
    ) {
        let requests: Vec<Request> =
            pages.iter().map(|&p| universe.request(PageId(p))).collect();
        let batch = [1, 2, 4095, 4096, 4097, requests.len()][batch_idx];
        for mut policy in batched_grid_suite(universe.num_users()) {
            let scalar = run_fast(&mut policy, &universe, &requests, k, batch, false);
            policy.reset();
            let batched = run_step_batch(&mut policy, &universe, &requests, k, batch);
            prop_assert_eq!(
                &scalar, &batched,
                "policy {} diverged at batch size {}", policy.name(), batch
            );
            policy.reset();
            let recorded = run_scalar(&mut policy, &universe, &requests, k);
            policy.reset();
            let paged = run_recorded_page_batch(&mut policy, &universe, &requests, k, batch);
            prop_assert_eq!(
                &recorded, &paged,
                "policy {} recorded page batches diverged at batch size {}", policy.name(), batch
            );
        }
    }
}

/// Deterministic requests from a splitmix-style generator, so the long
/// boundary test below needs no proptest shrink budget.
fn lcg_requests(universe: &Universe, total_pages: u32, len: usize, mut s: u64) -> Vec<Request> {
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            universe.request(PageId(((s >> 33) as u32) % total_pages))
        })
        .collect()
}

/// A 13k-request trace crosses the default 4096-request batch three
/// times, and the sizes one either side of it shift every subsequent
/// chunk boundary by one; `trace_len` runs the whole trace as a single
/// batch, and the short trace never fills one. With k = 96 the cache
/// fills inside the first batch of every size above 96, so the warmup
/// to steady-state switch happens mid-batch. Each size runs unrecorded
/// through `step_batch` and recorded through `step_page_batch`.
#[test]
fn step_batch_boundary_sizes_match_scalar_on_long_traces() {
    let (users, per_user) = (3u32, 50u32);
    let universe = Universe::uniform(users, per_user);
    let long = lcg_requests(&universe, users * per_user, 13_000, 0xB5);
    let short = lcg_requests(&universe, users * per_user, 57, 0x5B);
    for (requests, label) in [(&long, "long"), (&short, "short")] {
        let k = 96;
        for mut policy in batched_grid_suite(users) {
            let scalar = run_fast(&mut policy, &universe, requests, k, 1, false);
            policy.reset();
            let recorded = run_scalar(&mut policy, &universe, requests, k);
            for batch in [1, 2, 4095, 4096, 4097, requests.len()] {
                policy.reset();
                let batched = run_step_batch(&mut policy, &universe, requests, k, batch);
                assert_eq!(
                    scalar,
                    batched,
                    "policy {} diverged on the {label} trace at batch size {batch}",
                    policy.name()
                );
                policy.reset();
                let paged = run_recorded_page_batch(&mut policy, &universe, requests, k, batch);
                assert_eq!(
                    recorded,
                    paged,
                    "policy {} recorded page batches diverged on the {label} trace at batch size {batch}",
                    policy.name()
                );
            }
        }
    }
}

/// How a [`Styled`] source hands out its requests: zero-copy page runs,
/// borrowed request runs, or one pulled request at a time.
#[derive(Clone, Copy, Debug)]
enum Style {
    PageRuns,
    RequestRuns,
    Pulls,
}

/// A fixed request sequence served in one [`Style`].
struct Styled {
    universe: Universe,
    requests: Vec<Request>,
    pages: Vec<PageId>,
    pos: usize,
    style: Style,
}

impl Styled {
    fn new(universe: &Universe, requests: &[Request], style: Style) -> Self {
        Styled {
            universe: universe.clone(),
            requests: requests.to_vec(),
            pages: requests.iter().map(|r| r.page).collect(),
            pos: 0,
            style,
        }
    }

    /// The next run of at most `max` items, advancing past it.
    fn take(&mut self, max: usize) -> std::ops::Range<usize> {
        let end = self.requests.len().min(self.pos + max);
        let run = self.pos..end;
        self.pos = end;
        run
    }
}

impl RequestSource for Styled {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        let r = self.requests.get(self.pos).copied();
        self.pos += usize::from(r.is_some());
        r
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        let run = match self.style {
            Style::RequestRuns => self.take(max),
            _ => return None,
        };
        Some(&self.requests[run])
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        let run = match self.style {
            Style::PageRuns => self.take(max),
            _ => return None,
        };
        Some(&self.pages[run])
    }
}

/// A random instance with a random stop schedule (some stops past the
/// end of the stream, never reached), batch size, source style and
/// whether the loop serves through a fault handler.
#[allow(clippy::type_complexity)]
fn arb_stop_instance(
) -> impl Strategy<Value = (Universe, Vec<u32>, usize, Vec<Time>, usize, usize, bool)> {
    (1u32..=3, 3u32..=6).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        (
            proptest::collection::vec(0..total, 0..300),
            1..=(total as usize - 1),
            proptest::collection::vec(1u64..330, 0..40),
            1usize..=64,
            0usize..3,
            0u32..2,
        )
            .prop_map(move |(pages, k, mut stops, batch, style, checked)| {
                stops.sort_unstable();
                stops.dedup();
                let universe = Universe::uniform(users, per_user);
                (universe, pages, k, stops, batch, style, checked == 1)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serve_loop_stops_exactly_where_asked_and_serves_the_plain_loop(
        (universe, pages, k, stops, batch, style, checked) in arb_stop_instance()
    ) {
        let requests: Vec<Request> =
            pages.iter().map(|&p| universe.request(PageId(p))).collect();
        let style = [Style::PageRuns, Style::RequestRuns, Style::Pulls][style];
        let len = requests.len() as Time;
        // Every stop inside the stream fires, in order, then the end.
        let mut expected: Vec<(Time, bool)> =
            stops.iter().filter(|&&t| t <= len).map(|&t| (t, false)).collect();
        expected.push((len, true));
        for mut policy in batched_grid_suite(universe.num_users()) {
            let mut plain = SteppingEngine::new(k, universe.clone(), &mut *policy);
            let mut source = Styled::new(&universe, &requests, style);
            let mut buf = Vec::new();
            while plain.serve_from(&mut source, batch, &mut buf) > 0 {}
            let plain = finish(plain);

            policy.reset();
            let mut eng = SteppingEngine::new(k, universe.clone(), &mut *policy);
            let mut source = Styled::new(&universe, &requests, style);
            let mut handler = FaultHandler::new(FaultPolicy::SkipAndCount, universe.num_users());
            let mut fired = Vec::new();
            let served = eng
                .serve_stops(
                    &mut source,
                    batch,
                    checked.then_some(&mut handler),
                    |t| stops.iter().copied().find(|&s| s > t).unwrap_or(Time::MAX),
                    |eng, handler, end| {
                        assert_eq!(handler.is_some(), checked);
                        fired.push((eng.time(), end));
                        Ok::<_, SimError>(())
                    },
                )
                .unwrap();
            prop_assert_eq!(served, len);
            prop_assert_eq!(
                &fired, &expected,
                "policy {} style {:?} batch {}", policy.name(), style, batch
            );
            prop_assert_eq!(
                &finish(eng), &plain,
                "policy {} style {:?} batch {} checked {}", policy.name(), style, batch, checked
            );
        }
    }
}

#[test]
fn next_multiple_is_the_first_multiple_after_t() {
    assert_eq!(next_multiple(0, 5), 5);
    assert_eq!(next_multiple(4, 5), 5);
    assert_eq!(next_multiple(5, 5), 10);
    assert_eq!(next_multiple(7, 0), Time::MAX, "cadence 0 never stops");
    assert_eq!(next_multiple(Time::MAX - 1, Time::MAX), Time::MAX);
}
