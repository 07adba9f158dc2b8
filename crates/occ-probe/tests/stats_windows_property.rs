//! Property test for windows cut from the engine's counters: on random
//! clean streams, random window widths and random batch sizes,
//! [`StatsWindows`] yields exactly the windows the hook-counting
//! [`WindowedRecorder`] records, also across a checkpoint/restore at a
//! window boundary, and timed it adds one latency sample per request
//! and changes nothing else. The universe always has one trailing user
//! that never requests anything, so per-user vectors must come out
//! trimmed the way the hooks leave them.

use occ_baselines::Lru;
use occ_probe::{StatsWindows, WindowSeries, WindowedRecorder};
use occ_sim::{PageId, Request, SteppingEngine, Universe};
use proptest::prelude::*;

/// A clean stream over users `0..users` of a universe with one more,
/// idle user after them, and a capacity below the requested pages.
fn arb_run() -> impl Strategy<Value = (Universe, Vec<Request>, usize)> {
    (1u32..=4, 2u32..=5).prop_flat_map(|(users, pages_per)| {
        let active = users * pages_per;
        (
            proptest::collection::vec(0..active, 1..400),
            1..=(active as usize),
        )
            .prop_map(move |(draws, k)| {
                let universe = Universe::uniform(users + 1, pages_per);
                let requests = draws.iter().map(|&p| universe.request(PageId(p))).collect();
                (universe, requests, k)
            })
    })
}

/// The reference: every request through the hooks, one window recorder.
fn hooked(universe: &Universe, requests: &[Request], k: usize, width: u64) -> WindowSeries {
    let rec = WindowedRecorder::<false>::new(width).with_ring_capacity(usize::MAX);
    let mut eng = SteppingEngine::new(k, universe.clone(), Lru::new()).with_recorder(rec);
    eng.step_batch(requests);
    let end = eng.time();
    let mut rec = eng.into_recorder();
    rec.finalize(end);
    rec.into_series()
}

/// Serve `requests` in batches of at most `batch` that end on window
/// boundaries, cutting each window from the engine's counters there.
/// At `restore_at` (a boundary) the engine is checkpointed and rebuilt
/// from the snapshot with fresh windows, as a resumed run would be.
fn cut<const TIMED: bool>(
    universe: &Universe,
    requests: &[Request],
    k: usize,
    width: u64,
    batch: u64,
    mut restore_at: Option<u64>,
) -> WindowSeries {
    let attach = |eng: SteppingEngine<Lru>| {
        let windows = StatsWindows::<TIMED>::starting_at(width, eng.time(), eng.stats())
            .with_ring_capacity(usize::MAX);
        eng.with_recorder(windows)
    };
    let mut eng = attach(SteppingEngine::new(k, universe.clone(), Lru::new()));
    let mut series = WindowSeries {
        width,
        ..WindowSeries::default()
    };
    let len = requests.len() as u64;
    while eng.time() < len {
        let t = eng.time();
        if restore_at == Some(t) {
            restore_at = None;
            let snap = eng.snapshot().expect("LRU snapshots");
            let (windows, stats) = eng.recorder_and_stats();
            windows.finalize(t, stats);
            series
                .windows
                .extend(eng.into_recorder().into_series().windows);
            let restored = SteppingEngine::from_snapshot(&snap, Lru::new()).expect("restores");
            eng = attach(restored);
        }
        let n = (width - t % width).min(batch).min(len - t);
        eng.step_batch(&requests[t as usize..(t + n) as usize]);
        let t = eng.time();
        if t.is_multiple_of(width) {
            let (windows, stats) = eng.recorder_and_stats();
            windows.cut(t, stats);
        }
    }
    let (windows, stats) = eng.recorder_and_stats();
    windows.finalize(len, stats);
    series
        .windows
        .extend(eng.into_recorder().into_series().windows);
    series
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cut_windows_equal_hook_counted_windows(
        (universe, requests, k) in arb_run(),
        width in 1u64..300,
        batch in 1u64..100,
        restore_window in 0u64..8,
    ) {
        let reference = hooked(&universe, &requests, k, width);
        let idle = universe.num_users() as usize - 1;
        for w in &reference.windows {
            prop_assert!(w.hits_by_user.len() <= idle, "the idle user stays trimmed");
        }

        let plain = cut::<false>(&universe, &requests, k, width, batch, None);
        prop_assert_eq!(&plain.windows, &reference.windows);

        // Restore at a boundary strictly inside the run.
        let len = requests.len() as u64;
        let at = (restore_window * width).min((len - 1) / width * width);
        let restored = cut::<false>(&universe, &requests, k, width, batch, Some(at));
        prop_assert_eq!(&restored.windows, &reference.windows, "restored at t={}", at);

        // Timed: one latency sample per request in every window, and
        // otherwise the same windows.
        let mut timed = cut::<true>(&universe, &requests, k, width, batch, Some(at));
        for w in &mut timed.windows {
            let samples = w.latency_ns.take().map_or(0, |h| h.count());
            prop_assert_eq!(samples, w.requests(), "window {}", w.index);
        }
        prop_assert_eq!(&timed.windows, &reference.windows);
    }
}
