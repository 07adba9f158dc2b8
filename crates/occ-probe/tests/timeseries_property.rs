//! Property tests for the tumbling-window telemetry layer:
//!
//! * the window deltas tile the run exactly — summed over all windows
//!   they equal the whole-run `MetricsRecorder` tally (counters,
//!   per-user vectors, fault counts, and the merged latency histogram,
//!   exactly) for arbitrary window widths including widths wider than
//!   the run;
//! * swapping recorders at an arbitrary window boundary (the resume
//!   split) reproduces the uninterrupted series exactly.

use occ_baselines::Lru;
use occ_probe::{LogHistogram, MetricsRecorder, WindowedRecorder};
use occ_sim::{FaultHandler, FaultPolicy, PageId, Request, SteppingEngine, Universe, UserId};
use proptest::prelude::*;

/// An arbitrary multi-user request stream with seeded corruption: the
/// selector turns ~1 in 5 records into an out-of-range page or a
/// wrong-owner record, exercising the fault path of both recorders.
fn arb_run() -> impl Strategy<Value = (Universe, Vec<Request>, usize)> {
    (2u32..=4, 2u32..=5).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec((0..total, 0u8..10), 10..250),
            2..=(total as usize - 1).max(2),
        )
            .prop_map(move |(draws, k)| {
                let universe = Universe::uniform(users, pages_per);
                let requests = draws
                    .iter()
                    .map(|&(p, sel)| {
                        let clean = universe.request(PageId(p));
                        match sel {
                            0 => Request {
                                page: PageId(total + 1 + p),
                                user: UserId(0),
                            },
                            1 => Request {
                                page: clean.page,
                                user: UserId((clean.user.0 + 1) % users),
                            },
                            _ => clean,
                        }
                    })
                    .collect();
                (universe, requests, k.min(total as usize - 1))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_sums_equal_whole_run_recorder_totals(
        (universe, requests, k) in arb_run(),
        width in 1u64..600,
    ) {
        // Pair recorder: whole-run totals and timed windows side by
        // side, fed identical hooks (both halves are TIMED, so both see
        // every latency sample).
        let windows = WindowedRecorder::<true>::new(width).with_ring_capacity(usize::MAX);
        let mut eng = SteppingEngine::new(k, universe.clone(), Lru::new())
            .with_recorder((MetricsRecorder::new(), windows));
        let mut handler = FaultHandler::new(FaultPolicy::SkipAndCount, universe.num_users());
        for &r in &requests {
            eng.step_checked(r, &mut handler).expect("skip-and-count absorbs faults");
        }
        eng.flush();
        let end = eng.time();
        let stats = eng.stats().clone();
        let (rec, mut wrec) = eng.into_recorder();
        wrec.finalize(end);
        let series = wrec.into_series();
        let total = series.total();

        // Counters, exactly.
        let whole = rec.total();
        prop_assert_eq!(total.hits, whole.hits);
        prop_assert_eq!(total.inserts, whole.inserts);
        prop_assert_eq!(total.evictions, whole.evictions);
        prop_assert_eq!(total.flush_evictions, whole.flush_evictions);
        prop_assert_eq!(total.hits + total.misses(), stats.total_hits() + stats.total_misses());

        // Fault counts, exactly.
        prop_assert_eq!(&total.faults, &whole.faults);
        prop_assert_eq!(total.faults.total_records(), handler.counters().total_records());

        // Per-user vectors: both are grown lazily by the same updates,
        // so they match entry for entry, length included.
        prop_assert_eq!(&total.hits_by_user, &whole.hits_by_user);
        prop_assert_eq!(&total.misses_by_user, &whole.misses_by_user);
        prop_assert_eq!(&total.evictions_by_user, &whole.evictions_by_user);

        // The merged latency histogram is exactly the whole-run one:
        // same samples, and histogram merge is exact bucket arithmetic.
        let mut merged = LogHistogram::new();
        for w in &series.windows {
            if let Some(h) = &w.latency_ns {
                merged.merge(h);
            }
        }
        prop_assert_eq!(&merged, rec.latency_ns());

        // Windows tile [0, end): contiguous, non-overlapping, all but
        // the last exactly `width` wide.
        let mut expect_start = 0;
        for (i, w) in series.windows.iter().enumerate() {
            prop_assert_eq!(w.start, expect_start, "window {} start", i);
            prop_assert!(w.end <= end.max(w.start));
            if i + 1 < series.windows.len() {
                prop_assert_eq!(w.end - w.start, width.max(1));
            }
            expect_start = w.end;
        }
    }

    #[test]
    fn recorder_swap_at_any_boundary_reproduces_the_series(
        (universe, requests, k) in arb_run(),
        width in 1u64..400,
        split_windows in 0u64..20,
    ) {
        // Whole, uninterrupted run.
        let run = |swap_at: Option<u64>| {
            let rec = WindowedRecorder::<false>::new(width).with_ring_capacity(usize::MAX);
            let mut eng = SteppingEngine::new(k, universe.clone(), Lru::new())
                .with_recorder(rec);
            let mut handler =
                FaultHandler::new(FaultPolicy::SkipAndCount, universe.num_users());
            let mut prefix = None;
            for &r in &requests {
                if swap_at == Some(eng.time()) && prefix.is_none() {
                    // The "kill": finalize the old recorder where it
                    // stands and hand the engine a fresh one resuming at
                    // the same boundary.
                    let t = eng.time();
                    let mut old = std::mem::replace(
                        eng.recorder_mut(),
                        WindowedRecorder::<false>::starting_at(width, t)
                            .with_ring_capacity(usize::MAX),
                    );
                    old.finalize(eng.time());
                    prefix = Some(old.into_series());
                }
                eng.step_checked(r, &mut handler)
                    .expect("skip-and-count absorbs faults");
            }
            let end = eng.time();
            let mut rec = eng.into_recorder();
            rec.finalize(end);
            let tail = rec.into_series();
            match prefix {
                None => tail,
                Some(mut p) => {
                    p.windows.extend(tail.windows);
                    p.dropped += tail.dropped;
                    p
                }
            }
        };

        let whole = run(None);
        let boundary = (split_windows * width.max(1)).min(requests.len() as u64 / width.max(1) * width.max(1));
        let split = run(Some(boundary));
        prop_assert_eq!(&split.windows, &whole.windows, "split at t={}", boundary);
    }
}
