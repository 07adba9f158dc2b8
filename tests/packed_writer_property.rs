//! Property tests for the trace writers' run-level appends.
//!
//! Both binary writers take a whole run of requests or bare pages at a
//! time (`push_run`), cut it at their own chunk boundaries, and check
//! every record as the one-request `push` does. These properties pin
//! that down on random universes and traces that straddle one or two
//! 65 536-request occbin02 chunk boundaries, cut into runs of random
//! sizes (1 included):
//!
//! * run appends of requests and of pages, per-request `push`, and the
//!   whole-trace writers produce identical bytes, which decode back to
//!   the input through the streaming readers;
//! * a record outside the universe, a wrong claimed owner and a record
//!   past the promised count are rejected with the same error by both
//!   paths, which leave the writer in the same state.

use occ_sim::{
    read_trace_binary, read_trace_binary_v2, write_trace_binary, write_trace_binary_v2,
    Binary2TraceReader, Binary2TraceWriter, BinaryTraceWriter, PageId, Request, RequestSource,
    Trace, TraceBuilder, TraceIoError, TraceRecord, Universe, UserId,
};
use proptest::prelude::*;
use std::io::Cursor;

/// Requests per occbin02 chunk: the format fixes it, and the writer
/// cuts runs there.
const CHUNK: usize = 64 * 1024;

/// SplitMix64: the bulk of each case is drawn from one seed, so a
/// 200 000-request trace costs one strategy draw.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One case: a trace over a random universe and the run sizes to cut
/// it into.
#[derive(Debug)]
struct Case {
    trace: Trace,
    runs: Vec<usize>,
}

/// A universe of 1–5 users with random page-set sizes, narrow (ids fit
/// one or two varint bytes) or wide (ids up to 2^22, deltas up to four
/// bytes); a trace whose length lands within a few requests of the
/// first or second chunk boundary, drawn per chunk as a scan (delta
/// coding wins), uniform ids, or a hot set (raw coding wins); and run
/// sizes mixing 1, small, chunk-sized and larger-than-chunk runs.
fn arb_case() -> impl Strategy<Value = Case> {
    (1u32..=5, 0u32..2, 1usize..=2, -3i64..=3, 0u64..u64::MAX).prop_map(
        |(users, wide, boundaries, offset, seed)| {
            let mut rng = Mix(seed);
            let span = if wide == 1 { 1 << 22 } else { 200 };
            let sizes: Vec<u32> = (0..users)
                .map(|_| 1 + rng.below(span / users as u64) as u32)
                .collect();
            let universe = Universe::with_sizes(&sizes);
            let pages = universe.num_pages() as u64;
            let len = (boundaries * CHUNK) as i64 + offset;
            let mut builder = TraceBuilder::new(universe);
            let mut page = rng.below(pages);
            let mut style = 0;
            for t in 0..len as usize {
                if t % CHUNK == 0 {
                    style = rng.below(3);
                }
                page = match style {
                    0 => (page + 1 + rng.below(3)) % pages,
                    1 => rng.below(pages),
                    _ => rng.below(pages.min(100)),
                };
                builder.push(PageId(page as u32));
            }
            let mut runs = Vec::new();
            let mut covered = 0;
            while covered < len as usize {
                let run = match rng.below(6) {
                    0 => 1,
                    1 => 1 + rng.below(16) as usize,
                    2 => 1 + rng.below(5_000) as usize,
                    3 => CHUNK - 1 + rng.below(3) as usize,
                    4 => 1 + rng.below(3 * CHUNK as u64) as usize,
                    _ => 4_096,
                };
                runs.push(run);
                covered += run;
            }
            Case {
                trace: builder.build(),
                runs,
            }
        },
    )
}

/// `items` cut into consecutive runs of the given sizes (the last one
/// ragged).
fn cut<'a, T>(items: &'a [T], runs: &[usize]) -> Vec<&'a [T]> {
    let mut out = Vec::new();
    let mut at = 0;
    for &n in runs {
        if at == items.len() {
            break;
        }
        let end = (at + n).min(items.len());
        out.push(&items[at..end]);
        at = end;
    }
    out
}

fn pages_of(reqs: &[Request]) -> Vec<PageId> {
    reqs.iter().map(|r| r.page).collect()
}

/// occbin02 bytes from appending `runs` of `T`, promising `promise`.
fn packed_runs<T: TraceRecord>(
    universe: &Universe,
    promise: u64,
    runs: &[&[T]],
) -> Result<Vec<u8>, TraceIoError> {
    let mut w = Binary2TraceWriter::new(universe.clone(), promise, Vec::new())?;
    for run in runs {
        w.push_run(run)?;
    }
    w.finish()
}

/// occbin01 bytes from appending `runs` of `T`.
fn fixed_runs<T: TraceRecord>(universe: &Universe, runs: &[&[T]]) -> Vec<u8> {
    let mut w = BinaryTraceWriter::new(universe.clone(), Cursor::new(Vec::new())).unwrap();
    for run in runs {
        w.push_run(run).unwrap();
    }
    w.finish().unwrap().into_inner()
}

/// Drain a packed trace through the streaming reader, in runs of `max`.
fn stream_packed(bytes: &[u8], max: usize) -> Vec<Request> {
    let mut src = Binary2TraceReader::new(bytes).unwrap();
    let mut got = Vec::new();
    while let Some(run) = src.next_run(max) {
        got.extend_from_slice(run);
    }
    src.finish().unwrap();
    got
}

/// A writer's verdict and state after a sequence of appends: the first
/// error, then what `finish` says about what was accepted.
fn verdict(first: Result<(), TraceIoError>, finish: Result<Vec<u8>, TraceIoError>) -> String {
    format!(
        "{:?} / {:?}",
        first.map_err(|e| e.to_string()),
        finish.map_err(|e| e.to_string())
    )
}

/// Append `runs` to a packed writer promising `promise`, stopping at the
/// first error; returns the verdict.
fn packed_verdict<T: TraceRecord>(universe: &Universe, promise: u64, runs: &[&[T]]) -> String {
    let mut w = Binary2TraceWriter::new(universe.clone(), promise, Vec::new()).unwrap();
    let first = runs.iter().try_for_each(|run| w.push_run(run));
    verdict(first, w.finish())
}

/// The same for the fixed-width writer (which has no promise).
fn fixed_verdict<T: TraceRecord>(universe: &Universe, runs: &[&[T]]) -> String {
    let mut w = BinaryTraceWriter::new(universe.clone(), Cursor::new(Vec::new())).unwrap();
    let first = runs.iter().try_for_each(|run| w.push_run(run));
    verdict(first, w.finish().map(Cursor::into_inner))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn run_appends_push_and_whole_writers_agree(case in arb_case()) {
        let (trace, universe) = (&case.trace, case.trace.universe());
        let reqs = trace.requests();
        let pages = pages_of(reqs);
        let count = reqs.len() as u64;

        let mut whole = Vec::new();
        write_trace_binary_v2(trace, &mut whole).unwrap();
        let mut w = Binary2TraceWriter::new(universe.clone(), count, Vec::new()).unwrap();
        for &r in reqs {
            w.push(r).unwrap();
        }
        prop_assert_eq!(&w.finish().unwrap(), &whole);
        prop_assert_eq!(&packed_runs(universe, count, &cut(reqs, &case.runs)).unwrap(), &whole);
        prop_assert_eq!(&packed_runs(universe, count, &cut(&pages, &case.runs)).unwrap(), &whole);
        let back = read_trace_binary_v2(whole.as_slice()).unwrap();
        prop_assert_eq!(back.universe(), universe);
        prop_assert_eq!(back.requests(), reqs);
        prop_assert_eq!(stream_packed(&whole, 1 + case.runs[0] % 9_000).as_slice(), reqs);

        let mut fixed = Vec::new();
        write_trace_binary(trace, &mut fixed).unwrap();
        let mut w = BinaryTraceWriter::new(universe.clone(), Cursor::new(Vec::new())).unwrap();
        for &r in reqs {
            w.push(r).unwrap();
        }
        prop_assert_eq!(&w.finish().unwrap().into_inner(), &fixed);
        prop_assert_eq!(&fixed_runs(universe, &cut(reqs, &case.runs)), &fixed);
        prop_assert_eq!(&fixed_runs(universe, &cut(&pages, &case.runs)), &fixed);
        prop_assert_eq!(read_trace_binary(fixed.as_slice()).unwrap().requests(), reqs);
    }

    #[test]
    fn run_appends_reject_what_push_rejects(
        case in arb_case(),
        (flaw, at_permille, short_by) in (0u32..3, 0u64..1000, 1u64..4),
    ) {
        let universe = case.trace.universe();
        let mut reqs = case.trace.requests().to_vec();
        let n = reqs.len() as u64;
        let at = (n * at_permille / 1000) as usize;
        let mut promise = n;
        match flaw {
            // A page just past the universe.
            0 => reqs[at].page = PageId(universe.num_pages()),
            // The right page with the wrong owner claimed (a one-user
            // universe can only claim a user that does not exist).
            1 => reqs[at].user = UserId((reqs[at].user.0 + 1) % universe.num_users().max(2)),
            // A clean trace, promised a little short.
            _ => promise = n - short_by.min(n),
        }
        let one_at_a_time: Vec<&[Request]> = reqs.chunks(1).collect();
        let runs = cut(&reqs, &case.runs);
        let expect = packed_verdict(universe, promise, &one_at_a_time);
        prop_assert!(expect.starts_with("Err"), "the flaw is caught: {}", expect);
        prop_assert_eq!(packed_verdict(universe, promise, &runs), expect);
        prop_assert_eq!(fixed_verdict(universe, &runs), fixed_verdict(universe, &one_at_a_time));

        // Bare pages claim no owner: only the out-of-range flaw and the
        // promise apply to them.
        let pages = pages_of(&reqs);
        let one_page_at_a_time: Vec<&[PageId]> = pages.chunks(1).collect();
        let page_runs = cut(&pages, &case.runs);
        prop_assert_eq!(
            packed_verdict(universe, promise, &page_runs),
            packed_verdict(universe, promise, &one_page_at_a_time)
        );
        prop_assert_eq!(
            fixed_verdict(universe, &page_runs),
            fixed_verdict(universe, &one_page_at_a_time)
        );
    }
}

#[test]
fn a_rejected_run_names_the_record_and_keeps_the_ones_before_it() {
    let universe = Universe::uniform(2, 3);
    let run = [
        universe.request(PageId(0)),
        universe.request(PageId(4)),
        Request {
            page: PageId(1),
            user: UserId(1),
        },
        universe.request(PageId(2)),
    ];
    let mut w = Binary2TraceWriter::new(universe.clone(), 4, Vec::new()).unwrap();
    w.push_run(&run[..1]).unwrap();
    let err = w.push_run(&run[1..]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "parse error: request 2: u1 does not own p1"
    );
    let err = w.finish().unwrap_err();
    assert_eq!(
        err.to_string(),
        "parse error: promised 4 requests but 2 were pushed"
    );

    let mut w = BinaryTraceWriter::new(universe.clone(), Cursor::new(Vec::new())).unwrap();
    let err = w.push_run(&[PageId(5), PageId(6)]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "parse error: request 1: page p6 outside the universe"
    );

    let mut w = Binary2TraceWriter::new(universe, 1, Vec::new()).unwrap();
    let err = w.push_run(&[PageId(0), PageId(1)]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "parse error: more requests than the promised 1"
    );
    assert!(
        w.finish().is_ok(),
        "the request within the promise was kept"
    );
}
