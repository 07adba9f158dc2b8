//! Property tests for the instrumentation layer:
//!
//! * attaching a full recorder (metrics + JSONL sink) never changes what
//!   the engine computes — counters and eviction sequences are identical
//!   to the `NoopRecorder` run;
//! * histogram merging is exact: the merge of arbitrary shards equals
//!   the histogram of the whole sample set, and quantiles respect the
//!   log-linear error bound;
//! * histogram JSON round-trips losslessly.

use occ_baselines::{Fifo, Lru};
use occ_probe::{JsonlSink, LogHistogram, MetricsRecorder};
use occ_sim::{ReplacementPolicy, Simulator, Trace, Universe};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = (Universe, Vec<u32>, usize)> {
    (2u32..=4, 2u32..=5).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec(0..total, 10..300),
            2..=(total as usize - 1).max(2),
        )
            .prop_map(move |(pages, k)| {
                (
                    Universe::uniform(users, pages_per),
                    pages,
                    k.min(total as usize - 1),
                )
            })
    })
}

fn run_both<P: ReplacementPolicy>(make: impl Fn() -> P, trace: &Trace, k: usize) {
    // Plain run: NoopRecorder path.
    let plain = Simulator::new(k)
        .record_events(true)
        .flush_at_end(true)
        .run(&mut make(), trace);
    // Fully recorded run: timed metrics + a streaming sink, fanned out.
    let mut rec = MetricsRecorder::new();
    let mut pair = (&mut rec, JsonlSink::new(Vec::new()));
    let recorded = Simulator::new(k)
        .record_events(true)
        .flush_at_end(true)
        .run_recorded(&mut make(), trace, &mut pair);

    prop_assert_eq!(&plain.stats, &recorded.stats);
    prop_assert_eq!(&plain.final_cache, &recorded.final_cache);
    prop_assert_eq!(
        plain.events.as_ref().unwrap().eviction_sequence(),
        recorded.events.as_ref().unwrap().eviction_sequence()
    );
    // The recorder's own counters agree with the engine's.
    let total = rec.total();
    prop_assert_eq!(total.hits, recorded.stats.total_hits());
    prop_assert_eq!(total.misses(), recorded.stats.total_misses());
    prop_assert_eq!(
        total.evictions + total.flush_evictions,
        recorded.stats.total_evictions()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recorded_runs_are_byte_identical((universe, pages, k) in arb_trace()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        run_both(Lru::new, &trace, k);
        run_both(Fifo::new, &trace, k);
    }

    #[test]
    fn histogram_merge_of_shards_equals_whole(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..400),
        shards in 1usize..6,
    ) {
        let mut whole = LogHistogram::new();
        let mut parts = vec![LogHistogram::new(); shards];
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            parts[i % shards].record(v);
        }
        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.count(), values.len() as u64);
        prop_assert_eq!(merged.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn histogram_quantiles_respect_error_bound(
        values in proptest::collection::vec(0u64..1_000_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut h = LogHistogram::new();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
        let exact = sorted[rank];
        let est = h.quantile(q);
        // The estimate is the inclusive upper edge of the exact value's
        // bucket: never below the true sample quantile, and within the
        // 1/32 relative bound above it.
        prop_assert!(est >= exact, "estimate {est} below exact {exact}");
        prop_assert!(
            est - exact <= (exact >> 5),
            "estimate {est} too far above exact {exact}"
        );
        prop_assert!(est <= h.max());
    }

    #[test]
    fn histogram_json_round_trip(
        values in proptest::collection::vec(0u64..u64::MAX / 2, 0..200),
    ) {
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let back = LogHistogram::from_json(&h.to_json()).unwrap();
        prop_assert_eq!(&back, &h);
    }
}
