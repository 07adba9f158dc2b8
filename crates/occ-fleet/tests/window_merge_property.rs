//! Property: merging per-shard window series across a fleet is exactly
//! equivalent to summing the shards window-by-window, and the merged
//! series sums to the fleet's merged whole-run recorder — for arbitrary
//! shard counts, unequal shard lengths, and arbitrary window widths.

use occ_baselines::Lru;
use occ_fleet::{run_fleet, FleetConfig};
use occ_sim::ReplacementPolicy;
use occ_workloads::presets::two_tier;
use proptest::prelude::*;

fn lru_factory(_shard: usize) -> Box<dyn ReplacementPolicy> {
    Box::new(Lru::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_series_is_the_window_wise_sum_of_shards(
        lens in proptest::collection::vec(50u64..800, 1..4),
        width in 1u64..700,
        seed in 0u64..1000,
    ) {
        let scenario = two_tier();
        let mut cfg = FleetConfig::new(scenario.suggested_k);
        cfg.window = Some(width);
        let report = run_fleet(
            lens.iter()
                .enumerate()
                .map(|(i, &len)| scenario.stream(len, seed + i as u64))
                .collect(),
            &cfg,
            lru_factory,
        );

        let merged = report.merged_series.as_ref().expect("windowing was on");
        prop_assert_eq!(merged.width, width);

        // Every shard's own series sums to that shard's whole-run stats,
        // and covers ceil(len/width) windows.
        for (i, shard) in report.shards.iter().enumerate() {
            let series = shard.series.as_ref().expect("per-shard series");
            prop_assert_eq!(series.windows.len() as u64, lens[i].div_ceil(width));
            let total = series.total();
            prop_assert_eq!(total.hits, shard.stats.total_hits(), "shard {} hits", i);
            prop_assert_eq!(total.misses(), shard.stats.total_misses(), "shard {} misses", i);
        }

        // The merge has exactly the windows of the longest shard, and
        // window index i is the field-wise sum of every shard's window i
        // (shards shorter than i*width simply don't contribute).
        let longest = lens.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(merged.windows.len() as u64, longest.div_ceil(width));
        for (i, w) in merged.windows.iter().enumerate() {
            prop_assert_eq!(w.index, i as u64);
            let sum = |f: &dyn Fn(&occ_probe::WindowDelta) -> u64| -> u64 {
                report
                    .shards
                    .iter()
                    .filter_map(|s| s.series.as_ref().unwrap().windows.get(i))
                    .map(f)
                    .sum()
            };
            prop_assert_eq!(w.hits, sum(&|d| d.hits), "window {} hits", i);
            prop_assert_eq!(w.inserts, sum(&|d| d.inserts), "window {} inserts", i);
            prop_assert_eq!(w.evictions, sum(&|d| d.evictions), "window {} evictions", i);
            prop_assert_eq!(
                w.flush_evictions,
                sum(&|d| d.flush_evictions),
                "window {} flush", i
            );
            prop_assert_eq!(w.requests(), sum(&|d| d.requests()), "window {} requests", i);
        }

        // And the merged series sums to the fleet's merged recorder,
        // i.e. merge-then-sum equals sum-then-merge.
        let total = merged.total();
        prop_assert_eq!(total.hits, report.merged.total().hits);
        prop_assert_eq!(total.inserts, report.merged.total().inserts);
        prop_assert_eq!(total.evictions, report.merged.total().evictions);
        prop_assert_eq!(total.requests(), report.merged.total().requests());
    }
}
