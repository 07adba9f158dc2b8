//! Property: a supervised fleet run under an arbitrary seeded kill
//! schedule recovers to output **byte-identical** to the uninterrupted
//! run — merged window series (serialized bytes), per-shard window
//! series, per-user miss vectors, and whole-run stats — for arbitrary
//! kill points, shard counts, and window widths. The correctness gate
//! of the fault-tolerance work: recovery must be invisible in the data.

use occ_baselines::Lru;
use occ_fleet::{run_supervised_fleet, ShardKill, StoreFault, SupervisorConfig};
use occ_workloads::presets::two_tier;
use proptest::prelude::*;

const LEN: u64 = 900;

fn run(
    shards: usize,
    width: u64,
    kills: Vec<ShardKill>,
    faults: Vec<StoreFault>,
) -> occ_fleet::FleetReport {
    let scenario = two_tier();
    let mut cfg = SupervisorConfig::new(scenario.suggested_k, width);
    // Budget covers the densest schedule the strategy can draw.
    cfg.max_restarts = 64;
    cfg.kills = kills;
    cfg.store_faults = faults;
    run_supervised_fleet(
        shards,
        &cfg,
        |shard| two_tier().stream(LEN, 7 + shard as u64),
        |_shard| Lru::new(),
        Vec::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recovery_is_byte_identical_to_the_uninterrupted_run(
        shards in 1usize..5,
        width in 1u64..500,
        // Kill points over shard indices possibly past the fleet (those
        // never fire) and times spanning the whole stream including
        // t=0 and t=LEN.
        kill_spec in proptest::collection::vec((0usize..5, 0u64..=LEN), 0..8),
        fault_spec in proptest::collection::vec((0usize..5, 1u64..6), 0..3),
    ) {
        let kills: Vec<ShardKill> = kill_spec
            .iter()
            .map(|&(shard, at)| ShardKill { shard: shard % shards, at })
            .collect();
        let faults: Vec<StoreFault> = fault_spec
            .iter()
            .map(|&(shard, nth)| StoreFault { shard: shard % shards, nth })
            .collect();

        let clean = run(shards, width, Vec::new(), Vec::new());
        let chaos = run(shards, width, kills.clone(), faults);

        let sup = chaos.supervisor.as_ref().expect("supervised run");
        prop_assert!(!sup.is_degraded(), "budget covers every schedule");

        for (a, b) in clean.shards.iter().zip(&chaos.shards) {
            prop_assert_eq!(&a.stats, &b.stats, "shard {} stats", a.shard);
            prop_assert_eq!(
                a.stats.miss_vector(),
                b.stats.miss_vector(),
                "shard {} per-user miss vector", a.shard
            );
            prop_assert_eq!(a.served, b.served, "shard {} served", a.shard);
            prop_assert_eq!(&a.series, &b.series, "shard {} series", a.shard);
        }

        // Byte-identity of the merged series, not just structural
        // equality: serialize both and compare the strings.
        let clean_bytes = clean.merged_series.as_ref().unwrap().to_json_value().to_json();
        let chaos_bytes = chaos.merged_series.as_ref().unwrap().to_json_value().to_json();
        prop_assert_eq!(clean_bytes, chaos_bytes, "merged series bytes diverged");

        // Every kill that targeted a live shard at a reachable time was
        // actually absorbed as a restart (faults add more).
        let fired = kills.iter().filter(|k| k.shard < shards).count() as u64;
        prop_assert!(
            sup.total_restarts() >= fired,
            "{} kills scheduled but only {} restarts",
            fired,
            sup.total_restarts()
        );
    }
}
