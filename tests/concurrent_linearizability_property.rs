//! Linearizability-style property test for the sharded page table.
//!
//! Worker threads issue random op batches — probes (repeat requests
//! that may hit), inserts (first touches with free space), and evicts
//! (first touches against a full cache) — against the shared-cache
//! concurrent engine. The engine records a total commit order (the
//! `seq`-ordered commit schedule). The test then checks that this
//! order is a **legal sequential history** of the k-capacity page set
//! by replaying it op-for-op against a sequential [`PageLists`] model:
//! one intrusive list per shard segment over the page arena, exactly
//! the structure the flat-array policies index. Every recorded outcome
//! must be consistent with the model's state at its commit point —
//! hits find the page linked in its home segment, inserts link a new
//! page while below capacity, evictions unlink the recorded victim at
//! exactly full capacity — and the final model occupancy must match
//! the engine's accounting. If the engine ever tore an update
//! (a page in two segments, a lost unlink, a capacity over-grant),
//! some commit in the recorded order would be inconsistent with every
//! sequential execution, and this check fails.

use occ_baselines::{Fifo, Lru};
use occ_sim::concurrent::{run_shared, shard_of, CommitOutcome, ConcurrentEngine};
use occ_sim::probe::NoopRecorder;
use occ_sim::{FaultPolicy, PageLists, ReplacementPolicy, Trace, TraceSource, Universe};
use proptest::prelude::*;

type SharedPolicy = Box<dyn ReplacementPolicy + Send>;

fn policies(idx: usize, table_shards: usize) -> Vec<SharedPolicy> {
    (0..table_shards)
        .map(|_| -> SharedPolicy {
            if idx == 0 {
                Box::new(Lru::new())
            } else {
                Box::new(Fifo::new())
            }
        })
        .collect()
}

#[allow(clippy::type_complexity)]
fn arb_batches() -> impl Strategy<Value = ((usize, usize, usize), usize, u32, u32, Vec<Vec<u32>>)> {
    (1usize..=4, 1usize..=6, 0usize..2, 1u32..=3, 1u32..=5).prop_flat_map(
        |(threads, shards, policy, users, pages_per)| {
            let total = users * pages_per;
            (
                Just((threads, shards, policy)),
                1usize..=5,
                Just(users),
                Just(pages_per),
                proptest::collection::vec(proptest::collection::vec(0..total, 0..150), threads),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commit_order_is_a_legal_sequential_history(
        ((threads, table_shards, policy_idx), k, users, pages_per, batches) in arb_batches(),
    ) {
        prop_assert_eq!(batches.len(), threads);
        let universe = Universe::uniform(users, pages_per);
        let traces: Vec<Trace> = batches
            .iter()
            .map(|idxs| Trace::from_page_indices(&universe, idxs))
            .collect();
        let engine = ConcurrentEngine::new(
            k,
            universe.clone(),
            FaultPolicy::SkipAndCount,
            policies(policy_idx, table_shards),
        );
        let mut sources: Vec<TraceSource> = traces.iter().map(TraceSource::new).collect();
        let mut recorders = vec![NoopRecorder; sources.len()];
        let outcome = run_shared(&engine, &mut sources, &mut recorders).expect("clean run");

        // Sequential model: one PageLists arena, one list per shard
        // segment; linked = cached. Apply the recorded commit order.
        let mut model = PageLists::with_size(table_shards, universe.num_pages() as usize);
        let mut occupancy = 0usize;
        for e in outcome.schedule.entries() {
            let home = shard_of(e.page, table_shards);
            prop_assert_eq!(
                e.shard as usize, home,
                "seq {}: page {:?} committed in segment {} but hashes to {}",
                e.seq, e.page, e.shard, home
            );
            match e.outcome {
                CommitOutcome::Hit => {
                    prop_assert_eq!(
                        model.list_of(e.page), Some(home),
                        "seq {}: hit on a page the sequential model does not have cached",
                        e.seq
                    );
                }
                CommitOutcome::Insert => {
                    prop_assert!(
                        !model.contains(e.page),
                        "seq {}: insert of an already-cached page", e.seq
                    );
                    prop_assert!(
                        occupancy < k,
                        "seq {}: insert into a full cache (capacity over-grant)", e.seq
                    );
                    model.push_back(home, e.page);
                    occupancy += 1;
                }
                CommitOutcome::Evict { victim } => {
                    prop_assert_eq!(
                        occupancy, k,
                        "seq {}: eviction while below capacity", e.seq
                    );
                    prop_assert!(
                        model.contains(victim),
                        "seq {}: evicted a page the model does not have cached", e.seq
                    );
                    prop_assert!(
                        !model.contains(e.page),
                        "seq {}: evict-path insert of an already-cached page", e.seq
                    );
                    model.remove(victim);
                    model.push_back(home, e.page);
                }
                CommitOutcome::Drop { .. } => {}
            }
        }

        // End state: the model's occupancy matches the engine's books.
        let linked: usize = (0..table_shards).map(|s| model.len(s)).sum();
        prop_assert_eq!(linked, occupancy);
        let inserts = outcome.stats.total_misses() - outcome.stats.total_evictions();
        prop_assert_eq!(occupancy as u64, inserts, "inserts minus evictions+evicts net out");
        // Each segment holds only pages that hash to it.
        for s in 0..table_shards {
            for p in model.iter(s) {
                prop_assert_eq!(shard_of(p, table_shards), s);
            }
        }
    }
}
