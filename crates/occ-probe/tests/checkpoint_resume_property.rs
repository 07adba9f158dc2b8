//! Property tests for checkpoint/resume identity.
//!
//! The robustness contract: a run that is interrupted at *any* point,
//! serialized to checkpoint JSON, deserialized, and resumed must be
//! byte-identical to the uninterrupted run — same per-step outcomes
//! (hit / insert / who was evicted), same counters, and the same final
//! snapshot (which captures the cache, the policy's internal state, and
//! — for `RandomizedMarking` — the RNG words).
//!
//! The "relay" form below is stronger than a single cut: the engine is
//! torn down and rebuilt from JSON every `stride` steps, so one case
//! exercises many resume points. ALG-DISCRETE runs on both of its paths
//! (convex list, non-convex ordered set), and one suite interleaves
//! external removals, user purges and quarantines with the requests,
//! since its checkpoint keeps state for cached pages only.

use occ_baselines::{Fifo, Lfu, Lru, Marking, RandomizedMarking};
use occ_core::{ConvexCaching, CostFn, CostProfile, Linear, Monomial, ThresholdCost};
use occ_probe::{snapshot_from_json, snapshot_to_json};
use occ_sim::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// A non-convex profile (threshold costs on even users), which puts
/// ALG-DISCRETE on its ordered-set slow path.
fn non_convex(users: u32) -> CostProfile {
    CostProfile::new(
        (0..users)
            .map(|u| {
                if u % 2 == 0 {
                    Arc::new(ThresholdCost::new(1.0, 2, 5.0)) as CostFn
                } else {
                    Arc::new(Linear::new(2.0)) as CostFn
                }
            })
            .collect(),
    )
}

/// One operation on an engine besides plain requests: pages and users
/// leave the cache from outside the policy, and a wrong-owner record
/// quarantines (and purges) the page's owner.
#[derive(Clone, Copy, Debug)]
enum Op {
    Request(u32),
    WrongOwner(u32),
    Remove(u32),
    Purge(u32),
}

fn arb_ops() -> impl Strategy<Value = (Universe, Vec<Op>, usize, usize)> {
    (2u32..=4, 2u32..=6).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec((0u8..24, 0..total), 20..300),
            2..=(total as usize - 1).max(2),
            1usize..60,
        )
            .prop_map(move |(raw, k, stride)| {
                let ops = raw
                    .into_iter()
                    .map(|(kind, x)| match kind {
                        0 => Op::WrongOwner(x),
                        1 | 2 => Op::Remove(x),
                        3 => Op::Purge(x % users),
                        _ => Op::Request(x),
                    })
                    .collect();
                (
                    Universe::uniform(users, pages_per),
                    ops,
                    k.min(total as usize - 1),
                    stride,
                )
            })
    })
}

/// Apply `op` under a quarantining handler; what it did, for comparing
/// two runs step by step.
fn apply<P: ReplacementPolicy>(
    eng: &mut SteppingEngine<P>,
    handler: &mut FaultHandler,
    universe: &Universe,
    op: Op,
) -> (Option<StepOutcome>, usize) {
    match op {
        Op::Request(p) => (
            eng.step_checked(universe.request(PageId(p)), handler)
                .unwrap(),
            0,
        ),
        Op::WrongOwner(p) => {
            let mut req = universe.request(PageId(p));
            req.user = UserId((req.user.0 + 1) % universe.num_users());
            (eng.step_checked(req, handler).unwrap(), 0)
        }
        Op::Remove(p) => (None, eng.remove_externally(PageId(p)) as usize),
        Op::Purge(u) => (None, eng.remove_user_externally(UserId(u))),
    }
}

/// The relay over an op stream: requests, external removals, user
/// purges and quarantines, with a JSON-round-tripped teardown every
/// `stride` ops.
fn relay_ops_match<P: ReplacementPolicy>(
    make: impl Fn() -> P,
    universe: &Universe,
    ops: &[Op],
    k: usize,
    stride: usize,
) {
    let policy = FaultPolicy::QuarantineUser;
    let mut full = SteppingEngine::new(k, universe.clone(), make());
    let mut full_handler = FaultHandler::new(policy, universe.num_users());
    let full_effects: Vec<_> = ops
        .iter()
        .map(|&op| apply(&mut full, &mut full_handler, universe, op))
        .collect();
    let full_snap = full.snapshot_with_faults(&full_handler).unwrap();

    let mut eng = SteppingEngine::new(k, universe.clone(), make());
    let mut handler = FaultHandler::new(policy, universe.num_users());
    let mut effects = Vec::with_capacity(ops.len());
    for (i, &op) in ops.iter().enumerate() {
        if i > 0 && i % stride == 0 {
            let snap = eng.snapshot_with_faults(&handler).unwrap();
            let restored = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
            prop_assert_eq!(&restored, &snap);
            eng = SteppingEngine::from_snapshot(&restored, make()).unwrap();
            handler = FaultHandler::new(policy, universe.num_users());
            handler.restore(&restored).unwrap();
        }
        effects.push(apply(&mut eng, &mut handler, universe, op));
    }

    prop_assert_eq!(&full_effects, &effects);
    prop_assert_eq!(full.stats(), eng.stats());
    let final_snap = eng.snapshot_with_faults(&handler).unwrap();
    prop_assert_eq!(&full_snap, &final_snap);
    prop_assert_eq!(snapshot_to_json(&full_snap), snapshot_to_json(&final_snap));
}

fn arb_world() -> impl Strategy<Value = (Universe, Vec<u32>, usize, usize)> {
    (2u32..=4, 2u32..=6).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec(0..total, 20..300),
            2..=(total as usize - 1).max(2),
            1usize..60,
        )
            .prop_map(move |(pages, k, stride)| {
                (
                    Universe::uniform(users, pages_per),
                    pages,
                    k.min(total as usize - 1),
                    stride,
                )
            })
    })
}

/// Run `reqs` straight through, and again with a JSON-round-tripped
/// engine teardown/rebuild every `stride` steps; assert both paths are
/// indistinguishable.
fn relay_matches_uninterrupted<P: ReplacementPolicy>(
    make: impl Fn() -> P,
    universe: &Universe,
    reqs: &[Request],
    k: usize,
    stride: usize,
) {
    let mut full = SteppingEngine::new(k, universe.clone(), make());
    let mut full_outcomes = Vec::with_capacity(reqs.len());
    for &r in reqs {
        full_outcomes.push(full.step(r));
    }
    let full_snap = full.snapshot().unwrap();

    let mut eng = SteppingEngine::new(k, universe.clone(), make());
    let mut outcomes = Vec::with_capacity(reqs.len());
    for (i, &r) in reqs.iter().enumerate() {
        if i > 0 && i % stride == 0 {
            let snap = eng.snapshot().unwrap();
            let restored = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
            prop_assert_eq!(&restored, &snap, "JSON round trip must be lossless");
            eng = SteppingEngine::from_snapshot(&restored, make()).unwrap();
        }
        outcomes.push(eng.step(r));
    }

    // Identical eviction decisions at every step…
    prop_assert_eq!(&full_outcomes, &outcomes);
    // …identical counters…
    prop_assert_eq!(full.stats(), eng.stats());
    // …and a byte-identical final snapshot: cache contents, per-user
    // stats, and the policy's full state bag (incl. RNG words).
    let final_snap = eng.snapshot().unwrap();
    prop_assert_eq!(&full_snap, &final_snap);
    prop_assert_eq!(snapshot_to_json(&full_snap), snapshot_to_json(&final_snap));
}

/// Same relay, but over a corrupted stream under skip-and-count: fault
/// counters travel through the checkpoint and the absorbed-fault totals
/// match the uninterrupted checked run.
fn relay_matches_checked<P: ReplacementPolicy>(
    make: impl Fn() -> P,
    universe: &Universe,
    reqs: &[Request],
    k: usize,
    stride: usize,
    policy: FaultPolicy,
) {
    let mut full = SteppingEngine::new(k, universe.clone(), make());
    let mut full_handler = FaultHandler::new(policy, universe.num_users());
    for &r in reqs {
        full.step_checked(r, &mut full_handler).unwrap();
    }
    let full_snap = full.snapshot_with_faults(&full_handler).unwrap();

    let mut eng = SteppingEngine::new(k, universe.clone(), make());
    let mut handler = FaultHandler::new(policy, universe.num_users());
    for (i, &r) in reqs.iter().enumerate() {
        if i > 0 && i % stride == 0 {
            let snap = eng.snapshot_with_faults(&handler).unwrap();
            let restored = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
            prop_assert_eq!(&restored, &snap);
            eng = SteppingEngine::from_snapshot(&restored, make()).unwrap();
            handler = FaultHandler::new(policy, universe.num_users());
            handler.restore(&restored).unwrap();
            // Restore rejects a quarantined user with cached pages, so
            // there is nothing left to purge.
            for &u in &restored.quarantined {
                prop_assert_eq!(eng.remove_user_externally(u), 0);
            }
        }
        eng.step_checked(r, &mut handler).unwrap();
    }

    prop_assert_eq!(full.stats(), eng.stats());
    prop_assert_eq!(full_handler.counters(), handler.counters());
    prop_assert_eq!(
        full_handler.quarantined_users(),
        handler.quarantined_users()
    );
    let final_snap = eng.snapshot_with_faults(&handler).unwrap();
    prop_assert_eq!(snapshot_to_json(&full_snap), snapshot_to_json(&final_snap));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn resume_is_byte_identical_for_every_policy(
        (universe, pages, k, stride) in arb_world(),
        rng_seed in 0u64..u64::MAX,
    ) {
        let trace = Trace::from_page_indices(&universe, &pages);
        let reqs = trace.requests();
        relay_matches_uninterrupted(Lru::new, &universe, reqs, k, stride);
        relay_matches_uninterrupted(Fifo::new, &universe, reqs, k, stride);
        relay_matches_uninterrupted(Lfu::new, &universe, reqs, k, stride);
        relay_matches_uninterrupted(Marking::new, &universe, reqs, k, stride);
        // The randomized policy is the acid test: its xoshiro state must
        // travel through the checkpoint bit-for-bit.
        relay_matches_uninterrupted(
            || RandomizedMarking::new(rng_seed),
            &universe, reqs, k, stride,
        );
        let costs = CostProfile::uniform(universe.num_users(), Monomial::power(2.0));
        relay_matches_uninterrupted(
            || ConvexCaching::new(costs.clone()),
            &universe, reqs, k, stride,
        );
        let costs = non_convex(universe.num_users());
        relay_matches_uninterrupted(
            || ConvexCaching::new(costs.clone()),
            &universe, reqs, k, stride,
        );
    }

    #[test]
    fn resume_is_byte_identical_across_removals_and_purges(
        (universe, ops, k, stride) in arb_ops(),
    ) {
        relay_ops_match(Lru::new, &universe, &ops, k, stride);
        let convex = CostProfile::uniform(universe.num_users(), Monomial::power(2.0));
        relay_ops_match(|| ConvexCaching::new(convex.clone()), &universe, &ops, k, stride);
        let costs = non_convex(universe.num_users());
        relay_ops_match(|| ConvexCaching::new(costs.clone()), &universe, &ops, k, stride);
    }

    #[test]
    fn resume_preserves_fault_state_across_checkpoints(
        (universe, pages, k, stride) in arb_world(),
        plan_seed in 0u64..u64::MAX,
        page_rate in 0.0f64..0.3,
        owner_rate in 0.0f64..0.3,
        quarantine in 0u8..2,
    ) {
        let quarantine = quarantine == 1;
        let trace = Trace::from_page_indices(&universe, &pages);
        let plan = occ_workloads::FaultPlan::seeded(plan_seed)
            .with_page_rate(page_rate)
            .with_owner_rate(owner_rate);
        let (reqs, _injected) = plan.corrupt_trace(&trace);
        let policy = if quarantine {
            FaultPolicy::QuarantineUser
        } else {
            FaultPolicy::SkipAndCount
        };
        relay_matches_checked(Lru::new, &universe, &reqs, k, stride, policy);
        let costs = CostProfile::uniform(universe.num_users(), Linear::unit());
        relay_matches_checked(
            || ConvexCaching::new(costs.clone()),
            &universe, &reqs, k, stride, policy,
        );
        let costs = non_convex(universe.num_users());
        relay_matches_checked(
            || ConvexCaching::new(costs.clone()),
            &universe, &reqs, k, stride, policy,
        );
    }
}
