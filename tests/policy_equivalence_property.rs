//! Property tests pinning the optimized hot-path policies to their
//! retained reference implementations.
//!
//! Every `*Reference` twin is the original straightforward data
//! structure (`BTreeSet`, `VecDeque`, per-eviction scans); the defaults
//! run on intrusive recency lists, dense swap-remove pools, and flat
//! history rings. For the deterministic policies the eviction sequences
//! must be **byte-identical** on arbitrary traces and cache sizes.
//! ALG-DISCRETE is additionally pinned on its *slow* path: a non-convex
//! cost profile disables the intrusive-list fast path and must still
//! reproduce the literal Figure 3 sweeps decision-for-decision, also
//! when pages and whole users leave the cache externally between
//! requests.

use occ_baselines::{
    Fifo, FifoReference, GreedyDual, GreedyDualReference, Lru, LruK, LruKReference, LruReference,
    Marking, MarkingReference, RandomizedMarking,
};
use occ_core::{
    ConvexCaching, CostFn, CostProfile, DiscreteReference, Linear, Marginals, Monomial,
    ThresholdCost,
};
use occ_sim::{
    PageId, ReplacementPolicy, Simulator, StepOutcome, SteppingEngine, Trace, Universe, UserId,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random single-user instance: page sequence, universe size, cache
/// size (always smaller than the universe so evictions happen).
fn arb_paging_instance() -> impl Strategy<Value = (Universe, Vec<u32>, usize)> {
    (4u32..=12).prop_flat_map(|total| {
        (
            proptest::collection::vec(0..total, 30..300),
            1..=(total as usize - 1),
        )
            .prop_map(move |(pages, k)| (Universe::single_user(total), pages, k))
    })
}

fn evictions<P: ReplacementPolicy>(p: &mut P, trace: &Trace, k: usize) -> Vec<(u64, u32)> {
    Simulator::new(k)
        .record_events(true)
        .run(p, trace)
        .events
        .unwrap()
        .eviction_sequence()
        .iter()
        .map(|&(t, pg)| (t, pg.0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_reference((universe, pages, k) in arb_paging_instance()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut Lru::new(), &trace, k),
            evictions(&mut LruReference::new(), &trace, k)
        );
    }

    #[test]
    fn fifo_matches_reference((universe, pages, k) in arb_paging_instance()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut Fifo::new(), &trace, k),
            evictions(&mut FifoReference::new(), &trace, k)
        );
    }

    #[test]
    fn marking_matches_reference((universe, pages, k) in arb_paging_instance()) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut Marking::new(), &trace, k),
            evictions(&mut MarkingReference::new(), &trace, k)
        );
    }

    #[test]
    fn lruk_matches_reference(
        (universe, pages, k) in arb_paging_instance(),
        depth in 1usize..=4,
    ) {
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut LruK::new(depth), &trace, k),
            evictions(&mut LruKReference::new(depth), &trace, k)
        );
    }

    #[test]
    fn greedy_dual_matches_reference(
        (users, pages_per) in (2u32..=4, 2u32..=4),
        raw_weights in proptest::collection::vec(0.01f64..100.0, 4),
        page_seed in proptest::collection::vec(0u32..16, 30..300),
        k in 2usize..=10,
    ) {
        // The flat-array Landlord (per-user recency lists, lazy
        // `w_u + offset` keys) against the ordered-set reference:
        // byte-identical eviction sequences for arbitrary positive
        // weights, where key sums exercise float rounding.
        let total = users * pages_per;
        let universe = Universe::uniform(users, pages_per);
        let pages: Vec<u32> = page_seed.iter().map(|p| p % total).collect();
        let weights: Vec<f64> = raw_weights[..users as usize].to_vec();
        let k = k.min(total as usize - 1);
        let trace = Trace::from_page_indices(&universe, &pages);
        prop_assert_eq!(
            evictions(&mut GreedyDual::new(weights.clone()), &trace, k),
            evictions(&mut GreedyDualReference::new(weights), &trace, k)
        );
    }

    #[test]
    fn rand_marking_reproducible_and_valid(
        (universe, pages, k) in arb_paging_instance(),
        seed in 0u64..1000,
    ) {
        // The randomized policy is pinned behaviorally (the pool layout
        // differs from the reference, so byte-identity is not defined):
        // the engine asserts every victim is cached, and equal seeds must
        // reproduce the run exactly.
        let trace = Trace::from_page_indices(&universe, &pages);
        let a = evictions(&mut RandomizedMarking::new(seed), &trace, k);
        let b = evictions(&mut RandomizedMarking::new(seed), &trace, k);
        prop_assert_eq!(a, b);
    }
}

/// Integer-parameter costs, including a non-convex threshold function,
/// keep all budget arithmetic exact so the slow path can be required to
/// match the reference bit-for-bit.
fn arb_cost_with_nonconvex() -> impl Strategy<Value = CostFn> {
    prop_oneof![
        (1u32..=5).prop_map(|w| Arc::new(Linear::new(w as f64)) as CostFn),
        (2u32..=3).prop_map(|b| Arc::new(Monomial::power(b as f64)) as CostFn),
        ((1u32..=3), (1u64..=6), (2u32..=12)).prop_map(|(s, th, j)| {
            Arc::new(ThresholdCost::new(s as f64, th, j as f64)) as CostFn
        }),
    ]
}

fn arb_multiuser_instance() -> impl Strategy<Value = (Universe, Vec<u32>, CostProfile, usize)> {
    (2u32..=3, 2u32..=4).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec(0..total, 30..250),
            proptest::collection::vec(arb_cost_with_nonconvex(), users as usize),
            2..=((total - 1).max(2) as usize),
        )
            .prop_map(move |(pages, fns, k)| {
                (
                    Universe::uniform(users, pages_per),
                    pages,
                    CostProfile::new(fns),
                    k.min(total as usize - 1),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg_discrete_matches_figure3_on_both_paths(
        (universe, pages, costs, k) in arb_multiuser_instance()
    ) {
        // Depending on the drawn profile this exercises the intrusive-list
        // fast path (all functions convex) or the BTreeSet fallback (a
        // ThresholdCost present). Discrete marginals make the threshold
        // function meaningful.
        let trace = Trace::from_page_indices(&universe, &pages);
        let mut fast = ConvexCaching::new(costs.clone()).with_marginals(Marginals::Discrete);
        prop_assert_eq!(fast.uses_fast_path(), costs.all_convex());
        let mut reference = DiscreteReference::new(costs).with_marginals(Marginals::Discrete);
        prop_assert_eq!(
            evictions(&mut fast, &trace, k),
            evictions(&mut reference, &trace, k)
        );
    }

    #[test]
    fn alg_discrete_slow_path_matches_figure3(
        (universe, pages, _unused, k) in arb_multiuser_instance(),
        slope in 1u32..=3,
        threshold in 1u64..=6,
        jump in 2u32..=12,
    ) {
        // Force the slow path: at least one user always gets the
        // non-convex threshold cost.
        let users = universe.num_users();
        let mut fns: Vec<CostFn> = vec![Arc::new(ThresholdCost::new(
            slope as f64,
            threshold,
            jump as f64,
        )) as CostFn];
        for u in 1..users {
            fns.push(Arc::new(Linear::new(u as f64)) as CostFn);
        }
        let costs = CostProfile::new(fns);
        prop_assert!(!costs.all_convex());
        let trace = Trace::from_page_indices(&universe, &pages);
        let mut slow = ConvexCaching::new(costs.clone()).with_marginals(Marginals::Discrete);
        prop_assert!(!slow.uses_fast_path());
        let mut reference = DiscreteReference::new(costs).with_marginals(Marginals::Discrete);
        prop_assert_eq!(
            evictions(&mut slow, &trace, k),
            evictions(&mut reference, &trace, k)
        );
    }
}

/// One operation of a mixed stream: a request, or an external removal
/// of one page or of every cached page of one user.
#[derive(Clone, Copy, Debug)]
enum Op {
    Step(u32),
    RemovePage(u32),
    RemoveUser(u32),
}

/// What an operation did, compared across implementations.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Effect {
    Step(StepOutcome),
    RemovedPage(bool),
    RemovedUser(usize),
}

/// A random multi-user instance with a mixed op stream (about one op
/// in five is an external removal) and two cost profiles over the same
/// users: an all-convex one (the fast path) and the same with user 0
/// switched to a non-convex threshold cost (the slow path).
fn arb_removal_instance(
) -> impl Strategy<Value = (Universe, Vec<Op>, CostProfile, CostProfile, usize)> {
    (2u32..=4, 2u32..=4).prop_flat_map(|(users, pages_per)| {
        let total = users * pages_per;
        (
            proptest::collection::vec((0u32..10, 0..total), 30..250),
            proptest::collection::vec((1u32..=5, 0u32..=2), users as usize),
            ((1u32..=3), (1u64..=6), (2u32..=12)),
            2..=((total - 1).max(2) as usize),
        )
            .prop_map(move |(raw_ops, shapes, (slope, th, jump), k)| {
                let ops = raw_ops
                    .into_iter()
                    .map(|(kind, p)| match kind {
                        0 | 1 => Op::RemovePage(p),
                        2 => Op::RemoveUser(p % users),
                        _ => Op::Step(p),
                    })
                    .collect();
                let convex: Vec<CostFn> = shapes
                    .iter()
                    .map(|&(w, shape)| match shape {
                        0 => Arc::new(Linear::new(w as f64)) as CostFn,
                        s => Arc::new(Monomial::power(s as f64 + 1.0)) as CostFn,
                    })
                    .collect();
                let mut threshold = convex.clone();
                threshold[0] =
                    Arc::new(ThresholdCost::new(slope as f64, th, jump as f64)) as CostFn;
                (
                    Universe::uniform(users, pages_per),
                    ops,
                    CostProfile::new(convex),
                    CostProfile::new(threshold),
                    k.min(total as usize - 1),
                )
            })
    })
}

/// Drive `policy` through `ops`; returns each op's effect and the final
/// per-user miss vector.
fn drive_ops<P: ReplacementPolicy>(
    policy: P,
    universe: &Universe,
    ops: &[Op],
    k: usize,
) -> (Vec<Effect>, Vec<u64>) {
    let mut engine = SteppingEngine::new(k, universe.clone(), policy);
    let effects = ops
        .iter()
        .map(|&op| match op {
            Op::Step(p) => Effect::Step(engine.step(universe.request(PageId(p)))),
            Op::RemovePage(p) => Effect::RemovedPage(engine.remove_externally(PageId(p))),
            Op::RemoveUser(u) => Effect::RemovedUser(engine.remove_user_externally(UserId(u))),
        })
        .collect();
    (effects, engine.stats().miss_vector())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg_discrete_matches_figure3_under_external_removals(
        (universe, ops, convex, threshold, k) in arb_removal_instance()
    ) {
        // An externally removed page must leave its owner's recency list
        // (fast path) or ordered set (slow path) and never come back as
        // a victim; re-requesting it must link it afresh. The reference
        // scans the cache itself, so it is the oracle for both.
        for (costs, fast) in [(convex, true), (threshold, false)] {
            let alg = ConvexCaching::new(costs.clone()).with_marginals(Marginals::Discrete);
            prop_assert_eq!(alg.uses_fast_path(), fast);
            let reference = DiscreteReference::new(costs).with_marginals(Marginals::Discrete);
            prop_assert_eq!(
                drive_ops(alg, &universe, &ops, k),
                drive_ops(reference, &universe, &ops, k),
                "fast path: {}", fast
            );
        }
    }
}
