#![warn(missing_docs)]
//! Online baseline replacement policies.
//!
//! Every policy the paper positions itself against (plus the textbook
//! staples), implemented against the shared [`occ_sim`] engine so that
//! cross-policy cost comparisons differ only in eviction decisions:
//!
//! * cost-blind: [`Lru`], [`Fifo`], [`Lfu`], [`Marking`], [`RandomEvict`],
//!   [`LruK`] (the database-grade policy cited in §1.1 \[16\]);
//! * weight-aware: [`GreedyDual`] — Young's weighted caching \[20\], the
//!   `α = 1` linear special case of the paper;
//! * cost-aware but myopic: [`CostGreedy`] — marginal-cost eviction with
//!   no dual accounting, isolating the value of the paper's budgets.
//!
//! The hot-path policies ship in two forms: the default (`Lru`, `Fifo`,
//! `Marking`, `RandomizedMarking`, `LruK`, `GreedyDual`) runs on
//! `O(1)`/`O(log k)` dense structures (intrusive recency lists,
//! swap-remove pools, flat history rings), and a `*Reference` twin keeps
//! the original straightforward implementation as the equivalence oracle
//! for the property tests and the baseline for the throughput
//! benchmarks.

pub mod cost_greedy;
pub mod fifo;
pub mod greedy_dual;
pub mod lfu;
pub mod lru;
pub mod lruk;
pub mod marking;
pub mod rand_marking;
pub mod random_policy;
mod state_util;

pub use cost_greedy::CostGreedy;
pub use fifo::{Fifo, FifoReference};
pub use greedy_dual::{GreedyDual, GreedyDualReference};
pub use lfu::Lfu;
pub use lru::{Lru, LruReference};
pub use lruk::{LruK, LruKReference};
pub use marking::{Marking, MarkingReference};
pub use rand_marking::{RandomizedMarking, RandomizedMarkingReference};
pub use random_policy::RandomEvict;

use occ_core::CostProfile;
use occ_sim::ReplacementPolicy;

/// The standard suite of online policies used by the comparison
/// experiments; the paper's algorithm is added separately by callers.
///
/// `costs` parameterizes the cost-aware entries ([`CostGreedy`]) and the
/// weights of [`GreedyDual`] (taken as each user's cost at one miss,
/// `f_i(1)`, which equals `w_i` for linear profiles).
pub fn standard_suite(costs: &CostProfile) -> Vec<Box<dyn ReplacementPolicy>> {
    let weights: Vec<f64> = (0..costs.num_users())
        .map(|u| costs.user(occ_sim::UserId(u)).eval(1.0).max(1e-9))
        .collect();
    vec![
        Box::new(Lru::new()),
        Box::new(Fifo::new()),
        Box::new(Lfu::new()),
        Box::new(Marking::new()),
        Box::new(LruK::new(2)),
        Box::new(RandomEvict::new(0xC0FFEE)),
        Box::new(GreedyDual::new(weights)),
        Box::new(CostGreedy::new(costs.clone())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_core::Monomial;
    use occ_sim::{EventLog, Simulator, Trace, Universe};

    #[test]
    fn suite_runs_end_to_end() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..120u32).map(|i| (i * 11 + 2) % 6).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::uniform(2, Monomial::power(2.0));
        let mut names = Vec::new();
        for mut policy in standard_suite(&costs) {
            let r = Simulator::new(3).run(&mut policy, &trace);
            assert!(r.total_misses() >= 6, "{} missed too little", policy.name());
            assert_eq!(r.steps, 120);
            names.push(policy.name());
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8, "policy names must be distinct");
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_for_supported_policies() {
        use occ_sim::{Request, SteppingEngine};

        // Resumed instances get *different* constructor parameters (seed,
        // for the randomized policies) so the test proves the checkpoint
        // itself — including mid-stream RNG words — carries the state.
        type Mk = fn() -> Box<dyn ReplacementPolicy>;
        let policies: Vec<(Mk, Mk)> = vec![
            (|| Box::new(Lru::new()), || Box::new(Lru::new())),
            (|| Box::new(Fifo::new()), || Box::new(Fifo::new())),
            (|| Box::new(Lfu::new()), || Box::new(Lfu::new())),
            (|| Box::new(Marking::new()), || Box::new(Marking::new())),
            (|| Box::new(LruK::new(2)), || Box::new(LruK::new(2))),
            (
                || Box::new(RandomEvict::new(42)),
                || Box::new(RandomEvict::new(999)),
            ),
            (
                || Box::new(RandomizedMarking::new(42)),
                || Box::new(RandomizedMarking::new(999)),
            ),
        ];

        let u = Universe::uniform(3, 5);
        let mut state = 0x1234_5678_9ABCu64;
        let pages: Vec<u32> = (0..400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 15) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let reqs: Vec<Request> = trace.requests().to_vec();
        let k = 6;

        // Cut 0 snapshots a policy that has not been touched yet.
        for (cut, (mk, mk_resumed)) in [0, 173]
            .into_iter()
            .flat_map(|cut| policies.iter().map(move |p| (cut, p)))
        {
            let mut full_policy = mk();
            let name = full_policy.name();

            // Uninterrupted run.
            let mut full =
                SteppingEngine::new(k, u.clone(), &mut full_policy).with_recorder(EventLog::new());
            for &r in &reqs {
                full.step(r);
            }
            let full_stats = full.stats().clone();
            let full_events = full.into_recorder();

            // Run to the cut, snapshot, resume in a fresh engine + policy.
            let mut head_policy = mk();
            let mut head =
                SteppingEngine::new(k, u.clone(), &mut head_policy).with_recorder(EventLog::new());
            for &r in &reqs[..cut] {
                head.step(r);
            }
            let snap = head.snapshot().unwrap_or_else(|e| panic!("{name}: {e}"));
            let head_events = head.into_recorder();

            let mut tail_policy = mk_resumed();
            let mut tail = SteppingEngine::from_snapshot(&snap, &mut tail_policy)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .with_recorder(EventLog::new());
            for &r in &reqs[cut..] {
                tail.step(r);
            }

            let mut stitched: Vec<_> = head_events.iter().cloned().collect();
            stitched.extend(tail.recorder().iter().cloned());
            let full_events: Vec<_> = full_events.iter().cloned().collect();
            assert_eq!(
                stitched, full_events,
                "{name}@{cut}: event streams diverged"
            );
            assert_eq!(tail.stats(), &full_stats, "{name}@{cut}: stats diverged");
        }
    }

    #[test]
    fn suite_policies_are_resettable() {
        let u = Universe::single_user(4);
        let pages: Vec<u32> = (0..60u32).map(|i| (i * 3 + 1) % 4).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        for mut policy in standard_suite(&costs) {
            let a = Simulator::new(2).run(&mut policy, &trace).total_misses();
            policy.reset();
            let b = Simulator::new(2).run(&mut policy, &trace).total_misses();
            assert_eq!(a, b, "{} is not reproducible after reset", policy.name());
        }
    }
}
