//! Cross-crate integration tests: workloads → engine → algorithms →
//! offline references → theory checks, exercised together the way the
//! conformance harness uses them.

use occ_analysis::{
    check_theorem_1_1_scaled, check_theorem_1_3_scaled, compare_policies, evaluate_policy,
};
use occ_baselines::{standard_suite, Lru};
use occ_core::{ConvexCaching, CostProfile, Monomial};
use occ_offline::{batch_offline, belady_miss_vector, best_offline_heuristic};
use occ_sim::{ReplacementPolicy, Simulator};
use occ_workloads::{
    all_scenarios, cycle_trace, run_lower_bound, sqlvm_like, two_tier, zipf_trace,
};

#[test]
fn theorem_1_1_holds_on_single_user_workloads() {
    // Single user ⇒ Belady is the exact offline optimum.
    for beta in [1.0, 2.0, 3.0] {
        for k in [4usize, 8, 16] {
            for trace in [
                cycle_trace(k as u32 + 1, 5_000),
                zipf_trace(3 * k as u32, 5_000, 0.9, 5),
            ] {
                let costs = CostProfile::uniform(1, Monomial::power(beta));
                let mut alg = ConvexCaching::new(costs.clone());
                let a = Simulator::new(k).run(&mut alg, &trace).miss_vector();
                let b = belady_miss_vector(&trace, k);
                let check = check_theorem_1_1_scaled(&costs, &a, &b, beta, k, 1.0);
                assert!(
                    check.satisfied,
                    "Theorem 1.1 violated at beta={beta}, k={k}: online {} > rhs {}",
                    check.online_cost, check.rhs
                );
            }
        }
    }
}

#[test]
fn theorem_1_3_holds_for_all_h() {
    let k = 10usize;
    let beta = 2.0;
    let trace = cycle_trace(k as u32 + 1, 8_000);
    let costs = CostProfile::uniform(1, Monomial::power(beta));
    let mut alg = ConvexCaching::new(costs.clone());
    let a = Simulator::new(k).run(&mut alg, &trace).miss_vector();
    for h in 1..=k {
        let b = belady_miss_vector(&trace, h);
        let check = check_theorem_1_3_scaled(&costs, &a, &b, beta, k, h, 1.0);
        assert!(check.satisfied, "Theorem 1.3 violated at h={h}");
    }
}

#[test]
fn lower_bound_ratio_grows_with_n() {
    let beta = 2.0;
    let mut prev_ratio = 0.0;
    for n in [5u32, 9, 17] {
        let t = (n as u64).pow(2) * 6;
        let costs = CostProfile::uniform(n, Monomial::power(beta));
        let mut alg = ConvexCaching::new(costs.clone());
        let (online, trace) = run_lower_bound(&mut alg, n, t);
        let offline = batch_offline(&trace, (n - 1) as usize);
        let ratio = costs.total_cost(&online.miss_vector()) / costs.total_cost(&offline.misses);
        assert!(
            ratio > prev_ratio,
            "ratio must grow with n: {ratio} after {prev_ratio}"
        );
        prev_ratio = ratio;
    }
    // At n = 17, k = 16: the ratio has left any small-constant regime.
    assert!(prev_ratio > 10.0);
}

#[test]
fn cost_awareness_beats_cost_blind_on_two_tier() {
    let s = two_tier();
    let trace = s.trace(30_000, 9);
    let mut ours = ConvexCaching::new(s.costs.clone());
    let ours_report = evaluate_policy(&mut ours, &trace, s.suggested_k, &s.costs);
    let mut lru = Lru::new();
    let lru_report = evaluate_policy(&mut lru, &trace, s.suggested_k, &s.costs);
    assert!(
        ours_report.cost * 2.0 < lru_report.cost,
        "expected ≥2x improvement: ours {} vs lru {}",
        ours_report.cost,
        lru_report.cost
    );
}

#[test]
fn every_scenario_runs_the_full_suite() {
    for s in all_scenarios() {
        let trace = s.trace(5_000, 3);
        let mut suite = standard_suite(&s.costs);
        let reports = compare_policies(&mut suite, &trace, s.suggested_k, &s.costs);
        assert_eq!(reports.len(), 8);
        for r in &reports {
            assert_eq!(r.steps, 5_000, "{}: wrong step count", r.name);
            assert!(r.cost.is_finite());
        }
    }
}

#[test]
fn offline_heuristic_never_beats_online_impossibly() {
    // best_offline_heuristic is a valid schedule: its cost must be within
    // the theorem bound of the online cost in the *other* direction —
    // i.e. online ≥ nothing, but offline ≤ online is NOT guaranteed
    // pointwise... what must hold: offline heuristic cost ≤ cost of the
    // online schedule itself (the online run is also a valid offline
    // schedule, and Belady minimizes aggregate misses among schedules).
    let s = sqlvm_like();
    let trace = s.trace(10_000, 21);
    let k = s.suggested_k;
    let (heur_cost, _) = best_offline_heuristic(&trace, k, &s.costs);
    let mut ours = ConvexCaching::new(s.costs.clone());
    let online = Simulator::new(k).run(&mut ours, &trace);
    let online_blind_misses: u64 = online.miss_vector().iter().sum();
    let belady_misses: u64 = belady_miss_vector(&trace, k).iter().sum();
    assert!(
        belady_misses <= online_blind_misses,
        "MIN minimizes aggregate misses over every schedule"
    );
    assert!(heur_cost.is_finite() && heur_cost > 0.0);
}

#[test]
fn policies_are_deterministic_across_runs() {
    let s = two_tier();
    let trace = s.trace(4_000, 13);
    for mut policy in standard_suite(&s.costs) {
        let a = {
            policy.reset();
            Simulator::new(16).run(&mut policy, &trace).miss_vector()
        };
        policy.reset();
        let b = Simulator::new(16).run(&mut policy, &trace).miss_vector();
        assert_eq!(a, b, "{} not deterministic", policy.name());
    }
}
