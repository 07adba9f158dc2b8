//! E8 — ablations of the design choices DESIGN.md calls out.
//!
//! 1. Tie-breaking rule (Figure 2's unspecified "first page"): all three
//!    deterministic rules satisfy the bound; costs differ only slightly.
//! 2. Marginals: analytic derivative `f'(m+1)` vs discrete `Δf(m)`
//!    (§2.5) — near-identical on smooth costs, required for
//!    discontinuous ones. `ConvexCaching` takes convex costs only, so
//!    the discontinuous rows run the literal Figure 3
//!    (`DiscreteReference`), which decides the same way.
//! 3. Accounting: fetch-counted vs eviction-counted (flush) cost — equal
//!    up to the additive cache-size term, per §2.1's dummy-user argument.

use occ_analysis::{fnum, Table};
use occ_bench::{finish, Reporter};
use occ_core::{
    ConvexCaching, CostFn, CostProfile, DiscreteReference, Linear, Marginals, Monomial,
    PiecewiseLinear, ThresholdCost, TieBreak,
};
use occ_sim::{Simulator, Trace};
use occ_workloads::{generate_multi_tenant, AccessPattern, TenantSpec};
use std::sync::Arc;

fn workload() -> (Trace, CostProfile) {
    let trace = generate_multi_tenant(
        &[
            TenantSpec::new(24, 2.0, AccessPattern::Zipf { s: 0.9 }),
            TenantSpec::new(24, 1.0, AccessPattern::Cycle { len: 18 }),
            TenantSpec::new(16, 1.0, AccessPattern::Uniform),
        ],
        40_000,
        77,
    );
    let costs = CostProfile::new(vec![
        Arc::new(Monomial::power(2.0)) as CostFn,
        Arc::new(PiecewiseLinear::sla(60.0, 1.0, 12.0)) as CostFn,
        Arc::new(Linear::new(2.0)) as CostFn,
    ]);
    (trace, costs)
}

fn main() {
    let r = Reporter::from_args();
    let mut all_ok = true;
    let k = 16usize;
    let (trace, costs) = workload();

    // ---- 1. tie-breaking ----
    r.section("E8.1 — tie-breaking rule");
    let mut t = Table::new(vec!["tie-break", "total cost", "misses", "evictions"]);
    let mut costs_by_tb = Vec::new();
    for tb in TieBreak::ALL {
        let mut alg = ConvexCaching::new(costs.clone()).with_tiebreak(tb);
        let res = Simulator::new(k).run(&mut alg, &trace);
        let c = costs.total_cost(&res.miss_vector());
        costs_by_tb.push(c);
        t.row(vec![
            tb.label().to_string(),
            fnum(c),
            res.total_misses().to_string(),
            res.stats.total_evictions().to_string(),
        ]);
    }
    r.table("e8_tiebreak", &t);
    let spread =
        occ_analysis::max(&costs_by_tb) / costs_by_tb.iter().copied().fold(f64::INFINITY, f64::min);
    r.note(&format!(
        "cost spread across tie-breaks: {:.3}x (ties are rare off the \
         uniform-linear case, so the rule barely matters)",
        spread
    ));
    if spread > 1.25 {
        println!("!! tie-break spread unexpectedly large");
        all_ok = false;
    }

    // ---- 2. marginals mode ----
    r.section("E8.2 — derivative vs discrete marginals (§2.5)");
    let mut t = Table::new(vec!["costs", "marginals", "total cost", "misses"]);
    let profiles: Vec<(&str, CostProfile)> = vec![
        ("smooth (x^2/sla/lin)", costs.clone()),
        (
            "discontinuous (threshold)",
            CostProfile::new(vec![
                Arc::new(ThresholdCost::new(1.0, 50, 500.0)) as CostFn,
                Arc::new(ThresholdCost::new(1.0, 200, 100.0)) as CostFn,
                Arc::new(Linear::new(1.0)) as CostFn,
            ]),
        ),
    ];
    for (name, profile) in &profiles {
        for mode in [Marginals::Derivative, Marginals::Discrete] {
            let sim = Simulator::new(k);
            let res = if profile.all_convex() {
                sim.run(
                    &mut ConvexCaching::new(profile.clone()).with_marginals(mode),
                    &trace,
                )
            } else {
                sim.run(
                    &mut DiscreteReference::new(profile.clone()).with_marginals(mode),
                    &trace,
                )
            };
            let c = profile.total_cost(&res.miss_vector());
            t.row(vec![
                name.to_string(),
                format!("{mode:?}"),
                fnum(c),
                res.total_misses().to_string(),
            ]);
        }
    }
    r.table("e8_marginals", &t);
    r.note(
        "for the discontinuous profile only the discrete mode 'sees' the \
         jump (the derivative is blind to it), which is §2.5's point.",
    );

    // ---- 3. accounting: fetches vs evictions-with-flush ----
    r.section("E8.3 — fetch-counted vs eviction-counted (flush) accounting");
    let mut t = Table::new(vec!["accounting", "per-user counts", "total cost"]);
    use occ_sim::ReplacementPolicy;
    let mut alg = ConvexCaching::new(costs.clone());
    let plain = Simulator::new(k).run(&mut alg, &trace);
    ReplacementPolicy::reset(&mut alg);
    let flushed = Simulator::new(k).flush_at_end(true).run(&mut alg, &trace);
    let fetch_cost = costs.total_cost(&plain.miss_vector());
    let evict_cost = costs.total_cost(&flushed.stats.eviction_vector());
    t.row(vec![
        "fetches (misses)".to_string(),
        format!("{:?}", plain.miss_vector()),
        fnum(fetch_cost),
    ]);
    t.row(vec![
        "evictions + flush".to_string(),
        format!("{:?}", flushed.stats.eviction_vector()),
        fnum(evict_cost),
    ]);
    r.table("e8_accounting", &t);
    // §2.1: with the flush, per-user evictions equal per-user misses.
    if plain.miss_vector() != flushed.stats.eviction_vector() {
        println!("!! flush accounting identity violated");
        all_ok = false;
    }
    if (fetch_cost - evict_cost).abs() > 1e-9 {
        println!("!! accounting costs diverge");
        all_ok = false;
    }

    finish("exp_ablations", all_ok);
}
