#![warn(missing_docs)]
//! Synthetic workloads for the convex-cost caching experiments.
//!
//! * [`generators`] — per-tenant access patterns (uniform, Zipf, cycle,
//!   scan, hot-set, phased drift);
//! * [`mixer`] — multi-tenant interleaving by arrival rate (the stand-in
//!   for proprietary SQLVM buffer-pool traces, see DESIGN.md);
//! * [`adversary`] — the §4 adaptive missing-page adversary behind
//!   Theorem 1.4's lower bound;
//! * [`presets`] — ready-made SLA scenarios used by the examples and the
//!   E7 experiment;
//! * [`zipf`] — the hand-rolled Zipf sampler (CDF binary search);
//! * [`chaos`] — seeded fault injection ([`FaultPlan`], [`ChaosSource`])
//!   for robustness testing against corrupt request streams;
//! * [`streaming`] — zero-materialization [`RequestSource`]s behind the
//!   trace generators, for workloads too long to hold in memory.
//!
//! [`RequestSource`]: occ_sim::RequestSource

pub mod adapters;
pub mod adversary;
pub mod chaos;
pub mod generators;
pub mod mixer;
pub mod presets;
pub mod streaming;
pub mod zipf;

pub use adapters::{sniff_flavor, CsvAdapter, CsvFlavor, KeyDict, MSR_BLOCK_BYTES};
pub use adversary::{run_lower_bound, LowerBoundAdversary};
pub use chaos::{ChaosSource, FaultPlan, InjectedFaults};
pub use generators::{AccessPattern, PatternGen};
pub use mixer::{generate_multi_tenant, TenantSpec};
pub use presets::{all_scenarios, drifting, sqlvm_like, two_tier, Scenario};
pub use streaming::{PatternSource, TenantMixSource};
pub use zipf::Zipf;

use occ_sim::{Trace, Universe};
use streaming::collect_trace;

/// The classical single-user `(k+1)`-page cycle — the adversarial pattern
/// on which LRU/FIFO pay every request while OPT pays one per `k`.
pub fn cycle_trace(num_pages: u32, len: usize) -> Trace {
    let u = Universe::single_user(num_pages);
    let pages: Vec<u32> = (0..len).map(|i| i as u32 % num_pages).collect();
    Trace::from_page_indices(&u, &pages)
}

/// A seeded uniform-random single-user trace.
pub fn uniform_trace(num_pages: u32, len: usize, seed: u64) -> Trace {
    let uniform = PatternSource::new(AccessPattern::Uniform, num_pages, len as u64, seed);
    collect_trace(uniform)
}

/// A seeded Zipf single-user trace.
pub fn zipf_trace(num_pages: u32, len: usize, s: f64, seed: u64) -> Trace {
    let zipf = PatternSource::new(AccessPattern::Zipf { s }, num_pages, len as u64, seed);
    collect_trace(zipf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_trace_shape() {
        let t = cycle_trace(4, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.at(4).page.0, 0);
        assert_eq!(t.universe().num_users(), 1);
    }

    #[test]
    fn uniform_and_zipf_traces_cover_universe() {
        let t = uniform_trace(6, 600, 1);
        let distinct = t.distinct_pages_through(599);
        assert_eq!(distinct, 6);
        let z = zipf_trace(6, 600, 1.0, 1);
        assert!(z.distinct_pages_through(599) >= 4);
    }
}
