//! Multi-tenant trace synthesis: interleave per-tenant streams by
//! arrival rate.
//!
//! This is the substitute for the proprietary SQLVM/Azure SQL buffer-pool
//! traces (see DESIGN.md): each tenant gets its own page set, access
//! pattern, and arrival weight; the mixer draws the next requester
//! proportionally to weight and the requester's pattern picks the page.

use crate::generators::AccessPattern;
use crate::streaming::{collect_trace, TenantMixSource};
use occ_sim::Trace;
use serde::{Deserialize, Serialize};

/// One tenant's workload specification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Number of pages the tenant owns.
    pub pages: u32,
    /// Relative arrival rate (any positive scale).
    pub weight: f64,
    /// Access pattern over the tenant's own pages.
    pub pattern: AccessPattern,
}

impl TenantSpec {
    /// Shorthand constructor.
    pub fn new(pages: u32, weight: f64, pattern: AccessPattern) -> Self {
        assert!(pages > 0 && weight > 0.0);
        TenantSpec {
            pages,
            weight,
            pattern,
        }
    }
}

/// Generate a `len`-request multi-tenant trace from per-tenant specs:
/// [`TenantMixSource`] drained into memory.
///
/// Deterministic in `(specs, len, seed)`.
pub fn generate_multi_tenant(specs: &[TenantSpec], len: usize, seed: u64) -> Trace {
    collect_trace(TenantMixSource::new(specs, len as u64, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(8, 3.0, AccessPattern::Zipf { s: 1.0 }),
            TenantSpec::new(4, 1.0, AccessPattern::Cycle { len: 4 }),
        ]
    }

    #[test]
    fn trace_shape_and_ownership() {
        let t = generate_multi_tenant(&specs(), 1000, 1);
        assert_eq!(t.len(), 1000);
        assert_eq!(t.universe().num_users(), 2);
        assert_eq!(t.universe().num_pages(), 12);
        // Every request's owner is consistent (Trace::new validates).
        for (_, r) in t.iter() {
            if r.page.0 < 8 {
                assert_eq!(r.user.0, 0);
            } else {
                assert_eq!(r.user.0, 1);
            }
        }
    }

    #[test]
    fn arrival_rates_respected() {
        let t = generate_multi_tenant(&specs(), 40_000, 2);
        let counts = t.request_counts_per_user();
        let frac = counts[0] as f64 / t.len() as f64;
        assert!((frac - 0.75).abs() < 0.02, "tenant 0 fraction {frac}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_multi_tenant(&specs(), 500, 7);
        let b = generate_multi_tenant(&specs(), 500, 7);
        assert_eq!(a.requests(), b.requests());
        let c = generate_multi_tenant(&specs(), 500, 8);
        assert_ne!(a.requests(), c.requests());
    }

    #[test]
    fn single_tenant_mixer_matches_pattern() {
        let t = generate_multi_tenant(&[TenantSpec::new(3, 1.0, AccessPattern::Scan)], 6, 0);
        let pages: Vec<u32> = t.requests().iter().map(|r| r.page.0).collect();
        assert_eq!(pages, vec![0, 1, 2, 0, 1, 2]);
    }
}
