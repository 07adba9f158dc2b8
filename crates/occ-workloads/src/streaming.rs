//! Zero-materialization request sources: synthetic workloads streamed
//! one request at a time in O(1) memory.
//!
//! The materializing generators ([`crate::zipf_trace`],
//! [`crate::generate_multi_tenant`], …) build a `Vec<Request>` up front,
//! so trace length is bounded by memory. The sources here are their
//! streaming twins: the same RNGs seeded the same way drawing in the
//! same order, so for a given `(spec, len, seed)` the streamed requests
//! are **byte-identical** to the materialized trace — pinned by tests —
//! while the source's heap footprint ([`state_bytes`](PatternSource::state_bytes))
//! is a function of the universe and sampler tables only, independent of
//! `len`. A 10-million-request run holds a few kilobytes, not a
//! trace.
//!
//! Pair them with
//! [`Simulator::run_source_batched`](occ_sim::Simulator::run_source_batched)
//! (or a [`SteppingEngine`](occ_sim::SteppingEngine) loop) to keep the
//! whole replay allocation-free per request.

use crate::generators::{AccessPattern, PatternGen};
use crate::mixer::TenantSpec;
use occ_sim::{EngineCtx, PageId, Request, RequestSource, SeekableSource, Universe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Streaming twin of the single-user trace helpers: `pattern` over
/// `num_pages` pages, `len` requests, drawn exactly as
/// [`crate::zipf_trace`] / [`crate::uniform_trace`] would.
pub struct PatternSource {
    universe: Universe,
    gen: PatternGen,
    remaining: u64,
}

impl PatternSource {
    /// A `len`-request single-user source.
    pub fn new(pattern: AccessPattern, num_pages: u32, len: u64, seed: u64) -> Self {
        PatternSource {
            universe: Universe::single_user(num_pages),
            gen: PatternGen::new(pattern, num_pages, seed),
            remaining: len,
        }
    }

    /// Requests left to produce.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Heap footprint in bytes: owner table + sampler tables. Constant
    /// over the source's lifetime and independent of `len`.
    pub fn state_bytes(&self) -> usize {
        self.universe.num_pages() as usize * std::mem::size_of::<occ_sim::UserId>()
            + self.gen.state_bytes()
    }
}

impl RequestSource for PatternSource {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.universe.request(PageId(self.gen.next_page())))
    }
}

impl SeekableSource for PatternSource {
    /// Draw and discard the next `n` requests, advancing the RNG state
    /// exactly as `n` calls to `next_request` would.
    fn seek_forward(&mut self, n: u64) {
        for _ in 0..n.min(self.remaining) {
            self.remaining -= 1;
            self.gen.next_page();
        }
    }
}

/// Streaming twin of [`crate::generate_multi_tenant`]: the same mixer
/// RNG, the same per-tenant generator seeds, the same draw order — so
/// the emitted stream is byte-identical to the materialized trace for
/// the same `(specs, len, seed)`.
pub struct TenantMixSource {
    universe: Universe,
    /// Page-id offset of each tenant's first page.
    offsets: Vec<u32>,
    gens: Vec<PatternGen>,
    /// Cumulative normalized arrival weights.
    cum: Vec<f64>,
    rng: StdRng,
    remaining: u64,
}

impl TenantMixSource {
    /// A `len`-request multi-tenant source. Deterministic in
    /// `(specs, len, seed)`; panics if `specs` is empty (matching
    /// [`crate::generate_multi_tenant`]).
    pub fn new(specs: &[TenantSpec], len: u64, seed: u64) -> Self {
        assert!(!specs.is_empty(), "need at least one tenant");
        let universe = Universe::with_sizes(&specs.iter().map(|s| s.pages).collect::<Vec<_>>());
        let mut offsets = Vec::with_capacity(specs.len());
        let mut acc = 0u32;
        for s in specs {
            offsets.push(acc);
            acc += s.pages;
        }
        let gens: Vec<PatternGen> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                PatternGen::new(
                    s.pattern.clone(),
                    s.pages,
                    seed ^ (0x9E37 + i as u64 * 0x79B9),
                )
            })
            .collect();
        let total_w: f64 = specs.iter().map(|s| s.weight).sum();
        let cum: Vec<f64> = specs
            .iter()
            .scan(0.0, |a, s| {
                *a += s.weight / total_w;
                Some(*a)
            })
            .collect();
        TenantMixSource {
            universe,
            offsets,
            gens,
            cum,
            rng: StdRng::seed_from_u64(seed),
            remaining: len,
        }
    }

    /// Requests left to produce.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Heap footprint in bytes: owner table, per-tenant generator
    /// tables, offsets and weights. Constant over the source's lifetime
    /// and independent of `len`.
    pub fn state_bytes(&self) -> usize {
        self.universe.num_pages() as usize * std::mem::size_of::<occ_sim::UserId>()
            + self.offsets.len() * 4
            + self.cum.len() * 8
            + self.gens.iter().map(|g| g.state_bytes()).sum::<usize>()
    }

    /// One mixed draw: pick a tenant by arrival weight, then its next
    /// page. Shared by `next_request` and `seek_forward` so the two
    /// advance the RNG state identically.
    fn draw(&mut self) -> PageId {
        let u: f64 = self.rng.gen();
        let tenant = self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1);
        let local = self.gens[tenant].next_page();
        PageId(self.offsets[tenant] + local)
    }
}

impl RequestSource for TenantMixSource {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let page = self.draw();
        Some(self.universe.request(page))
    }
}

impl SeekableSource for TenantMixSource {
    /// Draw and discard the next `n` requests, advancing the mixer RNG
    /// and the chosen tenants' generators exactly as `n` calls to
    /// `next_request` would.
    fn seek_forward(&mut self, n: u64) {
        for _ in 0..n.min(self.remaining) {
            self.remaining -= 1;
            self.draw();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixer::generate_multi_tenant;
    use crate::{uniform_trace, zipf_trace};
    use occ_sim::{CacheSet, SimStats};

    fn drain<S: RequestSource>(src: &mut S) -> Vec<Request> {
        let universe = src.universe().clone();
        let cache = CacheSet::new(1, universe.num_pages());
        let stats = SimStats::new(universe.num_users());
        let ctx = EngineCtx {
            time: 0,
            cache: &cache,
            stats: &stats,
            universe: &universe,
        };
        let mut out = Vec::new();
        while let Some(r) = src.next_request(&ctx) {
            out.push(r);
        }
        out
    }

    #[test]
    fn pattern_source_matches_materialized_helpers() {
        let mut z = PatternSource::new(AccessPattern::Zipf { s: 0.9 }, 32, 500, 7);
        assert_eq!(drain(&mut z), zipf_trace(32, 500, 0.9, 7).requests());

        let mut u = PatternSource::new(AccessPattern::Uniform, 16, 300, 3);
        assert_eq!(drain(&mut u), uniform_trace(16, 300, 3).requests());
    }

    #[test]
    fn tenant_mix_source_matches_materialized_mixer() {
        let specs = vec![
            TenantSpec::new(8, 3.0, AccessPattern::Zipf { s: 1.0 }),
            TenantSpec::new(4, 1.0, AccessPattern::Cycle { len: 4 }),
            TenantSpec::new(6, 2.0, AccessPattern::ZipfAliased { s: 0.8 }),
        ];
        let mut src = TenantMixSource::new(&specs, 2000, 11);
        let trace = generate_multi_tenant(&specs, 2000, 11);
        assert_eq!(src.universe(), trace.universe());
        assert_eq!(drain(&mut src), trace.requests());
    }

    #[test]
    fn state_bytes_is_independent_of_length() {
        let specs = vec![
            TenantSpec::new(64, 4.0, AccessPattern::Zipf { s: 0.9 }),
            TenantSpec::new(32, 1.0, AccessPattern::Uniform),
        ];
        let short = TenantMixSource::new(&specs, 100, 5);
        let long = TenantMixSource::new(&specs, 10_000_000, 5);
        assert_eq!(short.state_bytes(), long.state_bytes());
        assert!(long.state_bytes() > 0);

        let short = PatternSource::new(AccessPattern::ZipfAliased { s: 1.0 }, 128, 10, 1);
        let long = PatternSource::new(AccessPattern::ZipfAliased { s: 1.0 }, 128, u64::MAX, 1);
        assert_eq!(short.state_bytes(), long.state_bytes());
    }

    #[test]
    fn skip_matches_draw_and_discard() {
        let specs = vec![
            TenantSpec::new(16, 2.0, AccessPattern::Zipf { s: 1.0 }),
            TenantSpec::new(8, 1.0, AccessPattern::Uniform),
        ];
        let mut whole = TenantMixSource::new(&specs, 1000, 42);
        let full = drain(&mut whole);

        let mut skipped = TenantMixSource::new(&specs, 1000, 42);
        skipped.seek_forward(400);
        assert_eq!(skipped.remaining(), 600);
        assert_eq!(drain(&mut skipped), full[400..]);

        // Skipping past the end just runs the source dry.
        let mut over = TenantMixSource::new(&specs, 100, 42);
        over.seek_forward(1_000_000);
        assert_eq!(over.remaining(), 0);

        let mut p_whole = PatternSource::new(AccessPattern::Zipf { s: 0.9 }, 32, 500, 7);
        let p_full = drain(&mut p_whole);
        let mut p_skip = PatternSource::new(AccessPattern::Zipf { s: 0.9 }, 32, 500, 7);
        p_skip.seek_forward(123);
        assert_eq!(drain(&mut p_skip), p_full[123..]);
    }

    #[test]
    fn sources_run_dry_exactly_once() {
        let mut s = PatternSource::new(AccessPattern::Scan, 4, 3, 0);
        assert_eq!(s.remaining(), 3);
        let got = drain(&mut s);
        assert_eq!(got.len(), 3);
        assert_eq!(s.remaining(), 0);
        assert!(drain(&mut s).is_empty());
    }
}
