//! Zero-materialization request sources: synthetic workloads streamed
//! in O(1) memory.
//!
//! The materializing generators ([`crate::zipf_trace`],
//! [`crate::generate_multi_tenant`], …) drain these sources into a
//! `Vec<Request>`, so trace length there is bounded by memory, while a
//! source's heap footprint ([`state_bytes`](TenantMixSource::state_bytes))
//! is a function of the universe, the sampler tables and its run buffer
//! only, independent of `len`. A 10-million-request run holds a few
//! kilobytes, not a trace.
//!
//! A [`TenantMixSource`] fills one reused run buffer in three passes:
//! the run's tenant sequence from the mixer RNG, then each tenant's
//! pages in one [`PatternGen::fill`] call, then the pages scattered into
//! the run in tenant-sequence order. Tenant `t`'s `j`-th request takes
//! tenant `t`'s `j`-th page however the stream is cut into runs, and
//! every RNG is drawn in the order a request-at-a-time mixer draws it,
//! so the stream does not depend on run sizes. `next_run`,
//! `next_request` and `seek_forward` all hand out that buffer through
//! one cursor, and interleave freely without changing the stream.
//! `next_run` is how
//! [`SteppingEngine::serve_from`](occ_sim::SteppingEngine::serve_from)
//! takes these sources, a borrowed run per batch.

use crate::generators::{AccessPattern, PatternGen};
use crate::mixer::TenantSpec;
use occ_sim::{EngineCtx, PageId, Request, RequestSource, SeekableSource, Trace, Universe, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drain `source` into a [`Trace`] over its universe, a run at a time.
pub(crate) fn collect_trace<S: RequestSource>(mut source: S) -> Trace {
    let mut requests = Vec::new();
    while let Some(run) = source.next_run(occ_sim::DEFAULT_BATCH_SIZE) {
        requests.extend_from_slice(run);
    }
    Trace::new(source.universe().clone(), requests)
}

/// A single-user source: `pattern` over `num_pages` pages, `len`
/// requests. It is a one-tenant mixer whose tenant draws from `seed`
/// itself; the mixer's tenant draw always picks that tenant, so the
/// stream is the pattern's own.
pub struct PatternSource(TenantMixSource);

impl PatternSource {
    /// A `len`-request single-user source.
    pub fn new(pattern: AccessPattern, num_pages: u32, len: u64, seed: u64) -> Self {
        let tenant = TenantSpec::new(num_pages, 1.0, pattern);
        PatternSource(TenantMixSource::seeded(&[tenant], len, seed, |_| seed))
    }

    /// Requests left to produce.
    pub fn remaining(&self) -> u64 {
        self.0.remaining()
    }

    /// Heap footprint in bytes; see [`TenantMixSource::state_bytes`].
    pub fn state_bytes(&self) -> usize {
        self.0.state_bytes()
    }
}

impl RequestSource for PatternSource {
    fn universe(&self) -> &Universe {
        &self.0.universe
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        self.0.next_request(ctx)
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        self.0.next_run(max)
    }
}

impl SeekableSource for PatternSource {
    fn seek_forward(&mut self, n: u64) {
        self.0.seek_forward(n)
    }
}

/// A multi-tenant source: tenants drawn by arrival weight, each
/// tenant's page from its own pattern.
pub struct TenantMixSource {
    universe: Universe,
    /// Page-id offset of each tenant's first page.
    offsets: Vec<u32>,
    gens: Vec<PatternGen>,
    /// Cumulative normalized arrival weights.
    cum: Vec<f64>,
    rng: StdRng,
    /// Requests not yet filled into `run`.
    unfilled: u64,
    /// The filled run buffer; `run[pos..]` is not yet handed out.
    run: Vec<Request>,
    pos: usize,
    /// [`fill`](Self::fill) scratch: the pages it draws, grouped by
    /// tenant.
    pages: Vec<u32>,
    /// [`fill`](Self::fill) scratch: each tenant's request count, then
    /// its cursor into `pages`.
    next: Vec<usize>,
}

impl TenantMixSource {
    /// A `len`-request multi-tenant source. Deterministic in
    /// `(specs, len, seed)`; panics if `specs` is empty.
    pub fn new(specs: &[TenantSpec], len: u64, seed: u64) -> Self {
        Self::seeded(specs, len, seed, |i| seed ^ (0x9E37 + i as u64 * 0x79B9))
    }

    /// [`new`](Self::new), with tenant `i`'s generator seeded by
    /// `tenant_seed(i)`.
    fn seeded(
        specs: &[TenantSpec],
        len: u64,
        seed: u64,
        tenant_seed: impl Fn(usize) -> u64,
    ) -> Self {
        assert!(!specs.is_empty(), "need at least one tenant");
        let universe = Universe::with_sizes(&specs.iter().map(|s| s.pages).collect::<Vec<_>>());
        let offsets: Vec<u32> = specs
            .iter()
            .scan(0, |next, s| Some(std::mem::replace(next, *next + s.pages)))
            .collect();
        debug_assert!(
            (0..universe.num_pages()).all(|p| {
                let owner = universe.owner(PageId(p)).0 as usize;
                (offsets[owner]..offsets[owner] + specs[owner].pages).contains(&p)
            }),
            "tenant i owns its offset range"
        );
        let gens = specs
            .iter()
            .enumerate()
            .map(|(i, s)| PatternGen::new(s.pattern.clone(), s.pages, tenant_seed(i)))
            .collect();
        let total_w: f64 = specs.iter().map(|s| s.weight).sum();
        let cum = specs
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
            unfilled: len,
            run: Vec::new(),
            pos: 0,
            pages: Vec::new(),
            next: vec![0; specs.len()],
        }
    }

    /// Requests left to hand out.
    pub fn remaining(&self) -> u64 {
        self.unfilled + (self.run.len() - self.pos) as u64
    }

    /// Heap footprint in bytes: owner table, per-tenant generator
    /// tables, offsets, weights, and the run buffer and its scratch,
    /// which grow to the largest run filled. Independent of `len`.
    pub fn state_bytes(&self) -> usize {
        self.universe.num_pages() as usize * std::mem::size_of::<UserId>()
            + self.offsets.len() * 4
            + self.cum.len() * 8
            + self.gens.iter().map(|g| g.state_bytes()).sum::<usize>()
            + self.run.capacity() * std::mem::size_of::<Request>()
            + self.pages.capacity() * 4
            + self.next.len() * std::mem::size_of::<usize>()
    }

    /// Append the next `n` requests to the run buffer, in three passes.
    /// Each request draws its tenant by arrival weight from the mixer
    /// RNG, then its page from that tenant's generator; the owner is
    /// the tenant drawn.
    fn fill(&mut self, n: usize) {
        debug_assert!(n as u64 <= self.unfilled);
        self.unfilled -= n as u64;
        // 1. The tenant sequence, in request order, into the new
        //    requests' owners; `next` counts each tenant's share.
        let base = self.run.len();
        let last = self.cum.len() - 1;
        self.next.fill(0);
        for _ in 0..n {
            let u: f64 = self.rng.gen();
            let tenant = self.cum.partition_point(|&c| c < u).min(last);
            self.next[tenant] += 1;
            self.run.push(Request {
                page: PageId(0),
                user: UserId(tenant as u32),
            });
        }
        // 2. Each tenant's pages in one call, tenant after tenant; `next`
        //    turns into each tenant's cursor into `pages`.
        self.pages.resize(n, 0);
        let mut start = 0;
        for ((gen, &offset), next) in self.gens.iter_mut().zip(&self.offsets).zip(&mut self.next) {
            let count = std::mem::replace(next, start);
            gen.fill(offset, &mut self.pages[start..start + count]);
            start += count;
        }
        // 3. Scatter: each request takes its tenant's next page.
        for r in &mut self.run[base..] {
            let at = &mut self.next[r.user.0 as usize];
            r.page = PageId(self.pages[*at]);
            *at += 1;
        }
    }
}

impl RequestSource for TenantMixSource {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Hand out the buffer's next request, filling a
    /// [`DEFAULT_BATCH_SIZE`](occ_sim::DEFAULT_BATCH_SIZE) run first if
    /// it is spent.
    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        if self.pos == self.run.len() {
            if self.unfilled == 0 {
                return None;
            }
            self.run.clear();
            self.pos = 0;
            self.fill(self.unfilled.min(occ_sim::DEFAULT_BATCH_SIZE as u64) as usize);
        }
        self.pos += 1;
        Some(self.run[self.pos - 1])
    }

    /// Hand out the next `min(max, remaining)` requests: those already
    /// filled first, moved to the front of the buffer, then a fill of
    /// the rest behind them.
    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        let n = self.remaining().min(max as u64) as usize;
        if n == 0 {
            return None;
        }
        let filled = self.run.len() - self.pos;
        if filled < n {
            self.run.drain(..self.pos);
            self.pos = 0;
            self.fill(n - filled);
        }
        self.pos += n;
        Some(&self.run[self.pos - n..self.pos])
    }
}

impl SeekableSource for TenantMixSource {
    /// Hand out and discard the next `n` requests, advancing the mixer
    /// RNG and the chosen tenants' generators exactly as `n` calls to
    /// `next_request` would.
    fn seek_forward(&mut self, n: u64) {
        let mut left = n.min(self.remaining());
        while left > 0 {
            let run = self.next_run(left.min(occ_sim::DEFAULT_BATCH_SIZE as u64) as usize);
            left -= run.expect("requests remain").len() as u64;
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
            TenantSpec::new(6, 2.0, AccessPattern::Zipf { s: 0.8 }),
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

        let short = PatternSource::new(AccessPattern::Zipf { s: 1.0 }, 128, 10, 1);
        let long = PatternSource::new(AccessPattern::Zipf { s: 1.0 }, 128, u64::MAX, 1);
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
