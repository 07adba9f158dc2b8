//! Fault injection for robustness testing.
//!
//! A [`FaultPlan`] is a seeded recipe for corrupting a request stream:
//! each record independently gets an out-of-range page id or a wrong
//! claimed owner with configurable probability, and the stream can be
//! truncated early (the "process died mid-trace" shape). [`ChaosSource`]
//! applies a plan on the fly to any [`RequestSource`];
//! [`FaultPlan::corrupt_trace`] applies it to a fixed [`Trace`] up front,
//! returning raw records for the checked engine paths (the corrupt
//! records cannot live in a `Trace`, which validates its universe).
//!
//! The same seed always produces the same corruption, so chaos runs are
//! reproducible and their fault counts can be asserted exactly.

use occ_sim::engine::EngineCtx;
use occ_sim::source::RequestSource;
use occ_sim::trace::{Request, Trace, Universe};
use occ_sim::{PageId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded recipe for injecting faults into a request stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the corruption RNG.
    pub seed: u64,
    /// Probability that a record's page id is rewritten to one outside
    /// the universe.
    pub page_rate: f64,
    /// Probability that a record's claimed owner is rewritten to disagree
    /// with the universe's owner table (only checked when the page was
    /// left intact).
    pub owner_rate: f64,
    /// Cut the stream off after this many records, if set.
    pub truncate_at: Option<usize>,
}

impl FaultPlan {
    /// A plan that injects nothing (passthrough).
    pub fn clean() -> Self {
        FaultPlan {
            seed: 0,
            page_rate: 0.0,
            owner_rate: 0.0,
            truncate_at: None,
        }
    }

    /// A plan seeded with `seed` and no faults yet; combine with the
    /// `with_*` builders.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::clean()
        }
    }

    /// Set the out-of-range-page injection probability.
    pub fn with_page_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "page rate out of range: {rate}"
        );
        self.page_rate = rate;
        self
    }

    /// Set the wrong-owner injection probability.
    pub fn with_owner_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "owner rate out of range: {rate}"
        );
        self.owner_rate = rate;
        self
    }

    /// Truncate the stream after `n` records.
    pub fn with_truncate_at(mut self, n: usize) -> Self {
        self.truncate_at = Some(n);
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.page_rate == 0.0 && self.owner_rate == 0.0 && self.truncate_at.is_none()
    }

    /// Corrupt a fixed trace, returning the raw (possibly invalid)
    /// records and a tally of what was injected. Feed the records through
    /// the checked engine paths; the plain ones would panic.
    pub fn corrupt_trace(&self, trace: &Trace) -> (Vec<Request>, InjectedFaults) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut injected = InjectedFaults::default();
        let universe = trace.universe();
        let take = self.truncate_at.unwrap_or(usize::MAX);
        if trace.len() > take {
            injected.truncated = true;
        }
        let records = trace
            .requests()
            .iter()
            .take(take)
            .map(|&r| corrupt_record(r, universe, self, &mut rng, &mut injected))
            .collect();
        (records, injected)
    }
}

/// Tally of faults a plan actually injected into a stream (as opposed to
/// the *rates* it was configured with). Tests and reports compare this
/// against the engine's detected [`FaultCounters`].
///
/// [`FaultCounters`]: occ_sim::FaultCounters
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Records whose page id was rewritten out of range.
    pub pages: u64,
    /// Records whose claimed owner was rewritten.
    pub owners: u64,
    /// Whether the stream was cut short.
    pub truncated: bool,
}

impl InjectedFaults {
    /// Total corrupted records.
    pub fn total(&self) -> u64 {
        self.pages.saturating_add(self.owners)
    }
}

/// Corrupt one record per the plan. Each record draws at most two
/// Bernoulli trials in a fixed order, so a given seed yields the same
/// corruption regardless of how the records are produced.
fn corrupt_record(
    mut r: Request,
    universe: &Universe,
    plan: &FaultPlan,
    rng: &mut StdRng,
    injected: &mut InjectedFaults,
) -> Request {
    if plan.page_rate > 0.0 && rng.gen_bool(plan.page_rate) {
        // Out-of-range page: offset past the universe, small enough that
        // the id still prints readably in fault lines.
        r.page = PageId(universe.num_pages() + rng.gen_range(0u32..16) + 1);
        injected.pages += 1;
    } else if plan.owner_rate > 0.0 && rng.gen_bool(plan.owner_rate) {
        // Claimed owner disagrees with the owner table. With one user the
        // only wrong claim is an out-of-range id; with more, rotate to a
        // different real user (exercises quarantine of real tenants).
        let n = universe.num_users();
        r.user = if n <= 1 {
            UserId(n + rng.gen_range(0u32..4))
        } else {
            UserId((r.user.0 + 1 + rng.gen_range(0..n - 1)) % n)
        };
        injected.owners += 1;
    }
    r
}

/// A [`RequestSource`] wrapper that injects faults per a [`FaultPlan`].
///
/// Works over any inner source — fixed traces and adaptive adversaries
/// alike — so the §4 lower-bound sweeps can be chaos-tested too.
pub struct ChaosSource<S> {
    inner: S,
    plan: FaultPlan,
    rng: StdRng,
    emitted: usize,
    injected: InjectedFaults,
}

impl<S: RequestSource> ChaosSource<S> {
    /// Wrap `inner`, corrupting its stream per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        ChaosSource {
            inner,
            rng: StdRng::seed_from_u64(plan.seed),
            plan,
            emitted: 0,
            injected: InjectedFaults::default(),
        }
    }

    /// What has been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    /// The wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: RequestSource> RequestSource for ChaosSource<S> {
    fn universe(&self) -> &Universe {
        self.inner.universe()
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        if let Some(limit) = self.plan.truncate_at {
            if self.emitted >= limit {
                // Only report a truncation if the inner stream had more.
                if self.inner.next_request(ctx).is_some() {
                    self.injected.truncated = true;
                }
                return None;
            }
        }
        let r = self.inner.next_request(ctx)?;
        self.emitted += 1;
        Some(corrupt_record(
            r,
            self.inner.universe(),
            &self.plan,
            &mut self.rng,
            &mut self.injected,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::prelude::*;

    /// Serve `src` to exhaustion with LRU at capacity `k` under
    /// skip-and-count, one `step_checked` per pulled record.
    fn run_checked<S: RequestSource>(
        k: usize,
        src: &mut S,
    ) -> (SteppingEngine<occ_baselines::Lru>, FaultHandler) {
        let universe = src.universe().clone();
        let mut handler = FaultHandler::new(FaultPolicy::SkipAndCount, universe.num_users());
        let mut eng = SteppingEngine::new(k, universe, occ_baselines::Lru::new());
        while let Some(req) = src.next_request(&eng.ctx()) {
            eng.step_checked(req, &mut handler).unwrap();
        }
        (eng, handler)
    }

    fn trace() -> Trace {
        let u = Universe::uniform(3, 4);
        let pages: Vec<u32> = (0..200).map(|i| (i * 7 + 3) % 12).collect();
        Trace::from_page_indices(&u, &pages)
    }

    #[test]
    fn clean_plan_is_passthrough() {
        let t = trace();
        let (records, injected) = FaultPlan::clean().corrupt_trace(&t);
        assert_eq!(records, t.requests());
        assert_eq!(injected, InjectedFaults::default());
        assert!(FaultPlan::clean().is_clean());
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let t = trace();
        let plan = FaultPlan::seeded(7)
            .with_page_rate(0.2)
            .with_owner_rate(0.1);
        let (a, ia) = plan.corrupt_trace(&t);
        let (b, ib) = plan.corrupt_trace(&t);
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        assert!(ia.total() > 0, "rates this high must inject something");
        let (c, _) = FaultPlan { seed: 8, ..plan }.corrupt_trace(&t);
        assert_ne!(a, c, "a different seed corrupts differently");
    }

    #[test]
    fn injected_faults_are_really_invalid() {
        let t = trace();
        let u = t.universe();
        let plan = FaultPlan::seeded(3)
            .with_page_rate(0.3)
            .with_owner_rate(0.3);
        let (records, injected) = plan.corrupt_trace(&t);
        let bad_pages = records
            .iter()
            .filter(|r| u.try_owner(r.page).is_none())
            .count() as u64;
        let bad_owners = records
            .iter()
            .filter(|r| u.try_owner(r.page).is_some_and(|o| o != r.user))
            .count() as u64;
        assert_eq!(bad_pages, injected.pages);
        assert_eq!(bad_owners, injected.owners);
    }

    #[test]
    fn truncation_cuts_the_stream() {
        let t = trace();
        let (records, injected) = FaultPlan::seeded(0).with_truncate_at(50).corrupt_trace(&t);
        assert_eq!(records.len(), 50);
        assert!(injected.truncated);
        // Truncating past the end is not a truncation.
        let (all, injected) = FaultPlan::seeded(0)
            .with_truncate_at(10_000)
            .corrupt_trace(&t);
        assert_eq!(all.len(), t.len());
        assert!(!injected.truncated);
    }

    #[test]
    fn chaos_source_matches_corrupt_trace() {
        // The streaming wrapper and the up-front corruption draw from the
        // same seeded RNG in the same per-record order, so they agree.
        let t = trace();
        let plan = FaultPlan::seeded(11)
            .with_page_rate(0.25)
            .with_owner_rate(0.15)
            .with_truncate_at(120);
        let (expect, injected_up_front) = plan.corrupt_trace(&t);

        let mut src = ChaosSource::new(TraceSource::new(&t), plan);
        let (eng, handler) = run_checked(4, &mut src);
        assert_eq!(eng.time(), expect.len() as u64);
        assert_eq!(src.injected(), injected_up_front);
        assert_eq!(
            handler.counters().page_out_of_range + handler.counters().owner_mismatch,
            injected_up_front.total(),
            "the engine detects exactly what was injected"
        );
    }

    #[test]
    fn chaos_over_adaptive_source() {
        let u = Universe::uniform(2, 2);
        let mut remaining = 40;
        let inner = AdaptiveSource::new(u, move |cached: &[PageId]| {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            (0..4).map(PageId).find(|p| !cached.contains(p))
        });
        let plan = FaultPlan::seeded(5).with_page_rate(0.5);
        let mut src = ChaosSource::new(inner, plan);
        let (eng, handler) = run_checked(2, &mut src);
        assert_eq!(eng.time(), 40);
        assert!(handler.counters().page_out_of_range > 0);
        assert_eq!(handler.counters().page_out_of_range, src.injected().pages);
    }
}
