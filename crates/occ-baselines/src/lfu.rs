//! LFU — evict the least-frequently-used page (ties by recency).

use crate::state_util::{corrupt, PageDecoder};
use occ_sim::{EngineCtx, PageId, PolicyState, ReplacementPolicy, SnapshotError};
use std::collections::BTreeSet;

/// Least-frequently-used replacement; frequency counts persist across a
/// page's evictions (classic "perfect LFU").
#[derive(Debug, Default)]
pub struct Lfu {
    seq: u64,
    /// Lifetime reference count per page.
    count: Vec<u64>,
    /// Last-use stamp per page.
    stamp: Vec<u64>,
    /// Cached pages ordered by (count, stamp): lowest count first, oldest
    /// first within a count.
    order: BTreeSet<(u64, u64, u32)>,
}

impl Lfu {
    /// A fresh LFU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, ctx: &EngineCtx, page: PageId, cached_before: bool) {
        let n = ctx.universe.num_pages() as usize;
        if self.count.len() < n {
            self.count.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        if cached_before {
            self.order
                .remove(&(self.count[page.index()], self.stamp[page.index()], page.0));
        }
        self.seq += 1;
        self.count[page.index()] += 1;
        self.stamp[page.index()] = self.seq;
        self.order
            .insert((self.count[page.index()], self.stamp[page.index()], page.0));
    }
}

impl ReplacementPolicy for Lfu {
    fn name(&self) -> String {
        "lfu".into()
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page, true);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page, false);
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        let &entry = self.order.first().expect("cache is full");
        self.order.remove(&entry);
        PageId(entry.2)
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.order
            .remove(&(self.count[page.index()], self.stamp[page.index()], page.0));
    }

    fn reset(&mut self) {
        self.seq = 0;
        self.count.clear();
        self.stamp.clear();
        self.order.clear();
    }

    fn save_state(&self) -> Option<PolicyState> {
        // Counts outlive evictions, so every page with a nonzero count
        // travels. A stamp is read only while its page is cached (an
        // insert overwrites it), so only the cached pages' stamps travel.
        // The sparse layout lists the counted pages with `count` aligned
        // to `pages`, and the cached ones in victim order with `stamp`
        // aligned to `cached`; the dense one has a `count` and a `stamp`
        // per page, 0 for an uncached page's stamp. Whichever has fewer
        // entries is written (dense on a tie), so a checkpoint grows with
        // the pages touched and the cache, and never past the universe.
        let (pages, count): (Vec<u64>, Vec<u64>) = (0u64..)
            .zip(&self.count)
            .filter(|&(_, &c)| c > 0)
            .map(|(p, &c)| (p, c))
            .unzip();
        let (cached, stamp): (Vec<u64>, Vec<u64>) = self
            .order
            .iter()
            .map(|&(_, stamp, p)| (p as u64, stamp))
            .unzip();
        let mut s = PolicyState::new();
        s.set_u64("seq", self.seq);
        if self.count.len() <= pages.len() + cached.len() {
            let mut stamps = vec![0; self.count.len()];
            for (&p, &t) in cached.iter().zip(&stamp) {
                stamps[p as usize] = t;
            }
            s.set_u64s("count", self.count.clone());
            s.set_u64s("stamp", stamps);
        } else {
            s.set_u64s("pages", pages);
            s.set_u64s("count", count);
            s.set_u64s("cached", cached);
            s.set_u64s("stamp", stamp);
        }
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        let seq = state.u64("seq")?;
        let n = ctx.universe.num_pages() as usize;
        let mut count = vec![0; n];
        let mut stamp = vec![0; n];
        if state.get("pages").is_none() {
            // The dense layout of earlier checkpoints: entry `i` of both
            // columns is page `i`, for a prefix of the universe.
            let dense = state.u64s("count")?;
            let stamps = state.u64s_len("stamp", dense.len())?;
            if dense.len() > n {
                return Err(corrupt(
                    "count",
                    format!("{} entries for {n} pages", dense.len()),
                ));
            }
            if let Some(p) = ctx.cache.iter().find(|p| p.index() >= dense.len()) {
                return Err(corrupt(
                    "count",
                    format!("no entry for cached page {}", p.0),
                ));
            }
            count[..dense.len()].copy_from_slice(dense);
            stamp[..dense.len()].copy_from_slice(stamps);
        } else {
            let listed = state.u64s("pages")?;
            let counts = state.u64s_len("count", listed.len())?;
            for (p, &c) in PageDecoder::new(ctx)
                .pages(ctx, listed, "pages")?
                .into_iter()
                .zip(counts)
            {
                count[p.index()] = c;
            }
            let cached = state.u64s("cached")?;
            let stamps = state.u64s_len("stamp", cached.len())?;
            let cached = PageDecoder::new(ctx).cached_pages(ctx, cached, "cached")?;
            if cached.len() != ctx.cache.len() {
                let missing = ctx
                    .cache
                    .iter()
                    .find(|p| !cached.contains(p))
                    .expect("the listed pages are distinct cached pages");
                return Err(corrupt(
                    "cached",
                    format!("no stamp for cached page {}", missing.0),
                ));
            }
            for (p, &s) in cached.into_iter().zip(stamps) {
                stamp[p.index()] = s;
            }
        }
        // The order set holds exactly the cached pages keyed by the saved
        // counters, so it is rebuilt rather than stored.
        self.order = ctx
            .cache
            .iter()
            .map(|p| (count[p.index()], stamp[p.index()], p.0))
            .collect();
        self.seq = seq;
        self.count = count;
        self.stamp = stamp;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{Request, Simulator, SteppingEngine, Trace, Universe};

    #[test]
    fn evicts_lowest_frequency() {
        // 0 0 0 1 2: when 2 arrives, counts are 0:3, 1:1 → evict 1.
        let u = Universe::single_user(3);
        let trace = Trace::from_page_indices(&u, &[0, 0, 0, 1, 2]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut Lfu::new(), &trace);
        assert_eq!(r.events.unwrap().eviction_sequence(), vec![(4, PageId(1))]);
    }

    #[test]
    fn frequency_survives_eviction() {
        // Build frequency for 0, evict it, bring it back: its count
        // should still protect it.
        let u = Universe::single_user(3);
        // 0×3, 1, 2 (evicts 1: count 0=3 beats 1=1), then 1 again evicts 2.
        let trace = Trace::from_page_indices(&u, &[0, 0, 0, 1, 2, 1]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut Lfu::new(), &trace);
        let ev = r.events.unwrap().eviction_sequence();
        assert_eq!(ev, vec![(4, PageId(1)), (5, PageId(2))]);
    }

    /// A 12-page universe served at k = 4 up to `cut`, the engine's
    /// snapshot there, and the uninterrupted engine.
    fn cut_run(cut: usize) -> (occ_sim::EngineSnapshot, SteppingEngine<Lfu>, Vec<Request>) {
        let u = Universe::uniform(3, 4);
        // A skewed prefix over six pages, then a cycle over all twelve.
        let pages: Vec<u32> = (0..300u32)
            .map(|i| {
                if i < 100 {
                    (i * i / 3 + i * 5) % 10
                } else {
                    i % 12
                }
            })
            .collect();
        let reqs = Trace::from_page_indices(&u, &pages).requests().to_vec();
        let mut head = SteppingEngine::new(4, u.clone(), Lfu::new());
        let mut full = SteppingEngine::new(4, u, Lfu::new());
        for &r in &reqs[..cut] {
            head.step(r);
        }
        for &r in &reqs {
            full.step(r);
        }
        (head.snapshot().unwrap(), full, reqs)
    }

    #[test]
    fn checkpoints_list_touched_counts_and_cached_stamps() {
        // Six pages touched and four cached: 20 sparse entries beat the
        // 24 dense ones.
        let (snap, _, reqs) = cut_run(10);
        let touched = reqs[..10].iter().map(|r| r.page.0).collect::<BTreeSet<_>>();
        let listed = snap.policy.u64s("pages").unwrap();
        assert_eq!(
            listed,
            touched.iter().map(|&p| p as u64).collect::<Vec<_>>()
        );
        assert_eq!(snap.policy.u64s("count").unwrap().len(), listed.len());
        assert!(touched.len() < 12, "six pages are not yet touched");
        assert_eq!(snap.policy.u64s("cached").unwrap().len(), 4);
        assert_eq!(snap.policy.u64s("stamp").unwrap().len(), 4);
    }

    #[test]
    fn a_dense_bag_still_resumes() {
        // Every page touched and four cached: the 24 dense entries beat
        // the 32 sparse ones.
        let cut = 120;
        let (mut snap, full, reqs) = cut_run(cut);
        assert!(snap.policy.get("pages").is_none(), "dense layout");
        let mut stamp = snap.policy.u64s("stamp").unwrap().to_vec();
        assert_eq!(snap.policy.u64s("count").unwrap().len(), 12);
        assert_eq!(stamp.len(), 12);
        for (p, &t) in stamp.iter().enumerate() {
            let cached = snap.cache_pages.contains(&PageId(p as u32));
            assert_eq!(t > 0, cached, "page {p}: only cached pages carry a stamp");
        }
        // Earlier builds also wrote the stale stamps of uncached pages,
        // which a load must ignore.
        let uncached = (0..12)
            .find(|&p| !snap.cache_pages.contains(&PageId(p as u32)))
            .unwrap();
        stamp[uncached] = 7;
        snap.policy.set_u64s("stamp", stamp);
        let mut tail = SteppingEngine::from_snapshot(&snap, Lfu::new()).unwrap();
        for &r in &reqs[cut..] {
            tail.step(r);
        }
        assert_eq!(tail.stats(), full.stats());
        assert_eq!(tail.snapshot().unwrap(), full.snapshot().unwrap());
    }

    #[test]
    fn malformed_lists_are_corrupt() {
        let (snap, _, _) = cut_run(10);
        let listed = snap.policy.u64s("pages").unwrap().to_vec();
        let cached = snap.policy.u64s("cached").unwrap().to_vec();
        let uncached = listed
            .iter()
            .copied()
            .find(|p| !cached.contains(p))
            .unwrap();
        let edit = |key: &str, f: &dyn Fn(&mut Vec<u64>)| {
            let mut bad = snap.clone();
            let mut xs = bad.policy.u64s(key).unwrap().to_vec();
            f(&mut xs);
            bad.policy.set_u64s(key, xs);
            bad
        };
        let cases = [
            ("page out of range", edit("pages", &|xs| xs[0] = 12)),
            (
                "page far out of range",
                edit("pages", &|xs| xs[0] = u64::MAX),
            ),
            ("page listed twice", edit("pages", &|xs| xs[1] = xs[0])),
            ("cached page out of range", edit("cached", &|xs| xs[0] = 12)),
            (
                "cached page listed twice",
                edit("cached", &|xs| xs[1] = xs[0]),
            ),
            (
                "stamped page not cached",
                edit("cached", &|xs| xs[0] = uncached),
            ),
            (
                "short count",
                edit("count", &|xs| xs.truncate(xs.len() - 1)),
            ),
            ("long stamp", edit("stamp", &|xs| xs.push(1))),
            ("cached page without a stamp", {
                let mut bad = snap.clone();
                for key in ["cached", "stamp"] {
                    let mut xs = bad.policy.u64s(key).unwrap().to_vec();
                    xs.pop();
                    bad.policy.set_u64s(key, xs);
                }
                bad
            }),
        ];
        for (why, bad) in cases {
            let err = SteppingEngine::from_snapshot(&bad, Lfu::new())
                .err()
                .unwrap_or_else(|| panic!("{why}: must be rejected"));
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{why}: got {err}");
        }
    }

    #[test]
    fn ties_broken_by_oldest() {
        let u = Universe::single_user(3);
        // 0 and 1 both count 1; 0 older → evicted.
        let trace = Trace::from_page_indices(&u, &[0, 1, 2]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut Lfu::new(), &trace);
        assert_eq!(r.events.unwrap().eviction_sequence(), vec![(2, PageId(0))]);
    }
}
