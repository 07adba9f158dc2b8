//! LRU-K (O'Neil, O'Neil & Weikum \[16\]) — evict the page whose K-th most
//! recent reference is oldest.
//!
//! The paper cites LRU-K as the production-grade cost-blind policy used
//! by shared-memory database systems; it weighs reference *history* so a
//! page touched twice recently beats a page scanned once. Pages with
//! fewer than K references have backward K-distance ∞ and are preferred
//! victims (ties by oldest last reference — the classic tie-break).
//!
//! [`LruK`] (the default) stores each page's last-K reference times in
//! one flat `num_pages × K` ring buffer (no per-page `VecDeque`, no
//! allocation after sizing) and keeps the cached pages in an incremental
//! ordered set keyed by `(kth-recent, last, page)`: touches are `O(log k)`
//! and victim selection is `O(log k)` instead of the reference's `O(k)`
//! cache scan. [`LruKReference`] is the original form; both make
//! byte-identical eviction decisions.

use crate::state_util::{corrupt, decode_u32s, PageDecoder};
use occ_sim::{EngineCtx, PageId, PolicyState, ReplacementPolicy, SnapshotError};
use std::collections::{BTreeSet, VecDeque};

/// LRU-K replacement. `K = 1` degenerates to LRU.
#[derive(Debug)]
pub struct LruK {
    k: usize,
    seq: u64,
    /// Flat ring of the last K reference times per page:
    /// `hist[p*k + slot]`.
    hist: Vec<u64>,
    /// Next write slot of each page's ring.
    head: Vec<u32>,
    /// Number of recorded references per page, saturating at K.
    count: Vec<u32>,
    /// Cached pages ordered by `(kth-recent stamp, last stamp, page)` —
    /// the first entry is the next victim.
    order: BTreeSet<(u64, u64, u32)>,
}

impl LruK {
    /// Create LRU-K with the given history depth `K ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        LruK {
            k,
            seq: 0,
            hist: Vec::new(),
            head: Vec::new(),
            count: Vec::new(),
            order: BTreeSet::new(),
        }
    }

    fn ensure(&mut self, ctx: &EngineCtx) {
        let n = ctx.universe.num_pages() as usize;
        if self.head.len() < n {
            self.hist.resize(n * self.k, 0);
            self.head.resize(n, 0);
            self.count.resize(n, 0);
        }
    }

    /// Record a reference to `page` in its ring.
    #[inline]
    fn record(&mut self, page: PageId) {
        let base = page.index() * self.k;
        let h = self.head[page.index()] as usize;
        self.seq += 1;
        self.hist[base + h] = self.seq;
        self.head[page.index()] = ((h + 1) % self.k) as u32;
        if (self.count[page.index()] as usize) < self.k {
            self.count[page.index()] += 1;
        }
    }

    /// Backward K-distance key: the time of the K-th most recent
    /// reference, or 0 (∞ distance) with the last reference as tie-break.
    #[inline]
    fn key(&self, page: PageId) -> (u64, u64) {
        let base = page.index() * self.k;
        let h = self.head[page.index()] as usize;
        let count = self.count[page.index()] as usize;
        // After a write, `head` points at the oldest stored stamp and
        // `head - 1` at the newest.
        let kth = if count >= self.k {
            self.hist[base + h]
        } else {
            0
        };
        let last = if count > 0 {
            self.hist[base + (h + self.k - 1) % self.k]
        } else {
            0
        };
        (kth, last)
    }

    #[inline]
    fn set_entry(&self, page: PageId) -> (u64, u64, u32) {
        let (kth, last) = self.key(page);
        (kth, last, page.0)
    }
}

impl ReplacementPolicy for LruK {
    fn name(&self) -> String {
        format!("lru-{}", self.k)
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure(ctx);
        self.order.remove(&self.set_entry(page));
        self.record(page);
        self.order.insert(self.set_entry(page));
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.ensure(ctx);
        self.record(page);
        self.order.insert(self.set_entry(page));
    }

    fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
        let &(kth, last, page) = self.order.first().expect("cache is full");
        self.order.remove(&(kth, last, page));
        PageId(page)
    }

    fn on_external_removal(&mut self, _ctx: &EngineCtx, page: PageId) {
        self.order.remove(&self.set_entry(page));
    }

    fn reset(&mut self) {
        self.seq = 0;
        self.hist.clear();
        self.head.clear();
        self.count.clear();
        self.order.clear();
    }

    fn save_state(&self) -> Option<PolicyState> {
        // Histories outlive evictions (a re-inserted page keeps its
        // K-distance), so every page with a recorded reference travels.
        // The sparse layout lists them in `pages`, with `count`, `head`
        // and the K-stamp rings of `hist` aligned to it; the dense one
        // has a row per page. A page never referenced has an all-zero
        // row, so whichever layout has fewer entries is written (dense on
        // a tie): a checkpoint grows with the pages touched, and never
        // past the universe.
        let k = self.k;
        let touched: Vec<usize> = (0..self.count.len())
            .filter(|&p| self.count[p] > 0)
            .collect();
        let mut s = PolicyState::new();
        s.set_u64("k", k as u64);
        s.set_u64("seq", self.seq);
        if self.count.len() * (k + 2) <= touched.len() * (k + 3) {
            s.set_u64s("hist", self.hist.clone());
            s.set_u64s("head", self.head.iter().map(|&h| h as u64).collect());
            s.set_u64s("count", self.count.iter().map(|&c| c as u64).collect());
            return Some(s);
        }
        s.set_u64s("pages", touched.iter().map(|&p| p as u64).collect());
        s.set_u64s(
            "count",
            touched.iter().map(|&p| self.count[p] as u64).collect(),
        );
        s.set_u64s(
            "head",
            touched.iter().map(|&p| self.head[p] as u64).collect(),
        );
        s.set_u64s(
            "hist",
            touched
                .iter()
                .flat_map(|&p| &self.hist[p * k..(p + 1) * k])
                .copied()
                .collect(),
        );
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        let k = state.u64("k")?;
        if k != self.k as u64 {
            return Err(corrupt(
                "k",
                format!("checkpointed K={k}, policy has K={}", self.k),
            ));
        }
        let k = self.k;
        let seq = state.u64("seq")?;
        let n = ctx.universe.num_pages() as usize;
        // `pages` lists the pages the columns describe; without it
        // (the dense layout of earlier checkpoints) entry `i` of every
        // column is page `i`, for a prefix of the universe.
        let listed = match state.get("pages") {
            Some(_) => Some(PageDecoder::new(ctx).pages(ctx, state.u64s("pages")?, "pages")?),
            None => None,
        };
        let rows = match &listed {
            Some(pages) => pages.len(),
            None => state.u64s("head")?.len(),
        };
        let head = decode_u32s(state.u64s_len("head", rows)?, "head")?;
        let count = decode_u32s(state.u64s_len("count", rows)?, "count")?;
        let hist = state.u64s_len("hist", rows * k)?;
        if listed.is_none() && rows > n {
            return Err(corrupt("head", format!("{rows} entries for {n} pages")));
        }
        if let Some(h) = head.iter().find(|&&h| h as usize >= k) {
            return Err(corrupt(
                "head",
                format!("ring slot {h} out of range for K={k}"),
            ));
        }
        if let Some(c) = count.iter().find(|&&c| c as usize > k) {
            return Err(corrupt(
                "count",
                format!("{c} recorded references exceed K={k}"),
            ));
        }
        let page_of = |row: usize| listed.as_ref().map_or(row, |pages| pages[row].index());
        if listed.is_some() {
            if let Some(row) = count.iter().position(|&c| c == 0) {
                return Err(corrupt(
                    "count",
                    format!("page {} is listed with no references", page_of(row)),
                ));
            }
        }
        let mut restored = LruK::new(k);
        restored.hist = vec![0; n * k];
        restored.head = vec![0; n];
        restored.count = vec![0; n];
        for row in 0..rows {
            let p = page_of(row);
            restored.head[p] = head[row];
            restored.count[p] = count[row];
            restored.hist[p * k..(p + 1) * k].copy_from_slice(&hist[row * k..(row + 1) * k]);
        }
        if let Some(p) = ctx.cache.iter().find(|p| restored.count[p.index()] == 0) {
            let key = if listed.is_some() { "pages" } else { "head" };
            return Err(corrupt(key, format!("no entry for cached page {}", p.0)));
        }
        restored.seq = seq;
        // The order set holds exactly the cached pages keyed by the saved
        // histories, so it is rebuilt rather than stored.
        restored.order = ctx.cache.iter().map(|p| restored.set_entry(p)).collect();
        *self = restored;
        Ok(())
    }
}

/// The original LRU-K with per-page `VecDeque` histories and an `O(k)`
/// cache scan per eviction, retained as the equivalence oracle and
/// benchmark baseline for [`LruK`].
#[derive(Debug)]
pub struct LruKReference {
    k: usize,
    /// Last K reference times per page (front = oldest of the K).
    history: Vec<VecDeque<u64>>,
    seq: u64,
}

impl LruKReference {
    /// Create LRU-K with the given history depth `K ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "K must be at least 1");
        LruKReference {
            k,
            history: Vec::new(),
            seq: 0,
        }
    }

    fn touch(&mut self, ctx: &EngineCtx, page: PageId) {
        let n = ctx.universe.num_pages() as usize;
        if self.history.len() < n {
            self.history.resize_with(n, VecDeque::new);
        }
        self.seq += 1;
        let h = &mut self.history[page.index()];
        h.push_back(self.seq);
        if h.len() > self.k {
            h.pop_front();
        }
    }

    /// Backward K-distance key: the time of the K-th most recent
    /// reference, or 0 (∞ distance) with the last reference as tie-break.
    fn key(&self, page: PageId) -> (u64, u64) {
        let h = &self.history[page.index()];
        let kth = if h.len() >= self.k {
            *h.front().expect("non-empty by construction")
        } else {
            0 // fewer than K references: infinitely old
        };
        let last = h.back().copied().unwrap_or(0);
        (kth, last)
    }
}

impl ReplacementPolicy for LruKReference {
    fn name(&self) -> String {
        format!("lru-{}-reference", self.k)
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
        ctx.cache
            .iter()
            .min_by_key(|&p| (self.key(p), p.0))
            .expect("cache is full")
    }

    fn reset(&mut self) {
        self.history.clear();
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::{Request, Simulator, SteppingEngine, Trace, Universe};
    use std::collections::BTreeSet;

    /// A 12-page universe served by LRU-3 at k = 4 up to `cut`, the
    /// engine's snapshot there, and the uninterrupted engine.
    fn cut_run(cut: usize) -> (occ_sim::EngineSnapshot, SteppingEngine<LruK>, Vec<Request>) {
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
        let mut head = SteppingEngine::new(4, u.clone(), LruK::new(3));
        let mut full = SteppingEngine::new(4, u, LruK::new(3));
        for &r in &reqs[..cut] {
            head.step(r);
        }
        for &r in &reqs {
            full.step(r);
        }
        (head.snapshot().unwrap(), full, reqs)
    }

    /// Serve `reqs[cut..]` from `snap` and check the run ends where the
    /// uninterrupted one did.
    fn resumes_like_full(
        snap: &occ_sim::EngineSnapshot,
        full: &SteppingEngine<LruK>,
        reqs: &[Request],
        cut: usize,
    ) {
        let mut tail = SteppingEngine::from_snapshot(snap, LruK::new(3)).unwrap();
        for &r in &reqs[cut..] {
            tail.step(r);
        }
        assert_eq!(tail.stats(), full.stats());
        assert_eq!(tail.snapshot().unwrap(), full.snapshot().unwrap());
    }

    #[test]
    fn checkpoints_list_touched_pages_only() {
        // Six pages touched: 36 sparse entries beat the 60 dense ones.
        let cut = 10;
        let (snap, full, reqs) = cut_run(cut);
        let touched = reqs[..cut]
            .iter()
            .map(|r| r.page.0 as u64)
            .collect::<BTreeSet<_>>();
        let listed = snap.policy.u64s("pages").unwrap();
        assert_eq!(listed, touched.iter().copied().collect::<Vec<_>>());
        assert!(touched.len() < 12, "six pages are not yet touched");
        assert_eq!(snap.policy.u64s("count").unwrap().len(), listed.len());
        assert_eq!(snap.policy.u64s("head").unwrap().len(), listed.len());
        assert_eq!(snap.policy.u64s("hist").unwrap().len(), 3 * listed.len());
        resumes_like_full(&snap, &full, &reqs, cut);
    }

    #[test]
    fn a_dense_bag_still_resumes() {
        // Every page touched: the 60 dense entries beat the 72 sparse
        // ones.
        let cut = 120;
        let (snap, full, reqs) = cut_run(cut);
        assert!(snap.policy.get("pages").is_none(), "dense layout");
        assert_eq!(snap.policy.u64s("count").unwrap().len(), 12);
        assert_eq!(snap.policy.u64s("head").unwrap().len(), 12);
        assert_eq!(snap.policy.u64s("hist").unwrap().len(), 36);
        resumes_like_full(&snap, &full, &reqs, cut);
    }

    #[test]
    fn malformed_lists_are_corrupt() {
        let (snap, _, _) = cut_run(10);
        let listed = snap.policy.u64s("pages").unwrap().to_vec();
        let cached_row = listed
            .iter()
            .position(|&p| snap.cache_pages.contains(&PageId(p as u32)))
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
            (
                "short count",
                edit("count", &|xs| xs.truncate(xs.len() - 1)),
            ),
            ("long head", edit("head", &|xs| xs.push(0))),
            ("short hist", edit("hist", &|xs| xs.truncate(xs.len() - 1))),
            (
                "listed page without references",
                edit("count", &|xs| xs[0] = 0),
            ),
            ("count above K", edit("count", &|xs| xs[0] = 4)),
            ("ring slot out of range", edit("head", &|xs| xs[0] = 3)),
            ("cached page unlisted", {
                let mut bad = snap.clone();
                for (key, width) in [("pages", 1), ("count", 1), ("head", 1), ("hist", 3)] {
                    let mut xs = bad.policy.u64s(key).unwrap().to_vec();
                    xs.drain(cached_row * width..(cached_row + 1) * width);
                    bad.policy.set_u64s(key, xs);
                }
                bad
            }),
        ];
        for (why, bad) in cases {
            let err = SteppingEngine::from_snapshot(&bad, LruK::new(3))
                .err()
                .unwrap_or_else(|| panic!("{why}: must be rejected"));
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{why}: got {err}");
        }
    }

    #[test]
    fn k1_equals_lru() {
        use crate::lru::Lru;
        let u = Universe::single_user(5);
        let pages: Vec<u32> = (0..200).map(|i| (i * 7 + 1) % 5).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let a = Simulator::new(3)
            .record_events(true)
            .run(&mut LruK::new(1), &trace)
            .events
            .unwrap()
            .eviction_sequence();
        let b = Simulator::new(3)
            .record_events(true)
            .run(&mut Lru::new(), &trace)
            .events
            .unwrap()
            .eviction_sequence();
        assert_eq!(a, b);
    }

    #[test]
    fn scan_resistant_compared_to_lru() {
        // Hot pages 0,1 referenced repeatedly; then a one-off scan of 2.
        // LRU-2 evicts the scanned page (only one reference), keeping the
        // hot set.
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 0, 1, 2, 3]);
        let r = Simulator::new(3)
            .record_events(true)
            .run(&mut LruK::new(2), &trace);
        let ev = r.events.unwrap().eviction_sequence();
        assert_eq!(
            ev,
            vec![(5, PageId(2))],
            "the single-reference scan page goes first"
        );
    }

    #[test]
    fn fewer_than_k_references_preferred_over_history_rich() {
        let u = Universe::single_user(3);
        // 0 referenced twice, 1 once; victim for 2 must be 1.
        let trace = Trace::from_page_indices(&u, &[0, 0, 1, 2]);
        let r = Simulator::new(2)
            .record_events(true)
            .run(&mut LruK::new(2), &trace);
        assert_eq!(r.events.unwrap().eviction_sequence(), vec![(3, PageId(1))]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_rejected() {
        LruK::new(0);
    }

    #[test]
    fn matches_reference_eviction_for_eviction() {
        let u = Universe::single_user(9);
        let mut state = 0x5555AAAA5555u64;
        let pages: Vec<u32> = (0..2_500)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 9) as u32
            })
            .collect();
        let trace = Trace::from_page_indices(&u, &pages);
        for kk in [1, 2, 3, 5] {
            for cache in [2, 4, 8] {
                let a = Simulator::new(cache)
                    .record_events(true)
                    .run(&mut LruK::new(kk), &trace)
                    .events
                    .unwrap()
                    .eviction_sequence();
                let b = Simulator::new(cache)
                    .record_events(true)
                    .run(&mut LruKReference::new(kk), &trace)
                    .events
                    .unwrap()
                    .eviction_sequence();
                assert_eq!(a, b, "diverged at K={kk}, k={cache}");
            }
        }
    }
}
