//! The cache contents as a deterministic O(1) set.
//!
//! Policies and invariant checkers frequently ask "is this page cached?",
//! "iterate over the cached pages", and the engine inserts/removes on every
//! miss. `CacheSet` backs all of that with a dense membership table plus a
//! swap-remove vector: `contains`, `insert`, and `remove` are O(1), and the
//! iteration order is a deterministic function of the operation history
//! (important for reproducible tie-breaking in policies that scan).

use crate::error::SnapshotError;
use crate::ids::PageId;

/// A set of cached pages with O(1) membership, insertion and removal.
#[derive(Clone, Debug)]
pub struct CacheSet {
    /// `slot[p]` is the position of page `p` in `pages`, or `NONE`.
    slot: Vec<u32>,
    /// The cached pages, in operation-history order (swap-remove on evict).
    pages: Vec<PageId>,
    capacity: usize,
}

const NONE: u32 = u32::MAX;

impl CacheSet {
    /// An empty cache of size `capacity` over a universe of `num_pages`
    /// pages.
    pub fn new(capacity: usize, num_pages: u32) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        CacheSet {
            slot: vec![NONE; num_pages as usize],
            // A cache never holds more than the whole universe, and
            // `capacity` is caller input (a CLI flag, a checkpoint).
            pages: Vec::with_capacity(capacity.min(num_pages as usize)),
            capacity,
        }
    }

    /// Rebuild a cache from snapshotted contents, preserving the given
    /// (operation-history) order, so policies that scan `pages()` see the
    /// same tie-breaking order after a resume. Rejects duplicate,
    /// out-of-range, or over-capacity contents instead of panicking.
    pub fn try_restore(
        capacity: usize,
        num_pages: u32,
        pages: &[PageId],
    ) -> Result<Self, SnapshotError> {
        if capacity == 0 {
            return Err(SnapshotError::Corrupt("cache capacity is zero".into()));
        }
        if pages.len() > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} pages but capacity is {capacity}",
                pages.len()
            )));
        }
        let mut cache = CacheSet::new(capacity, num_pages);
        for &p in pages {
            if p.index() >= num_pages as usize {
                return Err(SnapshotError::Corrupt(format!(
                    "cached page {p} outside the universe ({num_pages} pages)"
                )));
            }
            if cache.contains(p) {
                return Err(SnapshotError::Corrupt(format!("page {p} cached twice")));
            }
            cache.insert(p);
        }
        Ok(cache)
    }

    /// Maximum number of pages the cache can hold (the paper's `k`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently cached.
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the cache holds no pages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether the cache is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.pages.len() == self.capacity
    }

    /// Whether `page` is currently cached.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.slot[page.index()] != NONE
    }

    /// Prefetch the membership-table line a future [`contains`] probe of
    /// `page` will load. The batched replay kernel calls this for
    /// request `i + D` while serving request `i`, hiding the dependent
    /// load behind useful work; see [`crate::prefetch`].
    ///
    /// [`contains`]: Self::contains
    #[inline(always)]
    pub fn prefetch_probe(&self, page: PageId) {
        crate::prefetch::prefetch_slice_element(&self.slot, page.index());
    }

    /// Insert `page`. Panics if the cache is full or the page is already
    /// present — the engine guarantees neither happens.
    pub fn insert(&mut self, page: PageId) {
        assert!(!self.is_full(), "insert into a full cache");
        assert!(!self.contains(page), "insert of an already-cached page");
        self.slot[page.index()] = self.pages.len() as u32;
        self.pages.push(page);
    }

    /// Remove `page`. Panics if the page is not cached.
    pub fn remove(&mut self, page: PageId) {
        let pos = self.slot[page.index()];
        assert!(pos != NONE, "remove of a page that is not cached");
        let pos = pos as usize;
        self.pages.swap_remove(pos);
        self.slot[page.index()] = NONE;
        if pos < self.pages.len() {
            let moved = self.pages[pos];
            self.slot[moved.index()] = pos as u32;
        }
    }

    /// The cached pages, in deterministic (operation-history) order.
    #[inline]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Iterate over the cached pages.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().copied()
    }

    /// The cached pages in ascending page-id order (allocates; for tests
    /// and invariant checks, not hot paths).
    pub fn sorted_pages(&self) -> Vec<PageId> {
        let mut v = self.pages.clone();
        v.sort_unstable();
        v
    }

    /// Remove every page, returning the former contents in ascending page
    /// order. Models the paper's end-of-sequence flush performed by the
    /// dummy user's `k` trailing requests.
    pub fn drain_all(&mut self) -> Vec<PageId> {
        let mut v = std::mem::take(&mut self.pages);
        for p in &v {
            self.slot[p.index()] = NONE;
        }
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut c = CacheSet::new(2, 5);
        assert!(c.is_empty());
        c.insert(PageId(3));
        assert!(c.contains(PageId(3)));
        assert!(!c.contains(PageId(0)));
        c.insert(PageId(0));
        assert!(c.is_full());
        c.remove(PageId(3));
        assert!(!c.contains(PageId(3)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.pages(), &[PageId(0)]);
    }

    #[test]
    fn swap_remove_keeps_slots_consistent() {
        let mut c = CacheSet::new(3, 10);
        c.insert(PageId(1));
        c.insert(PageId(5));
        c.insert(PageId(9));
        c.remove(PageId(1)); // p9 is swapped into slot 0
        assert!(c.contains(PageId(5)));
        assert!(c.contains(PageId(9)));
        c.remove(PageId(9));
        assert_eq!(c.pages(), &[PageId(5)]);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_past_capacity_panics() {
        let mut c = CacheSet::new(1, 3);
        c.insert(PageId(0));
        c.insert(PageId(1));
    }

    #[test]
    #[should_panic(expected = "already-cached")]
    fn double_insert_panics() {
        let mut c = CacheSet::new(2, 3);
        c.insert(PageId(0));
        c.insert(PageId(0));
    }

    #[test]
    #[should_panic(expected = "not cached")]
    fn remove_missing_panics() {
        let mut c = CacheSet::new(2, 3);
        c.remove(PageId(0));
    }

    #[test]
    fn sorted_and_drain() {
        let mut c = CacheSet::new(3, 10);
        c.insert(PageId(7));
        c.insert(PageId(2));
        c.insert(PageId(4));
        assert_eq!(c.sorted_pages(), vec![PageId(2), PageId(4), PageId(7)]);
        let drained = c.drain_all();
        assert_eq!(drained, vec![PageId(2), PageId(4), PageId(7)]);
        assert!(c.is_empty());
        assert!(!c.contains(PageId(7)));
    }

    #[test]
    fn try_restore_preserves_order_and_rejects_garbage() {
        let mut c = CacheSet::new(3, 10);
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3));
        c.remove(PageId(1));
        c.insert(PageId(4)); // pages() is now [3, 2, 4] via swap-remove
        let restored = CacheSet::try_restore(3, 10, c.pages()).unwrap();
        assert_eq!(restored.pages(), c.pages());
        assert!(restored.contains(PageId(4)));

        assert!(CacheSet::try_restore(0, 10, &[]).is_err());
        assert!(CacheSet::try_restore(1, 10, &[PageId(0), PageId(1)]).is_err());
        assert!(CacheSet::try_restore(2, 10, &[PageId(10)]).is_err());
        assert!(CacheSet::try_restore(2, 10, &[PageId(1), PageId(1)]).is_err());
    }

    #[test]
    fn deterministic_iteration_order() {
        let build = || {
            let mut c = CacheSet::new(3, 10);
            c.insert(PageId(1));
            c.insert(PageId(2));
            c.insert(PageId(3));
            c.remove(PageId(1));
            c.insert(PageId(4));
            c.pages().to_vec()
        };
        assert_eq!(build(), build());
    }
}
