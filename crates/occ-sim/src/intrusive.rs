//! Intrusive doubly-linked recency lists over dense page ids.
//!
//! The recency-ordered policies in this workspace (LRU, FIFO, marking
//! phases, GreedyDual's per-user queues) used to pay `O(log k)` per
//! request on a `BTreeSet`.
//! Page ids are dense (`0..P`, see [`crate::PageId`]), so the classic
//! paging structure applies instead: store `prev`/`next` links in flat
//! arrays indexed by page id and splice nodes in `O(1)` with no
//! allocation on the request path.
//!
//! [`PageLists`] is the shared-arena form: `L` lists over one universe of
//! pages, with every page in **at most one** list at a time (exactly the
//! shape of per-user queues, since each page has one owner). [`PageList`]
//! is the single-list convenience wrapper.
//!
//! All operations are `O(1)` except [`PageLists::clear_list`] /
//! iteration (linear in the list length) and the one-time `ensure`
//! growth.
//!
//! These lists suit policies whose only per-page state is the links.
//! ALG-DISCRETE (`occ_core::ConvexCaching`) also keeps `(Y_p, seq)` per
//! page, so it does not use them: it embeds the links in one 24-byte
//! node per page and keeps each user's list ends in its per-user lane,
//! so a touch writes one line of per-page state instead of five.

use crate::ids::PageId;

const NIL: u32 = u32::MAX;

/// Head/tail/len of one list in the arena.
#[derive(Clone, Copy, Debug)]
struct ListCore {
    head: u32,
    tail: u32,
    len: u32,
}

impl ListCore {
    const EMPTY: ListCore = ListCore {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// `L` intrusive doubly-linked lists sharing one dense node arena.
///
/// Pages are nodes; a page can be linked into at most one list at a time
/// (pushing a linked page panics — unlink it first or use
/// [`Self::move_to_back`]).
#[derive(Clone, Debug, Default)]
pub struct PageLists {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Which list each page is linked into, or `NIL`.
    list_of: Vec<u32>,
    lists: Vec<ListCore>,
}

impl PageLists {
    /// An empty arena; size it with [`Self::ensure`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena for `num_lists` lists over `num_pages` pages.
    pub fn with_size(num_lists: usize, num_pages: usize) -> Self {
        let mut s = Self::new();
        s.ensure(num_lists, num_pages);
        s
    }

    /// Grow (never shrink) to cover `num_lists` lists and `num_pages`
    /// pages. Cheap no-op when already large enough — callable from a
    /// policy hot path.
    #[inline]
    pub fn ensure(&mut self, num_lists: usize, num_pages: usize) {
        if self.prev.len() < num_pages {
            self.prev.resize(num_pages, NIL);
            self.next.resize(num_pages, NIL);
            self.list_of.resize(num_pages, NIL);
        }
        if self.lists.len() < num_lists {
            self.lists.resize(num_lists, ListCore::EMPTY);
        }
    }

    /// Number of lists.
    #[inline]
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Number of pages in list `l`.
    #[inline]
    pub fn len(&self, l: usize) -> usize {
        self.lists[l].len as usize
    }

    /// Whether list `l` is empty.
    #[inline]
    pub fn is_empty(&self, l: usize) -> bool {
        self.lists[l].len == 0
    }

    /// Whether `page` is linked into any list.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.list_of[page.index()] != NIL
    }

    /// The list `page` is linked into, if any.
    #[inline]
    pub fn list_of(&self, page: PageId) -> Option<usize> {
        let l = self.list_of[page.index()];
        (l != NIL).then_some(l as usize)
    }

    /// Oldest page of list `l` (the next eviction victim in recency
    /// lists).
    #[inline]
    pub fn front(&self, l: usize) -> Option<PageId> {
        let h = self.lists[l].head;
        (h != NIL).then_some(PageId(h))
    }

    /// Newest page of list `l`.
    #[inline]
    pub fn back(&self, l: usize) -> Option<PageId> {
        let t = self.lists[l].tail;
        (t != NIL).then_some(PageId(t))
    }

    /// Append `page` to the back (newest end) of list `l`. Panics if the
    /// page is already linked somewhere.
    #[inline]
    pub fn push_back(&mut self, l: usize, page: PageId) {
        let i = page.index();
        assert!(
            self.list_of[i] == NIL,
            "page {page} is already linked into a list"
        );
        let core = &mut self.lists[l];
        self.prev[i] = core.tail;
        self.next[i] = NIL;
        if core.tail == NIL {
            core.head = page.0;
        } else {
            self.next[core.tail as usize] = page.0;
        }
        core.tail = page.0;
        core.len += 1;
        self.list_of[i] = l as u32;
    }

    /// Unlink `page` from whichever list holds it. Panics if unlinked.
    #[inline]
    pub fn remove(&mut self, page: PageId) {
        let i = page.index();
        let l = self.list_of[i];
        assert!(l != NIL, "page {page} is not linked into any list");
        let (p, n) = (self.prev[i], self.next[i]);
        let core = &mut self.lists[l as usize];
        if p == NIL {
            core.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            core.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        core.len -= 1;
        self.prev[i] = NIL;
        self.next[i] = NIL;
        self.list_of[i] = NIL;
    }

    /// Unlink `page` if it is linked; returns whether it was.
    #[inline]
    pub fn remove_if_linked(&mut self, page: PageId) -> bool {
        if self.contains(page) {
            self.remove(page);
            true
        } else {
            false
        }
    }

    /// Pop and return the oldest page of list `l`.
    #[inline]
    pub fn pop_front(&mut self, l: usize) -> Option<PageId> {
        let front = self.front(l)?;
        self.remove(front);
        Some(front)
    }

    /// Move `page` to the back of list `l` (the "touch" of an LRU list):
    /// unlink it from wherever it is, if anywhere, then append.
    ///
    /// When the page is already in `l` the unlink and append are fused
    /// into one splice — no intermediate `NIL` writes to `prev`/`next`/
    /// `list_of` that the append immediately overwrites — and a page
    /// that is already the tail (a re-touch of the hottest page, the
    /// common case under skewed workloads) returns without writing at
    /// all. Observable state is identical to `remove` + `push_back`.
    #[inline]
    pub fn move_to_back(&mut self, l: usize, page: PageId) {
        let i = page.index();
        if self.list_of[i] == l as u32 {
            let core = &mut self.lists[l];
            if core.tail == page.0 {
                return;
            }
            // Splice out of the middle/head of `l`: the page is not the
            // tail, so it has a successor.
            let (p, n) = (self.prev[i], self.next[i]);
            if p == NIL {
                core.head = n;
            } else {
                self.next[p as usize] = n;
            }
            self.prev[n as usize] = p;
            // Re-link at the tail (non-NIL: the list holds this page).
            let old_tail = core.tail;
            self.next[old_tail as usize] = page.0;
            self.prev[i] = old_tail;
            self.next[i] = NIL;
            core.tail = page.0;
            return;
        }
        self.remove_if_linked(page);
        self.push_back(l, page);
    }

    /// Steal every node of `from` and append the whole chain to the back
    /// of `to` in order, in `O(len(from))` (relinks `list_of` per node but
    /// performs no per-node splicing). Used by marking policies whose
    /// phase reset turns the "marked, in recency order" list into the new
    /// victim list wholesale.
    pub fn append_list(&mut self, to: usize, from: usize) {
        assert_ne!(to, from, "cannot append a list to itself");
        let from_core = std::mem::replace(&mut self.lists[from], ListCore::EMPTY);
        if from_core.head == NIL {
            return;
        }
        let mut node = from_core.head;
        while node != NIL {
            self.list_of[node as usize] = to as u32;
            node = self.next[node as usize];
        }
        let to_core = &mut self.lists[to];
        if to_core.tail == NIL {
            to_core.head = from_core.head;
        } else {
            self.next[to_core.tail as usize] = from_core.head;
            self.prev[from_core.head as usize] = to_core.tail;
        }
        to_core.tail = from_core.tail;
        to_core.len += from_core.len;
    }

    /// Iterate list `l` from oldest to newest. A list the arena was
    /// never sized for is empty (a policy saved before its first touch).
    pub fn iter(&self, l: usize) -> PageListIter<'_> {
        PageListIter {
            lists: self,
            node: self.lists.get(l).map_or(NIL, |c| c.head),
        }
    }

    /// Empty list `l` in `O(len)`, leaving other lists untouched.
    pub fn clear_list(&mut self, l: usize) {
        let mut node = self.lists[l].head;
        while node != NIL {
            let n = self.next[node as usize];
            self.prev[node as usize] = NIL;
            self.next[node as usize] = NIL;
            self.list_of[node as usize] = NIL;
            node = n;
        }
        self.lists[l] = ListCore::EMPTY;
    }

    /// Empty every list (`O(Σ len)`), keeping the arena's capacity.
    pub fn clear(&mut self) {
        for l in 0..self.lists.len() {
            self.clear_list(l);
        }
    }

    /// Drop all sizing and contents (a policy `reset` that must also
    /// forget the universe size).
    pub fn reset(&mut self) {
        self.prev.clear();
        self.next.clear();
        self.list_of.clear();
        self.lists.clear();
    }
}

/// Iterator over one list, oldest to newest.
pub struct PageListIter<'a> {
    lists: &'a PageLists,
    node: u32,
}

impl Iterator for PageListIter<'_> {
    type Item = PageId;

    fn next(&mut self) -> Option<PageId> {
        if self.node == NIL {
            return None;
        }
        let page = PageId(self.node);
        self.node = self.lists.next[self.node as usize];
        Some(page)
    }
}

/// A single intrusive recency list over dense page ids — the `L = 1`
/// case of [`PageLists`] with the list index elided.
#[derive(Clone, Debug, Default)]
pub struct PageList {
    inner: PageLists,
}

impl PageList {
    /// An empty list; size it with [`Self::ensure`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow to cover `num_pages` pages.
    #[inline]
    pub fn ensure(&mut self, num_pages: usize) {
        self.inner.ensure(1, num_pages);
    }

    /// Number of linked pages.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len(0)
    }

    /// Whether no page is linked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty(0)
    }

    /// Whether `page` is linked.
    #[inline]
    pub fn contains(&self, page: PageId) -> bool {
        self.inner.contains(page)
    }

    /// Oldest page.
    #[inline]
    pub fn front(&self) -> Option<PageId> {
        self.inner.front(0)
    }

    /// Newest page.
    #[inline]
    pub fn back(&self) -> Option<PageId> {
        self.inner.back(0)
    }

    /// Append `page` (must not be linked).
    #[inline]
    pub fn push_back(&mut self, page: PageId) {
        self.inner.push_back(0, page);
    }

    /// Unlink `page` (must be linked).
    #[inline]
    pub fn remove(&mut self, page: PageId) {
        self.inner.remove(page);
    }

    /// Unlink `page` if linked; returns whether it was.
    #[inline]
    pub fn remove_if_linked(&mut self, page: PageId) -> bool {
        self.inner.remove_if_linked(page)
    }

    /// Pop the oldest page.
    #[inline]
    pub fn pop_front(&mut self) -> Option<PageId> {
        self.inner.pop_front(0)
    }

    /// Touch: move (or insert) `page` to the newest end.
    #[inline]
    pub fn move_to_back(&mut self, page: PageId) {
        self.inner.move_to_back(0, page);
    }

    /// Iterate oldest to newest.
    pub fn iter(&self) -> PageListIter<'_> {
        self.inner.iter(0)
    }

    /// Unlink everything in `O(len)`.
    pub fn clear(&mut self) {
        self.inner.clear_list(0);
    }

    /// Forget contents *and* sizing.
    pub fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(l: &PageList) -> Vec<u32> {
        l.iter().map(|p| p.0).collect()
    }

    #[test]
    fn unsized_list_iterates_empty() {
        assert!(collect(&PageList::new()).is_empty());
        assert_eq!(PageLists::new().iter(3).count(), 0);
    }

    #[test]
    fn push_pop_order() {
        let mut l = PageList::new();
        l.ensure(10);
        for p in [3, 1, 4, 1, 5] {
            l.move_to_back(PageId(p));
        }
        // Second touch of 1 moved it to the back.
        assert_eq!(collect(&l), vec![3, 4, 1, 5]);
        assert_eq!(l.front(), Some(PageId(3)));
        assert_eq!(l.back(), Some(PageId(5)));
        assert_eq!(l.pop_front(), Some(PageId(3)));
        assert_eq!(l.pop_front(), Some(PageId(4)));
        assert_eq!(collect(&l), vec![1, 5]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut l = PageList::new();
        l.ensure(8);
        for p in 0..5 {
            l.push_back(PageId(p));
        }
        l.remove(PageId(2)); // middle
        l.remove(PageId(0)); // head
        l.remove(PageId(4)); // tail
        assert_eq!(collect(&l), vec![1, 3]);
        assert!(!l.contains(PageId(2)));
        assert!(l.contains(PageId(3)));
    }

    #[test]
    fn mirrors_a_vec_model() {
        // Randomized differential test against a Vec model.
        let mut l = PageList::new();
        l.ensure(32);
        let mut model: Vec<u32> = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let p = (rng() % 32) as u32;
            match rng() % 4 {
                0 => {
                    l.move_to_back(PageId(p));
                    model.retain(|&x| x != p);
                    model.push(p);
                }
                1 => {
                    let was = l.remove_if_linked(PageId(p));
                    assert_eq!(was, model.contains(&p));
                    model.retain(|&x| x != p);
                }
                2 => {
                    assert_eq!(
                        l.pop_front().map(|p| p.0),
                        (!model.is_empty()).then(|| model.remove(0))
                    );
                }
                _ => {
                    assert_eq!(l.front().map(|p| p.0), model.first().copied());
                    assert_eq!(l.len(), model.len());
                }
            }
        }
        assert_eq!(collect(&l), model);
    }

    #[test]
    #[should_panic(expected = "already linked")]
    fn double_push_panics() {
        let mut l = PageList::new();
        l.ensure(4);
        l.push_back(PageId(1));
        l.push_back(PageId(1));
    }

    #[test]
    #[should_panic(expected = "not linked")]
    fn remove_unlinked_panics() {
        let mut l = PageList::new();
        l.ensure(4);
        l.remove(PageId(1));
    }

    #[test]
    fn multi_list_independence() {
        let mut a = PageLists::with_size(3, 12);
        a.push_back(0, PageId(0));
        a.push_back(1, PageId(4));
        a.push_back(1, PageId(5));
        a.push_back(2, PageId(8));
        assert_eq!(a.len(0), 1);
        assert_eq!(a.len(1), 2);
        assert_eq!(a.front(1), Some(PageId(4)));
        assert_eq!(a.list_of(PageId(5)), Some(1));
        a.remove(PageId(4));
        assert_eq!(a.front(1), Some(PageId(5)));
        assert_eq!(a.len(0), 1, "other lists untouched");
        // A page moves between lists only through an explicit relink.
        a.remove(PageId(8));
        a.push_back(0, PageId(8));
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![0, 8]);
        assert!(a.is_empty(2));
    }

    #[test]
    fn append_list_preserves_order() {
        let mut a = PageLists::with_size(2, 16);
        for p in [2, 5, 7] {
            a.push_back(0, PageId(p));
        }
        for p in [1, 3] {
            a.push_back(1, PageId(p));
        }
        a.append_list(1, 0);
        assert!(a.is_empty(0));
        assert_eq!(
            a.iter(1).map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 3, 2, 5, 7]
        );
        assert_eq!(a.len(1), 5);
        assert_eq!(a.list_of(PageId(7)), Some(1));
        // Appending an empty list is a no-op.
        a.append_list(1, 0);
        assert_eq!(a.len(1), 5);
        // Appending into an empty list transfers wholesale.
        a.append_list(0, 1);
        assert_eq!(
            a.iter(0).map(|p| p.0).collect::<Vec<_>>(),
            vec![1, 3, 2, 5, 7]
        );
        // The spliced list stays fully linked: removals still work.
        a.remove(PageId(2));
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![1, 3, 5, 7]);
    }

    #[test]
    fn fused_move_to_back_covers_every_splice_case() {
        // The fused same-list splice in `move_to_back` must be
        // indistinguishable from remove + push_back: re-touch of the
        // tail (early exit), head, middle, cross-list moves, and fresh
        // links.
        let mut a = PageLists::with_size(2, 8);
        for p in [0, 1, 2, 3] {
            a.push_back(0, PageId(p));
        }
        a.move_to_back(0, PageId(3)); // tail re-touch: no-op
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        a.move_to_back(0, PageId(0)); // head
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        a.move_to_back(0, PageId(3)); // middle
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![1, 2, 0, 3]);
        assert_eq!(a.len(0), 4);
        a.move_to_back(1, PageId(2)); // cross-list move
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![1, 0, 3]);
        assert_eq!(a.iter(1).map(|p| p.0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.list_of(PageId(2)), Some(1));
        a.move_to_back(1, PageId(6)); // fresh link
        assert_eq!(a.iter(1).map(|p| p.0).collect::<Vec<_>>(), vec![2, 6]);
        // Single-element list: the element is both head and tail.
        a.move_to_back(1, PageId(2));
        assert_eq!(a.iter(1).map(|p| p.0).collect::<Vec<_>>(), vec![6, 2]);
        // Removals still work after fused splices (links consistent).
        a.remove(PageId(0));
        a.remove(PageId(2));
        assert_eq!(a.iter(0).map(|p| p.0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(a.iter(1).map(|p| p.0).collect::<Vec<_>>(), vec![6]);
    }

    #[test]
    fn clear_and_reuse() {
        let mut l = PageList::new();
        l.ensure(6);
        for p in 0..4 {
            l.push_back(PageId(p));
        }
        l.clear();
        assert!(l.is_empty());
        assert!(!l.contains(PageId(1)));
        l.push_back(PageId(1));
        assert_eq!(collect(&l), vec![1]);
    }
}
