//! Request traces and the page/user universe.
//!
//! A [`Universe`] fixes the set of users and which user owns each page
//! (the paper's partition `P = ∪_i P_i`). A [`Trace`] is a finite request
//! sequence over a universe; it additionally precomputes the per-request
//! *interval index* `j(p, t)` and the running distinct-page count `|B(t)|`
//! used by the convex program of the paper (§2.1). Both are properties of
//! the sequence alone, independent of any algorithm.

use crate::error::FaultKind;
use crate::ids::{PageId, Time, UserId};
use serde::{Deserialize, Serialize};

/// One page request. The owning user is carried alongside the page so that
/// consumers never need a universe lookup in hot loops.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Requested page.
    pub page: PageId,
    /// Owner of `page`.
    pub user: UserId,
}

/// A record a trace writer appends: a [`Request`], whose claimed owner
/// must be the page's owner, or a bare [`PageId`] (a page run served by
/// an occbin01 reader), which claims no owner and only has to be in
/// range. Writers take runs of either, so a page run is written without
/// first being widened into requests.
pub trait TraceRecord: Copy {
    /// The requested page.
    fn page(self) -> PageId;
    /// The user the record claims owns its page, if it claims one.
    fn claim(self) -> Option<UserId>;
}

impl TraceRecord for Request {
    #[inline(always)]
    fn page(self) -> PageId {
        self.page
    }

    #[inline(always)]
    fn claim(self) -> Option<UserId> {
        Some(self.user)
    }
}

impl TraceRecord for PageId {
    #[inline(always)]
    fn page(self) -> PageId {
        self
    }

    #[inline(always)]
    fn claim(self) -> Option<UserId> {
        None
    }
}

/// The static structure of an instance: how many users there are and which
/// user owns each page. Page ids are dense (`0..num_pages`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Universe {
    /// `owner[p]` is the user owning page `p`.
    owner: Vec<UserId>,
    num_users: u32,
}

impl Universe {
    /// Build a universe from an explicit owner table. Panics if an owner id
    /// is out of range for `num_users`.
    pub fn new(num_users: u32, owner: Vec<UserId>) -> Self {
        assert!(num_users > 0, "a universe needs at least one user");
        for (p, &u) in owner.iter().enumerate() {
            assert!(
                u.0 < num_users,
                "page p{p} is owned by {u} but there are only {num_users} users"
            );
        }
        Universe { owner, num_users }
    }

    /// `n` users, each owning `pages_per_user` consecutive pages: user `i`
    /// owns pages `i*pages_per_user .. (i+1)*pages_per_user`.
    pub fn uniform(num_users: u32, pages_per_user: u32) -> Self {
        let owner = (0..num_users)
            .flat_map(|u| std::iter::repeat_n(UserId(u), pages_per_user as usize))
            .collect();
        Universe { owner, num_users }
    }

    /// Users with heterogeneous page-set sizes; `sizes[i]` pages for user `i`.
    pub fn with_sizes(sizes: &[u32]) -> Self {
        assert!(!sizes.is_empty());
        let owner = sizes
            .iter()
            .enumerate()
            .flat_map(|(u, &s)| std::iter::repeat_n(UserId(u as u32), s as usize))
            .collect();
        Universe {
            owner,
            num_users: sizes.len() as u32,
        }
    }

    /// A single user owning `pages` pages — the classical paging setting.
    pub fn single_user(pages: u32) -> Self {
        Self::uniform(1, pages)
    }

    /// Number of users `n`.
    #[inline]
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Total number of pages `|P|`.
    #[inline]
    pub fn num_pages(&self) -> u32 {
        self.owner.len() as u32
    }

    /// Owner `i(p)` of a page. Panics if the page is outside the universe.
    #[inline]
    pub fn owner(&self, page: PageId) -> UserId {
        assert!(
            page.index() < self.owner.len(),
            "page {page} is outside the universe ({} pages)",
            self.owner.len()
        );
        self.owner[page.index()]
    }

    /// Owner of a page, or `None` if the page is outside the universe —
    /// the non-panicking form used when validating possibly-corrupt
    /// request records.
    #[inline]
    pub fn try_owner(&self, page: PageId) -> Option<UserId> {
        self.owner.get(page.index()).copied()
    }

    /// How a request record from outside the program breaks the model's
    /// one-owner rule, if it does: its page is outside the universe, or
    /// the user it claims is not the page's owner. Every checked engine
    /// classifies records with this; a quarantine check comes after it.
    #[inline]
    pub fn malformed(&self, req: Request) -> Option<FaultKind> {
        match self.try_owner(req.page) {
            None => Some(FaultKind::PageOutOfRange),
            Some(owner) if owner != req.user => Some(FaultKind::OwnerMismatch),
            Some(_) => None,
        }
    }

    /// Why a record handed to a trace writer is rejected, if it is: a
    /// claimed owner goes through [`malformed`](Self::malformed), and a
    /// bare page, which claims none, is only range-checked.
    #[inline(always)]
    pub(crate) fn rejects<T: TraceRecord>(&self, rec: T) -> Option<FaultKind> {
        match rec.claim() {
            Some(user) => self.malformed(Request {
                page: rec.page(),
                user,
            }),
            None => (rec.page().index() >= self.owner.len()).then_some(FaultKind::PageOutOfRange),
        }
    }

    /// The user a [`malformed`](Self::malformed) record quarantines: the
    /// page's true owner when the page is in range, else the user the
    /// record claims if that user exists.
    pub fn culprit(&self, req: Request) -> Option<UserId> {
        self.try_owner(req.page)
            .or_else(|| (req.user.0 < self.num_users).then_some(req.user))
    }

    /// The full owner table, indexed by page id (snapshots embed it so a
    /// resumed run can verify it is replaying against the same universe).
    #[inline]
    pub fn owners(&self) -> &[UserId] {
        &self.owner
    }

    /// All pages owned by `user` (ascending page id).
    pub fn pages_of(&self, user: UserId) -> Vec<PageId> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, &u)| u == user)
            .map(|(p, _)| PageId(p as u32))
            .collect()
    }

    /// Build a request for `page`, filling in the owner.
    #[inline]
    pub fn request(&self, page: PageId) -> Request {
        Request {
            page,
            user: self.owner(page),
        }
    }
}

/// A finite request sequence `σ` over a [`Universe`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    universe: Universe,
    requests: Vec<Request>,
    /// Lazily built prefix-distinct table: `distinct_prefix[t]` =
    /// `|B(t)|`. Invalidated (replaced with an empty cell) whenever the
    /// request sequence changes.
    distinct_prefix: std::sync::OnceLock<Vec<u32>>,
}

impl Trace {
    /// Wrap a request vector. Panics if any request disagrees with the
    /// universe's owner table or references an out-of-range page.
    pub fn new(universe: Universe, requests: Vec<Request>) -> Self {
        for (t, r) in requests.iter().enumerate() {
            assert!(
                r.page.0 < universe.num_pages(),
                "request at t={t} references page {} outside the universe",
                r.page
            );
            assert_eq!(
                universe.owner(r.page),
                r.user,
                "request at t={t} claims {} owns {} but the universe disagrees",
                r.user,
                r.page
            );
        }
        Trace {
            universe,
            requests,
            distinct_prefix: std::sync::OnceLock::new(),
        }
    }

    /// Build a trace from raw page indices, deriving owners from the
    /// universe.
    pub fn from_page_indices(universe: &Universe, pages: &[u32]) -> Self {
        let requests = pages.iter().map(|&p| universe.request(PageId(p))).collect();
        Trace::new(universe.clone(), requests)
    }

    /// The universe this trace ranges over.
    #[inline]
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Number of requests `T`.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The request at time `t` (zero-based).
    #[inline]
    pub fn at(&self, t: Time) -> Request {
        self.requests[t as usize]
    }

    /// All requests in order.
    #[inline]
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Iterate `(t, request)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Time, Request)> + '_ {
        self.requests
            .iter()
            .enumerate()
            .map(|(t, &r)| (t as Time, r))
    }

    /// Number of *distinct* pages requested in `σ[0..=t]` — the paper's
    /// `|B(t)|`. The full prefix table is built once on first use
    /// (`O(T)`) and memoized, so repeated calls are `O(1)` lookups;
    /// [`extend_with`](Self::extend_with) invalidates the memo.
    pub fn distinct_pages_through(&self, t: Time) -> usize {
        let prefix = self.distinct_prefix.get_or_init(|| {
            let mut seen = vec![false; self.universe.num_pages() as usize];
            let mut count = 0u32;
            let mut prefix = Vec::with_capacity(self.requests.len());
            for r in &self.requests {
                if !seen[r.page.index()] {
                    seen[r.page.index()] = true;
                    count += 1;
                }
                prefix.push(count);
            }
            prefix
        });
        prefix[t as usize] as usize
    }

    /// Per-user request counts (how many times each user appears in `σ`).
    pub fn request_counts_per_user(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.universe.num_users() as usize];
        for r in &self.requests {
            counts[r.user.index()] += 1;
        }
        counts
    }

    /// Precompute the interval/occurrence structure (see [`TraceIndex`]).
    pub fn index(&self) -> TraceIndex {
        TraceIndex::build(self)
    }

    /// Concatenate another trace over the same universe onto this one.
    pub fn extend_with(&mut self, other: &Trace) {
        assert_eq!(
            self.universe, other.universe,
            "cannot concatenate traces over different universes"
        );
        self.requests.extend_from_slice(&other.requests);
        self.distinct_prefix = std::sync::OnceLock::new();
    }
}

/// Precomputed per-request sequence structure used by the convex program
/// (§2.1): for each time `t`, the occurrence number `r(p_t, t)` of the
/// requested page (1-based, i.e. its interval index `j(p_t, t)`), and the
/// running distinct-page count `|B(t)|`.
#[derive(Clone, Debug)]
pub struct TraceIndex {
    /// `occurrence[t]` = how many times `p_t` has been requested in
    /// `σ[0..=t]` (so the first request of a page has occurrence 1). This
    /// is the paper's interval index `j(p_t, t)` of the interval *opened*
    /// by the request at `t`.
    pub occurrence: Vec<u32>,
    /// `distinct[t]` = `|B(t)|`, the number of distinct pages in `σ[0..=t]`.
    pub distinct: Vec<u32>,
    /// `total_requests[p]` = `r(p, T)`, total requests of page `p`.
    pub total_requests: Vec<u32>,
    /// `request_times[p]` = ascending times at which `p` is requested, so
    /// `request_times[p][j-1]` is the paper's `t(p, j)`.
    pub request_times: Vec<Vec<Time>>,
}

impl TraceIndex {
    fn build(trace: &Trace) -> Self {
        let pages = trace.universe.num_pages() as usize;
        let mut seen_count = vec![0u32; pages];
        let mut occurrence = Vec::with_capacity(trace.len());
        let mut distinct = Vec::with_capacity(trace.len());
        let mut request_times: Vec<Vec<Time>> = vec![Vec::new(); pages];
        let mut distinct_so_far = 0u32;
        for (t, r) in trace.iter() {
            let c = &mut seen_count[r.page.index()];
            if *c == 0 {
                distinct_so_far += 1;
            }
            *c += 1;
            occurrence.push(*c);
            distinct.push(distinct_so_far);
            request_times[r.page.index()].push(t);
        }
        TraceIndex {
            occurrence,
            distinct,
            total_requests: seen_count,
            request_times,
        }
    }

    /// `r(p, T)`: total number of requests to `p`.
    #[inline]
    pub fn total_requests(&self, page: PageId) -> u32 {
        self.total_requests[page.index()]
    }

    /// The paper's `t(p, j)`: time of the `j`-th (1-based) request of `p`,
    /// or `None` if `p` is requested fewer than `j` times.
    pub fn request_time(&self, page: PageId, j: u32) -> Option<Time> {
        self.request_times[page.index()]
            .get((j - 1) as usize)
            .copied()
    }
}

/// Incremental construction of a [`Trace`].
#[derive(Clone, Debug)]
pub struct TraceBuilder {
    universe: Universe,
    requests: Vec<Request>,
}

impl TraceBuilder {
    /// Start an empty trace over `universe`.
    pub fn new(universe: Universe) -> Self {
        TraceBuilder {
            universe,
            requests: Vec::new(),
        }
    }

    /// Append a request for `page`.
    pub fn push(&mut self, page: PageId) -> &mut Self {
        let r = self.universe.request(page);
        self.requests.push(r);
        self
    }

    /// Append requests for each page index in `pages`.
    pub fn push_all(&mut self, pages: &[u32]) -> &mut Self {
        for &p in pages {
            self.push(PageId(p));
        }
        self
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether no requests have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Finish and return the trace.
    pub fn build(self) -> Trace {
        Trace {
            universe: self.universe,
            requests: self.requests,
            distinct_prefix: std::sync::OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Trace {
        let u = Universe::uniform(2, 2); // u0: p0 p1, u1: p2 p3
        Trace::from_page_indices(&u, &[0, 2, 0, 3, 2, 0])
    }

    #[test]
    fn universe_ownership() {
        let u = Universe::uniform(3, 2);
        assert_eq!(u.num_pages(), 6);
        assert_eq!(u.owner(PageId(0)), UserId(0));
        assert_eq!(u.owner(PageId(5)), UserId(2));
        assert_eq!(u.pages_of(UserId(1)), vec![PageId(2), PageId(3)]);
    }

    #[test]
    fn universe_with_sizes() {
        let u = Universe::with_sizes(&[1, 3]);
        assert_eq!(u.num_pages(), 4);
        assert_eq!(u.owner(PageId(0)), UserId(0));
        assert_eq!(u.owner(PageId(3)), UserId(1));
        assert_eq!(u.pages_of(UserId(0)), vec![PageId(0)]);
    }

    #[test]
    fn try_owner_is_total() {
        let u = Universe::uniform(2, 2);
        assert_eq!(u.try_owner(PageId(3)), Some(UserId(1)));
        assert_eq!(u.try_owner(PageId(4)), None);
        assert_eq!(u.owners().len(), 4);
        assert_eq!(u.owners()[0], UserId(0));
    }

    #[test]
    #[should_panic(expected = "owned by")]
    fn universe_rejects_bad_owner() {
        Universe::new(1, vec![UserId(1)]);
    }

    #[test]
    fn trace_basics() {
        let t = small();
        assert_eq!(t.len(), 6);
        assert_eq!(t.at(1).page, PageId(2));
        assert_eq!(t.at(1).user, UserId(1));
        assert_eq!(t.request_counts_per_user(), vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn trace_rejects_unknown_page() {
        let u = Universe::uniform(1, 2);
        Trace::from_page_indices(&u, &[5]);
    }

    #[test]
    fn distinct_counts() {
        let t = small();
        assert_eq!(t.distinct_pages_through(0), 1);
        assert_eq!(t.distinct_pages_through(2), 2);
        assert_eq!(t.distinct_pages_through(3), 3);
        assert_eq!(t.distinct_pages_through(5), 3);
    }

    #[test]
    fn distinct_counts_are_stable_across_repeated_calls() {
        let t = small();
        // Every (t, expected) pair queried repeatedly, out of order, must
        // keep returning the same value from the memoized prefix table.
        let expected = [(0, 1), (2, 2), (3, 3), (5, 3), (1, 2), (4, 3)];
        for _ in 0..3 {
            for &(time, want) in &expected {
                assert_eq!(t.distinct_pages_through(time), want);
            }
        }
        // The memo agrees with TraceIndex, the other prefix computation.
        let idx = t.index();
        for time in 0..t.len() {
            assert_eq!(
                t.distinct_pages_through(time as Time),
                idx.distinct[time] as usize
            );
        }
    }

    #[test]
    fn extend_with_invalidates_distinct_memo() {
        let u = Universe::uniform(1, 3);
        let mut a = Trace::from_page_indices(&u, &[0, 0]);
        assert_eq!(a.distinct_pages_through(1), 1); // memo built here
        let b = Trace::from_page_indices(&u, &[1, 2]);
        a.extend_with(&b);
        assert_eq!(a.distinct_pages_through(1), 1);
        assert_eq!(a.distinct_pages_through(3), 3);
    }

    #[test]
    fn index_occurrences_and_times() {
        let t = small();
        let idx = t.index();
        // p0 requested at times 0, 2, 5 → occurrences 1, 2, 3.
        assert_eq!(idx.occurrence[0], 1);
        assert_eq!(idx.occurrence[2], 2);
        assert_eq!(idx.occurrence[5], 3);
        assert_eq!(idx.total_requests(PageId(0)), 3);
        assert_eq!(idx.total_requests(PageId(1)), 0);
        assert_eq!(idx.request_time(PageId(0), 2), Some(2));
        assert_eq!(idx.request_time(PageId(0), 4), None);
        assert_eq!(idx.distinct, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn builder_round_trip() {
        let u = Universe::uniform(1, 3);
        let mut b = TraceBuilder::new(u.clone());
        assert!(b.is_empty());
        b.push(PageId(0)).push(PageId(2));
        b.push_all(&[1, 1]);
        assert_eq!(b.len(), 4);
        let t = b.build();
        assert_eq!(t.requests().len(), 4);
        assert_eq!(t.at(3).page, PageId(1));
    }

    #[test]
    fn extend_with_concatenates() {
        let u = Universe::uniform(1, 2);
        let mut a = Trace::from_page_indices(&u, &[0, 1]);
        let b = Trace::from_page_indices(&u, &[1, 0]);
        a.extend_with(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.at(2).page, PageId(1));
    }

    #[test]
    fn serde_round_trip_shape() {
        // serde derives exist; smoke-test Clone/Eq on Universe instead of a
        // concrete format (no serde_json in the dependency budget).
        let u = Universe::uniform(2, 2);
        let u2 = u.clone();
        assert_eq!(u, u2);
    }
}
