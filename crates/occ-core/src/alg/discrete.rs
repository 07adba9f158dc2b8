//! `ConvexCaching` — the efficient implementation of ALG-DISCRETE
//! (Figure 3 of the paper).
//!
//! # From Figure 3 to closed form
//!
//! Figure 3 maintains a budget `B(p)` per cached page and, on every
//! eviction of a page `p` owned by user `u`, performs two `O(k)` sweeps:
//!
//! 1. `B(p') ← B(p') − B(p)` for every other cached page `p'` (the dual
//!    variable `y_t` rises by `B(p)`), and
//! 2. `B(p') ← B(p') + f'_u(m+2) − f'_u(m+1)` for every cached page of the
//!    same user `u` (the user's marginal eviction cost just grew).
//!
//! Both sweeps collapse: rule 1 is a global offset `Y = Σ_t y_t` (subtract
//! lazily), and rule 2 *telescopes* over a user's successive evictions, so
//! at any moment
//!
//! ```text
//! B(p) = g_u(m_u) − (Y − Y_p)
//! ```
//!
//! where `g_u(m) = f'_u(m+1)` (or the discrete marginal, §2.5), `m_u` is
//! user `u`'s current eviction count, and `Y_p` is the value of the global
//! offset at `p`'s most recent request. The eviction victim is therefore
//! `argmin_p [g_u(m_u) + Y_p]`, and the new offset is exactly that
//! minimum key (`Y ← Y + B(victim)`).
//!
//! Within one user the `g` term is common, so the per-user minimum is the
//! page with the smallest `Y_p`. Each eviction then does an `O(n)` scan
//! across users (`n` = number of users, typically ≪ `k`).
//!
//! # The `O(1)` convex fast path
//!
//! For *convex* costs the keys `g_u(m_u) + Y_p` only grow, budgets stay
//! non-negative and `Y` is non-decreasing — the dual feasibility the
//! analysis needs (asserted in debug builds, exposed via
//! [`ConvexCaching::diagnostics`]). Monotone `Y` has a structural
//! consequence: the `Y_p` recorded at successive touches of one user's
//! pages are non-decreasing in touch order, so ordering a user's cached
//! pages by `(Y_p, seq)` is *identical* to ordering them by touch
//! recency. The per-user minimum is simply the least-recently-touched
//! page — maintained in an intrusive doubly-linked list per user at
//! `O(1)` per request with no allocation, instead of `O(log k)` in an
//! ordered set.
//!
//! The list links live *inside* the per-page node, next to the only
//! other per-page state the closed form needs: one 24-byte `Node
//! { y: Y_p, seq, prev, next }` per page in one `Vec`. A touch therefore
//! writes one line of per-page state — the node, in a single store —
//! plus the neighbours it splices, where separate `y_at`/`last_seq`/
//! `prev`/`next`/`list_of` arrays dirtied up to five lines scattered
//! across the universe. The list ends sit in the owner's `UserLane`,
//! and no per-page list id is stored: each page has exactly one owner,
//! so a page is linked iff `prev != NIL` or it is its owner lane's
//! `head`.
//!
//! This holds in floating point, not just in exact arithmetic: `Y` is
//! always set to the minimum key, every surviving key is `≥` that
//! minimum, and both touches (`key = g + Y`, `g ≥ 0`) and marginal
//! growth (`g` non-decreasing in `m` — convexity) move keys upward under
//! monotone rounding. The fast path is selected at construction iff
//! [`CostProfile::all_convex`] holds.
//!
//! For non-convex costs (allowed per §2.5, no guarantee) `Y` can
//! decrease, a later touch can record a *smaller* `Y_p`, and recency
//! order no longer agrees with key order. The policy then falls back to
//! the original per-user `BTreeSet` keyed by `(Y_p, seq, page)`, which
//! stays correct because it orders by `Y_p` directly rather than relying
//! on insertion order; it reads and writes `(Y_p, seq)` in the same
//! nodes and leaves their links unused. Equivalence of both paths
//! against the literal Figure 3 transcription is enforced by
//! `DiscreteReference` property tests.
//!
//! # The per-user arena
//!
//! The eviction scan is `O(n)` over users, and the marginal
//! `g_u(m_u) = f'_u(m_u + 1)` depends only on `(u, m_u)` — yet the naive
//! scan re-evaluates it through an `Arc<dyn CostFunction>` for every
//! user on every eviction, which is `n` virtual calls (plus `exp`/`ln`
//! for monomial costs) per victim and is exactly what halves
//! multi-tenant throughput. All per-user state therefore lives in one
//! contiguous arena (`UserLane`, one `Vec` indexed by user id): the
//! eviction count `m_u` next to the **memoized, already NaN-clamped**
//! marginal `g_u(m_u)` and the `head`/`tail` of the user's recency
//! list. The marginal is recomputed only when a user's `m` changes (once
//! per eviction, for the victim's owner — and once per user at
//! startup/restore), so the scan reads one 24-byte lane and one head
//! node per user and does pure float compares. Decisions are
//! bit-identical to recomputation: the marginal is a pure function of
//! `(mode, u, m)` and the clamp commutes with memoization.

use crate::alg::tiebreak::{Candidate, TieBreak};
use crate::cost::{CostProfile, Marginals};
use occ_sim::{EngineCtx, PageId, PolicyState, ReplacementPolicy, SnapshotError, UserId};
use std::collections::BTreeSet;

/// Totally ordered `f64` key (never NaN in this module).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Key(f64);

impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Offset magnitude beyond which stored `Y_p` values are rebased to keep
/// float resolution (budgets are differences of same-magnitude keys).
const RENORMALIZE_AT: f64 = 1e13;

/// The "no page" link.
const NIL: u32 = u32::MAX;

/// Runtime diagnostics exposed for tests and experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgDiagnostics {
    /// Smallest eviction budget (`y_t`) charged so far. Non-negative for
    /// convex costs — dual feasibility.
    pub min_budget: f64,
    /// Total evictions performed.
    pub evictions: u64,
    /// Current global dual offset `Y = Σ y_t`.
    pub global_y: f64,
    /// How many times the offset was rebased.
    pub renormalizations: u64,
    /// NaN marginals encountered and clamped to `+∞` while
    /// (re)computing a user's memoized marginal (a pathological cost
    /// function; nonzero means the victim choice degraded to "avoid
    /// that user" rather than crashing).
    pub nan_marginals: u64,
}

/// All per-page state: the closed form's `(Y_p, seq)` and, on the fast
/// path, the page's links in its owner's recency list (oldest at the
/// lane's `head`). Unlinked pages have `prev == next == NIL`.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Global offset `Y_p` at the page's last request.
    y: f64,
    /// Sequence number of the page's last request.
    seq: u64,
    /// Next-older page of the same owner, or `NIL`.
    prev: u32,
    /// Next-newer page of the same owner, or `NIL`.
    next: u32,
}

impl Node {
    const FRESH: Node = Node {
        y: 0.0,
        seq: 0,
        prev: NIL,
        next: NIL,
    };
}

/// One lane of the contiguous per-user arena: all per-user state the
/// eviction scan needs, packed so the `O(n)` victim scan touches a
/// single sequential allocation.
#[derive(Clone, Copy, Debug)]
struct UserLane {
    /// Eviction count `m(u, t)`.
    m: u64,
    /// Memoized marginal `g_u(m)`, already NaN-clamped to `+∞`.
    /// Invariant: equals `clamp(next_eviction_cost(mode, u, m))` for the
    /// lane's current `m` — recomputed exactly when `m` changes.
    g: f64,
    /// Oldest page of the user's recency list (fast path), or `NIL`.
    head: u32,
    /// Newest page of the user's recency list (fast path), or `NIL`.
    tail: u32,
}

impl UserLane {
    fn new(m: u64, g: f64) -> Self {
        UserLane {
            m,
            g,
            head: NIL,
            tail: NIL,
        }
    }
}

const _: () = assert!(std::mem::size_of::<Node>() == 24);
const _: () = assert!(std::mem::size_of::<UserLane>() == 24);

/// The paper's cost-aware online replacement policy (ALG-DISCRETE).
#[derive(Debug)]
pub struct ConvexCaching {
    costs: CostProfile,
    mode: Marginals,
    tiebreak: TieBreak,
    // --- state, lazily sized on first use ---
    ready: bool,
    global_y: f64,
    /// Total offset removed by renormalizations, so
    /// [`Self::cumulative_dual_offset`] reports the monotone dual
    /// trajectory `Σ_t y_t` regardless of rebasing.
    y_shifted: f64,
    seq: u64,
    /// The per-user arena: eviction count, memoized marginal and
    /// recency-list ends per user, one contiguous allocation indexed by
    /// user id.
    users: Vec<UserLane>,
    /// The per-page nodes, indexed by page id.
    nodes: Vec<Node>,
    /// Whether the `O(1)` convex fast path is active (decided at
    /// construction from [`CostProfile::all_convex`]). Touch order
    /// equals `(Y_p, seq)` order when `Y` is monotone.
    fast: bool,
    /// Slow path (non-convex costs): per-user ordered set of cached
    /// pages, `(Y_p, seq, page)`.
    sets: Vec<BTreeSet<(Key, u64, u32)>>,
    diag: AlgDiagnostics,
}

impl ConvexCaching {
    /// Create the policy for the given per-user cost profile, using the
    /// analytic derivative marginals and LRU-like tie-breaking (the
    /// paper's defaults).
    pub fn new(costs: CostProfile) -> Self {
        let fast = costs.all_convex();
        ConvexCaching {
            costs,
            mode: Marginals::Derivative,
            tiebreak: TieBreak::OldestRequest,
            ready: false,
            global_y: 0.0,
            y_shifted: 0.0,
            seq: 0,
            users: Vec::new(),
            nodes: Vec::new(),
            fast,
            sets: Vec::new(),
            diag: AlgDiagnostics {
                min_budget: f64::INFINITY,
                ..Default::default()
            },
        }
    }

    /// Use discrete marginals `f(m+1) − f(m)` instead of derivatives
    /// (§2.5; required for discontinuous cost functions).
    pub fn with_marginals(mut self, mode: Marginals) -> Self {
        self.mode = mode;
        self
    }

    /// Select the tie-breaking rule (ablation axis E8).
    pub fn with_tiebreak(mut self, tb: TieBreak) -> Self {
        self.tiebreak = tb;
        self
    }

    /// Runtime diagnostics (dual feasibility, eviction count, offset).
    pub fn diagnostics(&self) -> AlgDiagnostics {
        let mut d = self.diag;
        d.global_y = self.cumulative_dual_offset();
        d
    }

    /// The cumulative dual offset `Y = Σ_t y_t`: the monotone (for
    /// convex costs) dual trajectory of Figure 3, unaffected by internal
    /// float rebasing. This is the quantity `occ-probe`'s `DualTrace`
    /// samples per epoch.
    pub fn cumulative_dual_offset(&self) -> f64 {
        self.y_shifted + self.global_y
    }

    /// Per-user eviction counts `m(·, t)` so far, indexed by user id —
    /// empty until the first request arrives (state is lazily sized).
    /// Returned owned: the counts live interleaved with the memoized
    /// marginals in the per-user arena, not as a standalone slice.
    pub fn eviction_counts(&self) -> Vec<u64> {
        self.users.iter().map(|lane| lane.m).collect()
    }

    /// The cost profile this policy optimizes against.
    pub fn costs(&self) -> &CostProfile {
        &self.costs
    }

    /// The running primal objective under eviction accounting:
    /// `Σ_i f_i(m_i)` with `m_i` the per-user eviction counts so far.
    /// After a run with the §2.1 flush this equals the paper's total
    /// cost `Σ_i f_i(a_i)` exactly.
    pub fn primal_cost(&self) -> f64 {
        self.users
            .iter()
            .enumerate()
            .map(|(u, lane)| self.costs.user(UserId(u as u32)).eval(lane.m as f64))
            .sum()
    }

    /// Whether the `O(1)` intrusive-list fast path is active (true iff
    /// every cost function in the profile is convex).
    pub fn uses_fast_path(&self) -> bool {
        self.fast
    }

    /// Current eviction count of a user (the algorithm's `m(u, t)`).
    pub fn eviction_count(&self, user: UserId) -> u64 {
        self.users.get(user.index()).map(|lane| lane.m).unwrap_or(0)
    }

    /// Compute `g_u(m)` with the NaN→`+∞` clamp, counting clamps in the
    /// diagnostics. Called exactly when a lane's `m` changes (and once
    /// per user at startup), never during the eviction scan itself.
    fn clamped_marginal(&mut self, u: usize, m: u64) -> f64 {
        let g = self
            .costs
            .next_eviction_cost(self.mode, UserId(u as u32), m);
        if g.is_nan() {
            // A pathological cost function. +∞ is the graceful reading:
            // an unknowable marginal makes the user's pages the *last*
            // resort, and the run keeps going.
            self.diag.nan_marginals = self.diag.nan_marginals.saturating_add(1);
            f64::INFINITY
        } else {
            g
        }
    }

    /// Size the state for the universe on first use. Out of line and
    /// cold: callers keep only the `ready` test on their hot path.
    #[cold]
    #[inline(never)]
    fn init(&mut self, ctx: &EngineCtx) {
        let users = ctx.universe.num_users() as usize;
        let pages = ctx.universe.num_pages() as usize;
        assert!(
            self.costs.num_users() as usize >= users,
            "cost profile covers {} users but the universe has {users}",
            self.costs.num_users()
        );
        self.users.clear();
        self.users.reserve_exact(users);
        for u in 0..users {
            let g = self.clamped_marginal(u, 0);
            self.users.push(UserLane::new(0, g));
        }
        self.nodes = vec![Node::FRESH; pages];
        if !self.fast {
            self.sets = vec![BTreeSet::new(); users];
        }
        self.ready = true;
    }

    /// Record a request of `page` (hit or fresh insert): open a new
    /// interval, i.e. reset the page's budget to `g_u(m_u)`.
    #[inline]
    fn touch(&mut self, ctx: &EngineCtx, page: PageId) {
        if !self.ready {
            self.init(ctx);
        }
        let u = ctx.universe.owner(page).index();
        self.seq += 1;
        if self.fast {
            self.touch_listed(u, page.0);
        } else {
            self.touch_ordered(u, page.0);
        }
    }

    /// Fast-path touch: monotone `Y` makes touch order equal key order,
    /// so moving the page to the back of its owner's list is the whole
    /// update. O(1), no allocation, and the page's node is written in
    /// one store.
    #[inline]
    fn touch_listed(&mut self, u: usize, p: u32) {
        let lane = &mut self.users[u];
        let node = self.nodes[p as usize];
        // Already the newest page (a re-touch of the hottest page, the
        // common case under skew): the links stay as they are.
        let prev = if lane.tail == p {
            node.prev
        } else {
            if node.prev != NIL || lane.head == p {
                // Linked but not the tail, so it has a successor.
                if node.prev == NIL {
                    lane.head = node.next;
                } else {
                    self.nodes[node.prev as usize].next = node.next;
                }
                self.nodes[node.next as usize].prev = node.prev;
            }
            let old_tail = lane.tail;
            if old_tail == NIL {
                lane.head = p;
            } else {
                self.nodes[old_tail as usize].next = p;
            }
            lane.tail = p;
            old_tail
        };
        self.nodes[p as usize] = Node {
            y: self.global_y,
            seq: self.seq,
            prev,
            next: NIL,
        };
    }

    /// Slow-path touch: re-key the page's entry in its owner's set (a
    /// hit drops the previous entry; a fresh insert has none).
    fn touch_ordered(&mut self, u: usize, p: u32) {
        let node = &mut self.nodes[p as usize];
        let set = &mut self.sets[u];
        set.remove(&(Key(node.y), node.seq, p));
        node.y = self.global_y;
        node.seq = self.seq;
        set.insert((Key(self.global_y), self.seq, p));
    }

    /// Unlink fast-path page `p` from owner `u`'s list. It must be linked.
    fn unlink(&mut self, u: usize, p: u32) {
        let Node { prev, next, .. } = self.nodes[p as usize];
        let lane = &mut self.users[u];
        if prev == NIL {
            lane.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            lane.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        let node = &mut self.nodes[p as usize];
        node.prev = NIL;
        node.next = NIL;
    }

    /// Append fast-path page `p` to the back of owner `u`'s list. It must
    /// be unlinked.
    fn push_back(&mut self, u: usize, p: u32) {
        let lane = &mut self.users[u];
        self.nodes[p as usize].prev = lane.tail;
        if lane.tail == NIL {
            lane.head = p;
        } else {
            self.nodes[lane.tail as usize].next = p;
        }
        lane.tail = p;
    }

    /// The best victim across users, given each user's minimum page as
    /// `(Y_p, seq, page)`. Pure float arithmetic over the arena with the
    /// memoized, already-clamped marginals — no cost-function calls.
    #[inline(always)]
    fn best_candidate(
        &self,
        user_min: impl Fn(usize, &UserLane) -> Option<(f64, u64, u32)>,
    ) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        for (u, lane) in self.users.iter().enumerate() {
            let Some((y_p, seq, page)) = user_min(u, lane) else {
                continue;
            };
            let cand = Candidate {
                key: lane.g + y_p,
                seq,
                page,
                user: u as u32,
            };
            if best.is_none_or(|b| cand.beats(&b, self.tiebreak, 0.0)) {
                best = Some(cand);
            }
        }
        best
    }

    fn renormalize(&mut self) {
        let shift = self.global_y;
        // The fast path orders by recency, not by stored keys, so rebasing
        // is just the subtraction from the nodes; only the slow path must
        // rebuild its ordered sets.
        for set in &mut self.sets {
            let rebased: BTreeSet<_> = set
                .iter()
                .map(|&(Key(y), s, p)| (Key(y - shift), s, p))
                .collect();
            *set = rebased;
        }
        for node in &mut self.nodes {
            node.y -= shift;
        }
        self.y_shifted += shift;
        self.global_y = 0.0;
        self.diag.renormalizations += 1;
    }

    /// Current budget of a cached page (diagnostic; `O(1)` — reads the
    /// memoized marginal, no cost-function call).
    pub fn budget_of(&self, user: UserId, page: PageId) -> f64 {
        self.users[user.index()].g - (self.global_y - self.nodes[page.index()].y)
    }

    /// The pages the policy tracks (exactly the cached ones), user by
    /// user in victim order: each recency list head to tail on the fast
    /// path, each ordered set in key order on the slow path.
    fn cached_pages(&self) -> Vec<u64> {
        let mut pages = Vec::new();
        if self.fast {
            for lane in &self.users {
                let mut p = lane.head;
                while p != NIL {
                    pages.push(p as u64);
                    p = self.nodes[p as usize].next;
                }
            }
        } else {
            for set in &self.sets {
                pages.extend(set.iter().map(|&(_, _, p)| p as u64));
            }
        }
        pages
    }
}

/// Check a checkpoint's `pages` list against the restored cache: every
/// entry a cached page of the universe, none listed twice, and none of
/// the cached pages left out.
fn check_cached_list(ctx: &EngineCtx, listed: &[u64]) -> Result<(), SnapshotError> {
    let corrupt = |msg: String| Err(SnapshotError::Corrupt(msg));
    let pages = ctx.universe.num_pages() as u64;
    for &p in listed {
        if p >= pages {
            return corrupt(format!(
                "policy.pages lists page {p} outside the {pages}-page universe"
            ));
        }
        if !ctx.cache.contains(PageId(p as u32)) {
            return corrupt(format!("policy.pages lists page {p}, which is not cached"));
        }
    }
    let mut sorted = listed.to_vec();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return corrupt(format!("policy.pages lists page {} twice", w[0]));
    }
    if listed.len() != ctx.cache.len() {
        return corrupt(format!(
            "policy.pages lists {} pages but {} are cached",
            listed.len(),
            ctx.cache.len()
        ));
    }
    Ok(())
}

impl ReplacementPolicy for ConvexCaching {
    fn name(&self) -> String {
        format!("convex-caching({:?})", self.mode)
    }

    fn on_hit(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn on_insert(&mut self, ctx: &EngineCtx, page: PageId) {
        self.touch(ctx, page);
    }

    fn choose_victim(&mut self, ctx: &EngineCtx, _incoming: PageId) -> PageId {
        if !self.ready {
            self.init(ctx);
        }
        // Per-user minimum: list head on the fast path (touch order
        // equals key order under monotone `Y`), set minimum otherwise.
        let best = if self.fast {
            self.best_candidate(|_, lane| {
                (lane.head != NIL).then(|| {
                    let node = &self.nodes[lane.head as usize];
                    (node.y, node.seq, lane.head)
                })
            })
        } else {
            self.best_candidate(|u, _| self.sets[u].first().map(|&(Key(y), s, p)| (y, s, p)))
        };
        let c = best.expect("full cache implies at least one cached page");
        debug_assert!(ctx.cache.contains(PageId(c.page)));

        // Charge the dual: y_t = B(victim) = key − Y; the new offset is the
        // victim's key. Budgets of all remaining pages shrink implicitly.
        let budget = c.key - self.global_y;
        self.diag.min_budget = self.diag.min_budget.min(budget);
        debug_assert!(
            !self.fast || budget >= -1e-9 || !c.key.is_finite(),
            "convex costs must keep budgets non-negative, got {budget}"
        );
        if c.key.is_finite() {
            self.global_y = c.key;
        }
        // A non-finite key means every candidate was pathological (the
        // NaN→∞ clamp, or an overflowing marginal). The victim choice is
        // still deterministic via the tie-break, but advancing `Y` to ∞
        // would poison every future budget (∞ − ∞ = NaN), so the dual
        // stays put for this eviction.
        self.diag.evictions = self.diag.evictions.saturating_add(1);

        let u = c.user as usize;
        if self.fast {
            self.unlink(u, c.page);
        } else {
            let y = self.nodes[c.page as usize].y;
            self.sets[u].remove(&(Key(y), c.seq, c.page));
        }
        // `m` changed for exactly one user: refresh exactly that lane's
        // memoized marginal. Every other lane stays valid.
        let m = self.users[u].m.saturating_add(1);
        self.users[u].m = m;
        self.users[u].g = self.clamped_marginal(u, m);

        if self.global_y.abs() > RENORMALIZE_AT {
            self.renormalize();
        }
        PageId(c.page)
    }

    fn on_external_removal(&mut self, ctx: &EngineCtx, page: PageId) {
        // Drop the page's entry from its owner's structure so it can
        // never be selected as a victim while uncached. The dual state
        // (Y, m) is untouched: an external removal is not an eviction.
        let u = ctx.universe.owner(page).index();
        let node = self.nodes[page.index()];
        if self.fast {
            if node.prev != NIL || self.users[u].head == page.0 {
                self.unlink(u, page.0);
            }
        } else {
            self.sets[u].remove(&(Key(node.y), node.seq, page.0));
        }
    }

    fn reset(&mut self) {
        self.ready = false;
        self.global_y = 0.0;
        self.y_shifted = 0.0;
        self.seq = 0;
        self.users.clear();
        self.nodes.clear();
        self.sets.clear();
        self.diag = AlgDiagnostics {
            min_budget: f64::INFINITY,
            ..Default::default()
        };
    }

    fn save_state(&self) -> Option<PolicyState> {
        let mut s = PolicyState::new();
        // Configuration tags: the cost profile itself cannot travel with
        // a snapshot (functions aren't serializable), so the resuming
        // policy is constructed independently and these tags let
        // `load_state` reject a differently-configured twin.
        s.set_text("tiebreak", self.tiebreak.label());
        s.set_u64("fast", self.fast as u64);
        s.set_u64("ready", self.ready as u64);
        s.set_f64("global_y", self.global_y);
        s.set_f64("y_shifted", self.y_shifted);
        s.set_u64("seq", self.seq);
        s.set_u64s("m", self.eviction_counts());
        // Only the cached pages' nodes travel, as `(Y_p, seq)` columns
        // aligned with `pages`: an evicted page's pair is overwritten by
        // its next touch before anything reads it. The list is each
        // user's victim order (recency list head to tail, or set order),
        // so it holds at most k pages; the links are rebuilt from the
        // cache on load.
        let pages = self.cached_pages();
        let (y_at, last_seq) = pages
            .iter()
            .map(|&p| {
                let n = &self.nodes[p as usize];
                (n.y, n.seq)
            })
            .unzip();
        s.set_u64s("pages", pages);
        s.set_f64s("y_at", y_at);
        s.set_u64s("last_seq", last_seq);
        s.set_f64("diag_min_budget", self.diag.min_budget);
        s.set_u64("diag_evictions", self.diag.evictions);
        s.set_u64("diag_renormalizations", self.diag.renormalizations);
        s.set_u64("diag_nan_marginals", self.diag.nan_marginals);
        Some(s)
    }

    fn load_state(&mut self, ctx: &EngineCtx, state: &PolicyState) -> Result<(), SnapshotError> {
        let corrupt = SnapshotError::Corrupt;
        let tiebreak = state.text("tiebreak")?;
        if tiebreak != self.tiebreak.label() {
            return Err(SnapshotError::Mismatch(format!(
                "checkpoint used tie-break '{tiebreak}', policy uses '{}'",
                self.tiebreak.label()
            )));
        }
        if state.u64("fast")? != self.fast as u64 {
            return Err(SnapshotError::Mismatch(
                "checkpoint and policy disagree on convexity (fast path selection); \
                 the resuming cost profile differs from the checkpointed one"
                    .into(),
            ));
        }
        self.reset();
        if state.u64("ready")? == 0 {
            // Checkpointed before the first request: fresh state is it.
            return Ok(());
        }
        let users = ctx.universe.num_users() as usize;
        let pages = ctx.universe.num_pages() as usize;
        if (self.costs.num_users() as usize) < users {
            return Err(SnapshotError::Mismatch(format!(
                "cost profile covers {} users but the universe has {users}",
                self.costs.num_users()
            )));
        }
        let global_y = state.f64("global_y")?;
        let y_shifted = state.f64("y_shifted")?;
        if !global_y.is_finite() || !y_shifted.is_finite() {
            return Err(corrupt("policy.global_y/y_shifted must be finite".into()));
        }
        let min_budget = state.f64("diag_min_budget")?;
        if min_budget.is_nan() {
            return Err(corrupt("policy.diag_min_budget is NaN".into()));
        }
        let m = state.u64s_len("m", users)?;
        // A bag without `pages` is the dense layout of format v1: one
        // `(Y_p, seq)` pair per universe page.
        let listed = state
            .get("pages")
            .map(|_| state.u64s("pages"))
            .transpose()?;
        let columns = listed.map_or(pages, <[u64]>::len);
        let y_at = state.f64s_len("y_at", columns)?;
        let last_seq = state.u64s_len("last_seq", columns)?;
        if let Some(y) = y_at.iter().find(|y| !y.is_finite()) {
            return Err(corrupt(format!("policy.y_at holds non-finite value {y}")));
        }
        let seq = state.u64("seq")?;
        if let Some(s) = last_seq.iter().find(|&&s| s > seq) {
            return Err(corrupt(format!(
                "policy.last_seq holds {s} beyond the clock {seq}"
            )));
        }
        if let Some(listed) = listed {
            check_cached_list(ctx, listed)?;
        }

        self.global_y = global_y;
        self.y_shifted = y_shifted;
        self.seq = seq;
        // Rebuild the arena: `m` round-trips through the snapshot, the
        // memoized marginal is a pure function of it and is recomputed
        // here *silently* — the full (uncheckpointed) run already counted
        // these computes before the cut, and `diag_nan_marginals` below
        // restores that count, so counting again would break the
        // byte-identity of resumed runs.
        self.users = m
            .iter()
            .enumerate()
            .map(|(u, &m)| {
                let g = self
                    .costs
                    .next_eviction_cost(self.mode, UserId(u as u32), m);
                UserLane::new(m, if g.is_nan() { f64::INFINITY } else { g })
            })
            .collect();
        // Entry `i` of the columns is page `listed[i]` (v2) or page `i`
        // (v1); every other node stays fresh.
        self.nodes = vec![Node::FRESH; pages];
        for (i, (&y, &seq)) in y_at.iter().zip(last_seq).enumerate() {
            let p = listed.map_or(i, |l| l[i] as usize);
            self.nodes[p] = Node {
                y,
                seq,
                ..Node::FRESH
            };
        }
        self.diag = AlgDiagnostics {
            min_budget,
            evictions: state.u64("diag_evictions")?,
            global_y: 0.0,
            renormalizations: state.u64("diag_renormalizations")?,
            nan_marginals: state.u64("diag_nan_marginals")?,
        };

        // Rebuild the per-user page structures from the restored cache.
        // Fast path: ascending `seq` *is* touch order (monotone `Y`), so
        // sorting each user's cached pages by it reproduces the recency
        // lists exactly. Slow path: the sets are keyed by stored
        // `(Y_p, seq, page)` values, which round-tripped bit-exactly.
        if self.fast {
            let mut by_user: Vec<Vec<u32>> = vec![Vec::new(); users];
            for p in ctx.cache.iter() {
                by_user[ctx.universe.owner(p).index()].push(p.0);
            }
            for (u, mut cached) in by_user.into_iter().enumerate() {
                cached.sort_by_key(|&p| self.nodes[p as usize].seq);
                for p in cached {
                    self.push_back(u, p);
                }
            }
        } else {
            self.sets = vec![BTreeSet::new(); users];
            for p in ctx.cache.iter() {
                let node = self.nodes[p.index()];
                self.sets[ctx.universe.owner(p).index()].insert((Key(node.y), node.seq, p.0));
            }
        }
        self.ready = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Linear, Monomial};
    use occ_sim::{EventLog, Simulator, Trace, Universe};

    fn run(costs: CostProfile, universe: &Universe, pages: &[u32], k: usize) -> occ_sim::SimResult {
        let trace = Trace::from_page_indices(universe, pages);
        let mut alg = ConvexCaching::new(costs);
        Simulator::new(k).record_events(true).run(&mut alg, &trace)
    }

    #[test]
    fn single_user_linear_behaves_like_lru() {
        // With one user and linear cost, key = w + Y_p: pure recency.
        let u = Universe::single_user(4);
        let costs = CostProfile::uniform(1, Linear::unit());
        // LRU on 0 1 2 3 0 1 with k=3 evicts 0, then 1, then 2.
        let r = run(costs, &u, &[0, 1, 2, 3, 0, 1], 3);
        assert_eq!(r.total_misses(), 6);
        let ev: Vec<u32> = r
            .events
            .unwrap()
            .eviction_sequence()
            .iter()
            .map(|&(_, p)| p.0)
            .collect();
        assert_eq!(ev, vec![0, 1, 2]);
    }

    #[test]
    fn convex_cost_protects_heavier_user() {
        // u0 has quadratic cost, u1 linear. Interleave so both users keep
        // one page cached; evictions should skew towards the linear user.
        let u = Universe::uniform(2, 3); // u0: p0-2, u1: p3-5
        let costs = CostProfile::new(vec![
            std::sync::Arc::new(Monomial::power(2.0)) as crate::cost::CostFn,
            std::sync::Arc::new(Linear::unit()) as crate::cost::CostFn,
        ]);
        let mut pages = Vec::new();
        for round in 0..30u32 {
            pages.push(round % 3); // u0 cycles its 3 pages
            pages.push(3 + (round % 3)); // u1 cycles its 3 pages
        }
        let trace = Trace::from_page_indices(&u, &pages);
        let mut alg = ConvexCaching::new(costs);
        let r = Simulator::new(3).run(&mut alg, &trace);
        let m0 = r.stats.user(UserId(0)).evictions;
        let m1 = r.stats.user(UserId(1)).evictions;
        assert!(
            m1 > m0,
            "linear user should absorb more evictions: quadratic {m0} vs linear {m1}"
        );
    }

    #[test]
    fn budgets_stay_nonnegative_for_convex_costs() {
        let u = Universe::uniform(2, 4);
        let costs = CostProfile::uniform(2, Monomial::power(2.0));
        let pages: Vec<u32> = (0..200u32).map(|i| (i * 37 + i * i * 11) % 8).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let mut alg = ConvexCaching::new(costs);
        Simulator::new(3).run(&mut alg, &trace);
        let d = alg.diagnostics();
        assert!(d.evictions > 0);
        assert!(
            d.min_budget >= -1e-9,
            "min budget {} must be non-negative",
            d.min_budget
        );
    }

    #[test]
    fn reset_allows_reuse() {
        let u = Universe::single_user(3);
        let costs = CostProfile::uniform(1, Linear::unit());
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 0, 1, 2]);
        let mut alg = ConvexCaching::new(costs);
        let r1 = Simulator::new(2).run(&mut alg, &trace);
        alg.reset();
        let r2 = Simulator::new(2).run(&mut alg, &trace);
        assert_eq!(r1.miss_vector(), r2.miss_vector());
        assert_eq!(alg.eviction_count(UserId(0)), r2.stats.total_evictions());
    }

    #[test]
    fn renormalization_preserves_decisions() {
        // Force renormalization by huge weights, compare against a fresh
        // run with small weights (decisions scale-invariant for uniform
        // linear costs).
        let u = Universe::single_user(5);
        let pages: Vec<u32> = (0..300u32).map(|i| (i * 7 + 3) % 5).collect();
        let trace = Trace::from_page_indices(&u, &pages);

        let mut big = ConvexCaching::new(CostProfile::uniform(1, Linear::new(1e13)));
        let rb = Simulator::new(3).record_events(true).run(&mut big, &trace);
        assert!(
            big.diagnostics().renormalizations > 0,
            "renormalization should trigger"
        );

        let mut small = ConvexCaching::new(CostProfile::uniform(1, Linear::new(1.0)));
        let rs = Simulator::new(3)
            .record_events(true)
            .run(&mut small, &trace);
        assert_eq!(
            rb.events.unwrap().eviction_sequence(),
            rs.events.unwrap().eviction_sequence()
        );
    }

    #[test]
    fn fast_path_selection_follows_convexity() {
        use crate::cost::ThresholdCost;
        let convex = CostProfile::uniform(2, Monomial::power(2.0));
        assert!(ConvexCaching::new(convex).uses_fast_path());
        let non_convex = CostProfile::new(vec![
            std::sync::Arc::new(Linear::unit()) as crate::cost::CostFn,
            std::sync::Arc::new(ThresholdCost::new(1.0, 2, 5.0)) as crate::cost::CostFn,
        ]);
        assert!(!ConvexCaching::new(non_convex).uses_fast_path());
    }

    #[test]
    fn nan_marginals_degrade_to_avoiding_the_user() {
        use crate::cost::{CostPathology, FaultyCost};
        // u0's marginal turns NaN after 2 evictions; u1 is honest linear.
        // The guard clamps NaN to +∞, so once poisoned, u0's pages are
        // never evicted while u1 has cached pages — and nothing panics.
        let u = Universe::uniform(2, 4); // u0: p0-3, u1: p4-7
        let costs = CostProfile::new(vec![
            std::sync::Arc::new(FaultyCost::new(Linear::unit(), CostPathology::Nan, 3.0))
                as crate::cost::CostFn,
            std::sync::Arc::new(Linear::unit()) as crate::cost::CostFn,
        ]);
        let mut pages = Vec::new();
        for round in 0..60u32 {
            pages.push(round % 4);
            pages.push(4 + (round % 4));
        }
        let trace = Trace::from_page_indices(&u, &pages);
        let mut alg = ConvexCaching::new(costs);
        let r = Simulator::new(3).run(&mut alg, &trace);
        let d = alg.diagnostics();
        assert!(d.nan_marginals > 0, "the pathology must have fired");
        let m0 = r.stats.user(UserId(0)).evictions;
        let m1 = r.stats.user(UserId(1)).evictions;
        assert!(
            m1 > m0,
            "the poisoned user should be avoided: u0 {m0} vs u1 {m1}"
        );
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_on_both_paths() {
        use crate::cost::ThresholdCost;
        use occ_sim::{Request, SteppingEngine};

        let convex = CostProfile::uniform(3, Monomial::power(2.0));
        let non_convex = CostProfile::new(vec![
            std::sync::Arc::new(Linear::unit()) as crate::cost::CostFn,
            std::sync::Arc::new(ThresholdCost::new(1.0, 2, 5.0)) as crate::cost::CostFn,
            std::sync::Arc::new(Linear::new(2.0)) as crate::cost::CostFn,
        ]);

        for costs in [convex, non_convex] {
            let fast = ConvexCaching::new(costs.clone()).uses_fast_path();
            let u = Universe::uniform(3, 4);
            let mut state = 0xFEED_F00Du64;
            let pages: Vec<u32> = (0..500)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 12) as u32
                })
                .collect();
            let trace = Trace::from_page_indices(&u, &pages);
            let reqs: Vec<Request> = trace.requests().to_vec();
            let (k, cut) = (5, 231);

            let mut full_alg = ConvexCaching::new(costs.clone());
            let mut full =
                SteppingEngine::new(k, u.clone(), &mut full_alg).with_recorder(EventLog::new());
            for &r in &reqs {
                full.step(r);
            }
            let full_events: Vec<_> = full.recorder().iter().cloned().collect();
            let full_stats = full.stats().clone();
            let full_dual = full_alg.cumulative_dual_offset();
            let full_m = full_alg.eviction_counts();

            let mut head_alg = ConvexCaching::new(costs.clone());
            let mut head =
                SteppingEngine::new(k, u.clone(), &mut head_alg).with_recorder(EventLog::new());
            for &r in &reqs[..cut] {
                head.step(r);
            }
            let snap = head.snapshot().unwrap();
            let mut stitched: Vec<_> = head.recorder().iter().cloned().collect();

            let mut tail_alg = ConvexCaching::new(costs.clone());
            let mut tail = SteppingEngine::from_snapshot(&snap, &mut tail_alg)
                .unwrap()
                .with_recorder(EventLog::new());
            for &r in &reqs[cut..] {
                tail.step(r);
            }
            stitched.extend(tail.recorder().iter().cloned());
            let tail_stats = tail.stats().clone();

            assert_eq!(stitched, full_events, "fast={fast}: events diverged");
            assert_eq!(tail_stats, full_stats, "fast={fast}: stats diverged");
            assert_eq!(
                tail_alg.cumulative_dual_offset().to_bits(),
                full_dual.to_bits(),
                "fast={fast}: dual offset diverged"
            );
            assert_eq!(
                tail_alg.eviction_counts(),
                full_m,
                "fast={fast}: eviction counts diverged"
            );
        }
    }

    /// The convex (list) and non-convex (set) profiles over three
    /// users, a 12-page universe and a 400-request xorshift stream.
    fn two_paths() -> (Vec<CostProfile>, Universe, Vec<occ_sim::Request>) {
        use crate::cost::ThresholdCost;
        let convex = CostProfile::uniform(3, Monomial::power(2.0));
        let non_convex = CostProfile::new(vec![
            std::sync::Arc::new(Linear::unit()) as crate::cost::CostFn,
            std::sync::Arc::new(ThresholdCost::new(1.0, 2, 5.0)) as crate::cost::CostFn,
            std::sync::Arc::new(Linear::new(2.0)) as crate::cost::CostFn,
        ]);
        let u = Universe::uniform(3, 4);
        let mut state = 0x5EED_CAFEu64;
        let pages: Vec<u32> = (0..400)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 12) as u32
            })
            .collect();
        let reqs = Trace::from_page_indices(&u, &pages).requests().to_vec();
        (vec![convex, non_convex], u, reqs)
    }

    #[test]
    fn checkpoint_lists_only_cached_pages_in_victim_order() {
        use occ_sim::SteppingEngine;
        let (profiles, u, reqs) = two_paths();
        for costs in profiles {
            let k = 5;
            let mut alg = ConvexCaching::new(costs);
            let mut eng = SteppingEngine::new(k, u.clone(), &mut alg);
            for (i, &r) in reqs.iter().enumerate() {
                eng.step(r);
                let snap = eng.snapshot().unwrap();
                let listed = snap.policy.u64s("pages").unwrap();
                assert!(listed.len() <= k);
                let mut cached: Vec<u64> = eng.cache().iter().map(|p| p.0 as u64).collect();
                let mut sorted = listed.to_vec();
                cached.sort_unstable();
                sorted.sort_unstable();
                assert_eq!(sorted, cached, "step {i}: pages must be the cached set");
                assert_eq!(snap.policy.f64s("y_at").unwrap().len(), listed.len());
                assert_eq!(snap.policy.u64s("last_seq").unwrap().len(), listed.len());
            }
            // Per user, the list runs oldest key first: the next victim
            // among that user's pages leads.
            let snap = eng.snapshot().unwrap();
            let listed = snap.policy.u64s("pages").unwrap();
            let y = snap.policy.f64s("y_at").unwrap();
            let seq = snap.policy.u64s("last_seq").unwrap();
            for i in 1..listed.len() {
                let owner = |j: usize| u.owner(PageId(listed[j] as u32));
                if owner(i) == owner(i - 1) {
                    assert!((y[i - 1], seq[i - 1]) < (y[i], seq[i]));
                } else {
                    assert!(owner(i) > owner(i - 1), "users in id order");
                }
            }
        }
    }

    #[test]
    fn dense_v1_state_resumes_like_the_sparse_list() {
        use occ_sim::{PolicyState, SteppingEngine};
        let (profiles, u, reqs) = two_paths();
        for costs in profiles {
            let (k, cut) = (5, 173);
            let mut full = SteppingEngine::new(k, u.clone(), ConvexCaching::new(costs.clone()));
            for &r in &reqs {
                full.step(r);
            }
            let mut head_alg = ConvexCaching::new(costs.clone());
            let mut head = SteppingEngine::new(k, u.clone(), &mut head_alg);
            for &r in &reqs[..cut] {
                head.step(r);
            }
            let mut snap = head.snapshot().unwrap();
            // The v1 bag: no `pages`, one `(Y_p, seq)` pair per page.
            let mut dense = PolicyState::new();
            for (key, v) in snap.policy.fields() {
                match key.as_str() {
                    "pages" => {}
                    "y_at" => {
                        dense.set_f64s(key, head_alg.nodes.iter().map(|n| n.y).collect());
                    }
                    "last_seq" => {
                        dense.set_u64s(key, head_alg.nodes.iter().map(|n| n.seq).collect());
                    }
                    _ => {
                        dense.set(key, v.clone());
                    }
                }
            }
            snap.policy = dense;
            let mut tail =
                SteppingEngine::from_snapshot(&snap, ConvexCaching::new(costs.clone())).unwrap();
            for &r in &reqs[cut..] {
                tail.step(r);
            }
            assert_eq!(tail.stats(), full.stats());
            assert_eq!(tail.snapshot().unwrap(), full.snapshot().unwrap());
        }
    }

    #[test]
    fn malformed_page_lists_are_corrupt() {
        use occ_sim::{SnapshotError, StateValue, SteppingEngine};
        let (profiles, u, reqs) = two_paths();
        for costs in profiles {
            let k = 5;
            let mut eng = SteppingEngine::new(k, u.clone(), ConvexCaching::new(costs.clone()));
            for &r in &reqs[..100] {
                eng.step(r);
            }
            let snap = eng.snapshot().unwrap();
            let listed = snap.policy.u64s("pages").unwrap().to_vec();
            assert_eq!(listed.len(), k);
            let uncached = (0..12u64).find(|p| !listed.contains(p)).unwrap();
            let edit = |key: &str, f: &dyn Fn(&mut StateValue)| {
                let mut bad = snap.clone();
                let mut v = bad.policy.get(key).unwrap().clone();
                f(&mut v);
                bad.policy.set(key, v);
                bad
            };
            let pages = |f: &dyn Fn(&mut Vec<u64>)| {
                edit("pages", &|v| {
                    let StateValue::U64s(xs) = v else { panic!() };
                    f(xs)
                })
            };
            let cases = [
                ("out of range", pages(&|xs| xs[0] = 12)),
                ("far out of range", pages(&|xs| xs[0] = u64::MAX)),
                ("uncached", pages(&|xs| xs[0] = uncached)),
                ("listed twice", pages(&|xs| xs[1] = xs[0])),
                (
                    "short y_at",
                    edit("y_at", &|v| {
                        let StateValue::F64s(xs) = v else { panic!() };
                        xs.pop();
                    }),
                ),
                (
                    "long last_seq",
                    edit("last_seq", &|v| {
                        let StateValue::U64s(xs) = v else { panic!() };
                        xs.push(1);
                    }),
                ),
                ("cached page missing", {
                    let mut bad = snap.clone();
                    for key in ["pages", "last_seq"] {
                        let mut xs = bad.policy.u64s(key).unwrap().to_vec();
                        xs.pop();
                        bad.policy.set_u64s(key, xs);
                    }
                    let mut ys = bad.policy.f64s("y_at").unwrap().to_vec();
                    ys.pop();
                    bad.policy.set_f64s("y_at", ys);
                    bad
                }),
            ];
            for (why, bad) in cases {
                let err = SteppingEngine::from_snapshot(&bad, ConvexCaching::new(costs.clone()))
                    .err()
                    .unwrap_or_else(|| panic!("{why}: must be rejected"));
                assert!(matches!(err, SnapshotError::Corrupt(_)), "{why}: got {err}");
            }
        }
    }

    #[test]
    fn resume_rejects_differently_configured_policy() {
        use occ_sim::{ReplacementPolicy as _, SnapshotError, SteppingEngine};
        let u = Universe::single_user(4);
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 3, 0]);
        let mut alg = ConvexCaching::new(costs.clone());
        let mut eng = SteppingEngine::new(2, u, &mut alg);
        for &r in trace.requests() {
            eng.step(r);
        }
        let snap = eng.snapshot().unwrap();

        // Different tie-break: typed mismatch, not divergence.
        let mut other = ConvexCaching::new(costs.clone()).with_tiebreak(TieBreak::LowestPage);
        let Err(err) = SteppingEngine::from_snapshot(&snap, &mut other) else {
            panic!("mismatched tie-break must be rejected");
        };
        assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err}");

        // Different marginal mode changes the policy *name*, which the
        // engine-level restore catches first.
        let mut discrete =
            ConvexCaching::new(costs).with_marginals(crate::cost::Marginals::Discrete);
        assert_ne!(discrete.name(), snap.policy_name);
        let Err(err) = SteppingEngine::from_snapshot(&snap, &mut discrete) else {
            panic!("mismatched policy name must be rejected");
        };
        assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err}");
    }

    #[test]
    fn budget_of_reports_fresh_marginal_after_touch() {
        let u = Universe::single_user(3);
        let costs = CostProfile::uniform(1, Monomial::power(2.0));
        let trace = Trace::from_page_indices(&u, &[0]);
        let mut alg = ConvexCaching::new(costs);
        Simulator::new(2).run(&mut alg, &trace);
        // f(x)=x², m=0: budget = f'(1) = 2.
        assert!((alg.budget_of(UserId(0), PageId(0)) - 2.0).abs() < 1e-12);
    }
}
