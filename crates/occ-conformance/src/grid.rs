//! The conformance grid: which `check × policy × workload × cost ×
//! (n, k, β)` cells to run, and the named grids the CLI exposes.
//!
//! A [`Cell`] is a *pure description* — building traces, policies, and
//! cost profiles from it happens in the cell evaluator, so the grid
//! itself is trivially serializable into cell ids and stays cheap to
//! clone into the shrinker.
//!
//! `smoke` and `full` derive each cell's seed from the grid seed; the
//! experiment grids `e1`–`e4` pin every cell's seed, so they rebuild
//! the same instances whatever `--seed` says and their committed
//! tables (`results/conformance-eN.txt`) stay reproducible.

/// Which paper statement a cell machine-checks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckKind {
    /// Theorem 1.1: `online ≤ Σ_i f_i(α·k·b_i)` against an offline miss
    /// vector `b` for the same cache size.
    Theorem11,
    /// Theorem 1.3 (bi-criteria): the offline reference runs with a
    /// smaller cache `h ≤ k`; the inflation factor is `α·k/(k−h+1)`.
    Theorem13 {
        /// Offline cache size (`1 ≤ h ≤ k`).
        h: usize,
    },
    /// Claim 2.3: `f'(Σx)·Σx ≤ α·Σ_j x_j·f'(x_1+…+x_j)` on the per-epoch
    /// miss increments of a real run, or on random partitions
    /// ([`WorkloadKind::Partitions`]).
    Claim23,
    /// Theorem 1.4: on the §4 adversary the online/offline cost ratio
    /// must reach the analytic `(n/4)^β` growth.
    LowerBound14,
}

impl CheckKind {
    /// Stable display name, as printed in verdicts ("T1.1", "C2.3", …).
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Theorem11 => "T1.1",
            CheckKind::Theorem13 { .. } => "T1.3",
            CheckKind::Claim23 => "C2.3",
            CheckKind::LowerBound14 => "T1.4",
        }
    }

    /// Id-safe tag (no dots).
    fn tag(self) -> &'static str {
        match self {
            CheckKind::Theorem11 => "t11",
            CheckKind::Theorem13 { .. } => "t13",
            CheckKind::Claim23 => "c23",
            CheckKind::LowerBound14 => "t14",
        }
    }
}

/// Which online policy the cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's ALG-DISCRETE (`occ_core::ConvexCaching`).
    Convex,
    /// Classical LRU — the cost-blind baseline with the textbook
    /// `k`-competitive guarantee (a linear-cost special case of T1.1).
    Lru,
    /// FIFO, the other cost-blind baseline Theorem 1.4 binds (E3).
    Fifo,
    /// No online run: the cell checks a pointwise inequality
    /// (Claim 2.3 on [`WorkloadKind::Partitions`]).
    NoPolicy,
}

impl PolicyKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Convex => "convex",
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::NoPolicy => "none",
        }
    }
}

/// Which request stream the cell replays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadKind {
    /// Single-user `(pages)`-cycle — the classical adversarial pattern.
    Cycle,
    /// Single-user Zipf(`s`) stream.
    Zipf {
        /// Zipf skew parameter.
        s: f64,
    },
    /// Single-user uniform-random stream.
    Uniform,
    /// A tiny deterministic multi-user interleaving (stride-7 walk over
    /// the whole universe) — small enough for the exact offline solver.
    TinyMix,
    /// The `two_tier` preset scenario (two Zipf tenants, 64 pages).
    TwoTier,
    /// E1c's three tenants (64 pages): Zipf(0.9) over 24 pages at
    /// arrival rate 2, a 20-page cycle over 24 pages and uniform over
    /// 16 pages, each at rate 1.
    TenantMix,
    /// The §4 adaptive missing-page adversary (Theorem 1.4 instances:
    /// one page per user, `k = n − 1`; the trace is policy-dependent).
    Adversary,
    /// Claim 2.3's `x` vectors instead of a trace: `len` partitions of
    /// 1–12 entries, each uniform on `[0, 5)`, taken from the seeded
    /// stream after its first `from` partitions.
    Partitions {
        /// Partitions drawn and discarded before the cell's own.
        from: usize,
    },
}

impl WorkloadKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Cycle => "cycle",
            WorkloadKind::Zipf { .. } => "zipf",
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::TinyMix => "tinymix",
            WorkloadKind::TwoTier => "twotier",
            WorkloadKind::TenantMix => "tenantmix",
            WorkloadKind::Adversary => "adversary",
            WorkloadKind::Partitions { .. } => "partitions",
        }
    }
}

/// Which cost profile prices the miss vectors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostKind {
    /// Every user pays `x^β`.
    Monomial {
        /// The exponent (and curvature constant) `β`.
        beta: f64,
    },
    /// Every user pays the §1.1 SLA shape: slope `base` up to
    /// `tolerance` misses, then slope `penalty`.
    Sla {
        /// Tolerated misses before the penalty slope kicks in.
        tolerance: f64,
        /// Slope below the tolerance (must be positive for finite α).
        base: f64,
        /// Slope above the tolerance.
        penalty: f64,
    },
    /// The `two_tier` preset mix: user 0 quadratic, user 1 linear.
    TwoTierMix,
    /// Every user pays `w·x` (α = 1).
    Linear {
        /// The slope.
        w: f64,
    },
    /// Every user pays `Σ_d coeffs[d−1]·x^d` (α = the degree).
    Polynomial {
        /// Coefficients of `x^1, x^2, …`.
        coeffs: &'static [f64],
    },
    /// A *flat-start* piecewise-linear profile whose curvature constant
    /// is unbounded (`alpha()` = `None`): the paper's guarantee is
    /// vacuous, and the harness must say so rather than pass or fail.
    FlatSla,
}

impl CostKind {
    /// Stable display name.
    pub fn name(self) -> String {
        match self {
            CostKind::Monomial { beta } => format!("mono{}", num_tag(beta)),
            CostKind::Sla { .. } => "sla".into(),
            CostKind::TwoTierMix => "mix".into(),
            CostKind::Linear { w } => format!("lin{}", num_tag(w)),
            CostKind::Polynomial { coeffs } => {
                let tags: Vec<String> = coeffs.iter().map(|&c| num_tag(c)).collect();
                format!("poly{}", tags.join("-"))
            }
            CostKind::FlatSla => "flat".into(),
        }
    }
}

/// `3` for integral values, `1.5` otherwise.
fn num_tag(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{}", x as u64)
    } else {
        format!("{x}")
    }
}

/// One conformance cell: a fully specified instance plus the bound to
/// evaluate on it.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The paper statement under test.
    pub check: CheckKind,
    /// Online policy.
    pub policy: PolicyKind,
    /// Request stream.
    pub workload: WorkloadKind,
    /// Cost profile.
    pub cost: CostKind,
    /// Number of users `n`.
    pub users: u32,
    /// Total pages in the universe (split evenly across users; fixed at
    /// 64 for [`WorkloadKind::TwoTier`] and at `n` for the adversary).
    pub pages: u32,
    /// Online cache size `k`.
    pub k: usize,
    /// Trace length `T` (the partition count for
    /// [`WorkloadKind::Partitions`]).
    pub len: usize,
    /// Pinned workload seed; `None` derives one from the grid seed and
    /// the cell's index ([`cell_seed`]).
    pub seed: Option<u64>,
}

impl Cell {
    /// A unique, stable, filename-safe identifier for the cell.
    pub fn id(&self) -> String {
        let h = match self.check {
            CheckKind::Theorem13 { h } => format!("-h{h}"),
            _ => String::new(),
        };
        format!(
            "{}-{}-{}-{}-u{}-p{}-k{}{}-t{}",
            self.check.tag(),
            self.policy.name(),
            self.workload.name(),
            self.cost.name(),
            self.users,
            self.pages,
            self.k,
            h,
            self.len
        )
    }

    /// The offline cache size `h` when this is a bi-criteria cell.
    pub fn h(&self) -> Option<usize> {
        match self.check {
            CheckKind::Theorem13 { h } => Some(h),
            _ => None,
        }
    }
}

/// A named list of cells.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Grid name ("smoke", "full").
    pub name: &'static str,
    /// The cells, in a fixed order (cell index keys the per-cell seed).
    pub cells: Vec<Cell>,
}

/// Look up a named grid. `None` for unknown names.
pub fn grid(name: &str) -> Option<Grid> {
    match name {
        "smoke" => Some(smoke()),
        "full" => Some(full()),
        "e1" => Some(e1()),
        "e2" => Some(e2()),
        "e3" => Some(e3()),
        "e4" => Some(e4()),
        _ => None,
    }
}

/// Names of all built-in grids (for usage messages).
pub const GRID_NAMES: &[&str] = &["smoke", "full", "e1", "e2", "e3", "e4"];

#[allow(clippy::too_many_arguments)] // a cell IS this tuple; a builder would obscure the grid tables
fn cell(
    check: CheckKind,
    policy: PolicyKind,
    workload: WorkloadKind,
    cost: CostKind,
    users: u32,
    pages: u32,
    k: usize,
    len: usize,
) -> Cell {
    Cell {
        check,
        policy,
        workload,
        cost,
        users,
        pages,
        k,
        len,
        seed: None,
    }
}

fn mono(beta: f64) -> CostKind {
    CostKind::Monomial { beta }
}

fn pinned(seed: u64, cell: Cell) -> Cell {
    Cell {
        seed: Some(seed),
        ..cell
    }
}

/// A Theorem 1.4 cell: `n` single-page users, `k = n − 1`, and the §4
/// recipe `T = 8n²` (E3 shows the measured ratio then clears the full
/// analytic `(n/4)^β` with comfortable headroom).
fn adversary_cell(policy: PolicyKind, beta: f64, n: u32) -> Cell {
    cell(
        CheckKind::LowerBound14,
        policy,
        WorkloadKind::Adversary,
        mono(beta),
        n,
        n,
        (n - 1) as usize,
        8 * (n as usize) * (n as usize),
    )
}

/// The CI gate grid: every theorem covered, every oracle kind exercised,
/// at sizes that run in well under a second.
///
/// Expected verdicts with `weaken = 1`: every cell PASSes except the
/// last two, which are *deliberately* VACUOUS (an unbounded-α cost
/// profile and an empty trace) so the gate also proves the harness
/// distinguishes "holds" from "says nothing".
fn smoke() -> Grid {
    use CheckKind::*;
    use PolicyKind::*;
    use WorkloadKind::*;
    let cells = vec![
        // -- Theorem 1.1, exact single-user oracle (Belady = OPT). --
        cell(Theorem11, Convex, Cycle, mono(2.0), 1, 5, 4, 200),
        cell(Theorem11, Convex, Cycle, mono(1.0), 1, 6, 4, 240),
        cell(Theorem11, Convex, Zipf { s: 0.9 }, mono(2.0), 1, 16, 6, 400),
        cell(Theorem11, Convex, Uniform, mono(2.0), 1, 12, 6, 300),
        // LRU + linear cost: the classical k-competitive special case.
        cell(Theorem11, Lru, Cycle, mono(1.0), 1, 5, 4, 200),
        cell(Theorem11, Lru, Zipf { s: 0.8 }, mono(2.0), 1, 16, 6, 400),
        // -- Theorem 1.1, exact multi-user oracle (small exact_opt). --
        cell(Theorem11, Convex, TinyMix, mono(2.0), 2, 6, 3, 14),
        cell(
            Theorem11,
            Convex,
            TinyMix,
            CostKind::Sla {
                tolerance: 4.0,
                base: 1.0,
                penalty: 10.0,
            },
            2,
            6,
            3,
            14,
        ),
        // -- Theorem 1.1, heuristic oracle (necessary-side at scale). --
        cell(
            Theorem11,
            Convex,
            TwoTier,
            CostKind::TwoTierMix,
            2,
            64,
            24,
            600,
        ),
        // -- Theorem 1.3 bi-criteria (offline cache h < k). --
        cell(Theorem13 { h: 3 }, Convex, Cycle, mono(2.0), 1, 7, 6, 210),
        // Tight cell: LRU on the (k+1)-cycle meets k/(k−h+1) exactly.
        cell(Theorem13 { h: 2 }, Lru, Cycle, mono(1.0), 1, 6, 5, 180),
        cell(
            Theorem13 { h: 4 },
            Convex,
            Zipf { s: 0.9 },
            mono(2.0),
            1,
            16,
            8,
            400,
        ),
        // -- Claim 2.3 on real epoch miss increments. --
        cell(Claim23, Convex, Zipf { s: 0.9 }, mono(2.0), 1, 12, 5, 320),
        cell(
            Claim23,
            Convex,
            TinyMix,
            CostKind::Sla {
                tolerance: 5.0,
                base: 1.0,
                penalty: 8.0,
            },
            2,
            8,
            4,
            240,
        ),
        cell(
            Claim23,
            Convex,
            TwoTier,
            CostKind::TwoTierMix,
            2,
            64,
            24,
            480,
        ),
        // -- Theorem 1.4 lower-bound growth. --
        adversary_cell(Lru, 2.0, 5),
        adversary_cell(Lru, 2.0, 9),
        adversary_cell(Lru, 3.0, 9),
        adversary_cell(Convex, 2.0, 5),
        // -- Deliberately vacuous: unbounded α, then a zero-cost run. --
        cell(Theorem11, Convex, Cycle, CostKind::FlatSla, 1, 5, 4, 100),
        cell(Theorem11, Convex, Cycle, mono(2.0), 1, 5, 4, 0),
    ];
    Grid {
        name: "smoke",
        cells,
    }
}

/// The extended grid: the smoke cells plus β × k sweeps for the upper
/// bounds and a larger adversary family for the lower bound.
fn full() -> Grid {
    use CheckKind::*;
    use PolicyKind::*;
    use WorkloadKind::*;
    let mut cells = smoke().cells;
    let mut extra = Vec::new();
    for &beta in &[1.0, 2.0, 3.0] {
        for &k in &[4usize, 8] {
            let p = k as u32 + 1;
            extra.push(cell(
                Theorem11,
                Convex,
                Cycle,
                mono(beta),
                1,
                p,
                k,
                50 * (k + 1),
            ));
            extra.push(cell(
                Theorem11,
                Convex,
                Zipf { s: 0.9 },
                mono(beta),
                1,
                24,
                k,
                800,
            ));
            extra.push(cell(
                Theorem13 { h: k / 2 },
                Convex,
                Uniform,
                mono(beta),
                1,
                20,
                k,
                600,
            ));
        }
        extra.push(cell(Claim23, Convex, Uniform, mono(beta), 1, 16, 6, 400));
    }
    for &n in &[5u32, 9, 12] {
        for &beta in &[2.0, 3.0] {
            extra.push(adversary_cell(Lru, beta, n));
        }
    }
    extra.push(adversary_cell(Convex, 2.0, 9));
    // The sweeps overlap the smoke cells at the shared corners; keep
    // the first occurrence so every id stays unique (the id keys the
    // per-cell seed only through its grid index, so order matters).
    let mut seen: std::collections::HashSet<String> = cells.iter().map(Cell::id).collect();
    for c in extra {
        if seen.insert(c.id()) {
            cells.push(c);
        }
    }
    Grid {
        name: "full",
        cells,
    }
}

/// E1 — Theorem 1.1 / Corollary 1.2, in three parts:
///
/// * E1a: two users with 3 or 4 pages each, 16 requests, against the
///   exact convex OPT (`exact_opt`);
/// * E1b: one user, 20k requests, where Belady's MIN is the exact OPT:
///   the `(k+1)`-cycle, Zipf(0.9) over `4k` pages and uniform over `2k`;
/// * E1c: the three-tenant mix, 30k requests, against the offline
///   heuristic (a necessary-side check).
fn e1() -> Grid {
    use CheckKind::*;
    use PolicyKind::*;
    use WorkloadKind::*;
    let mut cells = Vec::new();
    for &beta in &[1.0, 2.0, 3.0] {
        for &k in &[2usize, 3] {
            for &pages in &[6u32, 8] {
                let c = cell(Theorem11, Convex, TinyMix, mono(beta), 2, pages, k, 16);
                cells.push(pinned(0, c));
            }
        }
    }
    for &beta in &[1.0, 2.0, 3.0] {
        for &k in &[4usize, 8, 16] {
            let p = k as u32;
            for (workload, pages) in [(Cycle, p + 1), (Zipf { s: 0.9 }, 4 * p), (Uniform, 2 * p)] {
                let c = cell(Theorem11, Convex, workload, mono(beta), 1, pages, k, 20_000);
                cells.push(pinned(7, c));
            }
        }
    }
    for &beta in &[1.0, 2.0] {
        for &k in &[8usize, 16] {
            let c = cell(Theorem11, Convex, TenantMix, mono(beta), 3, 64, k, 30_000);
            cells.push(pinned(13, c));
        }
    }
    Grid { name: "e1", cells }
}

/// E2 — Theorem 1.3: one ALG-DISCRETE run per workload (`k = 12`,
/// 20k requests) against Belady with every offline cache
/// `h ∈ {1, 2, 4, …, 12}`, for `x` and `x²`.
fn e2() -> Grid {
    use PolicyKind::*;
    use WorkloadKind::*;
    let mut cells = Vec::new();
    for &beta in &[1.0, 2.0] {
        for (workload, pages) in [(Cycle, 13), (Zipf { s: 0.9 }, 48)] {
            for h in [1usize, 2, 4, 6, 8, 10, 12] {
                let check = CheckKind::Theorem13 { h };
                let c = cell(check, Convex, workload, mono(beta), 1, pages, 12, 20_000);
                cells.push(pinned(3, c));
            }
        }
    }
    Grid { name: "e2", cells }
}

/// E3 — Theorem 1.4: ALG-DISCRETE, LRU and FIFO on the §4 adversary for
/// `n ∈ {5, 9, 17, 33}` and `β ∈ {1, 2, 3}`.
fn e3() -> Grid {
    let mut cells = Vec::new();
    for &beta in &[1.0, 2.0, 3.0] {
        for &n in &[5u32, 9, 17, 33] {
            for policy in [PolicyKind::Convex, PolicyKind::Lru, PolicyKind::Fifo] {
                cells.push(pinned(0, adversary_cell(policy, beta, n)));
            }
        }
    }
    Grid { name: "e3", cells }
}

/// E4 — Claim 2.3 on 2,000 random partitions per cost family. The
/// families take consecutive blocks of one seed-2015 stream.
fn e4() -> Grid {
    const TRIALS: usize = 2_000;
    let families = [
        CostKind::Linear { w: 3.0 },
        mono(1.5),
        mono(2.0),
        mono(4.0),
        CostKind::Polynomial {
            coeffs: &[2.0, 0.0, 1.0],
        },
        CostKind::Sla {
            tolerance: 5.0,
            base: 1.0,
            penalty: 10.0,
        },
    ];
    let cells = families
        .into_iter()
        .enumerate()
        .map(|(i, cost)| {
            let workload = WorkloadKind::Partitions { from: i * TRIALS };
            let c = cell(
                CheckKind::Claim23,
                PolicyKind::NoPolicy,
                workload,
                cost,
                1,
                0,
                0,
                TRIALS,
            );
            pinned(2015, c)
        })
        .collect();
    Grid { name: "e4", cells }
}

/// Derive a per-cell seed from the grid seed and the cell's index, so
/// cells are independent yet the whole run is reproducible from one
/// number. SplitMix64 finalizer — same mixer as the workload generators.
pub fn cell_seed(grid_seed: u64, index: usize) -> u64 {
    let mut z = grid_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cell_ids_are_unique_within_each_grid() {
        for name in GRID_NAMES {
            let g = grid(name).unwrap();
            assert!(!g.cells.is_empty(), "{name} grid must not be empty");
            let ids: HashSet<String> = g.cells.iter().map(Cell::id).collect();
            assert_eq!(ids.len(), g.cells.len(), "duplicate cell id in {name}");
        }
    }

    #[test]
    fn unknown_grid_is_none() {
        assert!(grid("nope").is_none());
    }

    #[test]
    fn smoke_covers_every_check_and_oracle_regime() {
        let g = grid("smoke").unwrap();
        let has = |f: &dyn Fn(&Cell) -> bool| g.cells.iter().any(f);
        assert!(has(&|c| matches!(c.check, CheckKind::Theorem11)));
        assert!(has(&|c| matches!(c.check, CheckKind::Theorem13 { .. })));
        assert!(has(&|c| matches!(c.check, CheckKind::Claim23)));
        assert!(has(&|c| matches!(c.check, CheckKind::LowerBound14)));
        assert!(has(&|c| c.users == 1)); // Belady-exact regime
        assert!(has(&|c| c.users > 1 && c.len <= 16)); // exact_opt regime
        assert!(has(&|c| c.users > 1 && c.len > 16)); // heuristic regime
        assert!(has(&|c| matches!(c.cost, CostKind::FlatSla)));
        assert!(has(&|c| c.len == 0));
    }

    #[test]
    fn adversary_cells_follow_the_theorem_1_4_family() {
        for name in GRID_NAMES {
            for c in grid(name).unwrap().cells {
                if matches!(c.check, CheckKind::LowerBound14) {
                    assert_eq!(c.pages, c.users, "one page per user");
                    assert_eq!(c.k, (c.users - 1) as usize, "k = n − 1");
                    assert_eq!(c.len, 8 * (c.users as usize).pow(2), "T = 8n²");
                    assert!(c.users >= 3, "batch offline needs n ≥ 3");
                }
            }
        }
    }

    #[test]
    fn bicriteria_cells_keep_h_in_range() {
        for name in GRID_NAMES {
            for c in grid(name).unwrap().cells {
                if let CheckKind::Theorem13 { h } = c.check {
                    assert!(h >= 1 && h <= c.k, "h out of range in {}", c.id());
                }
            }
        }
    }

    #[test]
    fn only_the_experiment_grids_pin_seeds() {
        for name in GRID_NAMES {
            let pinned = name.starts_with('e');
            for c in grid(name).unwrap().cells {
                assert_eq!(c.seed.is_some(), pinned, "{name}: {}", c.id());
            }
        }
    }

    #[test]
    fn cell_seed_is_deterministic_and_spreads() {
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
        let seeds: HashSet<u64> = (0..64).map(|i| cell_seed(7, i)).collect();
        assert_eq!(seeds.len(), 64);
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
    }
}
