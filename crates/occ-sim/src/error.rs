//! Typed errors and degradation policies for fault-tolerant runs.
//!
//! Long adversarial replays (the `Ω(k)^β` lower-bound sweeps, multi-tenant
//! SLA replays) must survive pathological inputs: corrupt trace records,
//! out-of-range page ids, owner tables that disagree with the stream, and
//! non-finite cost evaluations. The plain engine treats all of these as
//! programmer error and panics; the *checked* engines
//! ([`SteppingEngine::step_checked`], which the concurrent engine's
//! workers also serve every record with) classify them into the
//! [`SimError`] hierarchy instead — all with the one classifier,
//! [`Universe::malformed`] plus the quarantine set — and apply a
//! configurable [`FaultPolicy`]:
//!
//! * **fail-fast** — surface the first fault as an error (default);
//! * **skip-and-count** — drop the faulty record, count it, keep going;
//! * **quarantine-user** — additionally evict the offending tenant's pages
//!   and drop all of its future requests.
//!
//! Faults are surfaced three ways: the returned [`FaultCounters`], the
//! [`Recorder::record_fault`](crate::probe::Recorder::record_fault) hook
//! (so `occ-probe` consumers can stream them), and — for fail-fast — the
//! returned `SimError` itself.
//!
//! [`SteppingEngine::step_checked`]: crate::stepper::SteppingEngine::step_checked

use crate::ids::{PageId, Time, UserId};
use crate::snapshot::EngineSnapshot;
use crate::trace::{Request, Universe};
use std::fmt;

/// Everything that can go wrong while building, running, checkpointing or
/// resuming a simulation.
#[derive(Debug)]
pub enum SimError {
    /// A malformed request record (see [`FaultKind`] for the taxonomy).
    Request(RequestFault),
    /// The replacement policy violated its contract (an algorithm bug, not
    /// an input fault — never skipped by any [`FaultPolicy`]).
    Policy(PolicyViolation),
    /// Cost evaluation produced a non-finite value or overflowed.
    Cost(CostAnomaly),
    /// A snapshot could not be taken, parsed, or restored.
    Snapshot(SnapshotError),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Request(e) => write!(f, "{e}"),
            SimError::Policy(e) => write!(f, "{e}"),
            SimError::Cost(e) => write!(f, "{e}"),
            SimError::Snapshot(e) => write!(f, "{e}"),
            SimError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RequestFault> for SimError {
    fn from(e: RequestFault) -> Self {
        SimError::Request(e)
    }
}
impl From<PolicyViolation> for SimError {
    fn from(e: PolicyViolation) -> Self {
        SimError::Policy(e)
    }
}
impl From<CostAnomaly> for SimError {
    fn from(e: CostAnomaly) -> Self {
        SimError::Cost(e)
    }
}
impl From<SnapshotError> for SimError {
    fn from(e: SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}
impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io(e)
    }
}

/// The fault taxonomy for request records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The record references a page id outside the universe.
    PageOutOfRange,
    /// The record's claimed owner disagrees with the universe's owner
    /// table.
    OwnerMismatch,
    /// The record is well-formed but its user was previously quarantined,
    /// so the request is dropped.
    QuarantinedUser,
}

impl FaultKind {
    /// Stable machine-readable name (used in JSONL fault lines and
    /// reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::PageOutOfRange => "page-out-of-range",
            FaultKind::OwnerMismatch => "owner-mismatch",
            FaultKind::QuarantinedUser => "quarantined-user",
        }
    }
}

/// A single malformed (or dropped) request record, with the raw values as
/// found in the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestFault {
    /// Engine time at which the record was consumed.
    pub time: Time,
    /// What was wrong with it.
    pub kind: FaultKind,
    /// The page id as found in the record (may be out of range).
    pub page: PageId,
    /// The user id as found in the record (may be out of range).
    pub user: UserId,
}

impl fmt::Display for RequestFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faulty request at t={}: {} (page {}, user {})",
            self.time,
            self.kind.name(),
            self.page,
            self.user
        )
    }
}

impl std::error::Error for RequestFault {}

/// The replacement policy broke its contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyViolation {
    /// Engine time of the offending decision.
    pub time: Time,
    /// The policy's [`name`](crate::policy::ReplacementPolicy::name).
    pub policy: String,
    /// What the policy did wrong.
    pub kind: PolicyViolationKind,
}

/// The ways a policy can break its contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyViolationKind {
    /// `choose_victim` returned a page that is not cached.
    VictimNotCached(PageId),
    /// `choose_victim` returned the incoming page itself.
    VictimIsIncoming(PageId),
}

impl fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PolicyViolationKind::VictimNotCached(p) => write!(
                f,
                "policy {} chose victim {p} which is not cached (t={})",
                self.policy, self.time
            ),
            PolicyViolationKind::VictimIsIncoming(p) => write!(
                f,
                "policy {} tried to evict the incoming page {p} (t={})",
                self.policy, self.time
            ),
        }
    }
}

impl std::error::Error for PolicyViolation {}

/// A cost evaluation left the finite range: `f_i(x)` returned NaN or ±∞,
/// or an accumulation overflowed to a non-finite value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostAnomaly {
    /// The user whose cost function misbehaved, if attributable.
    pub user: Option<u32>,
    /// The argument the cost function was evaluated at.
    pub argument: f64,
    /// The offending value (NaN or ±∞).
    pub value: f64,
    /// Which computation produced it (e.g. `"f_i(m_i)"`, `"sum f_i(m_i)"`).
    pub what: &'static str,
}

impl fmt::Display for CostAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.user {
            Some(u) => write!(
                f,
                "non-finite cost: {} = {} at x = {} for user u{u}",
                self.what, self.value, self.argument
            ),
            None => write!(
                f,
                "non-finite cost: {} = {} at x = {}",
                self.what, self.value, self.argument
            ),
        }
    }
}

impl std::error::Error for CostAnomaly {}

/// Why a snapshot could not be taken, parsed, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot declares a version this build does not understand.
    UnsupportedVersion {
        /// Version found in the snapshot.
        found: u64,
        /// Version this build writes and reads.
        expected: u64,
    },
    /// A required field is absent.
    MissingField(String),
    /// A field is present but unusable (wrong type, bad encoding,
    /// inconsistent lengths, …).
    Corrupt(String),
    /// The snapshot is internally valid but does not match the engine it
    /// is being restored into (different capacity, universe, or policy).
    Mismatch(String),
    /// The named policy does not implement state capture.
    Unsupported(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found, expected } => write!(
                f,
                "snapshot version {found} unsupported (this build reads version {expected})"
            ),
            SnapshotError::MissingField(k) => write!(f, "snapshot is missing field '{k}'"),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot is corrupt: {msg}"),
            SnapshotError::Mismatch(msg) => {
                write!(f, "snapshot does not match this engine: {msg}")
            }
            SnapshotError::Unsupported(policy) => {
                write!(f, "policy {policy} does not support checkpointing")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// How the checked engine paths react to an input fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Surface the first fault as a [`SimError`] (default).
    #[default]
    FailFast,
    /// Drop the faulty record, count it in [`FaultCounters`], keep going.
    SkipAndCount,
    /// Like skip-and-count, but also quarantine the offending user: its
    /// cached pages are removed (without eviction charges) and all of its
    /// future requests are dropped.
    QuarantineUser,
}

impl FaultPolicy {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPolicy::FailFast => "fail-fast",
            FaultPolicy::SkipAndCount => "skip-and-count",
            FaultPolicy::QuarantineUser => "quarantine-user",
        }
    }

    /// Parse a policy name as used on the CLI (`fail-fast`, `skip` /
    /// `skip-and-count`, `quarantine` / `quarantine-user`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fail-fast" | "failfast" => Some(FaultPolicy::FailFast),
            "skip" | "skip-and-count" => Some(FaultPolicy::SkipAndCount),
            "quarantine" | "quarantine-user" => Some(FaultPolicy::QuarantineUser),
            _ => None,
        }
    }
}

impl fmt::Display for FaultPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counters of every fault a checked run absorbed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Records referencing a page outside the universe.
    pub page_out_of_range: u64,
    /// Records whose claimed owner disagrees with the universe.
    pub owner_mismatch: u64,
    /// Well-formed records dropped because their user is quarantined.
    pub quarantined_drops: u64,
    /// Users placed in quarantine.
    pub quarantined_users: u64,
}

impl FaultCounters {
    /// Total faulty/dropped records (excludes `quarantined_users`, which
    /// counts users, not records).
    pub fn total_records(&self) -> u64 {
        self.page_out_of_range
            .saturating_add(self.owner_mismatch)
            .saturating_add(self.quarantined_drops)
    }

    /// Whether no fault was observed at all.
    pub fn is_clean(&self) -> bool {
        self.total_records() == 0 && self.quarantined_users == 0
    }

    /// Count one record-level fault of the given kind.
    pub fn count(&mut self, kind: FaultKind) {
        let slot = match kind {
            FaultKind::PageOutOfRange => &mut self.page_out_of_range,
            FaultKind::OwnerMismatch => &mut self.owner_mismatch,
            FaultKind::QuarantinedUser => &mut self.quarantined_drops,
        };
        *slot = slot.saturating_add(1);
    }

    /// Accumulate another set of counters (saturating).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.page_out_of_range = self
            .page_out_of_range
            .saturating_add(other.page_out_of_range);
        self.owner_mismatch = self.owner_mismatch.saturating_add(other.owner_mismatch);
        self.quarantined_drops = self
            .quarantined_drops
            .saturating_add(other.quarantined_drops);
        self.quarantined_users = self
            .quarantined_users
            .saturating_add(other.quarantined_users);
    }
}

/// Degradation-policy state threaded through a checked run: which policy
/// applies, what has been absorbed so far, and which users are
/// quarantined.
#[derive(Clone, Debug)]
pub struct FaultHandler {
    policy: FaultPolicy,
    counters: FaultCounters,
    quarantined: Vec<bool>,
}

impl FaultHandler {
    /// A fresh handler for `num_users` users under `policy`.
    pub fn new(policy: FaultPolicy, num_users: u32) -> Self {
        FaultHandler {
            policy,
            counters: FaultCounters::default(),
            quarantined: vec![false; num_users as usize],
        }
    }

    /// The degradation policy in force.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Counters of everything absorbed so far.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Whether `user` is quarantined.
    pub fn is_quarantined(&self, user: UserId) -> bool {
        self.quarantined.get(user.index()).copied().unwrap_or(false)
    }

    /// Why `req` is a faulty record, if it is: malformed against
    /// `universe` ([`Universe::malformed`]), or from a quarantined user.
    #[inline]
    pub fn classify(&self, universe: &Universe, req: Request) -> Option<FaultKind> {
        universe.malformed(req).or_else(|| {
            self.is_quarantined(req.user)
                .then_some(FaultKind::QuarantinedUser)
        })
    }

    /// The quarantined users, ascending.
    pub fn quarantined_users(&self) -> Vec<UserId> {
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(u, _)| UserId(u as u32))
            .collect()
    }

    /// Restore the fault counters and quarantine membership of `snap`
    /// (used when resuming from a checkpoint). Rejects, as
    /// [`SnapshotError::Corrupt`], fault state no engine writes: a
    /// quarantined user outside `0..num_users` or listed twice, a
    /// `quarantined_users` count that differs from the list, or a
    /// quarantined user that still owns a cached page.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), SnapshotError> {
        let corrupt = |msg: String| Err(SnapshotError::Corrupt(msg));
        let mut quarantined = vec![false; self.quarantined.len()];
        for &u in &snap.quarantined {
            match quarantined.get_mut(u.index()) {
                None => return corrupt(format!("quarantined user {u} outside the universe")),
                Some(true) => return corrupt(format!("quarantined user {u} is listed twice")),
                Some(q) => *q = true,
            }
        }
        if snap.faults.quarantined_users != snap.quarantined.len() as u64 {
            return corrupt(format!(
                "faults.quarantined_users is {} but {} users are listed as quarantined",
                snap.faults.quarantined_users,
                snap.quarantined.len()
            ));
        }
        for &p in &snap.cache_pages {
            if let Some(&u) = snap
                .owners
                .get(p.index())
                .filter(|u| quarantined.get(u.index()) == Some(&true))
            {
                return corrupt(format!("quarantined user {u} owns cached page {p}"));
            }
        }
        self.counters = snap.faults.clone();
        self.quarantined = quarantined;
        Ok(())
    }

    pub(crate) fn count(&mut self, kind: FaultKind) {
        self.counters.count(kind);
    }

    /// Mark `user` quarantined; returns `false` if it already was.
    pub(crate) fn quarantine(&mut self, user: UserId) -> bool {
        if self.is_quarantined(user) {
            return false;
        }
        self.quarantined[user.index()] = true;
        self.counters.quarantined_users = self.counters.quarantined_users.saturating_add(1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_policy_parses_aliases() {
        assert_eq!(FaultPolicy::parse("fail-fast"), Some(FaultPolicy::FailFast));
        assert_eq!(FaultPolicy::parse("skip"), Some(FaultPolicy::SkipAndCount));
        assert_eq!(
            FaultPolicy::parse("skip-and-count"),
            Some(FaultPolicy::SkipAndCount)
        );
        assert_eq!(
            FaultPolicy::parse("quarantine"),
            Some(FaultPolicy::QuarantineUser)
        );
        assert_eq!(FaultPolicy::parse("nope"), None);
        assert_eq!(FaultPolicy::parse("fail-fast").unwrap().name(), "fail-fast");
    }

    #[test]
    fn counters_classify_and_merge() {
        let mut c = FaultCounters::default();
        assert!(c.is_clean());
        c.count(FaultKind::PageOutOfRange);
        c.count(FaultKind::OwnerMismatch);
        c.count(FaultKind::QuarantinedUser);
        assert_eq!(c.total_records(), 3);
        let mut d = FaultCounters::default();
        d.count(FaultKind::PageOutOfRange);
        c.merge(&d);
        assert_eq!(c.page_out_of_range, 2);
        assert!(!c.is_clean());
    }

    #[test]
    fn counters_saturate_at_max() {
        let mut c = FaultCounters {
            page_out_of_range: u64::MAX,
            ..FaultCounters::default()
        };
        c.count(FaultKind::PageOutOfRange);
        assert_eq!(c.page_out_of_range, u64::MAX);
    }

    #[test]
    fn handler_quarantines_once() {
        let mut h = FaultHandler::new(FaultPolicy::QuarantineUser, 3);
        assert!(!h.is_quarantined(UserId(1)));
        assert!(h.quarantine(UserId(1)));
        assert!(!h.quarantine(UserId(1)));
        assert!(h.is_quarantined(UserId(1)));
        assert_eq!(h.counters().quarantined_users, 1);
        assert_eq!(h.quarantined_users(), vec![UserId(1)]);
        // Out-of-range user ids are simply "not quarantined".
        assert!(!h.is_quarantined(UserId(99)));
    }

    /// A snapshot of a two-user universe (u0: p0 p1, u1: p2 p3) with the
    /// given fault state and cached pages.
    fn faulty_snapshot(quarantined: &[u32], counted: u64, cache_pages: &[u32]) -> EngineSnapshot {
        EngineSnapshot {
            version: crate::snapshot::SNAPSHOT_VERSION,
            time: 9,
            capacity: 2,
            num_users: 2,
            owners: vec![UserId(0), UserId(0), UserId(1), UserId(1)],
            cache_pages: cache_pages.iter().map(|&p| PageId(p)).collect(),
            stats: vec![Default::default(); 2],
            policy_name: "lru".into(),
            policy: crate::snapshot::PolicyState::new(),
            faults: FaultCounters {
                owner_mismatch: 2,
                quarantined_users: counted,
                ..FaultCounters::default()
            },
            quarantined: quarantined.iter().map(|&u| UserId(u)).collect(),
        }
    }

    #[test]
    fn handler_restore_validates_users() {
        let mut h = FaultHandler::new(FaultPolicy::QuarantineUser, 2);
        let err = h.restore(&faulty_snapshot(&[5], 1, &[])).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
        h.restore(&faulty_snapshot(&[1], 1, &[0, 1])).unwrap();
        assert!(h.is_quarantined(UserId(1)));
        assert!(!h.is_quarantined(UserId(0)));
        assert_eq!(h.counters().owner_mismatch, 2);
    }

    #[test]
    fn handler_restore_rejects_contradictory_quarantine_state() {
        for (snap, why) in [
            (faulty_snapshot(&[0, 0, 1], 1, &[]), "listed twice"),
            (faulty_snapshot(&[0, 0], 2, &[]), "listed twice"),
            (faulty_snapshot(&[1], 0, &[]), "quarantined_users is 0"),
            (faulty_snapshot(&[0, 1], 1, &[]), "quarantined_users is 1"),
            (faulty_snapshot(&[1], 1, &[0, 3]), "owns cached page p3"),
        ] {
            let mut h = FaultHandler::new(FaultPolicy::QuarantineUser, 2);
            match h.restore(&snap) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{:?} restored as {other:?}", snap.quarantined),
            }
            // A rejected restore leaves the handler untouched.
            assert!(h.counters().is_clean());
            assert!(h.quarantined_users().is_empty());
        }
    }

    #[test]
    fn error_displays_are_informative() {
        let f = RequestFault {
            time: 7,
            kind: FaultKind::PageOutOfRange,
            page: PageId(99),
            user: UserId(3),
        };
        let msg = SimError::from(f).to_string();
        assert!(msg.contains("t=7"));
        assert!(msg.contains("page-out-of-range"));

        let v = PolicyViolation {
            time: 2,
            policy: "lru".into(),
            kind: PolicyViolationKind::VictimNotCached(PageId(4)),
        };
        assert!(v.to_string().contains("not cached"));

        let c = CostAnomaly {
            user: Some(1),
            argument: 3.0,
            value: f64::NAN,
            what: "f_i(m_i)",
        };
        assert!(c.to_string().contains("u1"));

        let s = SnapshotError::UnsupportedVersion {
            found: 9,
            expected: 1,
        };
        assert!(s.to_string().contains("version 9 unsupported"));
    }
}
