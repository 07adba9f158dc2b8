//! In-memory checkpoint of a running simulation.
//!
//! A checkpoint captures everything needed to continue a run with
//! byte-identical results: the clock, the cache contents *in
//! operation-history order* (policies tie-break by scanning that order),
//! per-user counters, fault-handling state, and an opaque per-policy
//! [`PolicyState`] bag holding recency lists, dual offsets, RNG words,
//! and whatever else the policy needs.
//!
//! This module defines only the in-memory representation; the on-disk JSON
//! encoding (with lossless `u64`/`f64`-bit fields) lives in `occ-probe`,
//! which owns the workspace's JSON machinery. The [`EngineSnapshot::version`]
//! field travels with the snapshot so readers can reject formats they do
//! not understand instead of mis-parsing them.

use crate::error::{FaultCounters, SnapshotError};
use crate::ids::{PageId, Time, UserId};
use crate::stats::UserStats;

/// The snapshot format version this build writes. Version 2 stores
/// the owner table as runs and ALG-DISCRETE's per-page state for cached
/// pages only; the JSON reader in `occ-probe` also reads version 1 and
/// decodes it to this version's in-memory form.
pub const SNAPSHOT_VERSION: u64 = 2;

/// A serializable value inside a [`PolicyState`].
///
/// The variants are deliberately few: every policy state in the workspace
/// is expressible as scalars and dense vectors, and a small closed set
/// keeps the on-disk encoding trivial to keep lossless (`u64` survives as
/// a decimal string, `f64` as its IEEE-754 bit pattern).
#[derive(Clone, Debug, PartialEq)]
pub enum StateValue {
    /// A single unsigned integer (sequence numbers, RNG words, …).
    U64(u64),
    /// A single float (dual offsets, budgets, …).
    F64(f64),
    /// A dense vector of unsigned integers.
    U64s(Vec<u64>),
    /// A dense vector of floats.
    F64s(Vec<f64>),
    /// A free-form string (mode tags, …).
    Text(String),
}

/// An ordered key → [`StateValue`] bag capturing one policy's internal
/// state.
///
/// Keys are policy-defined; [`ReplacementPolicy::load_state`] is expected
/// to reject bags it does not recognize via the typed getters, which
/// return [`SnapshotError::MissingField`] / [`SnapshotError::Corrupt`]
/// instead of panicking.
///
/// [`ReplacementPolicy::load_state`]: crate::policy::ReplacementPolicy::load_state
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PolicyState {
    fields: Vec<(String, StateValue)>,
}

impl PolicyState {
    /// An empty bag.
    pub fn new() -> Self {
        PolicyState::default()
    }

    /// All fields in insertion order (the on-disk encoding preserves it).
    pub fn fields(&self) -> &[(String, StateValue)] {
        &self.fields
    }

    /// Look up a field.
    pub fn get(&self, key: &str) -> Option<&StateValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Set `key` to `value`, replacing any existing entry.
    pub fn set(&mut self, key: &str, value: StateValue) -> &mut Self {
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.fields.push((key.to_string(), value)),
        }
        self
    }

    /// Set a scalar `u64` field.
    pub fn set_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.set(key, StateValue::U64(v))
    }

    /// Set a scalar `f64` field.
    pub fn set_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.set(key, StateValue::F64(v))
    }

    /// Set a `u64` vector field.
    pub fn set_u64s(&mut self, key: &str, v: Vec<u64>) -> &mut Self {
        self.set(key, StateValue::U64s(v))
    }

    /// Set an `f64` vector field.
    pub fn set_f64s(&mut self, key: &str, v: Vec<f64>) -> &mut Self {
        self.set(key, StateValue::F64s(v))
    }

    /// Set a text field.
    pub fn set_text(&mut self, key: &str, v: &str) -> &mut Self {
        self.set(key, StateValue::Text(v.to_string()))
    }

    fn require(&self, key: &str) -> Result<&StateValue, SnapshotError> {
        self.get(key)
            .ok_or_else(|| SnapshotError::MissingField(format!("policy.{key}")))
    }

    /// Read a scalar `u64` field.
    pub fn u64(&self, key: &str) -> Result<u64, SnapshotError> {
        match self.require(key)? {
            StateValue::U64(v) => Ok(*v),
            other => Err(type_error(key, "u64", other)),
        }
    }

    /// Read a scalar `f64` field.
    pub fn f64(&self, key: &str) -> Result<f64, SnapshotError> {
        match self.require(key)? {
            StateValue::F64(v) => Ok(*v),
            other => Err(type_error(key, "f64", other)),
        }
    }

    /// Read a `u64` vector field.
    pub fn u64s(&self, key: &str) -> Result<&[u64], SnapshotError> {
        match self.require(key)? {
            StateValue::U64s(v) => Ok(v),
            other => Err(type_error(key, "u64 vector", other)),
        }
    }

    /// Read an `f64` vector field.
    pub fn f64s(&self, key: &str) -> Result<&[f64], SnapshotError> {
        match self.require(key)? {
            StateValue::F64s(v) => Ok(v),
            other => Err(type_error(key, "f64 vector", other)),
        }
    }

    /// Read a text field.
    pub fn text(&self, key: &str) -> Result<&str, SnapshotError> {
        match self.require(key)? {
            StateValue::Text(v) => Ok(v),
            other => Err(type_error(key, "text", other)),
        }
    }

    /// Read a `u64` vector field and check its length.
    pub fn u64s_len(&self, key: &str, len: usize) -> Result<&[u64], SnapshotError> {
        let v = self.u64s(key)?;
        if v.len() != len {
            return Err(SnapshotError::Corrupt(format!(
                "policy.{key} has {} entries, expected {len}",
                v.len()
            )));
        }
        Ok(v)
    }

    /// Read an `f64` vector field and check its length.
    pub fn f64s_len(&self, key: &str, len: usize) -> Result<&[f64], SnapshotError> {
        let v = self.f64s(key)?;
        if v.len() != len {
            return Err(SnapshotError::Corrupt(format!(
                "policy.{key} has {} entries, expected {len}",
                v.len()
            )));
        }
        Ok(v)
    }
}

fn type_error(key: &str, expected: &str, got: &StateValue) -> SnapshotError {
    let got = match got {
        StateValue::U64(_) => "u64",
        StateValue::F64(_) => "f64",
        StateValue::U64s(_) => "u64 vector",
        StateValue::F64s(_) => "f64 vector",
        StateValue::Text(_) => "text",
    };
    SnapshotError::Corrupt(format!("policy.{key} is a {got}, expected a {expected}"))
}

/// A versioned, self-describing checkpoint of one engine + policy.
///
/// Produced by [`SteppingEngine::snapshot`] and consumed by
/// [`SteppingEngine::restore`]; resuming from a snapshot continues the
/// run byte-identically to one that was never interrupted (asserted by
/// the `checkpoint_resume_property` proptest suite).
///
/// [`SteppingEngine::snapshot`]: crate::stepper::SteppingEngine::snapshot
/// [`SteppingEngine::restore`]: crate::stepper::SteppingEngine::restore
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`]); readers must reject versions
    /// they do not understand.
    pub version: u64,
    /// Requests consumed so far (the resume point).
    pub time: Time,
    /// Cache capacity `k`.
    pub capacity: usize,
    /// Number of users in the universe.
    pub num_users: u32,
    /// Owner table: `owners[p]` is the user owning page `p`.
    pub owners: Vec<UserId>,
    /// Cached pages in *operation-history order* (the order policies see
    /// when they scan the cache).
    pub cache_pages: Vec<PageId>,
    /// Per-user counters, indexed by user id.
    pub stats: Vec<UserStats>,
    /// The policy's [`name`](crate::policy::ReplacementPolicy::name), for
    /// restore-time validation.
    pub policy_name: String,
    /// The policy's internal state.
    pub policy: PolicyState,
    /// Fault counters absorbed so far (empty for unchecked runs).
    pub faults: FaultCounters,
    /// Quarantined users (empty for unchecked runs).
    pub quarantined: Vec<UserId>,
}

impl EngineSnapshot {
    /// Reject snapshots from a different format version.
    pub fn check_version(&self) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_state_typed_getters() {
        let mut s = PolicyState::new();
        s.set_u64("seq", 7)
            .set_f64("y", 1.5)
            .set_u64s("m", vec![1, 2])
            .set_f64s("y_at", vec![0.0, 0.5])
            .set_text("mode", "fast");
        assert_eq!(s.u64("seq").unwrap(), 7);
        assert_eq!(s.f64("y").unwrap(), 1.5);
        assert_eq!(s.u64s("m").unwrap(), &[1, 2]);
        assert_eq!(s.f64s_len("y_at", 2).unwrap(), &[0.0, 0.5]);
        assert_eq!(s.text("mode").unwrap(), "fast");
        assert_eq!(s.fields().len(), 5);
    }

    #[test]
    fn policy_state_overwrites_in_place() {
        let mut s = PolicyState::new();
        s.set_u64("seq", 1);
        s.set_u64("seq", 2);
        assert_eq!(s.fields().len(), 1);
        assert_eq!(s.u64("seq").unwrap(), 2);
    }

    #[test]
    fn missing_and_mistyped_fields_are_typed_errors() {
        let mut s = PolicyState::new();
        s.set_u64("seq", 7);
        assert!(matches!(
            s.u64("absent"),
            Err(SnapshotError::MissingField(_))
        ));
        assert!(matches!(s.f64("seq"), Err(SnapshotError::Corrupt(_))));
        s.set_u64s("m", vec![1, 2, 3]);
        assert!(matches!(s.u64s_len("m", 2), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn version_gate() {
        let snap = EngineSnapshot {
            version: SNAPSHOT_VERSION + 1,
            time: 0,
            capacity: 1,
            num_users: 1,
            owners: vec![UserId(0)],
            cache_pages: vec![],
            stats: vec![UserStats::default()],
            policy_name: "x".into(),
            policy: PolicyState::new(),
            faults: FaultCounters::default(),
            quarantined: vec![],
        };
        assert!(matches!(
            snap.check_version(),
            Err(SnapshotError::UnsupportedVersion { found, expected })
                if found == SNAPSHOT_VERSION + 1 && expected == SNAPSHOT_VERSION
        ));
    }
}
