//! Per-request event log.
//!
//! Invariant checkers (the primal–dual conditions of §2.3) and the
//! ALG-CONT ≡ ALG-DISCRETE equivalence experiment need the exact eviction
//! sequence, not just counts. [`EventLog`] is a
//! [`Recorder`](crate::probe::Recorder): attach it to a
//! [`SteppingEngine`](crate::SteppingEngine) (alone, or paired with
//! another recorder) and it keeps one [`SimEvent`] per request, or set
//! [`Simulator::record_events`](crate::Simulator::record_events) to get
//! it back in [`SimResult::events`](crate::SimResult). It is off by
//! default because an entry per request would dominate the engine's
//! memory traffic in throughput benchmarks.
//!
//! The log keeps everything in memory. Long runs should stream instead:
//! the `occ-probe` crate's `JsonlSink` writes every event to any
//! `io::Write` without retaining it, and its `WindowedRecorder` keeps
//! per-window counts.

use crate::engine::EngineCtx;
use crate::ids::{PageId, Time, UserId};
use crate::probe::Recorder;
use serde::{Deserialize, Serialize};

/// What happened at one time step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimEvent {
    /// The requested page was already cached.
    Hit {
        /// Time of the request.
        t: Time,
        /// Requested page.
        page: PageId,
    },
    /// The page was fetched into free space (no eviction).
    Insert {
        /// Time of the request.
        t: Time,
        /// Requested page.
        page: PageId,
    },
    /// The page was fetched and `victim` was evicted to make room.
    Evict {
        /// Time of the request.
        t: Time,
        /// Requested page.
        page: PageId,
        /// Page removed from the cache.
        victim: PageId,
        /// Owner of the victim page.
        victim_user: UserId,
    },
}

impl SimEvent {
    /// Time of the event.
    pub fn time(&self) -> Time {
        match *self {
            SimEvent::Hit { t, .. } | SimEvent::Insert { t, .. } | SimEvent::Evict { t, .. } => t,
        }
    }

    /// The evicted page, if this event evicted one.
    pub fn victim(&self) -> Option<PageId> {
        match *self {
            SimEvent::Evict { victim, .. } => Some(victim),
            _ => None,
        }
    }
}

/// An append-only sequence of [`SimEvent`]s, in time order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<SimEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: SimEvent) {
        self.events.push(event);
    }

    /// Events in time order.
    pub fn iter(&self) -> impl Iterator<Item = &SimEvent> {
        self.events.iter()
    }

    /// Events in time order, as an owned vector.
    pub fn to_vec(&self) -> Vec<SimEvent> {
        self.events.clone()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The eviction decisions only, as `(t, victim)` pairs — the canonical
    /// fingerprint for algorithm-equivalence tests.
    pub fn eviction_sequence(&self) -> Vec<(Time, PageId)> {
        self.iter()
            .filter_map(|e| e.victim().map(|v| (e.time(), v)))
            .collect()
    }
}

/// One event per request, from the same hooks every recorder sees.
/// End-of-run flush evictions are not requests and are not logged.
impl Recorder for EventLog {
    fn record_hit(&mut self, _ctx: &EngineCtx, t: Time, page: PageId, _user: UserId) {
        self.push(SimEvent::Hit { t, page });
    }

    fn record_insert(&mut self, _ctx: &EngineCtx, t: Time, page: PageId, _user: UserId) {
        self.push(SimEvent::Insert { t, page });
    }

    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        t: Time,
        page: PageId,
        _user: UserId,
        victim: PageId,
        victim_user: UserId,
    ) {
        self.push(SimEvent::Evict {
            t,
            page,
            victim,
            victim_user,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_fingerprint() {
        let mut log = EventLog::new();
        log.push(SimEvent::Insert {
            t: 0,
            page: PageId(1),
        });
        log.push(SimEvent::Hit {
            t: 1,
            page: PageId(1),
        });
        log.push(SimEvent::Evict {
            t: 2,
            page: PageId(2),
            victim: PageId(1),
            victim_user: UserId(0),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.eviction_sequence(), vec![(2, PageId(1))]);
        let events = log.to_vec();
        assert_eq!(events[2].time(), 2);
        assert_eq!(events[0].victim(), None);
    }
}
