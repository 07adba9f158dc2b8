#![warn(missing_docs)]
//! Multi-tenant cache simulation substrate.
//!
//! This crate provides the machinery shared by every algorithm in the
//! workspace: page/user identifiers, request traces, an exact-replay
//! simulation engine, replacement-policy and request-source traits, and
//! per-tenant accounting.
//!
//! The model follows Menache & Singh, *Online Caching with Convex Costs*
//! (SPAA 2015), §1.2: a single cache of size `k` shared by `n` users; each
//! page belongs to exactly one user; on a request the page must be in the
//! cache (hit) or be fetched into it (miss), evicting some cached page when
//! the cache is full.
//!
//! The substrate is deliberately *cost-agnostic*: it reports hit / miss /
//! eviction counts per user, and the convex cost machinery in `occ-core`
//! turns those counts into costs. This keeps the engine reusable for
//! classical (cost-blind) baselines.
//!
//! # Quick example
//!
//! ```
//! use occ_sim::prelude::*;
//!
//! // Two users, three pages each; a tiny fixed trace.
//! let universe = Universe::uniform(2, 3);
//! let trace = Trace::from_page_indices(&universe, &[0, 3, 1, 0, 4, 3]);
//!
//! // A trivial policy: evict the page that has been cached the longest.
//! struct Fifo { order: std::collections::VecDeque<PageId> }
//! impl ReplacementPolicy for Fifo {
//!     fn name(&self) -> String { "fifo".into() }
//!     fn on_insert(&mut self, _ctx: &EngineCtx, page: PageId) {
//!         self.order.push_back(page);
//!     }
//!     fn choose_victim(&mut self, _ctx: &EngineCtx, _incoming: PageId) -> PageId {
//!         self.order.pop_front().expect("cache is full, so the queue is non-empty")
//!     }
//! }
//!
//! let mut policy = Fifo { order: Default::default() };
//! let result = Simulator::new(2).run(&mut policy, &trace);
//! assert_eq!(result.total_misses(), 6); // FIFO with k=2 misses every request here
//! assert_eq!(result.stats.total_evictions(), 4);
//! ```

pub mod binio;
pub mod binio2;
pub mod cache;
pub mod checksum;
pub mod concurrent;
pub mod engine;
pub mod error;
pub mod event;
pub mod ids;
pub mod intrusive;
pub mod nextuse;
pub mod policy;
pub mod prefetch;
pub mod probe;
pub mod snapshot;
pub mod source;
pub mod stats;
pub mod stepper;
pub mod textio;
pub mod trace;

pub use binio::{
    read_trace_auto, read_trace_binary, write_trace_binary, BinarySource, BinaryTraceReader,
    BinaryTraceWriter, BINARY_TRACE_FOOTER_MAGIC, BINARY_TRACE_MAGIC,
};
pub use binio2::{
    read_trace_binary_v2, write_trace_binary_v2, Binary2TraceReader, Binary2TraceWriter,
    BINARY2_TRACE_FOOTER_MAGIC, BINARY2_TRACE_MAGIC,
};
pub use cache::CacheSet;
pub use checksum::{crc32, Crc32};
pub use concurrent::{
    global_of, local_of, merge_stats, replay_schedule, run_shared, run_shared_replayed, shard_of,
    verify_replay, CommitOutcome, CommitRecord, CommitSchedule, ConcurrentEngine, ReplayError,
    ReplayOutcome, ShardedPolicy, SharedOutcome,
};
pub use engine::{EngineCtx, SimOptions, SimResult, Simulator};
pub use error::{
    CostAnomaly, FaultCounters, FaultHandler, FaultKind, FaultPolicy, PolicyViolation,
    PolicyViolationKind, RequestFault, SimError, SnapshotError,
};
pub use event::{EventLog, SimEvent};
pub use ids::{PageId, Time, UserId};
pub use intrusive::{PageList, PageLists};
pub use nextuse::NextUseIndex;
pub use policy::ReplacementPolicy;
pub use prefetch::{prefetch_read, prefetch_slice_element};
pub use probe::{NoopRecorder, Recorder};
pub use snapshot::{EngineSnapshot, PolicyState, StateValue, SNAPSHOT_VERSION};
pub use source::{AdaptiveSource, RequestSource, SeekableSource, TraceSource};
pub use stats::{SimStats, UserStats};
pub use stepper::{
    next_multiple, StepOutcome, SteppingEngine, DEFAULT_BATCH_SIZE, PREFETCH_DISTANCE,
};
pub use textio::{read_trace, write_trace, TraceIoError};
pub use trace::{Request, Trace, TraceBuilder, TraceRecord, Universe};

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::cache::CacheSet;
    pub use crate::concurrent::{
        replay_schedule, run_shared, run_shared_replayed, verify_replay, CommitOutcome,
        CommitRecord, CommitSchedule, ConcurrentEngine, ReplayError, ReplayOutcome, ShardedPolicy,
        SharedOutcome,
    };
    pub use crate::engine::{EngineCtx, SimOptions, SimResult, Simulator};
    pub use crate::error::{
        FaultCounters, FaultHandler, FaultKind, FaultPolicy, RequestFault, SimError, SnapshotError,
    };
    pub use crate::event::{EventLog, SimEvent};
    pub use crate::ids::{PageId, Time, UserId};
    pub use crate::intrusive::{PageList, PageLists};
    pub use crate::nextuse::NextUseIndex;
    pub use crate::policy::ReplacementPolicy;
    pub use crate::probe::{NoopRecorder, Recorder};
    pub use crate::snapshot::{EngineSnapshot, PolicyState, StateValue, SNAPSHOT_VERSION};
    pub use crate::source::{AdaptiveSource, RequestSource, SeekableSource, TraceSource};
    pub use crate::stats::{SimStats, UserStats};
    pub use crate::stepper::{StepOutcome, SteppingEngine, DEFAULT_BATCH_SIZE, PREFETCH_DISTANCE};
    pub use crate::trace::{Request, Trace, TraceBuilder, Universe};
}
