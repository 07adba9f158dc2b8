//! Observability for the caching simulator: histograms, recorders,
//! streaming sinks, dual-variable telemetry, and the `occ observe`
//! report format.
//!
//! The [`Recorder`] contract itself lives in `occ-sim` (so the engine
//! does not depend on this crate); everything here is a consumer of it:
//!
//! * [`LogHistogram`] — mergeable log-linear histogram with bounded
//!   relative error, used for latency and value distributions;
//! * [`MetricsRecorder`] — the whole-run tally: one [`WindowDelta`]
//!   that never closes, fed by the same per-event updates as every
//!   window, plus a latency histogram;
//! * [`JsonlSink`] — streams one JSON line per engine event, bounded
//!   memory for arbitrarily long traces, through the sticky-error line
//!   writer it shares with [`SeriesSink`];
//! * [`DualTrace`] — the paper algorithm's dual offset
//!   `Y`, eviction counts `m(i,t)`, and primal objective `Σ f_i(m_i)`
//!   over time;
//! * [`timeseries`] — tumbling-window deltas ([`WindowedRecorder`],
//!   [`StatsWindows`], [`SeriesSink`]) behind `occ soak`'s streaming JSONL series, sealed
//!   with a CRC trailer by [`SeriesSink::seal`];
//! * [`ObserveReport`] — the JSON/table report `occ observe` emits and
//!   `occ report` renders;
//! * [`atomicio`] — torn-write-safe persistence: atomic-rename writes
//!   and CRC-32 trailers on checkpoints, series files, and reports;
//! * [`checkpoint`] — the lossless on-disk JSON form of
//!   `occ_sim::EngineSnapshot` behind `occ observe --checkpoint` and
//!   `occ resume`;
//! * [`Json`] — the minimal parser/writer backing all of the above
//!   (the workspace's vendored `serde` is a no-op stub, so
//!   serialization is done by hand).
//!
//! Overhead discipline: recorders only pay when attached. The engines
//! default to [`NoopRecorder`], which compiles to the unrecorded code —
//! see `occ_sim::probe` for the mechanism and `bench_baseline` for the
//! guard.

#![warn(missing_docs)]

pub mod atomicio;
pub mod checkpoint;
pub mod dual;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod timeseries;

pub use atomicio::{
    crc32, require_trailer, verify_trailer, with_trailer, write_atomic, write_atomic_with_trailer,
    AtomicFile, CrcWriter, CRC_TRAILER_PREFIX,
};
pub use checkpoint::{snapshot_from_json, snapshot_to_json};
pub use dual::DualTrace;
pub use histogram::LogHistogram;
pub use json::{check_schema_stamp, Json};
pub use recorder::MetricsRecorder;
pub use report::{ObserveReport, REPORT_SCHEMA, REQUIRED_KEYS};
pub use sink::JsonlSink;
pub use timeseries::{
    DualPoint, SeriesFile, SeriesSink, StatsWindows, WindowDelta, WindowSeries, WindowedRecorder,
    SERIES_SCHEMA,
};

// Re-export the contract so downstream users need only this crate.
pub use occ_sim::probe::{NoopRecorder, Recorder};
