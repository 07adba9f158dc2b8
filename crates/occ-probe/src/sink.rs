//! Streaming JSONL writers.
//!
//! [`EventLog`](occ_sim::EventLog) keeps events in memory — fine for
//! tests and short traces, unbounded for long ones. For full-fidelity
//! capture of arbitrarily long runs, [`JsonlSink`] streams one JSON
//! object per event to any [`io::Write`] as the run progresses:
//! memory use is one line's buffer regardless of trace length, and the
//! output is greppable / line-parseable without loading the whole file.
//!
//! The sink is also the crate's one JSONL line writer: the window
//! series' [`SeriesSink`](crate::SeriesSink) writes through one. I/O
//! errors are *sticky*: after the first failure it stops writing (hooks
//! become cheap no-ops) and the error is reported once at the end, via
//! [`JsonlSink::error`] or [`JsonlSink::finish`], rather than panicking
//! inside the engine loop or spamming one error per remaining event.

use occ_sim::engine::EngineCtx;
use occ_sim::ids::{PageId, Time, UserId};
use occ_sim::probe::Recorder;
use std::fmt;
use std::io::{self, Write};

/// The crate's one sticky-error JSONL writer. As a [`Recorder`] it
/// streams one line per engine event; [`SeriesSink`](crate::SeriesSink)
/// writes window lines through one.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer. Callers that hand in a raw `File` should wrap it
    /// in a `BufWriter` first — the sink writes one small line at a
    /// time.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first I/O error hit, if any (writing stopped there).
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flush the writer, or report the sticky error.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        match &self.error {
            Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
            None => self.out.flush(),
        }
    }

    /// Flush the writer and tear down, returning it — or the sticky
    /// error if one occurred at any point.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// The writer, for appending bytes that are not lines.
    pub(crate) fn get_mut(&mut self) -> &mut W {
        &mut self.out
    }

    /// Write one line; `line` carries its own terminating newline.
    #[inline]
    pub(crate) fn emit(&mut self, line: fmt::Arguments<'_>) {
        if self.error.is_some() {
            return;
        }
        match self.out.write_fmt(line) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> Recorder for JsonlSink<W> {
    fn record_hit(&mut self, _ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        self.emit(format_args!(
            "{{\"t\":{t},\"kind\":\"hit\",\"page\":{},\"user\":{}}}\n",
            page.0, user.0
        ));
    }

    fn record_insert(&mut self, _ctx: &EngineCtx, t: Time, page: PageId, user: UserId) {
        self.emit(format_args!(
            "{{\"t\":{t},\"kind\":\"insert\",\"page\":{},\"user\":{}}}\n",
            page.0, user.0
        ));
    }

    fn record_eviction(
        &mut self,
        _ctx: &EngineCtx,
        t: Time,
        page: PageId,
        user: UserId,
        victim: PageId,
        victim_user: UserId,
    ) {
        self.emit(format_args!(
            "{{\"t\":{t},\"kind\":\"evict\",\"page\":{},\"user\":{},\"victim\":{},\"victim_user\":{}}}\n",
            page.0, user.0, victim.0, victim_user.0
        ));
    }

    fn record_flush_eviction(&mut self, page: PageId, user: UserId) {
        self.emit(format_args!(
            "{{\"kind\":\"flush_evict\",\"page\":{},\"user\":{}}}\n",
            page.0, user.0
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use occ_baselines::Lru;
    use occ_sim::prelude::*;

    #[test]
    fn every_event_is_one_parseable_line() {
        let u = Universe::uniform(2, 4);
        let pages: Vec<u32> = (0..100u32).map(|i| (i * 3 + 1) % 8).collect();
        let trace = Trace::from_page_indices(&u, &pages);
        let mut sink = JsonlSink::new(Vec::new());
        let result = Simulator::new(3).flush_at_end(true).run_recorded(
            &mut Lru::default(),
            &trace,
            &mut sink,
        );
        // One line per request, plus one per page flushed at the end.
        let flushed = result.final_cache.len() as u64;
        let lines = sink.lines();
        assert_eq!(lines, result.steps + flushed);
        let buf = sink.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count() as u64, lines);
        let mut evicts = 0u64;
        for line in text.lines() {
            let v = Json::parse(line).expect("line parses");
            let kind = v.get("kind").and_then(Json::as_str).unwrap();
            assert!(["hit", "insert", "evict", "flush_evict"].contains(&kind));
            if kind == "evict" {
                assert!(v.get("victim").and_then(Json::as_u64).is_some());
                evicts += 1;
            }
        }
        assert_eq!(evicts + flushed, result.stats.total_evictions());
    }

    #[test]
    fn errors_are_sticky_not_fatal() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let u = Universe::single_user(4);
        let trace = Trace::from_page_indices(&u, &[0, 1, 2, 3, 0, 1]);
        // `write_fmt` issues several `write` calls per line; whichever
        // one hits the failure, the sink must absorb it (the run
        // completes), stop counting lines, and surface it at the end.
        let mut sink = JsonlSink::new(FailAfter(2));
        let result = Simulator::new(2).run_recorded(&mut Lru::default(), &trace, &mut sink);
        assert_eq!(result.steps, 6); // the failure never reached the engine
        assert!(sink.lines() < 6);
        assert!(sink.error().is_some());
        assert!(sink.finish().is_err());
    }
}
