//! In-memory spans for the traced pass.
//!
//! The harness records a span around each call it makes into a layer —
//! `{id, parent, batch, name, start_ns, end_ns, n}` — keeps them all in
//! memory, and writes them out as JSONL once the pass is over. A
//! layer's self time is a span's duration minus the part of it its
//! child spans cover. Spans are recorded from one thread; calls that
//! fan out to worker threads inside the library are one span each.

use occ_probe::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer, in opening order.
    pub id: usize,
    /// The span that was open when this one opened.
    pub parent: Option<usize>,
    /// Which batch, window or shard of the pass the call served.
    pub batch: u64,
    /// `layer.call`; the layer is everything before the first dot.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work the call did: requests, windows or bytes, per call site.
    pub n: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span sharing one name.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    /// Duration of each call, in recording order.
    pub durs_ns: Vec<u64>,
    /// Work of each call, in recording order.
    pub ns: Vec<u64>,
    /// Summed self time.
    pub self_ns: u64,
}

impl Agg {
    /// Summed `n`.
    pub fn n(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Summed duration.
    pub fn total_ns(&self) -> u64 {
        self.durs_ns.iter().sum()
    }

    /// Mean duration per call, in nanoseconds (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.durs_ns.is_empty() {
            0.0
        } else {
            self.total_ns() as f64 / self.durs_ns.len() as f64
        }
    }
}

/// Records spans; see the module docs.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, batch: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            batch,
            name,
            start_ns,
            end_ns: start_ns,
            n: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize, n: u64) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.n = n;
    }

    /// Run `f` inside a leaf span doing `n` units of work.
    pub fn leaf<T>(&mut self, name: &'static str, batch: u64, n: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, batch);
        let out = f();
        self.close(id, n);
        out
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by id.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let covered = s.end_ns.min(parent.end_ns) - s.start_ns.max(parent.start_ns);
                own[p] = own[p].saturating_sub(covered);
            }
        }
        own
    }

    /// The outermost ancestor of every span, indexed by id.
    pub fn roots(&self) -> Vec<usize> {
        let mut roots: Vec<usize> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            roots.push(s.parent.map_or(s.id, |p| roots[p]));
        }
        roots
    }

    /// Spans grouped by name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            let agg = out.entry(s.name).or_default();
            agg.durs_ns.push(s.dur_ns());
            agg.ns.push(s.n);
            agg.self_ns += own[s.id];
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("id".into(), Json::from_u64(s.id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::from_u64(p as u64)),
                ),
                ("batch".into(), Json::from_u64(s.batch)),
                ("name".into(), Json::Str(s.name.into())),
                ("start_ns".into(), Json::from_u64(s.start_ns)),
                ("end_ns".into(), Json::from_u64(s.end_ns)),
                ("n".into(), Json::from_u64(s.n)),
            ]);
            text.push_str(&line.to_json());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            batch: 0,
            name,
            start_ns: start,
            end_ns: end,
            n: 1,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // pass [0,100) ⊃ a [10,40) ⊃ a1 [15,25), and pass ⊃ b [50,90).
        let tracer = Tracer {
            epoch: Instant::now(),
            spans: vec![
                span(0, None, "pass", 0, 100),
                span(1, Some(0), "x.a", 10, 40),
                span(2, Some(1), "x.a1", 15, 25),
                span(3, Some(0), "y.b", 50, 90),
            ],
            open: Vec::new(),
        };
        assert_eq!(tracer.self_ns(), vec![30, 20, 10, 40]);
        assert_eq!(tracer.roots(), vec![0, 0, 0, 0]);
        let agg = tracer.by_name();
        assert_eq!(agg["x.a"].self_ns, 20);
        assert_eq!(agg["x.a"].total_ns(), 30);
        // Self times tile the root exactly.
        assert_eq!(tracer.self_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_nest_and_close_in_order() {
        let mut t = Tracer::new();
        let root = t.open("pass", 0);
        let v = t.leaf("x.leaf", 3, 7, || 42);
        t.close(root, 1);
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[1].batch, s[1].n), (3, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = t.self_ns();
        assert_eq!(own[0] + own[1], s[0].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.open("a", 0);
        let _b = t.open("b", 0);
        t.close(a, 0);
    }
}
