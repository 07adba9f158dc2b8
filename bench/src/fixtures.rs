//! Trace fixtures, generated in-process from the benchmark seed. `occ`
//! only ever receives the files.

use occ_sim::{
    Binary2TraceWriter, BinaryTraceWriter, CacheSet, EngineCtx, RequestSource, SimStats,
    TraceIoError,
};
use occ_workloads::{sqlvm_like, TenantMixSource, TenantSpec};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Page-count multiplier on the sqlvm-like tenants: 256 pages become
/// 65,536, so a k = 8192 cache holds an eighth of the universe and every
/// policy has real eviction work to do.
pub const PAGE_SCALE: u32 = 256;

/// The sqlvm-like tenant mix (same patterns and arrival rates) over
/// [`PAGE_SCALE`]× the pages.
pub fn tenants() -> Vec<TenantSpec> {
    sqlvm_like()
        .tenants
        .into_iter()
        .map(|t| TenantSpec {
            pages: t.pages * PAGE_SCALE,
            ..t
        })
        .collect()
}

/// The two on-disk trace formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Fixed-width occbin01, served from a memory mapping.
    V1,
    /// Delta/varint occbin02, decoded while streaming.
    V2,
}

/// A context for pulling from non-adaptive sources outside an engine.
pub struct DetachedCtx {
    cache: CacheSet,
    stats: SimStats,
    universe: occ_sim::Universe,
}

impl DetachedCtx {
    /// An empty one-slot cache over `universe`.
    pub fn new(universe: &occ_sim::Universe) -> Self {
        DetachedCtx {
            cache: CacheSet::new(1, universe.num_pages()),
            stats: SimStats::new(universe.num_users()),
            universe: universe.clone(),
        }
    }

    /// The context to hand to `next_request`.
    pub fn ctx(&self) -> EngineCtx<'_> {
        EngineCtx {
            time: 0,
            cache: &self.cache,
            stats: &self.stats,
            universe: &self.universe,
        }
    }
}

/// Write `len` requests of the tenant mix drawn with `seed` to `path`;
/// returns the file size in bytes.
pub fn write_trace(path: &Path, format: Format, len: u64, seed: u64) -> Result<u64, String> {
    let fail = |e: TraceIoError| format!("write fixture {}: {e}", path.display());
    let mut source = TenantMixSource::new(&tenants(), len, seed);
    let universe = source.universe().clone();
    let detached = DetachedCtx::new(&universe);
    let ctx = detached.ctx();
    let file = File::create(path).map_err(|e| fail(e.into()))?;
    let mut out = match format {
        Format::V1 => {
            let mut w = BinaryTraceWriter::new(universe, BufWriter::new(file)).map_err(fail)?;
            while let Some(r) = source.next_request(&ctx) {
                w.push(r).map_err(fail)?;
            }
            w.finish().map_err(fail)?
        }
        Format::V2 => {
            let mut w =
                Binary2TraceWriter::new(universe, len, BufWriter::new(file)).map_err(fail)?;
            while let Some(r) = source.next_request(&ctx) {
                w.push(r).map_err(fail)?;
            }
            w.finish().map_err(fail)?
        }
    };
    out.flush().map_err(|e| fail(e.into()))?;
    drop(out);
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| fail(e.into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::BinarySource;

    #[test]
    fn fixtures_are_seeded_and_match_across_formats() {
        assert_eq!(
            tenants().iter().map(|t| t.pages).sum::<u32>(),
            256 * PAGE_SCALE
        );
        let dir = std::env::temp_dir().join(format!("occ-e2e-fx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let read = |p: &Path| {
            let mut s = BinarySource::open(p).unwrap();
            let d = DetachedCtx::new(s.universe());
            let mut v = Vec::new();
            while let Some(r) = s.next_request(&d.ctx()) {
                v.push(r);
            }
            v
        };
        let (a, b, c) = (dir.join("a"), dir.join("b"), dir.join("c"));
        write_trace(&a, Format::V1, 5000, 3).unwrap();
        write_trace(&b, Format::V2, 5000, 3).unwrap();
        write_trace(&c, Format::V1, 5000, 4).unwrap();
        assert_eq!(read(&a).len(), 5000);
        assert_eq!(read(&a), read(&b));
        assert_ne!(read(&a), read(&c));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
