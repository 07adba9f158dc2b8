//! Compact binary trace serialization.
//!
//! The text format ([`crate::textio`]) is the diffable, versionable
//! interchange form; this module is its high-volume twin for traces too
//! large to hold as text (or in memory at all). The layout is fixed-width
//! little-endian:
//!
//! ```text
//! offset  size            field
//! 0       8               magic  b"occbin01"
//! 8       4               num_users   (u32, > 0)
//! 12      4               num_pages   (u32)
//! 16      4 * num_pages   owner table (u32 per page, < num_users)
//! …       8               num_requests (u64)
//! …       4 * num_requests  requested page ids (u32, < num_pages)
//! …       8               footer magic b"occsum01"   (optional)
//! …       4               crc32 of the request-id bytes (u32)
//! ```
//!
//! Requests carry only the page id — the owner is implied by the owner
//! table, exactly as in the text format. Readers and writers move data in
//! bounded chunks, so a billion-request trace streams from disk without
//! full residency: [`BinaryTraceReader`] is a
//! [`RequestSource`](crate::source::RequestSource) whose memory footprint
//! is the owner table plus one chunk, independent of the request count.
//!
//! The footer is a torn-write guard: both writers append it, and both
//! readers verify it when present (a payload whose CRC-32 disagrees with
//! the footer is a parse error, exit 4 at the CLI). Traces written before
//! the footer existed have nothing after the last request and stay
//! accepted. The checksum covers the request-id bytes only — the header's
//! request count is patched after the payload by the incremental writer,
//! so including it would force a second pass over the file.

use crate::checksum::Crc32;
use crate::engine::EngineCtx;
use crate::ids::{PageId, UserId};
use crate::source::{RequestSource, SeekableSource};
use crate::textio::TraceIoError;
use crate::trace::{Request, Trace, TraceBuilder, Universe};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// First eight bytes of every binary trace.
pub const BINARY_TRACE_MAGIC: [u8; 8] = *b"occbin01";

/// Magic introducing the optional checksum footer after the last request.
pub const BINARY_TRACE_FOOTER_MAGIC: [u8; 8] = *b"occsum01";

/// Page ids per chunk moved by the streaming reader/writer: 64 Ki ids =
/// 256 KiB per transfer, large enough to amortize syscalls, small enough
/// to keep residency trivially bounded.
const CHUNK_IDS: usize = 64 * 1024;

fn parse_err(msg: impl Into<String>) -> TraceIoError {
    TraceIoError::Parse(msg.into())
}

/// Classify an I/O failure while a fixed-width field is being read:
/// running out of bytes mid-field is a malformed (truncated) file, not an
/// environment failure.
fn classify(e: std::io::Error, what: &str) -> TraceIoError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        parse_err(format!("truncated binary trace: unexpected EOF in {what}"))
    } else {
        TraceIoError::Io(e)
    }
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, TraceIoError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(|e| classify(e, what))?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, TraceIoError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(|e| classify(e, what))?;
    Ok(u64::from_le_bytes(buf))
}

/// Read the magic + universe header, leaving the reader positioned at the
/// request count.
fn read_universe<R: Read>(r: &mut R) -> Result<Universe, TraceIoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| classify(e, "the magic"))?;
    if magic != BINARY_TRACE_MAGIC {
        return Err(parse_err(format!(
            "bad magic {magic:?}, expected {BINARY_TRACE_MAGIC:?}"
        )));
    }
    let num_users = read_u32(r, "the user count")?;
    if num_users == 0 {
        return Err(parse_err("a trace needs at least one user"));
    }
    let num_pages = read_u32(r, "the page count")? as usize;
    // Read the owner table chunkwise: the capacity hint is capped so a
    // corrupt header cannot demand an arbitrary allocation up front.
    let mut owners: Vec<UserId> = Vec::with_capacity(num_pages.min(CHUNK_IDS));
    let mut buf = vec![0u8; 4 * CHUNK_IDS];
    let mut remaining = num_pages;
    while remaining > 0 {
        let take = remaining.min(CHUNK_IDS);
        let bytes = &mut buf[..4 * take];
        r.read_exact(bytes)
            .map_err(|e| classify(e, "the owner table"))?;
        for ids in bytes.chunks_exact(4) {
            let u = u32::from_le_bytes(ids.try_into().expect("4-byte chunk"));
            if u >= num_users {
                return Err(parse_err(format!("owner {u} out of range")));
            }
            owners.push(UserId(u));
        }
        remaining -= take;
    }
    Ok(Universe::new(num_users, owners))
}

/// After the last request, look for the optional checksum footer and
/// verify it against the CRC-32 of the request-id bytes just consumed.
/// Zero bytes after the payload is a legacy (pre-footer) trace and is
/// accepted; a footer magic followed by too few bytes is truncation; a
/// checksum disagreement is corruption. Trailing bytes that are not the
/// footer magic are ignored, as they were before the footer existed.
fn check_footer<R: Read>(r: &mut R, payload_crc: u32) -> Result<(), TraceIoError> {
    let mut foot = [0u8; 12];
    let mut got = 0usize;
    while got < foot.len() {
        match r.read(&mut foot[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceIoError::Io(e)),
        }
    }
    verify_footer_probe(&foot[..got], payload_crc)
}

/// Verify an occbin01 footer given the (up to 12) bytes that follow the
/// request payload. Shared by the buffered reader (which pulls the probe
/// from its stream) and the mmap source (which slices it off the
/// mapping), so both paths accept and reject exactly the same files.
fn verify_footer_probe(foot: &[u8], payload_crc: u32) -> Result<(), TraceIoError> {
    if foot.len() >= 8 && foot[..8] == BINARY_TRACE_FOOTER_MAGIC {
        if foot.len() < 12 {
            return Err(parse_err(
                "truncated binary trace: unexpected EOF in the footer checksum",
            ));
        }
        let want = u32::from_le_bytes(foot[8..12].try_into().expect("4-byte slice"));
        if want != payload_crc {
            return Err(parse_err(format!(
                "footer checksum mismatch: footer says crc32 {want:08x}, request stream hashes \
                 to {payload_crc:08x} (corrupt or torn trace)"
            )));
        }
    }
    Ok(())
}

/// Write an entire in-memory `trace` in the binary format.
pub fn write_trace_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    let universe = trace.universe();
    w.write_all(&BINARY_TRACE_MAGIC)?;
    w.write_all(&universe.num_users().to_le_bytes())?;
    w.write_all(&universe.num_pages().to_le_bytes())?;
    let mut buf = Vec::with_capacity(4 * CHUNK_IDS);
    for chunk in universe.owners().chunks(CHUNK_IDS) {
        buf.clear();
        for &u in chunk {
            buf.extend_from_slice(&u.0.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut crc = Crc32::new();
    for chunk in trace.requests().chunks(CHUNK_IDS) {
        buf.clear();
        for r in chunk {
            buf.extend_from_slice(&r.page.0.to_le_bytes());
        }
        crc.update(&buf);
        w.write_all(&buf)?;
    }
    w.write_all(&BINARY_TRACE_FOOTER_MAGIC)?;
    w.write_all(&crc.value().to_le_bytes())?;
    Ok(())
}

/// Read a whole binary trace into memory. For traces that do not fit,
/// use [`BinaryTraceReader`] and stream instead.
pub fn read_trace_binary<R: Read>(mut r: R) -> Result<Trace, TraceIoError> {
    let universe = read_universe(&mut r)?;
    let num_pages = universe.num_pages();
    let count = read_u64(&mut r, "the request count")?;
    let mut builder = TraceBuilder::new(universe);
    let mut buf = vec![0u8; 4 * CHUNK_IDS];
    let mut remaining = count;
    let mut crc = Crc32::new();
    while remaining > 0 {
        let take = (remaining as usize).min(CHUNK_IDS);
        let bytes = &mut buf[..4 * take];
        r.read_exact(bytes)
            .map_err(|e| classify(e, "the request stream"))?;
        crc.update(bytes);
        for ids in bytes.chunks_exact(4) {
            let page = u32::from_le_bytes(ids.try_into().expect("4-byte chunk"));
            if page >= num_pages {
                return Err(parse_err(format!("page {page} out of range")));
            }
            builder.push(PageId(page));
        }
        remaining -= take as u64;
    }
    check_footer(&mut r, crc.value())?;
    Ok(builder.build())
}

/// Read a trace in any of the three formats, sniffing the first bytes:
/// fixed-width binary if they begin with [`BINARY_TRACE_MAGIC`], packed
/// binary if with [`crate::binio2::BINARY2_TRACE_MAGIC`], text
/// otherwise.
pub fn read_trace_auto<R: BufRead>(mut r: R) -> Result<Trace, TraceIoError> {
    let head = r.fill_buf()?;
    // Compare against however much of the prefix is available — a file
    // shorter than the magic cannot be binary.
    let prefix = |magic: &[u8]| head.len() >= magic.len() && &head[..magic.len()] == magic;
    if prefix(&BINARY_TRACE_MAGIC) {
        read_trace_binary(r)
    } else if prefix(&crate::binio2::BINARY2_TRACE_MAGIC) {
        crate::binio2::read_trace_binary_v2(r)
    } else {
        crate::textio::read_trace(r)
    }
}

/// Incremental binary-trace writer for streams whose length is not known
/// up front: the request count is written as a placeholder and patched on
/// [`finish`](Self::finish) (which is why the sink must be [`Seek`]).
pub struct BinaryTraceWriter<W: Write + Seek> {
    sink: W,
    universe: Universe,
    count_offset: u64,
    written: u64,
    buf: Vec<u8>,
    crc: Crc32,
}

impl<W: Write + Seek> BinaryTraceWriter<W> {
    /// Write the header for `universe` and return a writer ready to
    /// accept requests.
    pub fn new(universe: Universe, mut sink: W) -> Result<Self, TraceIoError> {
        sink.write_all(&BINARY_TRACE_MAGIC)?;
        sink.write_all(&universe.num_users().to_le_bytes())?;
        sink.write_all(&universe.num_pages().to_le_bytes())?;
        let mut buf = Vec::with_capacity(4 * CHUNK_IDS);
        for chunk in universe.owners().chunks(CHUNK_IDS) {
            buf.clear();
            for &u in chunk {
                buf.extend_from_slice(&u.0.to_le_bytes());
            }
            sink.write_all(&buf)?;
        }
        let count_offset = sink.stream_position()?;
        sink.write_all(&0u64.to_le_bytes())?;
        buf.clear();
        Ok(BinaryTraceWriter {
            sink,
            universe,
            count_offset,
            written: 0,
            buf,
            crc: Crc32::new(),
        })
    }

    /// Append one request. Rejects pages outside the universe and owner
    /// claims that disagree with it (the same invariant [`Trace::new`]
    /// enforces, as a typed error instead of a panic).
    pub fn push(&mut self, req: Request) -> Result<(), TraceIoError> {
        match self.universe.try_owner(req.page) {
            None => {
                return Err(parse_err(format!(
                    "request {}: page {} outside the universe",
                    self.written, req.page
                )))
            }
            Some(owner) if owner != req.user => {
                return Err(parse_err(format!(
                    "request {}: {} does not own {}",
                    self.written, req.user, req.page
                )))
            }
            Some(_) => {}
        }
        let id = req.page.0.to_le_bytes();
        self.crc.update(&id);
        self.buf.extend_from_slice(&id);
        if self.buf.len() >= 4 * CHUNK_IDS {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.written += 1;
        Ok(())
    }

    /// Flush buffered requests, append the checksum footer, patch the
    /// request count into the header, and return the sink. Dropping the
    /// writer without calling this leaves a file whose header promises
    /// zero requests.
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        if !self.buf.is_empty() {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.sink.write_all(&BINARY_TRACE_FOOTER_MAGIC)?;
        self.sink.write_all(&self.crc.value().to_le_bytes())?;
        let end = self.sink.stream_position()?;
        self.sink.seek(SeekFrom::Start(self.count_offset))?;
        self.sink.write_all(&self.written.to_le_bytes())?;
        self.sink.seek(SeekFrom::Start(end))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Chunked binary-trace reader that serves as a
/// [`RequestSource`]: requests stream from the underlying reader
/// `CHUNK_IDS` at a time, so memory stays bounded regardless of how many
/// requests the file holds.
///
/// [`RequestSource::next_request`] has no error channel, so a mid-stream
/// failure (truncation, disk error, out-of-range page) ends the stream
/// early and parks the error in [`error`](Self::error) — run loops should
/// check it (or call [`finish`](Self::finish)) after the source runs dry.
pub struct BinaryTraceReader<R: Read> {
    reader: R,
    universe: Universe,
    total: u64,
    served: u64,
    chunk: Vec<Request>,
    /// Next index to serve from `chunk`.
    pos: usize,
    /// Encoded page ids of the chunk being decoded, reused across
    /// refills.
    bytes: Vec<u8>,
    error: Option<TraceIoError>,
    crc: Crc32,
    footer_checked: bool,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Read the header (universe + request count) and return a source
    /// positioned at the first request.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let universe = read_universe(&mut reader)?;
        let total = read_u64(&mut reader, "the request count")?;
        Ok(BinaryTraceReader {
            reader,
            universe,
            total,
            served: 0,
            chunk: Vec::new(),
            pos: 0,
            bytes: Vec::new(),
            error: None,
            crc: Crc32::new(),
            footer_checked: false,
        })
    }

    /// Total requests promised by the header.
    pub fn total_requests(&self) -> u64 {
        self.total
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Tear down the source; returns the parked error if the stream
    /// ended early, so callers can surface truncation with a `?`.
    pub fn finish(self) -> Result<(), TraceIoError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn refill(&mut self) -> Result<bool, TraceIoError> {
        // `served` counts requests handed out; buffered-but-unserved
        // requests must be included when computing what is left on disk.
        let buffered = (self.chunk.len() - self.pos) as u64;
        let remaining = self.total - self.served - buffered;
        if remaining == 0 {
            if !self.footer_checked {
                self.footer_checked = true;
                check_footer(&mut self.reader, self.crc.value())?;
            }
            return Ok(false);
        }
        let take = (remaining as usize).min(CHUNK_IDS);
        // Grows (and zero-fills) on the first refill only; later
        // refills overwrite it in place.
        self.bytes.resize(4 * take, 0);
        self.reader
            .read_exact(&mut self.bytes)
            .map_err(|e| classify(e, "the request stream"))?;
        self.crc.update(&self.bytes);
        self.chunk.clear();
        for ids in self.bytes.chunks_exact(4) {
            let page = u32::from_le_bytes(ids.try_into().expect("4-byte chunk"));
            match self.universe.try_owner(PageId(page)) {
                Some(user) => self.chunk.push(Request {
                    page: PageId(page),
                    user,
                }),
                None => return Err(parse_err(format!("page {page} out of range"))),
            }
        }
        self.pos = 0;
        Ok(true)
    }
}

impl<R: Read> RequestSource for BinaryTraceReader<R> {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        if self.error.is_some() {
            return None;
        }
        if self.pos >= self.chunk.len() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
        let req = self.chunk[self.pos];
        self.pos += 1;
        self.served += 1;
        Some(req)
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        if max == 0 || self.error.is_some() {
            return None;
        }
        if self.pos >= self.chunk.len() {
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.error = Some(e);
                    return None;
                }
            }
        }
        let take = (self.chunk.len() - self.pos).min(max);
        let run = &self.chunk[self.pos..self.pos + take];
        self.pos += take;
        self.served += take as u64;
        Some(run)
    }
}

impl<R: Read> SeekableSource for BinaryTraceReader<R> {
    /// Decode-and-discard fast-forward through the same chunked refill
    /// path as serving, so validation (page range, truncation, footer
    /// checksum) and the running CRC see exactly the bytes a full
    /// replay would. Errors park in [`error`](Self::error) as usual.
    fn seek_forward(&mut self, n: u64) {
        let mut remaining = n;
        while remaining > 0 {
            if self.error.is_some() {
                return;
            }
            let avail = (self.chunk.len() - self.pos) as u64;
            if avail == 0 {
                match self.refill() {
                    Ok(true) => continue,
                    Ok(false) => return,
                    Err(e) => {
                        self.error = Some(e);
                        return;
                    }
                }
            }
            let take = avail.min(remaining);
            self.pos += take as usize;
            self.served += take;
            remaining -= take;
        }
    }
}

/// Zero-copy occbin01 source backed by a read-only memory mapping.
///
/// The fixed-width format stores requests as bare little-endian page
/// ids, and [`PageId`] is `repr(transparent)` over `u32`, so on a
/// little-endian machine a mapped run of ids *is* a `&[PageId]` — no
/// read syscalls, no kernel→user copy, no per-refill allocation, no
/// per-request `Request` construction. [`next_page_run`] hands out
/// slices straight from the mapping; the batched engine derives each
/// request's owner from the universe exactly as the buffered decoder
/// would have.
///
/// What is *not* skipped: every served run is still range-validated
/// against the universe before the engine sees it (a max-scan, so the
/// hot loop stays branch-light and vectorizable), the running CRC still
/// covers every payload byte, and the footer is still verified when the
/// stream drains — the mmap path accepts and rejects exactly the same
/// files as [`BinaryTraceReader`], byte for byte.
///
/// Construction fails (`ErrorKind::Unsupported`) on non-unix targets,
/// big-endian targets, and non-regular files (pipes, sockets,
/// `/dev/stdin`); [`BinarySource::open`] falls back to the buffered
/// reader in all those cases.
///
/// [`next_page_run`]: crate::source::RequestSource::next_page_run
pub struct MmapTraceSource {
    map: mmap::Mmap,
    universe: Universe,
    total: u64,
    /// Byte offset of the first request id within the mapping.
    payload_start: usize,
    served: u64,
    error: Option<TraceIoError>,
    crc: Crc32,
    footer_checked: bool,
}

impl MmapTraceSource {
    /// Map `path` and parse its occbin01 header. Emits the
    /// `madvise(MADV_SEQUENTIAL)` readahead hint immediately: trace
    /// replay is a single front-to-back pass.
    pub fn open(path: &Path) -> Result<Self, TraceIoError> {
        if cfg!(not(all(unix, target_endian = "little"))) {
            // The id bytes are little-endian on disk; reinterpreting
            // them in place needs a little-endian host (and mmap needs
            // unix). Everything else falls back to the buffered reader.
            return Err(TraceIoError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "zero-copy traces need a little-endian unix host; use the buffered reader",
            )));
        }
        let file = File::open(path)?;
        let meta = file.metadata()?;
        if !meta.is_file() {
            return Err(TraceIoError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "not a regular file; use the buffered reader",
            )));
        }
        let map = mmap::Mmap::map_readonly(&file)?;
        map.advise_sequential();
        Self::from_map(map)
    }

    fn from_map(map: mmap::Mmap) -> Result<Self, TraceIoError> {
        // `&[u8]` is a `Read` that consumes from the front, so the
        // header parser (and its error vocabulary) is shared verbatim
        // with the buffered path.
        let mut cursor: &[u8] = &map;
        let universe = read_universe(&mut cursor)?;
        let total = read_u64(&mut cursor, "the request count")?;
        let payload_start = map.len() - cursor.len();
        // Header layout guarantees 4-byte alignment of the payload
        // (8 + 4 + 4 + 4·pages + 8), and mappings are page-aligned.
        debug_assert_eq!(payload_start % 4, 0);
        Ok(MmapTraceSource {
            map,
            universe,
            total,
            payload_start,
            served: 0,
            error: None,
            crc: Crc32::new(),
            footer_checked: false,
        })
    }

    /// Total requests promised by the header.
    pub fn total_requests(&self) -> u64 {
        self.total
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        self.error.as_ref()
    }

    /// Tear down the source; returns the parked error if the stream
    /// ended early, so callers can surface truncation with a `?`.
    pub fn finish(self) -> Result<(), TraceIoError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Verify the optional footer against the mapped bytes after the
    /// payload, once, parking any mismatch.
    fn check_footer_once(&mut self) {
        if self.footer_checked {
            return;
        }
        self.footer_checked = true;
        // `served == total` implies the payload fit in the mapping, so
        // this offset is in bounds.
        let after = self.payload_start + (self.total as usize) * 4;
        let probe = &self.map[after..(after + 12).min(self.map.len())];
        if let Err(e) = verify_footer_probe(probe, self.crc.value()) {
            self.error = Some(e);
        }
    }

    /// The run-serving core: validate, checksum, and hand out up to
    /// `max` ids as a slice of the mapping.
    fn serve_run(&mut self, max: usize) -> Option<&[PageId]> {
        if max == 0 || self.error.is_some() {
            return None;
        }
        let remaining = self.total - self.served;
        if remaining == 0 {
            self.check_footer_once();
            return None;
        }
        let take = (remaining).min(max as u64) as usize;
        let start = self.payload_start + (self.served as usize) * 4;
        let end = start + take * 4;
        if end > self.map.len() {
            self.error = Some(parse_err(
                "truncated binary trace: unexpected EOF in the request stream",
            ));
            return None;
        }
        let bytes = &self.map[start..end];
        // Range-validate with a branch-light max-scan; only on failure
        // (never in a healthy replay) rescan for the first offender so
        // the report matches the buffered reader's.
        let num_pages = self.universe.num_pages();
        let mut worst = 0u32;
        for id in bytes.chunks_exact(4) {
            worst = worst.max(u32::from_le_bytes(id.try_into().expect("4-byte chunk")));
        }
        if worst >= num_pages {
            let bad = bytes
                .chunks_exact(4)
                .map(|id| u32::from_le_bytes(id.try_into().expect("4-byte chunk")))
                .find(|&id| id >= num_pages)
                .expect("max-scan saw an out-of-range id");
            self.error = Some(parse_err(format!("page {bad} out of range")));
            return None;
        }
        self.crc.update(bytes);
        self.served += take as u64;
        // Safety: `bytes` is a 4-aligned (payload_start ≡ 0 mod 4 on a
        // page-aligned mapping, and we advance in whole ids), in-bounds
        // region of `take` little-endian u32s; `PageId` is
        // `repr(transparent)` over `u32`, and construction is gated to
        // little-endian hosts, so the reinterpretation is exact.
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<PageId>(), 0);
        Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const PageId, take) })
    }
}

impl RequestSource for MmapTraceSource {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        let page = *self
            .serve_run(1)?
            .first()
            .expect("serve_run(1) is non-empty");
        Some(Request {
            page,
            user: self.universe.owner(page),
        })
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        self.serve_run(max)
    }
}

impl SeekableSource for MmapTraceSource {
    /// Fast-forward through the same serving core as replay, so
    /// validation, the running CRC and the footer check see exactly the
    /// bytes a full replay would.
    fn seek_forward(&mut self, n: u64) {
        let mut remaining = n;
        while remaining > 0 {
            let max = remaining.min(CHUNK_IDS as u64) as usize;
            match self.serve_run(max) {
                Some(run) => remaining -= run.len() as u64,
                None => return,
            }
        }
    }
}

/// A binary trace opened from a path, with the access strategy chosen
/// automatically from the file's magic and nature:
///
/// * occbin01, regular file, little-endian unix host → [`Mmap`]
///   (zero-copy, [`MmapTraceSource`]),
/// * occbin01 otherwise (pipe, `/dev/stdin`, exotic platform, or a
///   filesystem where mapping fails) → [`Buffered`]
///   ([`BinaryTraceReader`]),
/// * occbin02 → [`Packed`] (streaming delta/varint decode,
///   [`crate::binio2::Binary2TraceReader`]).
///
/// All three serve identical request streams for identical traces; the
/// choice only affects throughput. Callers that care can log
/// [`strategy`](Self::strategy).
///
/// [`Mmap`]: BinarySource::Mmap
/// [`Buffered`]: BinarySource::Buffered
/// [`Packed`]: BinarySource::Packed
pub enum BinarySource {
    /// Zero-copy mapping of a fixed-width trace.
    Mmap(MmapTraceSource),
    /// Chunked buffered reads of a fixed-width trace.
    Buffered(BinaryTraceReader<BufReader<File>>),
    /// Streaming decode of a packed (delta/varint) trace.
    Packed(crate::binio2::Binary2TraceReader<BufReader<File>>),
}

impl BinarySource {
    /// Open `path`, sniff its magic, and pick the fastest applicable
    /// strategy. Unreadable headers are parse errors regardless of
    /// strategy.
    pub fn open(path: &Path) -> Result<BinarySource, TraceIoError> {
        let file = File::open(path)?;
        let mut reader = BufReader::new(file);
        let head = reader.fill_buf()?;
        let is_v2 = head.len() >= 8 && head[..8] == crate::binio2::BINARY2_TRACE_MAGIC;
        if is_v2 {
            return Ok(BinarySource::Packed(
                crate::binio2::Binary2TraceReader::new(reader)?,
            ));
        }
        let regular = reader
            .get_ref()
            .metadata()
            .map(|m| m.is_file())
            .unwrap_or(false);
        if regular && cfg!(all(unix, target_endian = "little")) {
            match MmapTraceSource::open(path) {
                Ok(src) => return Ok(BinarySource::Mmap(src)),
                // A malformed header is malformed however it is read —
                // report it rather than re-parsing the same bytes.
                Err(e @ TraceIoError::Parse(_)) => return Err(e),
                // Mapping itself failed: fall through to buffered reads.
                Err(TraceIoError::Io(_)) => {}
            }
        }
        Ok(BinarySource::Buffered(BinaryTraceReader::new(reader)?))
    }

    /// Which access strategy was chosen ("mmap", "buffered" or
    /// "packed") — for logs and reports.
    pub fn strategy(&self) -> &'static str {
        match self {
            BinarySource::Mmap(_) => "mmap",
            BinarySource::Buffered(_) => "buffered",
            BinarySource::Packed(_) => "packed",
        }
    }

    /// Total requests promised by the header.
    pub fn total_requests(&self) -> u64 {
        match self {
            BinarySource::Mmap(s) => s.total_requests(),
            BinarySource::Buffered(s) => s.total_requests(),
            BinarySource::Packed(s) => s.total_requests(),
        }
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        match self {
            BinarySource::Mmap(s) => s.error(),
            BinarySource::Buffered(s) => s.error(),
            BinarySource::Packed(s) => s.error(),
        }
    }

    /// Tear down the source; returns the parked error if the stream
    /// ended early.
    pub fn finish(self) -> Result<(), TraceIoError> {
        match self {
            BinarySource::Mmap(s) => s.finish(),
            BinarySource::Buffered(s) => s.finish(),
            BinarySource::Packed(s) => s.finish(),
        }
    }
}

impl RequestSource for BinarySource {
    fn universe(&self) -> &Universe {
        match self {
            BinarySource::Mmap(s) => s.universe(),
            BinarySource::Buffered(s) => s.universe(),
            BinarySource::Packed(s) => s.universe(),
        }
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        match self {
            BinarySource::Mmap(s) => s.next_request(ctx),
            BinarySource::Buffered(s) => s.next_request(ctx),
            BinarySource::Packed(s) => s.next_request(ctx),
        }
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        match self {
            BinarySource::Mmap(s) => s.next_run(max),
            BinarySource::Buffered(s) => s.next_run(max),
            BinarySource::Packed(s) => s.next_run(max),
        }
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        match self {
            BinarySource::Mmap(s) => s.next_page_run(max),
            BinarySource::Buffered(s) => s.next_page_run(max),
            BinarySource::Packed(s) => s.next_page_run(max),
        }
    }
}

impl SeekableSource for BinarySource {
    fn seek_forward(&mut self, n: u64) {
        match self {
            BinarySource::Mmap(s) => s.seek_forward(n),
            BinarySource::Buffered(s) => s.seek_forward(n),
            BinarySource::Packed(s) => s.seek_forward(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample() -> Trace {
        let u = Universe::uniform(2, 2);
        Trace::from_page_indices(&u, &[0, 2, 1, 3, 0])
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let back = read_trace_binary(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
        assert_eq!(back.universe(), t.universe());
    }

    #[test]
    fn written_form_is_stable() {
        let u = Universe::uniform(1, 2);
        let t = Trace::from_page_indices(&u, &[1, 0]);
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let mut want = b"occbin01".to_vec();
        want.extend_from_slice(&1u32.to_le_bytes()); // users
        want.extend_from_slice(&2u32.to_le_bytes()); // pages
        want.extend_from_slice(&0u32.to_le_bytes()); // owner of p0
        want.extend_from_slice(&0u32.to_le_bytes()); // owner of p1
        want.extend_from_slice(&2u64.to_le_bytes()); // requests
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&0u32.to_le_bytes());
        // Checksum footer over the request-id bytes only.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        want.extend_from_slice(&BINARY_TRACE_FOOTER_MAGIC);
        want.extend_from_slice(&crate::checksum::crc32(&payload).to_le_bytes());
        assert_eq!(buf, want);
    }

    #[test]
    fn incremental_writer_matches_whole_trace_writer() {
        let t = sample();
        let mut whole = Vec::new();
        write_trace_binary(&t, &mut whole).unwrap();

        let mut w = BinaryTraceWriter::new(t.universe().clone(), Cursor::new(Vec::new())).unwrap();
        for &r in t.requests() {
            w.push(r).unwrap();
        }
        let streamed = w.finish().unwrap().into_inner();
        assert_eq!(streamed, whole);
    }

    #[test]
    fn incremental_writer_validates_requests() {
        let u = Universe::uniform(2, 2);
        let mut w = BinaryTraceWriter::new(u.clone(), Cursor::new(Vec::new())).unwrap();
        let err = w
            .push(Request {
                page: PageId(99),
                user: UserId(0),
            })
            .unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
        let err = w
            .push(Request {
                page: PageId(0),
                user: UserId(1),
            })
            .unwrap_err();
        assert!(err.to_string().contains("does not own"));
    }

    #[test]
    fn streaming_reader_replays_identically() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let mut src = BinaryTraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(src.total_requests(), t.len() as u64);
        let ctx_universe = src.universe().clone();
        let cache = crate::cache::CacheSet::new(1, ctx_universe.num_pages());
        let stats = crate::stats::SimStats::new(ctx_universe.num_users());
        let ctx = EngineCtx {
            time: 0,
            cache: &cache,
            stats: &stats,
            universe: &ctx_universe,
        };
        let mut got = Vec::new();
        while let Some(r) = src.next_request(&ctx) {
            got.push(r);
        }
        assert_eq!(got.as_slice(), t.requests());
        src.finish().unwrap();
    }

    #[test]
    fn truncated_header_is_a_parse_error() {
        for cut in [0usize, 4, 10, 14] {
            let t = sample();
            let mut buf = Vec::new();
            write_trace_binary(&t, &mut buf).unwrap();
            buf.truncate(cut);
            let err = read_trace_binary(buf.as_slice()).unwrap_err();
            assert!(matches!(err, TraceIoError::Parse(_)), "cut={cut}: {err}");
        }
    }

    #[test]
    fn truncated_request_stream_is_a_parse_error() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        // Cut into the last request, past the 12-byte footer.
        buf.truncate(buf.len() - 12 - 3);
        let err = read_trace_binary(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        // The streaming reader parks the same error instead of panicking.
        let mut src = BinaryTraceReader::new(buf.as_slice()).unwrap();
        let u = src.universe().clone();
        let cache = crate::cache::CacheSet::new(1, u.num_pages());
        let stats = crate::stats::SimStats::new(u.num_users());
        let ctx = EngineCtx {
            time: 0,
            cache: &cache,
            stats: &stats,
            universe: &u,
        };
        while src.next_request(&ctx).is_some() {}
        assert!(matches!(src.finish(), Err(TraceIoError::Parse(_))));
    }

    #[test]
    fn corrupt_fields_are_parse_errors() {
        let t = sample();
        let mut good = Vec::new();
        write_trace_binary(&t, &mut good).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_trace_binary(bad.as_slice()),
            Err(TraceIoError::Parse(_))
        ));

        // Zero users.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        let err = read_trace_binary(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("at least one user"));

        // Owner out of range.
        let mut bad = good.clone();
        bad[16..20].copy_from_slice(&7u32.to_le_bytes());
        let err = read_trace_binary(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("owner 7 out of range"));

        // Page out of range in the request stream (the last request sits
        // just before the 12-byte footer).
        let mut bad = good.clone();
        let last = bad.len() - 12 - 4;
        bad[last..last + 4].copy_from_slice(&9u32.to_le_bytes());
        let err = read_trace_binary(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("page 9 out of range"));
    }

    fn ctx_for<'a>(
        u: &'a Universe,
        cache: &'a crate::cache::CacheSet,
        stats: &'a crate::stats::SimStats,
    ) -> EngineCtx<'a> {
        EngineCtx {
            time: 0,
            cache,
            stats,
            universe: u,
        }
    }

    #[test]
    fn legacy_trace_without_footer_stays_accepted() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 12); // exactly what an old writer produced
        let back = read_trace_binary(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());

        let mut src = BinaryTraceReader::new(buf.as_slice()).unwrap();
        let u = src.universe().clone();
        let cache = crate::cache::CacheSet::new(1, u.num_pages());
        let stats = crate::stats::SimStats::new(u.num_users());
        let ctx = ctx_for(&u, &cache, &stats);
        let mut served = 0;
        while src.next_request(&ctx).is_some() {
            served += 1;
        }
        assert_eq!(served, t.len());
        src.finish().unwrap();
    }

    #[test]
    fn flipped_payload_byte_fails_the_footer_checksum() {
        let t = sample();
        let mut bad = Vec::new();
        write_trace_binary(&t, &mut bad).unwrap();
        // Swap the first requested page (0) for another in-range page:
        // every structural validation still passes, only the CRC can
        // tell the trace was corrupted.
        let first_req = bad.len() - 12 - 4 * t.len();
        bad[first_req..first_req + 4].copy_from_slice(&1u32.to_le_bytes());

        let err = read_trace_binary(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("footer checksum mismatch"),
            "{err}"
        );

        // The streaming reader parks the same error at end of stream.
        let mut src = BinaryTraceReader::new(bad.as_slice()).unwrap();
        let u = src.universe().clone();
        let cache = crate::cache::CacheSet::new(1, u.num_pages());
        let stats = crate::stats::SimStats::new(u.num_users());
        let ctx = ctx_for(&u, &cache, &stats);
        while src.next_request(&ctx).is_some() {}
        let err = src.finish().unwrap_err();
        assert!(
            err.to_string().contains("footer checksum mismatch"),
            "{err}"
        );
    }

    #[test]
    fn truncated_footer_is_a_parse_error() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 3); // payload intact, footer cut short
        let err = read_trace_binary(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("EOF in the footer checksum"),
            "{err}"
        );
    }

    #[test]
    fn seek_forward_matches_pull_and_discard() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..50).map(|i| (i * 7) % 6).collect();
        let t = Trace::from_page_indices(&u, &pages);
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let cache = crate::cache::CacheSet::new(1, u.num_pages());
        let stats = crate::stats::SimStats::new(u.num_users());
        let ctx = ctx_for(&u, &cache, &stats);
        for skip in [0u64, 1, 7, 49, 50, 80] {
            let mut pulled = BinaryTraceReader::new(buf.as_slice()).unwrap();
            for _ in 0..skip.min(50) {
                pulled.next_request(&ctx);
            }
            let mut sought = BinaryTraceReader::new(buf.as_slice()).unwrap();
            sought.seek_forward(skip);
            loop {
                let a = pulled.next_request(&ctx);
                let b = sought.next_request(&ctx);
                assert_eq!(a, b, "skip={skip}");
                if a.is_none() {
                    break;
                }
            }
            // Both paths consumed the payload; the footer must verify.
            pulled.finish().unwrap();
            sought.finish().unwrap();
        }
    }

    #[test]
    fn io_failure_mid_stream_stays_an_io_error() {
        use std::io::{self};

        struct FailAfter {
            data: Vec<u8>,
            pos: usize,
        }
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos < self.data.len() {
                    let n = buf.len().min(self.data.len() - self.pos);
                    buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                    self.pos += n;
                    Ok(n)
                } else {
                    Err(io::Error::other("disk on fire"))
                }
            }
        }

        let t = sample();
        let mut data = Vec::new();
        write_trace_binary(&t, &mut data).unwrap();
        data.truncate(data.len() - 4);
        let err = read_trace_binary(FailAfter { data, pos: 0 }).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)), "got {err}");
    }

    #[test]
    fn auto_detect_reads_both_formats() {
        let t = sample();
        let mut bin = Vec::new();
        write_trace_binary(&t, &mut bin).unwrap();
        let mut text = Vec::new();
        crate::textio::write_trace(&t, &mut text).unwrap();

        let from_bin = read_trace_auto(std::io::BufReader::new(bin.as_slice())).unwrap();
        let from_text = read_trace_auto(std::io::BufReader::new(text.as_slice())).unwrap();
        assert_eq!(from_bin.requests(), t.requests());
        assert_eq!(from_text.requests(), t.requests());
        assert_eq!(from_bin.universe(), from_text.universe());

        // Neither format: falls through to the text parser's error.
        let err = read_trace_auto(std::io::BufReader::new(&b"garbage"[..])).unwrap_err();
        assert!(matches!(err, TraceIoError::Parse(_)));
    }

    #[test]
    fn empty_trace_round_trips() {
        let u = Universe::single_user(3);
        let t = Trace::from_page_indices(&u, &[]);
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let back = read_trace_binary(buf.as_slice()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.universe(), t.universe());
    }

    #[test]
    fn buffered_next_run_matches_scalar() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let mut src = BinaryTraceReader::new(buf.as_slice()).unwrap();
        let mut got = Vec::new();
        while let Some(run) = src.next_run(2) {
            got.extend_from_slice(run);
        }
        assert_eq!(got.as_slice(), t.requests());
        src.finish().unwrap();
    }

    /// Write `bytes` to a fresh temp file and return its path.
    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("occ-binio-unit-{name}-{}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[cfg(all(unix, target_endian = "little"))]
    mod zero_copy {
        use super::*;

        fn drain_pages(src: &mut MmapTraceSource) -> Vec<Request> {
            let universe = src.universe().clone();
            let mut got = Vec::new();
            while let Some(run) = src.next_page_run(3) {
                for &page in run {
                    got.push(Request {
                        page,
                        user: universe.owner(page),
                    });
                }
            }
            got
        }

        #[test]
        fn mmap_source_replays_identically() {
            let t = sample();
            let mut buf = Vec::new();
            write_trace_binary(&t, &mut buf).unwrap();
            let path = tmp_file("mmap-replay", &buf);
            let mut src = MmapTraceSource::open(&path).unwrap();
            assert_eq!(src.total_requests(), t.len() as u64);
            assert_eq!(drain_pages(&mut src).as_slice(), t.requests());
            src.finish().unwrap();
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn mmap_scalar_and_seek_match_buffered() {
            let u = Universe::uniform(2, 3);
            let pages: Vec<u32> = (0..50).map(|i| (i * 7) % 6).collect();
            let t = Trace::from_page_indices(&u, &pages);
            let mut buf = Vec::new();
            write_trace_binary(&t, &mut buf).unwrap();
            let path = tmp_file("mmap-seek", &buf);
            let cache = crate::cache::CacheSet::new(1, u.num_pages());
            let stats = crate::stats::SimStats::new(u.num_users());
            let ctx = ctx_for(&u, &cache, &stats);
            for skip in [0u64, 1, 49, 50, 80] {
                let mut mapped = MmapTraceSource::open(&path).unwrap();
                mapped.seek_forward(skip);
                let mut buffered = BinaryTraceReader::new(buf.as_slice()).unwrap();
                buffered.seek_forward(skip);
                loop {
                    let a = mapped.next_request(&ctx);
                    let b = buffered.next_request(&ctx);
                    assert_eq!(a, b, "skip={skip}");
                    if a.is_none() {
                        break;
                    }
                }
                mapped.finish().unwrap();
                buffered.finish().unwrap();
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn mmap_parks_truncation_and_checksum_errors() {
            let t = sample();
            let mut good = Vec::new();
            write_trace_binary(&t, &mut good).unwrap();

            // Payload cut mid-request.
            let mut bad = good.clone();
            bad.truncate(bad.len() - 12 - 3);
            let path = tmp_file("mmap-trunc", &bad);
            let mut src = MmapTraceSource::open(&path).unwrap();
            let served = drain_pages(&mut src).len();
            assert!(served < t.len());
            let err = src.finish().unwrap_err();
            assert!(err.to_string().contains("truncated"), "{err}");
            std::fs::remove_file(&path).ok();

            // In-range page swap: only the footer checksum can tell.
            let mut bad = good.clone();
            let first_req = bad.len() - 12 - 4 * t.len();
            bad[first_req..first_req + 4].copy_from_slice(&1u32.to_le_bytes());
            let path = tmp_file("mmap-crc", &bad);
            let mut src = MmapTraceSource::open(&path).unwrap();
            assert_eq!(drain_pages(&mut src).len(), t.len());
            let err = src.finish().unwrap_err();
            assert!(
                err.to_string().contains("footer checksum mismatch"),
                "{err}"
            );
            std::fs::remove_file(&path).ok();

            // Legacy trailer-less form stays accepted, as on the
            // buffered path.
            let mut legacy = good.clone();
            legacy.truncate(legacy.len() - 12);
            let path = tmp_file("mmap-legacy", &legacy);
            let mut src = MmapTraceSource::open(&path).unwrap();
            assert_eq!(drain_pages(&mut src).len(), t.len());
            src.finish().unwrap();
            std::fs::remove_file(&path).ok();

            // Out-of-range page: same report as the buffered reader.
            let mut bad = good.clone();
            let last = bad.len() - 12 - 4;
            bad[last..last + 4].copy_from_slice(&9u32.to_le_bytes());
            let path = tmp_file("mmap-range", &bad);
            let mut src = MmapTraceSource::open(&path).unwrap();
            let _ = drain_pages(&mut src);
            let err = src.finish().unwrap_err();
            assert!(err.to_string().contains("page 9 out of range"), "{err}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn binary_source_picks_a_strategy_per_format() {
        let t = sample();

        let mut v1 = Vec::new();
        write_trace_binary(&t, &mut v1).unwrap();
        let v1_path = tmp_file("strategy-v1", &v1);
        let src = BinarySource::open(&v1_path).unwrap();
        if cfg!(all(unix, target_endian = "little")) {
            assert_eq!(src.strategy(), "mmap");
        } else {
            assert_eq!(src.strategy(), "buffered");
        }
        assert_eq!(src.total_requests(), t.len() as u64);

        let mut v2 = Vec::new();
        crate::binio2::write_trace_binary_v2(&t, &mut v2).unwrap();
        let v2_path = tmp_file("strategy-v2", &v2);
        let src = BinarySource::open(&v2_path).unwrap();
        assert_eq!(src.strategy(), "packed");
        assert_eq!(src.total_requests(), t.len() as u64);

        // All strategies replay the same requests.
        for path in [&v1_path, &v2_path] {
            let mut src = BinarySource::open(path).unwrap();
            let universe = RequestSource::universe(&src).clone();
            let mut got: Vec<Request> = Vec::new();
            loop {
                if let Some(pages) = src.next_page_run(7) {
                    for &page in pages {
                        got.push(Request {
                            page,
                            user: universe.owner(page),
                        });
                    }
                } else if let Some(run) = src.next_run(7) {
                    got.extend_from_slice(run);
                } else {
                    break;
                }
            }
            assert_eq!(got.as_slice(), t.requests(), "strategy {}", src.strategy());
            src.finish().unwrap();
        }

        let garbage_path = tmp_file("strategy-garbage", b"not a trace at all");
        let Err(err) = BinarySource::open(&garbage_path) else {
            panic!("garbage opened successfully");
        };
        assert!(matches!(err, TraceIoError::Parse(_)), "{err}");

        for p in [v1_path, v2_path, garbage_path] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn auto_detect_reads_packed_traces_too() {
        let t = sample();
        let mut v2 = Vec::new();
        crate::binio2::write_trace_binary_v2(&t, &mut v2).unwrap();
        let back = read_trace_auto(std::io::BufReader::new(v2.as_slice())).unwrap();
        assert_eq!(back.requests(), t.requests());
        assert_eq!(back.universe(), t.universe());
    }
}
