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
//! table, exactly as in the text format. [`BinaryTraceReader`] is the
//! one occbin01 reader, a [`RequestSource`](crate::source::RequestSource)
//! with two byte modes: it serves runs of ids straight from a read-only
//! mapping of the file where the host allows it, and otherwise reads
//! them from any stream a chunk at a time into one reused buffer. Either
//! way its memory footprint is the owner table plus one chunk,
//! independent of the request count, so a billion-request trace streams
//! from disk without full residency.
//!
//! The footer is a torn-write guard: both writers append it, and the
//! reader verifies it when present (a payload whose CRC-32 disagrees with
//! the footer is a parse error, exit 4 at the CLI). Traces written before
//! the footer existed have nothing after the last request and stay
//! accepted. The checksum covers the request-id bytes only — the header's
//! request count is patched after the payload by the incremental writer,
//! so including it would force a second pass over the file.

use crate::checksum::Crc32;
use crate::engine::EngineCtx;
use crate::error::FaultKind;
use crate::ids::{PageId, UserId};
use crate::source::{RequestSource, SeekableSource};
use crate::textio::TraceIoError;
use crate::trace::{Request, Trace, TraceBuilder, TraceRecord, Universe};
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

/// Verify an occbin01 footer given the (up to 12) bytes that follow the
/// request payload. Zero bytes is a legacy (pre-footer) trace and is
/// accepted; a footer magic followed by too few bytes is truncation; a
/// checksum disagreement is corruption. Trailing bytes that are not the
/// footer magic are ignored, as they were before the footer existed.
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

/// Check a run a trace writer is about to append, whose first record
/// will be request `first` of the file. On a rejected record, returns
/// how many records precede it and the error naming it.
pub(crate) fn check_run<T: TraceRecord>(
    universe: &Universe,
    run: &[T],
    first: u64,
) -> Result<(), (usize, TraceIoError)> {
    let Some(bad) = run.iter().position(|&r| universe.rejects(r).is_some()) else {
        return Ok(());
    };
    let (rec, at) = (run[bad], first + bad as u64);
    let msg = match (universe.rejects(rec), rec.claim()) {
        (Some(FaultKind::OwnerMismatch), Some(user)) => {
            format!("request {at}: {user} does not own {}", rec.page())
        }
        _ => format!("request {at}: page {} outside the universe", rec.page()),
    };
    Err((bad, parse_err(msg)))
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
pub fn read_trace_binary<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut src = BinaryTraceReader::new(r)?;
    let mut builder = TraceBuilder::new(src.universe.clone());
    while let Some(run) = src.next_page_run(CHUNK_IDS) {
        for &page in run {
            builder.push(page);
        }
    }
    src.finish()?;
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
        self.push_run(std::slice::from_ref(&req))
    }

    /// Append a run of requests or bare pages, checked as [`push`] checks
    /// each one: the records before the first rejected one are written,
    /// and the error names that record's index in the file.
    ///
    /// [`push`]: Self::push
    pub fn push_run<T: TraceRecord>(&mut self, run: &[T]) -> Result<(), TraceIoError> {
        let (keep, err) = match check_run(&self.universe, run, self.written) {
            Ok(()) => (run.len(), None),
            Err((bad, e)) => (bad, Some(e)),
        };
        for part in run[..keep].chunks(CHUNK_IDS) {
            let start = self.buf.len();
            self.buf
                .extend(part.iter().flat_map(|r| r.page().0.to_le_bytes()));
            self.crc.update(&self.buf[start..]);
            if self.buf.len() >= 4 * CHUNK_IDS {
                self.sink.write_all(&self.buf)?;
                self.buf.clear();
            }
            self.written += part.len() as u64;
        }
        err.map_or(Ok(()), Err)
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

/// The occbin01 reader: a [`RequestSource`] over one fixed-width trace,
/// with the bytes arriving one of two ways.
///
/// * **Mapped** ([`map`](BinaryTraceReader::map)): the file is mapped
///   read-only and runs of ids are handed out as slices of the mapping.
///   The ids are little-endian on disk and [`PageId`] is
///   `repr(transparent)` over `u32`, so on a little-endian host a mapped
///   run *is* a `&[PageId]`: no read syscalls, no kernel→user copy, no
///   decode.
/// * **Read** ([`new`](BinaryTraceReader::new)): any [`Read`] is read
///   64 Ki ids at a time into one reused buffer and decoded with
///   `u32::from_le_bytes`, which works on every host and every stream
///   (pipes, `/dev/stdin`).
///
/// Both serve [`next_page_run`] through one core: each chunk of ids is
/// range-validated against the universe (a max-scan, so the hot loop
/// stays branch-light and vectorizable) and folded into the running CRC
/// before any of it is handed out, and the footer is verified when the
/// stream drains — the two modes accept and reject exactly the same
/// files. The batched engine derives each request's owner from the
/// universe.
///
/// [`RequestSource::next_request`] has no error channel, so a mid-stream
/// failure (truncation, disk error, out-of-range page, checksum
/// mismatch) ends the stream early and parks the error in
/// [`error`](Self::error) — run loops should check it (or call
/// [`finish`](Self::finish)) after the source runs dry.
///
/// [`next_page_run`]: crate::source::RequestSource::next_page_run
pub struct BinaryTraceReader<R = BufReader<File>> {
    bytes: Bytes<R>,
    universe: Universe,
    total: u64,
    served: u64,
    /// Ids `pos..end` of the loaded chunk are validated and checksummed
    /// but not yet served: indices into the payload when mapped, into
    /// the decoded chunk when read.
    pos: usize,
    end: usize,
    error: Option<TraceIoError>,
    crc: Crc32,
    footer_checked: bool,
}

/// Where a [`BinaryTraceReader`]'s ids come from.
enum Bytes<R> {
    /// The whole file, mapped; the payload starts at byte
    /// `payload_start`, which is 4-aligned in memory.
    Mapped {
        map: mmap::Mmap,
        payload_start: usize,
    },
    /// A stream read one chunk at a time: `raw` holds the chunk's bytes
    /// and `ids` the same ids decoded.
    Read {
        reader: R,
        raw: Vec<u8>,
        ids: Vec<PageId>,
    },
}

impl<R> Bytes<R> {
    /// The ids loaded so far, `end` of them: the mapped payload's first
    /// `end` ids, or the decoded chunk.
    fn ids(&self, end: usize) -> &[PageId] {
        match self {
            Bytes::Mapped { map, payload_start } => {
                let bytes = &map[*payload_start..*payload_start + 4 * end];
                // SAFETY: `bytes` is an in-bounds region of `end` whole
                // ids (the slice above is bounds-checked), 4-aligned
                // (`map` asserts the payload start is), and immutable
                // for the mapping's lifetime, which the returned borrow
                // cannot outlive. `PageId` is `repr(transparent)` over
                // `u32`, and mappings are only made on little-endian
                // hosts, so each 4-byte id reads as its own value.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<PageId>(), end) }
            }
            Bytes::Read { ids, .. } => ids,
        }
    }
}

/// Check a run of ids against a `num_pages` universe with a branch-light
/// max-scan; only on failure (never in a healthy replay) rescan for the
/// first offender to name it.
fn check_range(ids: &[PageId], num_pages: u32) -> Result<(), TraceIoError> {
    if ids.iter().fold(0, |worst, p| worst.max(p.0)) < num_pages {
        return Ok(());
    }
    let bad = ids
        .iter()
        .find(|p| p.0 >= num_pages)
        .expect("max-scan saw an out-of-range id");
    Err(parse_err(format!("page {} out of range", bad.0)))
}

impl<R> BinaryTraceReader<R> {
    fn with_bytes(bytes: Bytes<R>, universe: Universe, total: u64) -> Self {
        BinaryTraceReader {
            bytes,
            universe,
            total,
            served: 0,
            pos: 0,
            end: 0,
            error: None,
            crc: Crc32::new(),
            footer_checked: false,
        }
    }

    /// How the bytes arrive: "mmap" or "buffered".
    pub fn strategy(&self) -> &'static str {
        match self.bytes {
            Bytes::Mapped { .. } => "mmap",
            Bytes::Read { .. } => "buffered",
        }
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
}

impl BinaryTraceReader {
    /// Map `file` read-only and parse its header, for zero-copy serving.
    /// Emits the `madvise(MADV_SEQUENTIAL)` readahead hint immediately:
    /// trace replay is a single front-to-back pass.
    ///
    /// Fails with `ErrorKind::Unsupported` on non-unix and big-endian
    /// hosts and for non-regular files (pipes, sockets, `/dev/stdin`);
    /// [`BinarySource::open`] reads those with [`new`](Self::new).
    pub fn map(file: &File) -> Result<Self, TraceIoError> {
        let unsupported =
            |why: &str| TraceIoError::Io(std::io::Error::new(std::io::ErrorKind::Unsupported, why));
        if cfg!(not(all(unix, target_endian = "little"))) {
            // Serving ids in place needs the host to read the on-disk
            // little-endian ids as they are (and mmap needs unix).
            return Err(unsupported(
                "zero-copy traces need a little-endian unix host; use the buffered reader",
            ));
        }
        if !file.metadata()?.is_file() {
            return Err(unsupported("not a regular file; use the buffered reader"));
        }
        let map = mmap::Mmap::map_readonly(file)?;
        map.advise_sequential();
        // `&[u8]` is a `Read` that consumes from the front, so the
        // header parser (and its error vocabulary) is the read mode's.
        let mut cursor: &[u8] = &map;
        let universe = read_universe(&mut cursor)?;
        let total = read_u64(&mut cursor, "the request count")?;
        let payload_start = map.len() - cursor.len();
        // The header is 8 + 4 + 4 + 4·pages + 8 bytes and mappings are
        // page-aligned, so this holds for every file that parses.
        assert_eq!(
            (map.as_ptr() as usize + payload_start) % std::mem::align_of::<PageId>(),
            0,
            "mapped occbin01 payload is not 4-aligned"
        );
        let bytes = Bytes::Mapped { map, payload_start };
        Ok(Self::with_bytes(bytes, universe, total))
    }
}

impl<R: Read> BinaryTraceReader<R> {
    /// Read the header (universe + request count) from `reader` and
    /// return a source positioned at the first request.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let universe = read_universe(&mut reader)?;
        let total = read_u64(&mut reader, "the request count")?;
        let bytes = Bytes::Read {
            reader,
            raw: Vec::new(),
            ids: Vec::new(),
        };
        Ok(Self::with_bytes(bytes, universe, total))
    }

    /// The serve core: hand out up to `max` validated ids, loading the
    /// next chunk first when the current one is used up. Errors park
    /// and end the stream.
    fn serve_run(&mut self, max: usize) -> Option<&[PageId]> {
        if max == 0 || self.error.is_some() {
            return None;
        }
        if self.pos == self.end {
            if let Err(e) = self.load(max) {
                self.error = Some(e);
                return None;
            }
            if self.pos == self.end {
                return None;
            }
        }
        let start = self.pos;
        let take = (self.end - start).min(max);
        self.pos += take;
        self.served += take as u64;
        Some(&self.bytes.ids(self.end)[start..start + take])
    }

    /// Load the next chunk — up to `max` ids from the mapping, up to
    /// [`CHUNK_IDS`] from a stream — fold its bytes into the CRC and
    /// validate it. With the payload drained, verify the footer instead
    /// (once) and load nothing.
    fn load(&mut self, max: usize) -> Result<(), TraceIoError> {
        let remaining = self.total - self.served;
        if remaining == 0 {
            if !self.footer_checked {
                self.footer_checked = true;
                self.check_footer()?;
            }
            return Ok(());
        }
        match &mut self.bytes {
            Bytes::Mapped { map, payload_start } => {
                let take = remaining.min(max as u64) as usize;
                // Ids before `pos` lie in the mapping, so `start` does
                // too; the header's count is compared in ids, so a
                // corrupt one cannot overflow the byte arithmetic.
                let start = *payload_start + 4 * self.pos;
                if take > (map.len() - start) / 4 {
                    return Err(parse_err(
                        "truncated binary trace: unexpected EOF in the request stream",
                    ));
                }
                self.crc.update(&map[start..start + 4 * take]);
                self.end = self.pos + take;
            }
            Bytes::Read { reader, raw, ids } => {
                let take = remaining.min(CHUNK_IDS as u64) as usize;
                // Grows (and zero-fills) on the first load only; later
                // loads overwrite it in place.
                raw.resize(4 * take, 0);
                reader
                    .read_exact(raw)
                    .map_err(|e| classify(e, "the request stream"))?;
                self.crc.update(raw);
                ids.clear();
                ids.extend(
                    raw.chunks_exact(4)
                        .map(|id| PageId(u32::from_le_bytes(id.try_into().expect("4-byte chunk")))),
                );
                (self.pos, self.end) = (0, take);
            }
        }
        check_range(
            &self.bytes.ids(self.end)[self.pos..],
            self.universe.num_pages(),
        )
    }

    /// Verify the optional footer against the bytes after the payload:
    /// sliced off the mapping, or read from the stream.
    fn check_footer(&mut self) -> Result<(), TraceIoError> {
        let mut foot = [0u8; 12];
        let probe = match &mut self.bytes {
            Bytes::Mapped { map, payload_start } => {
                // Every id was served, so the payload fit in the mapping
                // and this offset is in bounds.
                let after = *payload_start + 4 * self.pos;
                &map[after..(after + 12).min(map.len())]
            }
            Bytes::Read { reader, .. } => {
                let mut got = 0usize;
                while got < foot.len() {
                    match reader.read(&mut foot[got..]) {
                        Ok(0) => break,
                        Ok(n) => got += n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(TraceIoError::Io(e)),
                    }
                }
                &foot[..got]
            }
        };
        verify_footer_probe(probe, self.crc.value())
    }
}

impl<R: Read> RequestSource for BinaryTraceReader<R> {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        let page = self.serve_run(1)?[0];
        Some(Request {
            page,
            user: self.universe.owner(page),
        })
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        self.serve_run(max)
    }
}

impl<R: Read> SeekableSource for BinaryTraceReader<R> {
    /// Fast-forward through the same serve core as replay, so
    /// validation, the running CRC and the footer check see exactly the
    /// bytes a full replay would. Errors park in [`error`](Self::error)
    /// as usual.
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

/// A binary trace opened from a path, with the reader chosen from the
/// file's magic and the byte mode from its nature:
///
/// * occbin01 → [`Fixed`] ([`BinaryTraceReader`]), mapped when the file
///   is regular and the host a little-endian unix one, read in chunks
///   otherwise (a pipe, `/dev/stdin`, another platform, or a filesystem
///   where mapping fails);
/// * occbin02 → [`Packed`] (streaming delta/varint decode,
///   [`crate::binio2::Binary2TraceReader`]).
///
/// All serve identical request streams for identical traces; the choice
/// only affects throughput. Callers that care can log
/// [`strategy`](Self::strategy).
///
/// [`Fixed`]: BinarySource::Fixed
/// [`Packed`]: BinarySource::Packed
pub enum BinarySource {
    /// A fixed-width (occbin01) trace, mapped or read.
    Fixed(BinaryTraceReader),
    /// Streaming decode of a packed (delta/varint) trace.
    Packed(crate::binio2::Binary2TraceReader<BufReader<File>>),
}

impl BinarySource {
    /// Open `path`, sniff its magic, and pick the fastest applicable
    /// strategy, all through one file handle (a pipe can be read only
    /// once). Unreadable headers are parse errors regardless of
    /// strategy.
    pub fn open(path: &Path) -> Result<BinarySource, TraceIoError> {
        let mut reader = BufReader::new(File::open(path)?);
        if reader
            .fill_buf()?
            .starts_with(&crate::binio2::BINARY2_TRACE_MAGIC)
        {
            let src = crate::binio2::Binary2TraceReader::new(reader)?;
            return Ok(BinarySource::Packed(src));
        }
        match BinaryTraceReader::map(reader.get_ref()) {
            Ok(src) => return Ok(BinarySource::Fixed(src)),
            // A malformed header is malformed however it is read —
            // report it rather than re-parsing the same bytes.
            Err(e @ TraceIoError::Parse(_)) => return Err(e),
            // Mapping itself failed: fall through to reads.
            Err(TraceIoError::Io(_)) => {}
        }
        Ok(BinarySource::Fixed(BinaryTraceReader::new(reader)?))
    }

    /// Which access strategy was chosen ("mmap", "buffered" or
    /// "packed") — for logs and reports.
    pub fn strategy(&self) -> &'static str {
        match self {
            BinarySource::Fixed(s) => s.strategy(),
            BinarySource::Packed(_) => "packed",
        }
    }

    /// Total requests promised by the header.
    pub fn total_requests(&self) -> u64 {
        match self {
            BinarySource::Fixed(s) => s.total_requests(),
            BinarySource::Packed(s) => s.total_requests(),
        }
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&TraceIoError> {
        match self {
            BinarySource::Fixed(s) => s.error(),
            BinarySource::Packed(s) => s.error(),
        }
    }

    /// Tear down the source; returns the parked error if the stream
    /// ended early.
    pub fn finish(self) -> Result<(), TraceIoError> {
        match self {
            BinarySource::Fixed(s) => s.finish(),
            BinarySource::Packed(s) => s.finish(),
        }
    }
}

impl RequestSource for BinarySource {
    fn universe(&self) -> &Universe {
        match self {
            BinarySource::Fixed(s) => s.universe(),
            BinarySource::Packed(s) => s.universe(),
        }
    }

    fn next_request(&mut self, ctx: &EngineCtx) -> Option<Request> {
        match self {
            BinarySource::Fixed(s) => s.next_request(ctx),
            BinarySource::Packed(s) => s.next_request(ctx),
        }
    }

    fn next_run(&mut self, max: usize) -> Option<&[Request]> {
        match self {
            BinarySource::Fixed(_) => None,
            BinarySource::Packed(s) => s.next_run(max),
        }
    }

    fn next_page_run(&mut self, max: usize) -> Option<&[PageId]> {
        match self {
            BinarySource::Fixed(s) => s.next_page_run(max),
            BinarySource::Packed(_) => None,
        }
    }
}

impl SeekableSource for BinarySource {
    fn seek_forward(&mut self, n: u64) {
        match self {
            BinarySource::Fixed(s) => s.seek_forward(n),
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
    fn buffered_page_runs_match_scalar() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let mut src = BinaryTraceReader::new(buf.as_slice()).unwrap();
        let mut got = Vec::new();
        while let Some(run) = src.next_page_run(2) {
            got.extend(run.iter().map(|&page| t.universe().request(page)));
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

        fn mapped(path: &Path) -> BinaryTraceReader {
            let src = BinaryTraceReader::map(&File::open(path).unwrap()).unwrap();
            assert_eq!(src.strategy(), "mmap");
            src
        }

        fn drain_pages(src: &mut BinaryTraceReader) -> Vec<Request> {
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
            let mut src = mapped(&path);
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
                let mut mapped = mapped(&path);
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
            let mut src = mapped(&path);
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
            let mut src = mapped(&path);
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
            let mut src = mapped(&path);
            assert_eq!(drain_pages(&mut src).len(), t.len());
            src.finish().unwrap();
            std::fs::remove_file(&path).ok();

            // Out-of-range page: same report as the buffered reader.
            let mut bad = good.clone();
            let last = bad.len() - 12 - 4;
            bad[last..last + 4].copy_from_slice(&9u32.to_le_bytes());
            let path = tmp_file("mmap-range", &bad);
            let mut src = mapped(&path);
            let _ = drain_pages(&mut src);
            let err = src.finish().unwrap_err();
            assert!(err.to_string().contains("page 9 out of range"), "{err}");
            std::fs::remove_file(&path).ok();

            // A header promising far more requests than the file holds,
            // asked for in one unbounded run: truncation, not overflow.
            let mut bad = good.clone();
            let count_at = 16 + 4 * t.universe().num_pages() as usize;
            bad[count_at..count_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            let path = tmp_file("mmap-count", &bad);
            let mut src = mapped(&path);
            assert!(src.next_page_run(usize::MAX).is_none());
            let err = src.finish().unwrap_err();
            assert!(err.to_string().contains("truncated"), "{err}");
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
