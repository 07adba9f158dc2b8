//! Compressed binary traces (`occbin02`): delta + varint encoding for
//! cold storage.
//!
//! `occbin01` ([`crate::binio`]) spends four bytes per request no matter
//! what the trace looks like. Real access streams are compressible two
//! different ways: *locally clustered* streams (sequential scans, block
//! runs) have tiny differences between consecutive page ids, while
//! *skewed* streams (Zipf-like popularity) have small ids most of the
//! time but sign-expanded jumps between them. Neither coding wins
//! everywhere, so the request stream is cut into fixed 65 536-request
//! chunks and each chunk carries a one-byte mode tag choosing whichever
//! LEB128-varint coding is smaller for *its* ids: `0` = zigzag deltas
//! (`page[t] − page[t−1]`, base carried across chunks, `page[−1] = 0`),
//! `1` = raw page ids. The same run-length idea compresses the owner
//! table: ownership is assigned in contiguous stretches, so it is
//! stored as `(user, run-length)` pairs.
//!
//! ```text
//! offset  size      field
//! 0       8         magic  b"occbin02"
//! 8       varint    num_users   (> 0)
//! …       varint    num_pages
//! …       pairs     owner table runs: (varint user, varint run-length > 0)
//!                   until exactly num_pages pages are covered
//! …       varint    num_requests
//! …       chunks    requests in 65 536-request chunks (last one ragged):
//!                   1-byte mode tag, then one varint per request —
//!                   mode 0: zigzag(page[t] − page[t−1]), mode 1: page[t]
//! …       8         footer magic b"occsum02"   (required)
//! …       4         crc32 of the encoded request bytes (u32 LE,
//!                   tag bytes included)
//! ```
//!
//! Unlike occbin01 (whose footer is optional for legacy files), the
//! occbin02 footer is mandatory — the format is new, so there are no
//! legacy files to accept, and requiring it means truncation after the
//! last request is always detected. The checksum covers the encoded
//! request-delta bytes, mirroring occbin01's request-payload coverage.
//!
//! [`Binary2TraceReader`] streams: it decodes bounded chunks and serves
//! them through [`RequestSource`], so a packed multi-billion-request
//! trace replays without ever materializing. The decoder's memory is the
//! owner table plus one chunk, independent of the request count.
//!
//! # Decoding a block at a time
//!
//! The reader keeps one input buffer, allocated once, and decodes each
//! chunk with its coding fixed: the mode tag picks a delta or a raw
//! instance of the same loop, so no request branches on the mode.
//! While at least ten bytes (the longest varint) are buffered none can
//! be cut off, so there is no "incomplete" case to check: the loop
//! loads a little-endian word, finds the terminator as the lowest byte
//! whose continuation bit is clear, and decodes varints of up to four
//! bytes (every id below 2^28) without branching on their bytes;
//! longer ones take the general byte loop. Only the last few buffered
//! bytes go through the incremental path, which refills when a varint
//! is cut off. A refill moves the unconsumed tail to the front of the
//! buffer and reads into the room behind it.
//!
//! The checksum is folded in bulk: the reader remembers where its
//! unhashed input starts and hashes everything decoded since then once
//! per chunk and once before each refill — the same bytes in the same
//! order as hashing varint by varint, so the digest is identical.
//! Every check of the byte-at-a-time decoder is kept: a delta that
//! leaves the `i64` range or the universe is an out-of-range page, and
//! over-long varints, unknown tags, truncation and checksum mismatches
//! are parse errors, wherever the buffer happens to be cut.
//!
//! # Encoding a block at a time
//!
//! The writer mirrors the decoder. A chunk's sizing pass, which costs
//! both codings to pick one, also gives the chunk's exact length, so the
//! output buffer grows once per chunk, with a few bytes of slack behind
//! it. Each varint is then stored in place: a value below 2^28 (at most
//! four bytes) has its 7-bit groups spread one byte apart with shifts
//! and masks and the continuation bits of its length OR'd in — the
//! inverse of the decoder's gather — and all eight bytes of that word
//! are stored at once, the position advancing by the varint's length;
//! longer values take a byte loop. A varint's length, in the sizing
//! pass and the stores alike, is a table lookup on the value's leading
//! zeros. No output byte costs a `Vec::push` or a branch on its value.
//!
//! [`Binary2TraceWriter::push_run`] takes a whole run — requests, or
//! the bare pages an occbin01 reader serves — cuts it at chunk
//! boundaries, and checks the promised count once per run. A chunk the
//! run covers whole is encoded straight from it; only the ragged ends
//! are copied into the pending chunk. Every record is still checked
//! (a page against the universe, a claimed owner against the owner
//! table), with the error and request index [`push`] gives for it, and
//! `push` is a one-request run, so the bytes are the same however the
//! requests arrive.
//!
//! [`push`]: Binary2TraceWriter::push

use crate::binio::check_run;
use crate::checksum::Crc32;
use crate::engine::EngineCtx;
use crate::ids::{PageId, UserId};
use crate::source::{RequestSource, SeekableSource};
use crate::textio::TraceIoError;
use crate::trace::{Request, Trace, TraceBuilder, TraceRecord, Universe};
use std::io::{Read, Write};

/// First eight bytes of every packed (delta/varint) binary trace.
pub const BINARY2_TRACE_MAGIC: [u8; 8] = *b"occbin02";

/// Magic introducing the mandatory checksum footer after the last
/// request delta.
pub const BINARY2_TRACE_FOOTER_MAGIC: [u8; 8] = *b"occsum02";

/// Requests per encoded chunk — the adaptive-coding granularity, and
/// the unit the streaming reader decodes at a time. Writer and reader
/// must agree on this number: chunk boundaries are implied by position,
/// not recorded in the file.
const CHUNK_REQS: usize = 64 * 1024;

/// Chunk mode tags: each chunk is coded whichever way is smaller.
const CHUNK_MODE_DELTA: u8 = 0;
const CHUNK_MODE_RAW: u8 = 1;

/// Bytes pulled from the underlying reader per refill.
const RAW_CHUNK: usize = 64 * 1024;

/// A varint may carry at most 10 bytes for a u64 (9 × 7 payload bits
/// plus a final byte contributing the top bit).
const MAX_VARINT_LEN: usize = 10;

/// Footer size: magic plus the u32 checksum.
const FOOTER_LEN: usize = 12;

/// Room the streaming reader keeps beyond [`RAW_CHUNK`] for the input
/// still pending when it refills — at most a cut varint (fewer than
/// [`MAX_VARINT_LEN`] bytes) or a short footer (fewer than
/// [`FOOTER_LEN`]).
const RAW_SLACK: usize = 16;

fn parse_err(msg: impl Into<String>) -> TraceIoError {
    TraceIoError::Parse(msg.into())
}

/// Append `value` as an LEB128 varint (the header fields; request
/// chunks are stored in place by [`encode_chunk`]).
fn push_varint(buf: &mut Vec<u8>, value: u64) {
    let at = buf.len();
    buf.resize(at + MAX_VARINT_LEN, 0);
    let len = store_varint(buf, at, value);
    buf.truncate(at + len);
}

/// Store `value` as an LEB128 varint at `out[at..]` and return its
/// length. A value below 2^28 (at most four varint bytes) is spread
/// into one little-endian word by [`short_varint_word`] and stored as
/// all eight bytes of it, so `out` needs eight bytes of room at `at`
/// even when the varint is shorter — the bytes past it are overwritten
/// by whatever is stored next. Longer values are stored a byte at a
/// time.
#[inline(always)]
fn store_varint(out: &mut [u8], at: usize, value: u64) -> usize {
    if value < 1 << 28 {
        let (word, len) = short_varint_word(value);
        out[at..at + 8].copy_from_slice(&word.to_le_bytes());
        len
    } else {
        store_long_varint(&mut out[at..], value)
    }
}

/// The inverse of [`short_varint`]: the four 7-bit groups of a value
/// below 2^28 moved one byte apart with shifts and masks, with the
/// continuation bit set on every byte before the last of its
/// [`varint_len`] bytes. Returns the word and that length.
#[inline(always)]
fn short_varint_word(value: u64) -> (u64, usize) {
    debug_assert!(value < 1 << 28);
    let len = varint_len(value);
    let spread = (value & 0x7F)
        | (value << 1 & 0x7F00)
        | (value << 2 & 0x7F_0000)
        | (value << 3 & 0x7F00_0000);
    (spread | CONTINUATION_BY_LEN[len], len)
}

/// The continuation bits of a varint of up to four bytes, by its
/// length: set on every byte but the last.
const CONTINUATION_BY_LEN: [u64; 5] = [0, 0, 0x80, 0x8080, 0x80_8080];

/// Store a varint of any length a byte at a time; `out` must have room
/// for all of it.
fn store_long_varint(out: &mut [u8], mut value: u64) -> usize {
    let mut len = 0;
    while value >= 0x80 {
        out[len] = value as u8 | 0x80;
        value >>= 7;
        len += 1;
    }
    out[len] = value as u8;
    len + 1
}

/// Outcome of decoding one varint from the front of a buffer.
enum Varint {
    /// A complete varint: its value and how many bytes it spanned.
    Done(u64, usize),
    /// The buffer ends mid-varint; more bytes may complete it.
    Incomplete,
}

/// Decode one LEB128 varint from the front of `buf`. Over-long or
/// overflowing encodings are parse errors; a buffer that simply ends
/// early is [`Varint::Incomplete`] (the caller decides whether that
/// means "refill" or "truncated file").
fn pop_varint(buf: &[u8]) -> Result<Varint, TraceIoError> {
    let mut value: u64 = 0;
    for (i, &byte) in buf.iter().take(MAX_VARINT_LEN).enumerate() {
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            return Err(parse_err("varint overflows a u64"));
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(Varint::Done(value, i + 1));
        }
    }
    if buf.len() >= MAX_VARINT_LEN {
        return Err(parse_err(format!(
            "varint longer than {MAX_VARINT_LEN} bytes"
        )));
    }
    Ok(Varint::Incomplete)
}

/// Decode every varint of the current chunk that starts at least
/// [`MAX_VARINT_LEN`] bytes before the end of `raw`, from offset `at`
/// until `out` holds `take` requests; returns the offset reached. In
/// that region no varint can be cut off, so each step loads a word and
/// decodes varints of up to four bytes (every id below 2^28) with
/// [`short_varint`], without branching on their bytes; longer ones go
/// through [`pop_varint`].
fn decode_buffered<const DELTA: bool>(
    raw: &[u8],
    mut at: usize,
    take: usize,
    prev: &mut i64,
    owners: &[UserId],
    out: &mut Vec<Request>,
) -> Result<usize, TraceIoError> {
    let fast_end = raw.len().saturating_sub(MAX_VARINT_LEN - 1);
    while at < fast_end && out.len() < take {
        let word = u64::from_le_bytes(raw[at..at + 8].try_into().expect("8-byte window"));
        let (coded, len) = match short_varint(word) {
            Some(short) => short,
            None => match pop_varint(&raw[at..])? {
                Varint::Done(coded, len) => (coded, len),
                Varint::Incomplete => unreachable!("{MAX_VARINT_LEN} bytes are buffered"),
            },
        };
        at += len;
        push_page::<DELTA>(coded, prev, owners, out)?;
    }
    Ok(at)
}

/// Decode the varint at the front of `word` (eight buffered bytes,
/// little-endian) if it is at most four bytes long: the terminator is
/// the lowest byte with a clear continuation bit, everything past it
/// is masked off, and the four 7-bit groups are gathered with shifts.
/// `None` for longer varints.
#[inline(always)]
fn short_varint(word: u64) -> Option<(u64, usize)> {
    let stop = (!word & 0x8080_8080_8080_8080).trailing_zeros();
    if stop >= 32 {
        return None;
    }
    let v = word & ((2u64 << stop) - 1);
    let value = (v & 0x7F) | (v >> 1 & 0x3F80) | (v >> 2 & 0x1F_C000) | (v >> 3 & 0xFE0_0000);
    Some((value, (stop / 8 + 1) as usize))
}

/// Resolve one decoded varint to a page — added to the base `prev` in
/// a delta chunk, taken as is in a raw one — check it against the
/// owner table, and append it with its owner. A delta that leaves the
/// `i64` range is as out of range as one that leaves the universe.
#[inline(always)]
fn push_page<const DELTA: bool>(
    coded: u64,
    prev: &mut i64,
    owners: &[UserId],
    out: &mut Vec<Request>,
) -> Result<(), TraceIoError> {
    let page = if DELTA {
        let delta = unzigzag(coded);
        match prev.checked_add(delta) {
            Some(page) => page,
            None => return Err(page_out_of_range(format_args!("{prev}{delta:+}"))),
        }
    } else {
        match i64::try_from(coded) {
            Ok(page) => page,
            Err(_) => return Err(page_out_of_range(coded)),
        }
    };
    let Some(&user) = usize::try_from(page).ok().and_then(|i| owners.get(i)) else {
        return Err(page_out_of_range(page));
    };
    *prev = page;
    out.push(Request {
        page: PageId(page as u32),
        user,
    });
    Ok(())
}

/// The parse error for a page outside the universe; cold, since only
/// corrupt input gets here.
#[cold]
fn page_out_of_range(page: impl std::fmt::Display) -> TraceIoError {
    parse_err(format!("page {page} out of range"))
}

/// Encoded length of `value` as an LEB128 varint, without encoding it:
/// looked up by its leading zeros.
#[inline(always)]
fn varint_len(value: u64) -> usize {
    VARINT_LEN_BY_LZ[value.leading_zeros() as usize] as usize
}

/// [`varint_len`] of a value with `lz` leading zeros: one byte per
/// started group of 7 significant bits, and one byte for zero.
const VARINT_LEN_BY_LZ: [u8; 65] = {
    let mut table = [1u8; 65];
    let mut lz = 0;
    while lz < 64 {
        table[lz] = (64 - lz).div_ceil(7) as u8;
        lz += 1;
    }
    table
};

/// Bytes past a chunk's end that [`encode_chunk`] needs as room: the
/// last word store writes eight bytes where the varint may take one.
const STORE_SLACK: usize = 7;

/// Encode one chunk of page ids: cost both codings in a sizing pass,
/// tag the chunk with the winner (ties go to delta), and append it.
/// `prev` is the delta base — the last page of the previous chunk — and
/// leaves as the last page of this one regardless of the mode chosen,
/// so a delta chunk can follow a raw chunk seamlessly. The sizing pass
/// gives the chunk's exact length, so `buf` grows once and every varint
/// is stored in place with [`store_varint`].
fn encode_chunk<T: TraceRecord>(buf: &mut Vec<u8>, records: &[T], prev: &mut i64) {
    let Some(last) = records.last() else {
        return;
    };
    let pages = || records.iter().map(|r| r.page().0);
    let mut delta_bytes = 0usize;
    let mut raw_bytes = 0usize;
    let mut base = *prev;
    for page in pages() {
        delta_bytes += varint_len(zigzag(page as i64 - base));
        raw_bytes += varint_len(page as u64);
        base = page as i64;
    }
    let delta = delta_bytes <= raw_bytes;
    let start = buf.len();
    let end = start + 1 + delta_bytes.min(raw_bytes);
    buf.resize(end + STORE_SLACK, 0);
    buf[start] = if delta {
        CHUNK_MODE_DELTA
    } else {
        CHUNK_MODE_RAW
    };
    let mut at = start + 1;
    if delta {
        let mut base = *prev;
        for page in pages() {
            at += store_varint(buf, at, zigzag(page as i64 - base));
            base = page as i64;
        }
    } else {
        for page in pages() {
            at += store_varint(buf, at, page as u64);
        }
    }
    debug_assert_eq!(at, end, "the sizing pass and the stores agree");
    buf.truncate(end);
    *prev = last.page().0 as i64;
}

/// Map a signed delta onto an unsigned varint domain: small magnitudes
/// of either sign get small codes.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(coded: u64) -> i64 {
    ((coded >> 1) as i64) ^ -((coded & 1) as i64)
}

/// Read one varint directly from a reader, one byte at a time — used
/// for the small header fields only; the request stream goes through
/// the chunked buffer.
fn read_varint<R: Read>(r: &mut R, what: &str) -> Result<u64, TraceIoError> {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    for i in 0..MAX_VARINT_LEN {
        let mut b = [0u8; 1];
        r.read_exact(&mut b).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                parse_err(format!(
                    "truncated binary trace: unexpected EOF mid-varint in {what}"
                ))
            } else {
                TraceIoError::Io(e)
            }
        })?;
        bytes[i] = b[0];
        if b[0] & 0x80 == 0 {
            return match pop_varint(&bytes[..=i])? {
                Varint::Done(v, _) => Ok(v),
                Varint::Incomplete => unreachable!("terminator byte was just read"),
            };
        }
    }
    Err(parse_err(format!(
        "varint longer than {MAX_VARINT_LEN} bytes in {what}"
    )))
}

fn read_varint_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, TraceIoError> {
    let v = read_varint(r, what)?;
    u32::try_from(v).map_err(|_| parse_err(format!("{what} {v} does not fit in 32 bits")))
}

/// Read the magic + varint universe header, leaving the reader
/// positioned at the request count.
fn read_universe_v2<R: Read>(r: &mut R) -> Result<Universe, TraceIoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            parse_err("truncated binary trace: unexpected EOF in the magic")
        } else {
            TraceIoError::Io(e)
        }
    })?;
    if magic != BINARY2_TRACE_MAGIC {
        return Err(parse_err(format!(
            "bad magic {magic:?}, expected {BINARY2_TRACE_MAGIC:?}"
        )));
    }
    let num_users = read_varint_u32(r, "the user count")?;
    if num_users == 0 {
        return Err(parse_err("a trace needs at least one user"));
    }
    let num_pages = read_varint_u32(r, "the page count")? as usize;
    let mut owners: Vec<UserId> = Vec::with_capacity(num_pages.min(CHUNK_REQS));
    while owners.len() < num_pages {
        let user = read_varint_u32(r, "the owner table")?;
        if user >= num_users {
            return Err(parse_err(format!("owner {user} out of range")));
        }
        let run = read_varint(r, "the owner table")?;
        if run == 0 {
            return Err(parse_err("zero-length owner run"));
        }
        let remaining = (num_pages - owners.len()) as u64;
        if run > remaining {
            return Err(parse_err(format!(
                "owner run of {run} pages overshoots the {num_pages}-page table"
            )));
        }
        for _ in 0..run {
            owners.push(UserId(user));
        }
    }
    Ok(Universe::new(num_users, owners))
}

/// Write the varint header shared by the whole-trace and streaming
/// writers; returns the header bytes.
fn encode_header(universe: &Universe, count: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&BINARY2_TRACE_MAGIC);
    push_varint(&mut buf, universe.num_users() as u64);
    push_varint(&mut buf, universe.num_pages() as u64);
    let owners = universe.owners();
    let mut i = 0usize;
    while i < owners.len() {
        let user = owners[i];
        let mut run = 1u64;
        while i + (run as usize) < owners.len() && owners[i + run as usize] == user {
            run += 1;
        }
        push_varint(&mut buf, user.0 as u64);
        push_varint(&mut buf, run);
        i += run as usize;
    }
    push_varint(&mut buf, count);
    buf
}

/// Write an entire in-memory `trace` in the packed format: one
/// [`Binary2TraceWriter`] run.
pub fn write_trace_binary_v2<W: Write>(trace: &Trace, w: W) -> Result<(), TraceIoError> {
    let mut writer = Binary2TraceWriter::new(trace.universe().clone(), trace.len() as u64, w)?;
    writer.push_run(trace.requests())?;
    writer.finish()?;
    Ok(())
}

/// Read a whole packed trace into memory. For traces that do not fit,
/// use [`Binary2TraceReader`] and stream instead.
pub fn read_trace_binary_v2<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut src = Binary2TraceReader::new(r)?;
    let mut builder = TraceBuilder::new(src.universe.clone());
    while let Some(run) = src.next_run(CHUNK_REQS) {
        for req in run {
            builder.push(req.page);
        }
    }
    src.finish()?;
    Ok(builder.build())
}

/// Incremental packed-trace writer. The varint header cannot be patched
/// in place, so the request count must be promised up front (every call
/// site — `occ trace pack`, `occ generate` — knows it);
/// [`finish`](Self::finish) fails if the promise was not kept.
///
/// Requests arrive a run at a time ([`push_run`](Self::push_run)) or
/// one at a time ([`push`](Self::push), a one-request run); either way
/// the bytes are the same. Each full chunk is encoded and handed to the
/// sink in one write, so the writer holds one chunk, never the file.
pub struct Binary2TraceWriter<W: Write> {
    sink: W,
    universe: Universe,
    promised: u64,
    written: u64,
    prev: i64,
    /// Pages of a chunk being accumulated from runs that do not cover
    /// it whole — the adaptive coder needs the whole chunk in hand to
    /// cost both codings.
    pending: Vec<PageId>,
    buf: Vec<u8>,
    crc: Crc32,
}

impl<W: Write> Binary2TraceWriter<W> {
    /// Write the header for `universe`, promising exactly `count`
    /// requests, and return a writer ready to accept them.
    pub fn new(universe: Universe, count: u64, mut sink: W) -> Result<Self, TraceIoError> {
        sink.write_all(&encode_header(&universe, count))?;
        Ok(Binary2TraceWriter {
            sink,
            universe,
            promised: count,
            written: 0,
            prev: 0,
            pending: Vec::new(),
            buf: Vec::new(),
            crc: Crc32::new(),
        })
    }

    /// Encode and write one chunk of records (a no-op when empty).
    fn write_chunk<T: TraceRecord>(&mut self, records: &[T]) -> Result<(), TraceIoError> {
        self.buf.clear();
        encode_chunk(&mut self.buf, records, &mut self.prev);
        self.crc.update(&self.buf);
        self.sink.write_all(&self.buf)?;
        Ok(())
    }

    /// Encode and write the accumulated chunk (a no-op when empty).
    fn flush_chunk(&mut self) -> Result<(), TraceIoError> {
        let pending = std::mem::take(&mut self.pending);
        let written = self.write_chunk(&pending);
        self.pending = pending;
        self.pending.clear();
        written
    }

    /// Append one request. Rejects pages outside the universe, owner
    /// claims that disagree with it, and pushes past the promised count.
    pub fn push(&mut self, req: Request) -> Result<(), TraceIoError> {
        self.push_run(std::slice::from_ref(&req))
    }

    /// Append a run of requests or bare pages, cut at chunk boundaries.
    /// Checked as [`push`](Self::push) checks each record, in the same
    /// order: the records before the first rejected one are appended,
    /// and the error is the one `push` would give for that record — a
    /// page outside the universe or a wrong claimed owner, else a record
    /// past the promised count. The promise is checked once per run.
    pub fn push_run<T: TraceRecord>(&mut self, run: &[T]) -> Result<(), TraceIoError> {
        let room = usize::try_from(self.promised - self.written).unwrap_or(usize::MAX);
        let checked = &run[..run.len().min(room.saturating_add(1))];
        let (keep, err) = match check_run(&self.universe, checked, self.written) {
            Err((bad, e)) => (bad, Some(e)),
            Ok(()) if run.len() > room => (
                room,
                Some(parse_err(format!(
                    "more requests than the promised {}",
                    self.promised
                ))),
            ),
            Ok(()) => (run.len(), None),
        };
        let mut rest = &run[..keep];
        while !rest.is_empty() {
            // A chunk the run covers whole is encoded straight from it.
            let take = if self.pending.is_empty() && rest.len() >= CHUNK_REQS {
                self.write_chunk(&rest[..CHUNK_REQS])?;
                CHUNK_REQS
            } else {
                let take = rest.len().min(CHUNK_REQS - self.pending.len());
                self.pending.extend(rest[..take].iter().map(|r| r.page()));
                if self.pending.len() == CHUNK_REQS {
                    self.flush_chunk()?;
                }
                take
            };
            self.written += take as u64;
            rest = &rest[take..];
        }
        err.map_or(Ok(()), Err)
    }

    /// Encode the ragged final chunk, append the checksum footer, and
    /// return the sink. Errors if fewer requests were pushed than
    /// promised (the header already claims the promised count, so the
    /// file would lie).
    pub fn finish(mut self) -> Result<W, TraceIoError> {
        if self.written != self.promised {
            return Err(parse_err(format!(
                "promised {} requests but {} were pushed",
                self.promised, self.written
            )));
        }
        self.flush_chunk()?;
        self.sink.write_all(&BINARY2_TRACE_FOOTER_MAGIC)?;
        self.sink.write_all(&self.crc.value().to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streaming decoder for packed traces: a [`RequestSource`] whose
/// memory footprint is the owner table plus one chunk, independent of
/// the request count.
///
/// Like [`BinaryTraceReader`](crate::binio::BinaryTraceReader), a
/// mid-stream failure ends the stream early and parks the error in
/// [`error`](Self::error) / [`finish`](Self::finish).
pub struct Binary2TraceReader<R: Read> {
    reader: R,
    universe: Universe,
    total: u64,
    served: u64,
    /// Previous decoded page id (the delta base), as a signed value so
    /// the first delta (base 0) needs no special case.
    prev: i64,
    /// Input buffer, allocated (and zeroed) once: `raw[raw_start..raw_end]`
    /// is pending input, `raw[raw_end..]` is room for the next read.
    raw: Box<[u8]>,
    raw_start: usize,
    raw_end: usize,
    /// `raw[crc_mark..raw_start]` has been decoded but not yet folded
    /// into `crc`; it is hashed in one call per chunk and before every
    /// compaction, in stream order.
    crc_mark: usize,
    /// Whether the underlying reader has reached EOF.
    raw_eof: bool,
    chunk: Vec<Request>,
    /// Next index to serve from `chunk`.
    pos: usize,
    error: Option<TraceIoError>,
    crc: Crc32,
    footer_checked: bool,
}

impl<R: Read> Binary2TraceReader<R> {
    /// Read the header (universe + request count) and return a source
    /// positioned at the first request.
    pub fn new(mut reader: R) -> Result<Self, TraceIoError> {
        let universe = read_universe_v2(&mut reader)?;
        let total = read_varint(&mut reader, "the request count")?;
        Ok(Binary2TraceReader {
            reader,
            universe,
            total,
            served: 0,
            prev: 0,
            raw: vec![0u8; RAW_CHUNK + RAW_SLACK].into_boxed_slice(),
            raw_start: 0,
            raw_end: 0,
            crc_mark: 0,
            raw_eof: false,
            chunk: Vec::new(),
            pos: 0,
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

    /// Fold the decoded-but-unhashed bytes into the running CRC.
    fn fold_crc(&mut self) {
        self.crc.update(&self.raw[self.crc_mark..self.raw_start]);
        self.crc_mark = self.raw_start;
    }

    /// Pull more bytes from the reader into `raw`, first hashing the
    /// consumed prefix and moving the pending tail to the front.
    /// Returns how many new bytes arrived (0 at EOF). Callers only get
    /// here with fewer than [`RAW_SLACK`] bytes pending (a cut varint,
    /// a missing tag, a short footer), so a read always has room.
    fn fill_raw(&mut self) -> Result<usize, TraceIoError> {
        self.fold_crc();
        if self.raw_start > 0 {
            self.raw.copy_within(self.raw_start..self.raw_end, 0);
            self.raw_end -= self.raw_start;
            self.raw_start = 0;
            self.crc_mark = 0;
        }
        if self.raw_eof {
            return Ok(0);
        }
        debug_assert!(self.raw_end < RAW_SLACK, "fill_raw with a full buffer");
        loop {
            match self.reader.read(&mut self.raw[self.raw_end..]) {
                Ok(0) => {
                    self.raw_eof = true;
                    return Ok(0);
                }
                Ok(n) => {
                    self.raw_end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceIoError::Io(e)),
            }
        }
    }

    /// Decode the next chunk of requests. `Ok(true)` leaves a fresh
    /// chunk in `self.chunk` with `pos == 0`; `Ok(false)` means the
    /// stream is cleanly drained (footer verified).
    fn refill(&mut self) -> Result<bool, TraceIoError> {
        let buffered = (self.chunk.len() - self.pos) as u64;
        let remaining = self.total - self.served - buffered;
        if remaining == 0 {
            if !self.footer_checked {
                self.footer_checked = true;
                self.check_footer()?;
            }
            return Ok(false);
        }
        // `refill` is only reached with the previous chunk fully
        // consumed, so `take` lands on exactly the boundaries the
        // writer chunked at: CHUNK_REQS apiece, ragged last.
        let take = (remaining as usize).min(CHUNK_REQS);
        self.chunk.clear();
        self.pos = 0;
        if self.raw_start == self.raw_end && self.fill_raw()? == 0 {
            return Err(parse_err(
                "truncated binary trace: unexpected EOF at a chunk tag",
            ));
        }
        let mode = self.raw[self.raw_start];
        self.raw_start += 1;
        match mode {
            CHUNK_MODE_DELTA => self.decode_chunk::<true>(take)?,
            CHUNK_MODE_RAW => self.decode_chunk::<false>(take)?,
            _ => return Err(parse_err(format!("unknown chunk mode tag {mode}"))),
        }
        self.fold_crc();
        Ok(true)
    }

    /// Decode `take` varints of one chunk into `self.chunk`, with the
    /// chunk's coding fixed at compile time (`DELTA`: zigzag deltas,
    /// otherwise raw ids). [`decode_buffered`] takes every varint that
    /// starts at least [`MAX_VARINT_LEN`] bytes before the end of the
    /// buffer; the last few buffered bytes take the incremental path,
    /// which refills when a varint is cut off.
    fn decode_chunk<const DELTA: bool>(&mut self, take: usize) -> Result<(), TraceIoError> {
        self.chunk.reserve(take);
        loop {
            self.raw_start = decode_buffered::<DELTA>(
                &self.raw[..self.raw_end],
                self.raw_start,
                take,
                &mut self.prev,
                self.universe.owners(),
                &mut self.chunk,
            )?;
            if self.chunk.len() == take {
                return Ok(());
            }
            match pop_varint(&self.raw[self.raw_start..self.raw_end])? {
                Varint::Done(coded, len) => {
                    self.raw_start += len;
                    push_page::<DELTA>(
                        coded,
                        &mut self.prev,
                        self.universe.owners(),
                        &mut self.chunk,
                    )?;
                }
                Varint::Incomplete => {
                    if self.fill_raw()? == 0 {
                        return Err(parse_err(
                            "truncated binary trace: unexpected EOF mid-varint in the request \
                             stream",
                        ));
                    }
                }
            }
        }
    }

    /// Verify the mandatory footer once the promised requests have all
    /// been decoded. Unlike occbin01 there is no legacy trailer-less
    /// form: a missing or short footer is truncation, a wrong magic is
    /// corruption.
    fn check_footer(&mut self) -> Result<(), TraceIoError> {
        debug_assert_eq!(self.crc_mark, self.raw_start, "every chunk is folded");
        while self.raw_end - self.raw_start < FOOTER_LEN {
            if self.fill_raw()? == 0 {
                break;
            }
        }
        let foot = &self.raw[self.raw_start..self.raw_end];
        if foot.len() < FOOTER_LEN {
            return Err(parse_err(
                "truncated binary trace: unexpected EOF in the footer",
            ));
        }
        if foot[..8] != BINARY2_TRACE_FOOTER_MAGIC {
            return Err(parse_err(format!(
                "bad footer magic {:?}, expected {BINARY2_TRACE_FOOTER_MAGIC:?}",
                &foot[..8]
            )));
        }
        let want = u32::from_le_bytes(foot[8..12].try_into().expect("4-byte slice"));
        let got = self.crc.value();
        if want != got {
            return Err(parse_err(format!(
                "footer checksum mismatch: footer says crc32 {want:08x}, request stream hashes \
                 to {got:08x} (corrupt or torn trace)"
            )));
        }
        Ok(())
    }
}

impl<R: Read> RequestSource for Binary2TraceReader<R> {
    fn universe(&self) -> &Universe {
        &self.universe
    }

    fn next_request(&mut self, _ctx: &EngineCtx) -> Option<Request> {
        Some(self.next_run(1)?[0])
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

impl<R: Read> SeekableSource for Binary2TraceReader<R> {
    /// Fast-forward through the same serving path as replay, so
    /// validation (delta range, truncation, footer checksum) and the
    /// running CRC see exactly the bytes a full replay would.
    fn seek_forward(&mut self, n: u64) {
        let mut remaining = n;
        while remaining > 0 {
            let max = remaining.min(CHUNK_REQS as u64) as usize;
            match self.next_run(max) {
                Some(run) => remaining -= run.len() as u64,
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio::write_trace_binary;

    fn sample() -> Trace {
        let u = Universe::uniform(2, 2);
        Trace::from_page_indices(&u, &[0, 2, 1, 3, 0])
    }

    fn drain(src: &mut Binary2TraceReader<&[u8]>) -> Vec<Request> {
        let mut got = Vec::new();
        while let Some(run) = src.next_run(97) {
            got.extend_from_slice(run);
        }
        got
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        let back = read_trace_binary_v2(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
        assert_eq!(back.universe(), t.universe());
    }

    #[test]
    fn packed_form_is_smaller_than_fixed_width() {
        // A locally clustered single-user trace: deltas are tiny, so the
        // packed encoding should be ~1 byte/request vs 4.
        let u = Universe::single_user(1000);
        let pages: Vec<u32> = (0..10_000u32).map(|i| 500 + (i % 7)).collect();
        let t = Trace::from_page_indices(&u, &pages);
        let mut v1 = Vec::new();
        write_trace_binary(&t, &mut v1).unwrap();
        let mut v2 = Vec::new();
        write_trace_binary_v2(&t, &mut v2).unwrap();
        assert!(
            v2.len() * 2 < v1.len(),
            "packed {} bytes vs fixed {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn streaming_writer_matches_whole_trace_writer() {
        let t = sample();
        let mut whole = Vec::new();
        write_trace_binary_v2(&t, &mut whole).unwrap();
        let mut w =
            Binary2TraceWriter::new(t.universe().clone(), t.len() as u64, Vec::new()).unwrap();
        for &r in t.requests() {
            w.push(r).unwrap();
        }
        let streamed = w.finish().unwrap();
        assert_eq!(streamed, whole);
    }

    #[test]
    fn streaming_writer_enforces_the_promise() {
        let t = sample();
        // Under-delivery fails at finish.
        let mut w =
            Binary2TraceWriter::new(t.universe().clone(), t.len() as u64, Vec::new()).unwrap();
        w.push(t.requests()[0]).unwrap();
        assert!(matches!(w.finish(), Err(TraceIoError::Parse(_))));
        // Over-delivery fails at push.
        let mut w = Binary2TraceWriter::new(t.universe().clone(), 1, Vec::new()).unwrap();
        w.push(t.requests()[0]).unwrap();
        assert!(w.push(t.requests()[1]).is_err());
    }

    #[test]
    fn streaming_reader_replays_identically() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        let mut src = Binary2TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(src.total_requests(), t.len() as u64);
        let got = drain(&mut src);
        assert_eq!(got.as_slice(), t.requests());
        src.finish().unwrap();
    }

    #[test]
    fn extreme_deltas_round_trip() {
        // Jumps across the whole u32 page-id range in both directions.
        let top = u32::MAX - 1;
        let u = Universe::single_user(u32::MAX);
        let pages = vec![top, 0, top, 1, top - 1, 0, 0, top];
        let t = Trace::from_page_indices(&u, &pages);
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        let back = read_trace_binary_v2(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
    }

    #[test]
    fn empty_and_single_request_traces_round_trip() {
        let u = Universe::single_user(3);
        for pages in [vec![], vec![2u32]] {
            let t = Trace::from_page_indices(&u, &pages);
            let mut buf = Vec::new();
            write_trace_binary_v2(&t, &mut buf).unwrap();
            let back = read_trace_binary_v2(buf.as_slice()).unwrap();
            assert_eq!(back.requests(), t.requests());
            assert_eq!(back.universe(), t.universe());
        }
    }

    #[test]
    fn sequential_streams_pick_delta_coding() {
        let u = Universe::single_user(100_000);
        let pages: Vec<u32> = (0..5_000u32).collect();
        let t = Trace::from_page_indices(&u, &pages);
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        let hdr = encode_header(t.universe(), t.len() as u64).len();
        assert_eq!(buf[hdr], CHUNK_MODE_DELTA);
        // +1 deltas are one byte each: tag + 5000 bytes + 12-byte footer.
        assert_eq!(buf.len(), hdr + 1 + 5_000 + 12);
        let back = read_trace_binary_v2(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
    }

    #[test]
    fn skewed_streams_pick_raw_coding() {
        // Small ids with sign-expanded jumps between them: raw varints
        // are ~1 byte, zigzag deltas ~2 — the coder must notice.
        let u = Universe::single_user(1 << 14);
        let pages: Vec<u32> = (0..5_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 128)
            .collect();
        let t = Trace::from_page_indices(&u, &pages);
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        let hdr = encode_header(t.universe(), t.len() as u64).len();
        assert_eq!(buf[hdr], CHUNK_MODE_RAW);
        // Every id < 128 is a one-byte varint.
        assert_eq!(buf.len(), hdr + 1 + 5_000 + 12);
        let back = read_trace_binary_v2(buf.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
    }

    #[test]
    fn mixed_chunks_round_trip_across_mode_boundaries() {
        // First chunk sequential (delta wins), ragged second chunk
        // skewed (raw wins); the delta base must carry across the
        // mode switch. Exercises both the whole-trace and streaming
        // writers and both readers.
        let u = Universe::single_user(1 << 20);
        let mut pages: Vec<u32> = (0..CHUNK_REQS as u32).collect();
        pages.extend((0..2_000u32).map(|i| i.wrapping_mul(2_654_435_761) % 128));
        let t = Trace::from_page_indices(&u, &pages);
        let mut whole = Vec::new();
        write_trace_binary_v2(&t, &mut whole).unwrap();
        let mut w =
            Binary2TraceWriter::new(t.universe().clone(), t.len() as u64, Vec::new()).unwrap();
        for &r in t.requests() {
            w.push(r).unwrap();
        }
        assert_eq!(w.finish().unwrap(), whole);
        let back = read_trace_binary_v2(whole.as_slice()).unwrap();
        assert_eq!(back.requests(), t.requests());
        let mut src = Binary2TraceReader::new(whole.as_slice()).unwrap();
        let got = drain(&mut src);
        assert_eq!(got.as_slice(), t.requests());
        src.finish().unwrap();
    }

    #[test]
    fn unknown_chunk_mode_tag_is_a_parse_error() {
        let u = Universe::single_user(4);
        let mut bad = encode_header(&u, 1);
        bad.push(2); // neither delta (0) nor raw (1)
        push_varint(&mut bad, 0);
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unknown chunk mode tag 2"),
            "{err}"
        );
    }

    #[test]
    fn truncation_mid_varint_is_a_parse_error() {
        // A two-byte varint delta: page 300 from base 0 → zigzag 600,
        // which needs two LEB128 bytes. Cutting between them is a
        // mid-varint truncation.
        let u = Universe::single_user(1000);
        let t = Trace::from_page_indices(&u, &[300]);
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 12 - 1); // drop footer + second delta byte
        let err = read_trace_binary_v2(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("mid-varint"), "{err}");

        // The streaming reader parks the same class of error.
        let mut src = Binary2TraceReader::new(buf.as_slice()).unwrap();
        let _ = drain(&mut src);
        assert!(matches!(src.finish(), Err(TraceIoError::Parse(_))));
    }

    #[test]
    fn missing_footer_is_a_parse_error() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 12);
        let err = read_trace_binary_v2(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("EOF in the footer"), "{err}");
    }

    #[test]
    fn flipped_footer_byte_is_a_parse_error() {
        let t = sample();
        let mut good = Vec::new();
        write_trace_binary_v2(&t, &mut good).unwrap();
        // Flip each footer byte in turn: magic bytes report corruption,
        // checksum bytes report a mismatch — all of them parse errors.
        for i in 1..=12 {
            let mut bad = good.clone();
            let idx = bad.len() - i;
            bad[idx] ^= 0x01;
            let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Parse(_)),
                "flip at -{i}: {err:?}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        // Flipping the low bit of a one-byte delta keeps it structurally
        // valid (still in range), so only the CRC can catch it.
        let u = Universe::single_user(8);
        let t = Trace::from_page_indices(&u, &[1, 2, 3, 4]);
        let mut bad = Vec::new();
        write_trace_binary_v2(&t, &mut bad).unwrap();
        let first_delta = bad.len() - 12 - 4;
        bad[first_delta] ^= 0x02;
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("footer checksum mismatch"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_delta_is_a_parse_error() {
        let u = Universe::single_user(4);
        let t = Trace::from_page_indices(&u, &[3]);
        let mut bad = Vec::new();
        write_trace_binary_v2(&t, &mut bad).unwrap();
        // The single delta is zigzag(3) = 6, one byte just before the
        // footer. Rewrite it to zigzag(-1) = 1: decodes to page −1.
        let delta_at = bad.len() - 13;
        assert_eq!(bad[delta_at], 6);
        bad[delta_at] = 1;
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// A reader that hands out one byte per call, so every varint of
    /// the request stream goes through the incremental tail path.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn delta_overflowing_i64_is_an_out_of_range_page() {
        // Page 3, then a 10-byte delta of i64::MAX: the sum leaves the
        // i64 range, which must be a parse error, not an overflow.
        let u = Universe::single_user(4);
        let mut bad = encode_header(&u, 2);
        let payload_at = bad.len();
        bad.push(CHUNK_MODE_DELTA);
        push_varint(&mut bad, zigzag(3));
        push_varint(&mut bad, zigzag(i64::MAX));
        assert_eq!(bad.len() - payload_at, 1 + 1 + MAX_VARINT_LEN);
        let mut crc = Crc32::new();
        crc.update(&bad[payload_at..]);
        bad.extend_from_slice(&BINARY2_TRACE_FOOTER_MAGIC);
        bad.extend_from_slice(&crc.value().to_le_bytes());

        // Whole slice: the long delta is decoded with the footer still
        // buffered behind it. One byte per read: it arrives piecemeal.
        let whole = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(whole.to_string().contains("out of range"), "{whole}");
        let mut src = Binary2TraceReader::new(OneByte(&bad)).unwrap();
        assert!(src.next_run(8).is_none());
        let piecemeal = src.finish().unwrap_err();
        assert_eq!(piecemeal.to_string(), whole.to_string());
    }

    #[test]
    fn overlong_varint_is_a_parse_error() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&BINARY2_TRACE_MAGIC);
        bad.extend_from_slice(&[0xFF; 11]); // user count never terminates
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn corrupt_owner_runs_are_parse_errors() {
        // Owner out of range.
        let mut bad = Vec::new();
        bad.extend_from_slice(&BINARY2_TRACE_MAGIC);
        push_varint(&mut bad, 1); // users
        push_varint(&mut bad, 2); // pages
        push_varint(&mut bad, 5); // owner 5 of a 1-user trace
        push_varint(&mut bad, 2);
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("owner 5 out of range"), "{err}");

        // Run overshooting the table.
        let mut bad = Vec::new();
        bad.extend_from_slice(&BINARY2_TRACE_MAGIC);
        push_varint(&mut bad, 1);
        push_varint(&mut bad, 2);
        push_varint(&mut bad, 0);
        push_varint(&mut bad, 3); // 3-page run in a 2-page table
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("overshoots"), "{err}");

        // Zero-length run.
        let mut bad = Vec::new();
        bad.extend_from_slice(&BINARY2_TRACE_MAGIC);
        push_varint(&mut bad, 1);
        push_varint(&mut bad, 2);
        push_varint(&mut bad, 0);
        push_varint(&mut bad, 0);
        let err = read_trace_binary_v2(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("zero-length owner run"), "{err}");
    }

    #[test]
    fn seek_forward_matches_pull_and_discard() {
        let u = Universe::uniform(2, 3);
        let pages: Vec<u32> = (0..50).map(|i| (i * 7) % 6).collect();
        let t = Trace::from_page_indices(&u, &pages);
        let mut buf = Vec::new();
        write_trace_binary_v2(&t, &mut buf).unwrap();
        let cache = crate::cache::CacheSet::new(1, u.num_pages());
        let stats = crate::stats::SimStats::new(u.num_users());
        let ctx = EngineCtx {
            time: 0,
            cache: &cache,
            stats: &stats,
            universe: &u,
        };
        for skip in [0u64, 1, 7, 49, 50, 80] {
            let mut pulled = Binary2TraceReader::new(buf.as_slice()).unwrap();
            for _ in 0..skip.min(50) {
                pulled.next_request(&ctx);
            }
            let mut sought = Binary2TraceReader::new(buf.as_slice()).unwrap();
            sought.seek_forward(skip);
            loop {
                let a = pulled.next_request(&ctx);
                let b = sought.next_request(&ctx);
                assert_eq!(a, b, "skip={skip}");
                if a.is_none() {
                    break;
                }
            }
            pulled.finish().unwrap();
            sought.finish().unwrap();
        }
    }

    #[test]
    fn short_varint_agrees_with_pop_varint() {
        // Canonical and zero-padded encodings of 1–10 bytes, followed
        // by continuation-heavy garbage that must be ignored.
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            0x0AB_CDEF,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX as u64,
            u64::MAX,
        ];
        for v in values {
            let mut canonical = Vec::new();
            push_varint(&mut canonical, v);
            for width in canonical.len()..=MAX_VARINT_LEN {
                let mut buf = canonical.clone();
                if width > buf.len() {
                    *buf.last_mut().unwrap() |= 0x80;
                    buf.resize(width - 1, 0x80);
                    buf.push(0);
                }
                let Varint::Done(want, len) = pop_varint(&buf).unwrap() else {
                    panic!("complete varint reported incomplete");
                };
                assert_eq!((want, len), (v, width));
                buf.resize(buf.len().max(8), 0xFF);
                let word = u64::from_le_bytes(buf[..8].try_into().unwrap());
                let short = short_varint(word);
                if width <= 4 {
                    assert_eq!(short, Some((v, width)), "{v} in {width} bytes");
                } else {
                    assert_eq!(short, None, "{v} in {width} bytes");
                }
            }
        }
    }

    /// LEB128 a byte at a time, one `Vec::push` per byte: the reference
    /// the word store must reproduce.
    fn leb128(mut value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        while value >= 0x80 {
            out.push(value as u8 | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
        out
    }

    #[test]
    fn word_store_matches_the_byte_loop() {
        let mut values = vec![0u64, u64::MAX];
        for j in 1..=9 {
            values.extend([(1u64 << (7 * j)) - 1, 1 << (7 * j)]);
        }
        // SplitMix64 draws at every width: shifting by a random amount
        // spreads them over all varint lengths.
        let mut x = 0x5EED_u64;
        for _ in 0..10_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            values.push(z >> (z % 64));
        }
        for v in values {
            let want = leb128(v);
            let mut pushed = vec![0xEE];
            push_varint(&mut pushed, v);
            assert_eq!(&pushed[1..], want.as_slice(), "push_varint({v})");
            // Stored in place over stale bytes: only the varint's own
            // bytes count, and the ones after it may be clobbered.
            let mut out = [0xAAu8; 3 + MAX_VARINT_LEN + STORE_SLACK];
            let len = store_varint(&mut out, 3, v);
            assert_eq!(len, want.len(), "length of {v}");
            assert_eq!(len, varint_len(v), "varint_len({v})");
            assert_eq!(&out[3..3 + len], want.as_slice(), "store_varint({v})");
            assert_eq!(out[..3], [0xAA; 3], "bytes before the varint are kept");
        }
    }

    #[test]
    fn chunks_near_u32_max_decode_through_the_block_decoder() {
        // Ids past 2^28 take the over-four-byte store in both codings;
        // the universe they index is never built (it would be 16 GiB),
        // so the chunk is decoded with the block decoder's own word and
        // byte readers, exactly as `decode_buffered` reads it.
        let top = u32::MAX;
        let rising: Vec<u32> = (0..300).map(|i| top - 299 + i).collect();
        let mut jumping = Vec::new();
        for i in 0..300u32 {
            jumping.extend([top - i, i % 100, 1 << 28, (1 << 28) - 1]);
        }
        for (pages, mode) in [(rising, CHUNK_MODE_DELTA), (jumping, CHUNK_MODE_RAW)] {
            for start in [0i64, top as i64] {
                let mut buf = vec![0xEE];
                let mut prev = start;
                let ids: Vec<PageId> = pages.iter().map(|&p| PageId(p)).collect();
                encode_chunk(&mut buf, &ids, &mut prev);
                assert_eq!(prev, *pages.last().unwrap() as i64);
                assert_eq!(buf[1], mode, "coding picked for the chunk");
                // Footer-sized padding, as a real file has behind its
                // last chunk, so every varint is read from a full word.
                buf.extend_from_slice(&[0; FOOTER_LEN]);
                let (mut at, mut base) = (2, start);
                for &page in &pages {
                    let word = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
                    let (coded, len) = match short_varint(word) {
                        Some(short) => short,
                        None => match pop_varint(&buf[at..]).unwrap() {
                            Varint::Done(coded, len) => (coded, len),
                            Varint::Incomplete => panic!("varint cut off at {at}"),
                        },
                    };
                    at += len;
                    let got = if mode == CHUNK_MODE_DELTA {
                        base + unzigzag(coded)
                    } else {
                        coded as i64
                    };
                    assert_eq!(got, page as i64);
                    base = got;
                }
                assert_eq!(
                    at,
                    buf.len() - FOOTER_LEN,
                    "the chunk ends where its varints do"
                );
            }
        }
    }

    #[test]
    fn varint_primitives() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            match pop_varint(&buf).unwrap() {
                Varint::Done(got, len) => {
                    assert_eq!(got, v);
                    assert_eq!(len, buf.len());
                }
                Varint::Incomplete => panic!("complete varint reported incomplete"),
            }
            // A cut anywhere inside is incomplete, not an error.
            for cut in 0..buf.len() {
                assert!(matches!(pop_varint(&buf[..cut]), Ok(Varint::Incomplete)));
            }
        }
        for d in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 63, -64] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // u64::MAX zigzag-decodes from 10 bytes; an 11th continuation
        // byte is over-long.
        assert!(pop_varint(&[0xFF; 10]).is_err());
    }
}
