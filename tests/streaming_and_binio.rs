//! Integration tests for the zero-materialization workload path: the
//! binary trace format and the streaming request sources.
//!
//! * arbitrary traces survive a binary write → read round trip
//!   byte-identically, and the text and binary loaders agree through
//!   the auto-detecting reader;
//! * the packed occbin02 decoder serves the same requests and reaches
//!   the same footer verdict however its input is split into reads;
//! * streamed workloads replay byte-identically to their materialized
//!   twins through the batched engine;
//! * the tenant mixer, which fills runs in passes, hands out the stream
//!   of a per-request draw kept here as an oracle, under any mix of
//!   runs, pulls and seeks;
//! * a 10-million-request streamed run completes with source state
//!   whose size is provably independent of the workload length — the
//!   memory claim behind "no `Vec<Request>` ever exists".

use occ_baselines::Lru;
use occ_sim::{
    read_trace, read_trace_auto, read_trace_binary, read_trace_binary_v2, write_trace,
    write_trace_binary, write_trace_binary_v2, Binary2TraceReader, BinaryTraceReader, Crc32,
    PageId, Request, RequestSource, SeekableSource, Simulator, SteppingEngine, Trace, TraceBuilder,
    Universe, UserId, DEFAULT_BATCH_SIZE,
};
use occ_workloads::{zipf_trace, AccessPattern, PatternSource, TenantMixSource, TenantSpec, Zipf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Cursor, Read};
use std::sync::atomic::{AtomicUsize, Ordering};

/// An arbitrary multi-user trace (including empty request streams).
fn arb_trace() -> impl Strategy<Value = Trace> {
    (1u32..=4, 2u32..=6).prop_flat_map(|(users, per_user)| {
        let total = users * per_user;
        proptest::collection::vec(0..total, 0..300).prop_map(move |pages| {
            let universe = Universe::uniform(users, per_user);
            let mut builder = TraceBuilder::new(universe.clone());
            for &p in &pages {
                builder.push(PageId(p));
            }
            builder.build()
        })
    })
}

/// A single-tenant trace over a wide page universe, so consecutive page
/// ids can jump by ~2^17 in either direction. This drives occbin02 into
/// its multi-byte zigzag-varint paths, which the small universe of
/// [`arb_trace`] never reaches.
fn arb_wide_trace() -> impl Strategy<Value = Trace> {
    const SPAN: u32 = 1 << 17;
    proptest::collection::vec(0..SPAN, 0..64).prop_map(|pages| {
        let universe = Universe::single_user(SPAN);
        let mut builder = TraceBuilder::new(universe);
        for &p in &pages {
            builder.push(PageId(p));
        }
        builder.build()
    })
}

/// Write `trace` as occbin01 to a fresh temp file and return its path.
/// Callers must remove the file; a process-wide counter keeps concurrent
/// proptest cases from colliding.
fn write_v1_temp_file(trace: &Trace) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "occ-test-mmap-eq-{}-{}.occbin01",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let mut bytes = Vec::new();
    write_trace_binary(trace, &mut bytes).unwrap();
    std::fs::write(&path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_round_trip_is_lossless(trace in arb_trace()) {
        let mut buf = Vec::new();
        write_trace_binary(&trace, &mut buf).unwrap();
        let back = read_trace_binary(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.universe(), trace.universe());
        prop_assert_eq!(back.requests(), trace.requests());
    }

    #[test]
    fn text_and_binary_loaders_agree_via_auto_detection(trace in arb_trace()) {
        let mut text = Vec::new();
        write_trace(&trace, &mut text).unwrap();
        let mut binary = Vec::new();
        write_trace_binary(&trace, &mut binary).unwrap();

        let from_text = read_trace_auto(Cursor::new(&text)).unwrap();
        let from_binary = read_trace_auto(Cursor::new(&binary)).unwrap();
        prop_assert_eq!(from_text.universe(), from_binary.universe());
        prop_assert_eq!(from_text.requests(), from_binary.requests());
        prop_assert_eq!(from_text.requests(), trace.requests());

        // The explicit text reader sees the same thing the auto reader saw.
        let explicit = read_trace(Cursor::new(&text)).unwrap();
        prop_assert_eq!(explicit.requests(), trace.requests());
    }

    #[test]
    fn binary_v2_round_trip_is_lossless(trace in arb_trace()) {
        let mut buf = Vec::new();
        write_trace_binary_v2(&trace, &mut buf).unwrap();
        let back = read_trace_binary_v2(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.universe(), trace.universe());
        prop_assert_eq!(back.requests(), trace.requests());

        // The auto-detecting reader sniffs the occbin02 magic too.
        let auto = read_trace_auto(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(auto.requests(), trace.requests());
    }

    #[test]
    fn v1_to_v2_transcode_is_lossless(trace in arb_trace()) {
        // The `occ trace pack` path at the library level: occbin01 bytes
        // → Trace → occbin02 bytes → Trace → occbin01 bytes. Both decoded
        // traces and both v1 encodings must be identical.
        let mut v1 = Vec::new();
        write_trace_binary(&trace, &mut v1).unwrap();
        let from_v1 = read_trace_binary(Cursor::new(&v1)).unwrap();

        let mut v2 = Vec::new();
        write_trace_binary_v2(&from_v1, &mut v2).unwrap();
        let from_v2 = read_trace_binary_v2(Cursor::new(&v2)).unwrap();
        prop_assert_eq!(from_v2.universe(), from_v1.universe());
        prop_assert_eq!(from_v2.requests(), from_v1.requests());

        let mut v1_again = Vec::new();
        write_trace_binary(&from_v2, &mut v1_again).unwrap();
        prop_assert_eq!(v1_again, v1);
    }

    #[test]
    fn binary_v2_survives_wide_deltas(trace in arb_wide_trace()) {
        let mut buf = Vec::new();
        write_trace_binary_v2(&trace, &mut buf).unwrap();
        let back = read_trace_binary_v2(Cursor::new(&buf)).unwrap();
        prop_assert_eq!(back.requests(), trace.requests());
    }

    #[test]
    fn mmap_and_buffered_replays_are_byte_identical(
        trace in arb_trace(),
        batch in prop_oneof![
            Just(DEFAULT_BATCH_SIZE - 1),
            Just(DEFAULT_BATCH_SIZE),
            Just(DEFAULT_BATCH_SIZE + 1),
            1usize..128,
        ],
    ) {
        let path = write_v1_temp_file(&trace);

        // Drain both sources into explicit page sequences, and replay
        // each through its own engine; the straddle cases around
        // DEFAULT_BATCH_SIZE exercise run splits at the mmap serve
        // boundary.
        let mut mmap = BinaryTraceReader::map(&std::fs::File::open(&path).unwrap()).unwrap();
        prop_assert_eq!(mmap.strategy(), "mmap");
        let mut mmap_pages = Vec::new();
        let mut mmap_engine = SteppingEngine::new(8, mmap.universe().clone(), Lru::new());
        while let Some(run) = mmap.next_page_run(batch) {
            mmap_pages.extend_from_slice(run);
            mmap_engine.step_page_batch(run);
        }
        mmap.finish().unwrap();

        let file = std::fs::File::open(&path).unwrap();
        let mut buffered = BinaryTraceReader::new(std::io::BufReader::new(file)).unwrap();
        let mut buf_pages = Vec::new();
        let mut buf_engine = SteppingEngine::new(8, buffered.universe().clone(), Lru::new());
        while let Some(run) = buffered.next_page_run(batch) {
            buf_pages.extend_from_slice(run);
            buf_engine.step_page_batch(run);
        }
        buffered.finish().unwrap();
        std::fs::remove_file(&path).ok();

        // The packed twin through the streaming occbin02 decoder.
        let mut v2 = Vec::new();
        write_trace_binary_v2(&trace, &mut v2).unwrap();
        let mut packed = Binary2TraceReader::new(v2.as_slice()).unwrap();
        let mut packed_pages = Vec::new();
        let mut packed_engine = SteppingEngine::new(8, packed.universe().clone(), Lru::new());
        while let Some(run) = packed.next_run(batch) {
            packed_pages.extend(run.iter().map(|r| r.page));
            packed_engine.step_batch(run);
        }
        packed.finish().unwrap();

        prop_assert_eq!(&mmap_pages, &buf_pages);
        prop_assert_eq!(&mmap_pages, &packed_pages);
        prop_assert_eq!(
            mmap_pages,
            trace.requests().iter().map(|r| r.page).collect::<Vec<_>>()
        );
        prop_assert_eq!(mmap_engine.stats(), buf_engine.stats());
        prop_assert_eq!(mmap_engine.stats(), packed_engine.stats());
    }
}

/// SplitMix64: the hand-built packed files below draw everything from
/// one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Append `value` as an LEB128 varint stretched to `width` bytes by
/// padding with zero-payload continuation bytes — a non-canonical but
/// valid encoding (`width` is clamped to 1..=10 and to at least the
/// canonical length).
fn put_varint(out: &mut Vec<u8>, mut value: u64, width: usize) {
    let canonical = (64 - value.leading_zeros() as usize).max(1).div_ceil(7);
    let width = width.clamp(canonical, 10);
    for i in 0..width {
        let more = if i + 1 < width { 0x80 } else { 0 };
        out.push((value & 0x7F) as u8 | more);
        value >>= 7;
    }
}

/// Users and pages per user of the hand-built packed traces: 2^22
/// pages, so raw ids take 1–4 varint bytes and deltas up to 2^23 do
/// too. A canonical 5-byte varint needs a raw id of 2^28 or a delta of
/// 2^27 (an owner table of 512 MiB or more), so 5- to 10-byte varints
/// come from padding.
const PACKED_USERS: u32 = 4;
const PACKED_PER_USER: u32 = 1 << 20;

/// Hand-build an occbin02 file of `len` requests: chunk `c` uses raw
/// coding when bit `c` of `raw_modes` is set, roughly one varint in
/// eight is padded to up to 10 bytes, and `damage` leaves it intact
/// (0, 1), flips a checksum bit (2) or cuts 1–16 bytes, never into
/// the header, off the end (3).
/// Returns the bytes and the page ids they encode.
fn hand_packed(seed: u64, len: usize, raw_modes: u8, damage: u8) -> (Vec<u8>, Vec<u32>) {
    const CHUNK: usize = 64 * 1024;
    let pages_total = u64::from(PACKED_USERS * PACKED_PER_USER);
    let mut rng = seed;
    let mut pages = Vec::with_capacity(len);
    let mut page = 0u64;
    for _ in 0..len {
        let r = splitmix(&mut rng);
        page = match r % 5 {
            // A short step either way: one-byte deltas.
            0 | 1 => (page + pages_total + (r >> 8) % 7 - 3) % pages_total,
            // Small ids: one-byte raw varints.
            2 => (r >> 8) % 128,
            3 => (r >> 8) % (1 << 14),
            // Anywhere: up to four bytes either way.
            _ => (r >> 8) % pages_total,
        };
        pages.push(page as u32);
    }

    let mut bytes = b"occbin02".to_vec();
    put_varint(&mut bytes, u64::from(PACKED_USERS), 1);
    put_varint(&mut bytes, pages_total, 1);
    for user in 0..PACKED_USERS {
        put_varint(&mut bytes, u64::from(user), 1);
        put_varint(&mut bytes, u64::from(PACKED_PER_USER), 1);
    }
    put_varint(&mut bytes, len as u64, 1);
    let payload_at = bytes.len();
    let mut prev = 0i64;
    for (c, chunk) in pages.chunks(CHUNK).enumerate() {
        let raw = raw_modes >> (c % 8) & 1 == 1;
        bytes.push(u8::from(raw));
        for &p in chunk {
            let r = splitmix(&mut rng);
            let width = if r.is_multiple_of(8) {
                (r >> 8) as usize % 10 + 1
            } else {
                1
            };
            let coded = if raw {
                u64::from(p)
            } else {
                let d = i64::from(p) - prev;
                ((d << 1) ^ (d >> 63)) as u64
            };
            put_varint(&mut bytes, coded, width);
            prev = i64::from(p);
        }
    }
    let mut crc = Crc32::new();
    crc.update(&bytes[payload_at..]);
    bytes.extend_from_slice(b"occsum02");
    bytes.extend_from_slice(&crc.value().to_le_bytes());
    match damage {
        2 => {
            let at = bytes.len() - 1 - (splitmix(&mut rng) % 4) as usize;
            bytes[at] ^= 0x10;
        }
        3 => {
            // Never into the header: the readers must get that far.
            let room = (bytes.len() - payload_at).min(16);
            let cut = 1 + splitmix(&mut rng) as usize % room;
            bytes.truncate(bytes.len() - cut);
        }
        _ => {}
    }
    (bytes, pages)
}

/// A reader that hands out 1–13 bytes per call, so chunk tags, varints
/// and the footer arrive cut at every offset.
struct Dribble<'a> {
    bytes: &'a [u8],
    rng: u64,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + (splitmix(&mut self.rng) % 13) as usize)
            .min(buf.len())
            .min(self.bytes.len());
        let (head, rest) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(head);
        self.bytes = rest;
        Ok(n)
    }
}

/// Drain a packed reader in runs of `batch`; returns what it served and
/// its verdict.
fn drain_packed<R: Read>(reader: R, batch: usize) -> (Vec<Request>, Result<(), String>) {
    let mut src = Binary2TraceReader::new(reader).expect("the header is intact");
    let mut got = Vec::new();
    while let Some(run) = src.next_run(batch) {
        got.extend_from_slice(run);
    }
    (got, src.finish().map_err(|e| e.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn packed_decode_is_independent_of_read_sizes(
        seed in 0u64..u64::MAX,
        // Short traces, and traces straddling the first and second
        // chunk boundaries so a tag lands mid-buffer.
        len in prop_oneof![1usize..300, 65_530usize..65_545, 131_066usize..131_080],
        raw_modes in 0u8..8,
        damage in 0u8..4,
        batch in prop_oneof![Just(DEFAULT_BATCH_SIZE), 1usize..5_000],
    ) {
        let (bytes, pages) = hand_packed(seed, len, raw_modes, damage);
        let (whole, whole_verdict) = drain_packed(bytes.as_slice(), batch);
        let dribble = Dribble { bytes: &bytes, rng: seed ^ 0xD1B5 };
        let (piecemeal, piecemeal_verdict) = drain_packed(dribble, batch);
        prop_assert_eq!(&piecemeal, &whole);
        prop_assert_eq!(&piecemeal_verdict, &whole_verdict);

        let expected: Vec<Request> = pages
            .iter()
            .map(|&p| Request { page: PageId(p), user: UserId(p / PACKED_PER_USER) })
            .collect();
        match damage {
            0 | 1 => {
                prop_assert_eq!(whole_verdict, Ok(()));
                prop_assert_eq!(whole, expected);
            }
            2 => {
                let err = whole_verdict.unwrap_err();
                prop_assert!(err.contains("footer checksum mismatch"), "{}", err);
                prop_assert_eq!(whole, expected);
            }
            _ => {
                prop_assert!(whole_verdict.is_err());
                prop_assert!(expected.starts_with(&whole));
            }
        }
    }
}

#[test]
fn streamed_replay_matches_materialized_replay() {
    let trace = zipf_trace(128, 30_000, 0.9, 21);
    let materialized = Simulator::new(16).run(&mut Lru::new(), &trace);

    let mut source = PatternSource::new(AccessPattern::Zipf { s: 0.9 }, 128, 30_000, 21);
    let streamed = Simulator::new(16).run_source_batched(&mut Lru::new(), &mut source, 4096);

    assert_eq!(streamed.stats, materialized.stats);
    assert_eq!(streamed.steps, materialized.steps);
    assert_eq!(streamed.final_cache, materialized.final_cache);
}

#[test]
fn ten_million_request_stream_runs_in_constant_memory() {
    const LEN: u64 = 10_000_000;
    let pattern = AccessPattern::Zipf { s: 0.9 };

    // The O(1)-memory claim: the source's heap state is a function of
    // the universe and sampler tables only. A 10M-request source and a
    // 100-request source are the same size; a materialized trace would
    // be ~8 bytes per request (80 MB here).
    let mut long = PatternSource::new(pattern.clone(), 1024, LEN, 3);
    let short = PatternSource::new(pattern, 1024, 100, 3);
    assert_eq!(long.state_bytes(), short.state_bytes());
    assert!(
        long.state_bytes() < 64 * 1024,
        "source state is {} bytes; the materialized trace would be ~{} MB",
        long.state_bytes(),
        LEN * 8 / (1 << 20)
    );

    let result =
        Simulator::new(64).run_source_batched(&mut Lru::new(), &mut long, DEFAULT_BATCH_SIZE);
    assert_eq!(result.steps, LEN);
    assert_eq!(result.stats.total_hits() + result.stats.total_misses(), LEN);
    assert!(result.stats.total_misses() > 0);
}

/// A fixed-width trace served from a FIFO — a non-regular file that
/// cannot be mapped — must fall back to buffered reads and still replay
/// the identical request stream. `BinarySource::open` sniffs and reads
/// through a single file handle, so no bytes are lost to probing.
#[cfg(unix)]
#[test]
fn non_regular_file_falls_back_to_buffered_strategy() {
    use occ_sim::BinarySource;

    let trace = zipf_trace(64, 5_000, 0.9, 7);
    let mut bytes = Vec::new();
    write_trace_binary(&trace, &mut bytes).unwrap();

    let fifo = std::env::temp_dir().join(format!("occ-test-fifo-{}.occbin01", std::process::id()));
    std::fs::remove_file(&fifo).ok();
    let status = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .expect("mkfifo");
    assert!(status.success(), "mkfifo failed");

    let writer_path = fifo.clone();
    let writer = std::thread::spawn(move || {
        // Blocks until the reader opens the other end.
        std::fs::write(&writer_path, &bytes).unwrap();
    });

    let mut source = BinarySource::open(&fifo).unwrap();
    assert_eq!(source.strategy(), "buffered", "a FIFO cannot be mapped");
    let mut pages = Vec::new();
    while let Some(run) = source.next_page_run(DEFAULT_BATCH_SIZE) {
        pages.extend_from_slice(run);
    }
    source.finish().unwrap();
    writer.join().unwrap();
    std::fs::remove_file(&fifo).ok();

    let expected: Vec<PageId> = trace.requests().iter().map(|r| r.page).collect();
    assert_eq!(pages, expected);
}

#[test]
fn multi_tenant_stream_state_is_length_independent() {
    let specs = vec![
        TenantSpec::new(256, 3.0, AccessPattern::Zipf { s: 1.0 }),
        TenantSpec::new(128, 1.0, AccessPattern::Uniform),
    ];
    let long = TenantMixSource::new(&specs, u64::MAX, 9);
    let short = TenantMixSource::new(&specs, 1, 9);
    assert_eq!(long.state_bytes(), short.state_bytes());
}

/// Every pattern a [`PatternSource`] can stream, and the three presets'
/// mixers, as fresh sources of `len` requests at `seed`.
fn every_stream(len: u64, seed: u64) -> Vec<(String, Box<dyn SeekableSource>)> {
    let patterns = [
        AccessPattern::Uniform,
        AccessPattern::Zipf { s: 0.9 },
        AccessPattern::Cycle { len: 7 },
        AccessPattern::Scan,
        AccessPattern::HotSet {
            hot_pages: 5,
            hot_prob: 0.8,
        },
        AccessPattern::Phased {
            s: 1.1,
            phase_len: 50,
        },
    ];
    let mut out: Vec<(String, Box<dyn SeekableSource>)> = patterns
        .into_iter()
        .map(|p| {
            let name = format!("{p:?}");
            let src = PatternSource::new(p, 40, len, seed);
            (name, Box::new(src) as Box<dyn SeekableSource>)
        })
        .collect();
    for scenario in occ_workloads::all_scenarios() {
        let src = scenario.stream(len, seed);
        out.push((scenario.name.to_string(), Box::new(src)));
    }
    out
}

/// An engine context for pulling from a source outside an engine; the
/// synthetic sources ignore it.
fn with_ctx<T>(f: impl FnOnce(&occ_sim::EngineCtx) -> T) -> T {
    let universe = Universe::single_user(1);
    let cache = occ_sim::CacheSet::new(1, 1);
    let stats = occ_sim::SimStats::new(1);
    f(&occ_sim::EngineCtx {
        time: 0,
        cache: &cache,
        stats: &stats,
        universe: &universe,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `next_run(m)` (m = 1, random, or past what is left),
    /// `next_request` and `seek_forward(n)` interleaved at random hand
    /// out exactly the requests a pure `next_request` drain does at the
    /// same positions, for every pattern source and preset mixer.
    #[test]
    fn interleaved_runs_pulls_and_seeks_match_a_pull_drain(
        len in prop_oneof![0u64..40, 0u64..5_000],
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0u8..6, 1u64..700), 0..60),
    ) {
        let drains = with_ctx(|ctx| {
            every_stream(len, seed)
                .into_iter()
                .map(|(_, mut src)| {
                    std::iter::from_fn(|| src.next_request(ctx)).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        for ((name, mut src), full) in every_stream(len, seed).into_iter().zip(drains) {
            prop_assert_eq!(full.len() as u64, len);
            let mut pos = 0usize;
            for &(kind, size) in &ops {
                let left = full.len() - pos;
                match kind {
                    0..=2 => {
                        let max = match kind {
                            0 => 1,
                            1 => size as usize,
                            _ => left + size as usize,
                        };
                        let want = &full[pos..pos + max.min(left)];
                        match src.next_run(max) {
                            Some(run) => prop_assert_eq!(run, want, "{} at {}", name, pos),
                            None => prop_assert!(want.is_empty(), "{} ran dry at {}", name, pos),
                        }
                        pos += want.len();
                    }
                    3 | 4 => {
                        let got = with_ctx(|ctx| src.next_request(ctx));
                        prop_assert_eq!(got, full.get(pos).copied(), "{} at {}", name, pos);
                        pos = (pos + 1).min(full.len());
                    }
                    _ => {
                        src.seek_forward(size);
                        pos = (pos + size as usize).min(full.len());
                    }
                }
            }
            let rest: Vec<Request> =
                with_ctx(|ctx| std::iter::from_fn(|| src.next_request(ctx)).collect());
            prop_assert_eq!(&rest[..], &full[pos..], "{} tail from {}", name, pos);
            prop_assert!(src.next_run(1).is_none(), "{} is dry", name);
        }
    }
}

/// The mixer as it drew before runs were filled in passes, kept here
/// as an oracle: per request, one tenant draw from the mixer RNG by
/// arrival weight, then that tenant's next page from its own RNG.
/// Seeds, weights and offsets are derived as `TenantMixSource::new`
/// derives them.
struct DrawOracle {
    rng: StdRng,
    cum: Vec<f64>,
    offsets: Vec<u32>,
    gens: Vec<OracleGen>,
}

/// One tenant's generator, one page per call, with the pattern matched
/// per page.
struct OracleGen {
    pattern: AccessPattern,
    pages: u32,
    rng: StdRng,
    count: u64,
    zipf: Option<Zipf>,
}

impl OracleGen {
    fn next_page(&mut self) -> u32 {
        let pages = self.pages;
        let out = match &self.pattern {
            AccessPattern::Uniform => self.rng.gen_range(0..pages),
            AccessPattern::Zipf { .. } => self.zipf.as_ref().unwrap().sample(&mut self.rng) as u32,
            AccessPattern::Cycle { len } => (self.count % (*len).clamp(1, pages) as u64) as u32,
            AccessPattern::Scan => (self.count % pages as u64) as u32,
            AccessPattern::HotSet {
                hot_pages,
                hot_prob,
            } => {
                let hot = (*hot_pages).clamp(1, pages);
                if pages == hot || self.rng.gen::<f64>() < *hot_prob {
                    self.rng.gen_range(0..hot)
                } else {
                    self.rng.gen_range(hot..pages)
                }
            }
            AccessPattern::Phased { phase_len, .. } => {
                let rank = self.zipf.as_ref().unwrap().sample(&mut self.rng) as u64;
                let phase = self.count / (*phase_len).max(1);
                ((rank + phase * 3) % pages as u64) as u32
            }
        };
        self.count += 1;
        out
    }
}

impl DrawOracle {
    fn new(specs: &[TenantSpec], seed: u64) -> Self {
        let total_w: f64 = specs.iter().map(|s| s.weight).sum();
        let mut acc = 0.0;
        let mut next_offset = 0;
        let (mut cum, mut offsets, mut gens) = (Vec::new(), Vec::new(), Vec::new());
        for (i, s) in specs.iter().enumerate() {
            acc += s.weight / total_w;
            cum.push(acc);
            offsets.push(next_offset);
            next_offset += s.pages;
            let zipf = match s.pattern {
                AccessPattern::Zipf { s: e } | AccessPattern::Phased { s: e, .. } => {
                    Some(Zipf::new(s.pages as usize, e))
                }
                _ => None,
            };
            gens.push(OracleGen {
                pattern: s.pattern.clone(),
                pages: s.pages,
                rng: StdRng::seed_from_u64(seed ^ (0x9E37 + i as u64 * 0x79B9)),
                count: 0,
                zipf,
            });
        }
        DrawOracle {
            rng: StdRng::seed_from_u64(seed),
            cum,
            offsets,
            gens,
        }
    }

    fn draw(&mut self) -> Request {
        let u: f64 = self.rng.gen();
        let tenant = self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1);
        let local = self.gens[tenant].next_page();
        Request {
            page: PageId(self.offsets[tenant] + local),
            user: UserId(tenant as u32),
        }
    }
}

/// A tenant for [`mixer_matches_the_per_request_draw`]: any of the six
/// patterns with random parameters, from 1 page up, with weights from
/// near zero up.
fn arb_tenant() -> impl Strategy<Value = TenantSpec> {
    (
        prop_oneof![Just(1u32), 1u32..60],
        prop_oneof![1e-9f64..1e-6, 0.05f64..5.0],
        0u8..6,
        (0.0f64..2.0, 1u32..80, 0.0f64..1.0, 1u64..200),
    )
        .prop_map(|(pages, weight, kind, (s, len, prob, phase_len))| {
            let pattern = match kind {
                0 => AccessPattern::Uniform,
                1 => AccessPattern::Zipf { s },
                2 => AccessPattern::Cycle { len },
                3 => AccessPattern::Scan,
                4 => AccessPattern::HotSet {
                    hot_pages: len,
                    hot_prob: prob,
                },
                _ => AccessPattern::Phased { s, phase_len },
            };
            TenantSpec::new(pages, weight, pattern)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Runs filled in passes (tenant sequence, per-tenant pages,
    /// scatter) hand out the per-request draw's stream: `next_run(m)`
    /// with m = 1, random, or past what is left, `next_request` and
    /// `seek_forward` interleaved at random, over 1–8 random tenants.
    #[test]
    fn mixer_matches_the_per_request_draw(
        specs in proptest::collection::vec(arb_tenant(), 1..=8),
        len in prop_oneof![0u64..40, 0u64..20_000],
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0u8..6, 1u64..9_000), 0..40),
    ) {
        let mut oracle = DrawOracle::new(&specs, seed);
        let full: Vec<Request> = (0..len).map(|_| oracle.draw()).collect();
        let mut src = TenantMixSource::new(&specs, len, seed);
        let mut pos = 0usize;
        for &(kind, size) in &ops {
            let left = full.len() - pos;
            prop_assert_eq!(src.remaining(), left as u64);
            match kind {
                0..=2 => {
                    let max = match kind {
                        0 => 1,
                        1 => size as usize,
                        _ => left + size as usize,
                    };
                    let want = &full[pos..pos + max.min(left)];
                    match src.next_run(max) {
                        Some(run) => prop_assert_eq!(run, want, "run at {}", pos),
                        None => prop_assert!(want.is_empty(), "ran dry at {}", pos),
                    }
                    pos += want.len();
                }
                3 | 4 => {
                    let got = with_ctx(|ctx| src.next_request(ctx));
                    prop_assert_eq!(got, full.get(pos).copied(), "pull at {}", pos);
                    pos = (pos + 1).min(full.len());
                }
                _ => {
                    src.seek_forward(size);
                    pos = (pos + size as usize).min(full.len());
                }
            }
        }
        let rest: Vec<Request> =
            with_ctx(|ctx| std::iter::from_fn(|| src.next_request(ctx)).collect());
        prop_assert_eq!(&rest[..], &full[pos..], "tail from {}", pos);
        prop_assert_eq!(src.remaining(), 0);
        prop_assert!(src.next_run(1).is_none());
    }
}

/// FNV-1a (64-bit) over each request's page id then owner, both as
/// little-endian `u32`s.
fn request_digest(requests: impl IntoIterator<Item = Request>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in requests {
        for b in r
            .page
            .0
            .to_le_bytes()
            .into_iter()
            .chain(r.user.0.to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pins the mixer's stream itself, not its agreement with a twin: the
/// first 100k requests of every preset at two seeds, drained one
/// `next_request` at a time, hash to these digests. Any change to a
/// preset, a sampler, a seed derivation or the draw order moves one.
#[test]
fn preset_streams_match_golden_digests() {
    const GOLDEN: [(&str, u64, u64); 6] = [
        ("sqlvm-like", 5, 0x195b_d8a6_4b62_bb4b),
        ("sqlvm-like", 11, 0x2255_8352_0ccf_2658),
        ("two-tier", 5, 0x5664_839c_d78f_d194),
        ("two-tier", 11, 0xd14e_3c70_a172_73c5),
        ("drifting", 5, 0xacb2_cf91_38b1_0624),
        ("drifting", 11, 0x9180_dfb1_be4d_c52d),
    ];
    let mut got = Vec::new();
    for scenario in occ_workloads::all_scenarios() {
        for seed in [5, 11] {
            let mut src = scenario.stream(100_000, seed);
            let digest =
                with_ctx(|ctx| request_digest(std::iter::from_fn(|| src.next_request(ctx))));
            got.push((scenario.name, seed, digest));
        }
    }
    assert_eq!(got, GOLDEN, "digests: {got:#x?}");
}

/// The single-user twin of [`preset_streams_match_golden_digests`]:
/// every [`AccessPattern`] over 512 pages, 100k requests at seed 5.
#[test]
fn pattern_streams_match_golden_digests() {
    let golden: [(AccessPattern, u64); 6] = [
        (AccessPattern::Uniform, 0x3161_be13_29e1_77ef),
        (AccessPattern::Zipf { s: 0.9 }, 0x91c1_9779_465e_988b),
        (AccessPattern::Cycle { len: 100 }, 0xeff6_3b61_09ca_7d25),
        (AccessPattern::Scan, 0x3f94_3c7f_73de_a225),
        (
            AccessPattern::HotSet {
                hot_pages: 16,
                hot_prob: 0.8,
            },
            0xaa03_2581_f433_c71d,
        ),
        (
            AccessPattern::Phased {
                s: 1.1,
                phase_len: 2000,
            },
            0xb5fb_f30a_75bb_ba3a,
        ),
    ];
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (pattern, digest) in golden {
        let mut src = PatternSource::new(pattern, 512, 100_000, 5);
        got.push(with_ctx(|ctx| {
            request_digest(std::iter::from_fn(|| src.next_request(ctx)))
        }));
        want.push(digest);
    }
    assert_eq!(got, want, "digests: {got:#x?}");
}
