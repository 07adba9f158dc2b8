//! Black-box contract for the binary trace format through the real
//! binary: `occ generate --format binary` round-trips through every
//! trace-reading command via auto-detection, and truncated or corrupt
//! binary files exit with the parse class (4) — not a panic, not a
//! generic 1 — so operators can script on the distinction.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-binio-e2e");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn generate_binary(path: &Path) {
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "2000",
        "--seed",
        "5",
        "--format",
        "binary",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Replay `trace` through every command that takes `--trace`: `run`,
/// which loads it whole, and `fleet` and `concurrent`, which stream it
/// on two shards or threads. Returns each command's name and output.
fn replay_everywhere(trace: &Path) -> Vec<(&'static str, Output)> {
    let trace = trace.to_str().unwrap();
    let common = [
        "--scenario",
        "two-tier",
        "--policy",
        "lru",
        "--k",
        "24",
        "--trace",
        trace,
    ];
    [
        ("run", vec!["run"]),
        ("fleet", vec!["fleet", "--shards", "2"]),
        ("concurrent", vec!["concurrent", "--threads", "2"]),
    ]
    .into_iter()
    .map(|(name, mut argv)| {
        argv.extend(common);
        (name, occ(&argv))
    })
    .collect()
}

#[test]
fn binary_and_text_traces_replay_identically() {
    let bin_path = tmp("trace.bin");
    let text_path = tmp("trace.txt");
    generate_binary(&bin_path);
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "2000",
        "--seed",
        "5",
        "--out",
        text_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // Binary is fixed-width: header + owner table + 4 bytes/request,
    // plus the trailing checksum footer (8-byte magic + CRC-32).
    let bin_bytes = std::fs::metadata(&bin_path).unwrap().len();
    assert_eq!(bin_bytes, 8 + 4 + 4 + 64 * 4 + 8 + 2000 * 4 + 8 + 4);

    let run = |path: &Path| {
        let out = occ(&[
            "run",
            "--scenario",
            "two-tier",
            "--policy",
            "lru",
            "--k",
            "24",
            "--trace",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(
        run(&bin_path),
        run(&text_path),
        "same trace, either encoding, same report"
    );
}

#[test]
fn truncated_binary_trace_exits_with_parse_code() {
    let path = tmp("trace-truncated.bin");
    generate_binary(&path);
    let full = std::fs::read(&path).unwrap();
    // Cut mid-header, mid-request-stream and mid-footer; all are parse
    // failures, whether the command loads the trace or streams it.
    for cut in [10, full.len() / 2, full.len() - 3] {
        let cut_path = tmp("cut.bin");
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        for (cmd, out) in replay_everywhere(&cut_path) {
            assert_eq!(
                out.status.code(),
                Some(4),
                "{cmd}: truncation at {cut} must exit 4; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("truncated") || stderr.contains("unexpected EOF"),
                "{cmd}: error names the truncation: {stderr}"
            );
        }
    }
}

#[test]
fn corrupt_binary_trace_exits_with_parse_code() {
    let path = tmp("trace-corrupt.bin");
    generate_binary(&path);
    let full = std::fs::read(&path).unwrap();
    // Blow up the first owner-table entry (offset 16: after the magic
    // and the two u32 counts) so it falls outside the user range.
    let mut owner = full.clone();
    owner[16] = 0xFF;
    owner[17] = 0xFF;
    // Flip the low bit of a request id mid-stream: the page stays in
    // range, so only the footer checksum can tell.
    let mut payload = full.clone();
    payload[full.len() - 12 - 4 * 1000] ^= 0x01;
    for (label, bytes) in [("owner table", owner), ("payload", payload)] {
        let bad = tmp("bad.bin");
        std::fs::write(&bad, &bytes).unwrap();
        for (cmd, out) in replay_everywhere(&bad) {
            assert_eq!(
                out.status.code(),
                Some(4),
                "{cmd}: corrupt {label} must exit 4; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

fn generate_packed(path: &Path) {
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "2000",
        "--seed",
        "5",
        "--format",
        "binary-v2",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "generate binary-v2 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn run_report(path: &Path) -> String {
    let out = occ(&[
        "run",
        "--scenario",
        "two-tier",
        "--policy",
        "lru",
        "--k",
        "24",
        "--trace",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn packed_and_fixed_width_traces_replay_identically() {
    let v1 = tmp("formats-v1.bin");
    let v2 = tmp("formats-v2.bin");
    generate_binary(&v1);
    generate_packed(&v2);

    // Same seed, either encoding, same report — and the packed encoding
    // is strictly smaller than 4 bytes/request on this 64-page universe.
    assert_eq!(run_report(&v1), run_report(&v2));
    let v1_bytes = std::fs::metadata(&v1).unwrap().len();
    let v2_bytes = std::fs::metadata(&v2).unwrap().len();
    assert!(
        v2_bytes < v1_bytes,
        "occbin02 ({v2_bytes} B) should undercut occbin01 ({v1_bytes} B)"
    );
}

#[test]
fn truncated_packed_trace_exits_with_parse_code() {
    let path = tmp("packed-truncated.bin");
    generate_packed(&path);
    let full = std::fs::read(&path).unwrap();
    // Cut mid-header, mid-footer, and inside the varint request stream
    // (the last cut lands mid-varint or at a chunk tag; both are
    // truncations).
    for cut in [10, full.len() - 3, full.len() - 20] {
        let cut_path = tmp("packed-cut.bin");
        std::fs::write(&cut_path, &full[..cut]).unwrap();
        for (cmd, out) in replay_everywhere(&cut_path) {
            assert_eq!(
                out.status.code(),
                Some(4),
                "{cmd}: packed truncation at {cut} must exit 4; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn corrupt_packed_trace_exits_with_parse_code() {
    let path = tmp("packed-corrupt.bin");
    generate_packed(&path);
    let full = std::fs::read(&path).unwrap();

    // Flip the last byte (inside the footer CRC) and a payload byte in
    // the request stream; both must surface as parse failures, not as a
    // silently different replay.
    let mut footer_flip = full.clone();
    *footer_flip.last_mut().unwrap() ^= 0xFF;
    let mut payload_flip = full.clone();
    let mid = full.len() - 40; // well inside the encoded requests
    payload_flip[mid] ^= 0x55;

    for (label, bytes) in [("footer", footer_flip), ("payload", payload_flip)] {
        let bad = tmp("packed-bad.bin");
        std::fs::write(&bad, &bytes).unwrap();
        for (cmd, out) in replay_everywhere(&bad) {
            assert_eq!(
                out.status.code(),
                Some(4),
                "{cmd}: flipped {label} byte must exit 4; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn pack_unpack_round_trip_is_byte_identical() {
    let v1 = tmp("roundtrip-v1.bin");
    let packed = tmp("roundtrip.occbin02");
    let unpacked = tmp("roundtrip-back.bin");
    generate_binary(&v1);

    let out = occ(&[
        "trace",
        "pack",
        "--in",
        v1.to_str().unwrap(),
        "--out",
        packed.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "pack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = occ(&[
        "trace",
        "unpack",
        "--in",
        packed.to_str().unwrap(),
        "--out",
        unpacked.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "unpack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // occbin01 is canonical for a given trace, so pack → unpack must
    // reproduce the original file bit for bit.
    assert_eq!(
        std::fs::read(&v1).unwrap(),
        std::fs::read(&unpacked).unwrap(),
        "pack → unpack must reproduce the original occbin01 bytes"
    );
}

#[test]
fn transcoding_a_damaged_trace_names_it_and_leaves_no_output() {
    let v1 = tmp("damaged-src.bin");
    generate_binary(&v1);
    let full = std::fs::read(&v1).unwrap();
    // A torn occbin01 (cut mid-stream) and one with a payload bit
    // flipped (every id still in range: only the footer checksum can
    // tell), and the torn packed twin of the intact one.
    let mut flipped = full.clone();
    flipped[full.len() - 12 - 4 * 1000] ^= 0x01;
    let packed = tmp("damaged-src.occbin02");
    let out = occ(&[
        "trace",
        "pack",
        "--in",
        v1.to_str().unwrap(),
        "--out",
        packed.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let packed_bytes = std::fs::read(&packed).unwrap();
    let cases = [
        (
            "pack",
            "torn.occbin01",
            full[..full.len() / 2].to_vec(),
            "truncated",
        ),
        ("pack", "flipped.occbin01", flipped, "checksum mismatch"),
        (
            "unpack",
            "torn.occbin02",
            packed_bytes[..packed_bytes.len() - 20].to_vec(),
            "truncated",
        ),
    ];
    for (action, name, bytes, fault) in cases {
        let input = tmp(name);
        std::fs::write(&input, &bytes).unwrap();
        let dest = tmp(&format!("{name}.out"));
        let dest_tmp = tmp(&format!("{name}.out.tmp"));
        std::fs::remove_file(&dest).ok();
        std::fs::remove_file(&dest_tmp).ok();
        let out = occ(&[
            "trace",
            action,
            "--in",
            input.to_str().unwrap(),
            "--out",
            dest.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(4),
            "{action} of {name} must exit 4; stderr: {stderr}"
        );
        assert!(
            stderr.contains(input.to_str().unwrap()) && stderr.contains(fault),
            "{action} of {name}: the error names the input and its fault ({fault}): {stderr}"
        );
        assert!(!dest.exists(), "{action} of {name} left its output behind");
        assert!(
            !dest_tmp.exists(),
            "{action} of {name} left its temp file behind"
        );
    }
}

#[test]
fn scaled_len_suffixes_generate_identical_traces() {
    let spelled = tmp("len-spelled.bin");
    let suffixed = tmp("len-suffixed.bin");
    for (path, len) in [(&spelled, "2000"), (&suffixed, "2k")] {
        let out = occ(&[
            "generate",
            "--scenario",
            "two-tier",
            "--len",
            len,
            "--seed",
            "5",
            "--format",
            "binary",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "generate --len {len} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(
        std::fs::read(&spelled).unwrap(),
        std::fs::read(&suffixed).unwrap(),
        "--len 2k and --len 2000 must be the same trace"
    );
}

#[test]
fn malformed_scaled_len_is_a_usage_error() {
    // Garbage suffix, fractional scale, and u64 overflow are all usage
    // errors (exit 2), reported before any file is touched.
    for len in ["5x", "1.5M", "99999999999999999999B", "20000000000B"] {
        let out = occ(&[
            "generate",
            "--scenario",
            "two-tier",
            "--len",
            len,
            "--out",
            tmp("never-len.bin").to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--len {len} must exit 2; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A trace served through a FIFO — which cannot be probed twice or
/// mapped — must fall back to buffered reads and produce the identical
/// windowed series as the regular file.
#[cfg(unix)]
#[test]
fn fifo_trace_falls_back_to_buffered_and_replays_identically() {
    let bin = tmp("fifo-src.bin");
    generate_binary(&bin);
    let fifo = tmp("fifo-trace.pipe");
    std::fs::remove_file(&fifo).ok();
    let status = Command::new("mkfifo").arg(&fifo).status().expect("mkfifo");
    assert!(status.success(), "mkfifo failed");

    let soak = |trace: &Path, series: &Path| {
        let out = occ(&[
            "soak",
            "--scenario",
            "two-tier",
            "--window",
            "500",
            "--heartbeat",
            "off",
            "--trace",
            trace.to_str().unwrap(),
            "--series",
            series.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "soak failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The strategy announcement goes to stderr; the report table
        // owns stdout.
        String::from_utf8(out.stderr).unwrap()
    };

    let file_series = tmp("fifo-file.series.jsonl");
    let file_stderr = soak(&bin, &file_series);
    assert!(file_stderr.contains("via the mmap path"), "{file_stderr}");

    let bytes = std::fs::read(&bin).unwrap();
    let writer_path = fifo.clone();
    let writer = std::thread::spawn(move || {
        std::fs::write(&writer_path, &bytes).unwrap();
    });
    let fifo_series = tmp("fifo-pipe.series.jsonl");
    let fifo_stderr = soak(&fifo, &fifo_series);
    writer.join().unwrap();
    std::fs::remove_file(&fifo).ok();
    assert!(
        fifo_stderr.contains("via the buffered path"),
        "{fifo_stderr}"
    );

    assert_eq!(
        std::fs::read_to_string(&file_series).unwrap(),
        std::fs::read_to_string(&fifo_series).unwrap(),
        "FIFO replay must produce the identical window series"
    );
}

#[test]
fn unknown_generate_format_is_a_usage_error() {
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--format",
        "msgpack",
        "--out",
        tmp("never.bin").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn transcoding_a_text_trace_honours_limit() {
    let text = tmp("limit-src.txt");
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "3000",
        "--format",
        "text",
        "--out",
        text.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let read = |path: &Path| {
        let file = std::fs::File::open(path).unwrap();
        occ_sim::binio::read_trace_auto(std::io::BufReader::new(file)).unwrap()
    };
    let whole = read(&text);
    assert_eq!(whole.len(), 3000);
    for (action, name) in [("pack", "limit.occbin02"), ("unpack", "limit.occbin01")] {
        let dest = tmp(name);
        let out = occ(&[
            "trace",
            action,
            "--in",
            text.to_str().unwrap(),
            "--out",
            dest.to_str().unwrap(),
            "--limit",
            "1000",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let said = format!("{}{stderr}", String::from_utf8_lossy(&out.stdout));
        assert!(out.status.success(), "{action} failed: {stderr}");
        assert!(said.contains("1000 requests"), "{action} said: {said}");
        let kept = read(&dest);
        assert_eq!(kept.universe(), whole.universe(), "{action}");
        assert_eq!(kept.requests(), &whole.requests()[..1000], "{action}");
    }
}
