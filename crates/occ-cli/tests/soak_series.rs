//! Black-box contract for `occ soak` and the window-series pipeline
//! through the real binary: the series tiles the run and survives a
//! kill/resume byte-identically, sticky sink I/O errors exit 3, a FIFO
//! output stays a FIFO, an unknown series schema exits 4, `occ report
//! --series` renders the file it just wrote, a checkpoint of the
//! removed non-convex ALG-DISCRETE path exits 4, and LFU/LRU-K
//! checkpoints take the smaller of their two layouts.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-soak-e2e");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Run `occ soak` on the two-tier scenario with the given extra flags,
/// asserting success and returning stdout.
fn soak(len: &str, series: &Path, extra: &[&str]) -> String {
    let mut args = vec![
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        len,
        "--window",
        "5k",
        "--k",
        "24",
        "--seed",
        "9",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = occ(&args);
    assert!(
        out.status.success(),
        "soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// The window lines (everything after the header) of a series file.
/// Finished files end with a `#crc32:` trailer; that seal is not part
/// of the window payload, so comment lines are dropped here.
fn window_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read series");
    text.lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn soak_emits_schema_stamped_windows_that_tile_the_run() {
    let series = tmp("tile.jsonl");
    let stdout = soak("23k", &series, &[]);
    assert!(stdout.contains("windows"), "summary mentions windows");

    let text = std::fs::read_to_string(&series).unwrap();
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert!(header.contains("\"schema\":1"), "stamped: {header}");
    assert!(header.contains("\"kind\":\"occ-series\""));
    assert!(header.contains("\"window\":5000"));
    // 23k requests / 5k per window = 4 full windows + 1 partial, then
    // the checksum trailer sealing the finished file.
    assert!(
        text.lines().last().unwrap().starts_with("#crc32:"),
        "finished series ends with a crc trailer"
    );
    let windows: Vec<&str> = lines.filter(|l| !l.starts_with('#')).collect();
    assert_eq!(windows.len(), 5, "⌈23000/5000⌉ windows");
    assert!(windows.iter().all(|l| l.contains("\"kind\":\"window\"")));
    assert!(windows[4].contains("\"start\":20000"));
    assert!(windows[4].contains("\"end\":23000"));

    // The convex policy attaches a dual point to every window.
    assert!(windows.iter().all(|l| l.contains("\"dual\"")));

    // `occ report --series` renders the file it just wrote.
    let out = occ(&["report", "--series", series.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "report --series failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8(out.stdout).unwrap();
    assert!(rendered.contains("5 windows of 5000 requests"));
    assert!(rendered.contains("20000..23000"));
}

#[test]
fn killed_soak_resumes_the_series_byte_identically() {
    let full = tmp("full.jsonl");
    let half = tmp("half.jsonl");
    let resumed = tmp("resumed.jsonl");
    let ck = tmp("ck.json");

    soak("20k", &full, &[]);
    // The "killed" run: same seed, stopped at 10k with a checkpoint.
    // The streamed prefix is identical for a given seed, so stopping
    // early stands in for a mid-run kill.
    soak(
        "10k",
        &half,
        &[
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "5k",
        ],
    );
    soak("20k", &resumed, &["--from", ck.to_str().unwrap()]);

    let mut spliced = window_lines(&half);
    spliced.extend(window_lines(&resumed));
    assert_eq!(
        spliced,
        window_lines(&full),
        "interrupted + resumed series must equal the uninterrupted one byte-for-byte"
    );
}

#[test]
fn a_run_ending_on_its_checkpoint_cadence_keeps_that_checkpoint() {
    // 20k at a 5k cadence ends on a cadence multiple, so the write at
    // 20k is the end state and the exit write is skipped. At a 15k
    // cadence the exit write is the one that holds t=20000. Both files
    // must be the same bytes, and resuming continues the series.
    let full = tmp("end-full.jsonl");
    let head = tmp("end-head.jsonl");
    let resumed = tmp("end-resumed.jsonl");
    let on_cadence = tmp("end-on-cadence.json");
    let at_exit = tmp("end-at-exit.json");

    soak("30k", &full, &[]);
    let (on, exit) = (on_cadence.to_str().unwrap(), at_exit.to_str().unwrap());
    soak(
        "20k",
        &head,
        &["--checkpoint", on, "--checkpoint-every", "5k"],
    );
    let other = tmp("end-other.jsonl");
    soak(
        "20k",
        &other,
        &["--checkpoint", exit, "--checkpoint-every", "15k"],
    );
    assert_eq!(
        std::fs::read(&on_cadence).unwrap(),
        std::fs::read(&at_exit).unwrap(),
        "the cadence write and the exit write hold the same end state"
    );

    soak("30k", &resumed, &["--from", on]);
    let mut spliced = window_lines(&head);
    spliced.extend(window_lines(&resumed));
    assert_eq!(spliced, window_lines(&full));
}

#[test]
fn mid_window_checkpoint_cadence_is_rounded_to_a_boundary() {
    let series = tmp("rounded.jsonl");
    let ck = tmp("rounded-ck.json");
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "15k",
        "--window",
        "5k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
        "--checkpoint",
        ck.to_str().unwrap(),
        "--checkpoint-every",
        "7k",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rounding --checkpoint-every 7000 up to 10000"),
        "cadence rounding is announced: {stderr}"
    );
}

#[cfg(target_os = "linux")]
#[test]
fn sticky_series_sink_errors_exit_with_io_code() {
    // /dev/full accepts opens and fails every write with ENOSPC; the
    // sink parks the first error and soak must surface it at the end as
    // the i/o class instead of silently dropping the series.
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "6k",
        "--window",
        "2k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        "/dev/full",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("/dev/full"), "names the path: {stderr}");
}

/// Outputs aimed at a FIFO are written into it in place, not renamed
/// over it: a soak's `--series` reaches the FIFO's reader as the bytes
/// a regular file gets, and so does `occ concurrent --schedule-out`,
/// and the node is still a FIFO after each.
#[cfg(unix)]
#[test]
fn fifo_outputs_are_written_in_place() {
    use std::os::unix::fs::FileTypeExt;
    let fifo = tmp("live-output.pipe");
    std::fs::remove_file(&fifo).ok();
    let status = Command::new("mkfifo").arg(&fifo).status().expect("mkfifo");
    assert!(status.success(), "mkfifo failed");
    let through_fifo = |args: &[&str]| {
        let reader = {
            let fifo = fifo.clone();
            std::thread::spawn(move || std::fs::read(fifo).unwrap())
        };
        let out = occ(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Checked before the join: a FIFO renamed away would leave its
        // reader waiting.
        let kind = std::fs::metadata(&fifo).unwrap().file_type();
        assert!(kind.is_fifo(), "{args:?} replaced the FIFO");
        reader.join().unwrap()
    };
    let fifo_arg = fifo.to_str().unwrap();

    let file = tmp("fifo-twin.jsonl");
    soak("12k", &file, &[]);
    let streamed = through_fifo(&[
        "soak",
        "--scenario",
        "two-tier",
        "--len",
        "12k",
        "--window",
        "5k",
        "--k",
        "24",
        "--seed",
        "9",
        "--heartbeat",
        "off",
        "--series",
        fifo_arg,
    ]);
    assert_eq!(streamed, std::fs::read(&file).unwrap());

    fn concurrent(out: &str) -> Vec<&str> {
        vec![
            "concurrent",
            "--scenario",
            "two-tier",
            "--threads",
            "1",
            "--len",
            "1000",
            "--schedule-out",
            out,
        ]
    }
    let schedule = tmp("fifo-twin.schedule");
    assert!(occ(&concurrent(schedule.to_str().unwrap()))
        .status
        .success());
    let streamed = through_fifo(&concurrent(fifo_arg));
    assert_eq!(streamed, std::fs::read(&schedule).unwrap());
    std::fs::remove_file(&fifo).ok();
}

#[test]
fn unknown_series_schema_exits_with_parse_code() {
    let path = tmp("future.jsonl");
    std::fs::write(
        &path,
        "{\"schema\":99,\"kind\":\"occ-series\",\"window\":5}\n",
    )
    .unwrap();
    let out = occ(&["report", "--series", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("schema 99 unsupported"),
        "names the stamp: {stderr}"
    );
}

#[test]
fn soak_streams_binary_traces_but_rejects_text() {
    let bin = tmp("soak-trace.bin");
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "8000",
        "--seed",
        "5",
        "--format",
        "binary",
        "--out",
        bin.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let series = tmp("soak-trace.jsonl");
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--trace",
        bin.to_str().unwrap(),
        "--window",
        "2k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "binary-trace soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(window_lines(&series).len(), 4, "8000 / 2000 windows");

    // A text trace is not streamable; soak refuses with the parse class.
    let text = tmp("soak-trace.txt");
    let out = occ(&[
        "generate",
        "--scenario",
        "two-tier",
        "--len",
        "1000",
        "--out",
        text.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = occ(&[
        "soak",
        "--scenario",
        "two-tier",
        "--trace",
        text.to_str().unwrap(),
        "--k",
        "24",
        "--heartbeat",
        "off",
    ]);
    assert_eq!(out.status.code(), Some(4));
}

/// Generate a two-tier occbin01 trace of `len` requests and pack its
/// first `keep` requests to occbin02; returns the packed path.
fn packed_trace(name: &str, len: &str, keep: &str) -> PathBuf {
    let v1 = tmp(&format!("{name}.occbin01"));
    let v2 = tmp(&format!("{name}.occbin02"));
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
        v1.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = occ(&[
        "trace",
        "pack",
        "--in",
        v1.to_str().unwrap(),
        "--limit",
        keep,
        "--out",
        v2.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "pack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    v2
}

/// Run `occ soak` over a trace file with 25k windows and the given
/// extra flags.
fn soak_trace(trace: &Path, series: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "soak",
        "--scenario",
        "two-tier",
        "--trace",
        trace.to_str().unwrap(),
        "--window",
        "25k",
        "--k",
        "24",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    occ(&args)
}

#[test]
fn resumed_packed_soak_matches_the_uninterrupted_series() {
    // The checkpoint lands past the first 65 536-request chunk and
    // mid-way through the second, so the resumed run fast-forwards
    // across a chunk boundary and stops inside a chunk.
    let full_trace = packed_trace("resume-full", "150k", "0");
    let half_trace = packed_trace("resume-half", "150k", "100k");
    let (full, half, resumed) = (
        tmp("packed-full.jsonl"),
        tmp("packed-half.jsonl"),
        tmp("packed-resumed.jsonl"),
    );
    let ck = tmp("packed-ck.json");

    let out = soak_trace(&full_trace, &full, &[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("via the packed path"));
    let out = soak_trace(&half_trace, &half, &["--checkpoint", ck.to_str().unwrap()]);
    assert!(out.status.success());
    let out = soak_trace(&full_trace, &resumed, &["--from", ck.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resumed from t=100000"),
        "resumes at the checkpoint"
    );

    let mut spliced = window_lines(&half);
    spliced.extend(window_lines(&resumed));
    assert_eq!(window_lines(&full).len(), 6, "⌈150000/25000⌉ windows");
    assert_eq!(
        spliced,
        window_lines(&full),
        "interrupted + resumed packed series must equal the uninterrupted one"
    );
}

#[test]
fn resuming_past_the_end_of_a_trace_reports_what_it_held() {
    let half_trace = packed_trace("short-half", "120k", "100k");
    let short_trace = packed_trace("short-short", "120k", "70k");
    let ck = tmp("short-ck.json");
    let out = soak_trace(
        &half_trace,
        &tmp("short-half.jsonl"),
        &["--checkpoint", ck.to_str().unwrap()],
    );
    assert!(out.status.success());
    let out = soak_trace(
        &short_trace,
        &tmp("short-resumed.jsonl"),
        &["--from", ck.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint is at t=100000 but the trace ended after 70000 requests"),
        "names both counts: {stderr}"
    );
}

/// A committed checkpoint and its series files, written by an earlier
/// build of `occ soak --scenario sqlvm-like --seed 9 --window 5k` (a
/// 10k-request run checkpointed every 5k, and the uninterrupted 20k
/// run). Pins the checkpoint format across releases: whatever the
/// policies keep in memory, an old checkpoint must resume to the old
/// uninterrupted series.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// `occ soak` on sqlvm-like with the fixture's seed and window.
fn soak_sqlvm(len: &str, series: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "soak",
        "--scenario",
        "sqlvm-like",
        "--len",
        len,
        "--window",
        "5k",
        "--seed",
        "9",
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    occ(&args)
}

#[test]
fn committed_checkpoint_resumes_to_the_committed_series() {
    let ck = fixture("sqlvm-like-seed9-10k.ckpt.json");
    let head = fixture("sqlvm-like-seed9-10k.series.jsonl");
    let full = fixture("sqlvm-like-seed9-20k.series.jsonl");
    assert_eq!(window_lines(&full).len(), 4, "⌈20000/5000⌉ windows");

    let resumed = tmp("fixture-resumed.jsonl");
    let out = soak_sqlvm("20k", &resumed, &["--from", ck.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resumed from t=10000"),
        "resumes at the checkpoint"
    );
    let mut spliced = window_lines(&head);
    spliced.extend(window_lines(&resumed));
    assert_eq!(
        spliced,
        window_lines(&full),
        "the committed checkpoint must resume to the committed uninterrupted series"
    );

    // And this build's own uninterrupted run writes that series too.
    let fresh = tmp("fixture-fresh.jsonl");
    let out = soak_sqlvm("20k", &fresh, &[]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&fresh).unwrap(),
        std::fs::read(&full).unwrap(),
        "an uninterrupted run must reproduce the committed series file byte for byte"
    );
}

#[test]
fn checkpoint_written_now_resumes_to_the_committed_series() {
    let head_fixture = fixture("sqlvm-like-seed9-10k.series.jsonl");
    let full = fixture("sqlvm-like-seed9-20k.series.jsonl");
    let ck = tmp("fixture-v2.ckpt.json");
    let head = tmp("fixture-v2-head.jsonl");
    let out = soak_sqlvm(
        "10k",
        &head,
        &[
            "--checkpoint",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "5k",
        ],
    );
    assert!(out.status.success());
    assert_eq!(window_lines(&head), window_lines(&head_fixture));
    // Format v2: owner runs, and ALG-DISCRETE state for cached pages.
    let text = std::fs::read_to_string(&ck).unwrap();
    assert!(text.starts_with("{\"version\":2,"), "format v2");
    assert!(text.contains("\"owner_runs\":[[0,64],[1,64],[2,96],[3,32]]"));
    assert!(!text.contains("\"owners\""));
    assert!(
        text.len()
            < std::fs::metadata(fixture("sqlvm-like-seed9-10k.ckpt.json"))
                .unwrap()
                .len() as usize
    );

    let resumed = tmp("fixture-v2-resumed.jsonl");
    let out = soak_sqlvm("20k", &resumed, &["--from", ck.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut spliced = window_lines(&head);
    spliced.extend(window_lines(&resumed));
    assert_eq!(
        spliced,
        window_lines(&full),
        "a checkpoint this build writes must resume to the committed uninterrupted series"
    );
}

#[test]
fn a_checkpoint_from_the_non_convex_path_is_refused() {
    // The committed checkpoint with ALG-DISCRETE's `fast` tag set to 0,
    // as the non-convex path wrote it, re-sealed so that only the
    // policy bag is wrong: no such path exists any more, so the file
    // cannot be resumed and is refused as unparseable.
    let text = std::fs::read_to_string(fixture("sqlvm-like-seed9-10k.ckpt.json")).unwrap();
    let body = occ_probe::require_trailer(&text).unwrap();
    let fast = r#"{"key":"fast","type":"u64","value":"1"}"#;
    assert_eq!(body.matches(fast).count(), 1, "one fast tag");
    let ck = tmp("non-convex.ckpt.json");
    let edited = body.replace(fast, r#"{"key":"fast","type":"u64","value":"0"}"#);
    std::fs::write(&ck, occ_probe::with_trailer(&edited)).unwrap();

    let out = soak_sqlvm(
        "20k",
        &tmp("non-convex.jsonl"),
        &["--from", ck.to_str().unwrap()],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "exit 4: {stderr}");
    assert!(stderr.contains("no longer exists"), "says why: {stderr}");
}

/// `occ soak --scenario sqlvm-like --policy P` stopped after `len`
/// requests with a checkpoint, windows of `window`; returns the series
/// file.
fn soak_policy(policy: &str, len: &str, window: &str, extra: &[&str]) -> PathBuf {
    let series = tmp(&format!("{policy}-{len}-w{window}-{}.jsonl", extra.len()));
    let mut args = vec![
        "soak",
        "--scenario",
        "sqlvm-like",
        "--policy",
        policy,
        "--len",
        len,
        "--window",
        window,
        "--heartbeat",
        "off",
        "--series",
        series.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = occ(&args);
    assert!(
        out.status.success(),
        "{policy} soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    series
}

#[test]
fn lfu_and_lru_k_checkpoints_take_the_smaller_layout() {
    // Bytes after one request (the sparse layout: one page listed), and
    // the dense layout's bytes after 100k requests, when nearly every
    // page has been referenced and a row per page is the smaller form.
    for (policy, one, dense) in [("lru2", 734, 7_173), ("lfu", 695, 4_549)] {
        let sizes = ["1", "100k"].map(|len| {
            let ck = tmp(&format!("{policy}-{len}.ckpt.json"));
            soak_policy(policy, len, "50k", &["--checkpoint", ck.to_str().unwrap()]);
            let text = std::fs::read_to_string(&ck).unwrap();
            (text.len(), text.contains(r#""key":"pages""#))
        });
        assert_eq!(sizes[0], (one, true), "{policy} after one request");
        assert!(!sizes[1].1, "{policy} after 100k requests is dense");
        assert!(
            sizes[1].0 <= dense,
            "{policy} after 100k requests: {} B > {dense} B",
            sizes[1].0
        );
    }
}

#[test]
fn lfu_and_lru_k_resume_from_either_layout() {
    // After 100 requests few pages have been referenced (the sparse
    // layout); after 1k most have (the dense one). Either checkpoint
    // must resume to the uninterrupted run's windows.
    for policy in ["lru2", "lfu"] {
        let full = window_lines(&soak_policy(policy, "2k", "100", &[]));
        for (cut, sparse) in [("100", true), ("1k", false)] {
            let ck = tmp(&format!("{policy}-cut-{cut}.ckpt.json"));
            let head = soak_policy(policy, cut, "100", &["--checkpoint", ck.to_str().unwrap()]);
            let text = std::fs::read_to_string(&ck).unwrap();
            assert_eq!(
                text.contains(r#""key":"pages""#),
                sparse,
                "{policy} at {cut}"
            );
            let resumed = soak_policy(policy, "2k", "100", &["--from", ck.to_str().unwrap()]);
            let mut spliced = window_lines(&head);
            spliced.extend(window_lines(&resumed));
            assert_eq!(spliced, full, "{policy} resumed at {cut}");
        }
    }
}
