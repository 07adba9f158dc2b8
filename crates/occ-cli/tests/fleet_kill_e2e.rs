//! End-to-end crash test for the supervised fleet: SIGKILL the real
//! `occ fleet` process mid-run, then resume from its per-shard
//! checkpoint directory and verify the resumed window series equals
//! the uninterrupted run byte-for-byte. This is the integration-level
//! counterpart of the in-process recovery property test in occ-fleet —
//! here nothing is simulated, the process actually dies.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const LEN: &str = "4M";
const WINDOW: &str = "25k";
const WIDTH: u64 = 25_000;

fn occ() -> Command {
    Command::new(env!("CARGO_BIN_EXE_occ"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-fleet-kill-e2e");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn fleet_args(cmd: &mut Command, ckpt_dir: &Path) {
    cmd.args([
        "fleet",
        "--scenario",
        "two-tier",
        "--shards",
        "4",
        "--len",
        LEN,
        "--seed",
        "11",
        "--policy",
        "lru",
        "--window",
        WINDOW,
        "--checkpoint-dir",
        ckpt_dir.to_str().unwrap(),
    ]);
}

fn ckpt_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.ckpt.json"))
}

fn series_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:04}.series.jsonl"))
}

/// Window lines of a per-shard series file: skip the header, drop the
/// checksum trailer (killed runs legitimately have none), and drop a
/// torn trailing line if the kill landed mid-write (it can only be a
/// window the resumed run regenerates).
fn window_lines(path: &Path) -> Vec<String> {
    let bytes = std::fs::read(path).expect("read series");
    let text = String::from_utf8_lossy(&bytes);
    let complete = match text.rfind('\n') {
        Some(i) => &text[..=i],
        None => "",
    };
    complete
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Extract `snap.time` from a checkpoint file (stored as a JSON string
/// field, `"time":"N"`), without pulling the parser into this test.
fn checkpoint_time(path: &Path) -> u64 {
    let text = std::fs::read_to_string(path).expect("read checkpoint");
    let at = text.find("\"time\"").expect("checkpoint has a time field");
    let digits: String = text[at..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("time parses")
}

#[test]
fn sigkilled_fleet_resumes_byte_identically_from_checkpoints() {
    let clean_dir = tmp("clean");
    let killed_dir = tmp("killed");
    let resumed_dir = tmp("resumed");
    for d in [&clean_dir, &killed_dir, &resumed_dir] {
        std::fs::remove_dir_all(d).ok();
    }

    // Uninterrupted reference run.
    let mut cmd = occ();
    fleet_args(&mut cmd, &clean_dir);
    let out = cmd.output().expect("run occ");
    assert!(
        out.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The doomed run: spawn it, wait until every shard has committed at
    // least one checkpoint, then SIGKILL the whole process.
    let mut cmd = occ();
    fleet_args(&mut cmd, &killed_dir);
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn occ");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let all_checkpointed = (0..SHARDS).all(|s| ckpt_path(&killed_dir, s).exists());
        if all_checkpointed {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            break; // Finished before we could kill it; stitch still holds.
        }
        assert!(Instant::now() < deadline, "no checkpoints after 60s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().ok(); // No-op if it already exited.
    child.wait().expect("reap child");

    // Resume from whatever the kill left behind. Checkpoints are
    // written atomically with a CRC trailer, so the resume either
    // starts from a committed window boundary or exits 4 — never from
    // a torn state.
    let mut cmd = occ();
    fleet_args(&mut cmd, &resumed_dir);
    cmd.args(["--from-dir", killed_dir.to_str().unwrap()]);
    let out = cmd.output().expect("run occ");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Per shard: the killed run flushed every window its checkpoint
    // covers, and the resumed run's series, which carries those windows
    // over, equals the clean run's window for window.
    for shard in 0..SHARDS {
        let resume_index = (checkpoint_time(&ckpt_path(&killed_dir, shard)) / WIDTH) as usize;
        let killed = window_lines(&series_path(&killed_dir, shard));
        assert!(
            killed.len() >= resume_index,
            "shard {shard}: every window covered by the checkpoint was \
             flushed before it ({} lines, resume index {resume_index})",
            killed.len()
        );
        assert_eq!(
            window_lines(&series_path(&resumed_dir, shard)),
            window_lines(&series_path(&clean_dir, shard)),
            "shard {shard}: resumed series differs from the clean run"
        );
    }

    for d in [&clean_dir, &killed_dir, &resumed_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// A small supervised `sqlvm-like` fleet persisting into `dir`.
fn small_fleet(dir: &Path, extra: &[&str]) -> std::process::Output {
    occ()
        .args([
            "fleet",
            "--scenario",
            "sqlvm-like",
            "--shards",
            "2",
            "--len",
            "40k",
            "--seed",
            "11",
            "--policy",
            "lru",
            "--window",
            "5k",
            "--format",
            "json",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("run occ")
}

/// Resuming into the directory it resumes from rewrites each shard's
/// series, and must carry over the windows the checkpoint covers: shard
/// 0 is quarantined by a kill at t=12000 (checkpoint at 10000, windows
/// 0–1 on disk), shard 1 finishes; after `--from-dir D
/// --checkpoint-dir D` both series equal an uninterrupted run's, window
/// for window and byte for byte.
#[test]
fn resuming_into_its_own_checkpoint_dir_keeps_the_committed_windows() {
    let clean = tmp("own-dir-clean");
    let dir = tmp("own-dir");
    for d in [&clean, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
    assert!(small_fleet(&clean, &[]).status.success());
    let out = small_fleet(
        &dir,
        &["--chaos-shard-kill", "0@12000", "--max-restarts", "0"],
    );
    assert_eq!(out.status.code(), Some(7), "shard 0 is quarantined");
    assert_eq!(checkpoint_time(&ckpt_path(&dir, 0)), 10_000);

    let from = ["--from-dir", dir.to_str().unwrap()];
    let out = small_fleet(&dir, &from);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for shard in 0..2 {
        let (got, want) = (series_path(&dir, shard), series_path(&clean, shard));
        assert_eq!(window_lines(&got).len(), 8, "shard {shard}");
        assert_eq!(window_lines(&got), window_lines(&want), "shard {shard}");
        assert_eq!(std::fs::read(&got).unwrap(), std::fs::read(&want).unwrap());
    }
    for d in [&clean, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// A resume whose checkpoint covers windows the series beside it does
/// not hold is refused before any file is rewritten: exit 4 for a
/// series cut short, exit 3 for a missing one.
#[test]
fn a_resume_without_its_committed_windows_is_refused() {
    let dir = tmp("short-series");
    std::fs::remove_dir_all(&dir).ok();
    let out = small_fleet(
        &dir,
        &["--chaos-shard-kill", "0@12000", "--max-restarts", "0"],
    );
    assert_eq!(out.status.code(), Some(7));
    let series = series_path(&dir, 0);
    let text = std::fs::read_to_string(&series).unwrap();
    let header_and_one: String = text.split_inclusive('\n').take(2).collect();
    std::fs::write(&series, &header_and_one).unwrap();

    let from = ["--from-dir", dir.to_str().unwrap()];
    let out = small_fleet(&dir, &from);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "stderr: {stderr}");
    assert!(stderr.contains("fewer than the 2 windows"), "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&series).unwrap(),
        header_and_one,
        "the refused resume left the series as it was"
    );

    std::fs::remove_file(&series).unwrap();
    let out = small_fleet(&dir, &from);
    assert_eq!(out.status.code(), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_len_is_a_usage_error() {
    // 20e9 * 1e9 overflows u64; the CLI must refuse it up front (exit
    // 2) instead of wrapping into a tiny run.
    let out = occ()
        .args([
            "soak",
            "--scenario",
            "two-tier",
            "--len",
            "20000000000B",
            "--window",
            "5k",
            "--heartbeat",
            "off",
        ])
        .output()
        .expect("run occ");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("overflow"), "names the overflow: {stderr}");
}
