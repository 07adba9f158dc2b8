//! End-to-end crash test for the supervised fleet: SIGKILL the real
//! `occ fleet` process mid-run, then resume from its per-shard
//! checkpoint directory and verify the stitched window series equals
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

    // Per shard: killed-run windows up to the checkpoint, then the
    // resumed run's windows, must equal the clean run's byte-for-byte.
    for shard in 0..SHARDS {
        let resume_index = (checkpoint_time(&ckpt_path(&killed_dir, shard)) / WIDTH) as usize;
        let killed = window_lines(&series_path(&killed_dir, shard));
        assert!(
            killed.len() >= resume_index,
            "shard {shard}: every window covered by the checkpoint was \
             flushed before it ({} lines, resume index {resume_index})",
            killed.len()
        );
        let mut stitched = killed[..resume_index].to_vec();
        stitched.extend(window_lines(&series_path(&resumed_dir, shard)));
        assert_eq!(
            stitched,
            window_lines(&series_path(&clean_dir, shard)),
            "shard {shard}: stitched series differs from the clean run"
        );
    }

    for d in [&clean_dir, &killed_dir, &resumed_dir] {
        std::fs::remove_dir_all(d).ok();
    }
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
