//! Golden contract for `occ observe` through the real binary: on the
//! two-tier scenario with unaligned sampling (`--every 250`) and
//! checkpoint (`--checkpoint-every 350`) cadences, the report, the
//! `--events` stream and the final checkpoint must match the committed
//! fixtures byte for byte. The only field left out is the report's
//! `metrics.latency_ns` histogram, which is wall-clock.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-observe-golden");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Cut the `,"latency_ns":{...}` member out of a report, matching its
/// braces (the histogram holds no strings with braces in them).
fn without_latency(report: &str) -> String {
    let key = ",\"latency_ns\":{";
    let start = report.find(key).expect("report carries metrics.latency_ns");
    let mut depth = 0usize;
    let mut end = None;
    for (i, c) in report[start + key.len() - 1..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(start + key.len() - 1 + i + 1);
                    break;
                }
            }
            _ => {}
        }
    }
    let end = end.expect("latency_ns object is closed");
    format!("{}{}", &report[..start], &report[end..])
}

/// Run `occ observe` for one golden case and compare its outputs.
fn check(case: &str, extra: &[&str], events: bool) {
    let out = tmp(&format!("{case}.report.json"));
    let ckpt = tmp(&format!("{case}.ckpt.json"));
    let ev = tmp(&format!("{case}.events.jsonl"));
    let mut args = vec![
        "observe",
        "--scenario",
        "two-tier",
        "--len",
        "2000",
        "--k",
        "24",
        "--every",
        "250",
        "--checkpoint-every",
        "350",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ];
    if events {
        args.extend_from_slice(&["--events", ev.to_str().unwrap()]);
    }
    args.extend_from_slice(extra);
    let run = Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(&args)
        .output()
        .expect("run occ");
    assert!(
        run.status.success(),
        "{case}: observe failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let name = |what: &str| format!("observe-two-tier-{case}.{what}");
    assert_eq!(
        without_latency(&read(&out)),
        without_latency(&read(&fixture(&name("report.json")))),
        "{case}: report drifted from the golden fixture"
    );
    assert!(
        read(&ckpt) == read(&fixture(&name("ckpt.json"))),
        "{case}: final checkpoint drifted from the golden fixture"
    );
    if events {
        assert!(
            read(&ev) == read(&fixture(&name("events.jsonl"))),
            "{case}: events stream drifted from the golden fixture"
        );
    }
}

#[test]
fn latency_strip_removes_only_the_histogram() {
    let r = r#"{"a":1,"metrics":{"hits":2,"latency_ns":{"count":1,"buckets":[[1,1]]},"x":3}}"#;
    assert_eq!(without_latency(r), r#"{"a":1,"metrics":{"hits":2,"x":3}}"#);
}

#[test]
fn convex_with_events_matches_golden() {
    check("convex", &[], true);
}

#[test]
fn lru_matches_golden() {
    check("lru", &["--policy", "lru"], false);
}

#[test]
fn convex_under_chaos_with_skip_matches_golden() {
    check(
        "chaos",
        &[
            "--chaos-page-rate",
            "0.02",
            "--chaos-owner-rate",
            "0.02",
            "--degrade",
            "skip",
        ],
        false,
    );
}
