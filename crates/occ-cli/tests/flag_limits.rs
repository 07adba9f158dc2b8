//! Black-box limits on command-line input through the real binary: flag
//! values that a command writes into JSON must fit JSON's exact integer
//! range (2^53) and a cache size must be positive, or the command is
//! rejected up front as a usage error (exit 2); a cache size far beyond
//! the page universe — from a flag or from a checkpoint — runs instead
//! of aborting on a huge allocation; and `--help`/`-h` prints the usage
//! and exits 0 wherever it appears.

use std::path::PathBuf;
use std::process::{Command, Output};

/// One past the largest integer JSON carries exactly.
const OVER_2_53: &str = "9007199254740993";
/// A `--len`/`--window` value well past 2^53: 10^16.
const TEN_16: &str = "10000000000000000";
/// A cache size whose slot table alone would need 400 TB.
const HUGE_K: &str = "100000000000000";

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occ-flag-limits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Assert `args` exits 2 with a message naming the 2^53 limit for
/// `flag`, and without touching `out` (no work started).
fn rejected(args: &[&str], flag: &str, out: Option<&PathBuf>) {
    let o = occ(args);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("--{flag} ")) && stderr.contains("2^53"),
        "{args:?}: {stderr}"
    );
    if let Some(out) = out {
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
}

fn soak_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec!["soak", "--scenario", "two-tier", "--heartbeat", "off"];
    v.extend_from_slice(extra);
    v
}

#[test]
fn soak_seed_above_2_53_is_a_usage_error() {
    let seed = "18446744073709551615";
    rejected(
        &soak_args(&["--len", "10", "--window", "5", "--seed", seed]),
        "seed",
        None,
    );
    let series = tmp("seed.jsonl");
    let path = series.to_str().unwrap();
    rejected(
        &soak_args(&[
            "--len", "10", "--window", "5", "--seed", seed, "--series", path,
        ]),
        "seed",
        Some(&series),
    );
}

#[test]
fn soak_len_above_2_53_is_a_usage_error() {
    rejected(&soak_args(&["--len", TEN_16, "--window", "5"]), "len", None);
}

#[test]
fn soak_window_above_2_53_is_a_usage_error() {
    let series = tmp("window.jsonl");
    rejected(
        &soak_args(&[
            "--len",
            "10",
            "--window",
            TEN_16,
            "--series",
            series.to_str().unwrap(),
        ]),
        "window",
        Some(&series),
    );
}

#[test]
fn fleet_len_above_2_53_is_a_usage_error() {
    let series = tmp("fleet.jsonl");
    rejected(
        &[
            "fleet",
            "--scenario",
            "two-tier",
            "--shards",
            "2",
            "--len",
            TEN_16,
            "--window",
            "5",
            "--series-out",
            series.to_str().unwrap(),
        ],
        "len",
        Some(&series),
    );
}

#[test]
fn k_above_2_53_is_a_usage_error() {
    rejected(
        &soak_args(&["--len", "10", "--window", "5", "--k", OVER_2_53]),
        "k",
        None,
    );
}

#[test]
fn the_limit_itself_is_accepted() {
    let o = occ(&soak_args(&[
        "--len",
        "10",
        "--window",
        "5",
        "--seed",
        "9007199254740992",
    ]));
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
}

#[test]
fn a_cache_larger_than_the_universe_runs() {
    let o = occ(&soak_args(&["--len", "10", "--window", "5", "--k", HUGE_K]));
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
}

#[test]
fn resume_from_a_checkpoint_with_a_huge_capacity_runs() {
    let ckpt = tmp("huge-k.ckpt.json");
    let report = tmp("huge-k.json");
    let base = ["--scenario", "two-tier", "--seed", "5", "--out"];
    let mut args = vec!["observe", "--len", "400", "--k", "24", "--checkpoint"];
    args.push(ckpt.to_str().unwrap());
    args.extend_from_slice(&base);
    args.push(report.to_str().unwrap());
    let o = occ(&args);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));

    // Edit the capacity and re-seal, so only the value is untrusted.
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let body = occ_probe::require_trailer(&text).unwrap();
    assert!(body.contains("\"capacity\":24,"), "{body}");
    let edited = body.replacen("\"capacity\":24,", &format!("\"capacity\":{HUGE_K},"), 1);
    std::fs::write(&ckpt, occ_probe::with_trailer(&edited)).unwrap();

    let mut args = vec!["resume", "--len", "800", "--from", ckpt.to_str().unwrap()];
    args.extend_from_slice(&base);
    args.push(report.to_str().unwrap());
    let o = occ(&args);
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let out = std::fs::read_to_string(&report).unwrap();
    assert!(out.contains(&format!("\"capacity\":{HUGE_K}")), "{out}");
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&report).ok();
}

/// Assert the command line `cmd` exits 2 with a message that `flag`
/// must be positive.
fn zero_rejected(cmd: &str, flag: &str) {
    let args: Vec<&str> = cmd.split_whitespace().collect();
    let o = occ(&args);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{cmd}: {stderr}");
    assert!(
        stderr.contains(&format!("--{flag} must be positive")),
        "{cmd}: {stderr}"
    );
}

#[test]
fn run_with_k_zero_is_a_usage_error() {
    zero_rejected("run --policy lru --k 0 --scenario two-tier --len 100", "k");
}

#[test]
fn compare_with_k_zero_is_a_usage_error() {
    zero_rejected("compare --scenario two-tier --k 0 --len 100", "k");
}

#[test]
fn soak_with_k_zero_is_a_usage_error() {
    zero_rejected(
        "soak --scenario two-tier --heartbeat off --len 100 --window 50 --k 0",
        "k",
    );
}

#[test]
fn fleet_with_k_zero_is_a_usage_error() {
    zero_rejected("fleet --scenario two-tier --shards 2 --len 100 --k 0", "k");
}

#[test]
fn observe_with_k_zero_is_a_usage_error() {
    let report = tmp("k-zero.json");
    let cmd = format!(
        "observe --scenario two-tier --len 100 --k 0 --out {}",
        report.display()
    );
    zero_rejected(&cmd, "k");
    assert!(!report.exists(), "a rejected observe wrote its report");
}

#[test]
fn mrc_with_max_k_zero_is_a_usage_error() {
    zero_rejected("mrc --scenario two-tier --max-k 0 --len 100", "max-k");
}

#[test]
fn concurrent_with_k_zero_is_a_usage_error() {
    zero_rejected("concurrent --scenario two-tier --len 100 --k 0", "k");
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_0() {
    for cmd in [
        "help",
        "--help",
        "-h",
        "soak --help",
        "fleet --scenario two-tier -h",
    ] {
        let args: Vec<&str> = cmd.split_whitespace().collect();
        let o = occ(&args);
        let stdout = String::from_utf8_lossy(&o.stdout);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(0), "{cmd}: {stderr}");
        assert!(stdout.contains("USAGE:"), "{cmd}: {stdout}");
        assert!(stderr.is_empty(), "{cmd}: {stderr}");
    }
}

/// A 2,000-request two-tier occbin01 trace, written once per test.
fn small_trace(name: &str) -> PathBuf {
    let path = tmp(name);
    let p = path.to_str().expect("utf-8 temp path");
    let o = occ(&[
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
        p,
    ]);
    assert_eq!(o.status.code(), Some(0), "{o:?}");
    path
}

/// `--trace` serves the whole file, so `--len` beside it is a usage
/// error naming the prefix tools, and nothing is written to the file
/// `out_flag` names.
fn len_with_trace_rejected(cmd: &str, out_flag: &str, name: &str) {
    let trace = small_trace(&format!("{name}.occbin01"));
    let out = tmp(&format!("{name}.out"));
    let line = format!(
        "{cmd} --trace {} --len 1000 --{out_flag} {}",
        trace.display(),
        out.display()
    );
    let args: Vec<&str> = line.split_whitespace().collect();
    let o = occ(&args);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{line}: {stderr}");
    assert!(
        stderr.contains("--len") && stderr.contains("--limit"),
        "{line}: {stderr}"
    );
    assert!(!out.exists(), "{line} wrote {}", out.display());
}

#[test]
fn soak_len_with_trace_is_a_usage_error() {
    len_with_trace_rejected(
        "soak --scenario two-tier --heartbeat off --window 500",
        "series",
        "soak-len-trace",
    );
}

#[test]
fn fleet_len_with_trace_is_a_usage_error() {
    len_with_trace_rejected(
        "fleet --scenario two-tier --shards 2 --format json",
        "out",
        "fleet-len-trace",
    );
}

#[test]
fn concurrent_len_with_trace_is_a_usage_error() {
    len_with_trace_rejected(
        "concurrent --scenario two-tier --threads 2 --format json",
        "out",
        "concurrent-len-trace",
    );
}
