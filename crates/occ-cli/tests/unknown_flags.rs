//! Every command rejects a flag its USAGE synopsis does not list: the
//! binary exits 2 with a message naming the flag, before any work
//! starts (no output file appears, nothing is printed on stdout). A
//! misspelled `--timng on` must not silently run with the default.

use std::path::PathBuf;
use std::process::{Command, Output};

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occ-unknown-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Run `cmd` (whitespace-separated, `OUT` standing for a fresh temp
/// path) plus `--{flag} 1`, and assert the flag is rejected up front.
fn rejects(cmd: &str, flag: &str) {
    let out = tmp(&format!("{}.out", cmd.replace(' ', "_")));
    let out_str = out.to_str().unwrap();
    let mut args: Vec<&str> = cmd
        .split_whitespace()
        .map(|a| if a == "OUT" { out_str } else { a })
        .collect();
    let dashed = format!("--{flag}");
    args.extend([dashed.as_str(), "1"]);
    let o = occ(&args);
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("does not take --{flag} ")),
        "{args:?}: {stderr}"
    );
    assert!(o.stdout.is_empty(), "{args:?} printed before rejecting");
    assert!(!out.exists(), "{args:?} wrote {}", out.display());
}

#[test]
fn help_rejects_an_unknown_flag() {
    rejects("help", "bogus");
    rejects("", "len");
}

#[test]
fn scenarios_rejects_an_unknown_flag() {
    rejects("scenarios", "k");
}

#[test]
fn generate_rejects_an_unknown_flag() {
    rejects("generate --scenario two-tier --len 100 --out OUT", "sed");
}

#[test]
fn trace_actions_reject_flags_of_other_actions() {
    rejects("trace pack --in OUT --out OUT", "tenants");
    rejects("trace unpack --in OUT --out OUT", "dict");
    rejects("trace import --in OUT --out OUT", "limit");
}

#[test]
fn run_rejects_an_unknown_flag() {
    rejects("run --scenario two-tier --policy lru --len 100", "polcy");
}

#[test]
fn compare_rejects_an_unknown_flag() {
    rejects("compare --scenario two-tier --len 100", "window");
}

#[test]
fn mrc_rejects_an_unknown_flag() {
    rejects("mrc --scenario two-tier --len 100", "k");
}

#[test]
fn observe_rejects_an_unknown_flag() {
    rejects("observe --scenario two-tier --len 100 --out OUT", "timing");
}

#[test]
fn resume_rejects_an_unknown_flag() {
    rejects("resume --from OUT --scenario two-tier --out OUT", "window");
}

#[test]
fn soak_rejects_an_unknown_flag() {
    rejects(
        "soak --scenario two-tier --len 100 --window 50 --heartbeat off --series OUT",
        "tming",
    );
}

#[test]
fn report_rejects_an_unknown_flag() {
    rejects("report --in OUT", "out");
}

#[test]
fn fleet_rejects_an_unknown_flag() {
    rejects("fleet --scenario two-tier --len 100 --out OUT", "timng");
    rejects("fleet --scenario two-tier --len 100 --out OUT", "bogus");
}

#[test]
fn concurrent_rejects_an_unknown_flag() {
    rejects(
        "concurrent --scenario two-tier --len 100 --out OUT",
        "timng",
    );
    rejects("concurrent --replay OUT --out OUT", "shards");
}

#[test]
fn conformance_rejects_an_unknown_flag() {
    rejects("conformance --grid smoke --out OUT", "len");
}
