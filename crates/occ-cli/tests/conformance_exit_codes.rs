//! Black-box exit-code contract for `occ conformance`, exercised
//! against the real binary: 0 on an all-PASS grid, 6 when a bound is
//! violated (the weakened fixture), and the existing 2/3/4 classes for
//! operational failures — so CI scripts can tell "a theorem broke"
//! apart from "the tool broke". The table's seed row and the stderr
//! timing line say only what the run actually used.

use std::path::PathBuf;
use std::process::{Command, Output};

fn occ(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .output()
        .expect("run occ")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("occ-conformance-e2e");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn smoke_grid_exits_zero_and_emits_deterministic_json() {
    let a_path = tmp("verdicts-a.json");
    let b_path = tmp("verdicts-b.json");
    for path in [&a_path, &b_path] {
        let out = occ(&[
            "conformance",
            "--grid",
            "smoke",
            "--seed",
            "7",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "expected exit 0, got {:?}\nstderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("PASS"), "table shows verdicts:\n{stdout}");
        assert!(stdout.contains("VACUOUS"));
        assert!(!stdout.contains("FAIL"), "no cell may fail:\n{stdout}");
    }
    let a = std::fs::read(&a_path).expect("verdicts written");
    let b = std::fs::read(&b_path).expect("verdicts written");
    assert_eq!(a, b, "same grid+seed must be byte-identical");
    let text = String::from_utf8(a).unwrap();
    assert!(text.contains("\"schema\":1"));
    // Determinism also means: no wall-clock keys in the verdict JSON.
    assert!(!text.contains("elapsed") && !text.contains("latency"));
}

#[test]
fn weakened_bounds_exit_six_with_a_shrunk_counterexample() {
    let path = tmp("verdicts-weakened.json");
    let out = occ(&[
        "conformance",
        "--grid",
        "smoke",
        "--weaken",
        "1e-6",
        "--out",
        path.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(6), "conformance FAIL is exit 6");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("conformance"), "classed message: {stderr}");
    let text = std::fs::read_to_string(&path).expect("verdicts written even on FAIL");
    assert!(text.contains("\"verdict\":\"FAIL\""));
    assert!(
        text.contains("\"shrunk\":{\"len\":"),
        "failing cells carry shrunk counterexamples: {text}"
    );
}

#[test]
fn operational_failures_keep_their_existing_codes() {
    // 2: usage (unknown grid / unknown command flag value).
    assert_eq!(
        occ(&["conformance", "--grid", "nope"]).status.code(),
        Some(2)
    );
    assert_eq!(
        occ(&["conformance", "--weaken", "zero"]).status.code(),
        Some(2)
    );
    // 3: i/o (verdicts directed at an unwritable path).
    assert_eq!(
        occ(&[
            "conformance",
            "--grid",
            "smoke",
            "--out",
            "/nonexistent-dir/v.json"
        ])
        .status
        .code(),
        Some(3)
    );
    // 4: parse (report fed garbage) — unchanged by the new command.
    let garbage = tmp("garbage.json");
    std::fs::write(&garbage, "{not json").unwrap();
    assert_eq!(
        occ(&["report", "--in", garbage.to_str().unwrap()])
            .status
            .code(),
        Some(4)
    );
    // 2: unknown subcommand stays a usage error.
    assert_eq!(occ(&["conform"]).status.code(), Some(2));
}

#[test]
fn summaries_show_the_seed_only_where_it_moved_something() {
    // Every e4 cell pins its seed and serves no requests: the table
    // says the seeds are pinned, and stderr reports no latency.
    let out = occ(&["conformance", "--grid", "e4", "--seed", "99"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let seed_row = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("| seed "))
            .map(str::to_string)
    };
    let row = seed_row(&stdout).expect("a seed row");
    assert!(
        row.contains("pinned per cell") && !row.contains("99"),
        "{row}"
    );
    assert!(stderr.contains("no requests served"), "{stderr}");
    assert!(!stderr.contains("p99"), "{stderr}");

    // The smoke grid derives its cells' seeds from --seed.
    let out = occ(&["conformance", "--grid", "smoke", "--seed", "99"]);
    assert!(out.status.success());
    let row = seed_row(&String::from_utf8_lossy(&out.stdout)).expect("a seed row");
    assert!(row.contains("99"), "{row}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("step latency p99"), "{stderr}");
}
