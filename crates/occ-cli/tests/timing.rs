//! `--timing on|off` on `occ fleet`, `occ concurrent` and `occ soak`,
//! through the real binary. Timing is off by default; turning it on adds
//! one latency sample per request to the report's `merged` recorder (or
//! to each soak window) and changes no counter, vector or window. An
//! untimed report has no `latency_ns` key and is byte-identical run to
//! run once its wall-clock fields are cut. A supervised fleet is always
//! untimed, and its report matches the plain windowed fleet's.

use occ_probe::{Json, SeriesFile};
use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occ-timing-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Run `occ` with `args` plus `--format json --out FILE` and parse the
/// report it wrote.
fn report(args: &[&str], name: &str) -> Json {
    let out = tmp(name);
    let o = Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .args(["--format", "json", "--out", out.to_str().unwrap()])
        .output()
        .expect("run occ");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(0), "{args:?}: {stderr}");
    let text = std::fs::read_to_string(&out).expect("read report");
    Json::parse(&text).expect("report parses")
}

/// `v` without the wall-clock members: top-level `wall_ms`,
/// `requests_per_sec` and `aggregate_requests_per_sec`, each shard's
/// `elapsed_ms` and `requests_per_sec`, and (with `latency`) the
/// `merged.latency_ns` histogram.
fn deterministic(mut v: Json, latency: bool) -> Json {
    const WALL: [&str; 4] = [
        "wall_ms",
        "elapsed_ms",
        "requests_per_sec",
        "aggregate_requests_per_sec",
    ];
    let Json::Obj(fields) = &mut v else {
        panic!("a report is an object")
    };
    fields.retain(|(k, _)| !WALL.contains(&k.as_str()));
    for (k, f) in fields.iter_mut() {
        match (k.as_str(), f) {
            ("merged", Json::Obj(m)) if latency => m.retain(|(k, _)| k != "latency_ns"),
            ("shards", Json::Arr(shards)) => {
                for s in shards {
                    if let Json::Obj(s) = s {
                        s.retain(|(k, _)| !WALL.contains(&k.as_str()));
                    }
                }
            }
            _ => {}
        }
    }
    v
}

fn latency_count(v: &Json) -> Option<u64> {
    v.get("merged")?.get("latency_ns")?.get("count")?.as_u64()
}

fn fleet_args(policy: &str) -> Vec<&str> {
    vec![
        "fleet",
        "--scenario",
        "sqlvm-like",
        "--shards",
        "2",
        "--len",
        "30000",
        "--seed",
        "11",
        "--policy",
        policy,
        "--window",
        "7000",
    ]
}

#[test]
fn fleet_timing_adds_one_sample_per_request_and_changes_no_counter() {
    for policy in ["lru", "convex"] {
        let argv = fleet_args(policy);
        let untimed = report(&argv, &format!("fleet-{policy}-default.json"));
        let mut on = argv.clone();
        on.extend(["--timing", "on"]);
        let timed = report(&on, &format!("fleet-{policy}-on.json"));
        let mut off = argv.clone();
        off.extend(["--timing", "off"]);
        let explicit = report(&off, &format!("fleet-{policy}-off.json"));

        let total = untimed.get("total_requests").and_then(Json::as_u64);
        assert_eq!(total, Some(60_000), "{policy}");
        assert_eq!(latency_count(&untimed), None, "{policy}: untimed");
        assert!(untimed.get("merged").unwrap().get("latency_ns").is_none());
        assert_eq!(latency_count(&timed), total, "{policy}: one per request");
        let merged_requests = timed.get("merged").unwrap().get("requests");
        assert_eq!(merged_requests.and_then(Json::as_u64), total);
        // Per-shard vectors, merged counters and the fleet series match.
        assert_eq!(
            deterministic(untimed.clone(), false),
            deterministic(timed, true),
            "{policy}: --timing on changed a counter"
        );
        assert_eq!(
            deterministic(untimed, false),
            deterministic(explicit, false),
            "{policy}: --timing off is the default"
        );
    }
}

#[test]
fn untimed_fleet_reports_are_byte_identical_bar_wall_clock() {
    let argv = fleet_args("convex");
    let a = deterministic(report(&argv, "repro-a.json"), false);
    let b = deterministic(report(&argv, "repro-b.json"), false);
    assert_eq!(a.to_json(), b.to_json());
    let mut plain = argv.clone();
    plain.truncate(plain.len() - 2); // no --window
    let a = deterministic(report(&plain, "repro-plain-a.json"), false);
    let b = deterministic(report(&plain, "repro-plain-b.json"), false);
    assert_eq!(a.to_json(), b.to_json());
}

fn concurrent_args(threads: &str) -> Vec<&str> {
    vec![
        "concurrent",
        "--scenario",
        "sqlvm-like",
        "--threads",
        threads,
        "--len",
        "20000",
        "--seed",
        "3",
        "--policy",
        "lru",
    ]
}

#[test]
fn concurrent_timing_adds_one_sample_per_commit_and_changes_no_counter() {
    for threads in ["1", "2"] {
        let argv = concurrent_args(threads);
        let untimed = report(&argv, &format!("conc-{threads}-off.json"));
        let mut on = argv.clone();
        on.extend(["--timing", "on"]);
        let timed = report(&on, &format!("conc-{threads}-on.json"));

        let identical = |v: &Json| v.get("replay").unwrap().get("identical").cloned();
        assert_eq!(identical(&untimed), Some(Json::Bool(true)), "{threads}");
        assert_eq!(identical(&timed), Some(Json::Bool(true)), "{threads}");
        let commits = untimed.get("commits").and_then(Json::as_u64);
        assert_eq!(commits, timed.get("commits").and_then(Json::as_u64));
        assert_eq!(latency_count(&untimed), None, "threads {threads}");
        assert_eq!(latency_count(&timed), commits, "threads {threads}");
        if threads == "1" {
            // One worker commits in stream order, so every per-user
            // vector must match; with two, the interleaving (and so the
            // hit/miss split) is up to the scheduler.
            assert_eq!(
                deterministic(untimed, false),
                deterministic(timed, true),
                "--timing on changed a counter"
            );
        }
    }
}

/// `occ soak` with `args` plus a series file; returns the parsed series.
fn soak_series(args: &[&str], name: &str) -> SeriesFile {
    let out = tmp(name);
    let o = Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(args)
        .args(["--heartbeat", "off", "--series", out.to_str().unwrap()])
        .output()
        .expect("run occ");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert_eq!(o.status.code(), Some(0), "{args:?}: {stderr}");
    SeriesFile::parse(&std::fs::read_to_string(&out).expect("read series")).expect("parses")
}

#[test]
fn soak_timing_adds_one_sample_per_request_to_each_window_and_changes_nothing_else() {
    for policy in ["lru", "convex"] {
        let argv = [
            "soak",
            "--scenario",
            "sqlvm-like",
            "--len",
            "30000",
            "--window",
            "7000",
            "--seed",
            "11",
            "--policy",
            policy,
        ];
        let untimed = soak_series(&argv, &format!("soak-{policy}-off.jsonl"));
        let mut on = argv.to_vec();
        on.extend(["--timing", "on"]);
        let timed = soak_series(&on, &format!("soak-{policy}-on.jsonl"));

        assert_eq!(untimed.header, timed.header, "{policy}");
        assert_eq!(untimed.windows.len(), 5, "{policy}: 30000 / 7000");
        let mut stripped = timed.windows.clone();
        for w in &mut stripped {
            let samples = w.latency_ns.take().map(|h| h.count());
            assert_eq!(samples, Some(w.requests()), "{policy}: window {}", w.index);
        }
        assert!(untimed.windows.iter().all(|w| w.latency_ns.is_none()));
        assert_eq!(
            untimed.windows, stripped,
            "{policy}: --timing on changed a window"
        );
    }
}

#[test]
fn supervised_fleet_is_untimed_and_reports_what_the_plain_fleet_does() {
    let plain = deterministic(report(&fleet_args("convex"), "plain.json"), false);
    let mut argv = fleet_args("convex");
    argv.extend(["--max-restarts", "2"]);
    let mut supervised = deterministic(report(&argv, "supervised.json"), false);
    assert!(
        supervised
            .get("merged")
            .unwrap()
            .get("latency_ns")
            .is_none(),
        "a supervised fleet is untimed"
    );
    let Json::Obj(fields) = &mut supervised else {
        panic!("a report is an object")
    };
    fields.retain(|(k, _)| k != "supervisor");
    assert_eq!(plain.to_json(), supervised.to_json());

    argv.extend(["--timing", "on"]);
    let o = Command::new(env!("CARGO_BIN_EXE_occ"))
        .args(&argv)
        .output()
        .expect("run occ");
    assert_eq!(
        o.status.code(),
        Some(2),
        "--timing on needs an unsupervised fleet"
    );
}
