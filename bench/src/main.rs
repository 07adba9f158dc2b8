//! `occ-e2e`: the repository's end-to-end benchmark.
//!
//! For each workload it spawns the real `occ` binary repeatedly — one
//! invocation at a time (a closed loop with one client) — and measures
//! it from outside: wall clock, and the child's CPU and peak RSS from
//! `wait4`. Every invocation's output files are checked against a
//! reference outside the timed region. A separate traced pass replays
//! the workload in-process through the library calls the CLI makes and
//! attributes its time to layers. See `bench/README.md`.
//!
//! Run it through `bench/run.sh`, which builds `occ` and this harness
//! from source first, from the repository root.

mod fixtures;
mod invoke;
mod metrics;
mod spans;
mod stats;
mod workloads;

use invoke::Sample;
use metrics::{Def, Summary};
use occ_analysis::{fnum, Table};
use occ_probe::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{prepare, Input, Prepared, Scale, Workload, BENCH_DIR};

const USAGE: &str = "\
usage: bench/run.sh [--workload NAME --seconds S --trace 0|1] [--seed N]
                    [--sets N] [--smoke]

  --workload NAME  measure one workload for S seconds (default 15) and
                   print, as the last line of stdout, one JSON object
                   with its end-to-end metrics (--trace 0) or its
                   per-layer metrics (--trace 1)
  (no --workload)  measure every workload in 7 interleaved rounds and
                   print every metric
  --sets N         repeat the rounds N times and compare each set's
                   values with the first set's against the bounds in
                   BENCHMARK.json; any breach exits 1
  --smoke          1/64-size inputs and one round
  --seed N         fixture seed (default 11)
";

/// Invocations of the 1-request input per run; `setup_s` is their best decile.
const SETUP_REPS: usize = 15;
/// Fewest measured invocations per run, however long each takes.
const MIN_REPS: usize = 3;
/// Rounds per set in the suite (one with `--smoke`).
const SUITE_ROUNDS: usize = 7;

struct Opts {
    occ: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        occ: PathBuf::new(),
        workload: None,
        seed: 11,
        seconds: 15.0,
        trace: false,
        sets: 1,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--occ" => o.occ = PathBuf::from(value),
            "--workload" => {
                o.workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => o.seed = num(&value)?,
            "--seconds" => o.seconds = num(&value)? as f64,
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--sets" => o.sets = num(&value)?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.occ.as_os_str().is_empty() {
        return Err("--occ PATH is required (bench/run.sh passes it)".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(invoke::SPAWN_FLAG) {
        return invoke::spawn_main(&args[1..]);
    }
    let opts = match parse_args(args.into_iter()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("occ-e2e: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(w) => run_one(&opts, w),
        None => run_suite(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("occ-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Requests attempted and failed across invocations, with the reason
/// for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn ok(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Run one invocation of `input` and check its output. A non-zero exit
/// or a failed check fails all its requests; otherwise the faults the
/// program itself counted fail.
fn invoke_checked(occ: &Path, w: Workload, input: &mut Input, tally: &mut Tally) -> Option<Sample> {
    let (out, log) = (w.out_dir(), w.log_path());
    tally.attempted += input.requests;
    let sample = invoke::run(occ, &input.argv, &out, &log);
    let verdict = match &sample {
        Err(e) => Err(format!("spawn {}: {e}", occ.display())),
        Ok(s) if !s.status.success() => {
            let stderr = std::fs::read_to_string(&log).unwrap_or_default();
            let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
            Err(format!("occ {}: {}", s.status, tail.join(" / ")))
        }
        Ok(_) => input.check(&out),
    };
    match verdict {
        Ok(faults) => tally.failed += faults.min(input.requests),
        Err(e) => {
            tally.failed += input.requests;
            tally.errors.push(format!("{}: {e}", w.name()));
        }
    }
    sample.ok()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken.
fn provenance(seed: u64, scale: &Scale, reps: &str, prepared: &[&Prepared]) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!(
            "occ-e2e: warning: {nproc} CPU available; fleet-mix-convex and concurrent-lru \
             run two threads and expect two cores"
        );
    }
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let str_or = |v: Option<String>, dflt: &str| Json::Str(v.unwrap_or_else(|| dflt.into()));
    let (head, dirty) = if Path::new(".git").exists() {
        let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
        (
            command_line("git", &["rev-parse", "HEAD"]),
            dirty.map_or(Json::Null, Json::Bool),
        )
    } else {
        (None, Json::Null)
    };
    let fixtures = prepared
        .iter()
        .flat_map(|p| &p.fixtures)
        .map(|(name, bytes, requests)| {
            Json::Obj(vec![
                ("file".into(), Json::Str(name.clone())),
                ("bytes".into(), Json::from_u64(*bytes)),
                ("requests".into(), Json::from_u64(*requests)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("nproc".into(), Json::from_u64(nproc as u64)),
        ("cpu".into(), Json::Str(cpu)),
        (
            "rustc".into(),
            str_or(command_line("rustc", &["-V"]), "unknown"),
        ),
        ("git_head".into(), str_or(head, "not a git checkout")),
        ("git_dirty".into(), dirty),
        ("seed".into(), Json::from_u64(seed)),
        ("scale".into(), Json::Str(format!("{scale:?}"))),
        ("reps".into(), Json::Str(reps.into())),
        ("fixtures".into(), Json::Arr(fixtures)),
    ])
}

fn e2e_table(title: &str, rows: &[(Def, Summary)]) -> String {
    let mut t = Table::new(vec!["metric", "unit", "value", "median", "q1", "q3", "n"]);
    for (d, s) in rows {
        t.row(vec![
            d.name.to_string(),
            d.unit.into(),
            fnum(s.value),
            fnum(s.median),
            fnum(s.q1),
            fnum(s.q3),
            s.n.to_string(),
        ]);
    }
    format!("## {title}\n\n{}", t.to_markdown())
}

fn layer_table(title: &str, rows: &[(Def, f64)]) -> String {
    let mut t = Table::new(vec!["metric", "unit", "value"]);
    for (d, v) in rows {
        t.row(vec![d.name.to_string(), d.unit.into(), fnum(*v)]);
    }
    format!("## {title}\n\n{}", t.to_markdown())
}

fn e2e_json(rows: &[(Def, Summary)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(d, s)| {
                let v = Json::Obj(vec![
                    ("unit".into(), Json::Str(d.unit.into())),
                    ("value".into(), Json::Num(s.value)),
                    ("median".into(), Json::Num(s.median)),
                    ("q1".into(), Json::Num(s.q1)),
                    ("q3".into(), Json::Num(s.q3)),
                    ("n".into(), Json::from_u64(s.n as u64)),
                ]);
                (d.name.to_string(), v)
            })
            .collect(),
    )
}

fn layer_json(rows: &[(Def, f64)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(d, v)| {
                let v = Json::Obj(vec![
                    ("unit".into(), Json::Str(d.unit.into())),
                    ("value".into(), Json::Num(*v)),
                ]);
                (d.name.to_string(), v)
            })
            .collect(),
    )
}

fn str_array(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::Str(x.clone())).collect())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_spans(p: &Prepared) -> Result<(), String> {
    let path = Path::new(BENCH_DIR).join(format!("{}.spans.jsonl", p.workload.name()));
    p.pass
        .tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn median_wall(samples: &[Sample]) -> f64 {
    Summary::median_of(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>()).median
}

fn scale_of(o: &Opts) -> Scale {
    if o.smoke {
        Scale::smoke()
    } else {
        Scale::FULL
    }
}

/// One workload for `--seconds`, ending stdout with one JSON line of its
/// end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
fn run_one(o: &Opts, w: Workload) -> Result<bool, String> {
    let scale = scale_of(o);
    let mut p = prepare(w, &scale, o.seed)?;
    let mut tally = Tally::default();
    // Warm-up: the binary, the fixture pages and the allocator are hot
    // before anything is timed.
    invoke_checked(&o.occ, w, &mut p.main, &mut tally);
    // Set-up invocations are spread evenly over the run, between the
    // measured ones: the host's I/O latency shifts in spells of a second
    // or so, and 15 back-to-back invocations would all land in one.
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut setup = Vec::new();
    let (mut reps, mut setup_reps) = (0, 0);
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let done = reps >= MIN_REPS && elapsed >= o.seconds;
        let due = if done {
            SETUP_REPS
        } else {
            (SETUP_REPS as f64 * elapsed / o.seconds).ceil() as usize
        };
        while setup_reps < due.min(SETUP_REPS) {
            setup.extend(invoke_checked(&o.occ, w, &mut p.one, &mut tally).map(|s| s.wall_s));
            setup_reps += 1;
        }
        if done {
            break;
        }
        samples.extend(invoke_checked(&o.occ, w, &mut p.main, &mut tally));
        reps += 1;
    }

    let e2e = metrics::e2e(p.main.requests, &samples, &setup);
    let layer = metrics::per_layer(&p.pass, median_wall(&samples));
    write_spans(&p)?;
    println!("{}", e2e_table(&format!("{} end to end", w.name()), &e2e));
    println!(
        "{}",
        layer_table(&format!("{} per layer", w.name()), &layer)
    );
    for e in &tally.errors {
        eprintln!("occ-e2e: FAILED {e}");
    }

    let samples_json = samples
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("wall_s".into(), Json::Num(s.wall_s)),
                ("cpu_s".into(), Json::Num(s.cpu_s)),
                ("maxrss_kib".into(), Json::from_u64(s.maxrss_kib)),
                ("out_bytes".into(), Json::from_u64(s.out_bytes)),
            ])
        })
        .collect();
    let reps_desc = format!("{} measured + 1 warm-up, {SETUP_REPS} setup", samples.len());
    let results = Json::Obj(vec![
        (
            "provenance".into(),
            provenance(o.seed, &scale, &reps_desc, &[&p]),
        ),
        ("workload".into(), Json::Str(w.name().into())),
        ("argv".into(), str_array(&p.main.argv)),
        ("seconds".into(), Json::Num(o.seconds)),
        ("e2e".into(), e2e_json(&e2e)),
        ("per_layer".into(), layer_json(&layer)),
        ("attempted".into(), Json::from_u64(tally.attempted)),
        ("failed".into(), Json::from_u64(tally.failed)),
        ("errors".into(), str_array(&tally.errors)),
        ("samples".into(), Json::Arr(samples_json)),
        (
            "setup_s".into(),
            Json::Arr(setup.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ]);
    write_file(
        &Path::new(BENCH_DIR).join(format!("{}.result.json", w.name())),
        &(results.to_json() + "\n"),
    )?;

    let reported: Vec<(Def, f64)> = if o.trace {
        layer
    } else {
        e2e.iter().map(|(d, s)| (*d, s.value)).collect()
    };
    let metrics = reported
        .into_iter()
        .map(|(d, v)| {
            let m = Json::Obj(vec![
                ("value".into(), Json::Num(v)),
                ("unit".into(), Json::Str(d.unit.into())),
            ]);
            (d.name.to_string(), m)
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.ok())),
        ("attempted".into(), Json::from_u64(tally.attempted)),
        ("failed".into(), Json::from_u64(tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(tally.ok())
}

/// Bound and direction of each end-to-end metric, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(dir)) => Ok((n.to_string(), b, dir == "higher")),
                _ => Err(format!(
                    "BENCHMARK.json: malformed end_to_end entry {}",
                    m.to_json()
                )),
            }
        })
        .collect()
}

/// Every workload in interleaved rounds, `--sets` times; each round
/// runs every workload once, in an order rotated round by round, so a
/// change in host speed hits every workload alike.
fn run_suite(o: &Opts) -> Result<bool, String> {
    let scale = scale_of(o);
    let bounds = if o.sets > 1 {
        declared_bounds()?
    } else {
        Vec::new()
    };
    let mut prepared = Workload::ALL
        .iter()
        .map(|&w| prepare(w, &scale, o.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let count = prepared.len();
    let rounds = if o.smoke { 1 } else { SUITE_ROUNDS };
    let mut tally = Tally::default();
    for p in &mut prepared {
        invoke_checked(&o.occ, p.workload, &mut p.main, &mut tally);
    }
    let mut sets: Vec<Vec<Vec<(Def, Summary)>>> = Vec::new();
    let mut walls = vec![0.0; count];
    for set in 0..o.sets {
        let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); count];
        let mut setup: Vec<Vec<f64>> = vec![Vec::new(); count];
        let mut setup_reps = vec![0; count];
        for round in 0..rounds {
            for j in 0..count {
                let i = (round + j) % count;
                let p = &mut prepared[i];
                samples[i].extend(invoke_checked(&o.occ, p.workload, &mut p.main, &mut tally));
                // Set-up invocations follow the measured ones round by
                // round, spread over the set as in `run_one`.
                let due = (SETUP_REPS * (round + 1)).div_ceil(rounds);
                while setup_reps[i] < due {
                    let s = invoke_checked(&o.occ, p.workload, &mut p.one, &mut tally);
                    setup[i].extend(s.map(|s| s.wall_s));
                    setup_reps[i] += 1;
                }
            }
        }
        let rows: Vec<_> = (0..count)
            .map(|i| metrics::e2e(prepared[i].main.requests, &samples[i], &setup[i]))
            .collect();
        for (p, r) in prepared.iter().zip(&rows) {
            println!(
                "{}",
                e2e_table(
                    &format!("set {} · {} end to end", set + 1, p.workload.name()),
                    r
                )
            );
        }
        if set == 0 {
            walls = samples.iter().map(|s| median_wall(s)).collect();
        }
        sets.push(rows);
    }

    let mut layers = Vec::new();
    for (p, &wall) in prepared.iter().zip(&walls) {
        let rows = metrics::per_layer(&p.pass, wall);
        println!(
            "{}",
            layer_table(&format!("{} per layer", p.workload.name()), &rows)
        );
        write_spans(p)?;
        layers.push((p.workload.name().to_string(), layer_json(&rows)));
    }

    let mut breaches = Vec::new();
    if o.sets > 1 {
        let mut t = Table::new(vec![
            "workload",
            "metric",
            "unit",
            "set",
            "value",
            "median",
            "q1",
            "q3",
            "Δ vs set 1",
            "bound",
            "",
        ]);
        for (i, p) in prepared.iter().enumerate() {
            for (k, (d, first)) in sets[0][i].iter().enumerate() {
                let (_, bound, higher) = bounds
                    .iter()
                    .find(|(n, _, _)| n == d.name)
                    .ok_or(format!("BENCHMARK.json declares no bound for {}", d.name))?;
                for (set, rows) in sets.iter().enumerate().skip(1) {
                    let s = rows[i][k].1;
                    let delta = (s.value - first.value) / first.value;
                    let worse = if *higher { -delta } else { delta };
                    let ok = worse <= *bound;
                    if !ok {
                        breaches.push(format!("{} {} set {}", p.workload.name(), d.name, set + 1));
                    }
                    t.row(vec![
                        p.workload.name().to_string(),
                        d.name.into(),
                        d.unit.into(),
                        (set + 1).to_string(),
                        fnum(s.value),
                        fnum(s.median),
                        fnum(s.q1),
                        fnum(s.q3),
                        format!("{:+.2}%", delta * 100.0),
                        format!("{:.0}%", bound * 100.0),
                        if ok { "ok" } else { "BREACH" }.into(),
                    ]);
                }
            }
        }
        println!("## set-to-set repeatability\n\n{}", t.to_markdown());
    }

    let reps_desc = format!(
        "{} set(s) x {} round(s) + 1 warm-up, {SETUP_REPS} setup per workload and set",
        o.sets, rounds
    );
    let all: Vec<&Prepared> = prepared.iter().collect();
    let set_json = sets
        .iter()
        .map(|rows| {
            Json::Obj(
                prepared
                    .iter()
                    .zip(rows)
                    .map(|(p, r)| (p.workload.name().to_string(), e2e_json(r)))
                    .collect(),
            )
        })
        .collect();
    let results = Json::Obj(vec![
        (
            "provenance".into(),
            provenance(o.seed, &scale, &reps_desc, &all),
        ),
        ("sets".into(), Json::Arr(set_json)),
        ("per_layer".into(), Json::Obj(layers)),
        ("attempted".into(), Json::from_u64(tally.attempted)),
        ("failed".into(), Json::from_u64(tally.failed)),
        ("errors".into(), str_array(&tally.errors)),
        ("breaches".into(), str_array(&breaches)),
    ]);
    write_file(
        &Path::new(BENCH_DIR).join("suite.result.json"),
        &(results.to_json() + "\n"),
    )?;
    for e in &tally.errors {
        eprintln!("occ-e2e: FAILED {e}");
    }
    for b in &breaches {
        eprintln!("occ-e2e: BREACH {b}");
    }
    println!(
        "occ-e2e: {} of {} requests failed; {} breach(es)",
        tally.failed,
        tally.attempted,
        breaches.len()
    );
    Ok(tally.ok() && breaches.is_empty())
}
