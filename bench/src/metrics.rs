//! What the benchmark reports, and how each number is computed. Names,
//! units and directions must equal the ones `BENCHMARK.json` declares
//! (a unit test holds the two together).

use crate::invoke::Sample;
use crate::spans::Agg;
use crate::stats::{median, quartiles};
use crate::workloads::{Pass, THREADS};
use occ_sim::DEFAULT_BATCH_SIZE;

/// One metric's name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Def {
    /// `[A-Za-z0-9_.-]+`, unique.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// End-to-end metrics, measured on the real binary with tracing off.
pub const E2E: [Def; 5] = [
    def("req_per_s", "req/s", "higher"),
    def("setup_s", "s", "lower"),
    def("cpu_s_per_mreq", "s/Mreq", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("out_bytes_per_req", "B/req", "lower"),
];

/// Per-layer metrics, from the traced in-process pass. A layer that is
/// not on a workload's path reports 0.
pub const PER_LAYER: [Def; 33] = [
    def("binio.open_ms", "ms", "lower"),
    def("binio.ns_per_req", "ns/req", "lower"),
    def("binio2.open_ms", "ms", "lower"),
    def("binio2.decode_ns_per_req", "ns/req", "lower"),
    def("binio2.encode_ns_per_req", "ns/req", "lower"),
    def("binio2.bytes_per_req", "B/req", "lower"),
    def("stepper.ns_per_req", "ns/req", "lower"),
    def("stepper.batch_p50_us", "us", "lower"),
    def("stepper.batch_p99_us", "us", "lower"),
    def("stepper.batch_p999_us", "us", "lower"),
    def("stepper.miss_ratio", "fraction", "lower"),
    def("stepper.evictions_per_req", "1/req", "lower"),
    def("timeseries.close_us_p50", "us", "lower"),
    def("timeseries.close_us_p99", "us", "lower"),
    def("timeseries.sink_us_per_window", "us", "lower"),
    def("timeseries.bytes_per_window", "B", "lower"),
    def("checkpoint.snapshot_ms", "ms", "lower"),
    def("checkpoint.encode_ms", "ms", "lower"),
    def("checkpoint.write_ms", "ms", "lower"),
    def("checkpoint.bytes", "B", "lower"),
    def("workloads.mix_ns_per_req", "ns/req", "lower"),
    def("fleet.recorder_frac", "fraction", "lower"),
    def("fleet.parallel_eff", "fraction", "higher"),
    def("fleet.shard_skew", "ratio", "lower"),
    def("concurrent.run_s", "s", "lower"),
    def("concurrent.commits_per_s", "1/s", "higher"),
    def("concurrent.cpu_util", "fraction", "higher"),
    def("concurrent.replay_s", "s", "lower"),
    def("concurrent.verify_s", "s", "lower"),
    def("concurrent.rss_delta_mb", "MiB", "lower"),
    def("concurrent.t1_vs_scalar", "ratio", "higher"),
    def("trace.attributed_frac", "fraction", "higher"),
    def("trace.wall_ratio", "ratio", "lower"),
];

/// One metric over a run's samples: the value reported, plus the
/// median, quartiles and count behind it.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// What the run reports for the metric.
    pub value: f64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `xs`, reporting the median (NaN without samples).
    pub fn median_of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                value: f64::NAN,
                median: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                n: 0,
            };
        }
        let (q1, q3) = quartiles(xs);
        let median = median(xs);
        Summary {
            value: median,
            median,
            q1,
            q3,
            n: xs.len(),
        }
    }

    /// Summarize `xs`, reporting its best decile boundary under
    /// `d.better`: the 10th percentile, or the 90th when higher is better.
    pub fn best_decile_of(xs: &[f64], d: &Def) -> Summary {
        let q = if d.better == "higher" { 0.9 } else { 0.1 };
        let value = if xs.is_empty() {
            f64::NAN
        } else {
            occ_analysis::percentile(xs, q)
        };
        Summary {
            value,
            ..Summary::median_of(xs)
        }
    }
}

/// The end-to-end metrics of `samples` (each serving `requests`) and
/// of the 1-request `setup` walls.
///
/// Timings report the run's best decile. The reference host shares its
/// cores and memory with other tenants whose bursts stretch some
/// invocations by up to 2×, and interference only ever adds time, so
/// the fast end of a run is the steadiest estimate of the program's own
/// cost: across ten runs the median spread 10–20%, the best decile
/// about 5%. The decile rather than the minimum, because
/// `concurrent-lru` has a genuinely faster mode that a lone sample can
/// fall into: when its two threads drift apart in the trace, or one is
/// descheduled, they stop contending for the same locks. Sizes report
/// the median.
pub fn e2e(requests: u64, samples: &[Sample], setup_s: &[f64]) -> Vec<(Def, Summary)> {
    let req = requests as f64;
    let per = |f: &dyn Fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    E2E.into_iter()
        .map(|d| {
            let s = match d.name {
                "req_per_s" => Summary::best_decile_of(&per(&|s| req / s.wall_s), &d),
                "setup_s" => Summary::best_decile_of(setup_s, &d),
                "cpu_s_per_mreq" => Summary::best_decile_of(&per(&|s| s.cpu_s / (req / 1e6)), &d),
                "peak_rss_mb" => Summary::median_of(&per(&|s| s.maxrss_kib as f64 / 1024.0)),
                "out_bytes_per_req" => Summary::median_of(&per(&|s| s.out_bytes as f64 / req)),
                other => unreachable!("no rule for {other}"),
            };
            (d, s)
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced pass; `e2e_wall_s` is the median
/// wall clock of the same workload's untraced invocations.
pub fn per_layer(pass: &Pass, e2e_wall_s: f64) -> Vec<(Def, f64)> {
    let by_name = pass.tracer.by_name();
    let none = Agg::default();
    let agg = |name: &str| by_name.get(name).unwrap_or(&none);
    let self_ns = |names: &[&str]| names.iter().map(|n| agg(n).self_ns).sum::<u64>() as f64;
    let work = |names: &[&str]| names.iter().map(|n| agg(n).n()).sum::<u64>() as f64;
    let total_s = |name: &str| agg(name).total_ns() as f64 / 1e9;
    let mean_ms = |name: &str| agg(name).mean_ns() / 1e6;
    let pct_us = |durs: &[f64], q: f64| {
        if durs.is_empty() {
            0.0
        } else {
            occ_analysis::percentile(durs, q) / 1e3
        }
    };
    let stepper = ["stepper.step_batch", "stepper.step_page_batch"];
    let full_batches: Vec<f64> = stepper
        .iter()
        .flat_map(|n| {
            let a = agg(n);
            a.durs_ns
                .iter()
                .zip(&a.ns)
                .filter(|(_, &n)| n == DEFAULT_BATCH_SIZE as u64)
                .map(|(&d, _)| d as f64)
                .collect::<Vec<_>>()
        })
        .collect();
    let closes: Vec<f64> = agg("timeseries.close")
        .durs_ns
        .iter()
        .map(|&d| d as f64)
        .collect();

    let f = &pass.facts;
    let (requests, misses, evictions) = f.stats.as_ref().map_or((0.0, 0.0, 0.0), |s| {
        let m = s.total_misses() as f64;
        (s.total_hits() as f64 + m, m, s.total_evictions() as f64)
    });
    let elapsed = &f.shard_elapsed_s;
    let elapsed_sum: f64 = elapsed.iter().sum();
    let elapsed_max = elapsed.iter().copied().fold(0.0, f64::max);
    let run_s = total_s("concurrent.run");

    // Attribution: self time of everything under the `pass` roots over
    // their wall time (probes are separate roots and do not count).
    let spans = pass.tracer.spans();
    let roots = pass.tracer.roots();
    let own = pass.tracer.self_ns();
    let is_pass = |i: usize| spans[i].name == "pass" && spans[i].parent.is_none();
    let pass_ns: u64 = (0..spans.len())
        .filter(|&i| is_pass(i))
        .map(|i| spans[i].dur_ns())
        .sum();
    let attributed: u64 = (0..spans.len())
        .filter(|&i| !is_pass(i) && is_pass(roots[i]))
        .map(|i| own[i])
        .sum();

    PER_LAYER
        .into_iter()
        .map(|d| {
            let v = match d.name {
                "binio.open_ms" => mean_ms("binio.open"),
                "binio.ns_per_req" => ratio(
                    self_ns(&["binio.next_page_run"]),
                    work(&["binio.next_page_run"]),
                ),
                "binio2.open_ms" => mean_ms("binio2.open"),
                "binio2.decode_ns_per_req" => {
                    ratio(self_ns(&["binio2.next_run"]), work(&["binio2.next_run"]))
                }
                "binio2.encode_ns_per_req" => ratio(
                    self_ns(&["binio2.encode", "binio2.finish"]),
                    work(&["binio2.encode"]),
                ),
                "binio2.bytes_per_req" => ratio(f.v2_bytes as f64, f.requests as f64),
                "stepper.ns_per_req" => ratio(self_ns(&stepper), work(&stepper)),
                "stepper.batch_p50_us" => pct_us(&full_batches, 0.5),
                "stepper.batch_p99_us" => pct_us(&full_batches, 0.99),
                "stepper.batch_p999_us" => pct_us(&full_batches, 0.999),
                "stepper.miss_ratio" => ratio(misses, requests),
                "stepper.evictions_per_req" => ratio(evictions, requests),
                "timeseries.close_us_p50" => pct_us(&closes, 0.5),
                "timeseries.close_us_p99" => pct_us(&closes, 0.99),
                "timeseries.sink_us_per_window" => ratio(
                    (agg("timeseries.sink").total_ns() + agg("timeseries.finish").total_ns())
                        as f64
                        / 1e3,
                    f.windows as f64,
                ),
                "timeseries.bytes_per_window" => ratio(f.series_bytes as f64, f.windows as f64),
                "checkpoint.snapshot_ms" => mean_ms("checkpoint.snapshot"),
                "checkpoint.encode_ms" => mean_ms("checkpoint.encode"),
                "checkpoint.write_ms" => mean_ms("checkpoint.write"),
                "checkpoint.bytes" => f.checkpoint_bytes as f64,
                "workloads.mix_ns_per_req" => {
                    ratio(self_ns(&["workloads.mix"]), work(&["workloads.mix"]))
                }
                "fleet.recorder_frac" => {
                    if f.fleet_wall_s > 0.0 {
                        1.0 - f.fleet_unrecorded_s / f.fleet_wall_s
                    } else {
                        0.0
                    }
                }
                "fleet.parallel_eff" => ratio(elapsed_sum, elapsed.len() as f64 * f.fleet_wall_s),
                "fleet.shard_skew" => ratio(elapsed_max * elapsed.len() as f64, elapsed_sum),
                "concurrent.run_s" => run_s,
                "concurrent.commits_per_s" => ratio(f.commits as f64, run_s),
                "concurrent.cpu_util" => ratio(f.run_cpu_s, THREADS as f64 * run_s),
                "concurrent.replay_s" => total_s("concurrent.replay"),
                "concurrent.verify_s" => total_s("concurrent.verify"),
                "concurrent.rss_delta_mb" => f.rss_delta_mib,
                "concurrent.t1_vs_scalar" => ratio(f.t1_rate, f.scalar_rate),
                "trace.attributed_frac" => ratio(attributed as f64, pass_ns as f64),
                "trace.wall_ratio" => ratio(pass_ns as f64 / 1e9, e2e_wall_s),
                other => unreachable!("no rule for {other}"),
            };
            (d, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::workloads::{Facts, Workload};
    use occ_probe::Json;
    use std::collections::BTreeSet;
    use std::os::unix::process::ExitStatusExt;

    fn declared() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn defs(v: &Json, key: &str) -> Vec<Def> {
        let leak = |s: &str| -> &'static str { Box::leak(s.to_string().into_boxed_str()) };
        v.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k: &str| leak(m.get(k).and_then(Json::as_str).expect(k));
                def(field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for d in E2E.iter().chain(&PER_LAYER) {
            assert!(
                !d.name.is_empty()
                    && d.name.len() <= 64
                    && d.name
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{}",
                d.name
            );
            assert!(d.better == "higher" || d.better == "lower");
            assert!(seen.insert(d.name), "{} twice", d.name);
        }
    }

    #[test]
    fn declared_and_emitted_metrics_are_equal_sets() {
        let v = declared();
        let sample = Sample {
            wall_s: 1.0,
            cpu_s: 1.0,
            maxrss_kib: 1024,
            status: std::process::ExitStatus::from_raw(0),
            out_bytes: 10,
        };
        let pass = Pass {
            tracer: Tracer::new(),
            facts: Facts::default(),
        };
        let workloads = v
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("name");
            assert!(
                Workload::from_name(name).is_some(),
                "unknown workload {name}"
            );
            let e2e: BTreeSet<Def> = e2e(100, std::slice::from_ref(&sample), &[0.1])
                .into_iter()
                .map(|(d, _)| d)
                .collect();
            let layer: BTreeSet<Def> = per_layer(&pass, 1.0).into_iter().map(|(d, _)| d).collect();
            assert_eq!(e2e, defs(&v, "end_to_end").into_iter().collect(), "{name}");
            assert_eq!(layer, defs(&v, "per_layer").into_iter().collect(), "{name}");
        }
    }
}
