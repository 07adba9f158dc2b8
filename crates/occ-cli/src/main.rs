//! `occ` — command-line front end for the online-convex-caching
//! workspace.
//!
//! ```text
//! occ generate --scenario two-tier --len 60k --seed 7 --out trace.occ
//! occ trace pack   --in trace.occ --out trace.occ2
//! occ trace unpack --in trace.occ2 --out trace.occ
//! occ trace import --in accesses.csv --out trace.occ2 --tenants 2
//! occ run      --trace trace.occ --scenario two-tier --policy convex --k 24
//! occ compare  --scenario sqlvm-like --len 60000 --k 96
//! occ mrc      --scenario two-tier --len 40000 --max-k 48
//! occ observe  --scenario two-tier --policy convex --k 24 --out report.json
//!              --checkpoint ckpt.json --checkpoint-every 10000
//! occ resume   --from ckpt.json --scenario two-tier
//! occ soak     --scenario sqlvm-like --len 100M --window 1M --series s.jsonl
//! occ report   --in report.json
//! occ report   --series s.jsonl
//! occ fleet    --scenario sqlvm-like --shards 8 --len 200000 --policy lru
//! occ concurrent --scenario sqlvm-like --threads 4 --table-shards 8 --len 50000
//! occ concurrent --replay schedule.txt --format json
//! occ conformance --grid smoke --out verdicts.json
//! occ scenarios
//! ```
//!
//! Scenarios name both a tenant mix and a cost profile (see
//! `occ_workloads::presets`); policies are the names used throughout the
//! experiment tables.
//!
//! Failures exit with a class-specific code (see [`errors`]): 2 usage,
//! 3 i/o, 4 unparseable file, 5 simulation fault, 6 conformance FAIL
//! (a checked theorem bound was violated), 7 degraded (a supervised
//! fleet quarantined a shard but still wrote its report), 1 anything
//! else.

mod args;
mod commands;
mod errors;

use args::Args;
use errors::CliError;

fn main() {
    let args = match Args::from_env() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if args.help {
        println!("{}", commands::USAGE);
        return;
    }
    // Only `occ trace` takes a second positional (its action).
    if args.action.is_some() && args.command.as_deref() != Some("trace") {
        eprintln!(
            "error: unexpected positional argument '{}'\n",
            args.action.as_deref().unwrap_or("")
        );
        eprintln!("{}", commands::USAGE);
        std::process::exit(2);
    }
    // One set of limits for every command, checked before any work
    // starts: each command takes only the flags its USAGE block lists.
    // A bare `occ` prints the usage, like `occ help`.
    let command = args.command.as_deref().unwrap_or("help");
    let what = std::iter::once("occ")
        .chain(args.command.as_deref())
        .chain(args.action.as_deref())
        .collect::<Vec<_>>()
        .join(" ");
    let checked = commands::accepted_flags(command, args.action.as_deref())
        .map_or(Ok(()), |flags| args.check_flags(&what, &flags))
        .and_then(|()| args.check_json_range())
        .and_then(|()| args.check_cache_sizes())
        .map_err(CliError::Usage);
    let result = checked.and_then(|()| match args.command.as_deref() {
        Some("generate") => commands::generate(&args),
        Some("trace") => commands::trace(&args),
        Some("run") => commands::run(&args),
        Some("compare") => commands::compare(&args),
        Some("mrc") => commands::mrc(&args),
        Some("observe") => commands::observe(&args),
        Some("resume") => commands::resume(&args),
        Some("soak") => commands::soak(&args),
        Some("report") => commands::report(&args),
        Some("fleet") => commands::fleet(&args),
        Some("concurrent") => commands::concurrent(&args),
        Some("conformance") => commands::conformance(&args),
        Some("scenarios") => commands::scenarios(),
        Some("help") | None => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command '{other}'"))),
    });
    if let Err(e) = result {
        eprintln!("error({}): {e}", e.class());
        std::process::exit(e.exit_code());
    }
}
