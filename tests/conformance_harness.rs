//! End-to-end conformance-harness checks: the smoke grid must certify
//! every covered theorem (no FAILs, no unexpectedly-vacuous cells), the
//! weakened fixture must fail with a shrunken counterexample, and the
//! verdict JSON must be deterministic and schema-valid.

use occ_conformance::{grid, run_grid, RunConfig, Verdict, VerdictTable};
use occ_probe::Json;
use std::collections::BTreeMap;

#[test]
fn smoke_grid_passes_every_non_vacuous_cell() {
    let g = grid("smoke").expect("smoke grid exists");
    let out = run_grid(&g, &RunConfig::default());
    for c in &out.verdicts.cells {
        assert_ne!(
            c.verdict,
            Verdict::Fail,
            "cell {} failed: lhs {} {} rhs {} ({})",
            c.id,
            c.lhs,
            c.op,
            c.rhs,
            c.note
        );
    }
    let (pass, fail, vacuous) = out.verdicts.counts();
    assert_eq!(fail, 0);
    // Exactly the two deliberately-vacuous cells (unbounded α, empty
    // trace) may be vacuous; everything else must be real evidence.
    assert_eq!(
        vacuous,
        2,
        "unexpected vacuous cells:\n{}",
        out.verdicts.to_table()
    );
    assert_eq!(pass, g.cells.len() - 2);
}

#[test]
fn smoke_grid_covers_all_four_paper_statements_non_vacuously() {
    let g = grid("smoke").expect("smoke grid exists");
    let out = run_grid(&g, &RunConfig::default());
    for check in ["T1.1", "T1.3", "C2.3", "T1.4"] {
        assert!(
            out.verdicts
                .cells
                .iter()
                .any(|c| c.check == check && c.verdict == Verdict::Pass),
            "{check} has no passing cell"
        );
    }
}

#[test]
fn full_grid_passes_every_non_vacuous_cell() {
    let g = grid("full").expect("full grid exists");
    let out = run_grid(&g, &RunConfig::default());
    for c in &out.verdicts.cells {
        assert_ne!(
            c.verdict,
            Verdict::Fail,
            "cell {} failed: lhs {} {} rhs {} ({})",
            c.id,
            c.lhs,
            c.op,
            c.rhs,
            c.note
        );
    }
}

#[test]
fn experiment_grids_pass_every_cell() {
    for name in ["e1", "e2", "e3", "e4"] {
        let out = run_grid(&grid(name).unwrap(), &RunConfig::default());
        let (pass, _, _) = out.verdicts.counts();
        assert_eq!(
            pass,
            out.verdicts.cells.len(),
            "{name} must PASS every cell:\n{}",
            out.verdicts.to_table()
        );
        // E1a's two-user cells are certified against the exact OPT,
        // never the heuristic fallback.
        for c in out
            .verdicts
            .cells
            .iter()
            .filter(|c| c.workload == "tinymix")
        {
            assert_eq!(c.oracle, "exact", "{}", c.id);
        }
    }
}

#[test]
fn experiment_grids_ignore_the_grid_seed() {
    // Every e-grid cell pins its seed, so `--seed` cannot move a
    // committed results/conformance-eN.txt number.
    let g = grid("e4").unwrap();
    let a = run_grid(&g, &RunConfig::default()).verdicts;
    let b = run_grid(
        &g,
        &RunConfig {
            seed: 99,
            ..RunConfig::default()
        },
    )
    .verdicts;
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!((x.lhs, x.rhs, &x.note), (y.lhs, y.rhs, &y.note), "{}", x.id);
    }
}

#[test]
fn lower_bound_ratio_grows_strictly_with_n_on_e3() {
    // Theorem 1.4's (n/4)^β growth, read off the e3 verdicts: for each
    // (policy, β), the measured ratio rises strictly along n.
    let out = run_grid(&grid("e3").unwrap(), &RunConfig::default());
    let mut series: BTreeMap<String, Vec<(u32, f64)>> = BTreeMap::new();
    for c in &out.verdicts.cells {
        let key = format!("{} {}", c.policy, c.cost);
        series.entry(key).or_default().push((c.users, c.ratio));
    }
    assert_eq!(series.len(), 9, "3 policies × 3 exponents");
    for (key, mut points) in series {
        points.sort_by_key(|&(n, _)| n);
        assert_eq!(points.len(), 4, "{key}: n ∈ {{5, 9, 17, 33}}");
        for w in points.windows(2) {
            assert!(w[1].1 > w[0].1, "{key}: ratio not growing: {points:?}");
        }
    }
}

#[test]
fn verdict_json_is_deterministic_and_validates() {
    let g = grid("smoke").expect("smoke grid exists");
    let cfg = RunConfig::default();
    let a = run_grid(&g, &cfg).verdicts.to_json();
    let b = run_grid(&g, &cfg).verdicts.to_json();
    assert_eq!(a, b, "same seed must produce byte-identical verdict JSON");
    VerdictTable::validate(&Json::parse(&a).expect("well-formed JSON")).expect("schema-valid");
}

#[test]
fn weakened_fixture_fails_and_shrinks() {
    let g = grid("smoke").expect("smoke grid exists");
    let cfg = RunConfig {
        weaken: 1e-6,
        ..RunConfig::default()
    };
    let out = run_grid(&g, &cfg);
    assert!(out.verdicts.any_fail(), "weakened bounds must be violated");
    let failing: Vec<_> = out
        .verdicts
        .cells
        .iter()
        .filter(|c| c.verdict == Verdict::Fail)
        .collect();
    for c in &failing {
        let s = c
            .shrunk
            .as_ref()
            .unwrap_or_else(|| panic!("failing cell {} has no shrunk counterexample", c.id));
        assert!(s.len <= c.len && s.k <= c.k);
        // A violated "≤" leaves lhs above rhs; a violated "≥" the
        // reverse (Theorem 1.4's growth requirement).
        let still_violated = match c.op {
            "<=" => s.lhs > s.rhs,
            ">=" => s.lhs < s.rhs,
            other => panic!("unknown op {other}"),
        };
        assert!(
            still_violated,
            "shrunk instance must still violate the bound"
        );
    }
}
