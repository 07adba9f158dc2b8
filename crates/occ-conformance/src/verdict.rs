//! The verdict table: per-cell PASS/FAIL/VACUOUS records, the
//! schema-stamped JSON interchange form, and the `occ conformance`
//! table rendering.
//!
//! Determinism contract: [`VerdictTable::to_json`] is a pure function
//! of the grid, seed, and weaken factor — it carries **no wall-clock
//! timings, thread counts, or host details** — so two runs with the
//! same inputs produce byte-identical JSON (the CI gate diffs them).

use crate::shrink::Shrunk;
use occ_analysis::{fnum, Table};
use occ_probe::Json;

/// Verdict-table schema version (bump when keys change shape).
pub const CONFORMANCE_SCHEMA: u64 = 1;

/// Keys every verdict table must carry at the top level.
pub const REQUIRED_KEYS: &[&str] = &["schema", "grid", "seed", "weaken", "cells", "summary"];

/// The outcome of one cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The bound was evaluated and holds.
    Pass,
    /// The bound was evaluated and is violated.
    Fail,
    /// The bound says nothing on this instance (unbounded `α`, zero
    /// cost on both sides, …) — neither evidence for nor against.
    Vacuous,
}

impl Verdict {
    /// Stable string form used in JSON and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Vacuous => "VACUOUS",
        }
    }

    /// Parse the string form back.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "PASS" => Some(Verdict::Pass),
            "FAIL" => Some(Verdict::Fail),
            "VACUOUS" => Some(Verdict::Vacuous),
            _ => None,
        }
    }
}

/// One row of the verdict table.
#[derive(Clone, Debug)]
pub struct CellVerdict {
    /// Stable cell id (see `Cell::id`).
    pub id: String,
    /// Which statement was checked ("T1.1", "T1.3", "C2.3", "T1.4").
    pub check: &'static str,
    /// Online policy name.
    pub policy: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Cost-profile name.
    pub cost: String,
    /// Number of users `n`.
    pub users: u32,
    /// Online cache size `k`.
    pub k: usize,
    /// Offline cache size `h` for bi-criteria cells.
    pub h: Option<usize>,
    /// Trace length `T`.
    pub len: usize,
    /// Offline reference used: "belady" (exact, single user), "exact"
    /// (exact_opt), "heuristic" (upper bound on OPT — necessary-side
    /// check only), "batch" (§4 schedule), or "none".
    pub oracle: &'static str,
    /// Curvature constant `α` of the cost profile, when bounded.
    pub alpha: Option<f64>,
    /// Comparison direction: `"<="` for upper bounds, `">="` for the
    /// Theorem 1.4 growth requirement.
    pub op: &'static str,
    /// Left-hand side of the comparison (online cost, or the measured
    /// ratio for T1.4, or the Claim 2.3 derivative term).
    pub lhs: f64,
    /// Right-hand side (the theorem's bound after any weaken scaling).
    pub rhs: f64,
    /// Online total cost `Σ f_i(a_i)`.
    pub online_cost: f64,
    /// Offline reference cost (0 when no offline run is involved).
    pub offline_cost: f64,
    /// `online_cost / offline_cost` (∞ serialises as null).
    pub ratio: f64,
    /// The outcome.
    pub verdict: Verdict,
    /// Human-readable context ("why vacuous", oracle caveats, …).
    pub note: String,
    /// Minimal counterexample found by the shrinker, on FAIL.
    pub shrunk: Option<Shrunk>,
}

/// The full result of a grid run.
#[derive(Clone, Debug)]
pub struct VerdictTable {
    /// Grid name.
    pub grid: String,
    /// Grid seed.
    pub seed: u64,
    /// Every cell pins its own seed (the experiment grids), so `seed`
    /// moved nothing: the table says so instead of printing it (the
    /// JSON keeps the key and its value, as its schema requires).
    pub seeds_pinned: bool,
    /// Bound-weakening factor (1.0 = the theorems as stated).
    pub weaken: f64,
    /// One verdict per cell, in grid order.
    pub cells: Vec<CellVerdict>,
}

impl VerdictTable {
    /// `(pass, fail, vacuous)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for cell in &self.cells {
            match cell.verdict {
                Verdict::Pass => c.0 += 1,
                Verdict::Fail => c.1 += 1,
                Verdict::Vacuous => c.2 += 1,
            }
        }
        c
    }

    /// Whether any cell FAILed.
    pub fn any_fail(&self) -> bool {
        self.cells.iter().any(|c| c.verdict == Verdict::Fail)
    }

    /// Serialize to the schema-stamped JSON object (deterministic key
    /// and cell order; no timings).
    pub fn to_json_value(&self) -> Json {
        let (pass, fail, vacuous) = self.counts();
        let cells: Vec<Json> = self.cells.iter().map(cell_to_json).collect();
        Json::Obj(vec![
            ("schema".into(), Json::from_u64(CONFORMANCE_SCHEMA)),
            ("grid".into(), Json::Str(self.grid.clone())),
            ("seed".into(), Json::from_u64(self.seed)),
            ("weaken".into(), Json::Num(self.weaken)),
            ("cells".into(), Json::Arr(cells)),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("total".into(), Json::from_u64(self.cells.len() as u64)),
                    ("pass".into(), Json::from_u64(pass as u64)),
                    ("fail".into(), Json::from_u64(fail as u64)),
                    ("vacuous".into(), Json::from_u64(vacuous as u64)),
                ]),
            ),
        ])
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Check that `v` is a structurally valid verdict table: matching
    /// schema stamp first, then [`REQUIRED_KEYS`], well-formed cells,
    /// and a summary that agrees with the cell list.
    pub fn validate(v: &Json) -> Result<(), String> {
        occ_probe::check_schema_stamp(v, CONFORMANCE_SCHEMA, "verdict table")?;
        for key in REQUIRED_KEYS {
            if v.get(key).is_none() {
                return Err(format!("verdict table missing required key '{key}'"));
            }
        }
        let cells = v
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("'cells' must be an array")?;
        let mut counted = (0u64, 0u64, 0u64);
        for (i, cell) in cells.iter().enumerate() {
            for key in ["id", "check", "verdict", "op", "lhs", "rhs"] {
                if cell.get(key).is_none() {
                    return Err(format!("cell {i} missing required key '{key}'"));
                }
            }
            let verdict = cell
                .get("verdict")
                .and_then(Json::as_str)
                .and_then(Verdict::parse)
                .ok_or_else(|| format!("cell {i} has an unknown verdict"))?;
            match verdict {
                Verdict::Pass => counted.0 += 1,
                Verdict::Fail => counted.1 += 1,
                Verdict::Vacuous => counted.2 += 1,
            }
        }
        let summary = |key: &str| {
            v.get("summary")
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("summary missing '{key}'"))
        };
        let claimed = (summary("pass")?, summary("fail")?, summary("vacuous")?);
        if claimed != counted || summary("total")? != cells.len() as u64 {
            return Err(format!(
                "summary disagrees with cells: claimed {claimed:?}, counted {counted:?}"
            ));
        }
        Ok(())
    }

    /// Render as aligned text tables (the `occ conformance` output),
    /// in the same style as `occ report`.
    pub fn to_table(&self) -> String {
        let (pass, fail, vacuous) = self.counts();
        let mut out = String::new();
        let mut summary = Table::new(vec!["metric", "value"]);
        summary.row(vec!["grid".to_string(), self.grid.clone()]);
        let seed = if self.seeds_pinned {
            "pinned per cell".to_string()
        } else {
            self.seed.to_string()
        };
        summary.row(vec!["seed".to_string(), seed]);
        summary.row(vec!["weaken".to_string(), fnum(self.weaken)]);
        summary.row(vec!["cells".to_string(), self.cells.len().to_string()]);
        summary.row(vec!["pass".to_string(), pass.to_string()]);
        summary.row(vec!["fail".to_string(), fail.to_string()]);
        summary.row(vec!["vacuous".to_string(), vacuous.to_string()]);
        out.push_str(&summary.to_markdown());
        out.push('\n');

        let mut t = Table::new(vec![
            "cell", "verdict", "lhs", "op", "rhs", "ratio", "online", "offline", "oracle", "note",
        ]);
        for c in &self.cells {
            t.row(vec![
                c.id.clone(),
                c.verdict.as_str().to_string(),
                fnum(c.lhs),
                c.op.to_string(),
                fnum(c.rhs),
                if c.ratio.is_finite() {
                    fnum(c.ratio)
                } else {
                    "inf".to_string()
                },
                fnum(c.online_cost),
                fnum(c.offline_cost),
                c.oracle.to_string(),
                c.note.clone(),
            ]);
        }
        out.push_str(&t.to_markdown());

        let shrunk: Vec<&CellVerdict> = self.cells.iter().filter(|c| c.shrunk.is_some()).collect();
        if !shrunk.is_empty() {
            let mut t = Table::new(vec!["failing cell", "shrunk len", "shrunk k", "lhs", "rhs"]);
            for c in shrunk {
                let s = c.shrunk.as_ref().expect("filtered on is_some");
                t.row(vec![
                    c.id.clone(),
                    s.len.to_string(),
                    s.k.to_string(),
                    fnum(s.lhs),
                    fnum(s.rhs),
                ]);
            }
            out.push('\n');
            out.push_str(&t.to_markdown());
        }
        out
    }
}

fn opt_num(x: Option<f64>) -> Json {
    match x {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

fn cell_to_json(c: &CellVerdict) -> Json {
    let shrunk = match &c.shrunk {
        Some(s) => Json::Obj(vec![
            ("len".into(), Json::from_u64(s.len as u64)),
            ("k".into(), Json::from_u64(s.k as u64)),
            ("lhs".into(), Json::Num(s.lhs)),
            ("rhs".into(), Json::Num(s.rhs)),
        ]),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("id".into(), Json::Str(c.id.clone())),
        ("check".into(), Json::Str(c.check.into())),
        ("policy".into(), Json::Str(c.policy.into())),
        ("workload".into(), Json::Str(c.workload.into())),
        ("cost".into(), Json::Str(c.cost.clone())),
        ("users".into(), Json::from_u64(c.users as u64)),
        ("k".into(), Json::from_u64(c.k as u64)),
        (
            "h".into(),
            match c.h {
                Some(h) => Json::from_u64(h as u64),
                None => Json::Null,
            },
        ),
        ("len".into(), Json::from_u64(c.len as u64)),
        ("oracle".into(), Json::Str(c.oracle.into())),
        ("alpha".into(), opt_num(c.alpha)),
        ("op".into(), Json::Str(c.op.into())),
        ("lhs".into(), Json::Num(c.lhs)),
        ("rhs".into(), Json::Num(c.rhs)),
        ("online_cost".into(), Json::Num(c.online_cost)),
        ("offline_cost".into(), Json::Num(c.offline_cost)),
        ("ratio".into(), Json::Num(c.ratio)),
        ("verdict".into(), Json::Str(c.verdict.as_str().into())),
        ("note".into(), Json::Str(c.note.clone())),
        ("shrunk".into(), shrunk),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell(verdict: Verdict) -> CellVerdict {
        CellVerdict {
            id: "t11-convex-cycle-mono2-u1-p5-k4-t200".into(),
            check: "T1.1",
            policy: "convex",
            workload: "cycle",
            cost: "mono2".into(),
            users: 1,
            k: 4,
            h: None,
            len: 200,
            oracle: "belady",
            alpha: Some(2.0),
            op: "<=",
            lhs: 100.0,
            rhs: 200.0,
            online_cost: 100.0,
            offline_cost: 25.0,
            ratio: 4.0,
            verdict,
            note: String::new(),
            shrunk: None,
        }
    }

    fn sample_table() -> VerdictTable {
        VerdictTable {
            grid: "smoke".into(),
            seed: 7,
            seeds_pinned: false,
            weaken: 1.0,
            cells: vec![sample_cell(Verdict::Pass), sample_cell(Verdict::Vacuous)],
        }
    }

    #[test]
    fn json_round_trips_and_validates() {
        let t = sample_table();
        let v = Json::parse(&t.to_json()).unwrap();
        VerdictTable::validate(&v).unwrap();
        assert_eq!(v.get("grid").and_then(Json::as_str), Some("smoke"));
        let cells = v.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].get("verdict").and_then(Json::as_str), Some("PASS"));
    }

    #[test]
    fn validate_rejects_wrong_schema_and_bad_summary() {
        let err = VerdictTable::validate(&Json::parse(r#"{"schema": 99}"#).unwrap()).unwrap_err();
        assert!(err.contains("schema 99 unsupported"), "got: {err}");

        // Tamper with the summary: counts no longer match the cells.
        let t = sample_table();
        let tampered = t.to_json().replace(r#""pass":1"#, r#""pass":2"#);
        let err = VerdictTable::validate(&Json::parse(&tampered).unwrap()).unwrap_err();
        assert!(err.contains("summary disagrees"), "got: {err}");

        // An unknown verdict string is rejected.
        let bad = t.to_json().replace("VACUOUS", "MAYBE");
        assert!(VerdictTable::validate(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn counts_and_any_fail() {
        let mut t = sample_table();
        assert_eq!(t.counts(), (1, 0, 1));
        assert!(!t.any_fail());
        t.cells.push(sample_cell(Verdict::Fail));
        assert!(t.any_fail());
        assert_eq!(t.counts(), (1, 1, 1));
    }

    #[test]
    fn table_rendering_includes_shrunk_section_only_on_fail() {
        let mut t = sample_table();
        assert!(!t.to_table().contains("shrunk len"));
        let mut failing = sample_cell(Verdict::Fail);
        failing.shrunk = Some(Shrunk {
            len: 12,
            k: 2,
            lhs: 9.0,
            rhs: 8.0,
        });
        t.cells.push(failing);
        let text = t.to_table();
        assert!(text.contains("shrunk len"));
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn infinite_ratio_serializes_as_null() {
        let mut t = sample_table();
        t.cells[0].ratio = f64::INFINITY;
        let v = Json::parse(&t.to_json()).unwrap();
        let cells = v.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells[0].get("ratio"), Some(&Json::Null));
        VerdictTable::validate(&v).unwrap();
    }

    #[test]
    fn verdict_strings_round_trip() {
        for v in [Verdict::Pass, Verdict::Fail, Verdict::Vacuous] {
            assert_eq!(Verdict::parse(v.as_str()), Some(v));
        }
        assert_eq!(Verdict::parse("maybe"), None);
    }
}
