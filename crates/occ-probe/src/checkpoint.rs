//! On-disk JSON encoding of [`EngineSnapshot`].
//!
//! The in-memory checkpoint lives in `occ-sim`; this module gives it a
//! durable form for `occ observe --checkpoint` / `occ resume`. The
//! encoding must be *lossless* — a resumed run is asserted byte-identical
//! to an uninterrupted one — which rules out the naive number encoding:
//! [`Json`] stores numbers as `f64`, so `u64` sequence counters and RNG
//! words above 2^53 would round, and `f64` dual offsets would be at the
//! mercy of decimal printing. Instead every `u64` is written as a decimal
//! *string* and every `f64` as the decimal string of its IEEE-754 bit
//! pattern, so round-tripping preserves exact bits (including NaN
//! payloads, infinities and `-0.0`).
//!
//! The document leads with a `version` field, checked before anything
//! else on read: an unknown version is rejected as
//! [`SnapshotError::UnsupportedVersion`], never mis-parsed.
//!
//! Format v2 (the only one written) stores the owner table as
//! `"num_pages"` plus `"owner_runs": [[user, length], …]`, so a
//! checkpoint's size follows the cache and the owner runs, not the page
//! universe. The reader also takes v1, whose `"owners"` array holds one
//! entry per page; both decode to the same [`EngineSnapshot`].

use crate::json::{write_escaped, Json};
use occ_sim::error::{FaultCounters, SnapshotError};
use occ_sim::ids::{PageId, UserId};
use occ_sim::snapshot::{EngineSnapshot, PolicyState, StateValue};
use occ_sim::stats::UserStats;
use std::fmt::Write as _;

/// Encode a snapshot as a compact format-v2 JSON string, written
/// straight into one `String`: the fields in order, every `u64` and
/// `f64` as a decimal string, ids and sizes as plain numbers — the same
/// text a [`Json`] tree of the snapshot would print, without building
/// the tree.
pub fn snapshot_to_json(snap: &EngineSnapshot) -> String {
    // The cached pages, and the per-page state policies keep for them,
    // are nearly all of the text.
    let mut out = String::with_capacity(256 + 64 * snap.cache_pages.len());
    out.push_str("{\"version\":");
    plain(&mut out, snap.version);
    out.push_str(",\"time\":");
    quoted(&mut out, snap.time);
    out.push_str(",\"capacity\":");
    plain(&mut out, snap.capacity as u64);
    out.push_str(",\"num_users\":");
    plain(&mut out, snap.num_users as u64);
    out.push_str(",\"num_pages\":");
    plain(&mut out, snap.owners.len() as u64);
    out.push_str(",\"owner_runs\":");
    let runs: Vec<&[UserId]> = snap.owners.chunk_by(|a, b| a == b).collect();
    list(&mut out, &runs, |out, run| {
        out.push('[');
        plain(out, run[0].0 as u64);
        out.push(',');
        plain(out, run.len() as u64);
        out.push(']');
    });
    out.push_str(",\"cache_pages\":");
    list(&mut out, &snap.cache_pages, |out, p| plain(out, p.0 as u64));
    out.push_str(",\"stats\":");
    list(&mut out, &snap.stats, |out, s| {
        out.push_str("{\"hits\":");
        quoted(out, s.hits);
        out.push_str(",\"misses\":");
        quoted(out, s.misses);
        out.push_str(",\"evictions\":");
        quoted(out, s.evictions);
        out.push('}');
    });
    out.push_str(",\"policy_name\":");
    write_escaped(&snap.policy_name, &mut out);
    out.push_str(",\"policy\":");
    list(&mut out, snap.policy.fields(), |out, (k, v)| {
        out.push_str("{\"key\":");
        write_escaped(k, out);
        out.push_str(",\"type\":\"");
        out.push_str(match v {
            StateValue::U64(_) => "u64",
            StateValue::F64(_) => "f64",
            StateValue::U64s(_) => "u64s",
            StateValue::F64s(_) => "f64s",
            StateValue::Text(_) => "text",
        });
        out.push_str("\",\"value\":");
        match v {
            StateValue::U64(x) => quoted(out, *x),
            StateValue::F64(x) => quoted(out, x.to_bits()),
            StateValue::U64s(xs) => list(out, xs, |out, &x| quoted(out, x)),
            StateValue::F64s(xs) => list(out, xs, |out, x| quoted(out, x.to_bits())),
            StateValue::Text(s) => write_escaped(s, out),
        }
        out.push('}');
    });
    let f = &snap.faults;
    out.push_str(",\"faults\":{\"page_out_of_range\":");
    quoted(&mut out, f.page_out_of_range);
    out.push_str(",\"owner_mismatch\":");
    quoted(&mut out, f.owner_mismatch);
    out.push_str(",\"quarantined_drops\":");
    quoted(&mut out, f.quarantined_drops);
    out.push_str(",\"quarantined_users\":");
    quoted(&mut out, f.quarantined_users);
    out.push_str("},\"quarantined\":");
    list(&mut out, &snap.quarantined, |out, u| plain(out, u.0 as u64));
    out.push('}');
    out
}

/// A number field. Like [`Json::from_u64`], refuses values JSON cannot
/// hold exactly.
fn plain(out: &mut String, v: u64) {
    assert!(
        v <= (1u64 << 53),
        "counter {v} exceeds exact f64 range; widen the JSON layer first"
    );
    let _ = write!(out, "{v}");
}

/// A lossless `u64` field: its decimal digits in a string.
fn quoted(out: &mut String, v: u64) {
    let _ = write!(out, "\"{v}\"");
}

/// A JSON array of `items`, each written by `item`.
fn list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Parse and decode a snapshot from JSON text.
pub fn snapshot_from_json(text: &str) -> Result<EngineSnapshot, SnapshotError> {
    let v = Json::parse(text)
        .map_err(|e| SnapshotError::Corrupt(format!("snapshot is not valid JSON: {e}")))?;
    snapshot_from_json_value(&v)
}

/// Decode a snapshot from a JSON value. The `version` field is checked
/// before any other field is touched. A v1 document decodes to the same
/// in-memory snapshot as v2 (stamped [`SNAPSHOT_VERSION`]): only the
/// owner table's layout differs, and policies still load the dense
/// state bags v1 builds wrote.
///
/// [`SNAPSHOT_VERSION`]: occ_sim::SNAPSHOT_VERSION
pub fn snapshot_from_json_value(v: &Json) -> Result<EngineSnapshot, SnapshotError> {
    let version = v
        .get("version")
        .ok_or_else(|| SnapshotError::MissingField("version".into()))?
        .as_u64()
        .ok_or_else(|| SnapshotError::Corrupt("version is not an unsigned integer".into()))?;
    if version != 1 && version != occ_sim::SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            expected: occ_sim::SNAPSHOT_VERSION,
        });
    }
    let time = read_u64(v, "time")?;
    let capacity = read_plain_u64(v, "capacity")? as usize;
    let num_users = read_u32(v, "num_users")?;
    let owners = if version == 1 {
        read_id_array(v, "owners")?
            .into_iter()
            .map(UserId)
            .collect()
    } else {
        read_owner_runs(v, num_users)?
    };
    let cache_pages = read_id_array(v, "cache_pages")?
        .into_iter()
        .map(PageId)
        .collect();
    let stats = read_array(v, "stats")?
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Ok(UserStats {
                hits: read_u64(s, "hits").map_err(|e| nested(&format!("stats[{i}]"), e))?,
                misses: read_u64(s, "misses").map_err(|e| nested(&format!("stats[{i}]"), e))?,
                evictions: read_u64(s, "evictions")
                    .map_err(|e| nested(&format!("stats[{i}]"), e))?,
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let policy_name = read_str(v, "policy_name")?.to_string();
    let mut policy = PolicyState::new();
    for (i, f) in read_array(v, "policy")?.iter().enumerate() {
        let at = format!("policy[{i}]");
        let key = read_str(f, "key").map_err(|e| nested(&at, e))?;
        let tag = read_str(f, "type").map_err(|e| nested(&at, e))?;
        let value = f
            .get("value")
            .ok_or_else(|| SnapshotError::MissingField(format!("{at}.value")))?;
        let value = match tag {
            "u64" => StateValue::U64(parse_u64(value, &at)?),
            "f64" => StateValue::F64(parse_f64_bits(value, &at)?),
            "u64s" => StateValue::U64s(
                value
                    .as_array()
                    .ok_or_else(|| SnapshotError::Corrupt(format!("{at}.value is not an array")))?
                    .iter()
                    .map(|x| parse_u64(x, &at))
                    .collect::<Result<_, _>>()?,
            ),
            "f64s" => StateValue::F64s(
                value
                    .as_array()
                    .ok_or_else(|| SnapshotError::Corrupt(format!("{at}.value is not an array")))?
                    .iter()
                    .map(|x| parse_f64_bits(x, &at))
                    .collect::<Result<_, _>>()?,
            ),
            "text" => StateValue::Text(
                value
                    .as_str()
                    .ok_or_else(|| SnapshotError::Corrupt(format!("{at}.value is not a string")))?
                    .to_string(),
            ),
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "{at} has unknown type tag '{other}'"
                )))
            }
        };
        policy.set(key, value);
    }
    let fv = v
        .get("faults")
        .ok_or_else(|| SnapshotError::MissingField("faults".into()))?;
    let faults = FaultCounters {
        page_out_of_range: read_u64(fv, "page_out_of_range")?,
        owner_mismatch: read_u64(fv, "owner_mismatch")?,
        quarantined_drops: read_u64(fv, "quarantined_drops")?,
        quarantined_users: read_u64(fv, "quarantined_users")?,
    };
    let quarantined = read_id_array(v, "quarantined")?
        .into_iter()
        .map(UserId)
        .collect();
    Ok(EngineSnapshot {
        version: occ_sim::SNAPSHOT_VERSION,
        time,
        capacity,
        num_users,
        owners,
        cache_pages,
        stats,
        policy_name,
        policy,
        faults,
        quarantined,
    })
}

/// The largest page universe a checkpoint may describe, the same
/// ceiling as occbin02's header: page ids are `u32`.
const MAX_PAGES: u64 = 1 << 32;

/// Expand v2's `num_pages` and `owner_runs` into the owner table. Every
/// run is checked (user in range, length ≥ 1) and the lengths must sum
/// to `num_pages` before the table is allocated, so a hostile length
/// costs nothing.
fn read_owner_runs(v: &Json, num_users: u32) -> Result<Vec<UserId>, SnapshotError> {
    let corrupt = |msg: String| Err(SnapshotError::Corrupt(msg));
    let num_pages = read_plain_u64(v, "num_pages")?;
    if num_pages > MAX_PAGES {
        return corrupt(format!(
            "num_pages = {num_pages} exceeds the 2^32-page ceiling"
        ));
    }
    let runs = read_array(v, "owner_runs")?;
    let run = |i: usize, r: &Json| -> Result<(u32, u64), SnapshotError> {
        let bad =
            || SnapshotError::Corrupt(format!("owner_runs[{i}] is not a [user, length] pair"));
        match r.as_array().ok_or_else(bad)? {
            [u, len] => {
                let u = u.as_u64().ok_or_else(bad)?;
                let len = len.as_u64().ok_or_else(bad)?;
                if u >= num_users as u64 {
                    return Err(SnapshotError::Corrupt(format!(
                        "owner_runs[{i}] names user {u} but the snapshot has {num_users} users"
                    )));
                }
                if len == 0 {
                    return Err(SnapshotError::Corrupt(format!(
                        "owner_runs[{i}] has length 0"
                    )));
                }
                Ok((u as u32, len))
            }
            _ => Err(bad()),
        }
    };
    let mut total = 0u64;
    for (i, r) in runs.iter().enumerate() {
        total = total.saturating_add(run(i, r)?.1);
        if total > num_pages {
            return corrupt(format!(
                "owner_runs cover more than num_pages = {num_pages} pages"
            ));
        }
    }
    if total != num_pages {
        return corrupt(format!(
            "owner_runs cover {total} pages but num_pages = {num_pages}"
        ));
    }
    let mut owners = Vec::with_capacity(num_pages as usize);
    for (i, r) in runs.iter().enumerate() {
        let (u, len) = run(i, r)?;
        owners.resize(owners.len() + len as usize, UserId(u));
    }
    Ok(owners)
}

fn nested(at: &str, e: SnapshotError) -> SnapshotError {
    match e {
        SnapshotError::MissingField(k) => SnapshotError::MissingField(format!("{at}.{k}")),
        SnapshotError::Corrupt(m) => SnapshotError::Corrupt(format!("{at}: {m}")),
        other => other,
    }
}

fn parse_u64(v: &Json, what: &str) -> Result<u64, SnapshotError> {
    v.as_str()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| {
            SnapshotError::Corrupt(format!("{what} is not a u64-in-a-string: {}", v.to_json()))
        })
}

fn parse_f64_bits(v: &Json, what: &str) -> Result<f64, SnapshotError> {
    parse_u64(v, what).map(f64::from_bits)
}

fn read_u64(v: &Json, key: &str) -> Result<u64, SnapshotError> {
    let field = v
        .get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?;
    parse_u64(field, key)
}

fn read_plain_u64(v: &Json, key: &str) -> Result<u64, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?
        .as_u64()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{key} is not an unsigned integer")))
}

fn read_u32(v: &Json, key: &str) -> Result<u32, SnapshotError> {
    let x = read_plain_u64(v, key)?;
    u32::try_from(x).map_err(|_| SnapshotError::Corrupt(format!("{key} = {x} overflows u32")))
}

fn read_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?
        .as_str()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{key} is not a string")))
}

fn read_array<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], SnapshotError> {
    v.get(key)
        .ok_or_else(|| SnapshotError::MissingField(key.into()))?
        .as_array()
        .ok_or_else(|| SnapshotError::Corrupt(format!("{key} is not an array")))
}

fn read_id_array(v: &Json, key: &str) -> Result<Vec<u32>, SnapshotError> {
    read_array(v, key)?
        .iter()
        .map(|x| {
            x.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("{key} entry is not a u32: {}", x.to_json()))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_baselines::RandomizedMarking;
    use occ_sim::prelude::*;

    fn live_snapshot() -> EngineSnapshot {
        // A real engine mid-run, with RNG words in the policy bag — the
        // values most likely to expose lossy encoding.
        let u = Universe::uniform(3, 4);
        let mut eng = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(0xDEAD_BEEF));
        for i in 0..97u32 {
            eng.step(u.request(PageId((i * 7 + 1) % 12)));
        }
        eng.snapshot().unwrap()
    }

    /// The snapshot as a [`Json`] tree, field by field: the reference
    /// [`snapshot_to_json`] must print the same text as.
    fn tree(snap: &EngineSnapshot) -> Json {
        let u64_str = |v: u64| Json::Str(v.to_string());
        let ids =
            |xs: Vec<u32>| Json::Arr(xs.into_iter().map(|x| Json::from_u64(x as u64)).collect());
        let stats = snap
            .stats
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("hits".into(), u64_str(s.hits)),
                    ("misses".into(), u64_str(s.misses)),
                    ("evictions".into(), u64_str(s.evictions)),
                ])
            })
            .collect();
        let policy = snap
            .policy
            .fields()
            .iter()
            .map(|(k, v)| {
                let (tag, value) = match v {
                    StateValue::U64(x) => ("u64", u64_str(*x)),
                    StateValue::F64(x) => ("f64", u64_str(x.to_bits())),
                    StateValue::U64s(xs) => {
                        ("u64s", Json::Arr(xs.iter().map(|&x| u64_str(x)).collect()))
                    }
                    StateValue::F64s(xs) => (
                        "f64s",
                        Json::Arr(xs.iter().map(|x| u64_str(x.to_bits())).collect()),
                    ),
                    StateValue::Text(s) => ("text", Json::Str(s.clone())),
                };
                Json::Obj(vec![
                    ("key".into(), Json::Str(k.clone())),
                    ("type".into(), Json::Str(tag.into())),
                    ("value".into(), value),
                ])
            })
            .collect();
        let f = &snap.faults;
        Json::Obj(vec![
            ("version".into(), Json::from_u64(snap.version)),
            ("time".into(), u64_str(snap.time)),
            ("capacity".into(), Json::from_u64(snap.capacity as u64)),
            ("num_users".into(), Json::from_u64(snap.num_users as u64)),
            ("num_pages".into(), Json::from_u64(snap.owners.len() as u64)),
            (
                "owner_runs".into(),
                Json::Arr(
                    snap.owners
                        .chunk_by(|a, b| a == b)
                        .map(|run| ids(vec![run[0].0, run.len() as u32]))
                        .collect(),
                ),
            ),
            (
                "cache_pages".into(),
                ids(snap.cache_pages.iter().map(|p| p.0).collect()),
            ),
            ("stats".into(), Json::Arr(stats)),
            ("policy_name".into(), Json::Str(snap.policy_name.clone())),
            ("policy".into(), Json::Arr(policy)),
            (
                "faults".into(),
                Json::Obj(vec![
                    ("page_out_of_range".into(), u64_str(f.page_out_of_range)),
                    ("owner_mismatch".into(), u64_str(f.owner_mismatch)),
                    ("quarantined_drops".into(), u64_str(f.quarantined_drops)),
                    ("quarantined_users".into(), u64_str(f.quarantined_users)),
                ]),
            ),
            (
                "quarantined".into(),
                ids(snap.quarantined.iter().map(|u| u.0).collect()),
            ),
        ])
    }

    #[test]
    fn direct_writer_prints_the_tree_text() {
        let mut snap = live_snapshot();
        assert_eq!(snapshot_to_json(&snap), tree(&snap).to_json());
        // Every value type, text that needs escaping, and the widest
        // numbers either side of the string/number split.
        snap.policy.set_f64("nan", f64::NAN);
        snap.policy.set_f64("neg zero", -0.0);
        snap.policy.set_u64("big", u64::MAX);
        snap.policy.set_u64s("words", vec![0, 1, u64::MAX, 1 << 53]);
        snap.policy
            .set_f64s("mix", vec![f64::INFINITY, 1e300, -f64::EPSILON]);
        snap.policy.set(
            "note\t\"q\"",
            StateValue::Text("line\nbreak \\ \u{1}é".into()),
        );
        snap.policy_name = "weird \"name\"".into();
        snap.capacity = 1 << 53;
        snap.time = u64::MAX;
        snap.faults.owner_mismatch = u64::MAX - 1;
        snap.quarantined = vec![UserId(2), UserId(0)];
        assert_eq!(snapshot_to_json(&snap), tree(&snap).to_json());
        assert_eq!(
            snapshot_from_json(&snapshot_to_json(&snap)).unwrap().time,
            u64::MAX
        );
    }

    #[test]
    fn round_trip_is_exact() {
        let snap = live_snapshot();
        let back = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn extreme_floats_and_counters_survive() {
        let mut snap = live_snapshot();
        snap.policy.set_f64("weird", -0.0);
        snap.policy.set_f64("inf", f64::NEG_INFINITY);
        snap.policy.set_f64("nan", f64::NAN);
        snap.policy.set_u64("big", u64::MAX);
        snap.policy
            .set_f64s("mix", vec![f64::MIN_POSITIVE, 1e300, f64::EPSILON]);
        let back = snapshot_from_json(&snapshot_to_json(&snap)).unwrap();
        // PartialEq on f64 treats NaN != NaN, so compare bits explicitly.
        assert_eq!(
            match back.policy.get("nan").unwrap() {
                StateValue::F64(x) => x.to_bits(),
                _ => panic!(),
            },
            f64::NAN.to_bits()
        );
        assert_eq!(
            back.policy.f64("weird").unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.policy.f64("inf").unwrap(), f64::NEG_INFINITY);
        assert_eq!(back.policy.u64("big").unwrap(), u64::MAX);
        assert_eq!(
            back.policy.f64s("mix").unwrap(),
            &[f64::MIN_POSITIVE, 1e300, f64::EPSILON]
        );
    }

    #[test]
    fn unknown_version_is_rejected_before_anything_else() {
        let snap = live_snapshot();
        // Bump the version and gut the rest: the reader must fail on the
        // version, not on the missing/garbled remainder.
        let text = format!(
            r#"{{"version": {}, "time": "not even a number"}}"#,
            SNAPSHOT_VERSION + 3
        );
        let err = snapshot_from_json(&text).unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::UnsupportedVersion { found, expected }
                if found == SNAPSHOT_VERSION + 3 && expected == SNAPSHOT_VERSION
        ));
        drop(snap);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let snap = live_snapshot();
        let good = snapshot_to_json(&snap);
        assert!(matches!(
            snapshot_from_json("{nope").unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
        assert!(matches!(
            snapshot_from_json("{}").unwrap_err(),
            SnapshotError::MissingField(f) if f == "version"
        ));
        // Flip the exact-integer time string into a float.
        let bad = good.replace(&format!("\"time\":\"{}\"", snap.time), "\"time\":\"1.5\"");
        assert_ne!(bad, good);
        assert!(matches!(
            snapshot_from_json(&bad).unwrap_err(),
            SnapshotError::Corrupt(m) if m.contains("time")
        ));
    }

    /// `good` with its owner table replaced by `num_pages` and `runs`.
    fn with_runs(good: &str, num_pages: &str, runs: &str) -> String {
        let start = good.find(",\"num_pages\":").unwrap();
        let end = good.find(",\"cache_pages\":").unwrap();
        format!(
            "{},\"num_pages\":{num_pages},\"owner_runs\":{runs}{}",
            &good[..start],
            &good[end..]
        )
    }

    #[test]
    fn owner_table_travels_as_runs() {
        let snap = live_snapshot();
        let text = snapshot_to_json(&snap);
        assert!(text.contains(",\"num_pages\":12,\"owner_runs\":[[0,4],[1,4],[2,4]],"));
        assert!(!text.contains("\"owners\""));
        // Runs split wherever the owner changes, however often.
        let mut snap = snap;
        snap.owners = [0, 0, 1, 0, 2, 2].map(UserId).to_vec();
        let text = snapshot_to_json(&snap);
        assert!(text.contains("\"owner_runs\":[[0,2],[1,1],[0,1],[2,2]]"));
        assert_eq!(snapshot_from_json(&text).unwrap().owners, snap.owners);
        snap.owners.clear();
        let text = snapshot_to_json(&snap);
        assert!(text.contains("\"num_pages\":0,\"owner_runs\":[]"));
        assert!(snapshot_from_json(&text).unwrap().owners.is_empty());
    }

    #[test]
    fn malformed_owner_runs_are_corrupt() {
        let good = snapshot_to_json(&live_snapshot());
        assert!(snapshot_from_json(&with_runs(&good, "12", "[[0,4],[1,4],[2,4]]")).is_ok());
        for (why, num_pages, runs) in [
            ("zero length", "12", "[[0,4],[1,0],[2,8]]"),
            ("user out of range", "12", "[[0,4],[3,4],[2,4]]"),
            ("sum below num_pages", "12", "[[0,4],[1,4]]"),
            ("sum above num_pages", "12", "[[0,4],[1,4],[2,5]]"),
            ("num_pages above 2^32", "4294967297", "[[0,4294967297]]"),
            ("a run of 2^40", "12", "[[0,1099511627776]]"),
            (
                "a run of 2^40 under a 2^32 universe",
                "4294967296",
                "[[0,1099511627776]]",
            ),
            ("not a pair", "12", "[[0,4,1],[1,4],[2,4]]"),
            ("not an array", "12", "{}"),
            ("negative length", "12", "[[0,-4]]"),
            ("missing num_pages", "null", "[[0,12]]"),
        ] {
            let err = snapshot_from_json(&with_runs(&good, num_pages, runs)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{why}: got {err}");
        }
        let no_pages = good.replace(",\"num_pages\":12", "");
        assert!(matches!(
            snapshot_from_json(&no_pages).unwrap_err(),
            SnapshotError::MissingField(f) if f == "num_pages"
        ));
    }

    #[test]
    fn version_1_documents_still_decode() {
        // v1 carried the owner table as one entry per page; the rest of
        // the document is laid out as in v2.
        let snap = live_snapshot();
        let good = snapshot_to_json(&snap);
        let owners = format!(
            "[{}]",
            snap.owners
                .iter()
                .map(|u| u.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        let start = good.find(",\"num_pages\":").unwrap();
        let end = good.find(",\"cache_pages\":").unwrap();
        let v1 = format!(
            "{{\"version\":1{},\"owners\":{owners}{}",
            &good["{\"version\":2".len()..start],
            &good[end..]
        );
        assert!(v1.starts_with("{\"version\":1,\"time\":"));
        assert_eq!(snapshot_from_json(&v1).unwrap(), snap);
        // Owner runs are not v1, nor a dense table v2.
        let mixed = v1.replacen("{\"version\":1", "{\"version\":2", 1);
        assert!(matches!(
            snapshot_from_json(&mixed).unwrap_err(),
            SnapshotError::MissingField(f) if f == "num_pages"
        ));
        let mixed = good.replacen("{\"version\":2", "{\"version\":1", 1);
        assert!(matches!(
            snapshot_from_json(&mixed).unwrap_err(),
            SnapshotError::MissingField(f) if f == "owners"
        ));
        for version in [0, 3] {
            let text = good.replacen("{\"version\":2", &format!("{{\"version\":{version}"), 1);
            assert!(matches!(
                snapshot_from_json(&text).unwrap_err(),
                SnapshotError::UnsupportedVersion { found, .. } if found == version
            ));
        }
    }

    #[test]
    fn alg_discrete_checkpoint_is_sized_by_the_cache() {
        use occ_core::{ConvexCaching, CostProfile, Monomial};
        // 65,536 pages in four owner runs, k = 64: the checkpoint holds
        // the k cached pages' state and four runs, not 65,536 of either.
        let u = Universe::uniform(4, 16_384);
        let costs = CostProfile::uniform(4, Monomial::power(2.0));
        let mut eng = SteppingEngine::new(64, u.clone(), ConvexCaching::new(costs));
        let mut x = 0x9E37_79B9u32;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            eng.step(u.request(PageId(x % 65_536)));
        }
        let snap = eng.snapshot().unwrap();
        assert_eq!(snap.policy.u64s("pages").unwrap().len(), 64);
        let text = snapshot_to_json(&snap);
        assert!(text.len() < 8 * 1024, "checkpoint is {} bytes", text.len());
        assert_eq!(snapshot_from_json(&text).unwrap(), snap);
    }

    #[test]
    fn decoded_snapshot_restores_into_an_engine() {
        // End-to-end: snapshot → JSON → decode → fresh engine → identical
        // continuation.
        let u = Universe::uniform(3, 4);
        let mut full = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(7));
        let mut head = SteppingEngine::new(5, u.clone(), RandomizedMarking::new(7));
        let reqs: Vec<Request> = (0..200u32)
            .map(|i| u.request(PageId((i * 5 + 2) % 12)))
            .collect();
        for r in &reqs {
            full.step(*r);
        }
        for r in &reqs[..80] {
            head.step(*r);
        }
        let snap = snapshot_from_json(&snapshot_to_json(&head.snapshot().unwrap())).unwrap();
        let mut tail = SteppingEngine::from_snapshot(&snap, RandomizedMarking::new(999)).unwrap();
        for r in &reqs[80..] {
            tail.step(*r);
        }
        assert_eq!(tail.stats(), full.stats());
        assert_eq!(tail.cache().pages(), full.cache().pages());
    }
}
