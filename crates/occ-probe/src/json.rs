//! A minimal JSON reader/writer.
//!
//! The workspace builds offline against a no-op `serde` stub (see
//! `vendor/serde`), so anything that must *round-trip* — histogram
//! snapshots, metrics reports, the `occ report` subcommand — needs a
//! real serializer. This module implements the subset of JSON the probe
//! layer emits and consumes: objects, arrays, strings with escapes,
//! numbers (parsed as `f64`, written losslessly for `u64` counters via
//! [`Json::from_u64`]), booleans and null. It is not a general-purpose
//! JSON library and deliberately rejects inputs deeper than
//! [`MAX_DEPTH`].

use std::fmt::Write as _;

/// Maximum nesting depth accepted by the parser (stack-overflow guard).
pub const MAX_DEPTH: usize = 64;

/// Validate the `schema` stamp of a schema-stamped document (`what`
/// names the document kind in error messages, e.g. "report").
///
/// Shared by every stamped format (observe reports, conformance verdict
/// tables): the stamp is checked *before* any other key, so a document
/// from a future version fails with "unsupported schema" rather than a
/// misleading missing-key complaint about keys that version legitimately
/// renamed or dropped.
pub fn check_schema_stamp(v: &Json, expected: u64, what: &str) -> Result<u64, String> {
    let schema = v
        .get("schema")
        .ok_or_else(|| format!("{what} has no 'schema' stamp"))?
        .as_u64()
        .ok_or("'schema' must be an unsigned integer")?;
    if schema != expected {
        return Err(format!(
            "{what} schema {schema} unsupported (this build reads schema {expected})"
        ));
    }
    Ok(schema)
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number. Stored as `f64`; u64 counters ≤ 2^53 survive exactly.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last one wins on
    /// [`get`](Json::get) lookups performed front-to-back — we keep the
    /// first match, matching the emit side which never duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from a `u64` counter. Counters in this workspace are
    /// event counts well below 2^53, so the `f64` representation is
    /// exact; values above that would round and are rejected loudly.
    pub fn from_u64(v: u64) -> Json {
        assert!(
            v <= (1u64 << 53),
            "counter {v} exceeds exact f64 range; widen the JSON layer first"
        );
        Json::Num(v as f64)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= (1u64 << 53) as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (must consume the whole input).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_f64(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Write a float: integers without a fractional part (so counters
/// round-trip as `123`, not `123.0`), everything else via Rust's
/// shortest-roundtrip `Display`. Non-finite values have no JSON form and
/// are emitted as `null`.
fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`; always on a char boundary.
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(format!("bad literal at byte {}", self.pos))
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated or bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar; the checked slice
                    // refuses any offset that is not a char boundary.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("string scan lost its char boundary")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multibyte_chars_next_to_escapes_round_trip() {
        // Hand-written input: multi-byte scalars (2, 3 and 4 bytes)
        // directly before and after `\uXXXX` escapes and `\"`.
        let text = r#"["é\u00e9\"ü", "\u4e2d中\"\u4e2d", "\"🦀\u0041🦀\"", "\u00ff\u00ffÿ"]"#;
        let v = Json::parse(text).unwrap();
        let got: Vec<&str> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(got, ["éé\"ü", "中中\"中", "\"🦀A🦀\"", "ÿÿÿ"]);
        // Emit and reparse: every string comes back unchanged, including
        // control characters the writer escapes as `\u00XX`.
        let mut strings: Vec<Json> = got.iter().map(|s| Json::Str((*s).into())).collect();
        strings.push(Json::Str("é\u{1}\"\u{1f}中\\".into()));
        let all = Json::Arr(strings);
        assert_eq!(Json::parse(&all.to_json()).unwrap(), all);
    }

    #[test]
    fn round_trip_basic_values() {
        let text = r#"{"a": 1, "b": [true, false, null], "c": "x\"y\n", "d": -2.5e3}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-2500.0));
        // Emit and reparse: identical value.
        let again = Json::parse(&v.to_json()).unwrap();
        assert_eq!(again, v);
    }

    #[test]
    fn integers_written_without_fraction() {
        assert_eq!(Json::from_u64(123).to_json(), "123");
        assert_eq!(Json::Num(0.5).to_json(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"[{"k": [1, 2, {"x": []}]}]"#).unwrap();
        let obj = &v.as_array().unwrap()[0];
        let arr = obj.get("k").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert!(arr[2].get("x").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn unicode_and_control_escapes() {
        let original = Json::Str("héllo \u{1} wörld".into());
        let parsed = Json::parse(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn u64_lookup_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }
}
