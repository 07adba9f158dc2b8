//! Tiny flag parser (`--name value` pairs plus one subcommand), kept
//! in-tree to stay inside the workspace's dependency budget.

use std::collections::BTreeMap;

/// The largest integer a JSON number (an IEEE double) carries exactly.
const JSON_INT_MAX: u64 = 1 << 53;

/// Count flags that reports, series and checkpoints write into JSON.
const JSON_COUNT_FLAGS: [&str; 4] = ["seed", "len", "window", "k"];

/// Cache-size flags: every engine needs at least one slot.
const CACHE_SIZE_FLAGS: [&str; 2] = ["k", "max-k"];

/// Parsed command line: a subcommand, an optional action (the second
/// positional, used by `occ trace pack|unpack|import`), plus
/// `--key value` flags and the valueless `--help`/`-h`.
#[derive(Debug, Default)]
pub struct Args {
    /// `--help` or `-h` appeared anywhere a flag may.
    pub help: bool,
    /// First positional argument.
    pub command: Option<String>,
    /// Second positional argument. Only `occ trace` accepts one; the
    /// dispatcher rejects it everywhere else.
    pub action: Option<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parse an iterator of raw arguments (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, String> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if tok == "--help" || tok == "-h" {
                out.help = true;
            } else if let Some(name) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                if out.flags.insert(name.to_string(), value).is_some() {
                    return Err(format!("flag --{name} given twice"));
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else if out.action.is_none() {
                out.action = Some(tok);
            } else {
                return Err(format!("unexpected positional argument '{tok}'"));
            }
        }
        Ok(out)
    }

    /// Parse the process arguments.
    pub fn from_env() -> Result<Args, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// String flag with a default.
    pub fn str_or(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Required string flag.
    pub fn str_required(&self, name: &str) -> Result<String, String> {
        self.flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Numeric flag with a default.
    pub fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("bad value for --{name}: {e}")),
        }
    }

    /// `on|off` flag with a default.
    pub fn on_off(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.flags.get(name).map(String::as_str) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(format!("unknown --{name} mode '{other}' (on, off)")),
        }
    }

    /// Unsigned flag with a default, accepting `k`/`M`/`B` (or `G`)
    /// magnitude suffixes: `500k` = 500_000, `5M` = 5_000_000,
    /// `1B` = 1_000_000_000. Soak runs are specified in these units.
    pub fn scaled_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => parse_scaled(v).map_err(|e| format!("bad value for --{name}: {e}")),
        }
    }

    /// Reject a `--seed`, `--len`, `--window` or `--k` value above
    /// [`JSON_INT_MAX`]: reports, series and checkpoints write these
    /// values into JSON, which could not carry them exactly. Values that
    /// do not parse as a count are left to the typed getters.
    pub fn check_json_range(&self) -> Result<(), String> {
        for name in JSON_COUNT_FLAGS {
            if let Some(Ok(v)) = self.flags.get(name).map(|v| parse_scaled(v)) {
                if v > JSON_INT_MAX {
                    return Err(format!(
                        "--{name} {v} exceeds 2^53 = {JSON_INT_MAX}, the largest \
                         integer a JSON report, series or checkpoint carries exactly"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Reject the first flag (in name order) that `accepted` does not
    /// list, naming it and the command line (`what`) it was given to.
    pub fn check_flags(&self, what: &str, accepted: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|f| !accepted.contains(&f.as_str())) {
            None => Ok(()),
            Some(flag) => Err(format!(
                "`{what}` does not take --{flag} (see `occ --help`)"
            )),
        }
    }

    /// Reject `--k 0` and `--max-k 0`: no engine can run a cache with
    /// no slot. Values that do not parse are left to the typed getters.
    pub fn check_cache_sizes(&self) -> Result<(), String> {
        for name in CACHE_SIZE_FLAGS {
            if self.flags.get(name).map(|v| parse_scaled(v)) == Some(Ok(0)) {
                return Err(format!("--{name} must be positive: a cache needs a slot"));
            }
        }
        Ok(())
    }
}

/// Parse `"123"`, `"500k"`, `"5M"`, `"1B"` (case-insensitive suffix,
/// `G` accepted as a synonym for `B`) into a `u64`, rejecting overflow.
pub fn parse_scaled(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let (digits, mult) = match text.char_indices().last() {
        Some((i, c)) if c.is_ascii_alphabetic() => {
            let mult = match c.to_ascii_lowercase() {
                'k' => 1_000u64,
                'm' => 1_000_000,
                'b' | 'g' => 1_000_000_000,
                _ => return Err(format!("unknown magnitude suffix '{c}' (use k, M, or B)")),
            };
            (&text[..i], mult)
        }
        _ => (text, 1),
    };
    if digits.is_empty() {
        return Err("expected digits before the suffix".into());
    }
    // `u64::from_str` tolerates a leading `+`; sizes are bare digits
    // only, so `+5M`, `-5`, and embedded whitespace all fail here.
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("invalid digit string '{digits}' (digits only)"));
    }
    let base: u64 = digits
        .parse()
        .map_err(|e| format!("invalid digit string '{digits}': {e}"))?;
    base.checked_mul(mult)
        .ok_or_else(|| format!("'{text}' overflows a u64"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&["run", "--k", "8", "--policy", "lru"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.num_or("k", 0usize).unwrap(), 8);
        assert_eq!(a.str_or("policy", "x"), "lru");
        assert_eq!(a.str_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse(&["run", "--k"]).is_err());
    }

    #[test]
    fn help_takes_no_value_anywhere() {
        for tokens in [&["--help"][..], &["-h"], &["soak", "--help", "--len", "5"]] {
            let a = parse(tokens).unwrap();
            assert!(a.help, "{tokens:?}");
        }
        let a = parse(&["soak", "--len", "5"]).unwrap();
        assert!(!a.help);
        assert_eq!(a.command.as_deref(), Some("soak"));
    }

    #[test]
    fn zero_cache_sizes_are_rejected() {
        let check = |tokens: &[&str]| parse(tokens).unwrap().check_cache_sizes();
        assert!(check(&["run", "--k", "0"]).is_err());
        assert!(check(&["mrc", "--max-k", "0"]).is_err());
        assert!(check(&["run", "--k", "1"]).is_ok());
        assert!(check(&["run"]).is_ok());
    }

    #[test]
    fn flags_outside_the_accepted_set_are_named() {
        let a = parse(&["fleet", "--len", "5", "--timng", "on"]).unwrap();
        assert_eq!(
            a.check_flags("occ fleet", &["len", "timing"]),
            Err("`occ fleet` does not take --timng (see `occ --help`)".to_string())
        );
        assert_eq!(a.check_flags("occ fleet", &["len", "timng"]), Ok(()));
        let bare = parse(&["scenarios"]).unwrap();
        assert_eq!(bare.check_flags("occ scenarios", &[]), Ok(()));
    }

    #[test]
    fn duplicate_flag_is_error() {
        assert!(parse(&["run", "--k", "1", "--k", "2"]).is_err());
    }

    #[test]
    fn second_positional_is_the_action_and_a_third_is_an_error() {
        let a = parse(&["trace", "pack", "--in", "x"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("trace"));
        assert_eq!(a.action.as_deref(), Some("pack"));
        assert!(parse(&["trace", "pack", "again"]).is_err());
    }

    #[test]
    fn on_off_flags() {
        let a = parse(&[
            "soak",
            "--timing",
            "on",
            "--heartbeat",
            "off",
            "--verify",
            "yes",
        ])
        .unwrap();
        assert_eq!(a.on_off("timing", false), Ok(true));
        assert_eq!(a.on_off("heartbeat", true), Ok(false));
        assert_eq!(a.on_off("shrink", true), Ok(true));
        assert_eq!(
            a.on_off("verify", true),
            Err("unknown --verify mode 'yes' (on, off)".to_string())
        );
    }

    #[test]
    fn bad_number_reported() {
        let a = parse(&["run", "--k", "many"]).unwrap();
        assert!(a.num_or("k", 0usize).is_err());
    }

    #[test]
    fn required_flag() {
        let a = parse(&["run"]).unwrap();
        assert!(a.str_required("trace").is_err());
    }

    #[test]
    fn scaled_numbers() {
        assert_eq!(parse_scaled("123").unwrap(), 123);
        assert_eq!(parse_scaled("500k").unwrap(), 500_000);
        assert_eq!(parse_scaled("500K").unwrap(), 500_000);
        assert_eq!(parse_scaled("5M").unwrap(), 5_000_000);
        assert_eq!(parse_scaled("1B").unwrap(), 1_000_000_000);
        assert_eq!(parse_scaled("2g").unwrap(), 2_000_000_000);
        assert_eq!(parse_scaled("0").unwrap(), 0);
        assert!(parse_scaled("").is_err());
        assert!(parse_scaled("k").is_err());
        assert!(parse_scaled("5x").is_err());
        assert!(parse_scaled("1.5M").is_err());
        assert!(parse_scaled("99999999999999999999B").is_err());
    }

    #[test]
    fn scaled_boundaries_and_garbage() {
        // Exact u64::MAX is representable; one past it is not.
        assert_eq!(parse_scaled("18446744073709551615").unwrap(), u64::MAX);
        assert!(parse_scaled("18446744073709551616").is_err());
        // Largest value whose k-scaling still fits, and the first that
        // does not — `checked_mul` must catch the latter, not wrap.
        assert_eq!(
            parse_scaled("18446744073709551k").unwrap(),
            18_446_744_073_709_551_000
        );
        assert!(parse_scaled("18446744073709552k").is_err());
        // 20e9 * 1e9 overflows: the motivating `--len 20000000000B` case.
        assert!(parse_scaled("20000000000B").is_err());
        // Signs, inner whitespace, and hex are not sizes.
        assert!(parse_scaled("+5M").is_err());
        assert!(parse_scaled("-5").is_err());
        assert!(parse_scaled("5 M").is_err());
        assert!(parse_scaled("0x10").is_err());

        let a = parse(&["soak", "--len", "10M"]).unwrap();
        assert_eq!(a.scaled_or("len", 0).unwrap(), 10_000_000);
        assert_eq!(a.scaled_or("window", 7).unwrap(), 7);
        let bad = parse(&["soak", "--len", "ten"]).unwrap();
        assert!(bad.scaled_or("len", 0).is_err());
    }
}
