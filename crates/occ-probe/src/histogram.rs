//! A log-linear histogram for latency and value distributions.
//!
//! The classic HdrHistogram bucketing: values below `2^SUB_BITS` get an
//! exact unit bucket each; above that, every octave `[2^e, 2^{e+1})` is
//! split into `2^SUB_BITS` linear sub-buckets, so the quantile error is
//! bounded by one part in `2^SUB_BITS` (≈ 3.1% with the 5 bits used
//! here) at every magnitude. Recording is two shifts and an increment —
//! cheap enough to sit inside a [`Recorder`](occ_sim::probe::Recorder)
//! hook — and the bucket array is a fixed ~15 KiB regardless of how many
//! samples are recorded, so histograms from sharded runs can be
//! [`merge`](LogHistogram::merge)d exactly (bucket-wise addition; merge
//! of shards ≡ histogram of the whole, a property test in this crate).
//!
//! Snapshots round-trip through JSON ([`to_json`](LogHistogram::to_json)
//! / [`from_json`](LogHistogram::from_json)) with a sparse encoding, so
//! empty benches don't pay for 1 900 zero buckets.

use crate::json::Json;
use occ_sim::ids::Time;
use occ_sim::probe::Recorder;

/// Linear sub-buckets per octave, as a bit count: 32 sub-buckets, ≤3.1%
/// relative quantile error.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Octaves above the exact range (`u64` has 64 − SUB_BITS of them), plus
/// the exact range itself.
const NUM_BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * SUB_COUNT as usize;

/// Index of the bucket containing `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
        let shift = msb - SUB_BITS;
        let sub = (v >> shift) - SUB_COUNT; // ∈ [0, SUB_COUNT)
        ((shift as usize + 1) << SUB_BITS) + sub as usize
    }
}

/// Largest value mapping to bucket `index` (inclusive upper edge).
#[inline]
fn bucket_upper(index: usize) -> u64 {
    if index < SUB_COUNT as usize {
        index as u64
    } else {
        let shift = (index >> SUB_BITS) as u32 - 1;
        let sub = (index as u64 & (SUB_COUNT - 1)) + SUB_COUNT;
        let lower = sub << shift;
        lower + ((1u64 << shift) - 1)
    }
}

/// A mergeable log-linear histogram over `u64` values (typically
/// nanoseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q ∈ [0, 1]`) as the inclusive upper edge of
    /// the bucket holding the rank-`⌈q·count⌉` value, clamped to the
    /// exact observed [`max`](Self::max). Values in the exact range
    /// (< 32) are exact; larger ones are within 3.1% of the true sample
    /// quantile. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Add every sample of `other` into `self` (exact: bucket-wise).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serialize to a compact JSON object with sparse bucket encoding:
    /// `{"count":…,"sum":…,"min":…,"max":…,"buckets":[[index,count],…]}`.
    pub fn to_json_value(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::from_u64(i as u64), Json::from_u64(c)]))
            .collect();
        // `min`/`max`/`sum` range over the full u64/u128 domain, beyond
        // f64's exact-integer range, so they are encoded as decimal
        // strings; `count` and bucket counts are sample counts, which
        // stay comfortably below 2^53. `mean` is derived (sum / count)
        // and emitted so windows are plottable without quantile
        // reconstruction; the read side ignores it.
        Json::Obj(vec![
            ("count".into(), Json::from_u64(self.count)),
            ("sum".into(), Json::Str(self.sum.to_string())),
            ("min".into(), Json::Str(self.min().to_string())),
            ("max".into(), Json::Str(self.max.to_string())),
            ("mean".into(), Json::Num(self.mean())),
            ("buckets".into(), Json::Arr(buckets)),
        ])
    }

    /// Serialize to a JSON string (see [`Self::to_json_value`]).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Reconstruct from the [`Self::to_json_value`] encoding.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let mut h = LogHistogram::new();
        let buckets = v
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or("histogram missing 'buckets' array")?;
        for entry in buckets {
            let pair = entry.as_array().ok_or("bucket entry must be [idx, n]")?;
            let (idx, n) = match pair {
                [i, n] => (
                    i.as_u64().ok_or("bucket index must be u64")? as usize,
                    n.as_u64().ok_or("bucket count must be u64")?,
                ),
                _ => return Err("bucket entry must have two elements".into()),
            };
            if idx >= NUM_BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            h.counts[idx] += n;
            h.count += n;
        }
        // Accept the wide fields as decimal strings (the exact form this
        // type writes) or as plain numbers (hand-written fixtures).
        let wide = |name: &str| -> Result<u128, String> {
            match v.get(name) {
                Some(Json::Str(s)) => s
                    .parse()
                    .map_err(|_| format!("'{name}' is not a decimal integer")),
                Some(n) => n
                    .as_u64()
                    .map(u128::from)
                    .ok_or_else(|| format!("'{name}' must be an unsigned integer")),
                None => Err(format!("histogram missing '{name}'")),
            }
        };
        let narrow = |name: &str| -> Result<u64, String> {
            u64::try_from(wide(name)?).map_err(|_| format!("'{name}' exceeds u64"))
        };
        if h.count
            != v.get("count")
                .and_then(Json::as_u64)
                .ok_or("histogram missing 'count'")?
        {
            return Err("bucket counts disagree with 'count'".into());
        }
        h.sum = wide("sum")?;
        h.max = narrow("max")?;
        h.min = if h.count == 0 {
            u64::MAX
        } else {
            narrow("min")?
        };
        Ok(h)
    }

    /// Parse from a JSON string (see [`Self::from_json_value`]).
    pub fn from_json(text: &str) -> Result<Self, String> {
        Self::from_json_value(&Json::parse(text)?)
    }
}

/// A histogram is the latency-only recorder: attached to an engine it
/// keeps one sample per request and counts nothing else, since the
/// engine's `SimStats` already count every request.
impl Recorder for LogHistogram {
    const TIMED: bool = true;

    fn record_latency_ns(&mut self, _t: Time, ns: u64) {
        self.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_consistent() {
        // Every value maps to a bucket whose upper edge is >= the value
        // and within the 1/32 relative error bound.
        for v in (0u64..1000).chain([1 << 20, (1 << 40) + 12345, u64::MAX]) {
            let b = bucket_of(v);
            let upper = bucket_upper(b);
            assert!(upper >= v, "upper({b}) = {upper} < {v}");
            assert!(
                upper - v <= (v >> SUB_BITS),
                "bucket error too large for {v}: upper {upper}"
            );
            if b > 0 {
                assert!(
                    bucket_upper(b - 1) < v,
                    "value {v} fits the previous bucket"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 30, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.p50(), 2);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.sum(), 67);
    }

    #[test]
    fn quantiles_clamp_to_observed_max() {
        let mut h = LogHistogram::new();
        h.record(1_000_003); // single sample: every quantile is that value's bucket
        assert_eq!(h.p50(), 1_000_003);
        assert_eq!(h.p999(), 1_000_003);
    }

    #[test]
    fn merge_equals_whole() {
        let values: Vec<u64> = (0..500u64).map(|i| i * i * 37 % 100_000).collect();
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn json_round_trip() {
        let mut h = LogHistogram::new();
        for v in [0u64, 5, 31, 32, 1000, 123_456_789] {
            h.record_n(v, 3);
        }
        let text = h.to_json();
        let back = LogHistogram::from_json(&text).unwrap();
        assert_eq!(back, h);
        // The four plottable summary fields ride along in the JSON.
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(h.count()));
        assert_eq!(v.get("min").and_then(Json::as_str), Some("0"));
        assert_eq!(
            v.get("max").and_then(Json::as_str),
            Some(h.max().to_string().as_str())
        );
        assert_eq!(v.get("mean").and_then(Json::as_f64), Some(h.mean()));
        // Empty histogram round-trips too.
        let empty = LogHistogram::new();
        assert_eq!(LogHistogram::from_json(&empty.to_json()).unwrap(), empty);
    }

    #[test]
    fn from_json_rejects_inconsistency() {
        assert!(LogHistogram::from_json("{}").is_err());
        assert!(LogHistogram::from_json(
            r#"{"count": 5, "sum": 0, "min": 0, "max": 0, "buckets": []}"#
        )
        .is_err());
        assert!(LogHistogram::from_json(
            r#"{"count": 1, "sum": 0, "min": 0, "max": 0, "buckets": [[99999, 1]]}"#
        )
        .is_err());
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
