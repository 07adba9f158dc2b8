//! Per-tenant access patterns and single-stream trace generators.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How one tenant walks over its own pages. Page indices produced are
/// *local* (0-based within the tenant's page set); the mixer maps them to
/// global page ids.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Uniformly random page.
    Uniform,
    /// Zipf-distributed page popularity with exponent `s`.
    Zipf {
        /// Skew exponent (0 = uniform, ~1 = classic web skew).
        s: f64,
    },
    /// Deterministic cycle over the first `len` pages — the classical
    /// LRU-adversarial pattern when `len` exceeds the tenant's share of
    /// the cache.
    Cycle {
        /// Cycle length (clamped to the tenant's page count).
        len: u32,
    },
    /// One sequential sweep over all pages, repeating.
    Scan,
    /// A hot set of the first `hot_pages` pages hit with probability
    /// `hot_prob`; the rest uniform over the cold pages.
    HotSet {
        /// Number of hot pages.
        hot_pages: u32,
        /// Probability a request goes to the hot set.
        hot_prob: f64,
    },
    /// Zipf popularity whose rank order rotates every `phase_len`
    /// requests — models working-set drift.
    Phased {
        /// Zipf exponent within a phase.
        s: f64,
        /// Requests per phase.
        phase_len: u64,
    },
}

/// Stateful generator of one tenant's local page indices.
#[derive(Debug)]
pub struct PatternGen {
    pattern: AccessPattern,
    pages: u32,
    rng: StdRng,
    /// Requests emitted so far (drives Scan/Cycle/Phased).
    count: u64,
    zipf: Option<Zipf>,
}

impl PatternGen {
    /// Create a generator over `pages` local pages.
    pub fn new(pattern: AccessPattern, pages: u32, seed: u64) -> Self {
        assert!(pages > 0, "a tenant needs at least one page");
        let zipf = match &pattern {
            AccessPattern::Zipf { s } | AccessPattern::Phased { s, .. } => {
                Some(Zipf::new(pages as usize, *s))
            }
            _ => None,
        };
        PatternGen {
            pattern,
            pages,
            rng: StdRng::seed_from_u64(seed),
            count: 0,
            zipf,
        }
    }

    /// Next local page index: a one-page [`fill`](Self::fill).
    pub fn next_page(&mut self) -> u32 {
        let mut one = [0];
        self.fill(0, &mut one);
        one[0]
    }

    /// Write the next `out.len()` page indices, each plus `offset`, into
    /// `out`: the same pages and the same RNG draws as that many
    /// [`next_page`](Self::next_page) calls. The pattern is matched once
    /// per call, so each loop below runs without a per-page branch on
    /// it; Scan and Cycle walk a wrapping cursor instead of dividing.
    pub fn fill(&mut self, offset: u32, out: &mut [u32]) {
        let pages = self.pages;
        let rng = &mut self.rng;
        match &self.pattern {
            AccessPattern::Uniform => {
                for o in out.iter_mut() {
                    *o = offset + rng.gen_range(0..pages);
                }
            }
            AccessPattern::Zipf { .. } => {
                let zipf = self.zipf.as_ref().expect("built in new");
                for o in out.iter_mut() {
                    *o = offset + zipf.sample(rng) as u32;
                }
            }
            AccessPattern::Cycle { len } => {
                cycle(self.count, (*len).clamp(1, pages), offset, out);
            }
            AccessPattern::Scan => cycle(self.count, pages, offset, out),
            AccessPattern::HotSet {
                hot_pages,
                hot_prob,
            } => {
                let hot = (*hot_pages).clamp(1, pages);
                for o in out.iter_mut() {
                    let local = if pages == hot || rng.gen::<f64>() < *hot_prob {
                        rng.gen_range(0..hot)
                    } else {
                        rng.gen_range(hot..pages)
                    };
                    *o = offset + local;
                }
            }
            AccessPattern::Phased { phase_len, .. } => {
                let zipf = self.zipf.as_ref().expect("built in new");
                let phase_len = (*phase_len).max(1);
                for (i, o) in (self.count..).zip(out.iter_mut()) {
                    let rank = zipf.sample(rng) as u64;
                    // Rotate rank→page mapping each phase.
                    *o = offset + ((rank + i / phase_len * 3) % pages as u64) as u32;
                }
            }
        }
        self.count += out.len() as u64;
    }

    /// Heap footprint of the generator in bytes: the Zipf table (if
    /// any). Constant over the generator's lifetime — generation never
    /// allocates per request.
    pub fn state_bytes(&self) -> usize {
        self.zipf.as_ref().map_or(0, |z| z.state_bytes())
    }
}

/// Fill `out` with `offset` plus the cycle `0, 1, …, len − 1` repeated,
/// starting where a walk that has taken `count` steps stands.
fn cycle(count: u64, len: u32, offset: u32, out: &mut [u32]) {
    let mut at = (count % len as u64) as u32;
    for o in out.iter_mut() {
        *o = offset + at;
        at += 1;
        if at == len {
            at = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_periodic() {
        let mut g = PatternGen::new(AccessPattern::Cycle { len: 3 }, 5, 0);
        let seq: Vec<u32> = (0..7).map(|_| g.next_page()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn scan_sweeps_all_pages() {
        let mut g = PatternGen::new(AccessPattern::Scan, 4, 0);
        let seq: Vec<u32> = (0..8).map(|_| g.next_page()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn hot_set_concentrates() {
        let mut g = PatternGen::new(
            AccessPattern::HotSet {
                hot_pages: 2,
                hot_prob: 0.9,
            },
            10,
            7,
        );
        let n = 10_000;
        let hot_hits = (0..n).filter(|_| g.next_page() < 2).count();
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.03, "hot fraction {frac}");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut g = PatternGen::new(AccessPattern::Zipf { s: 1.2 }, 8, 3);
        let mut counts = [0u32; 8];
        for _ in 0..20_000 {
            counts[g.next_page() as usize] += 1;
        }
        assert!(counts[0] > counts[3]);
        assert!(counts[3] > counts[7]);
        assert!(g.state_bytes() > 0, "the Zipf table is accounted");
    }

    #[test]
    fn phased_rotates_hot_page() {
        let mut g = PatternGen::new(
            AccessPattern::Phased {
                s: 3.0,
                phase_len: 1000,
            },
            9,
            5,
        );
        let mut first = [0u32; 9];
        for _ in 0..1000 {
            first[g.next_page() as usize] += 1;
        }
        let mut second = [0u32; 9];
        for _ in 0..1000 {
            second[g.next_page() as usize] += 1;
        }
        let hot1 = first.iter().enumerate().max_by_key(|&(_, c)| c).unwrap().0;
        let hot2 = second.iter().enumerate().max_by_key(|&(_, c)| c).unwrap().0;
        assert_ne!(hot1, hot2, "hot page must drift across phases");
    }

    #[test]
    fn generators_are_reproducible() {
        let run = || {
            let mut g = PatternGen::new(AccessPattern::Zipf { s: 0.8 }, 16, 99);
            (0..50).map(|_| g.next_page()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
