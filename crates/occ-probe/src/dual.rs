//! Dual-variable telemetry for the paper's ALG-DISCRETE.
//!
//! [`ConvexCaching`] maintains a global dual offset `Y` (the paper's
//! rising water level) and per-user eviction counts `m(i, t)`; the
//! primal cost it pays is `Σ_i f_i(m_i)`. [`DualTrace`] snapshots all
//! three at a sampling cadence, producing the trajectory `occ observe`
//! emits: how the dual offset climbs, how evictions spread across
//! users, and how the primal objective accumulates.
//!
//! The trace is driven from *outside* the engine (the policy is
//! mutably borrowed while engine hooks run, so a [`Recorder`] cannot
//! also read it): the CLI's one drive loop serves requests in batches
//! that end on every multiple of the sampling cadence, and at each such
//! boundary calls [`maybe_sample`](DualTrace::maybe_sample) with
//! `engine.policy()`, then [`finalize`](DualTrace::finalize) once the
//! trace is exhausted. The final sample's `primal_cost` is exact — it
//! is `Σ_i f_i(m_i)` over the algorithm's own eviction counts, which
//! move in lockstep with the engine's per-user eviction counters, so it
//! equals `CostProfile::total_cost(&stats.eviction_vector())` bitwise.
//!
//! [`Recorder`]: occ_sim::probe::Recorder

use crate::json::Json;
use crate::timeseries::DualPoint;
use occ_core::ConvexCaching;
use occ_sim::ids::Time;

/// Samples [`ConvexCaching`] state every `every` requests.
#[derive(Clone, Debug)]
pub struct DualTrace {
    every: u64,
    /// `(t, point)`: the state after `t` requests served.
    samples: Vec<(Time, DualPoint)>,
    final_m: Vec<u64>,
}

impl DualTrace {
    /// Sample every `every` requests (clamped to ≥ 1).
    pub fn new(every: u64) -> Self {
        DualTrace {
            every: every.max(1),
            samples: Vec::new(),
            final_m: Vec::new(),
        }
    }

    /// The sampling cadence.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Record a sample if `t` falls on the cadence (call once per step).
    pub fn maybe_sample(&mut self, t: Time, alg: &ConvexCaching) {
        if t.is_multiple_of(self.every) {
            self.samples.push((t, DualPoint::of(alg)));
        }
    }

    /// Record the end-of-run sample unconditionally and capture the
    /// final per-user eviction counts `m(i, T)`.
    pub fn finalize(&mut self, t: Time, alg: &ConvexCaching) {
        if self.samples.last().map(|&(last, _)| last) != Some(t) {
            self.samples.push((t, DualPoint::of(alg)));
        }
        self.final_m = alg.eviction_counts();
    }

    /// The recorded trajectory, in time order.
    pub fn samples(&self) -> &[(Time, DualPoint)] {
        &self.samples
    }

    /// Final per-user eviction counts (empty before
    /// [`finalize`](Self::finalize)).
    pub fn final_m(&self) -> &[u64] {
        &self.final_m
    }

    /// The last sample's exact primal cost `Σ_i f_i(m_i)`, if any
    /// sample was taken.
    pub fn final_primal_cost(&self) -> Option<f64> {
        self.samples.last().map(|(_, p)| p.primal_cost)
    }

    /// The trajectory as a JSON object:
    /// `{"every":…,"final_m":[…],"samples":[{"t":…,"dual_offset":…,…},…]}`.
    pub fn to_json_value(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|(t, p)| {
                Json::Obj(vec![
                    ("t".into(), Json::from_u64(*t)),
                    ("dual_offset".into(), Json::Num(p.dual_offset)),
                    ("total_evictions".into(), Json::from_u64(p.total_evictions)),
                    ("primal_cost".into(), Json::Num(p.primal_cost)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("every".into(), Json::from_u64(self.every)),
            (
                "final_m".into(),
                Json::Arr(self.final_m.iter().map(|&m| Json::from_u64(m)).collect()),
            ),
            ("samples".into(), Json::Arr(samples)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occ_sim::prelude::*;
    use occ_workloads::presets::two_tier;

    #[test]
    fn trajectory_is_monotone_and_final_cost_exact() {
        let scenario = two_tier();
        let trace = scenario.trace(4_000, 7);
        let universe = trace.universe().clone();
        let costs = scenario.costs.clone();
        let alg = ConvexCaching::new(costs.clone());
        let mut eng = SteppingEngine::new(scenario.suggested_k, universe, alg);
        let mut dt = DualTrace::new(100);
        for (_, r) in trace.iter() {
            dt.maybe_sample(eng.time(), eng.policy());
            eng.step(r);
        }
        dt.finalize(eng.time(), eng.policy());

        let samples = dt.samples();
        assert!(samples.len() > 2);
        for w in samples.windows(2) {
            let ((_, a), (_, b)) = (&w[0], &w[1]);
            assert!(b.dual_offset >= a.dual_offset, "dual offset fell");
            assert!(b.primal_cost >= a.primal_cost, "primal cost fell");
            assert!(b.total_evictions >= a.total_evictions);
        }
        // Exactness: the algorithm's m vector is the engine's per-user
        // eviction counters, so Σ f_i(m_i) matches the stats-derived
        // cost bitwise.
        assert_eq!(dt.final_m(), eng.stats().eviction_vector().as_slice());
        let expected = costs.total_cost(&eng.stats().eviction_vector());
        assert_eq!(dt.final_primal_cost().unwrap(), expected);
    }

    #[test]
    fn json_shape() {
        let dt = DualTrace::new(10);
        let v = dt.to_json_value();
        assert!(v.get("every").is_some());
        assert!(v.get("samples").and_then(Json::as_array).is_some());
        assert!(v.get("final_m").and_then(Json::as_array).is_some());
    }
}
