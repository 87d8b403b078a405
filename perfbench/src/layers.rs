//! The per-layer metrics of a traced run.
//!
//! Every workload reports every metric; a layer the workload does not
//! exercise reads 0.  The names and units here are the `per_layer` list of
//! `BENCHMARK.json` (`run.py` checks that the two agree).

use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric except `trace_overhead`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("orbit_stream.busy_s", "s"),
    ("orbit_stream.canonical", "count"),
    ("orbit_stream.pruned_symmetric", "count"),
    ("candidate_pipeline.memo_hits", "count"),
    ("candidate_pipeline.memo_hits_cross", "count"),
    ("candidate_pipeline.memo_hit_ratio", "ratio"),
    ("candidate_pipeline.memo_entries", "count"),
    ("candidate_pipeline.memo_hit_busy_s", "s"),
    ("symbolic.prefilter_rejects", "count"),
    ("symbolic.prefilter_reject_ratio", "ratio"),
    ("symbolic.prefilter_busy_s", "s"),
    ("symbolic.eta_floor_rejects", "count"),
    ("symbolic.eta_floor_busy_s", "s"),
    ("reach.profiled", "count"),
    ("reach.threshold_protocols", "count"),
    ("reach.truncated", "count"),
    ("reach.profile_busy_s", "s"),
    ("funnel.pruned_symbolic", "count"),
    ("funnel.pruned_eta_bounded", "count"),
    ("funnel.profiled", "count"),
    ("exec.tasks", "count"),
    ("exec.helped", "count"),
    ("exec.idle_s", "s"),
    ("ensemble.waves", "count"),
    ("ensemble.classification_s", "s"),
    ("ensemble.split_s", "s"),
    ("ensemble.pairing_s", "s"),
    ("ensemble.apply_s", "s"),
    ("ensemble.collision_s", "s"),
    ("ensemble.silence_s", "s"),
    ("ensemble.interactions", "count"),
    ("ensemble.effective_ratio", "ratio"),
    ("batched.advance_calls", "count"),
    ("batched.advance_busy_s", "s"),
    ("batched.check_busy_s", "s"),
    ("batched.interactions", "count"),
    ("batched.effective_ratio", "ratio"),
    ("batched.ns_per_interaction", "ns"),
];

/// One traced run's per-layer values, all starting at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] — a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }
}

/// Every traced run's layers as `(name, unit, samples)`, plus the tracing
/// overhead (traced wall over untraced wall).
pub fn merged(runs: &[Layers], trace_overhead: f64) -> Vec<(&'static str, &'static str, Vec<f64>)> {
    let mut out: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, runs.iter().map(|l| l.0[name]).collect()))
        .collect();
    out.push(("trace_overhead", "ratio", vec![trace_overhead]));
    out
}
