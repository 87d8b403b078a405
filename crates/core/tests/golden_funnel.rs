//! Golden funnel pins: every deterministic [`PipelineStats`] counter of two
//! fixed search prefixes, recorded before the symbolic triage moved onto
//! flat ω-rows.  Any change to when a prefilter rejects, when a cap trips,
//! or which restrictions the memo answers moves one of these constants.
//!
//! `memo_hits_cross` is left out: it counts hits against the shared
//! cross-segment table and depends on scheduling.

use popproto::candidate_pipeline::{PipelineConfig, PipelineStats, StreamingSearch};
use popproto::experiments::e12_pipeline_config;
use popproto::segmented::{SegmentationConfig, SegmentedSearch};
use popproto_reach::ExploreLimits;

/// The deterministic counters, in declaration order.
fn pinned(stats: &PipelineStats) -> [u64; 8] {
    [
        stats.canonical_orbits,
        stats.pruned_symmetric,
        stats.pruned_symbolic,
        stats.pruned_eta_bounded,
        stats.profiled,
        stats.threshold_protocols,
        stats.truncated_orbits,
        stats.memo_hits,
    ]
}

/// The first 40 000 canonical `BB_det(3)` orbits under the exact search
/// configuration (no η floor, CSR slices).
#[test]
fn bb3_exact_prefix_funnel_is_pinned() {
    let mut search = StreamingSearch::new(3, PipelineConfig::exact(6, &ExploreLimits::default()));
    search.run_for(40_000);
    assert_eq!(
        pinned(&search.stats()),
        [40_000, 3_408, 29_667, 0, 10_333, 9_382, 0, 16_518]
    );
    assert_eq!(search.memo_len(), 23_482);
    assert_eq!(search.result().best_eta, Some(3));
}

/// The first 100 000 canonical `BB_det(4)` orbits of the E12 configuration
/// (η floor 3, frontier slices) on one worker, in index order: a
/// symbolic-prefilter and η-floor heavy stretch of the space.
#[test]
fn e12_bb4_prefix_funnel_is_pinned() {
    let mut search = SegmentedSearch::new(
        4,
        e12_pipeline_config(8),
        SegmentationConfig::index_order(1 << 12, Some(1 << 22)),
    );
    search.run(1, 100_000);
    let result = search.result();
    assert_eq!(
        pinned(&result.stats),
        [100_568, 173_864, 84_388, 16_180, 0, 0, 0, 50_346]
    );
    assert_eq!(search.shared_memo_len(), 41_990);
    assert!(result.best.is_none() && result.confirmed.is_empty());
}
