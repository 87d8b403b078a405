//! The busy-beaver search workloads.
//!
//! * `bb3_exact` — the exhaustive `BB_det(3)` search on one worker, one
//!   segment (`busy_beaver_search_with_threads(3, 6, u64::MAX, .., 1)`).
//! * `bb4_prefix` — the first 10⁶ canonical `BB_det(4)` orbits through the
//!   E12 `SegmentedSearch` (η floor 3, frontier engine) on a one-worker
//!   pool; the submitting thread helps, so about two threads are busy.
//!
//! The traced replay drives `OrbitStream` and
//! `CandidatePipeline::offer_shared` over the segments the timed run
//! merged, on a pool of the same size, and sorts every offer into a class
//! by its `PipelineStats` delta: memo hit, symbolic reject, η-floor reject
//! or profiled (reached the concrete slices).  The generator is timed alone
//! over the same ranges.

use crate::layers::Layers;
use crate::spans::SpanLog;
use crate::Workload;
use popproto::candidate_pipeline::{CandidatePipeline, PipelineConfig, PipelineStats, SharedMemo};
use popproto::enumeration::busy_beaver_search_with_threads;
use popproto::experiments::{e12_pipeline_config, e12_segmented_search};
use popproto::orbit_stream::{OrbitSpace, OrbitStream, SegmentOrder};
use popproto::segmented::{SegmentationConfig, SegmentedSearch};
use popproto_exec::Pool;
use popproto_reach::ExploreLimits;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BB3_MAX_INPUT: u64 = 6;
const BB4_MAX_INPUT: u64 = 8;
const BB4_ORBITS: u64 = 1_000_000;

/// Share of the segment spans the per-class busy times plus the generator
/// time may miss or exceed.
const ACCOUNTING_TOLERANCE: f64 = 0.10;

#[derive(Clone, Copy)]
enum Kind {
    Bb3Exact,
    Bb4Prefix,
}

pub struct Search {
    kind: Kind,
}

/// The deterministic funnel counters of a run (every `PipelineStats`
/// field except the scheduling-dependent `memo_hits_cross`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Funnel {
    canonical: u64,
    pruned_symmetric: u64,
    pruned_symbolic: u64,
    pruned_eta_bounded: u64,
    profiled: u64,
    threshold_protocols: u64,
    truncated: u64,
    memo_hits: u64,
}

impl Funnel {
    fn from_stats(s: &PipelineStats) -> Self {
        Funnel {
            canonical: s.canonical_orbits,
            pruned_symmetric: s.pruned_symmetric,
            pruned_symbolic: s.pruned_symbolic,
            pruned_eta_bounded: s.pruned_eta_bounded,
            profiled: s.profiled,
            threshold_protocols: s.threshold_protocols,
            truncated: s.truncated_orbits,
            memo_hits: s.memo_hits,
        }
    }
}

pub struct SearchOutput {
    funnel: Funnel,
    best_eta: Option<u64>,
    /// The candidate ranges of the merged segments, in order.
    ranges: Vec<(u128, u128)>,
}

impl Search {
    pub fn bb3_exact() -> Self {
        Search {
            kind: Kind::Bb3Exact,
        }
    }

    pub fn bb4_prefix() -> Self {
        Search {
            kind: Kind::Bb4Prefix,
        }
    }

    fn num_states(&self) -> usize {
        match self.kind {
            Kind::Bb3Exact => 3,
            Kind::Bb4Prefix => 4,
        }
    }

    fn config(&self) -> PipelineConfig {
        match self.kind {
            Kind::Bb3Exact => PipelineConfig::exact(BB3_MAX_INPUT, &ExploreLimits::default()),
            Kind::Bb4Prefix => e12_pipeline_config(BB4_MAX_INPUT),
        }
    }
}

impl Workload for Search {
    type Output = SearchOutput;

    fn setup(&self) -> Duration {
        // The constructors the timed run calls before its first candidate.
        // `Pool::new` is left out: it spawns the executor's thread and
        // builds nothing of the search.
        crate::time_build(|| match self.kind {
            Kind::Bb3Exact => {
                let total = OrbitSpace::new(3).total_candidates();
                let segmentation = SegmentationConfig::index_order(
                    u64::try_from(total).expect("fits"),
                    Some(total),
                );
                SegmentedSearch::new(3, self.config(), segmentation)
            }
            Kind::Bb4Prefix => e12_segmented_search(BB4_MAX_INPUT, SegmentOrder::Index),
        })
    }

    fn run(&self) -> SearchOutput {
        match self.kind {
            Kind::Bb3Exact => {
                let r = busy_beaver_search_with_threads(
                    3,
                    BB3_MAX_INPUT,
                    u64::MAX,
                    &ExploreLimits::default(),
                    1,
                );
                let canonical = r.protocols_examined - r.pruned_symmetric;
                let funnel = Funnel {
                    canonical,
                    pruned_symmetric: r.pruned_symmetric,
                    pruned_symbolic: r.pruned_symbolic,
                    pruned_eta_bounded: r.pruned_eta_bounded,
                    // Every canonical orbit is rejected by one stage or profiled.
                    profiled: canonical - r.pruned_symbolic - r.pruned_eta_bounded,
                    threshold_protocols: r.threshold_protocols,
                    truncated: r.truncated_orbits,
                    memo_hits: r.memo_hits,
                };
                SearchOutput {
                    funnel,
                    best_eta: r.best_eta,
                    ranges: vec![(0, u128::from(r.protocols_examined))],
                }
            }
            Kind::Bb4Prefix => {
                let mut search = e12_segmented_search(BB4_MAX_INPUT, SegmentOrder::Index);
                let pool = Pool::new(1);
                search.run_on(&pool, BB4_ORBITS);
                let r = search.result();
                // The plan's segment size: the configured size rounded up
                // to whole output blocks, as `SegmentedSearch` plans it.
                let block = search.space().output_patterns();
                let seg = u128::from(search.segmentation().segment_size).div_ceil(block) * block;
                let ranges = (0..r.segments_merged as u128)
                    .map(|i| (i * seg, (i + 1) * seg))
                    .collect();
                SearchOutput {
                    funnel: Funnel::from_stats(&r.stats),
                    best_eta: r.best.map(|b| b.eta),
                    ranges,
                }
            }
        }
    }

    fn check(&self, out: &SearchOutput) -> Result<(), String> {
        let f = &out.funnel;
        let expect = |what: &str, ok: bool, got: String| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what}: got {got}"))
            }
        };
        match self.kind {
            Kind::Bb3Exact => {
                expect(
                    "best eta 3",
                    out.best_eta == Some(3),
                    format!("{:?}", out.best_eta),
                )?;
                expect(
                    "46144 threshold protocols",
                    f.threshold_protocols == 46_144,
                    f.threshold_protocols.to_string(),
                )?;
                expect(
                    "186336 symmetric prunes",
                    f.pruned_symmetric == 186_336,
                    f.pruned_symmetric.to_string(),
                )?;
                expect(
                    "exact (0 truncated)",
                    f.truncated == 0,
                    f.truncated.to_string(),
                )
            }
            Kind::Bb4Prefix => {
                expect(
                    "best eta 3",
                    out.best_eta == Some(3),
                    format!("{:?}", out.best_eta),
                )?;
                expect(
                    "377 threshold protocols",
                    f.threshold_protocols == 377,
                    f.threshold_protocols.to_string(),
                )?;
                expect(
                    "at least 1e6 prefix orbits",
                    f.canonical >= BB4_ORBITS,
                    f.canonical.to_string(),
                )?;
                expect("0 truncated", f.truncated == 0, f.truncated.to_string())
            }
        }
    }

    fn work(&self, out: &SearchOutput) -> f64 {
        out.funnel.canonical as f64
    }

    fn traced(
        &self,
        timed: &SearchOutput,
        layers: &mut Layers,
        log: &Arc<SpanLog>,
    ) -> (Duration, Vec<String>) {
        let mut failures = Vec::new();
        let traced_started = Instant::now();
        let space = Arc::new(OrbitSpace::new(self.num_states()));

        // The generator alone, over the same ranges.
        let started = Instant::now();
        let (mut gen_canonical, mut gen_pruned) = (0u64, 0u64);
        for &(start, end) in &timed.ranges {
            let mut stream = OrbitStream::range(&space, start, end);
            while let Some(k) = stream.next_canonical() {
                black_box((k, stream.current_assignment()));
            }
            gen_canonical += stream.yielded();
            gen_pruned += stream.pruned_symmetric();
        }
        let gen_busy = started.elapsed();
        log.record("orbit_stream", "workload", 0, started, gen_busy);

        // The funnel replay on a pool of the timed run's size.
        let pool = Pool::new(1);
        let shared = Arc::new(SharedMemo::new(self.config().memo_max_entries));
        let config = self.config();
        let started = Instant::now();
        let segments = {
            let space = Arc::clone(&space);
            let shared = Arc::clone(&shared);
            let log = Arc::clone(log);
            pool.map(timed.ranges.clone(), move |i, (start, end)| {
                replay_segment(&space, &config, &shared, (start, end), i as u64, &log)
            })
        };
        let wall = started.elapsed();
        log.record("replay", "workload", 0, started, wall);
        log.record("workload", "", 0, traced_started, traced_started.elapsed());

        let mut stats = PipelineStats::default();
        let mut classes = [Class::default(); CLASSES];
        let mut span_ns = 0u64;
        for seg in &segments {
            stats.merge(&seg.stats);
            for (total, c) in classes.iter_mut().zip(&seg.classes) {
                total.count += c.count;
                total.busy_ns += c.busy_ns;
            }
            span_ns += seg.span_ns;
        }

        // Consistency: the replay saw exactly the timed funnel, and the
        // generator alone saw the same orbits.
        let replayed = Funnel::from_stats(&stats);
        if replayed != timed.funnel {
            failures.push(format!(
                "replayed funnel {replayed:?} differs from the timed run's {:?}",
                timed.funnel
            ));
        }
        if (gen_canonical, gen_pruned) != (replayed.canonical, replayed.pruned_symmetric) {
            failures.push(format!(
                "generator alone yielded {gen_canonical}/{gen_pruned}, the replay {}/{}",
                replayed.canonical, replayed.pruned_symmetric
            ));
        }
        // Consistency: per-class busy time plus the generator's time
        // account for the segment spans.
        let accounted: u64 =
            classes.iter().map(|c| c.busy_ns).sum::<u64>() + gen_busy.as_nanos() as u64;
        let share = accounted as f64 / span_ns.max(1) as f64;
        eprintln!("perfbench: classes plus generator account for {share:.4} of the segment spans");
        if (share - 1.0).abs() > ACCOUNTING_TOLERANCE {
            failures.push(format!(
                "classes plus generator account for {accounted} ns of {span_ns} ns of segment spans"
            ));
        }

        let secs = |ns: u64| ns as f64 * 1e-9;
        let canonical = stats.canonical_orbits.max(1) as f64;
        let computed =
            (classes[SYMBOLIC].count + classes[ETA].count + classes[PROFILED].count).max(1);
        let pool_stats = pool.stats();
        layers.set("orbit_stream.busy_s", gen_busy.as_secs_f64());
        layers.set("orbit_stream.canonical", gen_canonical as f64);
        layers.set("orbit_stream.pruned_symmetric", gen_pruned as f64);
        layers.set("candidate_pipeline.memo_hits", stats.memo_hits as f64);
        layers.set(
            "candidate_pipeline.memo_hits_cross",
            stats.memo_hits_cross as f64,
        );
        layers.set(
            "candidate_pipeline.memo_hit_ratio",
            classes[MEMO].count as f64 / canonical,
        );
        layers.set("candidate_pipeline.memo_entries", shared.len() as f64);
        layers.set(
            "candidate_pipeline.memo_hit_busy_s",
            secs(classes[MEMO].busy_ns),
        );
        layers.set("symbolic.prefilter_rejects", classes[SYMBOLIC].count as f64);
        layers.set(
            "symbolic.prefilter_reject_ratio",
            classes[SYMBOLIC].count as f64 / computed as f64,
        );
        layers.set("symbolic.prefilter_busy_s", secs(classes[SYMBOLIC].busy_ns));
        layers.set("symbolic.eta_floor_rejects", classes[ETA].count as f64);
        layers.set("symbolic.eta_floor_busy_s", secs(classes[ETA].busy_ns));
        layers.set("reach.profiled", classes[PROFILED].count as f64);
        layers.set(
            "reach.threshold_protocols",
            stats.threshold_protocols as f64,
        );
        layers.set("reach.truncated", stats.truncated_orbits as f64);
        layers.set("reach.profile_busy_s", secs(classes[PROFILED].busy_ns));
        layers.set("funnel.pruned_symbolic", stats.pruned_symbolic as f64);
        layers.set("funnel.pruned_eta_bounded", stats.pruned_eta_bounded as f64);
        layers.set("funnel.profiled", stats.profiled as f64);
        layers.set("exec.tasks", pool_stats.total_tasks() as f64);
        layers.set("exec.helped", pool_stats.helped as f64);
        layers.set(
            "exec.idle_s",
            secs(pool_stats.per_worker_idle_ns.iter().sum()),
        );
        (wall, failures)
    }
}

const MEMO: usize = 0;
const SYMBOLIC: usize = 1;
const ETA: usize = 2;
const PROFILED: usize = 3;
const CLASSES: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Class {
    count: u64,
    busy_ns: u64,
}

struct SegmentTally {
    stats: PipelineStats,
    classes: [Class; CLASSES],
    span_ns: u64,
}

/// Replays one segment: a fresh pipeline over `[start, end)`, every offer
/// timed and classified by the counters it moved.
fn replay_segment(
    space: &OrbitSpace,
    config: &PipelineConfig,
    shared: &SharedMemo,
    (start, end): (u128, u128),
    index: u64,
    log: &SpanLog,
) -> SegmentTally {
    let started = Instant::now();
    let mut pipeline = CandidatePipeline::new(space.num_states(), config.clone());
    let mut stream = OrbitStream::range(space, start, end);
    let mut classes = [Class::default(); CLASSES];
    let mut before = pipeline.stats().clone();
    while let Some(k) = stream.next_canonical() {
        let outputs = (k % space.output_patterns()) as u32;
        let t = Instant::now();
        pipeline.offer_shared(space, k, stream.current_assignment(), outputs, shared);
        let busy = t.elapsed().as_nanos() as u64;
        let after = pipeline.stats();
        let class = if after.memo_hits > before.memo_hits
            || after.memo_hits_cross > before.memo_hits_cross
        {
            MEMO
        } else if after.pruned_symbolic > before.pruned_symbolic {
            SYMBOLIC
        } else if after.pruned_eta_bounded > before.pruned_eta_bounded {
            ETA
        } else {
            PROFILED
        };
        classes[class].count += 1;
        classes[class].busy_ns += busy;
        before = after.clone();
    }
    let mut stats = pipeline.stats().clone();
    stats.pruned_symmetric = stream.pruned_symmetric();
    let span = started.elapsed();
    log.record("segment", "replay", index, started, span);
    SegmentTally {
        stats,
        classes,
        span_ns: span.as_nanos() as u64,
    }
}
