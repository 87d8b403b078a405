//! The simulator workloads: approximate majority run to silence.
//!
//! * `converge_1e6_k256` — n = 10⁶ split 55:45, 256 lanes through
//!   `run_experiment(EngineKind::Ensemble { lanes: 256, shards: 2 })`.
//! * `solo_1e8` — n = 10⁸ split 2:1, single trajectories through
//!   `run_experiment(EngineKind::Batched)`: two E8-large rows (two seeds
//!   each) per repetition, so one slow seed moves the wall time less.  One
//!   row of four seeds would run three threads on two cores, because the
//!   calling thread helps the pool's two workers.
//!
//! Lane seeds derive from the workload seed.  The traced replay drives the
//! engines the runner would build, on the same process-wide pool: the
//! ensemble's shards with their wave-phase breakdown, and the batched
//! engine's `advance` calls timed apart from its convergence checks.

use crate::layers::Layers;
use crate::spans::SpanLog;
use crate::Workload;
use popproto_model::{Config, Input, Output, Protocol};
use popproto_sim::{
    run_ensemble_until_convergence, run_experiment, BatchedSimulator, ConvergenceCriterion,
    ConvergenceOutcome, EngineKind, EnsembleSimulator, SimulationEngine, SimulationExperiment,
};
use popproto_zoo::approximate_majority;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of a shard's (or trajectory's) drive time its timed parts may
/// miss: the ensemble's convergence loop and the batched engine's
/// checks between the timed parts cost well under this.
const ACCOUNTING_TOLERANCE: f64 = 0.02;

#[derive(Clone, Copy)]
enum Kind {
    Converge,
    Solo,
}

pub struct Sim {
    kind: Kind,
    /// Run one after another in each repetition.
    experiments: Vec<SimulationExperiment>,
    initial: Config,
}

/// SplitMix64: the lane seeds of workload seed `seed`.
fn lane_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

impl Sim {
    pub fn converge_1e6_k256(seed: u64) -> Self {
        let n = 1_000_000u64;
        let majority = n * 55 / 100;
        let engine = EngineKind::Ensemble {
            lanes: 256,
            shards: 2,
        };
        Sim::new(
            Kind::Converge,
            seed,
            &[256],
            [majority, n - majority],
            engine,
        )
    }

    pub fn solo_1e8(seed: u64) -> Self {
        let n = 100_000_000u64;
        Sim::new(
            Kind::Solo,
            seed,
            &[2, 2],
            [2 * n / 3, n - 2 * n / 3],
            EngineKind::Batched,
        )
    }

    /// One experiment per entry of `lanes`, each with that many seeds.
    fn new(kind: Kind, seed: u64, lanes: &[usize], counts: [u64; 2], engine: EngineKind) -> Self {
        let protocol = approximate_majority();
        let input = Input::from_counts(counts.to_vec());
        let initial = protocol.initial_config(&input);
        let mut seeds = lane_seeds(seed, lanes.iter().sum()).into_iter();
        let experiments = lanes
            .iter()
            .map(|&k| {
                let mut e = SimulationExperiment::new(protocol.clone(), input.clone(), 0, u64::MAX)
                    .with_engine(engine);
                e.seeds = seeds.by_ref().take(k).collect();
                e.criterion = ConvergenceCriterion::Silent;
                e
            })
            .collect();
        Sim {
            kind,
            experiments,
            initial,
        }
    }

    fn lanes(&self) -> usize {
        self.experiments.iter().map(|e| e.seeds.len()).sum()
    }
}

/// The lane blocks `run_experiment` shards an experiment's seeds into.
fn blocks(experiment: &SimulationExperiment) -> Vec<Vec<u64>> {
    match experiment.engine {
        EngineKind::Ensemble { lanes, shards } => {
            let sub = lanes.div_ceil(shards);
            experiment.seeds.chunks(sub).map(<[u64]>::to_vec).collect()
        }
        _ => experiment.seeds.iter().map(|&s| vec![s]).collect(),
    }
}

impl Workload for Sim {
    type Output = Vec<ConvergenceOutcome>;

    fn setup(&self) -> Duration {
        let (protocol, initial) = (&self.experiments[0].protocol, &self.initial);
        let blocks: Vec<Vec<u64>> = self.experiments.iter().flat_map(blocks).collect();
        match self.kind {
            Kind::Converge => crate::time_build(|| {
                blocks
                    .iter()
                    .map(|b| EnsembleSimulator::new(protocol.clone(), initial.clone(), b))
                    .collect::<Vec<_>>()
            }),
            Kind::Solo => crate::time_build(|| {
                blocks
                    .iter()
                    .map(|b| BatchedSimulator::new(protocol.clone(), initial.clone(), b[0]))
                    .collect::<Vec<_>>()
            }),
        }
    }

    fn run(&self) -> Vec<ConvergenceOutcome> {
        self.experiments
            .iter()
            .flat_map(|e| run_experiment(e).outcomes)
            .collect()
    }

    fn check(&self, out: &Vec<ConvergenceOutcome>) -> Result<(), String> {
        if out.len() != self.lanes() {
            return Err(format!("{} outcomes for {} lanes", out.len(), self.lanes()));
        }
        // The first opinion holds the majority and outputs true.
        match out
            .iter()
            .position(|o| !o.converged || o.output != Some(true))
        {
            Some(lane) => Err(format!(
                "lane {lane} ended converged={} output={:?}",
                out[lane].converged, out[lane].output
            )),
            None => Ok(()),
        }
    }

    fn work(&self, out: &Vec<ConvergenceOutcome>) -> f64 {
        out.iter().map(|o| o.interactions as f64).sum()
    }

    fn traced(
        &self,
        timed: &Vec<ConvergenceOutcome>,
        layers: &mut Layers,
        log: &Arc<SpanLog>,
    ) -> (Duration, Vec<String>) {
        let pool = popproto_exec::global();
        let before = pool.stats();
        let protocol = Arc::new(self.experiments[0].protocol.clone());
        let initial = Arc::new(self.initial.clone());
        let kind = self.kind;
        let started = Instant::now();
        let mut shards = Vec::new();
        for experiment in &self.experiments {
            let (protocol, initial, log) =
                (Arc::clone(&protocol), Arc::clone(&initial), Arc::clone(log));
            shards.extend(pool.map(blocks(experiment), move |i, block| match kind {
                Kind::Converge => drive_ensemble(&protocol, &initial, &block, i as u64, &log),
                Kind::Solo => drive_batched(&protocol, &initial, block[0], i as u64, &log),
            }));
        }
        let wall = started.elapsed();
        log.record("workload", "", 0, started, wall);
        let after = pool.stats();

        let mut failures = Vec::new();
        let outcomes: Vec<&ConvergenceOutcome> = shards.iter().flat_map(|s| &s.outcomes).collect();
        let same = outcomes.len() == timed.len()
            && outcomes.iter().zip(timed).all(|(a, b)| {
                (
                    a.converged,
                    a.output,
                    a.interactions,
                    a.interactions_to_convergence,
                ) == (
                    b.converged,
                    b.output,
                    b.interactions,
                    b.interactions_to_convergence,
                )
            });
        if !same {
            failures.push("traced outcomes differ from the timed run's".to_owned());
        }
        for (i, s) in shards.iter().enumerate() {
            let accounted = s.parts_ns.iter().sum::<u64>() as f64;
            let drive = s.drive_ns as f64;
            eprintln!(
                "perfbench: shard {i}: timed parts account for {:.4} of the drive",
                accounted / drive
            );
            if accounted > drive * 1.001 || accounted < drive * (1.0 - ACCOUNTING_TOLERANCE) {
                failures.push(format!(
                    "shard {i}: timed parts account for {accounted} ns of a {drive} ns drive"
                ));
            }
        }

        let secs = |ns: u64| ns as f64 * 1e-9;
        let part = |p: usize| shards.iter().map(|s| s.parts_ns[p]).sum::<u64>();
        let interactions: u64 = outcomes.iter().map(|o| o.interactions).sum();
        let effective: u64 = shards.iter().map(|s| s.effective).sum();
        let calls: u64 = shards.iter().map(|s| s.calls).sum();
        let effective_ratio = effective as f64 / interactions.max(1) as f64;
        match self.kind {
            Kind::Converge => {
                layers.set("ensemble.waves", calls as f64);
                for (p, name) in [
                    "ensemble.classification_s",
                    "ensemble.split_s",
                    "ensemble.pairing_s",
                    "ensemble.apply_s",
                    "ensemble.collision_s",
                    "ensemble.silence_s",
                ]
                .into_iter()
                .enumerate()
                {
                    layers.set(name, secs(part(p)));
                }
                layers.set("ensemble.interactions", interactions as f64);
                layers.set("ensemble.effective_ratio", effective_ratio);
            }
            Kind::Solo => {
                layers.set("batched.advance_calls", calls as f64);
                layers.set("batched.advance_busy_s", secs(part(0)));
                layers.set("batched.check_busy_s", secs(part(1)));
                layers.set("batched.interactions", interactions as f64);
                layers.set("batched.effective_ratio", effective_ratio);
                layers.set(
                    "batched.ns_per_interaction",
                    part(0) as f64 / interactions.max(1) as f64,
                );
            }
        }
        layers.set(
            "exec.tasks",
            (after.total_tasks() - before.total_tasks()) as f64,
        );
        layers.set("exec.helped", (after.helped - before.helped) as f64);
        let idle = |s: &popproto_exec::PoolStats| s.per_worker_idle_ns.iter().sum::<u64>();
        layers.set("exec.idle_s", secs(idle(&after) - idle(&before)));
        (wall, failures)
    }
}

/// One shard (or one trajectory) of a traced replay.
struct ShardTrace {
    outcomes: Vec<ConvergenceOutcome>,
    /// Ensemble: the six wave-phase times.  Batched: advance, checks.
    parts_ns: Vec<u64>,
    /// Ensemble: waves.  Batched: `advance` calls.
    calls: u64,
    effective: u64,
    /// Time from the first unit of work to the outcome.
    drive_ns: u64,
}

fn drive_ensemble(
    protocol: &Protocol,
    initial: &Config,
    seeds: &[u64],
    shard: u64,
    log: &SpanLog,
) -> ShardTrace {
    let mut sim = EnsembleSimulator::new(protocol.clone(), initial.clone(), seeds);
    let started = Instant::now();
    let outcomes = run_ensemble_until_convergence(&mut sim, ConvergenceCriterion::Silent, u64::MAX);
    let drive = started.elapsed();
    log.record("shard", "workload", shard, started, drive);
    let phases = sim.phase_breakdown();
    // Retirement only swaps lane columns, so every lane's counter is still
    // in one of the first `seeds.len()` slots.
    let effective = (0..seeds.len())
        .map(|l| sim.lane_effective_interactions(l))
        .sum();
    ShardTrace {
        outcomes,
        parts_ns: vec![
            phases.classification_ns,
            phases.split_ns,
            phases.pairing_ns,
            phases.apply_ns,
            phases.collision_ns,
            phases.silence_ns,
        ],
        calls: phases.waves,
        effective,
        drive_ns: drive.as_nanos() as u64,
    }
}

/// `run_until_convergence` under the silence criterion with an unbounded
/// budget, with each `advance` call and each convergence check timed.
fn drive_batched(
    protocol: &Protocol,
    initial: &Config,
    seed: u64,
    index: u64,
    log: &SpanLog,
) -> ShardTrace {
    let mut sim = BatchedSimulator::new(protocol.clone(), initial.clone(), seed);
    let population = sim.population();
    let (mut advance_ns, mut check_ns, mut calls) = (0u64, 0u64, 0u64);
    let mut converged_at = None;
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let interactions = sim.interactions();
        let silent = sim.is_silent();
        check_ns += t.elapsed().as_nanos() as u64;
        if silent {
            converged_at = Some(interactions);
            break;
        }
        if interactions == u64::MAX {
            break;
        }
        let t = Instant::now();
        let advanced = sim.advance(u64::MAX - interactions);
        let dur = t.elapsed();
        log.record("advance", "trajectory", calls, t, dur);
        advance_ns += dur.as_nanos() as u64;
        calls += 1;
        let t = Instant::now();
        let stuck = advanced == 0 && sim.current_output().is_none();
        check_ns += t.elapsed().as_nanos() as u64;
        if stuck {
            break;
        }
    }
    let t = Instant::now();
    let output = sim.current_output().map(Output::as_bool);
    check_ns += t.elapsed().as_nanos() as u64;
    let drive = started.elapsed();
    log.record("trajectory", "workload", index, started, drive);
    ShardTrace {
        outcomes: vec![ConvergenceOutcome {
            converged: converged_at.is_some(),
            output,
            interactions: sim.interactions(),
            interactions_to_convergence: converged_at,
            parallel_time: converged_at.map(|i| i as f64 / population as f64),
            population,
        }],
        parts_ns: vec![advance_ns, check_ns],
        calls,
        effective: sim.effective_interactions(),
        drive_ns: drive.as_nanos() as u64,
    }
}
