//! The benchmark harness: runs one workload for a fixed time and prints
//! its metrics as JSON.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! With `--trace 0` the workload is repeated until `--seconds` have passed
//! and the end-to-end metrics are the medians over the repetitions.  With
//! `--trace 1` each untraced repetition is followed by a traced one that
//! replays the same work through the layers' public entry points, timing
//! each layer from outside; the per-layer metrics are medians over the
//! traced repetitions.  The last line of standard output is the result
//! object; the line before it is a record with the build and host
//! fingerprint, the noise diagnostics and every sample.  See `README.md`.

mod host;
mod layers;
mod search;
mod sim;
mod spans;

use layers::Layers;
use spans::SpanLog;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One workload: how to set it up, run it, check it and replay it traced.
pub trait Workload {
    /// What one untraced run produces.
    type Output;

    /// Constructs the search or engine the workload runs on and drops it,
    /// returning the construction time alone.
    fn setup(&self) -> Duration;

    /// One untraced run, setup included.
    fn run(&self) -> Self::Output;

    /// The correctness gate of one run.
    fn check(&self, out: &Self::Output) -> Result<(), String>;

    /// Units of work in one run: canonical orbits or interactions.
    fn work(&self, out: &Self::Output) -> f64;

    /// One traced replay of the work `timed` did.  Fills `layers`, records
    /// coarse spans into `log`, and returns the traced wall time plus
    /// every failed consistency check.
    fn traced(
        &self,
        timed: &Self::Output,
        layers: &mut Layers,
        log: &Arc<SpanLog>,
    ) -> (Duration, Vec<String>);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "bb3_exact" => execute(&search::Search::bb3_exact(), &args),
        "bb4_prefix" => execute(&search::Search::bb4_prefix(), &args),
        "converge_1e6_k256" => execute(&sim::Sim::converge_1e6_k256(args.seed), &args),
        "solo_1e8" => execute(&sim::Sim::solo_1e8(args.seed), &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            ExitCode::from(2)
        }
    }
}

fn execute<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let probe = host::NoiseProbe::start();
    let report = drive(w, args);
    let noise = probe.finish();
    let source = std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "{}".to_owned());
    println!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"source\":{},\"fingerprint\":{},\"noise\":{},\"samples\":{},\"failures\":[{}]}}}}",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        source,
        host::fingerprint_json(),
        noise.to_json(),
        report.samples_json(),
        report
            .failures
            .iter()
            .map(|f| host::json_str(f))
            .collect::<Vec<_>>()
            .join(","),
    );
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}

/// Times `build` alone; what it built is dropped outside the timing.
pub fn time_build<T>(build: impl FnOnce() -> T) -> Duration {
    let started = Instant::now();
    let built = std::hint::black_box(build());
    let elapsed = started.elapsed();
    drop(built);
    elapsed
}

/// Everything one invocation measured.
struct Report {
    attempted: u64,
    /// Runs whose gate or consistency checks failed.
    failed: u64,
    failures: Vec<String>,
    /// `(name, unit, samples)`; the reported value is the median.
    metrics: Vec<(&'static str, &'static str, Vec<f64>)>,
    /// [`host::alu_reference_ms`] and [`host::memory_reference_ms`] before
    /// each repetition.
    host_alu_ms: Vec<f64>,
    host_mem_ms: Vec<f64>,
}

impl Report {
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, samples)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    host::json_str(name),
                    median(samples),
                    host::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    fn samples_json(&self) -> String {
        let host_ref = [
            ("host_alu_ms", "ms", self.host_alu_ms.clone()),
            ("host_mem_ms", "ms", self.host_mem_ms.clone()),
        ];
        let fields: Vec<String> = self
            .metrics
            .iter()
            .chain(&host_ref)
            .map(|(name, _, samples)| {
                let values: Vec<String> = samples.iter().map(f64::to_string).collect();
                format!("{}:[{}]", host::json_str(name), values.join(","))
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// The median of `samples` (mean of the middle two for an even count).
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Before each repetition, setup is timed for [`SETUP_SLICE`] (at least
/// [`SETUP_MIN_REPS`], at most [`SETUP_MAX_REPS`] times), so its median
/// spans the whole run rather than its first milliseconds.
const SETUP_SLICE: Duration = Duration::from_millis(20);
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 200;

fn time_setup<W: Workload>(w: &W, samples: &mut Vec<f64>) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < SETUP_MAX_REPS && (reps < SETUP_MIN_REPS || started.elapsed() < SETUP_SLICE) {
        samples.push(w.setup().as_secs_f64());
        reps += 1;
    }
}

fn drive<W: Workload>(w: &W, args: &Args) -> Report {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut report = Report {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        host_alu_ms: Vec::new(),
        host_mem_ms: Vec::new(),
    };
    let mut setup = Vec::new();
    let mut wall = Vec::new();
    let mut throughput = Vec::new();
    let mut rss = Vec::new();
    let mut traced_wall = Vec::new();
    let mut layer_samples: Vec<Layers> = Vec::new();
    let log = Arc::new(SpanLog::new());
    loop {
        report.host_alu_ms.push(host::alu_reference_ms());
        report.host_mem_ms.push(host::memory_reference_ms());
        if !args.trace {
            time_setup(w, &mut setup);
        }
        // One untraced run: the end-to-end sample.
        let run = report.attempted;
        if run == 0 {
            host::reset_peak_rss();
        }
        let started = Instant::now();
        let out = w.run();
        let checked = w.check(&out);
        let elapsed = started.elapsed().as_secs_f64();
        if run == 0 {
            // Peak memory is read over the first repetition only: later
            // ones start from whatever the allocator kept of earlier ones,
            // which depends on which thread ran which job.
            rss.push(host::peak_rss_mb());
        }
        report.attempted += 1;
        wall.push(elapsed);
        throughput.push(w.work(&out) / elapsed);
        if let Err(e) = checked {
            report.failed += 1;
            report.failures.push(format!("run {run}: {e}"));
        }

        if args.trace {
            // One traced replay of the same work.
            let run = report.attempted;
            let mut layers = Layers::new();
            let (traced, failed) = w.traced(&out, &mut layers, &log);
            report.attempted += 1;
            traced_wall.push(traced.as_secs_f64());
            layer_samples.push(layers);
            if !failed.is_empty() {
                report.failed += 1;
                report
                    .failures
                    .extend(failed.into_iter().map(|e| format!("run {run}: {e}")));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    if args.trace {
        let overhead = median(&traced_wall) / median(&wall);
        report.metrics = layers::merged(&layer_samples, overhead);
        if let Some(path) = &args.spans {
            if let Err(e) = log.write_chrome_trace(path) {
                eprintln!("perfbench: could not write spans to {path}: {e}");
            }
        }
    } else {
        report.metrics = vec![
            ("wall_s", "s", wall),
            ("setup_s", "s", setup),
            ("throughput_per_s", "1/s", throughput),
            ("peak_rss_mb", "MB", rss),
        ];
    }
    report
}
