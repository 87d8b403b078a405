//! Build and host fingerprint, peak-memory probes and noise diagnostics.
//!
//! Everything here reads `/proc`; on a system without it the probes
//! report zeros rather than failing the run.

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `USER_HZ`, the unit of the tick counters in `/proc/stat` and
/// `/proc/self/stat` (100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// The build and host fingerprint, as a JSON object.
pub fn fingerprint_json() -> String {
    let (simd_active, simd_tier) = popproto_sim::simd_control::status();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_default();
    format!(
        concat!(
            "{{\"rustflags\":{},\"target_features\":{},\"profile\":{},",
            "\"simd_feature\":{},\"simd_active\":{},\"simd_tier\":{},",
            "\"cpu_features\":{},\"cpu_model\":{},\"nproc\":{}}}"
        ),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(env!("PERFBENCH_TARGET_FEATURES")),
        json_str(env!("PERFBENCH_PROFILE")),
        popproto_sim::simd_control::COMPILED,
        simd_active,
        json_str(simd_tier),
        json_str(&detected_cpu_features().join(",")),
        json_str(&cpu_model),
        nproc,
    )
}

#[cfg(target_arch = "x86_64")]
fn detected_cpu_features() -> Vec<&'static str> {
    let mut found = Vec::new();
    macro_rules! probe {
        ($($f:tt),*) => {
            $(if std::is_x86_feature_detected!($f) {
                found.push($f);
            })*
        };
    }
    probe!(
        "sse4.2", "popcnt", "avx", "avx2", "bmi2", "fma", "avx512f", "avx512dq", "avx512bw",
        "avx512vl"
    );
    found
}

#[cfg(not(target_arch = "x86_64"))]
fn detected_cpu_features() -> Vec<&'static str> {
    Vec::new()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Times a fixed, memory-free integer kernel (a few milliseconds): a
/// reading of host compute speed, recorded before every repetition.
pub fn alu_reference_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..2_000_000 {
        x = xorshift(x);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Entries of the [`memory_reference_ms`] chase: 4 MiB, beyond a core's
/// L2 and inside the shared L3, where other tenants' traffic shows.
const CHASE_LEN: usize = 1 << 20;
const CHASE_STEPS: usize = 200_000;

/// Times a dependent pointer chase through a random 4 MiB cycle (a few
/// milliseconds): a reading of cache and memory latency, which moves
/// with other tenants' load even when [`alu_reference_ms`] holds still.
/// The buffer is built and freed on every call, so it never counts
/// towards a repetition's peak memory.
pub fn memory_reference_ms() -> f64 {
    // Sattolo's shuffle: one cycle through every entry.
    let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..CHASE_LEN).rev() {
        x = xorshift(x);
        next.swap(i, (x % i as u64) as usize);
    }
    let started = Instant::now();
    let mut at = std::hint::black_box(0u32);
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    started.elapsed().as_secs_f64() * 1e3
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Resets the process's peak-RSS watermark to its current RSS
/// (`/proc/self/clear_refs`, value 5), so the next [`peak_rss_mb`] reads
/// the peak of the work in between.  Returns `false` where the kernel
/// refuses, in which case the watermark is the process lifetime's.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Process CPU time (user + system, all threads including exited ones).
fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Host steal time across all CPUs (`/proc/stat`, 8th value of `cpu`).
fn host_steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().and_then(|l| {
                l.split_whitespace()
                    .nth(8)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |t| t / TICKS_PER_S)
}

type Samples = Arc<Mutex<HashMap<u64, u64>>>;

/// Run-queue wait in ns per live thread of this process
/// (`/proc/self/task/*/schedstat`, second field).
fn thread_waits() -> Vec<(u64, u64)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
            let text = fs::read_to_string(entry.path().join("schedstat")).ok()?;
            let wait = text.split_whitespace().nth(1)?.parse().ok()?;
            Some((tid, wait))
        })
        .collect()
}

/// Samples the run-queue wait of every thread of the process while the
/// workload runs.  Threads that exit mid-run (a search's own pool) are
/// covered up to their last sample, at most one period before they ended.
pub struct NoiseProbe {
    started: Instant,
    cpu0: f64,
    steal0: f64,
    baseline: HashMap<u64, u64>,
    latest: Samples,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
}

/// What a [`NoiseProbe`] saw over one run.
pub struct Noise {
    /// Wall time of the run.
    pub wall_s: f64,
    /// CPU time of the process over the run.
    pub cpu_s: f64,
    /// Time the process's threads waited on a run queue.
    pub runq_wait_s: f64,
    /// Host steal time over the run, summed over the guest's CPUs.
    pub steal_s: f64,
}

impl NoiseProbe {
    /// Starts the probe and its sampling thread.
    pub fn start() -> Self {
        let baseline: HashMap<u64, u64> = thread_waits().into_iter().collect();
        let latest: Samples = Arc::new(Mutex::new(baseline.clone()));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let stop = Arc::clone(&stop);
            let latest = Arc::clone(&latest);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    let now = thread_waits();
                    latest.lock().expect("noise sampler poisoned").extend(now);
                }
            })
        };
        NoiseProbe {
            started: Instant::now(),
            cpu0: process_cpu_s(),
            steal0: host_steal_s(),
            baseline,
            latest,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Stops the sampler and reports the run's diagnostics.
    pub fn finish(mut self) -> Noise {
        let wall_s = self.started.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - self.cpu0;
        let steal_s = host_steal_s() - self.steal0;
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.sampler.take() {
            handle.join().expect("noise sampler panicked");
        }
        let mut latest = self.latest.lock().expect("noise sampler poisoned");
        latest.extend(thread_waits());
        let wait_ns: u64 = latest
            .iter()
            .map(|(tid, &wait)| wait.saturating_sub(self.baseline.get(tid).copied().unwrap_or(0)))
            .sum();
        Noise {
            wall_s,
            cpu_s,
            runq_wait_s: wait_ns as f64 * 1e-9,
            steal_s,
        }
    }
}

impl Noise {
    /// The diagnostics as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_s\":{},\"cpu_s\":{},\"runq_wait_s\":{},\"steal_s\":{}}}",
            self.wall_s, self.cpu_s, self.runq_wait_s, self.steal_s
        )
    }
}
