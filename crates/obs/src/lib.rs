//! Zero-dependency observability for the popproto workspace.
//!
//! Three cooperating layers, all inert unless explicitly switched on:
//!
//! * **Spans and instants** ([`span`], [`span_with_arg`], [`instant`]) — a
//!   global tracing gate guarded by a single relaxed atomic load.  While
//!   tracing is disabled (the default) a span check costs one load and a
//!   trivially-dead guard; the crate's test suite asserts the per-check
//!   cost stays below 5 ns in release builds.  While enabled, events are
//!   buffered in thread-local vectors and flushed into a global sink
//!   whenever the recording thread's span depth returns to zero, so the
//!   hot path never takes the sink lock mid-span.  [`stop`] drains the
//!   sink into a [`Trace`] that exports to the Chrome Trace Event Format
//!   (viewable in `chrome://tracing` or Perfetto).
//! * **Metrics registry** ([`registry`]) — named counters, gauges and
//!   log-bucketed histograms behind atomics, snapshotted into a
//!   deterministic, name-sorted [`ObsSnapshot`] that serializes to JSON
//!   without any external dependency.
//! * **Heartbeats** ([`Heartbeat`]) — period-gated JSONL progress lines
//!   for long-running searches; callers embed their own resume token
//!   (e.g. a serialized checkpoint) so any heartbeat line is a valid
//!   restart point.
//!
//! Instrumentation through this crate must be *provably inert*: it only
//! observes, it never feeds back into the computation, so search and
//! simulation outputs are bit-identical with tracing enabled, disabled,
//! or absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod heartbeat;
mod metrics;
mod phases;
mod trace;

pub use heartbeat::Heartbeat;
pub use metrics::{registry, Counter, Gauge, Hist, HistogramSnapshot, ObsSnapshot, Registry};
pub use phases::{PhaseMark, Phases};
pub use trace::{validate_chrome_trace, TraceSummary};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global tracing gate.  `false` (the default) short-circuits every span
/// and instant to a no-op after one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotone session counter, bumped by [`start`].  Thread-local buffers
/// remember the session they were filled in; stale events from an
/// earlier session are discarded instead of contaminating a new trace.
static SESSION: AtomicU64 = AtomicU64::new(0);

/// Start of the current session, nanoseconds since the trace epoch.
static SESSION_START_NS: AtomicU64 = AtomicU64::new(0);

/// Next thread id handed to a recording thread (0 is reserved).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn sink() -> &'static Mutex<Vec<Event>> {
    static SINK: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// The trace epoch: all timestamps are nanoseconds since this instant.
/// Pinned on first use and shared by every session (timestamps only ever
/// grow, which is all the trace format needs).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub(crate) fn ns_since_epoch(t: Instant) -> u64 {
    t.duration_since(epoch()).as_nanos() as u64
}

/// Start of the current tracing session, nanoseconds since the trace epoch.
pub(crate) fn session_start_ns() -> u64 {
    SESSION_START_NS.load(Ordering::Relaxed)
}

/// Returns `true` while span/instant recording is switched on.
///
/// This is the fast-path check: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switches tracing on and clears any previously collected events.
pub fn start() {
    epoch(); // pin the epoch before the first event
    SESSION_START_NS.store(ns_since_epoch(Instant::now()), Ordering::SeqCst);
    SESSION.fetch_add(1, Ordering::SeqCst);
    sink().lock().expect("obs sink poisoned").clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Switches tracing off and drains every flushed event into a [`Trace`].
///
/// Threads flush their buffers when their span depth returns to zero, so
/// call `stop` only after the traced work has joined (e.g. after a pool
/// `map` returned); events still buffered on a live thread at stop time
/// are not included.
pub fn stop() -> Trace {
    ENABLED.store(false, Ordering::SeqCst);
    let events = std::mem::take(&mut *sink().lock().expect("obs sink poisoned"));
    Trace { events }
}

/// A single recorded trace event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A closed span on one thread.
    Complete {
        /// Span name.
        name: &'static str,
        /// Recording thread id.
        tid: u64,
        /// Start, nanoseconds since the trace epoch.
        ts_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
        /// Optional single integer argument.
        arg: Option<(&'static str, u64)>,
    },
    /// A zero-duration marker.
    Instant {
        /// Marker name.
        name: &'static str,
        /// Recording thread id.
        tid: u64,
        /// Timestamp, nanoseconds since the trace epoch.
        ts_ns: u64,
        /// Optional single integer argument.
        arg: Option<(&'static str, u64)>,
    },
    /// Thread-name metadata, emitted once per recording thread.
    ThreadName {
        /// Recording thread id.
        tid: u64,
        /// Human-readable thread name.
        name: String,
    },
}

/// A drained trace: the events collected between [`start`] and [`stop`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// The collected events, in flush order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the trace to the Chrome Trace Event Format
    /// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and
    /// Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        trace::to_chrome_trace(&self.events)
    }
}

pub(crate) struct ThreadBuf {
    pub(crate) tid: u64,
    depth: u32,
    session: u64,
    named: bool,
    pub(crate) events: Vec<Event>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            session: 0,
            named: false,
            events: Vec::new(),
        }
    }

    /// Drops buffered events from an earlier session and (re-)emits the
    /// thread-name metadata event for the current one.
    pub(crate) fn sync_session(&mut self) {
        let current = SESSION.load(Ordering::Relaxed);
        if self.session != current {
            self.events.clear();
            self.session = current;
            self.named = false;
        }
        if !self.named {
            self.named = true;
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{}", self.tid));
            self.events.push(Event::ThreadName {
                tid: self.tid,
                name,
            });
        }
    }

    pub(crate) fn flush_if_idle(&mut self) {
        if self.depth == 0 && !self.events.is_empty() {
            if self.session == SESSION.load(Ordering::Relaxed) {
                sink()
                    .lock()
                    .expect("obs sink poisoned")
                    .append(&mut self.events);
            } else {
                self.events.clear();
            }
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

pub(crate) fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    BUF.with(|b| f(&mut b.borrow_mut()))
}

/// Pending span payload: start instant, name, optional integer argument.
type SpanState = (Instant, &'static str, Option<(&'static str, u64)>);

/// RAII span guard returned by [`span`]; records a `Complete` event on
/// drop when tracing was enabled at creation time.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    live: Option<SpanState>,
}

impl Span {
    /// `true` when this guard will record an event on drop.
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((t0, name, arg)) = self.live.take() {
            let dur_ns = t0.elapsed().as_nanos() as u64;
            let ts_ns = ns_since_epoch(t0);
            with_buf(|b| {
                b.depth = b.depth.saturating_sub(1);
                b.sync_session();
                let tid = b.tid;
                b.events.push(Event::Complete {
                    name,
                    tid,
                    ts_ns,
                    dur_ns,
                    arg,
                });
                b.flush_if_idle();
            });
        }
    }
}

fn span_slow(name: &'static str, arg: Option<(&'static str, u64)>) -> Span {
    with_buf(|b| b.depth += 1);
    Span {
        live: Some((Instant::now(), name, arg)),
    }
}

/// Opens a named span.  No-op (one relaxed load) while tracing is
/// disabled; otherwise the returned guard records a complete event with
/// the span's wall-clock extent when dropped.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    span_slow(name, None)
}

/// Like [`span`], with a single integer argument attached to the event
/// (rendered under `args` in the chrome trace).
#[inline]
pub fn span_with_arg(name: &'static str, key: &'static str, value: u64) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    span_slow(name, Some((key, value)))
}

fn instant_slow(name: &'static str, arg: Option<(&'static str, u64)>) {
    let ts_ns = ns_since_epoch(Instant::now());
    with_buf(|b| {
        b.sync_session();
        let tid = b.tid;
        b.events.push(Event::Instant {
            name,
            tid,
            ts_ns,
            arg,
        });
        b.flush_if_idle();
    });
}

/// Records a zero-duration marker.  No-op while tracing is disabled.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        instant_slow(name, None);
    }
}

/// Like [`instant`], with a single integer argument.
#[inline]
pub fn instant_with_arg(name: &'static str, key: &'static str, value: u64) {
    if enabled() {
        instant_slow(name, Some((key, value)));
    }
}

pub mod test_support {
    //! Serialisation for tests that toggle the global tracing gate —
    //! public so downstream crates' inertness suites can use it too.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    /// Takes the process-wide gate-toggling lock (poisoning ignored: a
    /// failed test must not cascade into every later one).
    pub fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_a_no_op_and_cheap() {
        let _guard = test_support::serial();
        assert!(!enabled());
        let s = span("idle");
        assert!(!s.is_recording());
        drop(s);

        // Per-check cost: one relaxed load plus a dead guard.  Assert the
        // measured floor stays under budget (5 ns in release; debug
        // builds get slack because nothing is inlined there).
        const ITERS: u32 = 2_000_000;
        let budget_ns = if cfg!(debug_assertions) { 200.0 } else { 5.0 };
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for i in 0..ITERS {
                let s = span(std::hint::black_box("idle"));
                std::hint::black_box(&s);
                std::hint::black_box(i);
            }
            let per = t0.elapsed().as_nanos() as f64 / ITERS as f64;
            best = best.min(per);
        }
        assert!(
            best < budget_ns,
            "disabled span check cost {best:.2} ns/check exceeds {budget_ns} ns budget"
        );
    }

    #[test]
    fn spans_nest_flush_and_export() {
        let _guard = test_support::serial();
        start();
        {
            let _outer = span_with_arg("outer", "wave", 3);
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            instant_with_arg("tick", "n", 7);
        }
        let worker = std::thread::Builder::new()
            .name("obs-test-worker".into())
            .spawn(|| {
                let _s = span("worker-job");
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .unwrap();
        worker.join().unwrap();
        let trace = stop();
        assert!(!trace.is_empty());

        let json = trace.to_chrome_trace();
        let summary = validate_chrome_trace(&json).expect("trace must validate");
        assert_eq!(summary.complete, 3, "outer + inner + worker-job");
        assert_eq!(summary.instants, 1);
        assert!(summary.tids >= 2, "two recording threads");
        assert!(summary.max_depth >= 2, "inner nests inside outer");
        assert!(json.contains("obs-test-worker"));
        assert!(json.contains("\"wave\":3"));
    }

    #[test]
    fn events_recorded_after_stop_do_not_leak_into_the_next_session() {
        let _guard = test_support::serial();
        start();
        let open = span("straddles-stop");
        let first = stop();
        assert!(first.is_empty(), "span still open, nothing flushed");
        drop(open); // flushes into the sink, but for the old session

        start();
        instant("fresh");
        let second = stop();
        let names: Vec<&str> = second
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Instant { name, .. } => Some(*name),
                Event::Complete { name, .. } => Some(*name),
                Event::ThreadName { .. } => None,
            })
            .collect();
        assert!(names.contains(&"fresh"));
        assert!(
            !names.contains(&"straddles-stop"),
            "stale event leaked across sessions: {names:?}"
        );
    }

    #[test]
    fn disabled_instants_record_nothing() {
        let _guard = test_support::serial();
        start();
        let _ = stop(); // tracing now off, sink empty
        instant("ghost");
        start();
        let t = stop();
        assert!(t.is_empty(), "ghost event appeared: {:?}", t.events());
    }
}
