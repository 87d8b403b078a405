//! Coarse spans recorded from outside the program, held in memory and
//! written out as a Chrome trace-event file when the run ends.

use std::cell::Cell;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// A small per-process thread number for the trace's `tid` column.
fn thread_number() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

struct Span {
    name: &'static str,
    parent: &'static str,
    arg: u64,
    tid: u64,
    start: Duration,
    dur: Duration,
}

/// The spans of one invocation.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a finished span `name` (child of `parent`) that started at
    /// `start` and lasted `dur`, on the calling thread.
    pub fn record(
        &self,
        name: &'static str,
        parent: &'static str,
        arg: u64,
        start: Instant,
        dur: Duration,
    ) {
        let span = Span {
            name,
            parent,
            arg,
            tid: thread_number(),
            start: start.saturating_duration_since(self.origin),
            dur,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Writes every span as a Chrome trace-event file (`ph: "X"` complete
    /// events, microseconds).
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\",\"arg\":{}}}}}",
                    s.name,
                    s.tid,
                    s.start.as_secs_f64() * 1e6,
                    s.dur.as_secs_f64() * 1e6,
                    s.parent,
                    s.arg
                )
            })
            .collect();
        if let Some(dir) = std::path::Path::new(path).parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(
            path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )
    }
}
