//! The benchmark's own host-time spans around its calls into each layer.
//!
//! Off by default; a traced run switches it on for its traced
//! repetitions. Spans are kept in memory and written once, when the run
//! ends, so recording costs a clock read and a push under a lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded call: which layer the benchmark called into, what it
/// called, and when (µs since the tracer's epoch).
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub layer: &'static str,
    pub name: &'static str,
    pub thread: String,
    pub start_us: f64,
    pub dur_us: f64,
}

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<HostSpan>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn spans() -> std::sync::MutexGuard<'static, Vec<HostSpan>> {
    SPANS
        .lock()
        .expect("a thread panicked while recording a span")
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::Release);
}

/// A start timestamp, taken only while tracing is on.
#[derive(Clone, Copy)]
pub struct Stamp(Option<Instant>);

impl Stamp {
    pub fn now() -> Stamp {
        Stamp(ON.load(Ordering::Acquire).then(Instant::now))
    }

    /// Record a span from this stamp to now (no-op if tracing was off
    /// when the stamp was taken).
    pub fn record(&self, layer: &'static str, name: &'static str) {
        let Some(start) = self.0 else { return };
        let end = Instant::now();
        let epoch = *EPOCH.get().expect("epoch set when tracing is on");
        let span = HostSpan {
            layer,
            name,
            thread: std::thread::current().name().unwrap_or("main").to_owned(),
            start_us: start.duration_since(epoch).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        };
        spans().push(span);
    }
}

/// Run `f` inside a span.
pub fn timed<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let s = Stamp::now();
    let out = f();
    s.record(layer, name);
    out
}

/// Forget every recorded span.
pub fn clear() {
    spans().clear();
}

/// Durations (µs) of every recorded span with this layer and name.
pub fn durations_us(layer: &str, name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur_us)
        .collect()
}

/// Write every recorded span as one JSON array (Chrome `trace_events`
/// "complete" events, so the file opens in a trace viewer).
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    let spans = spans();
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"cat\":\"{}\",\"name\":\"{}\",\"pid\":0,\"tid\":\"{}\",\"ts\":{:.3},\"dur\":{:.3}}}{}\n",
            s.layer,
            s.name,
            s.thread,
            s.start_us,
            s.dur_us,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
