//! # mako-trace — structured tracing and metrics for the Mako stack
//!
//! A zero-dependency (std-only) observability layer: every other Mako crate
//! may depend on it without dragging in cycles or external crates, and the
//! vendored offline workspace stays self-contained.
//!
//! ## Model
//!
//! Three event kinds, recorded into a process-wide lock-cheap ring buffer:
//!
//! * **spans** — a named region with a wall-clock duration and typed
//!   key/value fields (`scf.iteration`, `fock.build`, `tuner.tune_class`);
//! * **instants** — a point event with fields (`fock.launch`,
//!   `dist.share`, `clock.iteration`);
//! * **counters** — a named running total (`tuner.cache_hits`).
//!
//! The collector is off by default and every recording call starts with one
//! relaxed atomic load, so a disabled trace costs a branch. Crucially the
//! layer is **numerically inert by construction**: it only ever *reads*
//! values the numerics already produced and never feeds anything back, so
//! J/K/energies are bitwise identical with tracing on or off at any thread
//! count (pinned by `tests/tests/trace.rs`).
//!
//! ## Activation
//!
//! * `MAKO_TRACE=<path>` + [`init_from_env`] (called by `mako-cli` and the
//!   bench bins), or a `--trace <path>` flag on those binaries;
//! * `MAKO_TRACE_FORMAT=chrome` (or a path ending in `.chrome.json`) selects
//!   the Chrome-trace exporter (`chrome://tracing` / Perfetto); the default
//!   is JSON-lines (one event per line, schema in DESIGN.md §11);
//! * `MAKO_TRACE_CAP=<n>` sizes the ring (default 65536 events; overflow
//!   drops the *oldest* events and counts them in the `meta` footer).
//!
//! Binaries call [`flush`] once at exit; libraries only record.

#![deny(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod schema;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, iteration numbers, ranks).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (energies, residuals, simulated seconds).
    F64(f64),
    /// Boolean (convergence and containment flags).
    Bool(bool),
    /// Short string (class labels, device kinds, precisions).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One key/value field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (static: all call sites use literals).
    pub key: &'static str,
    /// Typed value.
    pub value: FieldValue,
}

/// Build a [`Field`] from anything convertible to a [`FieldValue`].
pub fn field(key: &'static str, value: impl Into<FieldValue>) -> Field {
    Field {
        key,
        value: value.into(),
    }
}

/// What kind of event a record is.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A region with a duration.
    Span {
        /// Wall-clock duration in microseconds.
        dur_us: f64,
    },
    /// A point event.
    Instant,
    /// A named running total.
    Counter {
        /// Current value of the counter.
        value: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the collector's epoch.
    pub(crate) ts_us: f64,
    /// Stable per-thread id (assigned on first record from a thread).
    pub(crate) tid: u64,
    /// Category (crate/subsystem: `"scf"`, `"fock"`, `"compiler"`, ...).
    pub cat: &'static str,
    /// Event name (`"iteration"`, `"tune_class"`, ...).
    pub name: &'static str,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Typed fields (serialized as the JSON `args` object).
    pub fields: Vec<Field>,
}

/// Fixed-capacity ring: overflow drops the oldest events, counted.
struct Ring {
    buf: Vec<Event>,
    start: usize,
    cap: usize,
    recorded: u64,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            start: 0,
            cap: cap.max(1),
            recorded: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, e: Event) {
        self.recorded += 1;
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.start] = e;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn in_order(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.start..]);
        out.extend_from_slice(&self.buf[..self.start]);
        out
    }
}

/// Everything a collector held at snapshot time.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// Events in recording order (oldest surviving first).
    pub events: Vec<Event>,
    /// Total events recorded, including dropped ones.
    pub recorded: u64,
    /// Events overwritten by ring overflow.
    pub dropped: u64,
}

/// An event collector: a mutex-guarded ring buffer. Recording takes the
/// lock for one push — the events themselves are built outside it.
pub(crate) struct Collector {
    ring: Mutex<Ring>,
    epoch: Instant,
}

impl Collector {
    /// Collector holding at most `capacity` events.
    pub(crate) fn new(capacity: usize) -> Collector {
        Collector {
            ring: Mutex::new(Ring::new(capacity)),
            epoch: Instant::now(),
        }
    }

    /// Microseconds since this collector was created.
    pub(crate) fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Append one event.
    pub(crate) fn record(&self, e: Event) {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        ring.push(e);
    }

    /// Copy out everything recorded so far (non-destructive).
    pub(crate) fn snapshot(&self) -> TraceDump {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        TraceDump {
            events: ring.in_order(),
            recorded: ring.recorded,
            dropped: ring.dropped,
        }
    }

    /// Take everything recorded so far and reset the ring (counters too).
    pub(crate) fn drain(&self) -> TraceDump {
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let dump = TraceDump {
            events: ring.in_order(),
            recorded: ring.recorded,
            dropped: ring.dropped,
        };
        *ring = Ring::new(ring.cap);
        dump
    }
}

// ---------------------------------------------------------------------------
// Global collector
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Collector> = OnceLock::new();
static SINK: Mutex<Option<(String, TraceFormat)>> = Mutex::new(None);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// Export format of the configured sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (schema in DESIGN.md §11).
    Jsonl,
    /// `chrome://tracing` / Perfetto `traceEvents` JSON.
    Chrome,
}

const DEFAULT_CAPACITY: usize = 65_536;

/// Whether the global collector is recording. One relaxed atomic load —
/// this is the *only* cost tracing adds when disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the global collector on (default ring capacity). Idempotent; once
/// on it stays on for the life of the process.
pub(crate) fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Turn the global collector on with an explicit ring capacity (only
/// honored by the first call that initializes the collector).
pub fn enable_with_capacity(capacity: usize) {
    GLOBAL.get_or_init(|| Collector::new(capacity));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Route [`flush`] to a file. Enables collection as a side effect.
pub fn set_sink(path: impl Into<String>, format: TraceFormat) {
    enable();
    *SINK.lock().unwrap_or_else(|p| p.into_inner()) = Some((path.into(), format));
}

/// Activate from the environment: `MAKO_TRACE=<path>` turns collection on,
/// `MAKO_TRACE_FORMAT=chrome` (or a `.chrome.json` path suffix) selects the
/// Chrome exporter, `MAKO_TRACE_CAP=<n>` sizes the ring. Returns whether
/// tracing was activated. Binaries call this once at startup.
pub fn init_from_env() -> bool {
    let Ok(path) = std::env::var("MAKO_TRACE") else {
        return false;
    };
    if path.is_empty() {
        return false;
    }
    let cap = std::env::var("MAKO_TRACE_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_CAPACITY);
    enable_with_capacity(cap);
    let chrome = std::env::var("MAKO_TRACE_FORMAT").is_ok_and(|v| v.eq_ignore_ascii_case("chrome"))
        || path.ends_with(".chrome.json");
    set_sink(
        path,
        if chrome {
            TraceFormat::Chrome
        } else {
            TraceFormat::Jsonl
        },
    );
    true
}

/// Where a [`flush`] failed, for error reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStage {
    /// Creating the temporary sibling file.
    Create,
    /// Writing the serialized events (short write / ENOSPC land here).
    Write,
    /// Fsyncing the temporary file.
    Sync,
    /// Renaming the temporary file over the sink path.
    Rename,
}

impl FlushStage {
    fn label(self) -> &'static str {
        match self {
            FlushStage::Create => "create",
            FlushStage::Write => "write",
            FlushStage::Sync => "sync",
            FlushStage::Rename => "rename",
        }
    }
}

/// A typed [`flush`] failure: which stage of the atomic write broke, on
/// which path, and the underlying I/O error. Whatever the stage, the sink
/// path itself is untouched — it still holds the previous complete flush
/// (or nothing), never a torn file.
#[derive(Debug)]
pub struct FlushError {
    /// The sink path the flush was writing toward.
    pub path: String,
    /// The stage that failed.
    pub stage: FlushStage,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failed for trace sink {}: {} (sink left untouched)",
            self.stage.label(),
            self.path,
            self.source
        )
    }
}

impl std::error::Error for FlushError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Write the collected events to the configured sink. Returns the path
/// written, `None` when no sink is configured. Non-destructive, so a binary
/// may flush more than once (each flush rewrites the whole file).
///
/// The write is atomic: events are serialized to a temporary sibling
/// (`<path>.tmp`), fsynced, and renamed over the sink. A short write or
/// ENOSPC therefore surfaces as a typed [`FlushError`] and leaves the sink
/// holding its previous complete contents — readers never observe a
/// truncated mid-record file, and the failed temporary is removed rather
/// than leaked.
pub fn flush() -> Option<Result<String, FlushError>> {
    let sink = SINK.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let (path, format) = sink?;
    let collector = GLOBAL.get()?;
    let dump = collector.snapshot();
    let text = match format {
        TraceFormat::Jsonl => dump.to_jsonl(),
        TraceFormat::Chrome => dump.to_chrome(),
    };
    Some(write_atomic(&path, text.as_bytes()).map(|()| path))
}

fn write_atomic(path: &str, bytes: &[u8]) -> Result<(), FlushError> {
    use std::io::Write as _;
    let fail = |stage: FlushStage, source: std::io::Error| FlushError {
        path: path.to_string(),
        stage,
        source,
    };
    let tmp = format!("{path}.tmp");
    let mut file = std::fs::File::create(&tmp).map_err(|e| fail(FlushStage::Create, e))?;
    let staged = file
        .write_all(bytes)
        .map_err(|e| fail(FlushStage::Write, e))
        .and_then(|()| file.sync_all().map_err(|e| fail(FlushStage::Sync, e)));
    drop(file);
    staged
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| fail(FlushStage::Rename, e)))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// Take (and clear) everything the global collector holds — the test hook.
pub fn drain() -> TraceDump {
    match GLOBAL.get() {
        Some(c) => c.drain(),
        None => TraceDump {
            events: Vec::new(),
            recorded: 0,
            dropped: 0,
        },
    }
}

fn record(cat: &'static str, name: &'static str, kind: EventKind, fields: Vec<Field>) {
    if let Some(c) = GLOBAL.get() {
        let e = Event {
            ts_us: c.now_us(),
            tid: tid(),
            cat,
            name,
            kind,
            fields,
        };
        c.record(e);
    }
}

/// Record a point event with fields. No-op when disabled.
pub fn instant(cat: &'static str, name: &'static str, fields: Vec<Field>) {
    if enabled() {
        record(cat, name, EventKind::Instant, fields);
    }
}

/// Record a counter's current value. No-op when disabled.
pub fn counter(cat: &'static str, name: &'static str, value: f64) {
    if enabled() {
        record(cat, name, EventKind::Counter { value }, Vec::new());
    }
}

/// An in-flight span. Created by [`span`]; records itself (with wall-clock
/// duration) when dropped or explicitly [`Span::end`]ed. When tracing is
/// disabled at creation the span is fully inert — no clock reads, no
/// allocation beyond the empty struct.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    cat: &'static str,
    name: &'static str,
    t0: Instant,
    fields: Vec<Field>,
}

/// Open a span. Attach fields as results become known with
/// [`Span::add_field`]; the span records on drop.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            cat,
            name,
            t0: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

impl Span {
    /// Whether this span will record (tracing was enabled at creation).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a field (no-op on an inert span).
    pub fn add_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.inner {
            inner.fields.push(field(key, value));
        }
    }

    /// Close and record the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_us = inner.t0.elapsed().as_secs_f64() * 1e6;
            record(
                inner.cat,
                inner.name,
                EventKind::Span { dur_us },
                inner.fields,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Escape a string for inclusion in a JSON string literal.
fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Format an f64 as a JSON number (`null` for non-finite values, which JSON
/// cannot represent).
fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn json_value(v: &FieldValue, out: &mut String) {
    match v {
        FieldValue::U64(x) => out.push_str(&format!("{x}")),
        FieldValue::I64(x) => out.push_str(&format!("{x}")),
        FieldValue::F64(x) => json_f64(*x, out),
        FieldValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        FieldValue::Str(x) => {
            out.push('"');
            escape_json(x, out);
            out.push('"');
        }
    }
}

fn json_args(fields: &[Field], out: &mut String) {
    out.push('{');
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(f.key, out);
        out.push_str("\":");
        json_value(&f.value, out);
    }
    out.push('}');
}

impl TraceDump {
    /// JSON-lines export: one event object per line plus a trailing `meta`
    /// footer with the recorded/dropped totals (schema: DESIGN.md §11).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 96);
        for e in &self.events {
            let ty = match e.kind {
                EventKind::Span { .. } => "span",
                EventKind::Instant => "instant",
                EventKind::Counter { .. } => "counter",
            };
            out.push_str("{\"type\":\"");
            out.push_str(ty);
            out.push_str("\",\"cat\":\"");
            escape_json(e.cat, &mut out);
            out.push_str("\",\"name\":\"");
            escape_json(e.name, &mut out);
            out.push_str("\",\"ts_us\":");
            json_f64(e.ts_us, &mut out);
            out.push_str(",\"tid\":");
            out.push_str(&format!("{}", e.tid));
            match &e.kind {
                EventKind::Span { dur_us } => {
                    out.push_str(",\"dur_us\":");
                    json_f64(*dur_us, &mut out);
                    out.push_str(",\"args\":");
                    json_args(&e.fields, &mut out);
                }
                EventKind::Instant => {
                    out.push_str(",\"args\":");
                    json_args(&e.fields, &mut out);
                }
                EventKind::Counter { value } => {
                    out.push_str(",\"value\":");
                    json_f64(*value, &mut out);
                }
            }
            out.push_str("}\n");
        }
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"schema\":\"mako-trace/1\",\"recorded\":{},\"dropped\":{}}}\n",
            self.recorded, self.dropped
        ));
        out
    }

    /// Chrome-trace export (`chrome://tracing`, Perfetto): complete spans
    /// (`ph:"X"`), thread-scoped instants (`ph:"i"`), counters (`ph:"C"`).
    pub fn to_chrome(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 112 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"pid\":1,\"tid\":");
            out.push_str(&format!("{}", e.tid));
            out.push_str(",\"cat\":\"");
            escape_json(e.cat, &mut out);
            out.push_str("\",\"name\":\"");
            escape_json(e.name, &mut out);
            out.push_str("\",\"ts\":");
            json_f64(e.ts_us, &mut out);
            match &e.kind {
                EventKind::Span { dur_us } => {
                    out.push_str(",\"ph\":\"X\",\"dur\":");
                    json_f64(*dur_us, &mut out);
                    out.push_str(",\"args\":");
                    json_args(&e.fields, &mut out);
                }
                EventKind::Instant => {
                    out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"args\":");
                    json_args(&e.fields, &mut out);
                }
                EventKind::Counter { value } => {
                    out.push_str(",\"ph\":\"C\",\"args\":{\"value\":");
                    json_f64(*value, &mut out);
                    out.push('}');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind) -> Event {
        Event {
            ts_us: 1.5,
            tid: 0,
            cat: "test",
            name,
            kind,
            fields: vec![field("n", 3usize), field("label", "a\"b")],
        }
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let c = Collector::new(3);
        for i in 0..5u64 {
            let mut e = ev("x", EventKind::Instant);
            e.tid = i;
            c.record(e);
        }
        let dump = c.snapshot();
        assert_eq!(dump.recorded, 5);
        assert_eq!(dump.dropped, 2);
        let tids: Vec<u64> = dump.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, vec![2, 3, 4], "oldest events must be the dropped ones");
    }

    #[test]
    fn drain_resets() {
        let c = Collector::new(8);
        c.record(ev("x", EventKind::Instant));
        assert_eq!(c.drain().events.len(), 1);
        assert_eq!(c.snapshot().recorded, 0);
    }

    #[test]
    fn jsonl_roundtrips_through_validator() {
        let dump = TraceDump {
            events: vec![
                ev("alpha", EventKind::Span { dur_us: 12.25 }),
                ev("beta", EventKind::Instant),
                ev("gamma", EventKind::Counter { value: 7.0 }),
            ],
            recorded: 3,
            dropped: 0,
        };
        let text = dump.to_jsonl();
        let summary = schema::validate_jsonl(&text).expect("schema-valid");
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert!(summary.names.contains("alpha"));
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let dump = TraceDump {
            events: vec![
                ev("alpha", EventKind::Span { dur_us: 12.25 }),
                ev("beta", EventKind::Counter { value: f64::INFINITY }),
            ],
            recorded: 2,
            dropped: 0,
        };
        let v = schema::parse_json(&dump.to_chrome()).expect("valid JSON");
        let obj = v.as_object().expect("top-level object");
        let events = obj
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let mut e = ev("weird", EventKind::Instant);
        e.fields = vec![field("s", "line\nbreak\t\"quote\"\\slash\u{1}")];
        let dump = TraceDump {
            events: vec![e],
            recorded: 1,
            dropped: 0,
        };
        schema::validate_jsonl(&dump.to_jsonl()).expect("escaped output must stay valid");
    }

    #[test]
    fn atomic_flush_never_leaves_a_torn_or_temporary_file() {
        let dir = std::env::temp_dir().join(format!("mako-trace-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sink = dir.join("out.jsonl");
        let sink_str = sink.to_str().unwrap();

        // A successful write replaces the sink wholesale and cleans up the
        // temporary.
        std::fs::write(&sink, "stale previous flush").unwrap();
        write_atomic(sink_str, b"{\"type\":\"meta\"}\n").unwrap();
        assert_eq!(
            std::fs::read(&sink).unwrap(),
            b"{\"type\":\"meta\"}\n".to_vec()
        );
        assert!(!std::path::Path::new(&format!("{sink_str}.tmp")).exists());

        // A failed write (unwritable directory for the temp file) reports a
        // typed error and leaves the existing sink byte-identical.
        std::fs::write(&sink, "the complete previous flush").unwrap();
        let bad = dir.join("no-such-subdir").join("out.jsonl");
        let err = write_atomic(bad.to_str().unwrap(), b"x").unwrap_err();
        assert_eq!(err.stage, FlushStage::Create);
        assert!(err.to_string().contains("create"), "{err}");
        assert_eq!(
            std::fs::read(&sink).unwrap(),
            b"the complete previous flush".to_vec(),
            "a failed flush must not touch the sink"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_span_is_inert_and_global_records_when_enabled() {
        // The one test that touches the global collector in this crate.
        let s = span("test", "before_enable");
        assert!(!s.is_recording() || enabled(), "off unless another path enabled it");
        drop(s);
        enable_with_capacity(64);
        let mut s = span("test", "after_enable");
        assert!(s.is_recording());
        s.add_field("k", 1u64);
        drop(s);
        instant("test", "inst", vec![field("a", true)]);
        counter("test", "ctr", 2.0);
        let dump = drain();
        assert!(dump.events.iter().any(|e| e.name == "after_enable"));
        assert!(dump.events.iter().any(|e| e.name == "ctr"));
    }
}
