//! The thread-safe recorder and its span guards.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::histogram::Histogram;
use crate::snapshot::{SpanRecord, TelemetrySnapshot};

/// A structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Default cap on retained span records (counters and histograms are never
/// capped). A full-scale `repro all` emits a few tens of thousands of
/// spans; the cap exists so pathological loops (e.g. a Criterion bench
/// iterating a recorded call millions of times) bound memory. Dropped
/// spans are counted, never silent.
pub const DEFAULT_SPAN_CAPACITY: usize = 262_144;

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
    /// Wall-time histogram per span name; fed on every span close, so
    /// phase totals stay exact even past the span cap.
    span_wall: BTreeMap<&'static str, Histogram>,
    /// Histograms keyed `(family, label key, label value)` — one labelled
    /// dimension (e.g. `serve.request_wall_ms{route="run"}`), enough for
    /// per-route latency without a full label-set model.
    labeled_histograms: BTreeMap<(&'static str, &'static str, &'static str), Histogram>,
}

/// Collects spans, counters and histograms from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    /// Distinguishes recorders on the thread-local parent stack, so a span
    /// of one recorder never becomes the parent of another recorder's span.
    tag: u64,
    enabled: bool,
    span_capacity: usize,
    epoch: Instant,
    /// Wall-clock time of `epoch` (unix nanoseconds), captured once at
    /// construction so monotonic span offsets can be re-anchored to
    /// absolute timestamps (the OTLP exporter needs them).
    epoch_unix_nanos: u64,
    next_id: AtomicU64,
    state: Mutex<State>,
}

static NEXT_TAG: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of `(recorder tag, span id)` for implicit parenting.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u64>> = const { RefCell::new(None) };
    static CURRENT_RUN: Cell<u64> = const { Cell::new(0) };
}

/// Allocates a fresh process-unique run id (never 0).
pub fn next_run_id() -> u64 {
    NEXT_RUN.fetch_add(1, Ordering::Relaxed)
}

/// The run id installed on this thread by the innermost live
/// [`RunScope`], or 0 outside any scope.
pub fn current_run_id() -> u64 {
    CURRENT_RUN.with(Cell::get)
}

/// Thread-local run attribution guard: while alive, spans opened on this
/// thread carry the given run id, so concurrent runs interleaved on one
/// recorder stay attributable in the trace sinks. Scopes nest; dropping
/// restores the previous id. Work handed to another thread must re-enter
/// the scope there.
#[derive(Debug)]
pub struct RunScope {
    prev: u64,
}

impl RunScope {
    /// Installs `run` as this thread's current run id until the guard
    /// drops.
    pub fn enter(run: u64) -> RunScope {
        let prev = CURRENT_RUN.with(|cell| cell.replace(run));
        RunScope { prev }
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        CURRENT_RUN.with(|cell| cell.set(self.prev));
    }
}

fn current_thread_id() -> u64 {
    THREAD_ID.with(|cell| {
        let mut id = cell.borrow_mut();
        *id.get_or_insert_with(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    })
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder with the default span cap.
    pub fn new() -> Self {
        Recorder {
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            enabled: true,
            span_capacity: DEFAULT_SPAN_CAPACITY,
            epoch: Instant::now(),
            epoch_unix_nanos: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
        }
    }

    /// A recorder that ignores everything — for measuring instrumentation
    /// overhead and for components that must run dark.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Overrides the retained-span cap (counters/histograms are unaffected).
    /// A cap of 0 keeps no span records at all: spans still feed the
    /// per-name wall histograms and count as dropped, but their fields are
    /// never stored — the setting for a long-lived process that nothing
    /// reads a trace back from.
    #[must_use]
    pub fn with_span_capacity(mut self, capacity: usize) -> Self {
        self.span_capacity = capacity;
        self
    }

    /// True unless constructed with [`Recorder::disabled`].
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span. The guard records the span when dropped; its parent is
    /// the innermost open span *of this recorder* on the current thread
    /// (override with [`Span::set_parent`] for cross-thread work).
    pub fn span(self: &Arc<Self>, name: &'static str) -> Span {
        if !self.enabled {
            return Span::noop();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack
                .iter()
                .rev()
                .find(|&&(tag, _)| tag == self.tag)
                .map(|&(_, id)| id);
            stack.push((self.tag, id));
            parent
        });
        Span {
            inner: Some(ActiveSpan {
                recorder: Arc::clone(self),
                id,
                parent,
                name,
                run: current_run_id(),
                start: Instant::now(),
                start_nanos: self.epoch.elapsed().as_nanos() as u64,
                fields: Vec::new(),
            }),
        }
    }

    /// Adds `delta` to a named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        *state.counters.entry(name).or_insert(0) += delta;
    }

    /// Adds `delta` (possibly negative) to a named gauge. Unlike counters,
    /// gauges track *current* levels — in-flight runs, queue depth — and
    /// move both ways.
    pub fn gauge_add(&self, name: &'static str, delta: i64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        *state.gauges.entry(name).or_insert(0) += delta;
    }

    /// Sets a named gauge to an absolute level.
    pub fn gauge_set(&self, name: &'static str, value: i64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        state.gauges.insert(name, value);
    }

    /// Current level of one named gauge (0 when never touched); as cheap
    /// as [`Recorder::counter_value`].
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.state
            .lock()
            .expect("telemetry state")
            .gauges
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Records one sample into a named histogram.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        state.histograms.entry(name).or_default().record(value);
    }

    /// Records one sample into a histogram carrying a single static label
    /// dimension, e.g. `serve.request_wall_ms{route="run"}`. All three
    /// parts are `&'static str` so the hot path never allocates.
    pub fn histogram_record_labeled(
        &self,
        family: &'static str,
        label_key: &'static str,
        label_value: &'static str,
        value: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("telemetry state");
        state
            .labeled_histograms
            .entry((family, label_key, label_value))
            .or_default()
            .record(value);
    }

    /// Current value of one named counter (0 when never touched) without
    /// paying for a full [`Recorder::snapshot`] clone — cheap enough to
    /// call per request on a serving path.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.state
            .lock()
            .expect("telemetry state")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A consistent copy of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let state = self.state.lock().expect("telemetry state");
        TelemetrySnapshot {
            spans: state.spans.clone(),
            dropped_spans: state.dropped_spans,
            counters: state.counters.clone(),
            gauges: state.gauges.clone(),
            histograms: state.histograms.clone(),
            span_wall: state.span_wall.clone(),
            labeled_histograms: state.labeled_histograms.clone(),
            epoch_unix_nanos: self.epoch_unix_nanos,
        }
    }

    /// Clears all recorded data (spans, counters, gauges, histograms).
    pub fn reset(&self) {
        *self.state.lock().expect("telemetry state") = State::default();
    }

    /// Renders the live state in Prometheus text exposition format — a
    /// snapshot taken and serialized in one call, for scrape-style readers
    /// such as the `repro serve` `/metrics` endpoint.
    pub fn prometheus_text(&self) -> String {
        let mut buf = Vec::new();
        crate::write_prometheus(&self.snapshot(), &mut buf).expect("writing to memory");
        String::from_utf8(buf).expect("exposition text is UTF-8")
    }

    fn close_span(&self, span: &mut ActiveSpan) {
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&entry| entry == (self.tag, span.id))
            {
                stack.remove(pos);
            }
        });
        let duration_nanos = span.start.elapsed().as_nanos() as u64;
        let mut state = self.state.lock().expect("telemetry state");
        state
            .span_wall
            .entry(span.name)
            .or_default()
            .record(duration_nanos);
        if state.spans.len() < self.span_capacity {
            state.spans.push(SpanRecord {
                id: span.id,
                parent: span.parent,
                name: span.name,
                thread: current_thread_id(),
                run: span.run,
                start_nanos: span.start_nanos,
                duration_nanos,
                fields: std::mem::take(&mut span.fields),
            });
        } else {
            state.dropped_spans += 1;
        }
    }
}

#[derive(Debug)]
struct ActiveSpan {
    recorder: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    /// Run label captured at open ([`current_run_id`]).
    run: u64,
    start: Instant,
    start_nanos: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An open span; recorded into its [`Recorder`] on drop. A no-op guard
/// (from a disabled or missing recorder) costs nothing to hold.
#[derive(Debug)]
pub struct Span {
    inner: Option<ActiveSpan>,
}

impl Span {
    /// A guard that records nothing.
    pub fn noop() -> Span {
        Span { inner: None }
    }

    /// The span id, for explicit cross-thread parenting (`None` for no-op
    /// guards).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.id)
    }

    /// Attaches a structured field, recorded when the span closes.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(span) = self.inner.as_mut() {
            if span.recorder.span_capacity > 0 {
                span.fields.push((key, value.into()));
            }
        }
    }

    /// Overrides the implicit (thread-local) parent — used when a span
    /// belongs under work that started on another thread.
    pub fn set_parent(&mut self, parent: Option<u64>) {
        if let Some(span) = self.inner.as_mut() {
            span.parent = parent;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut span) = self.inner.take() {
            let recorder = Arc::clone(&span.recorder);
            recorder.close_span(&mut span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let r = Arc::new(Recorder::new());
        {
            let outer = r.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let mut mid = r.span("mid");
                assert_eq!(
                    mid.inner.as_ref().unwrap().parent,
                    Some(outer_id),
                    "implicit parent is the innermost open span"
                );
                mid.record("k", 7u64);
                let _leaf = r.span("leaf");
            }
            let _sibling = r.span("sibling");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 4);
        let outer = &snap.spans_named("outer")[0];
        assert_eq!(outer.parent, None);
        let mid = &snap.spans_named("mid")[0];
        let leaf = &snap.spans_named("leaf")[0];
        let sibling = &snap.spans_named("sibling")[0];
        assert_eq!(mid.parent, Some(outer.id));
        assert_eq!(leaf.parent, Some(mid.id));
        assert_eq!(sibling.parent, Some(outer.id));
        assert_eq!(mid.fields, vec![("k", FieldValue::U64(7))]);
    }

    #[test]
    fn two_recorders_never_cross_parent() {
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        {
            let _on_a = a.span("a.outer");
            let on_b = b.span("b.span");
            assert_eq!(on_b.inner.as_ref().unwrap().parent, None);
        }
        assert_eq!(b.snapshot().spans_named("b.span")[0].parent, None);
    }

    #[test]
    fn explicit_parent_crosses_threads() {
        let r = Arc::new(Recorder::new());
        let outer = r.span("campaign");
        let outer_id = outer.id().unwrap();
        let worker = Arc::clone(&r);
        std::thread::spawn(move || {
            let mut job = worker.span("job");
            job.set_parent(Some(outer_id));
        })
        .join()
        .unwrap();
        drop(outer);
        let snap = r.snapshot();
        let job = &snap.spans_named("job")[0];
        let campaign = &snap.spans_named("campaign")[0];
        assert_eq!(job.parent, Some(campaign.id));
        assert_ne!(job.thread, campaign.thread);
    }

    #[test]
    fn span_cap_counts_drops_and_keeps_wall_histograms() {
        let r = Arc::new(Recorder::new().with_span_capacity(2));
        for _ in 0..5 {
            let _s = r.span("phase");
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.dropped_spans, 3);
        assert_eq!(snap.span_wall.get("phase").unwrap().count(), 5);
    }

    #[test]
    fn zero_span_capacity_keeps_no_records_but_keeps_totals() {
        let r = Arc::new(Recorder::new().with_span_capacity(0));
        for _ in 0..3 {
            let mut s = r.span("request");
            s.record("path", "/run/table1");
            assert!(s.inner.as_ref().unwrap().fields.is_empty());
        }
        r.counter_add("c", 1);
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.dropped_spans, 3);
        assert_eq!(snap.span_wall.get("request").unwrap().count(), 3);
        assert_eq!(snap.counter("c"), 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Arc::new(Recorder::disabled());
        {
            let mut s = r.span("x");
            assert_eq!(s.id(), None);
            s.record("k", 1u64);
        }
        r.counter_add("c", 1);
        r.histogram_record("h", 1);
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn prometheus_text_renders_live_state() {
        let r = Arc::new(Recorder::new());
        r.counter_add("serve.requests", 3);
        let first = r.prometheus_text();
        assert!(first.contains("horizon_serve_requests 3"), "{first}");
        r.counter_add("serve.requests", 1);
        let second = r.prometheus_text();
        assert!(second.contains("horizon_serve_requests 4"), "{second}");
    }

    #[test]
    fn gauges_move_both_ways_and_reset_clears() {
        let r = Arc::new(Recorder::new());
        r.gauge_add("g", 3);
        r.gauge_add("g", -2);
        assert_eq!(r.gauge_value("g"), 1);
        r.gauge_set("g", 7);
        assert_eq!(r.gauge_value("g"), 7);
        assert_eq!(r.snapshot().gauge("g"), 7);
        assert_eq!(r.gauge_value("untouched"), 0);
        r.reset();
        assert_eq!(r.gauge_value("g"), 0);
    }

    #[test]
    fn disabled_recorder_ignores_gauges() {
        let r = Arc::new(Recorder::disabled());
        r.gauge_add("g", 5);
        r.gauge_set("g", 9);
        assert!(r.snapshot().gauges.is_empty());
    }

    #[test]
    fn run_scopes_nest_and_restore() {
        assert_eq!(current_run_id(), 0);
        let outer = RunScope::enter(5);
        assert_eq!(current_run_id(), 5);
        {
            let _inner = RunScope::enter(6);
            assert_eq!(current_run_id(), 6);
        }
        assert_eq!(current_run_id(), 5);
        drop(outer);
        assert_eq!(current_run_id(), 0);
    }

    #[test]
    fn run_ids_are_unique_and_nonzero() {
        let a = next_run_id();
        let b = next_run_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn labeled_histograms_record_per_label_value() {
        let r = Arc::new(Recorder::new());
        r.histogram_record_labeled("serve.request_wall_ms", "route", "run", 100);
        r.histogram_record_labeled("serve.request_wall_ms", "route", "run", 200);
        r.histogram_record_labeled("serve.request_wall_ms", "route", "healthz", 1);
        let snap = r.snapshot();
        let run = snap
            .labeled_histograms
            .get(&("serve.request_wall_ms", "route", "run"))
            .expect("run route recorded");
        assert_eq!(run.count(), 2);
        let healthz = snap
            .labeled_histograms
            .get(&("serve.request_wall_ms", "route", "healthz"))
            .expect("healthz route recorded");
        assert_eq!(healthz.count(), 1);
        let dark = Arc::new(Recorder::disabled());
        dark.histogram_record_labeled("f", "k", "v", 1);
        assert!(dark.snapshot().labeled_histograms.is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset_clears() {
        let r = Arc::new(Recorder::new());
        r.counter_add("c", 2);
        r.counter_add("c", 3);
        assert_eq!(r.snapshot().counter("c"), 5);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), 0);
        assert!(snap.spans.is_empty());
    }
}
