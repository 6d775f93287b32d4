//! The flight recorder: a bounded per-thread trace-event ring under the
//! aggregate span/counter layer.
//!
//! Aggregation by path ([`crate::registry`]) answers "where did the
//! wall clock go *in total*", but the closure loop's schedule questions
//! — does the parallel corner sweep actually overlap? which iteration's
//! fix pass stalled? — need the *timeline*. When tracing is enabled
//! ([`enable_trace`]), every span open/close and counter add also
//! appends one [`TraceEvent`] (thread id, monotonic timestamp) to the
//! calling thread's ring.
//!
//! Design constraints, in order:
//!
//! * **Near-zero cost when off.** Emission starts with one relaxed
//!   atomic load; tracing off means nothing else runs. Tracing is
//!   independent of the base layer's [`crate::enable`] flag only in the
//!   sense that [`enable_trace`] turns both on.
//! * **Bounded memory.** Each thread's ring holds at most the capacity
//!   passed to [`enable_trace`]. A full ring drops the new event and
//!   increments the ring's drop count (surfaced as the
//!   `obs.trace.dropped` counter) — it never reallocates and never
//!   panics.
//! * **Per-thread, contention-free.** A thread only ever locks its own
//!   ring; the global registry of rings is locked on first use per
//!   thread and at snapshot time.
//!
//! [`trace_snapshot`] collects every thread's events (sorted by thread
//! id, then timestamp) into a [`TraceSnapshot`], which exports to the
//! Chrome `trace_event` JSON format (`chrome://tracing` / Perfetto).
//! Reducing the events to a span tree — profiles, folded stacks — is
//! tc-prof's job; this module only records and encodes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonValue;

/// What one trace event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (Chrome `ph:"B"`).
    Begin,
    /// A span closed (Chrome `ph:"E"`).
    End,
    /// A counter moved by `delta` (Chrome `ph:"C"`).
    Counter,
    /// An absolute sample of a gauge — `delta` holds the sampled value
    /// itself, not an increment (Chrome `ph:"C"` with the value as-is).
    /// Used for memory telemetry (`mem.live_bytes` at span edges).
    Gauge,
}

/// One recorded event: span begin/end or counter delta.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceEventKind,
    /// Span name (leaf, not full path) or counter name.
    pub name: Arc<str>,
    /// Flight-recorder thread id (small dense integers assigned in
    /// first-emission order; not the OS tid).
    pub tid: u64,
    /// Nanoseconds since the recorder's epoch (first enable), from a
    /// monotonic clock.
    pub ts_ns: u64,
    /// Counter delta, or the absolute sampled value for
    /// [`TraceEventKind::Gauge`] (`0` for span events).
    pub delta: u64,
}

/// One thread's bounded event buffer.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceBuffer {
    fn push(&mut self, ev: TraceEvent, capacity: usize) -> bool {
        if self.events.len() >= capacity {
            self.dropped += 1;
            false
        } else {
            self.events.push(ev);
            true
        }
    }
}

/// One registered thread: `(tid, thread name, ring)`. The name is
/// captured at first emission (OS thread name, else `thread-{tid}`)
/// and surfaces as Chrome `M`/`thread_name` metadata.
type ThreadRing = (u64, String, Arc<Mutex<TraceBuffer>>);

struct TraceState {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    epoch: OnceLock<Instant>,
    next_tid: AtomicU64,
    rings: Mutex<Vec<ThreadRing>>,
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| TraceState {
        enabled: AtomicBool::new(false),
        capacity: AtomicUsize::new(0),
        epoch: OnceLock::new(),
        next_tid: AtomicU64::new(0),
        rings: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static RING: RefCell<Option<(u64, Arc<Mutex<TraceBuffer>>)>> = const { RefCell::new(None) };
}

/// Default per-thread ring capacity (events) when none is given.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Turns the flight recorder on with the given per-thread ring capacity
/// (events). Also calls [`crate::enable`] — the recorder listens to the
/// span/counter emission points, so the base layer must be live.
///
/// Calling it again updates the capacity; existing ring contents are
/// kept (rings never shrink below their current length).
pub fn enable_trace(capacity: usize) {
    let s = state();
    s.capacity.store(capacity.max(1), Ordering::Relaxed);
    let _ = s.epoch.set(Instant::now());
    s.enabled.store(true, Ordering::Relaxed);
    crate::registry::enable();
}

/// Turns the flight recorder off. Ring contents stay collectable via
/// [`trace_snapshot`] until [`clear_trace`] (or [`crate::reset`]).
pub fn disable_trace() {
    state().enabled.store(false, Ordering::Relaxed);
}

/// Whether the flight recorder is currently on.
#[inline]
pub fn trace_enabled() -> bool {
    state().enabled.load(Ordering::Relaxed)
}

/// Drains every thread's ring and forgets recorded events — drop
/// counts included, so the next [`trace_snapshot`] window starts clean
/// (per-window profiles must not inherit another window's overflow).
/// The `obs.trace.dropped` registry counter stays cumulative.
pub fn clear_trace() {
    let s = state();
    let rings = s.rings.lock().expect("obs trace rings poisoned");
    for (_, _, ring) in rings.iter() {
        let mut ring = ring.lock().expect("obs trace ring poisoned");
        ring.dropped = 0;
        ring.events.clear();
    }
}

fn now_ns() -> u64 {
    let epoch = state().epoch.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Appends one event to the calling thread's ring. Caller has already
/// checked [`trace_enabled`].
fn emit(kind: TraceEventKind, name: &str, delta: u64) {
    let capacity = state().capacity.load(Ordering::Relaxed);
    let ts_ns = now_ns();
    RING.with(|cell| {
        let mut cell = cell.borrow_mut();
        let (tid, ring) = cell.get_or_insert_with(|| {
            let s = state();
            let tid = s.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_string);
            let ring = Arc::new(Mutex::new(TraceBuffer::default()));
            s.rings
                .lock()
                .expect("obs trace rings poisoned")
                .push((tid, name, ring.clone()));
            (tid, ring)
        });
        let ev = TraceEvent {
            kind,
            name: Arc::from(name),
            tid: *tid,
            ts_ns,
            delta,
        };
        if !ring
            .lock()
            .expect("obs trace ring poisoned")
            .push(ev, capacity)
        {
            // Mirror drops into the aggregate layer so a snapshot taken
            // without the trace shows the loss too. `add_raw` bypasses
            // trace emission — re-entering the full ring here would
            // recurse.
            crate::registry::counter("obs.trace.dropped").add_raw(1);
        }
    });
}

/// Records a span-begin event (called from [`crate::span`]).
#[inline]
pub(crate) fn span_begin(name: &str) -> bool {
    if !trace_enabled() {
        return false;
    }
    emit(TraceEventKind::Begin, name, 0);
    true
}

/// Records a span-end event. Paired with a `span_begin` that returned
/// `true`, so B/E stay balanced even if tracing was toggled mid-span.
#[inline]
pub(crate) fn span_end(name: &str) {
    emit(TraceEventKind::End, name, 0);
}

/// Records a counter-delta event (called from [`crate::Counter::add`]).
#[inline]
pub(crate) fn counter_delta(name: &str, delta: u64) {
    if trace_enabled() {
        emit(TraceEventKind::Counter, name, delta);
    }
}

/// Records an absolute gauge sample (used by span open/close to plot
/// `mem.live_bytes` as a timeline track). A no-op unless the recorder
/// is enabled.
#[inline]
pub(crate) fn gauge(name: &str, value: u64) {
    if trace_enabled() {
        emit(TraceEventKind::Gauge, name, value);
    }
}

/// A trace-only scope: emits a begin event now and the matching end
/// event on drop, without touching the aggregate span registry. Worker
/// pools wrap each claimed task in one so timelines show per-task
/// parallelism without registering a span path per item.
#[must_use = "the trace scope closes when its guard drops"]
pub struct TraceScope(Option<&'static str>);

/// Opens a trace-only scope named `name`. A no-op unless the recorder
/// is enabled.
pub fn trace_scope(name: &'static str) -> TraceScope {
    if span_begin(name) {
        TraceScope(Some(name))
    } else {
        TraceScope(None)
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Some(name) = self.0.take() {
            span_end(name);
        }
    }
}

/// Every thread's recorded events, collected at one point in time.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Events sorted by `(tid, ts_ns)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings since the last [`clear_trace`] (or
    /// forever, if the rings were never cleared).
    pub dropped: u64,
    /// `(tid, name)` for every thread that has emitted, sorted by tid.
    pub thread_names: Vec<(u64, String)>,
}

/// Collects every thread's ring into one [`TraceSnapshot`]. Rings are
/// left intact (snapshotting is read-only).
pub fn trace_snapshot() -> TraceSnapshot {
    let s = state();
    let rings = s.rings.lock().expect("obs trace rings poisoned");
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut thread_names = Vec::new();
    for (tid, name, ring) in rings.iter() {
        let ring = ring.lock().expect("obs trace ring poisoned");
        events.extend(ring.events.iter().cloned());
        dropped += ring.dropped;
        thread_names.push((*tid, name.clone()));
    }
    drop(rings);
    events.sort_by_key(|a| (a.tid, a.ts_ns));
    thread_names.sort_by_key(|(tid, _)| *tid);
    TraceSnapshot {
        events,
        dropped,
        thread_names,
    }
}

impl TraceSnapshot {
    /// Thread ids present, ascending.
    pub fn thread_ids(&self) -> Vec<u64> {
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Renders the Chrome `trace_event` JSON document: an object with a
    /// `traceEvents` array of `B`/`E`/`C` events (timestamps in µs),
    /// loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
    /// The array opens with one `M`/`thread_name` metadata event per
    /// recorded thread, so viewer lanes carry real names
    /// (`tc-par-0`, …) instead of bare tids.
    ///
    /// Counter events carry a process-wide running total per counter
    /// name (computed in timestamp order), so the counter track plots
    /// the cumulative value, not the raw delta. Gauge events also
    /// render as `ph:"C"` but their value is the absolute sample.
    pub fn to_chrome_trace(&self) -> String {
        // Running totals must accumulate in time order even though
        // events are stored sorted by (tid, ts).
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| self.events[i].ts_ns);
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        let mut running = vec![0u64; self.events.len()];
        for &i in &order {
            let e = &self.events[i];
            if e.kind == TraceEventKind::Counter {
                let t = totals.entry(&e.name).or_insert(0);
                *t += e.delta;
                running[i] = *t;
            }
        }
        let mut trace_events: Vec<JsonValue> = self
            .thread_names
            .iter()
            .map(|(tid, name)| {
                JsonValue::obj([
                    ("name", JsonValue::str("thread_name")),
                    ("ph", JsonValue::str("M")),
                    ("ts", JsonValue::from(0u64)),
                    ("pid", JsonValue::from(1u64)),
                    ("tid", JsonValue::from(*tid)),
                    ("args", JsonValue::obj([("name", JsonValue::str(name))])),
                ])
            })
            .collect();
        trace_events.extend(self.events.iter().enumerate().map(|(i, e)| {
            let ph = match e.kind {
                TraceEventKind::Begin => "B",
                TraceEventKind::End => "E",
                TraceEventKind::Counter | TraceEventKind::Gauge => "C",
            };
            let mut fields = vec![
                ("name", JsonValue::str(e.name.as_ref())),
                ("cat", JsonValue::str("tc")),
                ("ph", JsonValue::str(ph)),
                ("ts", JsonValue::from(e.ts_ns as f64 / 1e3)),
                ("pid", JsonValue::from(1u64)),
                ("tid", JsonValue::from(e.tid)),
            ];
            match e.kind {
                TraceEventKind::Counter => {
                    fields.push((
                        "args",
                        JsonValue::obj([
                            ("value", JsonValue::from(running[i])),
                            ("delta", JsonValue::from(e.delta)),
                        ]),
                    ));
                }
                TraceEventKind::Gauge => {
                    fields.push((
                        "args",
                        JsonValue::obj([("value", JsonValue::from(e.delta))]),
                    ));
                }
                TraceEventKind::Begin | TraceEventKind::End => {}
            }
            JsonValue::obj(fields)
        }));
        JsonValue::obj([
            ("traceEvents", JsonValue::Arr(trace_events)),
            ("displayTimeUnit", JsonValue::str("ms")),
            (
                "otherData",
                JsonValue::obj([("dropped_events", JsonValue::from(self.dropped))]),
            ),
        ])
        .render()
    }
}
