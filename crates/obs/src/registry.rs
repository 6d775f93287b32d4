//! The global metric registry: a process-wide, thread-safe store for
//! span statistics, counters, and histograms.
//!
//! Everything here is std-only. Spans aggregate by *path* (the
//! `/`-joined chain of enclosing span names), so memory stays bounded
//! no matter how many times a hot span fires.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::alloc::{self, HeapDelta};
use crate::export::{HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::metrics::{Counter, HistData, Histogram};

/// Aggregated statistics for one span path.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Summed net heap bytes across occurrences (memory counting on).
    pub net_bytes: i64,
    /// Largest single-occurrence peak growth (memory counting on).
    pub peak_bytes: u64,
}

#[derive(Default)]
struct Inner {
    spans: BTreeMap<String, SpanStat>,
    /// Keyed by the name every [`Counter`] handle shares, so a fetch
    /// clones the key instead of allocating a new one.
    counters: BTreeMap<Arc<str>, Arc<AtomicU64>>,
    hists: BTreeMap<String, Arc<Mutex<HistData>>>,
}

/// The process-wide registry. Use the free functions in this module (or
/// the crate root) rather than holding one directly.
pub struct Registry {
    enabled: AtomicBool,
    /// Bumped by [`reset`]: span guards opened before a reset refuse to
    /// record into the registry that replaced theirs.
    epoch: AtomicU64,
    inner: Mutex<Inner>,
}

fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        enabled: AtomicBool::new(false),
        epoch: AtomicU64::new(0),
        inner: Mutex::new(Inner::default()),
    })
}

/// The current reset generation (see [`reset`]).
#[inline]
pub(crate) fn reset_epoch() -> u64 {
    global().epoch.load(Ordering::Relaxed)
}

/// Turns instrumentation on. Until this is called every span is a no-op
/// guard and every counter add is a single relaxed load plus an untaken
/// branch.
pub fn enable() {
    global().enabled.store(true, Ordering::Relaxed);
}

/// Turns instrumentation off. Already-issued guards still record.
pub fn disable() {
    global().enabled.store(false, Ordering::Relaxed);
}

/// Whether instrumentation is currently on.
#[inline]
pub fn is_enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Records one completed span occurrence under `path`, with its heap
/// delta when memory counting was on at span open.
///
/// Every lookup here and in [`counter`] / [`histogram`] finds a known
/// name before it inserts, so only a name's first use allocates.
pub(crate) fn record_span(path: &str, elapsed: Duration, heap: Option<HeapDelta>) {
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    if !inner.spans.contains_key(path) {
        inner.spans.insert(path.to_string(), SpanStat::default());
    }
    let stat = inner.spans.get_mut(path).expect("inserted above");
    if stat.count == 0 {
        stat.min_ns = ns;
        stat.max_ns = ns;
    } else {
        stat.min_ns = stat.min_ns.min(ns);
        stat.max_ns = stat.max_ns.max(ns);
    }
    stat.count += 1;
    stat.total_ns = stat.total_ns.saturating_add(ns);
    if let Some(h) = heap {
        stat.net_bytes = stat.net_bytes.saturating_add(h.net_bytes);
        stat.peak_bytes = stat.peak_bytes.max(h.peak_bytes);
    }
}

/// Fetches (registering on first use) the counter named `name`.
///
/// The returned handle is a cheap `Arc` clone; hot loops should fetch it
/// once and call [`Counter::add`] repeatedly rather than re-looking-up.
pub fn counter(name: &str) -> Counter {
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    if let Some((name, cell)) = inner.counters.get_key_value(name) {
        return Counter::new(name.clone(), cell.clone());
    }
    let (name, cell) = (Arc::<str>::from(name), Arc::new(AtomicU64::new(0)));
    inner.counters.insert(name.clone(), cell.clone());
    Counter::new(name, cell)
}

/// Fetches (registering on first use) the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    let cell = match inner.hists.get(name) {
        Some(cell) => cell.clone(),
        None => {
            let cell = Arc::new(Mutex::new(HistData::default()));
            inner.hists.insert(name.to_string(), cell.clone());
            cell
        }
    };
    Histogram::new(cell)
}

/// Clears all span statistics and histograms, zeroes every counter, and
/// drains the flight recorder's trace rings. Existing
/// [`Counter`]/[`Histogram`] handles remain valid. A [`crate::SpanGuard`]
/// open across the reset stays harmless: it keeps the thread-local path
/// stack consistent but records nothing into the fresh registry.
pub fn reset() {
    global().epoch.fetch_add(1, Ordering::Relaxed);
    let mut inner = global().inner.lock().expect("obs registry poisoned");
    inner.spans.clear();
    for c in inner.counters.values() {
        c.store(0, Ordering::Relaxed);
    }
    for h in inner.hists.values() {
        *h.lock().expect("obs histogram poisoned") = HistData::default();
    }
    drop(inner);
    crate::trace::clear_trace();
}

/// Takes a consistent snapshot of everything recorded since the last
/// [`reset`]: counters at 0 and histograms without a sample are left out,
/// so a name a snapshot lists is one the run touched, not one an earlier
/// run in the process registered ([`Snapshot::counter`] reads a missing
/// counter as 0).
pub fn snapshot() -> Snapshot {
    let inner = global().inner.lock().expect("obs registry poisoned");
    let spans = inner
        .spans
        .iter()
        .map(|(path, s)| SpanSnapshot {
            path: path.clone(),
            count: s.count,
            total_ns: s.total_ns,
            min_ns: s.min_ns,
            max_ns: s.max_ns,
            net_bytes: s.net_bytes,
            peak_bytes: s.peak_bytes,
        })
        .collect();
    let mut counters: BTreeMap<String, u64> = inner
        .counters
        .iter()
        .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
        .filter(|&(_, v)| v > 0)
        .collect();
    // Memory telemetry joins the counter namespace while counting is
    // on: allocator totals and live/peak gauges counted from the last
    // `mark_memory`, plus the kernel's VmHWM, sampled at snapshot time
    // (see the crate-root taxonomy).
    if alloc::memory_enabled() {
        let m = alloc::memory_since_mark();
        counters.insert("mem.allocs".to_string(), m.allocs);
        counters.insert("mem.frees".to_string(), m.frees);
        counters.insert("mem.live_bytes".to_string(), m.live_bytes);
        counters.insert("mem.peak_heap_bytes".to_string(), m.peak_bytes);
        if let Some(hwm) = alloc::vm_hwm_bytes() {
            counters.insert("mem.vm_hwm_bytes".to_string(), hwm);
        }
    }
    let counters = counters.into_iter().collect();
    let histograms = inner
        .hists
        .iter()
        .map(|(k, v)| {
            let d = v.lock().expect("obs histogram poisoned");
            HistogramSnapshot::from_data(k.clone(), &d)
        })
        .filter(|h| h.count > 0)
        .collect();
    Snapshot {
        spans,
        counters,
        histograms,
    }
}
