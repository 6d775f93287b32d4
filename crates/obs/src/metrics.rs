//! Counter and histogram handles.
//!
//! Both are cheap `Arc` clones onto cells owned by the global registry;
//! hot paths fetch a handle once (outside the loop) and hammer it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::registry::is_enabled;
use crate::trace;

/// A monotonically-increasing event counter.
#[derive(Clone)]
pub struct Counter {
    name: Arc<str>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    pub(crate) fn new(name: Arc<str>, cell: Arc<AtomicU64>) -> Self {
        Counter { name, cell }
    }

    /// Adds `n` events. A no-op (one relaxed load) while disabled; with
    /// the flight recorder on, also appends a counter-delta trace event
    /// to the calling thread's ring.
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
            trace::counter_delta(&self.name, n);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` without the enabled check or trace emission. The trace
    /// layer's own bookkeeping (`obs.trace.dropped`) uses this to avoid
    /// re-entering a full ring.
    #[inline]
    pub(crate) fn add_raw(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets a histogram keeps.
pub(crate) const BUCKETS: usize = 40;

/// Raw histogram state: count/sum/min/max plus log₂-width buckets.
///
/// Bucket `i` holds samples with `floor(log2(1 + max(v, 0))) == i`, i.e.
/// bucket boundaries at `2^i − 1`. Negative samples land in bucket 0 but
/// still update `min`/`sum` exactly.
#[derive(Clone, Debug)]
pub(crate) struct HistData {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: [u64; BUCKETS],
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistData {
    /// `n ≥ 1` samples of `v`. The sum grows by `v · n`, which equals `n`
    /// repeated adds whenever those are exact (integer samples).
    pub(crate) fn record(&mut self, v: f64, n: u64) {
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += n;
    }
}

/// Which bucket a sample falls into.
pub(crate) fn bucket_of(v: f64) -> usize {
    // NaN and non-positive samples both land in the zero bucket.
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    let idx = (1.0 + v).log2().floor();
    (idx as usize).min(BUCKETS - 1)
}

/// Inclusive-exclusive value range `[lo, hi)` of bucket `i`.
pub(crate) fn bucket_range(i: usize) -> (f64, f64) {
    let lo = (2f64).powi(i as i32) - 1.0;
    let hi = (2f64).powi(i as i32 + 1) - 1.0;
    (lo, hi)
}

/// A distribution recorder (e.g. Newton iterations per timestep).
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<HistData>>);

impl Histogram {
    pub(crate) fn new(cell: Arc<Mutex<HistData>>) -> Self {
        Histogram(cell)
    }

    /// Records one sample. A no-op while disabled.
    pub fn record(&self, v: f64) {
        if is_enabled() {
            self.0.lock().expect("obs histogram poisoned").record(v, 1);
        }
    }

    /// Records `n` samples of one value under one lock: a caller that
    /// tallies a distribution locally flushes it with one call per
    /// distinct value. A no-op while disabled or when `n` is 0.
    pub fn record_n(&self, v: f64, n: u64) {
        if n > 0 && is_enabled() {
            self.0.lock().expect("obs histogram poisoned").record(v, n);
        }
    }

    /// Sample count so far.
    pub fn count(&self) -> u64 {
        self.0.lock().expect("obs histogram poisoned").count
    }
}
