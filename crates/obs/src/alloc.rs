//! Memory telemetry: a counting `#[global_allocator]` wrapper and
//! kernel-reported high-water-mark sampling.
//!
//! The paper's §1.3 point is that timing closure died by *runtime and
//! capacity* — analysis cost explodes with design size and scenario
//! count — and a million-cell timing graph is exactly the workload
//! where heap, not wall clock, becomes the binding constraint. This
//! module makes memory a first-class observable next to spans:
//!
//! * [`CountingAlloc`] wraps [`System`] and, when counting is enabled
//!   ([`enable_memory`]), tracks total allocations/frees, bytes
//!   allocated/freed, the resulting live-byte balance, and a
//!   **monotonic peak** of that balance. While disabled every
//!   allocation pays one relaxed atomic load and an untaken branch —
//!   the same "off by default" contract as the rest of `tc-obs` (the
//!   `engines` bench keeps the overhead measurable).
//! * [`heap_mark`] / [`HeapMark::delta`] give scoped attribution:
//!   [`crate::span()`] captures a mark on open and records the net live
//!   bytes and peak growth on close, next to the span's duration.
//! * [`mark_memory`] / [`memory_since_mark`] give a run its own totals:
//!   a snapshot's `mem.*` counters and a run artifact's `memory` section
//!   count from the last mark, and its peak is the high-water mark since
//!   then, so one process that runs several studies reports each study's
//!   heap, not the sum of all before it.
//! * [`vm_hwm_bytes`] / [`vm_rss_bytes`] sample the kernel's view
//!   (`/proc/self/status` `VmHWM:` / `VmRSS:` on Linux) behind a
//!   portable fallback that returns `None` elsewhere — the allocator
//!   counts what *we* allocated since enable; the kernel counts the
//!   whole process including pre-enable heap, stacks and code.
//!
//! Accounting notes:
//!
//! * Counting starts at [`enable_memory`]; allocations made before it
//!   are invisible, so a post-enable free of a pre-enable block can
//!   drive the live balance negative. The balance is kept signed and
//!   clamped to zero on read — `peak_bytes` is therefore a peak of
//!   *tracked* live bytes, a lower bound on the true heap.
//! * Counters are process-cumulative and survive [`crate::reset`]
//!   (like `obs.trace.dropped`): the peak is monotonic by contract.
//! * Updates are relaxed atomics. Under concurrent allocation the peak
//!   may miss a transient maximum by the bytes in flight on other
//!   threads; it never exceeds the true maximum.

// The one unsafe surface of the workspace: implementing `GlobalAlloc`
// requires it. Everything inside is delegation to `System` plus relaxed
// atomic bookkeeping (which must not allocate — it would recurse).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

static MEM_ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed live balance: frees of pre-enable blocks may undershoot zero.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// Monotonic high-water mark of `LIVE_BYTES` (clamped at zero).
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE_BYTES` since the last [`mark_memory`]; never
/// above `PEAK_BYTES`.
static MARK_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Turns heap counting on. Until this is called every allocation is a
/// single relaxed load plus an untaken branch.
pub fn enable_memory() {
    MEM_ENABLED.store(true, Ordering::Relaxed);
}

/// Turns heap counting off. Totals are kept (they are cumulative for
/// the process); live/peak stop moving.
pub fn disable_memory() {
    MEM_ENABLED.store(false, Ordering::Relaxed);
}

/// Whether heap counting is currently on.
#[inline]
pub fn memory_enabled() -> bool {
    MEM_ENABLED.load(Ordering::Relaxed)
}

#[inline]
fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    // Common case: we are below the mark's high-water mark, which is
    // never above the process's, and a relaxed load is far cheaper than
    // the `fetch_max` CAS loop. Racing writers can both pass a check;
    // `fetch_max` still keeps each peak monotonic between marks.
    if live > 0 && live as u64 > MARK_PEAK_BYTES.load(Ordering::Relaxed) {
        MARK_PEAK_BYTES.fetch_max(live as u64, Ordering::Relaxed);
        if live as u64 > PEAK_BYTES.load(Ordering::Relaxed) {
            PEAK_BYTES.fetch_max(live as u64, Ordering::Relaxed);
        }
    }
}

#[inline]
fn on_dealloc(size: usize) {
    FREES.fetch_add(1, Ordering::Relaxed);
    FREED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// The counting allocator: [`System`] plus relaxed-atomic accounting.
///
/// Installed as the workspace's `#[global_allocator]` by this crate, so
/// every binary linking `tc-obs` gets heap telemetry without per-binary
/// boilerplate. Counting is off until [`enable_memory`].
pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && memory_enabled() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && memory_enabled() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if memory_enabled() {
            on_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && memory_enabled() {
            // Account as free(old) + alloc(new): keeps alloc/free event
            // totals meaningful and the live balance exact.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// A point-in-time view of the allocator's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Allocation events since enable (reallocs count one each side).
    pub allocs: u64,
    /// Free events since enable.
    pub frees: u64,
    /// Total bytes handed out since enable.
    pub allocated_bytes: u64,
    /// Total bytes returned since enable.
    pub freed_bytes: u64,
    /// Tracked live bytes right now (clamped at zero).
    pub live_bytes: u64,
    /// Monotonic peak of tracked live bytes.
    pub peak_bytes: u64,
}

/// The reading [`memory_since_mark`] counts from; all zero until the
/// first [`mark_memory`].
static MARK: Mutex<MemStats> = Mutex::new(MemStats {
    allocs: 0,
    frees: 0,
    allocated_bytes: 0,
    freed_bytes: 0,
    live_bytes: 0,
    peak_bytes: 0,
});

/// Makes the allocator's current reading the origin of reported memory:
/// from here on a snapshot's `mem.*` counters and
/// [`crate::RunArtifact::capture_memory`] count from it
/// ([`memory_since_mark`]). Take it where a run begins, next to
/// [`crate::reset`]. [`memory_stats`] stays process-cumulative.
pub fn mark_memory() {
    let mut mark = MARK.lock().unwrap_or_else(|e| e.into_inner());
    *mark = memory_stats();
    MARK_PEAK_BYTES.store(mark.live_bytes, Ordering::Relaxed);
}

/// The allocator's counters since the last [`mark_memory`]: allocation
/// and free events and bytes since it, live bytes grown past the live
/// bytes at the mark (0 if fewer), and the high-water mark of live bytes
/// since it, above the live bytes at the mark. Before the first mark,
/// [`memory_stats`].
pub fn memory_since_mark() -> MemStats {
    let mark = *MARK.lock().unwrap_or_else(|e| e.into_inner());
    let now = memory_stats();
    MemStats {
        allocs: now.allocs - mark.allocs,
        frees: now.frees - mark.frees,
        allocated_bytes: now.allocated_bytes - mark.allocated_bytes,
        freed_bytes: now.freed_bytes - mark.freed_bytes,
        live_bytes: now.live_bytes.saturating_sub(mark.live_bytes),
        peak_bytes: MARK_PEAK_BYTES
            .load(Ordering::Relaxed)
            .saturating_sub(mark.live_bytes),
    }
}

/// Reads the allocator's counters. Cheap (six relaxed loads); valid
/// whether or not counting is currently enabled.
pub fn memory_stats() -> MemStats {
    MemStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Tracked live heap bytes right now (clamped at zero).
#[inline]
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// Monotonic peak of tracked live heap bytes.
#[inline]
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// A heap position captured at one instant, for scoped attribution.
///
/// [`crate::span()`] captures one on open; [`delta`](HeapMark::delta) on
/// close yields the scope's net allocation and peak growth. Deltas are
/// process-wide: on a multi-threaded phase other threads' allocations
/// are attributed too (the pool workers inherit the submitting span's
/// path, so the attribution still lands on the right subtree).
#[derive(Clone, Copy, Debug)]
pub struct HeapMark {
    allocated: u64,
    freed: u64,
    peak: u64,
}

/// What a scope did to the heap, measured between two [`HeapMark`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapDelta {
    /// Net live-byte change (allocated − freed inside the scope;
    /// negative when the scope released more than it took).
    pub net_bytes: i64,
    /// How far the scope pushed the monotonic peak (0 if the
    /// high-water mark predates the scope).
    pub peak_bytes: u64,
}

/// Captures the current heap position.
pub fn heap_mark() -> HeapMark {
    HeapMark {
        allocated: ALLOCATED_BYTES.load(Ordering::Relaxed),
        freed: FREED_BYTES.load(Ordering::Relaxed),
        peak: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

impl HeapMark {
    /// The heap change since this mark was captured.
    pub fn delta(&self) -> HeapDelta {
        let allocated = ALLOCATED_BYTES
            .load(Ordering::Relaxed)
            .wrapping_sub(self.allocated);
        let freed = FREED_BYTES.load(Ordering::Relaxed).wrapping_sub(self.freed);
        HeapDelta {
            net_bytes: allocated as i64 - freed as i64,
            peak_bytes: PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(self.peak),
        }
    }
}

/// The kernel's peak resident-set size for this process, bytes
/// (`VmHWM:` in `/proc/self/status`). `None` off Linux or if the field
/// is unreadable.
pub fn vm_hwm_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// The kernel's current resident-set size for this process, bytes
/// (`VmRSS:` in `/proc/self/status`). `None` off Linux or if the field
/// is unreadable.
pub fn vm_rss_bytes() -> Option<u64> {
    proc_status_kb("VmRSS:").map(|kb| kb * 1024)
}

#[cfg(target_os = "linux")]
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    // Format: `VmHWM:     12345 kB`.
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn proc_status_kb(_field: &str) -> Option<u64> {
    None
}
