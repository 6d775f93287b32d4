//! Counting-allocator integration tests. Allocator state is global and
//! process-cumulative (this file is its own test binary, so enabling
//! counting here cannot perturb the other suites), and the tests
//! serialize on a lock because deltas are process-wide.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard, PoisonError};

static MEM_LOCK: Mutex<()> = Mutex::new(());

/// The lock guards no data, so a poisoned one is still good: one
/// failing test must report as one failure, not take the rest down with
/// `PoisonError`.
fn serialize() -> MutexGuard<'static, ()> {
    MEM_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const MIB: usize = 1 << 20;

// Every buffer below goes through `black_box`: the tests never read
// them, so a release build may otherwise elide the allocations whose
// accounting they check.

#[test]
fn alloc_and_free_are_accounted() {
    let _guard = serialize();
    tc_obs::enable_memory();
    let before = tc_obs::memory_stats();
    let mark = tc_obs::heap_mark();
    let buf = black_box(vec![7u8; 4 * MIB]);
    let mid = tc_obs::memory_stats();
    assert!(mid.allocs > before.allocs, "allocation event counted");
    assert!(
        mid.allocated_bytes >= before.allocated_bytes + (4 * MIB) as u64,
        "allocated bytes cover the buffer"
    );
    // The live balance is process-wide, and libtest's main thread frees
    // finished-test bookkeeping while we hold the buffer: only the
    // monotone totals above are exact, the net gets 1 MiB of slack.
    assert!(
        mark.delta().net_bytes >= (3 * MIB) as i64,
        "net live bytes grew by about the buffer"
    );
    drop(buf);
    let after = tc_obs::memory_stats();
    assert!(after.frees > mid.frees, "free event counted");
    assert!(
        after.freed_bytes >= mid.freed_bytes + (4 * MIB) as u64,
        "freed bytes cover the buffer"
    );
    // Alloc+free nets out (modulo unrelated small allocations from the
    // test harness while we held the buffer).
    assert!(
        mark.delta().net_bytes < (2 * MIB) as i64,
        "net settles well below the buffer size after the free"
    );
    tc_obs::disable_memory();
}

#[test]
fn peak_is_monotonic_across_alloc_and_free() {
    let _guard = serialize();
    tc_obs::enable_memory();
    let p0 = tc_obs::memory_stats().peak_bytes;
    let buf = black_box(vec![1u8; 8 * MIB]);
    let p1 = tc_obs::memory_stats().peak_bytes;
    assert!(p1 >= p0, "peak never decreases on allocation");
    drop(buf);
    let p2 = tc_obs::memory_stats().peak_bytes;
    assert!(p2 >= p1, "peak never decreases on free");
    // A second, larger burst must push the tracked peak past the live
    // level it started from.
    let live = tc_obs::memory_stats().live_bytes;
    let big = black_box(vec![2u8; 16 * MIB]);
    let p3 = tc_obs::memory_stats().peak_bytes;
    assert!(
        p3 + MIB as u64 >= live + (16 * MIB) as u64,
        "peak covers live + burst (to 1 MiB of concurrent frees): peak {p3}, live-before {live}"
    );
    drop(big);
    tc_obs::disable_memory();
}

#[test]
fn disabled_counting_moves_nothing() {
    let _guard = serialize();
    tc_obs::disable_memory();
    let before = tc_obs::memory_stats();
    let buf = black_box(vec![3u8; 2 * MIB]);
    drop(buf);
    let after = tc_obs::memory_stats();
    assert_eq!(before, after, "disabled counting is inert");
}

#[test]
fn spans_attribute_heap_to_the_right_subtree() {
    let _guard = serialize();
    tc_obs::reset();
    tc_obs::enable();
    tc_obs::enable_memory();
    let held;
    {
        let _outer = tc_obs::span("t_mem.outer");
        held = black_box(vec![5u8; 4 * MIB]); // stays live across the span close
        {
            let _inner = tc_obs::span("t_mem.inner");
            let scratch = black_box(vec![6u8; 2 * MIB]); // freed before the close
            drop(scratch);
        }
    }
    let snap = tc_obs::snapshot();
    let outer = snap.span("t_mem.outer").expect("outer recorded");
    let inner = snap
        .span("t_mem.outer/t_mem.inner")
        .expect("inner nested under outer");
    // Process-wide balance again: 1 MiB of slack for concurrent frees.
    assert!(
        outer.net_bytes >= (3 * MIB) as i64,
        "outer keeps its held buffer: net {}",
        outer.net_bytes
    );
    assert!(
        inner.net_bytes < (2 * MIB) as i64,
        "inner freed its scratch: net {}",
        inner.net_bytes
    );
    // mem.* counters join the snapshot while counting is on.
    assert!(snap.counter("mem.allocs") > 0);
    assert!(snap.counter("mem.peak_heap_bytes") >= snap.counter("mem.live_bytes"));
    drop(held);
    tc_obs::disable_memory();
    tc_obs::disable();
}

#[test]
fn vm_probes_agree_with_the_platform() {
    let _guard = serialize();
    if cfg!(target_os = "linux") {
        let hwm = tc_obs::vm_hwm_bytes().expect("VmHWM readable on Linux");
        let rss = tc_obs::vm_rss_bytes().expect("VmRSS readable on Linux");
        assert!(hwm >= rss, "high-water mark bounds current RSS");
        assert!(hwm > 0);
    } else {
        assert_eq!(tc_obs::vm_hwm_bytes(), None);
        assert_eq!(tc_obs::vm_rss_bytes(), None);
    }
}

#[test]
fn run_artifact_carries_the_memory_section() {
    let _guard = serialize();
    tc_obs::enable_memory();
    let _buf = black_box(vec![9u8; MIB]);
    let art = tc_obs::RunArtifact::new("t_mem_artifact")
        .wall_ms(1.0)
        .capture_memory();
    let text = art.render();
    tc_obs::disable_memory();
    let doc = tc_obs::JsonValue::parse(&text).expect("artifact parses");
    let tc_obs::JsonValue::Obj(fields) = doc else {
        panic!("artifact is not an object");
    };
    let (_, mem) = fields
        .iter()
        .find(|(k, _)| k == "memory")
        .expect("memory section present");
    let tc_obs::JsonValue::Obj(mem) = mem else {
        panic!("memory section is not an object");
    };
    for key in [
        "total_allocs",
        "total_frees",
        "allocated_bytes",
        "freed_bytes",
        "live_bytes",
        "peak_heap_bytes",
        "vm_hwm_bytes",
        "vm_rss_bytes",
    ] {
        assert!(
            mem.iter().any(|(k, _)| k == key),
            "memory section has {key}"
        );
    }
}

#[test]
fn disabled_artifact_capture_is_a_no_op() {
    let _guard = serialize();
    tc_obs::disable_memory();
    let text = tc_obs::RunArtifact::new("t_mem_absent")
        .capture_memory()
        .render();
    assert!(
        !text.contains("\"memory\""),
        "no memory section while counting is off"
    );
}
