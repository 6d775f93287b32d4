//! Flight-recorder integration tests. Tracing state is global (like
//! the registry), so this gets its own test binary and the tests
//! serialize on a lock.

use std::sync::Mutex;

use tc_obs::{JsonValue, TraceEventKind};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// The `traceEvents` array of a parsed Chrome trace document.
fn trace_events(doc: &JsonValue) -> Vec<JsonValue> {
    let JsonValue::Obj(pairs) = doc else {
        panic!("trace document is not an object");
    };
    match pairs.iter().find(|(k, _)| k == "traceEvents") {
        Some((_, JsonValue::Arr(items))) => items.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    }
}

fn num_field(ev: &JsonValue, name: &str) -> f64 {
    let JsonValue::Obj(pairs) = ev else {
        panic!("event is not an object");
    };
    match pairs.iter().find(|(k, _)| k == name) {
        Some((_, JsonValue::Num(x))) => *x,
        other => panic!("event field {name}: {other:?}"),
    }
}

fn str_field(ev: &JsonValue, name: &str) -> String {
    let JsonValue::Obj(pairs) = ev else {
        panic!("event is not an object");
    };
    match pairs.iter().find(|(k, _)| k == name) {
        Some((_, JsonValue::Str(s))) => s.clone(),
        other => panic!("event field {name}: {other:?}"),
    }
}

#[test]
fn concurrent_threads_produce_a_valid_balanced_chrome_trace() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::clear_trace();
    tc_obs::enable_trace(tc_obs::DEFAULT_TRACE_CAPACITY);

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..25 {
                    let _outer = tc_obs::span("trc.outer");
                    let _inner = tc_obs::span("trc.inner");
                    tc_obs::counter("trc.work").add(2);
                }
            });
        }
    });

    let snap = tc_obs::trace_snapshot();
    assert!(snap.thread_ids().len() >= 4, "one ring per worker thread");
    assert_eq!(snap.dropped, 0, "capacity was ample");

    // Per-thread timestamps are monotonic in the snapshot's sort order.
    for pair in snap.events.windows(2) {
        if pair[0].tid == pair[1].tid {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }

    // The export is real JSON with balanced B/E per thread, plus one
    // M/thread_name metadata event per recorded thread up front.
    let text = snap.to_chrome_trace();
    let doc = JsonValue::parse(&text).expect("chrome trace parses");
    let events = trace_events(&doc);
    assert_eq!(
        events.len(),
        snap.events.len() + snap.thread_names.len(),
        "every event plus one thread_name metadata record per thread"
    );
    let meta_count = events
        .iter()
        .filter(|ev| str_field(ev, "ph") == "M")
        .inspect(|ev| assert_eq!(str_field(ev, "name"), "thread_name"))
        .count();
    assert_eq!(meta_count, snap.thread_names.len());
    let mut depth = std::collections::BTreeMap::new();
    let mut last_ts = std::collections::BTreeMap::new();
    for ev in &events {
        let ph = str_field(ev, "ph");
        if ph == "M" {
            continue;
        }
        let tid = num_field(ev, "tid") as u64;
        let ts = num_field(ev, "ts");
        if let Some(&prev) = last_ts.get(&tid) {
            assert!(ts >= prev, "ts regressed on tid {tid}");
        }
        last_ts.insert(tid, ts);
        let d = depth.entry(tid).or_insert(0i64);
        match ph.as_str() {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "unmatched E on tid {tid}");
            }
            "C" => {}
            other => panic!("unexpected ph {other}"),
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unbalanced B/E: {depth:?}");

    // Counter events carried their deltas.
    assert!(snap
        .events
        .iter()
        .any(|e| e.kind == TraceEventKind::Counter && &*e.name == "trc.work" && e.delta == 2));

    tc_obs::disable_trace();
    tc_obs::clear_trace();
}

#[test]
fn ring_overflow_counts_drops_without_panicking() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::clear_trace();
    let before = tc_obs::snapshot().counter("obs.trace.dropped");
    tc_obs::enable_trace(8); // tiny ring: most events must drop

    for _ in 0..1000 {
        let _s = tc_obs::span("trc.overflow");
        tc_obs::counter("trc.overflow_count").add(1);
    }

    let snap = tc_obs::trace_snapshot();
    let events_per_ring = snap
        .events
        .iter()
        .filter(|e| e.tid == snap.events[0].tid)
        .count();
    assert!(events_per_ring <= 8, "ring respects its capacity");
    assert!(snap.dropped > 0, "drops are counted in the snapshot");
    let after = tc_obs::snapshot().counter("obs.trace.dropped");
    assert!(
        after > before,
        "obs.trace.dropped counter advanced: {before} -> {after}"
    );

    // The truncated trace still exports parseable JSON (balance is
    // forgiven when dropped_events > 0).
    let doc = JsonValue::parse(&snap.to_chrome_trace()).expect("overflowed trace still parses");
    let JsonValue::Obj(pairs) = &doc else {
        panic!("not an object")
    };
    assert!(pairs.iter().any(|(k, _)| k == "otherData"));

    tc_obs::disable_trace();
    tc_obs::clear_trace();
}

#[test]
fn overflow_warning_opens_the_text_report() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::enable();
    tc_obs::clear_trace();
    tc_obs::enable_trace(4);
    for _ in 0..200 {
        let _s = tc_obs::span("trc.warn_overflow");
    }
    assert!(tc_obs::trace_snapshot().dropped > 0, "overflow happened");

    // The metrics report must lead with the truncation warning: any
    // profile derived from this trace is lying about self-time.
    let text = tc_obs::snapshot().render_text();
    assert!(text.starts_with("WARNING:"), "{text}");
    assert!(text.contains("ring overflow"), "{text}");

    tc_obs::disable_trace();
    tc_obs::clear_trace();
}

#[test]
fn span_ns_deltas_report_growth_and_omit_unchanged_spans() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::enable();
    {
        let _s = tc_obs::span("trc.delta_done");
    }
    let before = tc_obs::snapshot();
    {
        let _s = tc_obs::span("trc.delta_work");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let after = tc_obs::snapshot();
    let deltas = after.span_ns_deltas(&before);
    let grown = deltas
        .iter()
        .find(|(path, _)| path == "trc.delta_work")
        .expect("worked span appears in the deltas");
    assert!(grown.1 > 0);
    assert!(
        deltas.iter().all(|(path, _)| path != "trc.delta_done"),
        "untouched spans are omitted: {deltas:?}"
    );
}

#[test]
fn disabled_tracing_emits_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap();
    tc_obs::disable_trace();
    tc_obs::clear_trace();
    {
        let _s = tc_obs::span("trc.dark");
        let _t = tc_obs::trace_scope("trc.dark_task");
        tc_obs::counter("trc.dark_count").add(1);
    }
    assert!(tc_obs::trace_snapshot().events.is_empty());
}
