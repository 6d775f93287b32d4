//! Profile-construction edge cases on hand-built timelines: recursion,
//! imbalance, forced closes, heap bracketing, and the trace reader. These
//! build [`TraceSnapshot`]s directly, so no global recorder state is
//! involved and the expected numbers can be checked exactly.

use std::sync::Arc;

use tc_obs::trace::{TraceEvent, TraceEventKind};
use tc_obs::TraceSnapshot;
use tc_prof::profile::chrome_to_snapshot;
use tc_prof::Profile;

fn ev(kind: TraceEventKind, name: &str, tid: u64, ts_ns: u64, delta: u64) -> TraceEvent {
    TraceEvent {
        kind,
        name: Arc::from(name),
        tid,
        ts_ns,
        delta,
    }
}

fn snap(mut events: Vec<TraceEvent>) -> TraceSnapshot {
    events.sort_by_key(|e| (e.tid, e.ts_ns));
    TraceSnapshot {
        events,
        dropped: 0,
        thread_names: vec![(0, "main".to_string())],
    }
}

#[test]
fn recursive_spans_double_count_total_but_not_self() {
    use TraceEventKind::{Begin, End};
    // `a` three frames deep: [0,500] ⊃ [100,400] ⊃ [200,300].
    let p = Profile::from_trace(&snap(vec![
        ev(Begin, "a", 0, 0, 0),
        ev(Begin, "a", 0, 100, 0),
        ev(Begin, "a", 0, 200, 0),
        ev(End, "a", 0, 300, 0),
        ev(End, "a", 0, 400, 0),
        ev(End, "a", 0, 500, 0),
    ]));
    assert_eq!(p.wall_ns, 500);
    let a = p.span("a").expect("span a");
    assert_eq!(a.count, 3);
    // Inclusive time per *name* exceeds wall under recursion (by
    // design); exclusive time still partitions the wall exactly.
    assert_eq!(a.total_ns, 100 + 300 + 500);
    assert_eq!(a.self_ns, 500);
    assert_eq!(a.child_ns, 400);
    assert_eq!((a.min_ns, a.max_ns), (100, 500));
    assert_eq!((a.p50_ns, a.p99_ns), (300, 500));
    // One lane, fully busy: the root frame covers the whole window.
    assert_eq!(p.attributed_ns, 500);
    assert!((p.coverage() - 1.0).abs() < 1e-12);
    // The chain walks the recursion: three `a` links, per-path self.
    let chain: Vec<(&str, u64)> = p
        .critical_chain
        .iter()
        .map(|l| (l.name.as_str(), l.self_ns))
        .collect();
    assert_eq!(chain, vec![("a", 200), ("a", 200), ("a", 100)]);
    assert_eq!(p.critical_chain_ns, 500);
}

#[test]
fn unmatched_end_is_counted_and_skipped() {
    use TraceEventKind::{Begin, End};
    // The `E lost` has no open frame (its `B` fell off a ring, or the
    // span was opened before a reset epoch) — it must not close `x`.
    let p = Profile::from_trace(&snap(vec![
        ev(End, "lost", 0, 50, 0),
        ev(Begin, "x", 0, 100, 0),
        ev(End, "lost", 0, 150, 0),
        ev(End, "x", 0, 200, 0),
    ]));
    assert_eq!(p.unmatched_ends, 2);
    assert_eq!(p.open_spans, 0);
    assert!(p.span("lost").is_none());
    let x = p.span("x").expect("span x");
    assert_eq!((x.count, x.total_ns), (1, 100));
}

#[test]
fn still_open_frames_close_at_the_last_timestamp() {
    use TraceEventKind::{Begin, Counter};
    let p = Profile::from_trace(&snap(vec![
        ev(Begin, "outer", 0, 0, 0),
        ev(Begin, "inner", 0, 10, 0),
        ev(Counter, "ticks", 0, 100, 1),
    ]));
    assert_eq!(p.open_spans, 2);
    assert_eq!(p.span("outer").unwrap().total_ns, 100);
    assert_eq!(p.span("inner").unwrap().total_ns, 90);
    assert_eq!(p.span("outer").unwrap().self_ns, 10);
}

#[test]
fn heap_gauges_bracket_nested_spans() {
    use TraceEventKind::{Begin, End, Gauge};
    let p = Profile::from_trace(&snap(vec![
        ev(Begin, "outer", 0, 0, 0),
        ev(Gauge, "mem.live_bytes", 0, 1, 1_000),
        ev(Begin, "inner", 0, 10, 0),
        ev(Gauge, "mem.live_bytes", 0, 11, 2_000),
        ev(End, "inner", 0, 20, 0),
        ev(Gauge, "mem.live_bytes", 0, 21, 5_000),
        ev(End, "outer", 0, 30, 0),
        ev(Gauge, "mem.live_bytes", 0, 31, 6_000),
    ]));
    assert_eq!(p.span("inner").unwrap().net_bytes, 3_000);
    assert_eq!(p.span("outer").unwrap().net_bytes, 5_000);
    // Freed-heavy spans go negative, they do not saturate at zero.
    let q = Profile::from_trace(&snap(vec![
        ev(Begin, "free", 0, 0, 0),
        ev(Gauge, "mem.live_bytes", 0, 1, 9_000),
        ev(End, "free", 0, 10, 0),
        ev(Gauge, "mem.live_bytes", 0, 11, 4_000),
    ]));
    assert_eq!(q.span("free").unwrap().net_bytes, -5_000);
}

#[test]
fn multi_lane_profile_reports_utilization_and_parallelism() {
    use TraceEventKind::{Begin, End};
    let mut s = snap(vec![
        ev(Begin, "drive", 0, 0, 0),
        ev(End, "drive", 0, 1_000, 0),
        ev(Begin, "task", 1, 200, 0),
        ev(End, "task", 1, 700, 0),
    ]);
    s.thread_names.push((1, "tc-par-0".to_string()));
    let p = Profile::from_trace(&s);
    assert_eq!(p.lanes.len(), 2);
    assert_eq!((p.lanes[0].busy_ns, p.lanes[0].idle_ns), (1_000, 0));
    assert_eq!((p.lanes[1].busy_ns, p.lanes[1].idle_ns), (500, 500));
    assert_eq!(p.lanes[1].name, "tc-par-0");
    assert_eq!(p.attributed_ns, 1_000);
    assert!((p.parallelism() - 1.5).abs() < 1e-12);
}

#[test]
fn dropped_events_make_a_profile_ungateable() {
    let mut s = snap(vec![
        ev(TraceEventKind::Begin, "hot", 0, 0, 0),
        ev(TraceEventKind::End, "hot", 0, 1_000, 0),
    ]);
    s.dropped = 7;
    let p = Profile::from_trace(&s);
    assert_eq!(p.dropped_events, 7);
    assert!(p.render_text(10).contains("WARNING"));
}

#[test]
fn chrome_reader_rejects_a_timestamp_that_runs_backwards() {
    // The reader used to sort events by (tid, ts), which turned this
    // trace into a plausible one-span profile instead of reporting it.
    let backwards = r#"{"traceEvents":[
        {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":0},
        {"name":"b","ph":"B","ts":1.0,"pid":1,"tid":1},
        {"name":"a","ph":"E","ts":1.0,"pid":1,"tid":0},
        {"name":"b","ph":"E","ts":2.0,"pid":1,"tid":1}
    ]}"#;
    let err = chrome_to_snapshot(backwards).expect_err("regressing ts on tid 0");
    assert!(
        err.contains("trace event 2") && err.contains("regresses") && err.contains("tid 0"),
        "{err}"
    );
    assert!(Profile::from_chrome_trace(backwards).is_err());
    // Lanes interleave freely: monotonicity is per thread, not global.
    let interleaved =
        backwards.replace(r#""ts":1.0,"pid":1,"tid":0"#, r#""ts":6.0,"pid":1,"tid":0"#);
    assert!(chrome_to_snapshot(&interleaved).is_ok());
}

#[test]
fn json_roundtrip_preserves_the_profile_exactly() {
    use TraceEventKind::{Begin, End, Gauge};
    let mut s = snap(vec![
        ev(Begin, "sta", 0, 0, 0),
        ev(Gauge, "mem.live_bytes", 0, 1, 4_096),
        ev(Begin, "propagate", 0, 100, 0),
        ev(End, "propagate", 0, 900, 0),
        ev(End, "sta", 0, 1_000, 0),
        ev(Gauge, "mem.live_bytes", 0, 1_001, 8_192),
        ev(Begin, "par.task", 1, 200, 0),
        ev(End, "par.task", 1, 600, 0),
    ]);
    s.thread_names.push((1, "tc-par-0".to_string()));
    let p = Profile::from_trace(&s).workload("roundtrip fixture");
    let parsed = Profile::parse(&p.render_json()).expect("own output parses");
    assert_eq!(parsed, p);
}
